//! Link-time layout of the `altxd` executable.
//!
//! A daemon's text is resident by 64 kB fault-around windows, so what it
//! costs is the number of windows its executed code is spread over, not
//! the code it runs. `altxd.order` names every function start-up and the
//! benchmark's request shapes execute (made by `scripts/hot_text.sh`);
//! LLD places those first in `.text`, in that order, and everything else
//! after them, so the windows a daemon faults in are the windows it uses.
//! Relative relocations are packed as RELR, which static glibc applies
//! at start-up. docs/INTERNALS.md § *Resident memory* has the numbers.
//!
//! Only `altxd` is linked this way; every other executable and test
//! binary links as before. A name the list has but the build lacks (a
//! dev-profile build, an edited crate) is skipped without a warning.
//!
//! The flags are LLD's, so they are passed only where rustc links with
//! its own LLD: x86_64-unknown-linux-gnu from rustc 1.90 on, when the
//! toolchain ships `gcc-ld/ld.lld` and no linker is chosen through
//! cargo's `linker` setting or `RUSTFLAGS`. Anywhere else `altxd` links
//! in the plain layout, as every other executable does.

use std::env;
use std::path::Path;
use std::process::Command;

fn main() {
    println!("cargo:rerun-if-changed=altxd.order");
    if !links_with_rust_lld() {
        return;
    }
    let order = format!("{}/altxd.order", env::var("CARGO_MANIFEST_DIR").unwrap());
    for arg in [
        format!("-Wl,--symbol-ordering-file={order}"),
        "-Wl,--no-warn-symbol-ordering".to_owned(),
        "-Wl,-z,pack-relative-relocs".to_owned(),
    ] {
        println!("cargo:rustc-link-arg-bin=altxd={arg}");
    }
}

/// Whether rustc's bundled LLD will link this build's executables.
fn links_with_rust_lld() -> bool {
    let var = |key| env::var(key).unwrap_or_default();
    let target = var("TARGET");
    let flags = var("CARGO_ENCODED_RUSTFLAGS");
    if target != "x86_64-unknown-linux-gnu"
        || env::var_os("RUSTC_LINKER").is_some()
        || flags.contains("linker")
        || flags.contains("fuse-ld")
    {
        return false;
    }
    let rustc = |arg| {
        Command::new(var("RUSTC"))
            .arg(arg)
            .output()
            .ok()
            .and_then(|out| String::from_utf8(out.stdout).ok())
            .unwrap_or_default()
    };
    // "rustc 1.95.0 (59807616e 2026-04-14)"
    let minor = rustc("--version")
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.split('.').nth(1)?.parse::<u32>().ok());
    let lld = Path::new(rustc("--print=sysroot").trim())
        .join("lib/rustlib")
        .join(&target)
        .join("bin/gcc-ld/ld.lld");
    minor.is_some_and(|m| m >= 90) && lld.exists()
}
