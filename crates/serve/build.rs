//! Link-time layout of the `altxd` executable.
//!
//! A daemon's image is resident by 64 kB fault-around windows, so what it
//! costs is the number of windows the code and constants it uses are
//! spread over, not their size. Two files made by `scripts/hot_text.sh`
//! say what a daemon uses:
//! - `altxd.order` names every function start-up and the benchmark's
//!   request shapes execute; LLD places those first in `.text`, in that
//!   order, and everything else after them;
//! - `altxd.ld`, an LLD linker-script fragment of `INSERT` commands, puts
//!   the read-only input sections they read (anonymous and named
//!   constants, jump tables, merged strings, C library tables) in a
//!   `.rodata.hot` section right after the headers, moves
//!   `.gcc_except_table`, which only unwinding reads, behind the unwind
//!   tables at the end of the read-only segment, and moves `.init`,
//!   `.fini` and `.iplt` from the end of the text to its start, beside
//!   the hot functions.
//!
//! So the windows a daemon faults in are the windows it uses. Relative
//! relocations are packed as RELR, which static glibc applies at
//! start-up. The link also writes its map to `$OUT_DIR/altxd.map`, from
//! which `hot_text.sh` names the data a trace read. docs/INTERNALS.md
//! § *Resident memory* has the numbers.
//!
//! Only `altxd` is linked this way; every other executable and test
//! binary links as before. A name the list has but the build lacks (a
//! dev-profile build, an edited crate) is skipped without a warning, and
//! a pattern of the fragment that matches nothing places nothing.
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
    println!("cargo:rerun-if-changed=altxd.ld");
    if !links_with_rust_lld() {
        return;
    }
    let dir = env::var("CARGO_MANIFEST_DIR").unwrap();
    for arg in [
        format!("-Wl,--symbol-ordering-file={dir}/altxd.order"),
        "-Wl,--no-warn-symbol-ordering".to_owned(),
        format!("-Wl,-T,{dir}/altxd.ld"),
        "-Wl,-z,pack-relative-relocs".to_owned(),
        format!("-Wl,-Map={}/altxd.map", env::var("OUT_DIR").unwrap()),
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
