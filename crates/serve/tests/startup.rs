//! A fresh `altxd` as a process: how it is loaded and that it answers.
//!
//! On Linux with glibc the workspace links its executables as static
//! PIEs (the root `.cargo/config.toml`): no dynamic loader runs before
//! `main`, yet the load address still moves from run to run. These tests
//! spawn the real binary the way the benchmark does and pin what that
//! build promises — no shared object mapped, a load address that moves,
//! a reply to the first `RUN`, and host names that still resolve (static
//! glibc's `getaddrinfo` reads the host's name-service configuration at
//! run time). No wall-clock bound anywhere.
#![cfg(target_os = "linux")]

use altx_serve::frame::Response;
use altx_serve::Client;
use std::io::{BufRead, BufReader};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// A spawned `altxd`, killed and reaped on drop.
struct Altxd {
    child: Child,
    /// The port it bound, from its `listening on` line.
    port: u16,
    /// Held open: the daemon keeps printing, and a closed pipe would
    /// fail its next `println!`.
    _stdout: BufReader<ChildStdout>,
}

impl Altxd {
    fn spawn(addr: &str) -> Altxd {
        let mut child = Command::new(env!("CARGO_BIN_EXE_altxd"))
            .args(["--addr", addr, "--workers", "2", "--shards", "1"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn altxd");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped"));
        let mut line = String::new();
        stdout.read_line(&mut line).expect("read the banner");
        let bound = line
            .strip_prefix("altxd listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .unwrap_or_else(|| panic!("no `listening on` line: {line:?}"));
        let port = bound
            .rsplit_once(':')
            .and_then(|(_, port)| port.parse().ok())
            .unwrap_or_else(|| panic!("no port in {bound:?}"));
        Altxd {
            child,
            port,
            _stdout: stdout,
        }
    }

    /// Every thread's name, sorted.
    fn threads(&self) -> Vec<String> {
        let tasks = format!("/proc/{}/task", self.child.id());
        let mut names: Vec<String> = std::fs::read_dir(&tasks)
            .expect("read the task list")
            .filter_map(|task| {
                let comm = task.ok()?.path().join("comm");
                Some(std::fs::read_to_string(comm).ok()?.trim_end().to_owned())
            })
            .collect();
        names.sort();
        names
    }

    fn maps(&self) -> String {
        std::fs::read_to_string(format!("/proc/{}/maps", self.child.id())).expect("read maps")
    }

    /// Where the executable's first segment is mapped.
    fn load_address(&self) -> u64 {
        let exe = std::fs::read_link(format!("/proc/{}/exe", self.child.id())).expect("exe link");
        let exe = exe.to_str().expect("utf-8 path");
        let maps = self.maps();
        let line = maps
            .lines()
            .find(|l| l.split_whitespace().nth(5) == Some(exe))
            .unwrap_or_else(|| panic!("{exe} is not mapped:\n{maps}"));
        let start = line.split('-').next().expect("an address range");
        u64::from_str_radix(start, 16).expect("hex address")
    }
}

impl Drop for Altxd {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn assert_trivial_answered(addr: &str) {
    let mut client = Client::connect(addr).unwrap_or_else(|e| panic!("connect {addr}: {e}"));
    match client.run("trivial", 7, 1_000).expect("a reply") {
        Response::Ok { value, .. } => assert_eq!(value, 7),
        other => panic!("expected Ok from {addr}, got {other:?}"),
    }
}

#[test]
fn a_fresh_daemon_answers_a_trivial_run() {
    let altxd = Altxd::spawn("127.0.0.1:0");
    assert_trivial_answered(&format!("127.0.0.1:{}", altxd.port));
}

#[test]
fn a_static_build_maps_no_shared_object() {
    if !cfg!(target_feature = "crt-static") {
        eprintln!("skipped: this build links dynamically");
        return;
    }
    let altxd = Altxd::spawn("127.0.0.1:0");
    // Served once, so whatever the first request loads is loaded.
    assert_trivial_answered(&format!("127.0.0.1:{}", altxd.port));
    let maps = altxd.maps();
    let shared: Vec<&str> = maps
        .lines()
        .filter_map(|l| l.split_whitespace().nth(5))
        .filter(|path| {
            let name = path.rsplit('/').next().unwrap_or(path);
            name.ends_with(".so") || name.contains(".so.")
        })
        .collect();
    assert!(
        shared.is_empty(),
        "a static altxd mapped {shared:?}:\n{maps}"
    );
}

#[test]
fn the_executable_loads_at_a_new_address_each_run() {
    let aslr = std::fs::read_to_string("/proc/sys/kernel/randomize_va_space").unwrap_or_default();
    if aslr.trim().parse::<u32>().unwrap_or(0) == 0 {
        eprintln!("skipped: address-space randomisation is off on this host");
        return;
    }
    let (first, second) = (Altxd::spawn("127.0.0.1:0"), Altxd::spawn("127.0.0.1:0"));
    assert_ne!(
        first.load_address(),
        second.load_address(),
        "two runs mapped altxd at one address: not position-independent"
    );
}

#[test]
fn localhost_resolves_to_bind_and_to_connect() {
    let altxd = Altxd::spawn("localhost:0");
    assert_trivial_answered(&format!("localhost:{}", altxd.port));
}

/// An idle daemon's threads, by name: its main thread — which runs
/// reactor shard 0, and with it every peer link — and nothing else. No
/// peer thread, no reactor thread of its own and no pool thread: the
/// pool's two slots run on the race crew, which an idle daemon has not
/// called on. (A thread names itself once it runs, so the census is
/// read until it settles.)
#[test]
fn an_idle_daemon_runs_its_main_thread_and_nothing_else() {
    let altxd = Altxd::spawn("127.0.0.1:0");
    let want = ["altxd"];
    let until = Instant::now() + Duration::from_secs(5);
    let mut census = altxd.threads();
    while census != want && Instant::now() < until {
        std::thread::sleep(Duration::from_millis(10));
        census = altxd.threads();
    }
    assert_eq!(census, want, "an idle `altxd --workers 2 --shards 1`");
}

/// The command line is the eight settings an operator makes: five of
/// deployment and three scheduling switches. The tuning values earlier
/// versions took as flags, and `--steal`, are gone, and naming one is
/// refused like any unknown flag — never silently ignored.
#[test]
fn the_command_line_takes_eight_flags_and_refuses_the_old_tuning_ones() {
    let help = Command::new(env!("CARGO_BIN_EXE_altxd"))
        .arg("--help")
        .output()
        .expect("run altxd --help");
    assert!(help.status.success(), "altxd --help: {:?}", help.status);
    let usage = String::from_utf8(help.stdout).expect("utf-8 usage");
    let mut named: Vec<&str> = usage
        .split(|c: char| c.is_whitespace() || "[]".contains(c))
        .filter(|word| word.starts_with("--"))
        .map(|word| word.trim_end_matches("..."))
        .collect();
    named.sort_unstable();
    let mut want = [
        "--addr",
        "--workers",
        "--shards",
        "--peer",
        "--advertise",
        "--hedge",
        "--lanes",
        "--admission",
    ];
    want.sort_unstable();
    assert_eq!(named, want, "the flags of {usage:?}");

    for removed in [
        "--queue",
        "--ring-slots",
        "--ring-slot-bytes",
        "--duration",
        "--hedge-min-samples",
        "--hedge-explore-every",
        "--peer-explore-every",
        "--peer-heartbeat-ms",
        "--peer-suspect-ms",
        "--lane-aging-ms",
        "--spin-us",
        "--steal",
    ] {
        // `--workers 0` is refused too, so a parser that took the flag
        // would exit rather than serve.
        let out = Command::new(env!("CARGO_BIN_EXE_altxd"))
            .args([removed, "1", "--workers", "0"])
            .stdin(Stdio::null())
            .output()
            .unwrap_or_else(|e| panic!("run altxd {removed}: {e}"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "altxd {removed}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown flag {removed}")),
            "altxd {removed}: {stderr}"
        );
    }
}
