//! The process under test: spawning and reaping
//! `altxd` and reading its `/proc` entries.

use crate::Res;
use altx_benchmark::scrape::{proc_stat_cpu_ticks, proc_status_field};
use altx_serve::Client;
use std::net::TcpListener;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Daemon sizing: the only flags the benchmark ever passes.
const DAEMON_FLAGS: &[&str] = &["--workers", "2", "--shards", "1"];

/// A spawned `altxd`. Dropping it kills and reaps the process, so no
/// exit path leaves one behind.
pub struct Daemon {
    child: Child,
    addr: String,
    pub argv: Vec<String>,
    pub spawned: Instant,
}

impl Daemon {
    pub fn spawn(altxd: &Path) -> Res<Daemon> {
        // Ask the kernel for a free port, release it, hand it to altxd.
        let port = TcpListener::bind("127.0.0.1:0")?.local_addr()?.port();
        let addr = format!("127.0.0.1:{port}");
        let mut argv = vec!["--addr".to_owned(), addr.clone()];
        argv.extend(DAEMON_FLAGS.iter().map(|s| (*s).to_owned()));
        let spawned = Instant::now();
        let child = Command::new(altxd)
            .args(&argv)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", altxd.display()))?;
        Ok(Daemon {
            child,
            addr,
            argv,
            spawned,
        })
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Connects with `connect`, retrying until the daemon accepts (bind
    /// is part of set-up time).
    pub fn connect<T>(&mut self, connect: impl Fn(&str) -> std::io::Result<T>) -> Res<T> {
        let give_up = Instant::now() + Duration::from_secs(10);
        loop {
            match connect(&self.addr) {
                Ok(conn) => return Ok(conn),
                Err(e) => {
                    if let Some(status) = self.child.try_wait()? {
                        return Err(format!("altxd exited during start-up: {status}").into());
                    }
                    if Instant::now() > give_up {
                        return Err(format!("altxd never accepted on {}: {e}", self.addr).into());
                    }
                    // Short next to a set-up of a few milliseconds.
                    std::thread::sleep(Duration::from_micros(100));
                }
            }
        }
    }

    pub fn cpu_ticks(&self) -> u64 {
        std::fs::read_to_string(format!("/proc/{}/stat", self.pid()))
            .ok()
            .and_then(|s| proc_stat_cpu_ticks(&s))
            .unwrap_or(0)
    }

    pub fn status_field(&self, key: &str) -> u64 {
        std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .ok()
            .and_then(|s| proc_status_field(&s, key))
            .unwrap_or(0)
    }

    /// Asks for a drain over the wire and waits for the process to end.
    pub fn shutdown(mut self) -> Res<()> {
        Client::connect(self.addr.as_str())?.shutdown()?;
        let give_up = Instant::now() + Duration::from_secs(10);
        while self.child.try_wait()?.is_none() {
            if Instant::now() > give_up {
                return Err("altxd did not exit after SHUTDOWN".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `USER_HZ`, the unit of `/proc/<pid>/stat` times.
pub fn clock_ticks_per_second() -> f64 {
    Command::new("getconf")
        .arg("CLK_TCK")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(100.0)
}
