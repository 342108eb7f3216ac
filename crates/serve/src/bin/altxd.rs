//! `altxd` — the speculation daemon.
//!
//! ```text
//! altxd [--addr HOST:PORT] [--workers N] [--queue N] [--shards N]
//!       [--ring-slots N] [--ring-slot-bytes N] [--duration SECS]
//!       [--hedge] [--hedge-min-samples N] [--hedge-explore-every N]
//!       [--peer HOST:PORT]... [--advertise HOST:PORT]
//!       [--peer-explore-every N] [--peer-heartbeat-ms N]
//!       [--peer-suspect-ms N] [--lanes SPEC] [--admission] [--steal]
//!       [--lane-aging-ms N] [--spin-us N]
//! ```
//!
//! `--duration 0` (the default) serves until a client sends the
//! SHUTDOWN opcode; a positive duration makes the daemon drain and exit
//! on its own — handy for smoke tests: a thread that exists only then
//! sends that opcode itself when the time is up.
//!
//! The main thread runs reactor shard 0 — the one that also holds the
//! links to `--peer`s — after printing the banner; shards 1.. and the
//! workers have threads of their own.
//!
//! `--hedge` turns on adaptive hedged launches: the statistically
//! favoured alternative starts immediately and the rest are held back
//! until its observed p95 has passed.
//!
//! `--shards N` runs N independent reactor event loops, each accepting
//! on its own `SO_REUSEPORT` listener (where that bind fails the daemon
//! does not start, and says which option asked for it); the default of
//! 1 keeps the classic single-reactor front end, and 0 is refused.
//!
//! `--ring-slots N` / `--ring-slot-bytes N` size the per-shard reply
//! ring — up to N fixed buffers winning replies are encoded straight
//! into, each made the first time a reply needs one (one copy to the
//! kernel, no steady-state allocation); at least one slot.
//!
//! Without `--workers` the daemon asks the host for its CPU count and
//! runs that many workers (at least 2); given, nothing is asked.
//!
//! `--peer HOST:PORT` (repeatable) joins a cluster: the daemon keeps an
//! outbound link to each named peer, ships non-favourite alternatives
//! to lightly loaded peers when the transfer model says it pays, and
//! commits each race's winner through a majority vote across the nodes
//! that were up when the race started. `--advertise HOST:PORT` sets
//! the identity peers use to reach back (defaults to the bind
//! address); `--peer-explore-every N` forces one remote dispatch every
//! N races so link statistics stay live (0 disables exploration).
//! `--peer-heartbeat-ms N` sets the PEER_STATS heartbeat cadence (0
//! disables heartbeats and the health lifecycle); `--peer-suspect-ms N`
//! is how long a link may stay silent before its peer is marked
//! Suspect — twice that quarantines it until it answers again.
//!
//! Deadline-aware scheduling (all off by default — the defaults are
//! byte-for-byte the classic FIFO pool): `--lanes SPEC` declares
//! per-workload priority lanes (`rt:trivial,bimodal;batch:sleep`,
//! priority in declaration order, unmentioned workloads in a trailing
//! default lane; `--lane-aging-ms N` bounds how long a lower lane may
//! starve); `--admission` sheds a request on arrival when its deadline
//! is provably unmeetable from the workload's observed p99 service time
//! plus the current queue wait; `--steal` splits the pool into one
//! worker group per shard and lets a dry group's workers take the best
//! queued job from a sibling; `--spin-us N` sets how long an idle
//! stealing worker busy-waits for new work before parking on its
//! group's condvar (0 parks immediately).

use altx_serve::server::{
    available_workers, run, ServerConfig, DEFAULT_RING_SLOTS, DEFAULT_RING_SLOT_BYTES,
};
use altx_serve::workload::CATALOG;
use altx_serve::{Client, HedgeConfig, Lanes, PeerConfig};
use std::net::SocketAddr;
use std::time::Duration;

/// The daemon's configuration (its `workers` left for `main`), the
/// `--workers` given if any — the CPU count is only asked for when
/// nobody said how many — and `--duration`.
fn parse_args() -> Result<(ServerConfig, Option<usize>, u64), String> {
    let mut config = ServerConfig {
        addr: "127.0.0.1:7171".to_owned(),
        workers: 0,
        queue_depth: 64,
        hedge: HedgeConfig::default(),
        shards: 1,
        ring_slots: DEFAULT_RING_SLOTS,
        ring_slot_bytes: DEFAULT_RING_SLOT_BYTES,
        peer: PeerConfig::default(),
        lanes: Lanes::single(),
        admission: false,
        steal: false,
        lane_aging: altx_serve::pool::DEFAULT_LANE_AGING,
        spin: altx_serve::pool::DEFAULT_SPIN,
    };
    let (mut workers, mut duration_s) = (None, 0);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--addr" => config.addr = value("--addr")?,
            "--workers" => {
                let n = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
                if n == 0 {
                    return Err("--workers: the minimum is 1".to_owned());
                }
                workers = Some(n);
            }
            "--queue" => {
                config.queue_depth = value("--queue")?
                    .parse()
                    .map_err(|e| format!("--queue: {e}"))?
            }
            "--shards" => {
                config.shards = value("--shards")?
                    .parse()
                    .map_err(|e| format!("--shards: {e}"))?;
                if config.shards == 0 {
                    return Err("--shards: the minimum is 1".to_owned());
                }
            }
            "--ring-slots" => {
                config.ring_slots = value("--ring-slots")?
                    .parse()
                    .map_err(|e| format!("--ring-slots: {e}"))?;
                if config.ring_slots == 0 {
                    return Err("--ring-slots: the minimum is 1".to_owned());
                }
            }
            "--ring-slot-bytes" => {
                config.ring_slot_bytes = value("--ring-slot-bytes")?
                    .parse()
                    .map_err(|e| format!("--ring-slot-bytes: {e}"))?
            }
            "--duration" => {
                duration_s = value("--duration")?
                    .parse()
                    .map_err(|e| format!("--duration: {e}"))?
            }
            "--hedge" => config.hedge.enabled = true,
            "--hedge-min-samples" => {
                config.hedge.min_samples = value("--hedge-min-samples")?
                    .parse()
                    .map_err(|e| format!("--hedge-min-samples: {e}"))?
            }
            "--hedge-explore-every" => {
                config.hedge.explore_every = value("--hedge-explore-every")?
                    .parse()
                    .map_err(|e| format!("--hedge-explore-every: {e}"))?
            }
            "--peer" => config.peer.peers.push(value("--peer")?),
            "--advertise" => config.peer.advertise = Some(value("--advertise")?),
            "--peer-explore-every" => {
                config.peer.explore_every = value("--peer-explore-every")?
                    .parse()
                    .map_err(|e| format!("--peer-explore-every: {e}"))?
            }
            "--peer-heartbeat-ms" => {
                config.peer.heartbeat_ms = value("--peer-heartbeat-ms")?
                    .parse()
                    .map_err(|e| format!("--peer-heartbeat-ms: {e}"))?
            }
            "--peer-suspect-ms" => {
                config.peer.suspect_ms = value("--peer-suspect-ms")?
                    .parse()
                    .map_err(|e| format!("--peer-suspect-ms: {e}"))?
            }
            "--lanes" => {
                config.lanes =
                    Lanes::parse(&value("--lanes")?).map_err(|e| format!("--lanes: {e}"))?
            }
            "--admission" => config.admission = true,
            "--steal" => config.steal = true,
            "--spin-us" => {
                let us: u64 = value("--spin-us")?
                    .parse()
                    .map_err(|e| format!("--spin-us: {e}"))?;
                config.spin = Duration::from_micros(us);
            }
            "--lane-aging-ms" => {
                let ms: u64 = value("--lane-aging-ms")?
                    .parse()
                    .map_err(|e| format!("--lane-aging-ms: {e}"))?;
                config.lane_aging = Duration::from_millis(ms);
            }
            "--help" | "-h" => {
                println!(
                    "usage: altxd [--addr HOST:PORT] [--workers N] [--queue N] \
                     [--shards N] [--ring-slots N] [--ring-slot-bytes N] \
                     [--duration SECS] [--hedge] [--hedge-min-samples N] \
                     [--hedge-explore-every N] [--peer HOST:PORT]... \
                     [--advertise HOST:PORT] [--peer-explore-every N] \
                     [--peer-heartbeat-ms N] [--peer-suspect-ms N] \
                     [--lanes SPEC] [--admission] [--steal] \
                     [--lane-aging-ms N] [--spin-us N]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok((config, workers, duration_s))
}

fn main() {
    let (mut config, workers, duration_s) = parse_args().unwrap_or_else(|e| {
        eprintln!("altxd: {e}");
        std::process::exit(2);
    });
    config.workers = workers.unwrap_or_else(available_workers);
    let mut telemetry = None;
    let served = run(config.clone(), |handle| {
        banner(&config, handle.local_addr());
        telemetry = Some(handle.telemetry());
        if duration_s > 0 {
            // A thread that exists only for this, asking for the drain
            // the way any client would.
            let (after, addr) = (Duration::from_secs(duration_s), handle.local_addr());
            let stop = move || {
                std::thread::sleep(after);
                let stopped = match Client::connect(addr) {
                    Ok(mut client) => client.shutdown().map_err(|e| e.to_string()),
                    Err(e) => Err(e.to_string()),
                };
                if let Err(e) = stopped {
                    eprintln!("altxd: --duration: cannot send SHUTDOWN to {addr}: {e}");
                }
            };
            std::thread::Builder::new()
                .name("altxd-duration".to_owned())
                .spawn(stop)
                .expect("spawn the --duration thread");
        }
    });
    if let Err(e) = served {
        eprintln!("altxd: bind failed: {e}");
        std::process::exit(1);
    }
    if let Some(telemetry) = telemetry {
        print!("{}", telemetry.render_stats());
    }
    println!("altxd: drained, bye");
}

/// What the daemon runs with, printed once it is bound.
fn banner(config: &ServerConfig, addr: SocketAddr) {
    let shards = config.shards;
    println!(
        "altxd listening on {addr} ({} workers, queue depth {}, {shards} shard{})",
        config.workers,
        config.queue_depth,
        if shards == 1 { "" } else { "s" }
    );
    println!(
        "reply ring: up to {} slots x {} B per shard, each made on first use (spills fall back to the pool)",
        config.ring_slots, config.ring_slot_bytes
    );
    let hedge = &config.hedge;
    if hedge.enabled {
        println!(
            "hedging: on (min samples {}, explore every {})",
            hedge.min_samples, hedge.explore_every
        );
    }
    if config.lanes.count() > 1 {
        println!(
            "lanes: [{}] (aging {} ms)",
            config.lanes.names().join(" > "),
            config.lane_aging.as_millis()
        );
    }
    if config.admission {
        println!("admission control: on (shed provably unmeetable deadlines)");
    }
    if config.steal {
        // The pool deals its workers round-robin, so it cannot have more
        // groups than workers.
        println!(
            "work stealing: on ({} worker groups, spin budget {} us)",
            shards.min(config.workers),
            config.spin.as_micros()
        );
    }
    let peer = &config.peer;
    if !peer.peers.is_empty() {
        println!(
            "peering: {} peer{} [{}] (explore every {}, heartbeat {} ms, suspect {} ms)",
            peer.peers.len(),
            if peer.peers.len() == 1 { "" } else { "s" },
            peer.peers.join(", "),
            peer.explore_every,
            peer.heartbeat_ms,
            peer.suspect_ms
        );
    }
    println!("workloads:");
    for w in CATALOG {
        println!(
            "  {:<10} {} ({} alternatives)",
            w.name,
            w.description,
            w.alternatives()
        );
    }
}
