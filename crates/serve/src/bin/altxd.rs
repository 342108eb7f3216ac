//! `altxd` — the speculation daemon.
//!
//! ```text
//! altxd [--addr HOST:PORT] [--workers N] [--shards N] [--hedge]
//!       [--peer HOST:PORT]... [--advertise HOST:PORT]
//!       [--lanes SPEC] [--admission]
//! ```
//!
//! The daemon serves until a client sends the SHUTDOWN opcode, then
//! drains, prints its STATS page and exits.
//!
//! The main thread runs reactor shard 0 — the one that also holds the
//! links to `--peer`s — after printing the banner; shards 1.. have
//! threads of their own, and the pool's workers — slots, at most that
//! many queued races running at once, all serving one run queue —
//! borrow the race crew's racers.
//!
//! Five of the flags are deployment settings: where to listen, how many
//! workers and shards, which peers to join and under which name. The
//! other three switch a scheduling behaviour on; each is off by default.
//! Everything else is fixed at the value the library documents: a run
//! queue 64 deep, a reply ring of [`DEFAULT_RING_SLOTS`] slots of
//! [`DEFAULT_RING_SLOT_BYTES`] per shard, the favourite's trust and
//! exploration cadence of [`HedgeConfig::default`], the peer links'
//! cadences of [`PeerConfig::default`], and the pool's
//! [`DEFAULT_LANE_AGING`].
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
//! Without `--workers` the daemon asks the host for its CPU count and
//! runs that many queued races at once (at least 2); given, nothing is
//! asked.
//!
//! `--peer HOST:PORT` (repeatable) joins a cluster: the daemon keeps an
//! outbound link to each named peer, ships non-favourite alternatives
//! to lightly loaded peers when the transfer model says it pays, and
//! commits each race's winner through a majority vote across the nodes
//! that were up when the race started. `--advertise HOST:PORT` sets
//! the identity peers use to reach back (defaults to the bind
//! address).
//!
//! Deadline-aware scheduling (all off by default — the defaults are
//! byte-for-byte the classic FIFO pool): `--lanes SPEC` declares
//! per-workload priority lanes (`rt:trivial,bimodal;batch:sleep`,
//! priority in declaration order, unmentioned workloads in a trailing
//! default lane); `--admission` sheds a request on arrival when its
//! deadline is provably unmeetable from the workload's observed p99
//! service time plus the current queue wait.
//!
//! Any other flag — among them the tuning flags earlier versions took,
//! and `--steal` — is refused with exit status 2.

use altx_serve::pool::DEFAULT_LANE_AGING;
use altx_serve::server::{
    available_workers, run, ServerConfig, DEFAULT_RING_SLOTS, DEFAULT_RING_SLOT_BYTES,
};
use altx_serve::workload::CATALOG;
use altx_serve::{HedgeConfig, Lanes, PeerConfig};
use std::net::SocketAddr;

/// The daemon's configuration (its `workers` left for `main`) and the
/// `--workers` given if any — the CPU count is only asked for when
/// nobody said how many.
fn parse_args() -> Result<(ServerConfig, Option<usize>), String> {
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
        steal: None,
        lane_aging: DEFAULT_LANE_AGING,
        spin: None,
    };
    let mut workers = None;
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
            "--shards" => {
                config.shards = value("--shards")?
                    .parse()
                    .map_err(|e| format!("--shards: {e}"))?;
                if config.shards == 0 {
                    return Err("--shards: the minimum is 1".to_owned());
                }
            }
            "--hedge" => config.hedge.enabled = true,
            "--peer" => config.peer.peers.push(value("--peer")?),
            "--advertise" => config.peer.advertise = Some(value("--advertise")?),
            "--lanes" => {
                config.lanes =
                    Lanes::parse(&value("--lanes")?).map_err(|e| format!("--lanes: {e}"))?
            }
            "--admission" => config.admission = true,
            "--help" | "-h" => {
                println!(
                    "usage: altxd [--addr HOST:PORT] [--workers N] [--shards N] [--hedge] \
                     [--peer HOST:PORT]... [--advertise HOST:PORT] \
                     [--lanes SPEC] [--admission]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok((config, workers))
}

fn main() {
    let (mut config, workers) = parse_args().unwrap_or_else(|e| {
        eprintln!("altxd: {e}");
        std::process::exit(2);
    });
    config.workers = workers.unwrap_or_else(available_workers);
    let mut telemetry = None;
    let served = run(config.clone(), |handle| {
        banner(&config, handle.local_addr());
        telemetry = Some(handle.telemetry());
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
