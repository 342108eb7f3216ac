//! `altxd` — the speculation daemon.
//!
//! ```text
//! altxd [--addr HOST:PORT] [--workers N] [--queue N] [--shards N]
//!       [--ring-slots N] [--ring-slot-bytes N]
//!       [--duration SECS] [--batch-window-us N] [--hedge]
//!       [--hedge-min-samples N] [--hedge-explore-every N]
//! ```
//!
//! `--duration 0` (the default) serves until a client sends the
//! SHUTDOWN opcode; a positive duration makes the daemon drain and exit
//! on its own — handy for smoke tests.
//!
//! `--batch-window-us` turns on request coalescing: identical
//! `(workload, deadline, arg)` requests arriving within the window share
//! one race. `--hedge` turns on adaptive hedged launches: the
//! statistically favoured alternative starts immediately and the rest
//! are held back until its observed p95 has passed.
//!
//! `--shards N` runs N independent reactor event loops, each accepting
//! on its own `SO_REUSEPORT` listener (where that bind fails the daemon
//! does not start, and says which option asked for it); the default of
//! 1 keeps the classic single-reactor front end.
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
//! queued job from a sibling.
//!
//! CPU placement (off by default — without `--pin` the daemon makes
//! zero affinity syscalls): `--pin` discovers the machine topology and
//! pins each shard's reactor and worker group to a disjoint, SMT- and
//! NUMA-aware core set, first-touching the shard's reply ring and
//! buffer pool from those cores so the memory lands node-local.
//! `--spin-us N` sets how long an idle stealing worker busy-waits for
//! new work before parking on its group's condvar (0 parks immediately).

use altx_serve::server::{
    available_workers, start, ServerConfig, DEFAULT_RING_SLOTS, DEFAULT_RING_SLOT_BYTES,
};
use altx_serve::workload::CATALOG;
use altx_serve::{HedgeConfig, Lanes, PeerConfig};
use std::time::Duration;

struct Args {
    addr: String,
    /// `None` until `--workers` is given: the CPU count is only asked
    /// for when nobody said how many.
    workers: Option<usize>,
    queue_depth: usize,
    shards: usize,
    ring_slots: usize,
    ring_slot_bytes: usize,
    duration_s: u64,
    batch_window: Duration,
    hedge: HedgeConfig,
    peer: PeerConfig,
    lanes: Lanes,
    admission: bool,
    steal: bool,
    lane_aging: Duration,
    pin: bool,
    spin: Duration,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7171".to_owned(),
        workers: None,
        queue_depth: 64,
        shards: 1,
        ring_slots: DEFAULT_RING_SLOTS,
        ring_slot_bytes: DEFAULT_RING_SLOT_BYTES,
        duration_s: 0,
        batch_window: Duration::ZERO,
        hedge: HedgeConfig::default(),
        peer: PeerConfig::default(),
        lanes: Lanes::single(),
        admission: false,
        steal: false,
        lane_aging: altx_serve::pool::DEFAULT_LANE_AGING,
        pin: false,
        spin: altx_serve::pool::DEFAULT_SPIN,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--workers" => {
                let workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
                if workers == 0 {
                    return Err("--workers: the minimum is 1".to_owned());
                }
                args.workers = Some(workers);
            }
            "--queue" => {
                args.queue_depth = value("--queue")?
                    .parse()
                    .map_err(|e| format!("--queue: {e}"))?
            }
            "--shards" => {
                args.shards = value("--shards")?
                    .parse::<usize>()
                    .map_err(|e| format!("--shards: {e}"))?
                    .max(1)
            }
            "--ring-slots" => {
                args.ring_slots = value("--ring-slots")?
                    .parse()
                    .map_err(|e| format!("--ring-slots: {e}"))?;
                if args.ring_slots == 0 {
                    return Err("--ring-slots: the minimum is 1".to_owned());
                }
            }
            "--ring-slot-bytes" => {
                args.ring_slot_bytes = value("--ring-slot-bytes")?
                    .parse()
                    .map_err(|e| format!("--ring-slot-bytes: {e}"))?
            }
            "--duration" => {
                args.duration_s = value("--duration")?
                    .parse()
                    .map_err(|e| format!("--duration: {e}"))?
            }
            "--batch-window-us" => {
                let us: u64 = value("--batch-window-us")?
                    .parse()
                    .map_err(|e| format!("--batch-window-us: {e}"))?;
                args.batch_window = Duration::from_micros(us);
            }
            "--hedge" => args.hedge.enabled = true,
            "--hedge-min-samples" => {
                args.hedge.min_samples = value("--hedge-min-samples")?
                    .parse()
                    .map_err(|e| format!("--hedge-min-samples: {e}"))?
            }
            "--hedge-explore-every" => {
                args.hedge.explore_every = value("--hedge-explore-every")?
                    .parse()
                    .map_err(|e| format!("--hedge-explore-every: {e}"))?
            }
            "--peer" => args.peer.peers.push(value("--peer")?),
            "--advertise" => args.peer.advertise = Some(value("--advertise")?),
            "--peer-explore-every" => {
                args.peer.explore_every = value("--peer-explore-every")?
                    .parse()
                    .map_err(|e| format!("--peer-explore-every: {e}"))?
            }
            "--peer-heartbeat-ms" => {
                args.peer.heartbeat_ms = value("--peer-heartbeat-ms")?
                    .parse()
                    .map_err(|e| format!("--peer-heartbeat-ms: {e}"))?
            }
            "--peer-suspect-ms" => {
                args.peer.suspect_ms = value("--peer-suspect-ms")?
                    .parse()
                    .map_err(|e| format!("--peer-suspect-ms: {e}"))?
            }
            "--lanes" => {
                args.lanes =
                    Lanes::parse(&value("--lanes")?).map_err(|e| format!("--lanes: {e}"))?
            }
            "--admission" => args.admission = true,
            "--steal" => args.steal = true,
            "--pin" => args.pin = true,
            "--spin-us" => {
                let us: u64 = value("--spin-us")?
                    .parse()
                    .map_err(|e| format!("--spin-us: {e}"))?;
                args.spin = Duration::from_micros(us);
            }
            "--lane-aging-ms" => {
                let ms: u64 = value("--lane-aging-ms")?
                    .parse()
                    .map_err(|e| format!("--lane-aging-ms: {e}"))?;
                args.lane_aging = Duration::from_millis(ms);
            }
            "--help" | "-h" => {
                println!(
                    "usage: altxd [--addr HOST:PORT] [--workers N] [--queue N] \
                     [--shards N] [--ring-slots N] [--ring-slot-bytes N] \
                     [--duration SECS] [--batch-window-us N] [--hedge] \
                     [--hedge-min-samples N] [--hedge-explore-every N] \
                     [--peer HOST:PORT]... [--advertise HOST:PORT] \
                     [--peer-explore-every N] [--peer-heartbeat-ms N] \
                     [--peer-suspect-ms N] [--lanes SPEC] [--admission] \
                     [--steal] [--lane-aging-ms N] [--pin] [--spin-us N]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("altxd: {e}");
            std::process::exit(2);
        }
    };
    let workers = args.workers.unwrap_or_else(available_workers);
    let handle = match start(ServerConfig {
        addr: args.addr,
        workers,
        queue_depth: args.queue_depth,
        batch_window: args.batch_window,
        hedge: args.hedge,
        shards: args.shards,
        ring_slots: args.ring_slots,
        ring_slot_bytes: args.ring_slot_bytes,
        peer: args.peer.clone(),
        lanes: args.lanes.clone(),
        admission: args.admission,
        steal: args.steal,
        lane_aging: args.lane_aging,
        pin: args.pin,
        spin: args.spin,
    }) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("altxd: bind failed: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "altxd listening on {} ({} workers, queue depth {}, {} shard{})",
        handle.local_addr(),
        workers,
        args.queue_depth,
        args.shards,
        if args.shards == 1 { "" } else { "s" }
    );
    println!(
        "reply ring: up to {} slots x {} B per shard, each made on first use (spills fall back to the pool)",
        args.ring_slots, args.ring_slot_bytes
    );
    if !args.batch_window.is_zero() {
        println!("batching: window {:?}", args.batch_window);
    }
    if args.hedge.enabled {
        println!(
            "hedging: on (min samples {}, explore every {})",
            args.hedge.min_samples, args.hedge.explore_every
        );
    }
    if args.lanes.count() > 1 {
        println!(
            "lanes: [{}] (aging {} ms)",
            args.lanes.names().join(" > "),
            args.lane_aging.as_millis()
        );
    }
    if args.admission {
        println!("admission control: on (shed provably unmeetable deadlines)");
    }
    if args.steal {
        // The pool deals its workers round-robin, so it cannot have more
        // groups than workers.
        println!(
            "work stealing: on ({} worker groups)",
            args.shards.min(workers)
        );
    }
    if args.pin {
        println!(
            "cpu placement: on (spin budget {} us; shards pin to disjoint core sets)",
            args.spin.as_micros()
        );
    }
    if !args.peer.peers.is_empty() {
        println!(
            "peering: {} peer{} [{}] (explore every {}, heartbeat {} ms, suspect {} ms)",
            args.peer.peers.len(),
            if args.peer.peers.len() == 1 { "" } else { "s" },
            args.peer.peers.join(", "),
            args.peer.explore_every,
            args.peer.heartbeat_ms,
            args.peer.suspect_ms
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

    let telemetry = handle.telemetry();
    if args.duration_s > 0 {
        std::thread::sleep(Duration::from_secs(args.duration_s));
        handle.shutdown();
    } else {
        handle.wait();
    }
    print!("{}", telemetry.render_stats());
    println!("altxd: drained, bye");
}
