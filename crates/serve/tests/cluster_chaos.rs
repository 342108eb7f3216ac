//! Cluster chaos soak: three in-process daemons racing alternatives
//! across real loopback links while a seeded fault plan mangles the
//! wire — drops, delays, duplicates, truncations — plus a timed
//! one-way partition that heals.
//!
//! The contract under test is the cluster's whole failure story at
//! once:
//!
//! * **exactly-once answers** — every client request gets exactly one
//!   reply no matter what the peer links do; a dropped reply hangs the
//!   client (socket timeout → panic) and a duplicate desynchronizes
//!   its framing, so the plain `client.run` loop *is* the check;
//! * **hedged recovery** — remote legs whose results the wire eats are
//!   redispatched locally when their per-leg deadline expires
//!   (`remote_redispatched > 0`);
//! * **health lifecycle** — a one-way partition that TCP keeps alive
//!   (heartbeat replies silently swallowed) drives the peer through
//!   Suspect into Quarantined, placement stops shipping to it, and
//!   after the heal the peer is readmitted and *wins races again* —
//!   quarantine is an episode, not a verdict.
//!
//! This test lives in its own binary because the fault plan is
//! process-global. The seed comes from `ALTX_CHAOS_SEED` (decimal or
//! 0x-hex) so CI can pin it and failures replay exactly; every
//! assertion message carries the seed.

use altx::faults::{self, FaultConfig, FaultPlan};
use altx_serve::client::ClientConfig;
use altx_serve::server::{start, ServerConfig, ServerHandle};
use altx_serve::telemetry::Metric;
use altx_serve::{Client, PeerConfig};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// The fault plan is process-global, so tests in this binary must not
/// overlap.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

const DEFAULT_SEED: u64 = 0x0C1D_5EED;

fn seed_from_env() -> u64 {
    match std::env::var("ALTX_CHAOS_SEED") {
        Ok(s) => {
            let s = s.trim();
            let parsed = s
                .strip_prefix("0x")
                .map_or_else(|| s.parse(), |hex| u64::from_str_radix(hex, 16));
            parsed.unwrap_or_else(|_| panic!("ALTX_CHAOS_SEED must be a u64, got {s:?}"))
        }
        Err(_) => DEFAULT_SEED,
    }
}

/// A pure executor: no peers of its own, it only admits shipped legs
/// and dials results home.
fn executor() -> ServerHandle {
    start(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        queue_depth: 32,
        ..ServerConfig::default()
    })
    .expect("start executor node")
}

/// The origin node: ships one leg of every race (explore every race)
/// and runs a fast heartbeat so the health lifecycle turns over inside
/// a test-sized window.
fn origin(peers: Vec<String>) -> ServerHandle {
    start(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        queue_depth: 32,
        peer: PeerConfig {
            peers,
            explore_every: 1,
            heartbeat_ms: 50,
            suspect_ms: 150,
            ..PeerConfig::default()
        },
        ..ServerConfig::default()
    })
    .expect("start origin node")
}

fn wait_for(
    handle: &ServerHandle,
    seed: u64,
    what: &str,
    cond: impl Fn(&altx_serve::telemetry::Snapshot) -> bool,
) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if cond(&handle.telemetry().snapshot()) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {what} (seed {seed:#x})"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Extracts one peer's row from the peer stats page.
fn peer_line<'a>(page: &'a str, addr: &str) -> &'a str {
    page.lines()
        .find(|l| {
            let mut it = l.split_whitespace();
            it.next() == Some("peer") && it.next() == Some(addr)
        })
        .unwrap_or_else(|| panic!("no stats row for peer {addr}:\n{page}"))
}

/// Reads the token following `key` in a peer stats row.
fn peer_field<'a>(line: &'a str, key: &str) -> &'a str {
    let mut it = line.split_whitespace();
    while let Some(tok) = it.next() {
        if tok == key {
            return it
                .next()
                .unwrap_or_else(|| panic!("{key} has no value: {line}"));
        }
    }
    panic!("no {key} field in peer row: {line}");
}

fn peer_wins(page: &str, addr: &str) -> u64 {
    peer_field(peer_line(page, addr), "wins")
        .parse()
        .expect("wins is a counter")
}

fn peer_health(page: &str, addr: &str) -> String {
    peer_field(peer_line(page, addr), "health").to_owned()
}

#[test]
fn cluster_survives_wire_chaos_and_a_healing_partition() {
    let _guard = serial();
    let seed = seed_from_env();

    // Executors first so the origin's dials land; the origin explores
    // every race, so one leg of every lognormal race ships out.
    let b = executor();
    let c = executor();
    let b_addr = b.local_addr().to_string();
    let c_addr = c.local_addr().to_string();
    let a = origin(vec![b_addr.clone(), c_addr.clone()]);
    wait_for(&a, seed, "links to both executors", |s| {
        s[Metric::PeersUp] == 2
    });

    // The client-daemon connection carries no chaos sites: a lost or
    // doubled reply here is the cluster's fault, not the test rig's.
    let mut client = Client::connect_with(
        a.local_addr(),
        ClientConfig {
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            ..ClientConfig::default()
        },
    )
    .expect("connect to origin");
    // Bimodal races: the local leg is slow 30% of the time, so when the
    // wire eats a remote result the race is regularly still open at the
    // leg deadline — exactly the window hedged recovery exists for.
    let mut arg = 0u64;
    let mut race = |client: &mut Client| {
        let n = arg;
        arg += 1;
        match client.run("bimodal", n, 0) {
            Ok(_) => {}
            Err(e) => panic!("race {n} lost its reply: {e} (seed {seed:#x})"),
        }
    };

    // --- Phase 1: seeded wire chaos on every peer link. -------------
    // On top of the wire mix, a slice of local legs fail outright
    // (guard-unsatisfied semantics): a race whose local leg failed and
    // whose remote result the wire ate can *only* finish through the
    // leg-deadline redispatch path, so hedged recovery is exercised
    // structurally rather than by timing luck.
    let t0 = Instant::now();
    let mut cfg = FaultConfig::net_chaos(seed);
    cfg.p_fail = 0.2;
    // Partitions are driven manually below so the quarantine and the
    // heal happen at asserted points; random multi-second partition
    // windows on top would only turn phase boundaries into dice rolls.
    cfg.net.p_partition = 0.0;
    let plan = FaultPlan::new(cfg);
    let chaos = faults::install_guarded(plan.clone());
    for _ in 0..120 {
        race(&mut client);
    }
    assert!(
        plan.net_injected_total() > 0,
        "120 races with the chaos mix installed injected nothing (seed {seed:#x})"
    );
    eprintln!("phase 1 (wire chaos): {:?}", t0.elapsed());

    // --- Phase 2: a timed one-way partition. ------------------------
    // Everything B says is swallowed while the origin's sends still
    // flow: the asymmetric failure TCP keeps alive. Heartbeat replies
    // vanish on the origin's receive side of its B link, and results
    // vanish on the executors' dial-back path (both executors dial the
    // same origin address, so that send site covers B and C alike).
    // B goes Suspect then Quarantined, placement stops shipping to it,
    // and the legs whose results the partition ate expire and are
    // redispatched locally.
    let t1 = Instant::now();
    let a_addr = a.local_addr().to_string();
    let recv_site = format!("peer.link.{b_addr}.recv");
    let result_site = format!("peer.link.{a_addr}.send");
    plan.partition(&recv_site);
    plan.partition(&result_site);
    let deadline = Instant::now() + Duration::from_secs(15);
    let wins_before_heal = loop {
        let page = client.peer_stats().expect("stats during partition");
        if peer_health(&page, &b_addr) == "quarantined" {
            break peer_wins(&page, &b_addr);
        }
        assert!(
            Instant::now() < deadline,
            "the partitioned peer was never quarantined (seed {seed:#x}):\n{page}"
        );
        race(&mut client);
        std::thread::sleep(Duration::from_millis(20));
    };
    eprintln!("phase 2 (partition → quarantine): {:?}", t1.elapsed());

    // Legs shipped into the chaos (dropped EXEC_ALTs, swallowed
    // results, the partition window) must have expired and been
    // redispatched locally by now; drive a few more races if the
    // counter is still settling.
    let t2 = Instant::now();
    let deadline = Instant::now() + Duration::from_secs(15);
    while a.telemetry().snapshot()[Metric::RemoteRedispatched] == 0 {
        assert!(
            Instant::now() < deadline,
            "no remote leg was ever redispatched locally (seed {seed:#x})"
        );
        race(&mut client);
        std::thread::sleep(Duration::from_millis(10));
    }
    eprintln!("phase 2b (redispatch observed): {:?}", t2.elapsed());

    // --- Phase 3: heal. ---------------------------------------------
    // The wire chaos stays on — healing the partition is not the end
    // of a soak — and the next heartbeat reply readmits B.
    let t3 = Instant::now();
    plan.heal(&recv_site);
    plan.heal(&result_site);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let page = client.peer_stats().expect("stats after heal");
        if peer_health(&page, &b_addr) == "up" {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "healed peer was never readmitted (seed {seed:#x}):\n{page}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    eprintln!("phase 3 (heal → readmission): {:?}", t3.elapsed());

    // Readmission must be real: the healed peer gets legs again and
    // wins races again, not just a label flip. The wire chaos is still
    // on, and a race whose result the wire eats blocks for the full
    // unbounded leg allowance before its redispatch — a couple of
    // those in one burst eat tens of seconds, hence the wide deadline.
    let t4 = Instant::now();
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        for _ in 0..20 {
            race(&mut client);
        }
        let page = client.peer_stats().expect("stats while racing after heal");
        if peer_wins(&page, &b_addr) > wins_before_heal {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "readmitted peer never won a race after the heal \
             (wins stuck at {wins_before_heal}, seed {seed:#x}):\n{page}"
        );
    }
    eprintln!("phase 3b (healed peer wins again): {:?}", t4.elapsed());
    drop(chaos);

    // The lifecycle and recovery machinery all actually fired.
    let snap = a.telemetry().snapshot();
    assert!(
        snap[Metric::PeerQuarantines] >= 1,
        "quarantine counter lost the episode (seed {seed:#x})"
    );
    assert!(
        snap[Metric::RemoteRedispatched] >= 1,
        "redispatch counter lost the recoveries (seed {seed:#x})"
    );
    assert!(
        snap[Metric::RemoteDispatched] > 0 && snap[Metric::Completed] > 0,
        "the soak never actually raced (seed {seed:#x})"
    );

    // With the plan cleared the cluster serves a clean burst.
    for n in 0..20u64 {
        client.run("trivial", n, 0).expect("post-chaos reply");
    }
    a.shutdown();
    b.shutdown();
    c.shutdown();
}
