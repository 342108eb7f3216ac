//! Cluster chaos soak: three in-process daemons racing alternatives
//! across real loopback links while a seeded fault plan does to the
//! wire what TCP can — delays frames and cuts connections mid-frame —
//! plus a timed one-way stall that heals.
//!
//! The contract under test is the cluster's whole failure story at
//! once:
//!
//! * **exactly-once answers** — every client request gets exactly one
//!   reply no matter what the peer links do; a dropped reply hangs the
//!   client (socket timeout → panic) and a duplicate desynchronizes
//!   its framing, so the plain `client.run` loop *is* the check;
//! * **hedged recovery** — a remote leg whose result does not come
//!   home within its allowance is raced by its local copy, held back
//!   that long in the origin's own subrace (`hedges_launched > 0`);
//! * **service** — a one-way stall that TCP keeps alive (the origin
//!   reads nothing the peer sends) leaves the peer's link answering
//!   nothing: the origin closes it after the silence span (a
//!   quarantine), the peer leaves service and placement stops shipping
//!   to it, every redial stays out of service while the stall lasts,
//!   and after the heal the first reply puts the peer back in service
//!   and it *wins races again* — quarantine is an episode, not a
//!   verdict.
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
/// and pushes their results back on the origin's link.
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
/// and runs a short silence span (probed every 50 ms) so a silent link
/// is closed inside a test-sized window.
fn origin(peers: Vec<String>) -> ServerHandle {
    start(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        queue_depth: 32,
        peer: PeerConfig {
            peers,
            explore_every: 1,
            silence_ms: 150,
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
            it.next() == Some("peer") && it.next().and_then(|a| a.strip_suffix(':')) == Some(addr)
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

/// Reads the number following `key` in one peer's row.
fn peer_count(page: &str, addr: &str, key: &str) -> u64 {
    peer_field(peer_line(page, addr), key)
        .parse()
        .unwrap_or_else(|_| panic!("{key} is a number:\n{page}"))
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
    // Bimodal races: the local leg is slow 30% of the time, so when a
    // remote result is late the race is regularly still open at the leg
    // deadline — exactly the window hedged recovery exists for.
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
    // (guard-unsatisfied semantics): a race whose local alternatives
    // failed and whose remote result is late can *only* finish through
    // a shipped alternative's held-back local copy, so hedged recovery
    // is exercised structurally rather than by timing luck.
    let t0 = Instant::now();
    let mut cfg = FaultConfig::net_chaos(seed);
    cfg.p_fail = 0.2;
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

    // --- Phase 2: a timed one-way stall. ----------------------------
    // The origin reads nothing B says while its sends still flow: the
    // asymmetric failure TCP keeps alive. Heartbeat replies and the
    // results B pushes back sit unread alike on the origin's receive
    // side of its B link.
    // B's link is closed for silence (a quarantine) and B leaves
    // service, placement stops shipping to it, and the legs whose
    // results the stall held are raced by their local copies.
    let t1 = Instant::now();
    // The stall must cut a peer in service: one that has answered
    // nothing since its last quarantine earns no new one while the
    // stall lasts.
    let in_service = Instant::now() + Duration::from_secs(10);
    let quarantined_before = loop {
        let page = client.peer_stats().expect("stats before the stall");
        if peer_count(&page, &b_addr, "up") == 1 {
            break peer_count(&page, &b_addr, "quarantines");
        }
        assert!(
            Instant::now() < in_service,
            "B never came back in service after the wire chaos (seed {seed:#x}):\n{page}"
        );
        std::thread::sleep(Duration::from_millis(5));
    };
    let recv_site = format!("peer.link.{b_addr}.recv");
    plan.stall(&recv_site);
    let deadline = Instant::now() + Duration::from_secs(15);
    let wins_before_heal = loop {
        let page = client.peer_stats().expect("stats during the stall");
        let quarantined = peer_count(&page, &b_addr, "quarantines") > quarantined_before;
        if quarantined && peer_count(&page, &b_addr, "up") == 0 {
            break peer_count(&page, &b_addr, "wins");
        }
        assert!(
            Instant::now() < deadline,
            "the stalled peer was never closed for silence (seed {seed:#x}):\n{page}"
        );
        race(&mut client);
        std::thread::sleep(Duration::from_millis(20));
    };
    eprintln!("phase 2 (stall → quarantine): {:?}", t1.elapsed());

    // Legs shipped into the chaos (late results, the stall window)
    // must have been raced by their local copies by now; drive a
    // few more races if the counter is still settling.
    let t2 = Instant::now();
    let deadline = Instant::now() + Duration::from_secs(15);
    while a.telemetry().snapshot()[Metric::HedgesLaunched] == 0 {
        assert!(
            Instant::now() < deadline,
            "no remote leg's local copy ever launched (seed {seed:#x})"
        );
        race(&mut client);
        std::thread::sleep(Duration::from_millis(10));
    }
    eprintln!("phase 2b (local copy observed): {:?}", t2.elapsed());

    // --- Phase 3: heal. ---------------------------------------------
    // The wire chaos stays on — healing the stall is not the end of a
    // soak — and the first reply on a connection puts B back in
    // service.
    let t3 = Instant::now();
    plan.heal(&recv_site);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let page = client.peer_stats().expect("stats after heal");
        if peer_count(&page, &b_addr, "up") == 1 {
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
    // on — a cut connection takes B out of service until its redial
    // answers — hence the wide deadline.
    let t4 = Instant::now();
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        for _ in 0..20 {
            race(&mut client);
        }
        let page = client.peer_stats().expect("stats while racing after heal");
        if peer_count(&page, &b_addr, "wins") > wins_before_heal {
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
        snap[Metric::HedgesLaunched] >= 1,
        "hedge counter lost the recoveries (seed {seed:#x})"
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

/// An owed vote on a stalled link is denied by the close: one origin
/// (`silence_ms` 150) and one executor in service, and one `lognormal`
/// race run while one direction of the link is stalled — its sends
/// held unwritten, or its replies left unread. The link accepts nothing,
/// so the silence close refuses every tag in flight, the vote's among
/// them, within `silence + silence / 3` of the last accepted frame: the
/// race answers, degraded, in about 200 ms and one rtt rather than
/// waiting out its 10 s cap. Healed, the executor comes back in service
/// and the other direction gets the same race.
#[test]
fn a_stalled_link_denies_the_owed_vote_at_the_silence_close() {
    let _guard = serial();
    let seed = seed_from_env();
    let b = executor();
    let b_addr = b.local_addr().to_string();
    let a = origin(vec![b_addr.clone()]);
    let plan = FaultPlan::new(FaultConfig::quiet(seed));
    let _chaos = faults::install_guarded(plan.clone());
    let mut client = Client::connect(a.local_addr()).expect("connect to origin");
    for dir in ["send", "recv"] {
        wait_for(&a, seed, "the executor in service", |s| {
            s[Metric::PeersUp] == 1
        });
        let degraded = a.telemetry().snapshot()[Metric::CommitsDegraded];
        let site = format!("peer.link.{b_addr}.{dir}");
        plan.stall(&site);
        let t0 = Instant::now();
        client.run("lognormal", 7, 0).expect("the race answers");
        let took = t0.elapsed();
        eprintln!("stalled {dir}: answered in {took:?}");
        assert!(
            took < Duration::from_secs(1),
            "a race on a link stalled at {site} waited {took:?} for its vote"
        );
        let s = a.telemetry().snapshot();
        assert_eq!(
            s[Metric::CommitsDegraded],
            degraded + 1,
            "the denied vote degrades the commit ({dir})"
        );
        plan.heal(&site);
    }
    a.shutdown();
    b.shutdown();
}
