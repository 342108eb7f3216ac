//! Sharded front-end tests: connection distribution across the
//! per-shard `SO_REUSEPORT` listeners (kernel-hashed), per-connection
//! pipeline order under sharding, cross-shard shutdown drain, and the per-shard
//! telemetry surfacing.
//!
//! These run a real daemon in-process and some assert on process-wide
//! state (thread counts), so the tests serialize on a mutex like the
//! reactor suite does.

use altx_serve::frame::{Request, Response};
use altx_serve::telemetry::Metric;
use altx_serve::{start, Client, ServerConfig};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn sharded_server(shards: usize) -> altx_serve::ServerHandle {
    start(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        queue_depth: 32,
        shards,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port")
}

fn run_req(workload: &str, arg: u64, deadline_ms: u32) -> Request {
    Request::Run {
        workload: workload.to_owned(),
        deadline_ms,
        arg,
    }
}

/// Waits until the summed conns-open gauge reaches `want`.
fn await_conns_open(telemetry: &altx_serve::telemetry::Telemetry, want: u64) {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let open = telemetry.snapshot()[Metric::ConnsOpen];
        if open >= want {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "conns_open stuck at {open}, want {want}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Connections spread across every shard. With per-shard `SO_REUSEPORT`
/// listeners the kernel hashes each new 4-tuple to a listener, so the
/// split is statistical, not exact — 64 connections against 4 shards
/// leave each shard non-empty with overwhelming probability.
/// The per-shard gauges must still sum to the global gauge existing
/// STATS consumers scrape.
#[test]
fn connections_spread_across_all_shards() {
    let _guard = serial();
    const SHARDS: usize = 4;
    const CONNS: usize = 64;
    let server = sharded_server(SHARDS);
    let telemetry = server.telemetry();
    assert_eq!(telemetry.per_shard().len(), SHARDS);

    let mut clients: Vec<Client> = (0..CONNS)
        .map(|i| Client::connect(server.local_addr()).unwrap_or_else(|e| panic!("conn {i}: {e}")))
        .collect();
    // Each connection answers a request, proving every shard serves.
    for (i, c) in clients.iter_mut().enumerate() {
        match c.run("trivial", i as u64, 0).expect("reply") {
            Response::Ok { value, .. } => assert_eq!(value, i as u64),
            other => panic!("expected Ok, got {other:?}"),
        }
    }
    await_conns_open(&telemetry, CONNS as u64);

    let per: Vec<u64> = telemetry
        .per_shard()
        .iter()
        .map(|s| s.conns_open())
        .collect();
    assert!(
        per.iter().all(|&n| n > 0),
        "{CONNS} connections must reach all {SHARDS} shards, got {per:?}"
    );
    assert_eq!(
        telemetry.snapshot()[Metric::ConnsOpen],
        per.iter().sum::<u64>(),
        "the global gauge is the sum of the shard gauges"
    );

    drop(clients);
    server.shutdown();
}

/// Pipelined replies stay in per-connection request order when the
/// connection lives on a shard: a slow race sent first replies before
/// fast races sent after it, concurrently on two different shards.
#[test]
fn pipeline_order_preserved_per_connection_under_sharding() {
    let _guard = serial();
    let server = sharded_server(2);
    // Two connections — the kernel hash may land them on the same shard
    // or different ones; per-connection order must hold either way.
    let mut a = Client::connect(server.local_addr()).expect("connect a");
    let mut b = Client::connect(server.local_addr()).expect("connect b");

    for c in [&mut a, &mut b] {
        c.send(&run_req("sleep", 100, 0)).expect("send sleep");
        for arg in [1u64, 2, 3] {
            c.send(&run_req("trivial", arg, 0)).expect("send trivial");
        }
    }
    for c in [&mut a, &mut b] {
        match c.recv().expect("first reply") {
            Response::Ok { value, .. } => assert_eq!(value, 100, "sleep replies first"),
            other => panic!("expected sleep's Ok first, got {other:?}"),
        }
        for expect in [1u64, 2, 3] {
            match c.recv().expect("pipelined reply") {
                Response::Ok { value, .. } => assert_eq!(value, expect, "reply order"),
                other => panic!("expected Ok({expect}), got {other:?}"),
            }
        }
    }
    server.shutdown();
}

/// The SHUTDOWN opcode lands on *one* shard but must drain the whole
/// daemon: every other shard exits, in-flight races on other shards
/// still flush their replies, and `wait()` returns.
#[test]
fn shutdown_opcode_drains_every_shard() {
    let _guard = serial();
    let server = sharded_server(4);
    let addr = server.local_addr();
    let telemetry = server.telemetry();

    // Park an in-flight race on a different shard than the one that
    // will receive the SHUTDOWN frame. Wait until the request is
    // *admitted* — the drain contract covers admitted requests; a frame
    // still sitting unread in a socket buffer when shutdown lands is
    // legitimately dropped with its connection.
    let mut busy = Client::connect(addr).expect("connect busy");
    busy.send(&run_req("sleep", 150, 0)).expect("send sleep");
    let deadline = Instant::now() + Duration::from_secs(5);
    while telemetry.snapshot()[Metric::Accepted] == 0 {
        assert!(Instant::now() < deadline, "sleep race never admitted");
        std::thread::sleep(Duration::from_millis(5));
    }

    let mut killer = Client::connect(addr).expect("connect killer");
    killer.shutdown().expect("shutdown acknowledged");

    // The admitted race must still answer through the drain.
    match busy.recv().expect("drained reply") {
        Response::Ok { value, .. } => assert_eq!(value, 150),
        other => panic!("expected the parked race's Ok, got {other:?}"),
    }
    // All four shard threads join.
    server.wait();
}

/// Per-shard telemetry shows up in both renderings, and the new pool
/// gauges count recycled frame buffers once traffic has flowed.
#[test]
fn shard_telemetry_surfaces_in_stats_and_prometheus() {
    let _guard = serial();
    let server = sharded_server(4);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    for arg in 0..8u64 {
        assert!(matches!(
            client.run("trivial", arg, 0).expect("reply"),
            Response::Ok { .. }
        ));
    }

    let stats = client.stats_page().expect("stats");
    assert!(stats.contains("shards              4"), "{stats}");
    assert!(stats.contains("pool recycled"), "{stats}");
    assert!(stats.contains("pool misses"), "{stats}");
    assert!(stats.contains("ring hits"), "{stats}");
    assert!(stats.contains("ring spills"), "{stats}");
    assert!(stats.contains("pollout spurious"), "{stats}");
    for i in 0..4 {
        assert!(stats.contains(&format!("shard {i}:")), "{stats}");
    }

    let prom = client.prometheus().expect("prometheus");
    assert!(prom.contains("altxd_shards 4"), "{prom}");
    assert!(prom.contains("altxd_bufpool_recycled_total"), "{prom}");
    assert!(prom.contains("altxd_bufpool_misses_total"), "{prom}");
    assert!(prom.contains("altxd_ring_hits_total"), "{prom}");
    assert!(prom.contains("altxd_ring_spills_total"), "{prom}");
    assert!(
        prom.contains("altxd_reactor_pollout_spurious_total"),
        "{prom}"
    );
    // The kernel hash decides which shard carries the one client, so
    // assert the per-shard gauge lines exist rather than their values.
    assert!(
        prom.contains("altxd_shard_conns_open{shard=\"0\"}"),
        "{prom}"
    );
    assert!(
        prom.contains("altxd_shard_conns_open{shard=\"3\"}"),
        "{prom}"
    );

    // After a burst of requests on one connection the shard's pool is
    // primed: decode and reply buffers recycle instead of allocating.
    let snap = server.telemetry().snapshot();
    assert!(
        snap[Metric::PoolRecycled] > 0,
        "steady traffic must recycle buffers, got {snap:?}"
    );
    server.shutdown();
}

/// `conns active` moves when a connection's last owed reply is released,
/// on whichever thread releases it — not when the owning reactor next
/// turns, which with no wake per reply may be a poll backstop away. A
/// burst finishes on shard A; a STATS page fetched through shard B
/// straight afterwards reads shard A idle, and the one active
/// connection on the page is the scraper's own, on B.
#[test]
fn conns_active_is_current_on_a_shard_nobody_rouses() {
    let _guard = serial();
    let server = sharded_server(2);
    let addr = server.local_addr();
    let telemetry = server.telemetry();

    let mut on_a = Client::connect(addr).expect("connect");
    await_conns_open(&telemetry, 1);
    let open_on = |shard: usize| telemetry.per_shard()[shard].conns_open();
    let shard_a = (0..2).find(|&i| open_on(i) == 1).expect("one shard has it");
    let shard_b = 1 - shard_a;
    // The kernel hash picks the shard: connect until one lands on B.
    let mut others = Vec::new();
    while open_on(shard_b) == 0 {
        assert!(others.len() < 64, "64 connections all hashed to one shard");
        others.push(Client::connect(addr).expect("connect"));
        await_conns_open(&telemetry, 1 + others.len() as u64);
    }
    let mut on_b = others.pop().expect("the last one landed on B");

    on_a.send(&run_req("sleep", 40, 0)).expect("send sleep");
    for arg in 1..=16u64 {
        on_a.send(&run_req("trivial", arg, 0))
            .expect("send trivial");
    }
    for expect in std::iter::once(40).chain(1..=16) {
        match on_a.recv().expect("burst reply") {
            Response::Ok { value, .. } => assert_eq!(value, expect, "reply order"),
            other => panic!("expected Ok({expect}), got {other:?}"),
        }
    }

    let stats = on_b.stats_page().expect("stats through shard B");
    let shard_line = |shard: usize| {
        let prefix = format!("shard {shard}: ");
        let line = stats.lines().find(|l| l.trim_start().starts_with(&prefix));
        line.unwrap_or_else(|| panic!("no line for shard {shard}: {stats}"))
    };
    assert!(shard_line(shard_a).contains(" active 0 "), "{stats}");
    assert!(shard_line(shard_b).contains(" active 1 "), "{stats}");
    assert!(stats.contains("conns active        1"), "{stats}");
    server.shutdown();
}

/// `--shards N` still costs O(shards + workers) threads: a thousand
/// idle connections on a 4-shard daemon leave the process thread count
/// flat.
#[test]
fn sharded_idle_connections_cost_no_threads() {
    let _guard = serial();
    const IDLE: usize = 512;
    let server = sharded_server(4);
    let addr = server.local_addr();
    let telemetry = server.telemetry();

    let mut active = Client::connect(addr).expect("connect");
    assert!(matches!(
        active.run("trivial", 1, 0).expect("reply"),
        Response::Ok { .. }
    ));
    let before = thread_count();

    let idles: Vec<Client> = (0..IDLE)
        .map(|i| Client::connect(addr).unwrap_or_else(|e| panic!("idle conn {i}: {e}")))
        .collect();
    await_conns_open(&telemetry, (IDLE + 1) as u64);

    if before > 0 {
        let during = thread_count();
        assert!(
            during <= before + 2,
            "{IDLE} idle connections grew threads {before} -> {during} on a sharded daemon"
        );
    }
    // Still serving under the idle load.
    assert!(matches!(
        active.run("trivial", 2, 0).expect("reply under idle load"),
        Response::Ok { .. }
    ));

    drop(idles);
    server.shutdown();
}

/// Threads in this process, from /proc (0 when unavailable).
fn thread_count() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("Threads:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|n| n.parse().ok())
        })
        .unwrap_or(0)
}
