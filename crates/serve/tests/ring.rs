//! Reply-ring lifecycle tests against a real daemon: slot exhaustion
//! spilling to the buffer pool without losing a reply, wraparound
//! reclamation under pipelined bursts, and oversize replies taking the
//! spill path intact.
//!
//! Assertions about ring accounting go through the in-process
//! [`Telemetry`] snapshot, *not* the STATS page: fetching STATS is
//! itself a reply that draws on the ring, so scraping would perturb the
//! very counters under test.
//!
//! [`Telemetry`]: altx_serve::telemetry::Telemetry

use altx_serve::frame::{Request, Response};
use altx_serve::telemetry::Metric;
use altx_serve::{start, Client, ServerConfig, ServerHandle};

fn ring_server(ring_slots: usize, ring_slot_bytes: usize) -> ServerHandle {
    start(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 4,
        queue_depth: 64,
        ring_slots,
        ring_slot_bytes,
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

/// A one-slot ring exhausted by replies parked behind a slow head of
/// line: a pipelined connection sends a long `sleep` first, then a
/// burst of trivial requests. The trivial races finish (and encode)
/// while the sleep still runs, but per-connection order parks their
/// frames — each holding its encoding — until the sleep replies. With
/// one slot, the first parked frame takes it and every later encode
/// must spill to the heap/pool path. The contract: spills are
/// accounted, and not one reply is lost or reordered.
#[test]
fn exhaustion_spills_without_losing_replies() {
    const BURST: u64 = 8;
    let server = ring_server(1, 1024);
    let telemetry = server.telemetry();
    let mut client = Client::connect(server.local_addr()).expect("connect");

    client.send(&run_req("sleep", 300, 0)).expect("send sleep");
    for arg in 0..BURST {
        client
            .send(&run_req("trivial", arg, 0))
            .expect("send burst");
    }
    match client.recv().expect("sleep reply") {
        Response::Ok { value, .. } => assert_eq!(value, 300, "sleep replies first"),
        other => panic!("expected sleep's Ok first, got {other:?}"),
    }
    for expect in 0..BURST {
        match client.recv().expect("burst reply") {
            Response::Ok { value, .. } => assert_eq!(value, expect, "pipeline order"),
            other => panic!("expected Ok({expect}), got {other:?}"),
        }
    }

    let snap = telemetry.snapshot();
    assert!(
        snap[Metric::RingSpills] >= BURST - 1,
        "a one-slot ring under a parked {BURST}-deep burst must spill, got {snap:?}"
    );
    assert_eq!(
        snap[Metric::RingHits] + snap[Metric::RingSpills],
        BURST + 1,
        "every reply encodes exactly once, as a hit or a spill: {snap:?}"
    );
    server.shutdown();
}

/// Wraparound: a ring far smaller than the traffic serves it all by
/// reclaiming slots as writes complete. Ring hits exceeding the slot
/// count prove slots were recycled, not just consumed.
#[test]
fn wraparound_reclaims_slots_under_pipelined_bursts() {
    const SLOTS: usize = 4;
    const ROUNDS: usize = 3;
    const BURST: u64 = 32;
    let server = ring_server(SLOTS, 1024);
    let telemetry = server.telemetry();
    let mut client = Client::connect(server.local_addr()).expect("connect");

    for round in 0..ROUNDS as u64 {
        for arg in 0..BURST {
            client
                .send(&run_req("trivial", round * BURST + arg, 0))
                .expect("send");
        }
        for arg in 0..BURST {
            match client.recv().expect("reply") {
                Response::Ok { value, .. } => assert_eq!(value, round * BURST + arg),
                other => panic!("expected Ok, got {other:?}"),
            }
        }
    }

    let snap = telemetry.snapshot();
    assert!(
        snap[Metric::RingHits] > SLOTS as u64,
        "{} hits through a {SLOTS}-slot ring requires reclamation: {snap:?}",
        ROUNDS * BURST as usize
    );
    assert_eq!(
        snap[Metric::RingHits] + snap[Metric::RingSpills],
        ROUNDS as u64 * BURST,
        "every reply encodes exactly once: {snap:?}"
    );
    server.shutdown();
}

/// A reply larger than a slot takes the spill path and still arrives
/// intact: with slots clamped to the 64-byte minimum, the STATS page —
/// hundreds of bytes of text — cannot fit and must spill, yet the
/// client reads the full page.
#[test]
fn oversize_reply_spills_and_arrives_intact() {
    let server = ring_server(8, 1); // clamps to the 64-byte slot minimum
    let telemetry = server.telemetry();
    let mut client = Client::connect(server.local_addr()).expect("connect");

    assert!(matches!(
        client.run("trivial", 1, 0).expect("reply"),
        Response::Ok { .. }
    ));
    let stats = client.stats_page().expect("stats");
    assert!(
        stats.contains("wins per alternative"),
        "stats page truncated:\n{stats}"
    );
    assert!(stats.contains("ring spills"), "{stats}");

    let snap = telemetry.snapshot();
    assert!(
        snap[Metric::RingSpills] >= 1,
        "a multi-hundred-byte STATS reply cannot fit a 64-byte slot: {snap:?}"
    );
    server.shutdown();
}
