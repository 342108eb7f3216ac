//! End-to-end tests: a real daemon on an ephemeral port, real client
//! connections, racing requests over the loopback.
//!
//! Tests in this binary serialize on a mutex — several assert on
//! process-wide state (thread counts) that concurrent servers would
//! perturb.

use altx::engine::OrderedEngine;
use altx::Engine;
use altx_pager::{AddressSpace, PageSize};
use altx_serve::frame::Response;
use altx_serve::telemetry::Metric;
use altx_serve::{start, Client, ServerConfig};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn local_server(workers: usize, queue_depth: usize) -> altx_serve::ServerHandle {
    start(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers,
        queue_depth,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port")
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

/// Racing over the wire agrees with a sequential OrderedEngine run of
/// the same workload: the race always succeeds when the ordered run
/// does, and for the deterministic workload the value is identical —
/// the paper's claim that concurrency must be observably equivalent to
/// a sequential choice, now measured through the socket.
#[test]
fn racing_requests_match_ordered_engine() {
    let _guard = serial();
    let server = local_server(4, 32);
    let mut client = Client::connect(server.local_addr()).expect("connect");

    for arg in [0u64, 1, 7, 42, 1_000_003] {
        for workload in ["trivial", "lognormal", "bimodal", "prolog"] {
            let block = altx_serve::workload::build(workload, arg).expect("catalog name");
            let mut ws = AddressSpace::zeroed(4096, PageSize::K4);
            let ordered = OrderedEngine::new().execute(&block, &mut ws);
            assert!(ordered.succeeded(), "{workload} must be satisfiable");

            match client.run(workload, arg, 0).expect("reply") {
                Response::Ok {
                    winner,
                    winner_name,
                    value,
                    ..
                } => {
                    assert!(
                        (winner as usize) < block.len(),
                        "{workload}: winner {winner} out of range"
                    );
                    assert_eq!(
                        block.alternatives()[winner as usize].name(),
                        winner_name,
                        "{workload}: name/index mismatch"
                    );
                    if workload == "trivial" {
                        assert_eq!(value, ordered.value.expect("ordered value"), "{workload}");
                    }
                }
                other => panic!("{workload}: expected Ok, got {other:?}"),
            }
        }
    }
    server.shutdown();
}

/// A deadline shorter than the work comes back DeadlineExceeded — and
/// promptly: the loser observes cancellation instead of sleeping its
/// full request out. The daemon stays healthy afterwards.
#[test]
fn deadline_exceeded_is_prompt_and_recoverable() {
    let _guard = serial();
    let server = local_server(2, 16);
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let begin = Instant::now();
    match client.run("sleep", 10_000, 50).expect("reply") {
        Response::DeadlineExceeded { latency_us } => {
            // The race returned at the 50 ms budget, not after the 10 s
            // sleep: the sleeper leaves at the deadline. The bound has
            // room for a loaded CI host, none for a slept-out body.
            assert!(
                begin.elapsed() < Duration::from_millis(500),
                "deadline reply took {:?}",
                begin.elapsed()
            );
            // The deadline and the reported latency run from one
            // instant (`run_race`), so the reply that says the budget
            // ran out never reports less than the budget — nor more
            // than the client waited.
            assert!(
                latency_us >= 50_000,
                "cannot beat its own deadline: {latency_us}"
            );
            assert!(u128::from(latency_us) <= begin.elapsed().as_micros());
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }

    // An unbounded request on the same connection still works.
    match client.run("trivial", 5, 0).expect("reply") {
        Response::Ok { value, .. } => assert_eq!(value, 5),
        other => panic!("expected Ok, got {other:?}"),
    }

    // And a deadline long enough to finish is NOT exceeded.
    match client.run("sleep", 10, 5_000).expect("reply") {
        Response::Ok { value, .. } => assert_eq!(value, 10),
        other => panic!("expected Ok, got {other:?}"),
    }
    server.shutdown();
}

/// With one worker and a depth-1 queue, concurrent slow requests are
/// shed with Overloaded — and every request still gets *some* reply.
#[test]
fn overload_sheds_with_explicit_reply() {
    let _guard = serial();
    let server = local_server(1, 1);
    let addr = server.local_addr();

    let clients: Vec<_> = (0..8)
        .map(|_| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                c.run("sleep", 150, 0).expect("every request is answered")
            })
        })
        .collect();
    let replies: Vec<Response> = clients
        .into_iter()
        .map(|h| h.join().expect("joins"))
        .collect();

    let ok = replies
        .iter()
        .filter(|r| matches!(r, Response::Ok { .. }))
        .count();
    let shed = replies
        .iter()
        .filter(|r| matches!(r, Response::Overloaded))
        .count();
    assert_eq!(
        ok + shed,
        replies.len(),
        "only Ok/Overloaded expected: {replies:?}"
    );
    assert!(ok >= 1, "someone must win admission");
    assert!(
        shed >= 1,
        "8 concurrent 150ms sleeps must overflow a depth-1 queue"
    );

    // Telemetry saw the sheds.
    let snap = server.telemetry().snapshot();
    assert_eq!(snap[Metric::Shed], shed as u64);
    assert_eq!(snap[Metric::Completed], ok as u64);
    server.shutdown();
}

/// Unknown workloads are refused without consuming a queue slot.
#[test]
fn unknown_workload_refused() {
    let _guard = serial();
    let server = local_server(1, 4);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    assert!(matches!(
        client.run("no-such-workload", 1, 0).expect("reply"),
        Response::UnknownWorkload
    ));
    assert_eq!(server.telemetry().snapshot()[Metric::Accepted], 0);
    server.shutdown();
}

/// STATS and PROMETHEUS reflect traffic, served over the same socket.
#[test]
fn stats_and_prometheus_over_the_wire() {
    let _guard = serial();
    let server = local_server(2, 16);
    let mut client = Client::connect(server.local_addr()).expect("connect");

    for arg in 0..5 {
        assert!(matches!(
            client.run("trivial", arg, 0).expect("reply"),
            Response::Ok { .. }
        ));
    }
    let _ = client.run("sleep", 10_000, 20).expect("reply"); // one blown deadline

    let stats = client.stats_page().expect("stats");
    assert!(stats.contains("completed           5"), "{stats}");
    assert!(stats.contains("deadline exceeded   1"), "{stats}");

    let prom = client.prometheus().expect("prometheus");
    assert!(prom.contains("altxd_requests_completed_total 5"), "{prom}");
    assert!(
        prom.contains("altxd_requests_deadline_exceeded_total 1"),
        "{prom}"
    );
    assert!(
        prom.contains("altxd_race_latency_us_bucket{le=\"+Inf\"} 5"),
        "{prom}"
    );
    assert!(
        prom.contains("altxd_alternative_wins_total{workload=\"trivial\""),
        "{prom}"
    );
    server.shutdown();
}

/// Graceful drain: a race in flight when shutdown starts is still
/// answered, and after shutdown returns no daemon thread survives —
/// losing alternatives observed cancellation rather than being leaked.
#[test]
fn shutdown_drains_in_flight_and_leaks_no_threads() {
    let _guard = serial();
    let baseline = thread_count();

    let server = local_server(2, 8);
    let addr = server.local_addr();

    // Park a slow race in flight.
    let in_flight = std::thread::spawn(move || {
        let mut c = Client::connect(addr).expect("connect");
        c.run("sleep", 300, 0)
            .expect("in-flight request is answered")
    });
    std::thread::sleep(Duration::from_millis(100)); // let it get admitted

    server.shutdown(); // must drain the sleeper before returning
    let reply = in_flight.join().expect("client joins");
    assert!(
        matches!(reply, Response::Ok { value: 300, .. }),
        "got {reply:?}"
    );

    if baseline > 0 {
        // All daemon threads (accept, connections, workers, race
        // alternates) are joined; only OS reaping latency remains.
        let deadline = Instant::now() + Duration::from_secs(3);
        loop {
            let now = thread_count();
            if now <= baseline {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "thread leak: {now} threads vs baseline {baseline}"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

/// The SHUTDOWN opcode drains the daemon remotely.
#[test]
fn shutdown_opcode_stops_the_daemon() {
    let _guard = serial();
    let server = local_server(1, 4);
    let addr = server.local_addr();
    let mut client = Client::connect(addr).expect("connect");
    assert!(matches!(
        client.run("trivial", 1, 0).expect("reply"),
        Response::Ok { .. }
    ));
    client.shutdown().expect("shutdown acked");
    server.wait(); // returns only because the opcode stopped the daemon
    assert!(
        Client::connect(addr).is_err() || {
            // The listener is gone; a racing connect may still succeed
            // before the OS tears the socket down, but no frames flow.
            let mut c = Client::connect(addr).expect("checked above");
            c.run("trivial", 1, 0).is_err()
        },
        "daemon must stop accepting after SHUTDOWN"
    );
}
