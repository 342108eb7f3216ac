//! Reactor front-end tests: pipelining order, idle-connection cost,
//! and eager reclamation of closed connections.
//!
//! These run a real daemon in-process and assert on process-wide state
//! (thread counts), so the tests serialize on a mutex like the loopback
//! suite does.

use altx_serve::frame::{Request, Response};
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

fn run_req(workload: &str, arg: u64, deadline_ms: u32) -> Request {
    Request::Run {
        workload: workload.to_owned(),
        deadline_ms,
        arg,
    }
}

/// Pipelined requests on one connection are answered in request order:
/// a slow race submitted first must reply before fast races submitted
/// after it, even though the fast ones finish first.
#[test]
fn pipelined_replies_come_back_in_request_order() {
    let _guard = serial();
    let server = local_server(4, 32);
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // sleep(120ms) first, then three trivial races that win immediately
    // on other workers. All four frames go out before any reply is read.
    client.send(&run_req("sleep", 120, 0)).expect("send sleep");
    for arg in [1u64, 2, 3] {
        client
            .send(&run_req("trivial", arg, 0))
            .expect("send trivial");
    }

    let first = client.recv().expect("first reply");
    match first {
        Response::Ok { value, .. } => assert_eq!(value, 120, "sleep's value replies first"),
        other => panic!("expected sleep's Ok first, got {other:?}"),
    }
    for expect in [1u64, 2, 3] {
        match client.recv().expect("pipelined reply") {
            Response::Ok { value, .. } => assert_eq!(value, expect, "reply order"),
            other => panic!("expected Ok({expect}), got {other:?}"),
        }
    }
    server.shutdown();
}

/// Interleaving control frames (STATS) with RUNs preserves order too —
/// the immediate reply parks behind the in-flight race's slot.
#[test]
fn control_frames_respect_pipeline_order() {
    let _guard = serial();
    let server = local_server(2, 16);
    let mut client = Client::connect(server.local_addr()).expect("connect");

    client.send(&run_req("sleep", 80, 0)).expect("send sleep");
    client.send(&Request::Stats).expect("send stats");

    match client.recv().expect("first reply") {
        Response::Ok { value, .. } => assert_eq!(value, 80),
        other => panic!("expected the race's Ok first, got {other:?}"),
    }
    match client.recv().expect("second reply") {
        Response::Text { body } => assert!(body.contains("altxd stats"), "{body}"),
        other => panic!("expected the stats text second, got {other:?}"),
    }
    server.shutdown();
}

/// Idle connections cost file descriptors, not threads: hundreds of
/// open connections leave the daemon's thread count flat, and telemetry
/// reports them in the `conns_open` gauge.
#[test]
fn idle_connections_cost_no_threads() {
    let _guard = serial();
    const IDLE: usize = 256;
    let workers = 2;
    let server = local_server(workers, 16);
    let addr = server.local_addr();
    let telemetry = server.telemetry();

    // One active connection proves the daemon serves while idles hang.
    let mut active = Client::connect(addr).expect("connect");
    assert!(matches!(
        active.run("trivial", 1, 0).expect("reply"),
        Response::Ok { .. }
    ));
    let before = thread_count();

    let idles: Vec<Client> = (0..IDLE)
        .map(|i| Client::connect(addr).unwrap_or_else(|e| panic!("idle conn {i}: {e}")))
        .collect();

    // The reactor learns about each connection on its next poll pass.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let open = telemetry.snapshot()[Metric::ConnsOpen];
        if open >= (IDLE + 1) as u64 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "conns_open stuck at {open}, want {}",
            IDLE + 1
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    if before > 0 {
        let during = thread_count();
        assert!(
            during <= before + 2,
            "{IDLE} idle connections grew threads {before} -> {during}; \
             idle connections must not cost threads"
        );
    }

    // The daemon still races under the idle load, on the same thread
    // budget.
    assert!(matches!(
        active.run("trivial", 2, 0).expect("reply under idle load"),
        Response::Ok { .. }
    ));

    drop(idles);
    server.shutdown();
}

/// Closed connections are reclaimed eagerly — the reactor notices the
/// hangup on its next poll and the gauge returns to zero without any
/// new connection arriving (regression: the old accept loop only reaped
/// finished handles when a *new* client connected, so a burst-then-idle
/// daemon held dead state indefinitely).
#[test]
fn closed_connections_are_reclaimed_without_new_arrivals() {
    let _guard = serial();
    const BURST: usize = 64;
    let server = local_server(2, 16);
    let addr = server.local_addr();
    let telemetry = server.telemetry();

    let mut burst: Vec<Client> = (0..BURST)
        .map(|i| Client::connect(addr).unwrap_or_else(|e| panic!("burst conn {i}: {e}")))
        .collect();
    for (i, c) in burst.iter_mut().enumerate() {
        assert!(matches!(
            c.run("trivial", i as u64, 0).expect("burst reply"),
            Response::Ok { .. }
        ));
    }
    assert!(telemetry.snapshot()[Metric::ConnsOpen] >= BURST as u64);

    // Drop every client. No new connection will arrive; the reactor
    // must still reclaim all per-connection state.
    drop(burst);
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let snap = telemetry.snapshot();
        if snap[Metric::ConnsOpen] == 0 && snap[Metric::ConnsActive] == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "connection state leaked: conns_open={} conns_active={}",
            snap[Metric::ConnsOpen],
            snap[Metric::ConnsActive]
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    server.shutdown();
}

/// The connection gauges and wakeup counter are visible over the wire
/// in both STATS and Prometheus renderings.
#[test]
fn conn_gauges_surface_in_stats_and_prometheus() {
    let _guard = serial();
    let server = local_server(2, 16);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    assert!(matches!(
        client.run("trivial", 7, 0).expect("reply"),
        Response::Ok { .. }
    ));

    let stats = client.stats_page().expect("stats");
    assert!(stats.contains("conns open          1"), "{stats}");
    assert!(stats.contains("reactor wakeups"), "{stats}");

    let prom = client.prometheus().expect("prometheus");
    assert!(prom.contains("altxd_conns_open 1"), "{prom}");
    assert!(prom.contains("# TYPE altxd_conns_open gauge"), "{prom}");
    assert!(prom.contains("altxd_reactor_wakeups_total"), "{prom}");
    server.shutdown();
}

/// A malformed frame gets an error reply *after* the replies it owes
/// for earlier pipelined requests, and then the connection closes.
#[test]
fn protocol_error_replies_in_order_then_closes() {
    use altx_serve::frame::{read_frame, write_frame};
    use std::io::Write;

    let _guard = serial();
    let server = local_server(2, 16);
    let mut stream = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");

    write_frame(&mut stream, &run_req("sleep", 60, 0).encode()).expect("send sleep");
    // A well-framed but malformed body: a RUN frame truncated to its
    // opcode byte alone (no workload, no deadline, no arg).
    stream
        .write_all(&1u32.to_be_bytes())
        .and_then(|_| stream.write_all(&[0x01]))
        .expect("write garbage frame");

    let first = read_frame(&mut stream)
        .expect("read")
        .expect("race reply first");
    match Response::decode(&first).expect("decode") {
        Response::Ok { value, .. } => assert_eq!(value, 60),
        other => panic!("expected the race's Ok, got {other:?}"),
    }
    let second = read_frame(&mut stream)
        .expect("read")
        .expect("error reply second");
    match Response::decode(&second).expect("decode") {
        Response::Error { message } => assert!(message.contains("malformed"), "{message}"),
        other => panic!("expected Error, got {other:?}"),
    }
    // The daemon closed the connection after the error reply.
    match read_frame(&mut stream) {
        Ok(None) | Err(_) => {}
        Ok(Some(extra)) => panic!("connection must close, got another frame: {extra:?}"),
    }
    server.shutdown();
}

/// An *unknown opcode* in a well-formed frame is a per-request error,
/// not a connection-level one: the stream is still in sync, so the
/// daemon answers with a protocol ERROR and keeps serving — later
/// requests on the same connection still work.
#[test]
fn unknown_opcode_replies_error_and_keeps_connection() {
    use altx_serve::frame::{read_frame, write_frame};
    use std::io::Write;

    let _guard = serial();
    let server = local_server(2, 16);
    let mut stream = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");

    // A well-framed body with an opcode this daemon has never heard of.
    stream
        .write_all(&1u32.to_be_bytes())
        .and_then(|_| stream.write_all(&[0xEE]))
        .expect("write unknown opcode frame");
    let first = read_frame(&mut stream).expect("read").expect("error reply");
    match Response::decode(&first).expect("decode") {
        Response::Error { message } => {
            assert!(message.contains("unknown request opcode 0xee"), "{message}")
        }
        other => panic!("expected Error, got {other:?}"),
    }

    // The connection survived: a real request on it still races.
    write_frame(&mut stream, &run_req("trivial", 5, 0).encode()).expect("send run");
    let second = read_frame(&mut stream)
        .expect("read")
        .expect("race reply after the error");
    match Response::decode(&second).expect("decode") {
        Response::Ok { value, .. } => assert_eq!(value, 5),
        other => panic!("expected Ok after unknown opcode, got {other:?}"),
    }
    server.shutdown();
}
