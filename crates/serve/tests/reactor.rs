//! Reactor front-end tests: pipelining order, idle-connection cost,
//! eager reclamation of closed connections, the delivery path —
//! replies written by the thread that finished the race, with the
//! reactor taking over only what a socket would not accept — and the
//! shard path: a workload measured short is raced by the reactor
//! thread, a longer one never is.
//!
//! These run a real daemon in-process and assert on process-wide state
//! (thread counts), so the tests serialize on a mutex like the loopback
//! suite does.

use altx_serve::frame::{read_frame, write_frame, FrameError, Request, Response};
use altx_serve::sched::{ADMISSION_MIN_SAMPLES, SHARD_MAX_SERVICE_US};
use altx_serve::telemetry::{scrape, Metric};
use altx_serve::{start, workload, Client, HedgePolicy, PeerConfig, ServerConfig, Telemetry};
use std::io::Write;
use std::net::TcpStream;
use std::sync::{Arc, Mutex, MutexGuard};
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

/// A raw connection whose reads give up after ten seconds.
fn raw_conn(server: &altx_serve::ServerHandle) -> TcpStream {
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    stream
}

/// Writes every request in one go, before any reply is read.
fn pipeline(stream: &mut TcpStream, requests: impl IntoIterator<Item = Request>) {
    let mut wire = Vec::new();
    for request in requests {
        write_frame(&mut wire, &request.encode()).expect("vec write");
    }
    stream.write_all(&wire).expect("send pipeline");
}

fn next_reply(stream: &mut TcpStream) -> Response {
    let body = read_frame(stream).expect("read").expect("a reply frame");
    Response::decode(&body).expect("decode")
}

/// Nothing more is readable on `stream`: a frame nobody asked for would
/// be a second reply to some request.
fn assert_no_stray_frame(stream: &mut TcpStream) {
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .expect("timeout");
    match read_frame(stream) {
        Err(FrameError::Io(e))
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) => {}
        other => panic!("expected silence after the last reply, got {other:?}"),
    }
}

/// Polls the daemon's counters until `done` holds.
fn await_snapshot(telemetry: &Telemetry, what: &str, done: impl Fn(&Telemetry) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done(telemetry) {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Open file descriptors of this process, from /proc (0 when unavailable).
fn fd_count() -> usize {
    std::fs::read_dir("/proc/self/fd").map_or(0, |dir| dir.count())
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

/// Replies are written by the workers that finish the races, and the
/// connection's order holds whichever of them delivers: a sleeper sent
/// first answers first, the N trivial races pipelined behind it (run on
/// the other workers, delivered while it still sleeps) follow in
/// request order, one reply each. Neither they nor N more requests
/// sent one at a time rouse the reactor: every reply fits the socket,
/// so no delivery leaves it anything to do.
#[test]
fn worker_delivered_pipeline_keeps_order_without_rousing_the_reactor() {
    const N: u64 = 200;
    let _guard = serial();
    let server = local_server(3, 256);
    let telemetry = server.telemetry();
    let mut stream = raw_conn(&server);
    pipeline(&mut stream, [run_req("trivial", 0, 0)]);
    assert!(matches!(
        next_reply(&mut stream),
        Response::Ok { value: 0, .. }
    ));
    let roused_before = telemetry.snapshot()[Metric::Wakeups];

    let trivials = (1..=N).map(|arg| run_req("trivial", arg, 0));
    pipeline(
        &mut stream,
        std::iter::once(run_req("sleep", 60, 0)).chain(trivials),
    );
    for expect in std::iter::once(60).chain(1..=N) {
        match next_reply(&mut stream) {
            Response::Ok { value, .. } => assert_eq!(value, expect, "reply order"),
            other => panic!("expected Ok({expect}), got {other:?}"),
        }
    }
    // One at a time, too: each reply is its own delivery, with the
    // reactor asleep in `poll` when it happens.
    for arg in 1..=N {
        pipeline(&mut stream, [run_req("trivial", arg, 0)]);
        match next_reply(&mut stream) {
            Response::Ok { value, .. } => assert_eq!(value, arg),
            other => panic!("expected Ok({arg}), got {other:?}"),
        }
    }
    assert_no_stray_frame(&mut stream);

    let snap = telemetry.snapshot();
    assert_eq!(snap[Metric::Completed], 2 * N + 2);
    let roused = snap[Metric::Wakeups] - roused_before;
    assert!(
        roused <= 4,
        "{roused} reactor wakeups for {} replies: a delivery that leaves the reactor \
         nothing to do must not rouse it",
        2 * N + 1
    );
    server.shutdown();
}

/// A client that pipelines more reply bytes than the socket will hold,
/// without reading: the daemon's writes reach `WouldBlock`, the workers
/// that finish the races queued behind find output left over and rouse
/// the reactor, and once the client reads, the reactor's `POLLOUT`
/// turns push out every queued frame — each reply intact, in order.
#[test]
fn blocked_socket_is_taken_over_by_the_reactor_and_every_reply_arrives() {
    const PAGES: usize = 4000;
    const RUNS: u64 = 32;
    let _guard = serial();
    let server = local_server(2, 64);
    let telemetry = server.telemetry();
    let mut stream = raw_conn(&server);
    let roused_before = telemetry.snapshot()[Metric::Wakeups];

    let pages = std::iter::repeat_with(|| Request::Stats).take(PAGES);
    let runs = (1..=RUNS).map(|arg| run_req("trivial", arg, 0));
    pipeline(&mut stream, pages.chain(runs));

    // Every race has finished and been delivered — into a connection
    // whose socket took its last byte long ago.
    await_snapshot(&telemetry, "the pipelined races", |t| {
        t.snapshot()[Metric::Completed] == RUNS
    });
    await_snapshot(&telemetry, "a delivery that left output behind", |t| {
        t.snapshot()[Metric::Wakeups] > roused_before
    });

    for page in 0..PAGES {
        match next_reply(&mut stream) {
            Response::Text { body } => assert!(body.contains("altxd stats"), "page {page}: {body}"),
            other => panic!("page {page}: expected the stats text, got {other:?}"),
        }
    }
    for expect in 1..=RUNS {
        match next_reply(&mut stream) {
            Response::Ok { value, .. } => assert_eq!(value, expect, "reply order"),
            other => panic!("expected Ok({expect}), got {other:?}"),
        }
    }
    assert_no_stray_frame(&mut stream);
    server.shutdown();
}

/// A client that hangs up with a race in flight costs nothing once the
/// race ends: the late delivery finds a connection that is closing (a
/// plain close: the reply is written at a peer that is gone) or already
/// reclaimed (a reset: the write half was closed under the race, which
/// kept the fd alive — and its number unavailable for reuse — until it
/// let go), and afterwards the fd is closed and the ring slot is back.
#[test]
fn hangup_with_a_race_in_flight_leaks_no_fd_and_no_ring_slot() {
    let _guard = serial();
    let server = start(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        queue_depth: 16,
        // One slot: a leaked slot would make every later reply spill.
        ring_slots: 1,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let telemetry = server.telemetry();
    let idle = |t: &Telemetry| t.snapshot()[Metric::ConnsOpen] == 0;
    // Before the first connection: the daemon's own fds, nothing else.
    let baseline = fd_count();

    for reset in [false, true] {
        let before = telemetry.snapshot();
        let mut stream = raw_conn(&server);
        if reset {
            // A reply left unread turns the close into an RST: the
            // daemon sees POLLERR|POLLHUP and reclaims the connection
            // at once, with the race still running.
            pipeline(&mut stream, [Request::Catalog]);
            stream.peek(&mut [0u8; 1]).expect("the catalog reply");
        }
        pipeline(&mut stream, [run_req("sleep", 200, 0)]);
        await_snapshot(&telemetry, "the sleeper to be admitted", |t| {
            t.snapshot()[Metric::Accepted] == before[Metric::Accepted] + 1
        });
        drop(stream);

        if reset {
            await_snapshot(&telemetry, "the reset connection to be reclaimed", idle);
            let held = fd_count();
            if baseline > 0 && telemetry.snapshot()[Metric::Completed] == before[Metric::Completed]
            {
                assert_eq!(
                    held,
                    baseline + 1,
                    "the race in flight keeps the socket's fd from being reused"
                );
            }
        }
        await_snapshot(&telemetry, "the sleeper to finish", |t| {
            t.snapshot()[Metric::Completed] == before[Metric::Completed] + 1
        });
        await_snapshot(&telemetry, "the connection and its fd to go", |t| {
            idle(t) && (baseline == 0 || fd_count() == baseline)
        });
    }

    let hits_before = telemetry.snapshot()[Metric::RingHits];
    let mut client = Client::connect(server.local_addr()).expect("connect");
    assert!(matches!(
        client.run("trivial", 9, 0).expect("reply"),
        Response::Ok { value: 9, .. }
    ));
    assert_eq!(
        telemetry.snapshot()[Metric::RingHits],
        hits_before + 1,
        "the ring's only slot came back from both hang-ups"
    );
    server.shutdown();
}

/// Shutdown with pipelines in flight on several connections: every
/// request already read is answered, in order, by whichever worker
/// finishes it, and each connection closes behind its last reply.
#[test]
fn shutdown_answers_every_pipelined_request_then_closes() {
    let _guard = serial();
    let server = local_server(3, 64);
    let telemetry = server.telemetry();
    let mut conns: Vec<TcpStream> = (0..3).map(|_| raw_conn(&server)).collect();
    for stream in &mut conns {
        let trivials = (1..=8).map(|arg| run_req("trivial", arg, 0));
        pipeline(
            stream,
            std::iter::once(run_req("sleep", 150, 0)).chain(trivials),
        );
    }
    await_snapshot(&telemetry, "every request to be admitted", |t| {
        t.snapshot()[Metric::Accepted] == 27
    });
    let roused_before = telemetry.snapshot()[Metric::Wakeups];

    let stopper = std::thread::spawn(move || server.shutdown());
    for stream in &mut conns {
        for expect in std::iter::once(150).chain(1..=8) {
            match next_reply(stream) {
                Response::Ok { value, .. } => assert_eq!(value, expect, "reply order"),
                other => panic!("expected Ok({expect}), got {other:?}"),
            }
        }
        assert!(
            matches!(read_frame(stream), Ok(None)),
            "the connection closes behind its last reply"
        );
    }
    stopper.join().expect("shutdown returns");
    // The shutdown latch roused the reactor once, a hundred
    // milliseconds before the sleepers finished; every later rousing is
    // a poster that delivered into a draining shard and said so — the
    // reactor closes connections as they empty, not a poll backstop
    // later.
    assert!(
        telemetry.snapshot()[Metric::Wakeups] >= roused_before + 2,
        "no delivery roused the draining reactor"
    );
}

/// A submission the pool refuses leaves nothing behind: the completion
/// that carried the race's reply slots is dropped and the waiters are
/// shed, once each, from the reactor's copy, so when the shed clients
/// hang up, their sockets close — a slot kept anywhere would hold the
/// write half it names, and with it the fd, forever.
#[test]
fn refused_submissions_hold_no_connection() {
    let _guard = serial();
    let server = local_server(1, 1);
    let addr = server.local_addr();
    let telemetry = server.telemetry();
    // Before the first connection: the daemon's own fds, nothing else.
    let baseline = fd_count();

    let clients: Vec<_> = (0..8)
        .map(|_| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                c.run("sleep", 100, 0).expect("every request is answered")
            })
        })
        .collect();
    let replies: Vec<Response> = clients
        .into_iter()
        .map(|h| h.join().expect("joins"))
        .collect();
    let shed = replies
        .iter()
        .filter(|r| matches!(r, Response::Overloaded))
        .count();
    assert!(shed >= 1, "a depth-1 queue must refuse some of {replies:?}");
    assert_eq!(telemetry.snapshot()[Metric::Shed], shed as u64);

    await_snapshot(&telemetry, "every connection and its fd to go", |t| {
        t.snapshot()[Metric::ConnsOpen] == 0 && (baseline == 0 || fd_count() == baseline)
    });
    server.shutdown();
}

/// A one-worker daemon with a 5 ms batch window whose worker is inside
/// `sleep 400` and whose depth-1 queue holds `sleep 401`: the next
/// submission is refused. Returns the connection owed the two sleepers'
/// replies.
fn saturated(config: ServerConfig) -> (altx_serve::ServerHandle, TcpStream) {
    let peers = config.peer.peers.len() as u64;
    let server = start(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 1,
        queue_depth: 1,
        batch_window: Duration::from_millis(5),
        ..config
    })
    .expect("bind ephemeral port");
    let telemetry = server.telemetry();
    await_snapshot(&telemetry, "every configured peer to be up", |t| {
        t.snapshot()[Metric::PeersUp] == peers
    });
    let mut sleepers = raw_conn(&server);
    pipeline(&mut sleepers, [run_req("sleep", 400, 0)]);
    await_snapshot(&telemetry, "the worker to take the first sleeper", |t| {
        let snap = t.snapshot();
        snap[Metric::Accepted] == 1 && snap.lane_depths.iter().sum::<u64>() == 0
    });
    pipeline(&mut sleepers, [run_req("sleep", 401, 0)]);
    await_snapshot(&telemetry, "the second sleeper to be queued", |t| {
        t.snapshot()[Metric::Accepted] == 2
    });
    (server, sleepers)
}

/// Eight identical requests pipelined at a saturated daemon coalesce
/// into one race the pool refuses: each of the eight waiters is shed
/// exactly once with `Overloaded`, nothing is accepted, and the races
/// already admitted are still answered. Returns the daemon for the
/// caller's own look.
fn refused_batch_sheds_every_waiter_once(
    config: ServerConfig,
    workload: &str,
) -> (altx_serve::ServerHandle, TcpStream) {
    const BURST: u64 = 8;
    let (server, mut sleepers) = saturated(config);
    let telemetry = server.telemetry();
    let mut stream = raw_conn(&server);
    pipeline(&mut stream, (0..BURST).map(|_| run_req(workload, 77, 0)));
    for n in 0..BURST {
        let reply = next_reply(&mut stream);
        assert!(
            matches!(reply, Response::Overloaded),
            "reply {n}: {reply:?}"
        );
    }
    assert_no_stray_frame(&mut stream);
    let snap = telemetry.snapshot();
    assert_eq!(snap[Metric::Shed], BURST, "one shed per waiter");
    assert!(snap[Metric::RequestsCoalesced] > 0, "the burst coalesced");
    assert_eq!(snap[Metric::Accepted], 2, "only the two sleepers");
    for expect in [400, 401] {
        match next_reply(&mut sleepers) {
            Response::Ok { value, .. } => assert_eq!(value, expect),
            other => panic!("expected Ok({expect}), got {other:?}"),
        }
    }
    (server, stream)
}

/// A full run queue sheds a coalesced batch: the pool refuses the one
/// race, the completion holding the batch's reply slots is dropped
/// unrun, and the reactor sheds every waiter from its own copy.
#[test]
fn a_full_run_queue_sheds_every_waiter_of_a_coalesced_batch_once() {
    let _guard = serial();
    let (server, _stream) = refused_batch_sheds_every_waiter_once(ServerConfig::default(), "sleep");
    server.shutdown();
}

/// The same refusal on the distributed path: with a peer up and
/// `explore_every = 1` every `lognormal` race ships an alternative, so
/// the batch's reply slots are handed to the remote-race registry before
/// the local subrace is submitted; the pool refuses it, the registry
/// hands the slots back, and every waiter is shed once — nothing was
/// dispatched. Once the worker is free the same request does ship.
#[test]
fn an_aborted_distributed_submission_sheds_every_waiter_once() {
    let _guard = serial();
    let executor = local_server(2, 16);
    let config = ServerConfig {
        peer: PeerConfig {
            peers: vec![executor.local_addr().to_string()],
            explore_every: 1,
            ..PeerConfig::default()
        },
        ..ServerConfig::default()
    };
    let (server, mut stream) = refused_batch_sheds_every_waiter_once(config, "lognormal");
    let telemetry = server.telemetry();
    assert_eq!(telemetry.snapshot()[Metric::RemoteDispatched], 0);

    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    pipeline(&mut stream, [run_req("lognormal", 77, 0)]);
    assert!(matches!(next_reply(&mut stream), Response::Ok { .. }));
    assert!(
        telemetry.snapshot()[Metric::RemoteDispatched] >= 1,
        "a lognormal race at this daemon takes the distributed path"
    );
    server.shutdown();
    executor.shutdown();
}

/// Pins `trivial`'s service times short, so its next race runs on the
/// shard: pinned rather than measured, because a debug build's trivial
/// race is not reliably under the bound. 2 000 samples, so the p99
/// shrugs off any slow race a test then runs and the mean is the pinned
/// value whatever came before. Call it with no `trivial` race in flight
/// (nothing else records a sample): the verdict then stands until the
/// next one is recorded. Returns `races on shard` as it stands.
fn pin_trivial_short(telemetry: &Telemetry) -> u64 {
    let stats = telemetry.catalog().expect("attached at start");
    let trivial = workload::index_of("trivial").expect("in the catalog");
    for _ in 0..2_000 {
        stats.record_service(trivial, 5);
    }
    assert!(stats.runs_on_shard(trivial));
    telemetry.snapshot()[Metric::RacesOnShard]
}

/// Service samples `trivial` has on record.
fn trivial_samples(telemetry: &Telemetry) -> u64 {
    let trivial = workload::index_of("trivial").expect("in the catalog");
    let stats = telemetry.catalog().expect("attached at start");
    stats.service_samples(trivial)
}

/// Waits until `trivial` has `samples` on record: the race the test
/// sent has been measured, and none is in flight.
fn await_trivial_samples(telemetry: &Telemetry, samples: u64) {
    await_snapshot(telemetry, "the trivial race to be recorded", |t| {
        trivial_samples(t) == samples
    });
}

/// `stream` has nothing to read right now.
fn assert_nothing_readable(stream: &TcpStream, why: &str) {
    stream.set_nonblocking(true).expect("nonblocking");
    let peeked = stream.peek(&mut [0u8; 1]);
    stream.set_nonblocking(false).expect("blocking");
    match peeked {
        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
        other => panic!("{why}: {other:?}"),
    }
}

/// A short request does not wait for a held worker: with the only
/// worker inside `sleep 400` for connection A, a `trivial` measured
/// short is raced by the reactor thread and answered on connection B
/// while A still waits. Through the queue B's race could only run
/// after A's.
#[test]
fn a_short_request_does_not_wait_for_a_held_worker() {
    let _guard = serial();
    let server = local_server(1, 16);
    let telemetry = server.telemetry();
    let on_shard = pin_trivial_short(&telemetry);

    let mut a = raw_conn(&server);
    pipeline(&mut a, [run_req("sleep", 400, 0)]);
    await_snapshot(&telemetry, "the sleep to be submitted", |t| {
        t.snapshot()[Metric::Accepted] == 1
    });

    let mut b = raw_conn(&server);
    pipeline(&mut b, [run_req("trivial", 7, 0)]);
    assert!(matches!(next_reply(&mut b), Response::Ok { value: 7, .. }));
    assert_nothing_readable(&a, "the sleep was answered before the trivial behind it");
    assert!(matches!(
        next_reply(&mut a),
        Response::Ok { value: 400, .. }
    ));
    let snap = telemetry.snapshot();
    assert_eq!(snap[Metric::RacesOnShard], on_shard + 1);
    assert_eq!(snap[Metric::Accepted], 2, "a shard run is an accepted race");
    server.shutdown();
}

/// Order on one connection: two shard-run replies pipelined behind a
/// queued race wait in their reply slots for it, and the three come
/// back in request order, one each.
#[test]
fn shard_run_replies_keep_their_place_behind_a_queued_race() {
    let _guard = serial();
    let server = local_server(2, 16);
    let telemetry = server.telemetry();
    let on_shard = pin_trivial_short(&telemetry);
    let samples = trivial_samples(&telemetry);
    let mut stream = raw_conn(&server);

    pipeline(
        &mut stream,
        [run_req("sleep", 50, 0), run_req("trivial", 1, 0)],
    );
    // The second goes out once the first is on record and the verdict
    // is pinned again: its place must not hang on what the first took.
    await_trivial_samples(&telemetry, samples + 1);
    pin_trivial_short(&telemetry);
    pipeline(&mut stream, [run_req("trivial", 2, 0)]);
    for expect in [50, 1, 2] {
        match next_reply(&mut stream) {
            Response::Ok { value, .. } => assert_eq!(value, expect, "reply order"),
            other => panic!("expected Ok({expect}), got {other:?}"),
        }
    }
    assert_no_stray_frame(&mut stream);
    assert_eq!(telemetry.snapshot()[Metric::RacesOnShard], on_shard + 2);
    server.shutdown();
}

/// A slow workload never holds the shard: `sleep 2` has all the
/// samples the rule asks for and every one goes to the queue, so a
/// STATS sent on a second connection while a `sleep` is in flight is
/// rendered with that connection still waiting — the page counts both.
#[test]
fn a_slow_workload_never_runs_on_the_shard() {
    let _guard = serial();
    let server = local_server(2, 16);
    let telemetry = server.telemetry();
    let mut a = raw_conn(&server);
    for _ in 0..32 {
        pipeline(&mut a, [run_req("sleep", 2, 0)]);
        assert!(matches!(next_reply(&mut a), Response::Ok { value: 2, .. }));
    }
    assert_eq!(telemetry.snapshot()[Metric::RacesOnShard], 0);

    pipeline(&mut a, [run_req("sleep", 300, 0)]);
    await_snapshot(&telemetry, "the sleep to be submitted", |t| {
        t.snapshot()[Metric::Accepted] == 33
    });
    let mut b = raw_conn(&server);
    pipeline(&mut b, [Request::Stats]);
    match next_reply(&mut b) {
        Response::Text { body } => {
            assert_eq!(scrape(&body, Metric::ConnsActive), Some(2), "{body}");
            assert_eq!(scrape(&body, Metric::RacesOnShard), Some(0), "{body}");
        }
        other => panic!("expected the stats page, got {other:?}"),
    }
    assert!(matches!(
        next_reply(&mut a),
        Response::Ok { value: 300, .. }
    ));
    server.shutdown();
}

/// A body that blocks never holds the shard, however short it has
/// measured: `sleep 0` returns at once, so sixteen of them — and 2 000
/// pinned samples of 5 µs on top, which is what puts `trivial` on the
/// shard — read far under the bound, and the `sleep 300` behind them
/// still goes to a worker: a STATS on a second connection is answered
/// while it sleeps. Raced on the reactor thread, the sleep would have
/// been that thread's, and the page could only follow it.
#[test]
fn a_sleep_measured_short_still_never_holds_the_shard() {
    let _guard = serial();
    let server = local_server(2, 16);
    let telemetry = server.telemetry();
    let mut a = raw_conn(&server);
    for _ in 0..ADMISSION_MIN_SAMPLES {
        pipeline(&mut a, [run_req("sleep", 0, 0)]);
        assert!(matches!(next_reply(&mut a), Response::Ok { value: 0, .. }));
    }
    let stats = telemetry.catalog().expect("attached at start");
    let sleep = workload::index_of("sleep").expect("in the catalog");
    for _ in 0..2_000 {
        stats.record_service(sleep, 5);
    }
    assert!(stats.service_quantile_us(sleep, 0.99) <= Some(SHARD_MAX_SERVICE_US));
    assert!(!stats.runs_on_shard(sleep));

    pipeline(&mut a, [run_req("sleep", 300, 0)]);
    await_snapshot(&telemetry, "the sleep to be submitted", |t| {
        t.snapshot()[Metric::Accepted] == ADMISSION_MIN_SAMPLES + 1
    });
    let mut b = raw_conn(&server);
    pipeline(&mut b, [Request::Stats]);
    match next_reply(&mut b) {
        Response::Text { body } => {
            assert_eq!(scrape(&body, Metric::RacesOnShard), Some(0), "{body}");
        }
        other => panic!("expected the stats page, got {other:?}"),
    }
    assert_nothing_readable(&a, "the sleep was answered before the page behind it");
    assert!(matches!(
        next_reply(&mut a),
        Response::Ok { value: 300, .. }
    ));
    assert_eq!(telemetry.snapshot()[Metric::RacesOnShard], 0);
    server.shutdown();
}

/// Record → flag → path, with nothing pinned: after 64 real `trivial`
/// races the published flag is the rule applied to what `run_race`
/// recorded, CATALOG prints that side, and the next race runs there —
/// `races on shard` rises by one exactly when the flag said shard.
/// Which side that is depends on the build (an optimised `trivial`
/// measures under the bound, an unoptimised one may not), so the test
/// asserts the agreement, not the side. One closed-loop connection:
/// every race's service sample is on record before its reply is
/// written, so the rule's inputs do not move between the reads.
#[test]
fn measured_samples_set_the_flag_and_the_flag_picks_the_path() {
    let _guard = serial();
    let server = local_server(2, 16);
    let telemetry = server.telemetry();
    let mut stream = raw_conn(&server);
    for n in 0..64 {
        pipeline(&mut stream, [run_req("trivial", n, 0)]);
        assert!(matches!(next_reply(&mut stream), Response::Ok { .. }));
    }
    let stats = telemetry.catalog().expect("attached at start");
    let trivial = workload::index_of("trivial").expect("in the catalog");
    assert_eq!(stats.service_samples(trivial), 64);
    let p99 = stats.service_quantile_us(trivial, 0.99).expect("samples");
    let mean = stats.service_mean_us(trivial).expect("samples");
    let on_shard = stats.runs_on_shard(trivial);
    assert_eq!(
        on_shard,
        p99 <= SHARD_MAX_SERVICE_US && mean <= SHARD_MAX_SERVICE_US as f64,
        "the flag is not the rule: p99 ≤ {p99} µs, mean {mean:.1} µs"
    );

    pipeline(&mut stream, [Request::Catalog]);
    let place = if on_shard { "shard" } else { "queue" };
    match next_reply(&mut stream) {
        Response::Text { body } => assert!(
            body.contains(&format!("runs on: {place} (service p99 ≤ {p99} µs")),
            "{place} not in\n{body}"
        ),
        other => panic!("expected the catalog page, got {other:?}"),
    }

    let before = telemetry.snapshot();
    pipeline(&mut stream, [run_req("trivial", 7, 0)]);
    assert!(matches!(
        next_reply(&mut stream),
        Response::Ok { value: 7, .. }
    ));
    // Either way it is accepted — but a queued race is counted by the
    // reactor after the push, which its reply can overtake.
    await_snapshot(&telemetry, "the 65th race to be counted accepted", |t| {
        t.snapshot()[Metric::Accepted] == 65
    });
    let after = telemetry.snapshot();
    assert_eq!(
        after[Metric::RacesOnShard] - before[Metric::RacesOnShard],
        u64::from(on_shard)
    );
    assert!(
        after[Metric::RacesOnShard] <= 65 - ADMISSION_MIN_SAMPLES,
        "the cold ones were queued"
    );
    server.shutdown();
}

/// A coalesced batch of a short `trivial` is one race on the shard and
/// one encoding: every waiter is answered once, in order.
#[test]
fn a_coalesced_batch_on_the_shard_answers_every_waiter_once() {
    const BURST: u64 = 16;
    let _guard = serial();
    let server = start(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        batch_window: Duration::from_millis(5),
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let telemetry = server.telemetry();
    let on_shard = pin_trivial_short(&telemetry);
    let mut stream = raw_conn(&server);

    pipeline(&mut stream, (0..BURST).map(|_| run_req("trivial", 77, 0)));
    for n in 0..BURST {
        match next_reply(&mut stream) {
            Response::Ok { value, .. } => assert_eq!(value, 77, "reply {n}"),
            other => panic!("reply {n}: unexpected {other:?}"),
        }
    }
    assert_no_stray_frame(&mut stream);
    let snap = telemetry.snapshot();
    assert!(
        snap[Metric::RequestsCoalesced] > 0,
        "an identical pipelined burst must coalesce"
    );
    assert_eq!(
        snap[Metric::Accepted] + snap[Metric::RequestsCoalesced],
        BURST,
        "every request opened a race or joined one"
    );
    // The first batch for certain; a second window's, if the burst
    // straddled two, by what the first race measured.
    assert!(snap[Metric::RacesOnShard] > on_shard);
    server.shutdown();
}

/// A race that fails on the shard is contained like one on a worker:
/// with every `engine.alt.*` site of a short `trivial` panicking, the
/// request is answered with an error, the reactor thread survives, and
/// the next request on the same connection is raced there and answered.
#[test]
fn a_panicking_race_on_the_shard_is_answered_and_the_reactor_survives() {
    use altx::faults::{self, FaultConfig, FaultPlan};
    let _guard = serial();
    let server = local_server(2, 16);
    let telemetry = server.telemetry();
    let on_shard = pin_trivial_short(&telemetry);
    let samples = trivial_samples(&telemetry);
    let mut stream = raw_conn(&server);

    {
        // Only a shard-run request is sent under the plan: the parked
        // workers visit no fault site.
        let _chaos = faults::install_guarded(FaultPlan::new(FaultConfig {
            p_panic: 1.0,
            ..FaultConfig::quiet(7)
        }));
        pipeline(&mut stream, [run_req("trivial", 1, 0)]);
        match next_reply(&mut stream) {
            // Both bodies panicked inside the engine's own containment;
            // a panic outside it is the reactor's `contained` to name.
            Response::Error { message } => assert!(
                message == "no alternative succeeded" || message == "internal error: race panicked",
                "{message}"
            ),
            other => panic!("expected an error reply, got {other:?}"),
        }
    }
    // Unwinding is slow: pin the verdict again before the next one.
    await_trivial_samples(&telemetry, samples + 1);
    pin_trivial_short(&telemetry);
    pipeline(&mut stream, [run_req("trivial", 2, 0)]);
    assert!(matches!(
        next_reply(&mut stream),
        Response::Ok { value: 2, .. }
    ));
    let snap = telemetry.snapshot();
    assert_eq!(snap[Metric::RacesOnShard], on_shard + 2);
    assert!(
        snap[Metric::AltPanics] >= 1,
        "the injected panics were counted"
    );
    server.shutdown();
}

/// A batch window shorter than a millisecond is waited out as what it
/// is: the reactor's poll timeout is the window's own deadline, not
/// `poll(2)`'s next whole millisecond (at which a 200 µs window closed
/// 1–2 ms after it opened, every time). Best of fifty lone requests, so
/// that a loaded box needs only one quiet moment.
#[test]
fn a_sub_millisecond_batch_window_closes_in_under_a_millisecond() {
    let _guard = serial();
    let server = start(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        batch_window: Duration::from_micros(200),
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let mut stream = raw_conn(&server);
    stream.set_nodelay(true).expect("nodelay");
    let best = (0..50u64)
        .map(|arg| {
            let sent = Instant::now();
            pipeline(&mut stream, [run_req("trivial", arg, 0)]);
            let reply = next_reply(&mut stream);
            let took = sent.elapsed();
            assert!(
                matches!(reply, Response::Ok { value, .. } if value == arg),
                "request {arg}: {reply:?}"
            );
            took
        })
        .min()
        .expect("fifty requests");
    assert!(best >= Duration::from_micros(200), "the window was kept");
    assert!(best < Duration::from_millis(1), "best of 50: {best:?}");
    let snap = server.telemetry().snapshot();
    assert_eq!(snap[Metric::BatchesFormed], 50, "each a batch of its own");
    server.shutdown();
}

/// Pins `workload`'s win table — alternative `fav` the favourite, its
/// body 2 µs — and its service table — 5 µs a race — 20 000 samples
/// deep: stated, not hoped for, as in [`pin_trivial_short`]. That deep,
/// no p99 clause moves with what a test then races (a debug build's
/// witness-first proof reads p99 ≤ 32 µs from a racer on the other
/// CPU); the recent-mean clauses stay live, and are the measurement's.
fn pin_short_and_led(telemetry: &Telemetry, workload: &str, fav: usize) {
    let stats = telemetry.catalog().expect("attached at start");
    let widx = workload::index_of(workload).expect("in the catalog");
    let wins = stats.table(widx).expect("interned");
    for _ in 0..20_000 {
        wins.record_win(fav, 2);
        stats.record_service(widx, 5);
    }
}

/// One closed-loop request whose reply must be `Ok` and name its
/// winner as the catalog does.
fn ok_and_named_right(stream: &mut TcpStream, spec: &workload::WorkloadSpec, arg: u64) {
    pipeline(stream, [run_req(spec.name, arg, 0)]);
    match next_reply(stream) {
        Response::Ok {
            winner,
            winner_name,
            ..
        } => assert_eq!(
            spec.alt_names.get(winner as usize),
            Some(&winner_name.as_str()),
            "{} arg {arg}: winner {winner}",
            spec.name
        ),
        other => panic!("{} arg {arg}: expected Ok, got {other:?}", spec.name),
    }
}

/// Nobody is woken to lose, end to end: a daemon whose `prolog`
/// favourite has measured under a wake-up runs that clause order first,
/// on the thread that has the request — except on ticks 0, 8, 16 …,
/// which explore in declaration order — and every led race suppresses
/// the dead end it never started. With no dead end started the service
/// time is short, and the unchanged shard rule races `prolog` on the
/// reactor thread. Every reply is `Ok` and named as the catalog names
/// it. `lognormal`, pinned just as short, never gets the plan: its
/// bodies wait.
///
/// How many races lead is the recent means' to say (an optimised build
/// leads all 700 of 800 that are not the floor's and runs all 800 on
/// the shard; an unoptimised one's witness-first proof hovers around
/// the bound), so the counts are asserted against the rule itself: one
/// closed-loop connection, every race on record before its reply is
/// written, so a policy over the daemon's own statistics says before
/// each request what the daemon is about to do. The pins — repeated
/// every hundred requests — make sure some races lead in any build.
#[test]
fn a_measured_favourite_runs_first_and_prolog_reaches_the_shard() {
    const REQUESTS: u64 = 800;
    let _guard = serial();
    let server = local_server(2, 16);
    let telemetry = server.telemetry();
    let stats = telemetry.catalog().expect("attached at start");
    let rule = HedgePolicy::with_catalog(ServerConfig::default().hedge, Arc::clone(stats));
    let prolog = workload::spec("prolog").expect("in the catalog");
    let widx = workload::index_of("prolog").expect("in the catalog");
    let mut stream = raw_conn(&server);
    let (mut led, mut on_shard) = (0, 0);
    for tick in 0..REQUESTS {
        if tick % 100 == 1 {
            pin_short_and_led(&telemetry, "prolog", 1);
        }
        let leads = tick % 8 != 0 && rule.lead_for(widx) == Some(1);
        assert!(leads || tick % 100 != 1, "pinned, and not the floor's");
        led += u64::from(leads);
        on_shard += u64::from(stats.runs_on_shard(widx));
        ok_and_named_right(&mut stream, prolog, tick);
    }
    // A queued race is counted accepted after the push, which its
    // reply can overtake.
    await_snapshot(&telemetry, "the last race to be counted", |t| {
        t.snapshot()[Metric::Accepted] == REQUESTS
    });
    let snap = telemetry.snapshot();
    assert_eq!(snap[Metric::Completed], REQUESTS);
    assert_eq!(
        snap[Metric::RacesFavouriteFirst],
        led,
        "the plan is the rule"
    );
    assert_eq!(snap[Metric::RacesOnShard], on_shard, "the path is the flag");
    assert!(led >= REQUESTS / 100 && on_shard >= REQUESTS / 100);
    assert!(
        snap[Metric::LaunchesSuppressed] >= led,
        "a lead that decides suppresses its sibling: {} < {led}",
        snap[Metric::LaunchesSuppressed]
    );

    pin_short_and_led(&telemetry, "lognormal", 0);
    let lognormal = workload::spec("lognormal").expect("in the catalog");
    for arg in 0..16 {
        ok_and_named_right(&mut stream, lognormal, arg);
    }
    assert_eq!(telemetry.snapshot()[Metric::RacesFavouriteFirst], led);
    pin_short_and_led(&telemetry, "prolog", 1);
    pipeline(&mut stream, [Request::Catalog]);
    match next_reply(&mut stream) {
        Response::Text { body } => {
            let plan_of = |name: &str| {
                let entry = body.split(&format!("\n  {name}  — ")).nth(1).expect(name);
                entry.lines().find(|l| l.contains("plan: ")).expect(name)
            };
            assert_eq!(plan_of("lognormal"), "    plan: race", "{body}");
            let led = "    plan: favourite-first (alt 1, body p99 ≤ 4 µs, mean 2.0 µs)";
            assert_eq!(plan_of("prolog"), led, "{body}");
        }
        other => panic!("expected the catalog page, got {other:?}"),
    }
    server.shutdown();
}
