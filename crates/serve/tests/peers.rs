//! Cluster peering end-to-end: two real daemons racing alternatives
//! across the wire, plus a byte-level fake peer for failure injection.
//!
//! The mesh under test is deliberately asymmetric: node A runs with no
//! peers configured (pure executor role — it dials nobody, and its
//! results ride home on B's own links), node B lists A as a peer and is
//! forced to explore (`explore_every = 1`) so every race ships one
//! non-favourite alternative. That exercises both roles of every node
//! without waiting for the transfer model to warm up.

use altx_serve::frame::{read_frame, write_frame, FrameError, Request, Response, ALT_OK};
use altx_serve::server::{start, ServerConfig, ServerHandle};
use altx_serve::telemetry::Metric;
use altx_serve::{workload, Client, PeerConfig};
use std::io::{ErrorKind, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Serialize the servers in this file: each opens real sockets and
/// spawns pools; overlapping them makes timing assertions flaky.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
    GATE.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn node(peers: Vec<String>, explore_every: u64) -> ServerHandle {
    start(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        queue_depth: 32,
        peer: PeerConfig {
            peers,
            explore_every,
            ..PeerConfig::default()
        },
        ..ServerConfig::default()
    })
    .expect("start node")
}

/// Polls until `cond(snapshot)` holds or the deadline passes.
fn wait_for(
    handle: &ServerHandle,
    what: &str,
    cond: impl Fn(&altx_serve::telemetry::Snapshot) -> bool,
) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if cond(&handle.telemetry().snapshot()) {
            return;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// A two-node mesh where B ships one alternative of every race to A:
/// with a heavy-tailed workload some shipped draws beat the local
/// favourite, so remote dispatch, results, majority commits, and
/// remote wins all happen over real sockets.
#[test]
fn remote_alternatives_win_races_across_the_mesh() {
    let _guard = serial();
    let a = node(Vec::new(), 16);
    let b = node(vec![a.local_addr().to_string()], 1);
    wait_for(&b, "B's link to A to come up", |s| s[Metric::PeersUp] == 1);

    let mut client = Client::connect(b.local_addr()).expect("connect B");
    let mut ok = 0u64;
    for arg in 0..200u64 {
        match client.run("lognormal", arg, 0).expect("reply") {
            // Transparency: a winner answers under the catalog's name
            // for the alternative, on whichever node it ran — the
            // remote wins asserted below are among these replies.
            Response::Ok {
                winner,
                winner_name,
                ..
            } => {
                let spec = workload::spec("lognormal").expect("catalog entry");
                assert_eq!(winner_name, spec.alt_names[winner as usize]);
                ok += 1;
            }
            Response::Overloaded => {}
            other => panic!("unexpected reply: {other:?}"),
        }
    }
    assert!(ok > 0, "no race completed");

    let sb = b.telemetry().snapshot();
    assert!(
        sb[Metric::RemoteDispatched] > 0,
        "B never shipped an alternative"
    );
    assert!(
        sb[Metric::RemoteResults] > 0,
        "no remote result ever came home"
    );
    assert!(
        sb[Metric::RemoteWins] > 0,
        "200 heavy-tailed races and the remote leg never won once \
         (dispatched {}, results {})",
        sb[Metric::RemoteDispatched],
        sb[Metric::RemoteResults]
    );
    let sa = a.telemetry().snapshot();
    assert!(
        sa[Metric::RemoteExecs] > 0,
        "A never executed a shipped alternative"
    );
    assert!(
        sa[Metric::CommitVotes] > 0,
        "B committed winners without ever asking A for a vote"
    );

    // The per-peer table is visible over the wire on both nodes.
    let page = client.peer_stats().expect("peer stats page");
    assert!(page.contains(&a.local_addr().to_string()), "{page}");

    b.shutdown();
    a.shutdown();
}

/// Every race ships a leg (exploration) that an instant local favourite
/// may or may not beat — which of the two wins is the interleaving's
/// business, not the contract's. The contract: the shipped leg, win or
/// lose, never holds a reply back and never produces a second one. The
/// client speaks raw frames on one socket, one request outstanding, so
/// a reply held back hangs the read and a second reply to request `n`
/// is read as the (wrong-valued) reply to request `n + 1` — or, after
/// the last request, is still readable on the socket.
#[test]
fn remote_losses_never_block_or_double_answer() {
    let _guard = serial();
    let a = node(Vec::new(), 16);
    let b = node(vec![a.local_addr().to_string()], 1);
    wait_for(&b, "B's link to A to come up", |s| s[Metric::PeersUp] == 1);

    let mut conn = TcpStream::connect(b.local_addr()).expect("connect B");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    for arg in 0..130u64 {
        let request = Request::Run {
            workload: "trivial".to_owned(),
            deadline_ms: 0,
            arg,
        };
        write_frame(&mut conn, &request.encode()).expect("send");
        let body = read_frame(&mut conn)
            .expect("a reply, not a hang")
            .expect("a reply, not a close");
        match Response::decode(&body).expect("well-formed reply") {
            Response::Ok { value, .. } => assert_eq!(value, arg, "reply to request {arg}"),
            Response::Overloaded => {}
            other => panic!("unexpected reply: {other:?}"),
        }
    }
    assert!(
        b.telemetry().snapshot()[Metric::RemoteDispatched] > 0,
        "exploration never shipped"
    );
    // Shipped legs that lost report home within a round trip; a reply
    // minted from one of them would be on the socket by now.
    conn.set_read_timeout(Some(Duration::from_millis(300)))
        .expect("read timeout");
    match read_frame(&mut conn) {
        Err(FrameError::Io(e))
            if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
        other => panic!("130 requests, 130 replies, and then: {other:?}"),
    }
    b.shutdown();
    a.shutdown();
}

/// A link in service that falls silent is closed, and the close is what
/// heals it. The fake peer's first connection answers its first frame
/// — the link enters service — then reads everything and answers
/// nothing — a stream whose far-end decoder lost sync looks exactly
/// like this — so the origin closes it a silence span after that
/// answer and within one probe cadence more, a quarantine; nothing on
/// that connection could ever answer again. The origin must dial again,
/// the redial by itself must leave the peer out of service, and the
/// first reply on the new connection must put it back.
#[test]
fn silent_up_link_is_redialled_and_readmitted_by_the_first_reply() {
    let _guard = serial();

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake peer");
    let fake_addr = listener.local_addr().expect("fake addr");
    let dials = Arc::new(AtomicUsize::new(0));
    let done = Arc::new(AtomicBool::new(false));
    let (answer_tx, answer_rx) = mpsc::channel::<()>();
    // How long the first connection stayed open after its one answer.
    let (silent_tx, silent_rx) = mpsc::channel::<Duration>();
    let fake = {
        let (dials, done) = (Arc::clone(&dials), Arc::clone(&done));
        std::thread::spawn(move || {
            for conn in listener.incoming() {
                let mut conn = conn.expect("accept");
                if done.load(Ordering::SeqCst) {
                    return;
                }
                let answers = dials.fetch_add(1, Ordering::SeqCst) > 0;
                if answers {
                    // Hold the replies until the test has looked at the
                    // redialled, still-unanswered link (first redial
                    // only; later ones find the channel closed).
                    let _ = answer_rx.recv();
                }
                // Until the origin closes this connection; the first
                // one answers its first frame only.
                let mut answered = None;
                while let Ok(Some(_)) = read_frame(&mut conn) {
                    if answers || answered.is_none() {
                        let ack = Response::Text {
                            body: "ok\n".to_owned(),
                        };
                        let _ = write_frame(&mut conn, &ack.encode());
                        answered.get_or_insert_with(Instant::now);
                    }
                }
                if let (false, Some(at)) = (answers, answered) {
                    let _ = silent_tx.send(at.elapsed());
                }
            }
        })
    };

    let origin = start(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        queue_depth: 32,
        peer: PeerConfig {
            peers: vec![fake_addr.to_string()],
            silence_ms: 100,
            ..PeerConfig::default()
        },
        ..ServerConfig::default()
    })
    .expect("start origin");
    let mut client = Client::connect(origin.local_addr()).expect("connect origin");
    let mut peer_row = || {
        let page = client.peer_stats().expect("peer stats page");
        let row = page.lines().find(|l| l.contains(&fake_addr.to_string()));
        row.unwrap_or_else(|| panic!("no row for the fake peer:\n{page}"))
            .to_owned()
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut wait_row = |what: &str, cond: &dyn Fn(&str) -> bool| loop {
        let row = peer_row();
        if cond(&row) {
            return row;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {what}: {row}"
        );
        std::thread::sleep(Duration::from_millis(5));
    };

    // A second connection exists and has carried no reply yet.
    let row = wait_row("the silent link to be redialled", &|_| {
        dials.load(Ordering::SeqCst) >= 2
    });
    assert!(
        row.contains(" up 0 "),
        "a redial alone must not readmit: {row}"
    );
    assert!(
        !row.contains(" quarantines 0 "),
        "the silence close was no quarantine: {row}"
    );
    // Closed no sooner than the 100 ms span after the answer, and within
    // the span and a 33 ms probe cadence — give or take a loaded box's
    // scheduling, for which the upper bound allows 200 ms more.
    let silent = silent_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("the first connection answered, then closed");
    assert!(
        silent >= Duration::from_millis(100) && silent < Duration::from_millis(333),
        "closed {silent:?} after its last answer"
    );
    drop(answer_tx); // the fake starts answering
    wait_row("the first reply to readmit the peer", &|row| {
        row.contains(" up 1 ")
    });

    origin.shutdown();
    done.store(true, Ordering::SeqCst);
    let _ = TcpStream::connect(fake_addr); // wakes the fake's accept
    fake.join().expect("fake peer thread");
}

/// A peer that accepts TCP and never answers is never in service. The
/// origin explores every race (`explore_every: 1`), so a peer it counted
/// from the connect would get a leg of each and a voter slot, and each
/// commit would wait on a vote nobody casts until the link is closed
/// for silence — and then commit degraded. Inside the first silence
/// span (1.5 s), every race must answer at once, none shipped and none
/// degraded.
#[test]
fn a_peer_that_never_answers_gets_no_leg_and_no_vote() {
    let _guard = serial();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind the mute peer");
    let mute_addr = listener.local_addr().expect("mute addr");
    let (accepted_tx, accepted) = mpsc::channel::<()>();
    let mute = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().expect("the origin dials in");
        let _ = accepted_tx.send(());
        // Reads everything, answers nothing, until the origin hangs up.
        while let Ok(Some(_)) = read_frame(&mut conn) {}
    });

    let origin = node(vec![mute_addr.to_string()], 1);
    accepted
        .recv_timeout(Duration::from_secs(10))
        .expect("the origin connects to the mute peer");
    let window = Instant::now() + Duration::from_millis(1_500);
    std::thread::sleep(Duration::from_millis(50)); // the connect is seen
    let mut client = Client::connect(origin.local_addr()).expect("connect origin");
    let mut slowest = Duration::ZERO;
    for arg in 0..20u64 {
        let sent = Instant::now();
        match client.run("lognormal", arg, 0).expect("a reply") {
            Response::Ok { .. } => {}
            other => panic!("unexpected reply: {other:?}"),
        }
        slowest = slowest.max(sent.elapsed());
    }
    let s = origin.telemetry().snapshot();
    assert_eq!(
        s[Metric::RemoteDispatched],
        0,
        "legs shipped to a peer that never answered"
    );
    assert_eq!(s[Metric::CommitsDegraded], 0, "commits waited on its vote");
    assert!(
        slowest < Duration::from_millis(500),
        "a race took {slowest:?} beside a mute peer"
    );
    assert!(
        Instant::now() < window,
        "the races outran the first silence span: nothing was tested"
    );
    origin.shutdown();
    mute.join().expect("mute peer thread");
}

/// A peer that dies mid-race: a byte-level fake acks admission for one
/// shipped alternative, never reports a result, and drops the link.
/// The origin must convert the orphan into a failed guard, commit the
/// local winner *degraded* (its only co-voter is gone — no majority),
/// answer the client exactly once, and keep serving with the peer down.
#[test]
fn peer_death_mid_race_degrades_and_answers_exactly_once() {
    let _guard = serial();

    // The fake peer: accept the origin's link, ack the first EXEC_ALT
    // as admitted, then vanish without ever sending ALT_RESULT.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake peer");
    let fake_addr = listener.local_addr().expect("fake addr");
    let fake = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().expect("origin dials in");
        loop {
            let Ok(Some(body)) = read_frame(&mut conn) else {
                return; // origin gone first
            };
            match Request::decode(&body) {
                Ok(Request::ExecAlt { .. }) => {
                    let ack = Response::Text {
                        body: "ok\n".to_owned(),
                    };
                    let _ = write_frame(&mut conn, &ack.encode());
                    return; // die with the alternative still pending
                }
                _ => {
                    // Pre-race traffic (e.g. nothing today) — ack and
                    // keep reading until the EXEC_ALT arrives.
                    let ack = Response::Text {
                        body: "ok\n".to_owned(),
                    };
                    let _ = write_frame(&mut conn, &ack.encode());
                }
            }
        }
    });

    let origin = node(vec![fake_addr.to_string()], 1);
    wait_for(&origin, "link to the fake peer", |s| {
        s[Metric::PeersUp] == 1
    });

    let mut client = Client::connect(origin.local_addr()).expect("connect origin");
    // One race with the doomed peer in it. The local leg always has
    // the favourite, so the race can finish without the orphan.
    match client.run("lognormal", 7, 0).expect("exactly one reply") {
        Response::Ok { .. } => {}
        other => panic!("race with a dead peer must still succeed: {other:?}"),
    }

    // The orphan is converted, the commit is degraded (1 of 2 voters),
    // and nothing about it reaches the client twice.
    wait_for(&origin, "degraded commit accounting", |s| {
        s[Metric::CommitsDegraded] >= 1
    });
    let s = origin.telemetry().snapshot();
    assert!(
        s[Metric::RemoteDispatched] >= 1,
        "the alternative was never shipped"
    );
    assert_eq!(
        s[Metric::RemoteWins],
        0,
        "the fake peer never reported a result"
    );

    // The peer is now down; later races run purely locally and answer.
    wait_for(&origin, "link death detection", |s| s[Metric::PeersUp] == 0);
    for arg in 0..20u64 {
        match client
            .run("trivial", arg, 0)
            .expect("reply after peer death")
        {
            Response::Ok { value, .. } => assert_eq!(value, arg),
            Response::Overloaded => {}
            other => panic!("unexpected reply: {other:?}"),
        }
    }

    fake.join().expect("fake peer thread");
    origin.shutdown();
}

/// An executor that pushes its `ALT_RESULT` twice on the origin's link
/// (the duplicated-frame chaos the faults layer injects at the wire):
/// the origin must count the result at most once, answer the client
/// exactly once, and keep both connections in sync — the duplicate can
/// never surface as a stray reply, nor take the tag of a request.
#[test]
fn duplicated_alt_result_never_double_answers() {
    let _guard = serial();

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake peer");
    let fake_addr = listener.local_addr().expect("fake addr");
    // The fake executor: ack everything on the origin's link; on the
    // first EXEC_ALT, push the same winning ALT_RESULT twice behind the
    // ack on that very link, as a real executor pushes one.
    let fake = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().expect("origin dials in");
        let mut duplicated = false;
        loop {
            let Ok(Some(body)) = read_frame(&mut conn) else {
                return; // origin gone first
            };
            let ack = Response::Text {
                body: "ok\n".to_owned(),
            };
            match Request::decode(&body) {
                Ok(Request::ExecAlt {
                    race_id, alt_idx, ..
                }) if !duplicated => {
                    duplicated = true;
                    let _ = write_frame(&mut conn, &ack.encode());
                    let result = Response::AltResult {
                        race_id,
                        alt_idx,
                        status: ALT_OK,
                        value: 424_242,
                        latency_us: 10,
                    }
                    .encode();
                    for _ in 0..2 {
                        let _ = write_frame(&mut conn, &result);
                    }
                }
                Ok(_) => {
                    // Later shipped legs are admitted but never resolve;
                    // the origin's local favourite answers those races.
                    let _ = write_frame(&mut conn, &ack.encode());
                }
                Err(_) => return,
            }
        }
    });

    let origin = node(vec![fake_addr.to_string()], 1);
    wait_for(&origin, "link to the fake peer", |s| {
        s[Metric::PeersUp] == 1
    });

    let mut client = Client::connect(origin.local_addr()).expect("connect origin");
    match client.run("lognormal", 3, 0).expect("exactly one reply") {
        Response::Ok { .. } => {}
        other => panic!("the race must still succeed: {other:?}"),
    }
    // Whichever leg won, the duplicate was dropped at the registry: at
    // most one copy was ever counted against the race.
    let s = origin.telemetry().snapshot();
    assert!(
        s[Metric::RemoteResults] <= 1,
        "duplicate ALT_RESULT was double-counted: {}",
        s[Metric::RemoteResults]
    );
    // The client connection is still in sync — no stray reply exists.
    for arg in 0..20u64 {
        match client
            .run("trivial", arg, 0)
            .expect("reply after duplicate")
        {
            Response::Ok { value, .. } => assert_eq!(value, arg),
            Response::Overloaded => {}
            other => panic!("unexpected reply: {other:?}"),
        }
    }
    drop(client);
    origin.shutdown();
    fake.join().expect("fake peer thread");
}

/// A result rides home on the connection that shipped its leg, and
/// nowhere else. The executor runs a leg for an origin at an address
/// nobody listens on: its `ALT_RESULT` comes back on the test's own
/// `EXEC_ALT` socket — before or after the ack, whichever the job and
/// the reactor make first — and that address is never dialled, now or
/// later, so something that binds the port afterwards is never handed
/// the result of a race it did not start. The window is longer than the
/// longest redial backoff.
#[test]
fn a_result_for_a_dead_origin_is_dropped_not_redialled() {
    let _guard = serial();
    let executor = node(Vec::new(), 16);

    // A port that refuses: bound once so it is ours to name, closed
    // before anyone dials it.
    let origin = TcpListener::bind("127.0.0.1:0").expect("reserve a port");
    let origin_addr = origin.local_addr().expect("reserved addr");
    drop(origin);

    let mut conn = TcpStream::connect(executor.local_addr()).expect("connect executor");
    let leg = Request::ExecAlt {
        race_id: 7,
        alt_idx: 0,
        deadline_ms: 0,
        arg: 1,
        workload: "trivial".to_owned(),
    };
    write_frame(&mut conn, &leg.encode()).expect("ship the leg");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let (mut acked, mut result) = (false, false);
    for _ in 0..2 {
        let body = read_frame(&mut conn)
            .expect("the ack and the result")
            .expect("a frame, not a close");
        match Response::decode(&body).expect("a well-formed frame") {
            Response::Text { .. } if !acked => acked = true,
            Response::AltResult {
                race_id: 7,
                alt_idx: 0,
                status: ALT_OK,
                ..
            } if !result => result = true,
            other => panic!("want the ack and the result, got {other:?}"),
        }
    }
    wait_for(&executor, "the leg to run", |s| s[Metric::RemoteExecs] >= 1);

    let origin = TcpListener::bind(origin_addr).expect("bind the origin's port");
    origin.set_nonblocking(true).expect("nonblocking accept");
    let until = Instant::now() + Duration::from_millis(2_500);
    while Instant::now() < until {
        match origin.accept() {
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Ok((_, from)) => panic!("the executor redialled a dead origin (from {from})"),
            Err(e) => panic!("accept: {e}"),
        }
    }
    executor.shutdown();
}

/// A result needs no second connection: once a shipped leg has reported
/// home, the origin still has exactly one connection open — its client's
/// — because the executor wrote the result on the origin's own link
/// instead of dialling back.
#[test]
fn a_result_comes_home_on_the_origins_link_not_a_dial_back() {
    let _guard = serial();
    let a = node(Vec::new(), 16);
    let b = node(vec![a.local_addr().to_string()], 1);
    wait_for(&b, "B's link to A to come up", |s| s[Metric::PeersUp] == 1);

    let mut client = Client::connect(b.local_addr()).expect("connect B");
    let deadline = Instant::now() + Duration::from_secs(10);
    for arg in 0.. {
        client.run("lognormal", arg, 0).expect("reply");
        if b.telemetry().snapshot()[Metric::RemoteResults] >= 1 {
            break;
        }
        assert!(Instant::now() < deadline, "no shipped leg ever reported");
    }
    assert_eq!(
        b.telemetry().snapshot()[Metric::ConnsOpen],
        1,
        "the origin has a connection besides its client's"
    );
    b.shutdown();
    a.shutdown();
}

/// A peer that never completes a TCP handshake costs its own link, and
/// no other link anything. The origin has two peers: a live one (a
/// byte-level fake that answers every frame and notes when each
/// heartbeat arrives) and a blackhole — a listener whose accept queue
/// this test fills and never drains, so every further connect hangs in
/// its handshake and only the origin's 50 ms dial timeout ends it. Over
/// 1.2 s of the blackhole's redials (one backoff after each timeout: 50,
/// 100, 200, 400 ms …) the live link's heartbeats keep their 10 ms
/// cadence (a third of its 30 ms silence span): no gap between two
/// arrivals is as long as one blackhole dial. A dial that blocks the thread the links share holds the live
/// link's heartbeat for the whole 50 ms, every time.
#[test]
fn a_peer_that_never_answers_the_handshake_holds_up_no_other_link() {
    const DIAL: Duration = Duration::from_millis(50);
    let _guard = serial();

    let blackhole = TcpListener::bind("127.0.0.1:0").expect("bind the blackhole");
    let hole_addr = blackhole.local_addr().expect("blackhole addr");
    let mut queued = Vec::new();
    loop {
        match TcpStream::connect_timeout(&hole_addr, DIAL) {
            Ok(conn) => queued.push(conn),
            Err(e) if e.kind() == ErrorKind::TimedOut => break,
            Err(e) => panic!("filling the blackhole's accept queue: {e}"),
        }
    }

    let live = TcpListener::bind("127.0.0.1:0").expect("bind the live peer");
    let live_addr = live.local_addr().expect("live addr");
    let (beat_tx, beats) = mpsc::channel::<Instant>();
    let fake = std::thread::spawn(move || {
        let (mut conn, _) = live.accept().expect("the origin dials the live peer");
        // Until the origin closes the link.
        while let Ok(Some(body)) = read_frame(&mut conn) {
            if matches!(Request::decode(&body), Ok(Request::PeerStats)) {
                let _ = beat_tx.send(Instant::now());
            }
            let ack = Response::Text {
                body: "altxd peers\nload queued 0 busy 0 workers 1\n".to_owned(),
            };
            if write_frame(&mut conn, &ack.encode()).is_err() {
                return;
            }
        }
    });

    let origin = start(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        queue_depth: 32,
        peer: PeerConfig {
            peers: vec![live_addr.to_string(), hole_addr.to_string()],
            silence_ms: 30,
            ..PeerConfig::default()
        },
        ..ServerConfig::default()
    })
    .expect("start origin");
    let until = Instant::now() + Duration::from_millis(1_200);
    let mut arrivals = Vec::new();
    while let Some(left) = until.checked_duration_since(Instant::now()) {
        if let Ok(at) = beats.recv_timeout(left) {
            arrivals.push(at);
        }
    }
    origin.shutdown();
    fake.join().expect("fake peer thread");
    drop(queued);

    assert!(
        arrivals.len() >= 20,
        "the live link carried {} heartbeats in 1.2 s",
        arrivals.len()
    );
    let longest = arrivals.windows(2).map(|w| w[1] - w[0]).max();
    let longest = longest.expect("two heartbeats at least");
    assert!(
        longest < DIAL,
        "the live link went {longest:?} without a heartbeat: a blackhole dial held it up"
    );
}

/// A link's last frames before its end reach the link core. A
/// byte-level fake executor answers each frame of the origin's link
/// (the priming heartbeat puts it in service) until an `EXEC_ALT`
/// arrives; then it waits until the origin has sent one more frame —
/// the race's `COMMIT_VOTE` once its local alternative finished, or a
/// heartbeat — and, leaving that unread, in one write acks the
/// `EXEC_ALT` and pushes the leg's winning `ALT_RESULT`, and closes.
/// Closing over an unread frame resets the connection, so the origin's
/// poll may report the hang-up with the two frames still unread: they
/// must be read and handled before the close is. The race takes the
/// result (`remote results` +1, `remote failed` +0) and the client gets
/// its one reply.
#[test]
fn a_links_last_frames_before_its_end_reach_the_core() {
    let _guard = serial();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind the fake executor");
    let fake_addr = listener.local_addr().expect("fake addr");
    let fake = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().expect("the origin dials in");
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        let ack = Response::Text {
            body: "ok\n".to_owned(),
        };
        loop {
            let body = read_frame(&mut conn)
                .expect("a frame")
                .expect("not a close");
            let Ok(Request::ExecAlt {
                race_id, alt_idx, ..
            }) = Request::decode(&body)
            else {
                write_frame(&mut conn, &ack.encode()).expect("answer");
                continue;
            };
            conn.peek(&mut [0u8; 1])
                .expect("one more frame from the origin");
            let result = Response::AltResult {
                race_id,
                alt_idx,
                status: ALT_OK,
                value: 777,
                latency_us: 10,
            };
            let mut last = Vec::new();
            write_frame(&mut last, &ack.encode()).expect("encode the ack");
            write_frame(&mut last, &result.encode()).expect("encode the result");
            conn.write_all(&last).expect("the last write");
            return;
        }
    });

    let origin = node(vec![fake_addr.to_string()], 1);
    wait_for(&origin, "the link in service", |s| s[Metric::PeersUp] == 1);
    let mut client = Client::connect(origin.local_addr()).expect("connect origin");
    match client.run("trivial", 5, 0).expect("one reply") {
        Response::Ok { .. } => {}
        other => panic!("unexpected reply: {other:?}"),
    }
    fake.join().expect("fake executor thread");
    wait_for(&origin, "the link's close", |s| s[Metric::PeersUp] == 0);
    let s = origin.telemetry().snapshot();
    assert_eq!(s[Metric::RemoteDispatched], 1, "one leg shipped");
    assert_eq!(
        (s[Metric::RemoteResults], s[Metric::RemoteFailed]),
        (1, 0),
        "the result written before the close must reach the race"
    );
    origin.shutdown();
}

/// Ships alternative 0 of `sleep` for 5 s as race `race_id` on a fresh
/// raw connection to `executor`, and reads its admission ack.
fn ship_sleep(executor: &ServerHandle, race_id: u64) -> TcpStream {
    let mut conn = TcpStream::connect(executor.local_addr()).expect("connect executor");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let leg = Request::ExecAlt {
        race_id,
        alt_idx: 0,
        deadline_ms: 0,
        arg: 5_000,
        workload: "sleep".to_owned(),
    };
    write_frame(&mut conn, &leg.encode()).expect("ship the leg");
    let body = read_frame(&mut conn).expect("the ack").expect("a frame");
    match Response::decode(&body).expect("a well-formed frame") {
        Response::Text { .. } => conn,
        other => panic!("want the ack, got {other:?}"),
    }
}

/// The `busy` figure of the executor's own load line (`PEER_STATS`).
fn busy(executor: &ServerHandle) -> u64 {
    let mut client = Client::connect(executor.local_addr()).expect("connect executor");
    let page = client.peer_stats().expect("peer stats page");
    let line = page
        .lines()
        .find(|l| l.starts_with("load "))
        .expect("a load line");
    let fields: Vec<&str> = line.split_whitespace().collect();
    fields[4].parse().expect("busy is a number")
}

/// Polls until the executor's `busy` reads `want`, for at most `within`.
fn wait_busy(executor: &ServerHandle, want: u64, within: Duration) {
    let deadline = Instant::now() + within;
    while busy(executor) != want {
        assert!(
            Instant::now() < deadline,
            "busy never read {want} within {within:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A shipped alternative lives no longer than the connection that
/// shipped it: once the socket a 5 s `sleep` leg came in on is dropped,
/// the executor cancels the leg and its worker is free within a second,
/// not five.
#[test]
fn closing_the_link_cancels_its_shipped_legs() {
    let _guard = serial();
    let executor = node(Vec::new(), 16);
    let conn = ship_sleep(&executor, 7);
    wait_busy(&executor, 1, Duration::from_secs(2));
    drop(conn);
    wait_busy(&executor, 0, Duration::from_secs(1));
    executor.shutdown();
}

/// An `ELIMINATE` names a race on its own connection: two connections
/// each ship race 7, and eliminating race 7 on the first cancels the
/// first one's leg alone — the second still runs, and reports nothing.
#[test]
fn an_eliminate_cancels_only_its_own_connections_leg() {
    let _guard = serial();
    let executor = node(Vec::new(), 16);
    let mut first = ship_sleep(&executor, 7);
    let mut second = ship_sleep(&executor, 7);
    wait_busy(&executor, 2, Duration::from_secs(2));

    let eliminate = Request::Eliminate { race_id: 7 };
    write_frame(&mut first, &eliminate.encode()).expect("eliminate");
    let ack = loop {
        let body = read_frame(&mut first).expect("the ack").expect("a frame");
        match Response::decode(&body).expect("a well-formed frame") {
            // The cancelled leg's result may come first.
            Response::AltResult { race_id: 7, .. } => continue,
            Response::Text { body } => break body,
            other => panic!("want the ack, got {other:?}"),
        }
    };
    assert_eq!(ack, "eliminated 1\n");
    wait_busy(&executor, 1, Duration::from_secs(1));
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(busy(&executor), 1, "the second connection's leg still runs");
    second
        .set_read_timeout(Some(Duration::from_millis(100)))
        .expect("read timeout");
    match read_frame(&mut second) {
        Err(FrameError::Io(e))
            if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
        other => panic!("the second leg reported: {other:?}"),
    }
    drop((first, second));
    executor.shutdown();
}

/// A restarted origin does not meet its previous run's vote slots. The
/// voter keeps a slot per `(origin, race_id)` for minutes; an origin
/// restarted under the same `--advertise` name numbers its races above
/// every id its previous run used, so no vote it asks for lands in an
/// old slot holding another candidate — which would deny it and commit
/// the race degraded with every voter reachable.
#[test]
fn a_restarted_origin_commits_cleanly_against_its_old_voter() {
    let _guard = serial();
    let voter = node(Vec::new(), 16);
    let origin = || {
        start(ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 2,
            queue_depth: 32,
            peer: PeerConfig {
                peers: vec![voter.local_addr().to_string()],
                explore_every: 1,
                advertise: Some("o".to_owned()),
                ..PeerConfig::default()
            },
            ..ServerConfig::default()
        })
        .expect("start origin")
    };
    // Thirty races from `args`: draws are seeded by the argument, so
    // the second run's winners are not the first run's.
    let run_30 = |node: &ServerHandle, args: std::ops::Range<u64>| {
        wait_for(node, "the link to the voter", |s| s[Metric::PeersUp] == 1);
        let mut client = Client::connect(node.local_addr()).expect("connect origin");
        for arg in args {
            client.run("lognormal", arg, 0).expect("reply");
        }
    };
    let first = origin();
    run_30(&first, 0..30);
    first.shutdown();
    let second = origin();
    run_30(&second, 30..60);
    assert_eq!(
        second.telemetry().snapshot()[Metric::CommitsDegraded],
        0,
        "a restarted origin committed degraded with its voter up"
    );
    second.shutdown();
    voter.shutdown();
}
