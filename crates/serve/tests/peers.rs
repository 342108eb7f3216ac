//! Cluster peering end-to-end: two real daemons racing alternatives
//! across the wire, plus a byte-level fake peer for failure injection.
//!
//! The mesh under test is deliberately asymmetric: node A runs with no
//! peers configured (pure executor role — its outbound links are dialed
//! on demand to ship results home), node B lists A as a peer and is
//! forced to explore (`explore_every = 1`) so every race ships one
//! non-favourite alternative. That exercises both roles of every node
//! without waiting for the transfer model to warm up.

use altx_serve::frame::{read_frame, write_frame, FrameError, Request, Response};
use altx_serve::server::{start, ServerConfig, ServerHandle};
use altx_serve::telemetry::Metric;
use altx_serve::{workload, Client, PeerConfig};
use std::io::ErrorKind;
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

/// A link that is up and silent is reset, and the reset is what heals
/// it. The fake peer's first connection reads everything and answers
/// nothing — a stream whose far-end decoder lost sync looks exactly
/// like this — so the origin quarantines it; nothing on that connection
/// can ever readmit the peer. The origin must dial again, the redial by
/// itself must leave the peer quarantined, and the first reply on the
/// new connection must readmit it.
#[test]
fn silent_up_link_is_redialled_and_readmitted_by_the_first_reply() {
    let _guard = serial();

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake peer");
    let fake_addr = listener.local_addr().expect("fake addr");
    let dials = Arc::new(AtomicUsize::new(0));
    let done = Arc::new(AtomicBool::new(false));
    let (answer_tx, answer_rx) = mpsc::channel::<()>();
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
                // Until the origin closes this connection.
                while let Ok(Some(_)) = read_frame(&mut conn) {
                    if answers {
                        let ack = Response::Text {
                            body: "ok\n".to_owned(),
                        };
                        let _ = write_frame(&mut conn, &ack.encode());
                    }
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
            heartbeat_ms: 20,
            suspect_ms: 100,
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
    let row = wait_row("the silent link to be redialled", &|row| {
        dials.load(Ordering::SeqCst) >= 2 && row.contains("up 1")
    });
    assert!(
        row.contains("health quarantined"),
        "a redial alone must not readmit: {row}"
    );
    drop(answer_tx); // the fake starts answering
    wait_row("the first reply to readmit the peer", &|row| {
        row.contains("up 1  health up")
    });

    origin.shutdown();
    done.store(true, Ordering::SeqCst);
    let _ = TcpStream::connect(fake_addr); // wakes the fake's accept
    fake.join().expect("fake peer thread");
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

/// An executor that double-sends its `ALT_RESULT` (the duplicated-frame
/// chaos the faults layer injects at the wire): the origin must count
/// the result at most once, answer the client exactly once, and keep
/// the connection in sync — the duplicate can never surface as a stray
/// reply.
#[test]
fn duplicated_alt_result_never_double_answers() {
    let _guard = serial();

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake peer");
    let fake_addr = listener.local_addr().expect("fake addr");
    // The fake executor: ack everything on the origin's link; on each
    // EXEC_ALT, dial the origin back like a real executor would and
    // deliver the same winning ALT_RESULT twice.
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
                    race_id,
                    alt_idx,
                    origin,
                    ..
                }) if !duplicated => {
                    duplicated = true;
                    let _ = write_frame(&mut conn, &ack.encode());
                    let mut back = TcpStream::connect(&origin).expect("dial the origin back");
                    let result = Request::AltResult {
                        race_id,
                        alt_idx,
                        status: 0, // ALT_OK
                        value: 424_242,
                        latency_us: 10,
                    }
                    .encode();
                    for _ in 0..2 {
                        write_frame(&mut back, &result).expect("send duplicate result");
                        let _ = read_frame(&mut back); // origin acks each copy
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

/// An origin that is gone gets nothing, ever. The executor runs a leg
/// shipped by an address nobody listens on; its `ALT_RESULT` has
/// nowhere to go and must be dropped with the failed dial — not parked
/// and redialled until something binds that port and is handed the
/// result of a race it never started (a restarted origin numbers its
/// races from 1 again and matches a result by race and alternative
/// alone). The window is longer than the longest redial backoff.
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
        origin: origin_addr.to_string(),
    };
    write_frame(&mut conn, &leg.encode()).expect("ship the leg");
    let ack = read_frame(&mut conn)
        .expect("ack")
        .expect("ack, not a close");
    assert!(
        matches!(Response::decode(&ack), Ok(Response::Text { .. })),
        "the leg was not admitted"
    );
    wait_for(&executor, "the leg to run", |s| s[Metric::RemoteExecs] >= 1);
    // The result's dial (50 ms at most) has failed by now.
    std::thread::sleep(Duration::from_millis(200));

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
