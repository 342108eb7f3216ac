//! Cluster peering end-to-end: two real daemons racing alternatives
//! across the wire, plus a byte-level fake peer for failure injection.
//!
//! The mesh under test is deliberately asymmetric: node A runs with no
//! peers configured (pure executor role — its outbound links are dialed
//! on demand to ship results home), node B lists A as a peer and is
//! forced to explore (`explore_every = 1`) so every race ships one
//! non-favourite alternative. That exercises both roles of every node
//! without waiting for the transfer model to warm up.

use altx_serve::frame::{read_frame, write_frame, Request, Response};
use altx_serve::server::{start, ServerConfig, ServerHandle};
use altx_serve::telemetry::Metric;
use altx_serve::{workload, Client, PeerConfig};
use std::net::TcpListener;
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

/// On an instant workload the local favourite always beats the shipped
/// alternative's round trip: dispatches happen (exploration), wins do
/// not, and every request is still answered exactly once.
#[test]
fn remote_losses_never_block_or_double_answer() {
    let _guard = serial();
    let a = node(Vec::new(), 16);
    let b = node(vec![a.local_addr().to_string()], 1);
    wait_for(&b, "B's link to A to come up", |s| s[Metric::PeersUp] == 1);

    let mut client = Client::connect(b.local_addr()).expect("connect B");
    // Warm both nodes first: engine thread spawn, the result link A
    // dials back to B, and the pool's first wakeups all land in these
    // races, and a cold local leg *can* lose to the wire once or twice.
    for arg in 0..30u64 {
        client.run("trivial", arg, 0).expect("warmup reply");
    }
    let before = b.telemetry().snapshot();
    for arg in 0..100u64 {
        match client.run("trivial", arg, 0).expect("reply") {
            Response::Ok { value, .. } => assert_eq!(value, arg),
            Response::Overloaded => {}
            other => panic!("unexpected reply: {other:?}"),
        }
    }
    let sb = b.telemetry().snapshot();
    let dispatched = sb[Metric::RemoteDispatched] - before[Metric::RemoteDispatched];
    let wins = sb[Metric::RemoteWins] - before[Metric::RemoteWins];
    assert!(dispatched > 0, "exploration never shipped");
    // Once warm, an instant local favourite beats a network round trip
    // essentially always; stray scheduler preemptions are tolerated
    // (under a loaded CI box they cluster, so the bound is 10%, not a
    // single win).
    assert!(
        wins * 10 <= dispatched,
        "instant local favourites kept losing to the wire: \
         {wins} remote wins in {dispatched} dispatches"
    );
    b.shutdown();
    a.shutdown();
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
                    let mut back =
                        std::net::TcpStream::connect(&origin).expect("dial the origin back");
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
