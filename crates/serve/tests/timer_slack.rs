//! Who has the tight timer slack: the daemon's own threads and the
//! racers they spawn read 1 ns, the thread that started the daemon keeps
//! what it had; and what those threads' timed waits then teach the
//! process — its timed-wait lead — is on the daemon's gauge. No
//! wall-clock assertion here — what the slack and the lead are worth is
//! `benchmark/run.sh --workload race`'s to show.
//!
//! A binary of its own, with one test: the race crew is process-wide,
//! and a racer parked by a race started from a *test* thread would carry
//! that thread's slack into the race below.
#![cfg(target_os = "linux")]

use altx::engine::{crew_stats, Engine, ThreadedEngine};
use altx::{AddressSpace, AltBlock, PageSize};
use altx_serve::pool::WorkerPool;
use altx_serve::telemetry::Metric;
use altx_serve::{start, timer_slack_ns, Client, Response, ServerConfig};
use std::sync::{mpsc, Mutex};
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(10);

#[test]
fn daemon_threads_and_their_racers_are_tight_and_the_caller_is_not() {
    let mine = timer_slack_ns();
    assert!(
        mine.is_some_and(|ns| ns > 1),
        "the test thread starts at the kernel's default, not {mine:?}"
    );

    // A pool worker, and a racer it spawned: the favourite runs inline
    // on the worker and holds its answer until the sibling — on the
    // crew — has reported, so the sibling is never reclaimed unrun.
    assert_eq!(crew_stats().live, 0, "no racer predates the pool");
    let pool = WorkerPool::new(2, 8);
    let (report, readings) = mpsc::channel();
    pool.try_submit(Box::new(move || {
        let (seen, sibling) = mpsc::channel();
        let sibling = Mutex::new(sibling);
        let block: AltBlock<(Option<String>, Option<u64>)> = AltBlock::new()
            .alternative("favourite", move |_w, _t| {
                let sibling = sibling.lock().expect("one favourite");
                sibling.recv_timeout(WAIT).ok()
            })
            .alternative("sibling", move |_w, _t| {
                let thread = std::thread::current().name().map(str::to_owned);
                let _ = seen.send((thread, timer_slack_ns()));
                None
            });
        let mut workspace = AddressSpace::zeroed(4096, PageSize::K4);
        let raced = ThreadedEngine::new().execute(&block, &mut workspace);
        let _ = report.send((timer_slack_ns(), raced.value));
    }))
    .expect("an empty queue admits a job");
    let (worker, sibling) = readings.recv_timeout(WAIT).expect("the job ran");
    assert_eq!(worker, Some(1), "a pool worker");
    let (thread, racer) = sibling.expect("the sibling ran and reported");
    assert_eq!(thread.as_deref(), Some("altx-racer"));
    assert_eq!(racer, Some(1), "a racer spawned by a pool worker");
    pool.shutdown();

    // The daemon whole: it starts, serves a race across its reactor, a
    // worker and the crew, and drains — and this thread is as it was.
    let server = start(ServerConfig::default()).expect("start");
    assert_eq!(timer_slack_ns(), mine, "start() leaves its caller alone");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let reply = client.run("lognormal", 7, 0).expect("run");
    assert!(matches!(reply, Response::Ok { .. }), "{reply:?}");

    // Its timed waits teach the process what waking costs: every winner
    // of these races slept its draw out and came back a little late, so
    // the lead has left zero — and it never passes the cap.
    for arg in 0..100 {
        let reply = client.run("lognormal", arg, 0).expect("run");
        assert!(matches!(reply, Response::Ok { .. }), "{reply:?}");
    }
    let lead_us = server.telemetry().snapshot()[Metric::TimedWaitLeadUs];
    let cap_us = altx::wake::LEAD_CAP.as_micros() as u64;
    assert!((1..=cap_us).contains(&lead_us), "lead {lead_us} µs");
    assert_eq!(lead_us, altx::wake_stats().lead.as_micros() as u64);
    server.shutdown();
    assert_eq!(timer_slack_ns(), mine, "and so does shutdown()");
}
