//! The race crew as the process sees it: thread counts and the crew's
//! own counters. Both are process-wide, so these tests live in a binary
//! of their own and take turns.

use altx::engine::{crew_stats, Engine, LaunchPlan, ThreadedEngine};
use altx::wake::{force_lead, LEAD_CAP};
use altx::{wake_stats, AddressSpace, AltBlock, CancelToken, PageSize};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

fn serial() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(PoisonError::into_inner)
}

fn ws() -> AddressSpace {
    AddressSpace::zeroed(4096, PageSize::K4)
}

/// OS threads of this process named `altx-racer`, from `/proc/self/task`;
/// `None` where there is no procfs. Not `Threads:` of
/// `/proc/self/status`: the test harness starts and ends threads of its
/// own while a test runs.
fn os_racers() -> Option<usize> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    let racers = tasks
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.trim_end() == "altx-racer")
        .count();
    Some(racers)
}

/// The `trivial` workload's shape: two alternatives that answer at once.
fn trivial(arg: u64) -> AltBlock<u64> {
    AltBlock::new()
        .alternative("instant-a", move |_w, _t| Some(arg))
        .alternative("instant-b", move |_w, _t| Some(arg))
}

/// Polls until no racer is alive; panics if one still is at `deadline`.
fn wait_for_empty_crew(deadline: Instant) {
    while crew_stats().live > 0 {
        assert!(
            Instant::now() < deadline,
            "racers still alive: {:?}",
            crew_stats()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn a_warm_crew_serves_a_thousand_races_without_a_new_thread() {
    let _turn = serial();
    let engine = ThreadedEngine::new();
    assert_eq!(engine.execute(&trivial(0), &mut ws()).value, Some(0));
    let warm = crew_stats();
    assert!(warm.live >= 1, "the warm-up race left a racer");
    // A thread names itself once it first runs; until then the kernel's
    // list below would show one racer fewer than there is.
    let named_by = Instant::now() + Duration::from_secs(2);
    while os_racers().is_some_and(|racers| racers != warm.live) {
        assert!(
            Instant::now() < named_by,
            "racers the OS sees: {:?}",
            os_racers()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    for arg in 1..=1_000u64 {
        let r = engine.execute(&trivial(arg), &mut ws());
        assert_eq!(r.value, Some(arg));
        let name = r.winner_name.expect("a winner has a name");
        assert!(name == "instant-a" || name == "instant-b", "{name}");
    }
    let after = crew_stats();
    assert_eq!(
        after.spawned, warm.spawned,
        "no racer spawned after warm-up"
    );
    assert_eq!(after.live, warm.live, "and none retired");
    if let Some(racers) = os_racers() {
        assert_eq!(racers, after.live, "racer threads the OS sees");
    }
}

#[test]
fn a_hedged_sibling_is_reclaimed_where_it_waits() {
    let _turn = serial();
    // Longer than the crew's idle timeout, so a racer that slept the
    // offset out would still be alive when the check below gives up.
    let offset = Duration::from_secs(3);
    let ran = Arc::new(AtomicUsize::new(0));
    let seen = ran.clone();
    let block: AltBlock<u8> = AltBlock::new()
        .alternative("favourite", |_w, _t| Some(0))
        .alternative("hedge", move |_w, _t| {
            seen.fetch_add(1, Ordering::SeqCst);
            Some(1)
        });
    let plan = LaunchPlan::from_offsets(vec![Duration::ZERO, offset]);
    let reclaimed = crew_stats().reclaimed;
    let start = Instant::now();
    let r = ThreadedEngine::new().execute_planned(&block, &mut ws(), &CancelToken::new(), &plan);
    assert_eq!(r.winner, Some(0));
    assert_eq!(r.suppressed, 1, "the hedge was eliminated, not run");
    assert!(r.wall < Duration::from_millis(20), "wall {:?}", r.wall);
    assert_eq!(crew_stats().reclaimed, reclaimed + 1);
    // Nobody is left sleeping towards the hedge's release time: the
    // racer that was watching it retires on the ordinary idle timeout.
    wait_for_empty_crew(start + offset / 2);
    assert_eq!(ran.load(Ordering::SeqCst), 0, "hedge body never ran");
}

#[test]
fn racers_retire_when_idle() {
    let _turn = serial();
    // Three bodies that must overlap: the caller and two racers.
    let barrier = Arc::new(Barrier::new(3));
    let mut block: AltBlock<usize> = AltBlock::new();
    for i in 0..3usize {
        let barrier = barrier.clone();
        block = block.alternative(format!("alt{i}"), move |_w, _t| {
            barrier.wait();
            Some(i)
        });
    }
    let r = ThreadedEngine::new().execute(&block, &mut ws());
    assert!(r.succeeded());
    assert!(crew_stats().live >= 2, "{:?}", crew_stats());
    wait_for_empty_crew(Instant::now() + Duration::from_secs(3));
    // `live` falls just before the thread exits; give the OS a moment.
    let deadline = Instant::now() + Duration::from_secs(1);
    while let Some(left) = os_racers().filter(|&left| left > 0) {
        assert!(Instant::now() < deadline, "{left} racer threads left");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn a_lead_that_decides_the_race_calls_on_no_racer() {
    let _turn = serial();
    // Whatever ran before, start from no racers at all: a racer there
    // is to wake would hide a dispatch that should not have happened.
    wait_for_empty_crew(Instant::now() + Duration::from_secs(3));
    let before = crew_stats();
    let engine = ThreadedEngine::new();
    for arg in 0..1_000u64 {
        let lead = (arg % 2) as usize;
        let plan = LaunchPlan::favourite_first(2, lead);
        let r = engine.execute_planned(&trivial(arg), &mut ws(), &CancelToken::new(), &plan);
        assert_eq!(r.value, Some(arg));
        assert_eq!(r.winner, Some(lead), "the lead ran first and decided");
        assert_eq!(r.suppressed, 1, "its sibling was never started");
        assert!(r.winner_body.is_some(), "the winner's body was timed");
    }
    let after = crew_stats();
    assert_eq!(after.spawned, before.spawned, "nobody was woken to lose");
    assert_eq!(after.live, 0);
    assert_eq!(after.reclaimed, before.reclaimed + 1_000);
}

#[test]
fn an_only_race_whose_pick_fails_calls_on_no_racer() {
    let _turn = serial();
    wait_for_empty_crew(Instant::now() + Duration::from_secs(3));
    let before = crew_stats();
    let engine = ThreadedEngine::new();
    // Both siblings would succeed; neither is in the race.
    let block: AltBlock<u64> = AltBlock::new()
        .alternative("ok-a", |_w, _t| Some(0))
        .alternative("fails", |_w, _t| None)
        .alternative("ok-c", |_w, _t| Some(2));
    for _ in 0..1_000 {
        let plan = LaunchPlan::only(3, 1);
        let r = engine.execute_planned(&block, &mut ws(), &CancelToken::new(), &plan);
        assert!(!r.succeeded(), "no sibling substitutes for the pick");
        assert_eq!((r.attempts, r.suppressed), (1, 0));
    }
    let after = crew_stats();
    assert_eq!(after.spawned, before.spawned, "nobody was woken");
    assert_eq!(after.live, 0);
    assert_eq!(after.reclaimed, before.reclaimed, "nothing was dispatched");
}

#[test]
fn a_lead_that_comes_back_undecided_costs_the_race_no_alternative() {
    let _turn = serial();
    let ran = Arc::new(AtomicUsize::new(0));
    let block = |lead_panics: bool| -> AltBlock<u8> {
        let (a, c) = (ran.clone(), ran.clone());
        AltBlock::new()
            .alternative("sibling-a", move |_w, _t| {
                a.fetch_add(1, Ordering::SeqCst);
                Some(0)
            })
            .alternative("lead", move |_w, _t| {
                assert!(!lead_panics, "the lead crashes");
                None
            })
            .alternative("sibling-c", move |_w, _t| {
                c.fetch_add(1, Ordering::SeqCst);
                Some(2)
            })
    };
    let plan = LaunchPlan::favourite_first(3, 1);
    for lead_panics in [false, true] {
        ran.store(0, Ordering::SeqCst);
        let r = ThreadedEngine::new().execute_planned(
            &block(lead_panics),
            &mut ws(),
            &CancelToken::new(),
            &plan,
        );
        let winner = r.winner.expect("a sibling won");
        assert!(winner == 0 || winner == 2, "{winner}");
        assert_eq!(r.value, Some(winner as u8));
        assert_eq!(r.panics, usize::from(lead_panics), "contained, and counted");
        // The race opened for the siblings only once the lead was back:
        // each either ran or was reached by the other's decision first.
        assert_eq!(r.suppressed + ran.load(Ordering::SeqCst), 2);
    }
}

/// Holds the process's timed-wait lead at `to` until dropped.
fn forced_lead(to: Duration) -> impl Drop {
    struct Forced;
    impl Drop for Forced {
        fn drop(&mut self) {
            force_lead(None);
        }
    }
    force_lead(Some(to));
    Forced
}

#[test]
fn a_led_release_wait_never_starts_a_hedge_before_its_release() {
    let _turn = serial();
    // The favourite fails at once, so the race waits for the hedge's
    // release: the caller on its own condvar, a racer as the crew's
    // watcher. At the cap both park short of a 300 µs release and cover
    // the rest awake; under a lead longer than the offset neither parks
    // at all. Whichever of them claims the hedge, its body — which
    // stamps its own start — must not be running before `start + offset`.
    let offset = Duration::from_micros(300);
    let plan = LaunchPlan::from_offsets(vec![Duration::ZERO, offset]);
    let finished_awake = wake_stats().finished_awake;
    for lead in [LEAD_CAP, 4 * offset] {
        let _lead = forced_lead(lead);
        for round in 0..300 {
            let block: AltBlock<Instant> = AltBlock::new()
                .alternative("favourite-fails", |_w, _t| None)
                .alternative("hedge", |_w, _t| Some(Instant::now()));
            // Read before the engine reads its own: the release is no
            // earlier than this plus the offset.
            let start = Instant::now();
            let r = ThreadedEngine::new().execute_planned(
                &block,
                &mut ws(),
                &CancelToken::new(),
                &plan,
            );
            assert_eq!(r.winner, Some(1), "round {round}: the hedge fired and won");
            let began = r.value.expect("the hedge's own stamp");
            let after = began.saturating_duration_since(start);
            assert!(after >= offset, "round {round}: hedge running {after:?} in");
        }
    }
    assert!(
        wake_stats().finished_awake > finished_awake,
        "six hundred releases and none was waited for awake"
    );
}

#[test]
fn under_a_lead_the_decision_still_takes_an_unreleased_ticket_off_the_queue() {
    let _turn = serial();
    // As `a_hedged_sibling_is_reclaimed_where_it_waits`, with the lead
    // held so far out that the watcher spends the whole offset awake: it
    // looks at the queue every turn, finds the hedge's ticket purged and
    // goes back to parking — and retires on the ordinary idle timeout.
    let offset = Duration::from_secs(3);
    let _lead = forced_lead(2 * offset);
    let ran = Arc::new(AtomicUsize::new(0));
    let seen = ran.clone();
    let block: AltBlock<u8> = AltBlock::new()
        .alternative("favourite", |_w, t| {
            t.sleep(Duration::from_millis(5)).then_some(0)
        })
        .alternative("hedge", move |_w, _t| {
            seen.fetch_add(1, Ordering::SeqCst);
            Some(1)
        });
    let plan = LaunchPlan::from_offsets(vec![Duration::ZERO, offset]);
    let reclaimed = crew_stats().reclaimed;
    let start = Instant::now();
    let r = ThreadedEngine::new().execute_planned(&block, &mut ws(), &CancelToken::new(), &plan);
    assert_eq!(r.winner, Some(0));
    assert_eq!(r.suppressed, 1, "the hedge was eliminated, not run");
    assert_eq!(crew_stats().reclaimed, reclaimed + 1);
    wait_for_empty_crew(start + offset / 2);
    assert_eq!(ran.load(Ordering::SeqCst), 0, "hedge body never ran");
}

#[test]
fn a_process_learns_its_lead_from_its_own_timed_waits() {
    let _turn = serial();
    force_lead(None);
    assert_eq!(wake_stats().lead, Duration::ZERO, "cold: no lead");
    let token = CancelToken::new();
    for _ in 0..50 {
        assert!(token.sleep(Duration::from_micros(500)));
    }
    // Every one of those waits ended at least a little late.
    let lead = wake_stats().lead;
    assert!(lead > Duration::ZERO && lead <= LEAD_CAP, "{lead:?}");
}
