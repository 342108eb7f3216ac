//! Timed waits that ask early by what waking costs.
//!
//! A thread that waits on a clock is not running when its time comes: a
//! timer fires, the kernel makes the thread runnable, a CPU leaves its
//! idle state and switches to it. On the box this was measured on that
//! is 19 / 47 / 122 µs at p01 / p50 / p90 with the timer slack already
//! at 1 ns — more than everything `altxd` does to a request — and it is
//! the same for a 300 µs wait as for a 3 ms one, because it is the price
//! of *being woken*, not of waiting. A price that steady can be
//! anticipated: ask the kernel for `end − lead`, where `lead` is how late
//! this process's own timed waits have been ending, and cover whatever is
//! left of the way to `end` awake.
//!
//! Two pieces, used by every timed wait of the race path
//! ([`CancelToken::sleep`](crate::CancelToken::sleep) — a body's wait and
//! the race caller's wait for a hedge's release — and the crew's release
//! watcher):
//!
//! * `park` waits on the caller's own condvar and guard until
//!   `until − lead()`. A wait that *times out* records how late it ended
//!   (`woke − asked`) into the process-wide estimate; a wait ended by a
//!   notification says nothing about timers and records nothing.
//! * `in_tail` says the rest of the way is too short to sleep towards
//!   (`≤ lead + `[`TAIL_MARGIN`]), and `finish_awake` covers it: the
//!   caller first lets go of its lock, then reads the clock and its own
//!   stop condition each turn and yields the CPU between turns, so any
//!   runnable thread — another race's winner, the reactor — runs instead.
//!
//! The estimate is a **low quantile**, never a mean: on a loaded box the
//! run-queue delay sits in the tail of these samples, and leading by it
//! would turn other threads' CPU time into spinning. `Lead::after`
//! steps the estimate up by [`STEP_UP_NS`] when a sample is above it and
//! down by [`STEP_DOWN_NS`] when not — which balances where a quarter of
//! the samples lie below — under a hard [`LEAD_CAP`]. It starts at zero,
//! and at zero nothing here changes anything: a cold process waits
//! exactly as `Condvar::wait_timeout` does.
//!
//! The constants come from one measurement (11 000 `lognormal` requests
//! stamped through `altxd` on one CPU, 1 ns slack): the lower quartile
//! of wake lateness read ≈ 30 µs, leading by it took 28 µs off `race`
//! `p01_us`, and the thread spent ≈ 10 µs more CPU per request awake.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// The most a wait is ever led by. Three times what an idle CPU's wake-up
/// read at 1 ns slack, and what a process still at the kernel's default
/// 50 µs slack needs (slack + wake ≈ 70–90 µs); beyond it lateness is
/// load, not wake cost.
pub const LEAD_CAP: Duration = Duration::from_micros(100);

/// Added to the estimate by a sample above it.
pub const STEP_UP_NS: u64 = 500;

/// Taken off the estimate by a sample at or below it. Three times
/// [`STEP_UP_NS`]: the estimate rests where one sample in four is at or
/// below it, the lower quartile.
pub const STEP_DOWN_NS: u64 = 3 * STEP_UP_NS;

/// A remainder within `lead` plus this is covered awake: a timer armed
/// for a couple of microseconds costs more than they do.
pub const TAIL_MARGIN: Duration = Duration::from_micros(2);

/// The lead as a value: a running lower quartile of wake lateness, in
/// nanoseconds, never above [`LEAD_CAP`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Lead(u64);

impl Lead {
    /// The estimate after one more timed wait ended `late_ns` after the
    /// time it asked for.
    fn after(self, late_ns: u64) -> Lead {
        let cap = LEAD_CAP.as_nanos() as u64;
        Lead(if late_ns > self.0 {
            (self.0 + STEP_UP_NS).min(cap)
        } else {
            self.0.saturating_sub(STEP_DOWN_NS)
        })
    }
}

/// The process's estimate. Relaxed loads and stores: two threads
/// recording at once may lose one step of an estimate that takes
/// thousands.
static LEAD_NS: AtomicU64 = AtomicU64::new(0);
/// Set while a test holds the lead at a value of its choosing.
static PINNED: AtomicBool = AtomicBool::new(false);
static FINISHED_AWAKE: AtomicU64 = AtomicU64::new(0);

/// How much earlier than its end a timed wait asks to be woken, now.
fn lead() -> Duration {
    Duration::from_nanos(LEAD_NS.load(Ordering::Relaxed))
}

/// What the timed waits of this process have learned and done; see
/// [`wake_stats`].
#[derive(Debug, Clone, Copy)]
pub struct WakeStats {
    /// The current lead: the lower quartile of how late this process's
    /// timed waits have ended, at most [`LEAD_CAP`].
    pub lead: Duration,
    /// Timed waits whose last stretch was covered awake.
    pub finished_awake: u64,
}

/// The process-wide lead and how many timed waits have finished awake.
/// Two relaxed loads; process-wide, so two daemons in one process report
/// the same numbers.
pub fn wake_stats() -> WakeStats {
    WakeStats {
        lead: lead(),
        finished_awake: FINISHED_AWAKE.load(Ordering::Relaxed),
    }
}

/// Holds the lead at `to` — any value, the cap does not apply — until
/// called with `None`, which returns it to zero and to learning. For
/// tests: a forced lead puts every timed wait of the process on its
/// led path whatever this box's timers are like.
#[doc(hidden)]
pub fn force_lead(to: Option<Duration>) {
    PINNED.store(to.is_some(), Ordering::Relaxed);
    let ns = to.map_or(0, |to| to.as_nanos().min(u128::from(u64::MAX)) as u64);
    LEAD_NS.store(ns, Ordering::Relaxed);
}

/// Whether what is left of the way from `now` to `until` should be
/// covered awake (`finish_awake`) instead of slept towards (`park`).
/// Never with a lead of zero.
pub(crate) fn in_tail(until: Instant, now: Instant) -> bool {
    let lead = lead();
    !lead.is_zero() && until.saturating_duration_since(now) <= lead + TAIL_MARGIN
}

/// Waits on `cv` until it is notified or `until − lead()` has come.
/// Returns the guard and, when the wait timed out, the instant it was
/// found to have — having fed `that instant − asked` to the estimate.
/// As with any condvar wait, the caller re-checks what it waits for.
pub(crate) fn park<'a, T>(
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
    until: Instant,
    now: Instant,
) -> (MutexGuard<'a, T>, Option<Instant>) {
    let ask = until.checked_sub(lead()).unwrap_or(until);
    let timeout = ask.saturating_duration_since(now);
    let (guard, wait) = cv
        .wait_timeout(guard, timeout)
        .unwrap_or_else(PoisonError::into_inner);
    if !wait.timed_out() {
        return (guard, None);
    }
    let woke = Instant::now();
    // A zero timeout armed no timer: nothing was learned about one.
    if !timeout.is_zero() && !PINNED.load(Ordering::Relaxed) {
        let late = woke.saturating_duration_since(ask).as_nanos() as u64;
        let next = Lead(LEAD_NS.load(Ordering::Relaxed)).after(late);
        LEAD_NS.store(next.0, Ordering::Relaxed);
    }
    (guard, Some(woke))
}

/// Stays awake until `until`, or until `keep_going` (handed the clock
/// just read) says stop, yielding the CPU between looks. Returns the
/// last clock read. The caller holds no lock anyone it waits for needs.
pub(crate) fn finish_awake(until: Instant, mut keep_going: impl FnMut(Instant) -> bool) -> Instant {
    FINISHED_AWAKE.fetch_add(1, Ordering::Relaxed);
    loop {
        let now = Instant::now();
        if now >= until || !keep_going(now) {
            return now;
        }
        std::thread::yield_now();
    }
}

/// One test at a time may force the lead; dropping the guard returns it
/// to zero. Other tests of the binary run beside it and see the forced
/// value — which changes how their waits are spent, never what they
/// return.
#[cfg(test)]
pub(crate) fn forced(to: Duration) -> impl Drop {
    use std::sync::Mutex;
    static TURN: Mutex<()> = Mutex::new(());
    struct Forced(#[allow(dead_code)] MutexGuard<'static, ()>);
    impl Drop for Forced {
        fn drop(&mut self) {
            force_lead(None);
        }
    }
    let turn = TURN.lock().unwrap_or_else(PoisonError::into_inner);
    force_lead(Some(to));
    Forced(turn)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic lateness stream: a 20 µs floor, most samples within
    /// 40 µs of it, one in ten a run-queue delay of up to 5 ms.
    fn lateness(rng: &mut altx_check::CaseRng) -> u64 {
        let tail = if rng.u64_below(10) == 0 {
            rng.u64_below(5_000_000)
        } else {
            0
        };
        20_000 + rng.u64_below(40_000) + tail
    }

    fn percentile(sorted: &[u64], p: usize) -> u64 {
        sorted[sorted.len() * p / 100]
    }

    #[test]
    fn no_samples_mean_no_lead() {
        assert_eq!(Lead::default().0, 0);
        assert_eq!(Lead::default().after(0), Lead::default(), "cannot go under");
    }

    #[test]
    fn the_estimate_settles_on_a_low_quantile_not_the_mean() {
        altx_check::check("lead_settles_low", 20, |rng| {
            let stream: Vec<u64> = (0..20_000).map(|_| lateness(rng)).collect();
            let mut sorted = stream.clone();
            sorted.sort_unstable();
            let mean = stream.iter().sum::<u64>() / stream.len() as u64;
            let (floor, p15) = (sorted[0], percentile(&sorted, 15));
            let (p35, p50) = (percentile(&sorted, 35), percentile(&sorted, 50));
            // Past the climb from zero the estimate is a short random
            // walk about the lower quartile: where it rests is judged by
            // its average, how far it strays by where the readings lie.
            let mut lead = Lead::default();
            let mut settled = Vec::new();
            for (i, late) in stream.iter().enumerate() {
                lead = lead.after(*late);
                assert!(Duration::from_nanos(lead.0) <= LEAD_CAP);
                if i >= 2_000 {
                    assert!(lead.0 + STEP_DOWN_NS >= floor, "under every sample");
                    settled.push(lead.0);
                }
            }
            let rests_at = settled.iter().sum::<u64>() / settled.len() as u64;
            assert!(
                (p15..=p35).contains(&rests_at),
                "rests at {rests_at}, outside p15 {p15} .. p35 {p35}"
            );
            let under_the_median = settled.iter().filter(|&&lead| lead <= p50).count();
            assert!(under_the_median * 100 >= settled.len() * 99);
            assert!(lead.0 < mean, "a mean of {mean} ns carries the tail");
        });
    }

    #[test]
    fn a_burst_of_stalls_moves_it_by_at_most_the_cap_and_never_past_it() {
        let cap = LEAD_CAP.as_nanos() as u64;
        let mut lead = Lead::default();
        for _ in 0..100 {
            lead = lead.after(30_000);
        }
        let before = lead;
        for n in 1..=10_000u64 {
            lead = lead.after(5_000_000);
            assert!(lead.0 <= cap, "{lead:?} over the cap");
            assert!(lead.0 - before.0 <= (n * STEP_UP_NS).min(cap));
        }
        assert_eq!(lead.0, cap, "ten thousand stalls: capped");
        // And it comes back: three steps down for every step it took up.
        for _ in 0..100 {
            lead = lead.after(30_000);
        }
        assert!(lead.0 < 40_000, "{lead:?} stayed up after the stalls ended");
    }

    #[test]
    fn park_asks_early_by_the_lead_and_tells_a_timeout_from_a_notification() {
        use std::sync::{Arc, Mutex};
        let ahead = Duration::from_micros(50);
        let _turn = forced(ahead);
        let pair = Arc::new((Mutex::new(false), Condvar::new()));

        let notifier = {
            let pair = pair.clone();
            std::thread::spawn(move || {
                *pair.0.lock().unwrap() = true;
                pair.1.notify_one();
            })
        };
        let mut told = pair.0.lock().unwrap();
        while !*told {
            let now = Instant::now();
            let (guard, woke) = park(&pair.1, told, now + Duration::from_secs(60), now);
            told = guard;
            assert!(woke.is_none(), "a minute had not passed");
        }
        drop(told);
        notifier.join().unwrap();

        for _ in 0..20 {
            let now = Instant::now();
            let until = now + Duration::from_micros(300);
            let (_guard, woke) = park(&pair.1, pair.0.lock().unwrap(), until, now);
            let woke = woke.expect("nobody notifies: it timed out");
            assert!(woke + ahead >= until, "woken before what was asked for");
        }
        assert_eq!(lead(), ahead, "a held lead is not taught");
    }

    #[test]
    fn finish_awake_ends_at_its_time_or_when_told() {
        let _turn = forced(LEAD_CAP);
        let before = wake_stats().finished_awake;
        let until = Instant::now() + Duration::from_micros(300);
        assert!(finish_awake(until, |_| true) >= until);
        let far = Instant::now() + Duration::from_secs(60);
        let mut looks = 0;
        let stopped = finish_awake(far, |_| {
            looks += 1;
            looks < 3
        });
        assert!(stopped < far && looks == 3);
        assert!(wake_stats().finished_awake >= before + 2);
        assert!(in_tail(Instant::now() + LEAD_CAP, Instant::now()));
        assert!(!in_tail(Instant::now() + 3 * LEAD_CAP, Instant::now()));
    }
}
