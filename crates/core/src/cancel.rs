//! Cooperative cancellation and deadlines for racing alternatives.
//!
//! Sibling elimination (§3.2.1) for real threads: Rust cannot safely kill
//! a thread, so losing alternatives are *asked* to stop via a shared
//! [`CancelToken`]. A body finds out in one of two ways, depending on
//! what it is doing. A body that **computes** polls:
//! [`CancelToken::checkpoint`] is one atomic load (plus a clock read if
//! the token has a deadline), cheap enough for inner loops. A body that
//! **waits** — for a timer, a back-off, a modelled service time — blocks
//! in [`CancelToken::sleep`], and [`CancelToken::cancel`] wakes it: the
//! elimination is a signal delivered to the sleeper, not a flag it has
//! to come back and look at.
//!
//! A token may additionally carry a **deadline** — the real-time analogue
//! of the paper's `alt_wait(timeout)`: once the deadline passes, every
//! observer of the token sees it as cancelled, so a race whose budget is
//! blown converts into an explicit failure instead of a late answer.
//! Nobody signals a deadline; a sleeper simply never waits past it.
//! [`CancelToken::deadline_expired`] distinguishes "lost the race" from
//! "ran out of time", which `altx-serve` maps to its `DeadlineExceeded`
//! reply.

use crate::wake;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// What the clones of one token share.
#[derive(Debug, Default)]
struct Shared {
    flag: AtomicBool,
    /// How many threads are blocked in [`CancelToken::sleep`]. A sleeper
    /// checks `flag` and starts waiting under this lock, and `cancel`
    /// takes it after setting `flag`, so a canceller either finds the
    /// sleeper counted or the sleeper finds the flag set — and with
    /// nobody counted, `cancel` has nobody to notify and skips the
    /// syscall that `notify_all` is.
    sleepers: Mutex<usize>,
    wake: Condvar,
}

impl Shared {
    /// Only the counter is updated under this lock, so a poisoned guard
    /// still protects a consistent value.
    fn sleepers(&self) -> MutexGuard<'_, usize> {
        self.sleepers.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A shared cancellation flag, optionally with a deadline. Cloning
/// shares the underlying flag (and deadline).
///
/// # Example
///
/// A body that computes polls the token:
///
/// ```
/// use altx::CancelToken;
///
/// let token = CancelToken::new();
/// let observer = token.clone();
/// assert!(!observer.is_cancelled());
/// token.cancel();
/// assert!(observer.is_cancelled());
/// assert_eq!(observer.checkpoint(), None);
/// ```
///
/// A body that waits blocks on the token, and is woken by the
/// cancellation instead of sleeping its time out:
///
/// ```
/// use altx::CancelToken;
/// use std::time::{Duration, Instant};
///
/// let token = CancelToken::new();
/// assert!(token.sleep(Duration::from_millis(1)), "nobody cancelled: the full time elapsed");
///
/// let loser = token.clone();
/// let start = Instant::now();
/// let body = std::thread::spawn(move || loser.sleep(Duration::from_secs(60)));
/// token.cancel();
/// assert!(!body.join().unwrap(), "cancelled: the wait was cut short");
/// assert!(start.elapsed() < Duration::from_secs(30));
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    shared: Arc<Shared>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// Creates an un-cancelled token with no deadline.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Creates a token that auto-cancels once `budget` has elapsed
    /// (measured from now).
    pub fn with_deadline(budget: Duration) -> Self {
        CancelToken::with_deadline_at(Instant::now() + budget)
    }

    /// Creates a token that auto-cancels at `deadline`.
    pub fn with_deadline_at(deadline: Instant) -> Self {
        CancelToken {
            shared: Arc::default(),
            deadline: Some(deadline),
        }
    }

    /// The absolute deadline, if one was set.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Time remaining until the deadline (`None` if no deadline; zero if
    /// already past it).
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// Requests cancellation (idempotent) and wakes every thread blocked
    /// in [`sleep`](Self::sleep) on this token or a clone of it.
    ///
    /// With nobody sleeping this is one store and one uncontended lock:
    /// no syscall.
    pub fn cancel(&self) {
        self.shared.flag.store(true, Ordering::Release);
        let sleeping = *self.shared.sleepers();
        // Notified off the lock: a woken sleeper's first act is to take it.
        if sleeping > 0 {
            self.shared.wake.notify_all();
        }
    }

    /// True iff the deadline (if any) has passed.
    ///
    /// Independent of [`cancel`](Self::cancel): a race that was decided
    /// before its budget ran out has `is_cancelled() == true` but
    /// `deadline_expired() == false`.
    pub fn deadline_expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// True iff cancellation was requested or the deadline has passed.
    pub fn is_cancelled(&self) -> bool {
        self.shared.flag.load(Ordering::Acquire) || self.deadline_expired()
    }

    /// `Some(())` while running, `None` once cancelled — lets bodies bail
    /// out of loops with `token.checkpoint()?`.
    pub fn checkpoint(&self) -> Option<()> {
        (!self.is_cancelled()).then_some(())
    }

    /// Blocks the calling thread for `total`, or until the token is
    /// cancelled or its deadline passes, whichever comes first. Returns
    /// `true` iff the whole time elapsed with the token still live —
    /// never before `start + total` — and `false` when the wait was cut
    /// short (or never started): the alternative should fail instead of
    /// pretending it finished.
    ///
    /// This is how a body *waits*: [`cancel`](Self::cancel) wakes it, so
    /// an eliminated sleeper returns when the race is decided, not at the
    /// end of a polling interval.
    ///
    /// It is also how a body wakes *on time*. A thread woken by a timer
    /// runs some tens of microseconds after the timer fired, so the wait
    /// asks the kernel for its end less the process's measured
    /// [lead](crate::wake) and covers what is left awake: off the lock
    /// `cancel` takes and no longer counted as a sleeper — a canceller
    /// never waits behind it — reading the clock, the cancel flag and the
    /// deadline each turn and yielding the CPU between turns. In a
    /// process whose timed waits have taught it nothing yet the lead is
    /// zero and this is a plain timed wait.
    pub fn sleep(&self, total: Duration) -> bool {
        let mut now = Instant::now();
        // A time too far off to represent is waited for like "forever".
        let end = now.checked_add(total);
        let wake_at = [end, self.deadline].into_iter().flatten().min();
        let flagged = || self.shared.flag.load(Ordering::Acquire);
        let cut_short = |now: Instant| flagged() || self.deadline.is_some_and(|d| now >= d);
        let mut sleepers = self.shared.sleepers();
        *sleepers += 1;
        // `Err(at)`: close enough to `at` that the rest is covered awake.
        let asleep = loop {
            // Re-checked after every wake-up, so a spurious one only
            // goes round again.
            if cut_short(now) {
                break Ok(false);
            }
            if end.is_some_and(|end| now >= end) {
                break Ok(true);
            }
            match wake_at {
                Some(at) if wake::in_tail(at, now) => break Err(at),
                Some(at) => {
                    let (guard, woke) = wake::park(&self.shared.wake, sleepers, at, now);
                    sleepers = guard;
                    now = woke.unwrap_or_else(Instant::now);
                }
                None => {
                    sleepers = self
                        .shared
                        .wake
                        .wait(sleepers)
                        .unwrap_or_else(PoisonError::into_inner);
                    now = Instant::now();
                }
            }
        };
        *sleepers -= 1;
        drop(sleepers);
        asleep.unwrap_or_else(|at| {
            // `at` is the end or the deadline, whichever is first: once
            // it has come, not cut short means the whole time elapsed.
            let now = wake::finish_awake(at, |_| !flagged());
            !cut_short(now)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_uncancelled() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert_eq!(t.checkpoint(), Some(()));
        assert!(t.deadline().is_none());
        assert!(t.remaining().is_none());
    }

    #[test]
    fn cancel_is_shared_and_idempotent() {
        let t = CancelToken::new();
        let u = t.clone();
        t.cancel();
        t.cancel();
        assert!(u.is_cancelled());
        assert_eq!(u.checkpoint(), None);
    }

    #[test]
    fn visible_across_threads() {
        let t = CancelToken::new();
        let u = t.clone();
        let handle = std::thread::spawn(move || {
            while !u.is_cancelled() {
                std::hint::spin_loop();
            }
            true
        });
        t.cancel();
        assert!(handle.join().expect("thread joins"));
    }

    #[test]
    fn deadline_expiry_cancels_all_clones() {
        let t = CancelToken::with_deadline(Duration::from_millis(10));
        let u = t.clone();
        assert!(!t.is_cancelled());
        assert!(!t.deadline_expired());
        std::thread::sleep(Duration::from_millis(20));
        assert!(t.deadline_expired());
        assert!(u.is_cancelled(), "clone observes the shared deadline");
        assert_eq!(u.checkpoint(), None);
    }

    #[test]
    fn explicit_cancel_does_not_claim_expiry() {
        let t = CancelToken::with_deadline(Duration::from_secs(3600));
        t.cancel();
        assert!(t.is_cancelled());
        assert!(!t.deadline_expired(), "won race != blown budget");
    }

    #[test]
    fn remaining_counts_down() {
        let t = CancelToken::with_deadline(Duration::from_millis(50));
        let first = t.remaining().expect("has deadline");
        assert!(first <= Duration::from_millis(50));
        std::thread::sleep(Duration::from_millis(60));
        assert_eq!(t.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn deadline_at_absolute_instant() {
        let t = CancelToken::with_deadline_at(Instant::now());
        assert!(t.is_cancelled());
        assert!(t.deadline_expired());
    }

    #[test]
    fn deadline_in_the_past_expires_immediately() {
        let past = Instant::now()
            .checked_sub(Duration::from_secs(60))
            .unwrap_or_else(Instant::now);
        let t = CancelToken::with_deadline_at(past);
        assert!(t.deadline_expired(), "a past deadline is already blown");
        assert!(t.is_cancelled());
        assert_eq!(t.checkpoint(), None);
        assert_eq!(
            t.remaining(),
            Some(Duration::ZERO),
            "remaining saturates, never underflows"
        );
        // A zero-budget relative deadline behaves the same way.
        let z = CancelToken::with_deadline(Duration::ZERO);
        assert!(z.is_cancelled());
        assert_eq!(z.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn checkpoint_after_cancel_stays_none() {
        let t = CancelToken::new();
        assert_eq!(t.checkpoint(), Some(()));
        t.cancel();
        assert_eq!(t.checkpoint(), None);
        // Cancellation is sticky: repeated polls and repeated cancels
        // never resurrect the token.
        t.cancel();
        assert_eq!(t.checkpoint(), None);
        assert_eq!(t.clone().checkpoint(), None, "clones see it too");
    }

    #[test]
    fn remaining_saturates_at_zero_far_past_deadline() {
        let t = CancelToken::with_deadline(Duration::from_millis(1));
        std::thread::sleep(Duration::from_millis(15));
        // Repeated reads long after expiry keep returning exactly zero.
        for _ in 0..3 {
            assert_eq!(t.remaining(), Some(Duration::ZERO));
        }
        assert!(t.deadline_expired());
    }

    /// How long after a `cancel()` a sleeper may still be asleep before a
    /// test calls the wake-up lost. Generous: it only has to tell a
    /// scheduling hiccup from sleeping the remaining seconds out.
    const WOKEN_WITHIN: Duration = Duration::from_millis(100);

    /// Blocks until `n` threads are waiting in `sleep` on `token`. A
    /// sleeper that stays awake is not counted, so the caller holds the
    /// lead at zero ([`wake::forced`]) against the tests that force one.
    fn until_asleep(token: &CancelToken, n: usize) {
        while *token.shared.sleepers() < n {
            std::thread::yield_now();
        }
    }

    #[test]
    fn sleep_runs_its_full_time_when_nobody_cancels() {
        let t = CancelToken::new();
        let start = Instant::now();
        assert!(t.sleep(Duration::from_millis(20)));
        assert!(start.elapsed() >= Duration::from_millis(20));
        assert!(!t.is_cancelled(), "sleeping does not cancel");
        assert_eq!(*t.shared.sleepers(), 0, "the sleeper signed off");
    }

    #[test]
    fn sleep_returns_at_once_when_there_is_nothing_to_wait_for() {
        let long = Duration::from_secs(10);
        let start = Instant::now();
        let cancelled = CancelToken::new();
        cancelled.cancel();
        assert!(!cancelled.sleep(long), "pre-cancelled");
        assert!(!cancelled.sleep(Duration::ZERO), "cancelled beats elapsed");
        assert!(
            !CancelToken::with_deadline_at(Instant::now()).sleep(long),
            "past deadline"
        );
        assert!(
            CancelToken::new().sleep(Duration::ZERO),
            "zero time on a live token has elapsed"
        );
        assert!(
            CancelToken::with_deadline(long).sleep(Duration::ZERO),
            "a deadline still ahead does not fail a zero wait"
        );
        assert!(start.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn cancel_wakes_every_sleeper() {
        let _cold = wake::forced(Duration::ZERO);
        let t = CancelToken::new();
        let sleepers: Vec<_> = (0..4)
            .map(|_| {
                let t = t.clone();
                std::thread::spawn(move || (t.sleep(Duration::from_secs(10)), Instant::now()))
            })
            .collect();
        until_asleep(&t, 4);
        let cancelled_at = Instant::now();
        t.cancel();
        for s in sleepers {
            let (elapsed, woke_at) = s.join().expect("sleeper joins");
            assert!(!elapsed, "a cancelled wait reports it was cut short");
            let late = woke_at.saturating_duration_since(cancelled_at);
            assert!(late < WOKEN_WITHIN, "woke {late:?} after the cancel");
        }
        assert_eq!(*t.shared.sleepers(), 0);
    }

    #[test]
    fn sleeper_leaves_at_the_deadline_not_at_its_own_end() {
        let t = CancelToken::with_deadline(Duration::from_millis(20));
        let start = Instant::now();
        assert!(!t.sleep(Duration::from_secs(10)));
        let took = start.elapsed();
        assert!(took >= Duration::from_millis(20), "left early: {took:?}");
        assert!(took < Duration::from_millis(20) + WOKEN_WITHIN, "{took:?}");
        assert!(t.deadline_expired());
    }

    #[test]
    fn unrepresentable_wait_is_still_cut_short() {
        let _cold = wake::forced(Duration::ZERO);
        let t = CancelToken::new();
        let u = t.clone();
        let sleeper = std::thread::spawn(move || u.sleep(Duration::MAX));
        until_asleep(&t, 1);
        t.cancel();
        assert!(!sleeper.join().expect("sleeper joins"));
    }

    /// Under the largest lead the estimate can reach every wait below
    /// is led — parked short of its end, or never parked at all — and
    /// still none returns `true` early.
    #[test]
    fn a_led_sleep_never_returns_true_before_its_time() {
        let _lead = wake::forced(wake::LEAD_CAP);
        let mut rng = altx_check::CaseRng::from_seed(0x51EE9);
        let t = CancelToken::new();
        for _ in 0..2_000 {
            let total = Duration::from_nanos(rng.u64_below(1_500_001));
            let start = Instant::now();
            assert!(t.sleep(total), "nobody cancelled");
            let took = start.elapsed();
            assert!(took >= total, "asked {total:?}, back after {took:?}");
        }
        assert_eq!(*t.shared.sleepers(), 0, "every sleeper signed off");
    }

    /// The awake tail holds nothing a canceller needs. The lead is held
    /// far past any real one, so a sleeper with a minute to go spends all
    /// of it in the tail; a wait that missed the cancel would sit the
    /// minute out and report it elapsed.
    #[test]
    fn a_cancel_during_the_awake_tail_ends_it_and_waits_for_nobody() {
        let _lead = wake::forced(Duration::from_secs(3_600));
        let minute = Duration::from_secs(60);
        let in_the_tail = |t: &CancelToken| {
            let finished_awake = wake::wake_stats().finished_awake;
            let sleeper = t.clone();
            let handle = std::thread::spawn(move || sleeper.sleep(minute));
            // In the tail the sleeper has signed on, off again, and been
            // counted awake; before it, one of the three is missing.
            let settled = Instant::now() + Duration::from_millis(1);
            while Instant::now() < settled
                || *t.shared.sleepers() > 0
                || wake::wake_stats().finished_awake == finished_awake
            {
                std::thread::yield_now();
            }
            handle
        };

        // `cancel()` takes the sleepers' lock while the sleeper spins.
        let t = CancelToken::new();
        let sleeper = in_the_tail(&t);
        t.cancel();
        assert!(!sleeper.join().expect("sleeper joins"), "cut short");

        // And the sleeper needs no lock to see the flag: it leaves while
        // this thread holds the one there is.
        let t = CancelToken::new();
        let sleeper = in_the_tail(&t);
        let held = t.shared.sleepers();
        t.shared.flag.store(true, Ordering::Release);
        assert!(!sleeper.join().expect("sleeper joins"));
        assert_eq!(*held, 0, "it had signed off before it stayed awake");
    }

    #[test]
    fn a_led_sleeper_leaves_at_the_deadline_and_not_before() {
        let _lead = wake::forced(wake::LEAD_CAP);
        for budget in [50, 150, 700].map(Duration::from_micros) {
            let start = Instant::now();
            let t = CancelToken::with_deadline_at(start + budget);
            assert!(!t.sleep(Duration::from_secs(10)), "the deadline is first");
            let took = start.elapsed();
            assert!(took >= budget, "budget {budget:?}, back after {took:?}");
            assert!(t.deadline_expired());
            assert!(!t.shared.flag.load(Ordering::Acquire), "nobody cancelled");
        }
    }

    /// The wake-up is the contract: whatever the order and spacing of a
    /// sleeper going to sleep and a canceller cancelling, no sleeper
    /// outlives the cancel. A lost wake-up shows as a sleeper that sat its
    /// whole time out, and the failing schedule is the seed printed.
    #[test]
    fn no_schedule_loses_the_wake_up() {
        use std::sync::Barrier;
        altx_check::check("no_schedule_loses_the_wake_up", 600, |rng| {
            let sleepers = rng.usize_in(1, 4);
            let gap = Duration::from_micros(rng.u64_below(301));
            let sleeper_first = rng.bool();
            let spin = |d: Duration| {
                let until = Instant::now() + d;
                while Instant::now() < until {
                    std::hint::spin_loop();
                }
            };
            let token = CancelToken::new();
            let go = Barrier::new(sleepers + 1);
            std::thread::scope(|scope| {
                let woken: Vec<_> = (0..sleepers)
                    .map(|_| {
                        scope.spawn(|| {
                            go.wait();
                            if !sleeper_first {
                                spin(gap);
                            }
                            (token.sleep(Duration::from_secs(2)), Instant::now())
                        })
                    })
                    .collect();
                go.wait();
                if sleeper_first {
                    spin(gap);
                }
                let cancelled_at = Instant::now();
                token.cancel();
                for w in woken {
                    let (elapsed, woke_at) = w.join().expect("sleeper joins");
                    assert!(!elapsed, "slept 2 s through a cancel");
                    let late = woke_at.saturating_duration_since(cancelled_at);
                    assert!(late < WOKEN_WITHIN, "outlived the cancel by {late:?}");
                }
            });
        });
    }
}
