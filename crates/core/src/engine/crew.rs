//! The race crew: a process-wide, elastic set of parked racer threads.
//!
//! [`ThreadedEngine`](crate::engine::ThreadedEngine) used to pay one
//! `thread::spawn` per alternative per race. The crew pays it once per
//! *racer*: a race hands the crew one [ticket](Crew::dispatch) per
//! sibling, a parked racer picks the ticket up, runs what the race still
//! has to offer and parks again. The crew grows when a dispatch finds
//! fewer free racers than due tickets, and a racer that has seen no work
//! for [`IDLE_TIMEOUT`] retires — so a quiet process holds no racer
//! threads at all, and a busy one holds as many as it has alternative
//! bodies running at once.
//!
//! A ticket names a race, not an alternative: which alternative a racer
//! runs is decided by the race's own claim protocol when the racer gets
//! there. A hedged sibling's ticket carries its release time; parked
//! racers sleep no later than the earliest one. When a race is decided
//! its caller [purges](Crew::purge) the tickets nobody picked up.
//!
//! Nothing here is needed for a race to *finish*: the calling thread
//! claims and runs every alternative no racer got to, so a crew that is
//! slow to wake, or whose racers are all inside other bodies, costs
//! concurrency and never progress.
//!
//! The crew also runs errands ([`run_on_crew`]): one [`Errand`] on one
//! racer, counted busy throughout — a daemon's queued race, say, whose
//! siblings the race then hands to racers of their own. Errands have a
//! second instance of the crew to themselves, the same code with its
//! own threads: Linux lets a woken thread overtake the running one by
//! what each has run before, so a racer woken for a sibling gets in
//! ahead of its caller's inline body on a shared CPU only while racers
//! run nothing but siblings. One set of racers running both measured
//! the favourite ahead of its siblings on one CPU.

use crate::wake;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// How long a racer stays parked without work before it retires. Long
/// enough that a closed loop of sub-millisecond races never re-spawns,
/// short enough that a drained daemon is back to its own threads well
/// inside a second.
pub(crate) const IDLE_TIMEOUT: Duration = Duration::from_millis(500);

/// What a racer can do for a race without knowing its result type.
pub(crate) trait Job: Send + Sync {
    /// Claims and runs alternatives of this race until none is
    /// claimable, bracketing each body with [`Crew::enter`] /
    /// [`Crew::leave`].
    fn help(&self);
}

/// What a racer of the errand instance runs: a daemon's pool slot, say.
pub trait Errand: Send + Sync {
    /// Runs on the racer that took the errand's ticket.
    fn run(&self);
}

/// Runs `errand` once on a racer of the process-wide crew's errand
/// instance — a parked one, or one spawned for it; never on the caller,
/// and without waiting. Its ticket holds `errand` itself: nothing is
/// allocated. The racer counts as busy while it runs, and a race started
/// inside it gets racers of its own; a panic in it is contained: it ends
/// the errand, not the racer. Out of threads, it waits for a free racer.
pub fn run_on_crew<E: Errand + 'static>(errand: &Arc<E>) {
    ERRANDS.dispatch(&(Arc::clone(errand) as Arc<dyn Job>), &[None]);
}

impl<E: Errand> Job for E {
    fn help(&self) {
        ERRANDS.enter();
        let _ = catch_unwind(AssertUnwindSafe(|| self.run()));
        ERRANDS.leave();
    }
}

/// One request for a racer: "come and help `job`, no earlier than
/// `release`" (`None`: now).
struct Ticket {
    job: Arc<dyn Job>,
    release: Option<Instant>,
}

impl Ticket {
    fn due(&self, now: Instant) -> bool {
        self.release.is_none_or(|at| at <= now)
    }
}

struct State {
    tickets: VecDeque<Ticket>,
    /// Racer threads alive (spawned and not yet retired).
    live: usize,
    /// Racers inside an alternative body. The rest — parked, or awake
    /// and about to scan `tickets` under this lock — are free.
    busy: usize,
    /// Racers parked on `wake`.
    parked: usize,
}

/// Counters of the process-wide race crew; see
/// [`crew_stats`](crate::engine::crew_stats).
#[derive(Debug, Clone, Copy)]
pub struct CrewStats {
    /// Racer threads alive right now.
    pub live: usize,
    /// Racer threads ever spawned.
    pub spawned: u64,
    /// Alternatives eliminated while still waiting to be claimed: the
    /// race was decided (or cancelled) first, so no thread ever ran, or
    /// was woken to skip, their body.
    pub reclaimed: u64,
}

pub(crate) struct Crew {
    state: Mutex<State>,
    wake: Condvar,
    spawned: AtomicU64,
    reclaimed: AtomicU64,
}

static CREW: Crew = Crew::new();

/// The crew's instance for errands (module docs: why apart).
static ERRANDS: Crew = Crew::new();

/// The process-wide crew. The struct is a constant; its threads are
/// spawned by the first race that needs one.
pub(crate) fn crew() -> &'static Crew {
    &CREW
}

/// Both instances' counters, summed.
pub(crate) fn stats() -> CrewStats {
    let (races, errands) = (CREW.stats(), ERRANDS.stats());
    CrewStats {
        live: races.live + errands.live,
        spawned: races.spawned + errands.spawned,
        reclaimed: races.reclaimed,
    }
}

impl Crew {
    const fn new() -> Crew {
        Crew {
            state: Mutex::new(State {
                tickets: VecDeque::new(),
                live: 0,
                busy: 0,
                parked: 0,
            }),
            wake: Condvar::new(),
            spawned: AtomicU64::new(0),
            reclaimed: AtomicU64::new(0),
        }
    }

    /// No alternative body, destructor or other caller code runs under
    /// this lock, so a poisoned guard still protects consistent counts.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Queues one ticket for `job` per entry of `releases` and makes
    /// sure there is a free racer for each one already due, plus one to
    /// watch the clock for the others.
    pub(crate) fn dispatch(&'static self, job: &Arc<dyn Job>, releases: &[Option<Instant>]) {
        let mut state = self.lock();
        state.tickets.extend(releases.iter().map(|&release| Ticket {
            job: Arc::clone(job),
            release,
        }));
        let (spawn, wake) = Self::staff(&mut state);
        drop(state);
        self.muster(spawn, wake);
    }

    /// Drops every ticket of `job` still queued.
    pub(crate) fn purge(&self, job: &Arc<dyn Job>) {
        self.lock().tickets.retain(|t| !Arc::ptr_eq(&t.job, job));
    }

    /// A racer is about to run a body: it stops counting as free, so the
    /// tickets it leaves behind may need another racer.
    pub(crate) fn enter(&'static self) {
        let mut state = self.lock();
        state.busy += 1;
        let (spawn, wake) = Self::staff(&mut state);
        drop(state);
        self.muster(spawn, wake);
    }

    /// The racer's body returned. Called *before* the race learns of it,
    /// so a caller that has seen its race finish finds every racer that
    /// worked on it free again.
    pub(crate) fn leave(&self) {
        self.lock().busy -= 1;
    }

    /// Adds to the `reclaimed` counter (once per race, off the lock).
    pub(crate) fn count_reclaimed(&self, n: usize) {
        self.reclaimed.fetch_add(n as u64, Ordering::Relaxed);
    }

    pub(crate) fn stats(&self) -> CrewStats {
        CrewStats {
            live: self.lock().live,
            spawned: self.spawned.load(Ordering::Relaxed),
            reclaimed: self.reclaimed.load(Ordering::Relaxed),
        }
    }

    /// How many racers to spawn and how many parked ones to wake so that
    /// every due ticket has a free racer and the timed ones a watcher.
    /// Spawned racers are counted live here, under the lock.
    fn staff(state: &mut State) -> (usize, usize) {
        let total = state.tickets.len();
        // The clock matters only when some ticket carries a release time.
        let due = if state.tickets.iter().any(|t| t.release.is_some()) {
            let now = Instant::now();
            state.tickets.iter().filter(|t| t.due(now)).count()
        } else {
            total
        };
        let want = due + usize::from(due < total);
        let free = state.live - state.busy;
        let spawn = want.saturating_sub(free);
        state.live += spawn;
        (spawn, want.min(state.parked))
    }

    fn muster(&'static self, spawn: usize, wake: usize) {
        for _ in 0..spawn {
            // Detached on purpose: a racer belongs to the process, not to
            // the race that happened to need it first, and it ends itself
            // when idle. Bodies run under `catch_unwind`, so there is no
            // panic for a join to report.
            let racer = std::thread::Builder::new()
                .name("altx-racer".to_owned())
                .spawn(move || self.racer());
            match racer {
                Ok(_) => {
                    self.spawned.fetch_add(1, Ordering::Relaxed);
                }
                // Out of threads: the race's caller runs the bodies itself.
                Err(_) => self.lock().live -= 1,
            }
        }
        for _ in 0..wake {
            self.wake.notify_one();
        }
    }

    /// A racer thread's life: take a due ticket and help its race; with
    /// none due, park until the next release time; retire once nobody
    /// has called on it for [`IDLE_TIMEOUT`].
    fn racer(&'static self) {
        let mut state = self.lock();
        // Spawned for a ticket, woken by a dispatch, or back from a race:
        // each restarts the idle clock. A wait that merely timed out
        // does not.
        let mut called = true;
        let mut retire_at = Instant::now();
        loop {
            let now = Instant::now();
            if called {
                retire_at = now + IDLE_TIMEOUT;
            }
            if let Some(at) = state.tickets.iter().position(|t| t.due(now)) {
                let ticket = state.tickets.remove(at).expect("position is in range");
                drop(state);
                ticket.job.help();
                // Possibly the last reference to the race: its values and
                // closures are dropped here, outside the lock.
                drop(ticket);
                called = true;
                state = self.lock();
                continue;
            }
            let next_release = state.tickets.iter().filter_map(|t| t.release).min();
            // What to wait for, and whether it is a hedge's release — a
            // time some race is waiting on, which is led — or only this
            // racer's retirement, which nobody is.
            let (until, release) = match next_release {
                // Past retirement but a hedge is still queued: stay as
                // its watcher.
                Some(release) if now >= retire_at => (release, true),
                Some(release) => (release.min(retire_at), release <= retire_at),
                None if now >= retire_at => {
                    state.live -= 1;
                    return;
                }
                None => (retire_at, false),
            };
            if release && wake::in_tail(until, now) {
                // Too close to sleep towards. Awake, off the lock and not
                // parked, this racer is what a dispatch counts as free:
                // it looks at the queue every turn, so a ticket that
                // falls due — or the decision taking the hedge's away —
                // ends the watch at once.
                drop(state);
                wake::finish_awake(until, |now| {
                    let state = self.lock();
                    !state.tickets.iter().any(|t| t.due(now))
                        && state.tickets.iter().any(|t| t.release == Some(until))
                });
                called = false;
                state = self.lock();
                continue;
            }
            state.parked += 1;
            let timed_out;
            (state, timed_out) = if release {
                let (guard, woke) = wake::park(&self.wake, state, until, now);
                (guard, woke.is_some())
            } else {
                let (guard, wait) = self
                    .wake
                    .wait_timeout(state, until.saturating_duration_since(now))
                    .unwrap_or_else(PoisonError::into_inner);
                (guard, wait.timed_out())
            };
            state.parked -= 1;
            called = !timed_out;
        }
    }
}
