//! Scheme C on real OS threads: fastest-first racing.

use crate::block::{AltBlock, BlockAlternative, BlockResult};
use crate::cancel::CancelToken;
use crate::engine::crew::{crew, Job};
use crate::engine::{Engine, LaunchPlan};
use crate::faults;
use crate::wake;
use altx_pager::AddressSpace;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Races the alternatives concurrently, each over a private COW fork of
/// the workspace; the first `Some` result wins, the losers are cancelled
/// (cooperatively) and their forks discarded.
///
/// This is the paper's Scheme C with real concurrency: execution time
/// approaches `τ(C_best) + τ(overhead)`. The paper pays `alt_spawn` per
/// block; this engine does not pay a thread per alternative. The calling
/// thread always runs one alternative **inline**. Under a plan with a
/// [lead](LaunchPlan::favourite_first) that is the lead, alone and
/// before anything else happens: if it decides the race nobody was
/// woken at all. Otherwise — and whenever a lead comes back undecided —
/// it is the first pending alternative in declaration order that is
/// due, run after every sibling has been handed to the process-wide
/// race crew — parked racer threads that are reused from race to race,
/// grow on demand and retire when idle. So the overhead here is one
/// shared race record, a page-map fork per body that actually starts,
/// and a wake-up per sibling dispatched; a sibling the decision reaches
/// while it is still waiting to be claimed is eliminated where it waits
/// and costs neither a fork nor a thread.
///
/// Losing alternatives are eliminated through the [`CancelToken`]: the
/// first success cancels it, which wakes every body blocked in
/// [`CancelToken::sleep`] and is seen by every body that polls
/// [`CancelToken::checkpoint`] while it computes. The engine still waits
/// for every body that started before returning (Rust threads cannot be
/// killed), so a body that waits costs the race a wake-up, while a body
/// that computes without polling — or blocks somewhere the token cannot
/// reach — delays the return, without affecting which result is
/// selected.
///
/// Progress never depends on the crew: once its inline body returns, the
/// caller itself claims whatever is still waiting — due alternatives at
/// once, hedged ones at their release time — so a race started from
/// inside an alternative body, or while every racer is busy, completes
/// all the same.
///
/// Every wait on a clock in a race — a body's [`CancelToken::sleep`], the
/// caller's wait for a hedge's release, the crew's release watcher — is
/// a [led](crate::wake) wait: it asks the kernel early by what this
/// process's timer wake-ups have measured late and covers the remainder
/// awake, off its lock. That moves *when* a waiter is running again,
/// never what it may do then: no alternative is claimed before its
/// release instant, and a body's sleep never reports its time elapsed
/// early.
///
/// Which alternatives may run at all, and how many at once, is the
/// plan's to say too ([`LaunchPlan::only`], [`LaunchPlan::with_width`]):
/// §4.2's selection schemes are plans for this one engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct ThreadedEngine;

/// Where one alternative stands in its race. `Pending` is the only state
/// anyone may claim from, and every transition happens under the race's
/// lock, so an alternative is started at most once, a suppressed one
/// never, and an excluded one — left out by the plan — is never even
/// pending.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Claim {
    Pending,
    Running,
    Done,
    Suppressed,
    Excluded,
}

/// What a thread looking for work in a race should do next.
enum Next {
    /// Alternative `i` is now `Running` and the claimer must run it.
    Run(usize),
    /// Nothing is due; the earliest hedged alternative is released then.
    At(Instant),
    /// Nothing to claim: none pending, or the bound on running bodies is
    /// reached.
    Idle,
}

struct RaceState<R> {
    claims: Vec<Claim>,
    pending: usize,
    running: usize,
    panics: usize,
    /// The at-most-once winner slot: index, value, the fork its body
    /// wrote to, and how long the body itself ran.
    winner: Option<(usize, R, AddressSpace, Duration)>,
}

impl<R> RaceState<R> {
    /// Eliminates every alternative nobody has claimed yet.
    fn suppress_pending(&mut self) {
        for claim in &mut self.claims {
            if *claim == Claim::Pending {
                *claim = Claim::Suppressed;
            }
        }
        self.pending = 0;
    }
}

/// One race, shared between its caller and the racers that help it.
struct Race<R> {
    alts: Vec<BlockAlternative<R>>,
    /// Per alternative: when it may start (`None`: at race start).
    releases: Vec<Option<Instant>>,
    /// The workspace as the race found it; every body runs on its own
    /// fork of this.
    base: AddressSpace,
    token: CancelToken,
    /// At most this many bodies `Running` at once.
    max_running: usize,
    state: Mutex<RaceState<R>>,
    /// Where the caller waits; signalled whenever a racer's body
    /// finishes (which is also when a decision can fall).
    changed: Condvar,
}

impl<R: Send + 'static> Race<R> {
    /// Only counter and state updates happen under this lock — never an
    /// alternative body or a destructor of `R` — so a poisoned guard
    /// still protects a consistent state.
    fn lock(&self) -> MutexGuard<'_, RaceState<R>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Claims the next alternative in declaration order that is pending
    /// and due, if the bound allows another running body. A cancelled
    /// token — the race is decided, the caller gave up, or the deadline
    /// passed — eliminates everything still pending instead.
    fn claim_next(&self, state: &mut RaceState<R>) -> Next {
        if state.pending == 0 {
            return Next::Idle;
        }
        if self.token.is_cancelled() {
            state.suppress_pending();
            return Next::Idle;
        }
        if state.running >= self.max_running {
            return Next::Idle;
        }
        let mut now = None;
        let mut earliest: Option<Instant> = None;
        for (i, release) in self.releases.iter().enumerate() {
            if state.claims[i] != Claim::Pending {
                continue;
            }
            match *release {
                Some(at) if at > *now.get_or_insert_with(Instant::now) => {
                    earliest = Some(earliest.map_or(at, |e| e.min(at)));
                }
                _ => {
                    state.claims[i] = Claim::Running;
                    state.pending -= 1;
                    state.running += 1;
                    return Next::Run(i);
                }
            }
        }
        earliest.map_or(Next::Idle, Next::At)
    }

    /// Claims alternative `lead` ahead of declaration order: the opening
    /// move of a [favourite-first](LaunchPlan::favourite_first) plan,
    /// made while everything is still pending. A cancelled token
    /// eliminates the whole race instead, as in
    /// [`claim_next`](Race::claim_next).
    fn claim_lead(&self, state: &mut RaceState<R>, lead: usize) -> Next {
        if self.token.is_cancelled() {
            state.suppress_pending();
            return Next::Idle;
        }
        state.claims[lead] = Claim::Running;
        state.pending -= 1;
        state.running += 1;
        Next::Run(lead)
    }

    /// Launches whatever is still pending, the way a race opens: the
    /// caller claims first — under an ordinary plan that is the
    /// favourite, which it will run inline — and then hands the crew one
    /// ticket per sibling, so the siblings are on their way *before* the
    /// inline body starts. Immediate tickets stop at the bound: a racer
    /// beyond it could only find the bound reached. Returns the crew's
    /// handle on the race when any ticket went out.
    fn launch(self: &Arc<Self>) -> Option<Arc<dyn Job>> {
        let mut state = self.lock();
        let first = self.claim_next(&mut state);
        let mut room = self.max_running - state.running;
        let mut tickets = Vec::new();
        for (claim, release) in state.claims.iter().zip(&self.releases) {
            if *claim != Claim::Pending {
                continue;
            }
            if release.is_none() {
                if room == 0 {
                    continue;
                }
                room -= 1;
            }
            tickets.push(*release);
        }
        drop(state);
        let job = (!tickets.is_empty()).then(|| {
            let job: Arc<dyn Job> = self.clone();
            crew().dispatch(&job, &tickets);
            job
        });
        if let Next::Run(i) = first {
            self.run_claimed(i, false);
        }
        job
    }

    /// Runs alternative `i`, which the calling thread has claimed, on a
    /// fresh fork, and records the outcome. `on_crew` says the thread is
    /// a racer, which tells the crew while it is inside the body.
    fn run_claimed(&self, i: usize, on_crew: bool) {
        if on_crew {
            crew().enter();
        }
        let alt = &self.alts[i];
        let mut fork = self.base.cow_fork();
        // Containment: a panicking body — or an injected panic — is a
        // failed guard, not a dead racer (and, inline, not a dead
        // caller). The fault site sits inside the contained region for
        // exactly that reason.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if faults::enabled()
                && faults::inject(&format!("engine.alt.{}", alt.name()), Some(&self.token))
                    == faults::Verdict::Fail
            {
                return (None, Duration::ZERO); // injected guard failure
            }
            // The body alone: a wake-up, a fork or a switch on the way
            // here is the race's overhead, not this alternative's time.
            let began = Instant::now();
            let value = alt.run(&mut fork, &self.token);
            (value, began.elapsed())
        }));
        if on_crew {
            crew().leave();
        }
        let (value, body, panicked) = match outcome {
            Ok((value, body)) => (value, body, false),
            Err(_) => (None, Duration::ZERO, true),
        };

        let mut state = self.lock();
        state.panics += usize::from(panicked);
        let late = match value {
            Some(value) if state.winner.is_none() => {
                state.winner = Some((i, value, fork, body));
                // Sibling elimination at the source: the first success to
                // reach the slot decides the race, and it reclaims and
                // cancels *before* its own claim is released below — a
                // thread that finds room to claim again can only find the
                // race already decided, and the caller cannot see the
                // race over with the token still live.
                state.suppress_pending();
                // The cancel wakes the losers that are waiting on the
                // token, and what each of them does next is take this
                // lock to record its outcome: signal them off it.
                drop(state);
                self.token.cancel();
                state = self.lock();
                None
            }
            // A success that lost to an earlier one; dropped off the lock.
            late => late,
        };
        state.claims[i] = Claim::Done;
        state.running -= 1;
        drop(state);
        // Only the race's caller ever waits on `changed`, and this is
        // not it.
        if on_crew {
            self.changed.notify_one();
        }
        drop(late);
    }
}

impl<R: Send + 'static> Job for Race<R> {
    fn help(&self) {
        loop {
            let next = self.claim_next(&mut self.lock());
            match next {
                Next::Run(i) => self.run_claimed(i, true),
                // Hedged alternatives have tickets of their own.
                Next::At(_) | Next::Idle => return,
            }
        }
    }
}

impl ThreadedEngine {
    /// Creates the engine. How many bodies may run at once is the plan's
    /// to bound ([`LaunchPlan::with_width`]).
    pub fn new() -> Self {
        ThreadedEngine
    }

    /// Races `block` under a caller-supplied [`CancelToken`].
    ///
    /// This is the serving-layer entry point: the caller owns the token,
    /// so it can carry a per-request deadline
    /// ([`CancelToken::with_deadline`]) or be cancelled externally (e.g.
    /// client disconnect). The engine cancels the token itself the moment
    /// a winner is selected (sibling elimination), so a token must not be
    /// shared between concurrent `execute_with_token` calls.
    ///
    /// If the token is already cancelled — or its deadline expires before
    /// any alternative succeeds — the block fails; the caller can
    /// distinguish a blown budget via
    /// [`CancelToken::deadline_expired`].
    pub fn execute_with_token<R: Send + 'static>(
        &self,
        block: &AltBlock<R>,
        workspace: &mut AddressSpace,
        token: &CancelToken,
    ) -> BlockResult<R> {
        self.execute_planned(block, workspace, token, &LaunchPlan::immediate(block.len()))
    }

    /// Races `block` under a caller-supplied [`LaunchPlan`]: alternative
    /// `i` is released `plan.offset(i)` after race start, or not at all if
    /// the race is decided first (it counts as *suppressed* in the
    /// result), or never if the plan excludes it (it counts as neither
    /// an attempt nor suppressed). At most `plan.width()` bodies run at
    /// once. An all-zeros plan is byte-for-byte
    /// [`execute_with_token`](ThreadedEngine::execute_with_token): the
    /// plan changes only *which* bodies start and *when*, never how the
    /// winner is selected among those that do, how siblings are
    /// eliminated, or how panics are contained.
    ///
    /// Nobody sleeps on a hedged alternative's behalf: its release time
    /// sits on the crew's queue, and the decision takes it off again.
    /// Whoever watches that time — the caller, a parked racer — is back
    /// on a CPU when it comes, not a wake-up later ([`crate::wake`]).
    /// Nobody is woken on a [lead](LaunchPlan::favourite_first)'s behalf
    /// either: the caller runs it before a single ticket exists, and a
    /// lead that decides the race leaves its siblings suppressed where
    /// they stand — no dispatch, no wake-up, nothing to purge.
    pub fn execute_planned<R: Send + 'static>(
        &self,
        block: &AltBlock<R>,
        workspace: &mut AddressSpace,
        token: &CancelToken,
        plan: &LaunchPlan,
    ) -> BlockResult<R> {
        let start = Instant::now();
        let n = block.len();
        let claims: Vec<Claim> = (0..n)
            .map(|i| {
                if plan.is_excluded(i) {
                    Claim::Excluded
                } else {
                    Claim::Pending
                }
            })
            .collect();
        let pending = claims.iter().filter(|c| **c == Claim::Pending).count();
        let race = Arc::new(Race {
            alts: block.alternatives().to_vec(),
            releases: (0..n)
                .map(|i| plan.offset(i))
                .map(|offset| (!offset.is_zero()).then(|| start + offset))
                .collect(),
            base: workspace.cow_fork(),
            token: token.clone(),
            max_running: plan.width().unwrap_or(n),
            state: Mutex::new(RaceState {
                claims,
                pending,
                running: 0,
                panics: 0,
                winner: None,
            }),
            changed: Condvar::new(),
        });

        // A lead runs alone, ahead of everything: only if it comes back
        // undecided does the race open, from that instant, the way an
        // immediate plan opens at t = 0. If it decided, `launch` finds
        // nothing pending and hands out nothing — nor does it under
        // `LaunchPlan::only`, whose siblings are all excluded.
        if let Some(lead) = plan.lead().filter(|&lead| lead < n) {
            let claimed = race.claim_lead(&mut race.lock(), lead);
            if let Next::Run(i) = claimed {
                race.run_claimed(i, false);
            }
        }
        let job = race.launch();

        // From here on the caller works the race like any racer, except
        // that it also waits: for a release time, for room under the
        // bound, and at the end for every body that did start.
        let mut state = race.lock();
        loop {
            match race.claim_next(&mut state) {
                Next::Run(i) => {
                    drop(state);
                    race.run_claimed(i, false);
                    state = race.lock();
                }
                Next::At(release) => {
                    // A deadline cancels the token without signalling.
                    let until = token.deadline().map_or(release, |d| d.min(release));
                    let now = Instant::now();
                    if wake::in_tail(until, now) {
                        // Too close to sleep towards: the rest is covered
                        // awake and off the race's lock, so a hedge fires
                        // when its plan says. A decision cancels the
                        // token; `claim_next` reads the clock itself and
                        // claims nothing before its release.
                        drop(state);
                        wake::finish_awake(until, |_| !token.is_cancelled());
                        state = race.lock();
                    } else {
                        state = wake::park(&race.changed, state, until, now).0;
                    }
                }
                // Nothing pending and nothing running: the race is over.
                Next::Idle if state.running == 0 => break,
                Next::Idle => {
                    state = race
                        .changed
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
        let winner = state.winner.take();
        let panics = state.panics;
        let count = |of: Claim| state.claims.iter().filter(|c| **c == of).count();
        let (attempts, suppressed) = (count(Claim::Done), count(Claim::Suppressed));
        drop(state);
        if let Some(job) = &job {
            // Tickets nobody picked up, a hedge's release time among them.
            crew().purge(job);
        }
        if suppressed > 0 {
            crew().count_reclaimed(suppressed);
        }

        let (value, winner, winner_body) = match winner {
            Some((i, value, fork, body)) => {
                // alt_wait absorption: the winner's page map becomes ours.
                workspace.absorb(fork);
                (Some(value), Some(i), Some(body))
            }
            None => (None, None, None),
        };
        BlockResult {
            value,
            winner,
            winner_name: winner.map(|i| block.alternatives()[i].name().to_string()),
            winner_body,
            wall: start.elapsed(),
            attempts,
            panics,
            suppressed,
        }
    }
}

impl Engine for ThreadedEngine {
    fn execute<R: Send + 'static>(
        &self,
        block: &AltBlock<R>,
        workspace: &mut AddressSpace,
    ) -> BlockResult<R> {
        self.execute_with_token(block, workspace, &CancelToken::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use altx_pager::PageSize;

    fn ws() -> AddressSpace {
        AddressSpace::zeroed(256, PageSize::new(16))
    }

    /// Races `block` launch-all with at most `width` bodies at once.
    fn run_at_width<R: Send + 'static>(block: &AltBlock<R>, width: usize) -> BlockResult<R> {
        let plan = LaunchPlan::immediate(block.len()).with_width(width);
        ThreadedEngine::new().execute_planned(block, &mut ws(), &CancelToken::new(), &plan)
    }

    /// A body that waits on its token, so elimination wakes it.
    fn sleepy(total_ms: u64) -> impl Fn(&CancelToken) -> Option<()> {
        move |token: &CancelToken| token.sleep(Duration::from_millis(total_ms)).then_some(())
    }

    #[test]
    fn fastest_alternative_wins() {
        let slow = sleepy(200);
        let fast = sleepy(5);
        let block: AltBlock<&'static str> = AltBlock::new()
            .alternative("slow", move |_w, t| slow(t).map(|_| "slow"))
            .alternative("fast", move |_w, t| fast(t).map(|_| "fast"));
        let r = ThreadedEngine::new().execute(&block, &mut ws());
        assert_eq!(r.value, Some("fast"));
        assert_eq!(r.winner, Some(1));
        assert_eq!(r.attempts, 2);
        // Cooperative cancellation means we return long before 200 ms.
        assert!(r.wall < Duration::from_millis(150), "wall {:?}", r.wall);
    }

    #[test]
    fn elimination_wakes_a_waiting_loser() {
        use std::sync::Barrier;
        // The loser would wait ten seconds; the decision, not a timer,
        // is what ends its wait — and the engine, which waits for every
        // body that started, returns right behind it. The barrier makes
        // sure the loser did start.
        let slow = sleepy(10_000);
        let fast = sleepy(1);
        let both = Arc::new(Barrier::new(2));
        let started = both.clone();
        let block: AltBlock<&'static str> = AltBlock::new()
            .alternative("fast", move |_w, t| {
                both.wait();
                fast(t).map(|_| "fast")
            })
            .alternative("slow", move |_w, t| {
                started.wait();
                slow(t).map(|_| "slow")
            });
        let token = CancelToken::new();
        let r = ThreadedEngine::new().execute_with_token(&block, &mut ws(), &token);
        assert_eq!(r.value, Some("fast"));
        assert_eq!(r.winner, Some(0));
        assert!(r.wall < Duration::from_millis(100), "wall {:?}", r.wall);
        assert_eq!(r.suppressed, 0, "both bodies started");
        assert_eq!(r.panics, 0);
        assert!(token.is_cancelled(), "the decision cancelled the token");
        assert!(!token.deadline_expired());
    }

    #[test]
    fn only_winner_mutations_visible() {
        let block: AltBlock<u8> = AltBlock::new()
            .alternative("loser", |w, t| {
                w.write(0, &[1]);
                // Lose the race deliberately.
                for _ in 0..100 {
                    t.checkpoint()?;
                    std::thread::sleep(Duration::from_millis(1));
                }
                Some(1)
            })
            .alternative("winner", |w, _t| {
                w.write(0, &[2]);
                Some(2)
            });
        let mut workspace = ws();
        let r = ThreadedEngine::new().execute(&block, &mut workspace);
        assert_eq!(r.value, Some(2));
        assert_eq!(
            workspace.read_vec(0, 1),
            vec![2],
            "only the winner's write is observable"
        );
    }

    #[test]
    fn guard_failures_fall_through_to_slower_success() {
        let slow_ok = sleepy(20);
        let block: AltBlock<i32> = AltBlock::new()
            .alternative("fast-but-failing", |_w, _t| None)
            .alternative("slow-but-passing", move |_w, t| slow_ok(t).map(|_| 1));
        let r = ThreadedEngine::new().execute(&block, &mut ws());
        assert_eq!(r.value, Some(1));
        assert_eq!(r.winner, Some(1));
    }

    #[test]
    fn all_failures_fail_block_without_side_effects() {
        let block: AltBlock<i32> = AltBlock::new()
            .alternative("f1", |w, _t| {
                w.write(0, &[1]);
                None
            })
            .alternative("f2", |w, _t| {
                w.write(0, &[2]);
                None
            });
        let mut workspace = ws();
        let r = ThreadedEngine::new().execute(&block, &mut workspace);
        assert!(!r.succeeded());
        assert_eq!(workspace.read_vec(0, 1), vec![0]);
    }

    #[test]
    fn single_alternative_behaves_sequentially() {
        let block: AltBlock<i32> = AltBlock::new().alternative("only", |w, _t| {
            w.write(3, &[7]);
            Some(99)
        });
        let mut workspace = ws();
        let r = ThreadedEngine::new().execute(&block, &mut workspace);
        assert_eq!(r.value, Some(99));
        assert_eq!(workspace.read_vec(3, 1), vec![7]);
    }

    #[test]
    fn empty_block_fails_fast() {
        let block: AltBlock<i32> = AltBlock::new();
        let r = ThreadedEngine::new().execute(&block, &mut ws());
        assert!(!r.succeeded());
        assert_eq!(r.attempts, 0);
    }

    #[test]
    fn bounded_parallelism_still_selects_a_winner() {
        // 8 alternatives, 2 slots: the winner is found and everything
        // terminates, whatever the admission order.
        let mut block: AltBlock<usize> = AltBlock::new();
        for i in 0..8usize {
            let body = sleepy(if i == 5 { 1 } else { 30 });
            block = block.alternative(format!("alt{i}"), move |_w, t| body(t).map(|_| i));
        }
        let r = run_at_width(&block, 2);
        assert!(r.succeeded());
        assert_eq!(r.attempts + r.suppressed, 8);
    }

    #[test]
    fn bounded_parallelism_skips_queued_losers_after_decision() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        // One slot: the first alternative wins instantly; the queued
        // bodies observe cancellation before doing any work.
        let started = Arc::new(AtomicUsize::new(0));
        let mut block: AltBlock<usize> = AltBlock::new();
        block = block.alternative("instant", |_w, _t| Some(0));
        for i in 1..6usize {
            let started = started.clone();
            block = block.alternative(format!("queued{i}"), move |_w, _t| {
                started.fetch_add(1, Ordering::SeqCst);
                Some(i)
            });
        }
        let r = run_at_width(&block, 1);
        assert_eq!(r.value, Some(0));
        assert_eq!(
            started.load(Ordering::SeqCst),
            0,
            "queued bodies never ran after the decision"
        );
    }

    #[test]
    fn bound_of_one_tries_alternatives_in_declaration_order() {
        use std::sync::Mutex;
        // Every guard fails, so every body runs; with one slot they run
        // one at a time, and the order they start in is the order they
        // were declared in.
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut block: AltBlock<usize> = AltBlock::new();
        for i in 0..6usize {
            let order = order.clone();
            block = block.alternative(format!("alt{i}"), move |_w, _t| {
                order.lock().expect("no panic under it").push(i);
                None
            });
        }
        let r = run_at_width(&block, 1);
        assert!(!r.succeeded());
        assert_eq!(r.suppressed, 0);
        assert_eq!(r.attempts, 6);
        assert_eq!(
            *order.lock().expect("no panic under it"),
            vec![0, 1, 2, 3, 4, 5]
        );
    }

    #[test]
    fn panicking_sibling_is_contained_and_race_survives() {
        let block: AltBlock<i32> = AltBlock::new()
            .alternative("bomb", |_w, _t| panic!("injected body crash"))
            .alternative("steady", |_w, _t| Some(7));
        let mut workspace = ws();
        let r = ThreadedEngine::new().execute(&block, &mut workspace);
        assert_eq!(r.value, Some(7), "survivor's value is kept");
        assert_eq!(r.winner, Some(1));
        assert_eq!(r.panics, 1, "the crash was observed and contained");
    }

    #[test]
    fn all_panicking_alternatives_fail_the_block_cleanly() {
        let block: AltBlock<i32> = AltBlock::new()
            .alternative("b1", |w, _t| {
                w.write(0, &[1]);
                panic!("crash one")
            })
            .alternative("b2", |w, _t| {
                w.write(0, &[2]);
                panic!("crash two")
            });
        let mut workspace = ws();
        let r = ThreadedEngine::new().execute(&block, &mut workspace);
        assert!(!r.succeeded(), "all-crash block fails like all-guards-fail");
        assert_eq!(r.panics, 2);
        assert_eq!(
            workspace.read_vec(0, 1),
            vec![0],
            "no crashed fork's writes leak"
        );
    }

    #[test]
    fn planned_hold_back_suppresses_the_loser() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        // alt0 wins in ~5 ms; alt1 is held back 200 ms, so the decision
        // arrives during its hold-back and its body never runs.
        let started = Arc::new(AtomicUsize::new(0));
        let s = started.clone();
        let fast = sleepy(5);
        let block: AltBlock<usize> = AltBlock::new()
            .alternative("favourite", move |_w, t| fast(t).map(|_| 0))
            .alternative("hedge", move |_w, _t| {
                s.fetch_add(1, Ordering::SeqCst);
                Some(1)
            });
        let plan = LaunchPlan::from_offsets(vec![Duration::ZERO, Duration::from_millis(200)]);
        let r =
            ThreadedEngine::new().execute_planned(&block, &mut ws(), &CancelToken::new(), &plan);
        assert_eq!(r.value, Some(0));
        assert_eq!(r.suppressed, 1, "the hedge was suppressed");
        assert_eq!(started.load(Ordering::SeqCst), 0, "hedge body never ran");
        assert!(
            r.wall < Duration::from_millis(150),
            "no wait for the hedge offset"
        );
    }

    #[test]
    fn planned_hedge_fires_when_the_favourite_fails() {
        // alt0 fails its guard; alt1 launches after its offset and wins.
        let start = Instant::now();
        let block: AltBlock<&'static str> = AltBlock::new()
            .alternative("favourite-fails", |_w, _t| None::<&'static str>)
            .alternative("hedge", |_w, _t| Some("hedge"));
        let plan = LaunchPlan::from_offsets(vec![Duration::ZERO, Duration::from_millis(20)]);
        let r =
            ThreadedEngine::new().execute_planned(&block, &mut ws(), &CancelToken::new(), &plan);
        assert_eq!(r.value, Some("hedge"));
        assert_eq!(r.winner, Some(1));
        assert_eq!(r.suppressed, 0);
        assert!(
            start.elapsed() >= Duration::from_millis(20),
            "the hedge respected its launch offset"
        );
    }

    #[test]
    fn deadline_reclaims_a_hedge_nobody_is_running_for() {
        // The favourite fails at once, so the caller is left waiting for
        // the hedge's release time — and must give up at the deadline,
        // which nobody signals, not sleep the offset out.
        let block: AltBlock<u8> = AltBlock::new()
            .alternative("favourite-fails", |_w, _t| None)
            .alternative("hedge", |_w, _t| Some(1));
        let plan = LaunchPlan::from_offsets(vec![Duration::ZERO, Duration::from_millis(400)]);
        let token = CancelToken::with_deadline(Duration::from_millis(20));
        let r = ThreadedEngine::new().execute_planned(&block, &mut ws(), &token, &plan);
        assert!(!r.succeeded());
        assert!(token.deadline_expired());
        assert_eq!(r.suppressed, 1, "the hedge never started");
        assert!(r.wall < Duration::from_millis(300), "wall {:?}", r.wall);
    }

    #[test]
    fn a_lead_runs_before_anyone_else_and_alone_if_it_decides() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // Not the first in declaration order, and it wins: the siblings'
        // bodies never run and the winner's own running time is reported.
        let started = Arc::new(AtomicUsize::new(0));
        let mut block: AltBlock<usize> = AltBlock::new();
        for i in 0..4usize {
            let started = started.clone();
            block = block.alternative(format!("alt{i}"), move |w, _t| {
                started.fetch_add(1, Ordering::SeqCst);
                w.write(0, &[i as u8 + 1]);
                Some(i)
            });
        }
        let mut workspace = ws();
        let r = ThreadedEngine::new().execute_planned(
            &block,
            &mut workspace,
            &CancelToken::new(),
            &LaunchPlan::favourite_first(4, 2),
        );
        assert_eq!(r.value, Some(2));
        assert_eq!(r.winner_name.as_deref(), Some("alt2"));
        assert_eq!(r.suppressed, 3);
        assert_eq!(started.load(Ordering::SeqCst), 1, "only the lead ran");
        assert_eq!(workspace.read_vec(0, 1), vec![3], "and its write is ours");
        assert!(r.winner_body.is_some_and(|body| body <= r.wall));
    }

    #[test]
    fn a_cancelled_token_starts_no_lead() {
        let block: AltBlock<u8> = AltBlock::new()
            .alternative("sibling", |_w, _t| Some(0))
            .alternative("lead", |_w, _t| Some(1));
        let token = CancelToken::new();
        token.cancel();
        let plan = LaunchPlan::favourite_first(2, 1);
        let r = ThreadedEngine::new().execute_planned(&block, &mut ws(), &token, &plan);
        assert!(!r.succeeded());
        assert_eq!(r.suppressed, 2, "neither body started");
        assert_eq!(r.attempts, 0);
        assert_eq!(r.winner_body, None);
    }

    #[test]
    fn a_lead_that_decides_reports_one_attempt() {
        let block: AltBlock<u8> = AltBlock::new()
            .alternative("sibling", |_w, _t| Some(0))
            .alternative("lead", |_w, _t| Some(1));
        let plan = LaunchPlan::favourite_first(2, 1);
        let r =
            ThreadedEngine::new().execute_planned(&block, &mut ws(), &CancelToken::new(), &plan);
        assert_eq!(r.winner, Some(1));
        assert_eq!(r.attempts, 1, "one body ran");
        assert_eq!(r.suppressed, 1);
    }

    #[test]
    fn only_runs_its_pick_and_no_sibling_substitutes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // Every sibling would succeed; the pick writes and fails. The
        // block fails with the pick's write discarded, and nothing else
        // ran: the siblings were excluded, not suppressed.
        let ran = Arc::new(AtomicUsize::new(0));
        let mut block: AltBlock<usize> = AltBlock::new();
        for i in 0..4usize {
            let ran = ran.clone();
            block = block.alternative(format!("alt{i}"), move |w, _t| {
                ran.fetch_add(1, Ordering::SeqCst);
                w.write(0, &[0xEE]);
                (i != 2).then_some(i)
            });
        }
        let only = |pick: usize, workspace: &mut AddressSpace| {
            let plan = LaunchPlan::only(4, pick);
            ThreadedEngine::new().execute_planned(&block, workspace, &CancelToken::new(), &plan)
        };
        let mut workspace = ws();
        let r = only(2, &mut workspace);
        assert!(!r.succeeded());
        assert_eq!((r.attempts, r.suppressed), (1, 0));
        assert_eq!(ran.load(Ordering::SeqCst), 1);
        assert_eq!(workspace.read_vec(0, 1), vec![0], "the failed fork is gone");
        assert_eq!(
            only(1, &mut ws()).value,
            Some(1),
            "a pick that holds is the outcome"
        );
        let r = only(4, &mut ws());
        assert!(!r.succeeded(), "a pick out of range runs nothing");
        assert_eq!((r.attempts, r.suppressed), (0, 0));
        assert_eq!(ran.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn race_started_inside_a_body_completes_on_busy_racers() {
        use std::sync::Barrier;
        // Three outer bodies meet at a barrier, so all three are running
        // at once — the caller and two racers, none of them free — and
        // only then does each start an inner race whose first alternative
        // fails. The inner callers make their own progress: nothing here
        // waits for a racer to come free.
        let barrier = Arc::new(Barrier::new(3));
        let mut block: AltBlock<usize> = AltBlock::new();
        for i in 0..3usize {
            let barrier = barrier.clone();
            block = block.alternative(format!("outer{i}"), move |w, _t| {
                barrier.wait();
                let inner: AltBlock<usize> = AltBlock::new()
                    .alternative("inner-fails", |_w, _t| None)
                    .alternative("inner-ok", move |_w, _t| Some(10 + i));
                // Not under the outer token: an outer decision must not
                // pre-empt the inner result this test looks at.
                ThreadedEngine::new().execute(&inner, w).value
            });
        }
        let r = ThreadedEngine::new().execute(&block, &mut ws());
        let winner = r.winner.expect("some outer alternative succeeded");
        assert_eq!(r.value, Some(10 + winner));
        assert_eq!(r.suppressed, 0, "all three outer bodies ran");
    }

    #[test]
    fn immediate_plan_matches_execute_with_token() {
        // Same block, same workspace shape: the all-zeros plan must give
        // the same value, winner, and workspace bytes as the token entry
        // point (it is the same code path).
        let mk = || -> AltBlock<u8> {
            AltBlock::new()
                .alternative("loser", |w, t| {
                    w.write(0, &[1]);
                    for _ in 0..100 {
                        t.checkpoint()?;
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Some(1)
                })
                .alternative("winner", |w, _t| {
                    w.write(0, &[2]);
                    Some(2)
                })
        };
        let mut ws_token = ws();
        let via_token =
            ThreadedEngine::new().execute_with_token(&mk(), &mut ws_token, &CancelToken::new());
        let mut ws_plan = ws();
        let via_plan = ThreadedEngine::new().execute_planned(
            &mk(),
            &mut ws_plan,
            &CancelToken::new(),
            &LaunchPlan::immediate(2),
        );
        assert_eq!(via_token.value, via_plan.value);
        assert_eq!(via_token.winner, via_plan.winner);
        assert_eq!(via_token.winner_name, via_plan.winner_name);
        assert_eq!(via_token.attempts, via_plan.attempts);
        assert_eq!(ws_token.read_vec(0, 1), ws_plan.read_vec(0, 1));
    }

    #[test]
    fn many_alternatives_race_correctly() {
        // 16 alternatives; index 11 is the only one that returns quickly.
        let mut block: AltBlock<usize> = AltBlock::new();
        for i in 0..16usize {
            let body = sleepy(if i == 11 { 1 } else { 100 });
            block = block.alternative(format!("alt{i}"), move |_w, t| body(t).map(|_| i));
        }
        let r = ThreadedEngine::new().execute(&block, &mut ws());
        assert_eq!(r.value, Some(11));
    }
}
