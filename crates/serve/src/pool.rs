//! Deadline-aware worker pool: one EDF run queue per priority lane, with
//! starvation aging, load shedding and panic containment — and no thread
//! of its own.
//!
//! Connections never execute races themselves: they enqueue a job, and
//! its completion notifier answers them from the thread that ran it,
//! straight out of a reply-ring slot (`ring.rs`, `conn.rs`). Capacity is
//! bounded across all lanes and `try_submit` refuses — it never blocks
//! — when the pool is full: queueing deeper would only turn overload
//! into latency. Shutdown returns once every admitted job has run.
//!
//! The pool keeps the scheduling policy; the race crew owns the threads.
//! `workers` are **slots**, all serving the one queue: at most that many
//! jobs run at once. A push that finds fewer than `workers` slots running
//! starts one as an errand on the crew ([`altx::engine::run_on_crew`]:
//! its errand racers, kept apart from the racers of race siblings),
//! which runs entries until `RunQueues::next` finds nothing queued and
//! then leaves — freed under the lock that found nothing, so a later
//! push always sees the free slot and no entry waits while a slot is
//! free. `RunQueues` is a plain value behind one `Mutex`: it reads no
//! clock, takes no lock and starts no thread, and its rules are checked
//! on virtual time (`tests::any_schedule_runs_every_admitted_entry_once`).
//!
//! Scheduling — the default of one lane behaves exactly as a bounded
//! FIFO channel: each lane is an EDF heap (see `Entry`), served strictly
//! by priority unless a lower lane has aged (`RunQueues::next`).
//!
//! Failure story (the chaos soak beats on it): every job runs inside
//! `catch_unwind` ([`PoolStats::jobs_panicked`]), and so does the errand
//! on the crew; an admitted entry fires its notifier when it is dropped,
//! however that happens: after the job ran, while its panic unwinds,
//! unrun under an injected `Fail`, or in the sweep `shutdown` makes once
//! no slot runs.

use altx::engine::run_on_crew;
use altx::faults;
use altx::CachePadded;
use std::cell::Cell;
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::Thread;
use std::time::{Duration, Instant};

/// A unit of work for the pool.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

/// A completion notifier for [`WorkerPool::try_submit_notify_at`].
pub type Notify = Box<dyn FnOnce() + Send + 'static>;

/// How long a lower-priority lane may starve before aging promotes it
/// past a busier high-priority lane.
pub const DEFAULT_LANE_AGING: Duration = Duration::from_millis(25);

/// Fires its notifier exactly once — when dropped.
struct NotifyOnDrop(Option<Notify>);

impl Drop for NotifyOnDrop {
    fn drop(&mut self) {
        if let Some(notify) = self.0.take() {
            notify();
        }
    }
}

/// Why a submission was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The run queue is full — shed the request.
    Overloaded,
    /// The pool is shutting down.
    ShuttingDown,
}

/// Scheduling metadata attached to a submission. The default is a
/// best-effort job in the highest lane — what every legacy call site
/// gets.
#[derive(Debug, Clone, Copy, Default)]
pub struct JobMeta {
    /// Absolute deadline. `None` means best-effort (wire
    /// `deadline_ms == 0`): the job sorts after every deadlined job and
    /// runs in the slack, in submission order.
    pub deadline: Option<Instant>,
    /// Priority lane, `0` highest. Clamped to the configured lane count.
    pub lane: usize,
}

impl JobMeta {
    /// Meta for a wire request: `deadline_ms == 0` is best-effort, any
    /// other value becomes an absolute deadline from now. The third
    /// argument is read by nothing: it stays only because the
    /// benchmark's `layers` binary passes one, and goes with the other
    /// compile shims of ROADMAP 1(a).
    pub fn for_request(deadline_ms: u32, lane: usize, _unused: usize) -> Self {
        let deadline = (deadline_ms > 0)
            .then(|| Instant::now() + Duration::from_millis(u64::from(deadline_ms)));
        JobMeta { deadline, lane }
    }
}

/// Pool shape; [`PoolConfig::fifo`] is the everything-off default.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Slots: jobs running at once, each on a racer of the crew.
    pub workers: usize,
    /// Total queued-job capacity across every lane.
    pub queue_depth: usize,
    /// Nothing reads it. It stays only because the benchmark's `layers`
    /// binary builds this struct with a full literal that names it; it
    /// goes once that literal drops it (ROADMAP 1(a)).
    pub groups: usize,
    /// Priority lanes (`0` is highest priority). At least 1.
    pub lanes: usize,
    /// Nothing: `None` is its only value and nothing reads it. It stays
    /// only for the `layers` literal, as `groups` does (ROADMAP 1(a)).
    pub steal: Option<std::convert::Infallible>,
    /// Starvation aging threshold; `Duration::ZERO` disables aging
    /// (pure strict priority).
    pub lane_aging: Duration,
    /// Nothing: `None` is its only value and nothing reads it. It stays
    /// only for the `layers` literal, as `groups` does (ROADMAP 1(a)).
    pub spin: Option<std::convert::Infallible>,
    /// Nothing: `None` is its only value and nothing reads it. It stays
    /// only for the `layers` literal, as `groups` does (ROADMAP 1(a)).
    pub pin_cores: Option<std::convert::Infallible>,
}

impl PoolConfig {
    /// The legacy shape: one lane.
    pub fn fifo(workers: usize, queue_depth: usize) -> Self {
        PoolConfig {
            workers,
            queue_depth,
            groups: 1,
            lanes: 1,
            steal: None,
            lane_aging: DEFAULT_LANE_AGING,
            spin: None,
            pin_cores: None,
        }
    }
}

/// Failure counters the pool maintains; shared with telemetry. Every
/// cell is cache-line padded: `busy` is bumped twice per job by every
/// slot and `lane_depth` is written by every push and take, so without
/// padding the counters would ping one shared line between cores on the
/// hottest path in the daemon.
#[derive(Debug, Default)]
pub struct PoolStats {
    jobs_panicked: CachePadded<AtomicU64>,
    busy: CachePadded<AtomicU64>,
    lane_depth: Vec<CachePadded<AtomicU64>>,
}

impl PoolStats {
    fn with_lanes(lanes: usize) -> Self {
        PoolStats {
            lane_depth: (0..lanes)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
            ..PoolStats::default()
        }
    }

    /// Jobs whose closure panicked (contained; the slot kept serving).
    pub fn jobs_panicked(&self) -> u64 {
        self.jobs_panicked.load(Ordering::Relaxed)
    }

    /// Jobs running right now — a gauge, not a counter.
    /// Together with the queue depth this is the load figure peers
    /// exchange in heartbeats.
    pub fn busy(&self) -> u64 {
        self.busy.load(Ordering::Relaxed)
    }

    /// Queued jobs per priority lane — a gauge.
    pub fn lane_depths(&self) -> Vec<u64> {
        self.lane_depth
            .iter()
            .map(|d| d.load(Ordering::Relaxed))
            .collect()
    }
}

/// One admitted job: the EDF heap entry. Max-heap semantics — the entry
/// that should run *first* compares greatest: earlier deadline beats
/// later, any deadline beats best-effort, and ties break to the lower
/// submission sequence so equal-deadline (and all-best-effort) work
/// stays FIFO.
///
/// An entry exists only once its submission is admitted, and dropping
/// it — run or not — is what notifies: a refusal has none to drop.
struct Entry {
    deadline: Option<Instant>,
    seq: u64,
    enqueued: Instant,
    job: Job,
    notify: NotifyOnDrop,
}

impl Entry {
    /// Runs the job, then notifies — while the job's panic unwinds, too.
    fn run(self) {
        let Entry { job, notify, .. } = self;
        job();
        drop(notify);
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        use std::cmp::Ordering::*;
        match (self.deadline, other.deadline) {
            (Some(a), Some(b)) => b.cmp(&a), // earlier deadline → greater
            (Some(_), None) => Greater,      // deadlined beats best-effort
            (None, Some(_)) => Less,
            (None, None) => Equal,
        }
        .then_with(|| other.seq.cmp(&self.seq)) // lower seq → greater (FIFO)
    }
}

/// A submission [`RunQueues::push`] refused, handed back whole so that
/// its closures are dropped — uncalled — after the lock, not under it.
type Refused = (SubmitError, Job, Option<Notify>);

/// The pool's scheduling state as a plain value: what is queued, how
/// many slots run, and every rule that follows from the two —
/// admission, EDF / lane / aging order, when a push starts a slot, when
/// a slot leaves. The caller holds the lock and supplies the time.
struct RunQueues {
    /// One EDF heap per priority lane, `0` highest.
    lanes: Vec<BinaryHeap<Entry>>,
    /// Slots: at most this many run at once.
    slots: usize,
    /// Slots started and not yet left.
    running: usize,
    capacity: usize,
    lane_aging: Duration,
    seq: u64,
    closed: bool,
}

impl RunQueues {
    fn new(config: &PoolConfig) -> Self {
        RunQueues {
            lanes: (0..config.lanes.max(1))
                .map(|_| BinaryHeap::new())
                .collect(),
            slots: config.workers,
            running: 0,
            capacity: config.queue_depth,
            lane_aging: config.lane_aging,
            seq: 0,
            closed: false,
        }
    }

    /// Entries queued across every lane.
    fn queued(&self) -> usize {
        self.lanes.iter().map(BinaryHeap::len).sum()
    }

    /// Admits `job` under `meta`, or refuses it and changes nothing. An
    /// admitted entry starts a slot when fewer than `slots` run, and
    /// says whether it did.
    fn push(
        &mut self,
        meta: JobMeta,
        job: Job,
        notify: Option<Notify>,
        now: Instant,
    ) -> Result<bool, Refused> {
        if self.closed {
            return Err((SubmitError::ShuttingDown, job, notify));
        }
        if self.queued() >= self.capacity {
            return Err((SubmitError::Overloaded, job, notify));
        }
        let lane = meta.lane.min(self.lanes.len() - 1);
        self.lanes[lane].push(Entry {
            deadline: meta.deadline,
            seq: self.seq,
            enqueued: now,
            job,
            notify: NotifyOnDrop(notify),
        });
        self.seq += 1;
        let start = self.running < self.slots;
        self.running += usize::from(start);
        Ok(start)
    }

    /// One look for a running slot: the entry of the highest priority
    /// non-empty lane, unless starvation aging promotes a lower lane
    /// that has an entry waiting past the threshold; within the lane,
    /// EDF order (the heap's max = earliest deadline, best-effort last,
    /// FIFO among equals). With nothing queued the slot is freed here,
    /// before the lock is released — so every later push finds it free
    /// — and `None` tells it to leave.
    fn next(&mut self, now: Instant) -> Option<Entry> {
        let Some(strict) = self.lanes.iter().position(|l| !l.is_empty()) else {
            self.running -= 1;
            return None;
        };
        let aging = self.lane_aging;
        let aged = |lane: &BinaryHeap<Entry>| {
            !aging.is_zero() && lane.iter().any(|e| now.duration_since(e.enqueued) >= aging)
        };
        let pick = (strict + 1..self.lanes.len())
            .find(|&l| aged(&self.lanes[l]))
            .unwrap_or(strict);
        self.lanes[pick].pop()
    }

    /// Refuses every later push.
    fn close(&mut self) {
        self.closed = true;
    }

    /// Empties every heap, handing the entries to the caller to drop.
    fn drain(&mut self) -> Vec<Entry> {
        self.lanes.iter_mut().flat_map(BinaryHeap::drain).collect()
    }
}

/// State shared between the pool handle and its running slots.
struct Shared {
    /// The monitor's lock: the only one that guards queue state.
    queues: Mutex<RunQueues>,
    /// `RunQueues::queued`, copied out for [`WorkerPool::queued`], which
    /// must not take the lock. A statistic that publishes nothing else,
    /// hence `Relaxed`; padded apart from the lock every push writes.
    queued: CachePadded<AtomicUsize>,
    stats: Arc<PoolStats>,
    /// Callers of `shutdown` waiting for the last running slot to leave
    /// a closed pool. Pushed to with the queues' lock held, so the slot
    /// that leaves last always finds them.
    closers: Mutex<Vec<Thread>>,
}

impl Shared {
    /// No job, notifier or destructor of either runs under this lock, so
    /// a poisoned guard still protects consistent queues.
    fn lock(&self) -> MutexGuard<'_, RunQueues> {
        self.queues.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn closers(&self) -> MutexGuard<'_, Vec<Thread>> {
        self.closers.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Copies out the counts that are read without the lock. Called with
    /// it held, after every change: a reader may see a count a moment
    /// old, never one the queues did not have.
    fn publish(&self, queues: &RunQueues) {
        self.queued.store(queues.queued(), Ordering::Relaxed);
        for (gauge, heap) in self.stats.lane_depth.iter().zip(&queues.lanes) {
            gauge.store(heap.len() as u64, Ordering::Relaxed);
        }
    }

    fn submit(
        self: &Arc<Self>,
        job: Job,
        notify: Option<Notify>,
        meta: JobMeta,
    ) -> Result<(), SubmitError> {
        let now = Instant::now();
        let mut queues = self.lock();
        let pushed = queues.push(meta, job, notify, now);
        self.publish(&queues);
        drop(queues);
        if pushed.map_err(|(why, _job, _notify)| why)? {
            let shared = Arc::clone(self);
            run_on_crew(move || shared.serve());
        }
        Ok(())
    }

    /// A started slot, on the racer that took it: runs entries until
    /// `next` has none and has freed the slot.
    fn serve(&self) {
        thread_local! {
            static TIGHT: Cell<bool> = const { Cell::new(false) };
        }
        // Jobs wait on clocks (bodies, deadlines, hedge releases), and so
        // do the racers this one will spawn; a racer spawned by some
        // other thread may not have the slack a daemon thread has.
        if !TIGHT.replace(true) {
            crate::reactor::tighten_timer_slack();
        }
        let mut queues = self.lock();
        while let Some(entry) = queues.next(Instant::now()) {
            self.publish(&queues);
            drop(queues);
            self.run_job(entry);
            queues = self.lock();
        }
        let closers = if queues.closed && queues.running == 0 {
            std::mem::take(&mut *self.closers())
        } else {
            Vec::new()
        };
        drop(queues);
        closers.iter().for_each(Thread::unpark);
    }

    fn run_job(&self, entry: Entry) {
        self.stats.busy.fetch_add(1, Ordering::Relaxed);
        // Fault site `pool.job` sits inside the contained region: an
        // injected panic is indistinguishable from the job itself
        // crashing, and `Fail` drops the entry unrun (its notifier fires
        // with no outcome, which the server answers rather than awaits
        // forever).
        let outcome = catch_unwind(AssertUnwindSafe(move || {
            if faults::enabled() && faults::inject("pool.job", None) == faults::Verdict::Fail {
                return;
            }
            entry.run();
        }));
        // The gauge decrement sits outside the contained region, so a
        // panicking job never leaves a phantom busy slot behind.
        self.stats.busy.fetch_sub(1, Ordering::Relaxed);
        if outcome.is_err() {
            self.stats.jobs_panicked.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A bounded run queue whose jobs run on the race crew.
pub struct WorkerPool {
    shared: Arc<Shared>,
    n_workers: usize,
}

impl WorkerPool {
    /// A pool of `workers` slots over a single FIFO-equivalent run queue
    /// of depth `queue_depth`. This is the legacy shape; see
    /// [`WorkerPool::with_config`] for lanes.
    pub fn new(workers: usize, queue_depth: usize) -> Self {
        WorkerPool::with_config(PoolConfig::fifo(workers, queue_depth))
    }

    /// The configured pool: `config.workers` slots serving
    /// `config.lanes` EDF heaps. Starts no thread.
    pub fn with_config(config: PoolConfig) -> Self {
        assert!(config.workers > 0, "need at least one worker");
        let queues = RunQueues::new(&config);
        let n_lanes = queues.lanes.len();
        let shared = Arc::new(Shared {
            queues: Mutex::new(queues),
            queued: CachePadded::new(AtomicUsize::new(0)),
            stats: Arc::new(PoolStats::with_lanes(n_lanes)),
            closers: Mutex::new(Vec::new()),
        });
        WorkerPool {
            shared,
            n_workers: config.workers,
        }
    }

    /// Enqueues a best-effort job without blocking; refuses when full or
    /// closed.
    pub fn try_submit(&self, job: Job) -> Result<(), SubmitError> {
        self.try_submit_at(job, JobMeta::default())
    }

    /// Enqueues a job under `meta`'s deadline and lane without
    /// blocking; refuses when full or closed.
    pub fn try_submit_at(&self, job: Job, meta: JobMeta) -> Result<(), SubmitError> {
        self.shared.submit(job, None, meta)
    }

    /// Enqueues a job with a completion notifier under `meta`'s
    /// deadline and lane. The pool guarantees `notify` runs **exactly
    /// once** for an admitted job — after the job returns, while its
    /// panic unwinds, or when the pool drops the job unrun (an injected
    /// `Fail` fault, or the shutdown sweep of a queue no slot
    /// drained). A refused submission never notifies: the `Err` return
    /// is the caller's signal.
    pub fn try_submit_notify_at(
        &self,
        job: Job,
        notify: Notify,
        meta: JobMeta,
    ) -> Result<(), SubmitError> {
        self.shared.submit(job, Some(notify), meta)
    }

    /// Runs `work` on the pool under `meta` and hands its outcome to
    /// `done` — [`WorkerPool::try_submit_notify_at`] for callers that
    /// want a value back. `done` runs exactly once for an admitted
    /// submission: with `Some(outcome)` after `work` returned, with
    /// `None` when the pool dropped the job unrun or `work` panicked
    /// (callers that answer a panic differently from a loss contain it
    /// inside `work`). A refused submission runs neither.
    pub(crate) fn try_submit_work_at<T: Send + 'static>(
        &self,
        meta: JobMeta,
        work: impl FnOnce() -> T + Send + 'static,
        done: impl FnOnce(Option<T>) + Send + 'static,
    ) -> Result<(), SubmitError> {
        let slot = Arc::new(Mutex::new(None));
        let filled = Arc::clone(&slot);
        let job = Box::new(move || {
            let outcome = work();
            *filled.lock().unwrap_or_else(PoisonError::into_inner) = Some(outcome);
        });
        let notify =
            Box::new(move || done(slot.lock().unwrap_or_else(PoisonError::into_inner).take()));
        self.try_submit_notify_at(job, notify, meta)
    }

    /// Jobs currently queued (not yet picked up by a slot), across
    /// every lane.
    pub fn queued(&self) -> usize {
        self.shared.queued.load(Ordering::Relaxed)
    }

    /// Jobs running right now.
    pub fn busy(&self) -> u64 {
        self.shared.stats.busy()
    }

    /// Slots the pool was sized for: jobs it runs at once.
    pub fn workers(&self) -> usize {
        self.n_workers
    }

    /// The pool's failure counters, shareable with telemetry. The
    /// `Arc` keeps the counters readable after `shutdown`.
    pub fn stats(&self) -> Arc<PoolStats> {
        Arc::clone(&self.shared.stats)
    }

    /// Closes the queue and returns once every slot still running has
    /// drained it and left: every admitted job has run. Idempotent, and never
    /// panics: a poisoned lock is recovered. What is still queued then is
    /// swept here, and an entry dropped unrun still fires its notifier.
    pub fn shutdown(&self) {
        let mut queues = self.shared.lock();
        queues.close();
        while queues.running > 0 {
            self.shared.closers().push(std::thread::current());
            drop(queues);
            std::thread::park();
            queues = self.shared.lock();
        }
        let leftovers = queues.drain();
        self.shared.publish(&queues);
        drop(queues);
        drop(leftovers); // off the lock: each drop may run a notifier
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers())
            .field("queued", &self.queued())
            .field("busy", &self.busy())
            .field("jobs_panicked", &self.shared.stats.jobs_panicked())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use altx_check::{check, CaseRng};
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;

    #[test]
    fn runs_submitted_jobs() {
        let pool = WorkerPool::new(4, 16);
        let (tx, rx) = mpsc::channel();
        for i in 0..16usize {
            let tx = tx.clone();
            pool.try_submit(Box::new(move || tx.send(i).expect("receiver alive")))
                .expect("queue has room");
        }
        let mut got: Vec<usize> = (0..16).map(|_| rx.recv().expect("job ran")).collect();
        got.sort_unstable();
        assert_eq!(got, (0..16).collect::<Vec<_>>());
        pool.shutdown();
    }

    #[test]
    fn sheds_when_queue_is_full() {
        let pool = WorkerPool::new(1, 2);
        let (block_tx, block_rx) = mpsc::channel::<()>();
        // Occupy the single worker...
        pool.try_submit(Box::new(move || {
            block_rx.recv().ok();
        }))
        .expect("admitted");
        // ...then fill the queue.
        let mut sheds = 0;
        for _ in 0..20 {
            if pool.try_submit(Box::new(|| {})) == Err(SubmitError::Overloaded) {
                sheds += 1;
            }
        }
        assert!(sheds >= 18, "only {sheds} sheds");
        block_tx.send(()).expect("worker waiting");
        pool.shutdown();
    }

    #[test]
    fn shutdown_drains_admitted_jobs() {
        let pool = WorkerPool::new(2, 64);
        let ran = Arc::new(AtomicUsize::new(0));
        for _ in 0..50 {
            let ran = Arc::clone(&ran);
            pool.try_submit(Box::new(move || {
                std::thread::sleep(std::time::Duration::from_micros(200));
                ran.fetch_add(1, Ordering::SeqCst);
            }))
            .expect("queue has room");
        }
        pool.shutdown();
        assert_eq!(ran.load(Ordering::SeqCst), 50, "admitted jobs must all run");
    }

    #[test]
    fn submit_after_shutdown_refused() {
        let pool = WorkerPool::new(1, 4);
        pool.shutdown();
        assert_eq!(
            pool.try_submit(Box::new(|| {})),
            Err(SubmitError::ShuttingDown)
        );
    }

    #[test]
    fn panicking_job_is_contained_and_pool_keeps_serving() {
        let pool = WorkerPool::new(2, 16);
        let (tx, rx) = mpsc::channel();
        for i in 0..8 {
            let tx = tx.clone();
            if i % 2 == 0 {
                pool.try_submit(Box::new(move || panic!("job {i} crashed")))
                    .expect("admitted");
            } else {
                pool.try_submit(Box::new(move || tx.send(i).expect("receiver alive")))
                    .expect("admitted");
            }
        }
        let mut got: Vec<i32> = (0..4)
            .map(|_| {
                rx.recv_timeout(Duration::from_secs(5))
                    .expect("survivors ran")
            })
            .collect();
        got.sort_unstable();
        assert_eq!(got, vec![1, 3, 5, 7]);
        pool.shutdown(); // drain: the crashing jobs have all run by now
        assert_eq!(pool.stats().jobs_panicked(), 4);
        assert_eq!(pool.busy(), 0, "contained panics leave no busy slot");
    }

    #[test]
    fn notify_fires_once_after_job_runs() {
        let pool = WorkerPool::new(2, 8);
        let fired = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = mpsc::channel();
        {
            let fired = Arc::clone(&fired);
            pool.try_submit_notify_at(
                Box::new(|| {}),
                Box::new(move || {
                    fired.fetch_add(1, Ordering::SeqCst);
                    tx.send(()).expect("receiver alive");
                }),
                JobMeta::default(),
            )
            .expect("admitted");
        }
        rx.recv_timeout(Duration::from_secs(5)).expect("notified");
        pool.shutdown();
        assert_eq!(fired.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn notify_fires_when_job_panics() {
        let pool = WorkerPool::new(1, 8);
        let (tx, rx) = mpsc::channel();
        pool.try_submit_notify_at(
            Box::new(|| panic!("job crashed")),
            Box::new(move || tx.send(()).expect("receiver alive")),
            JobMeta::default(),
        )
        .expect("admitted");
        rx.recv_timeout(Duration::from_secs(5))
            .expect("a panicking job must still notify");
        pool.shutdown();
        assert_eq!(pool.stats().jobs_panicked(), 1);
    }

    #[test]
    fn refused_submission_never_notifies() {
        let pool = WorkerPool::new(1, 1);
        let (block_tx, block_rx) = mpsc::channel::<()>();
        let (running_tx, running_rx) = mpsc::channel::<()>();
        pool.try_submit(Box::new(move || {
            running_tx.send(()).ok();
            block_rx.recv().ok();
        }))
        .expect("occupies the worker");
        // The blocker is off the queue and on the worker before the
        // fill: a fill that stopped with it still queued would leave a
        // slot free once the worker took it.
        running_rx.recv().expect("worker picked the blocker up");
        // Fill the depth-1 queue, then overflow it with a notifier.
        while pool.try_submit(Box::new(|| {})).is_ok() {}
        let fired = Arc::new(AtomicUsize::new(0));
        let refused = {
            let fired = Arc::clone(&fired);
            pool.try_submit_notify_at(
                Box::new(|| {}),
                Box::new(move || {
                    fired.fetch_add(1, Ordering::SeqCst);
                }),
                JobMeta::default(),
            )
        };
        assert_eq!(refused, Err(SubmitError::Overloaded));
        assert_eq!(
            fired.load(Ordering::SeqCst),
            0,
            "refusal must not look like a lost job"
        );
        block_tx.send(()).expect("worker waiting");
        pool.shutdown();
        assert_eq!(fired.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn shutdown_after_job_panics_still_drains() {
        let pool = WorkerPool::new(1, 32);
        pool.try_submit(Box::new(|| panic!("early crash")))
            .expect("admitted");
        let ran = Arc::new(AtomicUsize::new(0));
        for _ in 0..10 {
            let ran = Arc::clone(&ran);
            pool.try_submit(Box::new(move || {
                ran.fetch_add(1, Ordering::SeqCst);
            }))
            .expect("admitted");
        }
        pool.shutdown(); // must not panic, must drain everything after the crash
        assert_eq!(ran.load(Ordering::SeqCst), 10);
        assert_eq!(pool.stats().jobs_panicked(), 1);
    }

    #[test]
    fn entry_order_is_edf_then_fifo_with_best_effort_last() {
        let now = Instant::now();
        let mk = |deadline: Option<u64>, seq: u64| Entry {
            deadline: deadline.map(|ms| now + Duration::from_millis(ms)),
            seq,
            enqueued: now,
            job: Box::new(|| {}),
            notify: NotifyOnDrop(None),
        };
        let mut heap = BinaryHeap::new();
        heap.push(mk(None, 0)); // best-effort, submitted first
        heap.push(mk(Some(50), 1));
        heap.push(mk(Some(10), 2));
        heap.push(mk(Some(50), 3));
        heap.push(mk(None, 4));
        let order: Vec<u64> = std::iter::from_fn(|| heap.pop().map(|e| e.seq)).collect();
        assert_eq!(
            order,
            vec![2, 1, 3, 0, 4],
            "earliest deadline first, FIFO ties, best-effort last in FIFO order"
        );
    }

    #[test]
    fn lane_depths_track_queued_work() {
        let pool = WorkerPool::with_config(PoolConfig {
            lanes: 2,
            ..PoolConfig::fifo(1, 16)
        });
        let (block_tx, block_rx) = mpsc::channel::<()>();
        pool.try_submit(Box::new(move || {
            block_rx.recv().ok();
        }))
        .expect("occupies the worker");
        // Give the worker a moment to take the blocker off the queue.
        while pool.busy() == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        for lane in [0usize, 1, 1] {
            pool.try_submit_at(
                Box::new(|| {}),
                JobMeta {
                    lane,
                    ..JobMeta::default()
                },
            )
            .expect("admitted");
        }
        assert_eq!(pool.stats().lane_depths(), vec![1, 2]);
        block_tx.send(()).expect("worker waiting");
        pool.shutdown();
        assert_eq!(pool.stats().lane_depths(), vec![0, 0]);
    }

    /// What the property remembers of one admitted entry; `seq` is its
    /// index.
    struct Admitted {
        lane: usize,
        deadline: Option<Instant>,
        enqueued: Instant,
        queued: bool,
        ran: Arc<AtomicUsize>,
        notified: Option<Arc<AtomicUsize>>,
    }

    /// One seeded schedule: the queues under test beside a model that
    /// knows nothing of heaps.
    struct Schedule {
        queues: RunQueues,
        lanes: usize,
        capacity: usize,
        aging: Duration,
        workers: usize,
        /// Slots started and not yet left. Each stands where `serve`
        /// stands between two holds of the lock, about to look.
        running: usize,
        admitted: Vec<Admitted>,
        closed: bool,
        epoch: Instant,
        now: Instant,
    }

    impl Schedule {
        fn queued_in(&self, lane: usize) -> impl Iterator<Item = (usize, &Admitted)> + '_ {
            let here = move |a: &Admitted| a.queued && a.lane == lane;
            self.admitted
                .iter()
                .enumerate()
                .filter(move |(_, a)| here(a))
        }

        fn queued(&self) -> usize {
            self.admitted.iter().filter(|a| a.queued).count()
        }

        /// The entry a running slot must be handed now, worked out from
        /// the rules: strict lane priority unless a lower lane holds an
        /// entry older than the aging threshold; in the lane, earliest
        /// deadline, best-effort last, FIFO among equals.
        fn expected(&self) -> Option<usize> {
            let strict = (0..self.lanes).find(|&l| self.queued_in(l).next().is_some())?;
            let old = |a: &Admitted| self.now.duration_since(a.enqueued) >= self.aging;
            let aged = (strict + 1..self.lanes)
                .find(|&l| !self.aging.is_zero() && self.queued_in(l).any(|(_, a)| old(a)));
            let (seq, _) = self
                .queued_in(aged.unwrap_or(strict))
                .min_by_key(|&(seq, a)| (a.deadline.is_none(), a.deadline, seq))?;
            Some(seq)
        }

        fn push(&mut self, rng: &mut CaseRng) {
            // Out-of-range lanes clamp, and a few coarse deadlines (some
            // already past) make ties common.
            let meta = JobMeta {
                deadline: rng
                    .option(0.6, |r| Duration::from_millis(20 * r.u64_below(5)))
                    .map(|d| self.epoch + d),
                lane: rng.usize_in(0, self.lanes + 1),
            };
            let ran = Arc::new(AtomicUsize::new(0));
            let notified = rng.bool().then(|| Arc::new(AtomicUsize::new(0)));
            let job: Job = {
                let ran = Arc::clone(&ran);
                Box::new(move || {
                    ran.fetch_add(1, Ordering::SeqCst);
                })
            };
            let notify = notified.clone().map(|n| -> Notify {
                Box::new(move || {
                    n.fetch_add(1, Ordering::SeqCst);
                })
            });
            let before = (self.heap_sizes(), self.queues.seq, self.queues.running);
            let refusal = if self.closed {
                Some(SubmitError::ShuttingDown)
            } else if self.queued() >= self.capacity {
                Some(SubmitError::Overloaded)
            } else {
                None
            };
            match self.queues.push(meta, job, notify, self.now) {
                Err((why, job, notify)) => {
                    assert_eq!(Some(why), refusal);
                    let after = (self.heap_sizes(), self.queues.seq, self.queues.running);
                    assert_eq!(before, after, "a refusal changes nothing");
                    drop((job, notify));
                    let calls = ran.load(Ordering::SeqCst)
                        + notified.map_or(0, |n| n.load(Ordering::SeqCst));
                    assert_eq!(calls, 0, "a refusal runs nothing and notifies nobody");
                }
                Ok(started) => {
                    assert_eq!(refusal, None, "admitted a push that had to be refused");
                    self.admitted.push(Admitted {
                        lane: meta.lane.min(self.lanes - 1),
                        deadline: meta.deadline,
                        enqueued: self.now,
                        queued: true,
                        ran,
                        notified,
                    });
                    // A free slot starts; none is free when all run.
                    let free = self.running < self.workers;
                    assert_eq!(
                        started, free,
                        "{} of {} slots ran",
                        self.running, self.workers
                    );
                    self.running += usize::from(started);
                }
            }
        }

        /// A running slot takes the lock once and does what `serve` does
        /// with one hold of it.
        fn step(&mut self, rng: &mut CaseRng) {
            let expected = self.expected();
            match self.queues.next(self.now) {
                Some(entry) => {
                    assert_eq!(Some(entry.seq as usize), expected, "handed out of order");
                    self.take(entry, rng.bool());
                }
                None => {
                    assert_eq!(expected, None, "left beside work");
                    self.running -= 1;
                }
            }
        }

        /// An entry has come out of the queues: for the first time, and
        /// however it is dropped — run, or unrun as an injected `Fail`
        /// and the shutdown sweep drop it — it notifies exactly once.
        fn take(&mut self, entry: Entry, run: bool) {
            let a = &mut self.admitted[entry.seq as usize];
            assert!(a.queued, "entry {} came out twice", entry.seq);
            a.queued = false;
            if run {
                entry.run();
            } else {
                drop(entry);
            }
            assert_eq!(a.ran.load(Ordering::SeqCst), usize::from(run));
            if let Some(n) = &a.notified {
                assert_eq!(n.load(Ordering::SeqCst), 1);
            }
        }

        fn close(&mut self) {
            self.queues.close();
            self.closed = true;
        }

        fn heap_sizes(&self) -> Vec<usize> {
            self.queues.lanes.iter().map(BinaryHeap::len).collect()
        }

        /// What must hold between any two holds of the lock.
        fn check_invariants(&self) {
            for (l, size) in self.heap_sizes().into_iter().enumerate() {
                assert_eq!(size, self.queued_in(l).count(), "heap {l}");
            }
            assert_eq!(self.queues.queued(), self.queued());
            assert!(self.queued() <= self.capacity);
            assert_eq!(self.queues.running, self.running, "running slots");
            assert!(self.running <= self.workers, "more slots run than exist");
            // Work conservation: a queued entry waits only while every
            // slot runs. Each running slot is about to look, so it is
            // one entry's taker: fewer slots than entries means all run.
            assert!(
                self.running >= self.queued().min(self.workers),
                "{} entries queued beside {} of {} slots running",
                self.queued(),
                self.running,
                self.workers
            );
        }
    }

    /// The run queue's whole contract, over 2 500 seeded schedules of
    /// everything submitters, slots, the clock and `shutdown` can do to
    /// it — no thread, no real time: capacity holds and a refusal
    /// changes nothing; every admitted entry comes out exactly once, in
    /// EDF / lane / aging order; a push starts a slot exactly when fewer
    /// than `workers` run, and no more than `workers` ever run; while
    /// an entry waits every slot runs (work conservation), so a slot
    /// leaves only when nothing is queued; the gauges match the heaps.
    #[test]
    fn any_schedule_runs_every_admitted_entry_once() {
        let epoch = Instant::now();
        check("run_queues_schedules", 2_500, |rng| {
            let lanes = rng.usize_in(1, 4);
            let capacity = rng.usize_in(0, 8);
            let aging = Duration::from_millis(*rng.pick(&[0, 5, 25]));
            let workers = rng.usize_in(1, 5);
            let mut s = Schedule {
                queues: RunQueues::new(&PoolConfig {
                    lanes,
                    lane_aging: aging,
                    ..PoolConfig::fifo(workers, capacity)
                }),
                lanes,
                capacity,
                aging,
                workers,
                running: 0,
                admitted: Vec::new(),
                closed: false,
                epoch,
                now: epoch,
            };
            let steps = rng.usize_in(10, 90);
            let close_at = rng.usize_in(0, 2 * steps);
            for step in 0..steps {
                s.now += Duration::from_micros(rng.u64_below(6_000));
                if step == close_at {
                    s.close();
                } else if s.running == 0 || rng.chance(0.4) {
                    s.push(rng);
                } else {
                    s.step(rng);
                }
                s.check_invariants();
            }
            // `shutdown`: close, let the running slots drain until the
            // last has left — or lose them all and sweep what they left.
            s.close();
            if rng.chance(0.7) {
                while s.running > 0 {
                    s.step(rng);
                    s.check_invariants();
                }
                assert!(s.admitted.iter().all(|a| !a.queued), "left beside work");
            }
            for entry in s.queues.drain() {
                s.take(entry, false);
            }
            s.check_invariants();
            assert!(s.admitted.iter().all(|a| !a.queued));
        });
    }
}
