//! Deadline-aware worker pool: per-group EDF run queues, priority lanes
//! with starvation aging, work stealing, load shedding, panic
//! containment, and workers that restart themselves.
//!
//! Connections never execute races themselves: they enqueue a job, and
//! its completion notifier answers them from the worker thread, straight
//! out of a reply-ring slot (`ring.rs`, `conn.rs`). Capacity is bounded
//! across all queues and `try_submit` refuses — it never blocks — when
//! the pool is full: queueing deeper would only turn overload into
//! latency. Shutdown closes the queues; workers drain every admitted job
//! before exiting, so accepted requests are always answered.
//!
//! The run queue is a **monitor**: one `RunQueues` value — every
//! group's lane heaps, who is asleep, how much is queued, whether the
//! pool is closed — behind one `Mutex`, with one `Condvar` per group. A
//! submitter locks, pushes, learns from the returned `Wake` which
//! groups have a sleeper that may run the entry, unlocks, and notifies
//! those. A worker locks and asks `RunQueues::next`: run this, spin,
//! park, or exit — and is counted asleep before the lock is released,
//! so "is there work a parked worker may run?" is asked and answered
//! under the lock that parks it. `RunQueues` reads no clock, takes no
//! lock and starts no thread; its rules are checked on virtual time
//! (`tests::any_schedule_runs_every_admitted_entry_once`).
//!
//! Scheduling — the default of one group, one lane and no stealing
//! behaves exactly as a bounded FIFO channel: each queue is an EDF heap
//! (see `Entry`); each group has one heap per priority lane, served
//! strictly unless a lower lane has aged (`RunQueues::take_best`);
//! workers are dealt round-robin to groups (one per shard when stealing
//! is on) and pop their own group first. With stealing on, a worker
//! whose group is dry takes a sibling group's *best* entry and, finding
//! none, spins off the lock and looks again under it before it parks.
//!
//! Failure story (the chaos soak beats on it): every job runs inside
//! `catch_unwind` ([`PoolStats::jobs_panicked`]); a worker that unwinds
//! anyway — the `pool.worker` fault site — catches itself at the top of
//! its thread and starts its loop again, name and CPU pin intact
//! ([`PoolStats::worker_respawns`]); and an admitted entry fires its
//! notifier when it is dropped, however that happens: after the job
//! ran, while its panic unwinds, unrun under an injected `Fail`, or in
//! the sweep `shutdown` makes once the workers are joined.

use altx::faults;
use altx::CachePadded;
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A unit of work for the pool.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

/// A completion notifier for [`WorkerPool::try_submit_notify`].
pub type Notify = Box<dyn FnOnce() + Send + 'static>;

/// How long a lower-priority lane may starve before aging promotes it
/// past a busier high-priority lane.
pub const DEFAULT_LANE_AGING: Duration = Duration::from_millis(25);

/// Default busy-wait budget before an idle stealing worker parks on its
/// condvar. ~20 µs covers the common "next request is already on the
/// wire" gap without burning a core through a real lull.
pub const DEFAULT_SPIN: Duration = Duration::from_micros(20);

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
/// best-effort job in the highest lane on group 0 — what every legacy
/// call site gets.
#[derive(Debug, Clone, Copy, Default)]
pub struct JobMeta {
    /// Absolute deadline. `None` means best-effort (wire
    /// `deadline_ms == 0`): the job sorts after every deadlined job and
    /// runs in the slack, in submission order.
    pub deadline: Option<Instant>,
    /// Priority lane, `0` highest. Clamped to the configured lane count.
    pub lane: usize,
    /// Preferred worker group — the submitting shard. Wrapped modulo the
    /// configured group count.
    pub group: usize,
}

impl JobMeta {
    /// Meta for a wire request: `deadline_ms == 0` is best-effort, any
    /// other value becomes an absolute deadline from now.
    pub fn for_request(deadline_ms: u32, lane: usize, group: usize) -> Self {
        let deadline = (deadline_ms > 0)
            .then(|| Instant::now() + Duration::from_millis(u64::from(deadline_ms)));
        JobMeta {
            deadline,
            lane,
            group,
        }
    }
}

/// Pool shape; [`PoolConfig::fifo`] is the everything-off default.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Worker threads.
    pub workers: usize,
    /// Total queued-job capacity across every group and lane.
    pub queue_depth: usize,
    /// Worker groups; workers are pinned round-robin. Clamped to
    /// `[1, workers]`.
    pub groups: usize,
    /// Priority lanes per group (`0` is highest priority). At least 1.
    pub lanes: usize,
    /// Cross-group stealing when a worker's own group runs dry.
    pub steal: bool,
    /// Starvation aging threshold; `Duration::ZERO` disables aging
    /// (pure strict priority).
    pub lane_aging: Duration,
    /// Busy-wait budget before an idle stealing worker parks.
    /// `Duration::ZERO` parks immediately.
    pub spin: Duration,
    /// CPU sets to pin each group's workers to (`pin_cores[group]`).
    /// `None` — the default — makes no affinity syscalls at all.
    pub pin_cores: Option<Vec<Vec<usize>>>,
}

impl PoolConfig {
    /// The legacy shape: one group, one lane, no stealing, no pinning.
    pub fn fifo(workers: usize, queue_depth: usize) -> Self {
        PoolConfig {
            workers,
            queue_depth,
            groups: 1,
            lanes: 1,
            steal: false,
            lane_aging: DEFAULT_LANE_AGING,
            spin: DEFAULT_SPIN,
            pin_cores: None,
        }
    }
}

/// Failure counters the pool maintains; shared with telemetry. Every
/// cell is cache-line padded: `busy` is bumped twice per job by every
/// worker and `steals`/`lane_depth` are written from multiple groups, so
/// without padding the counters would ping one shared line between
/// cores on the hottest path in the daemon.
#[derive(Debug, Default)]
pub struct PoolStats {
    jobs_panicked: CachePadded<AtomicU64>,
    worker_respawns: CachePadded<AtomicU64>,
    busy: CachePadded<AtomicU64>,
    steals: CachePadded<AtomicU64>,
    drain_scavenges: CachePadded<AtomicU64>,
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

    /// Jobs whose closure panicked (contained; the worker survived).
    pub fn jobs_panicked(&self) -> u64 {
        self.jobs_panicked.load(Ordering::Relaxed)
    }

    /// Times a worker unwound out of its loop and started it again.
    pub fn worker_respawns(&self) -> u64 {
        self.worker_respawns.load(Ordering::Relaxed)
    }

    /// Workers executing a job right now — a gauge, not a counter.
    /// Together with the queue depth this is the load figure peers
    /// exchange in heartbeats.
    pub fn busy(&self) -> u64 {
        self.busy.load(Ordering::Relaxed)
    }

    /// Jobs a dry worker took from a sibling group's queue while the
    /// pool was **open**: "did stealing rebalance live traffic?" without
    /// shutdown noise, which is [`PoolStats::drain_scavenges`].
    pub fn steals(&self) -> u64 {
        self.steals.load(Ordering::Relaxed)
    }

    /// Jobs taken from a sibling group while draining a *closed* pool,
    /// which ignores the steal flag so that orphaned queues still empty.
    pub fn drain_scavenges(&self) -> u64 {
        self.drain_scavenges.load(Ordering::Relaxed)
    }

    /// Queued jobs per priority lane, summed across groups — a gauge.
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

/// The groups whose condvar a submitter notifies once it has unlocked:
/// each with a sleeper that may run the entry it pushed. Usually empty.
type Wake = Vec<usize>;

/// Where a worker's next entry came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Source {
    Own,
    /// A sibling group, the pool open: a steal.
    Stolen,
    /// A sibling group, the pool closed: the drain crosses groups
    /// whether or not stealing is on.
    Scavenged,
}

/// What [`RunQueues::next`] tells a worker to do.
enum Next {
    Run {
        entry: Entry,
        from: Source,
    },
    /// Nothing to run, but this worker steals, so work for it can appear
    /// in any group: spend the spin budget off the lock, then look again.
    Spin,
    /// Nothing to run: sleep on the group's condvar. Already counted.
    Park,
    /// The pool is closed and every heap is empty.
    Exit,
}

/// A submission [`RunQueues::push`] refused, handed back whole so that
/// its closures are dropped — uncalled — after the lock, not under it.
type Refused = (SubmitError, Job, Option<Notify>);

/// The pool's scheduling state as a plain value: what is queued where,
/// who is asleep, and every rule that follows from the two — admission,
/// EDF / lane / aging order, stealing, whom to wake, when to exit. The
/// caller holds the lock and supplies the time.
struct RunQueues {
    /// `lanes[group][lane]`.
    lanes: Vec<Vec<BinaryHeap<Entry>>>,
    /// Entries queued per lane, summed across groups — what the
    /// lane-depth gauges show, and in total what `capacity` bounds.
    depth: Vec<usize>,
    /// Workers per group asleep on the group's condvar.
    parked: Vec<usize>,
    capacity: usize,
    steal: bool,
    lane_aging: Duration,
    seq: u64,
    closed: bool,
}

impl RunQueues {
    fn new(config: &PoolConfig) -> Self {
        let groups = config.groups.clamp(1, config.workers);
        let lanes = config.lanes.max(1);
        let heaps = |_| (0..lanes).map(|_| BinaryHeap::new()).collect();
        RunQueues {
            lanes: (0..groups).map(heaps).collect(),
            depth: vec![0; lanes],
            parked: vec![0; groups],
            capacity: config.queue_depth,
            steal: config.steal,
            lane_aging: config.lane_aging,
            seq: 0,
            closed: false,
        }
    }

    /// Entries queued across every group and lane.
    fn queued(&self) -> usize {
        self.depth.iter().sum()
    }

    /// Admits `job` under `meta`, or refuses it and changes nothing.
    fn push(
        &mut self,
        meta: JobMeta,
        job: Job,
        notify: Option<Notify>,
        now: Instant,
    ) -> Result<Wake, Refused> {
        if self.closed {
            return Err((SubmitError::ShuttingDown, job, notify));
        }
        if self.queued() >= self.capacity {
            return Err((SubmitError::Overloaded, job, notify));
        }
        let n = self.lanes.len();
        let group = meta.group % n;
        let lane = meta.lane.min(self.depth.len() - 1);
        self.lanes[group][lane].push(Entry {
            deadline: meta.deadline,
            seq: self.seq,
            enqueued: now,
            job,
            notify: NotifyOnDrop(notify),
        });
        self.seq += 1;
        self.depth[lane] += 1;
        let may_run = |g: &usize| self.parked[*g] > 0 && (*g == group || self.steal);
        Ok((0..n).filter(may_run).collect())
    }

    /// Takes the entry one group's lanes would run next: from the
    /// highest priority non-empty lane, unless starvation aging promotes
    /// a lower lane that has an entry waiting past the threshold. Within
    /// the chosen lane, EDF order (the heap's max = earliest deadline,
    /// best-effort last, FIFO among equals).
    fn take_best(&mut self, group: usize, now: Instant) -> Option<Entry> {
        let aging = self.lane_aging;
        let lanes = &mut self.lanes[group];
        let strict = lanes.iter().position(|l| !l.is_empty())?;
        let mut pick = strict;
        if !aging.is_zero() {
            for (i, lane) in lanes.iter().enumerate().skip(strict + 1) {
                if lane.iter().any(|e| now.duration_since(e.enqueued) >= aging) {
                    pick = i;
                    break;
                }
            }
        }
        let entry = lanes[pick].pop()?;
        self.depth[pick] -= 1;
        Some(entry)
    }

    /// One look for a worker of `group`: the best entry of the first
    /// group that has one, round-robin from its own and — unless stealing
    /// is on or the pool closed — no further; failing that, `Exit` on a
    /// closed pool. On an open one a stealing worker with siblings that
    /// has not `spun` since it last slept or ran is told to `Spin`; any
    /// other is counted asleep here, before the lock is released — so
    /// every later push names its group in the [`Wake`] — and told to
    /// `Park`.
    fn next(&mut self, group: usize, now: Instant, spun: bool) -> Next {
        let n = self.lanes.len();
        let reach = if self.steal || self.closed { n } else { 1 };
        for i in 0..reach {
            if let Some(entry) = self.take_best((group + i) % n, now) {
                let from = match (i, self.closed) {
                    (0, _) => Source::Own,
                    (_, false) => Source::Stolen,
                    (_, true) => Source::Scavenged,
                };
                return Next::Run { entry, from };
            }
        }
        if self.closed {
            return Next::Exit;
        }
        if self.steal && n > 1 && !spun {
            return Next::Spin;
        }
        self.parked[group] += 1;
        Next::Park
    }

    /// A worker of `group` told to `Park` is awake again, notified or not.
    fn unpark(&mut self, group: usize) {
        self.parked[group] -= 1;
    }

    /// Refuses every later push; from here `next` crosses groups and
    /// answers `Exit` instead of `Park`.
    fn close(&mut self) {
        self.closed = true;
    }

    /// Empties every heap, handing the entries to the caller to drop.
    fn drain(&mut self) -> Vec<Entry> {
        self.depth.fill(0);
        let heaps = self.lanes.iter_mut().flatten();
        heaps.flat_map(|heap| heap.drain()).collect()
    }
}

/// State shared between the pool handle and its workers.
struct Shared {
    /// The monitor's lock: the only one that guards queue state.
    queues: Mutex<RunQueues>,
    /// `available[group]` is where the group's idle workers sleep.
    available: Vec<Condvar>,
    /// `RunQueues::queued`, copied out for [`WorkerPool::queued`] and the
    /// spin, which must not take the lock. A statistic that publishes
    /// nothing else, hence `Relaxed`; padded for the spinners' polling.
    queued: CachePadded<AtomicUsize>,
    /// Busy-wait budget of a worker told to [`Next::Spin`].
    spin: Duration,
    /// Per-group CPU pin sets; `None` = never touch affinity.
    pin_cores: Option<Vec<Vec<usize>>>,
    stats: Arc<PoolStats>,
}

impl Shared {
    /// No job, notifier or destructor of either runs under this lock, so
    /// a poisoned guard still protects consistent queues.
    fn lock(&self) -> MutexGuard<'_, RunQueues> {
        self.queues.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Copies out the counts that are read without the lock. Called with
    /// it held, after every change: a reader may see a count a moment
    /// old, never one the queues did not have.
    fn publish(&self, queues: &RunQueues) {
        self.queued.store(queues.queued(), Ordering::Relaxed);
        for (gauge, &depth) in self.stats.lane_depth.iter().zip(&queues.depth) {
            gauge.store(depth as u64, Ordering::Relaxed);
        }
    }

    fn submit(&self, job: Job, notify: Option<Notify>, meta: JobMeta) -> Result<(), SubmitError> {
        let now = Instant::now();
        let mut queues = self.lock();
        let pushed = queues.push(meta, job, notify, now);
        self.publish(&queues);
        drop(queues);
        let wake = pushed.map_err(|(why, _job, _notify)| why)?;
        for group in wake {
            self.available[group].notify_one();
        }
        Ok(())
    }
}

/// A fixed set of worker threads over bounded per-group run queues.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    n_workers: usize,
}

impl WorkerPool {
    /// Spawns `workers` threads over a single FIFO-equivalent run queue
    /// of depth `queue_depth`. This is the legacy shape; see
    /// [`WorkerPool::with_config`] for groups/lanes/stealing.
    pub fn new(workers: usize, queue_depth: usize) -> Self {
        WorkerPool::with_config(PoolConfig::fifo(workers, queue_depth))
    }

    /// Spawns the configured pool: `config.workers` threads pinned
    /// round-robin across `config.groups` groups, each group holding
    /// `config.lanes` EDF heaps.
    pub fn with_config(config: PoolConfig) -> Self {
        assert!(config.workers > 0, "need at least one worker");
        let queues = RunQueues::new(&config);
        let (n_groups, n_lanes) = (queues.parked.len(), queues.depth.len());
        let shared = Arc::new(Shared {
            queues: Mutex::new(queues),
            available: (0..n_groups).map(|_| Condvar::new()).collect(),
            queued: CachePadded::new(AtomicUsize::new(0)),
            spin: config.spin,
            pin_cores: config.pin_cores,
            stats: Arc::new(PoolStats::with_lanes(n_lanes)),
        });
        let workers = (0..config.workers)
            .map(|i| spawn_worker(&shared, i % n_groups, i))
            .collect();
        WorkerPool {
            shared,
            workers: Mutex::new(workers),
            n_workers: config.workers,
        }
    }

    /// Enqueues a best-effort job without blocking; refuses when full or
    /// closed.
    pub fn try_submit(&self, job: Job) -> Result<(), SubmitError> {
        self.try_submit_at(job, JobMeta::default())
    }

    /// Enqueues a job under `meta`'s deadline/lane/group without
    /// blocking; refuses when full or closed.
    pub fn try_submit_at(&self, job: Job, meta: JobMeta) -> Result<(), SubmitError> {
        self.shared.submit(job, None, meta)
    }

    /// Enqueues a best-effort job with a completion notifier; see
    /// [`WorkerPool::try_submit_notify_at`].
    pub fn try_submit_notify(&self, job: Job, notify: Notify) -> Result<(), SubmitError> {
        self.try_submit_notify_at(job, notify, JobMeta::default())
    }

    /// Enqueues a job with a completion notifier under `meta`'s
    /// deadline/lane/group. The pool guarantees `notify` runs **exactly
    /// once** for an admitted job — after the job returns, while its
    /// panic unwinds, or when the pool drops the job unrun (an injected
    /// `Fail` fault, or the shutdown sweep of a queue no worker
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

    /// Jobs currently queued (not yet picked up by a worker), across
    /// every group and lane.
    pub fn queued(&self) -> usize {
        self.shared.queued.load(Ordering::Relaxed)
    }

    /// Workers executing a job right now.
    pub fn busy(&self) -> u64 {
        self.shared.stats.busy()
    }

    /// Worker threads the pool was sized for.
    pub fn workers(&self) -> usize {
        self.n_workers
    }

    /// Worker groups the pool was configured with.
    pub fn groups(&self) -> usize {
        self.shared.available.len()
    }

    /// Priority lanes per group.
    pub fn lanes(&self) -> usize {
        self.shared.stats.lane_depth.len()
    }

    /// The pool's failure counters, shareable with telemetry. The
    /// `Arc` keeps the counters readable after `shutdown`.
    pub fn stats(&self) -> Arc<PoolStats> {
        Arc::clone(&self.shared.stats)
    }

    /// Closes the queues and joins every worker after the jobs already
    /// admitted drain. Idempotent: later calls find no workers left.
    /// Never panics — a poisoned lock is recovered and a worker restarts
    /// itself rather than die. Should a worker thread be lost all the
    /// same, what is still queued once the rest are joined is swept
    /// here: an entry dropped unrun still fires its notifier.
    pub fn shutdown(&self) {
        self.shared.lock().close();
        for sleepers in &self.shared.available {
            sleepers.notify_all();
        }
        let workers =
            std::mem::take(&mut *self.workers.lock().unwrap_or_else(PoisonError::into_inner));
        for worker in workers {
            let _ = worker.join();
        }
        let mut queues = self.shared.lock();
        let leftovers = queues.drain();
        self.shared.publish(&queues);
        drop(queues);
        drop(leftovers); // off the lock: each drop may run a notifier
    }
}

/// Blocking pop for a worker of `group`: `None` only when the pool is
/// closed and every queue is drained.
fn pop(shared: &Shared, group: usize) -> Option<Entry> {
    let mut spun = false;
    let mut queues = shared.lock();
    loop {
        match queues.next(group, Instant::now(), spun) {
            Next::Run { entry, from } => {
                shared.publish(&queues);
                drop(queues);
                let counter = match from {
                    Source::Own => return Some(entry),
                    Source::Stolen => &shared.stats.steals,
                    Source::Scavenged => &shared.stats.drain_scavenges,
                };
                counter.fetch_add(1, Ordering::Relaxed);
                return Some(entry);
            }
            Next::Exit => return None,
            Next::Spin => {
                // Busy-wait, off the lock, for work to appear anywhere in
                // the pool. However it ends, the next look is locked.
                drop(queues);
                let start = Instant::now();
                while shared.queued.load(Ordering::Relaxed) == 0 && start.elapsed() < shared.spin {
                    std::hint::spin_loop();
                }
                queues = shared.lock();
                spun = true;
            }
            Next::Park => {
                queues = shared.available[group]
                    .wait(queues)
                    .unwrap_or_else(PoisonError::into_inner);
                queues.unpark(group);
                spun = false;
            }
        }
    }
}

fn spawn_worker(shared: &Arc<Shared>, group: usize, index: usize) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(format!("altxd-worker-g{group}-{index}"))
        .spawn(move || {
            // Jobs wait on clocks (bodies, deadlines, hedge releases),
            // and so do the racers this thread will spawn.
            crate::reactor::tighten_timer_slack();
            // Pin before consuming anything, so that the jobs this worker
            // runs (and the memory they first-touch) land on the group's
            // cores from the first pop. A refusal logs and runs unpinned.
            if let Some(cpus) = shared.pin_cores.as_ref().and_then(|sets| sets.get(group)) {
                crate::pin::pin_current_thread(&format!("worker-g{group}"), cpus);
            }
            // A worker heals itself. Whatever unwinds out of the loop —
            // it holds no entry and no lock when it does — the same
            // thread starts the loop again; it returns only once the
            // pool is closed and drained.
            while catch_unwind(AssertUnwindSafe(|| worker_loop(&shared, group))).is_err() {
                shared.stats.worker_respawns.fetch_add(1, Ordering::Relaxed);
            }
        })
        .expect("spawn worker")
}

fn worker_loop(shared: &Shared, group: usize) {
    loop {
        // Fault site `pool.worker`: an injected panic here is *not*
        // contained by `run_job` — it unwinds the whole loop. Sits
        // before the pop so no admitted job is lost with it.
        if faults::enabled() {
            let _ = faults::inject("pool.worker", None);
        }
        match pop(shared, group) {
            Some(entry) => run_job(entry, shared),
            None => break, // closed and drained
        }
    }
}

fn run_job(entry: Entry, shared: &Shared) {
    shared.stats.busy.fetch_add(1, Ordering::Relaxed);
    // Fault site `pool.job` sits inside the contained region: an
    // injected panic is indistinguishable from the job itself crashing,
    // and `Fail` drops the entry unrun (its notifier fires with no
    // outcome, which the server answers rather than awaits forever).
    let outcome = catch_unwind(AssertUnwindSafe(move || {
        if faults::enabled() && faults::inject("pool.job", None) == faults::Verdict::Fail {
            return;
        }
        entry.run();
    }));
    // The gauge decrement sits outside the contained region, so a
    // panicking job never leaves a phantom busy worker behind.
    shared.stats.busy.fetch_sub(1, Ordering::Relaxed);
    if outcome.is_err() {
        shared.stats.jobs_panicked.fetch_add(1, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("queued", &self.queued())
            .field("groups", &self.groups())
            .field("lanes", &self.lanes())
            .field("jobs_panicked", &self.shared.stats.jobs_panicked())
            .field("worker_respawns", &self.shared.stats.worker_respawns())
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
        assert_eq!(
            pool.stats().worker_respawns(),
            0,
            "contained panics never cost a worker"
        );
    }

    #[test]
    fn notify_fires_once_after_job_runs() {
        let pool = WorkerPool::new(2, 8);
        let fired = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = mpsc::channel();
        {
            let fired = Arc::clone(&fired);
            pool.try_submit_notify(
                Box::new(|| {}),
                Box::new(move || {
                    fired.fetch_add(1, Ordering::SeqCst);
                    tx.send(()).expect("receiver alive");
                }),
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
        pool.try_submit_notify(
            Box::new(|| panic!("job crashed")),
            Box::new(move || tx.send(()).expect("receiver alive")),
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
            pool.try_submit_notify(
                Box::new(|| {}),
                Box::new(move || {
                    fired.fetch_add(1, Ordering::SeqCst);
                }),
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

    /// A worker of the schedule property, standing where `pop` can stand
    /// between two holds of the lock.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Worker {
        /// About to look.
        Awake,
        /// Told to spin: the lock is released, and its next look may
        /// park it.
        Spun,
        /// Counted asleep; `notified` once a `Wake`, or the close, has
        /// reached it.
        Asleep {
            notified: bool,
        },
        Exited,
    }

    /// What the property remembers of one admitted entry; `seq` is its
    /// index.
    struct Admitted {
        group: usize,
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
        groups: usize,
        lanes: usize,
        capacity: usize,
        steal: bool,
        aging: Duration,
        /// `workers[i]` belongs to group `i % groups`, as `with_config`
        /// deals them.
        workers: Vec<Worker>,
        admitted: Vec<Admitted>,
        closed: bool,
        epoch: Instant,
        now: Instant,
    }

    impl Schedule {
        fn queued_in(
            &self,
            group: usize,
            lane: usize,
        ) -> impl Iterator<Item = (usize, &Admitted)> + '_ {
            let here = move |a: &Admitted| a.queued && a.group == group && a.lane == lane;
            self.admitted
                .iter()
                .enumerate()
                .filter(move |(_, a)| here(a))
        }

        /// May a worker of `group` run an entry queued in `home`?
        fn allowed(&self, group: usize, home: usize) -> bool {
            group == home || self.steal || self.closed
        }

        /// The entry a worker of `group` must be handed now, worked out
        /// from the rules: own group first, then — stealing or closed —
        /// the siblings round-robin; strict lane priority unless a lower
        /// lane holds an entry older than the aging threshold; in the
        /// lane, earliest deadline, best-effort last, FIFO among equals.
        fn expected(&self, group: usize) -> Option<(usize, Source)> {
            let sources = (0..self.groups).map(|i| (group + i) % self.groups);
            sources
                .filter(|&home| self.allowed(group, home))
                .find_map(|home| {
                    let strict =
                        (0..self.lanes).find(|&l| self.queued_in(home, l).next().is_some())?;
                    let old = |a: &Admitted| self.now.duration_since(a.enqueued) >= self.aging;
                    let aged = (strict + 1..self.lanes).find(|&l| {
                        !self.aging.is_zero() && self.queued_in(home, l).any(|(_, a)| old(a))
                    });
                    let (seq, _) = self
                        .queued_in(home, aged.unwrap_or(strict))
                        .min_by_key(|&(seq, a)| (a.deadline.is_none(), a.deadline, seq))?;
                    let from = match (home == group, self.closed) {
                        (true, _) => Source::Own,
                        (false, false) => Source::Stolen,
                        (false, true) => Source::Scavenged,
                    };
                    Some((seq, from))
                })
        }

        /// `notify_one` on `group`'s condvar: one sleeper not yet
        /// notified, if there is one, is.
        fn notify_one(&mut self, group: usize) {
            let groups = self.groups;
            let sleeper =
                self.workers.iter_mut().enumerate().find(|(i, w)| {
                    i % groups == group && **w == Worker::Asleep { notified: false }
                });
            if let Some((_, w)) = sleeper {
                *w = Worker::Asleep { notified: true };
            }
        }

        fn push(&mut self, rng: &mut CaseRng) {
            // Out-of-range groups wrap, out-of-range lanes clamp, and a
            // few coarse deadlines (some already past) make ties common.
            let meta = JobMeta {
                deadline: rng
                    .option(0.6, |r| Duration::from_millis(20 * r.u64_below(5)))
                    .map(|d| self.epoch + d),
                lane: rng.usize_in(0, self.lanes + 1),
                group: rng.usize_in(0, 2 * self.groups),
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
            let before = (self.heap_sizes(), self.queues.seq);
            let refusal = if self.closed {
                Some(SubmitError::ShuttingDown)
            } else if self.admitted.iter().filter(|a| a.queued).count() >= self.capacity {
                Some(SubmitError::Overloaded)
            } else {
                None
            };
            match self.queues.push(meta, job, notify, self.now) {
                Err((why, job, notify)) => {
                    assert_eq!(Some(why), refusal);
                    assert_eq!(before, (self.heap_sizes(), self.queues.seq));
                    drop((job, notify));
                    let calls = ran.load(Ordering::SeqCst)
                        + notified.map_or(0, |n| n.load(Ordering::SeqCst));
                    assert_eq!(calls, 0, "a refusal runs nothing and notifies nobody");
                }
                Ok(wake) => {
                    assert_eq!(refusal, None, "admitted a push that had to be refused");
                    let home = meta.group % self.groups;
                    self.admitted.push(Admitted {
                        group: home,
                        lane: meta.lane.min(self.lanes - 1),
                        deadline: meta.deadline,
                        enqueued: self.now,
                        queued: true,
                        ran,
                        notified,
                    });
                    // No lost wake-up, no wasted one: the wake names
                    // exactly the groups with a sleeper allowed to run
                    // the entry.
                    let want: Vec<usize> = (0..self.groups)
                        .filter(|&g| self.allowed(g, home) && self.queues.parked[g] > 0)
                        .collect();
                    assert_eq!(wake, want, "wake set after a push to group {home}");
                    for group in wake {
                        self.notify_one(group);
                    }
                }
            }
        }

        /// Worker `w` takes the lock once and does what `pop` does with
        /// one hold of it.
        fn step(&mut self, w: usize, rng: &mut CaseRng) {
            let group = w % self.groups;
            match self.workers[w] {
                Worker::Exited => return,
                // A sleeper gets up when notified — or, now and then,
                // for no reason at all.
                Worker::Asleep { notified } if !notified && !rng.chance(0.1) => return,
                Worker::Asleep { .. } => self.queues.unpark(group),
                Worker::Awake | Worker::Spun => {}
            }
            let spun = self.workers[w] == Worker::Spun;
            let expected = self.expected(group);
            self.workers[w] = match self.queues.next(group, self.now, spun) {
                Next::Run { entry, from } => {
                    assert_eq!(Some((entry.seq as usize, from)), expected);
                    self.take(entry, rng.bool());
                    Worker::Awake
                }
                idle @ (Next::Spin | Next::Park) => {
                    assert!(expected.is_none() && !self.closed, "idle beside work");
                    // Only a worker that can steal spins, and only once
                    // per idle spell.
                    let spins = self.steal && self.groups > 1 && !spun;
                    assert_eq!(matches!(idle, Next::Spin), spins);
                    if spins {
                        Worker::Spun
                    } else {
                        Worker::Asleep { notified: false }
                    }
                }
                Next::Exit => {
                    assert!(self.closed, "exit from an open pool");
                    assert!(self.admitted.iter().all(|a| !a.queued), "exit beside work");
                    Worker::Exited
                }
            };
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
            for w in &mut self.workers {
                if matches!(w, Worker::Asleep { .. }) {
                    *w = Worker::Asleep { notified: true }; // notify_all
                }
            }
        }

        fn heap_sizes(&self) -> Vec<Vec<usize>> {
            let sizes =
                |group: &Vec<BinaryHeap<Entry>>| group.iter().map(BinaryHeap::len).collect();
            self.queues.lanes.iter().map(sizes).collect()
        }

        /// What must hold between any two holds of the lock.
        fn check_invariants(&self) {
            let sizes = self.heap_sizes();
            for (g, group) in sizes.iter().enumerate() {
                for (l, &size) in group.iter().enumerate() {
                    assert_eq!(size, self.queued_in(g, l).count(), "heap {g}/{l}");
                }
                let asleep = |(i, w): (usize, &Worker)| {
                    i % self.groups == g && matches!(w, Worker::Asleep { .. })
                };
                let sleepers = self.workers.iter().enumerate().filter(|&w| asleep(w));
                assert_eq!(self.queues.parked[g], sleepers.count(), "parked[{g}]");
            }
            // The lane-depth gauges are published from `depth`.
            for (l, &depth) in self.queues.depth.iter().enumerate() {
                assert_eq!(depth, sizes.iter().map(|group| group[l]).sum::<usize>());
            }
            assert!(self.queues.queued() <= self.capacity);
            // No queued entry is left to sleepers nobody has woken: in
            // every group allowed to run it, some worker is up (possibly
            // busy) or has been notified.
            for a in self.admitted.iter().filter(|a| a.queued) {
                for g in (0..self.groups).filter(|&g| self.allowed(g, a.group)) {
                    let will_look = |(i, w): (usize, &Worker)| {
                        i % self.groups == g
                            && !matches!(w, Worker::Asleep { notified: false } | Worker::Exited)
                    };
                    assert!(
                        self.workers.iter().enumerate().any(will_look),
                        "an entry of group {} waits while group {g} sleeps unwoken: {:?}",
                        a.group,
                        self.workers
                    );
                }
            }
        }
    }

    /// The run queues' whole contract, over 2 500 seeded schedules of
    /// everything submitters, workers, the clock and `shutdown` can do
    /// to them — no thread, no real time: capacity holds and a refusal
    /// changes nothing; every admitted entry comes out exactly once, in
    /// EDF / lane / aging order, to a worker allowed to run it; a push
    /// wakes every group with a sleeper that could run it; a worker
    /// exits only from a closed, empty pool; the gauges match the heaps.
    #[test]
    fn any_schedule_runs_every_admitted_entry_once() {
        let epoch = Instant::now();
        check("run_queues_schedules", 2_500, |rng| {
            let groups = rng.usize_in(1, 4);
            let lanes = rng.usize_in(1, 4);
            let capacity = rng.usize_in(0, 8);
            let steal = rng.bool();
            let aging = Duration::from_millis(*rng.pick(&[0, 5, 25]));
            let workers = rng.usize_in(groups, 2 * groups + 1);
            let mut s = Schedule {
                queues: RunQueues::new(&PoolConfig {
                    groups,
                    lanes,
                    steal,
                    lane_aging: aging,
                    ..PoolConfig::fifo(workers, capacity)
                }),
                groups,
                lanes,
                capacity,
                steal,
                aging,
                workers: vec![Worker::Awake; workers],
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
                } else if rng.chance(0.4) {
                    s.push(rng);
                } else {
                    s.step(rng.usize_in(0, s.workers.len()), rng);
                }
                s.check_invariants();
            }
            // `shutdown`: close, let the workers drain until the last has
            // exited — or lose them all and sweep what they left.
            s.close();
            if rng.chance(0.7) {
                while s.workers.iter().any(|w| *w != Worker::Exited) {
                    s.step(rng.usize_in(0, s.workers.len()), rng);
                    s.check_invariants();
                }
            }
            for entry in s.queues.drain() {
                s.take(entry, false);
            }
            s.check_invariants();
            assert!(s.admitted.iter().all(|a| !a.queued));
        });
    }
}
