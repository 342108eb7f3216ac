//! Deadline-aware worker pool: per-group EDF run queues, priority lanes
//! with starvation aging, work stealing, load shedding, panic
//! containment, and a supervisor that respawns dead workers.
//!
//! Connections never execute races themselves: they enqueue a job and
//! wait for its reply. Capacity is bounded across all queues, and
//! `try_submit` refuses — it never blocks — when the pool is full, which
//! is the daemon's overload backstop: a full pool means queueing deeper
//! would only convert overload into latency. Shutdown closes the queues;
//! workers drain every admitted job before exiting, so accepted requests
//! are always answered.
//!
//! Scheduling (all of it off by default — the default configuration is
//! one group, one lane, no stealing, which is byte-for-byte the old FIFO
//! channel):
//!
//! * **EDF order** — each run queue is a binary heap on the job's
//!   *absolute* deadline. A job whose wire deadline was `0` carries no
//!   deadline ([`JobMeta::deadline`] = `None`) and sorts after every
//!   deadlined job: best-effort work runs in the slack. Ties (and the
//!   all-best-effort case) fall back to submission order, so with no
//!   deadlines in play the heap degrades to exactly the old FIFO.
//! * **Priority lanes** — each group holds one heap per lane; a pop
//!   serves the highest-priority non-empty lane. Starvation aging keeps
//!   strict priority from being absolute: once any entry in a lower
//!   lane has waited longer than the aging threshold, that lane is
//!   served next even though a higher lane has work.
//! * **Worker groups + stealing** — workers are pinned round-robin to
//!   groups (one per shard when stealing is on) and pop their own
//!   group's queue first. With stealing enabled, a worker whose group
//!   runs dry takes the victim group's *best* entry — same lane-then-EDF
//!   selection a local pop would make, so a steal never inverts
//!   priority.
//!
//! On the way back, the completion notifier is the whole reply path:
//! the worker thread encodes the winning `Response` once into a
//! shard-local ring slot (`ring.rs`), locks the connection's write half
//! (`conn.rs`) and writes to the socket straight from the slot — never
//! re-encoding or copying the reply, and never handing it to another
//! thread.
//!
//! Failure story (this is the layer the chaos soak beats on):
//!
//! * every job runs inside `catch_unwind` — a panicking job is counted
//!   ([`PoolStats::jobs_panicked`]) and the worker keeps consuming;
//! * a **supervisor** thread watches for workers that died anyway (a
//!   fault-injected kill at the `pool.worker` site, or a panic that
//!   somehow escaped containment) and respawns them — and it keeps
//!   doing so through shutdown until the queues are empty, so a drain
//!   can never stall on a dead worker set
//!   ([`PoolStats::worker_respawns`]);
//! * `shutdown` recovers poisoned locks instead of propagating them,
//!   and after the workers are joined it sweeps every lane of every
//!   group: a queued-but-never-run job is dropped there, which fires
//!   its completion notifier through the exactly-once "worker lost"
//!   path instead of vanishing silently.

use altx::faults;
use altx::CachePadded;
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
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

/// How often a worker draining a *closed* pool re-scans sibling groups.
/// Only the shutdown drain polls: entries can be transiently in flight
/// (popped but not yet subtracted from `queued`) with no future push to
/// ring the doorbell, so the drain path keeps a timeout. The steady
/// state idle path is notify-driven — see [`pop`]'s doorbell protocol.
const STEAL_POLL: Duration = Duration::from_millis(1);

/// Default busy-wait budget before an idle stealing worker parks on its
/// condvar. ~20 µs covers the common "next request is already on the
/// wire" gap without burning a core through a real lull.
pub const DEFAULT_SPIN: Duration = Duration::from_micros(20);

/// Fires its notifier exactly once — when dropped, whether that drop
/// happens after the job returned, while a panic unwinds through it,
/// or because the pool discarded the job unrun.
struct NotifyOnDrop {
    armed: Arc<AtomicBool>,
    notify: Option<Notify>,
}

impl Drop for NotifyOnDrop {
    fn drop(&mut self) {
        if self.armed.load(Ordering::SeqCst) {
            if let Some(f) = self.notify.take() {
                f();
            }
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

/// Pool shape. [`PoolConfig::fifo`] is the default everything-off
/// configuration: one group, one lane, no stealing — the classic
/// bounded FIFO channel.
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
    /// CPU sets to pin each group's workers to (`pin_cores[group]`);
    /// the supervisor pins to the union. `None` — the default — makes
    /// no affinity syscalls at all.
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
/// worker and `steals`/`lane_depth` are bumped from multiple groups, so
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

    /// Workers found dead by the supervisor and replaced.
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
    /// pool was **open** — cross-group stealing under load. Scavenges
    /// made while draining a closed pool are counted separately
    /// ([`PoolStats::drain_scavenges`]), so this number answers "did
    /// stealing rebalance live traffic?" without shutdown noise.
    pub fn steals(&self) -> u64 {
        self.steals.load(Ordering::Relaxed)
    }

    /// Jobs taken from a sibling group while draining a *closed* pool
    /// (shutdown scavenging, which ignores the steal flag so orphaned
    /// queues still empty).
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

/// One queued job: the EDF heap entry. Max-heap semantics — the entry
/// that should run *first* compares greatest: earlier deadline beats
/// later, any deadline beats best-effort, and ties break to the lower
/// submission sequence so equal-deadline (and all-best-effort) work
/// stays FIFO.
struct Entry {
    deadline: Option<Instant>,
    seq: u64,
    enqueued: Instant,
    job: Job,
}

impl Entry {
    fn key_cmp(&self, other: &Entry) -> std::cmp::Ordering {
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
        self.key_cmp(other)
    }
}

/// One worker group: a heap per lane behind one lock, the condvar its
/// pinned workers park on, and the group's half of the steal doorbell.
/// Groups are stored `CachePadded` so one group's queue head and
/// `parked` count never share a line with its neighbour's.
struct Group {
    lanes: Mutex<Vec<BinaryHeap<Entry>>>,
    available: Condvar,
    /// Workers of this group currently parked in [`pop`]'s condvar
    /// wait. Pushers elsewhere read it to decide whether a cross-group
    /// doorbell notify is needed; see the protocol notes in [`pop`].
    parked: AtomicUsize,
}

impl Group {
    fn new(lanes: usize) -> Self {
        Group {
            lanes: Mutex::new((0..lanes).map(|_| BinaryHeap::new()).collect()),
            available: Condvar::new(),
            parked: AtomicUsize::new(0),
        }
    }
}

/// State shared between the pool handle, its workers, and the
/// supervisor.
struct Shared {
    groups: Vec<CachePadded<Group>>,
    /// Total queued jobs across every group and lane, bounded by
    /// `capacity`. Reserved before the enqueue so the shed decision is
    /// race-free across groups. Padded: every push and pop in every
    /// group hits it.
    queued: CachePadded<AtomicUsize>,
    capacity: usize,
    steal: bool,
    lane_aging: Duration,
    /// Cross-group work doorbell: bumped by every push while stealing
    /// is on. An idle worker records it before scanning siblings and
    /// refuses to park if it moved — the push/park SeqCst handshake in
    /// [`pop`] makes a lost wakeup impossible.
    steal_epoch: CachePadded<AtomicU64>,
    /// Busy-wait budget before an idle stealing worker parks.
    spin: Duration,
    /// Per-group CPU pin sets; `None` = never touch affinity.
    pin_cores: Option<Vec<Vec<usize>>>,
    seq: AtomicU64,
    closed: AtomicBool,
    workers: Mutex<Vec<WorkerSlot>>,
    stats: Arc<PoolStats>,
    shutting_down: AtomicBool,
}

struct WorkerSlot {
    group: usize,
    handle: JoinHandle<()>,
}

/// A fixed set of worker threads consuming bounded per-group run
/// queues, kept at strength by a supervisor.
pub struct WorkerPool {
    shared: Arc<Shared>,
    supervisor: Mutex<Option<JoinHandle<()>>>,
    n_workers: usize,
}

/// How often the supervisor sweeps for dead workers.
const SUPERVISE_EVERY: Duration = Duration::from_millis(5);

impl WorkerPool {
    /// Spawns `workers` threads over a single FIFO-equivalent run queue
    /// of depth `queue_depth`, plus the supervisor. This is the legacy
    /// shape; see [`WorkerPool::with_config`] for groups/lanes/stealing.
    pub fn new(workers: usize, queue_depth: usize) -> Self {
        WorkerPool::with_config(PoolConfig::fifo(workers, queue_depth))
    }

    /// Spawns the configured pool: `config.workers` threads pinned
    /// round-robin across `config.groups` groups, each group holding
    /// `config.lanes` EDF heaps.
    pub fn with_config(config: PoolConfig) -> Self {
        assert!(config.workers > 0, "need at least one worker");
        let n_groups = config.groups.clamp(1, config.workers);
        let n_lanes = config.lanes.max(1);
        let shared = Arc::new(Shared {
            groups: (0..n_groups)
                .map(|_| CachePadded::new(Group::new(n_lanes)))
                .collect(),
            queued: CachePadded::new(AtomicUsize::new(0)),
            capacity: config.queue_depth,
            steal: config.steal,
            lane_aging: config.lane_aging,
            steal_epoch: CachePadded::new(AtomicU64::new(0)),
            spin: config.spin,
            pin_cores: config.pin_cores,
            seq: AtomicU64::new(0),
            closed: AtomicBool::new(false),
            workers: Mutex::new(Vec::with_capacity(config.workers)),
            stats: Arc::new(PoolStats::with_lanes(n_lanes)),
            shutting_down: AtomicBool::new(false),
        });
        {
            let mut slots = lock_workers(&shared);
            for i in 0..config.workers {
                let group = i % n_groups;
                slots.push(WorkerSlot {
                    group,
                    handle: spawn_worker(&shared, group, &format!("altxd-worker-g{group}-{i}")),
                });
            }
        }
        let supervisor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("altxd-supervisor".to_owned())
                .spawn(move || supervise(&shared))
                .expect("spawn supervisor")
        };
        WorkerPool {
            shared,
            supervisor: Mutex::new(Some(supervisor)),
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
        push(&self.shared, job, meta).map_err(|(_, e)| e)
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
    /// `Fail` fault, a worker killed mid-queue, or the shutdown sweep of
    /// a queue no worker drained). A refused submission never notifies:
    /// the `Err` return is the caller's signal.
    ///
    /// This is the reactor's bridge out of blocking-channel land: the
    /// notifier delivers the finished response to its connection from
    /// the worker itself, so no thread ever parks in `recv()` waiting
    /// for a race to finish.
    pub fn try_submit_notify_at(
        &self,
        job: Job,
        notify: Notify,
        meta: JobMeta,
    ) -> Result<(), SubmitError> {
        let armed = Arc::new(AtomicBool::new(true));
        let guard = NotifyOnDrop {
            armed: Arc::clone(&armed),
            notify: Some(notify),
        };
        let wrapped: Job = Box::new(move || {
            job();
            drop(guard); // unwind-safe: a panicking job still notifies
        });
        match push(&self.shared, wrapped, meta) {
            Ok(()) => Ok(()),
            Err((wrapped, e)) => {
                // Disarm *before* dropping the refused wrapper, or its
                // guard would report a loss for a job that was never
                // admitted.
                armed.store(false, Ordering::SeqCst);
                drop(wrapped);
                Err(e)
            }
        }
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
        self.shared.queued.load(Ordering::SeqCst)
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
        self.shared.groups.len()
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
    /// admitted drain, then joins the supervisor. Idempotent: later
    /// calls find no workers left. Never panics — poisoned locks and
    /// workers that died of a contained-but-escaped panic are both
    /// recovered, so shutdown always drains. Any job still queued after
    /// the workers are gone (every worker of a group lost at once) is
    /// swept here: dropping it unrun fires its notifier through the
    /// exactly-once "worker lost" path, so no admitted request is ever
    /// silently forgotten.
    pub fn shutdown(&self) {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        close(&self.shared);
        // The supervisor keeps respawning through the drain (it exits
        // once the queues are empty), so a dead worker set can never
        // strand queued jobs.
        let supervisor = self
            .supervisor
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some(s) = supervisor {
            let _ = s.join();
        }
        let slots: Vec<_> = lock_workers(&self.shared).drain(..).collect();
        for w in slots {
            // A worker killed by an injected fault panicked; that must
            // not abort the drain of its siblings.
            let _ = w.handle.join();
        }
        sweep_leftovers(&self.shared);
    }
}

/// Marks the queues closed. Cycling every group lock after the store
/// gives pushers a happens-before edge: once a push observes the lock a
/// closer held, it observes `closed` too.
fn close(shared: &Shared) {
    shared.closed.store(true, Ordering::SeqCst);
    for group in &shared.groups {
        drop(lock_lanes(group));
        group.available.notify_all();
    }
}

/// Drops every job still queued anywhere. Each dropped wrapper fires
/// its `NotifyOnDrop` guard — the "worker lost" completion.
fn sweep_leftovers(shared: &Shared) {
    for group in &shared.groups {
        let mut lanes = lock_lanes(group);
        for (lane_idx, lane) in lanes.iter_mut().enumerate() {
            while let Some(entry) = lane.pop() {
                shared.queued.fetch_sub(1, Ordering::SeqCst);
                if let Some(depth) = shared.stats.lane_depth.get(lane_idx) {
                    depth.fetch_sub(1, Ordering::Relaxed);
                }
                drop(entry.job);
            }
        }
    }
}

fn push(shared: &Shared, job: Job, meta: JobMeta) -> Result<(), (Job, SubmitError)> {
    if shared.closed.load(Ordering::SeqCst) {
        return Err((job, SubmitError::ShuttingDown));
    }
    // Reserve capacity before touching any lock: the bound is global
    // across groups and the shed decision must be race-free.
    let mut cur = shared.queued.load(Ordering::SeqCst);
    loop {
        if cur >= shared.capacity {
            return Err((job, SubmitError::Overloaded));
        }
        match shared
            .queued
            .compare_exchange_weak(cur, cur + 1, Ordering::SeqCst, Ordering::SeqCst)
        {
            Ok(_) => break,
            Err(seen) => cur = seen,
        }
    }
    let g = meta.group % shared.groups.len();
    let group = &shared.groups[g];
    let lane_idx;
    {
        let mut lanes = lock_lanes(group);
        // Re-check under the lock `close` cycles: after a close no new
        // job may land in a queue the workers might already have left.
        if shared.closed.load(Ordering::SeqCst) {
            shared.queued.fetch_sub(1, Ordering::SeqCst);
            return Err((job, SubmitError::ShuttingDown));
        }
        lane_idx = meta.lane.min(lanes.len() - 1);
        lanes[lane_idx].push(Entry {
            deadline: meta.deadline,
            seq: shared.seq.fetch_add(1, Ordering::SeqCst),
            enqueued: Instant::now(),
            job,
        });
    }
    if let Some(depth) = shared.stats.lane_depth.get(lane_idx) {
        depth.fetch_add(1, Ordering::Relaxed);
    }
    group.available.notify_one();
    ring_doorbell(shared, g);
    Ok(())
}

/// The push half of the steal doorbell: after a job lands in group `g`,
/// wake parked workers in sibling groups that could steal it. The
/// `SeqCst` bump-then-read here pairs with the parker's `SeqCst`
/// increment-then-read in [`pop`] (a store-buffer / Dekker handshake):
/// in the single total order either this push's epoch bump precedes the
/// parker's epoch read (the parker sees it and rescans instead of
/// parking) or the parker's `parked` increment precedes this read (we
/// see it and notify). The lock cycle before the notify orders it after
/// the parker's `wait` began, so the signal cannot fire into the gap
/// between "decided to park" and "parked".
///
/// Hot-path cost when nobody is parked: one `fetch_add` plus one padded
/// load per sibling — no locks.
fn ring_doorbell(shared: &Shared, g: usize) {
    let n = shared.groups.len();
    if !shared.steal || n <= 1 {
        return;
    }
    shared.steal_epoch.fetch_add(1, Ordering::SeqCst);
    for i in 1..n {
        let sibling = &shared.groups[(g + i) % n];
        if sibling.parked.load(Ordering::SeqCst) > 0 {
            drop(lock_lanes(sibling));
            sibling.available.notify_one();
        }
    }
}

/// Picks the next entry to run from one group's lanes: the highest
/// priority non-empty lane, unless starvation aging promotes a lower
/// lane that has an entry waiting past the threshold. Within the chosen
/// lane, EDF order (the heap's max = earliest deadline, best-effort
/// last, FIFO among equals).
fn select(
    lanes: &mut [BinaryHeap<Entry>],
    now: Instant,
    aging: Duration,
) -> Option<(usize, Entry)> {
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
    Some((pick, entry))
}

fn take_accounted(shared: &Shared, picked: (usize, Entry)) -> Entry {
    let (lane_idx, entry) = picked;
    shared.queued.fetch_sub(1, Ordering::SeqCst);
    if let Some(depth) = shared.stats.lane_depth.get(lane_idx) {
        depth.fetch_sub(1, Ordering::Relaxed);
    }
    entry
}

/// Scans sibling groups (round-robin from `g + 1`) for work, applying
/// the same lane-then-EDF selection a local pop would.
fn steal_from(shared: &Shared, g: usize) -> Option<Entry> {
    let n = shared.groups.len();
    for i in 1..n {
        let victim = &shared.groups[(g + i) % n];
        let mut lanes = lock_lanes(victim);
        if let Some(picked) = select(&mut lanes, Instant::now(), shared.lane_aging) {
            drop(lanes);
            return Some(take_accounted(shared, picked));
        }
    }
    None
}

/// Bounded busy-wait for work to appear anywhere in the pool. Returns
/// `true` as soon as `queued` goes nonzero (the caller re-locks and
/// re-scans), `false` when the budget expires without work. Lock-free:
/// the spinner watches the one padded global the push path always
/// bumps.
fn spin_for_work(shared: &Shared) -> bool {
    if shared.spin.is_zero() {
        return false;
    }
    let start = Instant::now();
    loop {
        if shared.queued.load(Ordering::Relaxed) > 0 {
            return true;
        }
        if start.elapsed() >= shared.spin {
            return false;
        }
        std::hint::spin_loop();
    }
}

/// Blocking pop for a worker pinned to group `g`. Returns `None` only
/// when the pool is closed and every queue it can reach is drained.
/// While draining a closed pool, workers steal across groups regardless
/// of the steal flag, so a group whose own workers died still empties.
///
/// The idle path is **spin-then-park**, notify-driven in steady state:
///
/// 1. note the doorbell epoch (under the group lock), scan the sibling
///    groups for a steal;
/// 2. on a dry scan, busy-wait up to the configured spin budget on the
///    global queue count — a job that arrives within the budget is
///    picked up without a syscall;
/// 3. park on the group condvar with `parked` incremented **under the
///    lock** and only if the epoch has not moved since step 1. The
///    pusher's bump-then-read ([`ring_doorbell`]) against this
///    increment-then-read means a push that lands mid-scan either
///    flips the epoch (we rescan) or sees us parked (it notifies) —
///    there is no interleaving that strands a job behind a parked
///    worker, so the park needs no timeout.
///
/// Only the *closed-pool drain* still polls ([`STEAL_POLL`]): with no
/// future pushes to ring the doorbell, `queued > 0` can be transiently
/// stale while the last entries are mid-pop, and a timeout is the
/// simple way to re-check without a shutdown-only signalling scheme.
fn pop(shared: &Shared, g: usize) -> Option<Job> {
    let group = &shared.groups[g];
    let mut guard = lock_lanes(group);
    loop {
        if let Some(picked) = select(&mut guard, Instant::now(), shared.lane_aging) {
            drop(guard);
            return Some(take_accounted(shared, picked).job);
        }
        let closed = shared.closed.load(Ordering::SeqCst);
        let scavenge = (shared.steal || closed) && shared.groups.len() > 1;
        if !scavenge {
            if closed {
                return None; // single reachable queue, empty: drained
            }
            guard = group
                .available
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
            continue;
        }
        // Doorbell epoch *before* leaving the lock: any push from here
        // on either post-dates this read (and will see us parked) or
        // moves the epoch (and we will refuse to park).
        let epoch = shared.steal_epoch.load(Ordering::SeqCst);
        drop(guard);
        if let Some(entry) = steal_from(shared, g) {
            // Classify by the *latest* close state: a close() that
            // raced in mid-scan makes this a drain scavenge, not a
            // load-balancing steal.
            if shared.closed.load(Ordering::SeqCst) {
                shared.stats.drain_scavenges.fetch_add(1, Ordering::Relaxed);
            } else {
                shared.stats.steals.fetch_add(1, Ordering::Relaxed);
            }
            return Some(entry.job);
        }
        if closed {
            if shared.queued.load(Ordering::SeqCst) == 0 {
                return None;
            }
            guard = lock_lanes(group);
            let (g2, _) = group
                .available
                .wait_timeout(guard, STEAL_POLL)
                .unwrap_or_else(PoisonError::into_inner);
            guard = g2;
            continue;
        }
        if spin_for_work(shared) {
            guard = lock_lanes(group);
            continue;
        }
        guard = lock_lanes(group);
        if shared.closed.load(Ordering::SeqCst) {
            continue; // close() raced the spin; take the drain path
        }
        group.parked.fetch_add(1, Ordering::SeqCst);
        if shared.steal_epoch.load(Ordering::SeqCst) != epoch {
            // A push landed somewhere since the scan — rescan, don't
            // park on a doorbell that already rang.
            group.parked.fetch_sub(1, Ordering::SeqCst);
            continue;
        }
        guard = group
            .available
            .wait(guard)
            .unwrap_or_else(PoisonError::into_inner);
        group.parked.fetch_sub(1, Ordering::SeqCst);
    }
}

fn lock_lanes(group: &Group) -> MutexGuard<'_, Vec<BinaryHeap<Entry>>> {
    group.lanes.lock().unwrap_or_else(PoisonError::into_inner)
}

fn lock_workers(shared: &Shared) -> MutexGuard<'_, Vec<WorkerSlot>> {
    shared
        .workers
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

fn spawn_worker(shared: &Arc<Shared>, group: usize, name: &str) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(name.to_owned())
        .spawn(move || worker_loop(&shared, group))
        .expect("spawn worker")
}

fn worker_loop(shared: &Shared, group: usize) {
    // Pin before consuming anything: the jobs this worker runs (and the
    // memory they first-touch) should land on the group's cores from
    // the very first pop. Best-effort — a refusal logs and the worker
    // runs unpinned.
    if let Some(sets) = &shared.pin_cores {
        if let Some(cpus) = sets.get(group) {
            crate::pin::pin_current_thread(&format!("worker-g{group}"), cpus);
        }
    }
    loop {
        // Fault site `pool.worker`: an injected panic here is *not*
        // contained — it kills this thread, which is the supervisor's
        // cue. Sits before the pop so no admitted job is lost with the
        // worker.
        if faults::enabled() {
            let _ = faults::inject("pool.worker", None);
        }
        match pop(shared, group) {
            Some(job) => run_job(job, shared),
            None => break, // closed and drained
        }
    }
}

fn run_job(job: Job, shared: &Shared) {
    shared.stats.busy.fetch_add(1, Ordering::Relaxed);
    // Fault site `pool.job` sits inside the contained region: an
    // injected panic is indistinguishable from the job itself crashing,
    // and `Fail` drops the job unrun (the submitter's reply channel
    // closes, which the server answers rather than awaits forever).
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if faults::enabled() && faults::inject("pool.job", None) == faults::Verdict::Fail {
            return;
        }
        job();
    }));
    // The gauge decrement sits outside the contained region, so a
    // panicking job never leaves a phantom busy worker behind.
    shared.stats.busy.fetch_sub(1, Ordering::Relaxed);
    if outcome.is_err() {
        shared.stats.jobs_panicked.fetch_add(1, Ordering::Relaxed);
    }
}

/// Sweeps the worker set, replacing dead threads. Keeps sweeping
/// through shutdown until the queues are empty: a drain must never
/// stall because the last worker of a group died.
fn supervise(shared: &Arc<Shared>) {
    // The supervisor is cold; pin it to the union of the pool's cores
    // so it never preempts a foreign shard's hot thread.
    if let Some(sets) = &shared.pin_cores {
        let mut union: Vec<usize> = sets.iter().flatten().copied().collect();
        union.sort_unstable();
        union.dedup();
        if !union.is_empty() {
            crate::pin::pin_current_thread("supervisor", &union);
        }
    }
    loop {
        if shared.shutting_down.load(Ordering::SeqCst) && shared.queued.load(Ordering::SeqCst) == 0
        {
            break;
        }
        std::thread::sleep(SUPERVISE_EVERY);
        let mut slots = lock_workers(shared);
        for slot in slots.iter_mut() {
            if shared.shutting_down.load(Ordering::SeqCst)
                && shared.queued.load(Ordering::SeqCst) == 0
            {
                break;
            }
            if !slot.handle.is_finished() {
                continue;
            }
            // Replace first, then examine the corpse: only a panicked
            // worker counts as a respawn. (A worker that exited cleanly
            // means the queue just closed and drained; its replacement
            // will see the same and exit — shutdown joins it like any
            // other.)
            let gen = shared.stats.worker_respawns.load(Ordering::Relaxed);
            let group = slot.group;
            let fresh = spawn_worker(shared, group, &format!("altxd-worker-r{gen}"));
            let dead = std::mem::replace(
                slot,
                WorkerSlot {
                    group,
                    handle: fresh,
                },
            );
            if dead.handle.join().is_err() {
                shared.stats.worker_respawns.fetch_add(1, Ordering::Relaxed);
            }
        }
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
        pool.try_submit(Box::new(move || {
            block_rx.recv().ok();
        }))
        .expect("occupies the worker");
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
}
