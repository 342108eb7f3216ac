//! Daemon telemetry: lock-free counters, a fixed-bucket latency
//! histogram, and per-alternative win tallies, rendered either as a
//! human-readable stats page or Prometheus text format.
//!
//! Everything on the request path is an atomic increment. Win tallies
//! live in the scheduler's interned [`CatalogStats`] — indexed atomics
//! keyed by `(workload index, alternative index)` — so recording a win
//! costs two relaxed atomic adds, not a `Mutex<BTreeMap<(String,
//! String), u64>>` insert; the string keys are materialized only when a
//! snapshot is rendered.
//!
//! Front-end counters are **per shard**: each reactor shard owns a
//! [`ShardStats`] it updates without touching any other shard's cache
//! line, and a [`Snapshot`] sums them back into the single global view
//! (`conns_open`, `conns_active`, `wakeups`) existing STATS and
//! Prometheus consumers already scrape — sharding changes who counts,
//! not what is reported.

use crate::bufpool::BufPoolStats;
use crate::peer::PeerStatsTable;
use crate::pool::PoolStats;
use crate::ring::RingStats;
use crate::sched::CatalogStats;
use altx::CachePadded;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Histogram bucket upper bounds, microseconds. The last bucket is
/// unbounded.
pub const BUCKET_BOUNDS_US: &[u64] = &[
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 1_000_000,
];

/// A fixed-bucket latency histogram with atomic counters.
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    counts: [AtomicU64; BUCKET_BOUNDS_US.len() + 1],
    total: AtomicU64,
    sum_us: AtomicU64,
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    pub fn record(&self, us: u64) {
        let idx = BUCKET_BOUNDS_US
            .iter()
            .position(|&b| us <= b)
            .unwrap_or(BUCKET_BOUNDS_US.len());
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Mean latency in microseconds (0 when empty).
    pub fn mean_us(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum_us.load(Ordering::Relaxed) as f64 / n as f64
        }
    }

    /// Upper-bound estimate of the `q`-quantile (0 < q ≤ 1): the bound
    /// of the first bucket whose cumulative count reaches `q·total`.
    /// Resolution is the bucket grid; the open last bucket reports its
    /// lower edge.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = (q * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c.load(Ordering::Relaxed);
            if seen >= rank {
                return BUCKET_BOUNDS_US
                    .get(i)
                    .copied()
                    .unwrap_or(*BUCKET_BOUNDS_US.last().expect("non-empty bounds"));
            }
        }
        *BUCKET_BOUNDS_US.last().expect("non-empty bounds")
    }

    /// (bound, cumulative count) pairs for Prometheus `le` buckets,
    /// ending with the +Inf bucket.
    pub fn cumulative(&self) -> Vec<(Option<u64>, u64)> {
        let mut acc = 0;
        let mut out = Vec::with_capacity(self.counts.len());
        for (i, c) in self.counts.iter().enumerate() {
            acc += c.load(Ordering::Relaxed);
            out.push((BUCKET_BOUNDS_US.get(i).copied(), acc));
        }
        out
    }
}

/// Counters owned by one reactor shard. The shard is the only writer
/// (single-threaded event loop), so every update is an uncontended
/// relaxed store; readers are snapshot renders on *some* shard's
/// thread, which only need eventual consistency.
#[derive(Debug)]
pub struct ShardStats {
    /// Connections currently owned by this shard (gauge).
    conns_open: AtomicU64,
    /// Connections with at least one request in flight (gauge).
    conns_active: AtomicU64,
    /// Self-pipe wakeups of this shard's event loop (counter).
    wakeups: AtomicU64,
    /// POLLOUT events that arrived for a connection with nothing left
    /// to write — write-interest churn the reactor's loop order is
    /// meant to keep at zero (counter).
    pollout_spurious: AtomicU64,
    /// The shard's buffer-pool hit/miss counters.
    buf: Arc<BufPoolStats>,
    /// The shard's reply-ring hit/spill counters.
    ring: Arc<RingStats>,
}

impl ShardStats {
    /// Stats for a shard whose buffer pool reports through `buf` and
    /// whose reply ring reports through `ring`.
    pub fn new(buf: Arc<BufPoolStats>, ring: Arc<RingStats>) -> Self {
        ShardStats {
            conns_open: AtomicU64::new(0),
            conns_active: AtomicU64::new(0),
            wakeups: AtomicU64::new(0),
            pollout_spurious: AtomicU64::new(0),
            buf,
            ring,
        }
    }

    /// Counts a connection adopted by this shard.
    pub fn on_conn_open(&self) {
        self.conns_open.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a connection whose state this shard reclaimed.
    pub fn on_conn_close(&self) {
        self.conns_open.fetch_sub(1, Ordering::Relaxed);
    }

    /// Publishes how many of this shard's connections have a request in
    /// flight.
    pub fn set_conns_active(&self, n: u64) {
        self.conns_active.store(n, Ordering::Relaxed);
    }

    /// Counts a self-pipe wakeup of this shard.
    pub fn on_wakeup(&self) {
        self.wakeups.fetch_add(1, Ordering::Relaxed);
    }

    /// Connections currently owned by this shard.
    pub fn conns_open(&self) -> u64 {
        self.conns_open.load(Ordering::Relaxed)
    }

    /// This shard's connections with a request in flight.
    pub fn conns_active(&self) -> u64 {
        self.conns_active.load(Ordering::Relaxed)
    }

    /// This shard's wakeup count.
    pub fn wakeups(&self) -> u64 {
        self.wakeups.load(Ordering::Relaxed)
    }

    /// Buffer-pool gets served from this shard's free list.
    pub fn pool_recycled(&self) -> u64 {
        self.buf.recycled()
    }

    /// Buffer-pool gets that had to allocate on this shard.
    pub fn pool_misses(&self) -> u64 {
        self.buf.misses()
    }

    /// Counts a POLLOUT event that found no pending output.
    pub fn on_pollout_spurious(&self) {
        self.pollout_spurious.fetch_add(1, Ordering::Relaxed);
    }

    /// This shard's spurious-POLLOUT count.
    pub fn pollout_spurious(&self) -> u64 {
        self.pollout_spurious.load(Ordering::Relaxed)
    }

    /// Replies this shard's ring served from a fixed slot.
    pub fn ring_hits(&self) -> u64 {
        self.ring.hits()
    }

    /// Replies that spilled past this shard's ring to a heap buffer.
    pub fn ring_spills(&self) -> u64 {
        self.ring.spills()
    }
}

/// All daemon counters. One instance, shared by every connection and
/// worker.
#[derive(Debug, Default)]
pub struct Telemetry {
    /// Requests admitted to the run queue.
    accepted: CachePadded<AtomicU64>,
    /// Races that completed with a winner.
    completed: CachePadded<AtomicU64>,
    /// Requests shed because the queue was full.
    shed: CachePadded<AtomicU64>,
    /// Requests shed by the feasibility gate: deadline provably
    /// unmeetable on arrival, before spending a queue slot.
    sheds_at_admission: CachePadded<AtomicU64>,
    /// Races that blew their deadline.
    deadline_exceeded: CachePadded<AtomicU64>,
    /// Races that completed with a winner but *after* their deadline —
    /// served, but too late to count as goodput.
    deadline_misses: CachePadded<AtomicU64>,
    /// Unknown workloads, protocol violations, failed races.
    errors: CachePadded<AtomicU64>,
    /// Alternative bodies that panicked and were contained by an engine.
    alt_panics: CachePadded<AtomicU64>,
    /// Batches submitted as one race (window > 0 only).
    batches_formed: CachePadded<AtomicU64>,
    /// Requests that joined an already-open batch instead of racing.
    requests_coalesced: CachePadded<AtomicU64>,
    /// Hedged alternatives whose launch offset elapsed (their bodies ran).
    hedges_launched: CachePadded<AtomicU64>,
    /// Races won by an alternative that launched from a hedge offset.
    hedge_wins: CachePadded<AtomicU64>,
    /// Alternatives whose bodies never ran because the race was decided
    /// first (hedges suppressed by a fast favourite).
    launches_suppressed: CachePadded<AtomicU64>,
    /// Alternatives shipped to peers (`EXEC_ALT` frames sent).
    remote_dispatched: CachePadded<AtomicU64>,
    /// `ALT_RESULT` frames received back from executors.
    remote_results: CachePadded<AtomicU64>,
    /// Races committed to a peer-executed alternative.
    remote_wins: CachePadded<AtomicU64>,
    /// Shipped alternatives converted to failed guards (refused,
    /// executor failure, or peer death).
    remote_failed: CachePadded<AtomicU64>,
    /// Remote legs that blew their per-leg deadline and were re-run on
    /// the local pool (hedged recovery from a stalled peer).
    remote_redispatched: CachePadded<AtomicU64>,
    /// Replies from a previous link incarnation dropped by the
    /// reconnect-generation check.
    peer_stale_replies: CachePadded<AtomicU64>,
    /// `EXEC_ALT` requests this node admitted as an executor.
    remote_execs: CachePadded<AtomicU64>,
    /// Commit-semaphore votes this node's ledger handled (its own
    /// self-votes plus `COMMIT_VOTE` frames from peers).
    commit_votes: CachePadded<AtomicU64>,
    /// Commits answered without a majority (enough voters died).
    commits_degraded: CachePadded<AtomicU64>,
    /// `ELIMINATE` frames sent to cancel shipped siblings.
    eliminations: CachePadded<AtomicU64>,
    /// Reactor shards whose thread successfully pinned to its planned
    /// core set (`--pin`). Written once per shard at startup — cold, so
    /// unpadded.
    pinned_shards: AtomicU64,
    /// Latency of completed races.
    latency: LatencyHistogram,
    /// The scheduler's interned per-alternative statistics (win tallies
    /// render from here), attached once at startup.
    catalog: OnceLock<Arc<CatalogStats>>,
    /// The serving pool's failure counters, attached once at startup.
    pool: OnceLock<Arc<PoolStats>>,
    /// One [`ShardStats`] per reactor shard, attached once at startup;
    /// the front-end gauges in a [`Snapshot`] are sums over these.
    shards: OnceLock<Vec<Arc<ShardStats>>>,
    /// Per-peer link counters, attached once at startup.
    peers: OnceLock<Arc<PeerStatsTable>>,
    /// Configured lane names (priority order), attached once at startup
    /// so lane-depth gauges render with their declared names.
    lane_names: OnceLock<Vec<String>>,
}

/// A point-in-time copy of the counters, for rendering.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Requests admitted to the run queue.
    pub accepted: u64,
    /// Races completed with a winner.
    pub completed: u64,
    /// Requests shed at admission.
    pub shed: u64,
    /// Requests shed by the feasibility gate on arrival.
    pub sheds_at_admission: u64,
    /// Deadline-exceeded races.
    pub deadline_exceeded: u64,
    /// Races served with a winner but after their deadline.
    pub deadline_misses: u64,
    /// Jobs a dry worker took from a sibling group's run queue while
    /// the pool was open (load-balancing steals only).
    pub steals: u64,
    /// Jobs scavenged from sibling groups while draining a closed pool
    /// (shutdown, not load balancing).
    pub drain_scavenges: u64,
    /// Reactor shards successfully pinned to their planned core sets
    /// (zero without `--pin`).
    pub pinned_shards: u64,
    /// Queued jobs per priority lane (gauge), priority order.
    pub lane_depths: Vec<u64>,
    /// Error replies.
    pub errors: u64,
    /// Contained panics inside racing alternatives.
    pub alt_panics: u64,
    /// Jobs whose closure panicked inside the pool (contained).
    pub jobs_panicked: u64,
    /// Dead workers replaced by the pool supervisor.
    pub worker_respawns: u64,
    /// Faults injected process-wide by the active [`altx::faults`] plan
    /// (zero when no plan is installed).
    pub faults_injected: u64,
    /// Connections currently open, summed across reactor shards.
    pub conns_open: u64,
    /// Connections with at least one request in flight, summed across
    /// reactor shards.
    pub conns_active: u64,
    /// Reactor self-pipe wakeups, summed across shards.
    pub wakeups: u64,
    /// Reactor shards serving the front end.
    pub shards: u64,
    /// Frame buffers served from a shard's free list instead of the
    /// allocator, summed across shards.
    pub pool_recycled: u64,
    /// Frame-buffer requests that had to allocate, summed across shards.
    pub pool_misses: u64,
    /// Replies encoded straight into a reply-ring slot, summed across
    /// shards.
    pub ring_hits: u64,
    /// Replies that spilled past the ring to a heap buffer, summed
    /// across shards.
    pub ring_spills: u64,
    /// POLLOUT events that found nothing left to write, summed across
    /// shards.
    pub pollout_spurious: u64,
    /// Batches submitted as one race.
    pub batches_formed: u64,
    /// Requests coalesced into an already-open batch.
    pub requests_coalesced: u64,
    /// Hedged alternatives that actually launched.
    pub hedges_launched: u64,
    /// Races won from a hedge offset.
    pub hedge_wins: u64,
    /// Alternative bodies suppressed by an early decision.
    pub launches_suppressed: u64,
    /// Alternatives shipped to peers.
    pub remote_dispatched: u64,
    /// Result frames received back from executors.
    pub remote_results: u64,
    /// Races committed to a peer-executed alternative.
    pub remote_wins: u64,
    /// Shipped alternatives converted to failed guards.
    pub remote_failed: u64,
    /// Remote legs redispatched locally after a blown leg deadline.
    pub remote_redispatched: u64,
    /// Stale pre-reconnect replies dropped by the generation check.
    pub peer_stale_replies: u64,
    /// Transitions into the Quarantined peer state, summed over peers.
    pub peer_quarantines: u64,
    /// `EXEC_ALT` requests this node admitted as an executor.
    pub remote_execs: u64,
    /// Commit-semaphore votes handled by this node's ledger.
    pub commit_votes: u64,
    /// Commits answered without a majority.
    pub commits_degraded: u64,
    /// `ELIMINATE` frames sent.
    pub eliminations: u64,
    /// Peer links currently up (gauge).
    pub peers_up: u64,
    /// Successful peer re-dials after the first connect, summed.
    pub peer_reconnects: u64,
    /// Mean completed-race latency (µs).
    pub mean_us: f64,
    /// p50 estimate (µs).
    pub p50_us: u64,
    /// p99 estimate (µs).
    pub p99_us: u64,
    /// Wins per (workload, alternative).
    pub wins: BTreeMap<(String, String), u64>,
}

impl Telemetry {
    /// Creates zeroed telemetry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts an admitted request.
    pub fn on_accepted(&self) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a completed race. The winner itself is recorded in the
    /// scheduler's [`CatalogStats`] (see [`Telemetry::attach_catalog`]);
    /// this keeps the hot path free of string keys and locks.
    pub fn on_completed(&self, latency_us: u64) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.latency.record(latency_us);
    }

    /// Counts a shed request.
    pub fn on_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a request the feasibility gate shed on arrival.
    pub fn on_shed_admission(&self) {
        self.sheds_at_admission.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a blown deadline.
    pub fn on_deadline_exceeded(&self) {
        self.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a race that won — but past its deadline.
    pub fn on_deadline_miss(&self) {
        self.deadline_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts an error reply.
    pub fn on_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts `n` contained alternative panics (from a race's
    /// `BlockResult::panics`).
    pub fn on_alt_panics(&self, n: u64) {
        if n > 0 {
            self.alt_panics.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Counts one batch submitted as a single race.
    pub fn on_batch_formed(&self) {
        self.batches_formed.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts `n` requests that joined an already-open batch.
    pub fn on_requests_coalesced(&self, n: u64) {
        if n > 0 {
            self.requests_coalesced.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Counts `n` hedged alternatives whose bodies actually ran.
    pub fn on_hedges_launched(&self, n: u64) {
        if n > 0 {
            self.hedges_launched.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Counts a race won by an alternative launched from a hedge offset.
    pub fn on_hedge_win(&self) {
        self.hedge_wins.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts `n` alternative bodies suppressed by an early decision.
    pub fn on_launches_suppressed(&self, n: u64) {
        if n > 0 {
            self.launches_suppressed.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Counts one alternative shipped to a peer.
    pub fn on_remote_dispatched(&self) {
        self.remote_dispatched.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one `ALT_RESULT` received from an executor.
    pub fn on_remote_result(&self) {
        self.remote_results.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one race committed to a peer-executed alternative.
    pub fn on_remote_win(&self) {
        self.remote_wins.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one shipped alternative converted to a failed guard.
    pub fn on_remote_failed(&self) {
        self.remote_failed.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one remote leg redispatched locally after its per-leg
    /// deadline expired.
    pub fn on_remote_redispatched(&self) {
        self.remote_redispatched.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one stale reply (pre-reconnect link generation) dropped.
    pub fn on_peer_stale_reply(&self) {
        self.peer_stale_replies.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one `EXEC_ALT` this node admitted as an executor.
    pub fn on_remote_exec(&self) {
        self.remote_execs.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one commit-semaphore vote handled by this node's ledger.
    pub fn on_commit_vote(&self) {
        self.commit_votes.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one commit answered without a majority.
    pub fn on_commit_degraded(&self) {
        self.commits_degraded.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one `ELIMINATE` sent to cancel a shipped sibling.
    pub fn on_elimination(&self) {
        self.eliminations.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one reactor shard that pinned itself to its planned core
    /// set. Recorded by the shard thread itself, so the count reflects
    /// pins that actually took, not pins that were merely requested.
    pub fn on_shard_pinned(&self) {
        self.pinned_shards.fetch_add(1, Ordering::Relaxed);
    }

    /// Attaches the scheduler's interned statistics so win tallies
    /// appear in snapshots. Later calls are ignored.
    pub fn attach_catalog(&self, catalog: Arc<CatalogStats>) {
        let _ = self.catalog.set(catalog);
    }

    /// Attaches the serving pool's counters so snapshots include them.
    /// Later calls are ignored (one pool per daemon).
    pub fn attach_pool(&self, stats: Arc<PoolStats>) {
        let _ = self.pool.set(stats);
    }

    /// Attaches the per-shard front-end counters, one per reactor
    /// shard. Later calls are ignored (the shard set is fixed for the
    /// daemon's lifetime).
    pub fn attach_shards(&self, shards: Vec<Arc<ShardStats>>) {
        let _ = self.shards.set(shards);
    }

    /// Attaches the per-peer link counters. Later calls are ignored
    /// (the configured peer set is fixed for the daemon's lifetime).
    pub fn attach_peers(&self, peers: Arc<PeerStatsTable>) {
        let _ = self.peers.set(peers);
    }

    /// Attaches the configured lane names (priority order) so lane
    /// depth gauges render with their declared names. Later calls are
    /// ignored.
    pub fn attach_lane_names(&self, names: Vec<String>) {
        let _ = self.lane_names.set(names);
    }

    /// The name of priority lane `i` (`lane<i>` when unattached).
    fn lane_name(&self, i: usize) -> String {
        self.lane_names
            .get()
            .and_then(|n| n.get(i).cloned())
            .unwrap_or_else(|| format!("lane{i}"))
    }

    /// The attached per-peer counters, if peering is wired.
    pub fn peer_table(&self) -> Option<&Arc<PeerStatsTable>> {
        self.peers.get()
    }

    /// The attached per-shard counters (empty before
    /// [`Telemetry::attach_shards`]). Tests use this to observe how
    /// connections were distributed; snapshots sum over it.
    pub fn per_shard(&self) -> &[Arc<ShardStats>] {
        self.shards.get().map_or(&[], Vec::as_slice)
    }

    /// Copies the counters out.
    pub fn snapshot(&self) -> Snapshot {
        let shards = self.per_shard();
        Snapshot {
            accepted: self.accepted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            sheds_at_admission: self.sheds_at_admission.load(Ordering::Relaxed),
            deadline_exceeded: self.deadline_exceeded.load(Ordering::Relaxed),
            deadline_misses: self.deadline_misses.load(Ordering::Relaxed),
            steals: self.pool.get().map_or(0, |p| p.steals()),
            drain_scavenges: self.pool.get().map_or(0, |p| p.drain_scavenges()),
            pinned_shards: self.pinned_shards.load(Ordering::Relaxed),
            lane_depths: self.pool.get().map_or_else(Vec::new, |p| p.lane_depths()),
            errors: self.errors.load(Ordering::Relaxed),
            alt_panics: self.alt_panics.load(Ordering::Relaxed),
            jobs_panicked: self.pool.get().map_or(0, |p| p.jobs_panicked()),
            worker_respawns: self.pool.get().map_or(0, |p| p.worker_respawns()),
            faults_injected: altx::faults::injected_total(),
            conns_open: shards.iter().map(|s| s.conns_open()).sum(),
            conns_active: shards.iter().map(|s| s.conns_active()).sum(),
            wakeups: shards.iter().map(|s| s.wakeups()).sum(),
            shards: shards.len() as u64,
            pool_recycled: shards.iter().map(|s| s.pool_recycled()).sum(),
            pool_misses: shards.iter().map(|s| s.pool_misses()).sum(),
            ring_hits: shards.iter().map(|s| s.ring_hits()).sum(),
            ring_spills: shards.iter().map(|s| s.ring_spills()).sum(),
            pollout_spurious: shards.iter().map(|s| s.pollout_spurious()).sum(),
            batches_formed: self.batches_formed.load(Ordering::Relaxed),
            requests_coalesced: self.requests_coalesced.load(Ordering::Relaxed),
            hedges_launched: self.hedges_launched.load(Ordering::Relaxed),
            hedge_wins: self.hedge_wins.load(Ordering::Relaxed),
            launches_suppressed: self.launches_suppressed.load(Ordering::Relaxed),
            remote_dispatched: self.remote_dispatched.load(Ordering::Relaxed),
            remote_results: self.remote_results.load(Ordering::Relaxed),
            remote_wins: self.remote_wins.load(Ordering::Relaxed),
            remote_failed: self.remote_failed.load(Ordering::Relaxed),
            remote_redispatched: self.remote_redispatched.load(Ordering::Relaxed),
            peer_stale_replies: self.peer_stale_replies.load(Ordering::Relaxed),
            peer_quarantines: self.peers.get().map_or(0, |p| p.total_quarantines()),
            remote_execs: self.remote_execs.load(Ordering::Relaxed),
            commit_votes: self.commit_votes.load(Ordering::Relaxed),
            commits_degraded: self.commits_degraded.load(Ordering::Relaxed),
            eliminations: self.eliminations.load(Ordering::Relaxed),
            peers_up: self.peers.get().map_or(0, |p| p.peers_up()),
            peer_reconnects: self.peers.get().map_or(0, |p| p.total_reconnects()),
            mean_us: self.latency.mean_us(),
            p50_us: self.latency.quantile_us(0.50),
            p99_us: self.latency.quantile_us(0.99),
            wins: self.catalog.get().map(|c| c.wins_map()).unwrap_or_default(),
        }
    }

    /// Human-readable stats page (the STATS reply body).
    pub fn render_stats(&self) -> String {
        let s = self.snapshot();
        let mut out = String::new();
        out.push_str("altxd stats\n");
        out.push_str(&format!("  accepted            {}\n", s.accepted));
        out.push_str(&format!("  completed           {}\n", s.completed));
        out.push_str(&format!("  shed (overloaded)   {}\n", s.shed));
        out.push_str(&format!("  sheds at admission  {}\n", s.sheds_at_admission));
        out.push_str(&format!("  deadline exceeded   {}\n", s.deadline_exceeded));
        out.push_str(&format!("  deadline misses     {}\n", s.deadline_misses));
        out.push_str(&format!("  steals              {}\n", s.steals));
        out.push_str(&format!("  drain scavenges     {}\n", s.drain_scavenges));
        out.push_str(&format!("  pinned shards       {}\n", s.pinned_shards));
        for (i, depth) in s.lane_depths.iter().enumerate() {
            out.push_str(&format!(
                "    lane {} ({}) depth {}\n",
                i,
                self.lane_name(i),
                depth
            ));
        }
        out.push_str(&format!("  errors              {}\n", s.errors));
        out.push_str(&format!("  alt panics          {}\n", s.alt_panics));
        out.push_str(&format!("  jobs panicked       {}\n", s.jobs_panicked));
        out.push_str(&format!("  worker respawns     {}\n", s.worker_respawns));
        out.push_str(&format!("  faults injected     {}\n", s.faults_injected));
        out.push_str(&format!("  conns open          {}\n", s.conns_open));
        out.push_str(&format!("  conns active        {}\n", s.conns_active));
        out.push_str(&format!("  reactor wakeups     {}\n", s.wakeups));
        out.push_str(&format!("  shards              {}\n", s.shards));
        out.push_str(&format!("  pool recycled       {}\n", s.pool_recycled));
        out.push_str(&format!("  pool misses         {}\n", s.pool_misses));
        out.push_str(&format!("  ring hits           {}\n", s.ring_hits));
        out.push_str(&format!("  ring spills         {}\n", s.ring_spills));
        out.push_str(&format!("  pollout spurious    {}\n", s.pollout_spurious));
        if s.shards > 1 {
            for (i, shard) in self.per_shard().iter().enumerate() {
                out.push_str(&format!(
                    "    shard {i}: conns {} active {} wakeups {}\n",
                    shard.conns_open(),
                    shard.conns_active(),
                    shard.wakeups()
                ));
            }
        }
        out.push_str(&format!("  batches formed      {}\n", s.batches_formed));
        out.push_str(&format!("  requests coalesced  {}\n", s.requests_coalesced));
        out.push_str(&format!("  hedges launched     {}\n", s.hedges_launched));
        out.push_str(&format!("  hedge wins          {}\n", s.hedge_wins));
        out.push_str(&format!(
            "  launches suppressed {}\n",
            s.launches_suppressed
        ));
        // The race crew is the process's, not this daemon's: read where
        // it lives, when the page is asked for.
        let crew = altx::engine::crew_stats();
        out.push_str(&format!("  racers live         {}\n", crew.live));
        out.push_str(&format!("  racers spawned      {}\n", crew.spawned));
        out.push_str(&format!(
            "  alternatives reclaimed in queue {}\n",
            crew.reclaimed
        ));
        out.push_str(&format!("  remote dispatched   {}\n", s.remote_dispatched));
        out.push_str(&format!("  remote results      {}\n", s.remote_results));
        out.push_str(&format!("  remote wins         {}\n", s.remote_wins));
        out.push_str(&format!("  remote failed       {}\n", s.remote_failed));
        out.push_str(&format!(
            "  remote redispatched {}\n",
            s.remote_redispatched
        ));
        out.push_str(&format!("  peer stale replies  {}\n", s.peer_stale_replies));
        out.push_str(&format!("  peer quarantines    {}\n", s.peer_quarantines));
        out.push_str(&format!("  remote execs        {}\n", s.remote_execs));
        out.push_str(&format!("  commit votes        {}\n", s.commit_votes));
        out.push_str(&format!("  commits degraded    {}\n", s.commits_degraded));
        out.push_str(&format!("  eliminations sent   {}\n", s.eliminations));
        out.push_str(&format!("  peers up            {}\n", s.peers_up));
        out.push_str(&format!("  peer reconnects     {}\n", s.peer_reconnects));
        if let Some(peers) = self.peers.get() {
            for p in peers.peers() {
                let (queued, busy, workers) = p.load();
                out.push_str(&format!(
                    "    peer {}: up {} health {} rtt_us {} dispatched {} wins {} reconnects {} quarantines {} load {}/{}/{}\n",
                    p.addr(),
                    u8::from(p.up()),
                    p.health().label(),
                    p.rtt_ewma_us(),
                    p.dispatched(),
                    p.wins(),
                    p.reconnects(),
                    p.quarantines(),
                    queued,
                    busy,
                    workers,
                ));
            }
        }
        out.push_str(&format!(
            "  latency us          mean {:.1}  p50 {}  p99 {}\n",
            s.mean_us, s.p50_us, s.p99_us
        ));
        out.push_str("  wins per alternative\n");
        for ((workload, alt), n) in &s.wins {
            out.push_str(&format!("    {workload}/{alt}  {n}\n"));
        }
        out
    }

    /// Prometheus text exposition (the PROMETHEUS reply body).
    pub fn render_prometheus(&self) -> String {
        let s = self.snapshot();
        let mut out = String::new();
        let counter = |out: &mut String, name: &str, help: &str, v: u64| {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {v}\n"
            ));
        };
        counter(
            &mut out,
            "altxd_requests_accepted_total",
            "Requests admitted to the run queue",
            s.accepted,
        );
        counter(
            &mut out,
            "altxd_requests_completed_total",
            "Races completed with a winner",
            s.completed,
        );
        counter(
            &mut out,
            "altxd_requests_shed_total",
            "Requests shed by admission control",
            s.shed,
        );
        counter(
            &mut out,
            "altxd_sheds_at_admission_total",
            "Requests shed by the feasibility gate on arrival",
            s.sheds_at_admission,
        );
        counter(
            &mut out,
            "altxd_requests_deadline_exceeded_total",
            "Races that blew their deadline",
            s.deadline_exceeded,
        );
        counter(
            &mut out,
            "altxd_deadline_misses_total",
            "Races served with a winner but after their deadline",
            s.deadline_misses,
        );
        counter(
            &mut out,
            "altxd_steals_total",
            "Jobs a dry worker took from a sibling group's run queue under load",
            s.steals,
        );
        counter(
            &mut out,
            "altxd_drain_scavenges_total",
            "Jobs scavenged from sibling groups while draining a closed pool",
            s.drain_scavenges,
        );
        counter(
            &mut out,
            "altxd_pinned_shards",
            "Reactor shards pinned to their planned core sets",
            s.pinned_shards,
        );
        counter(
            &mut out,
            "altxd_requests_error_total",
            "Error replies",
            s.errors,
        );
        counter(
            &mut out,
            "altxd_alt_panics_total",
            "Alternative bodies that panicked and were contained",
            s.alt_panics,
        );
        counter(
            &mut out,
            "altxd_jobs_panicked_total",
            "Pool jobs that panicked and were contained",
            s.jobs_panicked,
        );
        counter(
            &mut out,
            "altxd_worker_respawns_total",
            "Dead pool workers replaced by the supervisor",
            s.worker_respawns,
        );
        counter(
            &mut out,
            "altxd_faults_injected_total",
            "Faults injected by the active fault plan",
            s.faults_injected,
        );

        counter(
            &mut out,
            "altxd_reactor_wakeups_total",
            "Reactor self-pipe wakeups from completion posts",
            s.wakeups,
        );
        counter(
            &mut out,
            "altxd_ring_hits_total",
            "Replies encoded straight into a reply-ring slot",
            s.ring_hits,
        );
        counter(
            &mut out,
            "altxd_ring_spills_total",
            "Replies that spilled past the ring to a heap buffer",
            s.ring_spills,
        );
        counter(
            &mut out,
            "altxd_reactor_pollout_spurious_total",
            "POLLOUT events that found no pending output",
            s.pollout_spurious,
        );
        counter(
            &mut out,
            "altxd_batches_formed_total",
            "Coalesced request batches submitted as one race",
            s.batches_formed,
        );
        counter(
            &mut out,
            "altxd_requests_coalesced_total",
            "Requests that joined an already-open batch",
            s.requests_coalesced,
        );
        counter(
            &mut out,
            "altxd_hedges_launched_total",
            "Hedged alternatives whose launch offset elapsed",
            s.hedges_launched,
        );
        counter(
            &mut out,
            "altxd_hedge_wins_total",
            "Races won by a hedge-launched alternative",
            s.hedge_wins,
        );
        counter(
            &mut out,
            "altxd_launches_suppressed_total",
            "Alternative bodies suppressed by an early race decision",
            s.launches_suppressed,
        );
        counter(
            &mut out,
            "altxd_remote_dispatched_total",
            "Alternatives shipped to peer nodes",
            s.remote_dispatched,
        );
        counter(
            &mut out,
            "altxd_remote_results_total",
            "Result frames received back from executors",
            s.remote_results,
        );
        counter(
            &mut out,
            "altxd_remote_wins_total",
            "Races committed to a peer-executed alternative",
            s.remote_wins,
        );
        counter(
            &mut out,
            "altxd_remote_failed_total",
            "Shipped alternatives converted to failed guards",
            s.remote_failed,
        );
        counter(
            &mut out,
            "altxd_remote_redispatched_total",
            "Remote legs redispatched locally after a blown leg deadline",
            s.remote_redispatched,
        );
        counter(
            &mut out,
            "altxd_peer_stale_replies_total",
            "Stale pre-reconnect replies dropped by the generation check",
            s.peer_stale_replies,
        );
        counter(
            &mut out,
            "altxd_peer_quarantines_total",
            "Transitions into the Quarantined peer state",
            s.peer_quarantines,
        );
        counter(
            &mut out,
            "altxd_remote_execs_total",
            "EXEC_ALT requests admitted as an executor",
            s.remote_execs,
        );
        counter(
            &mut out,
            "altxd_commit_votes_total",
            "Commit-semaphore votes handled by the ledger",
            s.commit_votes,
        );
        counter(
            &mut out,
            "altxd_commits_degraded_total",
            "Commits answered without an assembled majority",
            s.commits_degraded,
        );
        counter(
            &mut out,
            "altxd_eliminations_total",
            "ELIMINATE frames sent to cancel shipped siblings",
            s.eliminations,
        );
        let crew = altx::engine::crew_stats();
        counter(
            &mut out,
            "altxd_racers_spawned_total",
            "Racer threads the process-wide race crew has spawned",
            crew.spawned,
        );
        counter(
            &mut out,
            "altxd_alternatives_reclaimed_total",
            "Alternatives eliminated while still waiting to be claimed",
            crew.reclaimed,
        );
        let gauge = |out: &mut String, name: &str, help: &str, v: u64| {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {v}\n"
            ));
        };
        gauge(
            &mut out,
            "altxd_racers_live",
            "Racer threads of the race crew alive right now",
            crew.live as u64,
        );
        gauge(
            &mut out,
            "altxd_conns_open",
            "Connections currently open on the reactor",
            s.conns_open,
        );
        gauge(
            &mut out,
            "altxd_conns_active",
            "Connections with a request in flight",
            s.conns_active,
        );
        gauge(
            &mut out,
            "altxd_shards",
            "Reactor shards serving the front end",
            s.shards,
        );
        counter(
            &mut out,
            "altxd_bufpool_recycled_total",
            "Frame buffers served from a shard free list",
            s.pool_recycled,
        );
        counter(
            &mut out,
            "altxd_bufpool_misses_total",
            "Frame-buffer requests that had to allocate",
            s.pool_misses,
        );
        if !s.lane_depths.is_empty() {
            out.push_str("# HELP altxd_lane_depth Queued jobs per priority lane\n");
            out.push_str("# TYPE altxd_lane_depth gauge\n");
            for (i, depth) in s.lane_depths.iter().enumerate() {
                out.push_str(&format!(
                    "altxd_lane_depth{{lane=\"{}\"}} {depth}\n",
                    self.lane_name(i)
                ));
            }
        }
        out.push_str("# HELP altxd_shard_conns_open Connections owned, per shard\n");
        out.push_str("# TYPE altxd_shard_conns_open gauge\n");
        for (i, shard) in self.per_shard().iter().enumerate() {
            out.push_str(&format!(
                "altxd_shard_conns_open{{shard=\"{i}\"}} {}\n",
                shard.conns_open()
            ));
        }

        if let Some(peers) = self.peers.get() {
            out.push_str("# HELP altxd_peer_up Peer link liveness (1 = connected)\n");
            out.push_str("# TYPE altxd_peer_up gauge\n");
            for p in peers.peers() {
                out.push_str(&format!(
                    "altxd_peer_up{{peer=\"{}\"}} {}\n",
                    p.addr(),
                    u8::from(p.up())
                ));
            }
            out.push_str(
                "# HELP altxd_peer_health Peer health state (0 = up, 1 = suspect, 2 = quarantined)\n",
            );
            out.push_str("# TYPE altxd_peer_health gauge\n");
            for p in peers.peers() {
                out.push_str(&format!(
                    "altxd_peer_health{{peer=\"{}\"}} {}\n",
                    p.addr(),
                    p.health() as u8
                ));
            }
            out.push_str("# HELP altxd_peer_rtt_us Peer round-trip EWMA in microseconds\n");
            out.push_str("# TYPE altxd_peer_rtt_us gauge\n");
            for p in peers.peers() {
                out.push_str(&format!(
                    "altxd_peer_rtt_us{{peer=\"{}\"}} {}\n",
                    p.addr(),
                    p.rtt_ewma_us()
                ));
            }
            out.push_str("# HELP altxd_peer_reconnects_total Successful re-dials, per peer\n");
            out.push_str("# TYPE altxd_peer_reconnects_total counter\n");
            for p in peers.peers() {
                out.push_str(&format!(
                    "altxd_peer_reconnects_total{{peer=\"{}\"}} {}\n",
                    p.addr(),
                    p.reconnects()
                ));
            }
        }

        out.push_str("# HELP altxd_race_latency_us Completed-race latency in microseconds\n");
        out.push_str("# TYPE altxd_race_latency_us histogram\n");
        for (bound, cum) in self.latency.cumulative() {
            let le = bound.map_or("+Inf".to_owned(), |b| b.to_string());
            out.push_str(&format!(
                "altxd_race_latency_us_bucket{{le=\"{le}\"}} {cum}\n"
            ));
        }
        out.push_str(&format!(
            "altxd_race_latency_us_sum {}\n",
            self.latency.sum_us.load(Ordering::Relaxed)
        ));
        out.push_str(&format!(
            "altxd_race_latency_us_count {}\n",
            self.latency.count()
        ));

        out.push_str("# HELP altxd_alternative_wins_total Races won, per alternative\n");
        out.push_str("# TYPE altxd_alternative_wins_total counter\n");
        for ((workload, alt), n) in &s.wins {
            out.push_str(&format!(
                "altxd_alternative_wins_total{{workload=\"{workload}\",alternative=\"{alt}\"}} {n}\n"
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_observations() {
        let h = LatencyHistogram::new();
        for us in [40, 90, 90, 90, 90, 90, 90, 90, 90, 200_000] {
            h.record(us);
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.quantile_us(0.5), 100); // 90 µs falls in the ≤100 bucket
        assert_eq!(h.quantile_us(0.99), 250_000);
        assert!(h.mean_us() > 0.0);
    }

    #[test]
    fn histogram_cumulative_ends_at_total() {
        let h = LatencyHistogram::new();
        for us in [1, 10_000, 9_999_999] {
            h.record(us);
        }
        let cum = h.cumulative();
        assert_eq!(cum.last().expect("buckets"), &(None, 3));
    }

    /// Telemetry wired to a fresh interned stats store, with one
    /// trivial/instant-a win recorded — the shape the daemon produces.
    fn with_one_win() -> Telemetry {
        let t = Telemetry::new();
        let catalog = Arc::new(CatalogStats::new());
        t.attach_catalog(Arc::clone(&catalog));
        let widx = crate::workload::index_of("trivial").expect("catalog");
        catalog.table(widx).expect("table").record_win(0, 120);
        t.on_completed(120);
        t
    }

    #[test]
    fn snapshot_reflects_events() {
        let t = with_one_win();
        t.on_accepted();
        t.on_accepted();
        t.on_shed();
        t.on_deadline_exceeded();
        t.on_error();
        let s = t.snapshot();
        assert_eq!(
            (
                s.accepted,
                s.completed,
                s.shed,
                s.deadline_exceeded,
                s.errors
            ),
            (2, 1, 1, 1, 1)
        );
        assert_eq!(s.wins[&("trivial".into(), "instant-a".into())], 1);
    }

    #[test]
    fn scheduler_counters_accumulate() {
        let t = Telemetry::new();
        t.on_batch_formed();
        t.on_requests_coalesced(3);
        t.on_hedges_launched(2);
        t.on_hedge_win();
        t.on_launches_suppressed(4);
        t.on_launches_suppressed(0);
        let s = t.snapshot();
        assert_eq!(s.batches_formed, 1);
        assert_eq!(s.requests_coalesced, 3);
        assert_eq!(s.hedges_launched, 2);
        assert_eq!(s.hedge_wins, 1);
        assert_eq!(s.launches_suppressed, 4);
        let page = t.render_stats();
        assert!(page.contains("requests coalesced  3"), "{page}");
        assert!(page.contains("launches suppressed 4"), "{page}");
    }

    #[test]
    fn crew_counters_render_on_both_pages() {
        let t = Telemetry::new();
        let page = t.render_stats();
        for label in [
            "  racers live         ",
            "  racers spawned      ",
            "  alternatives reclaimed in queue ",
        ] {
            let line = page.lines().find(|l| l.starts_with(label));
            let value = line.map(|l| l[label.len()..].parse::<u64>());
            assert!(matches!(value, Some(Ok(_))), "{label:?} in {page}");
        }
        let text = t.render_prometheus();
        assert!(text.contains("# TYPE altxd_racers_live gauge"), "{text}");
        assert!(text.contains("altxd_racers_spawned_total "), "{text}");
        assert!(
            text.contains("altxd_alternatives_reclaimed_total "),
            "{text}"
        );
    }

    #[test]
    fn unattached_catalog_renders_no_wins() {
        let t = Telemetry::new();
        t.on_completed(50);
        assert!(t.snapshot().wins.is_empty());
    }

    #[test]
    fn prometheus_dump_is_well_formed() {
        let t = with_one_win();
        let text = t.render_prometheus();
        assert!(text.contains("altxd_requests_completed_total 1"));
        assert!(text.contains("altxd_race_latency_us_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains(
            "altxd_alternative_wins_total{workload=\"trivial\",alternative=\"instant-a\"} 1"
        ));
        assert!(text.contains("altxd_batches_formed_total 0"));
        assert!(text.contains("altxd_hedge_wins_total 0"));
        // Every non-comment line is "name{labels} value" with a numeric value.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let value = line.rsplit(' ').next().expect("value field");
            assert!(value.parse::<f64>().is_ok(), "bad line: {line}");
        }
    }
}
