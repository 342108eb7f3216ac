//! Daemon telemetry: lock-free counters, the race-latency histogram
//! (the power-of-two [`Histogram`] the scheduler keeps its statistics
//! in), and per-alternative win tallies, rendered either as a
//! human-readable stats page or Prometheus text format.
//!
//! Every scalar metric is declared once, as a row of [`METRICS`]: its
//! key, STATS label, Prometheus name, kind, help text and where its
//! value lives. [`Telemetry::snapshot`], [`Telemetry::render_stats`]
//! and [`Telemetry::render_prometheus`] are loops over that table, so
//! adding a counter is one row plus one [`Telemetry::add`] call where
//! the event happens.
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
//! existing STATS and Prometheus consumers already scrape — sharding
//! changes who counts, not what is reported.

use crate::bufpool::BufPoolStats;
use crate::peer::{PeerStat, PeerStatsTable};
use crate::pool::PoolStats;
use crate::ring::RingStats;
use crate::sched::CatalogStats;
use altx::engine::CrewStats;
use altx::stats::{Histogram, BUCKETS};
use altx::CachePadded;
use altx::WakeStats;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Counters owned by one reactor shard. The shard's event loop writes
/// them — except `conns_active`, which moves on whichever thread takes
/// a connection between idle and in flight (a delivering worker, under
/// that connection's write-half lock) — so every update is a relaxed,
/// all but uncontended atomic; readers are snapshot renders on *some*
/// shard's thread, which only need eventual consistency.
#[derive(Debug)]
pub struct ShardStats {
    /// Connections currently owned by this shard (gauge).
    conns_open: AtomicU64,
    /// Connections with at least one request in flight (gauge).
    conns_active: AtomicU64,
    /// Times this shard's event loop had to be roused through its wake
    /// channel (counter).
    wakeups: AtomicU64,
    /// POLLOUT events that arrived for a connection with nothing left
    /// to write — write-interest churn the reactor's loop order is
    /// meant to keep at zero (counter).
    pollout_spurious: AtomicU64,
    /// The shard's buffer-pool hit/miss counters.
    buf: Arc<BufPoolStats>,
    /// The shard's reply-ring hit/spill counters and slot gauge.
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

    /// Counts a connection going from no request in flight to one.
    pub fn on_conn_active(&self) {
        self.conns_active.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a connection whose last owed reply was just released.
    pub fn on_conn_idle(&self) {
        self.conns_active.fetch_sub(1, Ordering::Relaxed);
    }

    /// Counts one rousing of this shard through its wake channel.
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

    /// Counts a POLLOUT event that found no pending output.
    pub fn on_pollout_spurious(&self) {
        self.pollout_spurious.fetch_add(1, Ordering::Relaxed);
    }

    /// This shard's spurious-POLLOUT count.
    pub fn pollout_spurious(&self) -> u64 {
        self.pollout_spurious.load(Ordering::Relaxed)
    }
}

/// Whether a metric only ever rises (`counter`) or moves both ways or
/// is set once (`gauge`) — its Prometheus `# TYPE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Monotonic; the Prometheus name ends in `_total`.
    Counter,
    /// A level, or a value set once at startup.
    Gauge,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
        }
    }
}

/// Where a metric's value is read from when a snapshot is taken.
#[derive(Clone, Copy)]
enum Source {
    /// The metric's own cell in [`Telemetry`], written by [`Telemetry::add`].
    Own,
    /// The attached serving pool (zero before [`Telemetry::attach_pool`]).
    Pool(fn(&PoolStats) -> u64),
    /// Summed over the attached reactor shards.
    ShardSum(fn(&ShardStats) -> u64),
    /// How many reactor shards are attached.
    ShardCount,
    /// The attached peer table (zero before [`Telemetry::attach_peers`]).
    Peers(fn(&PeerStatsTable) -> u64),
    /// The process-wide race crew, read once per snapshot.
    Crew(fn(&CrewStats) -> u64),
    /// The process-wide timed-wait lead ([`altx::wake_stats`]), likewise.
    Wake(fn(&WakeStats) -> u64),
    /// The process-wide fault plan's injection count.
    Faults,
}
use Source::{Crew, Faults, Own, Peers, Pool, ShardCount, ShardSum, Wake};

/// One row of [`METRICS`]: everything the daemon knows about one
/// scalar metric.
pub struct MetricDef {
    /// The metric this row declares.
    pub metric: Metric,
    /// Machine name: the name a [`Snapshot`] prints under.
    pub key: &'static str,
    /// Label that leads the metric's STATS line; scrapers find it by this.
    pub label: &'static str,
    /// Prometheus metric name; `None` keeps it off that page.
    pub prometheus: Option<&'static str>,
    /// Counter or gauge.
    pub kind: Kind,
    /// One-line description (the Prometheus `# HELP` text).
    pub help: &'static str,
    source: Source,
}

/// Declares [`Metric`] and [`METRICS`] from one list, so a metric cannot
/// have a variant without a row or a row without a variant.
macro_rules! metrics {
    ($($variant:ident, $key:literal, $label:literal, $prometheus:expr, $kind:ident, $source:expr,
        $help:literal;)*) => {
        /// Every scalar metric the daemon reports, in STATS-page order.
        /// `Metric as usize` indexes [`METRICS`], a [`Snapshot`] and
        /// [`Telemetry`]'s own cells alike.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Metric {
            $(#[doc = $help] $variant,)*
        }

        /// The metric table: STATS, Prometheus and [`Snapshot`] are all
        /// loops over these rows.
        pub const METRICS: &[MetricDef] = &[
            $(MetricDef {
                metric: Metric::$variant,
                key: $key,
                label: $label,
                prometheus: $prometheus,
                kind: Kind::$kind,
                help: $help,
                source: $source,
            },)*
        ];
    };
}

metrics! {
    Accepted, "accepted", "accepted", Some("altxd_requests_accepted_total"), Counter, Own,
        "Requests admitted to a race (queued or run on the shard)";
    RacesOnShard, "races_on_shard", "races on shard", Some("altxd_races_on_shard_total"), Counter, Own,
        "Accepted races run on the reactor thread that decoded them, not queued";
    Completed, "completed", "completed", Some("altxd_requests_completed_total"), Counter, Own,
        "Races completed with a winner";
    Shed, "shed", "shed (overloaded)", Some("altxd_requests_shed_total"), Counter, Own,
        "Requests shed by admission control";
    ShedsAtAdmission, "sheds_at_admission", "sheds at admission", Some("altxd_sheds_at_admission_total"), Counter, Own,
        "Requests shed by the feasibility gate on arrival";
    DeadlineExceeded, "deadline_exceeded", "deadline exceeded", Some("altxd_requests_deadline_exceeded_total"), Counter, Own,
        "Races that blew their deadline";
    DeadlineMisses, "deadline_misses", "deadline misses", Some("altxd_deadline_misses_total"), Counter, Own,
        "Races served with a winner but after their deadline";
    Errors, "errors", "errors", Some("altxd_requests_error_total"), Counter, Own,
        "Error replies";
    AltPanics, "alt_panics", "alt panics", Some("altxd_alt_panics_total"), Counter, Own,
        "Alternative bodies that panicked and were contained";
    JobsPanicked, "jobs_panicked", "jobs panicked", Some("altxd_jobs_panicked_total"), Counter, Pool(PoolStats::jobs_panicked),
        "Pool jobs that panicked and were contained";
    FaultsInjected, "faults_injected", "faults injected", Some("altxd_faults_injected_total"), Counter, Faults,
        "Faults injected by the active fault plan";
    ConnsOpen, "conns_open", "conns open", Some("altxd_conns_open"), Gauge, ShardSum(ShardStats::conns_open),
        "Connections currently open on the reactor";
    ConnsActive, "conns_active", "conns active", Some("altxd_conns_active"), Gauge, ShardSum(ShardStats::conns_active),
        "Connections with a request in flight";
    Wakeups, "wakeups", "reactor wakeups", Some("altxd_reactor_wakeups_total"), Counter, ShardSum(ShardStats::wakeups),
        "Times a reactor had to be roused through its wake channel (about 0 per request in steady state)";
    Shards, "shards", "shards", Some("altxd_shards"), Gauge, ShardCount,
        "Reactor shards serving the front end";
    PoolRecycled, "pool_recycled", "pool recycled", Some("altxd_bufpool_recycled_total"), Counter, ShardSum(|s| s.buf.recycled()),
        "Frame buffers served from a shard free list";
    PoolMisses, "pool_misses", "pool misses", Some("altxd_bufpool_misses_total"), Counter, ShardSum(|s| s.buf.misses()),
        "Frame-buffer requests that had to allocate";
    RingHits, "ring_hits", "ring hits", Some("altxd_ring_hits_total"), Counter, ShardSum(|s| s.ring.hits()),
        "Replies encoded straight into a reply-ring slot";
    RingSpills, "ring_spills", "ring spills", Some("altxd_ring_spills_total"), Counter, ShardSum(|s| s.ring.spills()),
        "Replies that spilled past the ring to a heap buffer";
    RingSlotsMade, "ring_slots_made", "ring slots made", Some("altxd_ring_slots_made"), Gauge, ShardSum(|s| s.ring.made()),
        "Reply-ring slot buffers in existence: each is made on first use, so this is the peak of replies in flight at once (at most the configured ring_slots per shard, 256 in altxd)";
    PolloutSpurious, "pollout_spurious", "pollout spurious", Some("altxd_reactor_pollout_spurious_total"), Counter, ShardSum(ShardStats::pollout_spurious),
        "POLLOUT events that found no pending output";
    HedgesLaunched, "hedges_launched", "hedges launched", Some("altxd_hedges_launched_total"), Counter, Own,
        "Hedged alternatives whose launch offset elapsed";
    HedgeWins, "hedge_wins", "hedge wins", Some("altxd_hedge_wins_total"), Counter, Own,
        "Races won by a hedge-launched alternative";
    LaunchesSuppressed, "launches_suppressed", "launches suppressed", Some("altxd_launches_suppressed_total"), Counter, Own,
        "Alternative bodies suppressed by an early race decision";
    RacesFavouriteFirst, "races_favourite_first", "races favourite-first", Some("altxd_races_favourite_first_total"), Counter, Own,
        "Races whose caller ran the measured favourite alone before calling on any sibling";
    RacersLive, "racers_live", "racers live", Some("altxd_racers_live"), Gauge, Crew(|c| c.live as u64),
        "Racer threads of the race crew alive right now";
    RacersSpawned, "racers_spawned", "racers spawned", Some("altxd_racers_spawned_total"), Counter, Crew(|c| c.spawned),
        "Racer threads the process-wide race crew has spawned";
    AlternativesReclaimed, "alternatives_reclaimed", "alternatives reclaimed in queue", Some("altxd_alternatives_reclaimed_total"), Counter, Crew(|c| c.reclaimed),
        "Alternatives eliminated while still waiting to be claimed";
    TimedWaitLeadUs, "timed_wait_lead_us", "timed-wait lead us", Some("altxd_timed_wait_lead_us"), Gauge, Wake(|w| w.lead.as_micros() as u64),
        "How much earlier than its end a timed wait of the race path asks to be woken: the measured lower quartile of this process's timer wake-up lateness";
    TimedWaitsFinishedAwake, "timed_waits_finished_awake", "timed waits finished awake", Some("altxd_timed_waits_finished_awake_total"), Counter, Wake(|w| w.finished_awake),
        "Timed waits of the race path whose last stretch was covered awake instead of slept";
    RemoteDispatched, "remote_dispatched", "remote dispatched", Some("altxd_remote_dispatched_total"), Counter, Own,
        "Alternatives shipped to peer nodes";
    RemoteResults, "remote_results", "remote results", Some("altxd_remote_results_total"), Counter, Own,
        "Result frames received back from executors";
    RemoteWins, "remote_wins", "remote wins", Some("altxd_remote_wins_total"), Counter, Own,
        "Races committed to a peer-executed alternative";
    RemoteFailed, "remote_failed", "remote failed", Some("altxd_remote_failed_total"), Counter, Own,
        "Shipped alternatives converted to failed guards";
    PeerQuarantines, "peer_quarantines", "peer quarantines", Some("altxd_peer_quarantines_total"), Counter, Peers(PeerStatsTable::total_quarantines),
        "Peer links closed for silence, at most one per spell in service";
    RemoteExecs, "remote_execs", "remote execs", Some("altxd_remote_execs_total"), Counter, Own,
        "EXEC_ALT requests admitted as an executor";
    CommitVotes, "commit_votes", "commit votes", Some("altxd_commit_votes_total"), Counter, Own,
        "Commit-semaphore votes handled by the ledger";
    CommitsDegraded, "commits_degraded", "commits degraded", Some("altxd_commits_degraded_total"), Counter, Own,
        "Commits answered without an assembled majority";
    Eliminations, "eliminations", "eliminations sent", Some("altxd_eliminations_total"), Counter, Own,
        "ELIMINATE frames sent to cancel shipped siblings";
    // Prometheus carries these two per peer (`altxd_peer_up`,
    // `altxd_peer_reconnects_total`), so the sums stay off that page.
    PeersUp, "peers_up", "peers up", None, Gauge, Peers(PeerStatsTable::peers_up),
        "Peer links in service now";
    PeerReconnects, "peer_reconnects", "peer reconnects", None, Counter, Peers(PeerStatsTable::total_reconnects),
        "Successful peer re-dials after the first connect";
}

impl Metric {
    /// Number of metrics (rows of [`METRICS`]).
    pub const COUNT: usize = METRICS.len();

    /// This metric's row.
    pub fn def(self) -> &'static MetricDef {
        &METRICS[self as usize]
    }
}

/// Reads `metric`'s value off a STATS page: the line that starts with
/// its label, whose next word is the number.
pub fn scrape(page: &str, metric: Metric) -> Option<u64> {
    let label = metric.def().label;
    page.lines().find_map(|line| {
        let rest = line.trim_start().strip_prefix(label)?;
        // The label must end here, not merely prefix a longer one.
        if !rest.starts_with(' ') {
            return None;
        }
        rest.trim().parse().ok()
    })
}

/// All daemon counters. One instance, shared by every connection and
/// worker.
#[derive(Debug)]
pub struct Telemetry {
    /// One padded cell per metric, indexed by `Metric as usize`; only
    /// the `Own` rows' cells are ever written.
    cells: [CachePadded<AtomicU64>; Metric::COUNT],
    /// Latency of completed races.
    latency: Histogram,
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

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry {
            cells: std::array::from_fn(|_| CachePadded::new(AtomicU64::new(0))),
            latency: Histogram::default(),
            catalog: OnceLock::new(),
            pool: OnceLock::new(),
            shards: OnceLock::new(),
            peers: OnceLock::new(),
            lane_names: OnceLock::new(),
        }
    }
}

/// A point-in-time copy of every metric, indexed by [`Metric`]
/// (`snap[Metric::Accepted]`), plus the structured blocks.
#[derive(Clone, PartialEq)]
pub struct Snapshot {
    values: [u64; Metric::COUNT],
    /// Queued jobs per priority lane (gauge), priority order.
    pub lane_depths: Vec<u64>,
    /// Mean completed-race latency (µs).
    pub mean_us: f64,
    /// p50 estimate (µs).
    pub p50_us: u64,
    /// p99 estimate (µs).
    pub p99_us: u64,
    /// Wins per (workload, alternative).
    pub wins: BTreeMap<(String, String), u64>,
}

impl std::ops::Index<Metric> for Snapshot {
    type Output = u64;

    fn index(&self, metric: Metric) -> &u64 {
        &self.values[metric as usize]
    }
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = f.debug_struct("Snapshot");
        for def in METRICS {
            s.field(def.key, &self[def.metric]);
        }
        s.field("lane_depths", &self.lane_depths)
            .field("mean_us", &self.mean_us)
            .field("p50_us", &self.p50_us)
            .field("p99_us", &self.p99_us)
            .field("wins", &self.wins)
            .finish()
    }
}

impl Telemetry {
    /// Creates zeroed telemetry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to one of the daemon's own counters: one relaxed
    /// `fetch_add` on the metric's padded cell, skipped when `n` is
    /// zero. Metrics read from elsewhere (pool, shards, peers, crew)
    /// are not written through here.
    #[inline]
    pub fn add(&self, metric: Metric, n: u64) {
        debug_assert!(
            matches!(metric.def().source, Own),
            "{metric:?} is read from its source, not written"
        );
        if n > 0 {
            self.cells[metric as usize].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Counts a completed race. The winner itself is recorded in the
    /// scheduler's [`CatalogStats`] (see [`Telemetry::attach_catalog`]);
    /// this keeps the hot path free of string keys and locks.
    pub fn on_completed(&self, latency_us: u64) {
        self.add(Metric::Completed, 1);
        self.latency.record(latency_us);
    }

    /// Counts `n` alternative bodies suppressed by an early decision.
    pub fn on_launches_suppressed(&self, n: u64) {
        self.add(Metric::LaunchesSuppressed, n);
    }

    /// Counts a blown deadline.
    pub fn on_deadline_exceeded(&self) {
        self.add(Metric::DeadlineExceeded, 1);
    }

    /// Counts an error reply.
    pub fn on_error(&self) {
        self.add(Metric::Errors, 1);
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

    /// The attached scheduler statistics (`None` before
    /// [`Telemetry::attach_catalog`]). For the crate's own tests, which
    /// pin a workload's service times through this so where it runs is
    /// stated, not hoped for; not part of the API.
    #[doc(hidden)]
    pub fn catalog(&self) -> Option<&Arc<CatalogStats>> {
        self.catalog.get()
    }

    /// The attached per-shard counters (empty before
    /// [`Telemetry::attach_shards`]). Tests use this to observe how
    /// connections were distributed; snapshots sum over it.
    pub fn per_shard(&self) -> &[Arc<ShardStats>] {
        self.shards.get().map_or(&[], Vec::as_slice)
    }

    /// Reads one metric from wherever its row says it lives.
    fn read(&self, def: &MetricDef, crew: &CrewStats, wake: &WakeStats) -> u64 {
        match def.source {
            Own => self.cells[def.metric as usize].load(Ordering::Relaxed),
            Pool(f) => self.pool.get().map_or(0, |p| f(p)),
            ShardSum(f) => self.per_shard().iter().map(|s| f(s)).sum(),
            ShardCount => self.per_shard().len() as u64,
            Peers(f) => self.peers.get().map_or(0, |p| f(p)),
            Crew(f) => f(crew),
            Wake(f) => f(wake),
            Faults => altx::faults::injected_total(),
        }
    }

    /// Copies the counters out.
    pub fn snapshot(&self) -> Snapshot {
        let (crew, wake) = (altx::engine::crew_stats(), altx::wake_stats());
        Snapshot {
            values: std::array::from_fn(|i| self.read(&METRICS[i], &crew, &wake)),
            lane_depths: self.pool.get().map_or_else(Vec::new, |p| p.lane_depths()),
            mean_us: self.latency.sum_us() as f64 / self.latency.count().max(1) as f64,
            p50_us: self.latency.quantile_us(0.50).unwrap_or(0),
            p99_us: self.latency.quantile_us(0.99).unwrap_or(0),
            wins: self.catalog.get().map(|c| c.wins_map()).unwrap_or_default(),
        }
    }

    /// Human-readable stats page (the STATS reply body): one line per
    /// table row, with the structured blocks after their anchor rows.
    pub fn render_stats(&self) -> String {
        let s = self.snapshot();
        let mut out = String::from("altxd stats\n");
        for def in METRICS {
            // Label padded to the value column by hand: `{:<19}`
            // formatting costs more than the rest of the page.
            const PAD: &str = "                    ";
            out.push_str("  ");
            out.push_str(def.label);
            out.push_str(&PAD[def.label.len().min(PAD.len() - 1)..]);
            let _ = writeln!(out, "{}", s[def.metric]);
            match def.metric {
                Metric::DeadlineMisses => {
                    for (i, depth) in s.lane_depths.iter().enumerate() {
                        out.push_str(&format!(
                            "    lane {i} ({}) depth {depth}\n",
                            self.lane_name(i)
                        ));
                    }
                }
                Metric::PolloutSpurious if s[Metric::Shards] > 1 => {
                    for (i, shard) in self.per_shard().iter().enumerate() {
                        out.push_str(&format!(
                            "    shard {i}: conns {} active {} wakeups {}\n",
                            shard.conns_open(),
                            shard.conns_active(),
                            shard.wakeups()
                        ));
                    }
                }
                Metric::PeerReconnects => {
                    for p in self.peers.get().map_or(&[][..], |t| t.peers()) {
                        let _ = writeln!(out, "    {p}");
                    }
                }
                _ => {}
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

    /// Prometheus text exposition (the PROMETHEUS reply body): every
    /// named table row, then the labelled families.
    pub fn render_prometheus(&self) -> String {
        let s = self.snapshot();
        let mut out = String::new();
        for def in METRICS {
            if let Some(name) = def.prometheus {
                let _ = write!(
                    out,
                    "# HELP {name} {}\n# TYPE {name} {}\n{name} {}\n",
                    def.help,
                    def.kind.as_str(),
                    s[def.metric]
                );
            }
        }
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
            let mut family = |name: &str, kind: Kind, help: &str, value: fn(&PeerStat) -> u64| {
                out.push_str(&format!(
                    "# HELP {name} {help}\n# TYPE {name} {}\n",
                    kind.as_str()
                ));
                for p in peers.peers() {
                    out.push_str(&format!("{name}{{peer=\"{}\"}} {}\n", p.addr(), value(p)));
                }
            };
            family(
                "altxd_peer_up",
                Kind::Gauge,
                "Peer link in service (1 = its connection has answered)",
                |p| u64::from(p.up()),
            );
            family(
                "altxd_peer_rtt_us",
                Kind::Gauge,
                "Peer round-trip EWMA in microseconds",
                PeerStat::rtt_ewma_us,
            );
            family(
                "altxd_peer_reconnects_total",
                Kind::Counter,
                "Successful re-dials, per peer",
                PeerStat::reconnects,
            );
        }

        out.push_str("# HELP altxd_race_latency_us Completed-race latency in microseconds\n");
        out.push_str("# TYPE altxd_race_latency_us histogram\n");
        // Bucket k counts latencies below 2^k µs; the last is open-ended
        // and shows only as +Inf.
        let buckets = self.latency.buckets();
        let mut cum = 0;
        for (k, n) in buckets[..BUCKETS - 1].iter().enumerate() {
            cum += n;
            let _ = writeln!(
                out,
                "altxd_race_latency_us_bucket{{le=\"{}\"}} {cum}",
                1u64 << k
            );
        }
        let _ = writeln!(
            out,
            "altxd_race_latency_us_bucket{{le=\"+Inf\"}} {}",
            cum + buckets[BUCKETS - 1]
        );
        out.push_str(&format!(
            "altxd_race_latency_us_sum {}\n",
            self.latency.sum_us()
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
    use std::collections::BTreeSet;

    /// The invariants every renderer and scraper leans on.
    #[test]
    fn metric_table_is_consistent() {
        fn all_unique<'a>(what: &str, names: impl Iterator<Item = &'a str>) {
            let mut seen = BTreeSet::new();
            for n in names {
                assert!(seen.insert(n), "duplicate {what} {n:?}");
            }
        }
        all_unique("key", METRICS.iter().map(|d| d.key));
        all_unique("STATS label", METRICS.iter().map(|d| d.label));
        all_unique(
            "Prometheus name",
            METRICS.iter().filter_map(|d| d.prometheus),
        );
        for (i, def) in METRICS.iter().enumerate() {
            // Every variant in exactly one row, at its own index: the
            // enum's discriminants run 0..COUNT, so a bijection here
            // means no variant is missing and none appears twice.
            assert_eq!(def.metric as usize, i, "{:?} is row {i}", def.metric);
            if let Some(name) = def.prometheus {
                assert_eq!(
                    name.ends_with("_total"),
                    def.kind == Kind::Counter,
                    "{name} is a {:?}",
                    def.kind
                );
            }
            // A label that prefixes another would make `scrape` (and the
            // benchmark's scraper) ambiguous.
            for other in METRICS {
                assert!(
                    !other.label.starts_with(&format!("{} ", def.label)),
                    "label {:?} prefixes {:?}",
                    def.label,
                    other.label
                );
            }
        }
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
        t.add(Metric::Accepted, 2);
        t.add(Metric::Shed, 1);
        t.on_deadline_exceeded();
        t.on_error();
        let s = t.snapshot();
        assert_eq!((s[Metric::Accepted], s[Metric::Completed]), (2, 1));
        assert_eq!((s[Metric::Shed], s[Metric::Errors]), (1, 1));
        assert_eq!(s[Metric::DeadlineExceeded], 1);
        assert_eq!(s.wins[&("trivial".into(), "instant-a".into())], 1);
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
        assert!(text.contains("altxd_hedges_launched_total 0"));
        assert!(text.contains("# TYPE altxd_conns_open gauge"));
        // Every non-comment line is "name{labels} value" with a numeric value.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let value = line.rsplit(' ').next().expect("value field");
            assert!(value.parse::<f64>().is_ok(), "bad line: {line}");
        }
    }
}
