//! The race scheduler: Scheme A statistics driving hedged launch plans.
//!
//! The paper's §4.2 Scheme A selects alternatives by statistical data;
//! Scheme C races everything. The serving layer's [`HedgePolicy`] blends
//! the two: once a workload has enough history, the historical favourite
//! launches at t=0 and every other alternative is *hedged* — held back by
//! a [`LaunchPlan`] offset derived from the favourite's observed p95
//! latency (a lower quantile until forty wins are on record, so that two
//! samples always lie beyond it). If the favourite answers within its usual envelope the
//! siblings are suppressed (their bodies never run); if it straggles or
//! fails, the hedges fire and the race proceeds exactly as before.
//! Suppression changes cost, never which value is selected: the engine's
//! winner selection, sibling elimination, and panic containment are
//! untouched.
//!
//! With hedging on or off, one more schedule is chosen by measurement
//! alone: a workload whose favourite's *own body* has measured shorter
//! than a racer wake-up ([`RACER_WAKE_US`]) is raced *favourite first*
//! ([`LaunchPlan::favourite_first`]) — the thread that has the request
//! runs the favourite before any sibling is handed to another thread, and
//! calls the crew only if it comes back undecided. A sibling that cannot
//! even be woken before the favourite is done cannot lower the race's
//! time, only raise its overhead; any one alternative is an admissible
//! outcome, so which is tried first is the scheduler's to choose.
//!
//! A mandatory exploration floor keeps the statistics live: every
//! `explore_every`-th request per workload races launch-all, in
//! declaration order, regardless of history, so a regime change (the
//! favourite going slow) is observed and the policy adapts.
//!
//! [`CatalogStats`] is the shared, interned statistics store: one
//! [`AltStatsTable`] per catalog workload, indexed `(workload index,
//! alternative index)` — no string keys or locks on the record path.
//! Telemetry renders win tallies from the same store the policy reads.

use crate::workload::{self, WorkloadSpec};
use altx::engine::LaunchPlan;
use altx::stats::AltStatsTable;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Knobs for the hedging policy. Defaults keep hedging *off*: no
/// alternative is ever held back by a timer. What a race of a warm
/// workload is then is decided by measurement, not by a knob: launch-all
/// in declaration order, or — when the favourite's body has measured
/// under [`RACER_WAKE_US`] — favourite first
/// ([`HedgePolicy::plan_pruned`]). `min_samples` and `explore_every`
/// govern that choice too.
#[derive(Debug, Clone, Copy)]
pub struct HedgeConfig {
    /// Master switch for *hedging*; when false no plan carries an offset.
    pub enabled: bool,
    /// Wins a workload must accumulate before its favourite is trusted.
    pub min_samples: u64,
    /// Every n-th request races launch-all in declaration order (the
    /// exploration floor), hedging on or off.
    /// Clamped to at least 2 — exploration can never be disabled.
    pub explore_every: u64,
}

/// Lower clamp on the hedge delay (guards against a p95 so small the
/// hedges would effectively launch immediately anyway).
const SHORTEST_HEDGE: Duration = Duration::from_micros(500);

/// Upper clamp on the hedge delay (bounds worst-case added latency when
/// the favourite fails outright).
const LONGEST_HEDGE: Duration = Duration::from_millis(50);

impl Default for HedgeConfig {
    fn default() -> Self {
        HedgeConfig {
            enabled: false,
            min_samples: 20,
            explore_every: 8,
        }
    }
}

/// Per-workload interned statistics for the whole catalog.
#[derive(Debug)]
pub struct CatalogStats {
    tables: Vec<AltStatsTable>,
    /// Per-workload *race service time* — wall time from launch to any
    /// outcome (win, deadline blown, error), recorded as a single-slot
    /// [`AltStatsTable`] so admission reads the same power-of-two
    /// quantile machinery the hedge policy does. Unlike the win tables
    /// this sees timeouts, which is exactly what makes an infeasible
    /// workload provably infeasible.
    service: Vec<AltStatsTable>,
    /// Per-workload verdict of [`CatalogStats::short_enough_for_shard`],
    /// recomputed where a service sample is recorded so the request
    /// path reads one flag instead of a quantile.
    on_shard: Vec<AtomicBool>,
}

/// The longest service time — p99 bucket bound and recent mean alike —
/// a workload may show and still be raced on the reactor thread that
/// decoded it ([`CatalogStats::runs_on_shard`]). Handing a race to a
/// worker costs ≈ 3 µs (`pool.job_ns`) and a race at this bound holds
/// every other connection of the shard for that long at worst. The
/// value is the power of two no measured workload sits near: a p99
/// against a bound changes its mind with every slow sample while about
/// 1 % of a workload's races cross the bound, so the bound belongs
/// where every workload's share is far from 1 %. Alone, `trivial` has
/// no race past 16 µs; under sparse open-loop arrivals beside
/// `bimodal`, where other threads' wake-ups land inside the race,
/// 1.5–3 % of its races pass 32 µs (a bound there flipped the verdict
/// every hundred samples), 0.1–1 % pass 64 µs, 0.01–0.4 % pass 128 µs.
/// `prolog` raced launch-all in declaration order — usually 4–30 µs,
/// with 3 % of its races (the ones whose caller got its dead-end clause
/// order started before the woken racer decided) past 128 µs — is what
/// the p99 clause is there to keep out. Raced favourite first
/// ([`RACER_WAKE_US`]) seven times in eight it starts no dead end on
/// those, its service p99 reads ≤ 64 µs, and this same rule lets it in.
pub const SHARD_MAX_SERVICE_US: u64 = 128;

/// The longest the favourite's *body* — p99 bucket bound and recent mean
/// alike — may have measured for a race to be run favourite first
/// ([`HedgePolicy::plan_pruned`]). It is what waking a parked thread
/// costs on this class of box: the benchmark's `pool.wake_us` reads
/// 3–9 µs, so a sibling dispatched at t = 0 cannot *start* sooner, and a
/// favourite that is done by then has decided the race before the
/// sibling could have entered it. Not a knob: a body over it races
/// exactly as before. The statistic is the winner's own running time
/// (`BlockResult::winner_body`), not the race's latency — the wake-up and
/// the switches this rule removes are *in* the latency, so a bound on it
/// would never engage (`prolog`'s favourite under launch-all: p50 / p95
/// / p99 buckets 8 / 32 / 64 µs as race latency, 1 / 2 / 4 µs as body).
pub const RACER_WAKE_US: u64 = 8;

impl CatalogStats {
    /// One pre-sized table per catalog workload.
    pub fn new() -> Self {
        CatalogStats {
            tables: workload::CATALOG
                .iter()
                .map(|w| AltStatsTable::with_len(w.alternatives()))
                .collect(),
            service: workload::CATALOG
                .iter()
                .map(|_| AltStatsTable::with_len(1))
                .collect(),
            on_shard: workload::CATALOG
                .iter()
                .map(|_| AtomicBool::new(false))
                .collect(),
        }
    }

    /// The statistics table for catalog workload `widx`.
    pub fn table(&self, widx: usize) -> Option<&AltStatsTable> {
        self.tables.get(widx)
    }

    /// Records one race's end-to-end service time, whatever its outcome,
    /// and republishes the workload's shard-or-queue verdict when it
    /// changed — the flags share a cache line every reactor reads, so
    /// the steady state writes nothing. Two recorders can publish out of
    /// order; the flag is then a sample stale until the next one is
    /// recorded, which a statistic can afford.
    pub fn record_service(&self, widx: usize, latency_us: u64) {
        if let (Some(t), Some(flag)) = (self.service.get(widx), self.on_shard.get(widx)) {
            t.record_win(0, latency_us);
            let verdict = self.short_enough_for_shard(widx);
            if flag.load(Ordering::Relaxed) != verdict {
                flag.store(verdict, Ordering::Relaxed);
            }
        }
    }

    /// The shard-or-queue rule, a pure function of the catalog entry and
    /// the service table: a workload is raced on the shard thread while
    ///
    /// ```text
    /// ¬ blocks
    ///   ∧ samples ≥ ADMISSION_MIN_SAMPLES
    ///   ∧ mean_service_us ≤ SHARD_MAX_SERVICE_US
    ///   ∧ p99_service_us  ≤ SHARD_MAX_SERVICE_US
    /// ```
    ///
    /// A body that waits on its token ([`WorkloadSpec::blocks`]) never
    /// qualifies: how long `sleep N` parks its thread is the client's
    /// `N`, and sixteen `sleep 0` say nothing about the next one. For
    /// the rest, cold is "queue", as cold is "admit" for the gate:
    /// shortness must be measured, never presumed. The p99 (bucket upper
    /// bound) keeps out a workload that is usually short; the recent
    /// mean (an EWMA) takes out one whose arguments turn slow after a
    /// handful of samples, where the p99 alone would wait for 1 % of its
    /// history.
    fn short_enough_for_shard(&self, widx: usize) -> bool {
        let bound = SHARD_MAX_SERVICE_US;
        workload::CATALOG.get(widx).is_some_and(|w| !w.blocks)
            && self.service_samples(widx) >= ADMISSION_MIN_SAMPLES
            && self
                .service_mean_us(widx)
                .is_some_and(|m| m <= bound as f64)
            && self
                .service_quantile_us(widx, 0.99)
                .is_some_and(|p| p <= bound)
    }

    /// Where the next race of workload `widx` runs: `true` on the
    /// reactor thread that decoded it — its bodies never block and it
    /// has at least [`ADMISSION_MIN_SAMPLES`] service samples whose p99
    /// and recent mean are both within [`SHARD_MAX_SERVICE_US`] —
    /// `false` through the run queue. One relaxed load of the verdict
    /// [`CatalogStats::record_service`] last published.
    pub fn runs_on_shard(&self, widx: usize) -> bool {
        self.on_shard
            .get(widx)
            .is_some_and(|f| f.load(Ordering::Relaxed))
    }

    /// Service-time samples recorded for workload `widx`.
    pub fn service_samples(&self, widx: usize) -> u64 {
        self.service.get(widx).map_or(0, |t| t.wins(0))
    }

    /// A service-time quantile for workload `widx` (bucket upper bound).
    pub fn service_quantile_us(&self, widx: usize, q: f64) -> Option<u64> {
        self.service.get(widx).and_then(|t| t.quantile_us(0, q))
    }

    /// EWMA of the service time for workload `widx`.
    pub fn service_mean_us(&self, widx: usize) -> Option<f64> {
        self.service.get(widx).and_then(|t| t.ewma_us(0))
    }

    /// Win tallies as `(workload, alternative) → wins`, for telemetry
    /// snapshots and STATS/Prometheus rendering. Only alternatives with
    /// at least one win appear (matching the old lazy-map behaviour).
    pub fn wins_map(&self) -> BTreeMap<(String, String), u64> {
        let mut map = BTreeMap::new();
        for (widx, w) in workload::CATALOG.iter().enumerate() {
            let table = &self.tables[widx];
            for (aidx, alt) in w.alt_names.iter().enumerate() {
                let wins = table.wins(aidx);
                if wins > 0 {
                    map.insert((w.name.to_string(), alt.to_string()), wins);
                }
            }
        }
        map
    }
}

impl Default for CatalogStats {
    fn default() -> Self {
        CatalogStats::new()
    }
}

/// What one race's plan meant, for counter accounting after it resolves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanKind {
    /// Number of alternatives held back by the plan.
    pub hedged: usize,
}

/// The per-workload hedging policy. See module docs.
#[derive(Debug)]
pub struct HedgePolicy {
    config: HedgeConfig,
    catalog: Arc<CatalogStats>,
    /// Per-workload request tick, driving the exploration floor.
    ticks: Vec<AtomicU64>,
}

impl HedgePolicy {
    /// A policy over a fresh statistics store.
    pub fn new(config: HedgeConfig) -> Self {
        HedgePolicy::with_catalog(config, Arc::new(CatalogStats::new()))
    }

    /// A policy sharing an existing statistics store (telemetry holds the
    /// same `Arc` to render win tallies).
    pub fn with_catalog(config: HedgeConfig, catalog: Arc<CatalogStats>) -> Self {
        let ticks = (0..workload::CATALOG.len())
            .map(|_| AtomicU64::new(0))
            .collect();
        HedgePolicy {
            config,
            catalog,
            ticks,
        }
    }

    /// The shared statistics store.
    pub fn catalog(&self) -> &Arc<CatalogStats> {
        &self.catalog
    }

    /// The policy's configuration.
    pub fn config(&self) -> &HedgeConfig {
        &self.config
    }

    /// Builds the launch plan for one request of catalog workload `widx`
    /// with `n_alts` alternatives. Immediate (launch-all, declaration
    /// order) when history is thin, this is an exploration tick, or there
    /// is no favourite yet; favourite first when the favourite's body is
    /// shorter than a wake-up; hedged when hedging is on.
    pub fn plan(&self, widx: usize, n_alts: usize) -> LaunchPlan {
        self.plan_pruned(widx, n_alts).0
    }

    /// The favourite-first rule, a pure function of the catalog entry,
    /// the win table and `min_samples`: the alternative a race of
    /// workload `widx` should lead with, if
    ///
    /// ```text
    /// ¬ blocks
    ///   ∧ total_wins ≥ min_samples
    ///   ∧ ewma_body_us(favourite) ≤ RACER_WAKE_US
    ///   ∧ p99_body_us(favourite)  ≤ RACER_WAKE_US
    /// ```
    ///
    /// — the shape of [`CatalogStats::short_enough_for_shard`], for the
    /// same reasons. A body that waits on its token never leads alone:
    /// how long it waits is the request's `arg`, which past races do not
    /// measure. Cold is "race": shortness must be measured. The p99
    /// (bucket upper bound) keeps out a favourite that is only usually
    /// short; the recent mean takes out one that has turned slow within
    /// a handful of samples. The exploration tick is
    /// [`plan_pruned`](HedgePolicy::plan_pruned)'s to apply: this is what
    /// the CATALOG page prints.
    pub fn lead_for(&self, widx: usize) -> Option<usize> {
        let table = self.catalog.table(widx)?;
        if workload::CATALOG.get(widx)?.blocks {
            return None;
        }
        let (fav, _) = self.trusted_favourite(table)?;
        body_under_a_wake(table, fav).then_some(fav)
    }

    /// The favourite of a table with `min_samples` wins on record, and
    /// that win total: what both schedules start from.
    fn trusted_favourite(&self, table: &AltStatsTable) -> Option<(usize, u64)> {
        let total_wins = table.total_wins();
        (total_wins >= self.config.min_samples)
            .then(|| table.favourite())
            .flatten()
            .map(|fav| (fav, total_wins))
    }

    /// Like [`HedgePolicy::plan`], but additionally says which
    /// alternatives are not worth *constructing*: on a hedged tick, an
    /// alternative whose win rate is near zero over a warm history gets
    /// `true` in the returned mask, and the workload builder substitutes
    /// an instantly-failing stub for its body — don't build what you
    /// won't launch. The stub keeps the alternative's index, name, and
    /// hedge offset, so winner accounting is untouched and the engine's
    /// existing suppression counting applies: when the favourite answers
    /// inside its envelope the stub never launches and is counted
    /// through `launches_suppressed` exactly like any other unlaunched
    /// hedge. Exploration ticks always return `None` — every body is
    /// built and raced, so a pruned alternative that comes back to life
    /// is still observed and its win rate recovers.
    ///
    /// Hedging on or off, a warm workload whose favourite
    /// [leads](HedgePolicy::lead_for) gets
    /// [`LaunchPlan::favourite_first`] and no mask (the siblings must be
    /// real if the lead fails its guard). Everything else with hedging
    /// off — cold, an exploration tick, a blocking body, a favourite over
    /// the bound — is [`LaunchPlan::immediate`], the race it always was.
    pub fn plan_pruned(&self, widx: usize, n_alts: usize) -> (LaunchPlan, Option<Vec<bool>>) {
        let race_all = || (LaunchPlan::immediate(n_alts), None);
        let (Some(table), Some(spec)) = (self.catalog.table(widx), workload::CATALOG.get(widx))
        else {
            return race_all();
        };
        // Neither schedule can apply: not even the tick is spent.
        if n_alts <= 1 || (!self.config.enabled && spec.blocks) {
            return race_all();
        }
        // The exploration floor fires on tick 0 too, so a cold workload's
        // first request is always a full race. It keeps declaration
        // order: on one CPU the woken racer gets in ahead of the caller's
        // body, so "favourite inline, siblings dispatched first" would
        // run the siblings — the dead ends — first.
        let tick = self.ticks[widx].fetch_add(1, Ordering::Relaxed);
        let explore_every = self.config.explore_every.max(2);
        if tick.is_multiple_of(explore_every) {
            return race_all();
        }
        let Some((fav, total_wins)) = self.trusted_favourite(table) else {
            return race_all();
        };
        if !spec.blocks && body_under_a_wake(table, fav) {
            return (LaunchPlan::favourite_first(n_alts, fav), None);
        }
        if !self.config.enabled {
            return race_all();
        }
        let quantile = hedge_quantile(table.wins(fav));
        let delay = Duration::from_micros(table.quantile_us(fav, quantile).unwrap_or(0))
            .clamp(SHORTEST_HEDGE, LONGEST_HEDGE);
        let offsets = (0..n_alts)
            .map(|i| if i == fav { Duration::ZERO } else { delay })
            .collect();
        // Near-zero win rate: under 2% of a history already deep enough
        // to trust (`min_samples` wins). The favourite is never pruned.
        let mask: Vec<bool> = (0..n_alts)
            .map(|i| i != fav && table.wins(i).saturating_mul(50) < total_wins)
            .collect();
        let prune = mask.iter().any(|&p| p).then_some(mask);
        (LaunchPlan::from_offsets(offsets), prune)
    }

    /// Records a race outcome: the winner's own running time
    /// (`BlockResult::winner_body` — the paper's τ(C_best), not the
    /// race's latency) feeds the EWMA, histogram, and win count the next
    /// plan reads.
    pub fn record_win(&self, widx: usize, alt_idx: usize, latency_us: u64) {
        if let Some(table) = self.catalog.table(widx) {
            table.record_win(alt_idx, latency_us);
        }
    }

    /// Records one race's end-to-end service time — every outcome, not
    /// just wins — feeding the admission gate's feasibility estimate.
    pub fn record_service(&self, widx: usize, latency_us: u64) {
        self.catalog.record_service(widx, latency_us);
    }
}

/// Which quantile of the favourite's body times the hedge delay reads,
/// given how many of them there are: `min(0.95, 1 − 2 / wins)` — p80 at
/// 10 wins, p90 at 20, p95 from 40 on. At least two samples always lie
/// beyond it, so one stall cannot choose the delay: the p95 *bucket* of
/// ten samples is their maximum, and one early 10 ms stall used to park
/// the delay at 25–50 ms for as long as it took forty faster wins to
/// outvote it.
fn hedge_quantile(wins: u64) -> f64 {
    (1.0 - 2.0 / wins.max(1) as f64).min(0.95)
}

/// The two measured clauses of [`HedgePolicy::lead_for`]: alternative
/// `fav`'s body — recent mean first, it is the cheaper read — is within
/// [`RACER_WAKE_US`].
fn body_under_a_wake(table: &AltStatsTable, fav: usize) -> bool {
    let bound = RACER_WAKE_US;
    table.ewma_us(fav).is_some_and(|mean| mean <= bound as f64)
        && table.quantile_us(fav, 0.99).is_some_and(|p99| p99 <= bound)
}

/// Feasibility-based admission: shed a deadlined request on arrival
/// when its deadline is provably unmeetable, instead of queueing doomed
/// work that burns a worker just to time out.
///
/// The estimate is deliberately simple and deterministic (the same
/// inputs always produce the same verdict, which is what the test suite
/// pins):
///
/// ```text
/// wait_us  = queued × mean_service_us / workers
/// admit    ⇔ wait_us + p99_service_us ≤ deadline_ms × 1000
/// ```
///
/// where `p99_service_us` and `mean_service_us` come from the
/// workload's service-time [`AltStatsTable`] in [`CatalogStats`] —
/// which records timeouts and errors as well as wins, so a workload
/// that *never* meets its deadline converges on p99 ≈ deadline and any
/// queue wait at all tips the verdict to shed. A cold workload (fewer
/// than `min_samples` samples) is always admitted: infeasibility must
/// be proven, never presumed. Best-effort requests (`deadline_ms == 0`)
/// bypass the gate entirely — no deadline, nothing to be infeasible
/// against.
#[derive(Debug)]
pub struct Admission {
    enabled: bool,
    min_samples: u64,
    catalog: Arc<CatalogStats>,
}

/// Service-time samples a workload needs before the gate will shed it.
pub const ADMISSION_MIN_SAMPLES: u64 = 16;

impl Admission {
    /// A gate over the shared statistics store. Disabled gates admit
    /// everything.
    pub fn new(enabled: bool, catalog: Arc<CatalogStats>) -> Self {
        Admission {
            enabled,
            min_samples: ADMISSION_MIN_SAMPLES,
            catalog,
        }
    }

    /// Whether the gate is switched on.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Verdict for one arriving request: `true` admits. `queued` and
    /// `workers` are the pool's current backlog and size — passed in
    /// rather than read here so the decision is a pure function its
    /// tests can pin.
    pub fn admit(&self, widx: usize, deadline_ms: u32, queued: usize, workers: usize) -> bool {
        if !self.enabled || deadline_ms == 0 {
            return true;
        }
        if self.catalog.service_samples(widx) < self.min_samples {
            return true;
        }
        let Some(p99) = self.catalog.service_quantile_us(widx, 0.99) else {
            return true;
        };
        let mean = self.catalog.service_mean_us(widx).unwrap_or(p99 as f64);
        let wait_us = queued as f64 * mean / workers.max(1) as f64;
        wait_us + p99 as f64 <= f64::from(deadline_ms) * 1000.0
    }
}

/// Config-declared priority lanes: an ordered partition of the workload
/// catalog. Lane 0 is the highest priority; workloads the spec does not
/// mention fall into a trailing catch-all lane. The default
/// ([`Lanes::single`]) is one lane holding everything — scheduling-wise
/// indistinguishable from no lanes at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lanes {
    names: Vec<String>,
    by_widx: Vec<usize>,
}

impl Lanes {
    /// One lane, every workload: the defaults-off shape.
    pub fn single() -> Self {
        Lanes {
            names: vec!["all".to_owned()],
            by_widx: vec![0; workload::CATALOG.len()],
        }
    }

    /// Parses a lane spec of the form
    /// `name:workload[,workload…][;name:workload…]`, priority in
    /// declaration order. Example: `rt:trivial,bimodal;batch:sleep`.
    /// Unknown workloads and double assignments are errors; catalog
    /// workloads left unmentioned land in an appended `default` lane at
    /// the lowest priority, so a spec that leaves any unmentioned may not
    /// name a lane `default` itself. An empty spec yields
    /// [`Lanes::single`].
    pub fn parse(spec: &str) -> Result<Self, String> {
        if spec.trim().is_empty() {
            return Ok(Lanes::single());
        }
        let mut names = Vec::new();
        let mut by_widx: Vec<Option<usize>> = vec![None; workload::CATALOG.len()];
        for part in spec.split(';') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (name, members) = part
                .split_once(':')
                .ok_or_else(|| format!("lane `{part}` missing `name:workloads`"))?;
            let name = name.trim();
            if name.is_empty() || names.iter().any(|n| n == name) {
                return Err(format!("bad or duplicate lane name in `{part}`"));
            }
            let lane = names.len();
            names.push(name.to_owned());
            for wl in members.split(',') {
                let wl = wl.trim();
                let widx = workload::index_of(wl)
                    .ok_or_else(|| format!("lane `{name}`: unknown workload `{wl}`"))?;
                if by_widx[widx].is_some() {
                    return Err(format!("workload `{wl}` assigned to two lanes"));
                }
                by_widx[widx] = Some(lane);
            }
        }
        if names.is_empty() {
            return Ok(Lanes::single());
        }
        if by_widx.iter().any(Option::is_none) {
            if names.iter().any(|n| n == "default") {
                return Err(
                    "lane name `default` is taken by the lane of unmentioned workloads".to_owned(),
                );
            }
            names.push("default".to_owned());
        }
        let catch_all = names.len() - 1;
        Ok(Lanes {
            by_widx: by_widx
                .into_iter()
                .map(|l| l.unwrap_or(catch_all))
                .collect(),
            names,
        })
    }

    /// The lane for catalog workload `widx`.
    pub fn lane_of(&self, widx: usize) -> usize {
        self.by_widx.get(widx).copied().unwrap_or(0)
    }

    /// Number of lanes.
    pub fn count(&self) -> usize {
        self.names.len()
    }

    /// Lane names, priority order.
    pub fn names(&self) -> &[String] {
        &self.names
    }
}

impl Default for Lanes {
    fn default() -> Self {
        Lanes::single()
    }
}

/// Renders the catalog — with what the scheduler has learned — as the
/// CATALOG control frame's text body.
pub fn render_catalog(policy: &HedgePolicy) -> String {
    let mut out = String::from("altxd workload catalog\n");
    for (widx, w) in workload::CATALOG.iter().enumerate() {
        render_entry(&mut out, w, widx, policy);
    }
    out
}

fn render_entry(out: &mut String, w: &WorkloadSpec, widx: usize, policy: &HedgePolicy) {
    use std::fmt::Write;
    let _ = writeln!(out, "  {}  — {}", w.name, w.description);
    let table = policy.catalog().table(widx);
    let favourite = table.and_then(|t| t.favourite());
    let total_wins = table.map_or(0, |t| t.total_wins());
    for (aidx, alt) in w.alt_names.iter().enumerate() {
        let wins = table.map_or(0, |t| t.wins(aidx));
        let marker = if favourite == Some(aidx) {
            "  <- favourite"
        } else {
            ""
        };
        let rate = if total_wins > 0 {
            format!(
                " ({:.1}% of {} wins)",
                100.0 * wins as f64 / total_wins as f64,
                total_wins
            )
        } else {
            String::new()
        };
        let _ = writeln!(out, "    alt {aidx} {alt}  wins {wins}{rate}{marker}");
    }
    let stats = policy.catalog();
    let place = if stats.runs_on_shard(widx) {
        "shard"
    } else {
        "queue"
    };
    let _ = writeln!(
        out,
        "    runs on: {place} (service p99 ≤ {} µs, mean {:.1} µs, {} samples)",
        stats.service_quantile_us(widx, 0.99).unwrap_or(0),
        stats.service_mean_us(widx).unwrap_or(0.0),
        stats.service_samples(widx)
    );
    match (table, policy.lead_for(widx)) {
        (Some(t), Some(lead)) => {
            let _ = writeln!(
                out,
                "    plan: favourite-first (alt {lead}, body p99 ≤ {} µs, mean {:.1} µs)",
                t.quantile_us(lead, 0.99).unwrap_or(0),
                t.ewma_us(lead).unwrap_or(0.0),
            );
        }
        _ => out.push_str("    plan: race\n"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hedging_on() -> HedgeConfig {
        HedgeConfig {
            enabled: true,
            min_samples: 4,
            explore_every: 4,
        }
    }

    fn lognormal_idx() -> usize {
        workload::index_of("lognormal").expect("catalog has lognormal")
    }

    #[test]
    fn disabled_policy_always_launches_all() {
        let policy = HedgePolicy::new(HedgeConfig::default());
        let widx = lognormal_idx();
        for alt in 0..3 {
            policy.record_win(widx, alt, 1_000);
        }
        for _ in 0..10 {
            assert!(policy.plan(widx, 3).is_immediate());
        }
    }

    #[test]
    fn cold_workload_races_launch_all() {
        let policy = HedgePolicy::new(hedging_on());
        assert!(policy.plan(lognormal_idx(), 3).is_immediate());
    }

    #[test]
    fn warm_workload_hedges_everyone_but_the_favourite() {
        let policy = HedgePolicy::new(hedging_on());
        let widx = lognormal_idx();
        for _ in 0..10 {
            policy.record_win(widx, 1, 3_000);
        }
        // Skip tick 0 (exploration floor).
        let _ = policy.plan(widx, 3);
        let plan = policy.plan(widx, 3);
        assert!(!plan.is_immediate(), "warm history produces a hedged plan");
        assert_eq!(plan.offset(1), Duration::ZERO, "favourite launches first");
        assert!(plan.offset(0) > Duration::ZERO);
        assert!(plan.offset(2) > Duration::ZERO);
        assert_eq!(plan.staggered(), 2);
    }

    #[test]
    fn exploration_floor_fires_on_schedule() {
        let policy = HedgePolicy::new(hedging_on());
        let widx = lognormal_idx();
        for _ in 0..10 {
            policy.record_win(widx, 0, 2_000);
        }
        // explore_every = 4: ticks 0, 4, 8, … are launch-all; the rest
        // are hedged.
        for tick in 0..12u64 {
            let plan = policy.plan(widx, 3);
            if tick % 4 == 0 {
                assert!(plan.is_immediate(), "tick {tick} is an exploration race");
            } else {
                assert!(!plan.is_immediate(), "tick {tick} is hedged");
            }
        }
    }

    #[test]
    fn the_hedge_is_clamped() {
        let config = hedging_on();
        let policy = HedgePolicy::new(config);
        let widx = lognormal_idx();
        // Sub-microsecond favourite: delay clamps up to SHORTEST_HEDGE.
        for _ in 0..10 {
            policy.record_win(widx, 0, 1);
        }
        let _ = policy.plan(widx, 3);
        let plan = policy.plan(widx, 3);
        assert_eq!(plan.offset(1), SHORTEST_HEDGE);

        // Very slow favourite: delay clamps down to LONGEST_HEDGE.
        let policy = HedgePolicy::new(config);
        for _ in 0..10 {
            policy.record_win(widx, 0, 900_000);
        }
        let _ = policy.plan(widx, 3);
        let plan = policy.plan(widx, 3);
        assert_eq!(plan.offset(1), LONGEST_HEDGE);
    }

    #[test]
    fn one_stall_cannot_own_the_hedge() {
        // Every delay below (1 024 µs, 32 768 µs) lies inside the clamp.
        let config = hedging_on();
        let widx = lognormal_idx();
        let delay = |policy: &HedgePolicy| {
            let _ = policy.plan(widx, 3); // the exploration tick
            policy.plan(widx, 3).offset(1)
        };
        // Ten 1 ms wins and one 30 ms stall: the delay is the 1 ms
        // bucket's bound, where the p95 of eleven samples is the stall.
        let policy = HedgePolicy::new(config);
        (0..10).for_each(|_| policy.record_win(widx, 0, 1_000));
        policy.record_win(widx, 0, 30_000);
        assert_eq!(delay(&policy), Duration::from_micros(1_024));
        let table = policy.catalog().table(widx).unwrap();
        assert_eq!(
            table.quantile_us(0, 0.95),
            Some(32_768),
            "what it read before"
        );

        // Two samples always lie beyond the quantile, whatever the count.
        for wins in 3..200u64 {
            let rank = (hedge_quantile(wins) * wins as f64).ceil() as u64;
            assert!(rank + 2 <= wins, "{wins} wins: rank {rank}");
        }

        // From forty samples on it is exactly the p95 it always was: 5 %
        // of a deep history at 30 ms put the delay there, 4 % do not.
        for (stalls, wins) in [(3u64, 60u64), (2, 60), (10, 200), (9, 200)] {
            let policy = HedgePolicy::new(config);
            (stalls..wins).for_each(|_| policy.record_win(widx, 0, 1_000));
            (0..stalls).for_each(|_| policy.record_win(widx, 0, 30_000));
            let table = policy.catalog().table(widx).unwrap();
            let p95 = table.quantile_us(0, 0.95).unwrap();
            assert_eq!(p95 == 32_768, stalls * 20 > wins, "{stalls} of {wins}");
            assert_eq!(delay(&policy), Duration::from_micros(p95));
        }
    }

    #[test]
    fn single_alternative_workloads_never_hedge() {
        let policy = HedgePolicy::new(hedging_on());
        let widx = workload::index_of("sleep").unwrap();
        for _ in 0..10 {
            policy.record_win(widx, 0, 5_000);
        }
        for _ in 0..8 {
            assert!(policy.plan(widx, 1).is_immediate());
        }
    }

    #[test]
    fn wins_map_uses_interned_names() {
        let stats = CatalogStats::new();
        let widx = workload::index_of("trivial").unwrap();
        stats.tables[widx].record_win(0, 100);
        stats.tables[widx].record_win(0, 100);
        stats.tables[widx].record_win(1, 150);
        let map = stats.wins_map();
        assert_eq!(map.get(&("trivial".into(), "instant-a".into())), Some(&2));
        assert_eq!(map.get(&("trivial".into(), "instant-b".into())), Some(&1));
        assert_eq!(map.len(), 2, "workloads with no wins stay absent");
    }

    #[test]
    fn lanes_parse_assigns_and_catches_all() {
        let lanes = Lanes::parse("rt:trivial,bimodal;batch:sleep").expect("valid spec");
        assert_eq!(lanes.names(), ["rt", "batch", "default"]);
        assert_eq!(lanes.lane_of(workload::index_of("trivial").unwrap()), 0);
        assert_eq!(lanes.lane_of(workload::index_of("bimodal").unwrap()), 0);
        assert_eq!(lanes.lane_of(workload::index_of("sleep").unwrap()), 1);
        assert_eq!(
            lanes.lane_of(workload::index_of("lognormal").unwrap()),
            2,
            "unmentioned workloads fall into the trailing default lane"
        );
    }

    #[test]
    fn lanes_parse_rejects_junk() {
        assert!(Lanes::parse("rt:nosuch").is_err(), "unknown workload");
        assert!(
            Lanes::parse("a:trivial;b:trivial").is_err(),
            "double assignment"
        );
        assert!(Lanes::parse("nocolon").is_err(), "missing separator");
        assert_eq!(Lanes::parse("").unwrap(), Lanes::single());
        // Unmentioned workloads would land in a second lane `default`.
        assert_eq!(
            Lanes::parse("default:trivial").map(|l| l.names().to_vec()),
            Err("lane name `default` is taken by the lane of unmentioned workloads".to_owned())
        );
    }

    #[test]
    fn admission_disabled_or_best_effort_always_admits() {
        let catalog = Arc::new(CatalogStats::new());
        let widx = lognormal_idx();
        for _ in 0..100 {
            catalog.record_service(widx, 1_000_000);
        }
        let off = Admission::new(false, Arc::clone(&catalog));
        assert!(off.admit(widx, 1, 1000, 1));
        let on = Admission::new(true, catalog);
        assert!(on.admit(widx, 0, 1000, 1), "deadline 0 is best-effort");
    }

    #[test]
    fn admission_is_deterministic_from_pinned_stats() {
        let catalog = Arc::new(CatalogStats::new());
        let widx = lognormal_idx();
        let gate = Admission::new(true, Arc::clone(&catalog));
        // Cold: nothing is provably infeasible.
        assert!(gate.admit(widx, 1, 64, 1));
        // Pin ~4ms service times; p99 bucket rounds up to 4096us.
        for _ in 0..64 {
            catalog.record_service(widx, 4_000);
        }
        assert!(!gate.admit(widx, 3, 0, 4), "deadline below p99 sheds");
        assert!(gate.admit(widx, 5, 0, 4), "deadline above p99 admits");
        // Queue wait pushes a feasible deadline over the edge.
        assert!(!gate.admit(widx, 5, 64, 4));
        // Same inputs, same verdicts.
        for _ in 0..3 {
            assert!(!gate.admit(widx, 3, 0, 4));
            assert!(gate.admit(widx, 5, 0, 4));
        }
    }

    /// Cold is "queue"; the sample floor at the bound is "shard"; the
    /// published flag is the rule's verdict as of the last record.
    #[test]
    fn shard_verdict_is_deterministic_from_pinned_stats() {
        let stats = CatalogStats::new();
        let widx = workload::index_of("trivial").unwrap();
        assert!(!stats.runs_on_shard(widx), "cold is queue");
        // The longest sample whose histogram bucket ends at the bound.
        let longest = SHARD_MAX_SERVICE_US - 1;
        for n in 1..ADMISSION_MIN_SAMPLES {
            stats.record_service(widx, longest);
            assert!(!stats.runs_on_shard(widx), "{n} samples is still cold");
        }
        stats.record_service(widx, longest);
        assert!(stats.runs_on_shard(widx), "the floor, all under the bound");
        for _ in 0..3 {
            assert!(stats.short_enough_for_shard(widx));
            assert!(stats.runs_on_shard(widx));
        }
        let other = lognormal_idx();
        assert!(!stats.runs_on_shard(other), "verdicts are per workload");
        assert!(
            !stats.runs_on_shard(workload::CATALOG.len()),
            "no such index"
        );
    }

    /// The regime change: a warm short workload whose arguments turn
    /// slow is back on the queue within four samples at twice the bound
    /// — by the recent mean, 1 000 fast samples deep, where the p99
    /// alone would want ten slow ones — and at once on a sample the
    /// size of `sleep 1`. Once slow samples are 1 % of its history the
    /// p99 keeps it there however fast the mean has become again.
    #[test]
    fn slow_samples_send_a_warm_workload_back_to_the_queue() {
        let warm = || {
            let stats = CatalogStats::new();
            for _ in 0..1_000 {
                stats.record_service(0, 5);
            }
            assert!(stats.runs_on_shard(0));
            stats
        };
        let stats = warm();
        let left_after = (1..=4)
            .find(|_| {
                stats.record_service(0, 2 * SHARD_MAX_SERVICE_US);
                !stats.runs_on_shard(0)
            })
            .expect("still on the shard after 4 samples at twice the bound");
        assert!(left_after >= 2, "one sample at twice the bound is noise");

        let stats = warm();
        stats.record_service(0, 1_000);
        assert!(
            !stats.runs_on_shard(0),
            "one millisecond on the shard is enough"
        );
        for _ in 0..10 {
            stats.record_service(0, 1_000);
        }
        for _ in 0..50 {
            stats.record_service(0, 5);
        }
        assert!(
            stats.service_mean_us(0).unwrap() < 6.0,
            "the mean recovered"
        );
        assert!(!stats.runs_on_shard(0), "the p99 remembers");
    }

    /// A body that waits on its token never qualifies, whatever it has
    /// measured: sixteen `sleep 0` (or 2 000) say nothing about the
    /// `sleep N` behind them, whose length is the client's to choose.
    /// The same samples put `trivial` on the shard.
    #[test]
    fn a_blocking_body_never_runs_on_the_shard_however_short_it_measures() {
        let stats = CatalogStats::new();
        let blocking = ["sleep", "lognormal", "bimodal"];
        for w in workload::CATALOG {
            assert_eq!(w.blocks, blocking.contains(&w.name), "{}", w.name);
        }
        for widx in blocking.map(|w| workload::index_of(w).unwrap()) {
            for _ in 0..2_000 {
                stats.record_service(widx, 1);
                assert!(!stats.runs_on_shard(widx));
                assert!(!stats.short_enough_for_shard(widx), "the flag is the rule");
            }
        }
        let trivial = workload::index_of("trivial").unwrap();
        for _ in 0..ADMISSION_MIN_SAMPLES {
            stats.record_service(trivial, 1);
        }
        assert!(stats.runs_on_shard(trivial));
    }

    /// A computing body is measured: at a millisecond a race (`prolog`
    /// reads half of one) it never qualifies, however many samples.
    #[test]
    fn a_millisecond_body_never_runs_on_the_shard() {
        let stats = CatalogStats::new();
        let widx = workload::index_of("prolog").unwrap();
        for _ in 0..4 * ADMISSION_MIN_SAMPLES {
            stats.record_service(widx, 1_000);
            assert!(!stats.runs_on_shard(widx));
            assert!(!stats.short_enough_for_shard(widx), "the flag is the rule");
        }
    }

    /// The bound sits where neither measured shape is near the p99
    /// clause's 1 %. `trivial` under `burst` — a 60 ns body with other
    /// threads' wake-ups inside 3 % of its races (25 in a thousand past
    /// 32 µs, 4 past 64, 1 past 128) — stays on the shard from the
    /// sample floor on, every sample; a bound at 32 µs had it change
    /// sides with every slow one. `prolog` under `cpu` — 8 µs, but 3 %
    /// of its races past 128 µs — is off it once that share has shown
    /// (the first thousand here), every sample.
    #[test]
    fn the_bound_is_far_from_both_measured_shapes() {
        let stats = CatalogStats::new();
        let trivial = workload::index_of("trivial").unwrap();
        let prolog = workload::index_of("prolog").unwrap();
        for n in 0..20_000u64 {
            let (preempted, usually_short) = match n % 1_000 {
                999 => (200, 400),
                995..=998 => (100, 400),
                970..=994 => (40, 400),
                _ => (8, 8),
            };
            stats.record_service(trivial, preempted);
            stats.record_service(prolog, usually_short);
            if n + 1 >= ADMISSION_MIN_SAMPLES {
                assert!(stats.runs_on_shard(trivial), "sample {n}");
            }
            if n >= 1_000 {
                assert!(!stats.runs_on_shard(prolog), "sample {n}");
            }
        }
    }

    fn prolog_idx() -> usize {
        workload::index_of("prolog").expect("catalog has prolog")
    }

    /// The shipped policy (hedging off) with `wins` races of `prolog`
    /// won by its witness-first order in `body_us` each.
    fn shipped_with_prolog_wins(wins: u64, body_us: u64) -> HedgePolicy {
        let policy = HedgePolicy::new(HedgeConfig::default());
        for _ in 0..wins {
            policy.record_win(prolog_idx(), 1, body_us);
        }
        policy
    }

    /// The plans of ticks 1, 2, 3 … 7: the ones the exploration floor
    /// leaves to the rule.
    fn plans_between_explorations(policy: &HedgePolicy, widx: usize, n: usize) -> Vec<LaunchPlan> {
        let every = policy.config().explore_every;
        let plans: Vec<_> = (0..every).map(|_| policy.plan(widx, n)).collect();
        assert_eq!(plans[0], LaunchPlan::immediate(n), "a tick of the floor");
        plans[1..].to_vec()
    }

    /// Cold is "race": until `min_samples` wins are on record every plan
    /// is the immediate, declaration-order one — the same value, not
    /// merely an equivalent — and from then on every tick that is not
    /// the floor's leads with the favourite.
    #[test]
    fn favourite_first_is_measured_never_presumed() {
        let policy = HedgePolicy::new(HedgeConfig::default());
        let widx = prolog_idx();
        let min_samples = policy.config().min_samples;
        for wins in 0..min_samples {
            assert_eq!(policy.lead_for(widx), None, "{wins} wins is cold");
            assert_eq!(policy.plan(widx, 2), LaunchPlan::immediate(2));
            policy.record_win(widx, 1, 2);
        }
        assert_eq!(policy.lead_for(widx), Some(1));
        // Ticks 0, 8, 16 … stay launch-all in declaration order, so the
        // win statistics stay live; the seven between lead.
        let policy = shipped_with_prolog_wins(min_samples, 2);
        for tick in 0..32u64 {
            let (plan, prune) = policy.plan_pruned(widx, 2);
            assert_eq!(
                prune, None,
                "tick {tick}: a failed lead needs real siblings"
            );
            if tick % 8 == 0 {
                assert_eq!(plan, LaunchPlan::immediate(2), "tick {tick} explores");
            } else {
                assert_eq!(plan, LaunchPlan::favourite_first(2, 1), "tick {tick}");
            }
        }
    }

    /// A body that waits on its token never leads alone, however short
    /// it has measured: how long it waits is the request's `arg`. With
    /// hedging off its plans are today's immediate ones, every tick;
    /// with hedging on it is hedged, never led.
    #[test]
    fn a_blocking_body_never_leads_however_short_it_measures() {
        for enabled in [false, true] {
            let policy = HedgePolicy::new(HedgeConfig {
                enabled,
                ..HedgeConfig::default()
            });
            for w in workload::CATALOG.iter().filter(|w| w.blocks) {
                let widx = workload::index_of(w.name).unwrap();
                let n = w.alternatives();
                for _ in 0..2_000 {
                    policy.record_win(widx, 0, 1);
                }
                assert_eq!(policy.lead_for(widx), None, "{}", w.name);
                for _ in 0..16 {
                    let plan = policy.plan(widx, n);
                    assert_eq!(plan.lead(), None, "{}", w.name);
                    assert!(enabled || plan == LaunchPlan::immediate(n), "{}", w.name);
                }
            }
        }
        // The same samples lead `trivial`, whose bodies cannot wait.
        let policy = HedgePolicy::new(HedgeConfig::default());
        let trivial = workload::index_of("trivial").unwrap();
        for _ in 0..2_000 {
            policy.record_win(trivial, 0, 1);
        }
        assert_eq!(policy.lead_for(trivial), Some(0));
    }

    /// A favourite that is only usually short does not lead: 2 % of its
    /// bodies past the bound put the p99 bucket over it, and the plan is
    /// the immediate one however low the recent mean reads.
    #[test]
    fn a_body_p99_over_the_bound_races_as_before() {
        let policy = HedgePolicy::new(HedgeConfig::default());
        let widx = prolog_idx();
        for n in 0..1_000u64 {
            let body_us = if n % 50 == 0 { 4 * RACER_WAKE_US } else { 2 };
            policy.record_win(widx, 1, body_us);
        }
        for _ in 0..20 {
            policy.record_win(widx, 1, 2);
        }
        let table = policy.catalog().table(widx).unwrap();
        assert!(table.ewma_us(1).unwrap() < 3.0, "the mean is short");
        assert!(table.quantile_us(1, 0.99).unwrap() > RACER_WAKE_US);
        assert_eq!(policy.lead_for(widx), None);
        for plan in plans_between_explorations(&policy, widx, 2) {
            assert_eq!(plan, LaunchPlan::immediate(2));
        }
    }

    /// The regime change: a favourite a thousand short samples deep that
    /// turns slow is over the bound by its recent mean within ten
    /// samples — where the p99 alone would wait for 1 % of its history —
    /// and the plan goes back to the immediate race.
    #[test]
    fn a_favourite_that_turns_slow_stops_leading_within_ten_samples() {
        let policy = shipped_with_prolog_wins(1_000, 2);
        let widx = prolog_idx();
        assert_eq!(policy.lead_for(widx), Some(1));
        let left_after = (1..=10)
            .find(|_| {
                policy.record_win(widx, 1, 2 * RACER_WAKE_US);
                policy.lead_for(widx).is_none()
            })
            .expect("still leading after ten samples at twice the bound");
        assert!(left_after >= 2, "one sample at twice the bound is noise");
        let table = policy.catalog().table(widx).unwrap();
        assert!(
            table.quantile_us(1, 0.99).unwrap() <= RACER_WAKE_US,
            "it was the mean: the p99 has not seen 1 % yet"
        );
        for plan in plans_between_explorations(&policy, widx, 2) {
            assert_eq!(plan, LaunchPlan::immediate(2));
        }
    }

    /// Why the statistic is the winner's body and not the race: `prolog`'s
    /// favourite under launch-all reads 8 / 32 / 64 µs (p50 / p95 / p99
    /// buckets) as race latency — the racer's wake-up and two switches
    /// are in it — and 1 / 2 / 4 µs as body time. Fed the first, a
    /// wake-cost bound never engages and the wake-up it would remove
    /// keeps it from engaging; fed the second it does.
    #[test]
    fn the_rule_reads_the_body_not_the_race_latency() {
        let widx = prolog_idx();
        let as_race_latency = HedgePolicy::new(HedgeConfig::default());
        let as_body = HedgePolicy::new(HedgeConfig::default());
        for n in 0..1_000u64 {
            let (race_us, body_us) = match n % 100 {
                98..=99 => (50, 3),
                94..=97 => (20, 2),
                50..=93 => (12, 1),
                _ => (6, 1),
            };
            as_race_latency.record_win(widx, 1, race_us);
            as_body.record_win(widx, 1, body_us);
        }
        let p99 = |p: &HedgePolicy| p.catalog().table(widx).unwrap().quantile_us(1, 0.99);
        assert_eq!(p99(&as_race_latency), Some(64));
        assert_eq!(p99(&as_body), Some(4));
        assert_eq!(as_race_latency.lead_for(widx), None);
        assert_eq!(as_body.lead_for(widx), Some(1));
    }

    #[test]
    fn catalog_rendering_says_which_schedule_each_workload_is_on() {
        let policy = shipped_with_prolog_wins(64, 2);
        for _ in 0..64 {
            policy.record_win(lognormal_idx(), 0, 2);
        }
        let text = render_catalog(&policy);
        let plans: Vec<&str> = text.lines().filter(|l| l.contains("plan: ")).collect();
        assert_eq!(plans.len(), workload::CATALOG.len(), "{text}");
        let led = "    plan: favourite-first (alt 1, body p99 ≤ 4 µs, mean 2.0 µs)";
        assert_eq!(plans[prolog_idx()], led, "{text}");
        assert_eq!(plans[lognormal_idx()], "    plan: race", "{text}");
    }

    #[test]
    fn catalog_rendering_says_where_each_workload_runs() {
        let policy = HedgePolicy::new(HedgeConfig::default());
        let trivial = workload::index_of("trivial").unwrap();
        for _ in 0..ADMISSION_MIN_SAMPLES {
            policy.record_service(trivial, 12);
        }
        policy.record_service(lognormal_idx(), 3_000);
        let text = render_catalog(&policy);
        for line in [
            "    runs on: shard (service p99 ≤ 16 µs, mean 12.0 µs, 16 samples)",
            "    runs on: queue (service p99 ≤ 4096 µs, mean 3000.0 µs, 1 samples)",
            "    runs on: queue (service p99 ≤ 0 µs, mean 0.0 µs, 0 samples)",
        ] {
            assert!(text.lines().any(|l| l == line), "{line:?} not in\n{text}");
        }
    }

    #[test]
    fn catalog_rendering_marks_the_favourite() {
        let policy = HedgePolicy::new(hedging_on());
        let widx = lognormal_idx();
        for _ in 0..5 {
            policy.record_win(widx, 2, 3_000);
        }
        let text = render_catalog(&policy);
        assert!(text.contains("lognormal"), "{text}");
        assert!(text.contains("draw-2  wins 5"), "{text}");
        assert!(text.contains("<- favourite"), "{text}");
        assert!(text.contains("sleep"), "every workload is listed");
    }
}
