//! The race scheduler: Scheme A statistics driving hedged launch plans.
//!
//! The paper's §4.2 Scheme A selects alternatives by statistical data;
//! Scheme C races everything. The serving layer's [`HedgePolicy`] blends
//! the two: once a workload has enough history, the historical favourite
//! launches at t=0 and every other alternative is *hedged* — held back by
//! a [`LaunchPlan`] offset derived from the favourite's observed p95
//! latency. If the favourite answers within its usual envelope the
//! siblings are suppressed (their bodies never run); if it straggles or
//! fails, the hedges fire and the race proceeds exactly as before.
//! Suppression changes cost, never which value is selected: the engine's
//! winner selection, sibling elimination, and panic containment are
//! untouched.
//!
//! A mandatory exploration floor keeps the statistics live: every
//! `explore_every`-th request per workload races launch-all regardless of
//! history, so a regime change (the favourite going slow) is observed and
//! the policy adapts.
//!
//! [`CatalogStats`] is the shared, interned statistics store: one
//! [`AltStatsTable`] per catalog workload, indexed `(workload index,
//! alternative index)` — no string keys or locks on the record path.
//! Telemetry renders win tallies from the same store the policy reads.

use crate::workload::{self, WorkloadSpec};
use altx::engine::LaunchPlan;
use altx::stats::AltStatsTable;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Knobs for the hedging policy. Defaults keep hedging *off*: every race
/// is launch-all, byte-for-byte the pre-scheduler behaviour.
#[derive(Debug, Clone, Copy)]
pub struct HedgeConfig {
    /// Master switch; when false every plan is immediate.
    pub enabled: bool,
    /// Wins a workload must accumulate before its favourite is trusted.
    pub min_samples: u64,
    /// Every n-th request races launch-all (the exploration floor).
    /// Clamped to at least 2 — exploration can never be disabled.
    pub explore_every: u64,
    /// Lower clamp on the hedge delay (guards against a p95 so small the
    /// hedges would effectively launch immediately anyway).
    pub min_delay: Duration,
    /// Upper clamp on the hedge delay (bounds worst-case added latency
    /// when the favourite fails outright).
    pub max_delay: Duration,
}

impl Default for HedgeConfig {
    fn default() -> Self {
        HedgeConfig {
            enabled: false,
            min_samples: 20,
            explore_every: 8,
            min_delay: Duration::from_micros(500),
            max_delay: Duration::from_millis(50),
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
}

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
        }
    }

    /// The statistics table for catalog workload `widx`.
    pub fn table(&self, widx: usize) -> Option<&AltStatsTable> {
        self.tables.get(widx)
    }

    /// Records one race's end-to-end service time, whatever its outcome.
    pub fn record_service(&self, widx: usize, latency_us: u64) {
        if let Some(t) = self.service.get(widx) {
            t.record_win(0, latency_us);
        }
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
    /// with `n_alts` alternatives. Immediate (launch-all) when hedging is
    /// disabled, history is thin, this is an exploration tick, or there
    /// is no favourite yet.
    pub fn plan(&self, widx: usize, n_alts: usize) -> LaunchPlan {
        self.plan_pruned(widx, n_alts).0
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
    pub fn plan_pruned(&self, widx: usize, n_alts: usize) -> (LaunchPlan, Option<Vec<bool>>) {
        if !self.config.enabled || n_alts <= 1 {
            return (LaunchPlan::immediate(n_alts), None);
        }
        let Some(table) = self.catalog.table(widx) else {
            return (LaunchPlan::immediate(n_alts), None);
        };
        // The exploration floor fires on tick 0 too, so a cold workload's
        // first request is always a full race.
        let tick = self.ticks[widx].fetch_add(1, Ordering::Relaxed);
        let explore_every = self.config.explore_every.max(2);
        if tick.is_multiple_of(explore_every) {
            return (LaunchPlan::immediate(n_alts), None);
        }
        let total_wins = table.total_wins();
        if total_wins < self.config.min_samples {
            return (LaunchPlan::immediate(n_alts), None);
        }
        let Some(fav) = table.favourite() else {
            return (LaunchPlan::immediate(n_alts), None);
        };
        let p95 = table.quantile_us(fav, 0.95).unwrap_or(0);
        let delay = Duration::from_micros(p95).clamp(self.config.min_delay, self.config.max_delay);
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

    /// Records a race outcome: the winner's latency feeds the EWMA,
    /// histogram, and win count the next plan reads.
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
    /// the lowest priority. An empty spec yields [`Lanes::single`].
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hedging_on() -> HedgeConfig {
        HedgeConfig {
            enabled: true,
            min_samples: 4,
            explore_every: 4,
            ..HedgeConfig::default()
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
    fn hedge_delay_is_clamped() {
        let mut config = hedging_on();
        config.min_delay = Duration::from_millis(2);
        config.max_delay = Duration::from_millis(10);
        let policy = HedgePolicy::new(config);
        let widx = lognormal_idx();
        // Sub-microsecond favourite: delay clamps up to min_delay.
        for _ in 0..10 {
            policy.record_win(widx, 0, 1);
        }
        let _ = policy.plan(widx, 3);
        let plan = policy.plan(widx, 3);
        assert_eq!(plan.offset(1), Duration::from_millis(2));

        // Very slow favourite: delay clamps down to max_delay.
        let policy = HedgePolicy::new(config);
        for _ in 0..10 {
            policy.record_win(widx, 0, 900_000);
        }
        let _ = policy.plan(widx, 3);
        let plan = policy.plan(widx, 3);
        assert_eq!(plan.offset(1), Duration::from_millis(10));
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
