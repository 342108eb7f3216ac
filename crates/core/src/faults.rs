//! Deterministic, seeded fault injection for the racing and serving
//! layers.
//!
//! The paper's premise is that alternatives *fail* — a guard is
//! unsatisfied, a sibling is eliminated, a machine dies — and the
//! survivor must still present clean sequential semantics (§5 frames
//! this as recovery blocks). This module makes those failures
//! *manufacturable*: a [`FaultPlan`] built from a seed decides, at named
//! **sites** on the execution path, whether to inject a panic, a delay,
//! a spurious cancellation, or a forced alternative failure. Every
//! decision is drawn from a per-site deterministic stream, so a soak run
//! under seed `S` injects the same fault sequence at each site every
//! time — failures become replayable test inputs rather than flakes.
//!
//! Sites in this workspace:
//!
//! | site | layer | faults honored |
//! |---|---|---|
//! | `engine.alt.<name>` | `ThreadedEngine`, per alternative | panic, delay, cancel, fail |
//! | `pool.job` | `WorkerPool`, per job | panic, delay, fail |
//! | `peer.link.<addr>.send` | `PeerLinks` (shard 0), per outbound frame | drop, delay, duplicate, truncate, partition |
//! | `peer.link.<addr>.recv` | `PeerLinks` (shard 0), per inbound frame | drop, delay, duplicate, truncate, partition |
//!
//! The `peer.link.*` sites speak the separate [`NetFault`] vocabulary —
//! wire-level failures rather than process-level ones — drawn from the
//! same seeded per-site streams via [`FaultPlan::decide_net`]. A test
//! can also impose a *timed one-way partition* by hand with
//! [`FaultPlan::partition`] / [`FaultPlan::heal`]: every visit of the
//! named site drops until healed, which is how the cluster soak models
//! a link that silently eats traffic in one direction and then comes
//! back.
//!
//! A plan is installed process-globally with [`install`] and removed
//! with [`clear`]. With no plan installed, [`inject`] is a single
//! relaxed atomic load — the layer compiles to near-zero overhead on the
//! hot path. Install a plan only from a test or binary that owns the
//! process (the chaos soak test lives in its own test binary for exactly
//! this reason).

use crate::cancel::CancelToken;
use altx_des::splitmix64;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Duration;

/// One injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Panic at the site (`panic!`); the surrounding layer must contain
    /// it — a dead worker or poisoned race is a containment bug, and the
    /// chaos soak exists to catch it.
    Panic,
    /// Sleep for the carried duration before proceeding: models a slow
    /// disk, a GC pause, a cold cache.
    Delay(Duration),
    /// Cancel the site's [`CancelToken`]: a spurious elimination signal,
    /// as if a sibling had already won or the caller gave up.
    Cancel,
    /// Force the alternative to fail (guard-unsatisfied semantics)
    /// without running it.
    Fail,
}

impl Fault {
    fn kind_index(self) -> usize {
        match self {
            Fault::Panic => 0,
            Fault::Delay(_) => 1,
            Fault::Cancel => 2,
            Fault::Fail => 3,
        }
    }
}

/// One injected *network* fault at a `peer.link.*` site.
///
/// These model the wire, not the process: a frame that never leaves,
/// arrives twice, arrives cut short, or a direction of a link that
/// silently eats everything for a while.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFault {
    /// The frame is lost: on send it never reaches the wire, on recv it
    /// is consumed without being delivered to the protocol layer.
    Drop,
    /// The frame is stalled for the carried duration before proceeding.
    Delay(Duration),
    /// The frame is delivered twice; the protocol layer must be
    /// idempotent against it.
    Duplicate,
    /// The frame's bytes are cut short, desynchronizing the stream —
    /// the link is expected to die and redial.
    Truncate,
    /// A one-way partition is swallowing this site: behaves as [`Drop`]
    /// for every visit until the partition window ends or is healed.
    ///
    /// [`Drop`]: NetFault::Drop
    Partition,
}

impl NetFault {
    fn kind_index(self) -> usize {
        match self {
            NetFault::Drop => 0,
            NetFault::Delay(_) => 1,
            NetFault::Duplicate => 2,
            NetFault::Truncate => 3,
            NetFault::Partition => 4,
        }
    }
}

/// Per-kind network fault probabilities, evaluated exactly like
/// [`FaultConfig`]'s process faults: one uniform draw per site visit
/// against the stacked edges drop → delay → duplicate → truncate →
/// partition.
#[derive(Debug, Clone)]
pub struct NetFaultConfig {
    /// Probability of [`NetFault::Drop`] per frame.
    pub p_drop: f64,
    /// Probability of [`NetFault::Delay`] per frame.
    pub p_delay: f64,
    /// Probability of [`NetFault::Duplicate`] per frame.
    pub p_duplicate: f64,
    /// Probability of [`NetFault::Truncate`] per frame.
    pub p_truncate: f64,
    /// Probability of a probabilistic one-way partition *starting* at
    /// this frame; it then swallows the next [`partition_visits`]
    /// visits of the same site.
    ///
    /// [`partition_visits`]: NetFaultConfig::partition_visits
    pub p_partition: f64,
    /// Upper bound for injected wire delays.
    pub max_delay: Duration,
    /// How many subsequent visits a probabilistic partition swallows.
    pub partition_visits: u64,
}

impl NetFaultConfig {
    /// No network faults at all.
    pub fn quiet() -> Self {
        NetFaultConfig {
            p_drop: 0.0,
            p_delay: 0.0,
            p_duplicate: 0.0,
            p_truncate: 0.0,
            p_partition: 0.0,
            max_delay: Duration::from_millis(2),
            partition_visits: 20,
        }
    }

    /// The cluster-soak mix: mostly drops, delays, and duplicates, with
    /// rare truncations (each one costs a redial) and rare short
    /// partitions.
    pub fn chaos() -> Self {
        NetFaultConfig {
            p_drop: 0.02,
            p_delay: 0.05,
            p_duplicate: 0.03,
            p_truncate: 0.005,
            p_partition: 0.002,
            max_delay: Duration::from_millis(2),
            partition_visits: 20,
        }
    }

    fn total(&self) -> f64 {
        self.p_drop + self.p_delay + self.p_duplicate + self.p_truncate + self.p_partition
    }
}

/// What a call site must do after consulting the plan. Panics and
/// delays are handled inside [`inject`]; the verdict only carries what
/// the caller itself has to act on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Proceed normally.
    Continue,
    /// Treat the alternative/job as failed without running it.
    Fail,
}

/// Per-kind injection probabilities and the seed they are drawn under.
///
/// Probabilities are evaluated in order panic → delay → cancel → fail
/// against one uniform draw per site visit, so their sum is the total
/// injection rate (values summing above 1.0 saturate).
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// Seed for every per-site decision stream.
    pub seed: u64,
    /// Probability of [`Fault::Panic`] per site visit.
    pub p_panic: f64,
    /// Probability of [`Fault::Delay`] per site visit.
    pub p_delay: f64,
    /// Probability of [`Fault::Cancel`] per site visit.
    pub p_cancel: f64,
    /// Probability of [`Fault::Fail`] per site visit.
    pub p_fail: f64,
    /// Upper bound for injected delays (drawn uniformly in `0..max`).
    pub max_delay: Duration,
    /// Network fault mix for the `peer.link.*` sites. Quiet in both the
    /// [`quiet`] and [`chaos`] presets — the process-fault soak and the
    /// wire-fault soak are separate tests with separate mixes.
    ///
    /// [`quiet`]: FaultConfig::quiet
    /// [`chaos`]: FaultConfig::chaos
    pub net: NetFaultConfig,
}

impl FaultConfig {
    /// A quiet plan: nothing fires. Useful as a base for builders.
    pub fn quiet(seed: u64) -> Self {
        FaultConfig {
            seed,
            p_panic: 0.0,
            p_delay: 0.0,
            p_cancel: 0.0,
            p_fail: 0.0,
            max_delay: Duration::from_millis(2),
            net: NetFaultConfig::quiet(),
        }
    }

    /// The standard chaos-soak mix: roughly 30% of site visits are
    /// faulted, split across all four kinds, with short delays so soaks
    /// stay fast. Network sites stay quiet.
    pub fn chaos(seed: u64) -> Self {
        FaultConfig {
            seed,
            p_panic: 0.08,
            p_delay: 0.08,
            p_cancel: 0.04,
            p_fail: 0.10,
            max_delay: Duration::from_millis(3),
            net: NetFaultConfig::quiet(),
        }
    }

    /// The cluster-soak mix: quiet process sites, chaotic wire — the
    /// failures under test are the network's, not the workers'.
    pub fn net_chaos(seed: u64) -> Self {
        FaultConfig {
            net: NetFaultConfig::chaos(),
            ..FaultConfig::quiet(seed)
        }
    }

    fn total(&self) -> f64 {
        self.p_panic + self.p_delay + self.p_cancel + self.p_fail
    }
}

/// A seeded fault plan plus its injection counters.
///
/// Each site gets its own decision stream: visit `n` of site `s` hashes
/// `(seed, s, n)`, so the fault sequence a site sees depends only on
/// the seed and how many times that site has been visited — not on how
/// threads interleave across sites.
#[derive(Debug)]
pub struct FaultPlan {
    cfg: FaultConfig,
    /// Per-site visit counters (site name → visits so far).
    site_seq: Mutex<BTreeMap<String, u64>>,
    /// Injections per fault kind, indexed by [`Fault::kind_index`].
    injected: [AtomicU64; 4],
    /// Injections per network fault kind ([`NetFault::kind_index`]).
    net_injected: [AtomicU64; 5],
    /// Sites under a manual one-way partition ([`partition`]/[`heal`]).
    ///
    /// [`partition`]: FaultPlan::partition
    /// [`heal`]: FaultPlan::heal
    partitioned: Mutex<std::collections::BTreeSet<String>>,
    /// Remaining visits swallowed by a probabilistic partition, per site.
    partition_left: Mutex<BTreeMap<String, u64>>,
}

impl FaultPlan {
    /// Builds a plan from a config.
    pub fn new(cfg: FaultConfig) -> Arc<Self> {
        Arc::new(FaultPlan {
            cfg,
            site_seq: Mutex::new(BTreeMap::new()),
            injected: Default::default(),
            net_injected: Default::default(),
            partitioned: Mutex::new(std::collections::BTreeSet::new()),
            partition_left: Mutex::new(BTreeMap::new()),
        })
    }

    /// Shorthand: the [`FaultConfig::chaos`] mix under `seed`.
    pub fn chaos(seed: u64) -> Arc<Self> {
        FaultPlan::new(FaultConfig::chaos(seed))
    }

    /// The plan's configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Total faults injected so far, all kinds.
    pub fn injected_total(&self) -> u64 {
        self.injected
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Faults of one kind injected so far (`Delay`'s duration is
    /// ignored for matching).
    pub fn injected_of(&self, kind: Fault) -> u64 {
        self.injected[kind.kind_index()].load(Ordering::Relaxed)
    }

    /// Decides the fault (if any) for the next visit of `site`, and
    /// counts it. Deterministic per `(seed, site, visit-number)`.
    pub fn decide(&self, site: &str) -> Option<Fault> {
        let seq = {
            let mut sites = self.site_seq.lock().unwrap_or_else(PoisonError::into_inner);
            let n = sites.entry(site.to_owned()).or_insert(0);
            let seq = *n;
            *n += 1;
            seq
        };
        let raw = splitmix64(self.cfg.seed ^ fnv1a(site) ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let u = uniform(raw);
        if self.cfg.total() <= 0.0 {
            return None;
        }
        // One uniform draw against the stacked probability edges.
        let mut edge = 0.0;
        let mut hits = |p: f64| {
            edge += p;
            u < edge
        };
        let fault = if hits(self.cfg.p_panic) {
            Fault::Panic
        } else if hits(self.cfg.p_delay) {
            // A second draw picks the delay length, still deterministic.
            let frac = uniform(splitmix64(raw ^ 0xD31A));
            Fault::Delay(self.cfg.max_delay.mul_f64(frac))
        } else if hits(self.cfg.p_cancel) {
            Fault::Cancel
        } else if hits(self.cfg.p_fail) {
            Fault::Fail
        } else {
            return None;
        };
        self.injected[fault.kind_index()].fetch_add(1, Ordering::Relaxed);
        Some(fault)
    }

    /// Decides the network fault (if any) for the next visit of a
    /// `peer.link.*` site, and counts it. Deterministic per
    /// `(seed, site, visit-number)`, on a stream independent from the
    /// process-fault stream of the same site name.
    ///
    /// Manual partitions ([`partition`]) take precedence over the
    /// probabilistic draw; a probabilistic [`NetFault::Partition`]
    /// swallows the next [`NetFaultConfig::partition_visits`] visits of
    /// the same site so a partition has *duration*, not just a single
    /// lost frame.
    ///
    /// [`partition`]: FaultPlan::partition
    pub fn decide_net(&self, site: &str) -> Option<NetFault> {
        let partitioned = self
            .partitioned
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .contains(site);
        if partitioned {
            self.net_injected[NetFault::Partition.kind_index()].fetch_add(1, Ordering::Relaxed);
            return Some(NetFault::Partition);
        }
        {
            let mut left = self
                .partition_left
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if let Some(n) = left.get_mut(site) {
                *n -= 1;
                if *n == 0 {
                    left.remove(site);
                }
                self.net_injected[NetFault::Partition.kind_index()].fetch_add(1, Ordering::Relaxed);
                return Some(NetFault::Partition);
            }
        }
        if self.cfg.net.total() <= 0.0 {
            return None;
        }
        let seq = {
            let mut sites = self.site_seq.lock().unwrap_or_else(PoisonError::into_inner);
            let n = sites.entry(site.to_owned()).or_insert(0);
            let seq = *n;
            *n += 1;
            seq
        };
        // Salted so the wire stream never mirrors a process stream that
        // happens to share a site name.
        let raw = splitmix64(
            self.cfg.seed
                ^ fnv1a(site)
                ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ 0x57A7_1C0D_E57A_71C0,
        );
        let u = uniform(raw);
        let net = &self.cfg.net;
        let mut edge = 0.0;
        let mut hits = |p: f64| {
            edge += p;
            u < edge
        };
        let fault = if hits(net.p_drop) {
            NetFault::Drop
        } else if hits(net.p_delay) {
            let frac = uniform(splitmix64(raw ^ 0xD31A));
            NetFault::Delay(net.max_delay.mul_f64(frac))
        } else if hits(net.p_duplicate) {
            NetFault::Duplicate
        } else if hits(net.p_truncate) {
            NetFault::Truncate
        } else if hits(net.p_partition) {
            if net.partition_visits > 0 {
                self.partition_left
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .insert(site.to_owned(), net.partition_visits);
            }
            NetFault::Partition
        } else {
            return None;
        };
        self.net_injected[fault.kind_index()].fetch_add(1, Ordering::Relaxed);
        Some(fault)
    }

    /// Imposes a manual one-way partition: every subsequent visit of
    /// `site` draws [`NetFault::Partition`] until [`heal`] is called.
    /// Partitioning only one direction (`…send` or `…recv`) is exactly
    /// the asymmetric failure TCP keeps alive and health checks must
    /// catch.
    ///
    /// [`heal`]: FaultPlan::heal
    pub fn partition(&self, site: &str) {
        self.partitioned
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(site.to_owned());
    }

    /// Lifts a manual partition on `site` (and any probabilistic
    /// partition window in progress there).
    pub fn heal(&self, site: &str) {
        self.partitioned
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(site);
        self.partition_left
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(site);
    }

    /// Total network faults injected so far, all kinds.
    pub fn net_injected_total(&self) -> u64 {
        self.net_injected
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Network faults of one kind injected so far (`Delay`'s duration
    /// is ignored for matching).
    pub fn net_injected_of(&self, kind: NetFault) -> u64 {
        self.net_injected[kind.kind_index()].load(Ordering::Relaxed)
    }
}

fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn uniform(raw: u64) -> f64 {
    (raw >> 11) as f64 / (1u64 << 53) as f64
}

// ---------------------------------------------------------------------
// Process-global installation.

static ACTIVE: AtomicBool = AtomicBool::new(false);

fn registry() -> &'static Mutex<Option<Arc<FaultPlan>>> {
    static REGISTRY: OnceLock<Mutex<Option<Arc<FaultPlan>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(None))
}

/// Installs `plan` process-globally; replaces any previous plan.
pub fn install(plan: Arc<FaultPlan>) {
    *registry().lock().unwrap_or_else(PoisonError::into_inner) = Some(plan);
    ACTIVE.store(true, Ordering::Release);
}

/// Removes the installed plan; injection sites return to the
/// single-atomic-load fast path.
pub fn clear() {
    ACTIVE.store(false, Ordering::Release);
    *registry().lock().unwrap_or_else(PoisonError::into_inner) = None;
}

/// True iff a plan is installed. One relaxed load — this is the hot-path
/// guard call sites use before doing any per-site work (such as
/// formatting a site name).
#[inline]
pub fn enabled() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// The currently installed plan, if any.
pub fn current() -> Option<Arc<FaultPlan>> {
    if !enabled() {
        return None;
    }
    registry()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone()
}

/// Total faults injected by the installed plan (0 when none).
pub fn injected_total() -> u64 {
    current().map_or(0, |p| p.injected_total())
}

/// Uninstalls the plan when dropped — keeps a panicking test from
/// leaking chaos into the rest of the process.
#[derive(Debug)]
pub struct InstallGuard(());

/// Installs `plan` and returns a guard that [`clear`]s it on drop.
#[must_use = "dropping the guard immediately uninstalls the plan"]
pub fn install_guarded(plan: Arc<FaultPlan>) -> InstallGuard {
    install(plan);
    InstallGuard(())
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        clear();
    }
}

/// Consults the plan at `site`, handling panics and delays in place.
///
/// With no plan installed this is one relaxed atomic load. Otherwise:
/// `Panic` faults panic right here (the caller's containment layer must
/// absorb it), `Delay` sleeps — on `token` if one was passed, so a
/// cancellation or the deadline cuts the delay short — and continues,
/// `Cancel` cancels `token` (if one was passed) and continues, and
/// `Fail` is returned as [`Verdict::Fail`] for the caller to act on.
#[inline]
pub fn inject(site: &str, token: Option<&CancelToken>) -> Verdict {
    if !enabled() {
        return Verdict::Continue;
    }
    inject_slow(site, token)
}

/// Consults the plan for a network fault at `site` (a `peer.link.*`
/// site). Unlike [`inject`], nothing is handled in place: the caller
/// owns the frame and must act on the returned fault — including
/// sleeping out a [`NetFault::Delay`] at whatever point in its I/O
/// path models the stall best. With no plan installed this is one
/// relaxed atomic load and returns `None`.
#[inline]
pub fn inject_net(site: &str) -> Option<NetFault> {
    if !enabled() {
        return None;
    }
    inject_net_slow(site)
}

#[cold]
fn inject_net_slow(site: &str) -> Option<NetFault> {
    current()?.decide_net(site)
}

#[cold]
fn inject_slow(site: &str, token: Option<&CancelToken>) -> Verdict {
    let Some(plan) = current() else {
        return Verdict::Continue;
    };
    match plan.decide(site) {
        None => Verdict::Continue,
        Some(Fault::Panic) => panic!("altx-faults: injected panic at {site}"),
        Some(Fault::Delay(d)) => {
            // A stall, not a verdict: with a token the stalled site is
            // still woken by the decision or the deadline it runs under.
            match token {
                Some(t) => {
                    t.sleep(d);
                }
                None => std::thread::sleep(d),
            }
            Verdict::Continue
        }
        Some(Fault::Cancel) => {
            if let Some(t) = token {
                t.cancel();
            }
            Verdict::Continue
        }
        Some(Fault::Fail) => Verdict::Fail,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_plan_never_fires() {
        let plan = FaultPlan::new(FaultConfig::quiet(7));
        for _ in 0..500 {
            assert_eq!(plan.decide("engine.alt.x"), None);
        }
        assert_eq!(plan.injected_total(), 0);
    }

    #[test]
    fn decisions_are_deterministic_per_seed_and_site() {
        let a = FaultPlan::new(FaultConfig::chaos(42));
        let b = FaultPlan::new(FaultConfig::chaos(42));
        let seq_a: Vec<_> = (0..200).map(|_| a.decide("pool.job")).collect();
        let seq_b: Vec<_> = (0..200).map(|_| b.decide("pool.job")).collect();
        assert_eq!(seq_a, seq_b);

        let c = FaultPlan::new(FaultConfig::chaos(43));
        let seq_c: Vec<_> = (0..200).map(|_| c.decide("pool.job")).collect();
        assert_ne!(seq_a, seq_c, "different seed, different stream");
    }

    #[test]
    fn sites_have_independent_streams() {
        let plan = FaultPlan::new(FaultConfig::chaos(9));
        let s1: Vec<_> = (0..100).map(|_| plan.decide("site.one")).collect();
        let plan2 = FaultPlan::new(FaultConfig::chaos(9));
        let s2: Vec<_> = (0..100).map(|_| plan2.decide("site.two")).collect();
        assert_ne!(s1, s2);
    }

    #[test]
    fn injection_rate_tracks_configured_probability() {
        let plan = FaultPlan::new(FaultConfig::chaos(1));
        let fired = (0..2000).filter(|_| plan.decide("rate").is_some()).count();
        // chaos() totals 0.30; allow generous slack.
        assert!((400..800).contains(&fired), "fired {fired} of 2000");
        assert_eq!(plan.injected_total(), fired as u64);
    }

    #[test]
    fn per_kind_counters_sum_to_total() {
        let plan = FaultPlan::new(FaultConfig::chaos(5));
        for _ in 0..1000 {
            let _ = plan.decide("kinds");
        }
        let by_kind = plan.injected_of(Fault::Panic)
            + plan.injected_of(Fault::Delay(Duration::ZERO))
            + plan.injected_of(Fault::Cancel)
            + plan.injected_of(Fault::Fail);
        assert_eq!(by_kind, plan.injected_total());
        assert!(plan.injected_of(Fault::Panic) > 0);
        assert!(plan.injected_of(Fault::Fail) > 0);
    }

    #[test]
    fn delays_respect_max_delay() {
        let mut cfg = FaultConfig::quiet(3);
        cfg.p_delay = 1.0;
        cfg.max_delay = Duration::from_millis(7);
        let plan = FaultPlan::new(cfg);
        for _ in 0..100 {
            match plan.decide("delays") {
                Some(Fault::Delay(d)) => assert!(d <= Duration::from_millis(7)),
                other => panic!("expected Delay, got {other:?}"),
            }
        }
    }

    #[test]
    fn net_quiet_never_fires() {
        let plan = FaultPlan::new(FaultConfig::quiet(7));
        for _ in 0..500 {
            assert_eq!(plan.decide_net("peer.link.a:1.send"), None);
        }
        assert_eq!(plan.net_injected_total(), 0);
    }

    #[test]
    fn net_streams_are_deterministic_and_independent_of_process_streams() {
        let a = FaultPlan::new(FaultConfig::net_chaos(42));
        let b = FaultPlan::new(FaultConfig::net_chaos(42));
        let site = "peer.link.10.0.0.1:7171.recv";
        let seq_a: Vec<_> = (0..300).map(|_| a.decide_net(site)).collect();
        let seq_b: Vec<_> = (0..300).map(|_| b.decide_net(site)).collect();
        assert_eq!(seq_a, seq_b);

        let c = FaultPlan::new(FaultConfig::net_chaos(43));
        let seq_c: Vec<_> = (0..300).map(|_| c.decide_net(site)).collect();
        assert_ne!(seq_a, seq_c, "different seed, different wire stream");

        // Process faults at the same site name draw from a salted
        // stream and — under net_chaos — never fire at all.
        assert_eq!(a.decide(site), None);
    }

    #[test]
    fn net_injection_rate_tracks_configured_probability() {
        let plan = FaultPlan::new(FaultConfig::net_chaos(1));
        let mut fired = 0usize;
        for _ in 0..4000 {
            if plan.decide_net("rate").is_some() {
                fired += 1;
            }
        }
        // chaos() totals ~0.107, and each partition draw swallows 20
        // more visits; allow generous slack around that inflation.
        assert!((200..1600).contains(&fired), "fired {fired} of 4000");
        assert_eq!(plan.net_injected_total(), fired as u64);
        let by_kind = plan.net_injected_of(NetFault::Drop)
            + plan.net_injected_of(NetFault::Delay(Duration::ZERO))
            + plan.net_injected_of(NetFault::Duplicate)
            + plan.net_injected_of(NetFault::Truncate)
            + plan.net_injected_of(NetFault::Partition);
        assert_eq!(by_kind, plan.net_injected_total());
        assert!(plan.net_injected_of(NetFault::Drop) > 0);
        assert!(plan.net_injected_of(NetFault::Duplicate) > 0);
    }

    #[test]
    fn manual_partition_swallows_everything_until_healed() {
        let plan = FaultPlan::new(FaultConfig::quiet(3));
        let site = "peer.link.b:2.recv";
        assert_eq!(plan.decide_net(site), None);
        plan.partition(site);
        for _ in 0..50 {
            assert_eq!(plan.decide_net(site), Some(NetFault::Partition));
        }
        // The other direction is untouched: the partition is one-way.
        assert_eq!(plan.decide_net("peer.link.b:2.send"), None);
        plan.heal(site);
        assert_eq!(plan.decide_net(site), None);
        assert_eq!(plan.net_injected_of(NetFault::Partition), 50);
    }

    #[test]
    fn probabilistic_partition_has_duration() {
        let mut cfg = FaultConfig::quiet(9);
        cfg.net.p_partition = 1.0;
        cfg.net.partition_visits = 5;
        let plan = FaultPlan::new(cfg);
        // First visit starts the window; the next 5 are swallowed by it
        // (without consuming the site's draw stream), then the stream
        // immediately starts another window.
        for i in 0..12 {
            assert_eq!(
                plan.decide_net("peer.link.c:3.send"),
                Some(NetFault::Partition),
                "visit {i}"
            );
        }
    }

    // The install/clear global is exercised in one test to avoid
    // cross-test interference inside this binary.
    #[test]
    fn global_install_roundtrip() {
        assert_eq!(inject("nothing.installed", None), Verdict::Continue);
        assert_eq!(injected_total(), 0);

        let mut cfg = FaultConfig::quiet(11);
        cfg.p_fail = 1.0;
        {
            let _guard = install_guarded(FaultPlan::new(cfg));
            assert!(enabled());
            assert_eq!(inject("always.fails", None), Verdict::Fail);
            assert!(injected_total() >= 1);

            let mut cancel_cfg = FaultConfig::quiet(12);
            cancel_cfg.p_cancel = 1.0;
            install(FaultPlan::new(cancel_cfg));
            let token = CancelToken::new();
            assert_eq!(inject("always.cancels", Some(&token)), Verdict::Continue);
            assert!(token.is_cancelled(), "cancel fault fired the token");
        }
        assert!(!enabled(), "guard uninstalls on drop");
        assert!(current().is_none());
    }
}
