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
//! | `peer.link.<addr>.send` | `PeerLinks` (shard 0), per write to a link | delay, truncate, stall |
//! | `peer.link.<addr>.recv` | `PeerLinks` (shard 0), per frame read off a link | delay, truncate, stall |
//!
//! The `peer.link.*` sites speak the separate [`NetFault`] vocabulary —
//! what a TCP stream can do, drawn from the same seeded per-site
//! streams via [`FaultPlan::decide_net`]. A live stream never loses,
//! doubles or reorders a frame: it is slow, or it is cut. A test can
//! also *stall* one direction of a link by hand with
//! [`FaultPlan::stall`] / [`FaultPlan::heal`]: the stalled site moves
//! no byte until healed, which is how the cluster soak models a link
//! that TCP keeps open while nothing gets through in one direction.
//!
//! A plan is installed process-globally with [`install`] and removed
//! with [`clear`]. With no plan installed, [`inject`] is a single
//! relaxed atomic load — the layer compiles to near-zero overhead on the
//! hot path. Install a plan only from a test or binary that owns the
//! process (the chaos soak test lives in its own test binary for exactly
//! this reason).

use crate::cancel::CancelToken;
use altx_des::splitmix64;
use std::collections::{BTreeMap, BTreeSet};
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

/// One injected *network* fault at a `peer.link.*` site: what a TCP
/// stream can do to the frames on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFault {
    /// The stream moves the frame the carried duration late.
    Delay(Duration),
    /// The connection dies mid-frame: a write puts half the frame on
    /// the wire and closes, a read sees the close instead of the frame.
    Truncate,
}

impl NetFault {
    fn kind_index(self) -> usize {
        match self {
            NetFault::Delay(_) => 0,
            NetFault::Truncate => 1,
        }
    }
}

/// Per-kind network fault probabilities, evaluated exactly like
/// [`FaultConfig`]'s process faults: one uniform draw per site visit
/// against the stacked edges delay → truncate.
#[derive(Debug, Clone)]
pub struct NetFaultConfig {
    /// Probability of [`NetFault::Delay`] per visit.
    pub p_delay: f64,
    /// Probability of [`NetFault::Truncate`] per visit.
    pub p_truncate: f64,
    /// Upper bound for injected wire delays.
    pub max_delay: Duration,
}

impl NetFaultConfig {
    /// No network faults at all.
    pub fn quiet() -> Self {
        NetFaultConfig {
            p_delay: 0.0,
            p_truncate: 0.0,
            max_delay: Duration::from_millis(2),
        }
    }

    /// The cluster-soak mix: mostly delays, with rare cuts (each one
    /// costs a redial).
    pub fn chaos() -> Self {
        NetFaultConfig {
            p_delay: 0.05,
            p_truncate: 0.005,
            max_delay: Duration::from_millis(2),
        }
    }

    fn total(&self) -> f64 {
        self.p_delay + self.p_truncate
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
    net_injected: [AtomicU64; 2],
    /// Sites stalled by hand ([`stall`]/[`heal`]).
    ///
    /// [`stall`]: FaultPlan::stall
    /// [`heal`]: FaultPlan::heal
    stalled: Mutex<BTreeSet<String>>,
}

impl FaultPlan {
    /// Builds a plan from a config.
    pub fn new(cfg: FaultConfig) -> Arc<Self> {
        Arc::new(FaultPlan {
            cfg,
            site_seq: Mutex::new(BTreeMap::new()),
            injected: Default::default(),
            net_injected: Default::default(),
            stalled: Mutex::new(BTreeSet::new()),
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
        let (raw, u) = self.draw(site, 0);
        let c = &self.cfg;
        if c.total() <= 0.0 {
            return None;
        }
        let fault = match stacked(u, &[c.p_panic, c.p_delay, c.p_cancel, c.p_fail])? {
            0 => Fault::Panic,
            1 => Fault::Delay(c.max_delay.mul_f64(second_draw(raw))),
            2 => Fault::Cancel,
            _ => Fault::Fail,
        };
        self.injected[fault.kind_index()].fetch_add(1, Ordering::Relaxed);
        Some(fault)
    }

    /// Decides the network fault (if any) for the next visit of a
    /// `peer.link.*` site, and counts it. Deterministic per
    /// `(seed, site, visit-number)`, on a stream independent from the
    /// process-fault stream of the same site name. A stall
    /// ([`stall`]) is no draw: it neither reads nor moves the stream.
    ///
    /// [`stall`]: FaultPlan::stall
    pub fn decide_net(&self, site: &str) -> Option<NetFault> {
        let net = &self.cfg.net;
        if net.total() <= 0.0 {
            return None;
        }
        // Salted so the wire stream never mirrors a process stream that
        // happens to share a site name.
        let (raw, u) = self.draw(site, 0x57A7_1C0D_E57A_71C0);
        let fault = match stacked(u, &[net.p_delay, net.p_truncate])? {
            0 => NetFault::Delay(net.max_delay.mul_f64(second_draw(raw))),
            _ => NetFault::Truncate,
        };
        self.net_injected[fault.kind_index()].fetch_add(1, Ordering::Relaxed);
        Some(fault)
    }

    /// The next draw of `site`'s stream: counts the visit under the
    /// lock, then hashes `(seed, site, visit-number)`, XORed with
    /// `salt`, into a raw word and a uniform draw in `[0, 1)`.
    fn draw(&self, site: &str, salt: u64) -> (u64, f64) {
        let seq = {
            let mut sites = self.site_seq.lock().unwrap_or_else(PoisonError::into_inner);
            let n = sites.entry(site.to_owned()).or_insert(0);
            let seq = *n;
            *n += 1;
            seq
        };
        let raw = splitmix64(
            self.cfg.seed ^ fnv1a(site) ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt,
        );
        (raw, uniform(raw))
    }

    /// Stalls `site` until [`heal`]: a stalled `…send` site writes
    /// nothing and a stalled `…recv` site reads nothing, while the
    /// connection stays open. Stalling one direction is exactly the
    /// asymmetric failure TCP keeps alive and only silence shows.
    ///
    /// [`heal`]: FaultPlan::heal
    pub fn stall(&self, site: &str) {
        self.stalled
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(site.to_owned());
    }

    /// Lifts the stall on `site`.
    pub fn heal(&self, site: &str) {
        self.stalled
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(site);
    }

    /// True while `site` is stalled.
    pub fn is_stalled(&self, site: &str) -> bool {
        self.stalled
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .contains(site)
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

/// A second uniform draw from the same raw word: what picks a delay's
/// length, still deterministic.
fn second_draw(raw: u64) -> f64 {
    uniform(splitmix64(raw ^ 0xD31A))
}

/// One uniform draw `u` against probabilities stacked in order: the
/// index of the first whose running sum exceeds `u`, or `None` when `u`
/// lies past them all.
fn stacked(u: f64, probabilities: &[f64]) -> Option<usize> {
    let mut edge = 0.0;
    probabilities.iter().position(|p| {
        edge += p;
        u < edge
    })
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

/// True iff the installed plan stalls `site` ([`FaultPlan::stall`]).
/// With no plan installed this is one relaxed atomic load.
#[inline]
pub fn stalled(site: &str) -> bool {
    enabled() && stalled_slow(site)
}

#[cold]
fn stalled_slow(site: &str) -> bool {
    current().is_some_and(|plan| plan.is_stalled(site))
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

    /// The wire mix draws only what a stream can do, at its rate, and
    /// every draw is counted under its kind.
    #[test]
    fn net_chaos_draws_only_stream_faults_and_counts_each_kind() {
        let plan = FaultPlan::new(FaultConfig::net_chaos(1));
        let fired = (0..4000)
            .filter(|_| match plan.decide_net("rate") {
                Some(NetFault::Delay(d)) => d <= Duration::from_millis(2),
                Some(NetFault::Truncate) => true,
                None => false,
            })
            .count();
        // chaos() totals 0.055: about 220 of 4000.
        assert!((120..340).contains(&fired), "fired {fired} of 4000");
        assert_eq!(plan.net_injected_total(), fired as u64);
        let delays = plan.net_injected_of(NetFault::Delay(Duration::ZERO));
        let cuts = plan.net_injected_of(NetFault::Truncate);
        assert_eq!(delays + cuts, plan.net_injected_total());
        assert!(delays > 0 && cuts > 0, "{delays} delays, {cuts} cuts");
    }

    /// A stall holds one direction of one link until healed, and is no
    /// draw: the site's stream reads the same under it and after it as
    /// on a plan that never stalled.
    #[test]
    fn a_stall_holds_one_site_until_healed_and_draws_nothing() {
        let site = "peer.link.b:2.recv";
        let draws = |plan: &FaultPlan| (0..50).map(|_| plan.decide_net(site)).collect::<Vec<_>>();
        let plain = FaultPlan::new(FaultConfig::net_chaos(3));
        let stalled = FaultPlan::new(FaultConfig::net_chaos(3));
        assert!(!stalled.is_stalled(site));
        stalled.stall(site);
        assert_eq!(draws(&stalled), draws(&plain));
        assert!(stalled.is_stalled(site), "until healed");
        // The other direction is untouched: the stall is one-way.
        assert!(!stalled.is_stalled("peer.link.b:2.send"));
        stalled.heal(site);
        assert!(!stalled.is_stalled(site));
        assert_eq!(draws(&stalled), draws(&plain));
        assert_eq!(stalled.net_injected_total(), plain.net_injected_total());
    }

    /// The first 32 verdicts of two process sites and one wire site
    /// under one seed, as they were drawn when this test was written:
    /// every chaos seed must keep replaying the same faults.
    #[test]
    fn chaos_streams_replay_their_pinned_verdicts() {
        fn code(fault: Option<Fault>) -> String {
            match fault {
                None => ".".into(),
                Some(Fault::Panic) => "P".into(),
                Some(Fault::Cancel) => "C".into(),
                Some(Fault::Fail) => "F".into(),
                Some(Fault::Delay(d)) => format!("D{}", d.as_nanos()),
            }
        }
        fn net_code(fault: Option<NetFault>) -> String {
            match fault {
                None => ".".into(),
                Some(NetFault::Truncate) => "T".into(),
                Some(NetFault::Delay(d)) => format!("D{}", d.as_nanos()),
            }
        }
        let plan = FaultPlan::chaos(0xC0FFEE);
        let drawn = |site: &str| (0..32).map(|_| code(plan.decide(site))).collect::<Vec<_>>();
        assert_eq!(
            drawn("engine.alt.x").join(" "),
            ". . . . P D685472 . P . . . . . . D467270 F \
             P D2012935 P P . . . . F . P . . F P D456190"
        );
        assert_eq!(
            drawn("pool.job").join(" "),
            "F D2972585 P C . . . P . . C . F . . . \
             . . . P . . . . . F F D2817271 . . . ."
        );
        let plan = FaultPlan::new(FaultConfig::net_chaos(0xC0FFEE));
        let wire: Vec<_> = (0..32)
            .map(|_| net_code(plan.decide_net("peer.link.a:1.send")))
            .collect();
        assert_eq!(
            wire.join(" "),
            ". . . . . . . . . . . T . D170860 . . \
             . . . . . . D1662284 . . . . . . . . ."
        );
    }

    // The install/clear global is exercised in one test to avoid
    // cross-test interference inside this binary.
    #[test]
    fn global_install_roundtrip() {
        assert_eq!(inject("nothing.installed", None), Verdict::Continue);
        assert_eq!(injected_total(), 0);
        assert!(!stalled("nothing.installed"));

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

            let plan = FaultPlan::new(FaultConfig::quiet(13));
            plan.stall("a.site");
            install(plan);
            assert!(stalled("a.site") && !stalled("another.site"));
        }
        assert!(!enabled(), "guard uninstalls on drop");
        assert!(current().is_none());
    }
}
