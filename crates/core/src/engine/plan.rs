//! Launch plans: *which* alternatives of a race may run, *when* each
//! starts, and *how many* run at once.
//!
//! The paper's §4.2 separates *which alternatives exist* from *how they
//! are scheduled*, and §4.3 shows that every selection scheme is only a
//! schedule for one observable choice. A [`LaunchPlan`] makes that
//! schedule an explicit, inspectable value passed to the one engine
//! ([`ThreadedEngine`](crate::engine::ThreadedEngine); the scheme-to-plan
//! table is in [`crate::engine`]), so a policy layer (e.g. the serving
//! stack's hedging policy) can decide the strategy while the engine keeps
//! sole ownership of the mutual-exclusion semantics.
//!
//! An alternative whose offset has not elapsed when the race is decided
//! is *suppressed*: its body never runs, which changes cost, never
//! selection semantics. An *excluded* alternative is not part of the race
//! at all: it is never claimed, never handed to a thread and never run,
//! so a plan that excludes every alternative that could succeed fails the
//! block.
//!
//! A plan may also name a *lead* ([`LaunchPlan::favourite_first`]): the
//! one alternative the calling thread runs before anyone else is asked
//! to. Any one alternative is an admissible outcome, and the order the
//! alternatives are launched in is a parameter of the semantics, not
//! part of it — so when statistics say the favourite is done before a
//! sibling's thread could even be woken, nobody is woken to lose.

use std::time::Duration;

/// Per-alternative start offsets, exclusions, a lead and a width for one
/// race.
///
/// Offsets are relative to race start. Index `i` schedules alternative
/// `i`; alternatives beyond the plan's length launch immediately (offset
/// zero), so [`LaunchPlan::immediate`] and a too-short plan are both safe.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LaunchPlan {
    offsets: Vec<Duration>,
    /// Per alternative: true when it may not run at all. Empty when the
    /// plan excludes nobody, so `immediate`, `favourite_first` and
    /// `from_offsets` allocate nothing for it — nor do the first two for
    /// `offsets`, which they leave empty.
    excluded: Vec<bool>,
    /// The alternative the caller runs alone first, if any; never an
    /// excluded one.
    lead: Option<usize>,
    /// At most this many bodies running at once; `None`: every
    /// alternative that is due.
    width: Option<usize>,
}

impl LaunchPlan {
    /// The classic Scheme C plan: every one of `n` alternatives launches
    /// at t=0. Racing under this plan is behaviourally identical to the
    /// unplanned engine entry points. It stores no offset — one past
    /// the plan's length reads zero — so it allocates nothing, whatever
    /// `n`.
    pub fn immediate(n: usize) -> Self {
        let _ = n;
        LaunchPlan::default()
    }

    /// A plan from explicit per-alternative offsets.
    pub fn from_offsets(offsets: Vec<Duration>) -> Self {
        LaunchPlan {
            offsets,
            ..LaunchPlan::default()
        }
    }

    /// The calling thread claims alternative `lead` — not the first in
    /// declaration order — and runs it inline **before any sibling is
    /// handed to another thread**. If it decides the race, the siblings
    /// are suppressed where they stand: nobody was woken for them. If it
    /// comes back undecided (failed guard, contained panic), the
    /// remaining alternatives are claimed and dispatched from that
    /// instant exactly as [`LaunchPlan::immediate`] would have at t=0, so
    /// a lead that fails costs the race its own running time and no
    /// alternative. A `lead` outside `0..n` is no lead at all.
    ///
    /// This is Scheme A when `lead` is what statistics call the
    /// favourite (e.g. [`AltStatsTable::favourite`](crate::stats::AltStatsTable::favourite)),
    /// and worth it when the lead's body is shorter than a thread
    /// wake-up: a sibling that cannot arrive before the favourite is
    /// done cannot lower the race's time, only raise its overhead.
    pub fn favourite_first(n: usize, lead: usize) -> Self {
        LaunchPlan {
            lead: (lead < n).then_some(lead),
            ..LaunchPlan::immediate(n)
        }
    }

    /// Alternative `pick` of `n`, run alone on the calling thread, with
    /// every sibling excluded: if its guard fails the block fails, and
    /// no sibling substitutes for it. This is the paper's Scheme B when
    /// `pick` is drawn at random (`rng.index(n)`) and §4.2 case 2's
    /// synthetic computation when a selector computes it from the input.
    /// A `pick` outside `0..n` runs nothing: the block fails with no
    /// attempt.
    pub fn only(n: usize, pick: usize) -> Self {
        LaunchPlan {
            excluded: (0..n).map(|i| i != pick).collect(),
            lead: (pick < n).then_some(pick),
            ..LaunchPlan::default()
        }
    }

    /// This plan with every alternative `i` whose `excluded[i]` is true
    /// taken out of the race, on top of any it excluded already. An
    /// excluded lead is no lead: the rest race as under
    /// [`LaunchPlan::immediate`].
    pub fn excluding(mut self, excluded: &[bool]) -> Self {
        if !excluded.contains(&true) {
            return self;
        }
        if self.excluded.len() < excluded.len() {
            self.excluded.resize(excluded.len(), false);
        }
        for (mine, &out) in self.excluded.iter_mut().zip(excluded) {
            *mine |= out;
        }
        if self.lead.is_some_and(|lead| self.is_excluded(lead)) {
            self.lead = None;
        }
        self
    }

    /// This plan with alternative `i` held back until at least
    /// `at_least[i]` after race start: its offset becomes the larger of
    /// the two. A lead held back is no lead, as an excluded one is not.
    pub fn holding_back(mut self, at_least: &[Duration]) -> Self {
        if self.offsets.len() < at_least.len() {
            self.offsets.resize(at_least.len(), Duration::ZERO);
        }
        for (mine, &floor) in self.offsets.iter_mut().zip(at_least) {
            *mine = (*mine).max(floor);
        }
        if self.lead.is_some_and(|lead| !self.offset(lead).is_zero()) {
            self.lead = None;
        }
        self
    }

    /// This plan with at most `width` bodies running at once — the
    /// paper's *virtual concurrency* case (§4.2), where alternatives
    /// share hardware.
    ///
    /// Alternatives are then started **in declaration order**: whenever
    /// fewer than `width` bodies are running, the next one to start is
    /// the first in the block that has not started yet, and once the race
    /// is decided none of the rest starts at all (they count as
    /// [`suppressed`](crate::BlockResult::suppressed)). So the width also
    /// biases toward earlier alternatives, like a recovery block's
    /// reliability ordering; at width 1 the race degenerates to trying
    /// the alternatives one by one, in order, on the calling thread. A
    /// lead still runs first.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn with_width(self, width: usize) -> Self {
        assert!(width > 0, "need at least one running body");
        LaunchPlan {
            width: Some(width),
            ..self
        }
    }

    /// The alternative the caller runs alone first (see
    /// [`LaunchPlan::favourite_first`] and [`LaunchPlan::only`]); `None`
    /// for every other plan.
    pub fn lead(&self) -> Option<usize> {
        self.lead
    }

    /// The bound on bodies running at once, if the plan sets one (see
    /// [`LaunchPlan::with_width`]).
    pub(crate) fn width(&self) -> Option<usize> {
        self.width
    }

    /// True when alternative `i` may not run at all.
    pub fn is_excluded(&self, i: usize) -> bool {
        self.excluded.get(i).copied().unwrap_or(false)
    }

    /// Start offset for alternative `i` (zero when out of range).
    pub fn offset(&self, i: usize) -> Duration {
        self.offsets.get(i).copied().unwrap_or(Duration::ZERO)
    }

    /// True when every covered alternative launches at t=0: no offset,
    /// no lead, no exclusion and no width.
    pub fn is_immediate(&self) -> bool {
        self.lead.is_none()
            && self.width.is_none()
            && self.excluded.is_empty()
            && self.offsets.iter().all(|o| o.is_zero())
    }

    /// Number of alternatives held back (non-zero offset, not excluded)
    /// — the hedges.
    pub fn staggered(&self) -> usize {
        (0..self.offsets.len())
            .filter(|&i| !self.offsets[i].is_zero() && !self.is_excluded(i))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn immediate_plan_is_all_zeros() {
        let p = LaunchPlan::immediate(4);
        assert!(p.is_immediate());
        assert_eq!(p.staggered(), 0);
        assert_eq!(p.offset(2), Duration::ZERO);
        assert!(!p.is_excluded(2));
        assert_eq!(p.width(), None);
    }

    #[test]
    fn out_of_range_offsets_are_zero() {
        let p = LaunchPlan::from_offsets(vec![Duration::from_millis(5)]);
        assert_eq!(p.offset(0), Duration::from_millis(5));
        assert_eq!(p.offset(7), Duration::ZERO);
        assert!(!p.is_immediate());
        assert_eq!(p.staggered(), 1);
    }

    #[test]
    fn a_lead_is_not_an_immediate_plan_and_holds_nobody_back() {
        let p = LaunchPlan::favourite_first(3, 1);
        assert_eq!(p.lead(), Some(1));
        assert!(!p.is_immediate(), "the siblings wait for the lead");
        assert_eq!(p.staggered(), 0, "nobody is hedged");
        assert_eq!(p.offset(2), Duration::ZERO);
        assert_ne!(p, LaunchPlan::immediate(3));
        assert_eq!(LaunchPlan::immediate(3).lead(), None);
        assert_eq!(
            LaunchPlan::favourite_first(2, 2),
            LaunchPlan::immediate(2),
            "a lead out of range is no lead"
        );
    }

    #[test]
    fn only_leads_with_its_pick_and_excludes_every_sibling() {
        let p = LaunchPlan::only(3, 1);
        assert_eq!(p.lead(), Some(1));
        assert_eq!(
            (0..3).map(|i| p.is_excluded(i)).collect::<Vec<_>>(),
            [true, false, true]
        );
        assert!(!p.is_immediate());
        let none = LaunchPlan::only(3, 3);
        assert_eq!(none.lead(), None, "a pick out of range is no lead");
        assert!((0..3).all(|i| none.is_excluded(i)), "and runs nothing");
    }

    #[test]
    fn an_excluded_lead_is_no_lead_and_an_excluded_hedge_is_no_hedge() {
        let led = LaunchPlan::favourite_first(3, 0).excluding(&[true, false, false]);
        assert_eq!(led.lead(), None);
        assert!(led.is_excluded(0) && !led.is_excluded(1));
        let kept = LaunchPlan::favourite_first(3, 0).excluding(&[false, true]);
        assert_eq!(kept.lead(), Some(0));
        assert!(kept.is_excluded(1) && !kept.is_excluded(2));
        let hedged = LaunchPlan::from_offsets(vec![Duration::ZERO, Duration::from_millis(2)]);
        assert_eq!(hedged.staggered(), 1);
        assert_eq!(hedged.clone().excluding(&[false, true]).staggered(), 0);
        assert_eq!(
            hedged.clone().excluding(&[false, false]),
            hedged,
            "excluding nobody changes nothing"
        );
    }

    #[test]
    fn holding_back_keeps_the_later_offset_and_drops_a_held_lead() {
        let ms = Duration::from_millis;
        let hedged = LaunchPlan::from_offsets(vec![Duration::ZERO, ms(5), ms(5)]);
        let held = hedged.holding_back(&[Duration::ZERO, ms(20), ms(1)]);
        assert_eq!(
            (0..3).map(|i| held.offset(i)).collect::<Vec<_>>(),
            [ms(0), ms(20), ms(5)]
        );
        assert_eq!(held.staggered(), 2);
        let led = LaunchPlan::favourite_first(3, 0).holding_back(&[Duration::ZERO, ms(20)]);
        assert_eq!(led.lead(), Some(0), "a lead nobody holds back stays");
        assert_eq!(led.staggered(), 1);
        let dropped = LaunchPlan::favourite_first(3, 1).holding_back(&[Duration::ZERO, ms(20)]);
        assert_eq!(dropped.lead(), None, "a held-back lead is no lead");
        let longer = LaunchPlan::immediate(2).holding_back(&[Duration::ZERO; 3]);
        assert!(longer.is_immediate(), "holding nobody back changes nothing");
    }

    #[test]
    fn a_width_bounds_the_plan_and_is_no_immediate_plan() {
        let p = LaunchPlan::immediate(4).with_width(2);
        assert_eq!(p.width(), Some(2));
        assert!(!p.is_immediate());
        assert_eq!(p.staggered(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one running body")]
    fn zero_width_rejected() {
        let _ = LaunchPlan::immediate(2).with_width(0);
    }
}
