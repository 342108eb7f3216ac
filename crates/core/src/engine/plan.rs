//! Launch plans: *when* each alternative of a race starts.
//!
//! The paper's §4.2 separates *which alternatives exist* from *how they
//! are scheduled*: Scheme C races everything at once, Scheme A trusts
//! statistics to pick a favourite. A [`LaunchPlan`] makes that schedule an
//! explicit, inspectable value — per-alternative start offsets relative to
//! the moment the race begins — so a policy layer (e.g. the serving
//! stack's hedging policy) can decide the strategy while the engine keeps
//! sole ownership of the mutual-exclusion semantics. An alternative whose
//! offset has not elapsed when the race is decided is *suppressed*: its
//! body never runs, which changes cost, never selection semantics.
//!
//! A plan may also name a *lead* ([`LaunchPlan::favourite_first`]): the
//! one alternative the calling thread runs before anyone else is asked
//! to. Any one alternative is an admissible outcome, and the order the
//! alternatives are launched in is a parameter of the semantics, not
//! part of it — so when statistics say the favourite is done before a
//! sibling's thread could even be woken, nobody is woken to lose.

use std::time::Duration;

/// Per-alternative start offsets for one race.
///
/// Offsets are relative to race start. Index `i` schedules alternative
/// `i`; alternatives beyond the plan's length launch immediately (offset
/// zero), so [`LaunchPlan::immediate`] and a too-short plan are both safe.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LaunchPlan {
    offsets: Vec<Duration>,
    /// The alternative the caller runs alone first, if any.
    lead: Option<usize>,
}

impl LaunchPlan {
    /// The classic Scheme C plan: every one of `n` alternatives launches
    /// at t=0. Racing under this plan is behaviourally identical to the
    /// unplanned engine entry points.
    pub fn immediate(n: usize) -> Self {
        LaunchPlan {
            offsets: vec![Duration::ZERO; n],
            lead: None,
        }
    }

    /// A plan from explicit per-alternative offsets.
    pub fn from_offsets(offsets: Vec<Duration>) -> Self {
        LaunchPlan {
            offsets,
            lead: None,
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
    /// Worth it when the lead's body is shorter than a thread wake-up: a
    /// sibling that cannot arrive before the favourite is done cannot
    /// lower the race's time, only raise its overhead.
    pub fn favourite_first(n: usize, lead: usize) -> Self {
        LaunchPlan {
            offsets: vec![Duration::ZERO; n],
            lead: (lead < n).then_some(lead),
        }
    }

    /// The alternative the caller runs alone first (see
    /// [`LaunchPlan::favourite_first`]); `None` for every other plan.
    pub fn lead(&self) -> Option<usize> {
        self.lead
    }

    /// Start offset for alternative `i` (zero when out of range).
    pub fn offset(&self, i: usize) -> Duration {
        self.offsets.get(i).copied().unwrap_or(Duration::ZERO)
    }

    /// Number of alternatives this plan covers explicitly.
    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    /// True when the plan covers no alternatives explicitly.
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    /// True when every covered alternative launches at t=0: no offset
    /// and no lead.
    pub fn is_immediate(&self) -> bool {
        self.lead.is_none() && self.offsets.iter().all(|o| o.is_zero())
    }

    /// Number of alternatives held back (non-zero offset) — the hedges.
    pub fn staggered(&self) -> usize {
        self.offsets.iter().filter(|o| !o.is_zero()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn immediate_plan_is_all_zeros() {
        let p = LaunchPlan::immediate(4);
        assert_eq!(p.len(), 4);
        assert!(p.is_immediate());
        assert_eq!(p.staggered(), 0);
        assert_eq!(p.offset(2), Duration::ZERO);
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
}
