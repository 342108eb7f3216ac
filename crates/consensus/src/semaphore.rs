//! The local at-most-once synchronization point.

use crate::vote::VoteSlot;
use std::fmt;

/// Result of a synchronization claim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClaimResult {
    /// This candidate won: its state changes become the real timeline.
    Won,
    /// A winner was already chosen; the claimant must terminate itself
    /// (§3.2.1: "it is informed that it is 'too late' for the
    /// synchronization, and it should terminate itself").
    TooLate {
        /// The candidate that won.
        winner: u64,
    },
}

/// A one-shot synchronization point: the first claim wins, every later
/// claim is refused, forever — a single [`VoteSlot`] over candidate
/// numbers, plus a count of the claims it turned away.
///
/// # Example
///
/// ```
/// use altx_consensus::{ClaimResult, SyncPoint};
///
/// let mut sp = SyncPoint::new();
/// assert_eq!(sp.try_claim(7), ClaimResult::Won);
/// assert_eq!(sp.try_claim(9), ClaimResult::TooLate { winner: 7 });
/// assert_eq!(sp.winner(), Some(7));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SyncPoint {
    slot: VoteSlot<u64>,
    refused: u64,
}

impl SyncPoint {
    /// Creates an unclaimed sync point.
    pub fn new() -> Self {
        SyncPoint::default()
    }

    /// Attempts to claim the synchronization for `candidate`.
    ///
    /// Idempotent for the winner: re-claiming by the same candidate
    /// returns [`ClaimResult::Won`] again (a retransmitted claim must not
    /// be treated as a second synchronization).
    pub fn try_claim(&mut self, candidate: u64) -> ClaimResult {
        if self.slot.request(&candidate) {
            return ClaimResult::Won;
        }
        self.refused += 1;
        let winner = *self.slot.holder().expect("a refusing slot is held");
        ClaimResult::TooLate { winner }
    }

    /// The winning candidate, if any claim has been made.
    pub fn winner(&self) -> Option<u64> {
        self.slot.holder().copied()
    }

    /// True iff no claim has succeeded yet.
    pub fn is_open(&self) -> bool {
        self.slot.holder().is_none()
    }

    /// Number of refused (too-late) claims.
    pub fn refused_count(&self) -> u64 {
        self.refused
    }
}

impl fmt::Display for SyncPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.winner() {
            Some(w) => write!(f, "claimed by candidate {w} ({} refused)", self.refused),
            None => write!(f, "open"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_claim_wins() {
        let mut sp = SyncPoint::new();
        assert!(sp.is_open());
        assert_eq!(sp.try_claim(1), ClaimResult::Won);
        assert!(!sp.is_open());
        assert_eq!(sp.winner(), Some(1));
    }

    #[test]
    fn later_claims_are_too_late() {
        let mut sp = SyncPoint::new();
        sp.try_claim(1);
        assert_eq!(sp.try_claim(2), ClaimResult::TooLate { winner: 1 });
        assert_eq!(sp.try_claim(3), ClaimResult::TooLate { winner: 1 });
        assert_eq!(sp.refused_count(), 2);
    }

    #[test]
    fn winner_reclaim_is_idempotent() {
        let mut sp = SyncPoint::new();
        sp.try_claim(5);
        assert_eq!(sp.try_claim(5), ClaimResult::Won, "retransmit tolerated");
        assert_eq!(sp.refused_count(), 0);
    }

    #[test]
    fn display_states() {
        let mut sp = SyncPoint::new();
        assert_eq!(sp.to_string(), "open");
        sp.try_claim(4);
        sp.try_claim(9);
        assert_eq!(sp.to_string(), "claimed by candidate 4 (1 refused)");
    }
}
