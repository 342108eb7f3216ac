//! The voter rule and the proposer tally — the workspace's one
//! implementation of the majority 0–1 semaphore's two halves.
//!
//! §3.2.1 (after Thomas 1979) is one small rule: every voter holds one
//! **exclusive, unrevocable** vote, and a candidate commits once a
//! majority of the voters granted it theirs. Two candidates cannot both
//! hold a majority of exclusive votes, so at most one ever commits.
//!
//! * [`VoteSlot`] is one voter's vote. [`crate::SyncPoint`] is a slot
//!   over candidate numbers, [`crate::ConsensusSim`] keeps one per
//!   simulated voter, and the serving daemon's `CommitLedger` keys a
//!   map of them by race: the simulated and the wire-backed semaphore
//!   decide a vote with the same code.
//! * [`Tally`] is the proposer's count of the answers against the
//!   majority of a voter set frozen when the round opened.

use std::borrow::Borrow;

/// One voter's exclusive, unrevocable vote: the first candidate to ask
/// holds it, the same holder is re-granted idempotently (a retransmitted
/// request is not a second vote), and nobody else ever is.
///
/// # Example
///
/// ```
/// use altx_consensus::VoteSlot;
///
/// let mut slot: VoteSlot<String> = VoteSlot::new();
/// assert!(slot.request("a/alt0"));
/// assert!(slot.request("a/alt0"), "the holder's retry is granted again");
/// assert!(!slot.request("b/alt1"));
/// assert_eq!(slot.holder().map(String::as_str), Some("a/alt0"));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VoteSlot<C> {
    holder: Option<C>,
}

impl<C> VoteSlot<C> {
    /// An unheld vote.
    pub const fn new() -> Self {
        VoteSlot { holder: None }
    }

    /// Asks for the vote on `candidate`'s behalf; true iff it is granted.
    /// Takes the candidate borrowed so that a denied (or repeated)
    /// request allocates nothing.
    pub fn request<Q>(&mut self, candidate: &Q) -> bool
    where
        C: Borrow<Q>,
        Q: ToOwned<Owned = C> + PartialEq + ?Sized,
    {
        match &self.holder {
            None => {
                self.holder = Some(candidate.to_owned());
                true
            }
            Some(holder) => holder.borrow() == candidate,
        }
    }

    /// The candidate holding the vote, if anyone asked yet.
    pub fn holder(&self) -> Option<&C> {
        self.holder.as_ref()
    }
}

/// The proposer's view of one commit round: grants and denials counted
/// against the majority threshold of a voter set that was frozen when
/// the round opened. Freezing the set is what keeps the threshold
/// meaningful when a voter dies mid-round — the dead voter's vote simply
/// converts to a denial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    voters: usize,
    granted: usize,
    denied: usize,
}

/// Where a commit round stands after the latest vote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TallyState {
    /// Votes are still outstanding and both outcomes remain possible.
    Undecided,
    /// A majority of the frozen voter set granted: the candidate is
    /// committed, at most once cluster-wide.
    Committed,
    /// Enough voters denied (or died) that a majority can never
    /// assemble. The paper's answer is to block; the simulator gives up
    /// and the serving layer answers anyway and records the degradation.
    Unreachable,
}

impl Tally {
    /// A tally over `voters` total voters (the proposer included, when
    /// it votes), with the proposer's own grant already counted when
    /// `self_granted`.
    pub fn new(voters: usize, self_granted: bool) -> Self {
        Tally {
            voters: voters.max(1),
            granted: usize::from(self_granted),
            denied: 0,
        }
    }

    /// Majority threshold: `n/2 + 1` of the frozen voter set.
    pub fn majority(&self) -> usize {
        self.voters / 2 + 1
    }

    /// Records one granted vote.
    pub fn grant(&mut self) {
        self.granted += 1;
    }

    /// Records one denial — an explicit refusal, or a voter that died
    /// before answering (same effect: that vote can no longer contribute
    /// to a majority).
    pub fn deny(&mut self) {
        self.denied += 1;
    }

    /// Votes neither granted nor denied yet.
    pub fn pending(&self) -> usize {
        self.voters.saturating_sub(self.granted + self.denied)
    }

    /// Votes granted so far.
    pub fn granted(&self) -> usize {
        self.granted
    }

    /// Where the round stands.
    pub fn state(&self) -> TallyState {
        if self.granted >= self.majority() {
            TallyState::Committed
        } else if self.granted + self.pending() < self.majority() {
            TallyState::Unreachable
        } else {
            TallyState::Undecided
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_is_exclusive_unrevocable_and_idempotent() {
        let mut slot: VoteSlot<u64> = VoteSlot::new();
        assert_eq!(slot.holder(), None);
        assert!(slot.request(&7));
        assert!(slot.request(&7), "retransmit tolerated");
        assert!(!slot.request(&9));
        assert!(slot.request(&7), "a refusal in between revokes nothing");
        assert_eq!(slot.holder(), Some(&7));
    }

    #[test]
    fn tally_commits_on_majority() {
        // Three voters (self + two peers), self-grant counted.
        let mut t = Tally::new(3, true);
        assert_eq!(t.majority(), 2);
        assert_eq!(t.state(), TallyState::Undecided);
        t.grant();
        assert_eq!(t.state(), TallyState::Committed);
    }

    #[test]
    fn tally_unreachable_when_majority_cannot_assemble() {
        // Three voters; both peers die before voting.
        let mut t = Tally::new(3, true);
        t.deny();
        assert_eq!(
            t.state(),
            TallyState::Undecided,
            "one peer could still grant"
        );
        t.deny();
        assert_eq!(t.state(), TallyState::Unreachable);
    }

    #[test]
    fn single_voter_tally_self_commits() {
        // No peers up: the voter set is just the origin.
        let t = Tally::new(1, true);
        assert_eq!(t.state(), TallyState::Committed);
    }

    #[test]
    fn two_voter_tally_needs_both() {
        let mut t = Tally::new(2, true);
        assert_eq!(t.majority(), 2);
        assert_eq!(t.state(), TallyState::Undecided);
        let mut dead_peer = t;
        dead_peer.deny();
        assert_eq!(dead_peer.state(), TallyState::Unreachable);
        t.grant();
        assert_eq!(t.state(), TallyState::Committed);
    }
}
