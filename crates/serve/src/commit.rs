//! The wire-backed majority 0–1 commit semaphore.
//!
//! The paper (§3.2.1, after Thomas 1979) makes cross-machine
//! elimination at-most-once with a majority-consensus 0–1 semaphore:
//! every node holds exactly one **exclusive, unrevocable** vote per
//! race, a finisher commits only after collecting a majority of the
//! votes, and because two candidates cannot both assemble a majority of
//! exclusive grants, at most one winner ever commits — even when nodes
//! crash or messages are lost mid-race. `altx-consensus` proves the
//! rule out under a simulated clock, and this module is the same voter
//! rule carried by real frames (`COMMIT_VOTE` / `VOTE`, see
//! [`crate::frame`]) — literally: a vote is decided by
//! `altx_consensus::VoteSlot` and a round by `altx_consensus::Tally`,
//! the types `ConsensusSim` and `SyncPoint` are built on, reached
//! through `altx-cluster`'s re-export.
//!
//! * [`CommitLedger`] — the **voter** side every peered daemon runs:
//!   one `VoteSlot<String>` per `(origin, race_id)`. A slot lives until
//!   a vote's sweep finds it older than the TTL — the one way a slot
//!   leaves, whether its origin is still up, reconnected or gone for
//!   good. Keeping a slot longer can only deny more, never grant twice;
//!   an origin's race ids never repeat across its restarts (`remote.rs`),
//!   so no new race meets an old slot.
//! * [`VoteTally`] — the **proposer** side the race origin runs: `Tally`
//!   under its wire-side name, over the voter set frozen when the race
//!   started. `Unreachable` is where the origin must degrade.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use altx_cluster::VoteSlot;
pub use altx_cluster::{Tally as VoteTally, TallyState};

/// Every `SWEEP_EVERY`th vote sweeps out the slots older than
/// `LEDGER_TTL`: only a vote adds a slot, so that bounds the ledger with
/// no clock of its own (a race never lives anywhere near the TTL).
const SWEEP_EVERY: u64 = 1024;
const LEDGER_TTL: Duration = Duration::from_secs(300);

/// One node's vote slots, keyed by `(origin address, race id)` so
/// concurrent races from different origins can never collide even if
/// their locally-assigned race ids do.
#[derive(Debug, Default)]
pub struct CommitLedger {
    slots: Mutex<HashMap<(String, u64), Grant>>,
    granted: AtomicU64,
    denied: AtomicU64,
}

#[derive(Debug)]
struct Grant {
    slot: VoteSlot<String>,
    at: Instant,
}

impl CommitLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests this node's vote for `candidate` in race `(origin,
    /// race_id)`. Returns `(granted, holder)`: the vote is granted to
    /// the first candidate that asks and to the *same* candidate on a
    /// re-request (retries after partial failure are idempotent); any
    /// other candidate is denied for as long as the slot lives. The
    /// grant is never revoked — that unrevocability is what makes a
    /// majority of grants imply at most one committed winner.
    pub fn vote(&self, origin: &str, race_id: u64, candidate: &str) -> (bool, String) {
        self.vote_with(origin, race_id, candidate, Instant::now)
    }

    /// [`CommitLedger::vote`] on the clock `now`, read only to stamp a
    /// fresh slot or to sweep.
    pub(crate) fn vote_with(
        &self,
        origin: &str,
        race_id: u64,
        candidate: &str,
        now: impl Fn() -> Instant,
    ) -> (bool, String) {
        let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        // The counters move under this lock, so each count comes once.
        if (self.votes_granted() + self.votes_denied()).is_multiple_of(SWEEP_EVERY) {
            let now = now();
            slots.retain(|_, g| now.duration_since(g.at) < LEDGER_TTL);
        }
        let grant = slots
            .entry((origin.to_owned(), race_id))
            .or_insert_with(|| Grant {
                slot: VoteSlot::new(),
                at: now(),
            });
        let granted = grant.slot.request(candidate);
        if granted {
            self.granted.fetch_add(1, Ordering::Relaxed);
        } else {
            self.denied.fetch_add(1, Ordering::Relaxed);
        }
        let holder = grant.slot.holder().expect("held once asked");
        (granted, holder.clone())
    }

    /// Votes granted (including idempotent re-grants).
    pub fn votes_granted(&self) -> u64 {
        self.granted.load(Ordering::Relaxed)
    }

    /// Votes denied (slot already held by another candidate).
    pub fn votes_denied(&self) -> u64 {
        self.denied.load(Ordering::Relaxed)
    }

    /// Live grant slots (test/diagnostic hook).
    pub fn len(&self) -> usize {
        self.slots
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// True when no grant slot is live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn first_candidate_gets_the_vote_and_keeps_it() {
        let ledger = CommitLedger::new();
        let (granted, holder) = ledger.vote("a:1", 7, "a:1/alt0");
        assert!(granted);
        assert_eq!(holder, "a:1/alt0");
        // Re-request by the same holder is idempotent.
        let (granted, _) = ledger.vote("a:1", 7, "a:1/alt0");
        assert!(granted);
        // Any other candidate is denied, and told who holds it.
        let (granted, holder) = ledger.vote("a:1", 7, "b:2/alt1");
        assert!(!granted);
        assert_eq!(holder, "a:1/alt0");
        assert_eq!(ledger.votes_granted(), 2);
        assert_eq!(ledger.votes_denied(), 1);
    }

    #[test]
    fn race_ids_are_scoped_by_origin() {
        let ledger = CommitLedger::new();
        assert!(ledger.vote("a:1", 7, "a:1/alt0").0);
        // Same race id from a different origin is a different slot.
        assert!(ledger.vote("b:2", 7, "b:2/alt3").0);
        assert_eq!(ledger.len(), 2);
    }

    /// The at-most-once property under contention: many threads racing
    /// distinct candidates for one slot — exactly one is ever granted.
    #[test]
    fn concurrent_votes_grant_exactly_one_candidate() {
        let ledger = Arc::new(CommitLedger::new());
        let winners: Vec<String> = (0..8)
            .map(|i| {
                let ledger = Arc::clone(&ledger);
                std::thread::spawn(move || {
                    let cand = format!("node{i}/alt{i}");
                    let (granted, holder) = ledger.vote("origin:9", 42, &cand);
                    assert_eq!(granted, holder == cand);
                    holder
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("voter thread"))
            .collect();
        // Every thread observed the same holder.
        assert!(winners.windows(2).all(|w| w[0] == w[1]), "{winners:?}");
        assert_eq!(ledger.votes_granted(), 1);
        assert_eq!(ledger.votes_denied(), 7);
    }

    /// Every 1 024th vote sweeps on its way in; a slot younger than the
    /// TTL survives it, and the sweeping vote is counted like any other.
    #[test]
    fn a_vote_that_sweeps_keeps_young_slots() {
        let ledger = CommitLedger::new();
        for race_id in 0..=SWEEP_EVERY {
            assert!(ledger.vote("a:1", race_id, "x").0);
        }
        assert_eq!(ledger.len() as u64, SWEEP_EVERY + 1);
        assert_eq!(ledger.votes_granted(), SWEEP_EVERY + 1);
    }

    /// The vote at a `SWEEP_EVERY` boundary drops the slots its clock
    /// finds older than the TTL — and only those — before it takes its
    /// own; a slot that survives still enforces its grant.
    #[test]
    fn sweep_reclaims_old_slots() {
        let ledger = CommitLedger::new();
        let t0 = Instant::now();
        let at = |secs| move || t0 + Duration::from_secs(secs);
        // Votes 0..SWEEP_EVERY: the first sweeps an empty ledger; slot
        // 0 is stamped at t0, every later one a whole TTL on.
        assert!(ledger.vote_with("a:1", 0, "x", at(0)).0);
        for race_id in 1..SWEEP_EVERY {
            assert!(ledger.vote_with("a:1", race_id, "x", at(300)).0);
        }
        assert_eq!(ledger.len() as u64, SWEEP_EVERY);
        // Vote SWEEP_EVERY sweeps at t0 + 300 s: slot 0 is a TTL old.
        assert!(ledger.vote_with("a:1", SWEEP_EVERY, "x", at(300)).0);
        assert_eq!(
            ledger.len() as u64,
            SWEEP_EVERY,
            "slot 0 went, the vote's came"
        );
        let (granted, holder) = ledger.vote_with("a:1", 0, "y", at(300));
        assert!(granted && holder == "y", "slot 0 was reclaimed");
        let (granted, holder) = ledger.vote_with("a:1", 1, "y", at(300));
        assert!(
            !granted && holder == "x",
            "slot 1 survived and holds its grant"
        );
    }
}
