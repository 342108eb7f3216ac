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
//!   one `VoteSlot<String>` per `(origin, race_id)`.
//! * [`VoteTally`] — the **proposer** side the race origin runs: `Tally`
//!   under its wire-side name, over the voter set frozen when the race
//!   started. `Unreachable` is where the origin must degrade.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use altx_cluster::VoteSlot;
pub use altx_cluster::{Tally as VoteTally, TallyState};

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
        let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        let grant = slots
            .entry((origin.to_owned(), race_id))
            .or_insert_with(|| Grant {
                slot: VoteSlot::new(),
                at: Instant::now(),
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

    /// Partition-heal resync: a reconnecting origin advertises its
    /// lowest still-open race id; every slot this node holds for that
    /// origin below the watermark belongs to a race already decided,
    /// so dropping the grant cannot enable a double-commit. Returns
    /// how many slots were dropped.
    pub fn reconcile(&self, origin: &str, watermark: u64) -> usize {
        let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        let before = slots.len();
        slots.retain(|(o, id), _| o != origin || *id >= watermark);
        before - slots.len()
    }

    /// Drops slots older than `ttl`. Races are short-lived; the slot
    /// only has to outlive any late retry for its race, so a sweep with
    /// a generous TTL keeps the ledger bounded without risking a
    /// double-grant inside a race's lifetime.
    pub fn sweep(&self, ttl: Duration) {
        let now = Instant::now();
        self.slots
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .retain(|_, g| now.duration_since(g.at) < ttl);
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

    #[test]
    fn reconcile_drops_only_the_origin_slots_below_the_watermark() {
        let ledger = CommitLedger::new();
        ledger.vote("a:1", 1, "x");
        ledger.vote("a:1", 5, "y");
        ledger.vote("b:2", 1, "z");
        assert_eq!(ledger.reconcile("a:1", 5), 1, "only a:1/1 is below");
        assert_eq!(ledger.len(), 2);
        // The surviving slot still enforces its grant.
        let (granted, _) = ledger.vote("a:1", 5, "other");
        assert!(!granted, "a:1/5 survived the reconcile");
        assert_eq!(ledger.reconcile("a:1", 100), 1);
        assert_eq!(ledger.len(), 1, "b:2 is untouched");
    }

    #[test]
    fn sweep_reclaims_old_slots() {
        let ledger = CommitLedger::new();
        ledger.vote("a:1", 1, "x");
        ledger.vote("a:1", 2, "y");
        assert_eq!(ledger.len(), 2);
        ledger.sweep(Duration::from_secs(600));
        assert_eq!(ledger.len(), 2, "young slots survive");
        ledger.sweep(Duration::ZERO);
        assert!(ledger.is_empty(), "expired slots are reclaimed");
    }
}
