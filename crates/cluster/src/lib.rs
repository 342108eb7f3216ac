//! # altx-cluster — the simulated distributed system
//!
//! The paper's §4.4 distinguishes the shared-memory case (COW fork, page
//! copies) from the **distributed** case: "In the distributed case we must
//! actually copy state for a remote child so that it can read or write
//! locally" — implemented in Smith & Ioannidis's `rfork()` as a
//! checkpoint/transfer/restart over a network file system: "An rfork() of
//! a 70K process requires slightly less than a second, and network delays
//! gave us an observed average execution time of about 1.3 seconds."
//!
//! This crate models that substrate:
//!
//! * [`NetworkModel`] — latency + bandwidth (+ queueing-delay factor)
//!   transfer times.
//! * [`RemoteForkModel`] — the rfork cost decomposition (checkpoint,
//!   transfer, restore), calibrated so a 70 KB image reproduces the
//!   paper's ≈1 s service / ≈1.3 s observed numbers (experiment E5).
//! * [`DistributedRace`] — fastest-first execution of alternates spread
//!   across cluster nodes with guard evaluation, node crashes,
//!   single-point or majority-consensus synchronization, and winner
//!   state copy-back ("there is more copying to be performed during
//!   synchronization, as the changed state is updated in the parent's
//!   storage", §4.1).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod network;
pub mod race;
pub mod replication;
pub mod rfork;

pub use checkpoint::{Checkpoint, RestoreError};
pub use network::NetworkModel;
pub use race::{
    AlternateTimeline, DistributedRace, DistributedRaceReport, RemoteAlternate, SyncMode,
};
pub use replication::{ReplicatedAlternate, ReplicatedRace, ReplicatedRaceReport};
pub use rfork::{RemoteForkBreakdown, RemoteForkModel};

/// The majority 0–1 semaphore's voter rule and proposer tally, passed on
/// so that `altx-serve` commits a real cluster's races with the code
/// [`DistributedRace`] synchronizes its simulated ones with.
pub use altx_consensus::{Tally, TallyState, VoteSlot};

/// Identifier of a cluster node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node{}", self.0)
    }
}
