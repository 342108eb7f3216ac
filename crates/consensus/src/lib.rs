//! # altx-consensus — at-most-once synchronization
//!
//! §3.2.1 of Smith & Maguire: the selection of a winning alternative must
//! happen **at most once**, even across communication failures. Two
//! mechanisms are described and both are implemented here:
//!
//! * [`SyncPoint`] — the single-node backup: "the synchronization action
//!   is designed so that it can be accomplished at most once; … if the
//!   remote system attempts synchronization for the alternative it is
//!   executing, it is informed that it is 'too late'".
//! * [`majority`] — where a single sync node would be a single point of
//!   failure, "the synchronization is set up as a majority consensus
//!   \[Thomas 1979\] decision across several nodes": a fault-tolerant 0–1
//!   semaphore built from exclusive, unrevocable votes. The module
//!   simulates candidates racing for votes across a lossy network with
//!   crashing voters, and experiment E10 sweeps the
//!   performance-vs-reliability tradeoff the paper calls out.
//!
//! Both stand on [`vote`] — [`VoteSlot`], the voter rule, and [`Tally`],
//! the proposer's count — and so does the serving daemon's wire-backed
//! semaphore (`altx_serve::commit`), through `altx-cluster`'s re-export:
//! the workspace has one implementation of each.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod majority;
pub mod semaphore;
pub mod vote;

pub use majority::{CandidateSpec, ConsensusConfig, ConsensusReport, ConsensusSim, FaultPlan};
pub use semaphore::{ClaimResult, SyncPoint};
pub use vote::{Tally, TallyState, VoteSlot};
