//! Execution engines for alternative blocks.
//!
//! All engines present the same observable contract (§4.3): the result is
//! *one* alternative's value and *one* alternative's workspace mutations —
//! indistinguishable from a nondeterministic sequential selection. They
//! differ only in execution time. There is one engine that runs blocks,
//! [`ThreadedEngine`]; §4.2's selection schemes are the [`LaunchPlan`]s
//! it is given, not engines of their own:
//!
//! | Paper analogue | How to run it |
//! |---|---|
//! | Scheme C: race everything, fastest first | [`LaunchPlan::immediate`] (what [`Engine::execute`] runs) |
//! | Scheme A: the statistically fastest first | [`LaunchPlan::favourite_first`] with [`AltStatsTable::favourite`](crate::stats::AltStatsTable::favourite) |
//! | Scheme B: one arbitrary alternative | [`LaunchPlan::only`] with a random pick |
//! | §4.2 case 2 synthetic computation | [`LaunchPlan::only`] with a selector's pick |
//! | virtual concurrency: alternatives share the hardware | [`LaunchPlan::with_width`] |
//! | recovery-block sequencing (the test oracle) | [`OrderedEngine`]: first listed success, rollback between tries |
//! | Scheme C, calibrated | [`sim`]: the race on the simulated kernel |

mod crew;
mod ordered;
mod plan;
pub mod sim;
mod threaded;

pub use crew::CrewStats;
pub use ordered::OrderedEngine;
pub use plan::LaunchPlan;
pub use threaded::ThreadedEngine;

use crate::block::{AltBlock, BlockResult};
use altx_pager::AddressSpace;

/// Counters of the process-wide race crew [`ThreadedEngine`] races on:
/// racer threads alive, racer threads ever spawned, and alternatives
/// eliminated while still waiting to be claimed. Process-wide, so two
/// daemons in one process report the same numbers. Takes one
/// uncontended lock; meant for a stats page, not a hot path.
pub fn crew_stats() -> CrewStats {
    crew::crew().stats()
}

/// An execution strategy for [`AltBlock`]s.
///
/// Implementations must guarantee: at most one alternative's workspace
/// mutations are visible in `workspace` afterwards, and the returned
/// value (if any) was produced by exactly that alternative.
pub trait Engine {
    /// Executes `block` against `workspace`.
    fn execute<R: Send + 'static>(
        &self,
        block: &AltBlock<R>,
        workspace: &mut AddressSpace,
    ) -> BlockResult<R>;
}
