//! Execution engines for alternative blocks.
//!
//! All engines present the same observable contract (§4.3): the result is
//! *one* alternative's value and *one* alternative's workspace mutations —
//! indistinguishable from a nondeterministic sequential selection. They
//! differ only in execution time:
//!
//! | Engine | Paper analogue | Strategy |
//! |---|---|---|
//! | [`OrderedEngine`] | recovery-block sequencing | first listed success, rollback between tries |
//! | [`AdaptiveEngine`] | Scheme A | statistically fastest first, learned online |
//! | [`RandomEngine`] | Scheme B | arbitrary single selection |
//! | [`SelectorEngine`] | §4.2 case 2 synthetic computation | domain-partitioning prediction |
//! | [`ThreadedEngine`] | Scheme C (real concurrency) | race on the caller plus parked racer threads, fastest first |
//! | [`sim`] | Scheme C (calibrated) | race on the simulated kernel |

mod adaptive;
mod crew;
mod ordered;
mod plan;
mod random;
mod selector;
pub mod sim;
mod threaded;

pub use adaptive::AdaptiveEngine;
pub use crew::CrewStats;
pub use ordered::OrderedEngine;
pub use plan::LaunchPlan;
pub use random::RandomEngine;
pub use selector::SelectorEngine;
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
