//! # altx — transparent concurrent execution of mutually exclusive alternatives
//!
//! A Rust reproduction of Jonathan M. Smith and Gerald Q. Maguire Jr.,
//! *Transparent Concurrent Execution of Mutually Exclusive Alternatives*
//! (ICDCS 1989): given several alternative methods of computing one
//! result, race them speculatively, keep the **first** whose guard holds,
//! and eliminate the rest — while an observer sees exactly the semantics
//! of a nondeterministic *sequential* selection.
//!
//! ## The pieces
//!
//! * [`AltBlock`] — the `ALTBEGIN … END` construct (Figure 1): a list of
//!   guarded alternatives over a copy-on-write [`AddressSpace`] workspace.
//! * [`engine`] — execution strategies with identical observable
//!   semantics:
//!   - [`engine::ThreadedEngine`] — the one engine that runs blocks:
//!     real OS threads racing on COW forks of the workspace, under a
//!     [`engine::LaunchPlan`] that is the §4.2 selection scheme —
//!     *Scheme C* races everything fastest first, *Scheme A* leads with
//!     the statistical favourite, *Scheme B* and the case-2 synthetic
//!     computation run one picked alternative alone;
//!   - [`engine::OrderedEngine`] — sequential, first listed alternative
//!     that succeeds (recovery-block style, with rollback): the oracle the
//!     race is tested against;
//!   - [`engine::sim`] — the race on the deterministic simulated kernel
//!     (`altx-kernel`) with 1989-calibrated costs, for the paper's
//!     quantitative experiments.
//! * [`wake`] — how the race's timed waits end on time: they ask the
//!   kernel early by the measured lateness of this process's own timer
//!   wake-ups and cover the last microseconds awake.
//! * [`perf`] — the §4.2 analytic model: performance improvement
//!   `PI = τ(C_mean) / (τ(C_best) + τ(overhead))`, the worked table, the
//!   win condition, and the dispersion analysis.
//!
//! ## Quickstart
//!
//! ```
//! use altx::engine::ThreadedEngine;
//! use altx::{AltBlock, Engine};
//! use altx_pager::{AddressSpace, PageSize};
//!
//! // Two ways to compute the same answer; either may win.
//! let block: AltBlock<u64> = AltBlock::new()
//!     .alternative("iterative", |_ws, _cancel| Some((1..=10u64).product()))
//!     .alternative("closed-form", |_ws, _cancel| Some(3628800));
//!
//! let mut workspace = AddressSpace::zeroed(4096, PageSize::K4);
//! let result = ThreadedEngine::new().execute(&block, &mut workspace);
//! assert_eq!(result.value, Some(3628800));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod cancel;
pub mod engine;
pub mod faults;
#[macro_use]
pub mod macros;
pub mod pad;
pub mod perf;
pub mod stats;
pub mod wake;

pub use block::{AltBlock, AltName, BlockResult};
pub use cancel::CancelToken;
pub use engine::Engine;
pub use pad::CachePadded;
pub use wake::{wake_stats, WakeStats};

// Re-export the substrate types that appear in this crate's public API.
pub use altx_pager::{AddressSpace, MachineProfile, PageSize};
