//! The §4.2 case-2 "synthetic computation": selection by prediction.
//!
//! When `τ(Cᵢ, x) ≤ τ(Cⱼ, x)` for predictable subsets of the domain, "we
//! can construct a synthetic computation C_{N+1} which selects Cᵢ when
//! this holds" — the paper's `sort(list, size)` example that picks
//! quicksort above ten elements. This engine is that construction: a
//! caller-supplied selector inspects the workspace and picks exactly one
//! alternative to run.
//!
//! It exists as the *baseline that racing competes against when the
//! domain can be partitioned*: when the partition is cheap and accurate
//! the selector wins (no speculation overhead at all); when performance
//! on the input is unpredictable — §4.2 case 3 — no such selector exists
//! and fastest-first racing is the remaining option.

use crate::block::{AltBlock, BlockResult};
use crate::cancel::CancelToken;
use crate::engine::Engine;
use altx_pager::AddressSpace;
use std::time::Instant;

/// Selection function: inspect the input state, return the index of the
/// alternative to run.
pub type SelectorFn = dyn Fn(&AddressSpace) -> usize + Send + Sync;

/// Runs exactly the alternative chosen by a domain-partitioning
/// selector (§4.2 case 2). The selector's cost is honest: it runs on
/// every execution, like the paper's table lookup whose cost must be
/// "added … to the cost of executing the table element".
///
/// # Example
///
/// ```
/// use altx::engine::{Engine, SelectorEngine};
/// use altx::{AddressSpace, AltBlock, PageSize};
///
/// // The workspace's first byte is the problem size; pick the
/// // small-input method below 10, the big-input method otherwise.
/// let engine = SelectorEngine::new(|ws| usize::from(ws.map().flatten()[0] >= 10));
/// let block: AltBlock<&'static str> = AltBlock::new()
///     .alternative("insertion-sort", |_w, _t| Some("small"))
///     .alternative("quicksort", |_w, _t| Some("large"));
///
/// let mut ws = AddressSpace::zeroed(64, PageSize::new(64));
/// ws.write(0, &[3]);
/// assert_eq!(engine.execute(&block, &mut ws).value, Some("small"));
/// ws.write(0, &[42]);
/// assert_eq!(engine.execute(&block, &mut ws).value, Some("large"));
/// ```
pub struct SelectorEngine {
    selector: Box<SelectorFn>,
}

impl SelectorEngine {
    /// Creates the engine from a selection function.
    pub fn new<F>(selector: F) -> Self
    where
        F: Fn(&AddressSpace) -> usize + Send + Sync + 'static,
    {
        SelectorEngine {
            selector: Box::new(selector),
        }
    }
}

impl std::fmt::Debug for SelectorEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SelectorEngine")
    }
}

impl Engine for SelectorEngine {
    fn execute<R: Send + 'static>(
        &self,
        block: &AltBlock<R>,
        workspace: &mut AddressSpace,
    ) -> BlockResult<R> {
        let start = Instant::now();
        if block.is_empty() {
            return BlockResult {
                value: None,
                winner: None,
                winner_name: None,
                winner_body: None,
                wall: start.elapsed(),
                attempts: 0,
                panics: 0,
                suppressed: 0,
            };
        }
        let choice = (self.selector)(workspace).min(block.len() - 1);
        let alt = &block.alternatives()[choice];
        let token = CancelToken::new();
        let mut fork = workspace.cow_fork();
        // Contained: a crashing prediction fails the block like a
        // misprediction, with the fork discarded.
        let (value, panicked) = alt.run_contained(&mut fork, &token);
        let (winner, winner_name) = if value.is_some() {
            workspace.absorb(fork);
            (Some(choice), Some(alt.name().to_string()))
        } else {
            // A mispredicting selector fails the block — it bet on one
            // alternative, like Scheme B. (No fallback: falling back
            // would be the ordered engine.)
            (None, None)
        };
        BlockResult {
            value,
            winner,
            winner_name,
            winner_body: None,
            wall: start.elapsed(),
            attempts: 1,
            panics: usize::from(panicked),
            suppressed: block.len() - 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use altx_pager::PageSize;

    fn ws_with_size(size: u8) -> AddressSpace {
        let mut ws = AddressSpace::zeroed(64, PageSize::new(64));
        ws.write(0, &[size]);
        ws
    }

    fn sort_block() -> AltBlock<&'static str> {
        AltBlock::new()
            .alternative("insertion", |_w, _t| Some("insertion"))
            .alternative("quick", |_w, _t| Some("quick"))
    }

    #[test]
    fn selector_partitions_the_domain() {
        // The paper's example: "Q is faster than I when the number of
        // elements to be sorted is greater than 10."
        let engine = SelectorEngine::new(|ws| usize::from(ws.map().flatten()[0] > 10));
        let r = engine.execute(&sort_block(), &mut ws_with_size(5));
        assert_eq!(r.value, Some("insertion"));
        assert_eq!(r.attempts, 1);
        let r = engine.execute(&sort_block(), &mut ws_with_size(50));
        assert_eq!(r.value, Some("quick"));
    }

    #[test]
    fn out_of_range_selection_clamps() {
        let engine = SelectorEngine::new(|_| 99);
        let r = engine.execute(&sort_block(), &mut ws_with_size(0));
        assert_eq!(r.winner, Some(1), "clamped to the last alternative");
    }

    #[test]
    fn misprediction_fails_without_side_effects() {
        let engine = SelectorEngine::new(|_| 0);
        let block: AltBlock<u8> = AltBlock::new()
            .alternative("always-fails", |w, _t| {
                w.write(1, &[0xEE]);
                None
            })
            .alternative("never-chosen", |_w, _t| Some(1));
        let mut ws = ws_with_size(0);
        let r = engine.execute(&block, &mut ws);
        assert!(!r.succeeded());
        assert_eq!(ws.read_vec(1, 1), vec![0], "failed fork discarded");
    }

    #[test]
    fn only_the_selected_alternative_runs() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let runs = Arc::new(AtomicUsize::new(0));
        let (a, b) = (runs.clone(), runs.clone());
        let block: AltBlock<u8> = AltBlock::new()
            .alternative("0", move |_w, _t| {
                a.fetch_add(1, Ordering::SeqCst);
                Some(0)
            })
            .alternative("1", move |_w, _t| {
                b.fetch_add(1, Ordering::SeqCst);
                Some(1)
            });
        let engine = SelectorEngine::new(|_| 1);
        let r = engine.execute(&block, &mut ws_with_size(0));
        assert_eq!(r.value, Some(1));
        assert_eq!(runs.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn empty_block_fails() {
        let engine = SelectorEngine::new(|_| 0);
        let block: AltBlock<u8> = AltBlock::new();
        assert!(!engine.execute(&block, &mut ws_with_size(0)).succeeded());
    }
}
