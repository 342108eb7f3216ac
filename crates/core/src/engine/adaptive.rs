//! Scheme A: selection by statistical data.
//!
//! §4.2's first fallback when performance is unpredictable per-input:
//! "Statistical data can be applied, e.g., quicksort is 'almost always'
//! O(n log n). Thus, we'll rarely go wrong to use it."
//!
//! [`AdaptiveEngine`] learns that statistic online through a shared
//! [`AltStatsTable`]: it tracks an EWMA of each alternative's observed
//! execution time and (after an exploration phase that tries everything
//! once) always runs the alternative with the best learned latency,
//! falling back to the next best when the favourite's guard fails. It
//! beats Scheme B whenever one alternative is *usually* fastest — and
//! loses to Scheme C when the fastest alternative varies per input,
//! which is exactly the regime the paper's racing design targets.

use crate::block::{AltBlock, BlockResult};
use crate::cancel::CancelToken;
use crate::engine::Engine;
use crate::stats::AltStatsTable;
use altx_pager::AddressSpace;
use std::time::Instant;

/// An engine that runs the historically fastest alternative first.
///
/// Statistics are keyed by alternative *index* in a lock-cheap
/// [`AltStatsTable`], so one engine instance should be reused across
/// executions of the same (or same-shaped) block; a fresh instance
/// starts with an exploration pass.
///
/// # Example
///
/// ```
/// use altx::engine::{AdaptiveEngine, Engine};
/// use altx::{AddressSpace, AltBlock, PageSize};
///
/// let engine = AdaptiveEngine::new();
/// let block: AltBlock<u32> = AltBlock::new()
///     .alternative("slow", |_w, _t| {
///         std::thread::sleep(std::time::Duration::from_millis(3));
///         Some(1)
///     })
///     .alternative("fast", |_w, _t| Some(2));
///
/// // After exploration, the engine settles on the fast alternative.
/// let mut last = 0;
/// for _ in 0..6 {
///     let mut ws = AddressSpace::zeroed(64, PageSize::new(64));
///     last = engine.execute(&block, &mut ws).into_value();
/// }
/// assert_eq!(last, 2);
/// ```
#[derive(Debug, Default)]
pub struct AdaptiveEngine {
    stats: AltStatsTable,
}

impl AdaptiveEngine {
    /// Creates an engine with no history.
    pub fn new() -> Self {
        AdaptiveEngine::default()
    }

    /// The live statistics table backing this engine's decisions.
    pub fn stats(&self) -> &AltStatsTable {
        &self.stats
    }

    /// Observed (EWMA) execution time in seconds of alternative `i`, if
    /// it has run.
    pub fn observed_mean(&self, i: usize) -> Option<f64> {
        self.stats.ewma_us(i).map(|us| us / 1e6)
    }

    /// Total guard failures observed for alternative `i`.
    pub fn observed_failures(&self, i: usize) -> u64 {
        self.stats.failures(i)
    }

    /// Preference order: unexplored first, then ascending observed mean.
    fn order(&self, n: usize) -> Vec<usize> {
        self.stats.ensure(n);
        let key = |i: usize| -> f64 {
            // Unexplored alternatives sort before everything observed.
            self.stats.ewma_us(i).unwrap_or(f64::NEG_INFINITY)
        };
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| key(a).partial_cmp(&key(b)).expect("EWMA is never NaN"));
        order
    }
}

impl Engine for AdaptiveEngine {
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
        let token = CancelToken::new();
        let mut attempts = 0;
        let mut panics = 0;
        for i in self.order(block.len()) {
            attempts += 1;
            let alt = &block.alternatives()[i];
            let attempt_start = Instant::now();
            let mut fork = workspace.cow_fork();
            // Contained: a crash counts as a failure in the statistics,
            // steering future selections away from crashy alternatives.
            let (value, panicked) = alt.run_contained(&mut fork, &token);
            if panicked {
                panics += 1;
            }
            let us = attempt_start.elapsed().as_micros() as u64;
            match value {
                Some(v) => {
                    self.stats.record_win(i, us);
                    workspace.absorb(fork);
                    return BlockResult {
                        value: Some(v),
                        winner: Some(i),
                        winner_name: Some(alt.name().to_string()),
                        winner_body: None,
                        wall: start.elapsed(),
                        attempts,
                        panics,
                        suppressed: block.len() - attempts,
                    };
                }
                None => self.stats.record_run(i, us, true),
            }
        }
        BlockResult {
            value: None,
            winner: None,
            winner_name: None,
            winner_body: None,
            wall: start.elapsed(),
            attempts,
            panics,
            suppressed: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use altx_pager::PageSize;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    fn ws() -> AddressSpace {
        AddressSpace::zeroed(64, PageSize::new(64))
    }

    #[test]
    fn explores_everything_then_settles_on_the_fastest() {
        let runs = Arc::new([AtomicUsize::new(0), AtomicUsize::new(0)]);
        let (ra, rb) = (runs.clone(), runs.clone());
        let block: AltBlock<u8> = AltBlock::new()
            .alternative("slow", move |_w, _t| {
                ra[0].fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(4));
                Some(0)
            })
            .alternative("fast", move |_w, _t| {
                rb[1].fetch_add(1, Ordering::SeqCst);
                Some(1)
            });
        let engine = AdaptiveEngine::new();
        for _ in 0..8 {
            engine.execute(&block, &mut ws());
        }
        let slow_runs = runs[0].load(Ordering::SeqCst);
        let fast_runs = runs[1].load(Ordering::SeqCst);
        assert!(slow_runs >= 1, "exploration must try the slow one");
        assert!(slow_runs <= 2, "but then abandon it: {slow_runs}");
        assert!(
            fast_runs >= 6,
            "the statistic picks the fast one: {fast_runs}"
        );
        assert!(engine.observed_mean(0).expect("ran") > engine.observed_mean(1).expect("ran"));
        assert!(
            engine.stats().wins(1) >= 6,
            "wins accrue to the settled favourite"
        );
    }

    #[test]
    fn guard_failure_falls_back_to_next_best() {
        let block: AltBlock<u8> = AltBlock::new()
            .alternative("fast-but-broken", |_w, _t| None)
            .alternative("works", |_w, _t| Some(7));
        let engine = AdaptiveEngine::new();
        for _ in 0..4 {
            let r = engine.execute(&block, &mut ws());
            assert_eq!(r.value, Some(7));
        }
        assert!(engine.observed_failures(0) >= 1);
    }

    #[test]
    fn rollback_between_fallback_attempts() {
        let block: AltBlock<u8> = AltBlock::new()
            .alternative("dirty-failure", |w, _t| {
                w.write(0, &[0xBB]);
                None
            })
            .alternative("clean", |w, _t| {
                assert_eq!(w.read_vec(0, 1)[0], 0);
                Some(1)
            });
        let mut workspace = ws();
        let r = AdaptiveEngine::new().execute(&block, &mut workspace);
        assert!(r.succeeded());
        assert_eq!(workspace.read_vec(0, 1), vec![0]);
    }

    #[test]
    fn all_fail_fails() {
        let block: AltBlock<u8> = AltBlock::new()
            .alternative("a", |_w, _t| None)
            .alternative("b", |_w, _t| None);
        let engine = AdaptiveEngine::new();
        let r = engine.execute(&block, &mut ws());
        assert!(!r.succeeded());
        assert_eq!(r.attempts, 2);
    }

    #[test]
    fn empty_block_fails() {
        let engine = AdaptiveEngine::new();
        let block: AltBlock<u8> = AltBlock::new();
        assert!(!engine.execute(&block, &mut ws()).succeeded());
    }
}
