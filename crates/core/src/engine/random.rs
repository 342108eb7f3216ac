//! Scheme B: arbitrary selection of a single alternative.

use crate::block::{AltBlock, BlockResult};
use crate::cancel::CancelToken;
use crate::engine::Engine;
use altx_des::SimRng;
use altx_pager::AddressSpace;
use std::sync::Mutex;
use std::time::Instant;

/// Picks **one** alternative uniformly at random and runs only it — the
/// paper's Scheme B baseline (§4.2): "An algorithm can be selected at
/// random from amongst the Cᵢ". Run repeatedly, its expected cost is the
/// arithmetic mean of the alternatives' costs, which is exactly what the
/// concurrent engine is compared against in the PI analysis (§4.3).
///
/// If the chosen alternative's guard fails, the block fails — Scheme B
/// commits to its arbitrary choice, it does not fall back (a failure or
/// infinite loop "will frustrate this method", as the paper's footnote
/// notes).
#[derive(Debug)]
pub struct RandomEngine {
    rng: Mutex<SimRng>,
}

impl RandomEngine {
    /// Creates the engine with a deterministic seed.
    pub fn seeded(seed: u64) -> Self {
        RandomEngine {
            rng: Mutex::new(SimRng::seed_from_u64(seed)),
        }
    }
}

impl Default for RandomEngine {
    fn default() -> Self {
        RandomEngine::seeded(0x5EED)
    }
}

impl Engine for RandomEngine {
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
        let i = self.rng.lock().expect("rng lock").index(block.len());
        let alt = &block.alternatives()[i];
        let token = CancelToken::new();
        let mut fork = workspace.cow_fork();
        // Scheme B commits to its arbitrary choice — a crash, like a
        // failed guard, fails the block (contained, fork discarded).
        let (value, panicked) = alt.run_contained(&mut fork, &token);
        let (winner, winner_name) = if value.is_some() {
            workspace.absorb(fork);
            (Some(i), Some(alt.name().to_string()))
        } else {
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

    fn ws() -> AddressSpace {
        AddressSpace::zeroed(64, PageSize::new(16))
    }

    #[test]
    fn runs_exactly_one_alternative() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let runs = Arc::new(AtomicUsize::new(0));
        let (r1, r2) = (runs.clone(), runs.clone());
        let block: AltBlock<i32> = AltBlock::new()
            .alternative("a", move |_w, _t| {
                r1.fetch_add(1, Ordering::SeqCst);
                Some(1)
            })
            .alternative("b", move |_w, _t| {
                r2.fetch_add(1, Ordering::SeqCst);
                Some(2)
            });
        let r = RandomEngine::seeded(1).execute(&block, &mut ws());
        assert!(r.succeeded());
        assert_eq!(runs.load(Ordering::SeqCst), 1);
        assert_eq!(r.attempts, 1);
    }

    #[test]
    fn selection_is_roughly_uniform() {
        let block: AltBlock<usize> = AltBlock::new()
            .alternative("0", |_w, _t| Some(0))
            .alternative("1", |_w, _t| Some(1))
            .alternative("2", |_w, _t| Some(2));
        let engine = RandomEngine::seeded(42);
        let mut counts = [0usize; 3];
        for _ in 0..3000 {
            let r = engine.execute(&block, &mut ws());
            counts[r.into_value()] += 1;
        }
        for &c in &counts {
            assert!((800..1200).contains(&c), "counts {counts:?}");
        }
    }

    #[test]
    fn chosen_failure_fails_the_block_without_side_effects() {
        let block: AltBlock<i32> = AltBlock::new().alternative("fails", |w, _t| {
            w.write(0, &[1]);
            None
        });
        let mut workspace = ws();
        let r = RandomEngine::default().execute(&block, &mut workspace);
        assert!(!r.succeeded());
        assert_eq!(workspace.read_vec(0, 1), vec![0], "failure rolled back");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let block: AltBlock<usize> = AltBlock::new()
            .alternative("0", |_w, _t| Some(0))
            .alternative("1", |_w, _t| Some(1));
        let seq = |seed| {
            let e = RandomEngine::seeded(seed);
            (0..10)
                .map(|_| e.execute(&block, &mut ws()).into_value())
                .collect::<Vec<_>>()
        };
        assert_eq!(seq(9), seq(9));
    }

    #[test]
    fn empty_block_fails() {
        let block: AltBlock<i32> = AltBlock::new();
        assert!(!RandomEngine::default()
            .execute(&block, &mut ws())
            .succeeded());
    }
}
