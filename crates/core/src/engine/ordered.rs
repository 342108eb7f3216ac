//! Sequential execution in declaration order, with rollback.

use crate::block::{AltBlock, BlockResult};
use crate::cancel::CancelToken;
use crate::engine::Engine;
use altx_pager::AddressSpace;
use std::time::Instant;

/// Tries alternatives in declaration order; the first success is kept.
///
/// Between tries, the workspace is *rolled back*: each alternative runs on
/// a fresh COW fork, and only the winner's fork is absorbed. This is
/// exactly the recovery-block discipline (§5.1): "the state of the program
/// is 'rolled back' to the state the program had before the block was
/// entered, and the next alternative is tried."
#[derive(Debug, Clone, Copy, Default)]
pub struct OrderedEngine;

impl OrderedEngine {
    /// Creates the engine.
    pub fn new() -> Self {
        OrderedEngine
    }
}

impl Engine for OrderedEngine {
    fn execute<R: Send + 'static>(
        &self,
        block: &AltBlock<R>,
        workspace: &mut AddressSpace,
    ) -> BlockResult<R> {
        let start = Instant::now();
        let token = CancelToken::new(); // never cancelled: sequential
        let mut attempts = 0;
        let mut panics = 0;
        for (i, alt) in block.alternatives().iter().enumerate() {
            attempts += 1;
            let mut fork = workspace.cow_fork();
            // Contained: a crashing alternative is a failed guard, and
            // the next alternative is tried — exactly the recovery-block
            // error case this engine models.
            let (value, panicked) = alt.run_contained(&mut fork, &token);
            if panicked {
                panics += 1;
            }
            if let Some(value) = value {
                workspace.absorb(fork);
                return BlockResult {
                    value: Some(value),
                    winner: Some(i),
                    winner_name: Some(alt.name().to_string()),
                    winner_body: None,
                    wall: start.elapsed(),
                    attempts,
                    panics,
                    suppressed: block.len() - attempts,
                };
            }
            // Failure: drop the fork — implicit rollback.
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

    fn ws() -> AddressSpace {
        AddressSpace::zeroed(64, PageSize::new(16))
    }

    #[test]
    fn first_success_wins() {
        let block: AltBlock<i32> = AltBlock::new()
            .alternative("a", |_w, _t| Some(1))
            .alternative("b", |_w, _t| Some(2));
        let r = OrderedEngine::new().execute(&block, &mut ws());
        assert_eq!(r.value, Some(1));
        assert_eq!(r.winner, Some(0));
        assert_eq!(r.attempts, 1, "later alternatives never started");
    }

    #[test]
    fn failures_roll_back_state() {
        let block: AltBlock<i32> = AltBlock::new()
            .alternative("dirty-failure", |w, _t| {
                w.write(0, &[0xEE]); // side effect that must not leak
                None
            })
            .alternative("clean-success", |w, _t| {
                assert_eq!(w.read_vec(0, 1)[0], 0, "previous failure leaked");
                w.write(1, &[0x55]);
                Some(7)
            });
        let mut workspace = ws();
        let r = OrderedEngine::new().execute(&block, &mut workspace);
        assert_eq!(r.value, Some(7));
        assert_eq!(r.winner, Some(1));
        assert_eq!(r.attempts, 2);
        assert_eq!(workspace.read_vec(0, 2), vec![0, 0x55]);
    }

    #[test]
    fn all_fail_leaves_workspace_untouched() {
        let block: AltBlock<i32> = AltBlock::new()
            .alternative("f1", |w, _t| {
                w.write(0, &[1]);
                None
            })
            .alternative("f2", |w, _t| {
                w.write(0, &[2]);
                None
            });
        let mut workspace = ws();
        workspace.write(0, &[9]);
        let r = OrderedEngine::new().execute(&block, &mut workspace);
        assert!(!r.succeeded());
        assert_eq!(r.attempts, 2);
        assert_eq!(workspace.read_vec(0, 1), vec![9]);
    }

    #[test]
    fn empty_block_fails() {
        let block: AltBlock<i32> = AltBlock::new();
        let r = OrderedEngine::new().execute(&block, &mut ws());
        assert!(!r.succeeded());
        assert_eq!(r.attempts, 0);
    }

    #[test]
    fn crashing_alternative_falls_through_like_a_failed_guard() {
        let block: AltBlock<i32> = AltBlock::new()
            .alternative("crashes", |w, _t| {
                w.write(0, &[0xEE]); // dirty write that must roll back
                panic!("primary died")
            })
            .alternative("recovers", |w, _t| {
                assert_eq!(w.read_vec(0, 1)[0], 0, "crash leaked state");
                Some(11)
            });
        let mut workspace = ws();
        let r = OrderedEngine::new().execute(&block, &mut workspace);
        assert_eq!(r.value, Some(11));
        assert_eq!(r.winner, Some(1));
        assert_eq!(r.panics, 1);
        assert_eq!(r.attempts, 2);
    }
}
