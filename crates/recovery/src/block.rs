//! The recovery-block construct over real closures.

use altx::cancel::CancelToken;
use altx::engine::{Engine, OrderedEngine, ThreadedEngine};
use altx::{AddressSpace, AltBlock};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// The body of one alternate: compute on the workspace; `None` models the
/// alternate itself failing (crash, internal check, exception).
pub type AlternateFn<R> = dyn Fn(&mut AddressSpace, &CancelToken) -> Option<R> + Send + Sync;

/// The acceptance test: inspects the candidate result and the state the
/// alternate produced; `true` accepts.
pub type AcceptanceFn<R> = dyn Fn(&R, &mut AddressSpace) -> bool + Send + Sync;

struct Alternate<R> {
    name: String,
    body: Arc<AlternateFn<R>>,
}

impl<R> Clone for Alternate<R> {
    fn clone(&self) -> Self {
        Alternate {
            name: self.name.clone(),
            body: Arc::clone(&self.body),
        }
    }
}

/// A recovery block: ordered alternates plus one acceptance test.
///
/// §5.1.1 notes the two differences from the plain alternative block —
/// one shared guard rather than one per body, applied *after* the body —
/// and that neither is a problem: "the computation can be viewed as part
/// of the guard". That is exactly how
/// [`run_concurrent`](RecoveryBlock::run_concurrent) lowers the block
/// onto the alternative-block machinery.
///
/// # Example
///
/// ```
/// use altx::{AddressSpace, PageSize};
/// use altx_recovery::RecoveryBlock;
///
/// // Two "independently written" square roots; the acceptance test
/// // verifies the result against the specification.
/// let block: RecoveryBlock<f64> = RecoveryBlock::new(|r: &f64, _ws| (r * r - 2.0).abs() < 1e-9)
///     .alternate("newton", |_ws, _t| {
///         let mut x = 1.0f64;
///         for _ in 0..60 { x = 0.5 * (x + 2.0 / x); }
///         Some(x)
///     })
///     .alternate("libm", |_ws, _t| Some(2.0f64.sqrt()));
///
/// let mut ws = AddressSpace::zeroed(4096, PageSize::K4);
/// let out = block.run_sequential(&mut ws);
/// assert!(out.accepted);
/// ```
pub struct RecoveryBlock<R> {
    alternates: Vec<Alternate<R>>,
    acceptance: Arc<AcceptanceFn<R>>,
}

impl<R> fmt::Debug for RecoveryBlock<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list()
            .entries(self.alternates.iter().map(|a| &a.name))
            .finish()
    }
}

/// What executing a recovery block produced.
#[derive(Debug)]
pub struct RecoveryOutcome<R> {
    /// The accepted result, if any alternate passed.
    pub value: Option<R>,
    /// Index of the accepted alternate.
    pub winner: Option<usize>,
    /// Name of the accepted alternate.
    pub winner_name: Option<String>,
    /// Whether the block as a whole succeeded.
    pub accepted: bool,
    /// Alternates started.
    pub attempts: usize,
    /// Real wall-clock time.
    pub wall: Duration,
}

impl<R: Send + 'static> RecoveryBlock<R> {
    /// Creates a block with the given acceptance test.
    pub fn new<A>(acceptance: A) -> Self
    where
        A: Fn(&R, &mut AddressSpace) -> bool + Send + Sync + 'static,
    {
        RecoveryBlock {
            alternates: Vec::new(),
            acceptance: Arc::new(acceptance),
        }
    }

    /// Adds an alternate. Order matters for sequential execution: the
    /// first alternate is the primary, "typically ordered on the basis of
    /// observed or estimated characteristics such as reliability and
    /// execution speed" (§5.1).
    pub fn alternate<F>(mut self, name: impl Into<String>, body: F) -> Self
    where
        F: Fn(&mut AddressSpace, &CancelToken) -> Option<R> + Send + Sync + 'static,
    {
        self.alternates.push(Alternate {
            name: name.into(),
            body: Arc::new(body),
        });
        self
    }

    /// Number of alternates.
    pub fn len(&self) -> usize {
        self.alternates.len()
    }

    /// True iff the block has no alternates.
    pub fn is_empty(&self) -> bool {
        self.alternates.is_empty()
    }

    /// Classic sequential execution with rollback: primary first, each
    /// failure rolls the workspace back, next alternate tried (§5.1).
    pub fn run_sequential(&self, workspace: &mut AddressSpace) -> RecoveryOutcome<R> {
        let start = std::time::Instant::now();
        let token = CancelToken::new();
        let mut attempts = 0;
        for (i, alt) in self.alternates.iter().enumerate() {
            attempts += 1;
            let mut fork = workspace.cow_fork();
            if let Some(value) = (alt.body)(&mut fork, &token) {
                if (self.acceptance)(&value, &mut fork) {
                    workspace.absorb(fork);
                    return RecoveryOutcome {
                        value: Some(value),
                        winner: Some(i),
                        winner_name: Some(alt.name.clone()),
                        accepted: true,
                        attempts,
                        wall: start.elapsed(),
                    };
                }
            }
            // Acceptance failed or alternate crashed: implicit rollback
            // by dropping the fork.
        }
        RecoveryOutcome {
            value: None,
            winner: None,
            winner_name: None,
            accepted: false,
            attempts,
            wall: start.elapsed(),
        }
    }

    /// Concurrent execution: every alternate races on its own COW fork;
    /// the acceptance test runs in the alternate (guard-in-the-child,
    /// §3.2) and the first acceptable result wins.
    pub fn run_concurrent(&self, workspace: &mut AddressSpace) -> RecoveryOutcome<R> {
        self.run_engine(&ThreadedEngine::new(), workspace)
    }

    /// Sequential execution expressed through the
    /// [`OrderedEngine`] — used to check engine-equivalence.
    pub fn run_ordered_engine(&self, workspace: &mut AddressSpace) -> RecoveryOutcome<R> {
        self.run_engine(&OrderedEngine::new(), workspace)
    }

    fn run_engine<E: Engine>(
        &self,
        engine: &E,
        workspace: &mut AddressSpace,
    ) -> RecoveryOutcome<R> {
        let start = std::time::Instant::now();
        let block = self.build_alt_block();
        let result = engine.execute(&block, workspace);
        RecoveryOutcome {
            accepted: result.succeeded(),
            value: result.value,
            winner: result.winner,
            winner_name: result.winner_name,
            attempts: result.attempts,
            wall: start.elapsed(),
        }
    }

    /// Lowers the recovery block onto an [`AltBlock`]: each alternative's
    /// guard becomes "body succeeded AND the acceptance test passed on
    /// the body's own state".
    fn build_alt_block(&self) -> AltBlock<R> {
        let mut block = AltBlock::new();
        for alt in &self.alternates {
            let body = Arc::clone(&alt.body);
            let acceptance = Arc::clone(&self.acceptance);
            block = block.alternative(alt.name.clone(), move |ws, token| {
                let value = body(ws, token)?;
                acceptance(&value, ws).then_some(value)
            });
        }
        block
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use altx::PageSize;

    fn ws() -> AddressSpace {
        AddressSpace::zeroed(256, PageSize::new(16))
    }

    /// A block whose primary is buggy (wrong answer), secondary crashes,
    /// and tertiary is correct.
    fn faulty_block() -> RecoveryBlock<i32> {
        RecoveryBlock::new(|r: &i32, _ws| *r == 42)
            .alternate("buggy-primary", |_w, _t| Some(41))
            .alternate("crashing-secondary", |_w, _t| None)
            .alternate("correct-tertiary", |_w, _t| Some(42))
    }

    #[test]
    fn sequential_tries_in_order_until_acceptance() {
        let out = faulty_block().run_sequential(&mut ws());
        assert!(out.accepted);
        assert_eq!(out.winner, Some(2));
        assert_eq!(out.winner_name.as_deref(), Some("correct-tertiary"));
        assert_eq!(out.attempts, 3);
        assert_eq!(out.value, Some(42));
    }

    #[test]
    fn sequential_rolls_back_rejected_state() {
        let block: RecoveryBlock<u8> = RecoveryBlock::new(|r: &u8, _ws| *r == 1)
            .alternate("rejected-writer", |w, _t| {
                w.write(0, &[0xBB]);
                Some(0) // fails acceptance
            })
            .alternate("accepted-writer", |w, _t| {
                assert_eq!(w.read_vec(0, 1)[0], 0, "rejected state leaked");
                w.write(1, &[0xCC]);
                Some(1)
            });
        let mut workspace = ws();
        let out = block.run_sequential(&mut workspace);
        assert!(out.accepted);
        assert_eq!(workspace.read_vec(0, 2), vec![0, 0xCC]);
    }

    #[test]
    fn whole_block_fails_when_all_alternates_fail() {
        let block: RecoveryBlock<i32> = RecoveryBlock::new(|_r: &i32, _ws| false)
            .alternate("a", |_w, _t| Some(1))
            .alternate("b", |_w, _t| Some(2));
        let mut workspace = ws();
        workspace.write(0, &[7]);
        let out = block.run_sequential(&mut workspace);
        assert!(!out.accepted);
        assert_eq!(out.attempts, 2);
        assert_eq!(workspace.read_vec(0, 1), vec![7], "state restored");
    }

    #[test]
    fn concurrent_finds_an_acceptable_alternate() {
        let out = faulty_block().run_concurrent(&mut ws());
        assert!(out.accepted);
        assert_eq!(out.winner, Some(2), "only the correct alternate passes");
        assert_eq!(out.attempts, 3, "all alternates raced");
    }

    #[test]
    fn concurrent_is_fastest_first_among_acceptable() {
        // Two acceptable alternates; the slow one waits on the token, so
        // the fast one's acceptance wakes it.
        let block: RecoveryBlock<&'static str> = RecoveryBlock::new(|_r, _ws| true)
            .alternate("slow", |_w, t| {
                t.sleep(Duration::from_millis(200)).then_some("slow")
            })
            .alternate("fast", |_w, _t| Some("fast"));
        let out = block.run_concurrent(&mut ws());
        assert_eq!(out.value, Some("fast"));
        assert!(out.wall < Duration::from_millis(150));
    }

    #[test]
    fn acceptance_test_sees_alternate_state() {
        // The acceptance test validates via the workspace, not just the
        // value — state checking per §5.1 ("checks the results").
        let block: RecoveryBlock<()> = RecoveryBlock::new(|_r: &(), ws| ws.read_vec(0, 1)[0] == 9)
            .alternate("writes-wrong", |w, _t| {
                w.write(0, &[1]);
                Some(())
            })
            .alternate("writes-right", |w, _t| {
                w.write(0, &[9]);
                Some(())
            });
        let out = block.run_sequential(&mut ws());
        assert_eq!(out.winner, Some(1));
    }

    #[test]
    fn ordered_engine_agrees_with_run_sequential() {
        let a = faulty_block().run_sequential(&mut ws());
        let b = faulty_block().run_ordered_engine(&mut ws());
        assert_eq!(a.winner, b.winner);
        assert_eq!(a.value, b.value);
        assert_eq!(a.attempts, b.attempts);
    }

    #[test]
    fn empty_block_fails() {
        let block: RecoveryBlock<i32> = RecoveryBlock::new(|_r: &i32, _ws| true);
        assert!(block.is_empty());
        assert!(!block.run_sequential(&mut ws()).accepted);
        assert!(!block.run_concurrent(&mut ws()).accepted);
    }

    #[test]
    fn debug_lists_alternates() {
        let s = format!("{:?}", faulty_block());
        assert!(s.contains("buggy-primary"), "{s}");
    }
}
