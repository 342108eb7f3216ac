//! The alternative block over real Rust closures.
//!
//! [`AltBlock`] is the library-level `ALTBEGIN … END` of Figure 1. Each
//! alternative is a closure over a COW-forked [`AddressSpace`] workspace;
//! returning `Some(value)` means the guard held (the computed result is
//! acceptable), `None` means the guard failed. At most one alternative's
//! workspace mutations become visible to the caller — the engines enforce
//! the paper's "at most one of the alternative state changes occurs"
//! semantics.

use crate::cancel::CancelToken;
use altx_pager::AddressSpace;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

/// The signature of an alternative's body: compute on a private COW fork
/// of the workspace, honour the token — poll
/// [`checkpoint`](CancelToken::checkpoint) while computing, block in
/// [`sleep`](CancelToken::sleep) when waiting, so elimination wakes the
/// body — and return `Some(result)` iff the guard is satisfied.
pub type AltFn<R> = dyn Fn(&mut AddressSpace, &CancelToken) -> Option<R> + Send + Sync;

/// An alternative's name. A `&'static str` — a literal, or a name from
/// an interned table like a serving catalog's — is kept as the
/// reference it is; any other name is copied once into a shared
/// allocation. Naming from a static table never allocates, and neither
/// does cloning a name.
#[derive(Clone)]
pub struct AltName(Name);

#[derive(Clone)]
enum Name {
    Static(&'static str),
    Shared(Arc<str>),
}

impl AltName {
    /// The name as a string slice.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Name::Static(name) => name,
            Name::Shared(name) => name,
        }
    }
}

impl From<&'static str> for AltName {
    fn from(name: &'static str) -> Self {
        AltName(Name::Static(name))
    }
}

impl From<String> for AltName {
    fn from(name: String) -> Self {
        AltName(Name::Shared(name.into()))
    }
}

impl From<Arc<str>> for AltName {
    fn from(name: Arc<str>) -> Self {
        AltName(Name::Shared(name))
    }
}

impl fmt::Debug for AltName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

/// One named alternative.
///
/// The body is reference-counted and the name is static or
/// reference-counted, so a clone allocates nothing:
/// [`ThreadedEngine`](crate::engine::ThreadedEngine) hands clones to
/// whichever racer thread claims the alternative.
pub struct BlockAlternative<R> {
    name: AltName,
    body: Arc<AltFn<R>>,
}

impl<R> Clone for BlockAlternative<R> {
    fn clone(&self) -> Self {
        BlockAlternative {
            name: self.name.clone(),
            body: Arc::clone(&self.body),
        }
    }
}

impl<R> BlockAlternative<R> {
    /// The alternative's display name.
    pub fn name(&self) -> &str {
        self.name.as_str()
    }

    /// Runs the body on `workspace`.
    pub fn run(&self, workspace: &mut AddressSpace, token: &CancelToken) -> Option<R> {
        (self.body)(workspace, token)
    }

    /// Runs the body with panic containment: a panicking body is
    /// reported as a failed guard (`None`) plus `panicked = true`,
    /// instead of unwinding into the engine (and, under a threaded
    /// engine, killing the racing thread).
    ///
    /// This is the paper's guard-fails semantics applied to crashes: an
    /// alternative that dies is indistinguishable from one whose guard
    /// was unsatisfied — its fork is discarded either way, so no
    /// partially-mutated state can leak. `AssertUnwindSafe` is sound
    /// here because the only state the closure can reach besides its
    /// own captures is the fork, which the caller throws away on
    /// failure.
    pub fn run_contained(
        &self,
        workspace: &mut AddressSpace,
        token: &CancelToken,
    ) -> (Option<R>, bool) {
        match catch_unwind(AssertUnwindSafe(|| self.run(workspace, token))) {
            Ok(value) => (value, false),
            Err(_) => (None, true),
        }
    }
}

impl<R> fmt::Debug for BlockAlternative<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BlockAlternative({:?})", self.name)
    }
}

/// A block of mutually exclusive alternatives producing an `R`.
///
/// # Example
///
/// ```
/// use altx::AltBlock;
///
/// let block: AltBlock<i32> = AltBlock::new()
///     .alternative("constant", |_ws, _t| Some(42))
///     .alternative("never", |_ws, _t| None);
/// assert_eq!(block.len(), 2);
/// assert_eq!(block.alternatives()[1].name(), "never");
/// ```
pub struct AltBlock<R> {
    alternatives: Vec<BlockAlternative<R>>,
}

impl<R> Default for AltBlock<R> {
    fn default() -> Self {
        AltBlock::new()
    }
}

impl<R> AltBlock<R> {
    /// Creates an empty block (add alternatives before executing).
    pub fn new() -> Self {
        AltBlock {
            alternatives: Vec::new(),
        }
    }

    /// Adds an alternative (builder style). The name is an [`AltName`]:
    /// a `&'static str` is kept as it is, a `String` is copied into one
    /// shared allocation, an `Arc<str>` the caller already holds is taken
    /// as it is.
    pub fn alternative<F>(mut self, name: impl Into<AltName>, body: F) -> Self
    where
        F: Fn(&mut AddressSpace, &CancelToken) -> Option<R> + Send + Sync + 'static,
    {
        self.alternatives.push(BlockAlternative {
            name: name.into(),
            body: Arc::new(body),
        });
        self
    }

    /// The alternatives in declaration order.
    pub fn alternatives(&self) -> &[BlockAlternative<R>] {
        &self.alternatives
    }

    /// Number of alternatives.
    pub fn len(&self) -> usize {
        self.alternatives.len()
    }

    /// True iff the block has no alternatives (executing it fails).
    pub fn is_empty(&self) -> bool {
        self.alternatives.is_empty()
    }
}

impl<R> fmt::Debug for AltBlock<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list()
            .entries(self.alternatives.iter().map(|a| &a.name))
            .finish()
    }
}

/// The observable outcome of executing an [`AltBlock`].
#[derive(Debug)]
pub struct BlockResult<R> {
    /// The selected alternative's value; `None` means the block failed
    /// (the `FAIL` arm of Figure 1).
    pub value: Option<R>,
    /// Index of the winning alternative.
    pub winner: Option<usize>,
    /// Name of the winning alternative.
    pub winner_name: Option<String>,
    /// How long the winning body itself ran — the paper's τ(C_best) for
    /// this block, without the fork, the wake-up or the context switch
    /// that got a thread to it, which `wall` includes. Measured by
    /// [`ThreadedEngine`](crate::engine::ThreadedEngine); `None` when the
    /// block failed and from the sequential
    /// [`OrderedEngine`](crate::engine::OrderedEngine), whose `wall` is
    /// that time to within a fork.
    pub winner_body: Option<Duration>,
    /// Real wall-clock time the execution took.
    pub wall: Duration,
    /// How many alternative bodies were started.
    pub attempts: usize,
    /// How many alternative bodies panicked and were contained (each is
    /// also a failed attempt; a nonzero count with a successful block
    /// means a *sibling* crashed and the race survived it).
    pub panics: usize,
    /// How many alternatives never ran their body because the race was
    /// already decided when their turn came — a queued alternative under
    /// a plan's [width](crate::engine::LaunchPlan::with_width), a hedged
    /// alternative whose [`LaunchPlan`](crate::engine::LaunchPlan) offset
    /// had not elapsed, or a sibling the decision reached before any
    /// thread had claimed it. Suppression changes cost, never which value
    /// is selected. An alternative the plan
    /// [excludes](crate::engine::LaunchPlan::only) was never in the race
    /// and is not counted here, nor in `attempts`.
    pub suppressed: usize,
}

impl<R> BlockResult<R> {
    /// True iff some alternative succeeded.
    pub fn succeeded(&self) -> bool {
        self.value.is_some()
    }

    /// Unwraps the value.
    ///
    /// # Panics
    ///
    /// Panics if the block failed.
    pub fn into_value(self) -> R {
        self.value.expect("alternative block failed")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use altx_pager::PageSize;

    #[test]
    fn builder_collects_alternatives() {
        let block: AltBlock<u8> = AltBlock::new()
            .alternative("a", |_w, _t| Some(1))
            .alternative("b", |_w, _t| None);
        assert_eq!(block.len(), 2);
        assert!(!block.is_empty());
        assert_eq!(block.alternatives()[0].name(), "a");
        assert_eq!(format!("{block:?}"), r#"["a", "b"]"#);
    }

    #[test]
    fn alternative_bodies_run_on_workspace() {
        let block: AltBlock<u8> = AltBlock::new().alternative("writer", |ws, _t| {
            ws.write(0, &[9]);
            Some(ws.read_vec(0, 1)[0])
        });
        let mut ws = AddressSpace::zeroed(16, PageSize::new(16));
        let token = CancelToken::new();
        let got = block.alternatives()[0].run(&mut ws, &token);
        assert_eq!(got, Some(9));
    }

    #[test]
    fn run_contained_converts_panic_to_failed_guard() {
        let block: AltBlock<u8> = AltBlock::new()
            .alternative("bomb", |_w, _t| panic!("kaboom"))
            .alternative("fine", |_w, _t| Some(1));
        let mut ws = AddressSpace::zeroed(16, PageSize::new(16));
        let token = CancelToken::new();
        let (value, panicked) = block.alternatives()[0].run_contained(&mut ws, &token);
        assert_eq!(value, None);
        assert!(panicked);
        let (value, panicked) = block.alternatives()[1].run_contained(&mut ws, &token);
        assert_eq!(value, Some(1));
        assert!(!panicked);
    }

    #[test]
    fn empty_block_reports_empty() {
        let block: AltBlock<()> = AltBlock::new();
        assert!(block.is_empty());
        assert_eq!(block.len(), 0);
    }

    #[test]
    fn block_result_accessors() {
        let ok = BlockResult {
            value: Some(5),
            winner: Some(0),
            winner_name: Some("x".into()),
            winner_body: None,
            wall: Duration::ZERO,
            attempts: 1,
            panics: 0,
            suppressed: 0,
        };
        assert!(ok.succeeded());
        assert_eq!(ok.into_value(), 5);
        let failed: BlockResult<i32> = BlockResult {
            value: None,
            winner: None,
            winner_name: None,
            winner_body: None,
            wall: Duration::ZERO,
            attempts: 2,
            panics: 1,
            suppressed: 0,
        };
        assert!(!failed.succeeded());
    }

    #[test]
    #[should_panic(expected = "alternative block failed")]
    fn into_value_panics_on_failure() {
        let failed: BlockResult<i32> = BlockResult {
            value: None,
            winner: None,
            winner_name: None,
            winner_body: None,
            wall: Duration::ZERO,
            attempts: 0,
            panics: 0,
            suppressed: 0,
        };
        failed.into_value();
    }
}
