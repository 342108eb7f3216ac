//! Quickstart: the alternative block of Figure 1, executed three ways.
//!
//! ```text
//! ALTBEGIN
//!     ENSURE guard1 WITH method1 OR
//!     ENSURE guard2 WITH method2 OR
//!     ENSURE guard3 WITH method3 OR
//!     FAIL
//! END
//! ```
//!
//! Three methods compute the sum 1 + 2 + … + n. One is wrong (its guard
//! rejects it), two are right with very different costs. Each way of
//! running the block — the recovery-block order, Scheme B's random pick,
//! Scheme C's race — selects at most one alternative; the observable
//! semantics are identical, only the execution time differs.
//!
//! Run with: `cargo run --release --example quickstart`

use altx::engine::{LaunchPlan, OrderedEngine, ThreadedEngine};
use altx::{AddressSpace, AltBlock, CancelToken, Engine, PageSize};
use altx_des::SimRng;

const N: u64 = 1_000_000;

fn build_block() -> AltBlock<u64> {
    AltBlock::new()
        // Method 1: a deliberate off-by-one. Its guard (the trailing
        // check) rejects the result, so this alternative always fails.
        .alternative("buggy-loop", |_ws, _cancel| {
            let sum: u64 = (1..N).sum(); // forgot the last term
            (sum == N * (N + 1) / 2).then_some(sum)
        })
        // Method 2: correct but does the work element by element,
        // polling for cancellation as it goes.
        .alternative("summing-loop", |_ws, cancel| {
            let mut sum = 0u64;
            for chunk in (1..=N).collect::<Vec<_>>().chunks(10_000) {
                cancel.checkpoint()?;
                sum += chunk.iter().sum::<u64>();
            }
            Some(sum)
        })
        // Method 3: Gauss's closed form — almost always first.
        .alternative("closed-form", |_ws, _cancel| Some(N * (N + 1) / 2))
}

fn main() {
    let expected = N * (N + 1) / 2;
    println!("computing 1 + 2 + … + {N} (expect {expected})\n");

    // Ordered (recovery-block style): first listed success.
    let mut ws = AddressSpace::zeroed(4096, PageSize::K4);
    let r = OrderedEngine::new().execute(&build_block(), &mut ws);
    println!(
        "ordered   : {:>9?}  winner = {:<14} ({} attempts, {:?})",
        r.value,
        r.winner_name.as_deref().unwrap_or("-"),
        r.attempts,
        r.wall
    );
    assert_eq!(r.value, Some(expected));
    assert_eq!(r.winner_name.as_deref(), Some("summing-loop"));

    // Scheme B: arbitrary single selection — a plan that runs one
    // randomly picked alternative alone (it may pick the buggy one and
    // fail; seed 42 picks each method once).
    let mut rng = SimRng::seed_from_u64(42);
    let mut picks = Vec::new();
    for trial in 0..3 {
        let pick = rng.index(3);
        picks.push(pick);
        let mut ws = AddressSpace::zeroed(4096, PageSize::K4);
        let plan = LaunchPlan::only(3, pick);
        let r = ThreadedEngine::new().execute_planned(
            &build_block(),
            &mut ws,
            &CancelToken::new(),
            &plan,
        );
        println!(
            "random #{trial} : {:>9?}  winner = {:<14} ({:?})",
            r.value,
            r.winner_name.as_deref().unwrap_or("FAIL"),
            r.wall
        );
        // Committed to its pick: the buggy loop fails, never replaced.
        assert_eq!(r.attempts, 1);
        assert_eq!(r.winner, (pick != 0).then_some(pick));
        assert_eq!(r.value, (pick != 0).then_some(expected));
    }
    assert_eq!(picks, [0, 1, 2], "seed 42's picks");

    // Scheme C: race them all, fastest first.
    let mut ws = AddressSpace::zeroed(4096, PageSize::K4);
    let r = ThreadedEngine::new().execute(&build_block(), &mut ws);
    println!(
        "threaded  : {:>9?}  winner = {:<14} ({} started, {:?})",
        r.value,
        r.winner_name.as_deref().unwrap_or("-"),
        r.attempts,
        r.wall
    );

    assert_eq!(r.value, Some(expected));
    assert_ne!(r.winner_name.as_deref(), Some("buggy-loop"));
    println!("\nall engines agree on the observable result: {expected}");
}
