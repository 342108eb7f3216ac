//! Property-based engine-equivalence tests (§4.3's semantics-preservation
//! claim).
//!
//! "To an observer, the concurrent execution of the Cᵢ must look like
//! Scheme B … that we have followed a single thread of computation,
//! chosen arbitrarily." These properties generate random blocks and
//! check that the ordered engine, and the racing engine under every kind
//! of launch plan (every §4.2 scheme), return an *admissible* outcome — a
//! (winner, value, workspace) triple that some sequential execution could
//! have produced — and nothing else.

use altx::engine::{Engine, LaunchPlan, OrderedEngine, ThreadedEngine};
use altx::{AddressSpace, AltBlock, CancelToken, PageSize};
use altx_check::{check, CaseRng};
use std::time::Duration;

/// A generated alternative: may fail; on success writes `stamp` at
/// `addr` and returns its index.
#[derive(Debug, Clone, Copy)]
struct GenAlt {
    succeeds: bool,
    addr: usize,
    stamp: u8,
}

fn arb_alt(rng: &mut CaseRng) -> GenAlt {
    GenAlt {
        succeeds: rng.bool(),
        addr: rng.usize_in(0, 200),
        stamp: rng.u64_in(1, 255) as u8,
    }
}

fn build_block(alts: &[GenAlt]) -> AltBlock<usize> {
    let mut block = AltBlock::new();
    for (
        i,
        &GenAlt {
            succeeds,
            addr,
            stamp,
        },
    ) in alts.iter().enumerate()
    {
        block = block.alternative(format!("alt{i}"), move |ws, _t| {
            // Every alternative writes (side effect) *before* its guard
            // decides — the containment must hide failing writes.
            ws.write(addr, &[stamp]);
            succeeds.then_some(i)
        });
    }
    block
}

fn ws() -> AddressSpace {
    AddressSpace::zeroed(256, PageSize::new(32))
}

/// Checks a result against the generated spec: winner index consistent
/// with value, winner's guard passes, and the workspace equals a
/// sequential run of exactly the winner (or the untouched workspace on
/// failure).
fn assert_admissible(alts: &[GenAlt], result: &altx::BlockResult<usize>, workspace: &AddressSpace) {
    match (result.winner, &result.value) {
        (Some(w), Some(v)) => {
            assert_eq!(w, *v, "winner and value must agree");
            assert!(alts[w].succeeds, "winner's guard must hold");
            let mut oracle = ws();
            oracle.write(alts[w].addr, &[alts[w].stamp]);
            assert_eq!(
                workspace.flatten(),
                oracle.flatten(),
                "workspace must equal a sequential run of the winner alone"
            );
        }
        (None, None) => {
            assert_eq!(
                workspace.flatten(),
                ws().flatten(),
                "failed block must leave no trace"
            );
        }
        other => panic!("inconsistent result {other:?}"),
    }
}

/// OrderedEngine: picks the first succeeding alternative, always.
#[test]
fn ordered_is_first_success() {
    check("ordered_is_first_success", 64, |rng| {
        let alts = rng.vec(1, 6, arb_alt);
        let mut workspace = ws();
        let result = OrderedEngine::new().execute(&build_block(&alts), &mut workspace);
        assert_admissible(&alts, &result, &workspace);
        let expected = alts.iter().position(|a| a.succeeds);
        assert_eq!(result.winner, expected);
    });
}

/// ThreadedEngine: succeeds iff some alternative can, and the outcome
/// is admissible whatever thread timing occurred.
#[test]
fn threaded_is_admissible() {
    check("threaded_is_admissible", 64, |rng| {
        let alts = rng.vec(1, 6, arb_alt);
        let mut workspace = ws();
        let result = ThreadedEngine::new().execute(&build_block(&alts), &mut workspace);
        assert_admissible(&alts, &result, &workspace);
        assert_eq!(result.succeeded(), alts.iter().any(|a| a.succeeds));
    });
}

/// ThreadedEngine under a favourite-first plan: whichever alternative
/// leads, the outcome is admissible and the block succeeds iff some
/// alternative can — a lead that fails its guard costs the race no
/// alternative. A lead whose guard holds *is* the outcome, and no
/// sibling was ever started.
#[test]
fn favourite_first_is_admissible_for_any_lead() {
    check("favourite_first_is_admissible_for_any_lead", 64, |rng| {
        let alts = rng.vec(1, 6, arb_alt);
        let lead = rng.usize_in(0, alts.len());
        let plan = LaunchPlan::favourite_first(alts.len(), lead);
        let mut workspace = ws();
        let result = ThreadedEngine::new().execute_planned(
            &build_block(&alts),
            &mut workspace,
            &CancelToken::new(),
            &plan,
        );
        assert_admissible(&alts, &result, &workspace);
        assert_eq!(result.succeeded(), alts.iter().any(|a| a.succeeds));
        if alts[lead].succeeds {
            assert_eq!(result.winner, Some(lead), "the lead decided alone");
            assert_eq!(result.suppressed, alts.len() - 1);
        }
    });
}

/// ThreadedEngine under an `only` plan — Scheme B's random pick and
/// §4.2 case 2's selector alike: admissible, run alone, and the block
/// fails exactly when the pick fails — no sibling ever substitutes.
#[test]
fn only_is_admissible_for_any_pick() {
    check("only_is_admissible_for_any_pick", 64, |rng| {
        let alts = rng.vec(1, 6, arb_alt);
        let pick = rng.usize_in(0, alts.len());
        let mut workspace = ws();
        let result = ThreadedEngine::new().execute_planned(
            &build_block(&alts),
            &mut workspace,
            &CancelToken::new(),
            &LaunchPlan::only(alts.len(), pick),
        );
        assert_admissible(&alts, &result, &workspace);
        assert_eq!(result.succeeded(), alts[pick].succeeds);
        assert_eq!(result.attempts, 1, "the pick ran alone");
        assert_eq!(result.suppressed, 0, "its siblings were never in the race");
        if let Some(winner) = result.winner {
            assert_eq!(winner, pick, "no sibling substitutes");
        }
    });
}

/// ThreadedEngine under any plan kind — launch-all, favourite first,
/// hedged, `only`, or some alternatives excluded — at any width in
/// `1..=n`: admissible, succeeds iff some alternative the plan lets run
/// can, and every alternative is accounted for exactly once: started,
/// suppressed, or excluded.
#[test]
fn any_plan_at_any_width_is_admissible() {
    check("any_plan_at_any_width_is_admissible", 64, |rng| {
        let alts = rng.vec(1, 6, arb_alt);
        let n = alts.len();
        let plan = match rng.usize_in(0, 5) {
            0 => LaunchPlan::immediate(n),
            1 => LaunchPlan::favourite_first(n, rng.usize_in(0, n)),
            2 => LaunchPlan::from_offsets(
                (0..n)
                    .map(|_| Duration::from_micros(rng.u64_below(2) * 500))
                    .collect(),
            ),
            3 => LaunchPlan::only(n, rng.usize_in(0, n)),
            _ => LaunchPlan::favourite_first(n, rng.usize_in(0, n))
                .excluding(&(0..n).map(|_| rng.bool()).collect::<Vec<_>>()),
        };
        let plan = plan.with_width(rng.usize_in(1, n + 1));
        let mut workspace = ws();
        let result = ThreadedEngine::new().execute_planned(
            &build_block(&alts),
            &mut workspace,
            &CancelToken::new(),
            &plan,
        );
        assert_admissible(&alts, &result, &workspace);
        let runnable = |i: usize| !plan.is_excluded(i);
        assert_eq!(
            result.succeeded(),
            (0..n).any(|i| runnable(i) && alts[i].succeeds),
            "{plan:?}"
        );
        if let Some(winner) = result.winner {
            assert!(runnable(winner), "an excluded alternative won: {plan:?}");
        }
        let excluded = (0..n).filter(|&i| !runnable(i)).count();
        assert_eq!(
            result.attempts + result.suppressed + excluded,
            n,
            "{plan:?}"
        );
    });
}

/// Engines agree bit-for-bit when only one alternative can win.
#[test]
fn engines_agree_on_forced_winner() {
    check("engines_agree_on_forced_winner", 64, |rng| {
        let mut alts = rng.vec(1, 6, arb_alt);
        let winner_slot = rng.usize_in(0, 6);
        let w = winner_slot % alts.len();
        for (i, a) in alts.iter_mut().enumerate() {
            a.succeeds = i == w;
        }
        let mut ws_ordered = ws();
        let r_ordered = OrderedEngine::new().execute(&build_block(&alts), &mut ws_ordered);
        let mut ws_threaded = ws();
        let r_threaded = ThreadedEngine::new().execute(&build_block(&alts), &mut ws_threaded);
        assert_eq!(r_ordered.winner, Some(w));
        assert_eq!(r_threaded.winner, Some(w));
        assert_eq!(ws_ordered.flatten(), ws_threaded.flatten());
    });
}
