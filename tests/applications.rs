//! Integration tests of the two application layers (recovery blocks,
//! OR-parallel Prolog) against the core engines — the semantic
//! equivalence claims of §4.3: every execution strategy must be
//! observationally a nondeterministic sequential selection.

use altx::engine::{LaunchPlan, OrderedEngine, ThreadedEngine};
use altx::{AddressSpace, AltBlock, CancelToken, Engine, PageSize};
use altx_des::SimRng;
use altx_prolog::{profile_branches, solve_first_parallel, KnowledgeBase, Solver};
use altx_recovery::RecoveryBlock;

fn ws() -> AddressSpace {
    AddressSpace::zeroed(1024, PageSize::new(64))
}

/// The set of alternatives, with exactly which indices can succeed.
fn mixed_block() -> AltBlock<usize> {
    AltBlock::new()
        .alternative("fail-a", |_w, _t| None)
        .alternative("ok-b", |_w, _t| Some(1))
        .alternative("fail-c", |_w, _t| None)
        .alternative("ok-d", |_w, _t| Some(3))
}

#[test]
fn every_engine_returns_an_admissible_outcome() {
    // Admissible: value is Some(i) where i ∈ {1, 3} and winner == i, or
    // (for a random pick only) failure when it picked a failing branch.
    let admissible = |winner: Option<usize>, value: Option<usize>| match (winner, value) {
        (Some(w), Some(v)) => w == v && (v == 1 || v == 3),
        (None, None) => true,
        _ => false,
    };

    let r = OrderedEngine::new().execute(&mixed_block(), &mut ws());
    assert!(admissible(r.winner, r.value));
    assert_eq!(r.winner, Some(1), "ordered picks the first success");

    let r = ThreadedEngine::new().execute(&mixed_block(), &mut ws());
    assert!(admissible(r.winner, r.value));
    assert!(r.succeeded(), "threaded always finds an existing success");

    // Scheme B: one alternative drawn at random, run alone.
    let mut rng = SimRng::seed_from_u64(7);
    let mut successes = 0;
    let mut failures = 0;
    for _ in 0..200 {
        let plan = LaunchPlan::only(4, rng.index(4));
        let r = ThreadedEngine::new().execute_planned(
            &mixed_block(),
            &mut ws(),
            &CancelToken::new(),
            &plan,
        );
        assert!(admissible(r.winner, r.value));
        if r.succeeded() {
            successes += 1;
        } else {
            failures += 1;
        }
    }
    // Scheme B commits to its arbitrary pick: with 2/4 failing branches it
    // must fail sometimes and succeed sometimes.
    assert!(successes > 0 && failures > 0, "{successes} / {failures}");
}

#[test]
fn workspace_mutations_identical_across_engines_when_winner_is_forced() {
    // Only one alternative can succeed, so every engine must leave the
    // identical workspace state.
    let make = || -> AltBlock<u8> {
        AltBlock::new()
            .alternative("writes-then-fails", |w, _t| {
                w.write(0, &[0xAA]);
                None
            })
            .alternative("the-winner", |w, _t| {
                w.write(0, &[0x55]);
                w.write(64, &[0x66]);
                Some(1)
            })
    };
    let mut w1 = ws();
    OrderedEngine::new().execute(&make(), &mut w1);
    let mut w2 = ws();
    ThreadedEngine::new().execute(&make(), &mut w2);
    assert_eq!(w1.flatten(), w2.flatten());
    assert_eq!(w1.read_vec(0, 1), vec![0x55]);
}

#[test]
fn recovery_block_engines_agree_on_forced_winner() {
    let make = || -> RecoveryBlock<String> {
        RecoveryBlock::new(|r: &String, _ws| r == "correct")
            .alternate("wrong", |_w, _t| Some("wrong!".to_string()))
            .alternate("crash", |_w, _t| None)
            .alternate("right", |_w, _t| Some("correct".to_string()))
    };
    let seq = make().run_sequential(&mut ws());
    let conc = make().run_concurrent(&mut ws());
    assert_eq!(seq.winner, Some(2));
    assert_eq!(conc.winner, Some(2));
    assert_eq!(seq.value, conc.value);
}

const GRAPH: &str = "
    edge(a, b). edge(b, c). edge(c, d). edge(d, e).
    edge(a, x). edge(x, y). edge(y, e).
    path(X, X).
    path(X, Z) :- edge(X, Y), path(Y, Z).
    % two strategies for connected/2 — the OR choice point:
    connected(X, Y) :- path(X, Y).
    connected(X, Y) :- path(Y, X).
";

#[test]
fn or_parallel_prolog_matches_sequential_satisfiability() {
    let kb = KnowledgeBase::parse(GRAPH).unwrap();
    for (query, satisfiable) in [
        ("connected(a, e)", true),
        ("connected(e, a)", true), // second clause direction
        ("connected(b, x)", false),
        ("path(a, d)", true),
        ("path(d, a)", false),
    ] {
        let mut solver = Solver::new(&kb);
        let seq = !solver.solve_str(query, 1).unwrap().is_empty();
        let par = solve_first_parallel(&kb, query).unwrap().solution.is_some();
        assert_eq!(seq, satisfiable, "sequential {query}");
        assert_eq!(par, satisfiable, "parallel {query}");
    }
}

#[test]
fn or_parallel_solution_is_always_verifiable_sequentially() {
    // Whatever binding the racing solver returns must also be derivable
    // sequentially — the transparency requirement.
    let kb = KnowledgeBase::parse(GRAPH).unwrap();
    let report = solve_first_parallel(&kb, "connected(a, Where)").unwrap();
    let sol = report.solution.expect("satisfiable");
    let where_ = sol.binding_str("Where").expect("bound");
    let mut solver = Solver::new(&kb);
    let check = format!("connected(a, {where_})");
    assert!(
        !solver.solve_str(&check, 1).unwrap().is_empty(),
        "parallel answer {where_} must hold sequentially"
    );
}

#[test]
fn branch_profiles_cover_all_clauses_and_sum_to_sequential_work() {
    let kb = KnowledgeBase::parse(GRAPH).unwrap();
    let profiles = profile_branches(&kb, "connected(b, x)").unwrap();
    assert_eq!(profiles.len(), 2, "one per connected/2 clause");
    assert!(
        profiles.iter().all(|p| !p.succeeded),
        "query is unsatisfiable"
    );

    // For a failing query, sequential DFS explores every branch fully,
    // so its step count matches the profile total (+ the top goal).
    let mut solver = Solver::new(&kb);
    assert!(solver.solve_str("connected(b, x)", 1).unwrap().is_empty());
    let total: u64 = profiles.iter().map(|p| p.steps).sum();
    let seq = solver.steps();
    assert!(
        seq.abs_diff(total) <= profiles.len() as u64 + 2,
        "sequential {seq} vs profile total {total}"
    );
}

#[test]
fn threaded_engines_tolerate_many_concurrent_blocks() {
    // Run several racing blocks back-to-back to shake out any shared
    // state between executions.
    let engine = ThreadedEngine::new();
    for round in 0..20usize {
        let block: AltBlock<usize> = AltBlock::new()
            .alternative("a", move |_w, _t| (round % 3 == 0).then_some(round))
            .alternative("b", move |_w, _t| (round % 3 == 1).then_some(round))
            .alternative("c", move |_w, _t| (round % 3 == 2).then_some(round));
        let r = engine.execute(&block, &mut ws());
        assert_eq!(r.value, Some(round));
        assert_eq!(r.winner, Some(round % 3));
    }
}
