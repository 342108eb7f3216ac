//! Golden step counts: where a limit cuts a search, and what each branch
//! of a top choice point costs.
//!
//! Steps are the work metric experiment E8 and the daemon's `prolog`
//! workload report, so they must not drift when the solver's internals
//! change. Each expected value below was recorded from a solver that kept
//! one choice point per resolved goal until backtracking exhausted it and
//! renamed clauses by copying them; the cases are chosen so that the
//! step cap lands inside a backtrack over clauses whose heads cannot
//! match, and the depth cap counts frames no choice point is kept for.

use altx_prolog::{parse_query, profile_branches, KnowledgeBase, Solver};

const COUNTDOWN: &str = "
    countdown(0).
    countdown(N) :- N > 0, M is N - 1, countdown(M).
";

/// The `prolog` workload's dead-end clause order.
const DEAD_END_FIRST: &str = "q(D) :- countdown(D), fail. q(_).";

/// Experiment E8's program.
const E8: &str = "
    query(D, slow)   :- countdown(D), impossible.
    query(D, slower) :- countdown(D), countdown(D), impossible.
    query(_, direct).
    impossible :- fail.
";

const COLORS: &str = "color(red). color(green). color(blue).";

const KEYED: &str = "
    k(a, 1). k(b, 2). k(c, 3). k(a, 4). k(d, 5). k(a, 6).
    nat(0).
    nat(N) :- nat(M), N is M + 1.
";

const LISTS: &str = "
    delete_all(_, [], []).
    delete_all(X, [X | T], R) :- !, delete_all(X, T, R).
    delete_all(X, [H | T], [H | R]) :- delete_all(X, T, R).
";

const QUEENS: &str = "
    select(X, [X | T], T).
    select(X, [H | T], [H | R]) :- select(X, T, R).
    range(N, N, [N]).
    range(L, N, [L | R]) :- L < N, M is L + 1, range(M, N, R).
    abs_diff(A, B, D) :- A >= B, D is A - B.
    abs_diff(A, B, D) :- A < B, D is B - A.
    safe(_, [], _).
    safe(Q, [H | T], D) :- abs_diff(Q, H, Diff), Diff =\\= D, E is D + 1, safe(Q, T, E).
    place([], []).
    place(Unplaced, [Q | Rest]) :-
        select(Q, Unplaced, Remaining), place(Remaining, Rest), safe(Q, Rest, 1).
    queens(N, Solution) :- range(1, N, Columns), place(Columns, Solution).
";

const ROUTES: &str = "
    rail(vienna, munich).    rail(munich, paris).    rail(paris, madrid).
    rail(madrid, lisbon).    rail(vienna, zurich).   rail(zurich, paris).
    flight(vienna, lisbon).  flight(munich, madrid).
    route(X, Y) :- rail(X, Y).
    route(X, Z) :- rail(X, Y), route(Y, Z).
    plan(X, Y, by_rail)   :- route(X, Y).
    plan(X, Y, via_hub)   :- route(X, paris), route(paris, Y), X \\= paris, Y \\= paris.
    plan(X, Y, by_flight) :- flight(X, Y).
";

/// One capped search and what it returned.
struct Capped {
    program: &'static [&'static str],
    query: &'static str,
    limit: usize,
    max_steps: Option<u64>,
    max_depth: Option<usize>,
    restrict: Option<usize>,
    /// `Y=4 | Y=6`: each solution's bindings, sorted by name.
    solutions: &'static str,
    steps: u64,
    truncated: bool,
}

impl Capped {
    fn run(&self) -> (String, u64, bool) {
        let kb = KnowledgeBase::parse(&self.program.concat()).expect("valid program");
        let mut solver = Solver::new(&kb);
        if let Some(steps) = self.max_steps {
            solver.max_steps = steps;
        }
        if let Some(depth) = self.max_depth {
            solver.max_depth = depth;
        }
        let query = parse_query(self.query).expect("valid query");
        let rendered: Vec<String> = solver
            .solve_restricted(&query, self.limit, self.restrict)
            .iter()
            .map(|s| {
                s.iter()
                    .map(|(name, term)| format!("{name}={term}"))
                    .collect::<Vec<_>>()
                    .join(",")
            })
            .collect();
        (rendered.join(" | "), solver.steps(), solver.truncated())
    }
}

const fn capped(program: &'static [&'static str], query: &'static str) -> Capped {
    Capped {
        program,
        query,
        limit: 1,
        max_steps: None,
        max_depth: None,
        restrict: None,
        solutions: "",
        steps: 0,
        truncated: true,
    }
}

const CASES: &[Capped] = &[
    // Depth caps. The dead end's countdown keeps no choice point per
    // level, yet each level is a frame.
    Capped {
        max_depth: Some(300),
        steps: 1495,
        ..capped(&[COUNTDOWN, DEAD_END_FIRST], "q(499)")
    },
    Capped {
        max_depth: Some(1500),
        restrict: Some(1),
        steps: 7492,
        ..capped(&[COUNTDOWN, E8], "query(1000, R)")
    },
    Capped {
        max_depth: Some(1001),
        steps: 5000,
        ..capped(&[COUNTDOWN, E8], "query(1000, R)")
    },
    Capped {
        max_depth: Some(1002),
        steps: 5004,
        ..capped(&[COUNTDOWN, E8], "query(1000, R)")
    },
    Capped {
        max_depth: Some(1003),
        steps: 5006,
        ..capped(&[COUNTDOWN, E8], "query(1000, R)")
    },
    Capped {
        limit: 3,
        max_depth: Some(2003),
        steps: 15014,
        ..capped(&[COUNTDOWN, E8], "query(1000, R)")
    },
    Capped {
        limit: 3,
        max_depth: Some(2004),
        steps: 15016,
        ..capped(&[COUNTDOWN, E8], "query(1000, R)")
    },
    Capped {
        max_depth: Some(4),
        steps: 17,
        ..capped(&[KEYED], "nat(X), X > 5")
    },
    // A cut pops frames: the depth it leaves is where the cap bites.
    Capped {
        limit: 5,
        max_depth: Some(3),
        steps: 19,
        ..capped(&[LISTS], "delete_all(1, [1, 2, 1, 3, 1], R)")
    },
    Capped {
        limit: 10,
        max_depth: Some(9),
        steps: 32,
        ..capped(&[QUEENS], "queens(5, S)")
    },
    // Step caps.
    Capped {
        max_steps: Some(1000),
        steps: 1000,
        ..capped(&[COUNTDOWN, DEAD_END_FIRST], "q(499)")
    },
    Capped {
        limit: 3,
        max_steps: Some(7000),
        steps: 7000,
        ..capped(&[COUNTDOWN, E8], "query(1000, R)")
    },
    Capped {
        limit: 10,
        max_steps: Some(200),
        steps: 201,
        ..capped(&[QUEENS], "queens(4, S)")
    },
    // `green` and `blue` cannot match `red`: backtracking still counts
    // each as a step, and a cap can land between them.
    Capped {
        max_steps: Some(3),
        steps: 4,
        ..capped(&[COLORS], "color(red), fail")
    },
    Capped {
        max_steps: Some(4),
        steps: 4,
        ..capped(&[COLORS], "color(red), fail")
    },
    Capped {
        max_steps: Some(5),
        steps: 5,
        ..capped(&[COLORS], "color(red), fail")
    },
    Capped {
        max_steps: Some(6),
        steps: 5,
        truncated: false,
        ..capped(&[COLORS], "color(red), fail")
    },
    Capped {
        limit: 5,
        max_steps: Some(9),
        solutions: "Y=4",
        steps: 9,
        ..capped(&[KEYED], "k(a, Y), Y > 3")
    },
    Capped {
        limit: 5,
        max_steps: Some(12),
        solutions: "Y=4 | Y=6",
        steps: 10,
        truncated: false,
        ..capped(&[KEYED], "k(a, Y), Y > 3")
    },
    // A restricted first goal: the pinned clause, and only it.
    Capped {
        limit: 5,
        restrict: Some(3),
        solutions: "Y=4",
        steps: 2,
        truncated: false,
        ..capped(&[KEYED], "k(a, Y)")
    },
    Capped {
        limit: 5,
        restrict: Some(1),
        steps: 2,
        truncated: false,
        ..capped(&[KEYED], "k(a, Y)")
    },
    Capped {
        limit: 5,
        restrict: Some(1),
        solutions: "P=via_hub | P=via_hub",
        steps: 261,
        truncated: false,
        ..capped(&[ROUTES], "plan(vienna, lisbon, P)")
    },
];

#[test]
fn a_capped_search_stops_where_it_always_did() {
    for case in CASES {
        let (solutions, steps, truncated) = case.run();
        assert_eq!(
            (solutions.as_str(), steps, truncated),
            (case.solutions, case.steps, case.truncated),
            "{} (limit {}, max_steps {:?}, max_depth {:?}, restrict {:?})",
            case.query,
            case.limit,
            case.max_steps,
            case.max_depth,
            case.restrict,
        );
    }
}

/// E8's branch profiles: each restricted branch still starts with its own
/// clause, and costs what the committed E8 table prints.
#[test]
fn e8_branches_keep_their_clause_and_their_steps() {
    let kb = KnowledgeBase::parse(&[COUNTDOWN, E8].concat()).expect("valid program");
    for (depth, steps) in [(100, [509, 1013, 2]), (1000, [5009, 10013, 2])] {
        let profiles = profile_branches(&kb, &format!("query({depth}, R)")).expect("valid query");
        let got: Vec<(usize, bool, u64)> = profiles
            .iter()
            .map(|p| (p.clause_index, p.succeeded, p.steps))
            .collect();
        assert_eq!(
            got,
            [
                (0, false, steps[0]),
                (1, false, steps[1]),
                (2, true, steps[2])
            ],
            "depth {depth}"
        );
    }
    let kb = KnowledgeBase::parse(ROUTES).expect("valid program");
    let query = parse_query("plan(vienna, lisbon, P)").expect("valid query");
    for (k, answer) in ["by_rail", "via_hub", "by_flight"].into_iter().enumerate() {
        let first = Solver::new(&kb).solve_restricted(&query, 1, Some(k));
        assert_eq!(
            first[0].binding_str("P").as_deref(),
            Some(answer),
            "branch {k}"
        );
    }
}
