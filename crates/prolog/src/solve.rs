//! Sequential SLD resolution.
//!
//! Depth-first, leftmost-goal, clause-order search — the standard Prolog
//! strategy and the sequential baseline the OR-parallel transformation is
//! measured against. The solver counts *steps* (clause resolution
//! attempts + built-in calls), which is the work metric the cost model
//! feeds to the performance analysis.
//!
//! # What a step allocates
//!
//! A clause is renamed without being copied: resolving with it takes
//! `nvars` fresh slots in [`Bindings`] and reads its variable `v` as slot
//! `v + base`. Unification and arithmetic read walked terms where they
//! are; the one term copied is a term bound into a slot. A clause with a
//! body adds one shared node to the goal list (the body, its renaming and
//! its cut barrier); a fact adds none. A clause whose head fails to unify
//! gives its fresh slots back at once.
//!
//! # What a choice point holds
//!
//! A goal keeps a choice point only while clauses remain to try after
//! the one it resolved with. The choice point holds the goal's place in
//! the goal list, its clause list (borrowed from the knowledge base
//! unless the solver has dynamic clauses) and the next clause to try, the
//! trail mark and the slot count. Backtracking undoes the trail to the
//! mark and truncates the slots to the count.
//!
//! # How `max_depth` counts
//!
//! [`Solver::max_depth`] bounds *frames*: one per resolved user goal not
//! yet backtracked over or cut away, whether or not the goal kept a
//! choice point. A choice point records its frame's height and the search
//! counts the frames above the last one, so a deterministic frame is
//! counted without being stored. Solutions, steps and the point where
//! `max_steps` or `max_depth` cuts a search are those of a stack that
//! kept one choice point per resolved goal until backtracking exhausted
//! it; only the names of unbound variables in a solution (`_G…`) may
//! differ, since slots are reused.

use crate::builtins::call_builtin_at;
use crate::parser::{parse_program, parse_query, ParseError, RawClause, RawQuery};
use crate::term::Term;
use crate::unify::{Bindings, TrailMark};
use altx::CancelToken;
use std::borrow::Cow;
use std::collections::HashMap;
use std::rc::Rc;

/// A stored clause.
#[derive(Debug, Clone, PartialEq)]
pub struct Clause {
    /// The head.
    pub head: Term,
    /// Body goals (empty for facts).
    pub body: Vec<Term>,
    /// Variables used by the clause.
    pub nvars: usize,
}

/// A program: clauses indexed by functor/arity, in source order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KnowledgeBase {
    clauses: Vec<Clause>,
    /// Name → the clause indices of each arity defined under it, so a
    /// lookup by `&str` builds no key.
    index: HashMap<String, Vec<(usize, Vec<usize>)>>,
}

impl KnowledgeBase {
    /// Creates an empty knowledge base.
    pub fn new() -> Self {
        KnowledgeBase::default()
    }

    /// Parses a program text.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`] on malformed input.
    pub fn parse(src: &str) -> Result<Self, ParseError> {
        let mut kb = KnowledgeBase::new();
        for raw in parse_program(src)? {
            kb.add(raw);
        }
        Ok(kb)
    }

    /// Adds a clause (appended after existing clauses of its predicate).
    pub fn add(&mut self, raw: RawClause) {
        let (name, arity) = raw
            .head
            .functor_arity()
            .expect("parser guarantees clause heads");
        let idx = self.clauses.len();
        let arities = self.index.entry(name.to_string()).or_default();
        match arities.iter_mut().find(|(a, _)| *a == arity) {
            Some((_, clauses)) => clauses.push(idx),
            None => arities.push((arity, vec![idx])),
        }
        self.clauses.push(Clause {
            head: raw.head,
            body: raw.body,
            nvars: raw.nvars,
        });
    }

    /// Clause indices matching `name/arity`, in source order.
    pub fn matching(&self, name: &str, arity: usize) -> &[usize] {
        self.index
            .get(name)
            .and_then(|arities| arities.iter().find(|(a, _)| *a == arity))
            .map_or(&[], |(_, clauses)| clauses)
    }

    /// The clause at `idx`.
    pub fn clause(&self, idx: usize) -> &Clause {
        &self.clauses[idx]
    }

    /// Total number of clauses.
    pub fn len(&self) -> usize {
        self.clauses.len()
    }

    /// True iff the program is empty.
    pub fn is_empty(&self) -> bool {
        self.clauses.is_empty()
    }
}

/// One solution: the query's named variables resolved to terms.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    bindings: HashMap<String, Term>,
}

impl Solution {
    /// The term bound to variable `name`.
    pub fn binding(&self, name: &str) -> Option<&Term> {
        self.bindings.get(name)
    }

    /// The bound term rendered as text.
    pub fn binding_str(&self, name: &str) -> Option<String> {
        self.bindings.get(name).map(Term::to_string)
    }

    /// Iterates `(name, term)` pairs sorted by name.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Term)> {
        let mut pairs: Vec<(&str, &Term)> =
            self.bindings.iter().map(|(k, v)| (k.as_str(), v)).collect();
        pairs.sort_by_key(|(k, _)| *k);
        pairs.into_iter()
    }
}

/// The SLD solver. Holds tunable limits and counters; reusable across
/// queries (counters reset per query).
#[derive(Debug, Clone)]
pub struct Solver<'kb> {
    kb: &'kb KnowledgeBase,
    /// Hard cap on resolution steps per query (guards infinite loops).
    pub max_steps: u64,
    /// Hard cap on recursion depth: frames on the search stack, one per
    /// resolved user goal (see the module docs).
    pub max_depth: usize,
    /// Cooperative cancellation (polled every few steps); used by the
    /// OR-parallel engine for sibling elimination.
    pub cancel: Option<CancelToken>,
    steps: u64,
    truncated: bool,
    /// Dynamic clauses added by `assertz`/`asserta` — private to this
    /// solver (§5.2's copy solution for shared-environment updates: each
    /// OR-parallel branch owns its own database delta). Tombstoned by
    /// `retract`; the bool marks asserta (try-first) clauses. Push-only
    /// so combined clause indices held by live choice points stay
    /// stable.
    local: Vec<Option<(Clause, bool)>>,
}

impl<'kb> Solver<'kb> {
    /// Creates a solver with generous default limits.
    pub fn new(kb: &'kb KnowledgeBase) -> Self {
        Solver {
            kb,
            max_steps: 10_000_000,
            max_depth: 100_000,
            cancel: None,
            steps: 0,
            truncated: false,
            local: Vec::new(),
        }
    }

    /// Number of live dynamic clauses in this solver's local database.
    pub fn dynamic_clause_count(&self) -> usize {
        self.local.iter().filter(|c| c.is_some()).count()
    }

    /// Clause indices matching `name/arity` in search order: asserta
    /// clauses (newest first), then KB clauses, then assertz clauses in
    /// assertion order. Indices are stable across later assertions. With
    /// no dynamic clauses this is the knowledge base's own list.
    fn matching_all(&self, name: &str, arity: usize) -> Cow<'kb, [usize]> {
        let kb: &'kb KnowledgeBase = self.kb;
        if self.local.is_empty() {
            return Cow::Borrowed(kb.matching(name, arity));
        }
        let base = kb.len();
        let mut front = Vec::new();
        let mut back = Vec::new();
        for (i, slot) in self.local.iter().enumerate() {
            if let Some((c, is_front)) = slot {
                if c.head.functor_arity() == Some((name, arity)) {
                    if *is_front {
                        front.push(base + i);
                    } else {
                        back.push(base + i);
                    }
                }
            }
        }
        front.reverse(); // newest asserta first
        let mut out = front;
        out.extend_from_slice(kb.matching(name, arity));
        out.extend(back);
        Cow::Owned(out)
    }

    /// The clause at a combined index (KB or local).
    fn clause_at(&self, idx: usize) -> &Clause {
        if idx < self.kb.len() {
            self.kb.clause(idx)
        } else {
            &self.local[idx - self.kb.len()]
                .as_ref()
                .expect("matching_all never yields tombstones")
                .0
        }
    }

    /// Converts a resolved fact term into a clause with freshly numbered
    /// variables. `None` for terms that cannot head a clause.
    fn term_to_fact(term: &Term) -> Option<Clause> {
        term.functor_arity()?;
        // Renumber whatever variables remain so the clause is
        // self-contained.
        let mut map = HashMap::new();
        fn renumber(t: &Term, map: &mut HashMap<usize, usize>) -> Term {
            match t {
                Term::Var(v) => {
                    let next = map.len();
                    Term::Var(crate::term::VarId(*map.entry(v.0).or_insert(next)))
                }
                Term::Atom(_) | Term::Int(_) => t.clone(),
                Term::Compound { functor, args } => Term::Compound {
                    functor: functor.clone(),
                    args: args.iter().map(|a| renumber(a, map)).collect(),
                },
            }
        }
        let head = renumber(term, &mut map);
        Some(Clause {
            head,
            body: Vec::new(),
            nvars: map.len(),
        })
    }

    /// Steps consumed by the last query.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// True iff the last query hit a limit or was cancelled before the
    /// search space was exhausted.
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// Parses and solves a query, returning up to `limit` solutions.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`] if the query is malformed.
    pub fn solve_str(&mut self, query: &str, limit: usize) -> Result<Vec<Solution>, ParseError> {
        let q = parse_query(query)?;
        Ok(self.solve(&q, limit))
    }

    /// Solves a parsed query, returning up to `limit` solutions.
    pub fn solve(&mut self, query: &RawQuery, limit: usize) -> Vec<Solution> {
        self.solve_restricted(query, limit, None)
    }

    /// Solves with the *first* resolution of the *first* user goal pinned
    /// to the `restrict`-th matching clause — the restriction the
    /// OR-parallel engine uses to give each alternate one branch of the
    /// top choice point.
    ///
    /// The search is fully iterative (explicit choice-point stack over a
    /// persistent goal list), so deep recursions in the *object* program
    /// cannot overflow the host stack.
    pub fn solve_restricted(
        &mut self,
        query: &RawQuery,
        limit: usize,
        restrict: Option<usize>,
    ) -> Vec<Solution> {
        self.steps = 0;
        self.truncated = false;
        if limit == 0 {
            return Vec::new();
        }
        let mut search = Search {
            bindings: Bindings::new(),
            cps: Vec::new(),
            depth: 0,
        };
        search.bindings.ensure(query.nvars);
        // A bare `!` at query level cuts everything (barrier 0).
        let mut goals = Cont::at(
            Rc::new(Body {
                goals: Goals::Written(&query.goals),
                offset: 0,
                barrier: 0,
                then: Cont::DONE,
            }),
            0,
        );
        let mut out = Vec::new();
        let mut restrict_pending = restrict;
        loop {
            // Limits and cancellation.
            if self.steps >= self.max_steps || search.depth >= self.max_depth {
                self.truncated = true;
                return out;
            }
            if self.steps.is_multiple_of(64) {
                if let Some(token) = &self.cancel {
                    if token.is_cancelled() {
                        self.truncated = true;
                        return out;
                    }
                }
            }

            let outcome = if goals.body.is_none() {
                // All goals satisfied: record a solution.
                out.push(Solution {
                    bindings: query
                        .var_names
                        .iter()
                        .map(|(name, &v)| (name.clone(), search.bindings.resolve(&Term::Var(v))))
                        .collect(),
                });
                if out.len() >= limit {
                    return out;
                }
                // Backtrack into the next one.
                Outcome::Fail
            } else {
                self.steps += 1;
                self.prove(&mut search, goals, &mut restrict_pending)
            };
            goals = match outcome {
                Outcome::Next(next) => next,
                Outcome::Fail => match self.backtrack(&mut search) {
                    Some(next) => next,
                    None => return out,
                },
                Outcome::Stop => return out,
            };
        }
    }

    /// Proves the first goal of `at`: a cut, a meta-predicate, a
    /// built-in, or a user goal resolved with its clauses as a new frame.
    fn prove<'a>(
        &mut self,
        search: &mut Search<'a>,
        at: Cont<'a>,
        restrict: &mut Option<usize>,
    ) -> Outcome<'a>
    where
        'kb: 'a,
    {
        let body = Rc::clone(at.body.as_ref().expect("a goal is left"));
        let (goal, offset) = (body.goal(at.next), body.offset);

        // Cut: commit to the bindings and clause choices made since the
        // frame this body was expanded from.
        if matches!(goal, Term::Atom(a) if &**a == "!") {
            search.cut(body.barrier);
            return Outcome::Next(at.after());
        }

        // Meta-predicates.
        if let Term::Compound { functor, args } = goal {
            match (&**functor, args.len()) {
                // Negation as failure: `\+ G` succeeds iff a sub-proof of
                // G (on a snapshot of the bindings) fails. No bindings
                // escape.
                ("\\+", 1) => {
                    let proved = self.prove_subgoal(&search.bindings, &args[0], offset);
                    if self.steps >= self.max_steps {
                        self.truncated = true;
                        return Outcome::Stop;
                    }
                    return if proved {
                        Outcome::Fail
                    } else {
                        Outcome::Next(at.after())
                    };
                }
                // call/1: the walked argument becomes the goal. A cut
                // inside the called goal is local to it: it cuts back to
                // the frames present when call/1 ran.
                ("call", 1) => {
                    return match search.bindings.resolve_at(&args[0], offset) {
                        // Uncallable: fail.
                        Term::Var(_) | Term::Int(_) => Outcome::Fail,
                        target => Outcome::Next(Cont::at(
                            Rc::new(Body {
                                goals: Goals::Called(target),
                                offset: 0,
                                barrier: search.depth,
                                then: at.after(),
                            }),
                            0,
                        )),
                    };
                }
                // assertz/asserta: add a fact to this solver's local
                // database (facts only — rule terms are not constructible
                // in argument position). Assertions are NOT undone on
                // backtracking, per standard Prolog. asserta semantics
                // (clause-first) only affect ordering among *dynamic*
                // clauses; KB clauses always precede.
                ("assertz", 1) | ("asserta", 1) => {
                    let resolved = search.bindings.resolve_at(&args[0], offset);
                    return match Solver::term_to_fact(&resolved) {
                        Some(clause) => {
                            self.local.push(Some((clause, &**functor == "asserta")));
                            Outcome::Next(at.after())
                        }
                        None => Outcome::Fail,
                    };
                }
                // retract/1: remove the first *dynamic* clause whose head
                // unifies (the shared KB is immutable; dynamic state lives
                // in the solver copy).
                ("retract", 1) => {
                    let bindings = &mut search.bindings;
                    let slots = bindings.len();
                    for slot in self.local.iter_mut() {
                        if let Some((c, _)) = slot {
                            let base = bindings.fresh(c.nvars);
                            if bindings.unify_at(&args[0], offset, &c.head, base) {
                                *slot = None;
                                return Outcome::Next(at.after());
                            }
                            bindings.truncate(slots);
                        }
                    }
                    return Outcome::Fail;
                }
                // findall/3: collect every solution of Goal's Template
                // into a list; deterministic from the outer search's
                // perspective, never binds Goal's variables.
                ("findall", 3) => {
                    let collected = self.findall(&search.bindings, &args[0], &args[1], offset);
                    if self.steps >= self.max_steps {
                        self.truncated = true;
                        return Outcome::Stop;
                    }
                    let list = Term::list(collected);
                    return if search.bindings.unify_at(&args[2], offset, &list, 0) {
                        Outcome::Next(at.after())
                    } else {
                        Outcome::Fail
                    };
                }
                _ => {}
            }
        }

        // Built-ins are deterministic: no frame, and a failed built-in
        // triggers backtracking.
        if let Some(proved) = call_builtin_at(&mut search.bindings, goal, offset) {
            return if proved {
                Outcome::Next(at.after())
            } else {
                Outcome::Fail
            };
        }

        // User goal: resolve it with the matching clauses as the next
        // frame. An integer or unbound variable goal matches none.
        let Some((name, arity)) = goal.functor_arity() else {
            return Outcome::Fail;
        };
        let clauses = self.matching_all(name, arity);
        let (next, end) = match restrict.take() {
            Some(k) => (k.min(clauses.len()), k.saturating_add(1).min(clauses.len())),
            None => (0, clauses.len()),
        };
        let height = search.depth;
        self.resolve(search, at, clauses, next, end, height)
    }

    /// Resolves the goal at `at` with `clauses[next..end]`, in order, as
    /// the frame at `height`, and keeps a choice point for the clauses
    /// left, if any.
    fn resolve<'a>(
        &mut self,
        search: &mut Search<'a>,
        at: Cont<'a>,
        clauses: Cow<'a, [usize]>,
        mut next: usize,
        end: usize,
        height: usize,
    ) -> Outcome<'a>
    where
        'kb: 'a,
    {
        let body = Rc::clone(at.body.as_ref().expect("a goal is left"));
        let (goal, offset) = (body.goal(at.next), body.offset);
        let bindings = &mut search.bindings;
        let (mark, slots) = (bindings.mark(), bindings.len());
        while next < end {
            let idx = clauses[next];
            next += 1;
            self.steps += 1;
            if self.steps >= self.max_steps {
                self.truncated = true;
                return Outcome::Stop;
            }
            let clause = self.clause_at(idx);
            let base = bindings.fresh(clause.nvars);
            if bindings.unify_at(goal, offset, &clause.head, base) {
                let then = at.after();
                if next < end {
                    search.cps.push(ChoicePoint {
                        height,
                        at,
                        clauses,
                        next,
                        end,
                        mark,
                        slots,
                    });
                }
                search.depth = height + 1;
                return Outcome::Next(self.expand(idx, base, height, then));
            }
            // Head mismatch: `unify` rolled its bindings back, and nothing
            // refers to the renamed clause's slots.
            bindings.truncate(slots);
        }
        Outcome::Fail
    }

    /// The goals after resolving with clause `idx` renamed by `base` as
    /// the frame at `barrier`: its body, if it has one, then `then`.
    fn expand<'a>(&self, idx: usize, base: usize, barrier: usize, then: Cont<'a>) -> Cont<'a>
    where
        'kb: 'a,
    {
        let kb: &'kb KnowledgeBase = self.kb;
        // Dynamic clauses are facts: only a knowledge-base clause has a
        // body.
        match kb.clauses.get(idx) {
            Some(clause) if !clause.body.is_empty() => Cont::at(
                Rc::new(Body {
                    goals: Goals::Written(&clause.body),
                    offset: base,
                    barrier,
                    then,
                }),
                0,
            ),
            _ => then,
        }
    }

    /// Resumes at the most recent choice point with clauses left to try.
    /// Returns the new goal list, or `None` when the search space is
    /// exhausted or the step budget ran out.
    fn backtrack<'a>(&mut self, search: &mut Search<'a>) -> Option<Cont<'a>>
    where
        'kb: 'a,
    {
        while let Some(cp) = search.cps.pop() {
            search.bindings.undo_to(cp.mark);
            search.bindings.truncate(cp.slots);
            match self.resolve(search, cp.at, cp.clauses, cp.next, cp.end, cp.height) {
                Outcome::Next(goals) => return Some(goals),
                Outcome::Fail => {}
                Outcome::Stop => return None,
            }
        }
        None
    }

    /// Convenience: the first solution and the steps it took.
    pub fn first_solution(&mut self, query: &RawQuery) -> Option<(Solution, u64)> {
        let sols = self.solve(query, 1);
        let steps = self.steps;
        sols.into_iter().next().map(|s| (s, steps))
    }
}

impl<'kb> Solver<'kb> {
    /// Proves `goal` (renamed by `offset`) once against a snapshot of
    /// `bindings`, charging the work to this solver's step budget. Used
    /// by negation-as-failure; no bindings escape the sub-proof.
    fn prove_subgoal(&mut self, bindings: &Bindings, goal: &Term, offset: usize) -> bool {
        let resolved = bindings.resolve_at(goal, offset);
        let nvars = resolved.max_var().map(|v| v + 1).unwrap_or(0);
        let sub_query = RawQuery {
            goals: vec![resolved],
            var_names: HashMap::new(),
            nvars,
        };
        let mut sub = Solver::new(self.kb);
        sub.max_steps = self.max_steps.saturating_sub(self.steps).max(1);
        sub.max_depth = self.max_depth;
        sub.cancel = self.cancel.clone();
        sub.local = self.local.clone(); // sub-proofs see dynamic clauses
        let found = !sub.solve(&sub_query, 1).is_empty();
        self.steps += sub.steps();
        if sub.truncated() {
            self.truncated = true;
        }
        found
    }

    /// Enumerates every solution of `goal` in a sub-proof, returning the
    /// resolved instances of `template` — findall/3's collection step.
    /// Both terms are renamed by `offset`.
    fn findall(
        &mut self,
        bindings: &Bindings,
        template: &Term,
        goal: &Term,
        offset: usize,
    ) -> Vec<Term> {
        let resolved_goal = bindings.resolve_at(goal, offset);
        let resolved_template = bindings.resolve_at(template, offset);
        // Rename so the sub-query's variable ids are self-contained:
        // both terms already share `bindings`' id space, which is fine —
        // the sub-solver just needs enough slots.
        let nvars = resolved_goal
            .max_var()
            .max(resolved_template.max_var())
            .map(|v| v + 1)
            .unwrap_or(0);
        let mut var_names = HashMap::new();
        // Expose the template through a synthetic variable name so the
        // generic solution extraction can resolve it per solution.
        var_names.insert("$findall".to_string(), crate::term::VarId(nvars));
        let wrapper = Term::compound(
            "=",
            vec![Term::Var(crate::term::VarId(nvars)), resolved_template],
        );
        let sub_query = RawQuery {
            goals: vec![wrapper, resolved_goal],
            var_names,
            nvars: nvars + 1,
        };
        let mut sub = Solver::new(self.kb);
        sub.max_steps = self.max_steps.saturating_sub(self.steps).max(1);
        sub.max_depth = self.max_depth;
        sub.cancel = self.cancel.clone();
        sub.local = self.local.clone(); // sub-proofs see dynamic clauses
        let solutions = sub.solve(&sub_query, usize::MAX);
        self.steps += sub.steps();
        if sub.truncated() {
            self.truncated = true;
        }
        solutions
            .into_iter()
            .map(|s| {
                s.binding("$findall")
                    .expect("wrapper binds template")
                    .clone()
            })
            .collect()
    }
}

/// What proving a goal, or retrying a choice point, came to.
enum Outcome<'a> {
    /// Proved: these goals are next.
    Next(Cont<'a>),
    /// Failed: backtrack.
    Fail,
    /// The step budget ran out (`truncated` is set).
    Stop,
}

/// The search state of one query.
struct Search<'a> {
    bindings: Bindings,
    /// Choice points, by increasing height.
    cps: Vec<ChoicePoint<'a>>,
    /// Frames on the stack: one per resolved user goal not yet
    /// backtracked over or cut away — what `max_depth` bounds.
    depth: usize,
}

impl Search<'_> {
    /// Discards the frames from `barrier` up, choice points included.
    fn cut(&mut self, barrier: usize) {
        while self.cps.last().is_some_and(|cp| cp.height >= barrier) {
            self.cps.pop();
        }
        self.depth = self.depth.min(barrier);
    }
}

/// The goals left to prove: goal `next` of `body` and the ones after it,
/// then `body.then`. Persistent (structurally shared): choice points
/// capture it by pointer, making backtracking O(1) in goal-list size.
#[derive(Clone)]
struct Cont<'a> {
    body: Option<Rc<Body<'a>>>,
    next: usize,
}

impl<'a> Cont<'a> {
    /// No goals left.
    const DONE: Cont<'a> = Cont {
        body: None,
        next: 0,
    };

    /// Goal `next` of `body` on; past its last goal, what follows it.
    fn at(body: Rc<Body<'a>>, next: usize) -> Self {
        if next < body.len() {
            Cont {
                body: Some(body),
                next,
            }
        } else {
            body.then.clone()
        }
    }

    /// The goals after the first.
    fn after(&self) -> Self {
        let body = self.body.as_ref().expect("a goal is left");
        Cont::at(Rc::clone(body), self.next + 1)
    }
}

/// A conjunction to prove under one renaming: a clause body, the query,
/// or a called term.
struct Body<'a> {
    goals: Goals<'a>,
    /// The renaming: variable `v` of these goals is slot `v + offset`.
    offset: usize,
    /// The frame height a `!` among these goals cuts back to.
    barrier: usize,
    then: Cont<'a>,
}

enum Goals<'a> {
    /// Goals as written in a clause body or the query.
    Written(&'a [Term]),
    /// The term call/1 was given, resolved.
    Called(Term),
}

impl Body<'_> {
    fn len(&self) -> usize {
        match &self.goals {
            Goals::Written(goals) => goals.len(),
            Goals::Called(_) => 1,
        }
    }

    fn goal(&self, i: usize) -> &Term {
        match &self.goals {
            Goals::Written(goals) => &goals[i],
            Goals::Called(goal) => goal,
        }
    }
}

/// A frame the search can return to: `clauses[next..end]` remain for the
/// goal at `at`.
struct ChoicePoint<'a> {
    /// Frames below this one when it was pushed.
    height: usize,
    at: Cont<'a>,
    clauses: Cow<'a, [usize]>,
    next: usize,
    end: usize,
    mark: TrailMark,
    slots: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    const FAMILY: &str = "
        parent(tom, bob). parent(tom, liz).
        parent(bob, ann). parent(bob, pat).
        parent(pat, jim).
        grandparent(X, Z) :- parent(X, Y), parent(Y, Z).
        ancestor(X, Y) :- parent(X, Y).
        ancestor(X, Z) :- parent(X, Y), ancestor(Y, Z).
    ";

    fn kb(src: &str) -> KnowledgeBase {
        KnowledgeBase::parse(src).expect("valid program")
    }

    #[test]
    fn facts_resolve() {
        let kb = kb(FAMILY);
        let mut s = Solver::new(&kb);
        let sols = s.solve_str("parent(tom, X)", 10).unwrap();
        let xs: Vec<String> = sols.iter().map(|s| s.binding_str("X").unwrap()).collect();
        assert_eq!(xs, ["bob", "liz"]);
    }

    #[test]
    fn rules_resolve() {
        let kb = kb(FAMILY);
        let mut s = Solver::new(&kb);
        let sols = s.solve_str("grandparent(tom, Who)", 10).unwrap();
        let who: Vec<String> = sols.iter().map(|s| s.binding_str("Who").unwrap()).collect();
        assert_eq!(who, ["ann", "pat"]);
    }

    #[test]
    fn recursive_rules() {
        let kb = kb(FAMILY);
        let mut s = Solver::new(&kb);
        let sols = s.solve_str("ancestor(tom, X)", 20).unwrap();
        let xs: Vec<String> = sols.iter().map(|s| s.binding_str("X").unwrap()).collect();
        assert_eq!(xs, ["bob", "liz", "ann", "pat", "jim"]);
    }

    #[test]
    fn ground_query_yields_empty_solution() {
        let kb = kb(FAMILY);
        let mut s = Solver::new(&kb);
        let sols = s.solve_str("parent(tom, bob)", 10).unwrap();
        assert_eq!(sols.len(), 1);
        assert_eq!(sols[0].iter().count(), 0);
        assert!(s.solve_str("parent(bob, tom)", 10).unwrap().is_empty());
    }

    #[test]
    fn solution_limit_respected() {
        let kb = kb(FAMILY);
        let mut s = Solver::new(&kb);
        assert_eq!(s.solve_str("parent(X, Y)", 3).unwrap().len(), 3);
        assert_eq!(s.solve_str("parent(X, Y)", 0).unwrap().len(), 0);
    }

    #[test]
    fn list_programs_work() {
        let kb = kb("
            append([], L, L).
            append([H | T], L, [H | R]) :- append(T, L, R).
            member(X, [X | _]).
            member(X, [_ | T]) :- member(X, T).
        ");
        let mut s = Solver::new(&kb);
        let sols = s.solve_str("append([1, 2], [3], Z)", 5).unwrap();
        assert_eq!(sols[0].binding_str("Z").unwrap(), "[1, 2, 3]");
        // append as a generator: all splits of [1,2,3].
        let sols = s.solve_str("append(A, B, [1, 2, 3])", 10).unwrap();
        assert_eq!(sols.len(), 4);
        let sols = s.solve_str("member(X, [a, b, c])", 10).unwrap();
        assert_eq!(sols.len(), 3);
    }

    #[test]
    fn naive_reverse() {
        let kb = kb("
            append([], L, L).
            append([H | T], L, [H | R]) :- append(T, L, R).
            nrev([], []).
            nrev([H | T], R) :- nrev(T, RT), append(RT, [H], R).
        ");
        let mut s = Solver::new(&kb);
        let sols = s.solve_str("nrev([1, 2, 3, 4, 5], R)", 1).unwrap();
        assert_eq!(sols[0].binding_str("R").unwrap(), "[5, 4, 3, 2, 1]");
        assert!(s.steps() > 10, "nrev does real work: {} steps", s.steps());
    }

    #[test]
    fn arithmetic_in_programs() {
        let kb = kb("
            fact(0, 1).
            fact(N, F) :- N > 0, M is N - 1, fact(M, G), F is N * G.
        ");
        let mut s = Solver::new(&kb);
        let sols = s.solve_str("fact(10, F)", 1).unwrap();
        assert_eq!(sols[0].binding_str("F").unwrap(), "3628800");
    }

    #[test]
    fn step_limit_truncates_runaway_queries() {
        let kb = kb("loop(X) :- loop(X).");
        let mut s = Solver::new(&kb);
        s.max_steps = 10_000;
        let sols = s.solve_str("loop(a)", 1).unwrap();
        assert!(sols.is_empty());
        assert!(s.truncated());
        assert!(s.steps() >= 10_000);
    }

    #[test]
    fn cancellation_stops_search() {
        let kb = kb("loop(X) :- loop(X).");
        let mut s = Solver::new(&kb);
        let token = CancelToken::new();
        token.cancel();
        s.cancel = Some(token);
        let sols = s.solve_str("loop(a)", 1).unwrap();
        assert!(sols.is_empty());
        assert!(s.truncated());
        assert!(s.steps() < 1000, "cancelled early: {}", s.steps());
    }

    #[test]
    fn restricted_solve_pins_first_clause() {
        let kb = kb(FAMILY);
        let mut s = Solver::new(&kb);
        let q = parse_query("ancestor(tom, X)").unwrap();
        // Branch 0: the base case only → direct children.
        let sols = s.solve_restricted(&q, 20, Some(0));
        let xs: Vec<String> = sols.iter().map(|s| s.binding_str("X").unwrap()).collect();
        assert_eq!(xs, ["bob", "liz"]);
        // Branch 1: the recursive case only → strict descendants beyond
        // children.
        let sols = s.solve_restricted(&q, 20, Some(1));
        let xs: Vec<String> = sols.iter().map(|s| s.binding_str("X").unwrap()).collect();
        assert_eq!(xs, ["ann", "pat", "jim"]);
        // Out-of-range branch: no solutions.
        assert!(s.solve_restricted(&q, 20, Some(9)).is_empty());
    }

    #[test]
    fn conjunction_queries() {
        let kb = kb(FAMILY);
        let mut s = Solver::new(&kb);
        let sols = s.solve_str("parent(tom, X), parent(X, Y)", 10).unwrap();
        let pairs: Vec<(String, String)> = sols
            .iter()
            .map(|s| (s.binding_str("X").unwrap(), s.binding_str("Y").unwrap()))
            .collect();
        assert_eq!(
            pairs,
            [("bob".into(), "ann".into()), ("bob".into(), "pat".into())]
        );
    }

    #[test]
    fn unknown_predicate_fails_cleanly() {
        let kb = kb(FAMILY);
        let mut s = Solver::new(&kb);
        assert!(s.solve_str("nosuch(X)", 5).unwrap().is_empty());
        assert!(!s.truncated());
    }

    #[test]
    fn cut_commits_to_first_matching_clause() {
        let kb = kb("
            member(X, [X | _]).
            member(X, [_ | T]) :- member(X, T).
            first(X, L) :- member(X, L), !.
        ");
        let mut s = Solver::new(&kb);
        // Without cut: three solutions. With cut: exactly one.
        assert_eq!(s.solve_str("member(X, [1, 2, 3])", 10).unwrap().len(), 3);
        let sols = s.solve_str("first(X, [1, 2, 3])", 10).unwrap();
        assert_eq!(sols.len(), 1);
        assert_eq!(sols[0].binding_str("X").unwrap(), "1");
    }

    #[test]
    fn cut_is_local_to_its_clause() {
        // The cut commits within f/1; choice points of the *caller*'s
        // other goals survive.
        let kb = kb("
            f(1) :- !.
            f(2).
            g(a). g(b).
            pair(X, Y) :- g(X), f(Y).
        ");
        let mut s = Solver::new(&kb);
        let sols = s.solve_str("pair(X, Y)", 10).unwrap();
        let pairs: Vec<(String, String)> = sols
            .iter()
            .map(|s| (s.binding_str("X").unwrap(), s.binding_str("Y").unwrap()))
            .collect();
        // f/1 always yields only 1 (cut), but g/1 still backtracks.
        assert_eq!(pairs, [("a".into(), "1".into()), ("b".into(), "1".into())]);
    }

    #[test]
    fn cut_implements_if_then_else() {
        let kb = kb("
            max(X, Y, X) :- X >= Y, !.
            max(_, Y, Y).
        ");
        let mut s = Solver::new(&kb);
        let sols = s.solve_str("max(7, 3, M)", 10).unwrap();
        assert_eq!(sols.len(), 1, "cut prevents the fallthrough clause");
        assert_eq!(sols[0].binding_str("M").unwrap(), "7");
        let sols = s.solve_str("max(2, 9, M)", 10).unwrap();
        assert_eq!(sols[0].binding_str("M").unwrap(), "9");
    }

    #[test]
    fn query_level_cut_stops_all_backtracking() {
        let kb = kb("p(1). p(2). p(3). q(x). q(y).");
        let mut s = Solver::new(&kb);
        let sols = s.solve_str("p(X), !, q(Y)", 10).unwrap();
        // ! froze p's choice at 1; q still enumerates after the cut?
        // No: a query-level cut discards ALL earlier choice points, and
        // q's choice points are created after the cut, so they survive.
        let got: Vec<(String, String)> = sols
            .iter()
            .map(|s| (s.binding_str("X").unwrap(), s.binding_str("Y").unwrap()))
            .collect();
        assert_eq!(got, [("1".into(), "x".into()), ("1".into(), "y".into())]);
    }

    #[test]
    fn negation_as_failure() {
        let kb = kb("
            bird(tweety). bird(polly).
            penguin(polly).
            flies(X) :- bird(X), \\+ penguin(X).
        ");
        let mut s = Solver::new(&kb);
        let sols = s.solve_str("flies(X)", 10).unwrap();
        assert_eq!(sols.len(), 1);
        assert_eq!(sols[0].binding_str("X").unwrap(), "tweety");
        assert!(s.solve_str("flies(polly)", 1).unwrap().is_empty());
        assert!(!s.solve_str("\\+ penguin(tweety)", 1).unwrap().is_empty());
    }

    #[test]
    fn negation_leaves_no_bindings() {
        let kb = kb("p(1).");
        let mut s = Solver::new(&kb);
        // \+ p(X) fails (p(1) provable with X=1), and X stays unbound
        // in the failure — no binding leaks into later goals.
        assert!(s.solve_str("\\+ p(X)", 1).unwrap().is_empty());
        // Double negation succeeds without binding X.
        let sols = s.solve_str("\\+ \\+ p(X), X = unbound_witness", 1).unwrap();
        assert_eq!(sols.len(), 1);
        assert_eq!(sols[0].binding_str("X").unwrap(), "unbound_witness");
    }

    #[test]
    fn negation_counts_subproof_steps() {
        let kb = kb("
            deep(0).
            deep(N) :- N > 0, M is N - 1, deep(M).
        ");
        let mut s = Solver::new(&kb);
        assert_eq!(s.solve_str("\\+ deep(50)", 1).unwrap().len(), 0);
        let steps_with_subproof = s.steps();
        assert!(
            steps_with_subproof > 100,
            "sub-proof work must be charged: {steps_with_subproof}"
        );
    }

    #[test]
    fn call_invokes_bound_goal() {
        let kb = kb("
            p(1). p(2).
            apply(G) :- call(G).
        ");
        let mut s = Solver::new(&kb);
        let sols = s.solve_str("G = p(X), call(G)", 10).unwrap();
        assert_eq!(sols.len(), 2);
        assert_eq!(sols[0].binding_str("X").unwrap(), "1");
        // Through a rule, too.
        let sols = s.solve_str("apply(p(2))", 10).unwrap();
        assert_eq!(sols.len(), 1);
        // Calling an unbound or non-callable term fails cleanly.
        assert!(s.solve_str("call(Y)", 1).unwrap().is_empty());
    }

    #[test]
    fn findall_collects_all_solutions() {
        let kb = kb("p(1). p(2). p(3).");
        let mut s = Solver::new(&kb);
        let sols = s.solve_str("findall(X, p(X), L)", 1).unwrap();
        assert_eq!(sols[0].binding_str("L").unwrap(), "[1, 2, 3]");
        // Template can be compound.
        let sols = s.solve_str("findall(f(X), p(X), L)", 1).unwrap();
        assert_eq!(sols[0].binding_str("L").unwrap(), "[f(1), f(2), f(3)]");
    }

    #[test]
    fn findall_of_failing_goal_is_empty_list() {
        let kb = kb("p(1).");
        let mut s = Solver::new(&kb);
        let sols = s.solve_str("findall(X, nosuch(X), L)", 1).unwrap();
        assert_eq!(sols[0].binding_str("L").unwrap(), "[]");
    }

    #[test]
    fn findall_does_not_bind_goal_variables() {
        let kb = kb("p(1). p(2).");
        let mut s = Solver::new(&kb);
        // X stays free after findall; binding it afterwards still works.
        let sols = s.solve_str("findall(X, p(X), L), X = free", 1).unwrap();
        assert_eq!(sols[0].binding_str("X").unwrap(), "free");
        assert_eq!(sols[0].binding_str("L").unwrap(), "[1, 2]");
    }

    #[test]
    fn findall_respects_outer_bindings() {
        let kb = kb("q(a, 1). q(a, 2). q(b, 3).");
        let mut s = Solver::new(&kb);
        let sols = s.solve_str("K = a, findall(V, q(K, V), L)", 1).unwrap();
        assert_eq!(sols[0].binding_str("L").unwrap(), "[1, 2]");
    }

    #[test]
    fn findall_composes_with_list_predicates() {
        let kb = kb("
            p(3). p(1). p(2).
            len([], 0).
            len([_ | T], N) :- len(T, M), N is M + 1.
        ");
        let mut s = Solver::new(&kb);
        let sols = s.solve_str("findall(X, p(X), L), len(L, N)", 1).unwrap();
        assert_eq!(sols[0].binding_str("N").unwrap(), "3");
    }

    #[test]
    fn assertz_adds_facts_for_later_goals() {
        let kb = kb("seed(1).");
        let mut s = Solver::new(&kb);
        let sols = s
            .solve_str(
                "assertz(extra(2)), assertz(extra(3)), findall(X, extra(X), L)",
                1,
            )
            .unwrap();
        assert_eq!(sols[0].binding_str("L").unwrap(), "[2, 3]");
        assert_eq!(s.dynamic_clause_count(), 2);
        // Dynamic clauses persist across queries on the same solver…
        let sols = s.solve_str("extra(X)", 10).unwrap();
        assert_eq!(sols.len(), 2);
        // …but a fresh solver sees only the shared KB.
        let mut fresh = Solver::new(&kb);
        assert!(fresh.solve_str("extra(X)", 1).unwrap().is_empty());
    }

    #[test]
    fn asserta_clauses_are_tried_before_kb_clauses() {
        let kb = kb("pick(kb_first).");
        let mut s = Solver::new(&kb);
        let sols = s
            .solve_str(
                "asserta(pick(front)), assertz(pick(back)), findall(X, pick(X), L)",
                1,
            )
            .unwrap();
        assert_eq!(
            sols[0].binding_str("L").unwrap(),
            "[front, kb_first, back]",
            "search order: asserta, KB, assertz"
        );
    }

    #[test]
    fn assertz_is_not_undone_by_backtracking() {
        let kb = kb("p(1). p(2).");
        let mut s = Solver::new(&kb);
        // assertz happens on the p(1) branch; backtracking to p(2) must
        // not remove the asserted fact (standard Prolog semantics).
        let sols = s
            .solve_str("p(X), assertz(saw(X)), X = 2, findall(Y, saw(Y), L)", 1)
            .unwrap();
        assert_eq!(sols[0].binding_str("L").unwrap(), "[1, 2]");
    }

    #[test]
    fn retract_removes_first_matching_dynamic_clause() {
        let kb = kb("fixed(0).");
        let mut s = Solver::new(&kb);
        let sols = s
            .solve_str(
                "assertz(d(1)), assertz(d(2)), retract(d(1)), findall(X, d(X), L)",
                1,
            )
            .unwrap();
        assert_eq!(sols[0].binding_str("L").unwrap(), "[2]");
        assert_eq!(s.dynamic_clause_count(), 1);
        // retract cannot touch the immutable shared KB.
        assert!(s.solve_str("retract(fixed(0))", 1).unwrap().is_empty());
        assert_eq!(s.solve_str("fixed(X)", 5).unwrap().len(), 1);
    }

    #[test]
    fn retract_fails_when_nothing_matches() {
        let kb = kb("p(1).");
        let mut s = Solver::new(&kb);
        assert!(s.solve_str("retract(nothing(here))", 1).unwrap().is_empty());
    }

    #[test]
    fn asserted_facts_generalize_unbound_variables() {
        let kb = kb("p(1).");
        let mut s = Solver::new(&kb);
        // Y is unbound at assertion time: the stored fact is pair(1, _),
        // matching any second argument afterwards.
        let sols = s
            .solve_str("p(X), assertz(pair(X, Y)), findall(B, pair(1, B), L)", 1)
            .unwrap();
        assert_eq!(sols[0].binding_str("L").unwrap().matches("_G").count(), 1);
        let sols = s.solve_str("pair(1, bound_now)", 1).unwrap();
        assert_eq!(sols.len(), 1, "generalized variable matches anything");
    }

    #[test]
    fn or_parallel_branches_have_isolated_databases() {
        // §5.2: "What our method does is copy" — each racing branch
        // asserts into its own solver; no branch observes another's
        // writes. We emulate the race's per-branch solvers directly.
        let kb = kb("
            branch(one). branch(two).
            run(B) :- branch(B), assertz(mine(B)), mine(B).
        ");
        let q = parse_query("run(B)").unwrap();
        let mut s1 = Solver::new(&kb);
        let r1 = s1.solve_restricted(&q, 1, Some(0));
        let mut s2 = Solver::new(&kb);
        let r2 = s2.solve_restricted(&q, 1, Some(0));
        assert_eq!(r1.len(), 1);
        assert_eq!(r2.len(), 1);
        // Each solver saw exactly its own assertions.
        assert_eq!(s1.dynamic_clause_count(), 1);
        assert_eq!(s2.dynamic_clause_count(), 1);
    }

    #[test]
    fn kb_accessors() {
        let kb = kb(FAMILY);
        assert_eq!(kb.len(), 8);
        assert!(!kb.is_empty());
        assert_eq!(kb.matching("parent", 2).len(), 5);
        assert_eq!(kb.matching("ancestor", 2).len(), 2);
        assert!(kb.matching("parent", 3).is_empty());
    }
}
