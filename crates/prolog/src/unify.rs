//! Unification with trail-based backtracking.
//!
//! §5.2: "Many normal operations are subsumed by the unification
//! algorithm by which Prolog attempts to satisfy predicates; variables
//! are bound during the unification process to values which caused the
//! predicates to become true."

use crate::term::{Term, VarId};
use std::sync::OnceLock;

/// A growable variable store with a trail for cheap backtracking.
///
/// The solver renames a clause without copying it: the clause's variable
/// `v` is read as slot `v + offset`, where `offset` is the first of the
/// fresh slots the renaming took (the crate-internal `*_at` methods take
/// that offset beside the term). Only a term that gets bound is copied
/// into its slot.
///
/// # Example
///
/// ```
/// use altx_prolog::{Bindings, Term};
///
/// let mut b = Bindings::new();
/// b.ensure(2);
/// assert!(b.unify(&Term::var(0), &Term::atom("elrod")));
/// assert_eq!(b.resolve(&Term::var(0)).to_string(), "elrod");
/// ```
#[derive(Debug, Clone)]
pub struct Bindings {
    /// A slot is set once, by a binding, and emptied only by
    /// [`undo_to`](Self::undo_to), which takes `&mut self`: a term read
    /// out of one slot stays where it is while unification binds others,
    /// so unification walks bound terms in place instead of cloning them.
    /// `OnceLock` rather than `OnceCell` keeps `Bindings` `Sync`.
    slots: Vec<OnceLock<Term>>,
    trail: Vec<VarId>,
    /// Unification attempts performed (the work metric behind the
    /// OR-parallel cost model).
    pub unifications: u64,
    /// Whether `unify` performs the occurs check (default: true).
    /// Disabling it matches classic Prolog's default for speed, at the
    /// price of allowing cyclic ("rational") terms that
    /// [`resolve`](Self::resolve) cannot materialize.
    pub occurs_check: bool,
}

// A `&Bindings` may be shared across threads: that is public API.
const _: fn() = || {
    fn send_sync<T: Send + Sync>() {}
    send_sync::<Bindings>();
};

impl Default for Bindings {
    fn default() -> Self {
        Bindings {
            slots: Vec::new(),
            trail: Vec::new(),
            unifications: 0,
            occurs_check: true,
        }
    }
}

/// A restore point for backtracking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrailMark(usize);

impl Bindings {
    /// Creates an empty store.
    pub fn new() -> Self {
        Bindings::default()
    }

    /// Ensures slots exist for variables `0..n`.
    pub fn ensure(&mut self, n: usize) {
        if self.slots.len() < n {
            self.slots.resize_with(n, OnceLock::new);
        }
    }

    /// Number of variable slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True iff no variables exist.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Allocates `count` fresh variables, returning the first new id.
    pub fn fresh(&mut self, count: usize) -> usize {
        let base = self.slots.len();
        self.slots.resize_with(base + count, OnceLock::new);
        base
    }

    /// Drops the slots from `len` on. Backtracking calls it after
    /// [`undo_to`](Self::undo_to) has unbound them: nothing the search
    /// can return to refers to a variable made after its choice point.
    pub(crate) fn truncate(&mut self, len: usize) {
        self.slots.truncate(len);
    }

    /// Current trail position, for later [`undo_to`](Self::undo_to).
    pub fn mark(&self) -> TrailMark {
        TrailMark(self.trail.len())
    }

    /// Undoes all bindings made since `mark`.
    pub fn undo_to(&mut self, mark: TrailMark) {
        while self.trail.len() > mark.0 {
            let var = self.trail.pop().expect("trail non-empty");
            self.slots[var.0].take();
        }
    }

    /// Follows variable chains until a non-variable term or an unbound
    /// variable is reached (shallow walk — does not descend into
    /// compounds).
    pub fn walk<'a>(&'a self, term: &'a Term) -> &'a Term {
        self.walk_at(term, 0).0
    }

    /// [`walk`](Self::walk) for a term of a clause renamed by `offset`.
    /// The returned offset renames the returned term: `offset` if it is
    /// the clause's own (sub)term, 0 once a binding was followed.
    pub(crate) fn walk_at<'a>(&'a self, term: &'a Term, offset: usize) -> (&'a Term, usize) {
        walk(&self.slots, term, offset)
    }

    /// Fully substitutes bindings into `term`, producing a term whose
    /// remaining variables are genuinely unbound.
    pub fn resolve(&self, term: &Term) -> Term {
        self.resolve_at(term, 0)
    }

    /// [`resolve`](Self::resolve) for a term of a clause renamed by
    /// `offset`.
    pub(crate) fn resolve_at(&self, term: &Term, offset: usize) -> Term {
        match self.walk_at(term, offset) {
            (Term::Compound { functor, args }, offset) => Term::Compound {
                functor: functor.clone(),
                args: args.iter().map(|a| self.resolve_at(a, offset)).collect(),
            },
            (Term::Var(v), offset) => Term::Var(VarId(v.0 + offset)),
            (other, _) => other.clone(),
        }
    }

    /// Unifies `a` and `b`, binding variables as needed. On failure the
    /// bindings are left as they were (internal bindings are undone).
    pub fn unify(&mut self, a: &Term, b: &Term) -> bool {
        self.unify_at(a, 0, b, 0)
    }

    /// [`unify`](Self::unify) for terms of clauses renamed by `a_offset`
    /// and `b_offset`.
    pub(crate) fn unify_at(
        &mut self,
        a: &Term,
        a_offset: usize,
        b: &Term,
        b_offset: usize,
    ) -> bool {
        let mark = self.mark();
        let mut unifier = Unifier {
            slots: &self.slots,
            trail: &mut self.trail,
            occurs_check: self.occurs_check,
            unifications: 0,
        };
        let unified = unifier.unify(a, a_offset, b, b_offset);
        self.unifications += unifier.unifications;
        if !unified {
            self.undo_to(mark);
        }
        unified
    }

    /// True iff variable `v` is bound (directly or through a chain).
    pub fn is_bound(&self, v: VarId) -> bool {
        !matches!(self.walk(&Term::Var(v)), Term::Var(_))
    }
}

/// Follows `term`, renamed by `offset`, through bound slots.
fn walk<'s>(
    slots: &'s [OnceLock<Term>],
    mut term: &'s Term,
    mut offset: usize,
) -> (&'s Term, usize) {
    while let Term::Var(v) = term {
        match slots.get(v.0 + offset).and_then(OnceLock::get) {
            Some(bound) => (term, offset) = (bound, 0),
            None => break,
        }
    }
    (term, offset)
}

/// One unification: reads terms where they are — in the clauses or in
/// bound slots — and copies a term only into the slot it binds.
struct Unifier<'s> {
    slots: &'s [OnceLock<Term>],
    trail: &'s mut Vec<VarId>,
    occurs_check: bool,
    unifications: u64,
}

impl<'s> Unifier<'s> {
    fn unify(&mut self, a: &'s Term, a_offset: usize, b: &'s Term, b_offset: usize) -> bool {
        self.unifications += 1;
        let (a, a_offset) = walk(self.slots, a, a_offset);
        let (b, b_offset) = walk(self.slots, b, b_offset);
        match (a, b) {
            (Term::Var(x), Term::Var(y)) if x.0 + a_offset == y.0 + b_offset => true,
            (Term::Var(x), _) => self.bind(x.0 + a_offset, b, b_offset),
            (_, Term::Var(y)) => self.bind(y.0 + b_offset, a, a_offset),
            (Term::Atom(x), Term::Atom(y)) => x == y,
            (Term::Int(x), Term::Int(y)) => x == y,
            (
                Term::Compound {
                    functor: f,
                    args: xs,
                },
                Term::Compound {
                    functor: g,
                    args: ys,
                },
            ) => {
                f == g
                    && xs.len() == ys.len()
                    && xs
                        .iter()
                        .zip(ys)
                        .all(|(x, y)| self.unify(x, a_offset, y, b_offset))
            }
            _ => false,
        }
    }

    /// Binds slot `var` to `term` renamed by `offset`.
    fn bind(&mut self, var: usize, term: &Term, offset: usize) -> bool {
        if self.occurs_check && self.occurs(var, term, offset) {
            return false;
        }
        let value = if offset == 0 {
            term.clone()
        } else {
            term.shift_vars(offset)
        };
        let unbound = self.slots[var].set(value).is_ok();
        debug_assert!(unbound, "rebinding a bound variable");
        self.trail.push(VarId(var));
        true
    }

    /// True iff slot `var` occurs (after walking) in `term` renamed by
    /// `offset`.
    fn occurs(&self, var: usize, term: &Term, offset: usize) -> bool {
        match walk(self.slots, term, offset) {
            (Term::Var(w), offset) => w.0 + offset == var,
            (Term::Atom(_) | Term::Int(_), _) => false,
            (Term::Compound { args, .. }, offset) => {
                args.iter().any(|a| self.occurs(var, a, offset))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vars(b: &mut Bindings, n: usize) {
        b.ensure(n);
    }

    #[test]
    fn unify_atoms() {
        let mut b = Bindings::new();
        assert!(b.unify(&Term::atom("a"), &Term::atom("a")));
        assert!(!b.unify(&Term::atom("a"), &Term::atom("b")));
        assert!(!b.unify(&Term::atom("a"), &Term::Int(1)));
    }

    #[test]
    fn unify_binds_variable() {
        let mut b = Bindings::new();
        vars(&mut b, 1);
        assert!(b.unify(&Term::var(0), &Term::atom("elrod")));
        assert!(b.is_bound(VarId(0)));
        assert_eq!(b.resolve(&Term::var(0)), Term::atom("elrod"));
    }

    #[test]
    fn unify_compound_recursively() {
        let mut b = Bindings::new();
        vars(&mut b, 2);
        let lhs = Term::compound("f", vec![Term::var(0), Term::atom("c")]);
        let rhs = Term::compound("f", vec![Term::atom("a"), Term::var(1)]);
        assert!(b.unify(&lhs, &rhs));
        assert_eq!(b.resolve(&Term::var(0)), Term::atom("a"));
        assert_eq!(b.resolve(&Term::var(1)), Term::atom("c"));
    }

    #[test]
    fn failed_unification_undoes_partial_bindings() {
        let mut b = Bindings::new();
        vars(&mut b, 1);
        let lhs = Term::compound("f", vec![Term::var(0), Term::atom("x")]);
        let rhs = Term::compound("f", vec![Term::atom("a"), Term::atom("y")]);
        assert!(!b.unify(&lhs, &rhs));
        assert!(!b.is_bound(VarId(0)), "partial binding rolled back");
    }

    #[test]
    fn variable_chains_walk() {
        let mut b = Bindings::new();
        vars(&mut b, 3);
        assert!(b.unify(&Term::var(0), &Term::var(1)));
        assert!(b.unify(&Term::var(1), &Term::var(2)));
        assert!(b.unify(&Term::var(2), &Term::Int(9)));
        assert_eq!(b.resolve(&Term::var(0)), Term::Int(9));
    }

    #[test]
    fn arity_mismatch_fails() {
        let mut b = Bindings::new();
        assert!(!b.unify(
            &Term::compound("f", vec![Term::Int(1)]),
            &Term::compound("f", vec![Term::Int(1), Term::Int(2)]),
        ));
    }

    #[test]
    fn trail_marks_nest() {
        let mut b = Bindings::new();
        vars(&mut b, 2);
        let outer = b.mark();
        assert!(b.unify(&Term::var(0), &Term::Int(1)));
        let inner = b.mark();
        assert!(b.unify(&Term::var(1), &Term::Int(2)));
        b.undo_to(inner);
        assert!(b.is_bound(VarId(0)));
        assert!(!b.is_bound(VarId(1)));
        b.undo_to(outer);
        assert!(!b.is_bound(VarId(0)));
    }

    #[test]
    fn fresh_allocates_new_ids() {
        let mut b = Bindings::new();
        vars(&mut b, 2);
        let base = b.fresh(3);
        assert_eq!(base, 2);
        assert_eq!(b.len(), 5);
    }

    #[test]
    fn unification_count_increments() {
        let mut b = Bindings::new();
        let before = b.unifications;
        b.unify(&Term::atom("a"), &Term::atom("a"));
        assert!(b.unifications > before);
    }

    #[test]
    fn same_var_unifies_without_binding() {
        let mut b = Bindings::new();
        vars(&mut b, 1);
        assert!(b.unify(&Term::var(0), &Term::var(0)));
        assert!(!b.is_bound(VarId(0)));
    }

    #[test]
    fn occurs_check_rejects_cyclic_binding() {
        let mut b = Bindings::new();
        vars(&mut b, 1);
        let cyclic = Term::compound("f", vec![Term::var(0)]);
        assert!(!b.unify(&Term::var(0), &cyclic), "X = f(X) must fail");
        assert!(!b.is_bound(VarId(0)), "failed unify leaves X free");
        // Deeper occurrence, both orders.
        let deep = Term::compound("g", vec![Term::compound("f", vec![Term::var(0)])]);
        assert!(!b.unify(&deep, &Term::var(0)));
    }

    #[test]
    fn occurs_check_can_be_disabled() {
        let mut b = Bindings::new();
        b.occurs_check = false;
        vars(&mut b, 1);
        let cyclic = Term::compound("f", vec![Term::var(0)]);
        assert!(b.unify(&Term::var(0), &cyclic), "rational-tree mode binds");
        assert!(b.is_bound(VarId(0)));
    }

    #[test]
    fn occurs_check_follows_chains() {
        let mut b = Bindings::new();
        vars(&mut b, 2);
        assert!(b.unify(&Term::var(0), &Term::var(1)));
        // X0 → X1; binding X1 to f(X0) would be cyclic through the chain.
        let cyclic = Term::compound("f", vec![Term::var(0)]);
        assert!(!b.unify(&Term::var(1), &cyclic));
    }
}
