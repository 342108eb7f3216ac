//! Built-in predicates: unification, arithmetic, comparison.

use crate::term::Term;
use crate::unify::Bindings;
use std::fmt;

/// Evaluation failure for arithmetic goals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalError {
    /// Why evaluation failed.
    pub message: String,
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "arithmetic error: {}", self.message)
    }
}

impl std::error::Error for EvalError {}

/// Evaluates an arithmetic expression term to an integer.
///
/// # Errors
///
/// Returns [`EvalError`] for unbound variables, non-numeric atoms,
/// unknown operators, or division by zero.
pub fn eval_arith(bindings: &Bindings, term: &Term) -> Result<i64, EvalError> {
    eval_at(bindings, term, 0)
}

/// [`eval_arith`] for a term of a clause renamed by `offset`.
fn eval_at(bindings: &Bindings, term: &Term, offset: usize) -> Result<i64, EvalError> {
    let (t, offset) = bindings.walk_at(term, offset);
    match t {
        Term::Int(n) => Ok(*n),
        Term::Var(_) => Err(EvalError {
            message: "unbound variable in arithmetic expression".into(),
        }),
        Term::Atom(a) => Err(EvalError {
            message: format!("atom '{a}' is not a number"),
        }),
        Term::Compound { functor, args } if args.len() == 2 => {
            let lhs = eval_at(bindings, &args[0], offset)?;
            let rhs = eval_at(bindings, &args[1], offset)?;
            match &**functor {
                "+" => Ok(lhs.wrapping_add(rhs)),
                "-" => Ok(lhs.wrapping_sub(rhs)),
                "*" => Ok(lhs.wrapping_mul(rhs)),
                "//" => {
                    if rhs == 0 {
                        Err(EvalError {
                            message: "division by zero".into(),
                        })
                    } else {
                        Ok(lhs.wrapping_div(rhs))
                    }
                }
                "mod" => {
                    if rhs == 0 {
                        Err(EvalError {
                            message: "mod by zero".into(),
                        })
                    } else {
                        Ok(lhs.rem_euclid(rhs))
                    }
                }
                other => Err(EvalError {
                    message: format!("unknown arithmetic operator '{other}'"),
                }),
            }
        }
        Term::Compound { functor, .. } => Err(EvalError {
            message: format!("'{functor}' is not an arithmetic operator"),
        }),
    }
}

/// Whether `name/arity` is a built-in goal handled by [`call_builtin`].
pub fn is_builtin(name: &str, arity: usize) -> bool {
    arity == 2
        && matches!(
            name,
            "=" | "\\=" | "is" | "<" | "=<" | ">" | ">=" | "=:=" | "=\\="
        )
        || (arity == 0 && matches!(name, "true" | "fail" | "false"))
}

/// Executes a built-in goal against the bindings. Returns `Some(true)` on
/// success, `Some(false)` on failure, `None` if the goal is not a
/// built-in. Arithmetic errors count as failure (the goal is
/// unsatisfiable), matching how a query-level error surfaces in this
/// engine.
pub fn call_builtin(bindings: &mut Bindings, goal: &Term) -> Option<bool> {
    call_builtin_at(bindings, goal, 0)
}

/// [`call_builtin`] for a goal of a clause body renamed by `offset`.
pub(crate) fn call_builtin_at(bindings: &mut Bindings, goal: &Term, offset: usize) -> Option<bool> {
    let (name, arity) = goal.functor_arity()?;
    if arity == 0 {
        return match name {
            "true" => Some(true),
            "fail" | "false" => Some(false),
            _ => None,
        };
    }
    if arity != 2 {
        return None;
    }
    let Term::Compound { args, .. } = goal else {
        return None;
    };
    let (a, b) = (&args[0], &args[1]);
    match name {
        "=" => Some(bindings.unify_at(a, offset, b, offset)),
        "\\=" => {
            // Negation of unifiability; must not leave bindings behind.
            let mark = bindings.mark();
            let unified = bindings.unify_at(a, offset, b, offset);
            bindings.undo_to(mark);
            Some(!unified)
        }
        "is" => match eval_at(bindings, b, offset) {
            Ok(value) => Some(bindings.unify_at(a, offset, &Term::Int(value), 0)),
            Err(_) => Some(false),
        },
        "<" | "=<" | ">" | ">=" | "=:=" | "=\\=" => {
            match (eval_at(bindings, a, offset), eval_at(bindings, b, offset)) {
                (Ok(x), Ok(y)) => Some(match name {
                    "<" => x < y,
                    "=<" => x <= y,
                    ">" => x > y,
                    ">=" => x >= y,
                    "=:=" => x == y,
                    "=\\=" => x != y,
                    _ => unreachable!(),
                }),
                _ => Some(false),
            }
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    fn goal(src: &str) -> (Bindings, Term) {
        let q = parse_query(src).expect("valid query");
        let mut b = Bindings::new();
        b.ensure(q.nvars);
        (b, q.goals[0].clone())
    }

    #[test]
    fn eval_precedence_and_ops() {
        let (b, g) = goal("X is 2 + 3 * 4 - 10 // 2");
        let Term::Compound { args, .. } = &g else {
            panic!()
        };
        assert_eq!(eval_arith(&b, &args[1]), Ok(2 + 12 - 5));
    }

    #[test]
    fn eval_mod_is_euclidean() {
        let (b, g) = goal("X is -7 mod 3");
        let Term::Compound { args, .. } = &g else {
            panic!()
        };
        assert_eq!(eval_arith(&b, &args[1]), Ok(2));
    }

    #[test]
    fn eval_errors() {
        let (b, g) = goal("X is Y + 1");
        let Term::Compound { args, .. } = &g else {
            panic!()
        };
        assert!(eval_arith(&b, &args[1]).is_err());
        let (b, g) = goal("X is 1 // 0");
        let Term::Compound { args, .. } = &g else {
            panic!()
        };
        let err = eval_arith(&b, &args[1]).unwrap_err();
        assert!(err.to_string().contains("division by zero"), "{err}");
    }

    #[test]
    fn builtin_is_binds() {
        let (mut b, g) = goal("X is 6 * 7");
        assert_eq!(call_builtin(&mut b, &g), Some(true));
        assert_eq!(b.resolve(&Term::var(0)), Term::Int(42));
    }

    #[test]
    fn builtin_unify_and_disunify() {
        let (mut b, g) = goal("X = foo");
        assert_eq!(call_builtin(&mut b, &g), Some(true));
        let (mut b, g) = goal("foo \\= bar");
        assert_eq!(call_builtin(&mut b, &g), Some(true));
        let (mut b, g) = goal("foo \\= foo");
        assert_eq!(call_builtin(&mut b, &g), Some(false));
    }

    #[test]
    fn disunify_leaves_no_bindings() {
        let (mut b, g) = goal("X \\= foo");
        // X unifies with foo, so \= fails — and X must stay unbound.
        assert_eq!(call_builtin(&mut b, &g), Some(false));
        assert_eq!(b.resolve(&Term::var(0)), Term::var(0));
    }

    #[test]
    fn comparisons() {
        for (src, expect) in [
            ("1 < 2", true),
            ("2 < 1", false),
            ("2 =< 2", true),
            ("3 > 2", true),
            ("2 >= 3", false),
            ("4 =:= 2 + 2", true),
            ("4 =\\= 2 + 2", false),
        ] {
            let (mut b, g) = goal(src);
            assert_eq!(call_builtin(&mut b, &g), Some(expect), "{src}");
        }
    }

    #[test]
    fn comparison_with_unbound_fails() {
        let (mut b, g) = goal("X < 2");
        assert_eq!(call_builtin(&mut b, &g), Some(false));
    }

    #[test]
    fn non_builtins_return_none() {
        let (mut b, g) = goal("foo(X, Y)");
        assert_eq!(call_builtin(&mut b, &g), None);
        assert!(!is_builtin("foo", 2));
        assert!(is_builtin("is", 2));
        assert!(is_builtin("true", 0));
    }
}
