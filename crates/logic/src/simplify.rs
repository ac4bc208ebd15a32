//! Normalization helpers: constant folding, negation normal form, conjunct
//! splitting and if-then-else elimination.
//!
//! These transformations are shared between the SMT substrate (which wants
//! NNF, ite-free input) and the liquid fixpoint solver (which reasons about
//! conjunctions of atomic formulas).

use crate::term::{BinOp, Term, UnOp};
use std::sync::Arc;

/// Splits a formula into its top-level conjuncts, dropping `true`.
pub fn conjuncts(t: &Term) -> Vec<Term> {
    let mut out = Vec::new();
    collect_conjuncts(t, &mut out);
    out
}

fn collect_conjuncts(t: &Term, out: &mut Vec<Term>) {
    match t {
        Term::Binary(BinOp::And, a, b) => {
            collect_conjuncts(a, out);
            collect_conjuncts(b, out);
        }
        Term::BoolLit(true) => {}
        other => out.push(other.clone()),
    }
}

/// Constant-folds boolean and integer literal operations. The result is
/// logically equivalent to the input.
pub fn fold_constants(t: &Term) -> Term {
    match t {
        Term::Unary(op, inner) => {
            let inner = fold_constants(inner);
            match (op, &inner) {
                (UnOp::Not, Term::BoolLit(b)) => Term::BoolLit(!b),
                (UnOp::Neg, Term::IntLit(n)) => Term::IntLit(-n),
                _ => Term::Unary(*op, Arc::new(inner)),
            }
        }
        Term::Binary(op, a, b) => {
            let a = fold_constants(a);
            let b = fold_constants(b);
            if let (Term::IntLit(x), Term::IntLit(y)) = (&a, &b) {
                match op {
                    BinOp::Plus => return Term::IntLit(x + y),
                    BinOp::Minus => return Term::IntLit(x - y),
                    BinOp::Times => return Term::IntLit(x * y),
                    BinOp::Eq => return Term::BoolLit(x == y),
                    BinOp::Neq => return Term::BoolLit(x != y),
                    BinOp::Lt => return Term::BoolLit(x < y),
                    BinOp::Le => return Term::BoolLit(x <= y),
                    BinOp::Gt => return Term::BoolLit(x > y),
                    BinOp::Ge => return Term::BoolLit(x >= y),
                    _ => {}
                }
            }
            if let (Term::BoolLit(x), Term::BoolLit(y)) = (&a, &b) {
                match op {
                    BinOp::And => return Term::BoolLit(*x && *y),
                    BinOp::Or => return Term::BoolLit(*x || *y),
                    BinOp::Implies => return Term::BoolLit(!*x || *y),
                    BinOp::Iff => return Term::BoolLit(x == y),
                    BinOp::Eq => return Term::BoolLit(x == y),
                    BinOp::Neq => return Term::BoolLit(x != y),
                    _ => {}
                }
            }
            match op {
                BinOp::And => a.and(b),
                BinOp::Or => a.or(b),
                BinOp::Implies => a.implies(b),
                _ => Term::Binary(*op, Arc::new(a), Arc::new(b)),
            }
        }
        Term::Ite(c, th, el) => {
            let c = fold_constants(c);
            match c {
                Term::BoolLit(true) => fold_constants(th),
                Term::BoolLit(false) => fold_constants(el),
                c => Term::Ite(
                    Arc::new(c),
                    Arc::new(fold_constants(th)),
                    Arc::new(fold_constants(el)),
                ),
            }
        }
        Term::App(n, args, s) => Term::App(
            n.clone(),
            args.iter().map(fold_constants).collect(),
            s.clone(),
        ),
        Term::SetLit(s, elems) => {
            Term::SetLit(s.clone(), elems.iter().map(fold_constants).collect())
        }
        _ => t.clone(),
    }
}

/// Converts a boolean term to negation normal form: negations are pushed
/// down to atoms, implications and bi-implications are expanded, and
/// negated comparisons are flipped (e.g. `¬(a ≤ b)` becomes `a > b`).
///
/// Predicate unknowns are treated as opaque atoms (a negated unknown stays
/// under a `Not`, which the fixpoint solver rejects as non-Horn).
pub fn nnf(t: &Term) -> Term {
    nnf_pos(t)
}

fn nnf_pos(t: &Term) -> Term {
    match t {
        Term::Unary(UnOp::Not, inner) => nnf_neg(inner),
        Term::Binary(BinOp::And, a, b) => nnf_pos(a).and(nnf_pos(b)),
        Term::Binary(BinOp::Or, a, b) => nnf_pos(a).or(nnf_pos(b)),
        Term::Binary(BinOp::Implies, a, b) => nnf_neg(a).or(nnf_pos(b)),
        Term::Binary(BinOp::Iff, a, b) => {
            let fwd = nnf_neg(a).or(nnf_pos(b));
            let bwd = nnf_neg(b).or(nnf_pos(a));
            fwd.and(bwd)
        }
        _ => t.clone(),
    }
}

fn nnf_neg(t: &Term) -> Term {
    match t {
        Term::BoolLit(b) => Term::BoolLit(!b),
        Term::Unary(UnOp::Not, inner) => nnf_pos(inner),
        Term::Binary(BinOp::And, a, b) => nnf_neg(a).or(nnf_neg(b)),
        Term::Binary(BinOp::Or, a, b) => nnf_neg(a).and(nnf_neg(b)),
        Term::Binary(BinOp::Implies, a, b) => nnf_pos(a).and(nnf_neg(b)),
        Term::Binary(BinOp::Iff, a, b) => {
            let l = nnf_pos(a).and(nnf_neg(b));
            let r = nnf_neg(a).and(nnf_pos(b));
            l.or(r)
        }
        Term::Binary(BinOp::Eq, a, b) if a.sort() == crate::Sort::Bool => {
            nnf_neg(&Term::Binary(BinOp::Iff, a.clone(), b.clone()))
        }
        Term::Binary(BinOp::Eq, a, b) => Term::Binary(BinOp::Neq, a.clone(), b.clone()),
        Term::Binary(BinOp::Neq, a, b) => Term::Binary(BinOp::Eq, a.clone(), b.clone()),
        Term::Binary(BinOp::Lt, a, b) => Term::Binary(BinOp::Ge, a.clone(), b.clone()),
        Term::Binary(BinOp::Le, a, b) => Term::Binary(BinOp::Gt, a.clone(), b.clone()),
        Term::Binary(BinOp::Gt, a, b) => Term::Binary(BinOp::Le, a.clone(), b.clone()),
        Term::Binary(BinOp::Ge, a, b) => Term::Binary(BinOp::Lt, a.clone(), b.clone()),
        other => Term::Unary(UnOp::Not, Arc::new(other.clone())),
    }
}

/// Lifts if-then-else expressions that occur *below* boolean structure into
/// boolean case splits, so that downstream passes (set elimination, theory
/// purification) never encounter `ite` in atom positions.
///
/// A boolean-sorted `ite c t e` becomes `(c ∧ t) ∨ (¬c ∧ e)`. A non-boolean
/// `ite` nested inside an atom `A[ite c t e]` becomes
/// `(c ∧ A[t]) ∨ (¬c ∧ A[e])`.
pub fn eliminate_ite(t: &Term) -> Term {
    match t {
        Term::Binary(op, a, b) if op.is_boolean_connective() => {
            Term::Binary(*op, Arc::new(eliminate_ite(a)), Arc::new(eliminate_ite(b)))
        }
        Term::Unary(UnOp::Not, inner) => eliminate_ite(inner).not(),
        Term::Ite(c, th, el) if th.sort() == crate::Sort::Bool => {
            let c = eliminate_ite(c);
            let th = eliminate_ite(th);
            let el = eliminate_ite(el);
            (c.clone().and(th)).or(c.not().and(el))
        }
        _ => {
            // An atom: look for a nested ite and split on it.
            if let Some((cond, with_then, with_else)) = split_first_ite(t) {
                let pos = cond.clone().and(eliminate_ite(&with_then));
                let neg = cond.not().and(eliminate_ite(&with_else));
                pos.or(neg)
            } else {
                t.clone()
            }
        }
    }
}

impl BinOp {
    /// True for `∧`, `∨`, `⇒`, `⇔`.
    pub fn is_boolean_connective(self) -> bool {
        matches!(self, BinOp::And | BinOp::Or | BinOp::Implies | BinOp::Iff)
    }
}

/// Finds the first (pre-order) `ite` sub-term of an atom and returns its
/// condition together with copies of the atom where the `ite` is replaced
/// by its then- and else-branch respectively.
fn split_first_ite(t: &Term) -> Option<(Term, Term, Term)> {
    fn replace(t: &Term, target: &Term, with: &Term) -> Term {
        if t == target {
            return with.clone();
        }
        match t {
            Term::Unary(op, inner) => Term::Unary(*op, Arc::new(replace(inner, target, with))),
            Term::Binary(op, a, b) => Term::Binary(
                *op,
                Arc::new(replace(a, target, with)),
                Arc::new(replace(b, target, with)),
            ),
            Term::Ite(c, a, b) => Term::Ite(
                Arc::new(replace(c, target, with)),
                Arc::new(replace(a, target, with)),
                Arc::new(replace(b, target, with)),
            ),
            Term::App(n, args, s) => Term::App(
                n.clone(),
                args.iter().map(|a| replace(a, target, with)).collect(),
                s.clone(),
            ),
            Term::SetLit(s, elems) => Term::SetLit(
                s.clone(),
                elems.iter().map(|e| replace(e, target, with)).collect(),
            ),
            _ => t.clone(),
        }
    }

    let mut found: Option<Term> = None;
    t.walk(&mut |sub| {
        if found.is_none() {
            if let Term::Ite(_, _, _) = sub {
                found = Some(sub.clone());
            }
        }
    });
    let ite = found?;
    if let Term::Ite(c, th, el) = &ite {
        let with_then = replace(t, &ite, th);
        let with_else = replace(t, &ite, el);
        Some(((**c).clone(), with_then, with_else))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sort;

    fn x() -> Term {
        Term::var("x", Sort::Int)
    }
    fn y() -> Term {
        Term::var("y", Sort::Int)
    }

    #[test]
    fn conjuncts_flattens_nested_ands() {
        let t = x().le(y()).and(y().le(x()).and(x().eq(Term::int(0))));
        assert_eq!(conjuncts(&t).len(), 3);
        assert!(conjuncts(&Term::tt()).is_empty());
    }

    #[test]
    fn fold_constants_evaluates_arithmetic() {
        let t = Term::int(2).plus(Term::int(3)).le(Term::int(6));
        assert!(fold_constants(&t).is_true());
        let t = Term::int(2).plus(x());
        assert_eq!(fold_constants(&t), Term::int(2).plus(x()));
    }

    #[test]
    fn nnf_flips_negated_comparisons() {
        let t = x().le(y()).not();
        assert_eq!(nnf(&t), x().gt(y()));
        let t = x().le(y()).and(y().lt(x())).not();
        assert_eq!(nnf(&t), x().gt(y()).or(y().ge(x())));
    }

    #[test]
    fn nnf_expands_implication() {
        let t = x().le(y()).implies(x().lt(y().plus(Term::int(1))));
        assert_eq!(nnf(&t), x().gt(y()).or(x().lt(y().plus(Term::int(1)))));
    }

    #[test]
    fn ite_elimination_on_boolean_ite() {
        let t = Term::ite(x().le(y()), x().eq(Term::int(0)), y().eq(Term::int(0)));
        let e = eliminate_ite(&t);
        assert_eq!(
            e,
            (x().le(y()).and(x().eq(Term::int(0)))).or(x().le(y()).not().and(y().eq(Term::int(0))))
        );
    }

    #[test]
    fn ite_elimination_inside_atom() {
        // (if x <= y then x else y) >= 0
        let m = Term::ite(x().le(y()), x(), y());
        let t = m.ge(Term::int(0));
        let e = eliminate_ite(&t);
        assert_eq!(
            e,
            (x().le(y()).and(x().ge(Term::int(0)))).or(x().le(y()).not().and(y().ge(Term::int(0))))
        );
    }
}
