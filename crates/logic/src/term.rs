//! Refinement terms (the `ψ` of Fig. 2).
//!
//! A [`Term`] is a quantifier-free formula or expression of the refinement
//! logic: linear integer arithmetic, booleans, finite sets, applications of
//! uninterpreted functions (measures), and *predicate unknowns* `P_i` whose
//! valuations are discovered by the liquid fixpoint solver.

use crate::sort::Sort;
use crate::Substitution;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The name of the distinguished value variable `ν`.
pub const VALUE_VAR: &str = "ν";

/// Identifier of a predicate unknown `P_i`.
pub type UnknownId = u32;

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum UnOp {
    /// Integer negation.
    Neg,
    /// Boolean negation.
    Not,
}

/// Binary operators of the refinement logic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BinOp {
    /// Integer addition.
    Plus,
    /// Integer subtraction.
    Minus,
    /// Integer multiplication (only by constants in well-formed liquid
    /// specifications, keeping the logic linear).
    Times,
    /// Equality (available at every sort).
    Eq,
    /// Disequality.
    Neq,
    /// Strict less-than (integers and ordered uninterpreted sorts).
    Lt,
    /// Less-than-or-equal.
    Le,
    /// Strict greater-than.
    Gt,
    /// Greater-than-or-equal.
    Ge,
    /// Boolean conjunction.
    And,
    /// Boolean disjunction.
    Or,
    /// Boolean implication.
    Implies,
    /// Boolean bi-implication.
    Iff,
    /// Set union.
    Union,
    /// Set intersection.
    Intersect,
    /// Set difference.
    Diff,
    /// Set membership (`elem ∈ set`).
    Member,
    /// Subset-or-equal.
    Subset,
}

impl BinOp {
    /// True for operators that produce a boolean.
    pub fn is_predicate(self) -> bool {
        matches!(
            self,
            BinOp::Eq
                | BinOp::Neq
                | BinOp::Lt
                | BinOp::Le
                | BinOp::Gt
                | BinOp::Ge
                | BinOp::And
                | BinOp::Or
                | BinOp::Implies
                | BinOp::Iff
                | BinOp::Member
                | BinOp::Subset
        )
    }
}

/// A refinement term.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Term {
    /// Integer literal.
    IntLit(i64),
    /// Boolean literal.
    BoolLit(bool),
    /// Set literal `[e1, ..., en]`; the empty literal denotes `∅`.
    SetLit(Sort, Vec<Term>),
    /// A variable with its sort. The value variable `ν` is
    /// `Term::Var(VALUE_VAR, _)`.
    Var(String, Sort),
    /// A predicate unknown `P_i` with a pending substitution that is
    /// applied once a valuation is known.
    Unknown(UnknownId, Substitution),
    /// Unary operator application.
    Unary(UnOp, Arc<Term>),
    /// Binary operator application.
    Binary(BinOp, Arc<Term>, Arc<Term>),
    /// If-then-else at any sort.
    Ite(Arc<Term>, Arc<Term>, Arc<Term>),
    /// Application of an uninterpreted function (a *measure* such as
    /// `len`, `elems`, `keys`) with the given result sort.
    App(String, Vec<Term>, Sort),
}

impl Term {
    // ---------------------------------------------------------------------
    // Constructors
    // ---------------------------------------------------------------------

    /// The boolean constant `true`.
    pub fn tt() -> Term {
        Term::BoolLit(true)
    }

    /// The boolean constant `false`.
    pub fn ff() -> Term {
        Term::BoolLit(false)
    }

    /// An integer literal.
    pub fn int(n: i64) -> Term {
        Term::IntLit(n)
    }

    /// A variable of the given sort.
    pub fn var(name: impl Into<String>, sort: Sort) -> Term {
        Term::Var(name.into(), sort)
    }

    /// The value variable `ν` at the given sort.
    pub fn value_var(sort: Sort) -> Term {
        Term::Var(VALUE_VAR.to_string(), sort)
    }

    /// An application of an uninterpreted function / measure.
    pub fn app(name: impl Into<String>, args: Vec<Term>, result: Sort) -> Term {
        Term::App(name.into(), args, result)
    }

    /// A predicate unknown with an empty pending substitution.
    pub fn unknown(id: UnknownId) -> Term {
        Term::Unknown(id, Substitution::new())
    }

    /// The empty set literal of the given element sort.
    pub fn empty_set(elem: Sort) -> Term {
        Term::SetLit(elem, vec![])
    }

    /// A singleton set literal.
    pub fn singleton(elem_sort: Sort, elem: Term) -> Term {
        Term::SetLit(elem_sort, vec![elem])
    }

    fn bin(op: BinOp, a: Term, b: Term) -> Term {
        Term::Binary(op, Arc::new(a), Arc::new(b))
    }

    /// `self + other`.
    pub fn plus(self, other: Term) -> Term {
        Term::bin(BinOp::Plus, self, other)
    }

    /// `self - other`.
    pub fn minus(self, other: Term) -> Term {
        Term::bin(BinOp::Minus, self, other)
    }

    /// `self * other`.
    pub fn times(self, other: Term) -> Term {
        Term::bin(BinOp::Times, self, other)
    }

    /// `self == other`.
    pub fn eq(self, other: Term) -> Term {
        Term::bin(BinOp::Eq, self, other)
    }

    /// `self != other`.
    pub fn neq(self, other: Term) -> Term {
        Term::bin(BinOp::Neq, self, other)
    }

    /// `self < other`.
    pub fn lt(self, other: Term) -> Term {
        Term::bin(BinOp::Lt, self, other)
    }

    /// `self <= other`.
    pub fn le(self, other: Term) -> Term {
        Term::bin(BinOp::Le, self, other)
    }

    /// `self > other`.
    pub fn gt(self, other: Term) -> Term {
        Term::bin(BinOp::Gt, self, other)
    }

    /// `self >= other`.
    pub fn ge(self, other: Term) -> Term {
        Term::bin(BinOp::Ge, self, other)
    }

    /// Conjunction with lightweight simplification of boolean literals.
    pub fn and(self, other: Term) -> Term {
        match (&self, &other) {
            (Term::BoolLit(true), _) => other,
            (_, Term::BoolLit(true)) => self,
            (Term::BoolLit(false), _) | (_, Term::BoolLit(false)) => Term::ff(),
            _ => Term::bin(BinOp::And, self, other),
        }
    }

    /// Disjunction with lightweight simplification of boolean literals.
    pub fn or(self, other: Term) -> Term {
        match (&self, &other) {
            (Term::BoolLit(false), _) => other,
            (_, Term::BoolLit(false)) => self,
            (Term::BoolLit(true), _) | (_, Term::BoolLit(true)) => Term::tt(),
            _ => Term::bin(BinOp::Or, self, other),
        }
    }

    /// Implication with lightweight simplification of boolean literals.
    pub fn implies(self, other: Term) -> Term {
        match (&self, &other) {
            (Term::BoolLit(true), _) => other,
            (Term::BoolLit(false), _) => Term::tt(),
            (_, Term::BoolLit(true)) => Term::tt(),
            _ => Term::bin(BinOp::Implies, self, other),
        }
    }

    /// Bi-implication.
    pub fn iff(self, other: Term) -> Term {
        Term::bin(BinOp::Iff, self, other)
    }

    /// Boolean negation with double-negation elimination.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Term {
        match self {
            Term::BoolLit(b) => Term::BoolLit(!b),
            Term::Unary(UnOp::Not, inner) => Arc::unwrap_or_clone(inner),
            t => Term::Unary(UnOp::Not, Arc::new(t)),
        }
    }

    /// Integer negation.
    #[allow(clippy::should_implement_trait)]
    pub fn neg(self) -> Term {
        match self {
            Term::IntLit(n) => Term::IntLit(-n),
            t => Term::Unary(UnOp::Neg, Arc::new(t)),
        }
    }

    /// Set union.
    pub fn union(self, other: Term) -> Term {
        Term::bin(BinOp::Union, self, other)
    }

    /// Set intersection.
    pub fn intersect(self, other: Term) -> Term {
        Term::bin(BinOp::Intersect, self, other)
    }

    /// Set difference.
    pub fn set_diff(self, other: Term) -> Term {
        Term::bin(BinOp::Diff, self, other)
    }

    /// Set membership `self ∈ other`.
    pub fn member(self, other: Term) -> Term {
        Term::bin(BinOp::Member, self, other)
    }

    /// Subset `self ⊆ other`.
    pub fn subset(self, other: Term) -> Term {
        Term::bin(BinOp::Subset, self, other)
    }

    /// If-then-else.
    pub fn ite(cond: Term, then: Term, els: Term) -> Term {
        Term::Ite(Arc::new(cond), Arc::new(then), Arc::new(els))
    }

    /// Conjunction of an iterator of terms (`true` if empty).
    pub fn conjunction<I: IntoIterator<Item = Term>>(terms: I) -> Term {
        terms.into_iter().fold(Term::tt(), |acc, t| acc.and(t))
    }

    /// Disjunction of an iterator of terms (`false` if empty).
    pub fn disjunction<I: IntoIterator<Item = Term>>(terms: I) -> Term {
        terms.into_iter().fold(Term::ff(), |acc, t| acc.or(t))
    }

    // ---------------------------------------------------------------------
    // Queries
    // ---------------------------------------------------------------------

    /// True if the term is syntactically the literal `true`.
    pub fn is_true(&self) -> bool {
        matches!(self, Term::BoolLit(true))
    }

    /// True if the term is syntactically the literal `false`.
    pub fn is_false(&self) -> bool {
        matches!(self, Term::BoolLit(false))
    }

    /// The sort of the term. Variables and applications carry their sorts;
    /// operators determine theirs structurally.
    pub fn sort(&self) -> Sort {
        match self {
            Term::IntLit(_) => Sort::Int,
            Term::BoolLit(_) => Sort::Bool,
            Term::SetLit(elem, _) => Sort::set(elem.clone()),
            Term::Var(_, s) => s.clone(),
            Term::Unknown(_, _) => Sort::Bool,
            Term::Unary(UnOp::Neg, _) => Sort::Int,
            Term::Unary(UnOp::Not, _) => Sort::Bool,
            Term::Binary(op, l, _) => {
                if op.is_predicate() {
                    Sort::Bool
                } else {
                    match op {
                        BinOp::Union | BinOp::Intersect | BinOp::Diff => l.sort(),
                        _ => Sort::Int,
                    }
                }
            }
            Term::Ite(_, t, _) => t.sort(),
            Term::App(_, _, s) => s.clone(),
        }
    }

    /// Free (program) variables of the term, together with their sorts.
    /// Pending substitutions inside unknowns contribute the free variables
    /// of their right-hand sides.
    pub fn free_vars(&self) -> BTreeMap<String, Sort> {
        let mut out = BTreeMap::new();
        self.collect_free_vars(&mut out);
        out
    }

    fn collect_free_vars(&self, out: &mut BTreeMap<String, Sort>) {
        match self {
            Term::Var(name, sort) => {
                out.insert(name.clone(), sort.clone());
            }
            Term::Unknown(_, subst) => {
                for t in subst.values() {
                    t.collect_free_vars(out);
                }
            }
            Term::Unary(_, t) => t.collect_free_vars(out),
            Term::Binary(_, a, b) => {
                a.collect_free_vars(out);
                b.collect_free_vars(out);
            }
            Term::Ite(c, t, e) => {
                c.collect_free_vars(out);
                t.collect_free_vars(out);
                e.collect_free_vars(out);
            }
            Term::App(_, args, _) => {
                for a in args {
                    a.collect_free_vars(out);
                }
            }
            Term::SetLit(_, elems) => {
                for e in elems {
                    e.collect_free_vars(out);
                }
            }
            Term::IntLit(_) | Term::BoolLit(_) => {}
        }
    }

    /// Identifiers of all predicate unknowns occurring in the term.
    pub fn unknowns(&self) -> BTreeSet<UnknownId> {
        let mut out = BTreeSet::new();
        self.collect_unknowns(&mut out);
        out
    }

    fn collect_unknowns(&self, out: &mut BTreeSet<UnknownId>) {
        match self {
            Term::Unknown(id, _) => {
                out.insert(*id);
            }
            Term::Unary(_, t) => t.collect_unknowns(out),
            Term::Binary(_, a, b) => {
                a.collect_unknowns(out);
                b.collect_unknowns(out);
            }
            Term::Ite(c, t, e) => {
                c.collect_unknowns(out);
                t.collect_unknowns(out);
                e.collect_unknowns(out);
            }
            Term::App(_, args, _) | Term::SetLit(_, args) => {
                for a in args {
                    a.collect_unknowns(out);
                }
            }
            _ => {}
        }
    }

    /// True if the term contains any predicate unknowns.
    pub fn has_unknowns(&self) -> bool {
        !self.unknowns().is_empty()
    }

    /// Names of all measures (uninterpreted functions) applied in the term.
    pub fn measures(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.walk(&mut |t| {
            if let Term::App(name, _, _) = t {
                out.insert(name.clone());
            }
        });
        out
    }

    /// Visits every sub-term (including `self`) in pre-order.
    pub fn walk(&self, f: &mut impl FnMut(&Term)) {
        f(self);
        match self {
            Term::Unary(_, t) => t.walk(f),
            Term::Binary(_, a, b) => {
                a.walk(f);
                b.walk(f);
            }
            Term::Ite(c, t, e) => {
                c.walk(f);
                t.walk(f);
                e.walk(f);
            }
            Term::App(_, args, _) | Term::SetLit(_, args) => {
                for a in args {
                    a.walk(f);
                }
            }
            _ => {}
        }
    }

    // ---------------------------------------------------------------------
    // Substitution
    // ---------------------------------------------------------------------

    /// Applies a substitution of terms for variables. Substitution into a
    /// predicate unknown composes with its pending substitution (the new
    /// bindings are applied to the pending right-hand sides, and bindings
    /// for variables not yet mentioned are recorded). Subtrees that
    /// mention no substituted variable are shared with `self`, not
    /// rebuilt.
    pub fn substitute(&self, subst: &Substitution) -> Term {
        if subst.is_empty() {
            return self.clone();
        }
        self.rewrite(subst).unwrap_or_else(|| self.clone())
    }

    /// `self` under a non-empty `subst`, or `None` if the substitution
    /// leaves it unchanged.
    fn rewrite(&self, subst: &Substitution) -> Option<Term> {
        // A child's new subtree, or the old one shared.
        let child =
            |old: &Arc<Term>, new: Option<Term>| new.map_or_else(|| Arc::clone(old), Arc::new);
        match self {
            Term::Var(name, _) => subst.get(name).cloned(),
            Term::Unknown(id, pending) => {
                let mut new_pending: Substitution = pending
                    .iter()
                    .map(|(k, v)| (k.clone(), v.substitute(subst)))
                    .collect();
                for (k, v) in subst {
                    new_pending.entry(k.clone()).or_insert_with(|| v.clone());
                }
                Some(Term::Unknown(*id, new_pending))
            }
            Term::Unary(op, t) => Some(Term::Unary(*op, Arc::new(t.rewrite(subst)?))),
            Term::Binary(op, a, b) => match (a.rewrite(subst), b.rewrite(subst)) {
                (None, None) => None,
                (na, nb) => Some(Term::Binary(*op, child(a, na), child(b, nb))),
            },
            Term::Ite(c, t, e) => match (c.rewrite(subst), t.rewrite(subst), e.rewrite(subst)) {
                (None, None, None) => None,
                (nc, nt, ne) => Some(Term::Ite(child(c, nc), child(t, nt), child(e, ne))),
            },
            Term::App(name, args, s) => Some(Term::App(
                name.clone(),
                rewrite_all(args, subst)?,
                s.clone(),
            )),
            Term::SetLit(s, elems) => Some(Term::SetLit(s.clone(), rewrite_all(elems, subst)?)),
            Term::IntLit(_) | Term::BoolLit(_) => None,
        }
    }

    /// Substitutes a single variable.
    pub fn substitute_var(&self, name: &str, replacement: &Term) -> Term {
        let mut subst = Substitution::new();
        subst.insert(name.to_string(), replacement.clone());
        self.substitute(&subst)
    }

    /// Substitutes the value variable `ν`.
    pub fn substitute_value(&self, replacement: &Term) -> Term {
        self.substitute_var(VALUE_VAR, replacement)
    }

    /// Applies a sort substitution (for type variables) to all sort
    /// annotations in the term.
    pub fn substitute_sorts(&self, map: &BTreeMap<String, Sort>) -> Term {
        match self {
            Term::Var(n, s) => Term::Var(n.clone(), s.substitute(map)),
            Term::SetLit(s, elems) => Term::SetLit(
                s.substitute(map),
                elems.iter().map(|e| e.substitute_sorts(map)).collect(),
            ),
            Term::Unknown(id, pending) => Term::Unknown(
                *id,
                pending
                    .iter()
                    .map(|(k, v)| (k.clone(), v.substitute_sorts(map)))
                    .collect(),
            ),
            Term::Unary(op, t) => Term::Unary(*op, Arc::new(t.substitute_sorts(map))),
            Term::Binary(op, a, b) => Term::Binary(
                *op,
                Arc::new(a.substitute_sorts(map)),
                Arc::new(b.substitute_sorts(map)),
            ),
            Term::Ite(c, t, e) => Term::Ite(
                Arc::new(c.substitute_sorts(map)),
                Arc::new(t.substitute_sorts(map)),
                Arc::new(e.substitute_sorts(map)),
            ),
            Term::App(n, args, s) => Term::App(
                n.clone(),
                args.iter().map(|a| a.substitute_sorts(map)).collect(),
                s.substitute(map),
            ),
            Term::IntLit(_) | Term::BoolLit(_) => self.clone(),
        }
    }

    /// Replaces every predicate unknown by the result of `f` (which
    /// receives the unknown's id and its pending substitution).
    pub fn apply_unknowns(&self, f: &impl Fn(UnknownId, &Substitution) -> Term) -> Term {
        match self {
            Term::Unknown(id, pending) => f(*id, pending),
            Term::Unary(op, t) => Term::Unary(*op, Arc::new(t.apply_unknowns(f))),
            Term::Binary(op, a, b) => Term::Binary(
                *op,
                Arc::new(a.apply_unknowns(f)),
                Arc::new(b.apply_unknowns(f)),
            ),
            Term::Ite(c, t, e) => Term::Ite(
                Arc::new(c.apply_unknowns(f)),
                Arc::new(t.apply_unknowns(f)),
                Arc::new(e.apply_unknowns(f)),
            ),
            Term::App(n, args, s) => Term::App(
                n.clone(),
                args.iter().map(|a| a.apply_unknowns(f)).collect(),
                s.clone(),
            ),
            Term::SetLit(s, elems) => Term::SetLit(
                s.clone(),
                elems.iter().map(|e| e.apply_unknowns(f)).collect(),
            ),
            _ => self.clone(),
        }
    }
}

/// `terms` under `subst`, or `None` if the substitution changes none
/// of them.
fn rewrite_all(terms: &[Term], subst: &Substitution) -> Option<Vec<Term>> {
    let new: Vec<Option<Term>> = terms.iter().map(|t| t.rewrite(subst)).collect();
    if new.iter().all(Option::is_none) {
        return None;
    }
    Some(
        terms
            .iter()
            .zip(new)
            .map(|(old, new)| new.unwrap_or_else(|| old.clone()))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x() -> Term {
        Term::var("x", Sort::Int)
    }

    fn y() -> Term {
        Term::var("y", Sort::Int)
    }

    #[test]
    fn smart_constructors_simplify_boolean_literals() {
        assert!(Term::tt().and(Term::tt()).is_true());
        assert!(Term::tt().and(Term::ff()).is_false());
        assert_eq!(Term::tt().and(x().le(y())), x().le(y()));
        assert_eq!(Term::ff().or(x().le(y())), x().le(y()));
        assert!(Term::ff().implies(x().le(y())).is_true());
        assert!(Term::tt().not().is_false());
        assert_eq!(x().le(y()).not().not(), x().le(y()));
    }

    #[test]
    fn sorts_of_operators() {
        assert_eq!(x().plus(y()).sort(), Sort::Int);
        assert_eq!(x().le(y()).sort(), Sort::Bool);
        let s = Term::var("s", Sort::set(Sort::Int));
        assert_eq!(s.clone().union(s.clone()).sort(), Sort::set(Sort::Int));
        assert_eq!(x().member(s).sort(), Sort::Bool);
    }

    #[test]
    fn free_vars_includes_unknown_pending_substitutions() {
        let mut pending = Substitution::new();
        pending.insert(VALUE_VAR.to_string(), y());
        let t = Term::Unknown(0, pending).and(x().ge(Term::int(0)));
        let fv = t.free_vars();
        assert!(fv.contains_key("x"));
        assert!(fv.contains_key("y"));
        assert!(!fv.contains_key(VALUE_VAR));
    }

    #[test]
    fn substitution_composes_into_unknowns() {
        let u = Term::unknown(3);
        let s1 = u.substitute_value(&x());
        let s2 = s1.substitute_var("x", &y());
        match s2 {
            Term::Unknown(3, pending) => {
                assert_eq!(pending.get(VALUE_VAR), Some(&y()));
                assert_eq!(pending.get("x"), Some(&y()));
            }
            other => panic!("expected unknown, got {other:?}"),
        }
    }

    #[test]
    fn substitute_value_var() {
        let t = Term::value_var(Sort::Int).le(x());
        let t2 = t.substitute_value(&Term::int(5));
        assert_eq!(t2, Term::int(5).le(x()));
    }

    #[test]
    fn measures_collects_application_heads() {
        let lst = Term::var("xs", Sort::data("List", vec![Sort::var("a")]));
        let t = Term::app("len", vec![lst.clone()], Sort::Int)
            .eq(Term::int(0))
            .and(
                Term::app("elems", vec![lst], Sort::set(Sort::var("a")))
                    .eq(Term::empty_set(Sort::var("a"))),
            );
        let ms = t.measures();
        assert!(ms.contains("len"));
        assert!(ms.contains("elems"));
        assert_eq!(ms.len(), 2);
    }

    #[test]
    fn unknowns_are_collected() {
        let t = Term::unknown(1).and(Term::unknown(2)).implies(x().le(y()));
        let ids = t.unknowns();
        assert_eq!(ids.into_iter().collect::<Vec<_>>(), vec![1, 2]);
    }

    /// The two children of a `Binary` term.
    fn children(t: &Term) -> (&Arc<Term>, &Arc<Term>) {
        match t {
            Term::Binary(_, a, b) => (a, b),
            other => panic!("expected a binary term, got {other:?}"),
        }
    }

    #[test]
    fn a_clone_shares_its_children() {
        let t = x().plus(y()).le(x());
        let copy = t.clone();
        let ((a, b), (ca, cb)) = (children(&t), children(&copy));
        assert!(Arc::ptr_eq(a, ca) && Arc::ptr_eq(b, cb));
    }

    #[test]
    fn equality_hashing_and_order_ignore_sharing() {
        use std::cmp::Ordering;
        use std::hash::{BuildHasher, RandomState};
        let shared = Arc::new(x().plus(y()));
        let t = Term::Binary(BinOp::Le, Arc::clone(&shared), shared);
        let separate = x().plus(y()).le(x().plus(y()));
        let (a, b) = children(&t);
        assert!(Arc::ptr_eq(a, b));
        assert!(!Arc::ptr_eq(children(&separate).0, children(&separate).1));
        assert_eq!(t, separate);
        assert_eq!(t.cmp(&separate), Ordering::Equal);
        let hasher = RandomState::new();
        assert_eq!(hasher.hash_one(&t), hasher.hash_one(&separate));
    }

    #[test]
    fn not_of_a_shared_negation_returns_the_inner_term_uncopied() {
        let negation = x().le(y()).not();
        let shared = negation.clone();
        let Term::Unary(UnOp::Not, inner) = &negation else {
            panic!("expected a negation, got {negation:?}");
        };
        let back = shared.not();
        assert_eq!(&back, &**inner);
        let ((a, b), (ia, ib)) = (children(&back), children(inner));
        assert!(Arc::ptr_eq(a, ia) && Arc::ptr_eq(b, ib));
    }

    #[test]
    fn substitution_shares_the_subtrees_it_leaves_unchanged() {
        let untouched = x().plus(y());
        let t = untouched.clone().le(Term::value_var(Sort::Int));
        let t2 = t.substitute_value(&Term::int(5));
        assert_eq!(t2, untouched.le(Term::int(5)));
        assert!(Arc::ptr_eq(children(&t).0, children(&t2).0));
        // A substitution that changes nothing rebuilds nothing.
        let same = t.substitute_var("z", &Term::int(1));
        let ((a, b), (sa, sb)) = (children(&t), children(&same));
        assert!(Arc::ptr_eq(a, sa) && Arc::ptr_eq(b, sb));
    }

    #[test]
    fn substitute_sorts_rewrites_type_variables() {
        let mut map = BTreeMap::new();
        map.insert("a".to_string(), Sort::Int);
        let t = Term::var("v", Sort::var("a")).eq(Term::var("w", Sort::var("a")));
        let t2 = t.substitute_sorts(&map);
        assert_eq!(t2, Term::var("v", Sort::Int).eq(Term::var("w", Sort::Int)));
    }
}
