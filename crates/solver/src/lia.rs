//! Linear integer arithmetic: a general simplex over exact rationals
//! (in the style of Dutertre & de Moura) with branch-and-bound for
//! integrality.
//!
//! The solver decides satisfiability of conjunctions of linear constraints
//! `Σ aᵢ·xᵢ ⋈ c` with `⋈ ∈ {≤, ≥, =, <, >}`. All problem variables are
//! integer-valued (the refinement logic models every ordered sort as the
//! integers), so strict inequalities are normalised away (`x < c` becomes
//! `x ≤ c − 1`) and a rational relaxation is refined by branch-and-bound.

use crate::cancel::Budget;
use crate::rational::Rational;
use std::borrow::Borrow;
use std::collections::BTreeMap;

/// Maximum number of branch-and-bound nodes explored per check; a check
/// that needs more answers [`LiaResult::Unknown`].
const MAX_BRANCH_NODES: usize = 200;

/// Identifier of an arithmetic variable.
pub type VarId = usize;

/// A linear expression `Σ aᵢ·xᵢ + c`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct LinExpr {
    /// Coefficients per variable (no zero entries).
    pub coeffs: BTreeMap<VarId, Rational>,
    /// Constant offset.
    pub constant: Rational,
}

impl LinExpr {
    /// The constant expression `c`.
    pub fn constant(c: Rational) -> LinExpr {
        LinExpr {
            coeffs: BTreeMap::new(),
            constant: c,
        }
    }

    /// The expression consisting of a single variable.
    pub fn variable(v: VarId) -> LinExpr {
        let mut coeffs = BTreeMap::new();
        coeffs.insert(v, Rational::ONE);
        LinExpr {
            coeffs,
            constant: Rational::ZERO,
        }
    }

    /// Adds another expression scaled by `k`.
    pub fn add_scaled(&mut self, other: &LinExpr, k: Rational) {
        for (v, a) in &other.coeffs {
            let entry = self.coeffs.entry(*v).or_insert(Rational::ZERO);
            *entry = *entry + *a * k;
        }
        self.constant = self.constant + other.constant * k;
        self.coeffs.retain(|_, a| !a.is_zero());
    }

    /// `self + other`.
    pub fn plus(&self, other: &LinExpr) -> LinExpr {
        let mut out = self.clone();
        out.add_scaled(other, Rational::ONE);
        out
    }

    /// `self - other`.
    pub fn minus(&self, other: &LinExpr) -> LinExpr {
        let mut out = self.clone();
        out.add_scaled(other, -Rational::ONE);
        out
    }

    /// `k * self`.
    pub fn scaled(&self, k: Rational) -> LinExpr {
        let mut out = LinExpr::default();
        out.add_scaled(self, k);
        out
    }

    /// True if the expression mentions no variables.
    pub fn is_constant(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Evaluates the expression under an assignment (missing variables are
    /// treated as zero).
    pub fn eval(&self, assignment: &BTreeMap<VarId, Rational>) -> Rational {
        let mut acc = self.constant;
        for (v, a) in &self.coeffs {
            let val = assignment.get(v).copied().unwrap_or(Rational::ZERO);
            acc = acc + *a * val;
        }
        acc
    }
}

/// Relational operator of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rel {
    /// `expr ≤ 0`
    Le,
    /// `expr = 0`
    Eq,
    /// `expr ≥ 0`
    Ge,
}

/// A linear constraint `expr ⋈ 0`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Constraint {
    /// Left-hand side.
    pub expr: LinExpr,
    /// Relation against zero.
    pub rel: Rel,
}

impl Constraint {
    /// `lhs ≤ rhs`.
    pub fn le(lhs: LinExpr, rhs: LinExpr) -> Constraint {
        Constraint {
            expr: lhs.minus(&rhs),
            rel: Rel::Le,
        }
    }

    /// `lhs = rhs`.
    pub fn eq(lhs: LinExpr, rhs: LinExpr) -> Constraint {
        Constraint {
            expr: lhs.minus(&rhs),
            rel: Rel::Eq,
        }
    }

    /// `lhs ≥ rhs`.
    pub fn ge(lhs: LinExpr, rhs: LinExpr) -> Constraint {
        Constraint {
            expr: lhs.minus(&rhs),
            rel: Rel::Ge,
        }
    }

    /// `lhs < rhs` over the integers (`lhs ≤ rhs − 1`).
    pub fn lt_int(lhs: LinExpr, rhs: LinExpr) -> Constraint {
        let mut expr = lhs.minus(&rhs);
        expr.constant = expr.constant + Rational::ONE;
        Constraint { expr, rel: Rel::Le }
    }

    /// `lhs > rhs` over the integers (`lhs ≥ rhs + 1`).
    pub fn gt_int(lhs: LinExpr, rhs: LinExpr) -> Constraint {
        let mut expr = lhs.minus(&rhs);
        expr.constant = expr.constant - Rational::ONE;
        Constraint { expr, rel: Rel::Ge }
    }

    fn holds(&self, assignment: &BTreeMap<VarId, Rational>) -> bool {
        let v = self.expr.eval(assignment);
        match self.rel {
            Rel::Le => v <= Rational::ZERO,
            Rel::Eq => v.is_zero(),
            Rel::Ge => v >= Rational::ZERO,
        }
    }
}

/// Result of a satisfiability check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LiaResult {
    /// Satisfiable with an integer model.
    Sat(BTreeMap<VarId, Rational>),
    /// Unsatisfiable.
    Unsat,
    /// The branch-and-bound node limit or the run's [`Budget`] was
    /// exhausted; treated as "possibly satisfiable" by callers
    /// (conservative for validity checking).
    Unknown,
}

impl LiaResult {
    /// True unless the result is [`LiaResult::Unsat`].
    pub fn possibly_sat(&self) -> bool {
        !matches!(self, LiaResult::Unsat)
    }
}

/// A simplex tableau specialised to feasibility checking.
///
/// Bounds and β are indexed by variable id (problem variables first, then
/// slacks). Every basic variable's β equals its row evaluated at β: each
/// step moves only the values that change, which keeps that exact.
#[derive(Debug, Clone)]
struct Simplex {
    /// Rows: basic variable -> linear combination of non-basic variables.
    rows: BTreeMap<VarId, BTreeMap<VarId, Rational>>,
    /// Lower bounds.
    lower: Vec<Option<Rational>>,
    /// Upper bounds.
    upper: Vec<Option<Rational>>,
    /// Current assignment β.
    beta: Vec<Rational>,
    /// Total pivots performed over the tableau's lifetime.
    pivots: u64,
}

impl Simplex {
    fn new(num_problem_vars: usize) -> Simplex {
        Simplex {
            rows: BTreeMap::new(),
            lower: vec![None; num_problem_vars],
            upper: vec![None; num_problem_vars],
            beta: vec![Rational::ZERO; num_problem_vars],
            pivots: 0,
        }
    }

    /// Introduces a slack variable equal to the given combination of
    /// problem variables and returns its id.
    fn add_slack(&mut self, combo: &BTreeMap<VarId, Rational>) -> VarId {
        let s = self.beta.len();
        // The slack starts basic: s = Σ aᵢ·xᵢ, where each xᵢ is currently
        // non-basic (or basic — substitute its row).
        let mut row: BTreeMap<VarId, Rational> = BTreeMap::new();
        for (v, a) in combo {
            if let Some(vrow) = self.rows.get(v) {
                for (w, b) in vrow {
                    let e = row.entry(*w).or_insert(Rational::ZERO);
                    *e = *e + *a * *b;
                }
            } else {
                let e = row.entry(*v).or_insert(Rational::ZERO);
                *e = *e + *a;
            }
        }
        row.retain(|_, a| !a.is_zero());
        let val = row
            .iter()
            .map(|(v, a)| *a * self.beta[*v])
            .fold(Rational::ZERO, |x, y| x + y);
        self.rows.insert(s, row);
        self.lower.push(None);
        self.upper.push(None);
        self.beta.push(val);
        s
    }

    fn assert_upper(&mut self, v: VarId, c: Rational) -> bool {
        if self.lower[v].is_some_and(|l| l > c) {
            return false;
        }
        if self.upper[v].is_none_or(|u| c < u) {
            self.upper[v] = Some(c);
            if !self.rows.contains_key(&v) && self.beta[v] > c {
                self.update_nonbasic(v, c);
            }
        }
        true
    }

    fn assert_lower(&mut self, v: VarId, c: Rational) -> bool {
        if self.upper[v].is_some_and(|u| u < c) {
            return false;
        }
        if self.lower[v].is_none_or(|l| c > l) {
            self.lower[v] = Some(c);
            if !self.rows.contains_key(&v) && self.beta[v] < c {
                self.update_nonbasic(v, c);
            }
        }
        true
    }

    /// Sets a non-basic variable to a new value and moves the basic
    /// variables whose rows contain it.
    fn update_nonbasic(&mut self, v: VarId, val: Rational) {
        let delta = val - self.beta[v];
        if delta.is_zero() {
            return;
        }
        for (b, row) in &self.rows {
            if let Some(a) = row.get(&v) {
                self.beta[*b] = self.beta[*b] + *a * delta;
            }
        }
        self.beta[v] = val;
    }

    /// Pivot: basic variable `b` leaves the basis, non-basic `n` enters.
    fn pivot(&mut self, b: VarId, n: VarId, new_b_value: Rational) {
        self.pivots += 1;
        let row_b = self.rows.remove(&b).expect("pivot on non-basic row");
        let a_bn = *row_b.get(&n).expect("entering variable not in row");
        // b = Σ a_bj x_j  =>  n = (b - Σ_{j≠n} a_bj x_j) / a_bn
        let mut row_n: BTreeMap<VarId, Rational> = BTreeMap::new();
        row_n.insert(b, a_bn.recip());
        for (j, a) in &row_b {
            if *j != n {
                row_n.insert(*j, -*a / a_bn);
            }
        }
        // b takes its target value, so n moves by Δn = Δb / a_bn. Only
        // the rows that contain n change: n's new definition is
        // substituted into each in place, and its basic variable moves by
        // a_kn·Δn, which keeps it equal to its row.
        let delta_n = (new_b_value - self.beta[b]) / a_bn;
        for (k, row) in self.rows.iter_mut() {
            let Some(a_kn) = row.remove(&n) else {
                continue;
            };
            for (j, a) in &row_n {
                let e = row.entry(*j).or_insert(Rational::ZERO);
                *e = *e + a_kn * *a;
            }
            row.retain(|_, a| !a.is_zero());
            self.beta[*k] = self.beta[*k] + a_kn * delta_n;
        }
        self.rows.insert(n, row_n);
        self.beta[b] = new_b_value;
        self.beta[n] = self.beta[n] + delta_n;
    }

    /// Restores feasibility (the "check" procedure of the general simplex).
    fn check(&mut self) -> bool {
        let max_iters = 10_000;
        for _ in 0..max_iters {
            // Find a basic variable violating one of its bounds (Bland's
            // rule: smallest id first, to guarantee termination).
            let violated = self.rows.keys().copied().find(|&b| {
                let v = self.beta[b];
                self.lower[b].is_some_and(|l| v < l) || self.upper[b].is_some_and(|u| v > u)
            });
            let Some(b) = violated else {
                return true;
            };
            let v = self.beta[b];
            let below = self.lower[b].is_some_and(|l| v < l);
            let target = if below { self.lower[b] } else { self.upper[b] };
            let target = target.expect("a violated variable has that bound");
            // Find a suitable non-basic variable to pivot with (Bland: the
            // row is ordered by id, so the first fit is the smallest).
            let entering = self.rows[&b].iter().find_map(|(&n, &a)| {
                let n_val = self.beta[n];
                let can_increase = self.upper[n].is_none_or(|u| n_val < u);
                let can_decrease = self.lower[n].is_none_or(|l| n_val > l);
                let ok = if below {
                    (a.is_positive() && can_increase) || (a.is_negative() && can_decrease)
                } else {
                    (a.is_positive() && can_decrease) || (a.is_negative() && can_increase)
                };
                ok.then_some(n)
            });
            match entering {
                Some(n) => self.pivot(b, n, target),
                None => return false,
            }
        }
        // Should not happen with Bland's rule; be conservative.
        true
    }

    fn model(&self, num_problem_vars: usize) -> BTreeMap<VarId, Rational> {
        (0..num_problem_vars).map(|v| (v, self.beta[v])).collect()
    }
}

#[cfg(test)]
impl Simplex {
    /// The basic variables whose β differs from their row evaluated at β:
    /// empty while the invariant that `pivot`'s in-place β update relies
    /// on holds.
    fn stale_basics(&self) -> Vec<VarId> {
        self.rows
            .iter()
            .filter(|(b, row)| {
                let value = row
                    .iter()
                    .fold(Rational::ZERO, |acc, (v, a)| acc + *a * self.beta[*v]);
                value != self.beta[**b]
            })
            .map(|(b, _)| *b)
            .collect()
    }
}

/// One saved bound entry of the backtracking trail: the variable, which
/// bound was touched, and its previous value (`None` = was unbounded).
#[derive(Debug, Clone)]
struct BoundUndo {
    var: VarId,
    upper: bool,
    old: Option<Rational>,
}

/// An incremental LIA solver whose simplex tableau stays *warm* across
/// the theory checks of one DPLL(T) query.
///
/// Rather than rebuilding a tableau (and re-substituting every slack row)
/// per check, this solver keeps the tableau alive; a solver used for one
/// check only is the from-scratch baseline of the
/// `without_incremental_lia` ablation:
///
/// * **slack rows persist** — each distinct linear combination gets one
///   slack variable, registered on first use and reused by every later
///   check (both polarities of a comparison atom share the combination,
///   so one slack serves the atom for good);
/// * **bounds are transient** — every check (and every branch-and-bound
///   node) runs inside a push/pop frame over variable bounds. Popping
///   restores the saved bound entries and touches nothing else: rows are
///   basis-invariant representations of the same linear subspace, and a
///   non-basic β that satisfied the tighter bounds still satisfies the
///   restored looser ones, so `check()` only ever needs to repair *basic*
///   variables — exactly what it does lazily anyway;
/// * **branch and bound reuses the parent tableau** — a branch asserts
///   one bound on the fractional variable inside a fresh frame and
///   recurses; no constraint cloning, no re-substitution.
///
/// The run's [`Budget`] is polled once per branch-and-bound node. A
/// check it truncates answers [`LiaResult::Unknown`] and **poisons** the
/// tableau: the next check rebuilds from scratch (the incremental
/// analogue of the "deadline-`Unknown`s are never cached" rule — a
/// truncated search's verdict reflects the budget, and its tableau state
/// is not trusted either).
#[derive(Debug, Clone)]
pub struct IncrementalLia {
    num_problem_vars: usize,
    simplex: Simplex,
    /// One slack variable per distinct linear combination.
    slacks: BTreeMap<BTreeMap<VarId, Rational>, VarId>,
    /// Undo trail of bound changes, unwound on pop.
    trail: Vec<BoundUndo>,
    /// Open frames: trail length at each push.
    frames: Vec<usize>,
    budget: Budget,
    poisoned: bool,
    /// Checks served since the last (re)build; the first check after a
    /// build is "cold", every later one is a warm start.
    checks_since_build: u64,
    warm_checks: u64,
    rebuilds: u64,
    /// Pivots spent by the cold first check after the last (re)build —
    /// the per-check cost a from-scratch solver would pay every time.
    cold_pivots: u64,
    pivots_saved: u64,
}

impl IncrementalLia {
    /// Creates a warm solver for problems over `num_problem_vars`
    /// arithmetic variables (ids `0..num_problem_vars`) whose checks stop
    /// once `budget` is exhausted.
    pub fn new(num_problem_vars: usize, budget: Budget) -> IncrementalLia {
        IncrementalLia {
            num_problem_vars,
            simplex: Simplex::new(num_problem_vars),
            slacks: BTreeMap::new(),
            trail: Vec::new(),
            frames: Vec::new(),
            budget,
            poisoned: false,
            checks_since_build: 0,
            warm_checks: 0,
            rebuilds: 0,
            cold_pivots: 0,
            pivots_saved: 0,
        }
    }

    /// Checks served by an already-built tableau (every check after the
    /// first since the last rebuild).
    pub fn warm_checks(&self) -> u64 {
        self.warm_checks
    }

    /// Times the tableau was rebuilt from scratch (after poisoning).
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Estimated pivots saved by warm starts: for each warm check, the
    /// cold first check's pivot count minus the warm check's, clamped at
    /// zero. An estimate — the cold baseline is this query's own first
    /// solve, not a per-check from-scratch rerun.
    pub fn pivots_saved(&self) -> u64 {
        self.pivots_saved
    }

    /// True when the last check was truncated by the budget and the next
    /// check will rebuild the tableau.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    fn rebuild(&mut self) {
        self.simplex = Simplex::new(self.num_problem_vars);
        self.slacks.clear();
        self.trail.clear();
        self.frames.clear();
        self.poisoned = false;
        self.checks_since_build = 0;
        self.rebuilds += 1;
    }

    fn push(&mut self) {
        self.frames.push(self.trail.len());
    }

    fn pop(&mut self) {
        let mark = self.frames.pop().expect("pop without matching push");
        while self.trail.len() > mark {
            let undo = self.trail.pop().unwrap();
            let bounds = if undo.upper {
                &mut self.simplex.upper
            } else {
                &mut self.simplex.lower
            };
            bounds[undo.var] = undo.old;
        }
    }

    /// Pops every frame opened after `depth` (defensive unwinding for
    /// early returns out of the branch-and-bound recursion).
    fn pop_to(&mut self, depth: usize) {
        while self.frames.len() > depth {
            self.pop();
        }
    }

    fn assert_upper(&mut self, v: VarId, c: Rational) -> bool {
        self.trail.push(BoundUndo {
            var: v,
            upper: true,
            old: self.simplex.upper[v],
        });
        self.simplex.assert_upper(v, c)
    }

    fn assert_lower(&mut self, v: VarId, c: Rational) -> bool {
        self.trail.push(BoundUndo {
            var: v,
            upper: false,
            old: self.simplex.lower[v],
        });
        self.simplex.assert_lower(v, c)
    }

    /// The slack variable standing for this linear combination,
    /// registering it (one row substitution, once ever) on first use.
    fn slack_for(&mut self, combo: &BTreeMap<VarId, Rational>) -> VarId {
        if let Some(&s) = self.slacks.get(combo) {
            return s;
        }
        let s = self.simplex.add_slack(combo);
        self.slacks.insert(combo.clone(), s);
        s
    }

    /// Checks a conjunction of constraints against the warm tableau.
    /// The tableau's *bounds* are restored before returning whatever the
    /// verdict; its rows, basis and assignment persist (that is the
    /// warmth). Sound for any sequence of checks because no bound
    /// outlives its check's frame.
    pub fn check<C: Borrow<Constraint>>(&mut self, constraints: &[C]) -> LiaResult {
        if self.poisoned {
            self.rebuild();
        }
        if self.checks_since_build > 0 {
            self.warm_checks += 1;
        }
        self.checks_since_build += 1;
        let pivots_before = self.simplex.pivots;
        let depth = self.frames.len();
        self.push();
        let result = self.check_in_frame(constraints);
        self.pop_to(depth);
        if matches!(result, LiaResult::Unknown) && self.budget.exhausted() {
            // Budget-truncated: the verdict reflects the budget, and the
            // tableau is not trusted either (the incremental extension of
            // "deadline-Unknowns are never cached").
            self.poisoned = true;
        }
        let spent = self.simplex.pivots - pivots_before;
        if self.checks_since_build == 1 {
            self.cold_pivots = spent;
        } else {
            self.pivots_saved += self.cold_pivots.saturating_sub(spent);
        }
        result
    }

    fn check_in_frame<C: Borrow<Constraint>>(&mut self, constraints: &[C]) -> LiaResult {
        let constraints = || constraints.iter().map(Borrow::borrow);
        let empty = BTreeMap::new();
        for c in constraints() {
            if c.expr.is_constant() && !c.holds(&empty) {
                return LiaResult::Unsat;
            }
        }
        for c in constraints().filter(|c| !c.expr.is_constant()) {
            let s = self.slack_for(&c.expr.coeffs);
            // expr ⋈ 0  ⟺  Σ aᵢxᵢ ⋈ -constant
            let bound = -c.expr.constant;
            let ok = match c.rel {
                Rel::Le => self.assert_upper(s, bound),
                Rel::Ge => self.assert_lower(s, bound),
                Rel::Eq => self.assert_upper(s, bound) && self.assert_lower(s, bound),
            };
            if !ok {
                return LiaResult::Unsat;
            }
        }
        let mut nodes = MAX_BRANCH_NODES;
        let result = self.solve_rec(&mut nodes);
        if let LiaResult::Sat(model) = &result {
            debug_assert!(
                constraints().all(|c| c.holds(model)),
                "warm tableau produced a non-model"
            );
        }
        result
    }

    /// Feasibility plus branch-and-bound over the current bound frame;
    /// `nodes` counts down the branch nodes this check may still open.
    fn solve_rec(&mut self, nodes: &mut usize) -> LiaResult {
        if self.budget.exhausted() {
            return LiaResult::Unknown;
        }
        if !self.simplex.check() {
            return LiaResult::Unsat;
        }
        let model = self.simplex.model(self.num_problem_vars);
        let fractional = model.iter().find(|(_, v)| !v.is_integer());
        let Some((&v, &val)) = fractional else {
            return LiaResult::Sat(model);
        };
        if *nodes == 0 {
            return LiaResult::Unknown;
        }
        *nodes -= 1;
        // Left branch: v ≤ floor(val), on the same tableau.
        self.push();
        let floor = Rational::new(val.floor(), 1);
        let left = if self.assert_upper(v, floor) {
            self.solve_rec(nodes)
        } else {
            LiaResult::Unsat
        };
        self.pop();
        match left {
            LiaResult::Sat(m) => return LiaResult::Sat(m),
            LiaResult::Unknown => return LiaResult::Unknown,
            LiaResult::Unsat => {}
        }
        // Right branch: v ≥ ceil(val).
        self.push();
        let ceil = Rational::new(val.ceil(), 1);
        let right = if self.assert_lower(v, ceil) {
            self.solve_rec(nodes)
        } else {
            LiaResult::Unsat
        };
        self.pop();
        right
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synquid_logic::Rng;

    fn var(v: VarId) -> LinExpr {
        LinExpr::variable(v)
    }

    fn num(n: i64) -> LinExpr {
        LinExpr::constant(Rational::from_int(n))
    }

    /// One check on a fresh tableau: the from-scratch solver.
    fn check<C: Borrow<Constraint>>(num_vars: usize, constraints: &[C]) -> LiaResult {
        IncrementalLia::new(num_vars, Budget::default()).check(constraints)
    }

    #[test]
    fn trivial_sat_and_unsat() {
        assert!(matches!(check::<Constraint>(0, &[]), LiaResult::Sat(_)));
        let c = Constraint::le(num(1), num(0));
        assert_eq!(check(0, &[c]), LiaResult::Unsat);
    }

    #[test]
    fn simple_bounds() {
        // x >= 1 ∧ x <= 3
        let cs = vec![
            Constraint::ge(var(0), num(1)),
            Constraint::le(var(0), num(3)),
        ];
        match check(1, &cs) {
            LiaResult::Sat(m) => {
                let x = m[&0];
                assert!(x >= Rational::from_int(1) && x <= Rational::from_int(3));
                assert!(x.is_integer());
            }
            other => panic!("expected sat, got {other:?}"),
        }
        // x >= 4 ∧ x <= 3 is unsat
        let cs = vec![
            Constraint::ge(var(0), num(4)),
            Constraint::le(var(0), num(3)),
        ];
        assert_eq!(check(1, &cs), LiaResult::Unsat);
    }

    #[test]
    fn combination_of_constraints() {
        // x + y <= 5 ∧ x >= 3 ∧ y >= 3 is unsat
        let cs = vec![
            Constraint::le(var(0).plus(&var(1)), num(5)),
            Constraint::ge(var(0), num(3)),
            Constraint::ge(var(1), num(3)),
        ];
        assert_eq!(check(2, &cs), LiaResult::Unsat);
        // x + y <= 5 ∧ x >= 3 ∧ y >= 2 is sat
        let cs = vec![
            Constraint::le(var(0).plus(&var(1)), num(5)),
            Constraint::ge(var(0), num(3)),
            Constraint::ge(var(1), num(2)),
        ];
        assert!(matches!(check(2, &cs), LiaResult::Sat(_)));
    }

    #[test]
    fn equalities_chain() {
        // len = n ∧ n = 0 ∧ len >= 1  — the replicate-style contradiction
        let cs = vec![
            Constraint::eq(var(0), var(1)),
            Constraint::eq(var(1), num(0)),
            Constraint::ge(var(0), num(1)),
        ];
        assert_eq!(check(2, &cs), LiaResult::Unsat);
    }

    #[test]
    fn integrality_matters() {
        // 2x = 1 has a rational solution but no integer one.
        let cs = vec![Constraint::eq(var(0).scaled(Rational::from_int(2)), num(1))];
        assert_eq!(check(1, &cs), LiaResult::Unsat);
        // 2x = 4 is fine.
        let cs = vec![Constraint::eq(var(0).scaled(Rational::from_int(2)), num(4))];
        assert!(matches!(check(1, &cs), LiaResult::Sat(_)));
    }

    #[test]
    fn strict_inequalities_over_integers() {
        // x < y ∧ y < x + 2  ⇒  y = x + 1 (sat)
        let cs = vec![
            Constraint::lt_int(var(0), var(1)),
            Constraint::lt_int(var(1), var(0).plus(&num(2))),
        ];
        match check(2, &cs) {
            LiaResult::Sat(m) => {
                assert_eq!(m[&1], m[&0] + Rational::ONE);
            }
            other => panic!("expected sat, got {other:?}"),
        }
        // x < y ∧ y < x + 1 is unsat over integers.
        let cs = vec![
            Constraint::lt_int(var(0), var(1)),
            Constraint::lt_int(var(1), var(0).plus(&num(1))),
        ];
        assert_eq!(check(2, &cs), LiaResult::Unsat);
    }

    #[test]
    fn unbounded_problems_are_sat() {
        let cs = vec![Constraint::ge(var(0).minus(&var(1)), num(10))];
        assert!(matches!(check(2, &cs), LiaResult::Sat(_)));
    }

    #[test]
    fn larger_system_with_pivoting() {
        // x + y + z = 10, x - y >= 2, z >= 3, y >= 1  → sat
        let cs = vec![
            Constraint::eq(var(0).plus(&var(1)).plus(&var(2)), num(10)),
            Constraint::ge(var(0).minus(&var(1)), num(2)),
            Constraint::ge(var(2), num(3)),
            Constraint::ge(var(1), num(1)),
        ];
        match check(3, &cs) {
            LiaResult::Sat(m) => {
                for c in &cs {
                    assert!(c.holds(&m), "violated {c:?} by {m:?}");
                }
            }
            other => panic!("expected sat, got {other:?}"),
        }
        // Tighten until unsat: x + y + z = 10, x - y >= 2, z >= 6, y >= 2 → x>=4, sum >= 12
        let cs = vec![
            Constraint::eq(var(0).plus(&var(1)).plus(&var(2)), num(10)),
            Constraint::ge(var(0).minus(&var(1)), num(2)),
            Constraint::ge(var(2), num(6)),
            Constraint::ge(var(1), num(2)),
        ];
        assert_eq!(check(3, &cs), LiaResult::Unsat);
    }

    #[test]
    fn warm_tableau_answers_a_sequence_of_checks() {
        // The DPLL(T) usage pattern: many near-identical checks over the
        // same atoms against one tableau, verdicts matching from-scratch.
        let mut inc = IncrementalLia::new(2, Budget::default());
        let families: Vec<Vec<Constraint>> = vec![
            vec![
                Constraint::le(var(0).plus(&var(1)), num(5)),
                Constraint::ge(var(0), num(3)),
                Constraint::ge(var(1), num(3)),
            ],
            vec![
                Constraint::le(var(0).plus(&var(1)), num(5)),
                Constraint::ge(var(0), num(3)),
                Constraint::ge(var(1), num(2)),
            ],
            vec![
                Constraint::le(var(0).plus(&var(1)), num(5)),
                Constraint::ge(var(0), num(6)),
            ],
            vec![
                Constraint::eq(var(0), var(1)),
                Constraint::ge(var(0), num(1)),
                Constraint::le(var(1), num(0)),
            ],
            vec![Constraint::ge(var(0).minus(&var(1)), num(10))],
        ];
        for cs in &families {
            let warm = inc.check(cs);
            let cold = check(2, cs);
            assert_eq!(
                matches!(warm, LiaResult::Unsat),
                matches!(cold, LiaResult::Unsat),
                "verdict divergence on {cs:?}: warm {warm:?} vs cold {cold:?}"
            );
            if let LiaResult::Sat(m) = warm {
                assert!(cs.iter().all(|c| {
                    let v = c.expr.eval(&m);
                    match c.rel {
                        Rel::Le => v <= Rational::ZERO,
                        Rel::Eq => v.is_zero(),
                        Rel::Ge => v >= Rational::ZERO,
                    }
                }));
            }
        }
        assert_eq!(inc.warm_checks(), families.len() as u64 - 1);
        assert_eq!(inc.rebuilds(), 0);
    }

    #[test]
    fn popped_bounds_never_leak_into_the_next_check() {
        let mut inc = IncrementalLia::new(1, Budget::default());
        // x ≤ 3 is sat…
        assert!(matches!(
            inc.check(&[Constraint::le(var(0), num(3))]),
            LiaResult::Sat(_)
        ));
        // …and must not constrain the next check: x ≥ 4 alone is sat.
        assert!(matches!(
            inc.check(&[Constraint::ge(var(0), num(4))]),
            LiaResult::Sat(_)
        ));
        // An unsat check's bounds must not leak either.
        assert_eq!(
            inc.check(&[
                Constraint::ge(var(0), num(4)),
                Constraint::le(var(0), num(3)),
            ]),
            LiaResult::Unsat
        );
        assert!(matches!(
            inc.check(&[Constraint::ge(var(0), num(4))]),
            LiaResult::Sat(_)
        ));
    }

    #[test]
    fn warm_branch_and_bound_restores_branch_bounds() {
        let mut inc = IncrementalLia::new(1, Budget::default());
        // 2x = 1: rational-feasible, integer-infeasible — both branches
        // of the branch-and-bound run and both must unwind cleanly.
        let cs = vec![Constraint::eq(var(0).scaled(Rational::from_int(2)), num(1))];
        assert_eq!(inc.check(&cs), LiaResult::Unsat);
        // The tableau is still usable and unconstrained afterwards.
        let cs = vec![Constraint::eq(var(0).scaled(Rational::from_int(2)), num(4))];
        match inc.check(&cs) {
            LiaResult::Sat(m) => assert_eq!(m[&0], Rational::from_int(2)),
            other => panic!("expected sat, got {other:?}"),
        }
    }

    /// FNV-1a over the little-endian bytes of `word`, continuing from `hash`.
    fn fnv1a(hash: u64, word: u64) -> u64 {
        word.to_le_bytes().iter().fold(hash, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// One warm tableau per seed answers ten random checks over four
    /// shared linear combinations, as the checks of one DPLL(T) query
    /// share atoms. No check is `Unsat` where a brute force over the box
    /// `-6..=6`³ finds a model, decided verdicts agree with a fresh
    /// tableau's, every model satisfies its constraints, and after every
    /// check each basic variable's β equals its row evaluated at β. The
    /// verdicts, models, `pivots_saved()` and `warm_checks()` fold into a
    /// digest, so a kernel change that alters a pivot fails the pin even
    /// when every answer is still correct.
    #[test]
    fn a_reused_tableau_agrees_with_fresh_ones_and_keeps_its_decisions() {
        type Small = ([i64; 3], i64, Rel);
        let holds = |(coeffs, constant, rel): &Small, point: [i64; 3]| {
            let lhs = constant + (0..3).map(|i| coeffs[i] * point[i]).sum::<i64>();
            match rel {
                Rel::Le => lhs <= 0,
                Rel::Ge => lhs >= 0,
                Rel::Eq => lhs == 0,
            }
        };
        let box_has_model = |small: &[Small]| {
            let range = -6i64..=6;
            range.clone().any(|x| {
                range.clone().any(|y| {
                    range
                        .clone()
                        .any(|z| small.iter().all(|c| holds(c, [x, y, z])))
                })
            })
        };
        let mut digest = 0xcbf2_9ce4_8422_2325;
        for seed in 0..128 {
            let mut rng = Rng::new(seed);
            let combos: Vec<[i64; 3]> =
                (0..4).map(|_| [(); 3].map(|_| rng.int_in(-2, 2))).collect();
            let mut inc = IncrementalLia::new(3, Budget::default());
            for round in 0..10 {
                let small: Vec<Small> = (0..=rng.below(4))
                    .map(|_| {
                        let combo = combos[rng.below(4) as usize];
                        let rel = [Rel::Le, Rel::Ge, Rel::Eq][rng.below(3) as usize];
                        (combo, rng.int_in(-4, 4), rel)
                    })
                    .collect();
                let cs: Vec<Constraint> = small
                    .iter()
                    .map(|(coeffs, constant, rel)| {
                        let mut expr = num(*constant);
                        for (v, a) in coeffs.iter().enumerate() {
                            expr.add_scaled(&var(v), Rational::from_int(*a));
                        }
                        Constraint { expr, rel: *rel }
                    })
                    .collect();
                let warm = inc.check(&cs);
                let stale = inc.simplex.stale_basics();
                assert!(
                    stale.is_empty(),
                    "seed {seed}, round {round}: β of basic {stale:?} differs from its row"
                );
                if box_has_model(&small) {
                    assert!(
                        warm.possibly_sat(),
                        "seed {seed}, round {round}: Unsat, but the box has a model of {small:?}"
                    );
                }
                let fresh = check(3, &cs);
                if warm != LiaResult::Unknown && fresh != LiaResult::Unknown {
                    assert_eq!(
                        warm == LiaResult::Unsat,
                        fresh == LiaResult::Unsat,
                        "seed {seed}, round {round}: warm {warm:?}, fresh {fresh:?} on {small:?}"
                    );
                }
                match &warm {
                    LiaResult::Sat(model) => {
                        assert!(
                            cs.iter().all(|c| c.holds(model)),
                            "seed {seed}, round {round}: {model:?} violates {small:?}"
                        );
                        digest = fnv1a(digest, 1);
                        for value in model.values() {
                            digest = fnv1a(digest, value.floor() as u64);
                        }
                    }
                    LiaResult::Unsat => digest = fnv1a(digest, 0),
                    LiaResult::Unknown => digest = fnv1a(digest, 2),
                }
            }
            digest = fnv1a(digest, inc.pivots_saved());
            digest = fnv1a(digest, inc.warm_checks());
        }
        assert_eq!(
            format!("{digest:016x}"),
            "7696068bbd9a46e5",
            "a simplex decision changed: some verdict, model or pivot count differs from the pinned sweep"
        );
    }

    /// A check under an `exhausted` budget answers Unknown and marks the
    /// tableau untrusted (the "deadline-Unknowns are never cached" rule
    /// extends to tableau state); the next check under a live budget
    /// rebuilds and answers correctly, in both directions.
    fn truncated_check_poisons_then_rebuilds(exhausted: Budget) {
        let mut inc = IncrementalLia::new(1, Budget::default());
        // Warm the tableau with a normal check.
        assert!(matches!(
            inc.check(&[Constraint::ge(var(0), num(1))]),
            LiaResult::Sat(_)
        ));
        assert!(!inc.is_poisoned());
        inc.budget = exhausted;
        assert_eq!(
            inc.check(&[Constraint::ge(var(0), num(1))]),
            LiaResult::Unknown
        );
        assert!(inc.is_poisoned());
        inc.budget = Budget::default();
        assert_eq!(
            inc.check(&[
                Constraint::ge(var(0), num(4)),
                Constraint::le(var(0), num(3)),
            ]),
            LiaResult::Unsat
        );
        assert!(!inc.is_poisoned());
        assert_eq!(inc.rebuilds(), 1);
        assert!(matches!(
            inc.check(&[Constraint::le(var(0), num(0))]),
            LiaResult::Sat(_)
        ));
    }

    #[test]
    fn deadline_truncated_check_poisons_the_warm_tableau() {
        let past = std::time::Instant::now() - std::time::Duration::from_secs(1);
        truncated_check_poisons_then_rebuilds(Budget::default().until(past));
    }

    #[test]
    fn cancelled_check_poisons_the_warm_tableau() {
        let token = crate::cancel::CancellationToken::new();
        token.cancel();
        truncated_check_poisons_then_rebuilds(Budget::from(token));
    }
}
