//! A CDCL SAT solver.
//!
//! This is the boolean engine of the SMT substrate: it is used both for the
//! propositional abstraction in the DPLL(T) loop and as the "map" solver of
//! the MARCO-style MUS enumerator. The implementation is a conventional
//! conflict-driven clause-learning solver with two-watched-literal
//! propagation, first-UIP clause learning, activity-based branching, and
//! solving under assumptions.
//!
//! Watch lists are indexed by literal code, and each clause stores the
//! two literals watching it, so the inner loop touches only the clauses
//! of the falsified literal and reads them in place.

/// A boolean variable, numbered from 0.
pub type BVar = usize;

/// A literal: a variable with a polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit {
    code: usize,
}

impl Lit {
    /// Positive literal of `v`.
    pub fn pos(v: BVar) -> Lit {
        Lit { code: v << 1 }
    }

    /// Negative literal of `v`.
    pub fn neg(v: BVar) -> Lit {
        Lit { code: (v << 1) | 1 }
    }

    /// Creates a literal with the given polarity.
    pub fn new(v: BVar, positive: bool) -> Lit {
        if positive {
            Lit::pos(v)
        } else {
            Lit::neg(v)
        }
    }

    /// The underlying variable.
    pub fn var(self) -> BVar {
        self.code >> 1
    }

    /// True if the literal is positive.
    pub fn is_pos(self) -> bool {
        self.code & 1 == 0
    }

    /// The complementary literal.
    pub fn negate(self) -> Lit {
        Lit {
            code: self.code ^ 1,
        }
    }

    fn index(self) -> usize {
        self.code
    }
}

/// Result of a SAT call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SatResult {
    /// Satisfiable; the model maps every variable to a boolean.
    Sat(Vec<bool>),
    /// Unsatisfiable (under the assumptions, when solving under some).
    Unsat,
}

impl SatResult {
    /// True if satisfiable.
    pub fn is_sat(&self) -> bool {
        matches!(self, SatResult::Sat(_))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Value {
    True,
    False,
    Unassigned,
}

/// A clause and the two literals watching it (the same literal twice for
/// a unit clause). The clause sits in exactly those literals' watch lists.
#[derive(Debug)]
struct Clause {
    lits: Vec<Lit>,
    watched: [Lit; 2],
}

/// The CDCL solver.
#[derive(Debug, Default)]
pub struct SatSolver {
    clauses: Vec<Clause>,
    watches: Vec<Vec<usize>>, // literal index -> clause ids watching it
    assignment: Vec<Value>,
    level: Vec<usize>,
    reason: Vec<Option<usize>>, // clause id that implied the assignment
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    activity: Vec<f64>,
    var_inc: f64,
    propagate_head: usize,
    has_empty_clause: bool,
}

impl SatSolver {
    /// Creates an empty solver.
    pub fn new() -> SatSolver {
        SatSolver {
            var_inc: 1.0,
            ..Default::default()
        }
    }

    /// Number of variables allocated so far.
    pub fn num_vars(&self) -> usize {
        self.assignment.len()
    }

    /// Allocates a fresh variable and returns it.
    pub fn new_var(&mut self) -> BVar {
        let v = self.assignment.len();
        self.assignment.push(Value::Unassigned);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.watches.extend([Vec::new(), Vec::new()]);
        v
    }

    /// Ensures at least `n` variables exist.
    pub fn reserve_vars(&mut self, n: usize) {
        while self.num_vars() < n {
            self.new_var();
        }
    }

    /// Adds a clause (a disjunction of literals). The empty clause makes
    /// the instance trivially unsatisfiable.
    pub fn add_clause(&mut self, mut lits: Vec<Lit>) {
        lits.sort();
        lits.dedup();
        // A clause containing both x and ¬x is a tautology.
        for w in lits.windows(2) {
            if w[0].var() == w[1].var() {
                return;
            }
        }
        if lits.is_empty() {
            self.has_empty_clause = true;
            return;
        }
        for l in &lits {
            self.reserve_vars(l.var() + 1);
        }
        self.attach(lits);
    }

    /// Stores a non-empty clause watched by its first two literals (or
    /// its single literal).
    fn attach(&mut self, lits: Vec<Lit>) {
        let id = self.clauses.len();
        let watched = [lits[0], *lits.get(1).unwrap_or(&lits[0])];
        self.watches[watched[0].index()].push(id);
        if watched[1] != watched[0] {
            self.watches[watched[1].index()].push(id);
        }
        self.clauses.push(Clause { lits, watched });
    }

    fn value(&self, l: Lit) -> Value {
        match self.assignment[l.var()] {
            Value::Unassigned => Value::Unassigned,
            Value::True => {
                if l.is_pos() {
                    Value::True
                } else {
                    Value::False
                }
            }
            Value::False => {
                if l.is_pos() {
                    Value::False
                } else {
                    Value::True
                }
            }
        }
    }

    fn decision_level(&self) -> usize {
        self.trail_lim.len()
    }

    /// Makes the unassigned literal `l` true at the current decision level.
    fn enqueue(&mut self, l: Lit, reason: Option<usize>) {
        debug_assert_eq!(self.value(l), Value::Unassigned);
        self.assignment[l.var()] = if l.is_pos() {
            Value::True
        } else {
            Value::False
        };
        self.level[l.var()] = self.decision_level();
        self.reason[l.var()] = reason;
        self.trail.push(l);
    }

    /// Unit propagation; returns the id of a conflicting clause, if any.
    fn propagate(&mut self) -> Option<usize> {
        while self.propagate_head < self.trail.len() {
            let falsified = self.trail[self.propagate_head].negate();
            self.propagate_head += 1;
            // No watch moves onto `falsified` (a new watch is unassigned),
            // so its list can be taken out and compacted in place.
            let mut watching = std::mem::take(&mut self.watches[falsified.index()]);
            let mut kept = 0;
            let mut conflict = None;
            for i in 0..watching.len() {
                let cid = watching[i];
                if conflict.is_some() || self.visit(cid, falsified, &mut conflict) {
                    watching[kept] = cid;
                    kept += 1;
                }
            }
            watching.truncate(kept);
            self.watches[falsified.index()] = watching;
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    /// Visits clause `cid` after its watched literal `falsified` became
    /// false. A clause with a true literal is left alone; otherwise the
    /// watch moves to the first unwatched unassigned literal, or the
    /// clause propagates its one unassigned literal, or it is the
    /// conflict. Returns false when the watch moved off `falsified`.
    fn visit(&mut self, cid: usize, falsified: Lit, conflict: &mut Option<usize>) -> bool {
        let clause = &self.clauses[cid];
        let [w0, w1] = clause.watched;
        let other = if w0 == falsified { w1 } else { w0 };
        let mut new_watch = None;
        let mut unassigned = None;
        for &cl in &clause.lits {
            if cl == falsified {
                continue;
            }
            match self.value(cl) {
                Value::True => return true,
                Value::Unassigned => {
                    unassigned = unassigned.or(Some(cl));
                    if new_watch.is_none() && cl != other {
                        new_watch = Some(cl);
                    }
                }
                Value::False => {}
            }
        }
        match (new_watch, unassigned) {
            (Some(nw), _) => {
                self.clauses[cid].watched = [other, nw];
                self.watches[nw.index()].push(cid);
                return false;
            }
            (None, Some(unit)) => {
                self.enqueue(unit, Some(cid));
            }
            (None, None) => *conflict = Some(cid),
        }
        true
    }

    fn bump(&mut self, v: BVar) {
        self.activity[v] += self.var_inc;
        if self.activity[v] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
    }

    /// First-UIP conflict analysis. Returns the learned clause and the
    /// backtrack level.
    fn analyze(&mut self, conflict: usize) -> (Vec<Lit>, usize) {
        let mut learned: Vec<Lit> = Vec::new();
        let mut seen = vec![false; self.num_vars()];
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut clause_id = conflict;
        let mut trail_idx = self.trail.len();

        loop {
            for k in 0..self.clauses[clause_id].lits.len() {
                let q = self.clauses[clause_id].lits[k];
                if Some(q) == p {
                    continue;
                }
                let v = q.var();
                if !seen[v] && self.level[v] > 0 {
                    seen[v] = true;
                    self.bump(v);
                    if self.level[v] == self.decision_level() {
                        counter += 1;
                    } else {
                        learned.push(q);
                    }
                }
            }
            // Select next literal from the trail to resolve on.
            loop {
                trail_idx -= 1;
                let l = self.trail[trail_idx];
                if seen[l.var()] {
                    p = Some(l);
                    break;
                }
            }
            let pv = p.unwrap().var();
            seen[pv] = false;
            counter -= 1;
            if counter == 0 {
                break;
            }
            clause_id = self.reason[pv].expect("non-decision literal must have a reason");
        }
        let uip = p.unwrap().negate();
        learned.push(uip);
        // Backtrack level: second-highest level in the learned clause.
        let mut bt = 0;
        for &l in &learned {
            if l != uip {
                bt = bt.max(self.level[l.var()]);
            }
        }
        // Put the UIP literal first so it is watched and immediately unit.
        let n = learned.len();
        learned.swap(0, n - 1);
        (learned, bt)
    }

    fn backtrack(&mut self, level: usize) {
        while let Some(&l) = self.trail.last() {
            if self.level[l.var()] <= level {
                break;
            }
            self.assignment[l.var()] = Value::Unassigned;
            self.reason[l.var()] = None;
            self.trail.pop();
        }
        self.trail_lim.truncate(level);
        self.propagate_head = self.trail.len();
    }

    fn decide(&mut self) -> Option<Lit> {
        let mut best: Option<(f64, BVar)> = None;
        for v in 0..self.num_vars() {
            if matches!(self.assignment[v], Value::Unassigned) {
                let a = self.activity[v];
                if best.map(|(ba, _)| a > ba).unwrap_or(true) {
                    best = Some((a, v));
                }
            }
        }
        best.map(|(_, v)| Lit::neg(v))
    }

    /// Solves the current clause set.
    pub fn solve(&mut self) -> SatResult {
        self.solve_with_assumptions(&[])
    }

    /// Solves under the given assumption literals.
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> SatResult {
        if self.has_empty_clause {
            return SatResult::Unsat;
        }
        for l in assumptions {
            self.reserve_vars(l.var() + 1);
        }
        // Reset transient state.
        self.backtrack(0);
        for v in 0..self.num_vars() {
            if self.level[v] > 0 {
                self.assignment[v] = Value::Unassigned;
            }
        }
        self.trail.retain(|l| {
            matches!(
                (l.is_pos(), &self.assignment[l.var()]),
                (true, Value::True) | (false, Value::False)
            )
        });
        self.propagate_head = 0;

        if self.propagate().is_some() {
            return SatResult::Unsat;
        }

        // Each assumption not yet true becomes a pseudo-decision at its own
        // level; while only assumptions are decided, a conflict refutes them.
        for &a in assumptions {
            match self.value(a) {
                Value::True => {}
                // The assumptions contradict each other or the clauses.
                Value::False => return SatResult::Unsat,
                Value::Unassigned => {
                    self.trail_lim.push(self.trail.len());
                    self.enqueue(a, None);
                    if self.propagate().is_some() {
                        return SatResult::Unsat;
                    }
                }
            }
        }
        // Levels `1..=assumed` hold the assumptions. An assumption that was
        // already true opened none, so this can be fewer than
        // `assumptions.len()`. The search never backtracks below them.
        let assumed = self.decision_level();

        loop {
            match self.decide() {
                None => {
                    let model = self
                        .assignment
                        .iter()
                        .map(|v| matches!(v, Value::True))
                        .collect();
                    return SatResult::Sat(model);
                }
                Some(d) => {
                    self.trail_lim.push(self.trail.len());
                    self.enqueue(d, None);
                }
            }

            while let Some(conflict) = self.propagate() {
                // A conflict with no free decision on the trail.
                if self.decision_level() <= assumed {
                    return SatResult::Unsat;
                }
                self.var_inc *= 1.05;
                let (learned, bt) = self.analyze(conflict);
                self.backtrack(bt.max(assumed));
                let unit = learned[0];
                self.attach(learned);
                self.enqueue_learned(unit);
            }
        }
    }

    fn enqueue_learned(&mut self, unit: Lit) {
        if matches!(self.value(unit), Value::Unassigned) {
            let cid = self.clauses.len() - 1;
            self.enqueue(unit, Some(cid));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(v: usize, pos: bool) -> Lit {
        Lit::new(v, pos)
    }

    #[test]
    fn empty_instance_is_sat() {
        let mut s = SatSolver::new();
        assert!(s.solve().is_sat());
    }

    #[test]
    fn unit_clauses_propagate() {
        let mut s = SatSolver::new();
        s.add_clause(vec![lit(0, true)]);
        s.add_clause(vec![lit(0, false), lit(1, true)]);
        match s.solve() {
            SatResult::Sat(m) => {
                assert!(m[0]);
                assert!(m[1]);
            }
            _ => panic!("expected sat"),
        }
    }

    #[test]
    fn simple_unsat() {
        let mut s = SatSolver::new();
        s.add_clause(vec![lit(0, true)]);
        s.add_clause(vec![lit(0, false)]);
        assert!(!s.solve().is_sat());
    }

    #[test]
    fn requires_search_and_learning() {
        // Pigeonhole-ish: (a∨b) ∧ (¬a∨c) ∧ (¬b∨c) ∧ ¬c is unsat.
        let mut s = SatSolver::new();
        s.add_clause(vec![lit(0, true), lit(1, true)]);
        s.add_clause(vec![lit(0, false), lit(2, true)]);
        s.add_clause(vec![lit(1, false), lit(2, true)]);
        s.add_clause(vec![lit(2, false)]);
        assert!(!s.solve().is_sat());
    }

    #[test]
    fn satisfiable_3sat_instance() {
        let mut s = SatSolver::new();
        // (x0 ∨ x1 ∨ x2) ∧ (¬x0 ∨ ¬x1) ∧ (¬x1 ∨ ¬x2) ∧ (¬x0 ∨ ¬x2)
        s.add_clause(vec![lit(0, true), lit(1, true), lit(2, true)]);
        s.add_clause(vec![lit(0, false), lit(1, false)]);
        s.add_clause(vec![lit(1, false), lit(2, false)]);
        s.add_clause(vec![lit(0, false), lit(2, false)]);
        match s.solve() {
            SatResult::Sat(m) => {
                let count = [m[0], m[1], m[2]].iter().filter(|b| **b).count();
                assert_eq!(count, 1, "exactly one variable should be true");
            }
            _ => panic!("expected sat"),
        }
    }

    #[test]
    fn assumptions_flip_result() {
        let mut s = SatSolver::new();
        s.add_clause(vec![lit(0, true), lit(1, true)]);
        // Assume both false: unsat under assumptions, sat without.
        assert!(s.solve().is_sat());
        let r = s.solve_with_assumptions(&[lit(0, false), lit(1, false)]);
        assert!(!r.is_sat());
        let r = s.solve_with_assumptions(&[lit(0, false)]);
        assert!(r.is_sat());
    }

    #[test]
    fn model_respects_assumptions() {
        let mut s = SatSolver::new();
        s.add_clause(vec![lit(0, true), lit(1, true), lit(2, true)]);
        match s.solve_with_assumptions(&[lit(0, false), lit(1, false)]) {
            SatResult::Sat(m) => {
                assert!(!m[0]);
                assert!(!m[1]);
                assert!(m[2]);
            }
            _ => panic!("expected sat"),
        }
    }

    #[test]
    fn tautological_clauses_are_ignored() {
        let mut s = SatSolver::new();
        s.add_clause(vec![lit(0, true), lit(0, false)]);
        s.add_clause(vec![lit(1, true)]);
        assert!(s.solve().is_sat());
    }

    #[test]
    fn larger_random_like_instance() {
        // A chain of implications x0 -> x1 -> ... -> x9 plus x0, ¬x9 is unsat.
        let mut s = SatSolver::new();
        for i in 0..9 {
            s.add_clause(vec![lit(i, false), lit(i + 1, true)]);
        }
        s.add_clause(vec![lit(0, true)]);
        s.add_clause(vec![lit(9, false)]);
        assert!(!s.solve().is_sat());

        let mut s = SatSolver::new();
        for i in 0..9 {
            s.add_clause(vec![lit(i, false), lit(i + 1, true)]);
        }
        s.add_clause(vec![lit(0, true)]);
        assert!(s.solve().is_sat());
    }
}
