//! The greatest-fixpoint Horn constraint solver (`Horn` / `Strengthen` of
//! Fig. 6), with the MUSFIX strengthening backend of Sec. 3.6 and a naive
//! breadth-first backend used for the paper's T-nmus ablation.
//!
//! The solver is *incremental*: local liquid type checking adds Horn
//! constraints one at a time (in an order where negative occurrences of an
//! unknown precede positive ones) and expects unsatisfiability — a type
//! error — to be detected as early as possible. Because several weakest
//! strengthenings may exist, the solver maintains a set of *candidate*
//! assignments and explores all alternatives, mirroring the behaviour
//! described in the paper.

use crate::unknowns::{Assignment, UnknownRegistry};
use std::collections::{BTreeMap, BTreeSet};
use synquid_logic::{QSpace, Substitution, Term, UnknownId};
use synquid_solver::{enumerate_mus_smt, Smt, SmtResult};

/// A Horn constraint `lhs ⇒ rhs`; both sides may mention predicate
/// unknowns (conjunctively).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HornConstraint {
    /// Antecedent.
    pub lhs: Term,
    /// Consequent.
    pub rhs: Term,
    /// Provenance string used in error messages.
    pub label: String,
}

impl HornConstraint {
    /// Creates a constraint.
    pub fn new(lhs: Term, rhs: Term, label: impl Into<String>) -> HornConstraint {
        HornConstraint {
            lhs,
            rhs,
            label: label.into(),
        }
    }
}

/// Which `Strengthen` implementation to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StrengthenBackend {
    /// MUS-enumeration-based strengthening (the paper's MUSFIX).
    #[default]
    Musfix,
    /// Naive breadth-first search over candidate subsets by increasing
    /// size (the baseline the paper compares against; expected to blow up
    /// on condition-abduction-heavy benchmarks).
    NaiveBfs,
}

/// Maximum number of alternative assignments kept alive.
const MAX_CANDIDATES: usize = 4;

/// Maximum subset size explored by the naive backend.
const BFS_MAX_SIZE: usize = 3;

/// Maximum number of subsets the naive backend examines per
/// strengthening step.
const BFS_MAX_SUBSETS: usize = 20_000;

/// Safety cap on fixpoint iterations per repair.
const MAX_ITERATIONS: usize = 200;

/// Error returned when the constraint system has no liquid solution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HornError {
    /// The label of the constraint that could not be satisfied.
    pub constraint: String,
}

impl std::fmt::Display for HornError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "no liquid assignment satisfies constraint: {}",
            self.constraint
        )
    }
}

impl std::error::Error for HornError {}

/// The incremental greatest-fixpoint solver.
#[derive(Debug, Clone)]
pub struct FixpointSolver {
    /// Registry of predicate unknowns (shared with the type checker).
    pub registry: UnknownRegistry,
    constraints: Vec<HornConstraint>,
    candidates: Vec<Assignment>,
    backend: StrengthenBackend,
}

impl Default for FixpointSolver {
    fn default() -> Self {
        FixpointSolver::new(StrengthenBackend::default())
    }
}

impl FixpointSolver {
    /// Creates a solver that strengthens with the given backend.
    pub fn new(backend: StrengthenBackend) -> FixpointSolver {
        FixpointSolver {
            registry: UnknownRegistry::new(),
            constraints: Vec::new(),
            candidates: vec![Assignment::top()],
            backend,
        }
    }

    /// Allocates a fresh predicate unknown.
    pub fn fresh_unknown(
        &mut self,
        name: impl Into<String>,
        qspace: QSpace,
        env_assumption: Term,
    ) -> UnknownId {
        self.registry.fresh(name, qspace, env_assumption)
    }

    /// The current (weakest known) assignment.
    pub fn assignment(&self) -> &Assignment {
        self.candidates
            .first()
            .expect("solver always keeps at least one candidate or has failed")
    }

    /// All currently viable candidate assignments.
    pub fn candidates(&self) -> &[Assignment] {
        &self.candidates
    }

    /// Applies the current assignment to a term (replacing unknowns by
    /// their valuations).
    pub fn apply(&self, term: &Term) -> Term {
        self.assignment().apply(&self.registry, term)
    }

    /// The constraints added so far.
    pub fn constraints(&self) -> &[HornConstraint] {
        &self.constraints
    }

    /// Adds a constraint and repairs the candidate assignments. Returns an
    /// error if no candidate can be strengthened to satisfy all constraints
    /// added so far — i.e. a type error has been detected.
    pub fn add_constraint(&mut self, c: HornConstraint, smt: &mut Smt) -> Result<(), HornError> {
        self.constraints.push(c.clone());
        let mut new_candidates = Vec::new();
        let candidates = std::mem::take(&mut self.candidates);
        for cand in candidates {
            // Fast path: if the new constraint already holds under this
            // candidate, the candidate is unchanged and the previously
            // satisfied constraints need not be re-verified.
            if self.constraint_holds(&cand, &c, smt) {
                if !new_candidates.contains(&cand) {
                    new_candidates.push(cand);
                }
                if new_candidates.len() >= MAX_CANDIDATES {
                    break;
                }
                continue;
            }
            let repaired = self.repair(cand, smt);
            for r in repaired {
                if !new_candidates.contains(&r) {
                    new_candidates.push(r);
                }
            }
            if new_candidates.len() >= MAX_CANDIDATES {
                break;
            }
        }
        new_candidates.truncate(MAX_CANDIDATES);
        if new_candidates.is_empty() {
            // Leave the solver in a usable (if failed) state for callers
            // that want to continue with a different program candidate.
            self.candidates = vec![Assignment::top()];
            self.constraints.pop();
            return Err(HornError {
                constraint: c.label,
            });
        }
        self.candidates = new_candidates;
        Ok(())
    }

    // -----------------------------------------------------------------
    // Fixpoint iteration
    // -----------------------------------------------------------------

    /// Repairs a single assignment with respect to all constraints,
    /// returning every (weakest) consistent strengthening that validates
    /// them, or an empty vector if none exists.
    fn repair(&mut self, start: Assignment, smt: &mut Smt) -> Vec<Assignment> {
        let mut worklist = vec![start];
        let mut results: Vec<Assignment> = Vec::new();
        let mut iterations = 0usize;
        while let Some(current) = worklist.pop() {
            iterations += 1;
            if iterations > MAX_ITERATIONS {
                break;
            }
            let violated = self
                .constraints
                .clone()
                .into_iter()
                .find(|c| !self.constraint_holds(&current, c, smt));
            match violated {
                None => {
                    if !results.contains(&current) {
                        results.push(current);
                    }
                    if results.len() >= MAX_CANDIDATES {
                        break;
                    }
                }
                Some(c) => {
                    let strengthened = self.strengthen(&current, &c, smt);
                    worklist.extend(strengthened);
                }
            }
        }
        results
    }

    fn constraint_holds(&self, l: &Assignment, c: &HornConstraint, smt: &mut Smt) -> bool {
        let lhs = l.apply(&self.registry, &c.lhs);
        let rhs = l.apply(&self.registry, &c.rhs);
        smt.entails(&lhs, &rhs)
    }

    /// One `Strengthen` step: all weakest consistent strengthenings of `l`
    /// that validate `c`.
    fn strengthen(&mut self, l: &Assignment, c: &HornConstraint, smt: &mut Smt) -> Vec<Assignment> {
        // The liquid-abduction phase: everything below an occurrence of
        // `strengthen` that is not a nested SMT/MUS span is charged to
        // `Abduction` (qualifier filtering, valuation bookkeeping, …).
        let _span = synquid_telemetry::span(synquid_telemetry::Phase::Abduction);
        // Occurrences of unknowns on the left-hand side, with their pending
        // substitutions.
        let occurrences = unknown_occurrences(&c.lhs);
        if occurrences.is_empty() {
            return Vec::new();
        }
        // Candidate atoms: for every occurrence, every atom of its space
        // that is not already selected, with the occurrence's substitution
        // applied.
        let mut soft: Vec<Term> = Vec::new();
        let mut tags: Vec<(UnknownId, usize)> = Vec::new();
        for (id, pending) in &occurrences {
            if !self.registry.contains(*id) {
                continue;
            }
            let selected = l.valuation(*id);
            let info = self.registry.info(*id);
            for (atom_idx, atom) in info.qspace.atoms().iter().enumerate() {
                if selected.contains(&atom_idx) {
                    continue;
                }
                soft.push(atom.substitute(pending));
                tags.push((*id, atom_idx));
            }
        }
        let lhs_applied = l.apply(&self.registry, &c.lhs);
        let rhs_applied = l.apply(&self.registry, &c.rhs);
        let background = lhs_applied;
        // The negated right-hand side participates in every MUS (the
        // MUSFIX modification of MARCO described in the paper) so that the
        // enumerator never returns a strengthening that is unsatisfiable on
        // its own.
        soft.push(rhs_applied.not());
        let required_idx = soft.len() - 1;
        let required: BTreeSet<usize> = [required_idx].into_iter().collect();

        let additions_sets: Vec<BTreeSet<usize>> = match self.backend {
            StrengthenBackend::Musfix => enumerate_mus_smt(smt, &background, &soft, &required)
                .into_iter()
                .map(|mus| mus.into_iter().filter(|i| *i != required_idx).collect())
                .filter(|s: &BTreeSet<usize>| !s.is_empty())
                .collect(),
            StrengthenBackend::NaiveBfs => {
                self.naive_strengthen(&background, &soft, required_idx, smt)
            }
        };

        // Prune semantically redundant alternatives: drop a strengthening
        // whose conjunction implies another one's (keep the weakest).
        let pruned = prune_redundant(&additions_sets, &soft, smt);

        let mut out = Vec::new();
        for additions in pruned {
            let mut grouped: BTreeMap<UnknownId, Vec<usize>> = BTreeMap::new();
            for idx in &additions {
                let (id, atom_idx) = tags[*idx];
                grouped.entry(id).or_default().push(atom_idx);
            }
            let mut next = l.clone();
            for (id, atoms) in &grouped {
                next.strengthen(*id, atoms.iter().copied());
            }
            // Consistency: each strengthened unknown's valuation must be
            // satisfiable together with its environment assumption.
            let consistent = grouped.keys().all(|id| {
                let info = self.registry.info(*id);
                let val = next.valuation_term(&self.registry, *id, &Substitution::new());
                smt.check_sat_conj(&[info.env_assumption.clone(), val]) != SmtResult::Unsat
            });
            if consistent && !out.contains(&next) {
                out.push(next);
            }
        }
        out
    }

    /// The naive breadth-first `Strengthen`: try all subsets of candidate
    /// atoms by increasing size.
    fn naive_strengthen(
        &mut self,
        background: &Term,
        soft: &[Term],
        required_idx: usize,
        smt: &mut Smt,
    ) -> Vec<BTreeSet<usize>> {
        let candidate_indices: Vec<usize> =
            (0..soft.len()).filter(|i| *i != required_idx).collect();
        let mut found: Vec<BTreeSet<usize>> = Vec::new();
        let mut examined = 0usize;
        for size in 1..=BFS_MAX_SIZE.min(candidate_indices.len()) {
            let mut subset_iter = SubsetIter::new(candidate_indices.len(), size);
            while let Some(subset) = subset_iter.next_subset() {
                examined += 1;
                if examined > BFS_MAX_SUBSETS {
                    return found;
                }
                let chosen: BTreeSet<usize> =
                    subset.iter().map(|i| candidate_indices[*i]).collect();
                // Skip supersets of already-found strengthenings (they are
                // not minimal).
                if found.iter().any(|f| f.is_subset(&chosen)) {
                    continue;
                }
                let mut formulas = vec![background.clone(), soft[required_idx].clone()];
                formulas.extend(chosen.iter().map(|i| soft[*i].clone()));
                if smt.check_sat_conj(&formulas) == SmtResult::Unsat {
                    found.push(chosen);
                }
            }
            if !found.is_empty() {
                // All strictly larger subsets are supersets of some found
                // one or weaker candidates; the paper's baseline also stops
                // at the first size that yields solutions.
                break;
            }
        }
        found
    }
}

/// Collects `(unknown, pending substitution)` occurrences in a term.
fn unknown_occurrences(t: &Term) -> Vec<(UnknownId, Substitution)> {
    let mut out: Vec<(UnknownId, Substitution)> = Vec::new();
    collect_occurrences(t, &mut out);
    out
}

fn collect_occurrences(t: &Term, out: &mut Vec<(UnknownId, Substitution)>) {
    match t {
        Term::Unknown(id, pending) if !out.iter().any(|(i, p)| i == id && p == pending) => {
            out.push((*id, pending.clone()));
        }
        Term::Unary(_, a) => collect_occurrences(a, out),
        Term::Binary(_, a, b) => {
            collect_occurrences(a, out);
            collect_occurrences(b, out);
        }
        Term::Ite(c, a, b) => {
            collect_occurrences(c, out);
            collect_occurrences(a, out);
            collect_occurrences(b, out);
        }
        Term::App(_, args, _) | Term::SetLit(_, args) => {
            for a in args {
                collect_occurrences(a, out);
            }
        }
        _ => {}
    }
}

/// Removes strengthenings that are semantically stronger than another
/// alternative (the MUSFIX redundancy pruning described in the paper).
fn prune_redundant(
    alternatives: &[BTreeSet<usize>],
    soft: &[Term],
    smt: &mut Smt,
) -> Vec<BTreeSet<usize>> {
    if alternatives.len() <= 1 || alternatives.len() > 8 {
        return alternatives.to_vec();
    }
    let conj = |s: &BTreeSet<usize>| Term::conjunction(s.iter().map(|i| soft[*i].clone()));
    let mut keep = vec![true; alternatives.len()];
    for i in 0..alternatives.len() {
        for j in 0..alternatives.len() {
            if i == j || !keep[i] || !keep[j] {
                continue;
            }
            // Drop i if it implies j (i is stronger / redundant), unless j
            // would also be dropped against i (equivalent sets: keep the
            // first).
            if smt.entails(&conj(&alternatives[i]), &conj(&alternatives[j]))
                && !(j < i && smt.entails(&conj(&alternatives[j]), &conj(&alternatives[i])))
                && alternatives[i] != alternatives[j]
            {
                keep[i] = false;
            }
        }
    }
    alternatives
        .iter()
        .zip(keep)
        .filter_map(|(a, k)| if k { Some(a.clone()) } else { None })
        .collect()
}

/// Iterator over all `size`-element subsets of `0..n` in lexicographic
/// order (used by the naive strengthening backend).
struct SubsetIter {
    n: usize,
    current: Vec<usize>,
    done: bool,
}

impl SubsetIter {
    fn new(n: usize, size: usize) -> SubsetIter {
        if size > n || size == 0 {
            return SubsetIter {
                n,
                current: Vec::new(),
                done: true,
            };
        }
        SubsetIter {
            n,
            current: (0..size).collect(),
            done: false,
        }
    }

    fn next_subset(&mut self) -> Option<Vec<usize>> {
        if self.done {
            return None;
        }
        let result = self.current.clone();
        // Advance.
        let k = self.current.len();
        let mut i = k;
        loop {
            if i == 0 {
                self.done = true;
                break;
            }
            i -= 1;
            if self.current[i] != i + self.n - k {
                self.current[i] += 1;
                for j in (i + 1)..k {
                    self.current[j] = self.current[j - 1] + 1;
                }
                break;
            }
        }
        Some(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synquid_logic::Sort;

    fn n() -> Term {
        Term::var("n", Sort::Int)
    }

    fn len_v() -> Term {
        let list = Sort::data("List", vec![Sort::var("a")]);
        Term::app("len", vec![Term::value_var(list)], Sort::Int)
    }

    fn replicate_qspace() -> QSpace {
        QSpace::from_atoms(vec![
            n().le(Term::int(0)),
            Term::int(0).le(n()),
            n().neq(Term::int(0)),
            Term::int(0).lt(n()),
        ])
    }

    #[test]
    fn subset_iterator_enumerates_all_combinations() {
        let mut it = SubsetIter::new(4, 2);
        let mut count = 0;
        while it.next_subset().is_some() {
            count += 1;
        }
        assert_eq!(count, 6);
        let mut it = SubsetIter::new(3, 0);
        assert!(it.next_subset().is_none());
    }

    #[test]
    fn valid_constraint_needs_no_strengthening() {
        let mut solver = FixpointSolver::default();
        let mut smt = Smt::new();
        let c = HornConstraint::new(n().ge(Term::int(1)), n().ge(Term::int(0)), "warmup");
        assert!(solver.add_constraint(c, &mut smt).is_ok());
        assert_eq!(solver.assignment(), &Assignment::top());
    }

    #[test]
    fn abduces_branch_condition_for_replicate_nil() {
        // Γ = n: Nat; P0  ⊢  {len ν = 0} <: {len ν = n}
        // Horn constraint: 0 ≤ n ∧ P0 ∧ len ν = 0 ⇒ len ν = n
        // Weakest strengthening of P0: n ≤ 0.
        let mut solver = FixpointSolver::default();
        let mut smt = Smt::new();
        let p0 = solver.fresh_unknown("P0", replicate_qspace(), Term::int(0).le(n()));
        let lhs = Term::int(0)
            .le(n())
            .and(Term::unknown(p0))
            .and(len_v().eq(Term::int(0)));
        let rhs = len_v().eq(n());
        solver
            .add_constraint(HornConstraint::new(lhs, rhs, "replicate-nil"), &mut smt)
            .expect("strengthening should succeed");
        let val = solver.apply(&Term::unknown(p0));
        // The abduced condition must entail n ≤ 0 (it may be exactly n ≤ 0).
        assert!(
            smt.entails(&val, &n().le(Term::int(0))),
            "got valuation {val}"
        );
        // And it must be consistent with 0 ≤ n.
        assert!(smt.check_sat_conj(&[Term::int(0).le(n()), val]) == SmtResult::Sat);
    }

    #[test]
    fn unsatisfiable_constraint_reports_error() {
        let mut solver = FixpointSolver::default();
        let mut smt = Smt::new();
        // No unknowns on the left: nothing to strengthen.
        let c = HornConstraint::new(n().ge(Term::int(0)), n().ge(Term::int(1)), "bad");
        let err = solver.add_constraint(c, &mut smt).unwrap_err();
        assert!(err.constraint.contains("bad"));
        // The solver remains usable afterwards.
        let ok = HornConstraint::new(n().ge(Term::int(1)), n().ge(Term::int(0)), "good");
        assert!(solver.add_constraint(ok, &mut smt).is_ok());
    }

    #[test]
    fn later_positive_occurrence_respects_earlier_strengthening() {
        // First: P0 must entail n ≤ 0 (negative occurrence).
        // Then: P0 appears positively and we check the already-strengthened
        // valuation still works; the incremental solver re-checks all
        // constraints.
        let mut solver = FixpointSolver::default();
        let mut smt = Smt::new();
        let p0 = solver.fresh_unknown("P0", replicate_qspace(), Term::int(0).le(n()));
        let c1 = HornConstraint::new(
            Term::int(0)
                .le(n())
                .and(Term::unknown(p0))
                .and(len_v().eq(Term::int(0))),
            len_v().eq(n()),
            "negative",
        );
        solver.add_constraint(c1, &mut smt).unwrap();
        // Now require that the valuation of P0 is implied by n ≤ -1 ∧ 0 ≤ n
        // (an inconsistent premise) and by n = 0; both hold for P0 = n ≤ 0.
        let c2 = HornConstraint::new(n().eq(Term::int(0)), Term::unknown(p0), "positive");
        assert!(solver.add_constraint(c2, &mut smt).is_ok());
    }

    #[test]
    fn positive_occurrence_can_fail() {
        let mut solver = FixpointSolver::default();
        let mut smt = Smt::new();
        let p0 = solver.fresh_unknown("P0", replicate_qspace(), Term::int(0).le(n()));
        let c1 = HornConstraint::new(
            Term::int(0)
                .le(n())
                .and(Term::unknown(p0))
                .and(len_v().eq(Term::int(0))),
            len_v().eq(n()),
            "negative",
        );
        solver.add_constraint(c1, &mut smt).unwrap();
        // n ≥ 5 does not imply n ≤ 0, and P0 cannot be weakened: error.
        let c2 = HornConstraint::new(n().ge(Term::int(5)), Term::unknown(p0), "positive-bad");
        assert!(solver.add_constraint(c2, &mut smt).is_err());
    }

    #[test]
    fn naive_backend_finds_the_same_condition() {
        let mut solver = FixpointSolver::new(StrengthenBackend::NaiveBfs);
        let mut smt = Smt::new();
        let p0 = solver.fresh_unknown("P0", replicate_qspace(), Term::int(0).le(n()));
        let lhs = Term::int(0)
            .le(n())
            .and(Term::unknown(p0))
            .and(len_v().eq(Term::int(0)));
        let rhs = len_v().eq(n());
        solver
            .add_constraint(HornConstraint::new(lhs, rhs, "replicate-nil"), &mut smt)
            .expect("strengthening should succeed");
        let val = solver.apply(&Term::unknown(p0));
        assert!(smt.entails(&val, &n().le(Term::int(0))));
    }

    #[test]
    fn pending_substitutions_are_respected_in_strengthening() {
        // P0 is created over ν but occurs as P0[m/ν]; the strengthening must
        // therefore be discovered through the substituted atoms.
        let mut solver = FixpointSolver::default();
        let mut smt = Smt::new();
        let space = QSpace::from_atoms(vec![
            Term::value_var(Sort::Int).ge(Term::int(0)),
            Term::value_var(Sort::Int).le(Term::int(0)),
        ]);
        let p0 = solver.fresh_unknown("P0", space, Term::tt());
        let m = Term::var("m", Sort::Int);
        let occurrence = Term::unknown(p0).substitute_value(&m);
        // P0[m/ν] ∧ m ≥ -3 ⇒ m ≤ 0: requires selecting the atom ν ≤ 0.
        let c = HornConstraint::new(
            occurrence.clone().and(m.clone().ge(Term::int(-3))),
            m.clone().le(Term::int(0)),
            "subst",
        );
        solver.add_constraint(c, &mut smt).unwrap();
        let val = solver.apply(&occurrence);
        assert!(smt.entails(&val, &m.le(Term::int(0))), "got {val}");
    }
}
