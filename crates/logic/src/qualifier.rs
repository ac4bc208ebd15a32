//! Logical qualifiers and liquid-formula spaces.
//!
//! A [`Qualifier`] is a boolean refinement term over *placeholder*
//! variables (written `?0`, `?1`, … here, `?` in the paper). Instantiating
//! a qualifier replaces each placeholder with a program variable (or the
//! value variable `ν`) of a compatible sort. A *liquid formula* is a
//! conjunction of such instantiated atoms; the finite set of atoms
//! available to a predicate unknown is its [`QSpace`].

use crate::sort::Sort;
use crate::term::Term;
use crate::Substitution;
use std::collections::BTreeSet;

/// Prefix used for placeholder variable names inside qualifiers.
pub const PLACEHOLDER_PREFIX: &str = "?";

/// A logical qualifier: a boolean term over placeholder variables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Qualifier {
    /// The qualifier body; free variables whose names start with
    /// [`PLACEHOLDER_PREFIX`] are placeholders, all others (including `ν`)
    /// are kept as-is during instantiation.
    pub body: Term,
}

impl Qualifier {
    /// Creates a qualifier from a term.
    pub fn new(body: Term) -> Qualifier {
        Qualifier { body }
    }

    /// A placeholder variable usable inside qualifier bodies.
    pub fn hole(index: usize, sort: Sort) -> Term {
        Term::var(format!("{PLACEHOLDER_PREFIX}{index}"), sort)
    }

    /// The standard qualifier set `{? ≤ ?, ? ≠ ?, ? < ?}` over a sort,
    /// which is what the paper's running examples use.
    pub fn standard(sort: Sort) -> Vec<Qualifier> {
        let a = || Qualifier::hole(0, sort.clone());
        let b = || Qualifier::hole(1, sort.clone());
        vec![
            Qualifier::new(a().le(b())),
            Qualifier::new(a().neq(b())),
            Qualifier::new(a().lt(b())),
        ]
    }

    /// The placeholders of this qualifier, in order of first occurrence.
    pub fn placeholders(&self) -> Vec<(String, Sort)> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        self.body.walk(&mut |t| {
            if let Term::Var(name, sort) = t {
                if name.starts_with(PLACEHOLDER_PREFIX) && seen.insert(name.clone()) {
                    out.push((name.clone(), sort.clone()));
                }
            }
        });
        out
    }

    /// Instantiates the qualifier with every assignment of the candidate
    /// terms to its placeholders such that sorts are compatible and
    /// distinct placeholders receive distinct candidates. Instantiations
    /// whose two operands are syntactically identical (e.g. `x ≤ x`) are
    /// dropped, as are duplicates.
    pub fn instantiate(&self, candidates: &[Term]) -> Vec<Term> {
        let holes = self.placeholders();
        if holes.is_empty() {
            return vec![self.body.clone()];
        }
        let mut results = Vec::new();
        let mut assignment: Vec<Option<Term>> = vec![None; holes.len()];
        self.instantiate_rec(&holes, candidates, 0, &mut assignment, &mut results);
        // Deduplicate while preserving order.
        let mut seen = BTreeSet::new();
        results.retain(|t| seen.insert(t.clone()));
        results
    }

    fn instantiate_rec(
        &self,
        holes: &[(String, Sort)],
        candidates: &[Term],
        idx: usize,
        assignment: &mut Vec<Option<Term>>,
        out: &mut Vec<Term>,
    ) {
        if idx == holes.len() {
            let mut subst = Substitution::new();
            for (i, (name, _)) in holes.iter().enumerate() {
                subst.insert(name.clone(), assignment[i].clone().expect("assigned"));
            }
            let inst = self.body.substitute(&subst);
            if !trivial(&inst) {
                out.push(inst);
            }
            return;
        }
        let (_, hole_sort) = &holes[idx];
        for cand in candidates {
            if !cand.sort().compatible(hole_sort) {
                continue;
            }
            if assignment[..idx].iter().any(|a| a.as_ref() == Some(cand)) {
                continue;
            }
            assignment[idx] = Some(cand.clone());
            self.instantiate_rec(holes, candidates, idx + 1, assignment, out);
            assignment[idx] = None;
        }
    }
}

/// Returns true for degenerate instantiations such as `x ≤ x` or `x == x`.
fn trivial(t: &Term) -> bool {
    match t {
        Term::Binary(_, a, b) => a == b,
        _ => false,
    }
}

/// The finite space of atomic formulas available to one predicate unknown.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QSpace {
    atoms: Vec<Term>,
}

impl QSpace {
    /// Builds a qualifier space by instantiating each qualifier with the
    /// given candidate terms (typically the environment variables in scope
    /// where the unknown was created, plus `ν`).
    pub fn build(qualifiers: &[Qualifier], candidates: &[Term]) -> QSpace {
        let mut atoms = Vec::new();
        let mut seen = BTreeSet::new();
        for q in qualifiers {
            for atom in q.instantiate(candidates) {
                if seen.insert(atom.clone()) {
                    atoms.push(atom);
                }
            }
        }
        QSpace { atoms }
    }

    /// Builds a qualifier space directly from a list of atoms.
    pub fn from_atoms(atoms: Vec<Term>) -> QSpace {
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        for atom in atoms {
            if seen.insert(atom.clone()) {
                out.push(atom);
            }
        }
        QSpace { atoms: out }
    }

    /// The atoms of this space.
    pub fn atoms(&self) -> &[Term] {
        &self.atoms
    }

    /// Number of atoms.
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// True if the space has no atoms.
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// Adds additional atoms, keeping the space duplicate-free.
    pub fn extend(&mut self, extra: impl IntoIterator<Item = Term>) {
        let existing: BTreeSet<Term> = self.atoms.iter().cloned().collect();
        for atom in extra {
            if !existing.contains(&atom) && !self.atoms.contains(&atom) {
                self.atoms.push(atom);
            }
        }
    }

    /// The conjunction of the atoms selected by `indices`.
    pub fn conjunction_of(&self, indices: &BTreeSet<usize>) -> Term {
        Term::conjunction(indices.iter().filter_map(|i| self.atoms.get(*i).cloned()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placeholders_in_order_of_occurrence() {
        let q = Qualifier::new(Qualifier::hole(0, Sort::Int).le(Qualifier::hole(1, Sort::Int)));
        let ph = q.placeholders();
        assert_eq!(ph.len(), 2);
        assert_eq!(ph[0].0, "?0");
        assert_eq!(ph[1].0, "?1");
    }

    #[test]
    fn instantiation_is_sort_directed_and_irreflexive() {
        let q = Qualifier::new(Qualifier::hole(0, Sort::Int).le(Qualifier::hole(1, Sort::Int)));
        let cands = vec![
            Term::var("x", Sort::Int),
            Term::var("y", Sort::Int),
            Term::var("b", Sort::Bool),
        ];
        let atoms = q.instantiate(&cands);
        // x<=y and y<=x only; b is filtered by sort; x<=x is trivial.
        assert_eq!(atoms.len(), 2);
        assert!(atoms.contains(&Term::var("x", Sort::Int).le(Term::var("y", Sort::Int))));
        assert!(atoms.contains(&Term::var("y", Sort::Int).le(Term::var("x", Sort::Int))));
    }

    #[test]
    fn qspace_deduplicates_across_qualifiers() {
        let q1 = Qualifier::new(Qualifier::hole(0, Sort::Int).le(Qualifier::hole(1, Sort::Int)));
        let q2 = Qualifier::new(Qualifier::hole(1, Sort::Int).le(Qualifier::hole(0, Sort::Int)));
        let cands = vec![Term::var("x", Sort::Int), Term::var("y", Sort::Int)];
        let space = QSpace::build(&[q1, q2], &cands);
        assert_eq!(space.len(), 2);
    }

    #[test]
    fn standard_qualifiers_cover_le_neq_lt() {
        let qs = Qualifier::standard(Sort::Int);
        assert_eq!(qs.len(), 3);
        let cands = vec![Term::var("n", Sort::Int), Term::int(0)];
        let space = QSpace::build(&qs, &cands);
        // n<=0, 0<=n, n!=0, n<0, 0<n (0!=n dedups against n!=0? no, they are
        // syntactically different) — just check a few key members.
        assert!(space
            .atoms()
            .contains(&Term::var("n", Sort::Int).le(Term::int(0))));
        assert!(space
            .atoms()
            .contains(&Term::int(0).lt(Term::var("n", Sort::Int))));
    }

    #[test]
    fn conjunction_of_selected_atoms() {
        let space = QSpace::from_atoms(vec![
            Term::var("x", Sort::Int).ge(Term::int(0)),
            Term::var("x", Sort::Int).le(Term::int(5)),
        ]);
        let mut sel = BTreeSet::new();
        sel.insert(0);
        sel.insert(1);
        let c = space.conjunction_of(&sel);
        assert_eq!(
            c,
            Term::var("x", Sort::Int)
                .ge(Term::int(0))
                .and(Term::var("x", Sort::Int).le(Term::int(5)))
        );
        assert!(space.conjunction_of(&BTreeSet::new()).is_true());
    }
}
