//! Predicate unknowns and liquid assignments.
//!
//! A *predicate unknown* `P_i` stands for an as-yet-undetermined refinement
//! or path condition. Its possible valuations are *liquid formulas*:
//! conjunctions of atoms drawn from the unknown's qualifier space
//! ([`QSpace`]), which was instantiated from the logical qualifiers `Q` in
//! the environment where the unknown was created.

use std::collections::{BTreeMap, BTreeSet};
use synquid_logic::{QSpace, Substitution, Term, UnknownId};

/// Metadata about one predicate unknown.
#[derive(Debug, Clone)]
pub struct UnknownInfo {
    /// The unknown's identifier (as used in [`Term::Unknown`]).
    pub id: UnknownId,
    /// Human-readable provenance (e.g. `"P3 <- cond of branch in replicate"`).
    pub name: String,
    /// The atoms this unknown's valuation may conjoin.
    pub qspace: QSpace,
    /// The logical assumptions of the environment in which the unknown was
    /// created; a valuation is *consistent* iff it is satisfiable together
    /// with this assumption (used by liquid abduction to discard
    /// contradictory path conditions).
    pub env_assumption: Term,
}

/// Registry of all predicate unknowns created during one synthesis /
/// type-checking problem.
#[derive(Debug, Clone, Default)]
pub struct UnknownRegistry {
    infos: BTreeMap<UnknownId, UnknownInfo>,
    next: UnknownId,
}

impl UnknownRegistry {
    /// Creates an empty registry.
    pub fn new() -> UnknownRegistry {
        UnknownRegistry::default()
    }

    /// Allocates a fresh unknown with the given qualifier space and
    /// environment assumption.
    pub fn fresh(
        &mut self,
        name: impl Into<String>,
        qspace: QSpace,
        env_assumption: Term,
    ) -> UnknownId {
        let id = self.next;
        self.next += 1;
        self.infos.insert(
            id,
            UnknownInfo {
                id,
                name: name.into(),
                qspace,
                env_assumption,
            },
        );
        id
    }

    /// Looks up an unknown.
    ///
    /// # Panics
    /// Panics if the unknown was not created by this registry.
    pub fn info(&self, id: UnknownId) -> &UnknownInfo {
        self.infos
            .get(&id)
            .unwrap_or_else(|| panic!("unknown P{id} not registered"))
    }

    /// True if the registry knows this unknown.
    pub fn contains(&self, id: UnknownId) -> bool {
        self.infos.contains_key(&id)
    }

    /// Number of registered unknowns.
    pub fn len(&self) -> usize {
        self.infos.len()
    }

    /// True if no unknowns have been created.
    pub fn is_empty(&self) -> bool {
        self.infos.is_empty()
    }

    /// Iterates over all unknowns.
    pub fn iter(&self) -> impl Iterator<Item = &UnknownInfo> {
        self.infos.values()
    }
}

/// A liquid assignment `L`: a valuation (set of selected qualifier-space
/// atoms) for every predicate unknown. Unknowns that have no entry are
/// implicitly mapped to the empty conjunction `⊤` — the weakest valuation,
/// which is where the greatest-fixpoint iteration starts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Assignment {
    valuations: BTreeMap<UnknownId, BTreeSet<usize>>,
}

impl Assignment {
    /// The empty (all-`⊤`) assignment.
    pub fn top() -> Assignment {
        Assignment::default()
    }

    /// The selected atom indices for an unknown (empty = `⊤`).
    pub fn valuation(&self, id: UnknownId) -> BTreeSet<usize> {
        self.valuations.get(&id).cloned().unwrap_or_default()
    }

    /// Adds atoms to an unknown's valuation (strengthening it).
    pub fn strengthen(&mut self, id: UnknownId, atoms: impl IntoIterator<Item = usize>) {
        self.valuations.entry(id).or_default().extend(atoms);
    }

    /// The valuation of an unknown as a formula, with a pending
    /// substitution applied.
    pub fn valuation_term(
        &self,
        registry: &UnknownRegistry,
        id: UnknownId,
        pending: &Substitution,
    ) -> Term {
        let info = registry.info(id);
        let conj = info.qspace.conjunction_of(&self.valuation(id));
        conj.substitute(pending)
    }

    /// Replaces every unknown occurrence in `term` by its valuation under
    /// this assignment (the `⟦ψ⟧L` operation of the paper).
    pub fn apply(&self, registry: &UnknownRegistry, term: &Term) -> Term {
        term.apply_unknowns(&|id, pending| self.valuation_term(registry, id, pending))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synquid_logic::{Sort, VALUE_VAR};

    fn simple_registry() -> (UnknownRegistry, UnknownId) {
        let mut reg = UnknownRegistry::new();
        let n = Term::var("n", Sort::Int);
        let space = QSpace::from_atoms(vec![
            n.clone().le(Term::int(0)),
            Term::int(0).lt(n.clone()),
            Term::value_var(Sort::Int).ge(Term::int(0)),
        ]);
        let id = reg.fresh("P0", space, Term::tt());
        (reg, id)
    }

    #[test]
    fn fresh_unknowns_get_distinct_ids() {
        let mut reg = UnknownRegistry::new();
        let a = reg.fresh("a", QSpace::default(), Term::tt());
        let b = reg.fresh("b", QSpace::default(), Term::tt());
        assert_ne!(a, b);
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn top_assignment_maps_unknowns_to_true() {
        let (reg, id) = simple_registry();
        let l = Assignment::top();
        let t = l.apply(&reg, &Term::unknown(id));
        assert!(t.is_true());
    }

    #[test]
    fn strengthened_valuation_is_a_conjunction() {
        let (reg, id) = simple_registry();
        let mut l = Assignment::top();
        l.strengthen(id, [0, 2]);
        let t = l.apply(&reg, &Term::unknown(id));
        let n = Term::var("n", Sort::Int);
        assert_eq!(
            t,
            n.le(Term::int(0))
                .and(Term::value_var(Sort::Int).ge(Term::int(0)))
        );
    }

    #[test]
    fn pending_substitution_is_applied_to_valuation() {
        let (reg, id) = simple_registry();
        let mut l = Assignment::top();
        l.strengthen(id, [2]);
        // P0[x/ν] where the valuation contains ν ≥ 0 becomes x ≥ 0.
        let occurrence = Term::unknown(id).substitute_value(&Term::var("x", Sort::Int));
        let t = l.apply(&reg, &occurrence);
        assert_eq!(t, Term::var("x", Sort::Int).ge(Term::int(0)));
        let _ = VALUE_VAR;
    }
}
