//! Typing environments `Γ` and the assumption extractor `⟦Γ⟧ψ`.

use crate::data::{Datatype, Datatypes, Measure};
use crate::ty::{BaseType, RType, Schema};
use std::collections::{BTreeMap, BTreeSet};
use synquid_logic::{QSpace, Qualifier, Sort, Term};

/// A typing environment: variable bindings, path conditions, datatype
/// declarations, and the logical qualifiers `Q` available for unknown
/// refinements and branch conditions.
#[derive(Debug, Clone, Default)]
pub struct Environment {
    vars: BTreeMap<String, Schema>,
    var_order: Vec<String>,
    path_conditions: Vec<Term>,
    datatypes: Datatypes,
    constructors: BTreeMap<String, String>, // constructor name -> datatype name
    measures: BTreeMap<String, Measure>,
    qualifiers: Vec<Qualifier>,
}

impl Environment {
    /// An empty environment.
    pub fn new() -> Environment {
        Environment::default()
    }

    // -----------------------------------------------------------------
    // Construction
    // -----------------------------------------------------------------

    /// Registers a datatype: its constructors become components (bound as
    /// ordinary variables) and its measures become known uninterpreted
    /// functions.
    pub fn add_datatype(&mut self, dt: Datatype) {
        for c in &dt.constructors {
            self.constructors.insert(c.name.clone(), dt.name.clone());
            self.add_var(c.name.clone(), c.schema.clone());
        }
        for m in &dt.measures {
            self.measures.insert(m.name.clone(), m.clone());
        }
        self.datatypes.insert(dt.name.clone(), dt);
    }

    /// Binds a variable (or component) with the given schema.
    pub fn add_var(&mut self, name: impl Into<String>, schema: impl Into<Schema>) {
        let name = name.into();
        if !self.vars.contains_key(&name) {
            self.var_order.push(name.clone());
        }
        self.vars.insert(name, schema.into());
    }

    /// Adds a path condition (which may contain predicate unknowns).
    pub fn add_path_condition(&mut self, cond: Term) {
        if !cond.is_true() {
            self.path_conditions.push(cond);
        }
    }

    /// Adds logical qualifiers to `Q`.
    pub fn add_qualifiers(&mut self, qs: impl IntoIterator<Item = Qualifier>) {
        self.qualifiers.extend(qs);
    }

    // -----------------------------------------------------------------
    // Lookup
    // -----------------------------------------------------------------

    /// Looks up a variable's schema.
    pub fn lookup(&self, name: &str) -> Option<&Schema> {
        self.vars.get(name)
    }

    /// True if the name is a datatype constructor.
    pub fn is_constructor(&self, name: &str) -> bool {
        self.constructors.contains_key(name)
    }

    /// Looks up a datatype declaration.
    pub fn datatype(&self, name: &str) -> Option<&Datatype> {
        self.datatypes.get(name)
    }

    /// All registered datatypes.
    pub fn datatypes(&self) -> &Datatypes {
        &self.datatypes
    }

    /// Looks up a measure by name.
    pub fn measure(&self, name: &str) -> Option<&Measure> {
        self.measures.get(name)
    }

    /// The measures defined on a datatype.
    pub fn measures_of(&self, datatype: &str) -> Vec<&Measure> {
        self.measures
            .values()
            .filter(|m| m.datatype == datatype)
            .collect()
    }

    /// The logical qualifiers `Q`.
    pub fn qualifiers(&self) -> &[Qualifier] {
        &self.qualifiers
    }

    /// Variable names in insertion order (components first, then locals).
    pub fn var_names(&self) -> &[String] {
        &self.var_order
    }

    /// The path conditions currently in force.
    pub fn path_conditions(&self) -> &[Term] {
        &self.path_conditions
    }

    /// All variables bound to scalar types, with their sorts.
    pub fn scalar_vars(&self) -> Vec<(String, Sort)> {
        self.var_order
            .iter()
            .filter_map(|name| {
                let schema = &self.vars[name];
                if !schema.is_monomorphic() {
                    return None;
                }
                match &schema.ty {
                    RType::Scalar { base, .. } => Some((name.clone(), base.sort())),
                    _ => None,
                }
            })
            .collect()
    }

    // -----------------------------------------------------------------
    // Logical content
    // -----------------------------------------------------------------

    /// The assumption extractor `⟦Γ⟧ψ` of the paper: the conjunction of all
    /// path conditions and of the refinements of every scalar variable
    /// that is (transitively) mentioned by the path conditions or by `ψ`.
    ///
    /// The result is deduplicated: see [`Environment::assumptions_counted`].
    pub fn assumptions(&self, relevant_to: &Term) -> Term {
        self.assumptions_counted(relevant_to).0
    }

    /// Like [`Environment::assumptions`], and additionally reports how
    /// many duplicate conjuncts were dropped.
    ///
    /// Transitive refinement collection re-derives the same atoms many
    /// times over: a variable's refinement is pulled in once per
    /// *mention*, nested match arms re-state the scrutinee facts their
    /// enclosing environment already carries, and measure non-negativity
    /// facts repeat per occurrence. Every duplicate conjunct inflates the
    /// SMT encoding (more atoms, quadratically more ordering axioms), so
    /// the extractor flattens all facts into atomic conjuncts and keeps
    /// only the first occurrence of each, in derivation order — the
    /// conjunction is logically unchanged.
    pub fn assumptions_counted(&self, relevant_to: &Term) -> (Term, usize) {
        let mut relevant: BTreeSet<String> = relevant_to.free_vars().keys().cloned().collect();
        for pc in &self.path_conditions {
            relevant.extend(pc.free_vars().keys().cloned());
        }
        let mut dedup = DedupConjunction::new();
        for pc in &self.path_conditions {
            dedup.push(pc);
        }
        let mut seen: BTreeSet<String> = BTreeSet::new();
        let mut worklist: Vec<String> = relevant.into_iter().collect();
        while let Some(name) = worklist.pop() {
            if !seen.insert(name.clone()) {
                continue;
            }
            let Some(schema) = self.vars.get(&name) else {
                continue;
            };
            if !schema.is_monomorphic() {
                continue;
            }
            if let RType::Scalar { .. } = &schema.ty {
                let fact = schema.ty.refinement_for(&name);
                if !fact.is_true() {
                    worklist.extend(fact.free_vars().keys().cloned());
                    dedup.push(&fact);
                }
            }
        }
        let body = Term::conjunction(dedup.conjuncts.iter().cloned());
        let nonneg = self.nonneg_measure_facts(&body.and(relevant_to.clone()));
        dedup.push(&nonneg);
        let dropped = dedup.dropped;
        (Term::conjunction(dedup.conjuncts), dropped)
    }

    /// All assumptions regardless of relevance (used as the environment
    /// assumption for liquid abduction consistency checks), deduplicated
    /// like [`Environment::assumptions_counted`].
    pub fn all_assumptions(&self) -> Term {
        let mut dedup = DedupConjunction::new();
        for pc in &self.path_conditions {
            dedup.push(pc);
        }
        for name in &self.var_order {
            let schema = &self.vars[name];
            if schema.is_monomorphic() && schema.ty.is_scalar() {
                let fact = schema.ty.refinement_for(name);
                if !fact.is_true() {
                    dedup.push(&fact);
                }
            }
        }
        Term::conjunction(dedup.conjuncts)
    }

    /// Non-negativity facts for termination measures: for every application
    /// `m t` occurring in `term` where `m` is declared non-negative, the
    /// fact `m t ≥ 0`.
    pub fn nonneg_measure_facts(&self, term: &Term) -> Term {
        let mut facts = Vec::new();
        let mut seen = BTreeSet::new();
        term.walk(&mut |t| {
            if let Term::App(name, _, Sort::Int) = t {
                if let Some(m) = self.measures.get(name) {
                    if m.non_negative && seen.insert(t.clone()) {
                        facts.push(t.clone().ge(Term::int(0)));
                    }
                }
            }
        });
        Term::conjunction(facts)
    }

    /// Equality of two datatype-sorted terms, expanded into measure
    /// equalities (datatype values are only observable through measures in
    /// the refinement logic).
    pub fn datatype_equality(&self, datatype: &str, lhs: Term, rhs: Term) -> Term {
        let mut eqs = vec![];
        for m in self.measures_of(datatype) {
            eqs.push(m.apply(lhs.clone()).eq(m.apply(rhs.clone())));
        }
        if eqs.is_empty() {
            lhs.eq(rhs)
        } else {
            Term::conjunction(eqs)
        }
    }

    /// The singleton type `{B | ν = x}` of a scalar variable lookup (rule
    /// VarSC), with datatype equalities expanded through measures.
    ///
    /// The variable's own refinement is retained in the result. For
    /// ordinary (monomorphic) variables this is redundant — their
    /// refinements are re-derivable through [`Environment::assumptions`] —
    /// but for instantiations of polymorphic bindings (most importantly
    /// nullary constructors such as `Nil`, whose type carries `len ν = 0`)
    /// the refinement exists only in the instantiated type, so dropping it
    /// here would lose the constructor's defining facts.
    pub fn singleton_type(&self, name: &str, ty: &RType) -> RType {
        match ty {
            RType::Scalar { base, refinement } => {
                let sort = base.sort();
                let equality = match base {
                    BaseType::Data(dt, _) => self.datatype_equality(
                        dt,
                        Term::value_var(sort.clone()),
                        Term::var(name, sort.clone()),
                    ),
                    _ => Term::value_var(sort.clone()).eq(Term::var(name, sort.clone())),
                };
                RType::Scalar {
                    base: base.clone(),
                    refinement: equality.and(refinement.clone()),
                }
            }
            other => other.clone(),
        }
    }

    /// Builds the qualifier space for a fresh predicate unknown whose value
    /// variable has the given sort (or no value variable for path
    /// conditions): every qualifier in `Q` instantiated with the scalar
    /// variables in scope (plus `ν` when a value sort is given, plus the
    /// literal `0`, which the paper's examples obtain from the `0`
    /// component).
    pub fn build_qspace(&self, value_sort: Option<Sort>) -> QSpace {
        let mut candidates: Vec<Term> = Vec::new();
        let has_value = value_sort.is_some();
        if let Some(s) = value_sort {
            candidates.push(Term::value_var(s));
        }
        for (name, sort) in self.scalar_vars() {
            // Skip function components bound in the environment (handled by
            // scalar_vars) and avoid duplicating ν.
            candidates.push(Term::var(name, sort));
        }
        candidates.push(Term::int(0));
        let mut space = QSpace::build(&self.qualifiers, &candidates);
        if !has_value {
            // Path conditions (liquid abduction) must not mention the value
            // variable; drop any atom that does.
            space = QSpace::from_atoms(
                space
                    .atoms()
                    .iter()
                    .filter(|a| !a.free_vars().contains_key(synquid_logic::VALUE_VAR))
                    .cloned()
                    .collect(),
            );
        }
        space
    }

    /// A copy of this environment with every path condition mapped
    /// through `f` (conditions that map to `true` are dropped). The
    /// synthesizer uses this to *concretize* an environment before
    /// memoized enumeration: path conditions containing predicate
    /// unknowns are replaced by their current valuations, so enumeration
    /// keys and generation-time checks never see another solver's
    /// unknowns.
    pub fn map_path_conditions(&self, f: impl Fn(&Term) -> Term) -> Environment {
        let mut out = self.clone();
        out.path_conditions = self
            .path_conditions
            .iter()
            .map(f)
            .filter(|t| !t.is_true())
            .collect();
        out
    }

    /// A canonical textual fingerprint of everything that can influence
    /// E-term enumeration in this environment: variable bindings (in
    /// order, with their full schemas), path conditions, qualifiers, and
    /// measure declarations. Two environments with equal fingerprints
    /// produce identical candidate sets, which is what makes the
    /// enumeration memo (`synquid-core`'s `EnumerationCache`) sound — the
    /// fingerprint is the cache key, so it must be collision-free, not
    /// merely collision-resistant; hence a full string rather than a
    /// hash.
    pub fn fingerprint(&self) -> String {
        use std::fmt::Write;
        let mut out = String::with_capacity(1024);
        for name in &self.var_order {
            let _ = write!(out, "v {name}:{};", self.vars[name]);
        }
        for pc in &self.path_conditions {
            let _ = write!(out, "p {pc};");
        }
        for q in &self.qualifiers {
            let _ = write!(out, "q {q:?};");
        }
        for (name, m) in &self.measures {
            let _ = write!(
                out,
                "m {name}:{}:{:?}:{};",
                m.datatype, m.result, m.non_negative
            );
        }
        out
    }

    /// Extracts additional qualifiers from a refinement type: every atomic
    /// conjunct of every refinement in the type becomes a qualifier in
    /// which program variables other than `ν` are abstracted into
    /// placeholders. This mirrors the paper's automatic extraction of
    /// qualifiers from the goal type and the component signatures.
    pub fn add_qualifiers_from_type(&mut self, ty: &RType) {
        let mut refinements = Vec::new();
        collect_refinements(ty, &mut refinements);
        for refinement in refinements {
            for atom in synquid_logic::simplify::conjuncts(&refinement) {
                if let Some(q) = abstract_atom(&atom) {
                    if !self.qualifiers.contains(&q) {
                        self.qualifiers.push(q);
                    }
                }
            }
        }
    }
}

/// An order-preserving conjunct accumulator: facts are flattened into
/// atomic conjuncts and only the first occurrence of each is kept.
struct DedupConjunction {
    conjuncts: Vec<Term>,
    seen: BTreeSet<Term>,
    dropped: usize,
}

impl DedupConjunction {
    fn new() -> DedupConjunction {
        DedupConjunction {
            conjuncts: Vec::new(),
            seen: BTreeSet::new(),
            dropped: 0,
        }
    }

    fn push(&mut self, fact: &Term) {
        for atom in synquid_logic::simplify::conjuncts(fact) {
            if atom.is_true() {
                continue;
            }
            if self.seen.insert(atom.clone()) {
                self.conjuncts.push(atom);
            } else {
                self.dropped += 1;
            }
        }
    }
}

fn collect_refinements(ty: &RType, out: &mut Vec<Term>) {
    match ty {
        RType::Scalar { base, refinement } => {
            if !refinement.is_true() {
                out.push(refinement.clone());
            }
            if let BaseType::Data(_, args) = base {
                for a in args {
                    collect_refinements(a, out);
                }
            }
        }
        RType::Function { arg, ret, .. } => {
            collect_refinements(arg, out);
            collect_refinements(ret, out);
        }
        _ => {}
    }
}

/// Abstracts an atomic refinement into a qualifier: free program variables
/// other than `ν` become placeholders (consistently per variable). Atoms
/// containing predicate unknowns are skipped.
fn abstract_atom(atom: &Term) -> Option<Qualifier> {
    if atom.has_unknowns() || atom.is_true() || atom.is_false() {
        return None;
    }
    let mut subst = synquid_logic::Substitution::new();
    let mut next = 0usize;
    for (name, sort) in atom.free_vars() {
        if name == synquid_logic::VALUE_VAR {
            continue;
        }
        subst.insert(name, Qualifier::hole(next, sort));
        next += 1;
    }
    Some(Qualifier::new(atom.substitute(&subst)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::list_datatype;

    fn int_var(name: &str) -> Term {
        Term::var(name, Sort::Int)
    }

    #[test]
    fn add_datatype_registers_constructors_and_measures() {
        let mut env = Environment::new();
        env.add_datatype(list_datatype());
        assert!(env.lookup("Nil").is_some());
        assert!(env.lookup("Cons").is_some());
        assert!(env.is_constructor("Nil"));
        assert!(env.measure("len").is_some());
        assert_eq!(env.measures_of("List").len(), 2);
    }

    #[test]
    fn assumptions_collect_transitive_refinements() {
        let mut env = Environment::new();
        env.add_var("n", RType::nat());
        env.add_var(
            "m",
            RType::refined(BaseType::Int, Term::value_var(Sort::Int).lt(int_var("n"))),
        );
        env.add_var("unrelated", RType::pos());
        // ψ mentions only m, but n's refinement is pulled in because m's
        // refinement mentions n; `unrelated` stays out.
        let psi = int_var("m").ge(Term::int(0));
        let assumptions = env.assumptions(&psi);
        let s = assumptions.to_string();
        assert!(s.contains("m < n"));
        assert!(s.contains("n >= 0"));
        assert!(!s.contains("unrelated"));
    }

    #[test]
    fn assumptions_deduplicate_conjuncts_of_a_nested_match_environment() {
        // The shape a nested match produces: the scrutinee's refinement is
        // re-stated as a path fact at every level, and the inner arm's
        // fact conjoins what the outer arm already established.
        let mut env = Environment::new();
        env.add_datatype(list_datatype());
        let list_sort = Sort::data("List", vec![Sort::Int]);
        let list_base = BaseType::Data("List".into(), vec![RType::int()]);
        let len = |t: Term| Term::app("len", vec![t], Sort::Int);
        let xs = Term::var("xs", list_sort.clone());
        let t = Term::var("t", list_sort.clone());
        env.add_var(
            "xs",
            RType::refined(
                list_base.clone(),
                len(Term::value_var(list_sort.clone())).ge(Term::int(1)),
            ),
        );
        env.add_var(
            "t",
            RType::refined(
                list_base,
                len(Term::value_var(list_sort.clone())).eq(len(xs.clone()).minus(Term::int(1))),
            ),
        );
        // Outer arm re-derives the scrutinee refinement; the inner arm
        // re-states it again together with its own fact.
        env.add_path_condition(len(xs.clone()).ge(Term::int(1)));
        env.add_path_condition(
            len(xs.clone())
                .ge(Term::int(1))
                .and(len(t.clone()).ge(Term::int(0))),
        );
        let (assumptions, dropped) = env.assumptions_counted(&len(t).ge(Term::int(0)));
        assert!(
            dropped >= 2,
            "the re-derived scrutinee facts must be dropped, got {dropped}"
        );
        let atoms = synquid_logic::simplify::conjuncts(&assumptions);
        let distinct: BTreeSet<&Term> = atoms.iter().collect();
        assert_eq!(
            atoms.len(),
            distinct.len(),
            "assumption conjuncts must be pairwise distinct: {assumptions}"
        );
    }

    #[test]
    fn path_conditions_are_always_included() {
        let mut env = Environment::new();
        env.add_var("n", RType::int());
        env.add_path_condition(int_var("n").le(Term::int(0)));
        let assumptions = env.assumptions(&Term::tt());
        assert!(assumptions.to_string().contains("n <= 0"));
    }

    #[test]
    fn nonneg_facts_for_termination_measures() {
        let mut env = Environment::new();
        env.add_datatype(list_datatype());
        let xs = Term::var("xs", Sort::data("List", vec![Sort::Int]));
        let t = Term::app("len", vec![xs], Sort::Int).eq(Term::int(0));
        let facts = env.nonneg_measure_facts(&t);
        assert!(facts.to_string().contains(">= 0"));
    }

    #[test]
    fn datatype_equality_expands_measures() {
        let mut env = Environment::new();
        env.add_datatype(list_datatype());
        let sort = Sort::data("List", vec![Sort::Int]);
        let eq = env.datatype_equality("List", Term::var("a", sort.clone()), Term::var("b", sort));
        let s = eq.to_string();
        assert!(s.contains("len a"));
        assert!(s.contains("elems b"));
    }

    #[test]
    fn qspace_uses_scalar_vars_and_value() {
        let mut env = Environment::new();
        env.add_qualifiers(Qualifier::standard(Sort::Int));
        env.add_var("n", RType::nat());
        env.add_var("f", RType::fun("x", RType::int(), RType::int()));
        let space = env.build_qspace(Some(Sort::Int));
        // Atoms relate ν and n; the function f contributes nothing.
        assert!(!space.is_empty());
        for atom in space.atoms() {
            assert!(!atom.to_string().contains('f'));
        }
    }

    #[test]
    fn singleton_type_for_datatype_uses_measures() {
        let mut env = Environment::new();
        env.add_datatype(list_datatype());
        let list_ty = RType::base(BaseType::Data("List".into(), vec![RType::int()]));
        let s = env.singleton_type("xs", &list_ty);
        let r = s.refinement().to_string();
        assert!(r.contains("len"), "expected measure equality, got {r}");
        assert!(r.contains("elems"), "expected measure equality, got {r}");
    }
}
