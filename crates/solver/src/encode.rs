//! Encoding of refinement formulas into the solver's internal form.
//!
//! The pipeline turns an arbitrary quantifier-free [`Term`] of the
//! refinement logic into a propositional skeleton over *theory atoms*:
//!
//! 1. **normalize** — constant folding, `ite` elimination, boolean
//!    equality → bi-implication;
//! 2. **set elimination** — the ground theory of finite sets (union,
//!    intersection, difference, singletons, membership, subset, equality)
//!    is reduced to boolean membership atoms over the *relevant element
//!    terms* plus one fresh witness element per negative extensionality
//!    atom (a standard finite-witnessing argument: the reduction is
//!    equisatisfiable for this fragment);
//! 3. **atomization** — integer-modelled equalities are split into `≤ ∧ ≥`
//!    and disequalities into `< ∨ >`, so every remaining theory atom is a
//!    single linear comparison or an opaque boolean atom;
//! 4. **purification / Ackermannization** — applications of uninterpreted
//!    functions (measures, membership predicates) are replaced by fresh
//!    variables and functional-consistency clauses are added for every
//!    pair of applications of the same symbol.
//!
//! The result is an [`Encoded`] problem: a boolean skeleton whose leaves
//! index into a table of [`TheoryAtom`]s, ready for the DPLL(T) loop in
//! [`crate::smt`].

use crate::lia::{Constraint, LinExpr, Rel, VarId};
use crate::rational::Rational;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, OnceLock};
use synquid_logic::simplify::{eliminate_ite, fold_constants, nnf};
use synquid_logic::{BinOp, Sort, Term, UnOp};

/// A propositional skeleton over theory atoms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Skeleton {
    /// The constant true.
    True,
    /// The constant false.
    False,
    /// A literal: an atom index with a polarity.
    Lit(usize, bool),
    /// Conjunction.
    And(Vec<Skeleton>),
    /// Disjunction.
    Or(Vec<Skeleton>),
}

impl Skeleton {
    fn and(items: Vec<Skeleton>) -> Skeleton {
        let mut out = Vec::new();
        for i in items {
            match i {
                Skeleton::True => {}
                Skeleton::False => return Skeleton::False,
                Skeleton::And(xs) => out.extend(xs),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => Skeleton::True,
            1 => out.pop().unwrap(),
            _ => Skeleton::And(out),
        }
    }

    fn or(items: Vec<Skeleton>) -> Skeleton {
        let mut out = Vec::new();
        for i in items {
            match i {
                Skeleton::False => {}
                Skeleton::True => return Skeleton::True,
                Skeleton::Or(xs) => out.extend(xs),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => Skeleton::False,
            1 => out.pop().unwrap(),
            _ => Skeleton::Or(out),
        }
    }
}

/// A theory atom referenced from the skeleton.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TheoryAtom {
    /// A linear comparison over the integer-modelled arithmetic variables.
    Compare(Comparison),
    /// An opaque boolean atom (a boolean variable or a purified boolean
    /// application such as a set-membership predicate).
    Opaque,
}

/// A comparison `lhs ⋈ rhs`, `⋈ ∈ {≤, <, ≥, >}`, in the one form that the
/// LIA constraints, the bound axioms and the lemma keys read: `diff ⋈ 0`
/// with `diff = lhs − rhs`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comparison {
    /// `lhs − rhs`.
    pub(crate) diff: LinExpr,
    /// `≤` or `<` when true, `≥` or `>` when false.
    pub(crate) upper: bool,
    /// `<` or `>` when true.
    pub(crate) strict: bool,
}

impl Comparison {
    fn new(op: BinOp, lhs: &LinExpr, rhs: &LinExpr) -> Comparison {
        let (upper, strict) = match op {
            BinOp::Le => (true, false),
            BinOp::Lt => (true, true),
            BinOp::Ge => (false, false),
            BinOp::Gt => (false, true),
            _ => unreachable!("comparison atoms are only ≤ < ≥ >"),
        };
        Comparison {
            diff: lhs.minus(rhs),
            upper,
            strict,
        }
    }

    /// The LIA constraint of the comparison or, unless `positive`, of its
    /// negation: `¬(d ≤ 0)` is `d > 0`, which over the integers is
    /// `d − 1 ≥ 0`.
    fn constraint(&self, positive: bool) -> Constraint {
        let (upper, strict) = (self.upper == positive, self.strict == positive);
        let mut expr = self.diff.clone();
        if strict {
            expr.constant = expr.constant + Rational::from_int(if upper { 1 } else { -1 });
        }
        let rel = if upper { Rel::Le } else { Rel::Ge };
        Constraint { expr, rel }
    }
}

/// The encoded problem.
#[derive(Debug, Clone)]
pub struct Encoded {
    /// Boolean skeleton of the input formula.
    pub skeleton: Skeleton,
    /// Additional skeletons that must hold (functional-consistency
    /// clauses from Ackermannization).
    pub side_conditions: Vec<Skeleton>,
    /// Theory atoms indexed by the skeleton's literals.
    pub atoms: Vec<TheoryAtom>,
    /// Number of arithmetic variables used by the [`TheoryAtom::Compare`]
    /// atoms.
    pub num_arith_vars: usize,
    /// Canonical names of the arithmetic variables, indexed by [`VarId`]
    /// (`v:<name>` for program variables, `app:<term>` for purified
    /// applications, …). Arithmetic variable *ids* are allocation-order
    /// local to one encoder, so anything that must be compared across
    /// queries — the incremental solver's learned theory conflicts above
    /// all — goes through these names instead (see
    /// [`Encoded::portable_atom_key`]).
    pub arith_names: Vec<String>,
    /// The LIA constraint of each atom asserted false and true, built on
    /// first use, so the theory checks of a DPLL(T) loop build each one
    /// at most once.
    constraints: Vec<[OnceLock<Constraint>; 2]>,
}

impl Encoded {
    /// A canonical, *encoder-independent* key for a theory atom, used to
    /// match learned theory conflicts across queries. Comparison atoms are
    /// sign-normalized to `d ≤ 0` / `d < 0` and rendered over the
    /// arithmetic variables' canonical names (sorted), so `x ≤ y` in one
    /// query and `y ≥ x` in another produce the same key even though
    /// their [`VarId`]s differ. Opaque atoms have no arithmetic content
    /// and never participate in theory conflicts, so they yield `None`.
    /// A solver formats the key once per comparison shape and replays
    /// lemmas by the key's id (see [`crate::lemmas`]).
    pub fn portable_atom_key(&self, atom: usize) -> Option<String> {
        let TheoryAtom::Compare(c) = &self.atoms[atom] else {
            return None;
        };
        let sign = Rational::from_int(if c.upper { 1 } else { -1 });
        let mut parts: Vec<String> = c
            .diff
            .coeffs
            .iter()
            .map(|(v, k)| format!("{:?}*[{}]", *k * sign, self.arith_names[*v]))
            .collect();
        parts.sort();
        let tag = if c.strict { "lt" } else { "le" };
        let constant = c.diff.constant * sign;
        Some(format!("{tag}:{constant:?}:{}", parts.join("+")))
    }

    /// The LIA constraint of a comparison atom with the given truth
    /// value. Opaque atoms yield `None`.
    pub fn atom_constraint(&self, atom: usize, positive: bool) -> Option<&Constraint> {
        let TheoryAtom::Compare(c) = &self.atoms[atom] else {
            return None;
        };
        Some(self.constraints[atom][usize::from(positive)].get_or_init(|| c.constraint(positive)))
    }
}

/// The encoder. A single encoder instance is used per query so that
/// arithmetic variables, atoms, and purified applications are shared
/// across the formula (and across the background/soft split used by MUS
/// enumeration).
#[derive(Debug, Default)]
pub struct Encoder {
    atoms: Vec<TheoryAtom>,
    atom_index: BTreeMap<String, usize>,
    /// The congruence pass's `≤`/`≥` atoms, keyed by their operands.
    equality_index: HashMap<(BinOp, LinExpr, LinExpr), usize>,
    arith_vars: BTreeMap<String, VarId>,
    side_conditions: Vec<Skeleton>,
    /// Purified applications: function name -> list of
    /// (argument terms, canonical key, result sort).
    apps: BTreeMap<String, Vec<(Vec<Term>, String, Sort)>>,
    /// Extra element terms unioned into every set-elimination universe
    /// (see [`Encoder::seed_universe`]).
    universe_seed: Vec<Term>,
    /// Disequality witnesses keyed by their negative set atom. Pooling
    /// makes witness choice deterministic across `encode` calls on the
    /// same encoder: when [`Encoder::seed_universe`] pre-creates the
    /// witness for `¬(a = b)`, a later `encode` of a formula containing
    /// that atom reuses the *same* witness variable, so the universal
    /// expansions already instantiated at the seeded witness actually
    /// constrain the existential that ends up in the skeleton. (Reusing
    /// one Skolem constant for repeated occurrences of the same
    /// existential atom is equisatisfiable.)
    witness_pool: BTreeMap<Term, Term>,
    fresh_counter: usize,
}

impl Encoder {
    /// Creates a fresh encoder.
    pub fn new() -> Encoder {
        Encoder::default()
    }

    /// Encodes a formula, reusing atoms and variables from previous calls
    /// on the same encoder.
    pub fn encode(&mut self, term: &Term) -> Skeleton {
        let normalized = normalize(term);
        let set_free = self.eliminate_sets(&normalized);
        let atomized = nnf(&atomize(&set_free));
        self.to_skeleton(&atomized)
    }

    /// Finishes encoding: adds Ackermann functional-consistency
    /// constraints and returns the full problem for the given skeleton.
    pub fn finish(mut self, skeleton: Skeleton) -> Encoded {
        self.add_congruence_conditions();
        let mut arith_names = vec![String::new(); self.arith_vars.len()];
        for (name, id) in self.arith_vars {
            arith_names[id] = name;
        }
        Encoded {
            skeleton,
            side_conditions: self.side_conditions,
            num_arith_vars: arith_names.len(),
            arith_names,
            constraints: self.atoms.iter().map(|_| Default::default()).collect(),
            atoms: self.atoms,
        }
    }

    // -----------------------------------------------------------------
    // Set elimination
    // -----------------------------------------------------------------

    /// Seeds the set-elimination universe with the relevant element terms
    /// (and fresh disequality witnesses) of `term`, without encoding it.
    ///
    /// The MUS enumerator encodes each soft constraint separately against
    /// one shared encoder; seeding from the *full* conjunction first makes
    /// every per-constraint universe a superset of what a from-scratch
    /// encoding of any subset would have used. That is sound: the universe
    /// under-approximates set extensionality, and enlarging it only
    /// sharpens the finite-model abstraction (adds conjuncts to universal
    /// expansions, disjuncts to existential ones — both implied by the
    /// real set semantics).
    pub fn seed_universe(&mut self, term: &Term) {
        let t = nnf(&normalize(term));
        collect_element_terms(&t, &mut self.universe_seed);
        let witnesses = self.create_witnesses(&t);
        self.universe_seed.extend(witnesses.into_values());
        dedup_terms(&mut self.universe_seed);
    }

    fn eliminate_sets(&mut self, term: &Term) -> Term {
        // Work on the NNF so polarity of set atoms is syntactically evident.
        let t = nnf(term);
        // Pass 1: relevant element terms and witnesses, plus any seeded
        // universe (shared MUS encodings seed from the full conjunction).
        let mut elements: Vec<Term> = Vec::new();
        collect_element_terms(&t, &mut elements);
        elements.extend(self.universe_seed.iter().cloned());
        let witnesses = self.create_witnesses(&t);
        let mut universe = elements;
        universe.extend(witnesses.values().cloned());
        dedup_terms(&mut universe);
        // Pass 2: rewrite.
        self.rewrite_sets(&t, &universe, &witnesses)
    }

    fn create_witnesses(&mut self, t: &Term) -> BTreeMap<Term, Term> {
        let mut atoms = Vec::new();
        collect_negative_set_atoms(t, true, &mut |atom| atoms.push(atom.clone()));
        atoms
            .into_iter()
            .map(|atom| {
                let w = self.witness_for(&atom);
                (atom, w)
            })
            .collect()
    }

    /// The pooled disequality witness for a negative set atom, created on
    /// first use (see the `witness_pool` field for why pooling matters).
    fn witness_for(&mut self, atom: &Term) -> Term {
        if let Some(w) = self.witness_pool.get(atom) {
            return w.clone();
        }
        let elem_sort = set_operand_elem_sort(atom).unwrap_or(Sort::Int);
        let w = Term::var(format!("$w{}", self.fresh_counter), elem_sort);
        self.fresh_counter += 1;
        self.witness_pool.insert(atom.clone(), w.clone());
        w
    }

    fn rewrite_sets(
        &mut self,
        t: &Term,
        universe: &[Term],
        witnesses: &BTreeMap<Term, Term>,
    ) -> Term {
        match t {
            Term::Binary(BinOp::And, a, b) => self
                .rewrite_sets(a, universe, witnesses)
                .and(self.rewrite_sets(b, universe, witnesses)),
            Term::Binary(BinOp::Or, a, b) => self
                .rewrite_sets(a, universe, witnesses)
                .or(self.rewrite_sets(b, universe, witnesses)),
            Term::Unary(UnOp::Not, inner) => {
                self.rewrite_set_atom(inner, false, universe, witnesses.get(inner.as_ref()))
            }
            atom => self.rewrite_set_atom(atom, true, universe, witnesses.get(t)),
        }
    }

    fn rewrite_set_atom(
        &mut self,
        atom: &Term,
        positive: bool,
        universe: &[Term],
        witness: Option<&Term>,
    ) -> Term {
        let wrap = |t: Term| if positive { t } else { t.not() };
        match atom {
            Term::Binary(op @ (BinOp::Eq | BinOp::Neq | BinOp::Subset), a, b)
                if matches!(a.sort(), Sort::Set(_)) =>
            {
                // Effective polarity of the extensionality constraint.
                let is_equality = matches!(op, BinOp::Eq | BinOp::Neq);
                let universal = positive == matches!(op, BinOp::Eq | BinOp::Subset);
                if universal {
                    // ∀ e ∈ universe. mem(e,a) ⇔/⇒ mem(e,b)
                    let mut parts = Vec::new();
                    for e in universe {
                        let ma = self.membership(e, a);
                        let mb = self.membership(e, b);
                        let part = if is_equality {
                            ma.clone().and(mb.clone()).or(ma.not().and(mb.not()))
                        } else {
                            ma.not().or(mb)
                        };
                        parts.push(part);
                    }
                    let body = Term::conjunction(parts);
                    if positive {
                        body
                    } else {
                        // ¬(a ≠ b) ≡ a = b handled above; ¬(a ⊄ b) does not occur.
                        body
                    }
                } else {
                    // ∃ witness w distinguishing the two sides.
                    let w = match witness {
                        Some(w) => w.clone(),
                        None => self.witness_for(atom),
                    };
                    let ma = self.membership(&w, a);
                    let mb = self.membership(&w, b);
                    if is_equality {
                        // a ≠ b: some element is in exactly one side.
                        ma.clone().and(mb.clone().not()).or(ma.not().and(mb))
                    } else {
                        // ¬(a ⊆ b): some element in a but not b.
                        ma.and(mb.not())
                    }
                }
            }
            Term::Binary(BinOp::Member, e, s) => {
                let m = self.membership(e, s);
                wrap(m)
            }
            _ => wrap(atom.clone()),
        }
    }

    /// The membership formula `e ∈ s`, expanded structurally; membership in
    /// a base set (variable or measure application) becomes an opaque
    /// predicate application `$in<idx>(e)`.
    fn membership(&mut self, e: &Term, s: &Term) -> Term {
        match s {
            Term::SetLit(_, elems) => {
                Term::disjunction(elems.iter().map(|x| e.clone().eq(x.clone())))
            }
            Term::Binary(BinOp::Union, a, b) => self.membership(e, a).or(self.membership(e, b)),
            Term::Binary(BinOp::Intersect, a, b) => {
                self.membership(e, a).and(self.membership(e, b))
            }
            Term::Binary(BinOp::Diff, a, b) => {
                self.membership(e, a).and(self.membership(e, b).not())
            }
            Term::Ite(c, a, b) => {
                let ma = self.membership(e, a);
                let mb = self.membership(e, b);
                (**c).clone().and(ma).or((**c).clone().not().and(mb))
            }
            base => {
                let key = format!("$in[{base}]");
                Term::app(key, vec![e.clone()], Sort::Bool)
            }
        }
    }

    // -----------------------------------------------------------------
    // Skeleton construction & purification
    // -----------------------------------------------------------------

    #[allow(clippy::wrong_self_convention)]
    fn to_skeleton(&mut self, t: &Term) -> Skeleton {
        match t {
            Term::BoolLit(true) => Skeleton::True,
            Term::BoolLit(false) => Skeleton::False,
            Term::Binary(BinOp::And, a, b) => {
                Skeleton::and(vec![self.to_skeleton(a), self.to_skeleton(b)])
            }
            Term::Binary(BinOp::Or, a, b) => {
                Skeleton::or(vec![self.to_skeleton(a), self.to_skeleton(b)])
            }
            Term::Unary(UnOp::Not, inner) => match self.to_skeleton(inner) {
                Skeleton::Lit(a, p) => Skeleton::Lit(a, !p),
                Skeleton::True => Skeleton::False,
                Skeleton::False => Skeleton::True,
                other => {
                    // Should not happen on NNF input; negate literal-wise.
                    negate_skeleton(other)
                }
            },
            atom => Skeleton::Lit(self.atom_literal(atom), true),
        }
    }

    fn atom_literal(&mut self, atom: &Term) -> usize {
        // Boolean applications share their index with the purified key so
        // that Ackermann congruence clauses constrain the same atom.
        let key = if matches!(atom, Term::App(_, _, _)) {
            format!("app:{atom}")
        } else {
            atom.to_string()
        };
        self.atom(key, |enc| match atom {
            Term::Binary(op @ (BinOp::Le | BinOp::Lt | BinOp::Ge | BinOp::Gt), a, b) => {
                let (lhs, rhs) = (enc.linearize(a), enc.linearize(b));
                TheoryAtom::Compare(Comparison::new(*op, &lhs, &rhs))
            }
            Term::App(_, _, _) => {
                // A boolean-valued application: purify it so that
                // congruence clauses relate applications with equal
                // arguments.
                enc.purify_app(atom);
                TheoryAtom::Opaque
            }
            // A boolean variable, or an equality over a sort that is not
            // integer-modelled (the others were atomized away).
            _ => TheoryAtom::Opaque,
        })
    }

    /// The index of the atom keyed `key`, built by `make` on first use.
    fn atom(&mut self, key: String, make: impl FnOnce(&mut Encoder) -> TheoryAtom) -> usize {
        if let Some(&idx) = self.atom_index.get(&key) {
            return idx;
        }
        let atom = make(self);
        self.atoms.push(atom);
        self.atom_index.insert(key, self.atoms.len() - 1);
        self.atoms.len() - 1
    }

    /// Converts an integer-modelled term into a linear expression,
    /// introducing arithmetic variables for opaque sub-terms.
    fn linearize(&mut self, t: &Term) -> LinExpr {
        match t {
            Term::IntLit(n) => LinExpr::constant(Rational::from_int(*n)),
            Term::Var(name, _) => LinExpr::variable(self.arith_var(&format!("v:{name}"))),
            Term::Unary(UnOp::Neg, inner) => self.linearize(inner).scaled(-Rational::ONE),
            Term::Binary(BinOp::Plus, a, b) => self.linearize(a).plus(&self.linearize(b)),
            Term::Binary(BinOp::Minus, a, b) => self.linearize(a).minus(&self.linearize(b)),
            Term::Binary(BinOp::Times, a, b) => {
                let la = self.linearize(a);
                let lb = self.linearize(b);
                if la.is_constant() {
                    lb.scaled(la.constant)
                } else if lb.is_constant() {
                    la.scaled(lb.constant)
                } else {
                    // Non-linear product: model it as an opaque variable.
                    LinExpr::variable(self.arith_var(&format!("nl:{t}")))
                }
            }
            Term::App(_, _, _) => {
                let key = self.purify_app(t);
                LinExpr::variable(self.arith_var(&key))
            }
            _ => LinExpr::variable(self.arith_var(&format!("opaque:{t}"))),
        }
    }

    fn arith_var(&mut self, key: &str) -> VarId {
        if let Some(&v) = self.arith_vars.get(key) {
            return v;
        }
        let v = self.arith_vars.len();
        self.arith_vars.insert(key.to_string(), v);
        v
    }

    /// Purifies an application term: returns the canonical key of the
    /// fresh variable standing for its value and records the application
    /// for congruence-constraint generation.
    fn purify_app(&mut self, t: &Term) -> String {
        let Term::App(name, args, result) = t else {
            unreachable!("purify_app on non-application")
        };
        let key = format!("app:{t}");
        let entry = self.apps.entry(name.clone()).or_default();
        if !entry.iter().any(|(_, k, _)| k == &key) {
            entry.push((args.clone(), key.clone(), result.clone()));
        }
        key
    }

    /// Adds Ackermann functional-consistency side conditions:
    /// for every pair of applications `f(a⃗)` and `f(b⃗)`,
    /// `a⃗ = b⃗ ⇒ f(a⃗) = f(b⃗)`.
    fn add_congruence_conditions(&mut self) {
        let apps = std::mem::take(&mut self.apps);
        for instances in apps.values() {
            for i in 0..instances.len() {
                'pairs: for j in (i + 1)..instances.len() {
                    let (args_i, key_i, result_sort) = &instances[i];
                    let (args_j, key_j, _) = &instances[j];
                    if args_i.len() != args_j.len() {
                        continue;
                    }
                    // Skip congruence over set-sorted arguments (sets have
                    // been eliminated; their applications use distinct
                    // canonical names anyway).
                    if args_i
                        .iter()
                        .chain(args_j.iter())
                        .any(|a| matches!(a.sort(), Sort::Set(_)))
                    {
                        continue;
                    }
                    let mut antecedent = Vec::new();
                    for (a, b) in args_i.iter().zip(args_j) {
                        if a == b {
                            continue;
                        }
                        if a.sort() == Sort::Bool {
                            // Boolean argument equality is not expressible
                            // as a linear atom; skip this pair (sound:
                            // fewer consequences).
                            continue 'pairs;
                        }
                        let (la, lb) = (self.linearize(a), self.linearize(b));
                        antecedent.extend(self.equality_atoms(&la, &lb));
                    }
                    let consequent = self.result_equality(result_sort, key_i, key_j);
                    let mut clause: Vec<Skeleton> =
                        antecedent.into_iter().map(negate_skeleton).collect();
                    clause.push(consequent);
                    self.side_conditions.push(Skeleton::or(clause));
                }
            }
        }
    }

    /// The literals `lhs ≤ rhs` and `lhs ≥ rhs`, which together say
    /// `lhs = rhs`.
    fn equality_atoms(&mut self, lhs: &LinExpr, rhs: &LinExpr) -> [Skeleton; 2] {
        [BinOp::Le, BinOp::Ge].map(|op| {
            let key = (op, lhs.clone(), rhs.clone());
            let atoms = &mut self.atoms;
            let atom = *self.equality_index.entry(key).or_insert_with(|| {
                atoms.push(TheoryAtom::Compare(Comparison::new(op, lhs, rhs)));
                atoms.len() - 1
            });
            Skeleton::Lit(atom, true)
        })
    }

    fn result_equality(&mut self, result_sort: &Sort, key_i: &str, key_j: &str) -> Skeleton {
        // Boolean-valued applications (membership predicates, boolean
        // measures) need an iff; integer-valued ones an arithmetic equality.
        if *result_sort == Sort::Bool {
            let [bi, bj] =
                [key_i, key_j].map(|key| self.atom(key.to_string(), |_| TheoryAtom::Opaque));
            // bi ⇔ bj  ≡  (¬bi ∨ bj) ∧ (bi ∨ ¬bj)
            Skeleton::and(vec![
                Skeleton::or(vec![Skeleton::Lit(bi, false), Skeleton::Lit(bj, true)]),
                Skeleton::or(vec![Skeleton::Lit(bi, true), Skeleton::Lit(bj, false)]),
            ])
        } else {
            let vi = LinExpr::variable(self.arith_var(key_i));
            let vj = LinExpr::variable(self.arith_var(key_j));
            Skeleton::and(self.equality_atoms(&vi, &vj).into())
        }
    }
}

fn negate_skeleton(s: Skeleton) -> Skeleton {
    match s {
        Skeleton::True => Skeleton::False,
        Skeleton::False => Skeleton::True,
        Skeleton::Lit(a, p) => Skeleton::Lit(a, !p),
        Skeleton::And(xs) => Skeleton::or(xs.into_iter().map(negate_skeleton).collect()),
        Skeleton::Or(xs) => Skeleton::and(xs.into_iter().map(negate_skeleton).collect()),
    }
}

/// Pre-NNF normalization: constant folding, `ite` elimination, boolean
/// equality to bi-implication.
pub fn normalize(t: &Term) -> Term {
    let t = fold_constants(t);
    let t = eliminate_ite(&t);
    bool_eq_to_iff(&t)
}

fn bool_eq_to_iff(t: &Term) -> Term {
    match t {
        Term::Binary(BinOp::Eq, a, b) if a.sort() == Sort::Bool || b.sort() == Sort::Bool => {
            bool_eq_to_iff(a).iff(bool_eq_to_iff(b))
        }
        Term::Binary(BinOp::Neq, a, b) if a.sort() == Sort::Bool || b.sort() == Sort::Bool => {
            bool_eq_to_iff(a).iff(bool_eq_to_iff(b)).not()
        }
        Term::Binary(op, a, b) => Term::Binary(
            *op,
            Arc::new(bool_eq_to_iff(a)),
            Arc::new(bool_eq_to_iff(b)),
        ),
        Term::Unary(op, a) => Term::Unary(*op, Arc::new(bool_eq_to_iff(a))),
        Term::Ite(c, a, b) => Term::Ite(
            Arc::new(bool_eq_to_iff(c)),
            Arc::new(bool_eq_to_iff(a)),
            Arc::new(bool_eq_to_iff(b)),
        ),
        _ => t.clone(),
    }
}

/// Post set-elimination atomization: integer-modelled equalities become
/// `≤ ∧ ≥`, disequalities become `< ∨ >`.
fn atomize(t: &Term) -> Term {
    match t {
        Term::Binary(BinOp::And, a, b) => atomize(a).and(atomize(b)),
        Term::Binary(BinOp::Or, a, b) => atomize(a).or(atomize(b)),
        Term::Binary(BinOp::Implies, a, b) => atomize(a).implies(atomize(b)),
        Term::Binary(BinOp::Iff, a, b) => atomize(a).iff(atomize(b)),
        Term::Unary(UnOp::Not, a) => atomize(a).not(),
        Term::Binary(BinOp::Eq, a, b) if is_int_modelled(&a.sort()) => {
            let le = (**a).clone().le((**b).clone());
            let ge = (**a).clone().ge((**b).clone());
            le.and(ge)
        }
        Term::Binary(BinOp::Neq, a, b) if is_int_modelled(&a.sort()) => {
            let lt = (**a).clone().lt((**b).clone());
            let gt = (**a).clone().gt((**b).clone());
            lt.or(gt)
        }
        _ => t.clone(),
    }
}

fn is_int_modelled(sort: &Sort) -> bool {
    matches!(
        sort,
        Sort::Int | Sort::Var(_) | Sort::Data(_, _) | Sort::Unknown
    )
}

fn set_operand_elem_sort(atom: &Term) -> Option<Sort> {
    if let Term::Binary(_, a, _) = atom {
        if let Sort::Set(e) = a.sort() {
            return Some(Arc::unwrap_or_clone(e));
        }
    }
    None
}

fn collect_element_terms(t: &Term, out: &mut Vec<Term>) {
    t.walk(&mut |sub| match sub {
        Term::SetLit(_, elems) => out.extend(elems.iter().cloned()),
        Term::Binary(BinOp::Member, e, _) => out.push((**e).clone()),
        _ => {}
    });
}

fn collect_negative_set_atoms(t: &Term, positive: bool, f: &mut impl FnMut(&Term)) {
    match t {
        Term::Binary(BinOp::And | BinOp::Or, a, b) => {
            collect_negative_set_atoms(a, positive, f);
            collect_negative_set_atoms(b, positive, f);
        }
        Term::Unary(UnOp::Not, inner) => collect_negative_set_atoms(inner, !positive, f),
        Term::Binary(BinOp::Eq, a, _) if matches!(a.sort(), Sort::Set(_)) && !positive => f(t),
        Term::Binary(BinOp::Neq, a, _) if matches!(a.sort(), Sort::Set(_)) && positive => f(t),
        Term::Binary(BinOp::Subset, a, _) if matches!(a.sort(), Sort::Set(_)) && !positive => f(t),
        _ => {}
    }
}

fn dedup_terms(terms: &mut Vec<Term>) {
    let mut seen = std::collections::BTreeSet::new();
    terms.retain(|t| seen.insert(t.clone()));
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
    fn skeleton_flattens_boolean_constants() {
        assert_eq!(
            Skeleton::and(vec![Skeleton::True, Skeleton::True]),
            Skeleton::True
        );
        assert_eq!(
            Skeleton::and(vec![Skeleton::False, Skeleton::Lit(0, true)]),
            Skeleton::False
        );
        assert_eq!(Skeleton::or(vec![Skeleton::False]), Skeleton::False);
        assert_eq!(
            Skeleton::or(vec![Skeleton::True, Skeleton::Lit(0, true)]),
            Skeleton::True
        );
    }

    #[test]
    fn encode_simple_comparison() {
        let mut enc = Encoder::new();
        let sk = enc.encode(&x().le(y()));
        let problem = enc.finish(sk.clone());
        assert!(matches!(sk, Skeleton::Lit(0, true)));
        assert!(matches!(
            problem.atoms[0],
            TheoryAtom::Compare(Comparison {
                upper: true,
                strict: false,
                ..
            })
        ));
    }

    #[test]
    fn comparison_atoms_negate_over_the_integers() {
        type Build = fn(LinExpr, LinExpr) -> Constraint;
        let table: [(Term, Build, Build); 4] = [
            (x().le(y()), Constraint::le, Constraint::gt_int),
            (x().lt(y()), Constraint::lt_int, Constraint::ge),
            (x().ge(y()), Constraint::ge, Constraint::lt_int),
            (x().gt(y()), Constraint::gt_int, Constraint::le),
        ];
        let (vx, vy) = (LinExpr::variable(0), LinExpr::variable(1));
        for (atom, positive, negative) in table {
            let mut enc = Encoder::new();
            let sk = enc.encode(&atom);
            assert_eq!(sk, Skeleton::Lit(0, true), "{atom}");
            let problem = enc.finish(sk);
            let expected = |build: Build| Some(build(vx.clone(), vy.clone()));
            assert_eq!(
                problem.atom_constraint(0, true).cloned(),
                expected(positive),
                "{atom}"
            );
            assert_eq!(
                problem.atom_constraint(0, false).cloned(),
                expected(negative),
                "not {atom}"
            );
        }
    }

    #[test]
    fn equalities_are_atomized_into_le_and_ge() {
        let mut enc = Encoder::new();
        let sk = enc.encode(&x().eq(y()));
        match sk {
            Skeleton::And(items) => assert_eq!(items.len(), 2),
            other => panic!("expected conjunction, got {other:?}"),
        }
    }

    #[test]
    fn shared_atoms_are_reused() {
        let mut enc = Encoder::new();
        let s1 = enc.encode(&x().le(y()));
        let s2 = enc.encode(&x().le(y()));
        // Encoding the same atom twice must not allocate a second atom.
        match (s1, s2) {
            (Skeleton::Lit(a, true), Skeleton::Lit(b, true)) => assert_eq!(a, b),
            other => panic!("expected the same literal twice, got {other:?}"),
        }
        let problem = enc.finish(Skeleton::True);
        assert_eq!(problem.atoms.len(), 1);
    }

    #[test]
    fn negated_le_flips_to_gt_via_nnf() {
        let mut enc = Encoder::new();
        // NNF turns ¬(x ≤ y) into x > y, a fresh atom with positive polarity.
        let sk = enc.encode(&x().le(y()).not());
        // Either representation is acceptable; check it is a single literal.
        match sk {
            Skeleton::Lit(_, _) => {}
            other => panic!("expected literal, got {other:?}"),
        }
    }

    #[test]
    fn set_equality_expands_over_relevant_elements() {
        // elems_v = elems_xs ∪ [x]  — one positive equality; the universe is {x}.
        let elem = Sort::Int;
        let sv = Term::var("sv", Sort::set(elem.clone()));
        let sxs = Term::var("sxs", Sort::set(elem.clone()));
        let atom = sv.clone().eq(sxs.clone().union(Term::singleton(elem, x())));
        let mut enc = Encoder::new();
        let sk = enc.encode(&atom);
        let problem = enc.finish(sk);
        // Atoms: membership of x in sv, membership of x in sxs, x == x (folded away or
        // represented as comparisons). At minimum the two membership predicates exist.
        let opaque: Vec<_> = problem
            .atoms
            .iter()
            .filter(|a| matches!(a, TheoryAtom::Opaque))
            .collect();
        assert!(
            opaque.len() >= 2,
            "expected membership atoms, got {:?}",
            problem.atoms
        );
    }

    #[test]
    fn measure_application_becomes_arith_var() {
        let xs = Term::var("xs", Sort::data("List", vec![Sort::var("a")]));
        let t = Term::app("len", vec![xs], Sort::Int).ge(Term::int(0));
        let mut enc = Encoder::new();
        let sk = enc.encode(&t);
        let problem = enc.finish(sk);
        assert_eq!(problem.atoms.len(), 1);
        assert!(problem.num_arith_vars >= 1);
    }

    #[test]
    fn congruence_clauses_are_emitted_for_equal_function_applications() {
        let a = Term::var("a", Sort::Int);
        let b = Term::var("b", Sort::Int);
        let fa = Term::app("f", vec![a.clone()], Sort::Int);
        let fb = Term::app("f", vec![b.clone()], Sort::Int);
        // a = b ∧ f a < f b  — needs congruence to be refuted.
        let t = a.eq(b).and(fa.lt(fb));
        let mut enc = Encoder::new();
        let sk = enc.encode(&t);
        let problem = enc.finish(sk);
        assert!(
            !problem.side_conditions.is_empty(),
            "expected Ackermann side conditions"
        );
    }

    /// One query's terms can carry the same variable at two sort
    /// annotations: in `insert_sorted` at rung (1,1) the encoder sees
    /// `ilen ν` with `ν: IList 't2` and with `ν: IList a`, and `zero > ν`
    /// with `ν: Int` and with `ν: a`. Atoms and variables are keyed by
    /// their printed text, which omits sorts, so each pair is one atom or
    /// variable. Keys that kept the sorts would split them and answer Sat.
    #[test]
    fn sort_annotations_do_not_split_atoms_or_variables() {
        use crate::smt::{Smt, SmtResult};
        let ilist = |elem: &str| Sort::data("IList", vec![Sort::var(elem)]);
        let ilen = |list: Sort| Term::app("ilen", vec![Term::value_var(list)], Sort::Int);
        let zero = || Term::var("zero", Sort::Int);
        let lengths = ilen(ilist("a"))
            .ge(Term::int(1))
            .and(ilen(ilist("'t2")).le(Term::int(0)));
        let order = zero()
            .gt(Term::value_var(Sort::Int))
            .and(zero().le(Term::value_var(Sort::var("a"))));
        let mut smt = Smt::new();
        for query in [lengths, order] {
            assert_eq!(smt.check_sat(&query), SmtResult::Unsat, "{query}");
        }
    }
}
