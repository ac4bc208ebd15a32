//! The incremental subtyping-constraint solver (the `Solve` procedure of
//! Fig. 6) and type-consistency checking (Fig. 5).
//!
//! Local liquid type checking issues subtyping constraints one at a time,
//! *before* the whole program is known. The solver therefore interleaves
//! shape unification (assigning liquid types to free type variables) with
//! refinement discovery (delegated to the Horn fixpoint solver): this is
//! the paper's *incremental unification*, which existing refinement type
//! checkers cannot do because they run Hindley–Milner to completion first.

use crate::env::Environment;
use crate::ty::{is_free_type_var, BaseType, RType, FREE_TYPE_VAR_PREFIX};
use std::collections::BTreeMap;
use synquid_horn::{FixpointSolver, HornConstraint, StrengthenBackend};
use synquid_logic::{Sort, Term};
use synquid_solver::{Smt, SmtResult};

/// A type error detected while solving constraints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypeError {
    /// Human-readable description.
    pub message: String,
}

impl TypeError {
    /// Creates a type error.
    pub fn new(message: impl Into<String>) -> TypeError {
        TypeError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for TypeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "type error: {}", self.message)
    }
}

impl std::error::Error for TypeError {}

/// The incremental constraint solver. It owns the liquid fixpoint solver
/// (whose assignment is part of the search state) and the type assignment
/// `T` mapping free type variables to liquid types. The SMT solver is
/// passed in externally so its statistics survive backtracking.
#[derive(Debug, Clone)]
pub struct ConstraintSolver {
    /// The Horn-constraint fixpoint solver (assignments to predicate
    /// unknowns).
    pub fixpoint: FixpointSolver,
    type_assignment: BTreeMap<String, RType>,
    fresh_tyvar_counter: usize,
    /// Enable type-consistency checks (Sec. 3.4); disabled for the T-ncc
    /// ablation.
    pub consistency_enabled: bool,
}

impl Default for ConstraintSolver {
    fn default() -> Self {
        ConstraintSolver::new(StrengthenBackend::default())
    }
}

impl ConstraintSolver {
    /// Creates a solver whose fixpoint solver strengthens with `backend`.
    pub fn new(backend: StrengthenBackend) -> ConstraintSolver {
        ConstraintSolver {
            fixpoint: FixpointSolver::new(backend),
            type_assignment: BTreeMap::new(),
            fresh_tyvar_counter: 0,
            consistency_enabled: true,
        }
    }

    // -----------------------------------------------------------------
    // Fresh names
    // -----------------------------------------------------------------

    /// Allocates a fresh free type variable.
    pub fn fresh_type_var(&mut self) -> String {
        let name = format!("{FREE_TYPE_VAR_PREFIX}t{}", self.fresh_tyvar_counter);
        self.fresh_tyvar_counter += 1;
        name
    }

    /// Allocates a fresh predicate unknown whose valuations are liquid
    /// formulas over the environment (and `ν` at the given sort).
    pub fn fresh_unknown(
        &mut self,
        env: &Environment,
        value_sort: Option<Sort>,
        provenance: &str,
    ) -> Term {
        let qspace = env.build_qspace(value_sort);
        let assumption = env.all_assumptions();
        let assumption = self
            .fixpoint
            .assignment()
            .apply(&self.fixpoint.registry, &assumption);
        let id = self.fixpoint.fresh_unknown(provenance, qspace, assumption);
        Term::unknown(id)
    }

    /// Instantiates a schema with fresh free type variables and returns the
    /// instantiated type (rule VAR∀ / the type-checking algorithm's
    /// treatment of polymorphic components).
    pub fn instantiate_schema(&mut self, schema: &crate::ty::Schema) -> RType {
        if schema.is_monomorphic() {
            return schema.ty.clone();
        }
        let args: Vec<RType> = schema
            .type_vars
            .iter()
            .map(|_| RType::tyvar(self.fresh_type_var()))
            .collect();
        schema.instantiate(&args)
    }

    // -----------------------------------------------------------------
    // Type assignment
    // -----------------------------------------------------------------

    /// The current assignment of a free type variable, if any.
    pub fn lookup_type_var(&self, name: &str) -> Option<&RType> {
        self.type_assignment.get(name)
    }

    /// Fully resolves a type: free type variables with assignments are
    /// substituted (recursively), and predicate unknowns are left in place.
    pub fn resolve(&self, ty: &RType) -> RType {
        self.resolve_guarded(ty, 0)
    }

    fn resolve_guarded(&self, ty: &RType, depth: usize) -> RType {
        assert!(
            depth < 10_000,
            "type-assignment cycle while resolving {ty} (assignment: {:?})",
            self.type_assignment.keys().collect::<Vec<_>>()
        );
        match ty {
            RType::Scalar { base, refinement } => match base {
                BaseType::TypeVar(name) => match self.type_assignment.get(name) {
                    Some(assigned) => {
                        self.resolve_guarded(&assigned.refine_with(refinement), depth + 1)
                    }
                    None => ty.clone(),
                },
                BaseType::Data(n, args) => RType::Scalar {
                    base: BaseType::Data(
                        n.clone(),
                        args.iter()
                            .map(|a| self.resolve_guarded(a, depth + 1))
                            .collect(),
                    ),
                    refinement: refinement.clone(),
                },
                _ => ty.clone(),
            },
            RType::Function { arg_name, arg, ret } => RType::Function {
                arg_name: arg_name.clone(),
                arg: Box::new(self.resolve_guarded(arg, depth + 1)),
                ret: Box::new(self.resolve_guarded(ret, depth + 1)),
            },
            RType::Any => RType::Any,
            RType::Bot => RType::Bot,
        }
    }

    /// Fully resolves a type and substitutes predicate-unknown valuations
    /// from the current liquid assignment (used when reporting final types
    /// and when rendering abduced conditions).
    pub fn finalize(&self, ty: &RType) -> RType {
        let resolved = self.resolve(ty);
        self.map_refinements(&resolved, &|t| {
            self.fixpoint.assignment().apply(&self.fixpoint.registry, t)
        })
    }

    /// Applies the current liquid assignment to a term.
    pub fn apply_assignment(&self, t: &Term) -> Term {
        self.fixpoint.assignment().apply(&self.fixpoint.registry, t)
    }

    fn map_refinements(&self, ty: &RType, f: &impl Fn(&Term) -> Term) -> RType {
        match ty {
            RType::Scalar { base, refinement } => RType::Scalar {
                base: match base {
                    BaseType::Data(n, args) => BaseType::Data(
                        n.clone(),
                        args.iter().map(|a| self.map_refinements(a, f)).collect(),
                    ),
                    other => other.clone(),
                },
                refinement: f(refinement),
            },
            RType::Function { arg_name, arg, ret } => RType::Function {
                arg_name: arg_name.clone(),
                arg: Box::new(self.map_refinements(arg, f)),
                ret: Box::new(self.map_refinements(ret, f)),
            },
            other => other.clone(),
        }
    }

    /// The `Fresh` operation of Fig. 6: a type with the same shape as the
    /// input but all refinements replaced by fresh predicate unknowns (and
    /// nested free type variables replaced by fresh free type variables).
    pub fn fresh_shape(&mut self, env: &Environment, ty: &RType, provenance: &str) -> RType {
        match ty {
            RType::Scalar { base, .. } => match base {
                BaseType::TypeVar(name) if is_free_type_var(name) => {
                    RType::tyvar(self.fresh_type_var())
                }
                BaseType::TypeVar(_) => {
                    let sort = base.sort();
                    let unknown = self.fresh_unknown(env, Some(sort), provenance);
                    RType::refined(base.clone(), unknown)
                }
                BaseType::Data(n, args) => {
                    let fresh_args: Vec<RType> = args
                        .iter()
                        .map(|a| self.fresh_shape(env, a, provenance))
                        .collect();
                    let base = BaseType::Data(n.clone(), fresh_args);
                    let unknown = self.fresh_unknown(env, Some(base.sort()), provenance);
                    RType::refined(base, unknown)
                }
                BaseType::Bool | BaseType::Int => {
                    let unknown = self.fresh_unknown(env, Some(base.sort()), provenance);
                    RType::refined(base.clone(), unknown)
                }
            },
            RType::Function { arg_name, arg, ret } => RType::Function {
                arg_name: arg_name.clone(),
                arg: Box::new(self.fresh_shape(env, arg, provenance)),
                ret: Box::new(self.fresh_shape(env, ret, provenance)),
            },
            RType::Any => RType::Any,
            RType::Bot => RType::Bot,
        }
    }

    /// Imports a type that was produced by a *different* solver instance
    /// (e.g. a memoized enumeration result): every free unification type
    /// variable is renamed to a fresh variable of this solver's
    /// namespace, consistently across calls that share `map`, so cached
    /// types can never alias this solver's own unification variables.
    pub fn import_type(&mut self, ty: &RType, map: &mut BTreeMap<String, RType>) -> RType {
        for v in ty.type_vars() {
            if is_free_type_var(&v) && !map.contains_key(&v) {
                map.insert(v, RType::tyvar(self.fresh_type_var()));
            }
        }
        ty.substitute_type_vars(map)
    }

    /// Adds and solves the plain logical obligation `⟦Γ⟧ ⇒ fact`.
    /// Predicate unknowns among the environment's path conditions (most
    /// importantly the branch-condition unknown of liquid abduction) may
    /// be strengthened to validate the obligation, exactly as for
    /// subtyping constraints. The synthesizer uses this to replay the
    /// argument-side conditions of memoized candidates under the current
    /// goal's abduction unknown.
    pub fn require(
        &mut self,
        env: &Environment,
        fact: &Term,
        smt: &mut Smt,
        label: &str,
    ) -> Result<(), TypeError> {
        if fact.is_true() {
            return Ok(());
        }
        let (assumptions, dropped) = env.assumptions_counted(fact);
        smt.add_assumptions_dropped(dropped);
        let constraint = HornConstraint::new(assumptions, fact.clone(), label);
        self.fixpoint
            .add_constraint(constraint, smt)
            .map_err(|e| TypeError::new(format!("{label}: {e}")))
    }

    // -----------------------------------------------------------------
    // Subtyping
    // -----------------------------------------------------------------

    /// Adds and solves the subtyping constraint `Γ ⊢ lhs <: rhs`.
    pub fn subtype(
        &mut self,
        env: &Environment,
        lhs: &RType,
        rhs: &RType,
        smt: &mut Smt,
        label: &str,
    ) -> Result<(), TypeError> {
        let lhs = self.resolve(lhs);
        let rhs = self.resolve(rhs);
        match (&lhs, &rhs) {
            (RType::Bot, _) | (_, RType::Any) => Ok(()),
            (RType::Any, _) => Err(TypeError::new(format!(
                "{label}: top is only a supertype (cannot use it as a subtype of {rhs})"
            ))),
            (_, RType::Bot) => Err(TypeError::new(format!(
                "{label}: no type except bot is a subtype of bot (got {lhs})"
            ))),
            (
                RType::Function {
                    arg_name: x,
                    arg: tx,
                    ret: t1,
                },
                RType::Function {
                    arg_name: y,
                    arg: ty_,
                    ret: t2,
                },
            ) => {
                // Contravariant argument, covariant result with renaming.
                self.subtype(env, ty_, tx, smt, label)?;
                let mut inner_env = env.clone();
                inner_env.add_var(y.clone(), (**ty_).clone());
                let renamed_ret = t1.substitute_var(x, &Term::var(y.clone(), ty_.sort()));
                self.subtype(&inner_env, &renamed_ret, t2, smt, label)
            }
            (
                RType::Scalar {
                    base: bl,
                    refinement: rl,
                },
                RType::Scalar {
                    base: br,
                    refinement: rr,
                },
            ) => self.subtype_scalar(env, bl, rl, br, rr, smt, label),
            _ => Err(TypeError::new(format!(
                "{label}: shape mismatch between {lhs} and {rhs}"
            ))),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn subtype_scalar(
        &mut self,
        env: &Environment,
        base_l: &BaseType,
        ref_l: &Term,
        base_r: &BaseType,
        ref_r: &Term,
        smt: &mut Smt,
        label: &str,
    ) -> Result<(), TypeError> {
        match (base_l, base_r) {
            // Two distinct free type variables: alias one to the other
            // (Eq. 3 of Fig. 6 retains such constraints; aliasing resolves
            // them eagerly, which is equivalent because any later
            // instantiation of either variable now instantiates both).
            // Creating a fresh shape here instead would loop forever, since
            // the fresh shape of a free variable is another free variable.
            (BaseType::TypeVar(a), BaseType::TypeVar(b))
                if is_free_type_var(a) && is_free_type_var(b) && a != b =>
            {
                self.type_assignment
                    .insert(a.clone(), RType::tyvar(b.clone()));
                let lhs = RType::Scalar {
                    base: base_l.clone(),
                    refinement: ref_l.clone(),
                };
                let rhs = RType::Scalar {
                    base: base_r.clone(),
                    refinement: ref_r.clone(),
                };
                self.subtype(env, &lhs, &rhs, smt, label)
            }
            // Unification cases (Eq. 4 and Eq. 5 of Fig. 6). Free type
            // variables are assigned a fresh liquid type of the other
            // side's shape, then the constraint is re-processed.
            (BaseType::TypeVar(a), _) if is_free_type_var(a) && base_l != base_r => {
                let target = RType::Scalar {
                    base: base_r.clone(),
                    refinement: ref_r.clone(),
                };
                self.unify(env, a, &target, label)?;
                let lhs = RType::Scalar {
                    base: base_l.clone(),
                    refinement: ref_l.clone(),
                };
                let rhs = RType::Scalar {
                    base: base_r.clone(),
                    refinement: ref_r.clone(),
                };
                self.subtype(env, &lhs, &rhs, smt, label)
            }
            (_, BaseType::TypeVar(a)) if is_free_type_var(a) && base_l != base_r => {
                let target = RType::Scalar {
                    base: base_l.clone(),
                    refinement: ref_l.clone(),
                };
                self.unify(env, a, &target, label)?;
                let lhs = RType::Scalar {
                    base: base_l.clone(),
                    refinement: ref_l.clone(),
                };
                let rhs = RType::Scalar {
                    base: base_r.clone(),
                    refinement: ref_r.clone(),
                };
                self.subtype(env, &lhs, &rhs, smt, label)
            }
            // Identical type variables (rigid or free): refinements only.
            (BaseType::TypeVar(a), BaseType::TypeVar(b)) if a == b => {
                self.emit_horn(env, ref_l, ref_r, smt, label)
            }
            (BaseType::TypeVar(a), BaseType::TypeVar(b)) => Err(TypeError::new(format!(
                "{label}: cannot unify distinct rigid type variables {a} and {b}"
            ))),
            // Datatypes: refinements plus covariant type arguments.
            (BaseType::Data(d1, args1), BaseType::Data(d2, args2)) => {
                if d1 != d2 || args1.len() != args2.len() {
                    return Err(TypeError::new(format!(
                        "{label}: datatype mismatch between {d1} and {d2}"
                    )));
                }
                self.emit_horn(env, ref_l, ref_r, smt, label)?;
                for (a1, a2) in args1.iter().zip(args2) {
                    self.subtype(env, a1, a2, smt, label)?;
                }
                Ok(())
            }
            (BaseType::Int, BaseType::Int) | (BaseType::Bool, BaseType::Bool) => {
                self.emit_horn(env, ref_l, ref_r, smt, label)
            }
            _ => Err(TypeError::new(format!(
                "{label}: base type mismatch between {base_l} and {base_r}"
            ))),
        }
    }

    /// Assigns a free type variable to a fresh liquid type with the shape
    /// of `target` (incremental unification).
    fn unify(
        &mut self,
        env: &Environment,
        var: &str,
        target: &RType,
        label: &str,
    ) -> Result<(), TypeError> {
        if self.type_assignment.contains_key(var) {
            return Ok(());
        }
        // Occurs check.
        let resolved_target = self.resolve(target);
        if resolved_target.type_vars().contains(var) {
            return Err(TypeError::new(format!(
                "{label}: occurs check failed unifying {var} with {resolved_target}"
            )));
        }
        let fresh = self.fresh_shape(env, &resolved_target, &format!("inst({var})"));
        self.type_assignment.insert(var.to_string(), fresh);
        Ok(())
    }

    /// Emits the Horn constraint for scalar subtyping (Eq. 8 of Fig. 6):
    /// `⟦Γ⟧ ∧ ψ ⇒ ψ'`, and solves it incrementally.
    fn emit_horn(
        &mut self,
        env: &Environment,
        ref_l: &Term,
        ref_r: &Term,
        smt: &mut Smt,
        label: &str,
    ) -> Result<(), TypeError> {
        if ref_r.is_true() {
            return Ok(());
        }
        let relevant = ref_l.clone().and(ref_r.clone());
        let (assumptions, dropped) = env.assumptions_counted(&relevant);
        smt.add_assumptions_dropped(dropped);
        let lhs = assumptions.and(ref_l.clone());
        let constraint = HornConstraint::new(lhs, ref_r.clone(), label);
        self.fixpoint
            .add_constraint(constraint, smt)
            .map_err(|e| TypeError::new(format!("{label}: {e}")))
    }

    // -----------------------------------------------------------------
    // Consistency (Fig. 5)
    // -----------------------------------------------------------------

    /// Checks that two types are *consistent*: they have a common
    /// inhabitant for some valuation of the environment variables. Used to
    /// prune partial applications early (Sec. 3.4). A disabled or
    /// inconclusive check succeeds.
    pub fn consistent(
        &mut self,
        env: &Environment,
        lhs: &RType,
        rhs: &RType,
        smt: &mut Smt,
        label: &str,
    ) -> Result<(), TypeError> {
        if !self.consistency_enabled {
            return Ok(());
        }
        let lhs = self.resolve(lhs);
        let rhs = self.resolve(rhs);
        match (&lhs, &rhs) {
            (
                RType::Function { arg_name, arg, ret },
                RType::Function {
                    arg_name: y,
                    ret: ret2,
                    ..
                },
            ) => {
                let mut inner = env.clone();
                inner.add_var(arg_name.clone(), (**arg).clone());
                let renamed = ret2.substitute_var(y, &Term::var(arg_name.clone(), arg.sort()));
                self.consistent(&inner, ret, &renamed, smt, label)
            }
            (
                RType::Scalar {
                    base: b1,
                    refinement: r1,
                },
                RType::Scalar {
                    base: b2,
                    refinement: r2,
                },
            ) => {
                // Shapes that are still being unified are vacuously
                // consistent: a free unification variable can still
                // become anything, so sorts mentioning one must not
                // prune (plain `Sort::compatible` treats distinct
                // variables as incompatible, which would discard every
                // not-yet-instantiated polymorphic candidate —
                // constructor applications above all).
                if !sorts_consistent(&b1.sort(), &b2.sort()) {
                    return Err(TypeError::new(format!(
                        "{label}: inconsistent base types {b1} and {b2}"
                    )));
                }
                let r1 = self.apply_assignment(r1);
                let r2 = self.apply_assignment(r2);
                let relevant = r1.clone().and(r2.clone());
                let (assumptions, dropped) = env.assumptions_counted(&relevant);
                smt.add_assumptions_dropped(dropped);
                let formula = assumptions.and(r1).and(r2);
                match smt.check_sat(&formula) {
                    SmtResult::Unsat => Err(TypeError::new(format!(
                        "{label}: types {lhs} and {rhs} are inconsistent"
                    ))),
                    _ => Ok(()),
                }
            }
            // Mixed shapes (e.g. still-unresolved type variables against
            // functions) and top/bot are treated as consistent.
            _ => Ok(()),
        }
    }
}

/// Sort compatibility for consistency checking: like
/// [`Sort::compatible`], but a *free* (unification) type-variable sort is
/// a wildcard — it can still be instantiated to anything, so pruning on
/// it would be unsound for the search.
fn sorts_consistent(a: &Sort, b: &Sort) -> bool {
    match (a, b) {
        (Sort::Var(n), _) | (_, Sort::Var(n)) if is_free_type_var(n) => true,
        (Sort::Unknown, _) | (_, Sort::Unknown) => true,
        (Sort::Set(x), Sort::Set(y)) => sorts_consistent(x, y),
        (Sort::Data(n1, a1), Sort::Data(n2, a2)) => {
            n1 == n2
                && a1.len() == a2.len()
                && a1.iter().zip(a2).all(|(x, y)| sorts_consistent(x, y))
        }
        _ => a == b,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::list_datatype;
    use crate::ty::Schema;
    use synquid_logic::Qualifier;

    fn base_env() -> Environment {
        let mut env = Environment::new();
        env.add_datatype(list_datatype());
        env.add_qualifiers(Qualifier::standard(Sort::Int));
        env
    }

    fn list_of(t: RType) -> RType {
        RType::base(BaseType::Data("List".into(), vec![t]))
    }

    #[test]
    fn nat_is_subtype_of_int_but_not_conversely() {
        let env = base_env();
        let mut smt = Smt::new();
        let mut solver = ConstraintSolver::default();
        assert!(solver
            .subtype(&env, &RType::nat(), &RType::int(), &mut smt, "nat<:int")
            .is_ok());
        assert!(solver
            .subtype(&env, &RType::int(), &RType::nat(), &mut smt, "int<:nat")
            .is_err());
        assert!(solver
            .subtype(&env, &RType::pos(), &RType::nat(), &mut smt, "pos<:nat")
            .is_ok());
    }

    #[test]
    fn environment_assumptions_enable_subtyping() {
        // With n ≤ 0 and 0 ≤ n in scope, {Int | ν = 0} <: {Int | ν = n}.
        let mut env = base_env();
        env.add_var("n", RType::nat());
        env.add_path_condition(Term::var("n", Sort::Int).le(Term::int(0)));
        let mut smt = Smt::new();
        let mut solver = ConstraintSolver::default();
        let lhs = RType::refined(BaseType::Int, Term::value_var(Sort::Int).eq(Term::int(0)));
        let rhs = RType::refined(
            BaseType::Int,
            Term::value_var(Sort::Int).eq(Term::var("n", Sort::Int)),
        );
        assert!(solver
            .subtype(&env, &lhs, &rhs, &mut smt, "zero<:n")
            .is_ok());
    }

    #[test]
    fn function_subtyping_is_contravariant() {
        let env = base_env();
        let mut smt = Smt::new();
        let mut solver = ConstraintSolver::default();
        // (Int → Nat) <: (Nat → Int): argument contravariance, result covariance.
        let f1 = RType::fun("x", RType::int(), RType::nat());
        let f2 = RType::fun("y", RType::nat(), RType::int());
        assert!(solver.subtype(&env, &f1, &f2, &mut smt, "fun").is_ok());
        assert!(solver.subtype(&env, &f2, &f1, &mut smt, "fun-rev").is_err());
    }

    #[test]
    fn datatype_argument_covariance() {
        let env = base_env();
        let mut smt = Smt::new();
        let mut solver = ConstraintSolver::default();
        assert!(solver
            .subtype(
                &env,
                &list_of(RType::pos()),
                &list_of(RType::nat()),
                &mut smt,
                "list"
            )
            .is_ok());
        assert!(solver
            .subtype(
                &env,
                &list_of(RType::int()),
                &list_of(RType::nat()),
                &mut smt,
                "list-rev"
            )
            .is_err());
    }

    #[test]
    fn free_type_variable_unification_discovers_refinements() {
        // The append example of Sec. 3.2: List Nat <: List 'a and
        // List 'a <: List Pos cannot both hold.
        let env = base_env();
        let mut smt = Smt::new();
        let mut solver = ConstraintSolver::default();
        let a = solver.fresh_type_var();
        let list_a = list_of(RType::tyvar(a.clone()));
        assert!(solver
            .subtype(&env, &list_of(RType::nat()), &list_a, &mut smt, "arg")
            .is_ok());
        // Now 'a has been unified with a liquid type of shape Int; requiring
        // List 'a <: List Pos must fail because Nat values flowed into 'a.
        let result = solver.subtype(&env, &list_a, &list_of(RType::pos()), &mut smt, "ret");
        assert!(result.is_err(), "expected failure, got {result:?}");
    }

    #[test]
    fn free_type_variable_unification_succeeds_when_consistent() {
        let env = base_env();
        let mut smt = Smt::new();
        let mut solver = ConstraintSolver::default();
        let a = solver.fresh_type_var();
        let list_a = list_of(RType::tyvar(a.clone()));
        assert!(solver
            .subtype(&env, &list_of(RType::pos()), &list_a, &mut smt, "arg")
            .is_ok());
        assert!(solver
            .subtype(&env, &list_a, &list_of(RType::nat()), &mut smt, "ret")
            .is_ok());
        // The discovered instantiation must entail ν ≥ 0.
        let assigned = solver.finalize(&RType::tyvar(a));
        let refinement = assigned.refinement();
        assert!(smt.entails(&refinement, &Term::value_var(Sort::Int).ge(Term::int(0))));
    }

    #[test]
    fn shape_mismatch_is_detected() {
        let env = base_env();
        let mut smt = Smt::new();
        let mut solver = ConstraintSolver::default();
        let err = solver
            .subtype(
                &env,
                &RType::int(),
                &RType::fun("x", RType::int(), RType::int()),
                &mut smt,
                "mismatch",
            )
            .unwrap_err();
        assert!(err.message.contains("shape mismatch"));
        assert!(solver
            .subtype(&env, &RType::int(), &RType::bool(), &mut smt, "prim")
            .is_err());
    }

    #[test]
    fn consistency_check_rejects_contradictory_scalars() {
        let mut env = base_env();
        env.add_var(
            "xs",
            RType::refined(
                BaseType::Data("List".into(), vec![RType::int()]),
                Term::app(
                    "len",
                    vec![Term::value_var(Sort::data("List", vec![Sort::Int]))],
                    Sort::Int,
                )
                .eq(Term::int(6)),
            ),
        );
        let mut smt = Smt::new();
        let mut solver = ConstraintSolver::default();
        // {Int | ν = 1} is consistent with {Int | ν ≥ 0} but not with {Int | ν < 0}.
        let one = RType::refined(BaseType::Int, Term::value_var(Sort::Int).eq(Term::int(1)));
        assert!(solver
            .consistent(&env, &one, &RType::nat(), &mut smt, "ok")
            .is_ok());
        let neg = RType::refined(BaseType::Int, Term::value_var(Sort::Int).lt(Term::int(0)));
        assert!(solver
            .consistent(&env, &one, &neg, &mut smt, "bad")
            .is_err());
        // Disabling the check (T-ncc ablation) accepts everything.
        solver.consistency_enabled = false;
        assert!(solver.consistent(&env, &one, &neg, &mut smt, "bad").is_ok());
    }

    #[test]
    fn top_and_bot_behave_as_extremes() {
        let env = base_env();
        let mut smt = Smt::new();
        let mut solver = ConstraintSolver::default();
        assert!(solver
            .subtype(&env, &RType::Bot, &RType::nat(), &mut smt, "bot")
            .is_ok());
        assert!(solver
            .subtype(&env, &RType::nat(), &RType::Any, &mut smt, "top")
            .is_ok());
        assert!(solver
            .subtype(&env, &RType::Any, &RType::nat(), &mut smt, "top-l")
            .is_err());
    }

    #[test]
    fn instantiate_schema_freshens_type_variables() {
        let mut solver = ConstraintSolver::default();
        let schema = Schema::forall(
            vec!["a".to_string()],
            RType::fun("x", RType::tyvar("a"), list_of(RType::tyvar("a"))),
        );
        let t1 = solver.instantiate_schema(&schema);
        let t2 = solver.instantiate_schema(&schema);
        assert_ne!(t1, t2, "each instantiation must use fresh type variables");
        for v in t1.type_vars() {
            assert!(is_free_type_var(&v));
        }
    }

    #[test]
    fn abduction_via_unknown_path_condition() {
        // Reproduces the replicate Nil-branch abduction end to end through
        // the constraint solver: with path condition P0, the subtyping
        // {List 'b | len ν = 0} <: {List a | len ν = n} forces P0 ⊑ n ≤ 0.
        let mut env = base_env();
        env.add_var("n", RType::nat());
        env.add_var("x", RType::tyvar("a"));
        let mut smt = Smt::new();
        let mut solver = ConstraintSolver::default();
        let p0 = solver.fresh_unknown(&env, None, "branch condition");
        env.add_path_condition(p0.clone());

        let list_sort = Sort::data("List", vec![Sort::var("a")]);
        let len_v = Term::app("len", vec![Term::value_var(list_sort.clone())], Sort::Int);
        let b = solver.fresh_type_var();
        let lhs = RType::refined(
            BaseType::Data("List".into(), vec![RType::tyvar(b)]),
            len_v.clone().eq(Term::int(0)),
        );
        let rhs = RType::refined(
            BaseType::Data("List".into(), vec![RType::tyvar("a")]),
            len_v.eq(Term::var("n", Sort::Int)),
        );
        solver
            .subtype(&env, &lhs, &rhs, &mut smt, "replicate-nil")
            .expect("abduction should succeed");
        let cond = solver.apply_assignment(&p0);
        assert!(
            smt.entails(&cond, &Term::var("n", Sort::Int).le(Term::int(0))),
            "expected abduced condition to entail n ≤ 0, got {cond}"
        );
    }
}
