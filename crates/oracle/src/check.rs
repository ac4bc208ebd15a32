//! Checking concrete values against refinement types.
//!
//! `check` decides whether a first-order value inhabits a (scalar)
//! refinement type under an environment of logical bindings: the value's
//! shape must match the base type, every constructor field must inhabit
//! its declared field type (this is where datatype invariants like BST
//! ordering or `IList` sortedness live — they are element-type
//! refinements, composed through [`synquid_types::Schema::instantiate`]), and the
//! type's top-level refinement must evaluate to true with `ν` bound to
//! the value.
//!
//! Constructor binder names are freshened at every unfolding: `Node`
//! binds `x` at each level of a BST, so the refinement `ν < x` composed
//! into a nested element type would otherwise be captured by the inner
//! binding. Fresh names use a `$` prefix, which the surface syntax cannot
//! produce.

use crate::cval::CVal;
use crate::interp::{LogicEnv, LogicVal, MeasureInterp, OracleError};
use std::cell::Cell;
use synquid_logic::{Term, VALUE_VAR};
use synquid_types::{BaseType, Datatypes, RType};

/// A value-vs-type checker over a datatype registry.
pub struct Checker<'a> {
    datatypes: &'a Datatypes,
    interp: MeasureInterp<'a>,
    fresh: Cell<u64>,
}

impl<'a> Checker<'a> {
    /// A checker over the given datatype registry.
    pub fn new(datatypes: &'a Datatypes) -> Checker<'a> {
        Checker {
            datatypes,
            interp: MeasureInterp::new(datatypes),
            fresh: Cell::new(0),
        }
    }

    /// The underlying measure interpreter (shared fuel).
    pub fn interp(&self) -> &MeasureInterp<'a> {
        &self.interp
    }

    fn fresh_name(&self) -> String {
        let n = self.fresh.get();
        self.fresh.set(n + 1);
        format!("$v{n}")
    }

    /// Whether `value` inhabits the scalar type `ty` under `env`.
    ///
    /// `Ok(false)` means the value demonstrably does not inhabit the type
    /// (wrong shape, violated invariant, falsified refinement); `Err`
    /// means the oracle cannot decide (unsupported construct, missing
    /// measure).
    pub fn check(&self, value: &CVal, ty: &RType, env: &LogicEnv) -> Result<bool, OracleError> {
        let Some(base) = ty.base_type() else {
            return Err(OracleError::Unsupported(format!(
                "cannot check a value against non-scalar type {ty}"
            )));
        };
        match (base, value) {
            (BaseType::Int, CVal::Int(_)) => {}
            (BaseType::Bool, CVal::Bool(_)) => {}
            // Type variables are monomorphized to Int by the generator; an
            // integer (or any other scalar) inhabits the shape.
            (BaseType::TypeVar(_), CVal::Int(_) | CVal::Bool(_)) => {}
            (BaseType::Data(dt_name, params), CVal::Ctor(ctor_name, fields)) => {
                let Some(dt) = self.datatypes.get(dt_name) else {
                    return Err(OracleError::Unsupported(format!(
                        "unknown datatype {dt_name}"
                    )));
                };
                let Some(ctor) = dt.constructor(ctor_name) else {
                    // A constructor from some other datatype: not an
                    // inhabitant.
                    return Ok(false);
                };
                // Compose the expected element refinements into the
                // constructor's field types (e.g. `BST {a | ν < x}`
                // refines every key of the left subtree).
                let instantiated = ctor.schema.instantiate(params);
                let (mut args, _ret) = instantiated.uncurry();
                if args.len() != fields.len() {
                    return Ok(false);
                }
                let mut inner_env = env.clone();
                for i in 0..args.len() {
                    let (orig_name, field_ty) = args[i].clone();
                    if !self.check(&fields[i], &field_ty, &inner_env)? {
                        return Ok(false);
                    }
                    // Later field types may reference this field by its
                    // binder name; rename to a fresh one so nested
                    // unfoldings of the same constructor cannot capture it.
                    let fresh = self.fresh_name();
                    let replacement = Term::var(fresh.clone(), field_ty.sort());
                    for arg in args.iter_mut().skip(i + 1) {
                        arg.1 = arg.1.substitute_var(&orig_name, &replacement);
                    }
                    inner_env.insert(fresh, LogicVal::of(&fields[i]));
                }
            }
            // Shape mismatch: the value does not inhabit the base type.
            _ => return Ok(false),
        }
        let refinement = ty.refinement();
        if refinement.is_true() {
            return Ok(true);
        }
        let mut env = env.clone();
        env.insert(VALUE_VAR.to_string(), LogicVal::of(value));
        self.interp.eval_bool(&refinement, &env)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus_datatypes as dts;
    use synquid_logic::Sort;

    fn node(key: i64, l: CVal, r: CVal) -> CVal {
        CVal::Ctor("Node".into(), vec![CVal::Int(key), l, r])
    }

    fn empty() -> CVal {
        CVal::Ctor("Empty".into(), vec![])
    }

    fn bst_ty() -> RType {
        RType::base(BaseType::Data("BST".into(), vec![RType::int()]))
    }

    #[test]
    fn well_ordered_bsts_check_and_disordered_ones_do_not() {
        let dts = dts();
        let checker = Checker::new(&dts);
        let good = node(5, node(2, empty(), empty()), node(8, empty(), empty()));
        assert_eq!(checker.check(&good, &bst_ty(), &LogicEnv::new()), Ok(true));
        // 8 in the left subtree of 5 violates ν < x.
        let bad = node(5, node(8, empty(), empty()), empty());
        assert_eq!(checker.check(&bad, &bst_ty(), &LogicEnv::new()), Ok(false));
        // Deep violation: 9 in the left-left position under 5 — only
        // detectable if the outer ν < 5 constraint survives the nested
        // unfolding (binder freshening).
        let deep = node(5, node(3, empty(), node(9, empty(), empty())), empty());
        assert_eq!(checker.check(&deep, &bst_ty(), &LogicEnv::new()), Ok(false));
    }

    #[test]
    fn increasing_lists_enforce_sortedness() {
        let dts = dts();
        let checker = Checker::new(&dts);
        let ilist_ty = RType::base(BaseType::Data("IList".into(), vec![RType::int()]));
        let ilist = |items: &[i64]| {
            items
                .iter()
                .rev()
                .fold(CVal::Ctor("INil".into(), vec![]), |acc, n| {
                    CVal::Ctor("ICons".into(), vec![CVal::Int(*n), acc])
                })
        };
        assert_eq!(
            checker.check(&ilist(&[1, 3, 3, 7]), &ilist_ty, &LogicEnv::new()),
            Ok(true)
        );
        assert_eq!(
            checker.check(&ilist(&[3, 1]), &ilist_ty, &LogicEnv::new()),
            Ok(false)
        );
    }

    #[test]
    fn refinements_with_free_variables_use_the_environment() {
        let dts = dts();
        let checker = Checker::new(&dts);
        // {Int | ν > n} with n = 3.
        let ty = RType::refined(
            BaseType::Int,
            Term::value_var(Sort::Int).gt(Term::var("n", Sort::Int)),
        );
        let mut env = LogicEnv::new();
        env.insert("n".into(), LogicVal::Int(3));
        assert_eq!(checker.check(&CVal::Int(4), &ty, &env), Ok(true));
        assert_eq!(checker.check(&CVal::Int(3), &ty, &env), Ok(false));
    }

    #[test]
    fn shape_mismatches_are_refutations_not_errors() {
        let dts = dts();
        let checker = Checker::new(&dts);
        assert_eq!(
            checker.check(&CVal::Bool(true), &RType::int(), &LogicEnv::new()),
            Ok(false)
        );
        // A List constructor is not a BST inhabitant.
        let nil = CVal::Ctor("Nil".into(), vec![]);
        assert_eq!(checker.check(&nil, &bst_ty(), &LogicEnv::new()), Ok(false));
    }

    #[test]
    fn measure_refinements_check_on_lists() {
        let dts = dts();
        let checker = Checker::new(&dts);
        // {List Int | len ν = 2}
        let ls = Sort::Data("List".into(), vec![Sort::Int]);
        let ty = RType::refined(
            BaseType::Data("List".into(), vec![RType::int()]),
            Term::app("len", vec![Term::value_var(ls)], Sort::Int).eq(Term::int(2)),
        );
        let list = |items: &[i64]| {
            items
                .iter()
                .rev()
                .fold(CVal::Ctor("Nil".into(), vec![]), |acc, n| {
                    CVal::Ctor("Cons".into(), vec![CVal::Int(*n), acc])
                })
        };
        assert_eq!(
            checker.check(&list(&[1, 2]), &ty, &LogicEnv::new()),
            Ok(true)
        );
        assert_eq!(checker.check(&list(&[1]), &ty, &LogicEnv::new()), Ok(false));
    }
}
