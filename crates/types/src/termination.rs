//! Termination weakening (the `S≺` operation used by the FIX rule).
//!
//! When a recursive function is added to its own environment, its type is
//! weakened so that recursive calls are only possible on strictly smaller
//! arguments. Following the paper, the well-founded order is provided by
//! primitive base types (`Int` bounded below by the original argument and
//! above by it) and by user-declared *termination measures* on datatypes.
//!
//! This implementation weakens the *first* argument that has an associated
//! well-founded order, requiring it to decrease strictly while remaining
//! non-negative. (The paper uses the full lexicographic order over all
//! measured arguments; single-argument descent is sufficient for the
//! benchmark families reproduced here and the difference is documented in
//! the `crates/types` section of `docs/ARCHITECTURE.md`.)

use crate::env::Environment;
use crate::ty::{BaseType, RType, Schema};
use synquid_logic::Term;

/// Returns the termination metric of an argument type, as a function of a
/// term denoting the argument: `Some(metric)` if the type has an
/// associated well-founded order.
pub fn termination_metric(env: &Environment, ty: &RType) -> Option<Box<dyn Fn(Term) -> Term>> {
    match ty.base_type()? {
        BaseType::Int => Some(Box::new(|t| t)),
        BaseType::Data(name, _) => {
            let dt = env.datatype(name)?;
            let measure = dt.termination()?.clone();
            Some(Box::new(move |t| measure.apply(t)))
        }
        _ => None,
    }
}

/// The index of the first argument of the (uncurried) function type that
/// carries a termination metric.
pub fn terminating_argument(env: &Environment, ty: &RType) -> Option<usize> {
    let (args, _) = ty.uncurry();
    args.iter()
        .position(|(_, t)| termination_metric(env, t).is_some())
}

/// Produces the termination-weakened schema `S≺` for a recursive binding:
/// the first metric-carrying argument's type is strengthened with
/// `0 ≤ metric(ν) < metric(x₀)`, where `x₀` denotes the corresponding
/// argument of the *current* call (the formal parameter names are renamed
/// apart so that the weakened type can refer to them).
///
/// Returns `None` if no argument carries a metric (the function cannot be
/// recursive under the termination discipline).
pub fn weaken_for_recursion(
    env: &Environment,
    schema: &Schema,
    outer_arg_names: &[String],
) -> Option<Schema> {
    let (args, ret) = schema.ty.uncurry();
    let idx = args
        .iter()
        .position(|(_, t)| termination_metric(env, t).is_some())?;
    let mut new_args = Vec::with_capacity(args.len());
    for (i, (name, ty)) in args.iter().enumerate() {
        if i == idx {
            let metric = termination_metric(env, ty).expect("metric exists at idx");
            let sort = ty.sort();
            let nu = Term::value_var(sort.clone());
            let outer_name = outer_arg_names
                .get(i)
                .cloned()
                .unwrap_or_else(|| name.clone());
            let outer = Term::var(outer_name, sort);
            let decreasing = Term::int(0)
                .le(metric(nu.clone()))
                .and(metric(nu).lt(metric(outer)));
            new_args.push((name.clone(), ty.refine_with(&decreasing)));
        } else {
            new_args.push((name.clone(), ty.clone()));
        }
    }
    Some(Schema::forall(
        schema.type_vars.clone(),
        RType::fun_n(new_args, ret),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::list_datatype;
    use synquid_logic::Sort;

    fn env_with_list() -> Environment {
        let mut env = Environment::new();
        env.add_datatype(list_datatype());
        env
    }

    fn list_ty() -> RType {
        RType::base(BaseType::Data("List".into(), vec![RType::tyvar("a")]))
    }

    #[test]
    fn int_arguments_have_identity_metric() {
        let env = env_with_list();
        let metric = termination_metric(&env, &RType::nat()).expect("Int has a metric");
        let t = metric(Term::var("n", Sort::Int));
        assert_eq!(t.to_string(), "n");
    }

    #[test]
    fn datatype_arguments_use_the_termination_measure() {
        let env = env_with_list();
        let metric = termination_metric(&env, &list_ty()).expect("List has a metric");
        let t = metric(Term::var("xs", Sort::data("List", vec![Sort::var("a")])));
        assert_eq!(t.to_string(), "len xs");
    }

    #[test]
    fn booleans_have_no_metric() {
        let env = env_with_list();
        assert!(termination_metric(&env, &RType::bool()).is_none());
    }

    #[test]
    fn weakening_strengthens_the_first_measured_argument() {
        // replicate :: n: Nat → x: α → {List α | len ν = n}
        let env = env_with_list();
        let goal = Schema::forall(
            vec!["a".to_string()],
            RType::fun_n(
                vec![
                    ("n".to_string(), RType::nat()),
                    ("x".to_string(), RType::tyvar("a")),
                ],
                list_ty(),
            ),
        );
        let weakened =
            weaken_for_recursion(&env, &goal, &["n".to_string(), "x".to_string()]).unwrap();
        let (args, _) = weakened.ty.uncurry();
        let n_refinement = args[0].1.refinement().to_string();
        assert!(n_refinement.contains("< n"), "got {n_refinement}");
        assert!(n_refinement.contains("0 <="), "got {n_refinement}");
        // The second argument is untouched.
        assert!(args[1].1.refinement().is_true());
    }

    #[test]
    fn functions_without_metrics_cannot_recurse() {
        let env = env_with_list();
        let goal = Schema::monotype(RType::fun("b", RType::bool(), RType::bool()));
        assert!(weaken_for_recursion(&env, &goal, &["b".to_string()]).is_none());
        assert_eq!(terminating_argument(&env, &goal.ty), None);
    }

    #[test]
    fn first_measured_argument_is_selected() {
        let env = env_with_list();
        let ty = RType::fun_n(
            vec![
                ("f".to_string(), RType::fun("x", RType::int(), RType::int())),
                ("xs".to_string(), list_ty()),
                ("n".to_string(), RType::int()),
            ],
            RType::int(),
        );
        assert_eq!(terminating_argument(&env, &ty), Some(1));
    }
}
