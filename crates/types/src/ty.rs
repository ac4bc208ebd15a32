//! Refinement types, schemas, and contextual types (Fig. 2 of the paper).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use synquid_logic::{Sort, Substitution, Term};

/// A base type `B`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BaseType {
    /// Primitive booleans.
    Bool,
    /// Primitive integers.
    Int,
    /// A datatype `D T₁ … Tₙ` with (possibly refined) type arguments.
    Data(String, Vec<RType>),
    /// A type variable `α` (either a rigid variable bound by the goal
    /// schema or a free unification variable introduced by the constraint
    /// solver — free variables are distinguished by their name prefix, see
    /// [`is_free_type_var`]).
    TypeVar(String),
}

/// Prefix of free (unification) type variables.
pub const FREE_TYPE_VAR_PREFIX: &str = "'";

/// True if the name denotes a free unification type variable.
pub fn is_free_type_var(name: &str) -> bool {
    name.starts_with(FREE_TYPE_VAR_PREFIX)
}

impl BaseType {
    /// The logical sort corresponding to values of this base type.
    pub fn sort(&self) -> Sort {
        match self {
            BaseType::Bool => Sort::Bool,
            BaseType::Int => Sort::Int,
            BaseType::Data(name, args) => {
                Sort::Data(name.clone(), args.iter().map(|a| a.sort()).collect())
            }
            BaseType::TypeVar(name) => Sort::Var(name.clone()),
        }
    }
}

/// A refinement type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RType {
    /// A scalar type `{B | ψ}`.
    Scalar {
        /// The base type.
        base: BaseType,
        /// The refinement over `ν` and program variables.
        refinement: Term,
    },
    /// A dependent function type `x:T → T'` (`T'` may mention `x` only if
    /// `T` is scalar).
    Function {
        /// Formal argument name.
        arg_name: String,
        /// Argument type.
        arg: Box<RType>,
        /// Result type.
        ret: Box<RType>,
    },
    /// The `top` type: a supertype of every type (used for goals with an
    /// underspecified shape, e.g. match scrutinees).
    Any,
    /// The `bot` type: a subtype of every type (used for the left-hand
    /// side of higher-order application goals).
    Bot,
}

impl RType {
    /// An unrefined scalar of the given base type (refinement `true`).
    pub fn base(base: BaseType) -> RType {
        RType::Scalar {
            base,
            refinement: Term::tt(),
        }
    }

    /// A refined scalar type.
    pub fn refined(base: BaseType, refinement: Term) -> RType {
        RType::Scalar { base, refinement }
    }

    /// The `Int` type.
    pub fn int() -> RType {
        RType::base(BaseType::Int)
    }

    /// The `Bool` type.
    pub fn bool() -> RType {
        RType::base(BaseType::Bool)
    }

    /// `{Int | ν ≥ 0}` (the `Nat` abbreviation of the paper).
    pub fn nat() -> RType {
        RType::refined(BaseType::Int, Term::value_var(Sort::Int).ge(Term::int(0)))
    }

    /// `{Int | ν > 0}` (the `Pos` abbreviation).
    pub fn pos() -> RType {
        RType::refined(BaseType::Int, Term::value_var(Sort::Int).gt(Term::int(0)))
    }

    /// An unrefined type variable.
    pub fn tyvar(name: impl Into<String>) -> RType {
        RType::base(BaseType::TypeVar(name.into()))
    }

    /// A function type.
    pub fn fun(arg_name: impl Into<String>, arg: RType, ret: RType) -> RType {
        RType::Function {
            arg_name: arg_name.into(),
            arg: Box::new(arg),
            ret: Box::new(ret),
        }
    }

    /// Builds a curried function type from argument bindings and a result.
    pub fn fun_n(args: Vec<(String, RType)>, ret: RType) -> RType {
        args.into_iter()
            .rev()
            .fold(ret, |acc, (name, arg)| RType::fun(name, arg, acc))
    }

    /// True if this is a scalar type.
    pub fn is_scalar(&self) -> bool {
        matches!(self, RType::Scalar { .. })
    }

    /// True if this is a function type.
    pub fn is_function(&self) -> bool {
        matches!(self, RType::Function { .. })
    }

    /// The refinement of a scalar type (`true` for non-scalars).
    pub fn refinement(&self) -> Term {
        match self {
            RType::Scalar { refinement, .. } => refinement.clone(),
            _ => Term::tt(),
        }
    }

    /// The base type of a scalar type.
    pub fn base_type(&self) -> Option<&BaseType> {
        match self {
            RType::Scalar { base, .. } => Some(base),
            _ => None,
        }
    }

    /// The logical sort of values of this type (`None` for functions and
    /// top/bot).
    pub fn sort(&self) -> Sort {
        match self {
            RType::Scalar { base, .. } => base.sort(),
            RType::Any | RType::Bot => Sort::Unknown,
            RType::Function { .. } => Sort::Unknown,
        }
    }

    /// The *shape* of the type: the same type with all refinements erased.
    pub fn shape(&self) -> RType {
        match self {
            RType::Scalar { base, .. } => RType::Scalar {
                base: match base {
                    BaseType::Data(n, args) => {
                        BaseType::Data(n.clone(), args.iter().map(|a| a.shape()).collect())
                    }
                    other => other.clone(),
                },
                refinement: Term::tt(),
            },
            RType::Function { arg_name, arg, ret } => RType::Function {
                arg_name: arg_name.clone(),
                arg: Box::new(arg.shape()),
                ret: Box::new(ret.shape()),
            },
            RType::Any => RType::Any,
            RType::Bot => RType::Bot,
        }
    }

    /// Conjoins an additional refinement onto a scalar type (the `Refine`
    /// operation of Fig. 6). Non-scalar types are returned unchanged.
    pub fn refine_with(&self, extra: &Term) -> RType {
        match self {
            RType::Scalar { base, refinement } => RType::Scalar {
                base: base.clone(),
                refinement: refinement.clone().and(extra.clone()),
            },
            _ => self.clone(),
        }
    }

    /// The argument types and final result of a curried function type.
    pub fn uncurry(&self) -> (Vec<(String, RType)>, RType) {
        let mut args = Vec::new();
        let mut current = self.clone();
        while let RType::Function { arg_name, arg, ret } = current {
            args.push((arg_name, *arg));
            current = *ret;
        }
        (args, current)
    }

    /// Substitutes terms for program variables inside all refinements.
    pub fn substitute(&self, subst: &Substitution) -> RType {
        match self {
            RType::Scalar { base, refinement } => RType::Scalar {
                base: base.substitute(subst),
                refinement: refinement.substitute(subst),
            },
            RType::Function { arg_name, arg, ret } => {
                // The formal argument shadows any outer binding.
                let mut inner = subst.clone();
                inner.remove(arg_name);
                RType::Function {
                    arg_name: arg_name.clone(),
                    arg: Box::new(arg.substitute(subst)),
                    ret: Box::new(ret.substitute(&inner)),
                }
            }
            RType::Any => RType::Any,
            RType::Bot => RType::Bot,
        }
    }

    /// Substitutes a single program variable.
    pub fn substitute_var(&self, name: &str, replacement: &Term) -> RType {
        let mut subst = Substitution::new();
        subst.insert(name.to_string(), replacement.clone());
        self.substitute(&subst)
    }

    /// Substitutes types for type variables. Substituting a scalar
    /// `{B | ψ}` for `α` inside `{α | φ}` produces `{B | ψ ∧ φ}` (the
    /// refinements are conjoined), which is how polymorphic instantiation
    /// refines occurrences of the type variable.
    pub fn substitute_type_vars(&self, map: &BTreeMap<String, RType>) -> RType {
        match self {
            RType::Scalar { base, refinement } => match base {
                BaseType::TypeVar(name) => match map.get(name) {
                    Some(replacement) => replacement.refine_with(refinement),
                    None => self.clone(),
                },
                BaseType::Data(n, args) => RType::Scalar {
                    base: BaseType::Data(
                        n.clone(),
                        args.iter().map(|a| a.substitute_type_vars(map)).collect(),
                    ),
                    refinement: refinement.clone(),
                },
                _ => self.clone(),
            },
            RType::Function { arg_name, arg, ret } => RType::Function {
                arg_name: arg_name.clone(),
                arg: Box::new(arg.substitute_type_vars(map)),
                ret: Box::new(ret.substitute_type_vars(map)),
            },
            RType::Any => RType::Any,
            RType::Bot => RType::Bot,
        }
    }

    /// The free type variables occurring in this type.
    pub fn type_vars(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.collect_type_vars(&mut out);
        out
    }

    fn collect_type_vars(&self, out: &mut BTreeSet<String>) {
        match self {
            RType::Scalar { base, .. } => match base {
                BaseType::TypeVar(name) => {
                    out.insert(name.clone());
                }
                BaseType::Data(_, args) => {
                    for a in args {
                        a.collect_type_vars(out);
                    }
                }
                _ => {}
            },
            RType::Function { arg, ret, .. } => {
                arg.collect_type_vars(out);
                ret.collect_type_vars(out);
            }
            _ => {}
        }
    }

    /// Renames the value variable of a scalar type to a program variable:
    /// the refinement of `{B | ψ}` becomes `[x/ν]ψ`.
    pub fn refinement_for(&self, var_name: &str) -> Term {
        match self {
            RType::Scalar { base, refinement } => {
                refinement.substitute_value(&Term::var(var_name, base.sort()))
            }
            _ => Term::tt(),
        }
    }

    /// The "singleton strengthening" of a scalar variable lookup (rule
    /// VarSC): `{B | ν = x}`, with datatype equalities expanded into
    /// measure equalities by the caller.
    pub fn singleton(base: BaseType, var_name: &str) -> RType {
        let sort = base.sort();
        RType::Scalar {
            base,
            refinement: Term::value_var(sort.clone()).eq(Term::var(var_name, sort)),
        }
    }
}

impl BaseType {
    fn substitute(&self, subst: &Substitution) -> BaseType {
        match self {
            BaseType::Data(n, args) => BaseType::Data(
                n.clone(),
                args.iter().map(|a| a.substitute(subst)).collect(),
            ),
            _ => self.clone(),
        }
    }
}

/// A type schema `∀ α₁ … αₙ . T`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    /// The bound type variables.
    pub type_vars: Vec<String>,
    /// The body type.
    pub ty: RType,
}

impl Schema {
    /// A monomorphic schema.
    pub fn monotype(ty: RType) -> Schema {
        Schema {
            type_vars: Vec::new(),
            ty,
        }
    }

    /// A polymorphic schema.
    pub fn forall(type_vars: Vec<String>, ty: RType) -> Schema {
        Schema { type_vars, ty }
    }

    /// True if the schema binds no type variables.
    pub fn is_monomorphic(&self) -> bool {
        self.type_vars.is_empty()
    }

    /// Instantiates the schema by substituting the given types for its
    /// bound variables (positionally).
    pub fn instantiate(&self, args: &[RType]) -> RType {
        let map: BTreeMap<String, RType> = self
            .type_vars
            .iter()
            .cloned()
            .zip(args.iter().cloned())
            .collect();
        self.ty.substitute_type_vars(&map)
    }
}

impl From<RType> for Schema {
    fn from(ty: RType) -> Schema {
        Schema::monotype(ty)
    }
}

/// A contextual type `let C in T`: a type that may mention the variables
/// bound (with their precise types) in the context `C`. Contextual types
/// let the application rule name the argument of an application without
/// requiring the argument term to have a logical counterpart.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContextualType {
    /// Context bindings, innermost last.
    pub context: Vec<(String, RType)>,
    /// The underlying type.
    pub ty: RType,
}

impl ContextualType {
    /// A contextual type with an empty context.
    pub fn plain(ty: RType) -> ContextualType {
        ContextualType {
            context: Vec::new(),
            ty,
        }
    }

    /// Adds a binding to the context.
    pub fn bind(mut self, name: impl Into<String>, ty: RType) -> ContextualType {
        self.context.push((name.into(), ty));
        self
    }
}

impl fmt::Display for BaseType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BaseType::Bool => write!(f, "Bool"),
            BaseType::Int => write!(f, "Int"),
            BaseType::TypeVar(a) => write!(f, "{a}"),
            BaseType::Data(n, args) => {
                write!(f, "{n}")?;
                for a in args {
                    write!(f, " ({a})")?;
                }
                Ok(())
            }
        }
    }
}

impl fmt::Display for RType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RType::Scalar { base, refinement } => {
                if refinement.is_true() {
                    write!(f, "{base}")
                } else {
                    write!(f, "{{{base} | {refinement}}}")
                }
            }
            RType::Function { arg_name, arg, ret } => {
                write!(f, "{arg_name}:({arg}) -> {ret}")
            }
            RType::Any => write!(f, "top"),
            RType::Bot => write!(f, "bot"),
        }
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.type_vars.is_empty() {
            write!(f, "<{}> . ", self.type_vars.join(", "))?;
        }
        write!(f, "{}", self.ty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn list_of(t: RType) -> RType {
        RType::base(BaseType::Data("List".into(), vec![t]))
    }

    #[test]
    fn nat_and_pos_abbreviations() {
        assert_eq!(
            RType::nat().refinement(),
            Term::value_var(Sort::Int).ge(Term::int(0))
        );
        assert!(RType::pos().is_scalar());
    }

    #[test]
    fn uncurry_roundtrips_fun_n() {
        let ty = RType::fun_n(
            vec![
                ("n".to_string(), RType::nat()),
                ("x".to_string(), RType::tyvar("a")),
            ],
            list_of(RType::tyvar("a")),
        );
        let (args, ret) = ty.uncurry();
        assert_eq!(args.len(), 2);
        assert_eq!(args[0].0, "n");
        assert_eq!(ret, list_of(RType::tyvar("a")));
    }

    #[test]
    fn shape_erases_refinements_deeply() {
        let ty = RType::fun(
            "n",
            RType::nat(),
            RType::refined(
                BaseType::Data("List".into(), vec![RType::pos()]),
                Term::value_var(Sort::Int).eq(Term::int(3)),
            ),
        );
        let shape = ty.shape();
        let (args, ret) = shape.uncurry();
        assert!(args[0].1.refinement().is_true());
        assert!(ret.refinement().is_true());
        match ret.base_type().unwrap() {
            BaseType::Data(_, params) => assert!(params[0].refinement().is_true()),
            _ => panic!("expected datatype"),
        }
    }

    #[test]
    fn type_var_substitution_conjoins_refinements() {
        // {α | ν ≠ x} with α := {Int | ν ≥ 0} gives {Int | ν ≥ 0 ∧ ν ≠ x}.
        let alpha = RType::refined(
            BaseType::TypeVar("a".into()),
            Term::value_var(Sort::var("a")).neq(Term::var("x", Sort::var("a"))),
        );
        let mut map = BTreeMap::new();
        map.insert("a".to_string(), RType::nat());
        let result = alpha.substitute_type_vars(&map);
        match &result {
            RType::Scalar { base, refinement } => {
                assert_eq!(*base, BaseType::Int);
                // Both conjuncts present.
                let s = refinement.to_string();
                assert!(s.contains(">="), "missing nat refinement: {s}");
                assert!(s.contains("!="), "missing original refinement: {s}");
            }
            other => panic!("expected scalar, got {other:?}"),
        }
    }

    #[test]
    fn program_var_substitution_respects_shadowing() {
        // In n:Int → {Int | ν = n}, substituting n should do nothing to the
        // return type because the formal argument shadows it.
        let ty = RType::fun(
            "n",
            RType::int(),
            RType::refined(
                BaseType::Int,
                Term::value_var(Sort::Int).eq(Term::var("n", Sort::Int)),
            ),
        );
        let substituted = ty.substitute_var("n", &Term::int(5));
        assert_eq!(substituted, ty);
    }

    #[test]
    fn refinement_for_renames_value_var() {
        let t = RType::nat();
        assert_eq!(
            t.refinement_for("n"),
            Term::var("n", Sort::Int).ge(Term::int(0))
        );
    }

    #[test]
    fn schema_instantiation_is_positional() {
        let schema = Schema::forall(
            vec!["a".to_string()],
            RType::fun("x", RType::tyvar("a"), list_of(RType::tyvar("a"))),
        );
        let inst = schema.instantiate(&[RType::int()]);
        let (args, ret) = inst.uncurry();
        assert_eq!(args[0].1, RType::int());
        match ret.base_type().unwrap() {
            BaseType::Data(_, params) => assert_eq!(params[0], RType::int()),
            _ => panic!("expected list"),
        }
    }

    #[test]
    fn display_is_readable() {
        let ty = RType::fun("n", RType::nat(), list_of(RType::tyvar("a")));
        let s = ty.to_string();
        assert!(s.contains("n:"));
        assert!(s.contains("List"));
    }

    #[test]
    fn free_type_var_prefix_is_detected() {
        assert!(is_free_type_var("'t0"));
        assert!(!is_free_type_var("a"));
    }

    #[test]
    fn type_vars_are_collected_from_nested_positions() {
        let ty = RType::fun(
            "f",
            RType::fun("x", RType::tyvar("a"), RType::tyvar("b")),
            list_of(RType::tyvar("a")),
        );
        let vars = ty.type_vars();
        assert!(vars.contains("a"));
        assert!(vars.contains("b"));
        assert_eq!(vars.len(), 2);
    }
}
