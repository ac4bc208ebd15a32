//! Datatypes, constructors, and measures.
//!
//! A datatype declaration introduces constructors (functions whose result
//! type is the datatype, refined with measure information) and measures
//! (uninterpreted functions from the datatype into a logical sort, e.g.
//! `len : List α → Int`, `elems : List α → Set α`). One measure may be
//! declared as the *termination metric*, enabling the termination check of
//! the FIX rule.

use crate::ty::{BaseType, RType, Schema};
use std::collections::BTreeMap;
use synquid_logic::{Sort, Term};

/// A measure signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Measure {
    /// Measure name (also the uninterpreted function symbol in refinements).
    pub name: String,
    /// The datatype the measure is defined on.
    pub datatype: String,
    /// The logical sort of the measure's result.
    pub result: Sort,
    /// True if results of this measure are known to be non-negative
    /// (declared `termination measure … :: D → Nat` in the paper); this
    /// fact is added to environment assumptions for applications of the
    /// measure.
    pub non_negative: bool,
}

impl Measure {
    /// Applies the measure to a term.
    pub fn apply(&self, arg: Term) -> Term {
        Term::app(self.name.clone(), vec![arg], self.result.clone())
    }
}

/// A datatype constructor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Constructor {
    /// Constructor name (e.g. `Cons`).
    pub name: String,
    /// The constructor's type schema
    /// (`∀ α. T₁ → … → Tₖ → {D α | ψ}`).
    pub schema: Schema,
}

impl Constructor {
    /// Number of arguments the constructor takes.
    pub fn arity(&self) -> usize {
        self.schema.ty.uncurry().0.len()
    }

    /// True if the constructor takes no arguments (a *scalar* constructor
    /// such as `Nil`, required for match abduction).
    pub fn is_scalar(&self) -> bool {
        self.arity() == 0
    }
}

/// A datatype declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Datatype {
    /// Datatype name (e.g. `List`).
    pub name: String,
    /// Type parameter names.
    pub type_params: Vec<String>,
    /// The constructors, in declaration order.
    pub constructors: Vec<Constructor>,
    /// Measures defined on this datatype.
    pub measures: Vec<Measure>,
    /// Name of the termination measure, if any.
    pub termination_measure: Option<String>,
}

impl Datatype {
    /// Looks up a constructor by name.
    pub fn constructor(&self, name: &str) -> Option<&Constructor> {
        self.constructors.iter().find(|c| c.name == name)
    }

    /// Looks up a measure by name.
    pub fn measure(&self, name: &str) -> Option<&Measure> {
        self.measures.iter().find(|m| m.name == name)
    }

    /// The termination measure, if declared.
    pub fn termination(&self) -> Option<&Measure> {
        self.termination_measure
            .as_deref()
            .and_then(|n| self.measure(n))
    }

    /// True if at least one constructor is scalar (no arguments), which is
    /// the precondition for match abduction in the paper.
    pub fn has_scalar_constructor(&self) -> bool {
        self.constructors.iter().any(Constructor::is_scalar)
    }
}

/// Builds the standard `List` datatype of the paper:
///
/// ```text
/// termination measure len :: List β → Nat
/// measure elems :: List β → Set β
/// data List β where
///   Nil  :: {List β | len ν = 0 ∧ elems ν = []}
///   Cons :: x: β → xs: List β →
///           {List β | len ν = len xs + 1 ∧ elems ν = elems xs + [x]}
/// ```
///
/// The corpus declares every datatype in `.sq`; this builder serves the
/// crates below the parser, and the desugarer's tests pin it to the
/// `.sq` `List`.
pub fn list_datatype() -> Datatype {
    let beta = "b".to_string();
    let list_base = BaseType::Data("List".into(), vec![RType::tyvar(beta.clone())]);
    let list_sort = list_base.sort();
    let elem_sort = Sort::var(beta.clone());
    let len = |t: Term| Term::app("len", vec![t], Sort::Int);
    let elems = |t: Term| Term::app("elems", vec![t], Sort::set(elem_sort.clone()));
    let nu = || Term::value_var(list_sort.clone());

    let nil_refinement = len(nu())
        .eq(Term::int(0))
        .and(elems(nu()).eq(Term::empty_set(elem_sort.clone())));
    let nil = Constructor {
        name: "Nil".into(),
        schema: Schema::forall(
            vec![beta.clone()],
            RType::refined(list_base.clone(), nil_refinement),
        ),
    };

    let xs = Term::var("xs", list_sort.clone());
    let x = Term::var("x", elem_sort.clone());
    let cons_refinement = len(nu())
        .eq(len(xs.clone()).plus(Term::int(1)))
        .and(elems(nu()).eq(elems(xs).union(Term::singleton(elem_sort.clone(), x))));
    let cons = Constructor {
        name: "Cons".into(),
        schema: Schema::forall(
            vec![beta.clone()],
            RType::fun_n(
                vec![
                    ("x".to_string(), RType::tyvar(beta.clone())),
                    (
                        "xs".to_string(),
                        RType::base(BaseType::Data(
                            "List".into(),
                            vec![RType::tyvar(beta.clone())],
                        )),
                    ),
                ],
                RType::refined(list_base.clone(), cons_refinement),
            ),
        ),
    };

    Datatype {
        name: "List".into(),
        type_params: vec![beta],
        constructors: vec![nil, cons],
        measures: vec![
            Measure {
                name: "len".into(),
                datatype: "List".into(),
                result: Sort::Int,
                non_negative: true,
            },
            Measure {
                name: "elems".into(),
                datatype: "List".into(),
                result: Sort::set(elem_sort),
                non_negative: false,
            },
        ],
        termination_measure: Some("len".into()),
    }
}

/// A registry of datatype declarations keyed by name.
pub type Datatypes = BTreeMap<String, Datatype>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn list_datatype_has_expected_structure() {
        let list = list_datatype();
        assert_eq!(list.constructors.len(), 2);
        assert!(list.constructor("Nil").unwrap().is_scalar());
        assert_eq!(list.constructor("Cons").unwrap().arity(), 2);
        assert!(list.has_scalar_constructor());
        assert_eq!(list.termination().unwrap().name, "len");
    }

    #[test]
    fn measure_application_builds_terms() {
        let list = list_datatype();
        let len = list.measure("len").unwrap();
        let t = len.apply(Term::var("xs", Sort::data("List", vec![Sort::Int])));
        assert_eq!(t.to_string(), "len xs");
        assert!(len.non_negative);
    }
}
