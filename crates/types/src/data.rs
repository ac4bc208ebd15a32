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

/// Builds the binary-search-tree datatype of Sec. 2 (Example 2), with the
/// `size` termination measure and the `keys` set measure. The BST ordering
/// invariant is encoded in the constructor argument types.
pub fn bst_datatype() -> Datatype {
    let alpha = "a".to_string();
    let elem_sort = Sort::var(alpha.clone());
    let bst_base = BaseType::Data("BST".into(), vec![RType::tyvar(alpha.clone())]);
    let bst_sort = bst_base.sort();
    let size = |t: Term| Term::app("size", vec![t], Sort::Int);
    let keys = |t: Term| Term::app("keys", vec![t], Sort::set(elem_sort.clone()));
    let nu = || Term::value_var(bst_sort.clone());

    let empty_refinement = size(nu())
        .eq(Term::int(0))
        .and(keys(nu()).eq(Term::empty_set(elem_sort.clone())));
    let empty = Constructor {
        name: "Empty".into(),
        schema: Schema::forall(
            vec![alpha.clone()],
            RType::refined(bst_base.clone(), empty_refinement),
        ),
    };

    let x = Term::var("x", elem_sort.clone());
    let l = Term::var("l", bst_sort.clone());
    let r = Term::var("r", bst_sort.clone());
    // l : BST {α | ν < x}, r : BST {α | x < ν}
    let left_elem = RType::refined(
        BaseType::TypeVar(alpha.clone()),
        Term::value_var(elem_sort.clone()).lt(x.clone()),
    );
    let right_elem = RType::refined(
        BaseType::TypeVar(alpha.clone()),
        x.clone().lt(Term::value_var(elem_sort.clone())),
    );
    let node_refinement = size(nu())
        .eq(size(l.clone()).plus(size(r.clone())).plus(Term::int(1)))
        .and(
            keys(nu()).eq(keys(l)
                .union(keys(r))
                .union(Term::singleton(elem_sort.clone(), x))),
        );
    let node = Constructor {
        name: "Node".into(),
        schema: Schema::forall(
            vec![alpha.clone()],
            RType::fun_n(
                vec![
                    ("x".to_string(), RType::tyvar(alpha.clone())),
                    (
                        "l".to_string(),
                        RType::base(BaseType::Data("BST".into(), vec![left_elem])),
                    ),
                    (
                        "r".to_string(),
                        RType::base(BaseType::Data("BST".into(), vec![right_elem])),
                    ),
                ],
                RType::refined(bst_base.clone(), node_refinement),
            ),
        ),
    };

    Datatype {
        name: "BST".into(),
        type_params: vec![alpha],
        constructors: vec![empty, node],
        measures: vec![
            Measure {
                name: "size".into(),
                datatype: "BST".into(),
                result: Sort::Int,
                non_negative: true,
            },
            Measure {
                name: "keys".into(),
                datatype: "BST".into(),
                result: Sort::set(elem_sort),
                non_negative: false,
            },
        ],
        termination_measure: Some("size".into()),
    }
}

/// Builds an increasing-list datatype (`IList` in the paper's Example 4):
/// the `Cons` constructor requires the head to be no greater than every
/// element of the tail, expressed through the element type of the tail.
pub fn increasing_list_datatype() -> Datatype {
    let alpha = "a".to_string();
    let elem_sort = Sort::var(alpha.clone());
    let ilist_base = BaseType::Data("IList".into(), vec![RType::tyvar(alpha.clone())]);
    let ilist_sort = ilist_base.sort();
    let ilen = |t: Term| Term::app("ilen", vec![t], Sort::Int);
    let ielems = |t: Term| Term::app("ielems", vec![t], Sort::set(elem_sort.clone()));
    let nu = || Term::value_var(ilist_sort.clone());

    let nil_refinement = ilen(nu())
        .eq(Term::int(0))
        .and(ielems(nu()).eq(Term::empty_set(elem_sort.clone())));
    let inil = Constructor {
        name: "INil".into(),
        schema: Schema::forall(
            vec![alpha.clone()],
            RType::refined(ilist_base.clone(), nil_refinement),
        ),
    };

    let x = Term::var("x", elem_sort.clone());
    let xs = Term::var("xs", ilist_sort.clone());
    // xs : IList {α | x ≤ ν}
    let tail_elem = RType::refined(
        BaseType::TypeVar(alpha.clone()),
        x.clone().le(Term::value_var(elem_sort.clone())),
    );
    let cons_refinement = ilen(nu())
        .eq(ilen(xs.clone()).plus(Term::int(1)))
        .and(ielems(nu()).eq(ielems(xs).union(Term::singleton(elem_sort.clone(), x))));
    let icons = Constructor {
        name: "ICons".into(),
        schema: Schema::forall(
            vec![alpha.clone()],
            RType::fun_n(
                vec![
                    ("x".to_string(), RType::tyvar(alpha.clone())),
                    (
                        "xs".to_string(),
                        RType::base(BaseType::Data("IList".into(), vec![tail_elem])),
                    ),
                ],
                RType::refined(ilist_base.clone(), cons_refinement),
            ),
        ),
    };

    Datatype {
        name: "IList".into(),
        type_params: vec![alpha],
        constructors: vec![inil, icons],
        measures: vec![
            Measure {
                name: "ilen".into(),
                datatype: "IList".into(),
                result: Sort::Int,
                non_negative: true,
            },
            Measure {
                name: "ielems".into(),
                datatype: "IList".into(),
                result: Sort::set(elem_sort),
                non_negative: false,
            },
        ],
        termination_measure: Some("ilen".into()),
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
    fn bst_node_encodes_ordering_in_argument_types() {
        let bst = bst_datatype();
        let node = bst.constructor("Node").unwrap();
        let (args, _) = node.schema.ty.uncurry();
        assert_eq!(args.len(), 3);
        // The left subtree's element type is refined with ν < x.
        let left = &args[1].1;
        match left.base_type().unwrap() {
            BaseType::Data(_, params) => {
                assert!(params[0].refinement().to_string().contains("<"));
            }
            _ => panic!("expected datatype"),
        }
    }

    #[test]
    fn measure_application_builds_terms() {
        let list = list_datatype();
        let len = list.measure("len").unwrap();
        let t = len.apply(Term::var("xs", Sort::data("List", vec![Sort::Int])));
        assert_eq!(t.to_string(), "len xs");
        assert!(len.non_negative);
    }

    #[test]
    fn increasing_list_tail_requires_ordering() {
        let ilist = increasing_list_datatype();
        let icons = ilist.constructor("ICons").unwrap();
        let (args, _) = icons.schema.ty.uncurry();
        match args[1].1.base_type().unwrap() {
            BaseType::Data(_, params) => {
                assert!(params[0].refinement().to_string().contains("<="));
            }
            _ => panic!("expected datatype"),
        }
    }
}
