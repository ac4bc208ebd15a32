//! Sorts of refinement terms.
//!
//! A [`Sort`] classifies refinement terms (Fig. 2 of the paper). Sorts are
//! kept deliberately simple: the refinement logic is quantifier-free and
//! each program type maps to exactly one sort (`Int`/`Bool` map to
//! themselves, datatypes map to an uninterpreted datatype sort, and type
//! variables map to uninterpreted sorts). Sets are used to model measures
//! such as `elems` and `keys`.

use std::fmt;
use std::sync::Arc;

/// The sort of a refinement term.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Sort {
    /// Boolean sort `B`.
    Bool,
    /// Integer sort `Z`.
    Int,
    /// Finite sets of elements of the given sort (models measures such as
    /// `elems`, `keys`; the paper uses the array theory for the same
    /// purpose).
    Set(Arc<Sort>),
    /// An uninterpreted datatype sort, e.g. `List a` or `BST Int`.
    Data(String, Vec<Sort>),
    /// An uninterpreted sort corresponding to a type variable `α`.
    Var(String),
    /// A placeholder sort used transiently while shapes are still being
    /// inferred (incremental unification may leave argument sorts open).
    Unknown,
}

impl Sort {
    /// Convenience constructor for a set sort.
    pub fn set(elem: Sort) -> Sort {
        Sort::Set(Arc::new(elem))
    }

    /// Convenience constructor for a datatype sort.
    pub fn data(name: impl Into<String>, args: Vec<Sort>) -> Sort {
        Sort::Data(name.into(), args)
    }

    /// Convenience constructor for an uninterpreted (type-variable) sort.
    pub fn var(name: impl Into<String>) -> Sort {
        Sort::Var(name.into())
    }

    /// Returns the element sort of a set sort, if this is one.
    pub fn elem_sort(&self) -> Option<&Sort> {
        match self {
            Sort::Set(e) => Some(e),
            _ => None,
        }
    }

    /// True if two sorts can be considered equal for the purpose of
    /// well-sortedness checking, treating [`Sort::Unknown`] as a wildcard.
    pub fn compatible(&self, other: &Sort) -> bool {
        match (self, other) {
            (Sort::Unknown, _) | (_, Sort::Unknown) => true,
            (Sort::Set(a), Sort::Set(b)) => a.compatible(b),
            (Sort::Data(n1, a1), Sort::Data(n2, a2)) => {
                n1 == n2 && a1.len() == a2.len() && a1.iter().zip(a2).all(|(x, y)| x.compatible(y))
            }
            _ => self == other,
        }
    }

    /// Applies a sort substitution mapping uninterpreted (type-variable)
    /// sort names to sorts.
    pub fn substitute(&self, map: &std::collections::BTreeMap<String, Sort>) -> Sort {
        match self {
            Sort::Var(n) => map.get(n).cloned().unwrap_or_else(|| self.clone()),
            Sort::Set(e) => Sort::set(e.substitute(map)),
            Sort::Data(n, args) => {
                Sort::Data(n.clone(), args.iter().map(|a| a.substitute(map)).collect())
            }
            _ => self.clone(),
        }
    }

    /// Collects the names of uninterpreted sort variables occurring in
    /// this sort.
    pub fn sort_vars(&self, out: &mut std::collections::BTreeSet<String>) {
        match self {
            Sort::Var(n) => {
                out.insert(n.clone());
            }
            Sort::Set(e) => e.sort_vars(out),
            Sort::Data(_, args) => {
                for a in args {
                    a.sort_vars(out);
                }
            }
            _ => {}
        }
    }
}

impl fmt::Display for Sort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Sort::Bool => write!(f, "Bool"),
            Sort::Int => write!(f, "Int"),
            Sort::Set(e) => write!(f, "Set {e}"),
            Sort::Data(n, args) => {
                write!(f, "{n}")?;
                for a in args {
                    write!(f, " {a}")?;
                }
                Ok(())
            }
            Sort::Var(n) => write!(f, "{n}"),
            Sort::Unknown => write!(f, "?"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_roundtrips_structure() {
        let s = Sort::data("List", vec![Sort::set(Sort::Int)]);
        assert_eq!(s.to_string(), "List Set Int");
    }

    #[test]
    fn compatibility_treats_unknown_as_wildcard() {
        assert!(Sort::Unknown.compatible(&Sort::Int));
        assert!(Sort::set(Sort::Unknown).compatible(&Sort::set(Sort::Bool)));
        assert!(!Sort::Int.compatible(&Sort::Bool));
    }

    #[test]
    fn substitution_replaces_sort_vars() {
        let mut map = std::collections::BTreeMap::new();
        map.insert("a".to_string(), Sort::Int);
        let s = Sort::data("List", vec![Sort::var("a"), Sort::var("b")]);
        assert_eq!(
            s.substitute(&map),
            Sort::data("List", vec![Sort::Int, Sort::var("b")])
        );
    }
}
