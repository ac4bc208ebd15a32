//! # synquid-types
//!
//! The polymorphic refinement type system of the Synquid reproduction:
//! types and schemas (Fig. 2), datatypes and measures, typing environments
//! with the assumption extractor `⟦Γ⟧ψ`, the incremental subtyping
//! constraint solver (`Solve`, Fig. 6), type consistency (Fig. 5), and
//! termination weakening for recursive bindings.
//!
//! The actual round-trip *checking rules* over program terms (Fig. 4) and
//! the synthesis procedure built on them live in `synquid-core`; this
//! crate provides everything those rules need to manipulate types.
//!
//! ## Example
//!
//! ```
//! use synquid_types::{ConstraintSolver, Environment, RType};
//! use synquid_solver::Smt;
//!
//! let env = Environment::new();
//! let mut solver = ConstraintSolver::default();
//! let mut smt = Smt::new();
//! // {Int | ν > 0} <: {Int | ν ≥ 0}
//! assert!(solver.subtype(&env, &RType::pos(), &RType::nat(), &mut smt, "pos<:nat").is_ok());
//! ```

pub mod data;
pub mod env;
pub mod solve;
pub mod termination;
pub mod ty;

pub use data::{list_datatype, Constructor, Datatype, Datatypes, Measure};
pub use env::Environment;
pub use solve::{ConstraintSolver, TypeError};
pub use termination::{terminating_argument, termination_metric, weaken_for_recursion};
pub use ty::{is_free_type_var, BaseType, ContextualType, RType, Schema};
