//! # synquid-horn
//!
//! The liquid fixpoint layer of the Synquid reproduction: predicate
//! unknowns, liquid assignments, Horn constraints, and the incremental
//! greatest-fixpoint solver with MUSFIX strengthening (Sec. 3.6 of
//! "Program Synthesis from Polymorphic Refinement Types").
//!
//! Local liquid type checking reduces subtyping between scalar types to
//! Horn constraints of the form `ψ ⇒ ψ'`, where each side is the
//! conjunction of a known formula and zero or more predicate unknowns.
//! This crate finds the *weakest* assignment of liquid formulas
//! (conjunctions of qualifier instantiations) to those unknowns that
//! validates every constraint, or reports that none exists. Weakest-first
//! search is what makes liquid abduction (branch-condition inference) and
//! polymorphic instantiation work.
//!
//! ## Example: abducing `n ≤ 0` for the `Nil` branch of `replicate`
//!
//! ```
//! use synquid_logic::{QSpace, Sort, Term};
//! use synquid_horn::{FixpointSolver, HornConstraint};
//! use synquid_solver::Smt;
//!
//! let n = Term::var("n", Sort::Int);
//! let len_v = Term::app(
//!     "len",
//!     vec![Term::value_var(Sort::data("List", vec![Sort::var("a")]))],
//!     Sort::Int,
//! );
//! let mut solver = FixpointSolver::default();
//! let mut smt = Smt::new();
//! let space = QSpace::from_atoms(vec![n.clone().le(Term::int(0)), Term::int(0).lt(n.clone())]);
//! let p0 = solver.fresh_unknown("P0", space, Term::int(0).le(n.clone()));
//! let lhs = Term::int(0).le(n.clone()).and(Term::unknown(p0)).and(len_v.clone().eq(Term::int(0)));
//! solver
//!     .add_constraint(HornConstraint::new(lhs, len_v.eq(n.clone()), "replicate-nil"), &mut smt)
//!     .unwrap();
//! let abduced = solver.apply(&Term::unknown(p0));
//! assert!(smt.entails(&abduced, &n.le(Term::int(0))));
//! ```

pub mod fixpoint;
pub mod unknowns;

pub use fixpoint::{FixpointSolver, HornConstraint, HornError, StrengthenBackend};
pub use unknowns::{Assignment, UnknownInfo, UnknownRegistry};
