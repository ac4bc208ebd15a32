//! # synquid-logic
//!
//! The refinement logic underlying Synquid-style program synthesis
//! ("Program Synthesis from Polymorphic Refinement Types", PLDI 2016).
//!
//! This crate defines:
//!
//! * [`Sort`] — the sorts of refinement terms (booleans, integers, sets,
//!   datatype sorts, and uninterpreted sorts for type variables);
//! * [`Term`] — quantifier-free refinement terms over linear integer
//!   arithmetic, uninterpreted functions (measures), and sets, including
//!   *predicate unknowns* `P_i` used by the liquid fixpoint solver;
//! * substitution, free-variable computation, and sort checking;
//! * [`Qualifier`] and [`QSpace`] — logical qualifiers and the finite
//!   spaces of *liquid formulas* built from them;
//! * normalization helpers (negation normal form, conjunct splitting,
//!   constant folding) used by the solver and the type checker;
//! * [`Interner`] — hash-consed interning of terms into dense [`TermId`]s,
//!   the key representation of the shared validity cache;
//! * [`Rng`] — the seeded SplitMix64 stream behind every randomized
//!   input in the workspace (oracle inputs, property suites).
//!
//! The value variable `ν` of the paper is represented by the distinguished
//! variable name [`VALUE_VAR`].
//!
//! ## Example
//!
//! ```
//! use synquid_logic::{Term, Sort};
//!
//! // len ν = n  (the output-length refinement of `replicate`)
//! let len_v = Term::app(
//!     "len",
//!     vec![Term::value_var(Sort::data("List", vec![Sort::var("a")]))],
//!     Sort::Int,
//! );
//! let n = Term::var("n", Sort::Int);
//! let refinement = len_v.eq(n);
//! assert_eq!(refinement.to_string(), "(len ν) == n");
//! ```

pub mod intern;
pub mod pretty;
pub mod qualifier;
pub mod rng;
pub mod simplify;
pub mod snapshot;
pub mod sort;
pub mod term;

pub use intern::{Interner, TermId};
pub use qualifier::{QSpace, Qualifier};
pub use rng::Rng;
pub use sort::Sort;
pub use term::{BinOp, Term, UnOp, UnknownId, VALUE_VAR};

/// A substitution from variable names to terms.
pub type Substitution = std::collections::BTreeMap<String, Term>;
