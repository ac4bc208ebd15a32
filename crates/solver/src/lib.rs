//! # synquid-solver
//!
//! The SMT substrate of the Synquid reproduction.
//!
//! The original Synquid uses Z3 to discharge the quantifier-free
//! verification conditions produced by liquid type checking. This crate
//! provides a from-scratch replacement covering exactly the fragment the
//! synthesizer needs:
//!
//! * linear integer arithmetic (a general simplex over exact rationals
//!   with branch-and-bound, [`lia`]),
//! * uninterpreted functions via Ackermann reduction ([`encode`]),
//! * the ground theory of finite sets via finite-witness reduction
//!   ([`encode`]),
//! * a CDCL SAT solver for the propositional structure ([`sat`]),
//! * a lazy DPLL(T) driver exposing `Sat`/`Valid` queries ([`smt`]),
//! * MARCO-style enumeration of minimal unsatisfiable subsets ([`mus`]),
//!   which powers the MUSFIX fixpoint strengthening of the paper, with
//!   decided enumerations memoized in a shareable [`MusMemo`],
//! * a shared, thread-safe validity cache over interned terms ([`cache`]),
//!   which lets the parallel engine reuse solver verdicts across goals,
//!   portfolio siblings, and iterative-deepening rungs,
//! * the bounded, epoch-collected memo table resident sessions build
//!   their memo layers from ([`epoch_memo`]).
//!
//! ## Example
//!
//! ```
//! use synquid_logic::{Term, Sort};
//! use synquid_solver::Smt;
//!
//! let x = Term::var("x", Sort::Int);
//! let y = Term::var("y", Sort::Int);
//! let mut smt = Smt::new();
//! assert!(smt.entails(&x.clone().lt(y.clone()), &x.le(y)));
//! ```

pub mod cache;
pub mod cancel;
pub mod encode;
pub mod epoch_memo;
pub mod lemmas;
pub mod lia;
pub mod mus;
pub mod rational;
pub mod sat;
pub mod smt;

pub use cache::{NormalizedQuery, SharedValidityCache, ValidityCacheStats};
pub use cancel::CancellationToken;
pub use epoch_memo::{EpochMemo, MemoStats};
pub use lemmas::{Lemma, LemmaSeed, LemmaStoreStats, SharedLemmaStore};
pub use mus::{enumerate_mus, enumerate_mus_smt, MusKey, MusMemo};
pub use rational::Rational;
pub use sat::{Lit, SatResult, SatSolver};
pub use smt::{Smt, SmtResult, SmtStats};
