//! # synquid-core
//!
//! The synthesis engine of the Synquid reproduction: program terms
//! (Fig. 2), round-trip type checking embedded in E-term enumeration
//! (Fig. 4, Sec. 3.7), liquid abduction for conditionals (IF-ABD), match
//! synthesis, termination-aware recursion, and the ablation switches
//! evaluated in the paper.
//!
//! ## Example: synthesizing `replicate`
//!
//! The quickstart example in the repository root (`examples/quickstart.rs`)
//! synthesizes the paper's Fig. 1 program from the signature
//! `n: Nat → x: α → {List α | len ν = n}` using this crate's
//! [`Synthesizer`] together with the component environment assembled by
//! `synquid-lang`.

pub mod ast;
pub mod check;
pub mod context;
pub mod eval;
pub mod memo;
pub mod options;
pub mod synthesis;

pub use ast::{Case, Program};
pub use check::TypeChecker;
pub use context::{CancellationToken, SessionCaches, SolverContext};
pub use eval::{EvalError, Evaluator, Value};
pub use memo::{EnumerationCache, GenerationEntry, ENUMERATION_MAX_ENTRIES};
pub use options::SynthesisConfig;
pub use synthesis::{Goal, SynthesisError, SynthesisStats, Synthesized, Synthesizer};
