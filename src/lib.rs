//! # synquid
//!
//! A Rust reproduction of **"Program Synthesis from Polymorphic Refinement
//! Types"** (Polikarpova, Kuraj, Solar-Lezama — PLDI 2016): the Synquid
//! program synthesizer, together with all the substrates it needs
//! (refinement logic, an SMT solver, the liquid greatest-fixpoint Horn
//! solver with MUSFIX, the refinement type system with local liquid type
//! checking, a surface-syntax frontend, and the evaluation benchmark
//! suite).
//!
//! This facade crate re-exports the public API of the workspace crates:
//!
//! * [`logic`] — sorts, refinement terms, qualifiers;
//! * [`solver`] — the SMT substrate (SAT, LIA, sets, MUS enumeration);
//! * [`horn`] — predicate unknowns and the greatest-fixpoint solver;
//! * [`types`] — refinement types, environments, subtyping, termination;
//! * [`core`] — programs, round-trip checking, and the synthesizer;
//! * [`parser`] — the `.sq` surface language: lexer, parser, and the
//!   desugarer that elaborates textual specs into [`core`] goals;
//! * [`lang`] — the benchmark suite (Table 1 rows name their `.sq`
//!   specs), spec-corpus helpers, and runners;
//! * [`engine`] — the parallel execution layer: multi-goal scheduler,
//!   portfolio search over deepening rungs, and the resident
//!   [`SynthesisSession`](engine::SynthesisSession) owning all
//!   cross-goal caches (validity, enumeration, lemmas, MUS
//!   enumerations) in one bundle;
//! * [`trace`] — search forensics over `--trace-out` JSONL streams:
//!   derivation-tree reconstruction, per-goal timeout attribution, and
//!   Chrome trace-event export;
//! * [`oracle`] — the runtime soundness oracle: a measure interpreter
//!   over concrete values, seeded input generation, counterexample
//!   shrinking, and the `synquid fuzz` differential harness.
//!
//! ## Quickstart: synthesize from a textual spec
//!
//! The recommended way to pose a synthesis problem is a Synquid-style
//! `.sq` specification — datatypes with refined constructors, measures,
//! qualifiers, components, and goal signatures:
//!
//! ```
//! use std::time::Duration;
//! use synquid::prelude::*;
//!
//! let spec = synquid::parser::load_str(
//!     r#"
//!     termination measure len :: List b -> Int
//!     data List b where
//!       Nil  :: {List b | len _v == 0}
//!       Cons :: x: b -> xs: List b -> {List b | len _v == len xs + 1}
//!
//!     true :: {Bool | _v <==> True}
//!     false :: {Bool | _v <==> False}
//!
//!     is_empty :: <a> . xs: List a -> {Bool | _v <==> len xs == 0}
//!     is_empty = ??
//!     "#,
//! )
//! .expect("a well-formed spec");
//! let result = run_goal(
//!     &spec.goals[0],
//!     Variant::Default.config(Duration::from_secs(30), (1, 1)),
//! );
//! assert!(result.solved);
//! ```
//!
//! The same pipeline is available from the command line — the `synquid`
//! binary loads `.sq` files, synthesizes every `name = ??` goal with
//! iteratively deepened exploration bounds, and pretty-prints the
//! solutions:
//!
//! ```text
//! cargo run --release --bin synquid -- specs/list.sq
//! ```
//!
//! ## Programmatic goals
//!
//! Every Table 1 goal is defined in a `.sq` file under `specs/`. Only the
//! parametric Fig. 7 family (`max_n`, `array_search_n`) is built in Rust:
//!
//! ```
//! use std::time::Duration;
//! use synquid::prelude::*;
//!
//! // Synthesize max of two integers from its refinement type.
//! let goal = synquid::lang::benchmarks::max_n(2);
//! let result = run_goal(&goal, Variant::Default.config(Duration::from_secs(30), (1, 0)));
//! assert!(result.solved);
//! ```

pub use synquid_core as core;
pub use synquid_engine as engine;
pub use synquid_horn as horn;
pub use synquid_lang as lang;
pub use synquid_logic as logic;
pub use synquid_oracle as oracle;
pub use synquid_parser as parser;
pub use synquid_solver as solver;
pub use synquid_telemetry as telemetry;
pub use synquid_trace as trace;
pub use synquid_types as types;

/// Commonly used items.
pub mod prelude {
    pub use synquid_core::{
        Goal, Program, SolverContext, SynthesisConfig, SynthesisError, Synthesizer,
    };
    pub use synquid_engine::{BatchReport, Engine, EngineConfig, GoalJob, SynthesisSession};
    pub use synquid_lang::runner::{run_goal, RunResult, Variant};
    pub use synquid_logic::{Qualifier, Sort, Term};
    pub use synquid_oracle::{fuzz_goal, fuzz_goal_in, FuzzConfig, GoalFuzzReport};
    pub use synquid_parser::{load_file, load_str, SpecOutput};
    pub use synquid_solver::{SharedValidityCache, Smt};
    pub use synquid_types::{BaseType, Environment, RType, Schema};
}
