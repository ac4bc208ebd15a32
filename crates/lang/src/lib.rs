//! # synquid-lang
//!
//! The user-facing layer of the Synquid reproduction: loading goals from
//! the `.sq` spec corpus ([`spec`]), the benchmark suite of the paper's
//! evaluation ([`benchmarks`]: Table 1 rows naming the spec of each
//! transcribed goal, Table 2, and the parametric Fig. 7 SyGuS family),
//! and helpers for running goals and collecting results ([`runner`]).
//! Every Table 1 goal is defined in a `.sq` file; only the Fig. 7 family
//! is built in Rust.
//!
//! ## Example
//!
//! ```
//! use synquid_lang::benchmarks::max_n;
//! use synquid_lang::runner::{run_goal, Variant};
//! use std::time::Duration;
//!
//! let goal = max_n(2);
//! let result = run_goal(&goal, Variant::Default.config(Duration::from_secs(30), (1, 0)));
//! assert!(result.solved);
//! ```

pub mod benchmarks;
pub mod runner;
pub mod spec;

pub use benchmarks::{array_search_n, max_n, sygus, table1, table2, transcribed, Benchmark};
pub use runner::{run_goal, RunResult, Variant};
pub use synquid_core::SynthesisStats;

// Shape checks over the `.sq` corpus: component libraries, datatypes, and
// the goals of each Table 1 group. They keep the module paths of the Rust
// builders the corpus replaced, so the test names stay stable.
#[cfg(test)]
#[path = "corpus_shape/components.rs"]
mod components;
#[cfg(test)]
#[path = "corpus_shape/datatypes.rs"]
mod datatypes;
#[cfg(test)]
#[path = "corpus_shape/goals.rs"]
mod goals;
