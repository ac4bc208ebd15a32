//! Runtime soundness oracle for the synthesizer.
//!
//! Synthesis is only as trustworthy as its static checker: a bug in
//! subtyping, Horn solving, or the SMT backend yields programs that
//! *type-check* but are wrong. This crate provides an independent,
//! dependency-free runtime check of the whole pipeline:
//!
//! - [`interp::MeasureInterp`] evaluates refinement terms — including
//!   measure applications like `len`, `elems`, `size`, `keys` — over
//!   concrete first-order values ([`cval::CVal`]), reading each measure's
//!   semantics off the constructor refinements in the datatype registry.
//! - [`check::Checker`] decides whether a concrete value inhabits a
//!   refinement type: base shape, datatype invariants (BST ordering,
//!   `IList` sortedness), and the top-level refinement.
//! - [`generate::Generator`] produces seeded, size-bounded random inputs
//!   satisfying argument refinements by rejection sampling, driven by the
//!   deterministic [`Rng`] (no wall-clock, no OS entropy).
//! - [`shrink`] minimizes failing inputs greedily to small witnesses.
//! - [`harness`] ties it together: synthesize each goal through the full
//!   engine, fuzz the result, shrink violations, and (in differential
//!   mode) re-synthesize under solver ablations and assert the oracle
//!   verdicts agree.
//!
//! The determinism contract: `fuzz` output for a given `(seed, cases,
//! size)` is byte-identical across runs and machines. The JSON summary
//! therefore contains no wall-clock fields.

#![warn(missing_docs)]

pub mod check;
pub mod cval;
pub mod generate;
pub mod harness;
pub mod interp;
pub mod shrink;

pub use check::Checker;
pub use cval::CVal;
pub use generate::{GenStats, Generator};
pub use harness::{
    fuzz_goal, fuzz_goal_in, summary_json, CaseVerdict, DifferentialReport, FuzzConfig,
    GoalFuzzReport, Violation,
};
pub use interp::{conjuncts, nu_env, LogicEnv, LogicVal, MeasureInterp, OracleError};
pub use synquid_logic::Rng;
