//! Quickstart: synthesize the paper's Fig. 1 example, `replicate`, from its
//! polymorphic refinement type
//! `n: Nat → x: α → {List α | len ν = n}`.
//!
//! This example looks the goal up in the Table 1 suite, which names the
//! `.sq` spec defining it (`specs/replicate.sq`). The same file runs
//! through the `synquid` CLI (`cargo run --release --bin synquid --
//! specs/replicate.sq`); see `examples/from_spec.rs` for parsing a spec
//! string inline.
//!
//! Run with: `cargo run --release --example quickstart`

use std::time::Duration;
use synquid::lang::benchmarks::table1;
use synquid::prelude::*;

fn main() {
    let replicate = table1()
        .into_iter()
        .find(|b| b.name == "replicate")
        .expect("replicate is part of the Table 1 suite");
    let goal = replicate
        .spec
        .expect("replicate is transcribed")
        .load()
        .expect("specs/replicate.sq loads");

    println!("Goal: replicate :: {}", goal.schema);
    println!("Synthesizing (this exercises liquid abduction and termination-aware recursion)...");

    let config = Variant::Default.config(Duration::from_secs(90), replicate.bounds);
    let result = run_goal(&goal, config);
    if result.solved {
        println!(
            "Synthesized in {:.2}s ({} AST nodes):\n",
            result.time_secs,
            result.code_size.unwrap_or(0)
        );
        println!("replicate = {}", result.program.unwrap());
    } else {
        println!(
            "No solution within the time budget ({:.2}s elapsed{}).",
            result.time_secs,
            if result.timed_out { ", timed out" } else { "" }
        );
    }
}
