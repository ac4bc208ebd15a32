//! Debugging helper: run a single Table 1 benchmark (or a SyGuS goal) by
//! name from the command line and print the outcome.
//!
//! Usage: `cargo run --example debug_goal -- "is empty" [timeout-secs]`

use std::time::Duration;
use synquid::lang::benchmarks::table1;
use synquid::lang::runner::{run_goal, Variant};

fn main() {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_else(|| "is empty".to_string());
    let timeout: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(30);
    let bench = table1()
        .into_iter()
        .find(|b| b.name == name)
        .unwrap_or_else(|| panic!("unknown benchmark {name}"));
    let spec = bench.spec.expect("benchmark not transcribed");
    let goal = spec
        .load()
        .unwrap_or_else(|e| panic!("specs/{}: {e}", spec.file));
    eprintln!("goal: {} :: {}", goal.name, goal.schema.ty);
    let bounds = bench.bounds;
    let config = Variant::Default.config(Duration::from_secs(timeout), bounds);
    let mut synthesizer = synquid::core::Synthesizer::new(config.clone());
    let start = std::time::Instant::now();
    let outcome = synthesizer.synthesize(&goal);
    let elapsed = start.elapsed().as_secs_f64();
    let smt_stats = synthesizer.smt.stats();
    eprintln!(
        "smt: queries={} cache_hits={} sat_calls={} theory_calls={}",
        smt_stats.queries, smt_stats.cache_hits, smt_stats.sat_calls, smt_stats.theory_calls
    );
    eprintln!("stats: {:?}", synthesizer.stats());
    match outcome {
        Ok(s) => println!("solved=true time={elapsed:.2}s program={}", s.program),
        Err(e) => println!("solved=false time={elapsed:.2}s error={e}"),
    }
    let _ = run_goal;
}
