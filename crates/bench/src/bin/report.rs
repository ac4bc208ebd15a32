//! Regenerates the paper's evaluation artifacts.
//!
//! ```text
//! report table1 [--ablations] [--timeout SECS]
//! report table2 [--timeout SECS]
//! report fig7   [--max-n N]   [--timeout SECS]
//! report batch  [--jobs N]    [--timeout SECS] [--out PATH]
//!               [--compare OLD.json] [--readme] [--warm-runs N]
//! report trace  <TRACE.jsonl> [--perfetto OUT.json] [--top K]
//! report solver-bench [--smoke] [--iters N] [--out PATH]
//! report fuzz   <SUMMARY.json>
//! report all
//! ```
//!
//! `batch` runs the whole `specs/` corpus through the parallel engine
//! (with span profiling on, so every goal entry carries its per-phase
//! timing split) and writes the machine-readable `BENCH_pr10.json`
//! timing report (per goal: solved/timings/winning rung/budget-ledger
//! accounting/enumeration and incremental-solver counters; plus the
//! validity-cache counters). `--compare` prints per-goal deltas against
//! a previous artifact (solved↔timeout flips, time ratios, phase-split
//! movements when both artifacts carry phase data) and **exits nonzero
//! if a previously solved goal regressed to a timeout, a still-solved
//! goal got more than 1.5× slower, or a still-solved goal's LIA phase
//! regressed past the same thresholds**; `--readme` prints the markdown
//! corpus table embedded in the README's "Reproduction status" section.
//! `--warm-runs N` replays the whole corpus N more times against the
//! same resident session (schema v3 `resident` block: per-run session
//! counters plus cold-vs-warm wall times) and **exits nonzero if any
//! warm replay changed an outcome or failed to beat the cold run's
//! validity hit rate** — the residency payoff and soundness gates.
//!
//! `trace` is offline forensics over a `--trace-out` JSONL artifact
//! (e.g. the batch job's): per-goal budget attribution by rung × phase,
//! the slowest SMT queries, the candidate-rejection taxonomy, and cache
//! hit rates; a malformed stream (unknown event kind, missing envelope
//! field) exits nonzero, which is what CI keys on. `--perfetto` also
//! writes Chrome trace-event JSON loadable in `chrome://tracing`.
//!
//! `solver-bench` times the captured DPLL(T)/LIA/MUS workloads of
//! `synquid_bench::fixtures` against fresh solver instances and writes
//! `BENCH_solver.json` (`--smoke` is the CI mode: 3 iterations per
//! fixture, verdicts asserted).
//!
//! `fuzz` re-parses a `synquid fuzz --out` summary artifact and renders
//! the per-goal oracle table; it exits nonzero when the artifact records
//! any postcondition violation or differential divergence, so CI can
//! gate on the uploaded artifact independently of the run that wrote it.

use std::time::Duration;
use synquid_bench::{
    batch_report_json_runs, compare_batch, corpus_markdown_table, format_fig7, format_fuzz_summary,
    format_table1, format_table2, parse_batch_json, parse_fuzz_json, run_corpus_warm, run_fig7,
    run_table1, run_table2, warm_outcomes_match,
};

fn parse_flag(args: &[String], name: &str) -> Option<u64> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

/// Unwraps a report, or prints why it could not run (a spec that failed
/// to load) and exits 1.
fn or_exit<T>(report: Result<T, Box<dyn std::error::Error>>) -> T {
    report.unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1)
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which = args.first().map(String::as_str).unwrap_or("all");
    let timeout = Duration::from_secs(parse_flag(&args, "--timeout").unwrap_or(20));
    let ablations = args.iter().any(|a| a == "--ablations");
    let max_n = parse_flag(&args, "--max-n").unwrap_or(4) as usize;

    match which {
        "table1" => {
            println!("== Table 1: benchmarks and Synquid results ==");
            println!(
                "{}",
                format_table1(&or_exit(run_table1(timeout, ablations)))
            );
        }
        "table2" => {
            println!("== Table 2: comparison to other synthesizers ==");
            println!("{}", format_table2(&or_exit(run_table2(timeout))));
        }
        "fig7" => {
            println!("== Figure 7: non-recursive (SyGuS) benchmarks ==");
            println!("{}", format_fig7(&run_fig7(max_n, timeout)));
        }
        "batch" => {
            let jobs = parse_flag(&args, "--jobs").unwrap_or(4) as usize;
            let out = args
                .iter()
                .position(|a| a == "--out")
                .and_then(|i| args.get(i + 1))
                .cloned()
                .unwrap_or_else(|| "BENCH_pr10.json".to_string());
            let compare = args
                .iter()
                .position(|a| a == "--compare")
                .and_then(|i| args.get(i + 1))
                .cloned();
            let readme = args.iter().any(|a| a == "--readme");
            let warm_runs = parse_flag(&args, "--warm-runs").unwrap_or(0) as usize;
            // Phase splits ride the artifact (schema v2): profile every
            // batch run so `--compare` can show where time moved.
            synquid_telemetry::set_profiling(true);
            eprintln!(
                "== Batch: specs/ corpus through the engine ({jobs} worker(s), {}s/goal, {warm_runs} warm replay(s)) ==",
                timeout.as_secs()
            );
            match run_corpus_warm(jobs, timeout, warm_runs) {
                Ok(runs) => {
                    let report = &runs[0];
                    for o in &report.outcomes {
                        eprintln!(
                            "  {:<45} {}",
                            synquid_bench::goal_label(&o.result.name, &o.source),
                            if o.result.solved {
                                format!("{:.2}s", o.result.time_secs)
                            } else if o.result.timed_out {
                                "timeout".to_string()
                            } else {
                                "no solution".to_string()
                            },
                        );
                    }
                    let json = batch_report_json_runs(&runs, timeout);
                    if let Err(e) = std::fs::write(&out, &json) {
                        eprintln!("failed to write {out}: {e}");
                        std::process::exit(1);
                    }
                    let solved = report.outcomes.iter().filter(|o| o.result.solved).count();
                    eprintln!(
                        "wrote {out}: {solved}/{} goals solved, cache hit rate {:.1}%",
                        report.outcomes.len(),
                        100.0 * report.cache.hit_rate()
                    );
                    // The residency gates: every warm replay must
                    // reproduce the cold outcomes exactly, and its
                    // cross-run validity hit rate must beat the cold
                    // within-run rate (otherwise the resident session
                    // carried nothing between runs).
                    for (i, warm) in runs[1..].iter().enumerate() {
                        let cold_rate = report.session.validity.hit_rate();
                        let warm_rate = warm.session.validity.hit_rate();
                        eprintln!(
                            "warm run {}: wall {:.1}s vs cold {:.1}s, validity hit rate {:.1}% vs cold {:.1}%",
                            i + 1,
                            warm.wall_secs,
                            report.wall_secs,
                            100.0 * warm_rate,
                            100.0 * cold_rate
                        );
                        if let Err(e) = warm_outcomes_match(report, warm) {
                            eprintln!("warm run {} changed outcomes: {e}", i + 1);
                            std::process::exit(1);
                        }
                        if warm_rate <= cold_rate {
                            eprintln!(
                                "warm run {} validity hit rate {:.4} did not beat the cold rate {:.4}",
                                i + 1,
                                warm_rate,
                                cold_rate
                            );
                            std::process::exit(1);
                        }
                    }
                    if readme {
                        println!("{}", corpus_markdown_table(report, timeout));
                    }
                    if let Some(old_path) = compare {
                        match std::fs::read_to_string(&old_path) {
                            Ok(text) => {
                                let deltas = compare_batch(&parse_batch_json(&text), report);
                                println!(
                                    "== Deltas against {old_path} (schema v{}) ==\n{}",
                                    synquid_bench::batch_schema_version(&text),
                                    deltas.text
                                );
                                if deltas.regressed > 0 {
                                    eprintln!(
                                        "{} goal(s) solved in {old_path} regressed to unsolved",
                                        deltas.regressed
                                    );
                                    std::process::exit(1);
                                }
                                if deltas.time_regressed > 0 {
                                    eprintln!(
                                        "{} still-solved goal(s) got more than 1.5x slower than {old_path}",
                                        deltas.time_regressed
                                    );
                                    std::process::exit(1);
                                }
                                if deltas.lia_time_regressed > 0 {
                                    eprintln!(
                                        "{} still-solved goal(s) regressed in LIA-phase time against {old_path}",
                                        deltas.lia_time_regressed
                                    );
                                    std::process::exit(1);
                                }
                            }
                            Err(e) => {
                                eprintln!("cannot read {old_path}: {e}");
                                std::process::exit(1);
                            }
                        }
                    }
                }
                Err(e) => {
                    eprintln!("batch failed: {e}");
                    std::process::exit(1);
                }
            }
        }
        "trace" => {
            let Some(path) = args.get(1).filter(|a| !a.starts_with("--")) else {
                eprintln!("usage: report trace <TRACE.jsonl> [--perfetto OUT.json] [--top K]");
                std::process::exit(2);
            };
            let top_k = parse_flag(&args, "--top").unwrap_or(5) as usize;
            let perfetto = args
                .iter()
                .position(|a| a == "--perfetto")
                .and_then(|i| args.get(i + 1))
                .cloned();
            let text = match std::fs::read_to_string(path) {
                Ok(text) => text,
                Err(e) => {
                    eprintln!("cannot read {path}: {e}");
                    std::process::exit(1);
                }
            };
            let trace = match synquid_trace::parse_trace(&text) {
                Ok(trace) => trace,
                Err(e) => {
                    eprintln!("{path}: malformed trace: {e}");
                    std::process::exit(1);
                }
            };
            let report = synquid_trace::analyze(&trace);
            print!("{}", report.render(top_k));
            if let Some(out) = perfetto {
                let json = synquid_trace::to_chrome_trace(&trace);
                if let Err(e) = std::fs::write(&out, &json) {
                    eprintln!("failed to write {out}: {e}");
                    std::process::exit(1);
                }
                eprintln!("wrote {out} (load in chrome://tracing or ui.perfetto.dev)");
            }
        }
        "solver-bench" => {
            let smoke = args.iter().any(|a| a == "--smoke");
            let iters = parse_flag(&args, "--iters").unwrap_or(if smoke { 3 } else { 10 }) as usize;
            let out = args
                .iter()
                .position(|a| a == "--out")
                .and_then(|i| args.get(i + 1))
                .cloned()
                .unwrap_or_else(|| "BENCH_solver.json".to_string());
            synquid_telemetry::set_profiling(true);
            eprintln!("== Solver microbenchmarks ({iters} iteration(s) per fixture) ==");
            let results = synquid_bench::solver_bench::run_all(iters);
            println!("{}", synquid_bench::solver_bench::format_results(&results));
            let json = synquid_bench::solver_bench::solver_report_json(&results);
            if let Err(e) = std::fs::write(&out, &json) {
                eprintln!("failed to write {out}: {e}");
                std::process::exit(1);
            }
            eprintln!("wrote {out}: {} fixture(s), all verdicts ok", results.len());
        }
        "fuzz" => {
            let Some(path) = args.get(1).filter(|a| !a.starts_with("--")) else {
                eprintln!("usage: report fuzz <SUMMARY.json>");
                std::process::exit(2);
            };
            let text = match std::fs::read_to_string(path) {
                Ok(text) => text,
                Err(e) => {
                    eprintln!("cannot read {path}: {e}");
                    std::process::exit(1);
                }
            };
            let summary = parse_fuzz_json(&text);
            if summary.goals.is_empty() {
                eprintln!("{path}: no per-goal entries — not a fuzz summary?");
                std::process::exit(1);
            }
            print!("{}", format_fuzz_summary(&summary));
            if summary.total_violations > 0 || summary.total_divergences > 0 {
                eprintln!(
                    "{} violation(s) and {} divergence(s) recorded in {path}",
                    summary.total_violations, summary.total_divergences
                );
                std::process::exit(1);
            }
        }
        "all" => {
            println!("== Table 1: benchmarks and Synquid results ==");
            println!(
                "{}",
                format_table1(&or_exit(run_table1(timeout, ablations)))
            );
            println!("== Table 2: comparison to other synthesizers ==");
            println!("{}", format_table2(&or_exit(run_table2(timeout))));
            println!("== Figure 7: non-recursive (SyGuS) benchmarks ==");
            println!("{}", format_fig7(&run_fig7(max_n, timeout)));
        }
        other => {
            eprintln!(
                "unknown report '{other}': expected table1, table2, fig7, batch, trace, solver-bench, fuzz, or all"
            );
            std::process::exit(2);
        }
    }
}
