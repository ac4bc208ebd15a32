//! Regenerates the paper's evaluation artifacts.
//!
//! The subcommands and their arguments are the usage lines of `USAGE`
//! below; an argument a subcommand does not take exits 2.
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
//! regressed past the same thresholds**, and before the run when the
//! previous artifact does not parse or has no goals; `--readme` prints
//! the markdown corpus table embedded in the README's "Reproduction
//! status" section.
//! `--warm-runs N` replays the whole corpus N more times against the
//! same resident session (schema v3 `resident` block: per-run session
//! counters plus cold-vs-warm wall times) and **exits nonzero if any
//! warm replay changed an outcome or failed to beat the cold run's
//! validity hit rate** — the residency payoff and soundness gates.
//!
//! `trace` is offline forensics over a `--trace-out` JSONL artifact
//! (e.g. the batch job's): per-goal budget attribution by rung × phase,
//! the slowest SMT queries, the candidate-rejection taxonomy, and cache
//! hit rates; a malformed stream (a line that is not valid JSON, an
//! unknown event kind, a missing envelope field) exits nonzero, which is
//! what CI keys on. `--perfetto` also writes Chrome trace-event JSON
//! loadable in `chrome://tracing`.
//!
//! `solver-bench` times the captured DPLL(T)/LIA/MUS workloads of
//! `synquid_bench::fixtures` against fresh solver instances and writes
//! `BENCH_solver.json` (`--smoke` is the CI mode: 3 iterations per
//! fixture, verdicts asserted).
//!
//! `fuzz` re-parses a `synquid fuzz --out` summary artifact and renders
//! the per-goal oracle table; it exits nonzero when the artifact records
//! any postcondition violation or differential divergence, or does not
//! parse, so CI can gate on the uploaded artifact independently of the
//! run that wrote it.

use std::time::Duration;
use synquid_bench::{
    batch_report_json_runs, compare_batch, corpus_markdown_table, format_fig7, format_fuzz_summary,
    format_table1, format_table2, parse_batch_json, parse_fuzz_json, run_corpus_warm, run_fig7,
    run_table1, run_table2,
};

/// Each subcommand's usage line, which is also its syntax: `<ARG>` is a
/// positional argument, `[--flag VALUE]` a flag that takes a value and
/// `[--flag]` a switch.
const USAGE: [&str; 8] = [
    "table1 [--ablations] [--timeout SECS]",
    "table2 [--timeout SECS]",
    "fig7 [--max-n N] [--timeout SECS]",
    "batch [--jobs N] [--timeout SECS] [--out PATH] [--compare OLD.json] [--readme] [--warm-runs N]",
    "trace <TRACE.jsonl> [--perfetto OUT.json] [--top K]",
    "solver-bench [--smoke] [--iters N] [--out PATH]",
    "fuzz <SUMMARY.json>",
    "all [--ablations] [--max-n N] [--timeout SECS]",
];

/// One subcommand's command line: its positional arguments and the
/// flags given, each with its value (`None` for a switch).
struct Args {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    /// Parses the arguments after the subcommand `which` against its
    /// usage line. An unknown flag, a flag missing its value, or a
    /// missing or surplus positional argument exits 2: ignoring it would
    /// let a typo in a gate (`--warm-runs`, say) check nothing.
    fn parse(which: &str, args: &[String]) -> Args {
        let Some(usage) = USAGE.iter().find(|u| u.split(' ').next() == Some(which)) else {
            eprintln!(
                "unknown report '{which}': expected table1, table2, fig7, batch, trace, solver-bench, fuzz, or all"
            );
            std::process::exit(2)
        };
        let fail = |message: String| -> ! {
            eprintln!("report {which}: {message}\nusage: report {usage}");
            std::process::exit(2)
        };
        let syntax: Vec<&str> = usage.split(' ').collect();
        let positional = syntax.iter().filter(|t| t.starts_with('<')).count();
        let mut out = Args {
            positional: Vec::new(),
            flags: Vec::new(),
        };
        let mut rest = args.iter();
        while let Some(arg) = rest.next() {
            if !arg.starts_with("--") {
                if out.positional.len() == positional {
                    fail(format!("unexpected argument {arg}"));
                }
                out.positional.push(arg.clone());
                continue;
            }
            let Some(token) = syntax
                .iter()
                .find(|t| t.trim_start_matches('[').trim_end_matches(']') == arg)
            else {
                fail(format!("unknown flag {arg}"));
            };
            let value = if token.ends_with(']') {
                None
            } else {
                match rest.next().filter(|v| !v.starts_with("--")) {
                    Some(value) => Some(value.clone()),
                    None => fail(format!("{arg} needs a value")),
                }
            };
            out.flags.push((arg.clone(), value));
        }
        if out.positional.len() < positional {
            fail("missing argument".to_string());
        }
        out
    }

    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| *f == flag)
    }

    fn value(&self, flag: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(f, _)| *f == flag)
            .and_then(|(_, value)| value.as_deref())
    }

    /// The value of a numeric flag, `None` if the flag is absent. A
    /// malformed value exits 2, like any other usage error.
    fn number(&self, flag: &str) -> Option<u64> {
        let value = self.value(flag)?;
        Some(value.parse().unwrap_or_else(|_| {
            eprintln!("{flag} needs a non-negative integer value");
            std::process::exit(2)
        }))
    }
}

/// Unwraps a result, or prints why it failed (a spec that did not load,
/// an unreadable artifact) and exits 1.
fn or_exit<T, E: std::fmt::Display>(result: Result<T, E>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1)
    })
}

/// Reads and parses an artifact, or exits 1: a gate run against an
/// unreadable artifact would pass vacuously.
fn load<T, E: std::fmt::Display>(path: &str, parse: impl FnOnce(&str) -> Result<T, E>) -> T {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"));
    or_exit(text.and_then(|text| parse(&text).map_err(|e| format!("{path}: {e}"))))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let which = argv.first().map(String::as_str).unwrap_or("all");
    let args = Args::parse(which, argv.get(1..).unwrap_or_default());
    let timeout = Duration::from_secs(args.number("--timeout").unwrap_or(20));
    let ablations = args.has("--ablations");
    let max_n = args.number("--max-n").unwrap_or(4) as usize;

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
            let jobs = args.number("--jobs").unwrap_or(4) as usize;
            let out = args.value("--out").unwrap_or("BENCH_pr10.json");
            let compare = args
                .value("--compare")
                .map(|path| (path, load(path, parse_batch_json)));
            let readme = args.has("--readme");
            let warm_runs = args.number("--warm-runs").unwrap_or(0) as usize;
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
                    if let Err(e) = std::fs::write(out, &json) {
                        eprintln!("failed to write {out}: {e}");
                        std::process::exit(1);
                    }
                    let solved = report.outcomes.iter().filter(|o| o.result.solved).count();
                    eprintln!(
                        "wrote {out}: {solved}/{} goals solved, cache hit rate {:.1}%",
                        report.outcomes.len(),
                        100.0 * report.session.validity.hit_rate()
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
                            "warm run {}: wall {:.1}s vs cold {:.1}s, validity hit rate {:.1}% vs cold {:.1}%, MUS hit rate {:.1}% vs cold {:.1}%",
                            i + 1,
                            warm.wall_secs,
                            report.wall_secs,
                            100.0 * warm_rate,
                            100.0 * cold_rate,
                            100.0 * warm.session.mus.hit_rate(),
                            100.0 * report.session.mus.hit_rate()
                        );
                        if let Err(e) = report.outcomes_match(warm) {
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
                    if let Some((old_path, baseline)) = compare {
                        let deltas = compare_batch(&baseline.goals, report);
                        println!(
                            "== Deltas against {old_path} (schema v{}) ==\n{}",
                            baseline.schema_version, deltas.text
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
                }
                Err(e) => {
                    eprintln!("batch failed: {e}");
                    std::process::exit(1);
                }
            }
        }
        "trace" => {
            let path = &args.positional[0];
            let top_k = args.number("--top").unwrap_or(5) as usize;
            let perfetto = args.value("--perfetto");
            let trace = load(path, synquid_trace::parse_trace);
            let report = synquid_trace::analyze(&trace);
            print!("{}", report.render(top_k));
            if let Some(out) = perfetto {
                let json = synquid_trace::to_chrome_trace(&trace);
                if let Err(e) = std::fs::write(out, &json) {
                    eprintln!("failed to write {out}: {e}");
                    std::process::exit(1);
                }
                eprintln!("wrote {out} (load in chrome://tracing or ui.perfetto.dev)");
            }
        }
        "solver-bench" => {
            let smoke = args.has("--smoke");
            let iters = args.number("--iters").unwrap_or(if smoke { 3 } else { 10 }) as usize;
            let out = args.value("--out").unwrap_or("BENCH_solver.json");
            synquid_telemetry::set_profiling(true);
            eprintln!("== Solver microbenchmarks ({iters} iteration(s) per fixture) ==");
            let results = synquid_bench::solver_bench::run_all(iters);
            println!("{}", synquid_bench::solver_bench::format_results(&results));
            let json = synquid_bench::solver_bench::solver_report_json(&results);
            if let Err(e) = std::fs::write(out, &json) {
                eprintln!("failed to write {out}: {e}");
                std::process::exit(1);
            }
            eprintln!("wrote {out}: {} fixture(s), all verdicts ok", results.len());
        }
        "fuzz" => {
            let path = &args.positional[0];
            let summary = load(path, parse_fuzz_json);
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
        _ => unreachable!("Args::parse accepts only known subcommands"),
    }
}
