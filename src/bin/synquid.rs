//! The `synquid` command-line interface: load Synquid-style `.sq`
//! specification files, synthesize every goal they declare through the
//! parallel engine, and pretty-print the solutions.
//!
//! ```text
//! Usage: synquid [OPTIONS] <SPEC.sq>...
//!        synquid explain <GOAL> [@] <SPEC.sq> [--timeout <SECS>] [--full]
//!        synquid fuzz [GOAL [@]] [SPEC.sq]... [--cases <N>] [--seed <S>]
//!                     [--size <N>] [--timeout <SECS>] [--differential]
//!                     [--out <PATH>]
//!
//! Options:
//!   --jobs <N>            worker threads for the batch (default: 1)
//!   --timeout <SECS>      per-goal synthesis budget (default: 30)
//!   --app-depth <N>       fix the application depth (default: portfolio)
//!   --match-depth <N>     fix the match depth (default: portfolio)
//!   --goal <NAME>         only synthesize the named goal (repeatable)
//!   --stats               print per-goal statistics, phase timings, and
//!                         cache counters
//!   --trace-out <PATH>    write structured JSONL trace events to PATH
//!                         ("-" for stderr)
//!   --warm-runs <N>       replay the batch N more times against the same
//!                         resident session (prints cold-vs-warm wall time
//!                         and cross-run hit rates)
//!   --save-session <PATH> serialize the session's durable caches on exit
//!   --load-session <PATH> warm-start from a session snapshot (stale or
//!                         corrupt snapshots fall back to a cold start)
//!   --list                list the goals without synthesizing
//!   -h, --help            print this help
//! ```
//!
//! Every entry point — the batch runner, `explain`, and `fuzz` — borrows
//! its solver state (interner, validity cache, enumeration memo, lemma
//! store, MUS memo) from one [`SynthesisSession`] rather than
//! constructing caches of its own; see `synquid_engine::session` for the
//! residency rules.
//!
//! `synquid fuzz` is the runtime soundness oracle: it synthesizes each
//! selected goal through the full pipeline, runs the result on seeded
//! random inputs that satisfy the argument refinements, and checks every
//! output against the goal's postcondition and datatype invariants with
//! the measure interpreter. Violations are shrunk to minimal witnesses
//! and reported together with the winning derivation. `--differential`
//! re-synthesizes under solver ablations (memoization off, incremental
//! SMT off, incremental LIA off, budget shaping off) and asserts the
//! oracle verdicts agree.
//! With no spec files, the whole `specs/` corpus is fuzzed. The run is
//! bit-reproducible for a given `--seed`.
//!
//! `synquid explain` synthesizes one goal with an in-memory trace sink
//! and replays the captured events into the winning derivation tree:
//! one line per `synthesize_in` frame, annotated with wall time, memo
//! and lemma provenance, and the dominant phases. `--full` renders every
//! node of the winning rung attempt (abandoned subsearches included)
//! instead of just the derivation of the solution.
//!
//! When no explicit bounds are given, each goal becomes a *portfolio*:
//! the iterative-deepening rungs — `(1,0), (1,1), (2,1), (3,1), (3,2)` —
//! compete under one shared per-goal time budget, the lowest rung that
//! solves wins, and deeper siblings are cancelled. With `--jobs 1` the
//! rungs run in ladder order, exactly reproducing the sequential
//! behaviour; with more workers they overlap, and all workers share one
//! validity cache so no subtyping obligation is proven twice. Solutions
//! are worker-count independent except for goals so close to the budget
//! that wall-clock scheduling decides whether their solving rung
//! finishes (see `synquid_engine::Engine::run`).
//!
//! Exit status: 0 if every requested goal synthesized, 1 if any goal
//! failed or timed out, 2 on usage or specification errors.

use std::process::ExitCode;
use std::time::Duration;
use synquid::engine::{
    Engine, EngineConfig, GoalJob, GoalOutcome, SynthesisSession, DEFAULT_RUNGS,
};
use synquid::telemetry;

const USAGE: &str = "\
Usage: synquid [OPTIONS] <SPEC.sq>...
       synquid explain <GOAL> [@] <SPEC.sq> [--timeout <SECS>] [--full]
       synquid fuzz [GOAL [@]] [SPEC.sq]... [--cases <N>] [--seed <S>]
                    [--size <N>] [--timeout <SECS>] [--differential]
                    [--out <PATH>]

Synthesizes every goal declared in the given Synquid-style spec files.
The `explain` subcommand synthesizes one goal and prints the winning
derivation as an annotated tree (wall time, cache provenance, phases).
The `fuzz` subcommand synthesizes goals and property-tests the results
on seeded random inputs against their refinement types (whole corpus
when no spec file is given); exit 1 on any violation or divergence.

Options:
  --jobs <N>            worker threads for the batch (default: 1)
  --timeout <SECS>      per-goal synthesis budget (default: 30)
  --app-depth <N>       fix the application depth (default: portfolio)
  --match-depth <N>     fix the match depth (default: portfolio)
  --goal <NAME>         only synthesize the named goal (repeatable)
  --stats               print per-goal statistics, phase timings, and
                        cache counters
  --trace-out <PATH>    write structured JSONL trace events to PATH
                        (\"-\" for stderr)
  --warm-runs <N>       replay the batch N more times against the same
                        resident session (cold-vs-warm wall time and
                        cross-run hit rates)
  --save-session <PATH> serialize the session's durable caches on exit
  --load-session <PATH> warm-start from a session snapshot (stale or
                        corrupt snapshots fall back to a cold start)
  --list                list the goals without synthesizing
  -h, --help            print this help

Without explicit bounds each goal runs a portfolio over the deepening
ladder (1,0) (1,1) (2,1) (3,1) (3,2) within the shared time budget;
the lowest rung that solves wins.
";

struct Options {
    files: Vec<String>,
    jobs: usize,
    timeout: Duration,
    app_depth: Option<usize>,
    match_depth: Option<usize>,
    only: Vec<String>,
    stats: bool,
    trace_out: Option<String>,
    warm_runs: usize,
    save_session: Option<String>,
    load_session: Option<String>,
    list: bool,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        files: Vec::new(),
        jobs: 1,
        timeout: Duration::from_secs(30),
        app_depth: None,
        match_depth: None,
        only: Vec::new(),
        stats: false,
        trace_out: None,
        warm_runs: 0,
        save_session: None,
        load_session: None,
        list: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "-h" | "--help" => return Err(String::new()),
            "--jobs" => {
                opts.jobs = value("--jobs")?
                    .parse()
                    .map_err(|_| "--jobs needs a positive integer".to_string())?;
                if opts.jobs == 0 {
                    return Err("--jobs needs a positive integer".to_string());
                }
            }
            "--timeout" => {
                opts.timeout = Duration::from_secs(
                    value("--timeout")?
                        .parse()
                        .map_err(|_| "--timeout needs a number of seconds".to_string())?,
                )
            }
            "--app-depth" => {
                opts.app_depth = Some(
                    value("--app-depth")?
                        .parse()
                        .map_err(|_| "--app-depth needs an integer".to_string())?,
                )
            }
            "--match-depth" => {
                opts.match_depth = Some(
                    value("--match-depth")?
                        .parse()
                        .map_err(|_| "--match-depth needs an integer".to_string())?,
                )
            }
            "--goal" => opts.only.push(value("--goal")?),
            "--stats" => opts.stats = true,
            "--trace-out" => opts.trace_out = Some(value("--trace-out")?),
            "--warm-runs" => {
                opts.warm_runs = value("--warm-runs")?
                    .parse()
                    .map_err(|_| "--warm-runs needs a non-negative integer".to_string())?
            }
            "--save-session" => opts.save_session = Some(value("--save-session")?),
            "--load-session" => opts.load_session = Some(value("--load-session")?),
            "--list" => opts.list = true,
            other if other.starts_with('-') => return Err(format!("unknown option `{other}`")),
            file => opts.files.push(file.to_string()),
        }
    }
    if opts.files.is_empty() {
        return Err("no spec files given".to_string());
    }
    Ok(opts)
}

/// One goal to synthesize, with everything needed to print its report.
struct PlannedGoal {
    file_idx: usize,
    name: String,
    file: String,
    schema: String,
}

fn print_outcome(planned: &PlannedGoal, outcome: &GoalOutcome, opts: &Options) {
    println!("\n{} :: {}", planned.name, planned.schema);
    let result = &outcome.result;
    if result.solved {
        println!(
            "{} = {}   -- solved in {:.2}s, {} AST nodes",
            planned.name,
            result.program.as_deref().unwrap_or("<missing>"),
            result.time_secs,
            result.code_size.unwrap_or(0),
        );
    } else {
        println!(
            "{}: no solution within {:.0}s{}",
            synquid::lang::runner::goal_label(&planned.name, &planned.file),
            opts.timeout.as_secs_f64(),
            if result.timed_out { " (timed out)" } else { "" },
        );
    }
    if opts.stats {
        let rung = match outcome.winning_rung {
            Some((a, m)) => format!("({a},{m})"),
            None => "-".to_string(),
        };
        print!(
            "  stats: rung {rung}, {} rung(s) run, {} cancelled, {} skipped, {} out of budget, {:.2}s budget consumed",
            outcome.rungs_run,
            outcome.rungs_cancelled,
            outcome.rungs_skipped,
            outcome.rungs_out_of_budget,
            outcome.consumed_secs,
        );
        if let Some(stats) = &result.stats {
            print!(
                ", {} enumerated, {} checked, {} pruned early, {} memo hits / {} misses, {} branches, {} matches, {} SMT queries ({} local hits, {} shared hits / {} misses), {} conflicts learned / {} replayed, {} assumptions dropped, {} warm tableau starts ({} pivots saved), {} bounds propagated, {} shared MUS encodings",
                stats.terms_enumerated,
                stats.eterms_checked,
                stats.pruned_early,
                stats.memo_hits,
                stats.memo_misses,
                stats.branches_abduced,
                stats.matches_generated,
                stats.smt_queries,
                stats.smt_cache_hits,
                stats.shared_cache_hits,
                stats.shared_cache_misses,
                stats.smt_conflicts_learned,
                stats.smt_conflicts_reused,
                stats.assumptions_dropped,
                stats.tableau_warm_starts,
                stats.lia_pivots_saved,
                stats.bounds_propagated,
                stats.mus_shared_encodings,
            );
        }
        println!();
        if let Some(stats) = &result.stats {
            if !stats.phases.is_empty() {
                println!("  phases:");
                print!("{}", stats.phases.table("    "));
            }
        }
    }
}

/// `synquid explain <goal> [@] <file.sq>`: synthesize one goal with an
/// in-memory trace sink and print the winning derivation tree.
fn explain_main(args: &[String]) -> ExitCode {
    let mut goal_name: Option<String> = None;
    let mut file: Option<String> = None;
    let mut timeout = Duration::from_secs(30);
    let mut full = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-h" | "--help" => {
                eprint!("{USAGE}");
                return ExitCode::from(2);
            }
            "--timeout" => {
                let Some(secs) = it.next().and_then(|v| v.parse::<u64>().ok()) else {
                    eprintln!("error: --timeout needs a number of seconds");
                    return ExitCode::from(2);
                };
                timeout = Duration::from_secs(secs);
            }
            "--full" => full = true,
            "@" => {}
            other if other.starts_with('-') => {
                eprintln!("error: unknown option `{other}`\n");
                eprint!("{USAGE}");
                return ExitCode::from(2);
            }
            positional if goal_name.is_none() => goal_name = Some(positional.to_string()),
            positional if file.is_none() => file = Some(positional.to_string()),
            extra => {
                eprintln!("error: unexpected argument `{extra}`");
                return ExitCode::from(2);
            }
        }
    }
    let (Some(goal_name), Some(file)) = (goal_name, file) else {
        eprintln!("error: explain needs a goal name and a spec file\n");
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };

    let spec = match synquid::parser::load_file(&file) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let Some(goal) = spec.goals.into_iter().find(|g| g.name == goal_name) else {
        eprintln!("error: {file} declares no goal named {goal_name}");
        return ExitCode::from(2);
    };

    // Capture everything the run emits: phase profiling feeds per-node
    // phase splits into `node_finish`, the buffer sink collects the
    // stream this process is about to replay.
    telemetry::set_profiling(true);
    telemetry::events::init_trace_buffer();
    let engine = Engine::new(EngineConfig {
        jobs: 1,
        timeout,
        ..EngineConfig::default()
    });
    // `explain` borrows a session like every other entry point; one goal
    // means it stays cold, but the ownership seam is uniform.
    let session = SynthesisSession::new();
    let report = engine.run_batch(vec![GoalJob::new(file.clone(), goal)], &session);
    let outcome = &report.outcomes[0];

    let text = telemetry::events::take_trace_buffer().unwrap_or_default();
    let trace = match synquid::trace::parse_trace(&text) {
        Ok(trace) => trace,
        Err(e) => {
            eprintln!("error: the run produced an unreadable trace: {e}");
            return ExitCode::from(2);
        }
    };
    let forest = synquid::trace::DerivationForest::build(&trace);

    if outcome.result.solved {
        println!(
            "{} = {}   -- solved in {:.2}s\n",
            goal_name,
            outcome.result.program.as_deref().unwrap_or("<missing>"),
            outcome.result.time_secs,
        );
        match forest.winning(&goal_name) {
            Some(attempt) => {
                println!("derivation (wall time, memo hits/misses, lemmas, dominant phases):");
                let rendered = if full {
                    attempt.render()
                } else {
                    attempt.render_winning()
                };
                print!("{rendered}");
            }
            None => eprintln!("warning: no solved rung attempt found in the trace"),
        }
        ExitCode::SUCCESS
    } else {
        println!(
            "{goal_name}: no solution within {:.0}s — forensics:\n",
            timeout.as_secs_f64()
        );
        let report = synquid::trace::analyze(&trace);
        match report.goals.get(&goal_name) {
            Some(forensics) => print!("{}", forensics.render(10)),
            // No rung ran, so the trace has nothing on the goal.
            None => println!(
                "the budget funded no rung: {} rungs out of budget",
                outcome.rungs_out_of_budget
            ),
        }
        if full {
            for attempt in forest.for_goal(&goal_name) {
                println!();
                print!("{}", attempt.render());
            }
        }
        ExitCode::from(1)
    }
}

/// `synquid fuzz`: the runtime soundness oracle over synthesized
/// programs.
fn fuzz_main(args: &[String]) -> ExitCode {
    use synquid::oracle::{fuzz_goal_in, summary_json, CaseVerdict, FuzzConfig};

    let mut cfg = FuzzConfig::default();
    let mut cfg_cases = 100usize;
    let mut files: Vec<String> = Vec::new();
    let mut goal_names: Vec<String> = Vec::new();
    let mut out_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        let parsed = (|| -> Result<bool, String> {
            match arg.as_str() {
                "-h" | "--help" => Err(String::new()),
                "--cases" => {
                    cfg_cases = value("--cases")?
                        .parse()
                        .ok()
                        .filter(|&cases| cases > 0)
                        .ok_or("--cases needs a positive integer")?;
                    Ok(true)
                }
                "--seed" => {
                    cfg.seed = value("--seed")?
                        .parse()
                        .map_err(|_| "--seed needs an unsigned integer".to_string())?;
                    Ok(true)
                }
                "--size" => {
                    cfg.max_size = value("--size")?
                        .parse()
                        .map_err(|_| "--size needs a positive integer".to_string())?;
                    Ok(true)
                }
                "--timeout" => {
                    cfg.timeout = Duration::from_secs(
                        value("--timeout")?
                            .parse()
                            .map_err(|_| "--timeout needs a number of seconds".to_string())?,
                    );
                    Ok(true)
                }
                "--differential" => {
                    cfg.differential = true;
                    Ok(true)
                }
                "--out" => {
                    out_path = Some(value("--out")?);
                    Ok(true)
                }
                "@" => Ok(true),
                other if other.starts_with('-') => Err(format!("unknown option `{other}`")),
                _ => Ok(false),
            }
        })();
        match parsed {
            Err(msg) => {
                if !msg.is_empty() {
                    eprintln!("error: {msg}\n");
                }
                eprint!("{USAGE}");
                return ExitCode::from(2);
            }
            Ok(true) => {}
            Ok(false) => {
                if arg.ends_with(".sq") {
                    files.push(arg.clone());
                } else {
                    goal_names.push(arg.clone());
                }
            }
        }
    }
    cfg.cases = cfg_cases;

    // No spec files → the whole bundled corpus. Each entry is (path to
    // load, label to report): the corpus lives at an absolute path that
    // varies by machine, and machine-specific paths must not leak into
    // the reproducible summary.
    let paths: Vec<(String, String)> = if files.is_empty() {
        let corpus = synquid::lang::spec::corpus_files();
        if corpus.is_empty() {
            eprintln!("error: no spec files given and no specs/ corpus found");
            return ExitCode::from(2);
        }
        corpus
            .into_iter()
            .map(|p| {
                let label = match p.file_name() {
                    Some(name) => format!("specs/{}", name.to_string_lossy()),
                    None => p.display().to_string(),
                };
                (p.display().to_string(), label)
            })
            .collect()
    } else {
        files.into_iter().map(|f| (f.clone(), f)).collect()
    };

    // Capture the trace so violations can print the winning derivation of
    // the faulty solution.
    telemetry::set_profiling(true);
    telemetry::events::init_trace_buffer();

    // One resident session for the whole fuzz run: consecutive goals'
    // baseline syntheses warm each other's caches (ablated re-syntheses
    // inside the harness stay isolated).
    let session = SynthesisSession::new();
    let mut reports = Vec::new();
    let mut matched_goal_filter = false;
    for (file, label) in &paths {
        let spec = match synquid::parser::load_file(file) {
            Ok(spec) => spec,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::from(2);
            }
        };
        for goal in spec.goals {
            if !goal_names.is_empty() && !goal_names.iter().any(|n| n == &goal.name) {
                continue;
            }
            matched_goal_filter = true;
            let report = fuzz_goal_in(&goal, label, &cfg, &session);
            match &report.skipped {
                Some(reason) => {
                    println!(
                        "{}: skipped ({reason})",
                        synquid::lang::runner::goal_label(&report.goal, label)
                    );
                }
                None => {
                    let pass = report.count(&CaseVerdict::Pass);
                    let gave_up = report.count(&CaseVerdict::GaveUp);
                    let undecidable = report.count(&CaseVerdict::Undecidable);
                    let mut cells = vec![format!("{pass} pass")];
                    if !report.violations.is_empty() {
                        cells.push(format!("{} VIOLATION(S)", report.violations.len()));
                    }
                    if gave_up > 0 {
                        cells.push(format!("{gave_up} gave up"));
                    }
                    if undecidable > 0 {
                        cells.push(format!("{undecidable} undecidable"));
                    }
                    println!(
                        "{}: {} cases — {} (rejected {})",
                        synquid::lang::runner::goal_label(&report.goal, label),
                        report.verdicts.len(),
                        cells.join(", "),
                        report.rejected,
                    );
                    for v in &report.violations {
                        let inputs: Vec<String> = v.inputs.iter().map(|c| c.to_string()).collect();
                        let shrunk: Vec<String> = v.shrunk.iter().map(|c| c.to_string()).collect();
                        println!(
                            "  {} case {}: inputs {} — {}",
                            v.verdict.tag(),
                            v.case,
                            inputs.join(", "),
                            v.detail
                        );
                        println!("    shrunk: {}", shrunk.join(", "));
                    }
                    for d in &report.differential {
                        let status = if !d.solved {
                            "unsolved (timing difference, not checked)".to_string()
                        } else if d.verdicts_match {
                            format!("verdicts match, {} output(s) differ", d.outputs_differ)
                        } else {
                            "VERDICTS DIVERGE".to_string()
                        };
                        println!("  differential {}: {status}", d.ablation);
                    }
                }
            }
            reports.push(report);
        }
    }
    if !goal_names.is_empty() && !matched_goal_filter {
        eprintln!("error: no goal named {} found", goal_names.join(", "));
        return ExitCode::from(2);
    }

    // On violations, print the winning derivations of the offending
    // solutions from the captured trace.
    let any_violation = reports.iter().any(|r| !r.violations.is_empty());
    let any_divergence = reports
        .iter()
        .flat_map(|r| &r.differential)
        .any(|d| !d.verdicts_match);
    let text = telemetry::events::take_trace_buffer().unwrap_or_default();
    if any_violation {
        if let Ok(trace) = synquid::trace::parse_trace(&text) {
            let forest = synquid::trace::DerivationForest::build(&trace);
            for report in reports.iter().filter(|r| !r.violations.is_empty()) {
                if let Some(attempt) = forest.winning(&report.goal) {
                    println!(
                        "\nwinning derivation of the violating solution {}:",
                        report.goal
                    );
                    print!("{}", attempt.render_winning());
                }
            }
        }
    }

    let total_pass: usize = reports.iter().map(|r| r.count(&CaseVerdict::Pass)).sum();
    let fuzzed = reports.iter().filter(|r| r.skipped.is_none()).count();
    let skipped = reports.len() - fuzzed;
    println!(
        "\nfuzz: {} goal(s) fuzzed, {} skipped, {} passing case(s), {} violation(s), {} divergence(s) [seed {}]",
        fuzzed,
        skipped,
        total_pass,
        reports.iter().map(|r| r.violations.len()).sum::<usize>(),
        reports
            .iter()
            .flat_map(|r| &r.differential)
            .filter(|d| !d.verdicts_match)
            .count(),
        cfg.seed,
    );

    if let Some(path) = out_path {
        let json = summary_json(cfg.seed, cfg.cases, &reports);
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("error: cannot write summary to {path}: {e}");
            return ExitCode::from(2);
        }
        println!("summary written to {path}");
    }

    if any_violation || any_divergence {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("explain") {
        return explain_main(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("fuzz") {
        return fuzz_main(&args[1..]);
    }
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}\n");
            }
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if opts.stats {
        telemetry::set_profiling(true);
    }
    if let Some(path) = &opts.trace_out {
        if let Err(e) = telemetry::events::init_trace_file(path) {
            eprintln!("error: cannot open trace output {path}: {e}");
            return ExitCode::from(2);
        }
    }
    // Parse/desugar run on this thread; window it so the batch summary can
    // attribute frontend time alongside the workers' synthesis phases.
    let frontend = telemetry::window();

    // Load every spec file up front; any malformed file aborts the batch
    // before synthesis starts.
    let mut file_headers: Vec<String> = Vec::new();
    let mut planned: Vec<PlannedGoal> = Vec::new();
    let mut jobs: Vec<GoalJob> = Vec::new();
    for (file_idx, file) in opts.files.iter().enumerate() {
        let spec = match synquid::parser::load_file(file) {
            Ok(spec) => spec,
            Err(e) => {
                let msg = e.to_string();
                eprint!("{msg}");
                if !msg.ends_with('\n') {
                    eprintln!();
                }
                return ExitCode::from(2);
            }
        };
        if spec.goals.is_empty() {
            eprintln!("{file}: no goals declared (add `name = ??` after a signature)");
            return ExitCode::from(2);
        }
        file_headers.push(format!(
            "{file}: {} component(s), {} goal(s)",
            spec.components.len(),
            spec.goals.len()
        ));
        for goal in spec.goals {
            let selected = opts.only.is_empty() || opts.only.iter().any(|n| n == &goal.name);
            if !selected {
                continue;
            }
            planned.push(PlannedGoal {
                file_idx,
                name: goal.name.clone(),
                file: file.clone(),
                schema: goal.schema.to_string(),
            });
            jobs.push(GoalJob::new(file.clone(), goal));
        }
    }

    if opts.list {
        for (file_idx, header) in file_headers.iter().enumerate() {
            println!("{header}");
            for goal in planned.iter().filter(|g| g.file_idx == file_idx) {
                println!("\n{} :: {}", goal.name, goal.schema);
            }
        }
        return ExitCode::SUCCESS;
    }
    if jobs.is_empty() {
        eprintln!("error: --goal filters matched no goals");
        return ExitCode::from(2);
    }

    let explicit = opts.app_depth.is_some() || opts.match_depth.is_some();
    let rungs: Vec<(usize, usize)> = if explicit {
        vec![(opts.app_depth.unwrap_or(2), opts.match_depth.unwrap_or(1))]
    } else {
        DEFAULT_RUNGS.to_vec()
    };
    let engine = Engine::new(EngineConfig {
        jobs: opts.jobs,
        timeout: opts.timeout,
        rungs,
        ..EngineConfig::default()
    });
    // All cross-goal solver state lives in one resident session; the
    // engine (and any warm replays) only borrow it.
    let session = SynthesisSession::new();
    if let Some(path) = &opts.load_session {
        // Best-effort by design: a missing, stale, or corrupt snapshot
        // must degrade to a cold start, never an error.
        match std::fs::read_to_string(path) {
            Ok(text) => {
                let warm = session.warm_start(&text);
                if warm.cold {
                    eprintln!("note: session snapshot {path} is stale or corrupt; starting cold");
                } else if opts.stats {
                    eprintln!(
                        "session warm start from {path}: {} validity entries, {} lemma(s)",
                        warm.validity_entries, warm.lemmas
                    );
                }
            }
            Err(e) => eprintln!("note: cannot read session snapshot {path} ({e}); starting cold"),
        }
    }
    let report = engine.run_batch(jobs.clone(), &session);
    let warm_reports: Vec<_> = (0..opts.warm_runs)
        .map(|_| engine.run_batch(jobs.clone(), &session))
        .collect();

    // Deterministic aggregation: results print grouped by file, in
    // submission order, however the workers interleaved. Every file
    // prints its header, even when `--goal` filtered out all its goals,
    // so the user can see it was parsed.
    let mut any_failed = false;
    let mut outcomes = planned.iter().zip(&report.outcomes).peekable();
    for (file_idx, header) in file_headers.iter().enumerate() {
        println!("{header}");
        while let Some((planned_goal, outcome)) = outcomes.peek() {
            if planned_goal.file_idx != file_idx {
                break;
            }
            if !outcome.result.solved {
                any_failed = true;
            }
            print_outcome(planned_goal, outcome, &opts);
            outcomes.next();
        }
    }
    if opts.stats {
        let cache = &report.session.validity;
        println!(
            "\nbatch: {} goal(s), {} worker(s), {:.2}s wall clock",
            report.outcomes.len(),
            report.jobs,
            report.wall_secs
        );
        println!(
            "validity cache: {} hits / {} misses ({:.1}% hit rate), {} negative hits, {} entries, {} interned nodes",
            cache.hits,
            cache.misses,
            100.0 * cache.hit_rate(),
            cache.negative_hits,
            cache.entries,
            cache.interned_nodes,
        );
        let s = &report.session;
        println!(
            "session: enumeration {} hits / {} misses ({:.1}% hit rate), MUS {} hits / {} misses ({:.1}% hit rate), {} lemma(s) resident ({} absorbed, {} evicted, {} refused this run)",
            s.enumeration.hits,
            s.enumeration.misses,
            100.0 * s.enumeration.hit_rate(),
            s.mus.hits,
            s.mus.misses,
            100.0 * s.mus.hit_rate(),
            s.lemmas.entries,
            s.lemmas.absorbed,
            s.lemmas.evicted,
            s.lemmas.refused,
        );
        // Aggregate phase split: the main thread's parse/desugar time
        // plus every goal's synthesis-side profile.
        let mut aggregate = frontend.map(telemetry::Window::close).unwrap_or_default();
        for outcome in &report.outcomes {
            if let Some(stats) = &outcome.result.stats {
                aggregate.merge(&stats.phases);
            }
        }
        if !aggregate.is_empty() {
            println!("batch phases (self time, summed across threads):");
            print!("{}", aggregate.table("  "));
        }
    }
    // Warm replays against the now-resident session: same outcomes,
    // warmer caches. An outcome change is a residency-soundness bug and
    // fails the run.
    for (i, warm) in warm_reports.iter().enumerate() {
        let ws = &warm.session;
        println!(
            "warm run {}: {:.2}s wall (cold {:.2}s), validity {:.1}% hit rate (cold {:.1}%), enumeration {:.1}% (cold {:.1}%), MUS {:.1}% (cold {:.1}%)",
            i + 1,
            warm.wall_secs,
            report.wall_secs,
            100.0 * ws.validity.hit_rate(),
            100.0 * report.session.validity.hit_rate(),
            100.0 * ws.enumeration.hit_rate(),
            100.0 * report.session.enumeration.hit_rate(),
            100.0 * ws.mus.hit_rate(),
            100.0 * report.session.mus.hit_rate(),
        );
        if let Err(e) = report.outcomes_match(warm) {
            eprintln!(
                "error: warm run {} changed outcomes against the cold run: {e}",
                i + 1
            );
            any_failed = true;
        }
    }
    if let Some(path) = &opts.save_session {
        if let Err(e) = std::fs::write(path, session.serialize()) {
            eprintln!("error: cannot write session snapshot to {path}: {e}");
            any_failed = true;
        } else if opts.stats {
            eprintln!("session snapshot written to {path}");
        }
    }
    telemetry::events::flush_trace();

    if any_failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
