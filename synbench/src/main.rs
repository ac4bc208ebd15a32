//! `synbench` — the synthesizer's benchmark: end-to-end time to verdict
//! and per-layer attribution, on three workloads.
//!
//! ```text
//! cargo run --release --manifest-path synbench/Cargo.toml -- \
//!     --workload <solve-cold|solve-warm|exhaust> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Each workload is a closed loop with one client: it loads its goals
//! from the `specs/` corpus with `synquid_lang::spec::load_file`, then
//! submits one goal at a time through `Engine::run_batch` (one worker)
//! against a `SynthesisSession`, timing every call from outside. The goal
//! order is a permutation drawn from `--seed`.
//!
//! * `solve-cold` — the 14 corpus goals that synthesize, each on a fresh
//!   session, as a user's first request;
//! * `solve-warm` — the same goals, each replayed against the session an
//!   untimed filling submission of the same goal populated;
//! * `exhaust` — the five holdout goals, each searched up to its deepest
//!   rung that finishes, so the verdict is "no solution" at a fixed
//!   amount of work.
//!
//! With `--trace 0` whole passes repeat until `--seconds` have elapsed,
//! with profiling off, and the end-to-end metrics are reported. With
//! `--trace 1` one untraced pass is followed by one pass with the span
//! profiler and the in-memory event buffer on; the per-layer metrics come
//! from that pass, its event stream, and untimed probes of the oracle,
//! session snapshot and solver layers.
//!
//! Every solved program is checked by the runtime oracle on inputs drawn
//! from the seed, and every holdout must end exhausted. Standard output
//! holds one row per goal, then every metric by name and unit; its last
//! line is one JSON object with the keys `correct`, `attempted`, `failed`
//! and `metrics`. The exit code is 0 only if every goal met its known
//! verdict and passed the oracle.

mod gate;
mod host;
mod layers;
mod workload;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use synquid_engine::SynthesisSession;

use crate::gate::GateReport;
use crate::workload::{Case, Counters, Pass, PassKind, Workload};

/// Set-ups (spec load + session construction) per run; `setup_s` and
/// `parser.load_s` report their median.
const SETUP_REPS: usize = 9;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = BTreeMap::new();
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("missing value after {}", pair[0]));
        };
        flags.insert(flag.as_str(), value.as_str());
    }
    let get = |flag: &str| {
        flags
            .get(flag)
            .copied()
            .ok_or(format!("{flag} is required"))
    };
    let workload = get("--workload")?;
    Ok(Args {
        workload: Workload::parse(workload).ok_or(format!("unknown workload {workload}"))?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    })
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

fn geomean(values: &[f64]) -> f64 {
    let logs: f64 = values.iter().map(|v| v.max(1e-9).ln()).sum();
    (logs / values.len().max(1) as f64).exp()
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// 64-bit FNV-1a, stable across runs and platforms.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The verdict and oracle check of every submission.
struct Correctness {
    /// Why each failing goal failed, by case.
    failures: BTreeMap<usize, String>,
    /// The oracle's report on each solved goal, by case.
    gates: BTreeMap<usize, GateReport>,
    oracle_secs: f64,
}

/// Checks every submission's verdict, and runs the oracle on every
/// distinct program with inputs drawn from `seed`.
fn check<'a>(cases: &[Case], passes: impl Iterator<Item = &'a Pass>, seed: u64) -> Correctness {
    let mut failures = BTreeMap::new();
    let mut programs = BTreeMap::new();
    for run in passes.flat_map(|pass| pass.fills.iter().chain(&pass.runs)) {
        if let Some(miss) = cases[run.case].verdict_miss(&run.outcome) {
            failures.entry(run.case).or_insert(miss);
        }
        if let (Some(text), Some(ast)) = (&run.outcome.result.program, &run.outcome.result.ast) {
            programs
                .entry((run.case, text.clone()))
                .or_insert_with(|| ast.clone());
        }
    }
    let started = Instant::now();
    let mut gates = BTreeMap::new();
    for ((case, _), program) in &programs {
        let case_seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ *case as u64;
        let report = gate::check(&cases[*case].goal, program, case_seed);
        if report.failed() {
            let why = report
                .detail
                .clone()
                .or(report.unchecked.map(String::from))
                .unwrap_or_else(|| "no case could be checked".into());
            failures.entry(*case).or_insert(format!("oracle: {why}"));
        }
        gates.insert(*case, report);
    }
    Correctness {
        failures,
        gates,
        oracle_secs: started.elapsed().as_secs_f64(),
    }
}

/// The counters of each goal's first timed submission, and the names of
/// the counters any later submission (traced or not) failed to repeat.
type CounterReport = (
    BTreeMap<usize, Counters>,
    BTreeMap<usize, Vec<&'static str>>,
);

fn counters<'a>(passes: impl Iterator<Item = &'a Pass>) -> CounterReport {
    let mut first: BTreeMap<usize, Counters> = BTreeMap::new();
    let mut drifts: BTreeMap<usize, Vec<&'static str>> = BTreeMap::new();
    for run in passes.flat_map(|pass| &pass.runs) {
        let counters = Counters::of(&run.outcome);
        let drift = first
            .entry(run.case)
            .or_insert_with(|| counters.clone())
            .drift(&counters);
        if !drift.is_empty() {
            let names = drifts.entry(run.case).or_default();
            names.extend(drift);
            names.sort();
            names.dedup();
        }
    }
    (first, drifts)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("synbench: {e}");
            eprintln!(
                "usage: synbench --workload <solve-cold|solve-warm|exhaust> --seed N --seconds S --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("synbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &Args) -> Result<ExitCode, String> {
    synquid_telemetry::set_profiling(false);

    // Set-up: spec load and session construction, repeated; the last
    // repetition's goals are the ones used.
    let mut setup_secs = Vec::with_capacity(SETUP_REPS);
    let mut load_secs = Vec::with_capacity(SETUP_REPS);
    let mut cases = Vec::new();
    for _ in 0..SETUP_REPS {
        let started = Instant::now();
        cases = workload::load_cases(args.workload)?;
        load_secs.push(started.elapsed().as_secs_f64());
        std::hint::black_box(SynthesisSession::new());
        setup_secs.push(started.elapsed().as_secs_f64());
    }
    let order = workload::permutation(cases.len(), args.seed);
    let warm = args.workload == Workload::SolveWarm;

    // Timed passes, profiling off: whole passes until the window is over.
    // A traced run makes one, with the snapshot probe, then times the
    // solver fixtures (events still off), then makes the traced pass.
    let mut passes = Vec::new();
    let window = Instant::now();
    let mut traced = None;
    let mut fixture_rows = Vec::new();
    if args.trace {
        passes.push(workload::run_pass(&cases, &order, warm, PassKind::Snapshot));
        fixture_rows = layers::fixture_rows()?;
        traced = Some(workload::run_pass(&cases, &order, warm, PassKind::Traced));
    } else {
        loop {
            passes.push(workload::run_pass(&cases, &order, warm, PassKind::Plain));
            if window.elapsed().as_secs_f64() >= args.seconds {
                break;
            }
        }
    }

    let correctness = check(&cases, passes.iter().chain(&traced), args.seed);
    let (first, drifts) = counters(passes.iter().chain(&traced));

    // Per-goal rows; a goal's time to verdict is the median of its timed
    // submissions.
    let medians = workload::goal_medians(passes.iter().flat_map(|pass| &pass.runs));
    let per_goal: Vec<f64> = order.iter().map(|case| medians[case]).collect();
    let samples: usize = passes.iter().map(|pass| pass.runs.len()).sum();
    println!(
        "workload {:?}, seed {}, {} goals, {} timed pass(es), {samples} timed submissions, budget {}s per goal",
        args.workload,
        args.seed,
        cases.len(),
        passes.len(),
        workload::BUDGET.as_secs()
    );
    for (&case, secs) in order.iter().zip(&per_goal) {
        let c = &first[&case];
        let rung = c
            .winning_rung
            .map_or("-".to_string(), |(a, m)| format!("({a},{m})"));
        let oracle = correctness
            .gates
            .get(&case)
            .map_or("-".to_string(), |g| format!("{}/{}", g.passed, gate::CASES));
        println!(
            "goal {:<38} {:>9.4}s rung {:<6} run {} cancelled {} skipped {} terms {} eterms {} conflicts {} oracle {} {}",
            cases[case].label,
            secs,
            rung,
            c.rungs_run,
            c.rungs_cancelled,
            c.rungs_skipped,
            c.terms_enumerated,
            c.eterms_checked,
            c.conflicts_learned,
            oracle,
            correctness.failures.get(&case).map_or("ok", String::as_str),
        );
    }
    for (case, names) in &drifts {
        println!("drift {}: {}", cases[*case].label, names.join(", "));
    }
    // In table order, so every run of the same code prints the same
    // digest whatever its seed.
    let digest = fnv64(
        first
            .iter()
            .map(|(case, counters)| format!("{}={counters:?};", cases[*case].label))
            .collect::<String>()
            .as_bytes(),
    );
    println!("counters digest {digest:016x}");

    let walls: Vec<f64> = passes.iter().map(Pass::wall).collect();
    let metrics = match &traced {
        None => {
            // Set-up time: spec load and session construction, plus the
            // filling submissions of solve-warm.
            let fills: Vec<f64> = passes
                .iter()
                .map(|p| p.fills.iter().map(|r| r.secs).sum())
                .collect();
            vec![
                metric("setup_s", median(&setup_secs) + median(&fills), "s"),
                metric("wall_s", median(&walls), "s"),
                metric("goal_geomean_s", geomean(&per_goal), "s"),
                metric("peak_rss_mb", peak_rss_mb(), "MiB"),
            ]
        }
        Some(pass) => layers::metrics(
            pass,
            layers::Probes {
                load_s: median(&load_secs),
                untraced_wall: median(&walls),
                oracle_secs: correctness.oracle_secs,
                gates: correctness.gates.values().cloned().collect(),
                drifted: drifts.len(),
                snapshot: passes[0].snapshot,
                fixtures: fixture_rows,
            },
        )?,
    };

    let failed = correctness.failures.len();
    println!("goals {} count", cases.len());
    println!("goals_failed {failed} count");
    // Printed, not in the result line: with 14 or 5 goals the median is
    // one or two single goals' times, too noisy run to run to referee.
    println!(
        "goal_p50_s {} s (median of {} goals)",
        median(&per_goal),
        per_goal.len()
    );
    for m in &metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                m.value + 0.0, // no negative zero
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        cases.len(),
        body.join(", ")
    );
    for (case, why) in &correctness.failures {
        eprintln!("synbench: {} failed: {why}", cases[*case].label);
    }
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
