//! The solver-microbenchmark harness: times the [`crate::fixtures`]
//! workloads against a fresh solver instance per iteration and emits the
//! `BENCH_solver.json` artifact.
//!
//! Two ways to run it:
//!
//! * **smoke mode** (`report solver-bench --smoke`, used by CI): a few
//!   iterations per fixture, verdicts asserted, artifact written — a
//!   dependency-free regression canary that finishes in seconds;
//! * **criterion mode** (`cargo bench -p synquid-bench --features
//!   criterion` after uncommenting the dev-dependency): statistically
//!   rigorous timing of the same fixtures, for local investigation.
//!
//! Every iteration rebuilds the formula and a fresh [`Smt`] instance, so
//! measurements never benefit from the validity cache or the lemma store
//! of a previous iteration: what is timed is the full encode → DPLL(T) →
//! core-shrink pipeline. Phase splits come from
//! [`synquid_solver::SmtStats::phases`] when span profiling is enabled
//! (the smoke runner enables it).

use crate::fixtures::{self, Fixture, Workload, WorkloadKind};
use std::collections::BTreeSet;
use std::time::Instant;
use synquid_solver::{enumerate_mus_smt, MusConfig, Smt};
use synquid_telemetry::json::Json;
use synquid_telemetry::PhaseProfile;

/// Timing summary of one fixture: the incremental (warm-tableau, shared
/// MUS encoding) path and the from-scratch baseline, A/B'd in one run.
pub struct FixtureResult {
    /// The fixture that ran.
    pub name: &'static str,
    /// Query or MUS enumeration.
    pub kind: WorkloadKind,
    /// Where the workload was captured from.
    pub source: &'static str,
    /// Iterations timed (per mode).
    pub iterations: usize,
    /// Fastest iteration on the incremental path, seconds.
    pub min_secs: f64,
    /// Mean iteration on the incremental path, seconds.
    pub mean_secs: f64,
    /// Fastest iteration with `set_incremental_lia(false)` — the
    /// from-scratch per-check baseline this PR's tentpole replaces.
    pub baseline_min_secs: f64,
    /// Mean from-scratch iteration, seconds.
    pub baseline_mean_secs: f64,
    /// Per-phase solver split summed over the incremental iterations
    /// only (empty when span profiling is disabled).
    pub phases: PhaseProfile,
    /// Whether every iteration of both modes produced the expected
    /// verdict.
    pub verdicts_ok: bool,
}

impl FixtureResult {
    /// Old-vs-new speedup on fastest iterations (>1 means the
    /// incremental path wins).
    pub fn speedup(&self) -> f64 {
        if self.min_secs > 0.0 {
            self.baseline_min_secs / self.min_secs
        } else {
            f64::INFINITY
        }
    }
}

/// Times one mode of one fixture; returns per-iteration times and
/// whether every verdict matched the captured one.
fn time_mode(
    fixture: &Fixture,
    iterations: usize,
    incremental_lia: bool,
    phases: Option<&mut PhaseProfile>,
) -> (Vec<f64>, bool) {
    let mut times = Vec::with_capacity(iterations);
    let mut verdicts_ok = true;
    let mut mode_phases = PhaseProfile::default();
    for _ in 0..iterations.max(1) {
        let workload = (fixture.build)();
        let mut smt = Smt::new();
        smt.set_incremental_lia(incremental_lia);
        let started = Instant::now();
        let ok = match workload {
            Workload::Query {
                antecedent,
                consequent,
            } => {
                let unsat = smt.entails(&antecedent, &consequent);
                unsat == fixture.expect_unsat
            }
            Workload::Mus { background, soft } => {
                let muses = enumerate_mus_smt(
                    &mut smt,
                    &background,
                    &soft,
                    &BTreeSet::new(),
                    MusConfig::default(),
                );
                muses.is_empty() != fixture.expect_unsat
            }
        };
        times.push(started.elapsed().as_secs_f64());
        mode_phases.merge(&smt.stats().phases);
        verdicts_ok &= ok;
    }
    if let Some(out) = phases {
        out.merge(&mode_phases);
    }
    (times, verdicts_ok)
}

/// Runs one fixture for `iterations` iterations per mode against fresh
/// solvers: first the incremental path, then the from-scratch baseline.
pub fn run_fixture(fixture: &Fixture, iterations: usize) -> FixtureResult {
    let mut phases = PhaseProfile::default();
    let (new_times, new_ok) = time_mode(fixture, iterations, true, Some(&mut phases));
    let (old_times, old_ok) = time_mode(fixture, iterations, false, None);
    let min = |ts: &[f64]| ts.iter().copied().fold(f64::INFINITY, f64::min);
    let mean = |ts: &[f64]| ts.iter().sum::<f64>() / ts.len() as f64;
    FixtureResult {
        name: fixture.name,
        kind: fixture.kind,
        source: fixture.source,
        iterations: new_times.len(),
        min_secs: min(&new_times),
        mean_secs: mean(&new_times),
        baseline_min_secs: min(&old_times),
        baseline_mean_secs: mean(&old_times),
        phases,
        verdicts_ok: new_ok && old_ok,
    }
}

/// Runs every fixture. Panics if any fixture's verdict deviates from the
/// captured one — a wrong verdict means the transcription (or the
/// solver) broke, and timing a wrong answer is worse than failing.
pub fn run_all(iterations: usize) -> Vec<FixtureResult> {
    fixtures::all()
        .iter()
        .map(|f| {
            let result = run_fixture(f, iterations);
            assert!(
                result.verdicts_ok,
                "fixture {} produced an unexpected verdict",
                f.name
            );
            result
        })
        .collect()
}

/// Renders the results as the `BENCH_solver.json` artifact, one fixture
/// per line (schema-versioned like the batch report).
pub fn solver_report_json(results: &[FixtureResult]) -> String {
    let fixture = |r: &FixtureResult| {
        let mut members = vec![
            ("name", r.name.into()),
            ("kind", kind_name(r.kind).into()),
            ("source", r.source.into()),
            ("iterations", r.iterations.into()),
            ("min_secs", Json::fixed(r.min_secs, 6)),
            ("mean_secs", Json::fixed(r.mean_secs, 6)),
            ("baseline_min_secs", Json::fixed(r.baseline_min_secs, 6)),
            ("baseline_mean_secs", Json::fixed(r.baseline_mean_secs, 6)),
            ("speedup", Json::fixed(r.speedup(), 3)),
        ];
        if !r.phases.is_empty() {
            members.push(("phases", Json::from(&r.phases)));
        }
        Json::obj(members)
    };
    Json::obj([
        ("report", "BENCH_solver".into()),
        ("schema_version", crate::BENCH_SCHEMA_VERSION.into()),
        ("fixtures", Json::Arr(results.iter().map(fixture).collect())),
    ])
    .to_lines()
}

fn kind_name(kind: WorkloadKind) -> &'static str {
    match kind {
        WorkloadKind::Query => "query",
        WorkloadKind::Mus => "mus",
    }
}

/// Formats a human-readable table of the results: from-scratch baseline
/// vs incremental path, with the per-fixture speedup ratio.
pub fn format_results(results: &[FixtureResult]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<24} {:<6} {:>6} {:>12} {:>12} {:>8}\n",
        "fixture", "kind", "iters", "old(ms)", "new(ms)", "ratio"
    ));
    for r in results {
        out.push_str(&format!(
            "{:<24} {:<6} {:>6} {:>12.3} {:>12.3} {:>7.2}x\n",
            r.name,
            kind_name(r.kind),
            r.iterations,
            r.baseline_min_secs * 1e3,
            r.min_secs * 1e3,
            r.speedup()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_single_iteration_matches_captured_verdicts() {
        // One iteration per fixture: verdicts are asserted inside
        // run_all, so this test fails if a transcription drifts from its
        // captured verdict.
        let results = run_all(1);
        assert_eq!(results.len(), fixtures::all().len());
        let json = solver_report_json(&results);
        assert!(json.contains("\"report\": \"BENCH_solver\""));
        assert!(json.contains(&format!(
            "\"schema_version\": {}",
            crate::BENCH_SCHEMA_VERSION
        )));
        assert!(json.contains("take_guard_abduction"));
        assert!(json.contains("double_branch_mus"));
        let table = format_results(&results);
        assert!(table.contains("insert_round_trip"));
    }

    #[test]
    fn solver_artifact_keeps_its_values_and_one_fixture_per_line() {
        let phases = synquid_telemetry::json::parse(
            "{\"sat\":{\"secs\":1.234567,\"count\":46,\"max_secs\":0.500000},\
             \"lia\":{\"secs\":0.750000,\"count\":43,\"max_secs\":0.250000},\
             \"cache-lookup\":{\"secs\":0.000012,\"count\":7,\"max_secs\":0.000004}}",
        )
        .unwrap();
        let fixed = [
            FixtureResult {
                name: "take_guard_abduction",
                kind: WorkloadKind::Query,
                source: "take (guard abduction)",
                iterations: 5,
                min_secs: 0.0012345,
                mean_secs: 0.0023456,
                baseline_min_secs: 0.0034567,
                baseline_mean_secs: 0.0045678,
                phases: PhaseProfile::from_json(&phases).unwrap(),
                verdicts_ok: true,
            },
            FixtureResult {
                name: "double_branch_mus",
                kind: WorkloadKind::Mus,
                source: "double",
                iterations: 5,
                min_secs: 0.5,
                mean_secs: 0.75,
                baseline_min_secs: 1.0,
                baseline_mean_secs: 1.25,
                phases: PhaseProfile::default(),
                verdicts_ok: true,
            },
        ];
        // As the hand-rolled writer the shared codec replaced rendered
        // `fixed`, before it was deleted.
        let before = r#"{
  "report": "BENCH_solver",
  "schema_version": 3,
  "fixtures": [
    {"name": "take_guard_abduction", "kind": "query", "source": "take (guard abduction)", "iterations": 5, "min_secs": 0.001234, "mean_secs": 0.002346, "baseline_min_secs": 0.003457, "baseline_mean_secs": 0.004568, "speedup": 2.800, "phases": {"sat":{"secs":1.234567,"count":46,"max_secs":0.500000},"lia":{"secs":0.750000,"count":43,"max_secs":0.250000},"cache-lookup":{"secs":0.000012,"count":7,"max_secs":0.000004}}},
    {"name": "double_branch_mus", "kind": "mus", "source": "double", "iterations": 5, "min_secs": 0.500000, "mean_secs": 0.750000, "baseline_min_secs": 1.000000, "baseline_mean_secs": 1.250000, "speedup": 2.000}
  ]
}
"#;
        let json = solver_report_json(&fixed);
        let parse = |text| synquid_telemetry::json::parse(text).unwrap();
        assert_eq!(parse(&json), parse(before));
        let lines: Vec<&str> = json.lines().map(str::trim).collect();
        assert_eq!(lines[3], "\"fixtures\": [");
        assert!(lines[4].starts_with("{\"name\": \"take_guard_abduction\""));
        assert!(lines[5].starts_with("{\"name\": \"double_branch_mus\""));
        assert_eq!(lines[6], "]");
    }
}
