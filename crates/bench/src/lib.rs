//! # synquid-bench
//!
//! The benchmark harness that regenerates the paper's evaluation artifacts:
//!
//! * **Table 1** — the 64-benchmark suite with the T-all / T-nrt / T-ncc /
//!   T-nmus columns (the transcribed subset is run live, the remaining
//!   rows are reported as "not transcribed");
//! * **Table 2** — the comparison against Leon, Jennisys, Myth, λ²,
//!   Escher, and Myth2 (competitor numbers quoted from the paper, the
//!   Synquid column measured);
//! * **Figure 7** — synthesis time versus `n` for `max_n` and
//!   `array_search_n`.
//!
//! The `report` binary prints these tables, and its `solver-bench`
//! subcommand times the captured solver workloads of [`fixtures`]
//! ([`solver_bench`]), which synbench also runs. The binary's `batch`
//! subcommand additionally runs the whole `specs/`
//! corpus through the parallel engine and emits a machine-readable
//! timing report ([`batch_report_json_runs`], uploaded by CI as
//! `BENCH_pr10.json`), the markdown corpus table embedded in the README
//! ([`corpus_markdown_table`]), and per-goal deltas against a previous
//! artifact ([`compare_batch`] — CI fails when a previously solved goal
//! regressed to a timeout).

use std::time::Duration;
use synquid_engine::{BatchReport, Engine, EngineConfig, GoalJob, GoalOutcome, SynthesisSession};
use synquid_lang::benchmarks::{sygus, table1, table2, Benchmark};
pub use synquid_lang::runner::goal_label;
use synquid_lang::runner::{run_goal, RunResult, Variant};
use synquid_lang::SynthesisStats;
use synquid_telemetry::json::{self, Json};
use synquid_telemetry::PhaseProfile;

pub mod fixtures;
pub mod solver_bench;

/// Version stamped into every BENCH JSON artifact this crate emits.
/// History: absent = v1 (PR 2–5, no phase data); 2 = per-goal `phases`
/// map and top-level `schema_version` (PR 6); 3 = the `resident` block
/// (per-run session-layer counters for cold + warm replays of the
/// corpus against one resident session, PR 10).
pub const BENCH_SCHEMA_VERSION: u64 = 3;

/// One row of the regenerated Table 1.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// The benchmark metadata.
    pub benchmark: Benchmark,
    /// Results per variant, in [`Variant::all`] order; `None` for rows
    /// whose specification has not been transcribed.
    pub results: Option<Vec<(Variant, RunResult)>>,
}

/// Runs (the transcribed subset of) Table 1, loading each transcribed
/// row's goal from its `.sq` spec.
///
/// `timeout` bounds each individual synthesis run; `ablations` selects
/// whether the T-nrt / T-ncc / T-nmus columns are measured in addition to
/// T-all. Errors when a row's spec fails to load.
pub fn run_table1(
    timeout: Duration,
    ablations: bool,
) -> Result<Vec<Table1Row>, Box<dyn std::error::Error>> {
    let variants: Vec<Variant> = if ablations {
        Variant::all().to_vec()
    } else {
        vec![Variant::Default]
    };
    let mut rows = Vec::new();
    for benchmark in table1() {
        let results = match benchmark.spec {
            Some(spec) => {
                let goal = spec.load()?;
                let runs = variants
                    .iter()
                    .map(|variant| {
                        let config = variant.config(timeout, benchmark.bounds);
                        (*variant, run_goal(&goal, config))
                    })
                    .collect();
                Some(runs)
            }
            None => None,
        };
        rows.push(Table1Row { benchmark, results });
    }
    Ok(rows)
}

/// Formats the regenerated Table 1 as text.
pub fn format_table1(rows: &[Table1Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<22} {:<28} {:>8} {:>8} | {:>8} {:>8} {:>8} {:>8}\n",
        "Group", "Benchmark", "paper-T", "paper-sz", "T-all", "T-nrt", "T-ncc", "T-nmus"
    ));
    for row in rows {
        let b = &row.benchmark;
        let mut cells = vec!["n/a".to_string(); 4];
        match &row.results {
            None => cells[0] = "not transcribed".to_string(),
            Some(results) => {
                for (variant, result) in results {
                    let idx = Variant::all().iter().position(|v| v == variant).unwrap();
                    cells[idx] = result.time_cell();
                }
            }
        }
        out.push_str(&format!(
            "{:<22} {:<28} {:>8.2} {:>8} | {:>8} {:>8} {:>8} {:>8}\n",
            b.group,
            b.name,
            b.paper_time,
            b.paper_code_size,
            cells[0],
            cells[1],
            cells[2],
            cells[3]
        ));
    }
    out
}

/// One row of the regenerated Table 2.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Tool and benchmark names plus the quoted competitor numbers.
    pub row: synquid_lang::benchmarks::ComparisonRow,
    /// The measured Synquid result, when the corresponding Table 1
    /// benchmark has been transcribed.
    pub measured: Option<RunResult>,
}

/// Runs Table 2: competitor numbers are quoted, the Synquid column is
/// measured for transcribed benchmarks. Errors when a spec fails to load.
pub fn run_table2(timeout: Duration) -> Result<Vec<Table2Row>, Box<dyn std::error::Error>> {
    let t1 = table1();
    let mut rows = Vec::new();
    for row in table2() {
        let transcribed = row
            .table1
            .and_then(|key| t1.iter().find(|b| (b.group, b.name) == key))
            .and_then(|b| b.spec.map(|spec| (b.bounds, spec)));
        let measured = match transcribed {
            Some((bounds, spec)) => Some(run_goal(
                &spec.load()?,
                Variant::Default.config(timeout, bounds),
            )),
            None => None,
        };
        rows.push(Table2Row { row, measured });
    }
    Ok(rows)
}

/// Formats the regenerated Table 2 as text.
pub fn format_table2(rows: &[Table2Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<10} {:<28} {:>10} {:>10} {:>10} {:>10} {:>12}\n",
        "Tool", "Benchmark", "Spec", "Time", "SpecS", "TimeS(paper)", "TimeS(ours)"
    ));
    for r in rows {
        let spec = r
            .row
            .competitor_spec
            .map(|s| s.to_string())
            .unwrap_or_else(|| "n/a".to_string());
        let ours = r
            .measured
            .as_ref()
            .map(|m| m.time_cell())
            .unwrap_or_else(|| "n/t".to_string());
        out.push_str(&format!(
            "{:<10} {:<28} {:>10} {:>10.2} {:>10} {:>10.2} {:>12}\n",
            r.row.tool,
            r.row.benchmark,
            spec,
            r.row.competitor_time,
            r.row.synquid_spec,
            r.row.synquid_time,
            ours
        ));
    }
    out
}

/// One point of the Fig. 7 series.
#[derive(Debug, Clone)]
pub struct Fig7Point {
    /// Benchmark name (`max<n>` or `array_search<n>`).
    pub name: String,
    /// The parameter `n`.
    pub n: usize,
    /// The measured result.
    pub result: RunResult,
}

/// Runs the Fig. 7 family for `n = 2..=max_n`.
pub fn run_fig7(max_n: usize, timeout: Duration) -> Vec<Fig7Point> {
    sygus(max_n)
        .into_iter()
        .map(|(name, n, goal)| {
            let bounds = (1, 0);
            let result = run_goal(&goal, Variant::Default.config(timeout, bounds));
            Fig7Point { name, n, result }
        })
        .collect()
}

/// Formats the Fig. 7 series as text.
pub fn format_fig7(points: &[Fig7Point]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<20} {:>4} {:>10} {:>10}\n",
        "Benchmark", "n", "time(s)", "solved"
    ));
    for p in points {
        out.push_str(&format!(
            "{:<20} {:>4} {:>10} {:>10}\n",
            p.name,
            p.n,
            p.result.time_cell(),
            p.result.solved
        ));
    }
    out
}

// ---------------------------------------------------------------------
// Batch runs over the specs/ corpus (the PR-2 timing artifact)
// ---------------------------------------------------------------------

/// Loads every goal of the `specs/` corpus as engine jobs, in corpus
/// order, or errors when the corpus is missing or a spec fails to load.
pub fn corpus_jobs() -> Result<Vec<GoalJob>, Box<dyn std::error::Error>> {
    let files = synquid_lang::spec::corpus_files();
    if files.is_empty() {
        return Err("specs/ corpus not found".into());
    }
    let mut batch = Vec::new();
    for file in files {
        let spec = synquid_lang::spec::load_file(&file)?;
        // Label goals with the repo-relative spec path: provenance must
        // read the same (and compare equal across artifacts) wherever
        // the corpus directory was resolved from.
        let source = file
            .file_name()
            .map(|n| format!("specs/{}", n.to_string_lossy()))
            .unwrap_or_else(|| file.display().to_string());
        for goal in spec.goals {
            batch.push(GoalJob::new(source.clone(), goal));
        }
    }
    Ok(batch)
}

/// Runs the corpus `1 + warm_runs` times against one resident session:
/// element 0 is the cold run, the rest replay with warm caches. Each
/// report's `session` counters are that run's own traffic, so warm
/// cross-run hit rates are directly comparable to the cold within-run
/// rate.
pub fn run_corpus_warm(
    jobs: usize,
    timeout: Duration,
    warm_runs: usize,
) -> Result<Vec<BatchReport>, Box<dyn std::error::Error>> {
    let session = SynthesisSession::new();
    let mut reports = Vec::with_capacity(1 + warm_runs);
    for _ in 0..=warm_runs {
        let engine = Engine::new(EngineConfig {
            jobs,
            timeout,
            ..EngineConfig::default()
        });
        reports.push(engine.run_batch(corpus_jobs()?, &session));
    }
    Ok(reports)
}

/// Renders a cold [`BatchReport`] plus its warm replays (as produced by
/// [`run_corpus_warm`]; `runs[0]` is the cold run and supplies the
/// per-goal body) as the machine-readable `BENCH_pr10.json` artifact:
/// per-goal timings, budget-ledger accounting (rungs run / cancelled /
/// skipped / out of budget, budget consumed), the enumeration counters
/// (terms enumerated, pruned early, memo hits), the incremental-solver
/// counters (conflicts learned / replayed, assumptions dropped, warm
/// tableau starts, bounds propagated, shared MUS encodings, pivots
/// saved), the shared validity-cache counters, and (schema v3) the
/// `resident` block: one entry per run with that run's session-layer
/// counters (validity / enumeration / lemma traffic),
/// cold-vs-warm wall times, and whether every warm replay reproduced the
/// cold outcomes.
pub fn batch_report_json_runs(runs: &[BatchReport], timeout: Duration) -> String {
    let report = &runs[0];
    let warm = &runs[1..];
    let c = &report.session.validity;
    Json::obj([
        ("report", "BENCH_pr10".into()),
        ("schema_version", BENCH_SCHEMA_VERSION.into()),
        ("jobs", report.jobs.into()),
        ("timeout_secs", timeout.as_secs().into()),
        ("wall_secs", Json::fixed(report.wall_secs, 3)),
        (
            "validity_cache",
            Json::obj([
                ("hits", c.hits.into()),
                ("misses", c.misses.into()),
                ("negative_hits", c.negative_hits.into()),
                ("entries", c.entries.into()),
                ("interned_nodes", c.interned_nodes.into()),
                ("hit_rate", Json::fixed(c.hit_rate(), 4)),
            ]),
        ),
        (
            "resident",
            Json::obj([
                ("warm_runs", warm.len().into()),
                (
                    "outcomes_match",
                    warm.iter().all(|w| report.outcomes_match(w).is_ok()).into(),
                ),
                ("cold_wall_secs", Json::fixed(report.wall_secs, 3)),
                (
                    "warm_min_wall_secs",
                    warm.iter()
                        .map(|r| r.wall_secs)
                        .reduce(f64::min)
                        .map(|secs| Json::fixed(secs, 3))
                        .into(),
                ),
                (
                    "runs",
                    Json::Arr(
                        runs.iter()
                            .enumerate()
                            .map(|(i, run)| run_json(i > 0, run))
                            .collect(),
                    ),
                ),
            ]),
        ),
        (
            "goals",
            Json::Arr(report.outcomes.iter().map(goal_json).collect()),
        ),
    ])
    .to_lines()
}

/// One run's entry of the `resident` block: its session-layer counters.
fn run_json(warm: bool, run: &BatchReport) -> Json {
    let s = &run.session;
    let solved = run.outcomes.iter().filter(|o| o.result.solved).count();
    Json::obj([
        ("warm", warm.into()),
        ("wall_secs", Json::fixed(run.wall_secs, 3)),
        ("solved", solved.into()),
        ("validity_hits", s.validity.hits.into()),
        ("validity_misses", s.validity.misses.into()),
        ("validity_hit_rate", Json::fixed(s.validity.hit_rate(), 4)),
        ("validity_entries", s.validity.entries.into()),
        ("validity_evicted", s.validity.entries_evicted.into()),
        ("terms_interned", s.validity.terms_interned.into()),
        ("terms_evicted", s.validity.terms_evicted.into()),
        ("enum_hits", s.enumeration.hits.into()),
        ("enum_misses", s.enumeration.misses.into()),
        ("enum_hit_rate", Json::fixed(s.enumeration.hit_rate(), 4)),
        ("enum_evicted", s.enumeration.evicted.into()),
        ("lemmas_absorbed", s.lemmas.absorbed.into()),
        ("lemmas_resident", s.lemmas.entries.into()),
        ("lemmas_evicted", s.lemmas.evicted.into()),
        ("lemmas_refused", s.lemmas.refused.into()),
    ])
}

/// One goal's entry of the `goals` array.
fn goal_json(o: &GoalOutcome) -> Json {
    let r = &o.result;
    let stat = |counter: fn(&SynthesisStats) -> usize| Json::from(r.stats.as_ref().map(counter));
    let mut members = vec![
        ("file", o.source.as_str().into()),
        ("name", r.name.as_str().into()),
        ("solved", r.solved.into()),
        ("timed_out", r.timed_out.into()),
        ("time_secs", Json::fixed(r.time_secs, 3)),
        ("consumed_secs", Json::fixed(o.consumed_secs, 3)),
        ("code_size", r.code_size.into()),
        (
            "winning_rung",
            o.winning_rung
                .map(|(app, matches)| Json::Arr(vec![app.into(), matches.into()]))
                .into(),
        ),
        ("rungs_run", o.rungs_run.into()),
        ("rungs_cancelled", o.rungs_cancelled.into()),
        ("rungs_skipped", o.rungs_skipped.into()),
        ("rungs_out_of_budget", o.rungs_out_of_budget.into()),
        ("terms_enumerated", stat(|s| s.terms_enumerated)),
        ("eterms_checked", stat(|s| s.eterms_checked)),
        ("pruned_early", stat(|s| s.pruned_early)),
        ("memo_hits", stat(|s| s.memo_hits)),
        ("memo_misses", stat(|s| s.memo_misses)),
        ("smt_conflicts_learned", stat(|s| s.smt_conflicts_learned)),
        ("smt_conflicts_reused", stat(|s| s.smt_conflicts_reused)),
        ("assumptions_dropped", stat(|s| s.assumptions_dropped)),
        ("tableau_warm_starts", stat(|s| s.tableau_warm_starts)),
        ("bounds_propagated", stat(|s| s.bounds_propagated)),
        ("mus_shared_encodings", stat(|s| s.mus_shared_encodings)),
        ("lia_pivots_saved", stat(|s| s.lia_pivots_saved)),
    ];
    // An empty profile is omitted: absence means "no phase data", as in
    // v1 artifacts.
    if let Some(stats) = r.stats.as_ref().filter(|s| !s.phases.is_empty()) {
        members.push(("phases", Json::from(&stats.phases)));
    }
    Json::obj(members)
}

// ---------------------------------------------------------------------
// Generated corpus table (the README "Reproduction status" section)
// ---------------------------------------------------------------------

/// Renders a [`BatchReport`] as the markdown corpus table embedded in the
/// README's "Reproduction status" section (`report batch --readme`
/// regenerates it, so the README cannot silently drift from reality).
pub fn corpus_markdown_table(report: &BatchReport, timeout: Duration) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "<!-- generated by `cargo run --release -p synquid-bench --bin report -- batch --jobs {} --timeout {} --readme` -->\n",
        report.jobs,
        timeout.as_secs()
    ));
    out.push_str(
        "| Goal | Status | Time (s) | Enumerated | Checked | Pruned early | Memo hits | Conflicts replayed | Warm LIA starts | Rungs skipped |\n",
    );
    out.push_str("|---|---|---:|---:|---:|---:|---:|---:|---:|---:|\n");
    for o in &report.outcomes {
        let r = &o.result;
        let status = if r.solved {
            "**solved**".to_string()
        } else if r.timed_out {
            "timeout".to_string()
        } else {
            "no solution".to_string()
        };
        let time = if r.solved {
            format!("{:.2}", r.time_secs)
        } else {
            "—".to_string()
        };
        let counters = match &r.stats {
            Some(s) => [
                s.terms_enumerated.to_string(),
                s.eterms_checked.to_string(),
                s.pruned_early.to_string(),
                s.memo_hits.to_string(),
                s.smt_conflicts_reused.to_string(),
                s.tableau_warm_starts.to_string(),
            ],
            None => std::array::from_fn(|_| "—".to_string()),
        };
        out.push_str(&format!(
            "| `{}` | {} | {} | {} | {} | {} | {} | {} | {} | {} |\n",
            synquid_lang::runner::goal_label(&r.name, &o.source),
            status,
            time,
            counters[0],
            counters[1],
            counters[2],
            counters[3],
            counters[4],
            counters[5],
            o.rungs_skipped,
        ));
    }
    let solved = report.outcomes.iter().filter(|o| o.result.solved).count();
    out.push_str(&format!(
        "\n{solved} of {} corpus goals synthesize at this budget ({} worker(s), {}s/goal).\n",
        report.outcomes.len(),
        report.jobs,
        timeout.as_secs()
    ));
    out
}

// ---------------------------------------------------------------------
// Cross-report comparison (`report batch --compare OLD.json`)
// ---------------------------------------------------------------------

/// One goal's entry parsed back out of a batch-report JSON artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedGoal {
    /// Spec file the goal came from.
    pub file: String,
    /// Goal name.
    pub name: String,
    /// Whether it synthesized.
    pub solved: bool,
    /// Wall-clock seconds.
    pub time_secs: f64,
    /// Per-phase timing split, when the artifact carries one
    /// (schema v2+ with profiling enabled; `None` for v1 artifacts).
    pub phases: Option<PhaseProfile>,
}

/// A batch artifact parsed back: its schema stamp and per-goal entries.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchArtifact {
    /// The `schema_version` stamp; artifacts from before the stamp
    /// existed (PR 2–5) are version 1.
    pub schema_version: u64,
    /// The `goals` entries, in artifact order.
    pub goals: Vec<ParsedGoal>,
}

/// The member `key` of `entry` read by `read`, or `None` when it is
/// absent; an error when it is present but of another type.
fn optional<'a, T>(
    entry: &'a Json,
    key: &str,
    read: impl FnOnce(&'a Json) -> Option<T>,
) -> Result<Option<T>, String> {
    entry
        .get(key)
        .map(|value| read(value).ok_or_else(|| format!("mistyped \"{key}\"")))
        .transpose()
}

/// Like [`optional`], but an absent member is an error too.
fn required<'a, T>(
    entry: &'a Json,
    key: &str,
    read: impl FnOnce(&'a Json) -> Option<T>,
) -> Result<T, String> {
    optional(entry, key, read)?.ok_or_else(|| format!("missing \"{key}\""))
}

/// The elements of the non-empty `key` array of `doc`, each converted by
/// `entry`; an error names the element that failed.
fn entries<T>(
    doc: &Json,
    key: &str,
    entry: impl Fn(&Json) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let Some(Json::Arr(items)) = doc.get(key) else {
        return Err(format!("missing or mistyped \"{key}\""));
    };
    if items.is_empty() {
        return Err(format!("empty \"{key}\""));
    }
    items
        .iter()
        .enumerate()
        .map(|(i, e)| entry(e).map_err(|err| format!("{key}[{i}]: {err}")))
        .collect()
}

/// Parses a `BENCH_pr*.json` batch artifact, whatever its layout. Errors
/// when the text is not JSON, the `goals` array is missing or empty, or
/// a goal lacks its `file`, `name`, `solved` or `time_secs`, so a gate
/// never compares against nothing.
pub fn parse_batch_json(text: &str) -> Result<BatchArtifact, String> {
    let doc = json::parse(text)?;
    let schema_version = optional(&doc, "schema_version", Json::as_u64)?.unwrap_or(1);
    let goals = entries(&doc, "goals", |goal| {
        Ok(ParsedGoal {
            file: required(goal, "file", Json::as_str)?.to_string(),
            name: required(goal, "name", Json::as_str)?.to_string(),
            solved: required(goal, "solved", Json::as_bool)?,
            time_secs: required(goal, "time_secs", Json::as_f64)?,
            phases: optional(goal, "phases", PhaseProfile::from_json)?,
        })
    })?;
    Ok(BatchArtifact {
        schema_version,
        goals,
    })
}

/// One per-goal entry parsed back out of a `synquid fuzz --out` summary
/// artifact (see `synquid_oracle::summary_json`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedFuzzGoal {
    /// Goal name.
    pub goal: String,
    /// Stable spec-file label (`specs/<name>.sq`).
    pub source: String,
    /// Why the goal was skipped (unsolved, higher-order, …), if it was.
    pub skipped: Option<String>,
    /// Cases whose output satisfied the postcondition.
    pub pass: u64,
    /// Cases whose output violated the postcondition — the soundness
    /// signal the whole oracle exists for.
    pub violation: u64,
    /// Cases where evaluation itself failed.
    pub crash: u64,
    /// Cases abandoned because rejection sampling could not hit the
    /// precondition within its retry budget.
    pub gave_up: u64,
    /// Cases where the oracle could not decide (fuel, unsupported term).
    pub undecidable: u64,
    /// Generator draws discarded by precondition refinements.
    pub rejected: u64,
}

/// A parsed `synquid fuzz` summary: the header counters plus every
/// per-goal entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzSummary {
    /// The seed the run was keyed on (same seed ⇒ byte-identical artifact).
    pub seed: u64,
    /// Requested cases per goal.
    pub cases: u64,
    /// Postcondition violations across all goals.
    pub total_violations: u64,
    /// Differential divergences (ablated engine disagreed) across all goals.
    pub total_divergences: u64,
    /// Per-goal entries in corpus order.
    pub goals: Vec<ParsedFuzzGoal>,
}

/// Parses a `synquid fuzz --out` artifact, whatever its layout. Errors
/// when the text is not JSON, lacks a header counter, has no goals, or
/// a goal lacks its name, source or (unless it was skipped) one of its
/// verdict counts.
pub fn parse_fuzz_json(text: &str) -> Result<FuzzSummary, String> {
    let doc = json::parse(text)?;
    let goals = entries(&doc, "goals", |goal| {
        let skipped = optional(goal, "skipped", Json::as_str)?.map(str::to_string);
        // A skipped goal ran no cases, so it carries no counts.
        let fuzzed = skipped.is_none();
        let count = |key| {
            if fuzzed {
                required(goal, key, Json::as_u64)
            } else {
                Ok(0)
            }
        };
        Ok(ParsedFuzzGoal {
            goal: required(goal, "goal", Json::as_str)?.to_string(),
            source: required(goal, "source", Json::as_str)?.to_string(),
            skipped,
            pass: count("pass")?,
            violation: count("violation")?,
            crash: count("crash")?,
            gave_up: count("gave_up")?,
            undecidable: count("undecidable")?,
            rejected: count("rejected")?,
        })
    })?;
    Ok(FuzzSummary {
        seed: required(&doc, "seed", Json::as_u64)?,
        cases: required(&doc, "cases", Json::as_u64)?,
        total_violations: required(&doc, "total_violations", Json::as_u64)?,
        total_divergences: required(&doc, "total_divergences", Json::as_u64)?,
        goals,
    })
}

/// Renders a parsed fuzz artifact as the per-goal table `report fuzz`
/// prints. The caller decides the exit code from
/// [`FuzzSummary::total_violations`] / [`FuzzSummary::total_divergences`].
pub fn format_fuzz_summary(summary: &FuzzSummary) -> String {
    let mut out = format!(
        "{:<45} {:>6} {:>9} {:>8} {:>8}\n",
        "goal", "pass", "violation", "gave up", "rejected"
    );
    let mut fuzzed = 0usize;
    for g in &summary.goals {
        let label = synquid_lang::runner::goal_label(&g.goal, &g.source);
        match &g.skipped {
            Some(reason) => out.push_str(&format!("{label:<45} skipped ({reason})\n")),
            None => {
                fuzzed += 1;
                let odd = g.crash + g.undecidable;
                out.push_str(&format!(
                    "{label:<45} {:>6} {:>9} {:>8} {:>8}{}\n",
                    g.pass,
                    g.violation,
                    g.gave_up,
                    g.rejected,
                    if odd > 0 {
                        format!("  ({} crash/undecidable)", odd)
                    } else {
                        String::new()
                    }
                ));
            }
        }
    }
    out.push_str(&format!(
        "\n{fuzzed} goal(s) fuzzed at {} case(s) each (seed {}), {} violation(s), {} divergence(s).\n",
        summary.cases, summary.seed, summary.total_violations, summary.total_divergences
    ));
    out
}

/// The result of comparing a batch run against a previous artifact.
#[derive(Debug, Clone)]
pub struct BatchComparison {
    /// The formatted per-goal delta table.
    pub text: String,
    /// Goals solved now that were unsolved in the old artifact.
    pub newly_solved: usize,
    /// Goals solved in the old artifact that no longer solve — the
    /// regression condition CI fails on.
    pub regressed: usize,
    /// Goals still solved but more than 1.5× slower than before (and by
    /// more than half a second, so fast goals aren't flagged for noise) —
    /// the second regression condition CI fails on.
    pub time_regressed: usize,
    /// Still-solved goals whose `lia` phase (first-check theory time)
    /// regressed by the same [`is_time_regression`] gate — the solver-
    /// side regression condition CI fails on, so the warm-tableau wins
    /// can't silently erode even while total wall time stays inside the
    /// overall gate. Requires phase data on both sides; goals without it
    /// are not counted.
    pub lia_time_regressed: usize,
}

/// The time-regression gate: a still-solved goal counts as regressed
/// when it got more than 1.5× slower **and** lost more than half a
/// second of wall time (the absolute floor keeps sub-second goals from
/// tripping the gate on scheduling noise).
pub fn is_time_regression(prev_secs: f64, new_secs: f64) -> bool {
    new_secs > 1.5 * prev_secs && new_secs - prev_secs > 0.5
}

/// Compares a previous batch artifact with the current run: solved↔
/// timeout flips and time ratios, so CI uploads show the trajectory from
/// PR to PR — and CI can fail when [`BatchComparison::regressed`] is
/// nonzero.
pub fn compare_batch(old: &[ParsedGoal], report: &BatchReport) -> BatchComparison {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<40} {:>10} {:>10} {:>8}\n",
        "goal", "before", "after", "ratio"
    ));
    let mut flips_solved = 0usize;
    let mut flips_lost = 0usize;
    let mut time_regressed = 0usize;
    let mut lia_time_regressed = 0usize;
    let mut phase_deltas = String::new();
    for o in &report.outcomes {
        let r = &o.result;
        let label = synquid_lang::runner::goal_label(&r.name, &o.source);
        // Provenance paths may be absolute or relative depending on where
        // the artifact was produced; the spec file name is the stable part.
        let file_key = |path: &str| path.rsplit(['/', '\\']).next().unwrap_or(path).to_string();
        let Some(prev) = old
            .iter()
            .find(|p| p.name == r.name && file_key(&p.file) == file_key(&o.source))
        else {
            out.push_str(&format!(
                "{label:<40} {:>10} {:>10} {:>8}\n",
                "-",
                cell(r.solved, r.time_secs),
                "new"
            ));
            continue;
        };
        let ratio = if prev.solved && r.solved && r.time_secs > 0.0 {
            if is_time_regression(prev.time_secs, r.time_secs) {
                time_regressed += 1;
                format!("{:.2}x SLOW", prev.time_secs / r.time_secs)
            } else {
                format!("{:.2}x", prev.time_secs / r.time_secs)
            }
        } else if !prev.solved && r.solved {
            flips_solved += 1;
            "FIXED".to_string()
        } else if prev.solved && !r.solved {
            flips_lost += 1;
            "LOST".to_string()
        } else {
            "-".to_string()
        };
        out.push_str(&format!(
            "{label:<40} {:>10} {:>10} {:>8}\n",
            cell(prev.solved, prev.time_secs),
            cell(r.solved, r.time_secs),
            ratio
        ));
        // Phase-split deltas, when both artifacts carry phase data for
        // this goal: where inside the solver did the time move?
        if let (Some(old_phases), Some(new_phases)) = (
            &prev.phases,
            r.stats
                .as_ref()
                .map(|s| &s.phases)
                .filter(|p| !p.is_empty()),
        ) {
            let mut lines = String::new();
            for phase in synquid_telemetry::Phase::ALL {
                let before = old_phases.get(phase).total_secs();
                let after = new_phases.get(phase).total_secs();
                // The LIA-phase gate: a still-solved goal whose
                // first-check theory time blew past the regression
                // thresholds fails CI even if wall time didn't.
                let lia_regressed = phase == synquid_telemetry::Phase::Lia
                    && prev.solved
                    && r.solved
                    && is_time_regression(before, after);
                if lia_regressed {
                    lia_time_regressed += 1;
                }
                if before.max(after) < 0.01 {
                    continue;
                }
                lines.push_str(&format!(
                    "    {:<16} {before:>9.3}s -> {after:>9.3}s ({:+.3}s){}\n",
                    phase.name(),
                    after - before,
                    if lia_regressed {
                        "  LIA REGRESSION"
                    } else {
                        ""
                    }
                ));
            }
            if !lines.is_empty() {
                phase_deltas.push_str(&format!("  {label}\n{lines}"));
            }
        }
    }
    if !phase_deltas.is_empty() {
        out.push_str(&format!("\nphase splits (self time):\n{phase_deltas}"));
    }
    out.push_str(&format!(
        "\n{flips_solved} goal(s) newly solved, {flips_lost} regressed, {time_regressed} slowed >1.5x, {lia_time_regressed} LIA-phase regression(s), {} total.\n",
        report.outcomes.len()
    ));
    return BatchComparison {
        text: out,
        newly_solved: flips_solved,
        regressed: flips_lost,
        time_regressed,
        lia_time_regressed,
    };

    fn cell(solved: bool, time: f64) -> String {
        if solved {
            format!("{time:.2}s")
        } else {
            "timeout".to_string()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_batch_json_covers_every_goal() {
        // A 1-millisecond budget keeps this a structure test: goals all
        // time out instantly, but every corpus goal must appear in the
        // JSON with its portfolio accounting.
        let timeout = Duration::from_millis(1);
        let runs = run_corpus_warm(2, timeout, 0).expect("the specs/ corpus loads");
        let report = &runs[0];
        assert!(
            report.outcomes.len() >= 16,
            "expected at least 16 corpus goals, got {}",
            report.outcomes.len()
        );
        let json = batch_report_json_runs(&runs, timeout);
        assert!(json.contains("\"report\": \"BENCH_pr10\""));
        assert!(json.contains("\"resident\": {"));
        assert!(json.contains("\"warm_runs\": 0"));
        assert!(json.contains("\"warm_min_wall_secs\": null"));
        assert!(json.contains("\"lemmas_resident\""));
        assert!(json.contains("\"tableau_warm_starts\""));
        assert!(json.contains("\"bounds_propagated\""));
        assert!(json.contains("\"mus_shared_encodings\""));
        assert!(json.contains("\"lia_pivots_saved\""));
        assert!(json.contains("\"validity_cache\""));
        assert!(json.contains("\"terms_enumerated\""));
        assert!(json.contains("\"pruned_early\""));
        assert!(json.contains("\"memo_hits\""));
        assert!(json.contains("\"rungs_skipped\""));
        assert!(json.contains("\"consumed_secs\""));
        assert!(json.contains("\"smt_conflicts_reused\""));
        assert!(json.contains("\"assumptions_dropped\""));
        assert!(json.contains("replicate"));
        assert!(json.contains("tree_member"));
        // A 1 ms budget cannot be meaningfully exceeded in reporting:
        // every goal's reported time is its ledger consumption, and a
        // goal that fails must be out of budget, never a fake timeout.
        let parsed = parse_batch_json(&json).expect("the artifact parses").goals;
        for goal in &parsed {
            assert!(!goal.solved, "nothing solves in 1 ms: {goal:?}");
        }
        assert_eq!(
            json.matches("\"file\":").count(),
            report.outcomes.len(),
            "one goals[] entry per outcome"
        );
        // The artifact round-trips through the comparison parser.
        assert_eq!(parsed.len(), report.outcomes.len());
        assert!(parsed.iter().any(|g| g.name == "replicate"));
        let table = corpus_markdown_table(report, timeout);
        assert!(table.contains("| Goal | Status |"));
        assert!(table.contains("replicate @ "));
        let deltas = compare_batch(&parsed, report);
        assert!(deltas.text.contains("0 goal(s) newly solved"));
        assert_eq!(deltas.newly_solved, 0);
        assert_eq!(deltas.regressed, 0, "self-comparison cannot regress");
    }

    #[test]
    fn warm_replay_artifact_carries_per_run_resident_counters() {
        // 1 ms budgets keep this a structure test: nothing solves cold
        // or warm, so the outcome-identity check trivially holds, and
        // the artifact must carry one resident entry per run.
        let timeout = Duration::from_millis(1);
        let runs = run_corpus_warm(2, timeout, 1).expect("the specs/ corpus loads");
        assert_eq!(runs.len(), 2);
        runs[0].outcomes_match(&runs[1]).expect("1 ms runs agree");
        let json = batch_report_json_runs(&runs, timeout);
        assert!(json.contains("\"warm_runs\": 1"));
        assert!(json.contains("\"warm\": false"));
        assert!(json.contains("\"warm\": true"));
        assert!(json.contains("\"outcomes_match\": true"));
        assert!(!json.contains("\"warm_min_wall_secs\": null"));
        // The per-goal body is the cold run's; the parser still sees
        // exactly one entry per goal.
        assert_eq!(
            parse_batch_json(&json).unwrap().goals.len(),
            runs[0].outcomes.len()
        );
    }

    #[test]
    fn phases_survive_the_goal_line_round_trip() {
        let phases = json::parse(
            "{\"sat\": {\"secs\": 1.25, \"count\": 46, \"max_secs\": 0.5}, \
             \"lia\": {\"secs\": 0.75, \"count\": 43, \"max_secs\": 0.25}}",
        )
        .unwrap();
        let profile = PhaseProfile::from_json(&phases).expect("hand-written phases JSON parses");
        let artifact = format!(
            "{{\"goals\": [{{\"file\": \"specs/take.sq\", \"name\": \"take\", \"solved\": true, \
             \"time_secs\": 2.5, \"phases\": {}}}]}}",
            Json::from(&profile).to_compact()
        );
        let goals = parse_batch_json(&artifact).unwrap().goals;
        assert_eq!(goals.len(), 1);
        let back = goals[0].phases.as_ref().expect("phases round-trip");
        assert_eq!(back.counts(), profile.counts());
        assert!((goals[0].time_secs - 2.5).abs() < 1e-9, "flat field intact");
        // v1 artifacts (no stamp, no phases) parse with phases absent.
        let v1 = "{\"goals\": [{\"file\": \"a.sq\", \"name\": \"g\", \"solved\": false, \"time_secs\": 0.0}]}";
        let v1 = parse_batch_json(v1).unwrap();
        assert_eq!(v1.schema_version, 1);
        assert!(v1.goals[0].phases.is_none());
    }

    #[test]
    fn time_regression_gate_has_ratio_and_absolute_floors() {
        assert!(is_time_regression(1.0, 2.0), "2x and +1s: regression");
        assert!(!is_time_regression(1.0, 1.4), "under the 1.5x ratio floor");
        assert!(
            !is_time_regression(0.1, 0.4),
            "4x but under the 0.5s absolute floor"
        );
        assert!(!is_time_regression(10.0, 9.0), "faster is never flagged");
    }

    #[test]
    fn fuzz_summary_round_trips_through_the_parser() {
        // The exact shape `synquid_oracle::summary_json` emits: header
        // counters on their own lines, one goal per line, optional
        // skipped / violations / differential fields.
        let artifact = concat!(
            "{\n",
            "  \"seed\": 42,\n",
            "  \"cases\": 25,\n",
            "  \"total_violations\": 1,\n",
            "  \"total_divergences\": 0,\n",
            "  \"goals\": [\n",
            "    {\"goal\": \"append\", \"source\": \"specs/append.sq\", \"skipped\": \"synthesis failed or timed out\"},\n",
            "    {\"goal\": \"length\", \"source\": \"specs/length.sq\", \"pass\": 25, \"violation\": 0, \"crash\": 0, \"gave_up\": 0, \"undecidable\": 0, \"rejected\": 3},\n",
            "    {\"goal\": \"drop\", \"source\": \"specs/drop.sq\", \"pass\": 24, \"violation\": 1, \"crash\": 0, \"gave_up\": 0, \"undecidable\": 0, \"rejected\": 147, \"violations\": [{\"case\": 7, \"kind\": \"violation\", \"shrunk\": [\"0\", \"Nil\"]}]}\n",
            "  ]\n",
            "}\n",
        );
        let summary = parse_fuzz_json(artifact).expect("a valid summary");
        assert_eq!(summary.seed, 42);
        assert_eq!(summary.cases, 25);
        assert_eq!(summary.total_violations, 1);
        assert_eq!(summary.total_divergences, 0);
        assert_eq!(summary.goals.len(), 3);
        assert_eq!(
            summary.goals[0].skipped.as_deref(),
            Some("synthesis failed or timed out")
        );
        assert_eq!(summary.goals[1].pass, 25);
        assert_eq!(summary.goals[1].rejected, 3);
        // The scalar "violation" count must not be confused with the
        // "violations" witness array on the same line.
        assert_eq!(summary.goals[2].violation, 1);
        assert_eq!(summary.goals[2].pass, 24);
        let table = format_fuzz_summary(&summary);
        assert!(table.contains("skipped"));
        assert!(table.contains("1 violation(s)"));
        // Any valid layout reads the same; a missing count or a cut-off
        // document is an error, never a clean summary.
        let minified: String = artifact.lines().map(str::trim).collect();
        assert_eq!(parse_fuzz_json(&minified), Ok(summary));
        let no_pass = artifact.replace("\"pass\": 25, ", "");
        assert!(parse_fuzz_json(&no_pass).unwrap_err().contains("\"pass\""));
        assert!(parse_fuzz_json(&artifact[..artifact.len() / 2]).is_err());
        assert!(parse_fuzz_json("{\"goals\": []}").is_err(), "no header");
        let empty = artifact.replace(
            &artifact[artifact.find('[').unwrap()..=artifact.rfind(']').unwrap()],
            "[]",
        );
        assert!(parse_fuzz_json(&empty).unwrap_err().contains("empty"));
    }

    #[test]
    fn json_escaping_handles_quotes_and_newlines() {
        let mut runs = fixed_runs();
        runs[0].outcomes[0].result.name = "a\"b\\c\nd".into();
        let json = batch_report_json_runs(&runs, Duration::from_secs(30));
        assert!(json.contains("\"name\": \"a\\\"b\\\\c\\nd\""));
        let goals = parse_batch_json(&json).unwrap().goals;
        assert_eq!(goals[0].name, "a\"b\\c\nd");
    }

    fn outcome(
        name: &str,
        source: &str,
        solved: bool,
        stats: Option<SynthesisStats>,
    ) -> GoalOutcome {
        GoalOutcome {
            source: source.into(),
            result: RunResult {
                name: name.into(),
                solved,
                timed_out: !solved,
                time_secs: if solved { 2.5 } else { 30.125 },
                program: solved.then(|| "\\xs . xs".to_string()),
                ast: None,
                code_size: solved.then_some(17),
                stats,
            },
            winning_rung: solved.then_some((2, 1)),
            rungs_run: 3,
            rungs_cancelled: 2,
            rungs_skipped: 1,
            rungs_out_of_budget: 0,
            consumed_secs: 3.0625,
        }
    }

    /// A cold run and one warm replay with fixed counters: a solved goal
    /// with phases, an unsolved one with counters, one without stats.
    fn fixed_runs() -> Vec<BatchReport> {
        let stats = SynthesisStats {
            terms_enumerated: 413,
            eterms_checked: 252,
            pruned_early: 209,
            memo_hits: 178,
            memo_misses: 26,
            smt_conflicts_learned: 5,
            smt_conflicts_reused: 4,
            assumptions_dropped: 3,
            tableau_warm_starts: 9,
            bounds_propagated: 11,
            mus_shared_encodings: 2,
            lia_pivots_saved: 31,
            ..SynthesisStats::default()
        };
        let phases = json::parse(
            "{\"sat\":{\"secs\":1.234567,\"count\":46,\"max_secs\":0.500000},\
             \"lia\":{\"secs\":0.750000,\"count\":43,\"max_secs\":0.250000},\
             \"cache-lookup\":{\"secs\":0.000012,\"count\":7,\"max_secs\":0.000004}}",
        )
        .unwrap();
        let with_phases = SynthesisStats {
            phases: PhaseProfile::from_json(&phases).unwrap(),
            ..stats
        };
        let mut session = synquid_engine::SessionStats::default();
        session.validity.hits = 23565;
        session.validity.misses = 21623;
        session.validity.negative_hits = 3137;
        session.validity.entries = 19333;
        session.validity.interned_nodes = 118046;
        session.validity.entries_evicted = 4;
        session.validity.terms_interned = 99;
        session.validity.terms_evicted = 1;
        session.enumeration.hits = 10;
        session.enumeration.misses = 30;
        session.enumeration.evicted = 2;
        session.lemmas.absorbed = 12;
        session.lemmas.entries = 40;
        session.lemmas.evicted = 6;
        session.lemmas.refused = 2;
        let cold = BatchReport {
            outcomes: vec![
                outcome("take", "specs/take.sq", true, Some(with_phases)),
                outcome(
                    "tree \"member\"",
                    "specs/tree_member.sq",
                    false,
                    Some(stats),
                ),
                outcome("drop", "specs/drop.sq", false, None),
            ],
            session,
            wall_secs: 184.5114,
            jobs: 1,
        };
        let mut warm = cold.clone();
        warm.wall_secs = 157.115;
        warm.session.validity.hits = 45000;
        warm.session.validity.misses = 12;
        vec![cold, warm]
    }

    /// [`fixed_runs`] as the hand-rolled writer the shared codec
    /// replaced rendered it, before it was deleted, less the
    /// `namespaces` member that runs no longer carry, plus the
    /// `lemmas_evicted` and `lemmas_refused` members added since.
    const FIXED_RUNS_BEFORE_THE_CODEC: &str = r#"{
  "report": "BENCH_pr10",
  "schema_version": 3,
  "jobs": 1,
  "timeout_secs": 30,
  "wall_secs": 184.511,
  "validity_cache": {"hits": 23565, "misses": 21623, "negative_hits": 3137, "entries": 19333, "interned_nodes": 118046, "hit_rate": 0.5215},
  "resident": {
    "warm_runs": 1,
    "outcomes_match": true,
    "cold_wall_secs": 184.511,
    "warm_min_wall_secs": 157.115,
    "runs": [
      {"warm": false, "wall_secs": 184.511, "solved": 1, "validity_hits": 23565, "validity_misses": 21623, "validity_hit_rate": 0.5215, "validity_entries": 19333, "validity_evicted": 4, "terms_interned": 99, "terms_evicted": 1, "enum_hits": 10, "enum_misses": 30, "enum_hit_rate": 0.2500, "enum_evicted": 2, "lemmas_absorbed": 12, "lemmas_resident": 40, "lemmas_evicted": 6, "lemmas_refused": 2},
      {"warm": true, "wall_secs": 157.115, "solved": 1, "validity_hits": 45000, "validity_misses": 12, "validity_hit_rate": 0.9997, "validity_entries": 19333, "validity_evicted": 4, "terms_interned": 99, "terms_evicted": 1, "enum_hits": 10, "enum_misses": 30, "enum_hit_rate": 0.2500, "enum_evicted": 2, "lemmas_absorbed": 12, "lemmas_resident": 40, "lemmas_evicted": 6, "lemmas_refused": 2}
    ]
  },
  "goals": [
    {"file": "specs/take.sq", "name": "take", "solved": true, "timed_out": false, "time_secs": 2.500, "consumed_secs": 3.062, "code_size": 17, "winning_rung": [2, 1], "rungs_run": 3, "rungs_cancelled": 2, "rungs_skipped": 1, "rungs_out_of_budget": 0, "terms_enumerated": 413, "eterms_checked": 252, "pruned_early": 209, "memo_hits": 178, "memo_misses": 26, "smt_conflicts_learned": 5, "smt_conflicts_reused": 4, "assumptions_dropped": 3, "tableau_warm_starts": 9, "bounds_propagated": 11, "mus_shared_encodings": 2, "lia_pivots_saved": 31, "phases": {"sat":{"secs":1.234567,"count":46,"max_secs":0.500000},"lia":{"secs":0.750000,"count":43,"max_secs":0.250000},"cache-lookup":{"secs":0.000012,"count":7,"max_secs":0.000004}}},
    {"file": "specs/tree_member.sq", "name": "tree \"member\"", "solved": false, "timed_out": true, "time_secs": 30.125, "consumed_secs": 3.062, "code_size": null, "winning_rung": null, "rungs_run": 3, "rungs_cancelled": 2, "rungs_skipped": 1, "rungs_out_of_budget": 0, "terms_enumerated": 413, "eterms_checked": 252, "pruned_early": 209, "memo_hits": 178, "memo_misses": 26, "smt_conflicts_learned": 5, "smt_conflicts_reused": 4, "assumptions_dropped": 3, "tableau_warm_starts": 9, "bounds_propagated": 11, "mus_shared_encodings": 2, "lia_pivots_saved": 31},
    {"file": "specs/drop.sq", "name": "drop", "solved": false, "timed_out": true, "time_secs": 30.125, "consumed_secs": 3.062, "code_size": null, "winning_rung": null, "rungs_run": 3, "rungs_cancelled": 2, "rungs_skipped": 1, "rungs_out_of_budget": 0, "terms_enumerated": null, "eterms_checked": null, "pruned_early": null, "memo_hits": null, "memo_misses": null, "smt_conflicts_learned": null, "smt_conflicts_reused": null, "assumptions_dropped": null, "tableau_warm_starts": null, "bounds_propagated": null, "mus_shared_encodings": null, "lia_pivots_saved": null}
  ]
}
"#;

    #[test]
    fn bench_artifact_keeps_its_values_and_one_entry_per_line() {
        let json = batch_report_json_runs(&fixed_runs(), Duration::from_secs(30));
        assert_eq!(
            json::parse(&json).unwrap(),
            json::parse(FIXED_RUNS_BEFORE_THE_CODEC).unwrap()
        );
        for (prefix, expected) in [("{\"warm\": ", 2), ("{\"file\": ", 3)] {
            let entries: Vec<&str> = json
                .lines()
                .map(str::trim)
                .filter(|line| line.starts_with(prefix))
                .collect();
            assert_eq!(entries.len(), expected, "one {prefix} entry per line");
            for entry in entries {
                let entry = entry.strip_suffix(',').unwrap_or(entry);
                assert!(json::parse(entry).is_ok(), "a whole entry: {entry}");
            }
        }
    }

    fn baseline(pr: &str) -> String {
        let path = format!(
            "{}/../../benchmarks/BENCH_{pr}.json",
            env!("CARGO_MANIFEST_DIR")
        );
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
    }

    #[test]
    fn checked_in_baselines_parse() {
        // (artifact, goals, solved, goals with phases, schema version)
        for (pr, goals, solved, phased, schema) in [
            ("pr2", 17, 7, 0, 1),
            ("pr3", 17, 11, 0, 1),
            ("pr5", 17, 12, 0, 1),
            ("pr7", 17, 12, 17, 2),
            ("pr9", 19, 14, 19, 2),
            ("pr10", 19, 14, 19, 3),
        ] {
            let text = baseline(pr);
            let artifact = parse_batch_json(&text).unwrap();
            let count =
                |keep: fn(&ParsedGoal) -> bool| artifact.goals.iter().filter(|g| keep(g)).count();
            assert_eq!(
                (
                    artifact.goals.len(),
                    count(|g| g.solved),
                    count(|g| g.phases.is_some())
                ),
                (goals, solved, phased),
                "BENCH_{pr}"
            );
            assert_eq!(artifact.schema_version, schema, "BENCH_{pr}");
            // These files hold one goal per line, so a plain text scan
            // reads every goal's time as the per-line reader did.
            let scanned: Vec<f64> = text
                .lines()
                .filter_map(|line| line.split("\"time_secs\": ").nth(1))
                .map(|rest| rest.split([',', '}']).next().unwrap().parse().unwrap())
                .collect();
            let times: Vec<f64> = artifact.goals.iter().map(|g| g.time_secs).collect();
            assert_eq!(times, scanned, "BENCH_{pr}");
        }
    }

    #[test]
    fn minified_and_reindented_baselines_parse_alike() {
        // Plain text edits, not the codec: every line trimmed and joined
        // with the spaces after ':' and ',' dropped; and every member of
        // a goal moved onto a tab-indented line of its own.
        let text = baseline("pr10");
        let minified: String = text
            .lines()
            .map(|line| line.trim().replace("\": ", "\":").replace(", ", ","))
            .collect();
        let reindented: String = text
            .lines()
            .map(|line| format!("\t\t{}\n", line.trim_start().replace(", \"", ",\n\t\t\t\"")))
            .collect();
        assert!(!minified.contains('\n') && reindented.lines().count() > 500);
        for copy in [&text, &minified, &reindented] {
            let artifact = parse_batch_json(copy).unwrap();
            let solved = artifact.goals.iter().filter(|g| g.solved).count();
            assert_eq!(
                (artifact.goals.len(), solved, artifact.schema_version),
                (19, 14, 3)
            );
            assert_eq!(artifact, parse_batch_json(&text).unwrap());
        }
        // A baseline that is not JSON or has no goals array is an error,
        // never an empty comparison.
        assert!(parse_batch_json(&text[..text.len() - 3]).is_err());
        assert!(parse_batch_json("{\"report\": \"BENCH_pr10\"}").is_err());
        assert!(parse_batch_json("{\"goals\": []}").is_err(), "no goals");
        let nameless = text.replacen("\"name\": \"append\", ", "", 1);
        assert!(parse_batch_json(&nameless)
            .unwrap_err()
            .contains("\"name\""));
    }

    #[test]
    fn table1_report_includes_all_rows_without_running() {
        // Zero-second timeout: transcribed rows fail fast, but the report
        // structure still covers all 64 benchmarks.
        let rows = run_table1(Duration::from_millis(1), false).expect("specs load");
        assert_eq!(rows.len(), 64);
        let text = format_table1(&rows);
        assert!(text.contains("not transcribed"));
        assert!(text.contains("replicate"));
    }

    #[test]
    fn fig7_report_formats_every_point() {
        // A 1-millisecond budget keeps this a pure structure test: the
        // timing columns of Fig. 7 are produced by the `report` binary.
        let points = run_fig7(2, Duration::from_millis(1));
        assert_eq!(points.len(), 2);
        let text = format_fig7(&points);
        assert!(text.contains("max2"));
        assert!(text.contains("array_search2"));
    }
}
