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
//! The `report` binary prints these tables; the Criterion benches under
//! `benches/` time a representative subset for regression tracking. The
//! binary's `batch` subcommand additionally runs the whole `specs/`
//! corpus through the parallel engine and emits a machine-readable
//! timing report ([`batch_report_json`], uploaded by CI as
//! `BENCH_pr10.json`), the markdown corpus table embedded in the README
//! ([`corpus_markdown_table`]), and per-goal deltas against a previous
//! artifact ([`compare_batch`] — CI fails when a previously solved goal
//! regressed to a timeout).

use std::time::Duration;
use synquid_engine::{BatchReport, Engine, EngineConfig, GoalJob, SynthesisSession};
use synquid_lang::benchmarks::{sygus, table1, table2, Benchmark};
pub use synquid_lang::runner::goal_label;
use synquid_lang::runner::{run_goal, RunResult, Variant};
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
            .table1_name
            .and_then(|name| t1.iter().find(|b| b.name == name))
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

/// Runs every goal of the `specs/` corpus through the parallel engine,
/// against the given (possibly already warm) session.
///
/// Returns the deterministic [`BatchReport`] (outcomes in corpus order)
/// or an error when the corpus is missing or a spec file fails to load.
pub fn run_corpus_batch(
    jobs: usize,
    timeout: Duration,
    session: &SynthesisSession,
) -> Result<BatchReport, Box<dyn std::error::Error>> {
    let engine = Engine::new(EngineConfig {
        jobs,
        timeout,
        ..EngineConfig::default()
    });
    Ok(engine.run_batch(corpus_jobs()?, session))
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

/// Checks that a warm replay reproduced the cold run's outcomes exactly:
/// same goals, same solved verdicts, same programs. A difference is the
/// residency-soundness alarm CI keys on (a cached verdict or replayed
/// lemma changed a result, which the session design promises never
/// happens).
pub fn warm_outcomes_match(cold: &BatchReport, warm: &BatchReport) -> Result<(), String> {
    if cold.outcomes.len() != warm.outcomes.len() {
        return Err(format!(
            "goal count changed: {} cold vs {} warm",
            cold.outcomes.len(),
            warm.outcomes.len()
        ));
    }
    for (c, w) in cold.outcomes.iter().zip(&warm.outcomes) {
        let label = synquid_lang::runner::goal_label(&c.result.name, &c.source);
        if c.result.name != w.result.name || c.source != w.source {
            return Err(format!(
                "goal order changed at {label}: warm has {}",
                synquid_lang::runner::goal_label(&w.result.name, &w.source)
            ));
        }
        if c.result.solved != w.result.solved {
            return Err(format!(
                "{label}: solved flipped {} -> {} under a warm session",
                c.result.solved, w.result.solved
            ));
        }
        if c.result.program != w.result.program {
            return Err(format!(
                "{label}: synthesized program changed under a warm session"
            ));
        }
    }
    Ok(())
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders a [`BatchReport`] as the machine-readable `BENCH_pr10.json`
/// artifact: per-goal timings, budget-ledger accounting (rungs run /
/// cancelled / skipped / out of budget, budget consumed), the
/// enumeration counters (terms enumerated, pruned early, memo hits),
/// the incremental-solver counters (conflicts learned / replayed,
/// assumptions dropped, warm tableau starts, bounds propagated, shared
/// MUS encodings, pivots saved), plus the shared validity-cache
/// counters. (Hand-rolled JSON: the workspace resolves offline, so no
/// serde.)
pub fn batch_report_json(report: &BatchReport, timeout: Duration) -> String {
    batch_report_json_runs(std::slice::from_ref(report), timeout)
}

/// [`batch_report_json`] over a cold run plus its warm replays (as
/// produced by [`run_corpus_warm`]; `runs[0]` is the cold run and
/// supplies the per-goal body). Schema v3 adds the `resident` block:
/// one entry per run with that run's session-layer counters (validity /
/// enumeration / lemma traffic, namespaces), cold-vs-warm wall times,
/// and whether every warm replay reproduced the cold outcomes.
pub fn batch_report_json_runs(runs: &[BatchReport], timeout: Duration) -> String {
    let report = &runs[0];
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"report\": \"BENCH_pr10\",\n");
    out.push_str(&format!("  \"schema_version\": {BENCH_SCHEMA_VERSION},\n"));
    out.push_str(&format!("  \"jobs\": {},\n", report.jobs));
    out.push_str(&format!("  \"timeout_secs\": {},\n", timeout.as_secs()));
    out.push_str(&format!("  \"wall_secs\": {:.3},\n", report.wall_secs));
    let c = &report.session.validity;
    out.push_str(&format!(
        "  \"validity_cache\": {{\"hits\": {}, \"misses\": {}, \"negative_hits\": {}, \"entries\": {}, \"interned_nodes\": {}, \"hit_rate\": {:.4}}},\n",
        c.hits, c.misses, c.negative_hits, c.entries, c.interned_nodes, c.hit_rate()
    ));
    out.push_str("  \"resident\": {\n");
    out.push_str(&format!("    \"warm_runs\": {},\n", runs.len() - 1));
    let outcomes_match = runs[1..]
        .iter()
        .all(|warm| warm_outcomes_match(report, warm).is_ok());
    out.push_str(&format!("    \"outcomes_match\": {outcomes_match},\n"));
    out.push_str(&format!(
        "    \"cold_wall_secs\": {:.3},\n",
        report.wall_secs
    ));
    let warm_min = runs[1..]
        .iter()
        .map(|r| r.wall_secs)
        .fold(f64::INFINITY, f64::min);
    out.push_str(&format!(
        "    \"warm_min_wall_secs\": {},\n",
        if runs.len() > 1 {
            format!("{warm_min:.3}")
        } else {
            "null".to_string()
        }
    ));
    out.push_str("    \"runs\": [\n");
    for (i, run) in runs.iter().enumerate() {
        let s = &run.session;
        let solved = run.outcomes.iter().filter(|o| o.result.solved).count();
        out.push_str(&format!(
            "      {{\"warm\": {}, \"wall_secs\": {:.3}, \"solved\": {solved}, \"validity_hits\": {}, \"validity_misses\": {}, \"validity_hit_rate\": {:.4}, \"validity_entries\": {}, \"validity_evicted\": {}, \"terms_interned\": {}, \"terms_evicted\": {}, \"enum_hits\": {}, \"enum_misses\": {}, \"enum_hit_rate\": {:.4}, \"enum_evicted\": {}, \"lemmas_absorbed\": {}, \"lemmas_resident\": {}, \"namespaces\": {}}}{}\n",
            i > 0,
            run.wall_secs,
            s.validity.hits,
            s.validity.misses,
            s.validity.hit_rate(),
            s.validity.entries,
            s.validity.entries_evicted,
            s.validity.terms_interned,
            s.validity.terms_evicted,
            s.enumeration.hits,
            s.enumeration.misses,
            s.enumeration.hit_rate(),
            s.enumeration.evicted,
            s.lemmas.absorbed,
            s.lemmas.resident,
            s.namespaces,
            if i + 1 == runs.len() { "" } else { "," },
        ));
    }
    out.push_str("    ]\n");
    out.push_str("  },\n");
    out.push_str("  \"goals\": [\n");
    for (i, o) in report.outcomes.iter().enumerate() {
        let r = &o.result;
        let rung = match o.winning_rung {
            Some((a, m)) => format!("[{a}, {m}]"),
            None => "null".to_string(),
        };
        let code_size = r
            .code_size
            .map(|s| s.to_string())
            .unwrap_or_else(|| "null".to_string());
        let stat = |f: fn(&synquid_lang::SynthesisStats) -> usize| match &r.stats {
            Some(s) => f(s).to_string(),
            None => "null".to_string(),
        };
        // `phases` stays last on the line so the flat field extractors
        // above it never cut inside the nested object; an empty profile
        // is omitted entirely (the schema makes absence mean "no phase
        // data", matching v1 artifacts).
        let phases = match &r.stats {
            Some(s) if !s.phases.is_empty() => {
                format!(", \"phases\": {}", s.phases.to_json())
            }
            _ => String::new(),
        };
        out.push_str(&format!(
            "    {{\"file\": \"{}\", \"name\": \"{}\", \"solved\": {}, \"timed_out\": {}, \"time_secs\": {:.3}, \"consumed_secs\": {:.3}, \"code_size\": {}, \"winning_rung\": {}, \"rungs_run\": {}, \"rungs_cancelled\": {}, \"rungs_skipped\": {}, \"rungs_out_of_budget\": {}, \"terms_enumerated\": {}, \"eterms_checked\": {}, \"pruned_early\": {}, \"memo_hits\": {}, \"memo_misses\": {}, \"smt_conflicts_learned\": {}, \"smt_conflicts_reused\": {}, \"assumptions_dropped\": {}, \"tableau_warm_starts\": {}, \"bounds_propagated\": {}, \"mus_shared_encodings\": {}, \"lia_pivots_saved\": {}{phases}}}{}\n",
            json_escape(&o.source),
            json_escape(&r.name),
            r.solved,
            r.timed_out,
            r.time_secs,
            o.consumed_secs,
            code_size,
            rung,
            o.rungs_run,
            o.rungs_cancelled,
            o.rungs_skipped,
            o.rungs_out_of_budget,
            stat(|s| s.terms_enumerated),
            stat(|s| s.eterms_checked),
            stat(|s| s.pruned_early),
            stat(|s| s.memo_hits),
            stat(|s| s.memo_misses),
            stat(|s| s.smt_conflicts_learned),
            stat(|s| s.smt_conflicts_reused),
            stat(|s| s.assumptions_dropped),
            stat(|s| s.tableau_warm_starts),
            stat(|s| s.bounds_propagated),
            stat(|s| s.mus_shared_encodings),
            stat(|s| s.lia_pivots_saved),
            if i + 1 == report.outcomes.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
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

fn json_str_field(line: &str, key: &str) -> Option<String> {
    let tag = format!("\"{key}\": \"");
    let start = line.find(&tag)? + tag.len();
    let rest = &line[start..];
    let end = rest.find('"')?;
    Some(rest[..end].to_string())
}

fn json_raw_field(line: &str, key: &str) -> Option<String> {
    let tag = format!("\"{key}\": ");
    let start = line.find(&tag)? + tag.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim().to_string())
}

/// Extracts a brace-balanced `"key": {…}` object from a line (the flat
/// extractor above would cut at the first `,` inside the object).
fn json_object_field(line: &str, key: &str) -> Option<String> {
    let tag = format!("\"{key}\": {{");
    let start = line.find(&tag)? + tag.len() - 1;
    let rest = &line[start..];
    let mut depth = 0usize;
    for (i, c) in rest.char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(rest[..=i].to_string());
                }
            }
            _ => {}
        }
    }
    None
}

/// Reads the `schema_version` stamp of a batch artifact. Artifacts from
/// before the stamp existed (PR 2–5) report version 1.
pub fn batch_schema_version(text: &str) -> u64 {
    text.lines()
        .find_map(|line| json_raw_field(line, "schema_version"))
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

/// Parses the per-goal entries back out of a `BENCH_pr2.json` /
/// `BENCH_pr3.json` artifact. The reports are emitted one goal per line
/// by [`batch_report_json`], so a line-oriented scan is exact for our own
/// artifacts (no general JSON parser needed — the workspace is
/// dependency-free by design).
pub fn parse_batch_json(text: &str) -> Vec<ParsedGoal> {
    text.lines()
        .filter_map(|line| {
            let file = json_str_field(line, "file")?;
            let name = json_str_field(line, "name")?;
            let solved = json_raw_field(line, "solved")? == "true";
            let time_secs = json_raw_field(line, "time_secs")?.parse().ok()?;
            let phases =
                json_object_field(line, "phases").and_then(|obj| PhaseProfile::parse_json(&obj));
            Some(ParsedGoal {
                file,
                name,
                solved,
                time_secs,
                phases,
            })
        })
        .collect()
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
/// per-goal line.
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

/// Parses a `synquid fuzz --out` artifact. Like [`parse_batch_json`],
/// this is a line-oriented scan over our own one-goal-per-line emitter,
/// not a general JSON parser.
pub fn parse_fuzz_json(text: &str) -> FuzzSummary {
    let header = |key: &str| {
        text.lines()
            .find_map(|line| json_raw_field(line, key))
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    };
    let count = |line: &str, key: &str| {
        json_raw_field(line, key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    };
    let goals = text
        .lines()
        .filter_map(|line| {
            let goal = json_str_field(line, "goal")?;
            let source = json_str_field(line, "source")?;
            Some(ParsedFuzzGoal {
                goal,
                source,
                skipped: json_str_field(line, "skipped"),
                pass: count(line, "pass"),
                violation: count(line, "violation"),
                crash: count(line, "crash"),
                gave_up: count(line, "gave_up"),
                undecidable: count(line, "undecidable"),
                rejected: count(line, "rejected"),
            })
        })
        .collect();
    FuzzSummary {
        seed: header("seed"),
        cases: header("cases"),
        total_violations: header("total_violations"),
        total_divergences: header("total_divergences"),
        goals,
    }
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
        let session = SynthesisSession::new();
        let report = run_corpus_batch(2, timeout, &session).expect("the specs/ corpus loads");
        assert!(
            report.outcomes.len() >= 16,
            "expected at least 16 corpus goals, got {}",
            report.outcomes.len()
        );
        let json = batch_report_json(&report, timeout);
        assert!(json.contains("\"report\": \"BENCH_pr10\""));
        assert!(json.contains("\"resident\": {"));
        assert!(json.contains("\"warm_runs\": 0"));
        assert!(json.contains("\"warm_min_wall_secs\": null"));
        assert!(json.contains("\"namespaces\""));
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
        for goal in parse_batch_json(&json) {
            assert!(!goal.solved, "nothing solves in 1 ms: {goal:?}");
        }
        assert_eq!(
            json.matches("\"file\":").count(),
            report.outcomes.len(),
            "one goals[] entry per outcome"
        );
        // The artifact round-trips through the comparison parser.
        let parsed = parse_batch_json(&json);
        assert_eq!(parsed.len(), report.outcomes.len());
        assert!(parsed.iter().any(|g| g.name == "replicate"));
        let table = corpus_markdown_table(&report, timeout);
        assert!(table.contains("| Goal | Status |"));
        assert!(table.contains("replicate @ "));
        let deltas = compare_batch(&parsed, &report);
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
        warm_outcomes_match(&runs[0], &runs[1]).expect("1 ms runs agree");
        let json = batch_report_json_runs(&runs, timeout);
        assert!(json.contains("\"warm_runs\": 1"));
        assert!(json.contains("\"warm\": false"));
        assert!(json.contains("\"warm\": true"));
        assert!(json.contains("\"outcomes_match\": true"));
        assert!(!json.contains("\"warm_min_wall_secs\": null"));
        // The per-goal body is the cold run's; the parser still sees
        // exactly one entry per goal.
        assert_eq!(parse_batch_json(&json).len(), runs[0].outcomes.len());
    }

    #[test]
    fn phases_survive_the_goal_line_round_trip() {
        // A goal line as batch_report_json emits it (phases last, so the
        // flat field extractors never cut inside the nested object).
        let profile = PhaseProfile::parse_json(
            "{\"sat\": {\"secs\": 1.25, \"count\": 46, \"max_secs\": 0.5}, \
             \"lia\": {\"secs\": 0.75, \"count\": 43, \"max_secs\": 0.25}}",
        )
        .expect("hand-written phases JSON parses");
        let line = format!(
            "    {{\"file\": \"specs/take.sq\", \"name\": \"take\", \"solved\": true, \
             \"time_secs\": 2.5, \"phases\": {}}},",
            profile.to_json()
        );
        let goals = parse_batch_json(&line);
        assert_eq!(goals.len(), 1);
        let back = goals[0].phases.as_ref().expect("phases round-trip");
        assert_eq!(back.counts(), profile.counts());
        assert!((goals[0].time_secs - 2.5).abs() < 1e-9, "flat field intact");
        // v1 artifacts (no stamp, no phases) parse with phases absent.
        let v1 = "{\"file\": \"a.sq\", \"name\": \"g\", \"solved\": false, \"time_secs\": 0.0}";
        assert_eq!(batch_schema_version(v1), 1);
        assert!(parse_batch_json(v1)[0].phases.is_none());
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
    fn fuzz_summary_round_trips_through_the_line_scanner() {
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
        let summary = parse_fuzz_json(artifact);
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
    }

    #[test]
    fn json_escaping_handles_quotes_and_newlines() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
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
