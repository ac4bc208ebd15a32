//! Per-layer metrics of a traced run: engine ledger and session counters
//! of the traced pass, phase self times summed over every rung attempt of
//! the event stream, and untimed probes of the oracle, snapshot and solver
//! layers.

use synquid_bench::{fixtures, solver_bench};
use synquid_telemetry::{Phase, PhaseProfile};

use crate::gate::GateReport;
use crate::workload::{Pass, SnapshotProbe};
use crate::{metric, Metric};

/// Solver fixture iterations; each row reports the fastest.
const FIXTURE_ITERATIONS: usize = 5;

/// Measurements taken outside the traced pass.
pub struct Probes {
    /// Median spec-load time of the set-ups.
    pub load_s: f64,
    /// Median wall time of the untraced passes.
    pub untraced_wall: f64,
    /// Time the oracle took over every distinct program.
    pub oracle_secs: f64,
    /// The oracle's reports.
    pub gates: Vec<GateReport>,
    /// Goals whose counters drifted between passes.
    pub drifted: usize,
    /// Session snapshot probe of the untraced pass.
    pub snapshot: SnapshotProbe,
    /// Solver fixture rows.
    pub fixtures: Vec<Metric>,
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Phase self times summed over every rung attempt in the event stream
/// (the root search node of each attempt carries its phase split).
fn phase_totals(events: &str) -> Result<PhaseProfile, String> {
    let trace = synquid_trace::parse_trace(events).map_err(|e| format!("trace: {e}"))?;
    let report = synquid_trace::analyze(&trace);
    let mut total = PhaseProfile::default();
    for rung in report.goals.values().flat_map(|goal| goal.rungs.values()) {
        total.merge(&rung.phases);
    }
    Ok(total)
}

/// Times each solver fixture, asserting its captured verdict.
pub fn fixture_rows() -> Result<Vec<Metric>, String> {
    let mut rows = Vec::new();
    for fixture in fixtures::all() {
        let result = solver_bench::run_fixture(&fixture, FIXTURE_ITERATIONS);
        if !result.verdicts_ok {
            return Err(format!("solver fixture {} changed verdict", fixture.name));
        }
        rows.push(metric(
            format!("solver.fixture.{}_s", fixture.name),
            result.min_secs,
            "s",
        ));
    }
    Ok(rows)
}

/// Every per-layer metric of a traced run.
pub fn metrics(pass: &Pass, probes: Probes) -> Result<Vec<Metric>, String> {
    let phases = phase_totals(&pass.events)?;
    let secs = |phase: Phase| phases.get(phase).total_secs();

    let run_s: f64 = pass.runs.iter().map(|r| r.secs).sum();
    let outcomes = || pass.runs.iter().map(|r| &r.outcome);
    let consumed_s: f64 = outcomes().map(|o| o.consumed_secs).sum();
    let winning_s: f64 = outcomes()
        .filter(|o| o.result.solved)
        .map(|o| o.result.time_secs)
        .sum();
    let sum = |field: fn(&synquid_engine::GoalOutcome) -> usize| -> f64 {
        outcomes().map(field).sum::<usize>() as f64
    };
    let stat = |field: fn(&synquid_core::SynthesisStats) -> usize| -> f64 {
        outcomes()
            .filter_map(|o| o.result.stats.as_ref())
            .map(field)
            .sum::<usize>() as f64
    };
    let pruned = stat(|s| s.pruned_early);
    let eterms = stat(|s| s.eterms_checked);
    let t = &pass.traffic;

    let passed: usize = probes.gates.iter().map(|g| g.passed).sum();
    let violations: usize = probes.gates.iter().map(|g| g.violations + g.crashes).sum();
    let accepted: u64 = probes.gates.iter().map(|g| g.accepted_draws).sum();
    let rejected: u64 = probes.gates.iter().map(|g| g.rejected_draws).sum();

    let mut rows = vec![
        metric("parser.load_s", probes.load_s, "s"),
        metric("engine.run_s", run_s, "s"),
        metric("engine.consumed_s", consumed_s, "s"),
        metric("engine.overhead_s", run_s - consumed_s, "s"),
        metric("engine.rungs_run", sum(|o| o.rungs_run), "count"),
        metric(
            "engine.rungs_cancelled",
            sum(|o| o.rungs_cancelled),
            "count",
        ),
        metric("engine.rungs_skipped", sum(|o| o.rungs_skipped), "count"),
        metric(
            "engine.winning_share",
            ratio(winning_s, consumed_s),
            "ratio",
        ),
        metric("session.validity_hits", t.validity_hits as f64, "count"),
        metric("session.validity_misses", t.validity_misses as f64, "count"),
        metric(
            "session.validity_hit_rate",
            ratio(
                t.validity_hits as f64,
                (t.validity_hits + t.validity_misses) as f64,
            ),
            "ratio",
        ),
        metric("session.enum_hits", t.enum_hits as f64, "count"),
        metric("session.enum_misses", t.enum_misses as f64, "count"),
        metric(
            "session.enum_hit_rate",
            ratio(t.enum_hits as f64, (t.enum_hits + t.enum_misses) as f64),
            "ratio",
        ),
        metric("session.lemmas_absorbed", t.lemmas_absorbed as f64, "count"),
        metric("session.terms_interned", t.terms_interned as f64, "count"),
        metric("session.evicted", t.evicted as f64, "count"),
        metric("session.serialize_s", probes.snapshot.serialize_s, "s"),
        metric("session.warm_start_s", probes.snapshot.warm_start_s, "s"),
        metric(
            "session.snapshot_bytes",
            probes.snapshot.bytes as f64,
            "bytes",
        ),
        metric(
            "core.terms_enumerated",
            stat(|s| s.terms_enumerated),
            "count",
        ),
        metric("core.eterms_checked", eterms, "count"),
        metric("core.pruned_early", pruned, "count"),
        metric("core.prune_ratio", ratio(pruned, pruned + eterms), "ratio"),
        metric("core.memo_hits", stat(|s| s.memo_hits), "count"),
        metric("core.memo_misses", stat(|s| s.memo_misses), "count"),
        metric("core.generation_s", secs(Phase::Generation), "s"),
        metric("core.memo_lookup_s", secs(Phase::MemoLookup), "s"),
        metric("core.consistency_s", secs(Phase::Consistency), "s"),
        metric("core.subtyping_s", secs(Phase::Subtyping), "s"),
        metric("horn.abduction_s", secs(Phase::Abduction), "s"),
        metric("solver.encode_s", secs(Phase::Encode), "s"),
        metric("solver.sat_s", secs(Phase::Sat), "s"),
        metric("solver.lia_s", secs(Phase::Lia), "s"),
        metric("solver.core_shrink_s", secs(Phase::CoreShrink), "s"),
        metric("solver.cache_lookup_s", secs(Phase::CacheLookup), "s"),
        metric(
            "solver.conflicts_learned",
            stat(|s| s.smt_conflicts_learned),
            "count",
        ),
        metric(
            "solver.conflicts_reused",
            stat(|s| s.smt_conflicts_reused),
            "count",
        ),
        metric(
            "solver.tableau_warm_starts",
            stat(|s| s.tableau_warm_starts),
            "count",
        ),
        metric("solver.pivots_saved", stat(|s| s.lia_pivots_saved), "count"),
    ];
    rows.extend(probes.fixtures);
    rows.extend([
        metric("oracle.check_s", probes.oracle_secs, "s"),
        metric("oracle.cases_passed", passed as f64, "count"),
        metric(
            "oracle.accept_ratio",
            ratio(accepted as f64, (accepted + rejected) as f64),
            "ratio",
        ),
        metric("oracle.violations", violations as f64, "count"),
        metric("counters.drifted", probes.drifted as f64, "count"),
        metric("unattributed_s", run_s - phases.total_secs(), "s"),
        metric(
            "trace_overhead",
            ratio(pass.wall(), probes.untraced_wall),
            "ratio",
        ),
    ]);
    Ok(rows)
}
