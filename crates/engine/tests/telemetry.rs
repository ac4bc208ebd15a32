//! Telemetry the engine emits: span-profile counts that do not depend
//! on the worker count, and ledger events that add up to the budget the
//! ledger charged.
//!
//! # Span counts across worker counts
//!
//! Wall times legitimately vary between runs and worker counts, but the
//! number of times each phase runs is a property of the search, not of
//! the scheduler — provided the goals cannot influence each other
//! through the shared validity cache. The test constructs goals whose
//! refinements use pairwise-distinct constants, so no two goals ever
//! pose the same normalized query and cross-goal cache hits are
//! impossible; a single-rung ladder with a generous budget rules out
//! slice truncation and re-queued attempts. Under those conditions the
//! per-goal phase counts must be bit-identical at `--jobs 1` and
//! `--jobs 8`.
//!
//! The ledger test installs the in-memory trace sink for the whole
//! process. Emitting events opens no spans, so the span test may run
//! beside it.

use std::time::Duration;
use synquid_core::Goal;
use synquid_engine::{BatchReport, Engine, EngineConfig, GoalJob};
use synquid_lang::spec::goal_from_corpus;
use synquid_logic::{Qualifier, Sort, Term};
use synquid_telemetry::events::{init_trace_buffer, take_trace_buffer};
use synquid_telemetry::json::{self, Json};
use synquid_types::{BaseType, Environment, RType, Schema};

/// `\n . ???? :: {Int | ν == n + k}` with no components: unsolvable, so
/// the search runs to exhaustion — the same exhaustion at any worker
/// count. Distinct `k` per goal keeps every SMT query distinct: the goal
/// refinement carries `k`, and so does every abduction candidate,
/// because the qualifier set is `k`-shifted (`? ≤ ? + k`, `? ≠ ? + k`)
/// rather than the standard one. Cache normalization canonicalizes
/// variable names but never constants, so no query of goal `k` can ever
/// be answered by a cache entry another goal created.
fn offset_goal(k: i64) -> Goal {
    let mut env = Environment::new();
    let hole = |i: usize| Qualifier::hole(i, Sort::Int);
    env.add_qualifiers(vec![
        Qualifier::new(hole(0).le(hole(1).plus(Term::int(k)))),
        Qualifier::new(hole(0).neq(hole(1).plus(Term::int(k)))),
    ]);
    // The argument is refined with a k-dependent bound too: the
    // termination checks for recursive-call candidates are posed against
    // the argument type, so an unrefined `n: Int` would make those
    // queries (`ν == n ⊢ 0 ≤ ν < n`) identical across goals.
    Goal::new(
        format!("offset{k}"),
        env,
        Schema::monotype(RType::fun(
            "n",
            RType::refined(BaseType::Int, Term::int(-k).le(Term::value_var(Sort::Int))),
            RType::refined(
                BaseType::Int,
                Term::value_var(Sort::Int).eq(Term::var("n", Sort::Int).plus(Term::int(k))),
            ),
        )),
    )
}

fn run_with_jobs(jobs: usize) -> BatchReport {
    let batch: Vec<GoalJob> = (1..=4)
        .map(|k| GoalJob::new(format!("job{k}"), offset_goal(k)))
        .collect();
    let engine = Engine::new(EngineConfig {
        jobs,
        timeout: Duration::from_secs(120),
        rungs: vec![(1, 0)],
        ..EngineConfig::default()
    });
    engine.run(batch)
}

#[test]
fn span_counts_are_identical_across_worker_counts() {
    synquid_telemetry::set_profiling(true);
    let sequential = run_with_jobs(1);
    let parallel = run_with_jobs(8);
    assert_eq!(sequential.outcomes.len(), parallel.outcomes.len());
    for (s, p) in sequential.outcomes.iter().zip(&parallel.outcomes) {
        assert_eq!(s.result.solved, p.result.solved);
        let s_phases = &s.result.stats.as_ref().expect("stats present").phases;
        let p_phases = &p.result.stats.as_ref().expect("stats present").phases;
        assert!(
            !s_phases.is_empty(),
            "profiling was on, so {} must have recorded spans",
            s.result.name
        );
        assert_eq!(
            s_phases.counts(),
            p_phases.counts(),
            "phase counts for {} must not depend on the worker count",
            s.result.name
        );
    }
}

/// A string field of a trace event.
fn text<'a>(event: &'a Json, field: &str) -> Option<&'a str> {
    event.get(field).and_then(Json::as_str)
}

#[test]
fn settle_events_charge_what_the_ledger_consumed() {
    // A holdout on a half-second budget: its rungs are cut at their
    // slices, and a cut attempt overshoots its slice by the SMT step
    // it was in. The ledger charges the overshoot too, and so must the
    // `ledger_settle` events.
    init_trace_buffer();
    let name = "tree_member";
    let goal = goal_from_corpus(name).expect("tree_member in the corpus");
    let engine = Engine::new(EngineConfig {
        jobs: 1,
        timeout: Duration::from_millis(500),
        ..EngineConfig::default()
    });
    let report = engine.run(vec![GoalJob::new(name, goal)]);
    let consumed = report.outcomes[0].consumed_secs;
    let trace = take_trace_buffer().expect("the buffer sink is installed");
    let events: Vec<Json> = trace
        .lines()
        .map(|line| json::parse(line).expect("event lines are strict JSON"))
        .filter(|event| text(event, "goal") == Some(name))
        .collect();
    assert!(
        events
            .iter()
            .any(|event| text(event, "ev") == Some("rung_finish")
                && text(event, "status") == Some("truncated")),
        "no rung of {name} was cut at its slice"
    );
    let charges: Vec<f64> = events
        .iter()
        .filter(|event| text(event, "ev") == Some("ledger_settle"))
        .map(|event| {
            event
                .get("charged_secs")
                .and_then(Json::as_f64)
                .expect("ledger_settle carries charged_secs")
        })
        .collect();
    // Each event prints its charge with 3 decimals.
    let tolerance = 0.0005 * charges.len() as f64;
    let charged: f64 = charges.iter().sum();
    assert!(
        (charged - consumed).abs() <= tolerance,
        "ledger_settle events charge {charged:.4}s over {} attempts, the ledger consumed {consumed:.4}s",
        charges.len()
    );
}
