//! Golden trace-schema conformance: runs a fast corpus subset with the
//! in-memory trace sink and pushes every emitted line through the
//! offline parser. This is the contract test between producers
//! (`crates/core`, `crates/engine`, `crates/solver`) and consumers
//! (`crates/trace`): if a producer starts emitting an event kind the
//! parser does not know, or drops an envelope field, this fails before
//! any forensics tooling silently ignores the stream.
//!
//! Kept in its own test binary: the trace sink is process-global, so a
//! test that installs the buffer sink cannot share a process with one
//! that asserts on a different sink configuration.

use std::time::Duration;
use synquid_core::{SynthesisConfig, Synthesizer, TypeChecker};
use synquid_engine::{Engine, EngineConfig, GoalJob};
use synquid_lang::spec::goal_from_corpus;
use synquid_telemetry::events::{init_trace_buffer, take_trace_buffer, EVENT_SCHEMA_VERSION};
use synquid_trace::{parse_event, parse_trace, TraceError, KNOWN_EVENT_KINDS};

/// Fast corpus goals (each well under a second) covering the match,
/// conditional, and recursive-call event shapes.
const FAST_GOALS: &[&str] = &["is_empty", "length", "reverse"];

#[test]
fn fast_corpus_trace_conforms_to_schema() {
    synquid_telemetry::set_profiling(true);
    init_trace_buffer();

    let jobs: Vec<GoalJob> = FAST_GOALS
        .iter()
        .map(|name| {
            let goal = goal_from_corpus(name)
                .unwrap_or_else(|| panic!("corpus goal {name} not found (specs/ missing?)"));
            GoalJob::new(format!("corpus:{name}"), goal)
        })
        .collect();
    // Two workers so the stream interleaves tids: consumers must scope
    // goal windows per thread, and this test must keep them honest.
    let engine = Engine::new(EngineConfig {
        jobs: 2,
        timeout: Duration::from_secs(20),
        ..EngineConfig::default()
    });
    let report = engine.run(jobs);
    for outcome in &report.outcomes {
        assert!(
            outcome.result.solved,
            "fast goal {} did not solve; conformance needs a full event stream",
            outcome.result.name
        );
    }

    // The engine path never drives the bidirectional `TypeChecker` (it
    // is the standalone re-checking facility), so replay one winner
    // through it to put the `check_step` kinds on the stream as well.
    let goal = goal_from_corpus("is_empty").expect("is_empty in corpus");
    let shallow = SynthesisConfig {
        max_app_depth: 1,
        ..SynthesisConfig::default()
    };
    let mut synthesizer = Synthesizer::new(shallow);
    let winner = synthesizer.synthesize(&goal).expect("is_empty solves");
    TypeChecker::new()
        .check_goal(&goal, &winner.program)
        .expect("synthesized program re-checks");

    let text = take_trace_buffer().expect("buffer sink was installed");
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    assert!(
        lines.len() > 50,
        "suspiciously short trace ({} lines); did producers stop emitting?",
        lines.len()
    );

    // Every line must parse individually: envelope present, kind known.
    for (idx, line) in lines.iter().enumerate() {
        let ev = parse_event(line, idx + 1)
            .unwrap_or_else(|e| panic!("line {}: {e}\n  {line}", idx + 1));
        assert!(
            KNOWN_EVENT_KINDS.contains(&ev.kind.as_str()),
            "parse_event accepted unknown kind {:?}",
            ev.kind
        );
    }

    // The stream opens with a versioned header and the whole-trace
    // parser agrees on the version.
    let trace = parse_trace(&text).expect("whole trace parses");
    assert_eq!(trace.schema_version, EVENT_SCHEMA_VERSION);
    assert_eq!(
        trace.events.first().map(|e| e.kind.as_str()),
        Some("trace_meta")
    );

    // The subset must exercise the kinds the forensics layer is built
    // on; a producer regression that silently stops emitting one of
    // these would otherwise only show up as empty reports.
    for required in [
        "goal_start",
        "goal_finish",
        "rung_start",
        "rung_finish",
        "search",
        "node_finish",
        "check_step",
        "check_step_finish",
    ] {
        assert!(
            trace.events.iter().any(|e| e.kind == required),
            "fast corpus run emitted no {required} event"
        );
    }
    // The batch closes one GC epoch, and its event reports every
    // session layer.
    let epoch = trace
        .events
        .iter()
        .find(|e| e.kind == "session_epoch")
        .expect("the batch closed a session epoch");
    for field in [
        "validity_entries",
        "enum_entries",
        "lemmas_resident",
        "mus_entries",
        "mus_evicted",
    ] {
        assert!(
            epoch.get_u64(field).is_some(),
            "session_epoch lacks {field}: {:?}",
            epoch.fields
        );
    }
    // Every goal window that opened also closed (per tid, goal windows
    // are balanced in a run that did not crash).
    let starts = trace
        .events
        .iter()
        .filter(|e| e.kind == "goal_start")
        .count();
    let finishes = trace
        .events
        .iter()
        .filter(|e| e.kind == "goal_finish")
        .count();
    assert_eq!(starts, finishes, "unbalanced goal windows");
}

#[test]
fn forward_compat_rules() {
    // Unknown *fields* are tolerated (a newer producer may add them)…
    let ev = parse_event(
        r#"{"ev":"search","seq":1,"t_ms":0.5,"tid":0,"node":1,"new_field_from_v9":"x"}"#,
        1,
    )
    .expect("unknown field must be tolerated");
    assert_eq!(ev.get("new_field_from_v9"), Some("x"));

    // …unknown *kinds* are not (the consumer would misattribute time)…
    let err = parse_event(r#"{"ev":"warp_drive","seq":2,"t_ms":1.0,"tid":0}"#, 2);
    assert!(matches!(err, Err(TraceError::UnknownKind { .. })));

    // …and a missing envelope field is a malformed stream, not a warning.
    for broken in [
        r#"{"seq":3,"t_ms":1.0,"tid":0}"#,
        r#"{"ev":"search","t_ms":1.0,"tid":0}"#,
        r#"{"ev":"search","seq":3,"tid":0}"#,
        r#"{"ev":"search","seq":3,"t_ms":1.0}"#,
    ] {
        let err = parse_event(broken, 3);
        assert!(
            matches!(err, Err(TraceError::MissingEnvelope { .. })),
            "accepted envelope-less line {broken}"
        );
    }
}
