//! Parsing JSONL trace streams back into typed events.
//!
//! The producer side lives in `synquid_telemetry::events`; this module is
//! the consumer: it parses each line with the strict codec of
//! `synquid_telemetry::json`, validates the envelope
//! (`ev`/`seq`/`t_ms`/`tid`), checks the event kind against
//! [`KNOWN_EVENT_KINDS`], and keeps the payload fields as text for the
//! tree builder and aggregators.
//!
//! Forward compatibility follows the schema rules in
//! `docs/ARCHITECTURE.md`: unknown *fields* on a known kind are carried
//! along untouched (a newer producer may have added them), but an unknown
//! *kind* is an error — a consumer that silently dropped kinds would
//! report wrong aggregates instead of failing loudly.

use synquid_telemetry::json::{self, Json};

/// Every event kind the pipeline emits, schema version
/// [`synquid_telemetry::events::EVENT_SCHEMA_VERSION`]. Adding a kind
/// here must go together with a version bump on the producer side.
pub const KNOWN_EVENT_KINDS: &[&str] = &[
    "trace_meta",
    // Free-form text; no longer emitted, kept so older streams parse.
    "message",
    // Engine scheduler: portfolio rungs and the budget ledger.
    "rung_start",
    "rung_finish",
    "rung_skip",
    "rung_out_of_budget",
    "ledger_reserve",
    "ledger_settle",
    // Per-rung goal attempts (one synthesizer run each).
    "goal_start",
    "goal_finish",
    // Derivation nodes and their in-frame happenings.
    "search",
    "node_finish",
    "abduction_candidates",
    "candidate_accept",
    "candidate_reject",
    "guard_found",
    "guard_missing",
    "match_case",
    "match_case_failed",
    // Round-trip checking of complete programs.
    "check_step",
    "check_step_finish",
    // Solver-side: SMT queries, caches, conflict lemmas.
    "smt_query",
    "cache_hit",
    "cache_miss",
    "lemma_learn",
    "lemma_replay",
    // Resident sessions: one event per GC epoch boundary.
    "session_epoch",
];

/// One parsed trace event: the envelope plus the payload fields in
/// emission order (envelope keys stripped).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// The event kind (`ev`).
    pub kind: String,
    /// Process-wide sequence number.
    pub seq: u64,
    /// Milliseconds since the sink was opened.
    pub t_ms: f64,
    /// Small per-thread id.
    pub tid: u64,
    /// Payload fields, in emission order. String values are unescaped;
    /// any other value is its compact JSON text (numbers keep their
    /// token text, a nested object is one field).
    pub fields: Vec<(String, String)>,
}

impl TraceEvent {
    /// The raw text of a payload field.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// A payload field parsed as an unsigned integer.
    pub fn get_u64(&self, key: &str) -> Option<u64> {
        self.get(key)?.parse().ok()
    }

    /// A payload field parsed as a float.
    pub fn get_f64(&self, key: &str) -> Option<f64> {
        self.get(key)?.parse().ok()
    }
}

/// Why a trace stream failed to parse. Line numbers are 1-based.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The line is not one JSON object.
    Malformed { line: usize },
    /// A known-shape line is missing one of the envelope fields.
    MissingEnvelope { line: usize, field: &'static str },
    /// The event kind is not in [`KNOWN_EVENT_KINDS`].
    UnknownKind { line: usize, kind: String },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Malformed { line } => write!(f, "line {line}: malformed event"),
            TraceError::MissingEnvelope { line, field } => {
                write!(f, "line {line}: missing envelope field {field}")
            }
            TraceError::UnknownKind { line, kind } => {
                write!(f, "line {line}: unknown event kind {kind:?}")
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// A parsed trace stream.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Schema version from the `trace_meta` header; a stream without a
    /// header is version 1 (emitted before the header existed).
    pub schema_version: u64,
    /// All events, in file order (which is emission order: the sink
    /// serializes writes).
    pub events: Vec<TraceEvent>,
}

/// Parses one JSONL event line. `line_no` is used for error reporting
/// only.
pub fn parse_event(text: &str, line_no: usize) -> Result<TraceEvent, TraceError> {
    let Ok(Json::Obj(members)) = json::parse(text) else {
        return Err(TraceError::Malformed { line: line_no });
    };
    let (mut kind, mut seq, mut t_ms, mut tid) = (None, None, None, None);
    let mut fields = Vec::new();
    for (key, value) in members {
        match key.as_str() {
            "ev" => kind = value.as_str().map(str::to_string),
            "seq" => seq = value.as_u64(),
            "t_ms" => t_ms = value.as_f64(),
            "tid" => tid = value.as_u64(),
            _ => {
                let text = match value {
                    Json::Str(s) => s,
                    other => other.to_compact(),
                };
                fields.push((key, text));
            }
        }
    }
    let missing = |field| TraceError::MissingEnvelope {
        line: line_no,
        field,
    };
    let kind = kind.ok_or(missing("ev"))?;
    let seq = seq.ok_or(missing("seq"))?;
    let t_ms = t_ms.ok_or(missing("t_ms"))?;
    let tid = tid.ok_or(missing("tid"))?;
    if !KNOWN_EVENT_KINDS.contains(&kind.as_str()) {
        return Err(TraceError::UnknownKind {
            line: line_no,
            kind,
        });
    }
    Ok(TraceEvent {
        kind,
        seq,
        t_ms,
        tid,
        fields,
    })
}

/// Parses a whole JSONL stream. Blank lines are skipped; the first error
/// aborts the parse (a malformed trace should fail CI, not degrade into
/// partial aggregates).
pub fn parse_trace(text: &str) -> Result<Trace, TraceError> {
    let mut events = Vec::new();
    let mut schema_version = 1;
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let event = parse_event(line, idx + 1)?;
        if event.kind == "trace_meta" {
            if let Some(v) = event.get_u64("schema") {
                schema_version = v;
            }
        }
        events.push(event);
    }
    Ok(Trace {
        schema_version,
        events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_and_payload_split() {
        let line = r#"{"ev":"rung_start","seq":4,"t_ms":1.250,"tid":2,"rung":1,"goal":"take","slice_secs":7.500}"#;
        let event = parse_event(line, 1).unwrap();
        assert_eq!(event.kind, "rung_start");
        assert_eq!(event.seq, 4);
        assert_eq!(event.tid, 2);
        assert_eq!(event.get_u64("rung"), Some(1));
        assert_eq!(event.get("goal"), Some("take"));
        assert_eq!(event.get_f64("slice_secs"), Some(7.5));
    }

    #[test]
    fn unknown_fields_are_tolerated() {
        let line =
            r#"{"ev":"goal_start","seq":0,"t_ms":0.000,"tid":0,"goal":"g","from_the_future":42}"#;
        let event = parse_event(line, 1).unwrap();
        assert_eq!(event.get("from_the_future"), Some("42"));
    }

    #[test]
    fn unknown_kinds_are_rejected() {
        let line = r#"{"ev":"quantum_leap","seq":0,"t_ms":0.000,"tid":0}"#;
        assert_eq!(
            parse_event(line, 7),
            Err(TraceError::UnknownKind {
                line: 7,
                kind: "quantum_leap".into()
            })
        );
    }

    #[test]
    fn missing_envelope_fields_fail() {
        let line = r#"{"ev":"goal_start","seq":0,"tid":0}"#;
        assert_eq!(
            parse_event(line, 3),
            Err(TraceError::MissingEnvelope {
                line: 3,
                field: "t_ms"
            })
        );
        assert_eq!(
            parse_event("not json", 9),
            Err(TraceError::Malformed { line: 9 })
        );
    }

    #[test]
    fn lines_are_parsed_strictly() {
        let trailing_comma = r#"{"ev":"goal_start","seq":0,"t_ms":0.000,"tid":0,"goal":"g",}"#;
        assert_eq!(
            parse_event(trailing_comma, 2),
            Err(TraceError::Malformed { line: 2 })
        );
        let bare_word = r#"{"ev":"goal_start","seq":0,"t_ms":0.000,"tid":0,"n":12abc}"#;
        assert_eq!(
            parse_event(bare_word, 3),
            Err(TraceError::Malformed { line: 3 })
        );
        let spaced = r#"{"ev":"goal_start", "seq":0, "t_ms": 0.000, "tid":0, "goal":"g"}"#;
        let event = parse_event(spaced, 4).expect("whitespace between tokens is valid JSON");
        assert_eq!((event.seq, event.get("goal")), (0, Some("g")));
        let nested =
            r#"{"ev":"goal_start","seq":0,"t_ms":0.000,"tid":0,"x":{"a":1,"b":2},"y":[1, "z"]}"#;
        let event = parse_event(nested, 5).unwrap();
        assert_eq!(
            event.fields,
            vec![
                ("x".to_string(), r#"{"a":1,"b":2}"#.to_string()),
                ("y".to_string(), r#"[1,"z"]"#.to_string()),
            ]
        );
        let array = r#"[{"ev":"goal_start","seq":0,"t_ms":0.000,"tid":0}]"#;
        assert_eq!(
            parse_event(array, 6),
            Err(TraceError::Malformed { line: 6 })
        );
    }

    #[test]
    fn header_sets_schema_version_and_absent_header_means_v1() {
        let with = "{\"ev\":\"trace_meta\",\"seq\":0,\"t_ms\":0.000,\"tid\":0,\"schema\":2}\n\
                    {\"ev\":\"goal_start\",\"seq\":1,\"t_ms\":0.100,\"tid\":0,\"goal\":\"g\"}\n";
        assert_eq!(parse_trace(with).unwrap().schema_version, 2);
        let without = "{\"ev\":\"goal_start\",\"seq\":0,\"t_ms\":0.000,\"tid\":0,\"goal\":\"g\"}\n";
        assert_eq!(parse_trace(without).unwrap().schema_version, 1);
    }
}
