//! The structured event sink: typed trace events as JSON Lines.
//!
//! Layers of the pipeline emit [`Event`]s — candidate accept/reject with
//! a reason, rung start/finish/skip, ledger reserve/charge/settle, lemma
//! learn/replay, cache hit/miss, goal lifecycle — through [`emit`]. The
//! sink is configured once per process:
//!
//! * `--trace-out PATH` (CLI) or `SYNQUID_TRACE_OUT=PATH` → JSONL to the
//!   file (`-` means stderr);
//! * neither → events are disabled and an [`emit`] call costs one relaxed
//!   atomic load (the closure building the event never runs).
//!
//! Every JSON line carries the event kind (`ev`), a process-wide sequence
//! number (`seq`), milliseconds since the sink was opened (`t_ms`) and a
//! small per-thread id (`tid`). `seq`/`t_ms`/`tid` are best-effort
//! scheduling artifacts; the typed payload fields are the stable part of
//! the schema (see `docs/ARCHITECTURE.md`).

use std::fmt::Write as _;
use std::io::Write;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::json::{self, Json};

/// Version of the trace-event schema. Stamped into the `trace_meta`
/// event that opens every JSON sink; a stream *without* a `trace_meta`
/// line is version 1 (the PR 6 streams, before derivation node ids).
///
/// History:
/// * 1 — envelope (`ev`/`seq`/`t_ms`/`tid`) + the ~20 PR 6 event kinds;
/// * 2 — `trace_meta` header; derivation node ids (`node`/`parent` on
///   `search`, `node` on candidate/guard/match/cache events); the
///   `node_finish` kind (status, term, per-node cache provenance, and an
///   optional `phases` split); `check_step` kinds from the round-trip
///   checker; `rung` indices on the rung/ledger lifecycle events;
/// * 3 — the `session_epoch` kind (resident-session GC boundaries, with
///   per-layer eviction counts);
/// * 4 — `mus_entries` and `mus_evicted` on `session_epoch` (the MUS
///   memo layer);
/// * 5 — `namespaces` leaves `session_epoch` (a session holds one cache
///   bundle).
///
/// Versioning rules (see `docs/ARCHITECTURE.md`): *adding* a field to an
/// existing kind or adding a new kind bumps this constant but keeps old
/// consumers working (consumers must tolerate unknown fields); renaming
/// or removing a field or kind is a breaking change that bumps this
/// constant and migrates every consumer of the field or kind in the same
/// change.
pub const EVENT_SCHEMA_VERSION: u64 = 5;

const MODE_OFF: u8 = 0;
const MODE_JSON: u8 = 1;
const MODE_UNREAD: u8 = 2;

static MODE: AtomicU8 = AtomicU8::new(MODE_UNREAD);
static SINK: Mutex<Option<Box<dyn Write + Send>>> = Mutex::new(None);
/// Side handle onto the in-memory sink installed by
/// [`init_trace_buffer`], so [`take_trace_buffer`] can drain it.
static BUFFER: Mutex<Option<Arc<Mutex<Vec<u8>>>>> = Mutex::new(None);
static SEQ: AtomicU64 = AtomicU64::new(0);
static NEXT_TID: AtomicUsize = AtomicUsize::new(0);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

thread_local! {
    static TID: usize = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// True if some event sink is configured. One relaxed atomic load on the
/// fast (disabled) path; the first call reads the environment.
#[inline]
pub fn events_enabled() -> bool {
    mode() != MODE_OFF
}

#[inline]
fn mode() -> u8 {
    match MODE.load(Ordering::Relaxed) {
        MODE_UNREAD => init_from_env(),
        m => m,
    }
}

#[cold]
fn init_from_env() -> u8 {
    let path = std::env::var("SYNQUID_TRACE_OUT").unwrap_or_default();
    if !path.is_empty() {
        match init_trace_file(&path) {
            Ok(()) => return MODE.load(Ordering::Relaxed),
            Err(e) => eprintln!("[synquid] cannot open SYNQUID_TRACE_OUT={path}: {e}"),
        }
    }
    MODE.store(MODE_OFF, Ordering::Relaxed);
    MODE_OFF
}

/// Routes events as JSON Lines to `path` (`-` for stderr). Overrides any
/// environment-derived configuration; used by the CLI's `--trace-out`.
pub fn init_trace_file(path: &str) -> std::io::Result<()> {
    let out: Box<dyn Write + Send> = if path == "-" {
        Box::new(std::io::stderr())
    } else {
        Box::new(std::fs::File::create(path)?)
    };
    *BUFFER.lock().expect("trace buffer poisoned") = None;
    *SINK.lock().expect("trace sink poisoned") = Some(out);
    epoch();
    MODE.store(MODE_JSON, Ordering::Relaxed);
    emit_meta();
    Ok(())
}

/// Routes events as JSON Lines into an in-memory buffer, drained by
/// [`take_trace_buffer`]. This is how `synquid explain` captures the
/// trace of a run it is about to replay into a derivation tree without
/// touching the filesystem. Overrides any other sink.
pub fn init_trace_buffer() {
    let buffer = Arc::new(Mutex::new(Vec::new()));

    struct BufferSink(Arc<Mutex<Vec<u8>>>);
    impl Write for BufferSink {
        fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
            self.0.lock().expect("trace buffer poisoned").extend(data);
            Ok(data.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    *BUFFER.lock().expect("trace buffer poisoned") = Some(buffer.clone());
    *SINK.lock().expect("trace sink poisoned") = Some(Box::new(BufferSink(buffer)));
    epoch();
    MODE.store(MODE_JSON, Ordering::Relaxed);
    emit_meta();
}

/// Drains the in-memory sink installed by [`init_trace_buffer`] and
/// returns its contents (one JSON event per line). Returns `None` when
/// no buffer sink is active. Events emitted after the drain keep
/// accumulating in the same buffer.
pub fn take_trace_buffer() -> Option<String> {
    let guard = BUFFER.lock().expect("trace buffer poisoned");
    let buffer = guard.as_ref()?;
    let bytes = std::mem::take(&mut *buffer.lock().expect("trace buffer poisoned"));
    Some(String::from_utf8_lossy(&bytes).into_owned())
}

/// The stream header: every JSON sink opens with a `trace_meta` event
/// carrying the schema version, so consumers can tell v1 streams (no
/// header) from current ones without sniffing payload fields.
fn emit_meta() {
    emit(|| {
        Event::new("trace_meta")
            .uint("schema", EVENT_SCHEMA_VERSION)
            .str("tool", "synquid")
    });
}

/// Flushes the sink (file sinks are written line-at-a-time but the CLI
/// flushes once more before exiting, out of caution).
pub fn flush_trace() {
    if let Some(out) = SINK.lock().expect("trace sink poisoned").as_mut() {
        let _ = out.flush();
    }
}

/// A typed trace event: a kind plus ordered fields. Construct with the
/// builder methods and hand to [`emit`].
#[derive(Debug, Clone)]
pub struct Event {
    kind: &'static str,
    fields: Vec<(&'static str, Json)>,
}

impl Event {
    /// Starts an event of the given kind.
    pub fn new(kind: &'static str) -> Event {
        Event {
            kind,
            fields: Vec::with_capacity(4),
        }
    }

    /// Adds a string field.
    pub fn str(mut self, key: &'static str, value: impl Into<String>) -> Event {
        self.fields.push((key, Json::Str(value.into())));
        self
    }

    /// Adds an integer field.
    pub fn int(mut self, key: &'static str, value: i64) -> Event {
        self.fields.push((key, value.into()));
        self
    }

    /// Adds an unsigned field.
    pub fn uint(mut self, key: &'static str, value: u64) -> Event {
        self.fields.push((key, value.into()));
        self
    }

    /// Adds a float field (rendered with 3 decimals; `null` when it is
    /// not finite).
    pub fn f64(mut self, key: &'static str, value: f64) -> Event {
        self.fields.push((key, Json::fixed(value, 3)));
        self
    }

    /// Adds a boolean field.
    pub fn bool(mut self, key: &'static str, value: bool) -> Event {
        self.fields.push((key, value.into()));
        self
    }

    /// Appends the event to `out` as one JSON line: the envelope (`ev`,
    /// `seq`, `t_ms`, `tid`) first, then the fields in order, then a
    /// newline.
    fn write_line(&self, seq: u64, t_ms: f64, tid: usize, out: &mut String) {
        out.push_str("{\"ev\":");
        json::write_str(out, self.kind);
        write!(out, ",\"seq\":{seq},\"t_ms\":{t_ms:.3},\"tid\":{tid}")
            .expect("writing to a String");
        for (key, value) in &self.fields {
            out.push(',');
            json::write_str(out, key);
            out.push(':');
            value.write_compact(out);
        }
        out.push_str("}\n");
    }
}

/// Emits an event. The closure only runs when a sink is configured, so a
/// disabled call site costs one atomic load and never formats anything.
#[inline]
pub fn emit(build: impl FnOnce() -> Event) {
    if mode() == MODE_OFF {
        return;
    }
    emit_now(build());
}

#[cold]
fn emit_now(event: Event) {
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let t_ms = epoch().elapsed().as_secs_f64() * 1e3;
    let tid = TID.with(|t| *t);
    let mut line = String::with_capacity(128);
    event.write_line(seq, t_ms, tid, &mut line);
    let mut sink = SINK.lock().expect("trace sink poisoned");
    if let Some(out) = sink.as_mut() {
        let _ = out.write_all(line.as_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(event: &Event, seq: u64, t_ms: f64, tid: usize) -> String {
        let mut out = String::new();
        event.write_line(seq, t_ms, tid, &mut out);
        out
    }

    fn text_field(line: &str, key: &str) -> String {
        let value = json::parse(line).expect("one JSON value per line");
        value.get(key).and_then(Json::as_str).unwrap().to_string()
    }

    #[test]
    fn json_rendering_round_trips_through_the_parser() {
        let event = Event::new("candidate_reject")
            .str("goal", "take")
            .str("reason", "subtype")
            .str("program", "Cons x (take \"xs\" n)")
            .int("depth", 2)
            .bool("conditional", false)
            .f64("elapsed_ms", 1.5);
        let line = line(&event, 7, 12.3456, 2);
        assert!(line.ends_with("}\n"), "one line per event");
        let fields = json::parse(&line).expect("parse back");
        let get = |k: &str| fields.get(k).map(Json::to_compact);
        assert_eq!(get("ev").as_deref(), Some("\"candidate_reject\""));
        assert_eq!(get("seq").as_deref(), Some("7"));
        assert_eq!(get("t_ms").as_deref(), Some("12.346"));
        assert_eq!(get("tid").as_deref(), Some("2"));
        assert_eq!(get("goal").as_deref(), Some("\"take\""));
        assert_eq!(get("reason").as_deref(), Some("\"subtype\""));
        assert_eq!(text_field(&line, "program"), "Cons x (take \"xs\" n)");
        assert_eq!(get("depth").as_deref(), Some("2"));
        assert_eq!(get("conditional").as_deref(), Some("false"));
        assert_eq!(get("elapsed_ms").as_deref(), Some("1.500"));
    }

    #[test]
    fn event_lines_are_byte_identical_to_the_hand_rolled_renderer() {
        // Rendered by the writer this codec replaced, before it was
        // deleted: every value type, every escape, non-ASCII text.
        let event = Event::new("candidate_reject")
            .str("goal", "take")
            .str("text", "q\"b\\s\nn\tt\rr\u{1}c ν→≤")
            .int("depth", -2)
            .uint("n", 3)
            .bool("conditional", false)
            .f64("elapsed_ms", 1.5);
        assert_eq!(
            line(&event, 7, 12.3456, 2),
            "{\"ev\":\"candidate_reject\",\"seq\":7,\"t_ms\":12.346,\"tid\":2,\"goal\":\"take\",\
             \"text\":\"q\\\"b\\\\s\\nn\\tt\\rr\\u0001c ν→≤\",\"depth\":-2,\"n\":3,\
             \"conditional\":false,\"elapsed_ms\":1.500}\n"
        );
    }

    #[test]
    fn escaping_handles_quotes_newlines_and_controls() {
        let event = Event::new("message").str("text", "a\"b\\c\nd\te\u{1}");
        let line = line(&event, 0, 0.0, 0);
        assert!(line.contains("\\\"b\\\\c\\nd\\te\\u0001"));
        assert_eq!(text_field(&line, "text"), "a\"b\\c\nd\te\u{1}");
    }

    #[test]
    fn unicode_strings_survive() {
        let event = Event::new("message").str("text", "goal=νλ→ ≤");
        let line = line(&event, 0, 0.0, 0);
        assert_eq!(text_field(&line, "text"), "goal=νλ→ ≤");
    }
}
