//! Chrome trace-event export (`chrome://tracing`, Perfetto UI).
//!
//! Maps the JSONL stream onto the trace-event JSON format: matched
//! `rung_start`/`rung_finish`, `goal_start`/`goal_finish` and
//! `search`/`node_finish` pairs become complete (`"ph":"X"`) duration
//! events; `smt_query` events (which carry their own `elapsed_ms`)
//! become complete events ending at their emission time; ledger and
//! skip events become instants. Threads are named after the sink's
//! `tid`, so a multi-worker batch run shows one swim-lane per worker.
//!
//! All timestamps are microseconds (`t_ms × 1000`), the unit the format
//! requires; nesting needs no explicit stack because every span pair is
//! emitted synchronously on its own thread.

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use synquid_telemetry::json::Json;

use crate::event::{Trace, TraceEvent};

/// Converts a parsed trace into Chrome trace-event JSON.
pub fn to_chrome_trace(trace: &Trace) -> String {
    let mut out = Vec::new();
    let mut tids = BTreeSet::new();
    // Open span starts, keyed per thread: rung/goal are one-deep, node
    // spans nest by id.
    let mut open_rung: BTreeMap<u64, &TraceEvent> = BTreeMap::new();
    let mut open_goal: BTreeMap<u64, &TraceEvent> = BTreeMap::new();
    let mut open_node: BTreeMap<(u64, u64), &TraceEvent> = BTreeMap::new();

    for event in &trace.events {
        tids.insert(event.tid);
        match event.kind.as_str() {
            "rung_start" => {
                open_rung.insert(event.tid, event);
            }
            "rung_finish" => {
                if let Some(start) = open_rung.remove(&event.tid) {
                    let name = format!(
                        "rung {} {} (a{} m{}) {}",
                        event.get("rung").unwrap_or("-"),
                        event.get("goal").unwrap_or("?"),
                        event.get("app_depth").unwrap_or("?"),
                        event.get("match_depth").unwrap_or("?"),
                        event.get("status").unwrap_or(""),
                    );
                    out.push(complete(&name, "rung", start.t_ms, event.t_ms, event.tid));
                }
            }
            "goal_start" => {
                open_goal.insert(event.tid, event);
            }
            "goal_finish" => {
                if let Some(start) = open_goal.remove(&event.tid) {
                    let name = format!(
                        "goal {} {}",
                        event.get("goal").unwrap_or("?"),
                        event.get("status").unwrap_or(""),
                    );
                    out.push(complete(&name, "goal", start.t_ms, event.t_ms, event.tid));
                }
            }
            "search" => {
                if let Some(node) = event.get_u64("node") {
                    open_node.insert((event.tid, node), event);
                }
            }
            "node_finish" => {
                if let Some(node) = event.get_u64("node") {
                    if let Some(start) = open_node.remove(&(event.tid, node)) {
                        let name = format!(
                            "node {} {} {}",
                            node,
                            start.get("ty").unwrap_or("?"),
                            event.get("status").unwrap_or(""),
                        );
                        out.push(complete(&name, "node", start.t_ms, event.t_ms, event.tid));
                    }
                }
            }
            "smt_query" => {
                let dur_ms = event.get_f64("elapsed_ms").unwrap_or(0.0);
                let name = format!("smt {}", event.get("result").unwrap_or("?"));
                out.push(complete(
                    &name,
                    "smt",
                    (event.t_ms - dur_ms).max(0.0),
                    event.t_ms,
                    event.tid,
                ));
            }
            "ledger_reserve" | "ledger_settle" | "rung_skip" | "rung_out_of_budget" => {
                let name = format!("{} {}", event.kind, event.get("goal").unwrap_or(""),);
                out.push(instant(&name, "ledger", event.t_ms, event.tid));
            }
            _ => {}
        }
    }

    // Thread-name metadata so the UI labels the swim-lanes.
    let thread_names = tids.into_iter().map(|tid| {
        Json::obj([
            ("name", "thread_name".into()),
            ("ph", "M".into()),
            ("pid", 1u64.into()),
            ("tid", tid.into()),
            (
                "args",
                Json::obj([("name", format!("worker {tid}").into())]),
            ),
        ])
    });
    Json::obj([
        ("displayTimeUnit", "ms".into()),
        ("traceEvents", Json::Arr(thread_names.chain(out).collect())),
    ])
    .to_compact()
}

/// Microseconds, the format's unit, from milliseconds.
fn micros(ms: f64) -> Json {
    Json::fixed(ms * 1e3, 0)
}

/// A complete (`"ph":"X"`) duration event.
fn complete(name: &str, cat: &str, start_ms: f64, end_ms: f64, tid: u64) -> Json {
    Json::obj([
        ("name", name.into()),
        ("cat", cat.into()),
        ("ph", "X".into()),
        ("ts", micros(start_ms)),
        ("dur", micros((end_ms - start_ms).max(0.0))),
        ("pid", 1u64.into()),
        ("tid", tid.into()),
    ])
}

/// A thread-scoped instant (`"ph":"i"`) event.
fn instant(name: &str, cat: &str, at_ms: f64, tid: u64) -> Json {
    Json::obj([
        ("name", name.into()),
        ("cat", cat.into()),
        ("ph", "i".into()),
        ("s", "t".into()),
        ("ts", micros(at_ms)),
        ("pid", 1u64.into()),
        ("tid", tid.into()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::parse_trace;

    #[test]
    fn spans_and_instants_round_trip_to_trace_event_json() {
        let mut text = String::new();
        let mut seq = 0u64;
        let mut push = |ev: &str, t_ms: f64, tid: u64, rest: &str| {
            text.push_str(&format!(
                "{{\"ev\":\"{ev}\",\"seq\":{seq},\"t_ms\":{t_ms:.3},\"tid\":{tid}{rest}}}\n"
            ));
            seq += 1;
        };
        push(
            "rung_start",
            1.0,
            0,
            ",\"rung\":0,\"goal\":\"g\\\"q\",\"app_depth\":1,\"match_depth\":0,\"slice_secs\":1.0",
        );
        push(
            "goal_start",
            1.2,
            0,
            ",\"goal\":\"g\\\"q\",\"app_depth\":1,\"match_depth\":0",
        );
        push(
            "search",
            1.3,
            0,
            ",\"node\":1,\"parent\":0,\"ty\":\"{Int | _v \\\\ 2}\",\"branch_depth\":1,\"match_depth\":0",
        );
        push(
            "smt_query",
            30.0,
            0,
            ",\"elapsed_ms\":25.500,\"result\":\"Unsat\",\"antecedent\":\"a\",\"consequent\":\"b\"",
        );
        push("node_finish", 40.0, 0, ",\"node\":1,\"status\":\"solved\",\"elapsed_ms\":38.700,\"memo_hits\":0,\"memo_misses\":0,\"lemmas_replayed\":0,\"term\":\"x\"");
        push(
            "goal_finish",
            40.5,
            0,
            ",\"goal\":\"g\\\"q\",\"status\":\"solved\",\"time_secs\":0.039",
        );
        push(
            "ledger_settle",
            40.6,
            0,
            ",\"rung\":0,\"goal\":\"g\\\"q\",\"charged_secs\":0.039,\"remaining_secs\":0.961",
        );
        push("rung_skip", 41.0, 3, ",\"rung\":1,\"goal\":\"h\"");
        push("rung_finish", 40.7, 0, ",\"rung\":0,\"goal\":\"g\\\"q\",\"app_depth\":1,\"match_depth\":0,\"status\":\"solved\",\"time_secs\":0.039");

        let json = to_chrome_trace(&parse_trace(&text).unwrap());
        // Byte for byte what the hand-rolled writer this export used
        // before the shared codec produced: one thread-name entry per
        // tid, the rung span 1.0ms → 40.7ms as ts 1000 / dur 39700 µs,
        // the smt span ending at its emission time (ts (30-25.5)*1000),
        // instants for the ledger and skip events, names escaped.
        assert_eq!(
            json,
            concat!(
                r#"{"displayTimeUnit":"ms","traceEvents":["#,
                r#"{"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"worker 0"}},"#,
                r#"{"name":"thread_name","ph":"M","pid":1,"tid":3,"args":{"name":"worker 3"}},"#,
                r#"{"name":"smt Unsat","cat":"smt","ph":"X","ts":4500,"dur":25500,"pid":1,"tid":0},"#,
                r#"{"name":"node 1 {Int | _v \\ 2} solved","cat":"node","ph":"X","ts":1300,"dur":38700,"pid":1,"tid":0},"#,
                r#"{"name":"goal g\"q solved","cat":"goal","ph":"X","ts":1200,"dur":39300,"pid":1,"tid":0},"#,
                r#"{"name":"ledger_settle g\"q","cat":"ledger","ph":"i","s":"t","ts":40600,"pid":1,"tid":0},"#,
                r#"{"name":"rung_skip h","cat":"ledger","ph":"i","s":"t","ts":41000,"pid":1,"tid":3},"#,
                r#"{"name":"rung 0 g\"q (a1 m0) solved","cat":"rung","ph":"X","ts":1000,"dur":39700,"pid":1,"tid":0}]}"#,
            )
        );
    }
}
