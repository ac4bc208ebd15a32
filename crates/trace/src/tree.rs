//! Replaying a trace into first-class derivation trees.
//!
//! The synthesizer allocates derivation-node ids in preorder over its
//! `synthesize_in` call tree and restarts the counter on every run, so a
//! node id is only meaningful inside one `goal_start`..`goal_finish`
//! window on one thread (one *rung attempt*). The builder scopes ids
//! accordingly: it walks events in emission order, keeps one open window
//! per thread, and attaches node events to the window open on their
//! thread. The result is a [`DerivationForest`] — every attempt the
//! engine made, each holding its own node tree — from which the winning
//! derivation of a solved goal can be extracted and rendered.

use std::collections::BTreeMap;

use synquid_telemetry::{json, PhaseProfile};

use crate::event::{Trace, TraceEvent};

/// One node of a derivation tree: one `synthesize_in` frame.
#[derive(Debug, Clone, Default)]
pub struct DerivationNode {
    /// Node id (preorder, 1-based; parent 0 marks the root).
    pub id: u64,
    /// Parent node id (0 for the root).
    pub parent: u64,
    /// The goal type of the frame.
    pub ty: String,
    /// Remaining branch / match depth at the frame.
    pub branch_depth: u64,
    pub match_depth: u64,
    /// `solved` / `exhausted` / `timeout`, when the frame finished inside
    /// the trace (a hard kill can truncate the stream mid-frame).
    pub status: Option<String>,
    /// Wall time of the frame, inclusive of children.
    pub elapsed_ms: Option<f64>,
    /// The synthesized term when the frame solved its goal.
    pub term: Option<String>,
    /// Enumeration-memo provenance: lookups answered from the cache vs
    /// generated fresh, within this frame (inclusive of children).
    pub memo_hits: u64,
    pub memo_misses: u64,
    /// Persisted theory conflicts replayed into SMT queries within this
    /// frame (inclusive of children).
    pub lemmas_replayed: u64,
    /// Phase split of the frame (inclusive of children); present only
    /// when the producer ran with profiling enabled.
    pub phases: Option<PhaseProfile>,
    /// In-frame happenings, from sibling events carrying this node id.
    pub candidates_accepted: u64,
    pub candidates_rejected: u64,
    pub guards_found: u64,
    pub guards_missing: u64,
    pub match_cases: u64,
    /// Child node ids, in discovery (= preorder) order.
    pub children: Vec<u64>,
}

/// One `goal_start`..`goal_finish` window: a single synthesizer run for
/// one goal at one rung's bounds.
#[derive(Debug, Clone)]
pub struct RungAttempt {
    pub goal: String,
    /// Portfolio rung index, when the attempt ran under the engine
    /// scheduler (standalone `synquid` runs have no rungs).
    pub rung: Option<u64>,
    pub app_depth: u64,
    pub match_depth: u64,
    /// `solved` / `timeout` / `failed` from `goal_finish`; `truncated`
    /// when the stream ended with the window still open.
    pub status: String,
    pub time_secs: f64,
    /// All derivation nodes of the attempt, by id.
    pub nodes: BTreeMap<u64, DerivationNode>,
    /// Thread the attempt ran on.
    pub tid: u64,
}

impl RungAttempt {
    fn new(goal: String, app_depth: u64, match_depth: u64, rung: Option<u64>, tid: u64) -> Self {
        RungAttempt {
            goal,
            rung,
            app_depth,
            match_depth,
            status: "truncated".into(),
            time_secs: 0.0,
            nodes: BTreeMap::new(),
            tid,
        }
    }

    /// The root node (id 1), if the attempt got far enough to open one.
    pub fn root(&self) -> Option<&DerivationNode> {
        self.nodes.get(&1)
    }

    /// Renders the attempt's full node tree as a termtree, one node per
    /// line, annotated with status, wall time, cache provenance and (when
    /// present) the dominant phases.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{} @ rung {} (app_depth {}, match_depth {}): {} in {:.3}s\n",
            self.goal,
            self.rung.map_or("-".into(), |r| r.to_string()),
            self.app_depth,
            self.match_depth,
            self.status,
            self.time_secs,
        ));
        if let Some(root) = self.root() {
            self.render_node(root, "", true, &mut out, &|_| true);
        }
        out
    }

    /// Renders only the winning derivation: solved nodes whose term
    /// contributes to their parent's term. Abandoned subsearches (failed
    /// siblings, solved-then-discarded match cases) are summarized as a
    /// count on their parent instead of rendered.
    pub fn render_winning(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{} @ rung {} (app_depth {}, match_depth {}): {} in {:.3}s\n",
            self.goal,
            self.rung.map_or("-".into(), |r| r.to_string()),
            self.app_depth,
            self.match_depth,
            self.status,
            self.time_secs,
        ));
        if let Some(root) = self.root() {
            let keep = |node: &DerivationNode| self.contributes(node);
            self.render_node(root, "", true, &mut out, &keep);
        }
        out
    }

    /// True if the node's solution contributes to its parent's: the node
    /// solved, and its term occurs inside the parent's term (the parent
    /// assembles children's terms verbatim — application arguments, match
    /// case bodies, conditional branches — so textual containment is
    /// exact up to a solved-but-discarded term that happens to also occur
    /// elsewhere in the parent, which still renders correctly).
    fn contributes(&self, node: &DerivationNode) -> bool {
        if node.status.as_deref() != Some("solved") {
            return false;
        }
        if node.parent == 0 {
            return true;
        }
        let Some(parent) = self.nodes.get(&node.parent) else {
            return false;
        };
        match (&parent.term, &node.term) {
            (Some(pt), Some(nt)) => pt.contains(nt.as_str()) && self.contributes(parent),
            _ => false,
        }
    }

    fn render_node(
        &self,
        node: &DerivationNode,
        prefix: &str,
        last: bool,
        out: &mut String,
        keep: &dyn Fn(&DerivationNode) -> bool,
    ) {
        let connector = if node.parent == 0 {
            ""
        } else if last {
            "└─ "
        } else {
            "├─ "
        };
        out.push_str(prefix);
        out.push_str(connector);
        out.push_str(&annotate(node));
        let kept: Vec<&DerivationNode> = node
            .children
            .iter()
            .filter_map(|id| self.nodes.get(id))
            .filter(|c| keep(c))
            .collect();
        let dropped = node.children.len() - kept.len();
        if dropped > 0 {
            out.push_str(&format!("  (+{dropped} abandoned)"));
        }
        out.push('\n');
        let child_prefix = if node.parent == 0 {
            String::new()
        } else {
            format!("{prefix}{}", if last { "   " } else { "│  " })
        };
        let n = kept.len();
        for (i, child) in kept.into_iter().enumerate() {
            self.render_node(child, &child_prefix, i + 1 == n, out, keep);
        }
    }

    /// Terms at the leaves of the winning derivation, in preorder.
    pub fn winning_leaves(&self) -> Vec<String> {
        let mut out = Vec::new();
        let Some(root) = self.root() else {
            return out;
        };
        self.collect_leaves(root, &mut out);
        out
    }

    fn collect_leaves(&self, node: &DerivationNode, out: &mut Vec<String>) {
        let kept: Vec<&DerivationNode> = node
            .children
            .iter()
            .filter_map(|id| self.nodes.get(id))
            .filter(|c| self.contributes(c))
            .collect();
        if kept.is_empty() {
            if let Some(term) = &node.term {
                out.push(term.clone());
            }
            return;
        }
        for child in kept {
            self.collect_leaves(child, out);
        }
    }
}

/// One line of node annotation: goal type, solution, timing, provenance.
/// Multi-line terms (matches, conditionals) are flattened to one line so
/// the tree connectors stay aligned.
fn annotate(node: &DerivationNode) -> String {
    let mut out = format!("[{}] {}", node.id, node.ty);
    if let Some(term) = &node.term {
        let flat = term.split_whitespace().collect::<Vec<_>>().join(" ");
        out.push_str(&format!("  ⇒  {flat}"));
    }
    let status = node.status.as_deref().unwrap_or("open");
    out.push_str(&format!("  ({status}"));
    if let Some(ms) = node.elapsed_ms {
        out.push_str(&format!(", {ms:.1}ms"));
    }
    if node.memo_hits + node.memo_misses > 0 {
        out.push_str(&format!(", memo {}h/{}m", node.memo_hits, node.memo_misses));
    }
    if node.lemmas_replayed > 0 {
        out.push_str(&format!(", {} lemmas replayed", node.lemmas_replayed));
    }
    if node.candidates_rejected > 0 || node.candidates_accepted > 0 {
        out.push_str(&format!(
            ", cand +{}/-{}",
            node.candidates_accepted, node.candidates_rejected
        ));
    }
    if let Some(phases) = &node.phases {
        let mut split: Vec<(String, f64)> = synquid_telemetry::Phase::ALL
            .into_iter()
            .map(|p| (p.name().to_string(), phases.get(p).total_secs()))
            .filter(|(_, s)| *s > 0.0)
            .collect();
        split.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        let top: Vec<String> = split
            .into_iter()
            .take(2)
            .map(|(name, secs)| format!("{name} {:.0}ms", secs * 1e3))
            .collect();
        if !top.is_empty() {
            out.push_str(&format!(", {}", top.join(" + ")));
        }
    }
    out.push(')');
    out
}

/// Every rung attempt reconstructed from a trace, in emission order.
#[derive(Debug, Clone, Default)]
pub struct DerivationForest {
    pub attempts: Vec<RungAttempt>,
}

impl DerivationForest {
    /// Replays a parsed trace into its derivation forest.
    pub fn build(trace: &Trace) -> DerivationForest {
        let mut open: BTreeMap<u64, RungAttempt> = BTreeMap::new();
        let mut current_rung: BTreeMap<u64, u64> = BTreeMap::new();
        let mut attempts = Vec::new();
        for event in &trace.events {
            match event.kind.as_str() {
                "rung_start" => {
                    if let Some(rung) = event.get_u64("rung") {
                        current_rung.insert(event.tid, rung);
                    }
                }
                "rung_finish" => {
                    current_rung.remove(&event.tid);
                }
                "goal_start" => {
                    // A dangling window on this thread (missing finish)
                    // is closed as truncated rather than silently merged.
                    if let Some(stale) = open.remove(&event.tid) {
                        attempts.push(stale);
                    }
                    open.insert(
                        event.tid,
                        RungAttempt::new(
                            event.get("goal").unwrap_or_default().to_string(),
                            event.get_u64("app_depth").unwrap_or(0),
                            event.get_u64("match_depth").unwrap_or(0),
                            current_rung.get(&event.tid).copied(),
                            event.tid,
                        ),
                    );
                }
                "goal_finish" => {
                    if let Some(mut attempt) = open.remove(&event.tid) {
                        attempt.status = event.get("status").unwrap_or("truncated").to_string();
                        attempt.time_secs = event.get_f64("time_secs").unwrap_or(0.0);
                        attempts.push(attempt);
                    }
                }
                _ => {
                    if let Some(attempt) = open.get_mut(&event.tid) {
                        apply_node_event(attempt, event);
                    }
                }
            }
        }
        // Truncated streams: keep what the open windows collected.
        attempts.extend(open.into_values());
        DerivationForest { attempts }
    }

    /// All attempts for one goal.
    pub fn for_goal<'a>(&'a self, goal: &str) -> Vec<&'a RungAttempt> {
        self.attempts.iter().filter(|a| a.goal == goal).collect()
    }

    /// The attempt whose solution the portfolio reports for a goal: the
    /// solved attempt at the lowest rung (smallest program bounds), ties
    /// broken by emission order — mirroring the scheduler's
    /// shallowest-rung-wins rule.
    pub fn winning<'a>(&'a self, goal: &str) -> Option<&'a RungAttempt> {
        self.attempts
            .iter()
            .filter(|a| a.goal == goal && a.status == "solved")
            .min_by_key(|a| a.rung.unwrap_or(a.app_depth + a.match_depth))
    }
}

fn apply_node_event(attempt: &mut RungAttempt, event: &TraceEvent) {
    match event.kind.as_str() {
        "search" => {
            let Some(id) = event.get_u64("node") else {
                return;
            };
            let parent = event.get_u64("parent").unwrap_or(0);
            let node = attempt.nodes.entry(id).or_default();
            node.id = id;
            node.parent = parent;
            node.ty = event.get("ty").unwrap_or_default().to_string();
            node.branch_depth = event.get_u64("branch_depth").unwrap_or(0);
            node.match_depth = event.get_u64("match_depth").unwrap_or(0);
            if parent != 0 {
                if let Some(parent_node) = attempt.nodes.get_mut(&parent) {
                    parent_node.children.push(id);
                }
            }
        }
        "node_finish" => {
            let Some(id) = event.get_u64("node") else {
                return;
            };
            let node = attempt.nodes.entry(id).or_default();
            node.id = id;
            node.status = event.get("status").map(str::to_string);
            node.elapsed_ms = event.get_f64("elapsed_ms");
            node.term = event.get("term").map(str::to_string);
            node.memo_hits = event.get_u64("memo_hits").unwrap_or(0);
            node.memo_misses = event.get_u64("memo_misses").unwrap_or(0);
            node.lemmas_replayed = event.get_u64("lemmas_replayed").unwrap_or(0);
            node.phases = event
                .get("phases")
                .and_then(|text| json::parse(text).ok())
                .and_then(|value| PhaseProfile::from_json(&value));
        }
        "candidate_accept" | "candidate_reject" | "guard_found" | "guard_missing"
        | "match_case" => {
            let Some(id) = event.get_u64("node") else {
                return;
            };
            let node = attempt.nodes.entry(id).or_default();
            node.id = id;
            match event.kind.as_str() {
                "candidate_accept" => node.candidates_accepted += 1,
                "candidate_reject" => node.candidates_rejected += 1,
                "guard_found" => node.guards_found += 1,
                "guard_missing" => node.guards_missing += 1,
                _ => node.match_cases += 1,
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::parse_trace;

    #[test]
    fn windows_scope_node_ids_per_attempt() {
        // Two rung attempts for the same goal on one thread; node id 1
        // must not collide across them.
        let mut text = String::new();
        let mut seq = 0u64;
        let mut push = |ev: &str, rest: &str| {
            text.push_str(&format!(
                "{{\"ev\":\"{ev}\",\"seq\":{seq},\"t_ms\":{seq}.000,\"tid\":0{rest}}}\n"
            ));
            seq += 1;
        };
        push("trace_meta", ",\"schema\":2");
        push(
            "rung_start",
            ",\"rung\":0,\"goal\":\"g\",\"app_depth\":1,\"match_depth\":0,\"slice_secs\":1.0",
        );
        push(
            "goal_start",
            ",\"goal\":\"g\",\"app_depth\":1,\"match_depth\":0",
        );
        push("search", ",\"node\":1,\"parent\":0,\"goal\":\"g\",\"ty\":\"Int\",\"branch_depth\":1,\"match_depth\":0");
        push("node_finish", ",\"node\":1,\"goal\":\"g\",\"status\":\"exhausted\",\"elapsed_ms\":5.000,\"memo_hits\":0,\"memo_misses\":1,\"lemmas_replayed\":0");
        push(
            "goal_finish",
            ",\"goal\":\"g\",\"status\":\"failed\",\"time_secs\":0.005",
        );
        push("rung_finish", ",\"rung\":0,\"goal\":\"g\",\"app_depth\":1,\"match_depth\":0,\"status\":\"exhausted\",\"time_secs\":0.005");
        push(
            "rung_start",
            ",\"rung\":1,\"goal\":\"g\",\"app_depth\":2,\"match_depth\":0,\"slice_secs\":1.0",
        );
        push(
            "goal_start",
            ",\"goal\":\"g\",\"app_depth\":2,\"match_depth\":0",
        );
        push("search", ",\"node\":1,\"parent\":0,\"goal\":\"g\",\"ty\":\"Int\",\"branch_depth\":1,\"match_depth\":0");
        push("search", ",\"node\":2,\"parent\":1,\"goal\":\"g\",\"ty\":\"Bool\",\"branch_depth\":0,\"match_depth\":0");
        push("node_finish", ",\"node\":2,\"goal\":\"g\",\"status\":\"solved\",\"elapsed_ms\":1.000,\"memo_hits\":1,\"memo_misses\":0,\"lemmas_replayed\":0,\"term\":\"true\"");
        push("node_finish", ",\"node\":1,\"goal\":\"g\",\"status\":\"solved\",\"elapsed_ms\":4.000,\"memo_hits\":1,\"memo_misses\":1,\"lemmas_replayed\":0,\"term\":\"f true\"");
        push(
            "goal_finish",
            ",\"goal\":\"g\",\"status\":\"solved\",\"time_secs\":0.004",
        );
        push("rung_finish", ",\"rung\":1,\"goal\":\"g\",\"app_depth\":2,\"match_depth\":0,\"status\":\"solved\",\"time_secs\":0.004");

        let trace = parse_trace(&text).unwrap();
        let forest = DerivationForest::build(&trace);
        assert_eq!(forest.attempts.len(), 2);
        assert_eq!(forest.attempts[0].rung, Some(0));
        assert_eq!(forest.attempts[0].nodes.len(), 1);
        assert_eq!(forest.attempts[1].rung, Some(1));
        assert_eq!(forest.attempts[1].nodes.len(), 2);

        let winning = forest.winning("g").expect("solved attempt");
        assert_eq!(winning.rung, Some(1));
        assert_eq!(winning.root().unwrap().term.as_deref(), Some("f true"));
        assert_eq!(winning.winning_leaves(), vec!["true".to_string()]);
        let rendered = winning.render_winning();
        assert!(rendered.contains("⇒  f true"));
        assert!(rendered.contains("└─ [2] Bool"));
    }

    #[test]
    fn non_contributing_solved_children_are_summarized() {
        let mut text = String::new();
        let mut seq = 0u64;
        let mut push = |ev: &str, rest: &str| {
            text.push_str(&format!(
                "{{\"ev\":\"{ev}\",\"seq\":{seq},\"t_ms\":{seq}.000,\"tid\":0{rest}}}\n"
            ));
            seq += 1;
        };
        push(
            "goal_start",
            ",\"goal\":\"g\",\"app_depth\":1,\"match_depth\":1",
        );
        push(
            "search",
            ",\"node\":1,\"parent\":0,\"ty\":\"Int\",\"branch_depth\":1,\"match_depth\":1",
        );
        // A solved match case whose scrutinee was later abandoned: its
        // term does not occur in the root's final term.
        push(
            "search",
            ",\"node\":2,\"parent\":1,\"ty\":\"Int\",\"branch_depth\":1,\"match_depth\":0",
        );
        push("node_finish", ",\"node\":2,\"status\":\"solved\",\"elapsed_ms\":1.000,\"memo_hits\":0,\"memo_misses\":0,\"lemmas_replayed\":0,\"term\":\"discarded\"");
        push(
            "search",
            ",\"node\":3,\"parent\":1,\"ty\":\"Int\",\"branch_depth\":1,\"match_depth\":0",
        );
        push("node_finish", ",\"node\":3,\"status\":\"solved\",\"elapsed_ms\":1.000,\"memo_hits\":0,\"memo_misses\":0,\"lemmas_replayed\":0,\"term\":\"kept\"");
        push("node_finish", ",\"node\":1,\"status\":\"solved\",\"elapsed_ms\":3.000,\"memo_hits\":0,\"memo_misses\":0,\"lemmas_replayed\":0,\"term\":\"wrap kept\"");
        push(
            "goal_finish",
            ",\"goal\":\"g\",\"status\":\"solved\",\"time_secs\":0.003",
        );

        let trace = parse_trace(&text).unwrap();
        let forest = DerivationForest::build(&trace);
        let attempt = forest.winning("g").unwrap();
        let rendered = attempt.render_winning();
        assert!(rendered.contains("(+1 abandoned)"));
        assert!(!rendered.contains("discarded"));
        assert_eq!(attempt.winning_leaves(), vec!["kept".to_string()]);
    }
}
