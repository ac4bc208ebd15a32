//! Resident synthesis sessions: the engine as a library.
//!
//! Historically every CLI invocation (batch, `explain`, `fuzz`) built
//! its own interner, validity cache, enumeration memo, and lemma store,
//! used them for one run, and died with the process — even though BENCH
//! shows ~50% of validity queries within one cold batch are repeats. A
//! [`SynthesisSession`] inverts that ownership: it is the long-lived
//! holder of all cross-goal solver state, and every entry point borrows
//! it instead of constructing caches.
//!
//! # One bundle
//!
//! A session holds exactly one [`SessionCaches`] bundle, and every goal
//! it runs reads and feeds it, whatever its component library. Sharing
//! across libraries is sound because every layer's key is
//! self-contained: validity keys are whole formulas, enumeration keys
//! embed the full environment fingerprint, MUS keys are whole
//! strengthening problems, and lemmas are facts about portable atom
//! keys. So goals over a common library (most of the corpus uses
//! `List` with `len`/`elems`) warm each other, and an entry of another
//! library can never answer a query wrongly, only occupy room.
//!
//! # Epochs and eviction
//!
//! Each batch run against the session closes one GC epoch
//! ([`SynthesisSession::advance_epoch`], called by
//! [`Engine::run_batch`](crate::Engine::run_batch)): entries touched
//! this epoch survive, entries cold for two full epochs are evicted,
//! and every cache also enforces a size bound with an once-per-epoch
//! cold sweep on overflow (the bounds are the layers' own; build a
//! bundle with their `with_max_entries` and pass it to
//! [`SynthesisSession::with_caches`] to change them). Eviction is always
//! sound — validity verdicts, enumeration sets and decided MUS
//! enumerations are pure functions of their keys, and each lemma is
//! implied by the encoding of any query containing its atoms — so
//! dropping state can only cost time, never correctness.
//!
//! # Snapshots
//!
//! [`SynthesisSession::serialize`] persists the durable layers
//! (validity verdicts and lemmas; enumeration sets reference in-memory
//! programs, and MUS enumerations refill within a warm-started process's
//! first batch) in a versioned text format, and
//! [`SynthesisSession::warm_start`] loads one best-effort: a stale
//! version, truncated file, or corrupt line falls back to a cold start
//! without error — a fleet node must boot either way.

use synquid_core::SessionCaches;
use synquid_logic::snapshot::{decode_term, encode_term};
use synquid_logic::Term;
use synquid_solver::{Lemma, MemoStats, SmtResult, ValidityCacheStats};
use synquid_telemetry::{events, events::Event};

/// A long-lived synthesis session: the one cache bundle every entry
/// point borrows. Cloning shares the session.
#[derive(Debug, Clone, Default)]
pub struct SynthesisSession {
    caches: SessionCaches,
}

/// The counters of a session's four cache layers.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SessionStats {
    /// Validity-cache counters.
    pub validity: ValidityCacheStats,
    /// Enumeration-cache counters.
    pub enumeration: MemoStats,
    /// Lemma-store counters.
    pub lemmas: MemoStats,
    /// MUS-memo counters.
    pub mus: MemoStats,
}

impl SessionStats {
    /// The counters accumulated since an earlier snapshot of the same
    /// session — one run's traffic against a resident session. Gauges
    /// (entries, epoch) keep their end-of-run values.
    pub fn since(&self, earlier: &SessionStats) -> SessionStats {
        SessionStats {
            validity: self.validity.since(&earlier.validity),
            enumeration: self.enumeration.since(&earlier.enumeration),
            lemmas: self.lemmas.since(&earlier.lemmas),
            mus: self.mus.since(&earlier.mus),
        }
    }
}

/// Version tag of the snapshot container format.
const SNAPSHOT_HEADER: &str = "synquid-session v2";

/// Escapes a lemma atom key for the space-separated snapshot line
/// format. Keys are arbitrary strings (pretty-printed terms, debug
/// renderings), so `%` and every whitespace character are
/// percent-escaped.
fn escape_key(key: &str) -> String {
    let mut out = String::with_capacity(key.len());
    for c in key.chars() {
        match c {
            '%' => out.push_str("%25"),
            ' ' => out.push_str("%20"),
            '\t' => out.push_str("%09"),
            '\n' => out.push_str("%0A"),
            '\r' => out.push_str("%0D"),
            _ => out.push(c),
        }
    }
    out
}

/// Reverses [`escape_key`]. Returns `None` on any escape sequence
/// [`escape_key`] does not produce — a malformed key makes the whole
/// snapshot load cold.
fn unescape_key(field: &str) -> Option<String> {
    let mut out = String::with_capacity(field.len());
    let mut chars = field.chars();
    while let Some(c) = chars.next() {
        if c != '%' {
            out.push(c);
            continue;
        }
        match (chars.next(), chars.next()) {
            (Some('2'), Some('5')) => out.push('%'),
            (Some('2'), Some('0')) => out.push(' '),
            (Some('0'), Some('9')) => out.push('\t'),
            (Some('0'), Some('A')) => out.push('\n'),
            (Some('0'), Some('D')) => out.push('\r'),
            _ => return None,
        }
    }
    Some(out)
}

/// What [`SynthesisSession::warm_start`] managed to load.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WarmStart {
    /// Validity verdicts preloaded.
    pub validity_entries: usize,
    /// Lemmas preloaded.
    pub lemmas: usize,
    /// True if the snapshot was unusable (missing/stale/corrupt) and
    /// the session starts cold instead.
    pub cold: bool,
}

impl SynthesisSession {
    /// Creates an empty session, every layer at its default bound.
    pub fn new() -> SynthesisSession {
        SynthesisSession::default()
    }

    /// Creates a session on `caches`, e.g. a bundle whose layers were
    /// built with smaller bounds.
    pub fn with_caches(caches: SessionCaches) -> SynthesisSession {
        SynthesisSession { caches }
    }

    /// The session's cache bundle. Callers build their
    /// `SolverContext`s on a clone of it, which shares the tables.
    pub fn caches(&self) -> &SessionCaches {
        &self.caches
    }

    /// Closes one GC epoch in every layer (see the module docs for the
    /// eviction rule). Called by `Engine::run_batch` after each batch;
    /// emits one `session_epoch` trace event summarizing what was
    /// evicted.
    pub fn advance_epoch(&self) {
        self.caches.validity.advance_epoch();
        self.caches.enumeration.advance_epoch();
        self.caches.lemmas.advance_epoch();
        self.caches.mus.advance_epoch();
        events::emit(|| {
            let stats = self.stats();
            Event::new("session_epoch")
                .uint("epoch", stats.validity.epoch as u64)
                .uint("validity_entries", stats.validity.entries as u64)
                .uint("validity_evicted", stats.validity.entries_evicted as u64)
                .uint("terms_interned", stats.validity.terms_interned as u64)
                .uint("terms_evicted", stats.validity.terms_evicted as u64)
                .uint("enum_entries", stats.enumeration.entries as u64)
                .uint("enum_evicted", stats.enumeration.evicted as u64)
                .uint("lemmas_resident", stats.lemmas.entries as u64)
                .uint("lemmas_evicted", stats.lemmas.evicted as u64)
                .uint("mus_entries", stats.mus.entries as u64)
                .uint("mus_evicted", stats.mus.evicted as u64)
        });
    }

    /// The counters of every layer.
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            validity: self.caches.validity.stats(),
            enumeration: self.caches.enumeration.stats(),
            lemmas: self.caches.lemmas.stats(),
            mus: self.caches.mus.stats(),
        }
    }

    /// Serializes the durable cache layers (validity verdicts, then
    /// lemmas) into the versioned snapshot text format. Enumeration sets
    /// are deliberately not persisted: they reference in-memory programs
    /// and types, and rebuilding them is cheap next to re-proving
    /// validity queries. Neither are MUS enumerations: a new line kind
    /// would make older readers load the snapshot cold, and the memo
    /// refills within the first batch after a warm start.
    pub fn serialize(&self) -> String {
        let mut out = String::new();
        out.push_str(SNAPSHOT_HEADER);
        out.push('\n');
        for (antecedent, consequent, result) in self.caches.validity.export_entries() {
            let a = encode_term(&antecedent);
            let c = encode_term(&consequent);
            let verdict = match result {
                SmtResult::Sat => "sat",
                SmtResult::Unsat => "unsat",
                SmtResult::Unknown => continue, // not exported anyway
            };
            // The term encoding embeds whitespace only if an identifier
            // contains it, which the spec grammar never produces; skip
            // such entries rather than corrupt the line format.
            if a.contains(char::is_whitespace) || c.contains(char::is_whitespace) {
                continue;
            }
            out.push_str(&format!("validity {a} {c} {verdict}\n"));
        }
        for lemma in self.caches.lemmas.sorted_keys() {
            out.push_str("lemma");
            for (key, value) in &lemma {
                // Atom keys routinely contain whitespace (pretty-printed
                // terms, `Rational` debug output), so they are
                // percent-escaped to fit the space-separated line format.
                out.push_str(&format!(
                    " {} {}",
                    escape_key(key),
                    if *value { 1 } else { 0 }
                ));
            }
            out.push('\n');
        }
        out
    }

    /// Loads a snapshot produced by [`Self::serialize`], best-effort:
    /// any version mismatch or malformed content makes the whole load a
    /// no-op cold start ([`WarmStart::cold`]) rather than an error —
    /// and never a partial one, so a truncated snapshot cannot seed a
    /// half-restored session.
    pub fn warm_start(&self, snapshot: &str) -> WarmStart {
        let cold = WarmStart {
            cold: true,
            ..WarmStart::default()
        };
        // Parse fully before touching any cache.
        let mut lines = snapshot.lines();
        if lines.next() != Some(SNAPSHOT_HEADER) {
            return cold;
        }
        let mut verdicts: Vec<(Term, Term, SmtResult)> = Vec::new();
        let mut lemmas: Vec<Lemma> = Vec::new();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("validity ") {
                let fields: Vec<&str> = rest.split(' ').collect();
                let [a, c, verdict] = fields.as_slice() else {
                    return cold;
                };
                let result = match *verdict {
                    "sat" => SmtResult::Sat,
                    "unsat" => SmtResult::Unsat,
                    _ => return cold,
                };
                match (decode_term(a), decode_term(c)) {
                    (Ok(a), Ok(c)) => verdicts.push((a, c, result)),
                    _ => return cold,
                }
            } else if let Some(rest) = line.strip_prefix("lemma ") {
                let fields: Vec<&str> = rest.split(' ').collect();
                if fields.is_empty() || !fields.len().is_multiple_of(2) {
                    return cold;
                }
                let mut lemma: Lemma = Vec::with_capacity(fields.len() / 2);
                for pair in fields.chunks(2) {
                    let value = match pair[1] {
                        "0" => false,
                        "1" => true,
                        _ => return cold,
                    };
                    let Some(key) = unescape_key(pair[0]) else {
                        return cold;
                    };
                    lemma.push((key, value));
                }
                lemmas.push(lemma);
            } else {
                return cold;
            }
        }
        // Apply.
        let report = WarmStart {
            validity_entries: verdicts.len(),
            lemmas: lemmas.len(),
            cold: false,
        };
        for (a, c, result) in verdicts {
            self.caches.validity.preload(a, c, result);
        }
        for lemma in lemmas {
            self.caches.lemmas.insert(lemma, ());
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synquid_logic::Sort;

    #[test]
    fn snapshot_round_trips_validity_and_lemmas() {
        let session = SynthesisSession::new();
        let caches = session.caches();
        let x = Term::var("x", Sort::Int);
        caches
            .validity
            .insert(&x.le(Term::int(3)), &Term::ff(), SmtResult::Unsat);
        // Real atom keys contain whitespace and `%` (pretty-printed
        // terms, `Rational { num, den }` debug output) — the snapshot
        // escaping must round-trip them exactly.
        caches.lemmas.insert(
            vec![
                ("le:Rational { num: 0, den: 1 }:1*[v:x]".to_string(), true),
                ("b<=1%".to_string(), false),
            ],
            (),
        );
        let snapshot = session.serialize();

        let restored = SynthesisSession::new();
        let report = restored.warm_start(&snapshot);
        assert!(!report.cold);
        assert_eq!(report.validity_entries, 1);
        assert_eq!(report.lemmas, 1);
        let caches = restored.caches();
        let x = Term::var("x", Sort::Int);
        assert_eq!(
            caches.validity.lookup(&x.le(Term::int(3)), &Term::ff()),
            Some(SmtResult::Unsat)
        );
        assert_eq!(caches.lemmas.stats().entries, 1);
        assert_eq!(
            caches.lemmas.sorted_keys(),
            vec![vec![
                ("le:Rational { num: 0, den: 1 }:1*[v:x]".to_string(), true),
                ("b<=1%".to_string(), false),
            ]],
            "escaped atom keys must round-trip byte-exactly"
        );
    }

    #[test]
    fn corrupt_or_stale_snapshots_warm_start_as_cold() {
        // A well-formed body: one verdict and one lemma.
        let body = "validity i1. i2. sat\nlemma a 1\n";
        let session = SynthesisSession::new();
        let loaded = session.warm_start(&format!("{SNAPSHOT_HEADER}\n{body}"));
        assert_eq!(
            (loaded.cold, loaded.validity_entries, loaded.lemmas),
            (false, 1, 1)
        );
        let stats = session.stats();
        assert_eq!((stats.validity.entries, stats.lemmas.entries), (1, 1));
        // Each bad snapshot carries that body before its fault, so a
        // partial restore would leave entries behind.
        for bad in [
            String::new(),
            "garbage".to_string(),
            format!("synquid-session v0\n{body}"),
            format!("synquid-session v1\nnamespace 0\n{body}"), // stale: v1
            format!("{SNAPSHOT_HEADER}\n{body}namespace 0\n"),  // a v1 line
            format!("{SNAPSHOT_HEADER}\n{body}validity i1. sat\n"), // missing field
            format!("{SNAPSHOT_HEADER}\n{body}validity i1. i2. maybe\n"),
            format!("{SNAPSHOT_HEADER}\n{body}lemma a\n"), // odd fields
            format!("{SNAPSHOT_HEADER}\n{body}lemma a 2\n"), // bad bool
            format!("{SNAPSHOT_HEADER}\n{body}lemma a%ZZ 1\n"), // bad escape
            format!("{SNAPSHOT_HEADER}\n{body}validity qq i2. sat\n"), // bad term
            format!("{SNAPSHOT_HEADER}\n{body}whatisthis\n"),
        ] {
            let session = SynthesisSession::new();
            let report = session.warm_start(&bad);
            assert!(report.cold, "{bad:?} must fall back to cold");
            assert_eq!(report.validity_entries + report.lemmas, 0);
            let stats = session.stats();
            assert_eq!(
                (stats.validity.entries, stats.lemmas.entries),
                (0, 0),
                "cold start must not restore part of {bad:?}"
            );
        }
    }

    #[test]
    fn epoch_advance_reaches_every_layer() {
        let session = SynthesisSession::new();
        session
            .caches()
            .validity
            .insert(&Term::tt(), &Term::ff(), SmtResult::Sat);
        session.advance_epoch();
        session.advance_epoch();
        session.advance_epoch();
        let stats = session.stats();
        assert_eq!(stats.validity.entries, 0, "cold entries evicted");
        assert_eq!(stats.validity.epoch, 3);
        assert_eq!(stats.enumeration.epoch, 3);
        assert_eq!(stats.lemmas.epoch, 3);
        assert_eq!(stats.mus.epoch, 3);
    }
}
