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
//! # Namespacing
//!
//! Cross-goal state is only worth sharing between goals that speak the
//! same language: caches are keyed by a [`LibraryFingerprint`] — a hash
//! of the component library (datatypes, measures, component signatures,
//! qualifier sets) — and a mismatched fingerprint gets a fresh cache
//! namespace. Namespacing is a pollution/fairness boundary, not a
//! soundness one: validity keys are whole formulas, enumeration keys
//! embed the full environment fingerprint, MUS keys are whole
//! strengthening problems, and lemmas are facts about portable atom
//! keys, so even a fingerprint collision could not make a cached verdict
//! wrong — it would only let two libraries share a namespace's budget.
//!
//! # Epochs and eviction
//!
//! Each batch run against the session closes one GC epoch
//! ([`SynthesisSession::advance_epoch`], called by
//! [`Engine::run_batch`](crate::Engine::run_batch)): entries touched
//! this epoch survive, entries cold for two full epochs are evicted,
//! and every cache also enforces a size bound with an once-per-epoch
//! cold sweep on overflow (see [`SessionLimits`]). Eviction is always
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

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex};
use synquid_core::{EnumerationCache, SessionCaches, ENUMERATION_MAX_ENTRIES};
use synquid_logic::snapshot::{decode_term, encode_term};
use synquid_solver::{
    MemoStats, MusMemo, SharedLemmaStore, SharedValidityCache, SmtResult, ValidityCacheStats,
    MAX_LEMMAS,
};
use synquid_telemetry::{events, events::Event};
use synquid_types::Environment;

/// Size bounds for each cache layer of a session namespace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionLimits {
    /// Stored `(antecedent, consequent)` verdicts per namespace.
    pub validity_entries: usize,
    /// Stored enumeration candidate sets per namespace.
    pub enumeration_entries: usize,
    /// Resident theory lemmas per namespace.
    pub lemmas: usize,
    /// Stored MUS enumerations per namespace.
    pub mus_entries: usize,
}

impl Default for SessionLimits {
    fn default() -> SessionLimits {
        SessionLimits {
            validity_entries: SharedValidityCache::DEFAULT_MAX_ENTRIES,
            enumeration_entries: ENUMERATION_MAX_ENTRIES,
            lemmas: MAX_LEMMAS,
            mus_entries: MusMemo::DEFAULT_MAX_ENTRIES,
        }
    }
}

/// The component-library key of one cache namespace: a 128-bit FNV-1a
/// hash over a canonical rendering of the environment's datatypes
/// (constructors included), measures, component signatures (in
/// declaration order), and qualifier set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LibraryFingerprint(u128);

impl LibraryFingerprint {
    /// Fingerprints a goal's top-level environment.
    pub fn of_env(env: &Environment) -> LibraryFingerprint {
        // `Environment::fingerprint` canonically renders component
        // signatures, path conditions (empty at the top level),
        // qualifiers, and measures; datatypes (with constructor
        // signatures) are appended through their deterministic
        // `BTreeMap` order.
        let mut text = env.fingerprint();
        for (name, dt) in env.datatypes() {
            text.push_str("d ");
            text.push_str(name);
            text.push(':');
            text.push_str(&format!("{dt:?}"));
            text.push(';');
        }
        LibraryFingerprint(fnv1a_128(text.as_bytes()))
    }

    fn from_hex(hex: &str) -> Option<LibraryFingerprint> {
        u128::from_str_radix(hex, 16).ok().map(LibraryFingerprint)
    }
}

impl fmt::Display for LibraryFingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// 128-bit FNV-1a; dependency-free and stable across platforms and
/// process runs (unlike `DefaultHasher`, whose seeds vary).
fn fnv1a_128(bytes: &[u8]) -> u128 {
    const OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
    const PRIME: u128 = 0x0000000001000000000000000000013b;
    let mut hash = OFFSET;
    for &b in bytes {
        hash ^= b as u128;
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

#[derive(Debug)]
struct SessionState {
    namespaces: BTreeMap<LibraryFingerprint, SessionCaches>,
    limits: SessionLimits,
    /// GC epochs closed so far (== batch runs completed against this
    /// session).
    epochs: usize,
}

/// A long-lived synthesis session: the owner of all cross-goal caches,
/// shared by every entry point. Cloning shares the session.
#[derive(Debug, Clone)]
pub struct SynthesisSession {
    inner: Arc<Mutex<SessionState>>,
}

impl Default for SynthesisSession {
    fn default() -> SynthesisSession {
        SynthesisSession::new()
    }
}

/// Aggregated counters of a session (summed over its namespaces).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SessionStats {
    /// Validity-cache counters, summed across namespaces.
    pub validity: ValidityCacheStats,
    /// Enumeration-cache counters, summed across namespaces.
    pub enumeration: MemoStats,
    /// Lemma-store counters, summed across namespaces.
    pub lemmas: MemoStats,
    /// MUS-memo counters, summed across namespaces.
    pub mus: MemoStats,
    /// Distinct library namespaces resident.
    pub namespaces: usize,
    /// GC epochs closed (== batch runs completed).
    pub epochs: usize,
}

impl SessionStats {
    /// The counters accumulated since an earlier snapshot of the same
    /// session — one run's traffic against a resident session. Gauges
    /// (entries, namespaces, epochs) keep their end-of-run values.
    pub fn since(&self, earlier: &SessionStats) -> SessionStats {
        SessionStats {
            validity: self.validity.since(&earlier.validity),
            enumeration: self.enumeration.since(&earlier.enumeration),
            lemmas: self.lemmas.since(&earlier.lemmas),
            mus: self.mus.since(&earlier.mus),
            namespaces: self.namespaces,
            epochs: self.epochs,
        }
    }
}

/// Version tag of the snapshot container format.
const SNAPSHOT_HEADER: &str = "synquid-session v1";

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
    /// Library namespaces restored.
    pub namespaces: usize,
    /// True if the snapshot was unusable (missing/stale/corrupt) and
    /// the session starts cold instead.
    pub cold: bool,
}

impl SynthesisSession {
    /// Creates an empty session with default cache limits.
    pub fn new() -> SynthesisSession {
        SynthesisSession::with_limits(SessionLimits::default())
    }

    /// Creates an empty session with explicit cache limits (applied to
    /// every namespace created from now on).
    pub fn with_limits(limits: SessionLimits) -> SynthesisSession {
        SynthesisSession {
            inner: Arc::new(Mutex::new(SessionState {
                namespaces: BTreeMap::new(),
                limits,
                epochs: 0,
            })),
        }
    }

    /// The cache namespace for one component library, created on first
    /// use. Callers build their `SolverContext`s on the returned bundle;
    /// two environments with the same fingerprint share state, different
    /// fingerprints never do.
    pub fn caches_for(&self, fingerprint: LibraryFingerprint) -> SessionCaches {
        let mut state = self.inner.lock().expect("session poisoned");
        let limits = state.limits;
        state
            .namespaces
            .entry(fingerprint)
            .or_insert_with(|| SessionCaches {
                validity: SharedValidityCache::with_max_entries(limits.validity_entries),
                enumeration: EnumerationCache::with_max_entries(limits.enumeration_entries),
                lemmas: SharedLemmaStore::with_max_entries(limits.lemmas),
                mus: MusMemo::with_max_entries(limits.mus_entries),
            })
            .clone()
    }

    /// Convenience: [`LibraryFingerprint::of_env`] + [`Self::caches_for`].
    pub fn caches_for_env(&self, env: &Environment) -> SessionCaches {
        self.caches_for(LibraryFingerprint::of_env(env))
    }

    /// Closes one GC epoch across every namespace (see the module docs
    /// for the eviction rule). Called by `Engine::run_batch` after each
    /// batch; emits one `session_epoch` trace event summarizing what
    /// was evicted.
    pub fn advance_epoch(&self) {
        let mut state = self.inner.lock().expect("session poisoned");
        for caches in state.namespaces.values() {
            caches.validity.advance_epoch();
            caches.enumeration.advance_epoch();
            caches.lemmas.advance_epoch();
            caches.mus.advance_epoch();
        }
        state.epochs += 1;
        let stats = Self::sum_stats(&state);
        events::emit(|| {
            Event::new("session_epoch")
                .uint("epoch", stats.epochs as u64)
                .uint("namespaces", stats.namespaces as u64)
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

    /// Aggregated counters over all namespaces.
    pub fn stats(&self) -> SessionStats {
        let state = self.inner.lock().expect("session poisoned");
        Self::sum_stats(&state)
    }

    fn sum_stats(state: &SessionState) -> SessionStats {
        let mut out = SessionStats {
            namespaces: state.namespaces.len(),
            epochs: state.epochs,
            ..SessionStats::default()
        };
        for caches in state.namespaces.values() {
            let v = caches.validity.stats();
            out.validity.hits += v.hits;
            out.validity.misses += v.misses;
            out.validity.negative_hits += v.negative_hits;
            out.validity.entries += v.entries;
            out.validity.interned_nodes += v.interned_nodes;
            out.validity.entries_evicted += v.entries_evicted;
            out.validity.terms_interned += v.terms_interned;
            out.validity.terms_evicted += v.terms_evicted;
            out.validity.epoch = out.validity.epoch.max(v.epoch);
            out.enumeration.merge(&caches.enumeration.stats());
            out.lemmas.merge(&caches.lemmas.stats());
            out.mus.merge(&caches.mus.stats());
        }
        out
    }

    /// Serializes the durable cache layers (validity verdicts and
    /// lemmas, per namespace) into the versioned snapshot text format.
    /// Enumeration sets are deliberately not persisted: they reference
    /// in-memory programs and types, and rebuilding them is cheap next
    /// to re-proving validity queries. Neither are MUS enumerations: a
    /// new line kind would make v1 readers load the snapshot cold, and
    /// the memo refills within the first batch after a warm start.
    pub fn serialize(&self) -> String {
        let state = self.inner.lock().expect("session poisoned");
        let mut out = String::new();
        out.push_str(SNAPSHOT_HEADER);
        out.push('\n');
        for (fingerprint, caches) in &state.namespaces {
            out.push_str(&format!("namespace {fingerprint}\n"));
            for (antecedent, consequent, result) in caches.validity.export_entries() {
                let a = encode_term(&antecedent);
                let c = encode_term(&consequent);
                let verdict = match result {
                    SmtResult::Sat => "sat",
                    SmtResult::Unsat => "unsat",
                    SmtResult::Unknown => continue, // not exported anyway
                };
                // The term encoding embeds whitespace only if an
                // identifier contains it, which the spec grammar never
                // produces; skip such entries rather than corrupt the
                // line format.
                if a.contains(char::is_whitespace) || c.contains(char::is_whitespace) {
                    continue;
                }
                out.push_str(&format!("validity {a} {c} {verdict}\n"));
            }
            for lemma in caches.lemmas.sorted_keys() {
                out.push_str("lemma");
                for (key, value) in &lemma {
                    // Atom keys routinely contain whitespace (pretty-
                    // printed terms, `Rational` debug output), so they
                    // are percent-escaped to fit the space-separated
                    // line format.
                    out.push_str(&format!(
                        " {} {}",
                        escape_key(key),
                        if *value { 1 } else { 0 }
                    ));
                }
                out.push('\n');
            }
        }
        out
    }

    /// Loads a snapshot produced by [`Self::serialize`], best-effort:
    /// any version mismatch or malformed content makes the whole load a
    /// no-op cold start ([`WarmStart::cold`]) rather than an error —
    /// and never a partial one, so a truncated snapshot cannot seed a
    /// half-restored namespace.
    pub fn warm_start(&self, snapshot: &str) -> WarmStart {
        // Parse fully before touching any cache.
        let mut lines = snapshot.lines();
        if lines.next() != Some(SNAPSHOT_HEADER) {
            return WarmStart {
                cold: true,
                ..WarmStart::default()
            };
        }
        type Verdicts = Vec<(synquid_logic::Term, synquid_logic::Term, SmtResult)>;
        type Lemmas = Vec<synquid_solver::Lemma>;
        let mut parsed: Vec<(LibraryFingerprint, Verdicts, Lemmas)> = Vec::new();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let cold = WarmStart {
                cold: true,
                ..WarmStart::default()
            };
            if let Some(hex) = line.strip_prefix("namespace ") {
                match LibraryFingerprint::from_hex(hex) {
                    Some(fp) => parsed.push((fp, Vec::new(), Vec::new())),
                    None => return cold,
                }
            } else if let Some(rest) = line.strip_prefix("validity ") {
                let Some((_, verdicts, _)) = parsed.last_mut() else {
                    return cold;
                };
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
                let Some((_, _, lemmas)) = parsed.last_mut() else {
                    return cold;
                };
                let fields: Vec<&str> = rest.split(' ').collect();
                if fields.is_empty() || !fields.len().is_multiple_of(2) {
                    return cold;
                }
                let mut lemma: synquid_solver::Lemma = Vec::with_capacity(fields.len() / 2);
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
        let mut report = WarmStart::default();
        for (fingerprint, verdicts, lemmas) in parsed {
            let caches = self.caches_for(fingerprint);
            report.namespaces += 1;
            for (a, c, result) in verdicts {
                caches.validity.preload(a, c, result);
                report.validity_entries += 1;
            }
            for lemma in lemmas {
                caches.lemmas.insert(lemma, ());
                report.lemmas += 1;
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synquid_logic::{Qualifier, Sort, Term};
    use synquid_types::{RType, Schema};

    fn library(extra_component: bool) -> Environment {
        let mut env = Environment::new();
        env.add_qualifiers(Qualifier::standard(Sort::Int));
        env.add_var("zero", Schema::monotype(RType::int()));
        if extra_component {
            env.add_var(
                "inc",
                Schema::monotype(RType::fun("n", RType::int(), RType::int())),
            );
        }
        env
    }

    #[test]
    fn same_library_shares_a_namespace_different_libraries_do_not() {
        let session = SynthesisSession::new();
        let a = session.caches_for_env(&library(false));
        let b = session.caches_for_env(&library(false));
        let c = session.caches_for_env(&library(true));
        a.validity.insert(&Term::tt(), &Term::ff(), SmtResult::Sat);
        assert_eq!(
            b.validity.lookup(&Term::tt(), &Term::ff()),
            Some(SmtResult::Sat),
            "equal fingerprints share one cache"
        );
        assert_eq!(
            c.validity.lookup(&Term::tt(), &Term::ff()),
            None,
            "different fingerprints are isolated"
        );
        assert_eq!(session.stats().namespaces, 2);
    }

    #[test]
    fn fingerprints_are_stable_and_sensitive() {
        let f1 = LibraryFingerprint::of_env(&library(false));
        let f2 = LibraryFingerprint::of_env(&library(false));
        let f3 = LibraryFingerprint::of_env(&library(true));
        assert_eq!(f1, f2);
        assert_ne!(f1, f3);
        // Hex round trip (the snapshot format).
        assert_eq!(LibraryFingerprint::from_hex(&f1.to_string()), Some(f1));
    }

    #[test]
    fn qualifier_and_datatype_changes_change_the_fingerprint() {
        let plain = library(false);
        let mut more_qualifiers = library(false);
        more_qualifiers
            .add_qualifiers([Qualifier::new(Term::value_var(Sort::Int).ge(Term::int(0)))]);
        let mut with_datatype = library(false);
        with_datatype.add_datatype(synquid_types::list_datatype());
        let fp = LibraryFingerprint::of_env;
        assert_ne!(fp(&plain), fp(&more_qualifiers));
        assert_ne!(fp(&plain), fp(&with_datatype));
    }

    #[test]
    fn snapshot_round_trips_validity_and_lemmas() {
        let session = SynthesisSession::new();
        let caches = session.caches_for_env(&library(false));
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
        assert_eq!(report.namespaces, 1);
        let caches = restored.caches_for_env(&library(false));
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
        assert_eq!(restored.stats().namespaces, 1);
    }

    #[test]
    fn corrupt_or_stale_snapshots_warm_start_as_cold() {
        for bad in [
            "",
            "synquid-session v0\nnamespace 00\n",
            "garbage",
            "synquid-session v1\nvalidity i1. i2. sat\n", // entry before namespace
            "synquid-session v1\nnamespace zz-not-hex\n",
            "synquid-session v1\nnamespace 0\nvalidity i1. sat\n", // missing field
            "synquid-session v1\nnamespace 0\nvalidity i1. i2. maybe\n",
            "synquid-session v1\nnamespace 0\nlemma a\n", // odd fields
            "synquid-session v1\nnamespace 0\nlemma a 2\n", // bad bool
            "synquid-session v1\nnamespace 0\nlemma a%ZZ 1\n", // bad escape
            "synquid-session v1\nnamespace 0\nvalidity qq i2. sat\n", // bad term
            "synquid-session v1\nnamespace 0\nwhatisthis\n",
        ] {
            let session = SynthesisSession::new();
            let report = session.warm_start(bad);
            assert!(report.cold, "{bad:?} must fall back to cold");
            assert_eq!(report.validity_entries + report.lemmas, 0);
            assert_eq!(
                session.stats().namespaces,
                0,
                "cold start must not leave partial namespaces: {bad:?}"
            );
        }
    }

    #[test]
    fn epoch_advance_reaches_every_layer() {
        let session = SynthesisSession::new();
        let caches = session.caches_for_env(&library(false));
        caches
            .validity
            .insert(&Term::tt(), &Term::ff(), SmtResult::Sat);
        session.advance_epoch();
        session.advance_epoch();
        session.advance_epoch();
        let stats = session.stats();
        assert_eq!(stats.epochs, 3);
        assert_eq!(stats.validity.entries, 0, "cold entries evicted");
        assert_eq!(stats.validity.epoch, 3);
        assert_eq!(stats.enumeration.epoch, 3);
        assert_eq!(stats.lemmas.epoch, 3);
        assert_eq!(stats.mus.epoch, 3);
    }
}
