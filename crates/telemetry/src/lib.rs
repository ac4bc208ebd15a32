//! Phase-attributed telemetry for the synthesis pipeline.
//!
//! Two independent instruments and the codec their output goes through
//! share this crate:
//!
//! * a hierarchical **span profiler** ([`span`]): scopes in the
//!   synthesizer, the type checker and the SMT solver open a span for one
//!   of the fixed [`Phase`]s; elapsed wall time is aggregated per phase
//!   into a thread-local [`PhaseProfile`]. Attribution is *exclusive*
//!   (self-time): time spent in a nested span is charged to the nested
//!   span's phase only, so the per-phase totals of a profile are additive
//!   and sum to at most the instrumented wall time. When profiling is
//!   disabled (the default), a span costs one relaxed atomic load — there
//!   is no compile-time feature gate to get wrong;
//! * a **structured event sink** ([`events`]): typed trace events
//!   (candidate accept/reject, rung lifecycle, ledger movements, lemma
//!   learn/replay, cache hit/miss) rendered as JSON Lines to a file or
//!   to stderr (`--trace-out PATH` / `SYNQUID_TRACE_OUT=PATH`, `-` for
//!   stderr). A disabled event costs one relaxed atomic load; event
//!   construction is deferred behind a closure;
//! * the workspace's one **JSON codec** ([`json`]): a value type, a
//!   string escaper, a compact and a one-entry-per-line writer, and a
//!   strict RFC 8259 parser. Event lines, phase profiles, the Perfetto
//!   export and the BENCH and fuzz artifacts are all written and read
//!   through it.
//!
//! The profiler's thread-locality is deliberate: one synthesis run stays
//! on one worker thread, so a run's profile is a [`window`] opened around
//! it, with no locks on the hot path and no cross-worker bleed. Windows
//! nest (a derivation node inside a run); each reports the maxima of its own
//! spans only. What is *stable* across runs for a fixed goal and
//! configuration is the per-phase span **counts** (the search is
//! deterministic); totals and maxima are wall-clock measurements and vary.

pub mod events;
pub mod json;

use json::Json;
use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

// ---------------------------------------------------------------------
// Phases
// ---------------------------------------------------------------------

/// The fixed taxonomy of profiled phases, covering the pipeline from
/// source text to SMT verdict. One span = one dynamic occurrence of a
/// phase; nesting is allowed and self-time attribution keeps totals
/// additive (e.g. a `Generation` span charging only the time not spent in
/// the `MemoLookup` or SMT spans below it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum Phase {
    /// Lexing + parsing a `.sq` specification.
    Parse,
    /// Desugaring the parsed spec into goals and environments.
    Desugar,
    /// Goal-blind E-term generation (the memoized enumerator).
    Generation,
    /// Enumeration-memo probes.
    MemoLookup,
    /// Round-trip consistency checks (Fig. 5 pruning).
    Consistency,
    /// Subtyping constraints (incl. liquid-abduction strengthening).
    Subtyping,
    /// Horn strengthening — the liquid-abduction fixpoint step.
    Abduction,
    /// Formula → CNF encoding: theory-atom extraction, then the solver
    /// session's Tseitin clauses, bound axioms and lemma replay.
    Encode,
    /// CDCL SAT search inside the DPLL(T) loop.
    Sat,
    /// The main DPLL(T) loop's theory step: collecting a boolean
    /// model's arithmetic literals and their LIA (simplex +
    /// branch&bound) check.
    Lia,
    /// Unsat-core shrinking and MUS enumeration (chunked deletion, MARCO).
    /// This phase is attributed *inclusively* of the theory checks issued
    /// while shrinking — matching how the solver's cost was historically
    /// profiled — so `Lia` counts only main-loop first checks.
    CoreShrink,
    /// Validity-cache probes and inserts (local memo + shared cache).
    CacheLookup,
}

/// Number of [`Phase`] variants.
pub const PHASE_COUNT: usize = 12;

impl Phase {
    /// Every phase, in declaration (pipeline) order.
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::Parse,
        Phase::Desugar,
        Phase::Generation,
        Phase::MemoLookup,
        Phase::Consistency,
        Phase::Subtyping,
        Phase::Abduction,
        Phase::Encode,
        Phase::Sat,
        Phase::Lia,
        Phase::CoreShrink,
        Phase::CacheLookup,
    ];

    /// The stable wire name of the phase (used in JSON and tables).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Parse => "parse",
            Phase::Desugar => "desugar",
            Phase::Generation => "generation",
            Phase::MemoLookup => "memo-lookup",
            Phase::Consistency => "consistency",
            Phase::Subtyping => "subtyping",
            Phase::Abduction => "abduction",
            Phase::Encode => "encode",
            Phase::Sat => "sat",
            Phase::Lia => "lia",
            Phase::CoreShrink => "core-shrink",
            Phase::CacheLookup => "cache-lookup",
        }
    }

    /// Inverse of [`Phase::name`].
    pub fn from_name(name: &str) -> Option<Phase> {
        Phase::ALL.into_iter().find(|p| p.name() == name)
    }
}

// ---------------------------------------------------------------------
// Profiles
// ---------------------------------------------------------------------

/// Aggregated measurements of one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseStat {
    /// Exclusive (self-time) nanoseconds across all spans of the phase.
    pub total_nanos: u64,
    /// Number of spans recorded.
    pub count: u64,
    /// Longest single span, *inclusive* of nested spans (a worst-case
    /// latency indicator, deliberately not additive).
    pub max_nanos: u64,
}

impl PhaseStat {
    /// Exclusive total in seconds.
    pub fn total_secs(&self) -> f64 {
        self.total_nanos as f64 / 1e9
    }

    /// Longest single span in seconds.
    pub fn max_secs(&self) -> f64 {
        self.max_nanos as f64 / 1e9
    }
}

/// Per-phase aggregation of one profiling window (one synthesis run, one
/// solver benchmark, one batch): totals, counts and maxima indexed by
/// [`Phase`]. `Copy` so it rides the existing stats structs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseProfile {
    stats: [PhaseStat; PHASE_COUNT],
}

impl PhaseProfile {
    /// The aggregate of one phase.
    pub fn get(&self, phase: Phase) -> PhaseStat {
        self.stats[phase as usize]
    }

    /// True if no span was recorded in the window.
    pub fn is_empty(&self) -> bool {
        self.stats.iter().all(|s| s.count == 0)
    }

    /// Sum of the exclusive per-phase totals, in seconds.
    pub fn total_secs(&self) -> f64 {
        self.stats.iter().map(|s| s.total_nanos).sum::<u64>() as f64 / 1e9
    }

    /// The per-phase span counts (the deterministic part of a profile).
    pub fn counts(&self) -> [u64; PHASE_COUNT] {
        let mut out = [0u64; PHASE_COUNT];
        for (slot, stat) in out.iter_mut().zip(&self.stats) {
            *slot = stat.count;
        }
        out
    }

    /// Adds `other`'s totals and counts into `self` (maxima combine by
    /// `max`). Used to fold per-goal profiles into batch aggregates.
    pub fn merge(&mut self, other: &PhaseProfile) {
        for (into, from) in self.stats.iter_mut().zip(&other.stats) {
            into.total_nanos += from.total_nanos;
            into.count += from.count;
            into.max_nanos = into.max_nanos.max(from.max_nanos);
        }
    }

    /// The totals and counts accumulated since `base` was snapshot from
    /// the same thread. Maxima are left zero: two cumulative snapshots
    /// cannot tell which spans closed in between, so a window's maxima
    /// come from the window stack (see [`window`]).
    fn delta_since(&self, base: &PhaseProfile) -> PhaseProfile {
        let mut out = PhaseProfile::default();
        for i in 0..PHASE_COUNT {
            let (now, then) = (&self.stats[i], &base.stats[i]);
            out.stats[i] = PhaseStat {
                total_nanos: now.total_nanos.saturating_sub(then.total_nanos),
                count: now.count.saturating_sub(then.count),
                max_nanos: 0,
            };
        }
        out
    }

    /// Reads the object `Json::from(&profile)` writes. Unknown phase
    /// names are skipped so newer producers stay readable; a phase entry
    /// without `secs`, `count` and `max_secs` is `None`. Seconds re-enter
    /// as nanoseconds, cut at the microsecond the writer printed.
    pub fn from_json(value: &Json) -> Option<PhaseProfile> {
        let Json::Obj(phases) = value else {
            return None;
        };
        let mut profile = PhaseProfile::default();
        for (name, entry) in phases {
            let nanos = |key| Some((entry.get(key)?.as_f64()? * 1e9) as u64);
            let stat = PhaseStat {
                total_nanos: nanos("secs")?,
                count: entry.get("count")?.as_u64()?,
                max_nanos: nanos("max_secs")?,
            };
            if let Some(phase) = Phase::from_name(name) {
                profile.stats[phase as usize] = stat;
            }
        }
        Some(profile)
    }

    /// Renders an aligned text table of the non-empty phases, largest
    /// exclusive total first, each line prefixed with `indent`. Each row
    /// shows both absolute seconds and the share of the profile's total,
    /// so a dominant phase is visible at a glance whatever the scale.
    pub fn table(&self, indent: &str) -> String {
        let mut rows: Vec<(Phase, PhaseStat)> = Phase::ALL
            .into_iter()
            .map(|p| (p, self.get(p)))
            .filter(|(_, s)| s.count > 0)
            .collect();
        rows.sort_by_key(|row| std::cmp::Reverse(row.1.total_nanos));
        let total = self.total_secs();
        let mut out = format!(
            "{indent}{:<14} {:>10} {:>7} {:>10} {:>10}\n",
            "phase", "self(s)", "%", "count", "max(s)"
        );
        for (phase, stat) in rows {
            let share = if total > 0.0 {
                100.0 * stat.total_secs() / total
            } else {
                0.0
            };
            out.push_str(&format!(
                "{indent}{:<14} {:>10.3} {:>6.1}% {:>10} {:>10.3}\n",
                phase.name(),
                stat.total_secs(),
                share,
                stat.count,
                stat.max_secs()
            ));
        }
        out
    }
}

/// The profile as an object keyed by phase name, omitting phases with no
/// spans: `{"sat":{"secs":1.234567,"count":42,"max_secs":0.100000},…}`.
impl From<&PhaseProfile> for Json {
    fn from(profile: &PhaseProfile) -> Json {
        Json::obj(
            Phase::ALL
                .into_iter()
                .map(|phase| (phase.name(), profile.get(phase)))
                .filter(|(_, stat)| stat.count > 0)
                .map(|(name, stat)| {
                    let stat = Json::obj([
                        ("secs", Json::fixed(stat.total_secs(), 6)),
                        ("count", stat.count.into()),
                        ("max_secs", Json::fixed(stat.max_secs(), 6)),
                    ]);
                    (name, stat)
                }),
        )
    }
}

// ---------------------------------------------------------------------
// The profiler
// ---------------------------------------------------------------------

static PROFILING: AtomicBool = AtomicBool::new(false);

/// True if span profiling is on (see [`set_profiling`]). This load is the
/// *entire* cost of a span when profiling is off.
#[inline]
pub fn profiling_enabled() -> bool {
    PROFILING.load(Ordering::Relaxed)
}

/// Turns span profiling on or off for the whole process (e.g. from
/// `--stats` in the CLI, or from a benchmark harness).
pub fn set_profiling(on: bool) {
    PROFILING.store(on, Ordering::Relaxed);
}

struct ThreadProfiler {
    /// Nanoseconds consumed by already-closed *child* spans of each open
    /// span, innermost last — what self-time attribution subtracts.
    child_nanos: Vec<u64>,
    /// Per-phase maxima of the open windows, innermost last. A closing
    /// span raises only the innermost window; a closing window folds its
    /// maxima into the window around it.
    window_max: Vec<[u64; PHASE_COUNT]>,
    agg: PhaseProfile,
}

impl PhaseProfile {
    const EMPTY: PhaseProfile = PhaseProfile {
        stats: [PhaseStat {
            total_nanos: 0,
            count: 0,
            max_nanos: 0,
        }; PHASE_COUNT],
    };
}

thread_local! {
    static PROFILER: RefCell<ThreadProfiler> = const {
        RefCell::new(ThreadProfiler {
            child_nanos: Vec::new(),
            window_max: Vec::new(),
            agg: PhaseProfile::EMPTY,
        })
    };
}

/// An open span; recorded into the thread-local profile on drop. Spans
/// must be closed in LIFO order (bind to a scope-local `let _span = …`).
#[must_use = "a span measures the scope it is bound in"]
pub struct Span {
    phase: Phase,
    start: Option<Instant>,
}

/// Opens a span of `phase` on this thread. When profiling is disabled the
/// returned guard is inert and the call costs one atomic load.
#[inline]
pub fn span(phase: Phase) -> Span {
    if !profiling_enabled() {
        return Span { phase, start: None };
    }
    PROFILER.with(|p| p.borrow_mut().child_nanos.push(0));
    Span {
        phase,
        start: Some(Instant::now()),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else {
            return;
        };
        let elapsed = start.elapsed().as_nanos() as u64;
        PROFILER.with(|p| {
            let p = &mut *p.borrow_mut();
            let child = p.child_nanos.pop().unwrap_or(0);
            if let Some(parent) = p.child_nanos.last_mut() {
                *parent += elapsed;
            }
            let phase = self.phase as usize;
            let stat = &mut p.agg.stats[phase];
            stat.total_nanos += elapsed.saturating_sub(child);
            stat.count += 1;
            stat.max_nanos = stat.max_nanos.max(elapsed);
            if let Some(window) = p.window_max.last_mut() {
                window[phase] = window[phase].max(elapsed);
            }
        });
    }
}

/// A copy of this thread's cumulative profile.
pub fn snapshot() -> PhaseProfile {
    PROFILER.with(|p| p.borrow().agg)
}

/// An open profiling window on this thread (see [`window`]).
#[must_use = "a window measures until it is closed"]
pub struct Window {
    base: PhaseProfile,
    /// Not `Send`: the window stack it pops on close is thread-local.
    _thread: PhantomData<*const ()>,
}

/// Opens a profiling window on this thread, or returns `None` when
/// profiling is off. [`Window::close`] returns what the spans closed
/// while the window was open recorded: totals, counts, and maxima of
/// that window alone. Windows nest and must close in LIFO order; a
/// window dropped without `close` is discarded.
pub fn window() -> Option<Window> {
    if !profiling_enabled() {
        return None;
    }
    PROFILER.with(|p| {
        let mut p = p.borrow_mut();
        p.window_max.push([0; PHASE_COUNT]);
        Some(Window {
            base: p.agg,
            _thread: PhantomData,
        })
    })
}

impl Window {
    /// Closes the window and returns its profile.
    pub fn close(self) -> PhaseProfile {
        let (now, maxima) = PROFILER.with(|p| {
            let p = p.borrow();
            let maxima = p.window_max.last().copied().unwrap_or([0; PHASE_COUNT]);
            (p.agg, maxima)
        });
        let mut out = now.delta_since(&self.base);
        for (stat, max) in out.stats.iter_mut().zip(maxima) {
            stat.max_nanos = max;
        }
        out
    }
}

impl Drop for Window {
    fn drop(&mut self) {
        PROFILER.with(|p| {
            let mut p = p.borrow_mut();
            let closed = p.window_max.pop().unwrap_or([0; PHASE_COUNT]);
            if let Some(outer) = p.window_max.last_mut() {
                for (into, max) in outer.iter_mut().zip(closed) {
                    *into = (*into).max(max);
                }
            }
        });
    }
}

/// Zeroes this thread's cumulative profile. Only meaningful while no span
/// is open on the thread (tests and benchmark harnesses between cases).
pub fn reset_thread_profile() {
    PROFILER.with(|p| {
        let mut p = p.borrow_mut();
        debug_assert!(p.child_nanos.is_empty(), "reset with open spans");
        debug_assert!(p.window_max.is_empty(), "reset with open windows");
        p.agg = PhaseProfile::default();
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serializes tests that flip the process-global profiling switch.
    static GLOBAL_FLAG: Mutex<()> = Mutex::new(());

    fn with_profiling<R>(f: impl FnOnce() -> R) -> R {
        let _guard = GLOBAL_FLAG.lock().unwrap();
        set_profiling(true);
        reset_thread_profile();
        let out = f();
        set_profiling(false);
        reset_thread_profile();
        out
    }

    #[test]
    fn nested_spans_attribute_self_time() {
        let profile = with_profiling(|| {
            {
                let _outer = span(Phase::Generation);
                std::thread::sleep(std::time::Duration::from_millis(6));
                {
                    let _inner = span(Phase::Sat);
                    std::thread::sleep(std::time::Duration::from_millis(6));
                }
            }
            snapshot()
        });
        let generation = profile.get(Phase::Generation);
        let sat = profile.get(Phase::Sat);
        assert_eq!(generation.count, 1);
        assert_eq!(sat.count, 1);
        // Self-time: the outer span does not absorb the inner sleep.
        assert!(sat.total_nanos >= 5_000_000);
        assert!(generation.total_nanos >= 5_000_000);
        assert!(
            generation.total_nanos < generation.max_nanos,
            "outer self-time {} must be below its inclusive max {}",
            generation.total_nanos,
            generation.max_nanos
        );
        // The inclusive max of the outer span covers both sleeps.
        assert!(generation.max_nanos >= 10_000_000);
    }

    #[test]
    fn disabled_spans_record_nothing_and_stay_cheap() {
        let _guard = GLOBAL_FLAG.lock().unwrap();
        set_profiling(false);
        reset_thread_profile();
        let start = Instant::now();
        for _ in 0..2_000_000 {
            let _span = span(Phase::Lia);
        }
        let elapsed = start.elapsed();
        assert!(snapshot().is_empty(), "disabled spans must not aggregate");
        // ~one relaxed atomic load per span; the bound is generous enough
        // for a loaded CI machine while still catching an accidental
        // Instant::now() or TLS write on the disabled path.
        assert!(
            elapsed < std::time::Duration::from_millis(400),
            "2M disabled spans took {elapsed:?}"
        );
    }

    #[test]
    fn delta_since_isolates_a_window() {
        with_profiling(|| {
            {
                let _s = span(Phase::Encode);
            }
            let base = snapshot();
            {
                let _s = span(Phase::Encode);
            }
            {
                let _s = span(Phase::Sat);
            }
            let delta = snapshot().delta_since(&base);
            assert_eq!(delta.get(Phase::Encode).count, 1);
            assert_eq!(delta.get(Phase::Sat).count, 1);
            let untouched = delta.get(Phase::Lia);
            assert_eq!(untouched.count, 0);
            assert_eq!(untouched.max_nanos, 0, "no-span window reports no max");
        });
    }

    #[test]
    fn consecutive_windows_report_their_own_maxima() {
        with_profiling(|| {
            let sleep = |ms| std::thread::sleep(std::time::Duration::from_millis(ms));
            let first = window().expect("profiling is on");
            {
                let _s = span(Phase::Generation);
                sleep(20);
            }
            let first = first.close();
            let second = window().expect("profiling is on");
            let nested = window().expect("profiling is on");
            {
                let _s = span(Phase::Generation);
                sleep(2);
            }
            let nested = nested.close();
            {
                let _s = span(Phase::Sat);
                sleep(2);
            }
            let second = second.close();
            let (slow, fast) = (first.get(Phase::Generation), second.get(Phase::Generation));
            assert_eq!((slow.count, fast.count), (1, 1));
            assert!(slow.max_nanos >= 20_000_000);
            assert_eq!(
                fast.max_nanos, fast.total_nanos,
                "the second window's max must cover only its own span, not the first window's {}",
                slow.max_nanos
            );
            // A nested window's spans count toward the window around it.
            assert_eq!(nested.get(Phase::Generation), fast);
            assert_eq!(second.get(Phase::Sat).count, 1);
            assert_eq!(nested.get(Phase::Sat).count, 0);
            // The cumulative profile still holds the thread-wide maximum.
            assert_eq!(snapshot().get(Phase::Generation).max_nanos, slow.max_nanos);
        });
    }

    #[test]
    fn profile_json_round_trips() {
        let mut profile = PhaseProfile::default();
        profile.stats[Phase::Sat as usize] = PhaseStat {
            total_nanos: 1_234_567_000,
            count: 42,
            max_nanos: 100_000_000,
        };
        profile.stats[Phase::CoreShrink as usize] = PhaseStat {
            total_nanos: 8_000_000,
            count: 3,
            max_nanos: 5_000_000,
        };
        // Empty phases are omitted; the text is what trace lines carry.
        let json = Json::from(&profile).to_compact();
        assert_eq!(
            json,
            "{\"sat\":{\"secs\":1.234567,\"count\":42,\"max_secs\":0.100000},\
             \"core-shrink\":{\"secs\":0.008000,\"count\":3,\"max_secs\":0.005000}}"
        );
        let value = json::parse(&json).expect("valid JSON");
        let parsed = PhaseProfile::from_json(&value).expect("parse back");
        assert_eq!(parsed.get(Phase::Sat).count, 42);
        assert_eq!(parsed.get(Phase::CoreShrink).count, 3);
        // Seconds survive to microsecond precision.
        let sat = parsed.get(Phase::Sat);
        assert!((sat.total_secs() - 1.234567).abs() < 1e-5);
        assert!((sat.max_secs() - 0.1).abs() < 1e-5);
        // Unknown phases are skipped; an entry missing a field is not a profile.
        let newer = json::parse("{\"sat\":{\"secs\":1,\"count\":2,\"max_secs\":1},\"gpu\":{\"secs\":1,\"count\":1,\"max_secs\":1}}").unwrap();
        assert_eq!(
            PhaseProfile::from_json(&newer)
                .unwrap()
                .get(Phase::Sat)
                .count,
            2
        );
        let partial = json::parse("{\"sat\":{\"secs\":1,\"count\":2}}").unwrap();
        assert_eq!(PhaseProfile::from_json(&partial), None);
    }

    #[test]
    fn merge_adds_totals_and_maxes_maxima() {
        let mut a = PhaseProfile::default();
        a.stats[Phase::Lia as usize] = PhaseStat {
            total_nanos: 10,
            count: 1,
            max_nanos: 10,
        };
        let mut b = PhaseProfile::default();
        b.stats[Phase::Lia as usize] = PhaseStat {
            total_nanos: 5,
            count: 2,
            max_nanos: 30,
        };
        a.merge(&b);
        let lia = a.get(Phase::Lia);
        assert_eq!(lia.total_nanos, 15);
        assert_eq!(lia.count, 3);
        assert_eq!(lia.max_nanos, 30);
    }

    #[test]
    fn phase_names_round_trip() {
        for phase in Phase::ALL {
            assert_eq!(Phase::from_name(phase.name()), Some(phase));
        }
        assert_eq!(Phase::from_name("bogus"), None);
    }

    #[test]
    fn table_sorts_by_total_and_skips_empty_phases() {
        let mut profile = PhaseProfile::default();
        profile.stats[Phase::Sat as usize] = PhaseStat {
            total_nanos: 5_000_000_000,
            count: 10,
            max_nanos: 1,
        };
        profile.stats[Phase::Encode as usize] = PhaseStat {
            total_nanos: 7_000_000_000,
            count: 20,
            max_nanos: 1,
        };
        let table = profile.table("  ");
        let encode_at = table.find("encode").unwrap();
        let sat_at = table.find("sat").unwrap();
        assert!(encode_at < sat_at, "larger total sorts first:\n{table}");
        assert!(!table.contains("parse"));
    }
}
