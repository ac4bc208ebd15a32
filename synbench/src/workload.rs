//! The workloads: which goals each one submits, and the closed loop that
//! submits them one at a time and times every call from outside.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use synquid_core::Goal;
use synquid_engine::{
    Engine, EngineConfig, GoalJob, GoalOutcome, SessionStats, SynthesisSession, DEFAULT_RUNGS,
};
use synquid_oracle::Rng;
use synquid_telemetry::events;

use crate::host;

/// Per-goal budget. Large enough that no rung of any workload goal is cut
/// at its ledger slice, so every submission does the same,
/// budget-independent work and the per-goal counters repeat exactly.
pub const BUDGET: Duration = Duration::from_secs(120);

/// A goal is submitted again until it has this many timed submissions
/// or they add up to [`SAMPLE_SECS`]; its time to verdict is their
/// median. Cheap goals are otherwise single samples of a few
/// milliseconds, at the mercy of any hiccup of the host.
const MAX_SAMPLES: usize = 5;
const SAMPLE_SECS: f64 = 1.0;

fn wants_more(samples: &[f64]) -> bool {
    samples.len() < MAX_SAMPLES && samples.iter().sum::<f64>() < SAMPLE_SECS
}

/// The corpus goals that synthesize at the default budget: (spec file,
/// goal name).
const SOLVED: [(&str, &str); 14] = [
    ("append.sq", "append"),
    ("delete.sq", "list_delete"),
    ("double.sq", "double"),
    ("drop.sq", "drop"),
    ("elem.sq", "list_member"),
    ("heap_singleton.sq", "heap_singleton"),
    ("insert_at_end.sq", "insert_at_end"),
    ("is_empty.sq", "is_empty"),
    ("list.sq", "is_empty"),
    ("length.sq", "length"),
    ("list.sq", "length"),
    ("replicate.sq", "replicate"),
    ("reverse.sq", "reverse"),
    ("take.sq", "take"),
];

/// The holdout goals: (spec file, goal name, number of leading
/// `DEFAULT_RUNGS` searched: 3 is up to (2,1), 2 is up to (1,1)).
const HOLDOUTS: [(&str, &str, usize); 5] = [
    ("insert_sorted.sq", "insert_sorted", 3),
    ("tree_count.sq", "tree_count", 3),
    ("bst_insert.sq", "bst_insert", 3),
    ("tree_member.sq", "tree_member", 2),
    ("bst_member.sq", "bst_member", 2),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SolveCold,
    SolveWarm,
    Exhaust,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "solve-cold" => Some(Workload::SolveCold),
            "solve-warm" => Some(Workload::SolveWarm),
            "exhaust" => Some(Workload::Exhaust),
            _ => None,
        }
    }

    /// The goals, in table order: (spec file, goal name, rungs searched,
    /// known verdict).
    fn targets(self) -> Vec<(&'static str, &'static str, usize, Verdict)> {
        match self {
            Workload::SolveCold | Workload::SolveWarm => SOLVED
                .iter()
                .map(|&(file, goal)| (file, goal, DEFAULT_RUNGS.len(), Verdict::Solved))
                .collect(),
            Workload::Exhaust => HOLDOUTS
                .iter()
                .map(|&(file, goal, rungs)| (file, goal, rungs, Verdict::Exhausted))
                .collect(),
        }
    }
}

/// The verdict a goal is known to reach.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Solved,
    Exhausted,
}

/// One goal of a workload, ready to submit.
pub struct Case {
    pub label: String,
    pub goal: Goal,
    expect: Verdict,
    engine: Engine,
}

impl Case {
    /// Why an outcome misses the goal's known verdict, if it does.
    pub fn verdict_miss(&self, outcome: &GoalOutcome) -> Option<String> {
        let r = &outcome.result;
        match self.expect {
            Verdict::Solved if !r.solved => Some(format!(
                "expected a program, got {}",
                if r.timed_out {
                    "timeout"
                } else {
                    "no solution"
                }
            )),
            Verdict::Exhausted if r.solved => Some("expected no solution, got a program".into()),
            Verdict::Exhausted if r.timed_out => Some("expected no solution, got timeout".into()),
            _ => None,
        }
    }
}

/// Loads a workload's goals from the `specs/` corpus (each file once).
pub fn load_cases(workload: Workload) -> Result<Vec<Case>, String> {
    let specs = Path::new(env!("CARGO_MANIFEST_DIR")).join("../specs");
    let mut files = BTreeMap::new();
    let mut cases = Vec::new();
    for (file, name, rungs, expect) in workload.targets() {
        if !files.contains_key(file) {
            let out = synquid_lang::spec::load_file(specs.join(file))
                .map_err(|e| format!("specs/{file}: {e}"))?;
            files.insert(file, out.goals);
        }
        let goal = files[file]
            .iter()
            .find(|g| g.name == name)
            .ok_or(format!("specs/{file} has no goal {name}"))?
            .clone();
        let engine = Engine::new(EngineConfig {
            jobs: 1,
            timeout: BUDGET,
            rungs: DEFAULT_RUNGS[..rungs].to_vec(),
            ..EngineConfig::default()
        });
        cases.push(Case {
            label: format!("{name}@specs/{file}"),
            goal,
            expect,
            engine,
        });
    }
    Ok(cases)
}

/// A seeded Fisher–Yates permutation of `0..n`: the submission order.
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = Rng::new(seed);
    for i in (1..n).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    order
}

/// One goal submission.
pub struct GoalRun {
    /// Index into the workload's cases.
    pub case: usize,
    /// Time to verdict, measured around `run_batch`.
    pub secs: f64,
    pub outcome: GoalOutcome,
}

/// Session traffic of a pass's timed submissions, each measured around
/// its call, so it includes the GC epoch the call closes.
#[derive(Debug, Clone, Copy, Default)]
pub struct Traffic {
    pub validity_hits: usize,
    pub validity_misses: usize,
    pub enum_hits: usize,
    pub enum_misses: usize,
    pub lemmas_absorbed: usize,
    pub terms_interned: usize,
    pub evicted: usize,
}

impl Traffic {
    fn add(&mut self, s: &SessionStats) {
        self.validity_hits += s.validity.hits;
        self.validity_misses += s.validity.misses;
        self.enum_hits += s.enumeration.hits;
        self.enum_misses += s.enumeration.misses;
        self.lemmas_absorbed += s.lemmas.absorbed;
        self.terms_interned += s.validity.terms_interned;
        self.evicted += s.validity.entries_evicted + s.enumeration.evicted + s.lemmas.evicted;
    }
}

/// Totals of a pass's session snapshot probes.
#[derive(Debug, Clone, Copy, Default)]
pub struct SnapshotProbe {
    pub serialize_s: f64,
    pub warm_start_s: f64,
    pub bytes: usize,
}

/// What a pass does besides its timed submissions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassKind {
    /// Nothing: the end-to-end measurement.
    Plain,
    /// After each goal, untimed: serialize its session and warm-start a
    /// throwaway session from the snapshot.
    Snapshot,
    /// The span profiler and the event buffer are on during the timed
    /// submissions.
    Traced,
}

/// One pass over every goal of a workload.
pub struct Pass {
    /// Timed submissions, in submission order.
    pub runs: Vec<GoalRun>,
    /// Untimed filling submissions (solve-warm).
    pub fills: Vec<GoalRun>,
    pub traffic: Traffic,
    /// Event stream of the timed submissions (traced passes).
    pub events: String,
    /// Snapshot probe totals (snapshot passes).
    pub snapshot: SnapshotProbe,
}

impl Pass {
    /// The pass's wall time: each goal's median time to verdict, summed.
    /// With one timed submission per goal this is the time from the first
    /// submission to the last verdict (the closed loop has no think
    /// time), without the filling submissions.
    pub fn wall(&self) -> f64 {
        goal_medians(&self.runs).values().sum()
    }
}

/// Each goal's median time to verdict over `runs`, by case.
pub fn goal_medians<'a>(runs: impl IntoIterator<Item = &'a GoalRun>) -> BTreeMap<usize, f64> {
    let mut secs: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for run in runs {
        secs.entry(run.case).or_default().push(run.secs);
    }
    secs.into_iter()
        .map(|(case, s)| (case, crate::median(&s)))
        .collect()
}

fn submit(case: &Case, index: usize, session: &SynthesisSession) -> GoalRun {
    let job = vec![GoalJob::new(case.label.clone(), case.goal.clone())];
    host::pin_to_fastest_cpu();
    let submitted = Instant::now();
    let report = case.engine.run_batch(job, session);
    let secs = submitted.elapsed().as_secs_f64();
    let outcome = report
        .outcomes
        .into_iter()
        .next()
        .expect("a one-goal batch reports one outcome");
    GoalRun {
        case: index,
        secs,
        outcome,
    }
}

/// Runs one pass in `order`, each submission on a fresh session, so its
/// work does not depend on its position in the order. Goals are
/// resubmitted in further rounds over the order while they want more
/// samples, so repeated samples of one goal are spread over the pass.
///
/// With `warm`, each goal is first submitted untimed (the fill) and then
/// replayed against the session the fill populated, at once and as often
/// as it wants samples: the engine closes a GC epoch per batch and evicts
/// entries untouched for two epochs, so a fill only serves replays that
/// follow it directly.
///
/// A traced pass submits each goal once (after its fill), so its counts
/// do not depend on how many samples the host's speed asked for.
pub fn run_pass(cases: &[Case], order: &[usize], warm: bool, kind: PassKind) -> Pass {
    let traced = kind == PassKind::Traced;
    let mut pass = Pass {
        runs: Vec::with_capacity(order.len()),
        fills: Vec::new(),
        traffic: Traffic::default(),
        events: String::new(),
        snapshot: SnapshotProbe::default(),
    };
    if traced {
        events::init_trace_buffer();
        // Keep the stream header.
        pass.events = events::take_trace_buffer().unwrap_or_default();
    }
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); cases.len()];
    let wants = |samples: &[f64]| samples.is_empty() || (!traced && wants_more(samples));
    loop {
        let round: Vec<usize> = order
            .iter()
            .copied()
            .filter(|&index| wants(&samples[index]))
            .collect();
        if round.is_empty() {
            return pass;
        }
        for index in round {
            let case = &cases[index];
            host::release_free_memory();
            let session = SynthesisSession::new();
            if warm {
                pass.fills.push(submit(case, index, &session));
            }
            while wants(&samples[index]) {
                if traced {
                    // Drop the fill's events; capture the timed call's.
                    events::take_trace_buffer();
                    synquid_telemetry::set_profiling(true);
                }
                let before = session.stats();
                let run = submit(case, index, &session);
                pass.traffic.add(&session.stats().since(&before));
                if traced {
                    synquid_telemetry::set_profiling(false);
                    pass.events
                        .push_str(&events::take_trace_buffer().unwrap_or_default());
                }
                samples[index].push(run.secs);
                pass.runs.push(run);
                if !warm {
                    break;
                }
            }
            // One probe per goal, on the session of its first round.
            if kind == PassKind::Snapshot && (warm || samples[index].len() == 1) {
                let started = Instant::now();
                let snapshot = session.serialize();
                pass.snapshot.serialize_s += started.elapsed().as_secs_f64();
                let started = Instant::now();
                SynthesisSession::new().warm_start(&snapshot);
                pass.snapshot.warm_start_s += started.elapsed().as_secs_f64();
                pass.snapshot.bytes += snapshot.len();
            }
        }
    }
}

/// The work counters of one submission, which must repeat exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counters {
    pub winning_rung: Option<(usize, usize)>,
    pub rungs_run: usize,
    pub rungs_cancelled: usize,
    pub rungs_skipped: usize,
    pub terms_enumerated: usize,
    pub eterms_checked: usize,
    pub conflicts_learned: usize,
    pub program: Option<String>,
}

impl Counters {
    pub fn of(outcome: &GoalOutcome) -> Counters {
        let stats = outcome.result.stats.unwrap_or_default();
        Counters {
            winning_rung: outcome.winning_rung,
            rungs_run: outcome.rungs_run,
            rungs_cancelled: outcome.rungs_cancelled,
            rungs_skipped: outcome.rungs_skipped,
            terms_enumerated: stats.terms_enumerated,
            eterms_checked: stats.eterms_checked,
            conflicts_learned: stats.smt_conflicts_learned,
            program: outcome.result.program.clone(),
        }
    }

    /// Names of the fields that differ from `other`.
    pub fn drift(&self, other: &Counters) -> Vec<&'static str> {
        [
            ("winning_rung", self.winning_rung != other.winning_rung),
            ("rungs_run", self.rungs_run != other.rungs_run),
            (
                "rungs_cancelled",
                self.rungs_cancelled != other.rungs_cancelled,
            ),
            ("rungs_skipped", self.rungs_skipped != other.rungs_skipped),
            (
                "terms_enumerated",
                self.terms_enumerated != other.terms_enumerated,
            ),
            (
                "eterms_checked",
                self.eterms_checked != other.eterms_checked,
            ),
            (
                "conflicts_learned",
                self.conflicts_learned != other.conflicts_learned,
            ),
            ("program", self.program != other.program),
        ]
        .into_iter()
        .filter_map(|(name, differs)| differs.then_some(name))
        .collect()
    }
}
