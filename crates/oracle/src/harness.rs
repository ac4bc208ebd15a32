//! The end-to-end fuzzing harness.
//!
//! For each goal the harness (1) monomorphizes the goal schema (type
//! variables ↦ `Int`), (2) synthesizes a program through the full engine
//! pipeline, (3) generates seeded random inputs satisfying the argument
//! refinements, (4) runs the synthesized program on them with the
//! interpreter, and (5) checks the output against the goal's result type
//! — postcondition *and* datatype invariants — with the measure
//! interpreter. Violations are shrunk to minimal witnesses.
//!
//! Differential mode re-synthesizes each goal under solver ablations
//! (memoization off, incremental SMT off, incremental LIA off, budget
//! shaping off) and replays the *same* seeded corpus, asserting that the
//! oracle verdict sequence is identical: the optimizations may change
//! how fast a solution is found, never whether the found solution is
//! sound.

use crate::check::Checker;
use crate::cval::CVal;
use crate::generate::{GenStats, Generator};
use crate::interp::{LogicEnv, LogicVal, OracleError};
use crate::shrink;
use std::time::Duration;
use synquid_core::{Evaluator, Goal, Program, SynthesisConfig};
use synquid_engine::{Engine, EngineConfig, GoalJob, SynthesisSession};
use synquid_logic::Rng;
use synquid_telemetry::json::Json;
use synquid_types::RType;

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Random inputs per goal.
    pub cases: usize,
    /// Seed for the deterministic input stream.
    pub seed: u64,
    /// Size budget for generated datatype values.
    pub max_size: usize,
    /// Per-goal synthesis budget.
    pub timeout: Duration,
    /// Re-synthesize under ablations and compare verdicts.
    pub differential: bool,
}

impl Default for FuzzConfig {
    fn default() -> FuzzConfig {
        FuzzConfig {
            cases: 100,
            seed: 42,
            max_size: 4,
            timeout: Duration::from_secs(30),
            differential: false,
        }
    }
}

/// The oracle's verdict on one fuzz case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CaseVerdict {
    /// The output inhabits the goal's result type.
    Pass,
    /// The output violates the postcondition or a datatype invariant.
    Violation,
    /// The program crashed or ran out of fuel on a valid input.
    Crash,
    /// Input generation exhausted its retry budget for this case.
    GaveUp,
    /// The oracle could not decide (unsupported construct).
    Undecidable,
}

impl CaseVerdict {
    /// Stable lower-case tag (used in the JSON summary and differential
    /// comparison).
    pub fn tag(&self) -> &'static str {
        match self {
            CaseVerdict::Pass => "pass",
            CaseVerdict::Violation => "violation",
            CaseVerdict::Crash => "crash",
            CaseVerdict::GaveUp => "gave_up",
            CaseVerdict::Undecidable => "undecidable",
        }
    }
}

/// A confirmed soundness violation, with its minimized witness.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Zero-based fuzz case index.
    pub case: usize,
    /// The verdict that flagged it ([`CaseVerdict::Violation`] or
    /// [`CaseVerdict::Crash`]).
    pub verdict: CaseVerdict,
    /// The original failing inputs, in argument order.
    pub inputs: Vec<CVal>,
    /// The shrunk failing inputs.
    pub shrunk: Vec<CVal>,
    /// What went wrong, human-readable.
    pub detail: String,
}

/// One ablation's differential comparison against the baseline.
#[derive(Debug, Clone)]
pub struct DifferentialReport {
    /// Ablation label.
    pub ablation: String,
    /// Whether the ablated pipeline solved the goal.
    pub solved: bool,
    /// Whether the per-case oracle verdicts matched the baseline exactly
    /// (vacuously true when either side is unsolved).
    pub verdicts_match: bool,
    /// Cases whose concrete outputs differed from the baseline. Different
    /// outputs are informational, not failures: a spec like `reverse`
    /// pins `len` and `elems`, so two correct solutions may disagree
    /// bytewise.
    pub outputs_differ: usize,
}

/// How fuzzing one goal went.
#[derive(Debug, Clone)]
pub struct GoalFuzzReport {
    /// Goal name.
    pub goal: String,
    /// Provenance label.
    pub source: String,
    /// `None` if the goal was fuzzed; `Some(reason)` if it was skipped
    /// (higher-order arguments, synthesis failure, oracle limitation).
    pub skipped: Option<String>,
    /// The pretty-printed synthesized program, if any.
    pub program: Option<String>,
    /// Per-case verdicts, in case order.
    pub verdicts: Vec<CaseVerdict>,
    /// Confirmed violations with shrunk witnesses.
    pub violations: Vec<Violation>,
    /// Rejection-sampling discards across all cases.
    pub rejected: u64,
    /// Differential comparisons (empty unless differential mode).
    pub differential: Vec<DifferentialReport>,
}

impl GoalFuzzReport {
    fn skipped(goal: &Goal, source: &str, reason: impl Into<String>) -> GoalFuzzReport {
        GoalFuzzReport {
            goal: goal.name.clone(),
            source: source.to_string(),
            skipped: Some(reason.into()),
            program: None,
            verdicts: Vec::new(),
            violations: Vec::new(),
            rejected: 0,
            differential: Vec::new(),
        }
    }

    /// True if fuzzing ran and found no violation and no divergence.
    pub fn clean(&self) -> bool {
        self.violations.is_empty() && self.differential.iter().all(|d| d.verdicts_match)
    }

    /// Counts verdicts with the given tag.
    pub fn count(&self, verdict: &CaseVerdict) -> usize {
        self.verdicts.iter().filter(|v| *v == verdict).count()
    }
}

/// The ablations differential mode compares against the baseline.
fn ablations(cfg: &FuzzConfig) -> Vec<(String, EngineConfig)> {
    let base = |synth: SynthesisConfig, shaping: bool| EngineConfig {
        jobs: 1,
        timeout: cfg.timeout,
        shaping,
        base: synth,
        ..EngineConfig::default()
    };
    vec![
        (
            "without_memoization".into(),
            base(SynthesisConfig::default().without_memoization(), true),
        ),
        (
            "without_incremental_smt".into(),
            base(SynthesisConfig::default().without_incremental_smt(), true),
        ),
        (
            "without_incremental_lia".into(),
            base(SynthesisConfig::default().without_incremental_lia(), true),
        ),
        (
            "without_shaping".into(),
            base(SynthesisConfig::default(), false),
        ),
    ]
}

/// Synthesizes `goal` under `engine_cfg`, borrowing the given session's
/// caches, and returns the result AST and pretty form, or `None` if
/// unsolved.
fn synthesize(
    goal: &Goal,
    source: &str,
    engine_cfg: EngineConfig,
    session: &SynthesisSession,
) -> Option<(Program, String)> {
    let engine = Engine::new(engine_cfg);
    let report = engine.run_batch(vec![GoalJob::new(source, goal.clone())], session);
    let outcome = report.outcomes.into_iter().next()?;
    let ast = outcome.result.ast?;
    let pretty = outcome.result.program.unwrap_or_else(|| ast.to_string());
    Some((ast, pretty))
}

/// The monomorphized argument and result types of a goal, or `None` if an
/// argument is higher-order (the oracle only generates first-order data).
fn first_order_signature(goal: &Goal) -> Option<(Vec<(String, RType)>, RType)> {
    let ints = vec![RType::int(); goal.schema.type_vars.len()];
    let mono = goal.schema.instantiate(&ints);
    let (args, ret) = mono.uncurry();
    if args.iter().all(|(_, ty)| ty.is_scalar()) && ret.is_scalar() {
        Some((args, ret))
    } else {
        None
    }
}

/// Runs `program` on `inputs` and checks the output against `ret` with
/// the goal arguments bound in the logical environment.
fn run_case(
    program: &Program,
    inputs: &[CVal],
    args: &[(String, RType)],
    ret: &RType,
    checker: &Checker<'_>,
) -> (CaseVerdict, Option<CVal>, String) {
    let values: Vec<_> = inputs.iter().map(CVal::to_value).collect();
    let mut evaluator = Evaluator::default();
    let output = match evaluator.run(program, &values) {
        Ok(v) => v,
        Err(e) => return (CaseVerdict::Crash, None, e.to_string()),
    };
    let Some(out) = CVal::from_value(&output) else {
        return (
            CaseVerdict::Undecidable,
            None,
            "program returned a non-first-order value".into(),
        );
    };
    let mut env = LogicEnv::new();
    for ((name, _), value) in args.iter().zip(inputs) {
        env.insert(name.clone(), LogicVal::of(value));
    }
    match checker.check(&out, ret, &env) {
        Ok(true) => (CaseVerdict::Pass, Some(out), String::new()),
        Ok(false) => {
            let detail = format!("output {out} does not inhabit {ret}");
            (CaseVerdict::Violation, Some(out), detail)
        }
        Err(e) => (CaseVerdict::Undecidable, Some(out), e.to_string()),
    }
}

/// Generates one input tuple, binding earlier arguments (by their goal
/// binder names) while generating later ones, so dependent preconditions
/// like `n ≤ len xs` see concrete values.
fn generate_inputs(
    generator: &Generator<'_>,
    rng: &mut Rng,
    args: &[(String, RType)],
    stats: &mut GenStats,
) -> Result<Vec<CVal>, OracleError> {
    let mut env = LogicEnv::new();
    let mut inputs = Vec::with_capacity(args.len());
    for (name, ty) in args {
        let value = generator.generate(rng, ty, &env, stats)?;
        env.insert(name.clone(), LogicVal::of(&value));
        inputs.push(value);
    }
    Ok(inputs)
}

/// Whether `inputs` satisfies every argument refinement (used while
/// shrinking, to keep witnesses inside the goal's precondition).
fn inputs_valid(checker: &Checker<'_>, args: &[(String, RType)], inputs: &[CVal]) -> bool {
    if inputs.len() != args.len() {
        return false;
    }
    let mut env = LogicEnv::new();
    for ((name, ty), value) in args.iter().zip(inputs) {
        match checker.check(value, ty, &env) {
            Ok(true) => {}
            _ => return false,
        }
        env.insert(name.clone(), LogicVal::of(value));
    }
    true
}

/// One replayed corpus: per-case verdicts and outputs, the failing
/// cases as `(case index, inputs, detail)`, and the rejected-draw count.
struct Replay {
    verdicts: Vec<CaseVerdict>,
    outputs: Vec<Option<CVal>>,
    failures: Vec<(usize, Vec<CVal>, String)>,
    rejected: u64,
}

/// Replays a seeded corpus against a program, returning per-case verdicts
/// and outputs. This is the common core of baseline fuzzing and
/// differential replay: the corpus depends only on (seed, goal signature,
/// generator settings), never on the program under test.
fn replay(
    program: &Program,
    goal_args: &[(String, RType)],
    ret: &RType,
    checker: &Checker<'_>,
    generator: &Generator<'_>,
    cfg: &FuzzConfig,
) -> Replay {
    let mut rng = Rng::new(cfg.seed);
    let mut verdicts = Vec::with_capacity(cfg.cases);
    let mut outputs = Vec::with_capacity(cfg.cases);
    let mut failures = Vec::new();
    let mut stats = GenStats::default();
    for case in 0..cfg.cases {
        let mut case_rng = rng.split();
        let inputs = match generate_inputs(generator, &mut case_rng, goal_args, &mut stats) {
            Ok(inputs) => inputs,
            Err(OracleError::GaveUp(_)) => {
                verdicts.push(CaseVerdict::GaveUp);
                outputs.push(None);
                continue;
            }
            Err(e) => {
                verdicts.push(CaseVerdict::Undecidable);
                outputs.push(None);
                failures.push((case, Vec::new(), e.to_string()));
                continue;
            }
        };
        let (verdict, output, detail) = run_case(program, &inputs, goal_args, ret, checker);
        if matches!(verdict, CaseVerdict::Violation | CaseVerdict::Crash) {
            failures.push((case, inputs, detail));
        }
        verdicts.push(verdict);
        outputs.push(output);
    }
    Replay {
        verdicts,
        outputs,
        failures,
        rejected: stats.rejected,
    }
}

/// Fuzzes one goal end to end: synthesize, generate, run, check, shrink
/// — and optionally re-run the whole thing under ablations. Creates a
/// throwaway session; `synquid fuzz` shares one across its whole corpus
/// via [`fuzz_goal_in`].
pub fn fuzz_goal(goal: &Goal, source: &str, cfg: &FuzzConfig) -> GoalFuzzReport {
    fuzz_goal_in(goal, source, cfg, &SynthesisSession::new())
}

/// [`fuzz_goal`] borrowing a caller-owned session for the baseline
/// synthesis, so consecutive goals of one fuzz run warm each other's
/// caches. Ablated re-syntheses deliberately get fresh isolated sessions
/// each: a differential run must measure the ablation itself, not a
/// baseline-warmed cache standing in for the disabled optimization.
pub fn fuzz_goal_in(
    goal: &Goal,
    source: &str,
    cfg: &FuzzConfig,
    session: &SynthesisSession,
) -> GoalFuzzReport {
    let Some((goal_args, ret)) = first_order_signature(goal) else {
        return GoalFuzzReport::skipped(goal, source, "higher-order signature");
    };
    if goal_args.is_empty() {
        return GoalFuzzReport::skipped(goal, source, "no arguments to fuzz");
    }
    let baseline_cfg = EngineConfig {
        jobs: 1,
        timeout: cfg.timeout,
        ..EngineConfig::default()
    };
    let Some((program, pretty)) = synthesize(goal, source, baseline_cfg, session) else {
        return GoalFuzzReport::skipped(goal, source, "synthesis failed or timed out");
    };

    let datatypes = goal.env.datatypes();
    let checker = Checker::new(datatypes);
    let mut generator = Generator::new(datatypes);
    generator.max_size = cfg.max_size;

    let Replay {
        verdicts,
        outputs: baseline_outputs,
        failures,
        rejected,
    } = replay(&program, &goal_args, &ret, &checker, &generator, cfg);

    let violations = failures
        .iter()
        .filter(|(_, inputs, _)| !inputs.is_empty())
        .map(|(case, inputs, detail)| {
            let shrunk = shrink::shrink(inputs, |attempt| {
                if !inputs_valid(&checker, &goal_args, attempt) {
                    return false;
                }
                let (v, _, _) = run_case(&program, attempt, &goal_args, &ret, &checker);
                matches!(v, CaseVerdict::Violation | CaseVerdict::Crash)
            });
            Violation {
                case: *case,
                verdict: verdicts[*case].clone(),
                inputs: inputs.clone(),
                shrunk,
                detail: detail.clone(),
            }
        })
        .collect();

    let mut differential = Vec::new();
    if cfg.differential {
        for (label, engine_cfg) in ablations(cfg) {
            match synthesize(goal, source, engine_cfg, &SynthesisSession::new()) {
                None => differential.push(DifferentialReport {
                    ablation: label,
                    solved: false,
                    // An ablation failing to solve in budget is a timing
                    // difference, not a soundness divergence.
                    verdicts_match: true,
                    outputs_differ: 0,
                }),
                Some((ablated, _)) => {
                    let ablated_run = replay(&ablated, &goal_args, &ret, &checker, &generator, cfg);
                    let (ab_verdicts, ab_outputs) = (ablated_run.verdicts, ablated_run.outputs);
                    let outputs_differ = baseline_outputs
                        .iter()
                        .zip(&ab_outputs)
                        .filter(|(a, b)| a != b)
                        .count();
                    differential.push(DifferentialReport {
                        ablation: label,
                        solved: true,
                        verdicts_match: ab_verdicts == verdicts,
                        outputs_differ,
                    });
                }
            }
        }
    }

    GoalFuzzReport {
        goal: goal.name.clone(),
        source: source.to_string(),
        skipped: None,
        program: Some(pretty),
        verdicts,
        violations,
        rejected,
        differential,
    }
}

/// Renders the reports as a deterministic JSON summary, one goal per
/// line. Wall-clock times are deliberately excluded: the same seed must
/// produce byte-identical output across runs and machines.
pub fn summary_json(seed: u64, cases: usize, reports: &[GoalFuzzReport]) -> String {
    let violations: usize = reports.iter().map(|r| r.violations.len()).sum();
    let divergences = reports
        .iter()
        .flat_map(|r| &r.differential)
        .filter(|d| !d.verdicts_match)
        .count();
    Json::obj([
        ("seed", seed.into()),
        ("cases", cases.into()),
        ("total_violations", violations.into()),
        ("total_divergences", divergences.into()),
        (
            "goals",
            Json::Arr(reports.iter().map(goal_summary).collect()),
        ),
    ])
    .to_lines()
}

/// One goal's entry of [`summary_json`]: the verdict counts, plus the
/// shrunk witnesses and differential comparisons when there are any.
fn goal_summary(r: &GoalFuzzReport) -> Json {
    let mut members = vec![
        ("goal", r.goal.as_str().into()),
        ("source", r.source.as_str().into()),
    ];
    if let Some(reason) = &r.skipped {
        members.push(("skipped", reason.as_str().into()));
        return Json::obj(members);
    }
    members.extend([
        ("pass", r.count(&CaseVerdict::Pass).into()),
        ("violation", r.count(&CaseVerdict::Violation).into()),
        ("crash", r.count(&CaseVerdict::Crash).into()),
        ("gave_up", r.count(&CaseVerdict::GaveUp).into()),
        ("undecidable", r.count(&CaseVerdict::Undecidable).into()),
        ("rejected", r.rejected.into()),
    ]);
    if !r.violations.is_empty() {
        let witnesses = r.violations.iter().map(|v| {
            Json::obj([
                ("case", v.case.into()),
                ("kind", v.verdict.tag().into()),
                (
                    "shrunk",
                    Json::Arr(v.shrunk.iter().map(|c| c.to_string().into()).collect()),
                ),
            ])
        });
        members.push(("violations", Json::Arr(witnesses.collect())));
    }
    if !r.differential.is_empty() {
        let diffs = r.differential.iter().map(|d| {
            Json::obj([
                ("ablation", d.ablation.as_str().into()),
                ("solved", d.solved.into()),
                ("verdicts_match", d.verdicts_match.into()),
                ("outputs_differ", d.outputs_differ.into()),
            ])
        });
        members.push(("differential", Json::Arr(diffs.collect())));
    }
    Json::obj(members)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus_datatypes as dts;
    use synquid_types::BaseType;

    fn list_ty() -> RType {
        RType::base(BaseType::Data("List".into(), vec![RType::int()]))
    }

    /// An identity function at `xs: List Int → {List Int | len ν = len xs}`
    /// satisfies its spec; the same program checked against the `+ 1`
    /// postcondition of `append`-style specs must be caught.
    #[test]
    fn the_oracle_catches_an_injected_wrong_solution() {
        use synquid_logic::{Sort, Term};
        let dts = dts();
        let checker = Checker::new(&dts);
        let generator = Generator::new(&dts);
        let identity = Program::Abs("xs".into(), Box::new(Program::var("xs")));
        let ls = Sort::Data("List".into(), vec![Sort::Int]);
        let good_post = Term::app("len", vec![Term::value_var(ls.clone())], Sort::Int).eq(
            Term::app("len", vec![Term::var("xs", ls.clone())], Sort::Int),
        );
        let bad_post = Term::app("len", vec![Term::value_var(ls.clone())], Sort::Int)
            .eq(Term::app("len", vec![Term::var("xs", ls)], Sort::Int).plus(Term::int(1)));
        let args = vec![("xs".to_string(), list_ty())];
        let cfg = FuzzConfig {
            cases: 30,
            seed: 7,
            ..FuzzConfig::default()
        };
        let good_ret = RType::refined(BaseType::Data("List".into(), vec![RType::int()]), good_post);
        let bad_ret = RType::refined(BaseType::Data("List".into(), vec![RType::int()]), bad_post);
        let good_run = replay(&identity, &args, &good_ret, &checker, &generator, &cfg);
        assert!(good_run.verdicts.iter().all(|v| *v == CaseVerdict::Pass));
        assert!(good_run.failures.is_empty());
        let bad_run = replay(&identity, &args, &bad_ret, &checker, &generator, &cfg);
        assert!(
            bad_run.verdicts.contains(&CaseVerdict::Violation),
            "wrong postcondition must be caught"
        );
        let failures = bad_run.failures;
        // Shrinking a failure yields the minimal witness Nil.
        let (case, inputs, _) = failures[0].clone();
        let _ = case;
        let shrunk = shrink::shrink(&inputs, |attempt| {
            inputs_valid(&checker, &args, attempt)
                && matches!(
                    run_case(&identity, attempt, &args, &bad_ret, &checker).0,
                    CaseVerdict::Violation | CaseVerdict::Crash
                )
        });
        assert_eq!(shrunk, vec![CVal::Ctor("Nil".into(), vec![])]);
    }

    #[test]
    fn replay_is_bit_reproducible_per_seed() {
        use synquid_logic::{Sort, Term};
        let dts = dts();
        let checker = Checker::new(&dts);
        let generator = Generator::new(&dts);
        let identity = Program::Abs("xs".into(), Box::new(Program::var("xs")));
        let ls = Sort::Data("List".into(), vec![Sort::Int]);
        let post = Term::app("len", vec![Term::value_var(ls.clone())], Sort::Int).eq(Term::app(
            "len",
            vec![Term::var("xs", ls)],
            Sort::Int,
        ));
        let ret = RType::refined(BaseType::Data("List".into(), vec![RType::int()]), post);
        let args = vec![("xs".to_string(), list_ty())];
        let cfg = FuzzConfig {
            cases: 20,
            seed: 99,
            ..FuzzConfig::default()
        };
        let a = replay(&identity, &args, &ret, &checker, &generator, &cfg);
        let b = replay(&identity, &args, &ret, &checker, &generator, &cfg);
        assert_eq!(a.verdicts, b.verdicts);
        assert_eq!(a.outputs, b.outputs);
    }

    #[test]
    fn summary_json_is_deterministic_and_wall_clock_free() {
        let report = GoalFuzzReport {
            goal: "g".into(),
            source: "s".into(),
            skipped: None,
            program: Some("\\xs . xs".into()),
            verdicts: vec![CaseVerdict::Pass, CaseVerdict::GaveUp],
            violations: Vec::new(),
            rejected: 3,
            differential: vec![DifferentialReport {
                ablation: "without_memoization".into(),
                solved: true,
                verdicts_match: true,
                outputs_differ: 0,
            }],
        };
        let a = summary_json(42, 2, std::slice::from_ref(&report));
        let b = summary_json(42, 2, &[report]);
        assert_eq!(a, b);
        assert!(a.contains("\"seed\": 42"));
        assert!(!a.contains("secs"), "no wall-clock in the summary");
    }

    #[test]
    fn summary_json_is_byte_identical_to_the_hand_rolled_writer() {
        let skipped = GoalFuzzReport {
            goal: "append".into(),
            source: "specs/append.sq".into(),
            skipped: Some("synthesis failed or \"timed\" out \\ here".into()),
            program: None,
            verdicts: vec![],
            violations: vec![],
            rejected: 0,
            differential: vec![],
        };
        let nil = || CVal::Ctor("Nil".into(), vec![]);
        let violated = GoalFuzzReport {
            goal: "drop".into(),
            source: "specs/drop.sq".into(),
            skipped: None,
            program: Some("\\xs . xs".into()),
            verdicts: vec![
                CaseVerdict::Pass,
                CaseVerdict::Violation,
                CaseVerdict::GaveUp,
                CaseVerdict::Pass,
            ],
            violations: vec![Violation {
                case: 1,
                verdict: CaseVerdict::Violation,
                inputs: vec![],
                shrunk: vec![
                    CVal::Int(-3),
                    nil(),
                    CVal::Ctor("Cons".into(), vec![CVal::Bool(true), nil()]),
                ],
                detail: "x".into(),
            }],
            rejected: 147,
            differential: vec![
                DifferentialReport {
                    ablation: "without_memoization".into(),
                    solved: true,
                    verdicts_match: false,
                    outputs_differ: 2,
                },
                DifferentialReport {
                    ablation: "no \"shaping\"".into(),
                    solved: false,
                    verdicts_match: true,
                    outputs_differ: 0,
                },
            ],
        };
        let clean = GoalFuzzReport {
            goal: "ν-length".into(),
            source: "specs/length.sq".into(),
            skipped: None,
            program: Some("len".into()),
            verdicts: vec![
                CaseVerdict::Pass,
                CaseVerdict::Crash,
                CaseVerdict::Undecidable,
            ],
            violations: vec![],
            rejected: 3,
            differential: vec![],
        };
        // Rendered by the writer the shared codec replaced, before it
        // was deleted.
        assert_eq!(
            summary_json(42, 25, &[skipped, violated, clean.clone()]),
            concat!(
                "{\n",
                "  \"seed\": 42,\n",
                "  \"cases\": 25,\n",
                "  \"total_violations\": 1,\n",
                "  \"total_divergences\": 1,\n",
                "  \"goals\": [\n",
                "    {\"goal\": \"append\", \"source\": \"specs/append.sq\", \"skipped\": \"synthesis failed or \\\"timed\\\" out \\\\ here\"},\n",
                "    {\"goal\": \"drop\", \"source\": \"specs/drop.sq\", \"pass\": 2, \"violation\": 1, \"crash\": 0, \"gave_up\": 1, \"undecidable\": 0, \"rejected\": 147, ",
                "\"violations\": [{\"case\": 1, \"kind\": \"violation\", \"shrunk\": [\"-3\", \"Nil\", \"(Cons true Nil)\"]}], ",
                "\"differential\": [{\"ablation\": \"without_memoization\", \"solved\": true, \"verdicts_match\": false, \"outputs_differ\": 2}, ",
                "{\"ablation\": \"no \\\"shaping\\\"\", \"solved\": false, \"verdicts_match\": true, \"outputs_differ\": 0}]},\n",
                "    {\"goal\": \"ν-length\", \"source\": \"specs/length.sq\", \"pass\": 1, \"violation\": 0, \"crash\": 1, \"gave_up\": 0, \"undecidable\": 1, \"rejected\": 3}\n",
                "  ]\n",
                "}\n",
            )
        );
        assert_eq!(
            summary_json(1, 2, &[]),
            "{\n  \"seed\": 1,\n  \"cases\": 2,\n  \"total_violations\": 0,\n  \"total_divergences\": 0,\n  \"goals\": [\n  ]\n}\n"
        );
        // The one difference: a control character is escaped, where the
        // old writer left it raw and wrote invalid JSON.
        let tabbed = GoalFuzzReport {
            goal: "a\tb\nc".into(),
            ..clean
        };
        assert!(summary_json(0, 1, &[tabbed]).contains("{\"goal\": \"a\\tb\\nc\", "));
    }
}
