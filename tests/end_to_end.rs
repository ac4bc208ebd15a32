//! Cross-crate integration tests: synthesis goals exercised through the
//! public facade, spanning the logic, solver, horn, types, core, parser,
//! and lang crates together.
//!
//! The heavier goals run in release mode via the benchmark harness
//! (`cargo run -p synquid-bench --bin report`); here we keep budgets small
//! and assert on a portfolio (at least a given number of goals must
//! synthesize) plus a few individually-required fast goals. Synthesized
//! programs are additionally re-validated with the standalone round-trip
//! type checker and executed with the reference interpreter.

use std::time::Duration;
use synquid::core::{Evaluator, TypeChecker};
use synquid::lang::benchmarks::{max_n, table1};
use synquid::oracle::{CVal, Checker, GenStats, Generator, LogicEnv, LogicVal, Rng};
use synquid::prelude::*;

/// Validates a synthesized program with the runtime oracle: seeded random
/// inputs satisfying the argument refinements, outputs checked against
/// the goal's result type (postcondition and datatype invariants) by the
/// measure interpreter. This replaces the seed-era ad-hoc reference
/// closures — the refinement type itself is the executable specification.
fn oracle_validate(goal: &Goal, program: &Program, cases: usize, seed: u64) {
    let ints = vec![RType::int(); goal.schema.type_vars.len()];
    let mono = goal.schema.instantiate(&ints);
    let (args, ret) = mono.uncurry();
    let datatypes = goal.env.datatypes();
    let checker = Checker::new(datatypes);
    let generator = Generator::new(datatypes);
    let mut rng = Rng::new(seed);
    let mut stats = GenStats::default();
    for case in 0..cases {
        let mut env = LogicEnv::new();
        let mut inputs = Vec::new();
        for (name, ty) in &args {
            let v = generator
                .generate(&mut rng, ty, &env, &mut stats)
                .expect("input generation succeeds");
            env.insert(name.clone(), LogicVal::of(&v));
            inputs.push(v);
        }
        let values: Vec<_> = inputs.iter().map(CVal::to_value).collect();
        let mut eval = Evaluator::default();
        let out = eval
            .run(program, &values)
            .unwrap_or_else(|e| panic!("case {case}: {} crashed on {inputs:?}: {e}", goal.name));
        let out = CVal::from_value(&out).expect("first-order output");
        assert_eq!(
            checker.check(&out, &ret, &env),
            Ok(true),
            "case {case}: {} violated its spec on inputs {inputs:?} with output {out}",
            goal.name
        );
    }
}

fn grouped_goal(group: &str, name: &str) -> (Goal, (usize, usize)) {
    let bench = table1()
        .into_iter()
        .find(|b| b.group == group && b.name == name)
        .unwrap_or_else(|| panic!("unknown benchmark {group}/{name}"));
    let spec = bench
        .spec
        .unwrap_or_else(|| panic!("{name} is not transcribed"));
    let goal = spec
        .load()
        .unwrap_or_else(|e| panic!("specs/{}: {e}", spec.file));
    (goal, bench.bounds)
}

fn named_goal(name: &str) -> (Goal, (usize, usize)) {
    grouped_goal("List", name)
}

fn run_named(name: &str, timeout_secs: u64) -> RunResult {
    let (goal, bounds) = named_goal(name);
    run_goal(
        &goal,
        Variant::Default.config(Duration::from_secs(timeout_secs), bounds),
    )
}

#[test]
fn max2_synthesizes_a_conditional_that_computes_max() {
    let goal = max_n(2);
    let config = Variant::Default.config(Duration::from_secs(60), (1, 0));
    let mut synthesizer = Synthesizer::new(config);
    let result = synthesizer
        .synthesize(&goal)
        .expect("max2 should synthesize");
    let text = result.program.to_string();
    assert!(text.contains("if"), "expected a conditional, got {text}");

    // The synthesized program really computes the maximum: the oracle
    // checks random inputs against `{Int | ν ≥ x1 ∧ ν ≥ x2 ∧ (ν = x1 ∨ ν = x2)}`.
    oracle_validate(&goal, &result.program, 50, 42);
}

#[test]
fn is_empty_synthesizes_and_is_behaviourally_correct() {
    let (goal, _) = named_goal("is empty");
    let config = Variant::Default.config(Duration::from_secs(60), (1, 1));
    let mut synthesizer = Synthesizer::new(config);
    let result = synthesizer
        .synthesize(&goal)
        .expect("is empty should synthesize");

    // Static check: the program round-trip type-checks against the goal.
    let mut checker = TypeChecker::new();
    checker
        .check_goal(&goal, &result.program)
        .expect("synthesized is_empty should type-check");

    // Dynamic check: the oracle fuzzes it against `{Bool | ν ⇔ len xs = 0}`,
    // covering the empty list and many non-empty ones.
    oracle_validate(&goal, &result.program, 50, 42);
}

#[test]
fn portfolio_of_fast_benchmarks_synthesizes() {
    // A portfolio of the quick benchmarks with a modest per-goal budget:
    // the reproduction is considered healthy if most of these succeed
    // (slower benchmarks are tracked by the "Reference solutions" item
    // of `ROADMAP.md`, not here).
    let names = [
        "is empty",
        "i-th element",
        "insert at end",
        "reverse",
        "length using fold",
    ];
    let mut solved = 0usize;
    for name in names {
        let result = run_named(name, 30);
        eprintln!(
            "portfolio: {name}: solved={} time={:.2}s",
            result.solved, result.time_secs
        );
        if result.solved {
            solved += 1;
        }
    }
    assert!(
        solved >= 4,
        "expected at least 4 of {} portfolio benchmarks to synthesize, got {solved}",
        names.len()
    );
}

#[test]
fn textual_specs_synthesize_through_the_same_pipeline() {
    // The surface-language path end to end: specs/list.sq → parse →
    // desugar → synthesize → validate with the round-trip checker.
    let spec = synquid::lang::spec::load_corpus_file("list").expect("specs/list.sq loads");
    let goal = spec
        .goals
        .iter()
        .find(|g| g.name == "is_empty")
        .expect("list.sq declares is_empty");
    let config = Variant::Default.config(Duration::from_secs(60), (1, 1));
    let mut synthesizer = Synthesizer::new(config);
    let result = synthesizer
        .synthesize(goal)
        .expect("is_empty from the .sq corpus should synthesize");
    let mut checker = TypeChecker::new();
    checker
        .check_goal(goal, &result.program)
        .expect("the synthesized program should round-trip type-check");
}

#[test]
fn cli_batch_mode_smoke_test_with_jobs_and_stats() {
    // The satellite smoke test for `--jobs N`: the installed binary runs
    // a batch with two workers, prints per-goal statistics and the
    // shared cache counters, and exits 0. Restricted to the fast
    // `is_empty` goal: with more workers than cores, deeper portfolio
    // rungs race (and lose) on wall-clock, and this test checks CLI
    // plumbing, not synthesis depth — the engine's multi-goal behaviour
    // is pinned by `crates/engine/tests/determinism.rs`.
    let spec = concat!(env!("CARGO_MANIFEST_DIR"), "/specs/list.sq");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_synquid"))
        .args([
            "--jobs",
            "2",
            "--stats",
            "--timeout",
            "120",
            "--goal",
            "is_empty",
            spec,
        ])
        .output()
        .expect("the synquid binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "expected exit 0\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(
        stdout.contains("solved in"),
        "no solution reported:\n{stdout}"
    );
    assert!(
        stdout.contains("batch: 1 goal(s), 2 worker(s)"),
        "batch summary missing:\n{stdout}"
    );
    assert!(
        stdout.contains("memo hits"),
        "enumeration counters missing:\n{stdout}"
    );
    assert!(
        stdout.contains("validity cache:"),
        "cache counters missing:\n{stdout}"
    );
}

#[test]
fn cli_rejects_bad_usage_with_exit_code_2() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_synquid"))
        .args(["--jobs", "0", "x.sq"])
        .output()
        .expect("the synquid binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--jobs needs a positive integer"),
        "{stderr}"
    );
}

#[test]
fn timeout_errors_name_the_goal_that_ran_out_of_budget() {
    // The satellite fix: `SynthesisError::Timeout` carries the goal name,
    // so batch error messages can say *which* goal timed out.
    let (goal, bounds) = named_goal("reverse");
    let config = Variant::Default.config(Duration::from_millis(1), bounds);
    let mut synthesizer = Synthesizer::new(config);
    let err = synthesizer
        .synthesize(&goal)
        .expect_err("a 1ms budget must time out");
    assert_eq!(err.goal_name(), Some("reverse"));
    assert_eq!(err.to_string(), "goal reverse: synthesis timed out");
}

#[test]
fn spec_errors_surface_as_located_diagnostics_through_the_facade() {
    let err = synquid::parser::load_str("inc :: x: Int -> {Int | _v == m + 1}")
        .expect_err("unbound variable must be rejected");
    let rendered = err.to_string();
    assert!(rendered.contains("unbound variable `m`"), "{rendered}");
    assert!(rendered.contains("1:31"), "{rendered}");
}

#[test]
fn report_structures_cover_the_full_paper_tables() {
    let rows = table1();
    assert_eq!(rows.len(), 64);
    let transcribed = rows.iter().filter(|b| b.spec.is_some()).count();
    assert!(
        transcribed >= 30,
        "expected at least 30 transcribed Table 1 rows, got {transcribed}"
    );
    assert_eq!(synquid::lang::benchmarks::table2().len(), 18);
    let fam = synquid::lang::benchmarks::sygus(6);
    assert_eq!(fam.len(), 10);
}

#[test]
fn every_transcribed_goal_builds_a_well_formed_schema() {
    for bench in table1() {
        let Some(spec) = bench.spec else { continue };
        let goal = spec
            .load()
            .unwrap_or_else(|e| panic!("specs/{}: {e}", spec.file));
        assert!(
            goal.schema.ty.is_function(),
            "{} should be a function goal",
            bench.name
        );
        let (args, ret) = goal.schema.ty.uncurry();
        assert!(!args.is_empty(), "{} has no arguments", bench.name);
        assert!(ret.is_scalar(), "{} has a non-scalar result", bench.name);
    }
}

#[test]
fn verification_rejects_an_incorrect_candidate_type() {
    // End-to-end negative test through the facade: {Int | ν = 1} is not a
    // subtype of {Int | ν = 0}.
    let env = Environment::new();
    let mut solver = synquid::types::ConstraintSolver::default();
    let mut smt = Smt::new();
    let one = RType::refined(BaseType::Int, Term::value_var(Sort::Int).eq(Term::int(1)));
    let zero = RType::refined(BaseType::Int, Term::value_var(Sort::Int).eq(Term::int(0)));
    assert!(solver.subtype(&env, &one, &zero, &mut smt, "neg").is_err());
    assert!(solver
        .subtype(&env, &one, &RType::pos(), &mut smt, "pos")
        .is_ok());
}

#[test]
#[ignore = "BST-insert checking needs MUSFIX to find the weakest instantiation of a type variable (ROADMAP.md: \"MUSFIX must find the weakest instantiation\" and \"Reference solutions\")"]
fn hand_written_bst_insert_type_checks_against_the_paper_spec() {
    // The Sec. 2 example program for BST insertion, validated by the
    // standalone checker (synthesis of this goal is exercised by the
    // benchmark harness; checking is much cheaper and belongs here).
    use synquid::core::Program;
    let (goal, _) = grouped_goal("BST", "insert");
    let body = Program::Match(
        Box::new(Program::var("t")),
        vec![
            synquid::core::Case {
                constructor: "Empty".into(),
                binders: vec![],
                body: Program::apply(
                    "Node",
                    vec![
                        Program::var("x"),
                        Program::var("Empty"),
                        Program::var("Empty"),
                    ],
                ),
            },
            synquid::core::Case {
                constructor: "Node".into(),
                binders: vec!["y".into(), "l".into(), "r".into()],
                body: Program::ite(
                    Program::apply(
                        "and",
                        vec![
                            Program::apply("leqg", vec![Program::var("x"), Program::var("y")]),
                            Program::apply("leqg", vec![Program::var("y"), Program::var("x")]),
                        ],
                    ),
                    Program::var("t"),
                    Program::ite(
                        Program::apply("leqg", vec![Program::var("y"), Program::var("x")]),
                        Program::apply(
                            "Node",
                            vec![
                                Program::var("y"),
                                Program::var("l"),
                                Program::apply(
                                    "insert",
                                    vec![Program::var("x"), Program::var("r")],
                                ),
                            ],
                        ),
                        Program::apply(
                            "Node",
                            vec![
                                Program::var("y"),
                                Program::apply(
                                    "insert",
                                    vec![Program::var("x"), Program::var("l")],
                                ),
                                Program::var("r"),
                            ],
                        ),
                    ),
                ),
            },
        ],
    );
    let program = Program::Fix(
        "insert".into(),
        Box::new(Program::lambda("x", Program::lambda("t", body))),
    );
    let mut checker = TypeChecker::new();
    checker
        .check_goal(&goal, &program)
        .expect("the paper's BST insert should type-check");
}
