//! The correctness gate: runs a synthesized program on seeded inputs
//! drawn from its argument refinements (oracle `Generator`), evaluates it
//! with the core `Evaluator`, and checks each output against the goal's
//! result type with the oracle `Checker`.

use synquid_core::{Evaluator, Goal, Program};
use synquid_oracle::{CVal, Checker, GenStats, Generator, LogicEnv, LogicVal, Rng};
use synquid_types::RType;

/// Seeded cases per solved goal.
pub const CASES: usize = 40;

/// What the oracle made of one program.
#[derive(Debug, Clone, Default)]
pub struct GateReport {
    /// Cases whose output inhabits the result type.
    pub passed: usize,
    /// Cases whose output violates the result type.
    pub violations: usize,
    /// Cases on which the program crashed or ran out of fuel.
    pub crashes: usize,
    /// Argument values generated.
    pub accepted_draws: u64,
    /// Generator draws a refinement rejected.
    pub rejected_draws: u64,
    /// Why the goal could not be checked at all, if it could not.
    pub unchecked: Option<&'static str>,
    /// The first failure, human-readable.
    pub detail: Option<String>,
}

impl GateReport {
    /// True if the program failed the oracle: some case violated the
    /// spec or crashed, or no case could be checked.
    pub fn failed(&self) -> bool {
        self.violations + self.crashes > 0 || self.passed == 0
    }
}

/// Checks `program` against `goal` on [`CASES`] inputs drawn from `seed`.
pub fn check(goal: &Goal, program: &Program, seed: u64) -> GateReport {
    let mut report = GateReport::default();
    // Type variables are instantiated at Int, as the fuzz harness does.
    let ints = vec![RType::int(); goal.schema.type_vars.len()];
    let (args, ret) = goal.schema.instantiate(&ints).uncurry();
    if args.is_empty() || !ret.is_scalar() || !args.iter().all(|(_, ty)| ty.is_scalar()) {
        report.unchecked = Some("signature is not first-order with arguments");
        return report;
    }
    let datatypes = goal.env.datatypes();
    let checker = Checker::new(datatypes);
    let generator = Generator::new(datatypes);
    let mut rng = Rng::new(seed);
    let mut stats = GenStats::default();
    for _ in 0..CASES {
        let mut case_rng = rng.split();
        // Later arguments are drawn with earlier ones bound, so dependent
        // preconditions such as `n <= len xs` see concrete values.
        let mut env = LogicEnv::new();
        let mut inputs = Vec::with_capacity(args.len());
        for (name, ty) in &args {
            let Ok(value) = generator.generate(&mut case_rng, ty, &env, &mut stats) else {
                break;
            };
            report.accepted_draws += 1;
            env.insert(name.clone(), LogicVal::of(&value));
            inputs.push(value);
        }
        if inputs.len() < args.len() {
            // The generator gave up on this case.
            continue;
        }
        let values: Vec<_> = inputs.iter().map(CVal::to_value).collect();
        let output = match Evaluator::default().run(program, &values) {
            Ok(output) => output,
            Err(e) => {
                report.crashes += 1;
                report.detail.get_or_insert_with(|| format!("crash: {e}"));
                continue;
            }
        };
        let Some(out) = CVal::from_value(&output) else {
            continue;
        };
        match checker.check(&out, &ret, &env) {
            Ok(true) => report.passed += 1,
            Ok(false) => {
                report.violations += 1;
                report
                    .detail
                    .get_or_insert_with(|| format!("output {out} does not inhabit {ret}"));
            }
            // Undecidable by the oracle: neither a pass nor a failure.
            Err(_) => {}
        }
    }
    report.rejected_draws = stats.rejected;
    report
}
