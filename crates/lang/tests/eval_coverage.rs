//! Audits that the interpreter has executable semantics for every
//! component the benchmark suite can emit: any name the enumerator can
//! put into a synthesized program must resolve in `Evaluator`, or the
//! runtime oracle cannot execute the result.

use synquid_core::Evaluator;
use synquid_lang::{sygus, transcribed};

fn audit(goal: &synquid_core::Goal, eval: &Evaluator) {
    for name in goal.env.var_names() {
        assert!(
            eval.covers(name),
            "goal {}: component `{name}` has no evaluator semantics",
            goal.name
        );
    }
    for dt in goal.env.datatypes().values() {
        for ctor in &dt.constructors {
            assert!(
                eval.covers(&ctor.name),
                "goal {}: constructor `{}` not resolvable",
                goal.name,
                ctor.name
            );
        }
    }
}

#[test]
fn every_table1_component_is_executable() {
    let eval = Evaluator::default();
    for bench in transcribed() {
        let spec = bench.spec.unwrap();
        let goal = spec
            .load()
            .unwrap_or_else(|e| panic!("specs/{}: {e}", spec.file));
        audit(&goal, &eval);
    }
}

#[test]
fn every_sygus_component_is_executable() {
    let eval = Evaluator::default();
    for (_, _, goal) in sygus(6) {
        audit(&goal, &eval);
    }
}
