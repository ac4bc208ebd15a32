//! Property tests for the input generator.
//!
//! The properties are driven by the seeded [`Rng`]. Each property sweeps
//! a few hundred seeds; failures print the seed, which reproduces the
//! exact run (`Rng::new(seed)` is the only source of randomness in the
//! whole crate).

use synquid_logic::{Sort, Term};
use synquid_oracle::{CVal, Checker, GenStats, Generator, LogicEnv, Rng};
use synquid_types::{
    bst_datatype, increasing_list_datatype, list_datatype, BaseType, Datatypes, RType,
};

fn registry() -> Datatypes {
    let mut dts = Datatypes::new();
    for dt in [list_datatype(), bst_datatype(), increasing_list_datatype()] {
        dts.insert(dt.name.clone(), dt);
    }
    dts
}

/// Every scalar type the corpus goals can ask the generator for.
fn generable_types() -> Vec<RType> {
    vec![
        RType::int(),
        RType::bool(),
        RType::refined(BaseType::Int, Term::value_var(Sort::Int).gt(Term::int(0))),
        RType::base(BaseType::Data("List".into(), vec![RType::int()])),
        RType::base(BaseType::Data("BST".into(), vec![RType::int()])),
        RType::base(BaseType::Data("IList".into(), vec![RType::int()])),
    ]
}

/// Constructor nesting depth: the quantity the generator's budget bounds.
fn depth(v: &CVal) -> usize {
    match v {
        CVal::Int(_) | CVal::Bool(_) => 0,
        CVal::Ctor(_, fields) => 1 + fields.iter().map(depth).max().unwrap_or(0),
    }
}

/// Generated values always inhabit the very type they were generated
/// from — the generator and the checker agree on every sort, datatype
/// invariant, and refinement.
#[test]
fn prop_generated_values_satisfy_their_own_type() {
    let dts = registry();
    let gen = Generator::new(&dts);
    let checker = Checker::new(&dts);
    let env = LogicEnv::new();
    let mut stats = GenStats::default();
    for seed in 0..300u64 {
        let mut rng = Rng::new(seed);
        for ty in generable_types() {
            let Ok(v) = gen.generate(&mut rng, &ty, &env, &mut stats) else {
                continue; // rejection-sampling gave up: allowed, not wrong
            };
            assert_eq!(
                checker.check(&v, &ty, &env),
                Ok(true),
                "seed {seed}: generated {v} does not inhabit {ty}"
            );
        }
    }
}

/// Generated values respect the size budget: constructor nesting never
/// exceeds `max_size + 1` levels (the budget spends one level per
/// recursive constructor, plus the outermost application), and integers
/// stay inside the documented window.
#[test]
fn prop_generated_values_respect_the_size_budget() {
    let dts = registry();
    let env = LogicEnv::new();
    let mut stats = GenStats::default();
    for max_size in 0..5usize {
        let mut gen = Generator::new(&dts);
        gen.max_size = max_size;
        let half = max_size as i64 + 1;
        for seed in 0..100u64 {
            let mut rng = Rng::new(seed);
            for ty in generable_types() {
                let Ok(v) = gen.generate(&mut rng, &ty, &env, &mut stats) else {
                    continue;
                };
                assert!(
                    depth(&v) <= max_size + 1,
                    "seed {seed}, max_size {max_size}: {v} is {} deep",
                    depth(&v)
                );
                if let CVal::Int(n) = v {
                    assert!(
                        (-half..=half).contains(&n),
                        "seed {seed}: integer {n} escaped the ±{half} window"
                    );
                }
            }
        }
    }
}

/// The same seed always produces the same value stream — the
/// determinism contract `synquid fuzz` relies on for reproduction.
#[test]
fn prop_generation_is_a_pure_function_of_the_seed() {
    let dts = registry();
    let gen = Generator::new(&dts);
    let env = LogicEnv::new();
    for seed in [0u64, 1, 42, 0xDEAD_BEEF] {
        let run = || {
            let mut rng = Rng::new(seed);
            let mut stats = GenStats::default();
            generable_types()
                .iter()
                .map(|ty| {
                    gen.generate(&mut rng, ty, &env, &mut stats)
                        .map(|v| v.to_string())
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run(), "seed {seed}: generation is not deterministic");
    }
}

/// Every shrink candidate is strictly simpler than its parent under the
/// (size, lexicographic) order — the well-founded measure that makes the
/// greedy shrink loop terminate.
#[test]
fn prop_shrink_candidates_strictly_decrease() {
    let dts = registry();
    let gen = Generator::new(&dts);
    let env = LogicEnv::new();
    let mut stats = GenStats::default();
    for seed in 0..200u64 {
        let mut rng = Rng::new(seed);
        for ty in generable_types() {
            let Ok(v) = gen.generate(&mut rng, &ty, &env, &mut stats) else {
                continue;
            };
            for c in synquid_oracle::shrink::candidates(&v) {
                let smaller = c.size() < v.size()
                    || (c.size() == v.size() && format!("{c}") < format!("{v}"));
                assert!(smaller, "seed {seed}: candidate {c} not simpler than {v}");
            }
        }
    }
}
