//! Sort-directed random value generation.
//!
//! The generator produces size-bounded first-order values for a (scalar)
//! refinement type: integers from a small window around zero, booleans,
//! and datatype values built by recursive constructor selection with a
//! depth budget. Refinement *preconditions* are honored by rejection
//! sampling — draw, evaluate the refinement with the measure interpreter,
//! retry on failure — with a bounded retry count so unsatisfiable (or
//! just very sparse) preconditions surface as [`OracleError::GaveUp`]
//! instead of a hang.
//!
//! Everything is driven by the seeded [`Rng`]: no wall-clock, no OS
//! entropy, so a seed pins the whole corpus byte-for-byte.

use crate::check::Checker;
use crate::cval::CVal;
use crate::interp::{LogicEnv, LogicVal, OracleError};
use synquid_logic::{Rng, Term, VALUE_VAR};
use synquid_types::{BaseType, Datatypes, RType};

/// Counters the harness reports (how hard rejection sampling worked).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GenStats {
    /// Draws discarded because a refinement rejected them.
    pub rejected: u64,
}

/// A seeded, size-bounded generator of values inhabiting refinement
/// types.
pub struct Generator<'a> {
    datatypes: &'a Datatypes,
    checker: Checker<'a>,
    /// Depth budget for datatype values (also the half-width of the
    /// integer window).
    pub max_size: usize,
    /// Rejection-sampling retries per draw before giving up.
    pub retries: usize,
}

impl<'a> Generator<'a> {
    /// A generator over the given datatype registry.
    pub fn new(datatypes: &'a Datatypes) -> Generator<'a> {
        Generator {
            datatypes,
            checker: Checker::new(datatypes),
            max_size: 4,
            retries: 64,
        }
    }

    /// The checker the generator validates its own output with.
    pub fn checker(&self) -> &Checker<'a> {
        &self.checker
    }

    /// Generates a value inhabiting `ty` under `env`.
    pub fn generate(
        &self,
        rng: &mut Rng,
        ty: &RType,
        env: &LogicEnv,
        stats: &mut GenStats,
    ) -> Result<CVal, OracleError> {
        self.gen(rng, ty, env, self.max_size, stats)
    }

    fn gen(
        &self,
        rng: &mut Rng,
        ty: &RType,
        env: &LogicEnv,
        budget: usize,
        stats: &mut GenStats,
    ) -> Result<CVal, OracleError> {
        let Some(base) = ty.base_type() else {
            return Err(OracleError::Unsupported(format!(
                "cannot generate a value of non-scalar type {ty}"
            )));
        };
        match base {
            // Type variables are monomorphized to Int: the specs only
            // require a decidable total order on `α`, which integers give
            // us for free.
            BaseType::Int | BaseType::TypeVar(_) => {
                let half = self.max_size as i64 + 1;
                self.rejection_sample(rng, ty, env, stats, |rng| {
                    CVal::Int(rng.int_in(-half, half))
                })
            }
            BaseType::Bool => {
                self.rejection_sample(rng, ty, env, stats, |rng| CVal::Bool(rng.flip()))
            }
            BaseType::Data(dt_name, params) => {
                let Some(dt) = self.datatypes.get(dt_name) else {
                    return Err(OracleError::Unsupported(format!(
                        "unknown datatype {dt_name}"
                    )));
                };
                let refinement = ty.refinement();
                for _ in 0..self.retries.max(1) {
                    // Choose a constructor: scalars only once the budget is
                    // spent; recursive constructors weighted 3:1 otherwise
                    // (a fair coin would make half of all lists empty).
                    let choices: Vec<&synquid_types::Constructor> = dt
                        .constructors
                        .iter()
                        .filter(|c| budget > 0 || c.is_scalar())
                        .collect();
                    let choices = if choices.is_empty() {
                        dt.constructors.iter().collect()
                    } else {
                        choices
                    };
                    let total: u64 = choices
                        .iter()
                        .map(|c| if c.is_scalar() { 1 } else { 3 })
                        .sum();
                    let mut pick = rng.below(total.max(1));
                    let mut chosen = choices[0];
                    for c in &choices {
                        let w = if c.is_scalar() { 1 } else { 3 };
                        if pick < w {
                            chosen = c;
                            break;
                        }
                        pick -= w;
                    }
                    match self.gen_ctor(rng, chosen, params, env, budget, stats) {
                        Ok(value) => {
                            if refinement.is_true() {
                                return Ok(value);
                            }
                            let mut check_env = env.clone();
                            check_env.insert(VALUE_VAR.to_string(), LogicVal::of(&value));
                            if self.checker.interp().eval_bool(&refinement, &check_env)? {
                                return Ok(value);
                            }
                            stats.rejected += 1;
                        }
                        // A doomed constructor choice (e.g. Node under an
                        // unsatisfiable element refinement): try another.
                        Err(OracleError::GaveUp(_)) => stats.rejected += 1,
                        Err(e) => return Err(e),
                    }
                }
                Err(OracleError::GaveUp(format!(
                    "no {dt_name} value satisfying {} after {} attempts",
                    ty.refinement(),
                    self.retries
                )))
            }
        }
    }

    /// Builds one constructor application, generating fields left to
    /// right. Field types may reference earlier fields by binder name
    /// (`r: BST {a | x < ν}` references `x`), so each generated field is
    /// bound — under a fresh name, to avoid capture in nested unfoldings —
    /// before the next field's type is processed.
    fn gen_ctor(
        &self,
        rng: &mut Rng,
        ctor: &synquid_types::Constructor,
        params: &[RType],
        env: &LogicEnv,
        budget: usize,
        stats: &mut GenStats,
    ) -> Result<CVal, OracleError> {
        let instantiated = ctor.schema.instantiate(params);
        let (mut args, _ret) = instantiated.uncurry();
        let mut fields = Vec::with_capacity(args.len());
        let mut inner_env = env.clone();
        for i in 0..args.len() {
            let (orig_name, field_ty) = args[i].clone();
            let child_budget = budget.saturating_sub(1);
            let field = self.gen(rng, &field_ty, &inner_env, child_budget, stats)?;
            let fresh = format!("$g{}_{i}", rng.next_u64() & 0xFFFF);
            let replacement = Term::var(fresh.clone(), field_ty.sort());
            for arg in args.iter_mut().skip(i + 1) {
                arg.1 = arg.1.substitute_var(&orig_name, &replacement);
            }
            inner_env.insert(fresh, LogicVal::of(&field));
            fields.push(field);
        }
        Ok(CVal::Ctor(ctor.name.clone(), fields))
    }

    fn rejection_sample(
        &self,
        rng: &mut Rng,
        ty: &RType,
        env: &LogicEnv,
        stats: &mut GenStats,
        mut draw: impl FnMut(&mut Rng) -> CVal,
    ) -> Result<CVal, OracleError> {
        let refinement = ty.refinement();
        for _ in 0..self.retries.max(1) {
            let candidate = draw(rng);
            if refinement.is_true() {
                return Ok(candidate);
            }
            let mut check_env = env.clone();
            check_env.insert(VALUE_VAR.to_string(), LogicVal::of(&candidate));
            if self.checker.interp().eval_bool(&refinement, &check_env)? {
                return Ok(candidate);
            }
            stats.rejected += 1;
        }
        Err(OracleError::GaveUp(format!(
            "no scalar satisfying {} after {} attempts",
            ty.refinement(),
            self.retries
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus_datatypes as dts;
    use synquid_logic::Sort;

    #[test]
    fn generated_values_inhabit_their_own_type() {
        let dts = dts();
        let generator = Generator::new(&dts);
        let mut rng = Rng::new(42);
        let mut stats = GenStats::default();
        for ty in [
            RType::int(),
            RType::bool(),
            RType::base(BaseType::Data("List".into(), vec![RType::int()])),
            RType::base(BaseType::Data("BST".into(), vec![RType::int()])),
            RType::base(BaseType::Data("IList".into(), vec![RType::int()])),
        ] {
            for _ in 0..50 {
                let v = generator
                    .generate(&mut rng, &ty, &LogicEnv::new(), &mut stats)
                    .expect("generation succeeds");
                assert_eq!(
                    generator.checker().check(&v, &ty, &LogicEnv::new()),
                    Ok(true),
                    "{v} should inhabit {ty}"
                );
            }
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let dts = dts();
        let generator = Generator::new(&dts);
        let ty = RType::base(BaseType::Data("BST".into(), vec![RType::int()]));
        let run = |seed: u64| {
            let mut rng = Rng::new(seed);
            let mut stats = GenStats::default();
            (0..20)
                .map(|_| {
                    generator
                        .generate(&mut rng, &ty, &LogicEnv::new(), &mut stats)
                        .unwrap()
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seeds should differ somewhere");
    }

    #[test]
    fn size_budget_bounds_datatype_depth() {
        let dts = dts();
        let mut generator = Generator::new(&dts);
        generator.max_size = 3;
        let ty = RType::base(BaseType::Data("List".into(), vec![RType::int()]));
        let mut rng = Rng::new(11);
        let mut stats = GenStats::default();
        for _ in 0..100 {
            let v = generator
                .generate(&mut rng, &ty, &LogicEnv::new(), &mut stats)
                .unwrap();
            // A list of depth budget 3 has at most 3 Cons cells.
            let spine = v.size();
            assert!(spine <= 2 * 3 + 1, "value too large: {v}");
        }
    }

    #[test]
    fn refined_scalars_are_rejection_sampled() {
        let dts = dts();
        let generator = Generator::new(&dts);
        // {Int | ν > 0}
        let ty = RType::refined(BaseType::Int, Term::value_var(Sort::Int).gt(Term::int(0)));
        let mut rng = Rng::new(3);
        let mut stats = GenStats::default();
        for _ in 0..50 {
            let v = generator
                .generate(&mut rng, &ty, &LogicEnv::new(), &mut stats)
                .unwrap();
            assert!(matches!(v, CVal::Int(n) if n > 0));
        }
        assert!(stats.rejected > 0, "some draws should have been rejected");
    }

    #[test]
    fn unsatisfiable_preconditions_give_up_cleanly() {
        let dts = dts();
        let generator = Generator::new(&dts);
        // {Int | ν < ν} is unsatisfiable.
        let nu = Term::value_var(Sort::Int);
        let ty = RType::refined(BaseType::Int, nu.clone().lt(nu));
        let mut rng = Rng::new(5);
        let mut stats = GenStats::default();
        assert!(matches!(
            generator.generate(&mut rng, &ty, &LogicEnv::new(), &mut stats),
            Err(OracleError::GaveUp(_))
        ));
    }
}
