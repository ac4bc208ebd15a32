//! Property-based tests for the SMT substrate: the solver's verdicts are
//! cross-checked against brute-force evaluation over a small integer
//! domain, and core algebraic laws of the decision procedures are checked.
//!
//! Each property sweeps a fixed range of seeds through the seeded
//! [`Rng`]; a failure names its seed, and `Rng::new(seed)` replays the
//! exact case.

use synquid_logic::{BinOp, Rng, Sort, Term, UnOp};
use synquid_solver::lia::{Constraint, LiaResult, LiaSolver, LinExpr, Rel};
use synquid_solver::{Lit, Rational, SatResult, SatSolver, Smt, SmtResult};

/// `n` draws of `draw`, where `n` is uniform in `lo..=hi`.
fn vec_of<T>(rng: &mut Rng, lo: u64, hi: u64, mut draw: impl FnMut(&mut Rng) -> T) -> Vec<T> {
    let n = lo + rng.below(hi - lo + 1);
    (0..n).map(|_| draw(rng)).collect()
}

// ---------------------------------------------------------------------
// SAT solver vs. brute force
// ---------------------------------------------------------------------

/// Up to 11 clauses of 1–3 literals over `num_vars` variables.
fn arb_cnf(rng: &mut Rng, num_vars: usize) -> Vec<Vec<(usize, bool)>> {
    vec_of(rng, 0, 11, |rng| {
        vec_of(rng, 1, 3, |rng| {
            (rng.below(num_vars as u64) as usize, rng.flip())
        })
    })
}

fn brute_force_sat(num_vars: usize, cnf: &[Vec<(usize, bool)>]) -> bool {
    (0..(1u32 << num_vars)).any(|assignment| {
        cnf.iter().all(|clause| {
            clause
                .iter()
                .any(|(v, pos)| ((assignment >> v) & 1 == 1) == *pos)
        })
    })
}

/// The CDCL solver agrees with brute force on small CNFs.
#[test]
fn cdcl_agrees_with_brute_force() {
    for seed in 0..128 {
        let cnf = arb_cnf(&mut Rng::new(seed), 5);
        let mut solver = SatSolver::new();
        solver.reserve_vars(5);
        for clause in &cnf {
            solver.add_clause(clause.iter().map(|(v, p)| Lit::new(*v, *p)).collect());
        }
        let expected = brute_force_sat(5, &cnf);
        match solver.solve() {
            SatResult::Sat(model) => {
                assert!(
                    expected,
                    "seed {seed}: solver said SAT on an UNSAT instance"
                );
                // The model must satisfy every clause.
                for clause in &cnf {
                    assert!(
                        clause.iter().any(|(v, p)| model[*v] == *p),
                        "seed {seed}: model violates {clause:?}"
                    );
                }
            }
            SatResult::Unsat(_) => {
                assert!(
                    !expected,
                    "seed {seed}: solver said UNSAT on a SAT instance"
                )
            }
        }
    }
}

// ---------------------------------------------------------------------
// LIA solver vs. brute force over a small box
// ---------------------------------------------------------------------

/// `coeffs · (x, y, z) + constant  rel  0`.
#[derive(Debug, Clone)]
struct SmallConstraint {
    coeffs: [i64; 3],
    constant: i64,
    rel: Rel,
}

/// Up to 4 constraints with coefficients in `-2..=2` and constants in
/// `-4..=4`.
fn arb_lia(rng: &mut Rng) -> Vec<SmallConstraint> {
    vec_of(rng, 0, 4, |rng| SmallConstraint {
        coeffs: [rng.int_in(-2, 2), rng.int_in(-2, 2), rng.int_in(-2, 2)],
        constant: rng.int_in(-4, 4),
        rel: [Rel::Le, Rel::Ge, Rel::Eq][rng.below(3) as usize],
    })
}

fn lia_brute_force(constraints: &[SmallConstraint]) -> bool {
    let range = -6i64..=6;
    range.clone().any(|x| {
        range.clone().any(|y| {
            range.clone().any(|z| {
                constraints.iter().all(|c| {
                    let lhs = c.coeffs[0] * x + c.coeffs[1] * y + c.coeffs[2] * z + c.constant;
                    match c.rel {
                        Rel::Le => lhs <= 0,
                        Rel::Ge => lhs >= 0,
                        Rel::Eq => lhs == 0,
                    }
                })
            })
        })
    })
}

/// If the brute-force search over a small box finds an integer model,
/// the simplex + branch-and-bound solver must not report UNSAT (it
/// searches the unbounded integer lattice, so the converse need not
/// hold).
#[test]
fn lia_never_misses_box_solutions() {
    for seed in 0..96 {
        let constraints = arb_lia(&mut Rng::new(seed));
        let lia_constraints: Vec<Constraint> = constraints
            .iter()
            .map(|c| {
                let mut expr = LinExpr::constant(Rational::from_int(c.constant));
                for (v, a) in c.coeffs.iter().enumerate() {
                    expr.add_scaled(&LinExpr::variable(v), Rational::from_int(*a));
                }
                Constraint { expr, rel: c.rel }
            })
            .collect();
        let verdict = LiaSolver::new().check(3, &lia_constraints);
        if lia_brute_force(&constraints) {
            assert!(
                verdict.possibly_sat(),
                "seed {seed}: solver reported UNSAT but a model exists for {constraints:?}"
            );
        }
        // When the solver returns a model, it must satisfy the constraints.
        if let LiaResult::Sat(model) = verdict {
            for (c, lc) in constraints.iter().zip(&lia_constraints) {
                let val = lc.expr.eval(&model);
                let ok = match c.rel {
                    Rel::Le => val <= Rational::ZERO,
                    Rel::Ge => val >= Rational::ZERO,
                    Rel::Eq => val.is_zero(),
                };
                assert!(ok, "seed {seed}: model {model:?} violates {c:?}");
            }
        }
    }
}

// ---------------------------------------------------------------------
// End-to-end SMT properties
// ---------------------------------------------------------------------

/// `x`, `y`, or a constant in `-3..=3`.
fn arb_operand(rng: &mut Rng) -> Term {
    match rng.below(3) {
        0 => Term::var("x", Sort::Int),
        1 => Term::var("y", Sort::Int),
        _ => Term::int(rng.int_in(-3, 3)),
    }
}

/// Comparisons of [`arb_operand`]s under `∧`, `∨` and `¬`, at most
/// `depth` connectives deep.
fn smt_formula(rng: &mut Rng, depth: usize) -> Term {
    if depth == 0 || rng.below(3) == 0 {
        let a = arb_operand(rng);
        let b = arb_operand(rng);
        return match rng.below(4) {
            0 => a.le(b),
            1 => a.lt(b),
            2 => a.eq(b),
            _ => a.ge(b),
        };
    }
    let a = smt_formula(rng, depth - 1);
    match rng.below(3) {
        0 => a.and(smt_formula(rng, depth - 1)),
        1 => a.or(smt_formula(rng, depth - 1)),
        _ => a.not(),
    }
}

fn arb_smt_formula(rng: &mut Rng) -> Term {
    smt_formula(rng, 3)
}

fn eval_formula(t: &Term, x: i64, y: i64) -> bool {
    fn eval_int(t: &Term, x: i64, y: i64) -> i64 {
        match t {
            Term::IntLit(n) => *n,
            Term::Var(n, _) if n == "x" => x,
            Term::Var(_, _) => y,
            _ => unreachable!(),
        }
    }
    match t {
        Term::BoolLit(b) => *b,
        Term::Unary(UnOp::Not, inner) => !eval_formula(inner, x, y),
        Term::Binary(op, a, b) => match op {
            BinOp::And => eval_formula(a, x, y) && eval_formula(b, x, y),
            BinOp::Or => eval_formula(a, x, y) || eval_formula(b, x, y),
            BinOp::Le => eval_int(a, x, y) <= eval_int(b, x, y),
            BinOp::Lt => eval_int(a, x, y) < eval_int(b, x, y),
            BinOp::Ge => eval_int(a, x, y) >= eval_int(b, x, y),
            BinOp::Gt => eval_int(a, x, y) > eval_int(b, x, y),
            BinOp::Eq => eval_int(a, x, y) == eval_int(b, x, y),
            BinOp::Neq => eval_int(a, x, y) != eval_int(b, x, y),
            _ => unreachable!(),
        },
        _ => unreachable!(),
    }
}

/// If a small-domain model exists, the SMT facade must not report
/// UNSAT; if it reports SAT for the negation, the formula is not
/// valid, which must agree with a counterexample search.
#[test]
fn smt_verdicts_are_consistent_with_small_models() {
    for seed in 0..64 {
        let f = arb_smt_formula(&mut Rng::new(seed));
        let mut smt = Smt::new();
        let has_model = (-4i64..5).any(|x| (-4i64..5).any(|y| eval_formula(&f, x, y)));
        let verdict = smt.check_sat(&f);
        if has_model {
            assert_ne!(
                verdict,
                SmtResult::Unsat,
                "seed {seed}: missed a model of {f}"
            );
        }
        // Validity is dual: if every small assignment satisfies the
        // formula's negation, the formula cannot be valid.
        let negation_everywhere = (-4i64..5).all(|x| (-4i64..5).all(|y| !eval_formula(&f, x, y)));
        if negation_everywhere {
            assert!(!smt.is_valid(&f), "seed {seed}: {f} reported valid");
        }
    }
}

/// `entails` is reflexive and respects conjunction weakening.
#[test]
fn entailment_laws() {
    for seed in 0..64 {
        let mut rng = Rng::new(seed);
        let f = arb_smt_formula(&mut rng);
        let g = arb_smt_formula(&mut rng);
        let mut smt = Smt::new();
        assert!(smt.entails(&f, &f), "seed {seed}: {f} ⊭ itself");
        assert!(
            smt.entails(&f.clone().and(g.clone()), &f),
            "seed {seed}: {f} ∧ {g} ⊭ {f}"
        );
        assert!(
            smt.entails(&f, &f.clone().or(g.clone())),
            "seed {seed}: {f} ⊭ {f} ∨ {g}"
        );
    }
}
