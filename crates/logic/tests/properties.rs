//! Property-based tests for the refinement-term algebra.
//!
//! Each property sweeps a fixed range of seeds through the seeded
//! [`Rng`]; a failure names its seed, and `Rng::new(seed)` replays the
//! exact case.

use std::collections::BTreeMap;
use synquid_logic::simplify::{conjuncts, fold_constants, nnf};
use synquid_logic::{Interner, Rng, Sort, Substitution, Term};

/// Seeds swept by every property.
const CASES: u64 = 128;

/// A small integer term over the variables `x`, `y`, `z` and constants in
/// `-4..=4`, nesting `+`/`-` at most `depth` levels deep.
fn int_term(rng: &mut Rng, depth: usize) -> Term {
    if depth == 0 || rng.below(3) == 0 {
        return match rng.below(4) {
            0 => Term::int(rng.int_in(-4, 4)),
            1 => Term::var("x", Sort::Int),
            2 => Term::var("y", Sort::Int),
            _ => Term::var("z", Sort::Int),
        };
    }
    let a = int_term(rng, depth - 1);
    let b = int_term(rng, depth - 1);
    if rng.flip() {
        a.plus(b)
    } else {
        a.minus(b)
    }
}

/// A small boolean formula: comparisons of [`int_term`]s and boolean
/// constants under `∧`, `∨`, `⇒` and `¬`, at most `depth` connectives
/// deep.
fn formula(rng: &mut Rng, depth: usize) -> Term {
    if depth == 0 || rng.below(3) == 0 {
        return match rng.below(6) {
            0 => Term::tt(),
            1 => Term::ff(),
            op => {
                let a = int_term(rng, 3);
                let b = int_term(rng, 3);
                match op {
                    2 => a.le(b),
                    3 => a.lt(b),
                    4 => a.eq(b),
                    _ => a.neq(b),
                }
            }
        };
    }
    let a = formula(rng, depth - 1);
    match rng.below(4) {
        0 => a.and(formula(rng, depth - 1)),
        1 => a.or(formula(rng, depth - 1)),
        2 => a.implies(formula(rng, depth - 1)),
        _ => a.not(),
    }
}

fn arb_formula(rng: &mut Rng) -> Term {
    formula(rng, 4)
}

/// Evaluates a closed-after-substitution formula under an integer
/// assignment; returns `None` if the term is not boolean or mentions
/// unexpected constructs.
fn eval(term: &Term, env: &BTreeMap<&str, i64>) -> Option<i64> {
    use synquid_logic::{BinOp, UnOp};
    Some(match term {
        Term::IntLit(n) => *n,
        Term::BoolLit(b) => *b as i64,
        Term::Var(name, _) => *env.get(name.as_str())?,
        Term::Unary(UnOp::Neg, t) => -eval(t, env)?,
        Term::Unary(UnOp::Not, t) => 1 - eval(t, env)?,
        Term::Binary(op, a, b) => {
            let a = eval(a, env)?;
            let b = eval(b, env)?;
            match op {
                BinOp::Plus => a + b,
                BinOp::Minus => a - b,
                BinOp::Times => a * b,
                BinOp::Eq => (a == b) as i64,
                BinOp::Neq => (a != b) as i64,
                BinOp::Le => (a <= b) as i64,
                BinOp::Lt => (a < b) as i64,
                BinOp::Ge => (a >= b) as i64,
                BinOp::Gt => (a > b) as i64,
                BinOp::And => (a != 0 && b != 0) as i64,
                BinOp::Or => (a != 0 || b != 0) as i64,
                BinOp::Implies => (a == 0 || b != 0) as i64,
                BinOp::Iff => ((a != 0) == (b != 0)) as i64,
                _ => return None,
            }
        }
        Term::Ite(c, t, e) => {
            if eval(c, env)? != 0 {
                eval(t, env)?
            } else {
                eval(e, env)?
            }
        }
        _ => return None,
    })
}

/// NNF preserves the truth value of formulas under every assignment
/// from a small sample.
#[test]
fn nnf_preserves_semantics() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let f = arb_formula(&mut rng);
        let (x, y, z) = (rng.int_in(-3, 3), rng.int_in(-3, 3), rng.int_in(-3, 3));
        let env: BTreeMap<&str, i64> = [("x", x), ("y", y), ("z", z)].into_iter().collect();
        let original = eval(&f, &env);
        let normalized = eval(&nnf(&f), &env);
        assert_eq!(
            original.map(|v| v != 0),
            normalized.map(|v| v != 0),
            "seed {seed}: {f}"
        );
    }
}

/// Constant folding preserves semantics.
#[test]
fn fold_constants_preserves_semantics() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let f = arb_formula(&mut rng);
        let (x, y) = (rng.int_in(-3, 3), rng.int_in(-3, 3));
        let env: BTreeMap<&str, i64> = [("x", x), ("y", y), ("z", 0)].into_iter().collect();
        let original = eval(&f, &env);
        let folded = eval(&fold_constants(&f), &env);
        assert_eq!(
            original.map(|v| v != 0),
            folded.map(|v| v != 0),
            "seed {seed}: {f}"
        );
    }
}

/// NNF never leaves a negation above a connective.
#[test]
fn nnf_pushes_negations_to_atoms() {
    use synquid_logic::{BinOp, UnOp};
    for seed in 0..CASES {
        let f = arb_formula(&mut Rng::new(seed));
        let mut ok = true;
        nnf(&f).walk(&mut |t| {
            if let Term::Unary(UnOp::Not, inner) = t {
                if let Term::Binary(op, _, _) = inner.as_ref() {
                    if matches!(op, BinOp::And | BinOp::Or | BinOp::Implies | BinOp::Iff) {
                        ok = false;
                    }
                }
            }
        });
        assert!(ok, "seed {seed}: {f}");
    }
}

/// Substituting a variable eliminates it from the free-variable set
/// (when the replacement does not itself mention the variable).
#[test]
fn substitution_eliminates_the_variable() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let f = arb_formula(&mut rng);
        let c = rng.int_in(-5, 5);
        let mut subst = Substitution::new();
        subst.insert("x".to_string(), Term::int(c));
        let substituted = f.substitute(&subst);
        assert!(
            !substituted.free_vars().contains_key("x"),
            "seed {seed}: {f}"
        );
    }
}

/// Substitution commutes with evaluation.
#[test]
fn substitution_commutes_with_evaluation() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let f = arb_formula(&mut rng);
        let (c, y) = (rng.int_in(-3, 3), rng.int_in(-3, 3));
        let mut subst = Substitution::new();
        subst.insert("x".to_string(), Term::int(c));
        let substituted = f.substitute(&subst);
        let env_full: BTreeMap<&str, i64> = [("x", c), ("y", y), ("z", 1)].into_iter().collect();
        let env_rest: BTreeMap<&str, i64> = [("x", 99), ("y", y), ("z", 1)].into_iter().collect();
        // After substitution the value of the original x binding is irrelevant.
        assert_eq!(
            eval(&f, &env_full),
            eval(&substituted, &env_rest).or(eval(&substituted, &env_full)),
            "seed {seed}: {f}"
        );
    }
}

/// Interning is a lossless round trip, and ids coincide exactly when
/// the terms are structurally equal (the key soundness property of
/// the shared validity cache, which compares interned ids instead of
/// whole terms).
#[test]
fn interning_round_trips_structural_equality() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let f = arb_formula(&mut rng);
        let g = arb_formula(&mut rng);
        let mut interner = Interner::new();
        let id_f = interner.intern(&f);
        let id_g = interner.intern(&g);
        assert_eq!(id_f == id_g, f == g, "seed {seed}: {f} vs {g}");
        assert_eq!(interner.resolve(id_f), f, "seed {seed}");
        assert_eq!(interner.resolve(id_g), g, "seed {seed}");
        // Re-interning a resolved term is stable.
        let resolved = interner.resolve(id_f);
        assert_eq!(interner.intern(&resolved), id_f, "seed {seed}");
        assert_eq!(interner.intern(&f), id_f, "seed {seed}");
    }
}

/// Splitting a conjunction and conjoining the pieces back is the
/// identity up to truth value.
#[test]
fn conjuncts_roundtrip() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let f = arb_formula(&mut rng);
        let (x, y) = (rng.int_in(-3, 3), rng.int_in(-3, 3));
        let env: BTreeMap<&str, i64> = [("x", x), ("y", y), ("z", 2)].into_iter().collect();
        let rebuilt = Term::conjunction(conjuncts(&f));
        assert_eq!(
            eval(&f, &env).map(|v| v != 0),
            eval(&rebuilt, &env).map(|v| v != 0),
            "seed {seed}: {f}"
        );
    }
}
