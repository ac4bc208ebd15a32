//! Property-based tests for the SMT substrate: the solver's verdicts are
//! cross-checked against brute-force evaluation over a small integer
//! domain, and core algebraic laws of the decision procedures are checked.
//!
//! Each property sweeps a fixed range of seeds through the seeded
//! [`Rng`]; a failure names its seed, and `Rng::new(seed)` replays the
//! exact case.

use std::collections::BTreeSet;
use synquid_logic::{BinOp, Rng, Sort, Term, UnOp};
use synquid_solver::lia::{Constraint, IncrementalLia, LiaResult, LinExpr, Rel};
use synquid_solver::{
    enumerate_mus_smt, Budget, LemmaSeed, Lit, MusMemo, Rational, SatResult, SatSolver,
    SharedLemmaStore, SharedValidityCache, Smt, SmtResult,
};

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
            SatResult::Unsat => {
                assert!(
                    !expected,
                    "seed {seed}: solver said UNSAT on a SAT instance"
                )
            }
        }
    }
}

fn sat_lits(lits: &[(usize, bool)]) -> Vec<Lit> {
    lits.iter().map(|&(v, p)| Lit::new(v, p)).collect()
}

/// FNV-1a over the little-endian bytes of `word`, continuing from `hash`
/// (start from [`FNV_OFFSET`]).
fn fnv1a(hash: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One solver per seed answers eight rounds of `solve_with_assumptions`
/// under random assumptions, with random clauses added between rounds,
/// so learned clauses and watch lists carry over from call to call.
/// Every verdict equals brute force over the clauses plus the
/// assumptions, and every model satisfies both. The sweep's verdicts
/// and models fold into a digest: a kernel change that alters a
/// decision picks a different model somewhere and fails the pin, even
/// when every answer is still correct.
#[test]
fn a_reused_cdcl_solver_agrees_with_brute_force_and_keeps_its_models() {
    const VARS: usize = 10;
    let mut digest = FNV_OFFSET;
    for seed in 0..160 {
        let mut rng = Rng::new(seed);
        let mut solver = SatSolver::new();
        solver.reserve_vars(VARS);
        let mut cnf: Vec<Vec<(usize, bool)>> = Vec::new();
        let lit = |rng: &mut Rng| (rng.below(VARS as u64) as usize, rng.flip());
        for round in 0..8 {
            for clause in vec_of(&mut rng, 0, 6, |rng| vec_of(rng, 1, 3, lit)) {
                solver.add_clause(sat_lits(&clause));
                cnf.push(clause);
            }
            let assumptions = vec_of(&mut rng, 0, 3, lit);
            let mut constrained = cnf.clone();
            constrained.extend(assumptions.iter().map(|&a| vec![a]));
            let expected = brute_force_sat(VARS, &constrained);
            if seed == 78 && round == 4 {
                let mut fresh = SatSolver::new();
                fresh.reserve_vars(VARS);
                for c in &cnf {
                    fresh.add_clause(sat_lits(c));
                }
                eprintln!(
                    "CNF {cnf:?}\nASSUME {assumptions:?}\nfresh {:?}",
                    fresh.solve_with_assumptions(&sat_lits(&assumptions))
                );
            }
            match solver.solve_with_assumptions(&sat_lits(&assumptions)) {
                SatResult::Sat(model) => {
                    assert!(
                        expected,
                        "seed {seed}, round {round}: SAT on an UNSAT instance under {assumptions:?}"
                    );
                    for clause in &constrained {
                        assert!(
                            clause.iter().any(|(v, p)| model[*v] == *p),
                            "seed {seed}, round {round}: model violates {clause:?}"
                        );
                    }
                    digest = fnv1a(digest, 1);
                    for value in model {
                        digest = fnv1a(digest, u64::from(value));
                    }
                }
                SatResult::Unsat => {
                    assert!(
                        !expected,
                        "seed {seed}, round {round}: UNSAT on a SAT instance under {assumptions:?}"
                    );
                    digest = fnv1a(digest, 0);
                }
            }
        }
    }
    assert_eq!(
        format!("{digest:016x}"),
        "d988febd5b9f79a5",
        "a SAT decision changed: some verdict or model differs from the pinned sweep"
    );
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
        let verdict = IncrementalLia::new(3, Budget::default()).check(&lia_constraints);
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

// ---------------------------------------------------------------------
// Theory-lemma replay across solvers
// ---------------------------------------------------------------------

/// A comparison between two of `vars`, drawn so that one portable atom
/// key recurs under several spellings: `u ≤ v + k` also appears as its
/// sign-flipped twin `v + k ≥ u`, scaled as `2u ≤ 2v + 2k`, strictly, or
/// inside an equality.
fn replay_atom(rng: &mut Rng, vars: &[Term]) -> Term {
    let mut pick = || vars[rng.below(vars.len() as u64) as usize].clone();
    let (u, v) = (pick(), pick());
    let k = rng.int_in(-2, 2);
    let twice = |t: Term| Term::int(2).times(t);
    match rng.below(6) {
        0 => u.le(v.plus(Term::int(k))),
        1 => v.plus(Term::int(k)).ge(u),
        2 => twice(u).le(twice(v).plus(Term::int(2 * k))),
        3 => u.lt(v.plus(Term::int(k))),
        4 => v.plus(Term::int(k)).gt(u),
        _ => u.eq(v.plus(Term::int(k))),
    }
}

/// [`replay_atom`]s under `∧`, `∨` and `¬`, at most `depth` connectives
/// deep, leaning to conjunctions so that theory conflicts are common.
fn replay_formula(rng: &mut Rng, vars: &[Term], depth: usize) -> Term {
    if depth == 0 || rng.below(4) == 0 {
        return replay_atom(rng, vars);
    }
    let a = replay_formula(rng, vars, depth - 1);
    match rng.below(5) {
        0 => a.or(replay_formula(rng, vars, depth - 1)),
        1 => a.not(),
        _ => a.and(replay_formula(rng, vars, depth - 1)),
    }
}

/// One query of the replay sweep.
enum ReplayQuery {
    Sat(Term),
    Mus(Term, Vec<Term>),
}

/// Six satisfiability queries, some of them entailments `p ∧ ¬q`, and
/// one MUS enumeration over 3–4 integer variables.
fn replay_queries(rng: &mut Rng) -> Vec<ReplayQuery> {
    let vars: Vec<Term> = ["a", "b", "c", "d"][..3 + rng.below(2) as usize]
        .iter()
        .map(|name| Term::var(*name, Sort::Int))
        .collect();
    let mut queries: Vec<ReplayQuery> = (0..6)
        .map(|_| match rng.below(2) {
            0 => ReplayQuery::Sat(replay_formula(rng, &vars, 3)),
            _ => ReplayQuery::Sat(
                replay_formula(rng, &vars, 2).and(replay_formula(rng, &vars, 1).not()),
            ),
        })
        .collect();
    let background = replay_formula(rng, &vars, 1);
    let soft = vec_of(rng, 2, 4, |rng| replay_atom(rng, &vars));
    queries.push(ReplayQuery::Mus(background, soft));
    queries
}

/// A query's outcome: a verdict, or the MUSes of an enumeration.
#[derive(Debug, PartialEq)]
enum ReplayOutcome {
    Verdict(SmtResult),
    Muses(Vec<BTreeSet<usize>>),
}

fn pose(smt: &mut Smt, query: &ReplayQuery) -> ReplayOutcome {
    match query {
        ReplayQuery::Sat(f) => ReplayOutcome::Verdict(smt.check_sat(f)),
        ReplayQuery::Mus(background, soft) => {
            ReplayOutcome::Muses(enumerate_mus_smt(smt, background, soft, &BTreeSet::new()))
        }
    }
}

fn fold_outcome(digest: u64, outcome: &ReplayOutcome) -> u64 {
    match outcome {
        ReplayOutcome::Verdict(verdict) => fnv1a(digest, *verdict as u64),
        ReplayOutcome::Muses(muses) => muses.iter().fold(fnv1a(digest, 3), |h, mus| {
            mus.iter()
                .fold(fnv1a(h, mus.len() as u64), |h, &i| fnv1a(h, i as u64))
        }),
    }
}

/// Per seed, one solver on a fresh session store poses random LIA
/// queries, learning theory lemmas into the store. A second solver, as
/// a later batch would build it (the seed frozen from the store, a
/// fresh validity cache and MUS memo), poses them again and replays
/// the seeded lemmas. Each outcome of either solver equals that of a
/// from-scratch `set_incremental(false)` solver unless one of the two
/// is `Unknown`. The outcomes, both solvers' learned and replayed counts and
/// the store's lemmas fold into a digest, so a change to which lemmas
/// replay, or to their keys, fails the pin even when every verdict is
/// still correct.
#[test]
fn a_solver_on_the_seed_of_a_store_replays_its_lemmas_and_keeps_every_verdict() {
    let mut digest = FNV_OFFSET;
    let (mut learned, mut reused) = (0, 0);
    for seed in 0..64 {
        let queries = replay_queries(&mut Rng::new(seed));
        let store = SharedLemmaStore::new();
        let session = |seed: LemmaSeed| {
            Smt::with_session(
                SharedValidityCache::new(),
                MusMemo::new(),
                seed,
                store.clone(),
            )
        };
        let mut first = session(LemmaSeed::default());
        let first_outcomes: Vec<ReplayOutcome> =
            queries.iter().map(|q| pose(&mut first, q)).collect();
        let mut second = session(store.seed());
        let second_outcomes: Vec<ReplayOutcome> =
            queries.iter().map(|q| pose(&mut second, q)).collect();
        let mut scratch = Smt::new();
        scratch.set_incremental(false);
        for (i, query) in queries.iter().enumerate() {
            let expected = pose(&mut scratch, query);
            for (solver, outcome) in [
                ("first", &first_outcomes[i]),
                ("second", &second_outcomes[i]),
            ] {
                let undecided =
                    |o: &ReplayOutcome| o == &ReplayOutcome::Verdict(SmtResult::Unknown);
                if !undecided(outcome) && !undecided(&expected) {
                    assert_eq!(
                        outcome, &expected,
                        "seed {seed}, query {i}: the {solver} solver disagrees with a from-scratch one"
                    );
                }
            }
        }
        for outcome in first_outcomes.iter().chain(&second_outcomes) {
            digest = fold_outcome(digest, outcome);
        }
        for solver in [&first, &second] {
            let stats = solver.stats();
            digest = fnv1a(digest, stats.conflicts_learned as u64);
            digest = fnv1a(digest, stats.conflicts_reused as u64);
        }
        learned += first.stats().conflicts_learned;
        reused += second.stats().conflicts_reused;
        for lemma in store.sorted_keys() {
            digest = fnv1a(digest, lemma.len() as u64);
            for (key, value) in lemma {
                digest = key.bytes().fold(fnv1a(digest, key.len() as u64), |h, b| {
                    fnv1a(h, u64::from(b))
                });
                digest = fnv1a(digest, u64::from(value));
            }
        }
    }
    assert!(
        learned > 0 && reused > 0,
        "the sweep must learn and replay lemmas"
    );
    assert_eq!(
        format!("{digest:016x}"),
        "49e0950bcec58e6d",
        "a lemma replay changed: some outcome, count or stored lemma differs from the pinned sweep"
    );
}
