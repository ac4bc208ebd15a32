//! Enumeration of minimal unsatisfiable subsets (MUSes).
//!
//! This is the engine behind MUSFIX (Sec. 3.6 of the paper): the
//! `Strengthen` step of the greatest-fixpoint Horn solver needs, for each
//! violated Horn constraint, all *minimal* subsets of candidate qualifier
//! atoms whose addition makes the constraint valid. That task reduces to
//! enumerating the MUSes of a constraint set that contain the negated
//! right-hand side of the implication.
//!
//! The implementation follows the MARCO algorithm (Liffiton et al.,
//! "Fast, flexible MUS enumeration"): a *map* SAT instance over subset
//! selector variables steers exploration; unsatisfiable seeds are shrunk
//! to MUSes (blocking all supersets), satisfiable seeds are grown to MSSes
//! (blocking all subsets).
//!
//! Decided enumerations are memoized in a [`MusMemo`]: a standalone
//! [`Smt`] owns one, and a resident session hands all its solvers the
//! same one, so an enumeration outlives the rung, goal, batch and warm
//! replay that computed it.

use crate::encode::{Encoder, Skeleton};
use crate::epoch_memo::EpochMemo;
use crate::sat::{Lit, SatResult, SatSolver};
use crate::smt::{Smt, SmtResult};
use std::collections::BTreeSet;
use synquid_logic::Term;

/// Maximum number of MUSes one enumeration reports.
const MAX_MUSES: usize = 4;

/// Maximum number of subset satisfiability checks one enumeration issues.
const MAX_CHECKS: usize = 400;

/// Key of one memoized enumeration: the whole strengthening problem.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MusKey {
    background: Term,
    soft: Vec<Term>,
    required: Vec<usize>,
}

/// A cloneable handle to a memo of *decided* MUS enumerations: every
/// subset check of a stored enumeration answered `Sat` or `Unsat`, so
/// the stored MUSes are a pure function of the key, whatever lemma state
/// or budget the computing solver had. That is what lets one memo serve
/// many solvers (see [`EpochMemo`] for the bound and the epoch GC).
pub type MusMemo = EpochMemo<MusKey, Vec<BTreeSet<usize>>>;

impl MusMemo {
    /// Default bound on stored enumerations.
    pub const DEFAULT_MAX_ENTRIES: usize = 50_000;

    /// Creates an empty memo with the default bound.
    pub fn new() -> MusMemo {
        MusMemo::default()
    }
}

impl Default for MusMemo {
    fn default() -> MusMemo {
        MusMemo::with_max_entries(Self::DEFAULT_MAX_ENTRIES)
    }
}

/// Enumerates minimal unsatisfiable subsets of `0..n` using the provided
/// oracle, stopping after `MAX_MUSES` MUSes or `MAX_CHECKS` oracle calls.
/// Every reported subset is a superset of `required`; elements of
/// `required` are never candidates for removal during shrinking.
///
/// The `is_unsat` oracle receives a candidate subset (always including
/// `required`) and must return `true` iff that subset is unsatisfiable
/// (together with whatever fixed background the caller has in mind).
pub fn enumerate_mus(
    n: usize,
    required: &BTreeSet<usize>,
    mut is_unsat: impl FnMut(&BTreeSet<usize>) -> bool,
) -> Vec<BTreeSet<usize>> {
    let mut muses: Vec<BTreeSet<usize>> = Vec::new();
    let mut checks = 0usize;
    let mut map = SatSolver::new();
    map.reserve_vars(n);
    for &r in required {
        map.add_clause(vec![Lit::pos(r)]);
    }

    loop {
        if muses.len() >= MAX_MUSES || checks >= MAX_CHECKS {
            break;
        }
        // Find an unexplored seed.
        let model = match map.solve() {
            SatResult::Unsat => break,
            SatResult::Sat(model) => model,
        };
        let mut seed: BTreeSet<usize> = (0..n)
            .filter(|i| model.get(*i).copied().unwrap_or(false))
            .collect();
        seed.extend(required.iter().copied());

        // Grow the seed towards a maximal set first: MARCO works correctly
        // with any seed, but maximal seeds find MUSes faster for our
        // workloads because most candidate atoms are irrelevant.
        checks += 1;
        if !is_unsat(&seed) {
            // Satisfiable: grow to an MSS, then block down.
            let mut mss = seed.clone();
            for i in 0..n {
                if mss.contains(&i) {
                    continue;
                }
                let mut candidate = mss.clone();
                candidate.insert(i);
                checks += 1;
                if checks >= MAX_CHECKS {
                    break;
                }
                if !is_unsat(&candidate) {
                    mss = candidate;
                }
            }
            // Block down: require at least one element outside the MSS.
            let clause: Vec<Lit> = (0..n).filter(|i| !mss.contains(i)).map(Lit::pos).collect();
            if clause.is_empty() {
                // The full set is satisfiable: no MUS exists above it.
                break;
            }
            map.add_clause(clause);
        } else {
            // Unsatisfiable: shrink to a MUS, then block up.
            let mut mus = seed.clone();
            let shrink_candidates: Vec<usize> = mus
                .iter()
                .copied()
                .filter(|i| !required.contains(i))
                .collect();
            for i in shrink_candidates {
                let mut candidate = mus.clone();
                candidate.remove(&i);
                checks += 1;
                if checks >= MAX_CHECKS {
                    break;
                }
                if is_unsat(&candidate) {
                    mus = candidate;
                }
            }
            // Block up: at least one element of the MUS must be absent.
            let clause: Vec<Lit> = mus
                .iter()
                .copied()
                .filter(|i| !required.contains(i))
                .map(Lit::neg)
                .collect();
            if clause.is_empty() {
                // The required set alone is unsatisfiable; it is the unique
                // MUS containing the required elements.
                muses.push(mus);
                break;
            }
            map.add_clause(clause);
            muses.push(mus);
        }
    }
    muses
}

/// Enumerates the MUSes of `background ∧ soft` that contain all `required`
/// soft constraints, using the SMT solver as the oracle.
///
/// The whole constraint set is encoded *once* against one shared encoder
/// (atoms, arithmetic variables, purified applications, and the
/// set-elimination universe — seeded from the full conjunction, which is
/// sound because a larger universe only sharpens the finite-model
/// abstraction). Each soft constraint gets a selector literal; a subset
/// check is then a single assumption-based call into the shared DPLL(T)
/// session, reusing its SAT clause database and learned theory conflicts
/// across all subsets, and its warm simplex tableau unless incremental
/// LIA is off (then each theory check builds a fresh tableau). This is
/// the only path: no subset is ever encoded on its own.
///
/// Enumerations are memoized in the solver's [`MusMemo`] (none when
/// incrementality is off): the liquid-abduction loop poses the *same*
/// strengthening problem for every candidate that shares a VC skeleton,
/// and, across rungs and batches, for every rerun of the same search. An
/// enumeration is stored only if every subset check was decided. A check
/// cut by the run's [`Budget`](crate::Budget) reflects the budget, and a
/// budget `Unknown` (the DPLL(T)-iteration or LIA-branch limit) depends
/// on the solver's lemma state; either would make the stored MUSes
/// depend on the solver that computed them.
pub fn enumerate_mus_smt(
    smt: &mut Smt,
    background: &Term,
    soft: &[Term],
    required: &BTreeSet<usize>,
) -> Vec<BTreeSet<usize>> {
    let memo = smt.mus_memo().cloned().map(|memo| {
        let key = MusKey {
            background: background.clone(),
            soft: soft.to_vec(),
            required: required.iter().copied().collect(),
        };
        (memo, key)
    });
    if let Some((memo, key)) = &memo {
        let cached = {
            let _span = synquid_telemetry::span(synquid_telemetry::Phase::CacheLookup);
            memo.lookup(key)
        };
        let kind = if cached.is_some() {
            "cache_hit"
        } else {
            "cache_miss"
        };
        synquid_telemetry::events::emit(|| {
            synquid_telemetry::events::Event::new(kind).str("layer", "mus-memo")
        });
        if let Some(cached) = cached {
            return cached;
        }
    }
    // Attributed to the same phase as the solver's unsat-core shrinking:
    // both are "minimize the reason for UNSAT" work. Oracle sub-queries
    // open their own spans, so self-time attribution keeps the totals
    // additive.
    let _span = synquid_telemetry::span(synquid_telemetry::Phase::CoreShrink);
    // Shared encoding: background is asserted unconditionally, each soft
    // constraint hangs off a selector literal assumed per subset.
    let (problem, soft_skeletons) = {
        let _encode_span = synquid_telemetry::span(synquid_telemetry::Phase::Encode);
        let mut encoder = Encoder::new();
        let full = Term::conjunction(std::iter::once(background).chain(soft.iter()).cloned());
        encoder.seed_universe(&full);
        let background_skeleton = encoder.encode(background);
        let soft_skeletons: Vec<Skeleton> = soft.iter().map(|t| encoder.encode(t)).collect();
        (encoder.finish(background_skeleton), soft_skeletons)
    };
    let mut session = smt.begin_session(&problem, &[]);
    let selectors: Vec<_> = soft_skeletons
        .iter()
        .map(|s| session.add_selectable(s))
        .collect();
    smt.note_mus_shared_encoding();
    // A budget cut answers `Unknown` too, so "every check decided"
    // also rules out interrupted enumerations.
    let mut decided = true;
    let muses = enumerate_mus(soft.len(), required, |subset| {
        let assumptions: Vec<_> = subset.iter().map(|i| selectors[*i]).collect();
        let verdict = smt.solve_session(&mut session, &problem, &assumptions);
        decided &= verdict != SmtResult::Unknown;
        verdict == SmtResult::Unsat
    });
    if let (Some((memo, key)), true) = (memo, decided) {
        memo.insert(key, muses.clone());
    }
    muses
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cancel::Budget;
    use synquid_logic::{Sort, Term};

    fn set(items: &[usize]) -> BTreeSet<usize> {
        items.iter().copied().collect()
    }

    #[test]
    fn enumerates_all_muses_of_a_boolean_oracle() {
        // Constraints: 0:"x>0", 1:"x<0", 2:"x=5", 3:"true".
        // MUSes: {0,1}, {1,2}.
        let is_unsat = |s: &BTreeSet<usize>| {
            (s.contains(&0) && s.contains(&1)) || (s.contains(&1) && s.contains(&2))
        };
        let muses = enumerate_mus(4, &BTreeSet::new(), is_unsat);
        assert_eq!(muses.len(), 2);
        assert!(muses.contains(&set(&[0, 1])));
        assert!(muses.contains(&set(&[1, 2])));
    }

    #[test]
    fn required_elements_are_in_every_mus() {
        // Same oracle, but require element 2: only {1,2} qualifies.
        let is_unsat = |s: &BTreeSet<usize>| {
            (s.contains(&0) && s.contains(&1)) || (s.contains(&1) && s.contains(&2))
        };
        let muses = enumerate_mus(4, &set(&[2]), is_unsat);
        assert_eq!(muses, vec![set(&[1, 2])]);
    }

    #[test]
    fn no_mus_when_everything_satisfiable() {
        let muses = enumerate_mus(5, &BTreeSet::new(), |_| false);
        assert!(muses.is_empty());
    }

    #[test]
    fn required_set_alone_unsat_is_the_unique_mus() {
        let muses = enumerate_mus(3, &set(&[1]), |s| s.contains(&1));
        assert_eq!(muses, vec![set(&[1])]);
    }

    /// The replicate Nil-branch strengthening problem. Background:
    /// `len ν = 0 ∧ ¬(len ν = n) ∧ 0 ≤ n` (the VC with the conclusion
    /// negated); soft candidates: `{n ≤ 0, n ≠ 0, 0 ≤ n}`.
    fn replicate_nil_problem() -> (Term, Vec<Term>) {
        let list = Sort::data("List", vec![Sort::var("a")]);
        let len_v = Term::app("len", vec![Term::value_var(list)], Sort::Int);
        let n = Term::var("n", Sort::Int);
        let background = len_v
            .clone()
            .eq(Term::int(0))
            .and(len_v.eq(n.clone()).not())
            .and(Term::int(0).le(n.clone()));
        let soft = vec![
            n.clone().le(Term::int(0)),
            n.clone().neq(Term::int(0)),
            Term::int(0).le(n),
        ];
        (background, soft)
    }

    fn enumerate(smt: &mut Smt, (background, soft): &(Term, Vec<Term>)) -> Vec<BTreeSet<usize>> {
        enumerate_mus_smt(smt, background, soft, &BTreeSet::new())
    }

    /// (hits, misses, entries) of the solver's memo.
    fn memo_counts(smt: &Smt) -> (usize, usize, usize) {
        let stats = smt.mus_memo().expect("incremental by default").stats();
        (stats.hits, stats.misses, stats.entries)
    }

    #[test]
    fn enumerations_cut_by_the_deadline_are_not_stored() {
        let problem = replicate_nil_problem();
        let mut smt = Smt::new();
        let past = std::time::Instant::now() - std::time::Duration::from_millis(1);
        smt.set_budget(Budget::default().until(past));
        assert!(enumerate(&mut smt, &problem).is_empty());
        assert_eq!(
            memo_counts(&smt),
            (0, 1, 0),
            "a cut enumeration is not stored"
        );
        smt.set_budget(Budget::default());
        let full = enumerate(&mut smt, &problem);
        assert!(full.contains(&set(&[0])), "rerun computes the full answer");
        assert_eq!(memo_counts(&smt), (0, 2, 1));
        assert_eq!(enumerate(&mut smt, &problem), full);
        assert_eq!(memo_counts(&smt), (1, 2, 1));
    }

    #[test]
    fn enumerations_with_budget_unknowns_are_not_stored() {
        // `2x = 2y + 1` has rational but no integer solutions, and the
        // softs bound `x` and `y` from below only, so branch-and-bound
        // never closes the gap: every subset check exhausts the LIA's
        // branch-node limit and is a budget `Unknown`, which the
        // enumerator reads as "satisfiable".
        let x = Term::var("x", Sort::Int);
        let y = Term::var("y", Sort::Int);
        let two = || Term::int(2);
        let background = two()
            .times(x.clone())
            .eq(two().times(y.clone()).plus(Term::int(1)));
        let problem = (background, vec![x.ge(Term::int(0)), y.ge(Term::int(1))]);
        let mut smt = Smt::new();
        assert!(enumerate(&mut smt, &problem).is_empty());
        assert!(enumerate(&mut smt, &problem).is_empty());
        assert_eq!(memo_counts(&smt), (0, 2, 0));
    }

    #[test]
    fn decided_enumerations_do_not_depend_on_learned_lemmas() {
        // Background `x + y ≤ 2`; softs `{x ≥ 1, y ≥ 2, x ≥ 3, y ≤ 5}`.
        let x = Term::var("x", Sort::Int);
        let y = Term::var("y", Sort::Int);
        let background = x.clone().plus(y.clone()).le(Term::int(2));
        let soft = vec![
            x.clone().ge(Term::int(1)),
            y.clone().ge(Term::int(2)),
            x.clone().ge(Term::int(3)),
            y.clone().le(Term::int(5)),
        ];
        // An earlier query over the problem's atoms teaches the solver a
        // theory conflict that the enumeration then replays.
        let mut seasoned = Smt::new();
        let earlier = background.clone().and(soft[0].clone()).and(soft[1].clone());
        assert_eq!(seasoned.check_sat(&earlier), SmtResult::Unsat);
        assert!(seasoned.stats().conflicts_learned > 0);
        let reused = seasoned.stats().conflicts_reused;
        let problem = (background, soft);
        let fresh = enumerate(&mut Smt::new(), &problem);
        assert_eq!(fresh, vec![set(&[1, 2]), set(&[0, 1])]);
        assert_eq!(enumerate(&mut seasoned, &problem), fresh);
        assert!(
            seasoned.stats().conflicts_reused > reused,
            "lemmas were replayed"
        );
    }

    #[test]
    fn smt_backed_enumeration_finds_branch_condition() {
        // The only MUS containing the (already unsat-making) candidate
        // n ≤ 0 is {n ≤ 0} itself: adding it makes the background unsat.
        let (background, soft) = replicate_nil_problem();
        let mut smt = Smt::new();
        let muses = enumerate_mus_smt(&mut smt, &background, &soft, &BTreeSet::new());
        assert!(
            muses.contains(&set(&[0])),
            "expected {{n ≤ 0}} to be a MUS, got {muses:?}"
        );
        // {n ≠ 0, 0 ≤ n} also implies n > 0, contradicting len ν = 0 = n?
        // No: background already negates len ν = n, so n ≠ 0 does not help.
        assert!(!muses.contains(&set(&[1])));
    }

    #[test]
    fn shared_encoding_links_soft_disequality_witness_to_background() {
        // The list_delete Cons-branch strengthening problem, reduced.
        // Background (the recursive-call environment):
        //   elems xs = elems xs1 ∪ [x0]  ∧  elems ν = elems xs1 \ [x0]
        // Softs: {x ≤ x0, x0 ≤ x, ¬(elems ν = elems xs \ [x])}.
        // Under x = x0 the negated conclusion is unsatisfiable, so
        // {0, 1, 2} is a MUS. Finding it requires the background set
        // equalities to be instantiated at the *soft* constraint's
        // disequality witness — exactly what the encoder's witness pool
        // guarantees for shared (selector-based) MUS encodings. With
        // per-call fresh witnesses this enumeration comes back empty and
        // list_delete stops synthesizing.
        let elem = Sort::var("a");
        let list = Sort::data("List", vec![elem.clone()]);
        let elems = |t: Term| Term::app("elems", vec![t], Sort::set(Sort::var("a")));
        let single = |name: &str| Term::singleton(elem.clone(), Term::var(name, elem.clone()));
        let xs = Term::var("xs", list.clone());
        let xs1 = Term::var("xs1", list.clone());
        let nu = Term::value_var(list);
        let x = Term::var("x", elem.clone());
        let x0 = Term::var("x0", elem.clone());
        let background = elems(xs.clone())
            .eq(elems(xs1.clone()).union(single("x0")))
            .and(elems(nu.clone()).eq(elems(xs1).set_diff(single("x0"))));
        let soft = vec![
            x.clone().le(x0.clone()),
            x0.le(x),
            elems(nu).eq(elems(xs).set_diff(single("x"))).not(),
        ];
        let mut smt = Smt::new();
        let muses = enumerate_mus_smt(&mut smt, &background, &soft, &set(&[2]));
        assert!(
            muses.contains(&set(&[0, 1, 2])),
            "expected {{x ≤ x0, x0 ≤ x, ¬conclusion}} to be a MUS, got {muses:?}"
        );
    }
}
