//! The shared solver context: what a batch of synthesis runs has in
//! common.
//!
//! [`SessionCaches`] is the one bundle of cache layers a solver reads and
//! feeds; a resident session keeps exactly one for every goal it runs,
//! and a standalone run gets a fresh one. [`SolverContext`] adds what
//! one batch run fixes on top: the lemma seed frozen from the bundle's
//! store, and the [`CancellationToken`] that lets a portfolio winner
//! stop its siblings. Cloning a context shares its caches and token.

use crate::memo::{EnumerationCache, ENUMERATION_MAX_ENTRIES};
use synquid_solver::{LemmaSeed, MusMemo, SharedLemmaStore, SharedValidityCache};

/// The cancellation token now lives in `synquid-solver` so the DPLL(T)
/// loop itself can poll it (see `synquid_solver::cancel`); it is
/// re-exported here because the engine and frontends address it through
/// this crate.
pub use synquid_solver::CancellationToken;

/// The cache layers every solver of a context shares. Each stores only
/// pure functions of its keys, so sharing changes timing, never results.
/// Cloning shares the underlying tables.
#[derive(Debug, Clone)]
pub struct SessionCaches {
    /// SMT verdicts of normalized `(antecedent, consequent)` queries.
    pub validity: SharedValidityCache,
    /// E-term candidate sets (see [`EnumerationCache`]), reused by every
    /// rung and goal that shares an environment.
    pub enumeration: EnumerationCache,
    /// Learned theory lemmas, frozen into a seed per batch run (see
    /// `synquid_solver::lemmas`).
    pub lemmas: SharedLemmaStore,
    /// Decided MUS enumerations.
    pub mus: MusMemo,
}

impl Default for SessionCaches {
    /// A fresh bundle with every layer at its default bound.
    fn default() -> SessionCaches {
        SessionCaches {
            validity: SharedValidityCache::new(),
            enumeration: EnumerationCache::with_max_entries(ENUMERATION_MAX_ENTRIES),
            lemmas: SharedLemmaStore::new(),
            mus: MusMemo::new(),
        }
    }
}

/// Shared state for a family of synthesis runs: the caches all their
/// solvers feed, the lemma seed they all replay, and the cancellation
/// token they observe.
#[derive(Debug, Clone)]
pub struct SolverContext {
    /// The cache layers.
    pub caches: SessionCaches,
    /// The lemmas of `caches.lemmas`, frozen when the context was built,
    /// so every run of the context replays the same seed.
    pub lemma_seed: LemmaSeed,
    /// Cooperative cancellation, part of the [`Budget`](synquid_solver::Budget)
    /// of every run on this context.
    pub cancel: CancellationToken,
}

impl Default for SolverContext {
    fn default() -> SolverContext {
        SolverContext::new()
    }
}

impl SolverContext {
    /// A standalone context: a fresh bundle, an empty seed and a fresh
    /// token — what [`Synthesizer::new`](crate::Synthesizer::new) runs on.
    pub fn new() -> SolverContext {
        SolverContext::with_caches(SessionCaches::default())
    }

    /// A context on `caches` with a fresh token, its lemma seed frozen
    /// from `caches.lemmas` now.
    pub fn with_caches(caches: SessionCaches) -> SolverContext {
        SolverContext {
            lemma_seed: caches.lemmas.seed(),
            caches,
            cancel: CancellationToken::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SynthesisConfig, Synthesizer};

    #[test]
    fn standalone_contexts_get_a_fresh_bundle() {
        use synquid_logic::{Sort, Term};
        use synquid_solver::SmtResult;

        let x = Term::var("x", Sort::Int);
        let query = x.clone().lt(Term::int(0)).and(x.gt(Term::int(0)));
        for _ in 0..2 {
            // Each standalone synthesizer consults a validity cache of
            // its own: the second misses what the first stored.
            let mut synth = Synthesizer::new(SynthesisConfig::default());
            assert_eq!(synth.smt.check_sat(&query), SmtResult::Unsat);
            let stats = synth.stats();
            assert_eq!((stats.shared_cache_hits, stats.shared_cache_misses), (0, 1));
        }
        assert!(SolverContext::new().lemma_seed.is_empty());
    }

    #[test]
    fn synthesizers_of_one_context_share_its_mus_memo() {
        use std::collections::BTreeSet;
        use synquid_logic::{Sort, Term};
        use synquid_solver::enumerate_mus_smt;

        let ctx = SolverContext::new();
        // `with_context` enables incrementality after building the
        // solver; that must keep the session's memo, not swap in a
        // private one.
        let mut first = Synthesizer::with_context(SynthesisConfig::default(), &ctx);
        let mut second = Synthesizer::with_context(SynthesisConfig::default(), &ctx);
        let x = Term::var("x", Sort::Int);
        let background = x.clone().le(Term::int(0));
        let soft = [x.ge(Term::int(1))];
        let enumerate = |synth: &mut Synthesizer| {
            enumerate_mus_smt(&mut synth.smt, &background, &soft, &BTreeSet::new())
        };
        let computed = enumerate(&mut first);
        assert_eq!(computed, vec![BTreeSet::from([0])]);
        assert_eq!(enumerate(&mut second), computed);
        let stats = ctx.caches.mus.stats();
        assert_eq!((stats.misses, stats.hits, stats.entries), (1, 1, 1));
    }
}
