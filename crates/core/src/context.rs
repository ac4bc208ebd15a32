//! The shared solver context: what a batch of synthesis runs has in
//! common.
//!
//! The single-goal [`Synthesizer`](crate::Synthesizer) historically
//! constructed its own SMT backend per run, which made every validity
//! check start cold. [`SolverContext`] is the seam the parallel engine
//! (and any future server frontend) plugs into instead: it carries the
//! [`SharedValidityCache`] that all workers populate together and the
//! [`CancellationToken`] that lets a portfolio winner stop its siblings.
//! Constructing a context is cheap; cloning one shares the underlying
//! cache and token.

use crate::memo::{EnumerationCache, ENUMERATION_MAX_ENTRIES};
use synquid_solver::{LemmaSeed, MusMemo, SharedLemmaStore, SharedValidityCache, Smt};

/// The cancellation token now lives in `synquid-solver` so the DPLL(T)
/// loop itself can poll it (see `synquid_solver::cancel`); it is
/// re-exported here because the engine and frontends address it through
/// this crate.
pub use synquid_solver::CancellationToken;

/// Shared state for a family of synthesis runs: the validity cache all
/// their SMT instances feed, and the cancellation token they observe.
#[derive(Debug, Clone)]
pub struct SolverContext {
    /// The cross-run validity cache; `None` runs every backend cold
    /// (the pre-engine behaviour).
    pub cache: Option<SharedValidityCache>,
    /// Cooperative cancellation observed by deadline checks.
    pub cancel: CancellationToken,
    /// The cross-run E-term enumeration memo (see [`EnumerationCache`]):
    /// candidate sets generated by one rung (or one goal sharing an
    /// environment) are reused by every other run attached to the same
    /// context. Entries are deterministic functions of their key, so
    /// sharing never changes results, only timing.
    pub enum_cache: EnumerationCache,
    /// Theory lemmas inherited from a resident session, frozen at the
    /// batch boundary so every run of the batch replays the same seed
    /// (`None` ⇒ cold start). See `synquid_solver::lemmas`.
    pub lemma_seed: Option<LemmaSeed>,
    /// Resident store where freshly learned conflicts are published for
    /// future runs of the owning session.
    pub lemma_sink: Option<SharedLemmaStore>,
    /// The MUS-enumeration memo every solver of the context shares
    /// (`None` ⇒ each solver keeps a private one). Only decided
    /// enumerations are stored, so sharing changes timing, never results.
    pub mus_memo: Option<MusMemo>,
}

impl Default for SolverContext {
    fn default() -> SolverContext {
        SolverContext {
            cache: None,
            cancel: CancellationToken::new(),
            enum_cache: EnumerationCache::with_max_entries(ENUMERATION_MAX_ENTRIES),
            lemma_seed: None,
            lemma_sink: None,
            mus_memo: None,
        }
    }
}

impl SolverContext {
    /// A context with no cache and a fresh token — equivalent to the
    /// standalone behaviour of [`Synthesizer::new`](crate::Synthesizer::new).
    pub fn new() -> SolverContext {
        SolverContext::default()
    }

    /// A context whose runs share the given validity cache.
    pub fn with_cache(cache: SharedValidityCache) -> SolverContext {
        SolverContext {
            cache: Some(cache),
            ..SolverContext::default()
        }
    }

    /// Derives a context that shares this one's caches but has its own
    /// cancellation token (one portfolio rung each, for example).
    pub fn child(&self) -> SolverContext {
        SolverContext {
            cache: self.cache.clone(),
            cancel: CancellationToken::new(),
            enum_cache: self.enum_cache.clone(),
            lemma_seed: self.lemma_seed.clone(),
            lemma_sink: self.lemma_sink.clone(),
            mus_memo: self.mus_memo.clone(),
        }
    }

    /// Builds an SMT backend wired to the shared cache (if any) and, for
    /// session-resident contexts, the frozen lemma seed, the flush-back
    /// store and the shared MUS memo.
    pub fn make_smt(&self) -> Smt {
        let mut smt = match &self.cache {
            Some(cache) => Smt::with_cache(cache.clone()),
            None => Smt::new(),
        };
        if let (Some(seed), Some(sink)) = (&self.lemma_seed, &self.lemma_sink) {
            smt.attach_lemma_session(seed.clone(), sink.clone());
        }
        if let Some(memo) = &self.mus_memo {
            smt.attach_mus_memo(memo.clone());
        }
        smt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_contexts_share_the_cache_but_not_the_token() {
        let ctx = SolverContext::with_cache(SharedValidityCache::new());
        let child = ctx.child();
        assert!(child.cache.is_some());
        child.cancel.cancel();
        assert!(!ctx.cancel.is_cancelled());
    }

    #[test]
    fn make_smt_attaches_the_cache() {
        let ctx = SolverContext::with_cache(SharedValidityCache::new());
        assert!(ctx.make_smt().shared_cache().is_some());
        assert!(SolverContext::new().make_smt().shared_cache().is_none());
    }

    #[test]
    fn synthesizers_of_one_context_share_its_mus_memo() {
        use crate::{SynthesisConfig, Synthesizer};
        use std::collections::BTreeSet;
        use synquid_logic::{Sort, Term};
        use synquid_solver::enumerate_mus_smt;

        let memo = MusMemo::new();
        let ctx = SolverContext {
            mus_memo: Some(memo.clone()),
            ..SolverContext::new()
        };
        // `with_context` enables incrementality after `make_smt`; that
        // must keep the attached memo, not swap in a private one.
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
        let stats = memo.stats();
        assert_eq!((stats.misses, stats.hits, stats.entries), (1, 1, 1));
    }
}
