//! A shared, thread-safe validity cache over interned terms.
//!
//! Synthesis spends almost all of its time in SMT validity queries, and
//! the same obligations recur across backtracking, iterative-deepening
//! rungs, portfolio siblings, and goals that share a component library.
//! [`SharedValidityCache`] is the cross-solver memo table: it is shared
//! by every [`Smt`](crate::Smt) instance of a batch run (clone the handle
//! into [`Smt::with_session`](crate::Smt::with_session)), and keyed by
//! *normalized, interned* `(antecedent, consequent)` query pairs. Each
//! probe walks the normalized terms once against the hash-consing table
//! (under a read lock, and without growing it), and the memo stores and
//! compares only compact `(TermId, TermId)` keys, with every shared
//! subterm stored once. Normalization (constant folding) happens in
//! [`SharedValidityCache::normalize`], outside any lock.
//!
//! A query `antecedent ⇒ consequent` is recorded under the pair of
//! [`TermId`]s of the constant-folded sides; plain satisfiability checks
//! are the degenerate pair with consequent `false` (`sat(f)` is the
//! complement of `valid(f ⇒ false)`). Cached values are the raw
//! [`SmtResult`] of the underlying satisfiability check; [`Smt`](crate::Smt)
//! publishes only `Sat` and `Unsat` verdicts here.
//!
//! # Residency
//!
//! The verdicts live in an [`EpochMemo`], so the validity cache is
//! bounded and collected like every other session layer: a size bound
//! with a once-per-epoch cold sweep, and an epoch GC
//! ([`SharedValidityCache::advance_epoch`]) that drops entries cold for
//! two full epochs. What this module adds is the interner behind the
//! keys: an insert the bound refuses interns nothing, so the entry bound
//! also bounds the interner, and each GC compacts the interner to
//! exactly the nodes the surviving keys still reach (see
//! [`Interner::compact`]) and renumbers the keys to match. Every memo
//! access holds the interner's lock, so ids cannot be renumbered between
//! the walk that found them and the probe that uses them.
//!
//! Eviction is always sound: a cached verdict is a pure function of its
//! key, so dropping an entry only means the same query is re-solved (to
//! the identical verdict) if it ever recurs.

use crate::epoch_memo::EpochMemo;
use crate::smt::SmtResult;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};
use synquid_logic::simplify::fold_constants;
use synquid_logic::{Interner, Term, TermId};

/// Counters exposed by [`SharedValidityCache::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ValidityCacheStats {
    /// Queries answered from the cache.
    pub hits: usize,
    /// Queries that had to be solved (and were then inserted).
    pub misses: usize,
    /// Subset of `hits` whose cached answer was negative (`Unsat`, i.e.
    /// the entailment *held* / the conjunction was contradictory) —
    /// the expensive verdicts that are most valuable to reuse.
    pub negative_hits: usize,
    /// Distinct query pairs stored.
    pub entries: usize,
    /// Distinct hash-consed term nodes behind the keys.
    pub interned_nodes: usize,
    /// Query pairs evicted by epoch GC or overflow sweeps (monotone).
    pub entries_evicted: usize,
    /// Inserts refused because the memo was full even after its sweep
    /// (monotone).
    pub entries_refused: usize,
    /// Term nodes ever interned behind the keys (monotone).
    pub terms_interned: usize,
    /// Term nodes dropped by interner compaction (monotone).
    pub terms_evicted: usize,
    /// GC epochs advanced since the cache was created.
    pub epoch: usize,
}

impl ValidityCacheStats {
    /// Hit rate in `[0, 1]`; `0` when no queries were made.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// The counters accumulated since an earlier snapshot of the same
    /// cache — how one run of a resident session behaved, as opposed to
    /// the session's lifetime totals. Point-in-time gauges (`entries`,
    /// `interned_nodes`, `epoch`) keep their end-of-run values.
    pub fn since(&self, earlier: &ValidityCacheStats) -> ValidityCacheStats {
        ValidityCacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            negative_hits: self.negative_hits - earlier.negative_hits,
            entries: self.entries,
            interned_nodes: self.interned_nodes,
            entries_evicted: self.entries_evicted - earlier.entries_evicted,
            entries_refused: self.entries_refused - earlier.entries_refused,
            terms_interned: self.terms_interned - earlier.terms_interned,
            terms_evicted: self.terms_evicted - earlier.terms_evicted,
            epoch: self.epoch,
        }
    }
}

/// A cloneable handle to a concurrent validity memo table. All clones
/// share the same underlying table; the handle is `Send + Sync` and is
/// designed to be shared by one [`Smt`](crate::Smt) per worker thread.
#[derive(Debug, Clone)]
pub struct SharedValidityCache {
    /// The terms behind the memo's keys. Lookups, exports and stats
    /// hold it for reading, inserts and the GC for writing.
    interner: Arc<RwLock<Interner>>,
    /// Verdicts keyed by the interned ids of each query's two sides.
    memo: EpochMemo<(TermId, TermId), SmtResult>,
    /// Hits whose verdict was `Unsat`.
    negative_hits: Arc<AtomicUsize>,
}

/// A validity query with normalization (constant folding) already
/// applied — compute it once with [`SharedValidityCache::normalize`],
/// outside any lock, and reuse it for the lookup *and* the insert of
/// the same query.
#[derive(Debug, Clone)]
pub struct NormalizedQuery {
    antecedent: Term,
    consequent: Term,
}

impl Default for SharedValidityCache {
    fn default() -> SharedValidityCache {
        SharedValidityCache::with_max_entries(SharedValidityCache::DEFAULT_MAX_ENTRIES)
    }
}

impl SharedValidityCache {
    /// Default cap on stored entries, sized for unbounded one-shot batch
    /// runs; resident sessions usually configure a smaller bound through
    /// [`SharedValidityCache::with_max_entries`].
    pub const DEFAULT_MAX_ENTRIES: usize = 1_000_000;

    /// Creates an empty cache with the default size bound.
    pub fn new() -> SharedValidityCache {
        SharedValidityCache::default()
    }

    /// Creates an empty cache bounded to at most `max_entries` stored
    /// query pairs (clamped to at least 1).
    pub fn with_max_entries(max_entries: usize) -> SharedValidityCache {
        SharedValidityCache {
            interner: Arc::default(),
            memo: EpochMemo::with_max_entries(max_entries),
            negative_hits: Arc::default(),
        }
    }

    /// Normalizes a query pair. Pure (no lock taken): callers on the hot
    /// path pay the folding once per query, not once per cache call.
    pub fn normalize(antecedent: &Term, consequent: &Term) -> NormalizedQuery {
        NormalizedQuery {
            antecedent: fold_constants(antecedent),
            consequent: fold_constants(consequent),
        }
    }

    /// The memo key of a query, if both of its terms were interned.
    fn find(interner: &Interner, query: &NormalizedQuery) -> Option<(TermId, TermId)> {
        Some((
            interner.find(&query.antecedent)?,
            interner.find(&query.consequent)?,
        ))
    }

    /// Looks up a normalized query. Returns the cached [`SmtResult`] of
    /// `sat(antecedent ∧ ¬consequent)` if the same pair was solved
    /// before. Probing is read-only ([`Interner::find`] never inserts),
    /// so concurrent lookups share the interner's read lock, misses
    /// never grow the interner, and the entry bound really bounds
    /// memory. A hit stamps the entry with the current epoch, which is
    /// what keeps it alive across epoch GCs.
    pub fn lookup_normalized(&self, query: &NormalizedQuery) -> Option<SmtResult> {
        let interner = self.interner.read().expect("validity cache poisoned");
        let Some(key) = Self::find(&interner, query) else {
            self.memo.count_miss();
            return None;
        };
        let cached = self.memo.lookup(&key);
        if cached == Some(SmtResult::Unsat) {
            self.negative_hits.fetch_add(1, Ordering::Relaxed);
        }
        cached
    }

    /// Records the result of a normalized query, unless the memo's size
    /// bound refuses it (see [`EpochMemo::insert`]); a refused insert
    /// interns nothing and only means the query is re-solved, to the
    /// identical verdict, next time.
    pub fn insert_normalized(&self, query: &NormalizedQuery, result: SmtResult) {
        let mut interner = self.interner.write().expect("validity cache poisoned");
        if !self.memo.make_room(|| Self::find(&interner, query)) {
            return;
        }
        let key = (
            interner.intern(&query.antecedent),
            interner.intern(&query.consequent),
        );
        self.memo.insert(key, result);
    }

    /// Convenience wrapper: [`normalize`](Self::normalize) + lookup.
    pub fn lookup(&self, antecedent: &Term, consequent: &Term) -> Option<SmtResult> {
        self.lookup_normalized(&Self::normalize(antecedent, consequent))
    }

    /// Convenience wrapper: [`normalize`](Self::normalize) + insert.
    pub fn insert(&self, antecedent: &Term, consequent: &Term, result: SmtResult) {
        self.insert_normalized(&Self::normalize(antecedent, consequent), result)
    }

    /// Closes one GC epoch: the memo drops the entries cold for two full
    /// epochs, the interner is compacted to the nodes the surviving keys
    /// still reach, and the keys are renumbered to match. Resident
    /// sessions call this at batch-run boundaries; one-shot runs never
    /// do, so one run's table only grows up to its bound.
    pub fn advance_epoch(&self) {
        let mut interner = self.interner.write().expect("validity cache poisoned");
        self.memo.advance_epoch();
        let roots = self
            .memo
            .entries()
            .into_iter()
            .flat_map(|((a, c), _)| [a, c]);
        let remap = interner.compact(roots);
        let renumber = |id: TermId| remap[id.index()].expect("memo key survived GC");
        self.memo.rekey(|(a, c)| (renumber(a), renumber(c)));
    }

    /// Resolves every stored `Sat`/`Unsat` entry back to its term pair,
    /// for session snapshots. `Unknown` entries are skipped: they are
    /// cheap to rediscover and may be shaped by the budget of the run
    /// that produced them, so persisting them across processes would be
    /// misleading.
    pub fn export_entries(&self) -> Vec<(Term, Term, SmtResult)> {
        let interner = self.interner.read().expect("validity cache poisoned");
        let mut out: Vec<(Term, Term, SmtResult)> = self
            .memo
            .entries()
            .into_iter()
            .filter(|&(_, result)| result != SmtResult::Unknown)
            .map(|((a, c), result)| (interner.resolve(a), interner.resolve(c), result))
            .collect();
        // Deterministic snapshot order (HashMap iteration is not).
        out.sort();
        out
    }

    /// Seeds one already-normalized entry, counting neither a hit nor a
    /// miss — the warm-start path of a session snapshot load.
    pub fn preload(&self, antecedent: Term, consequent: Term, result: SmtResult) {
        self.insert_normalized(
            &NormalizedQuery {
                antecedent,
                consequent,
            },
            result,
        );
    }

    /// A snapshot of the counters.
    pub fn stats(&self) -> ValidityCacheStats {
        let interner = self.interner.read().expect("validity cache poisoned");
        let memo = self.memo.stats();
        ValidityCacheStats {
            hits: memo.hits,
            misses: memo.misses,
            negative_hits: self.negative_hits.load(Ordering::Relaxed),
            entries: memo.entries,
            interned_nodes: interner.len(),
            entries_evicted: memo.evicted,
            entries_refused: memo.refused,
            terms_interned: interner.total_interned(),
            terms_evicted: interner.total_evicted(),
            epoch: memo.epoch,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synquid_logic::Sort;

    fn x() -> Term {
        Term::var("x", Sort::Int)
    }
    fn y() -> Term {
        Term::var("y", Sort::Int)
    }

    #[test]
    fn lookup_misses_then_hits() {
        let cache = SharedValidityCache::new();
        let (p, c) = (x().le(y()), x().lt(y().plus(Term::int(1))));
        assert_eq!(cache.lookup(&p, &c), None);
        cache.insert(&p, &c, SmtResult::Unsat);
        assert_eq!(cache.lookup(&p, &c), Some(SmtResult::Unsat));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.negative_hits), (1, 1, 1));
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn normalization_folds_constants_before_keying() {
        let cache = SharedValidityCache::new();
        // 1 + 1 folds to 2, so both phrasings share one entry.
        cache.insert(
            &x().le(Term::int(1).plus(Term::int(1))),
            &Term::ff(),
            SmtResult::Sat,
        );
        assert_eq!(
            cache.lookup(&x().le(Term::int(2)), &Term::ff()),
            Some(SmtResult::Sat)
        );
    }

    #[test]
    fn clones_share_the_table_across_threads() {
        let cache = SharedValidityCache::new();
        let writer = cache.clone();
        let handle = std::thread::spawn(move || {
            writer.insert(&x().eq(x()), &Term::ff(), SmtResult::Sat);
        });
        handle.join().unwrap();
        assert_eq!(
            cache.lookup(&x().eq(x()), &Term::ff()),
            Some(SmtResult::Sat)
        );
    }

    #[test]
    fn distinct_pairs_do_not_collide() {
        let cache = SharedValidityCache::new();
        cache.insert(&x().le(y()), &Term::ff(), SmtResult::Sat);
        assert_eq!(cache.lookup(&y().le(x()), &Term::ff()), None);
        assert_eq!(cache.lookup(&x().le(y()), &x().le(y())), None);
    }

    #[test]
    fn epoch_gc_drops_two_cold_entries_and_keeps_touched_ones() {
        let cache = SharedValidityCache::new();
        cache.insert(&x().le(y()), &Term::ff(), SmtResult::Sat);
        cache.insert(&y().le(x()), &Term::ff(), SmtResult::Sat);
        // Epoch 0 closes: both were touched this epoch, both survive.
        cache.advance_epoch();
        assert_eq!(cache.stats().entries, 2);
        // Epoch 1: only the first entry is touched.
        assert!(cache.lookup(&x().le(y()), &Term::ff()).is_some());
        cache.advance_epoch();
        assert_eq!(cache.stats().entries, 2, "one cold epoch is not enough");
        // Epoch 2: neither is touched; closing it drops the entry that
        // has now been cold for two full epochs.
        cache.advance_epoch();
        let stats = cache.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(cache.lookup(&y().le(x()), &Term::ff()), None);
        assert_eq!(
            cache.lookup(&x().le(y()), &Term::ff()),
            Some(SmtResult::Sat)
        );
        assert!(stats.entries_evicted >= 1);
        assert!(stats.terms_evicted > 0, "interner compacts with the memo");
        assert_eq!(
            stats.terms_interned - stats.terms_evicted,
            stats.interned_nodes
        );
    }

    #[test]
    fn gc_renumbering_keeps_each_pairs_verdict() {
        let cache = SharedValidityCache::new();
        let cold = (x().le(Term::int(7)), Term::ff());
        let unsat = (x().lt(y()), x().le(y()));
        let sat = (y().le(x().plus(Term::int(2))), Term::ff());
        cache.insert(&cold.0, &cold.1, SmtResult::Sat);
        cache.insert(&unsat.0, &unsat.1, SmtResult::Unsat);
        cache.insert(&sat.0, &sat.1, SmtResult::Sat);
        cache.advance_epoch();
        // The first pair's ids come first; once it has been cold for two
        // epochs, the GC drops its terms and renumbers the survivors.
        for _ in 0..2 {
            cache.lookup(&unsat.0, &unsat.1);
            cache.lookup(&sat.0, &sat.1);
            cache.advance_epoch();
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert!(stats.terms_evicted > 0, "the survivors were renumbered");
        assert_eq!(cache.lookup(&cold.0, &cold.1), None);
        assert_eq!(cache.lookup(&unsat.0, &unsat.1), Some(SmtResult::Unsat));
        assert_eq!(cache.lookup(&sat.0, &sat.1), Some(SmtResult::Sat));
    }

    #[test]
    fn a_refused_insert_interns_nothing() {
        let cache = SharedValidityCache::with_max_entries(2);
        cache.insert(&x().le(Term::int(0)), &Term::ff(), SmtResult::Sat);
        cache.insert(&x().le(Term::int(1)), &Term::ff(), SmtResult::Sat);
        let full = cache.stats();
        cache.insert(
            &y().lt(Term::int(5)),
            &y().le(Term::int(9)),
            SmtResult::Unsat,
        );
        let after = cache.stats();
        assert_eq!(after.entries, 2, "the insert was refused");
        assert_eq!(after.since(&full).entries_refused, 1);
        assert_eq!(after.interned_nodes, full.interned_nodes);
        assert_eq!(after.terms_interned, full.terms_interned);
    }

    #[test]
    fn size_bound_sweeps_cold_entries_then_refuses() {
        let cache = SharedValidityCache::with_max_entries(2);
        cache.insert(&x().le(Term::int(0)), &Term::ff(), SmtResult::Sat);
        cache.insert(&x().le(Term::int(1)), &Term::ff(), SmtResult::Sat);
        // Full of this-epoch entries: the sweep finds nothing and the
        // insert is refused.
        cache.insert(&x().le(Term::int(2)), &Term::ff(), SmtResult::Sat);
        assert_eq!(cache.lookup(&x().le(Term::int(2)), &Term::ff()), None);
        assert_eq!(cache.stats().entries, 2);
        // Next epoch, the old entries are cold; an insert sweeps them out
        // and takes their place.
        cache.advance_epoch();
        cache.insert(&x().le(Term::int(3)), &Term::ff(), SmtResult::Sat);
        assert_eq!(
            cache.lookup(&x().le(Term::int(3)), &Term::ff()),
            Some(SmtResult::Sat)
        );
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn export_skips_unknowns_and_preload_round_trips() {
        let cache = SharedValidityCache::new();
        cache.insert(&x().le(y()), &Term::ff(), SmtResult::Unsat);
        cache.insert(&y().le(x()), &Term::ff(), SmtResult::Unknown);
        let exported = cache.export_entries();
        assert_eq!(exported.len(), 1);
        let fresh = SharedValidityCache::new();
        for (a, c, r) in exported {
            fresh.preload(a, c, r);
        }
        assert_eq!(
            fresh.lookup(&x().le(y()), &Term::ff()),
            Some(SmtResult::Unsat)
        );
        assert_eq!(fresh.lookup(&y().le(x()), &Term::ff()), None);
    }

    #[test]
    fn delta_stats_subtract_an_earlier_snapshot() {
        let cache = SharedValidityCache::new();
        cache.insert(&x().le(y()), &Term::ff(), SmtResult::Sat);
        cache.lookup(&x().le(y()), &Term::ff());
        let mid = cache.stats();
        cache.lookup(&x().le(y()), &Term::ff());
        cache.lookup(&y().le(x()), &Term::ff());
        let delta = cache.stats().since(&mid);
        assert_eq!((delta.hits, delta.misses), (1, 1));
        assert_eq!(delta.entries, 1, "gauges keep end-of-run values");
    }
}
