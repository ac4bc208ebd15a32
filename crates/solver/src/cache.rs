//! A shared, thread-safe validity cache over interned terms.
//!
//! Synthesis spends almost all of its time in SMT validity queries, and
//! the same obligations recur across backtracking, iterative-deepening
//! rungs, portfolio siblings, and goals that share a component library.
//! [`SharedValidityCache`] is the cross-solver memo table: it is shared
//! by every [`Smt`](crate::Smt) instance of a batch run (clone the handle
//! into [`Smt::with_session`](crate::Smt::with_session)), and keyed by *normalized, interned* `(antecedent, consequent)` query
//! pairs: each probe walks the normalized terms once against the
//! hash-consing table (under a read lock, so concurrent workers don't
//! serialize on hits), and the memo map itself stores and compares only
//! compact `(TermId, TermId)` keys, with every shared subterm stored
//! once. Normalization (constant folding) happens in
//! [`SharedValidityCache::normalize`], outside any lock.
//!
//! A query `antecedent ⇒ consequent` is recorded under the pair of
//! [`TermId`]s of the constant-folded sides; plain satisfiability checks
//! are the degenerate pair with consequent `false` (`sat(f)` is the
//! complement of `valid(f ⇒ false)`). Cached values are the raw
//! [`SmtResult`] of the underlying satisfiability check, so `Unknown`
//! answers are reused as conservatively as fresh ones.
//!
//! # Residency
//!
//! A resident session keeps one cache alive across many batch runs, so
//! the table can no longer grow for process lifetime. Two mechanisms
//! bound it:
//!
//! - **size bound** — inserts beyond [`SharedValidityCache::max_entries`]
//!   first sweep out entries not touched in the current epoch (at most
//!   once per epoch, so a full warm table can't thrash), then refuse;
//! - **epoch GC** — [`SharedValidityCache::advance_epoch`] runs at batch
//!   boundaries: every lookup hit or insert stamps its entry with the
//!   current epoch, entries cold for two full epochs are dropped, and
//!   the interner is compacted to exactly the nodes the surviving keys
//!   still reach (see [`Interner::compact`]).
//!
//! Eviction is always sound: a cached verdict is a pure function of its
//! key, so dropping an entry only means the same query is re-solved (to
//! the identical verdict) if it ever recurs.

use crate::smt::SmtResult;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
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
            terms_interned: self.terms_interned - earlier.terms_interned,
            terms_evicted: self.terms_evicted - earlier.terms_evicted,
            epoch: self.epoch,
        }
    }
}

/// One memoized verdict, stamped with the epoch that last used it. The
/// stamp is atomic so lookup hits (which hold only the read lock) can
/// refresh it.
#[derive(Debug)]
struct Entry {
    result: SmtResult,
    epoch: AtomicU32,
}

#[derive(Debug, Default)]
struct CacheTable {
    interner: Interner,
    memo: std::collections::HashMap<(TermId, TermId), Entry>,
    /// Epoch of the last overflow sweep, so a table that is full of
    /// this-epoch entries refuses further inserts instead of sweeping
    /// (and finding nothing) on every one.
    swept_epoch: Option<u32>,
}

/// The shared state: the table behind a read/write lock (lookups are
/// read-only thanks to [`Interner::find`], so hits from many workers
/// proceed concurrently) and counters as atomics so probes never need
/// the write lock.
#[derive(Debug)]
struct CacheShared {
    table: RwLock<CacheTable>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    negative_hits: AtomicUsize,
    entries_evicted: AtomicUsize,
    epoch: AtomicU32,
    max_entries: usize,
}

impl Default for CacheShared {
    fn default() -> CacheShared {
        CacheShared {
            table: RwLock::default(),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            negative_hits: AtomicUsize::new(0),
            entries_evicted: AtomicUsize::new(0),
            epoch: AtomicU32::new(0),
            max_entries: SharedValidityCache::DEFAULT_MAX_ENTRIES,
        }
    }
}

/// A cloneable handle to a concurrent validity memo table. All clones
/// share the same underlying table; the handle is `Send + Sync` and is
/// designed to be shared by one [`Smt`](crate::Smt) per worker thread.
#[derive(Debug, Clone, Default)]
pub struct SharedValidityCache {
    inner: Arc<CacheShared>,
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
            inner: Arc::new(CacheShared {
                max_entries: max_entries.max(1),
                ..CacheShared::default()
            }),
        }
    }

    /// The configured entry bound.
    pub fn max_entries(&self) -> usize {
        self.inner.max_entries
    }

    /// Normalizes a query pair. Pure (no lock taken): callers on the hot
    /// path pay the folding once per query, not once per cache call.
    pub fn normalize(antecedent: &Term, consequent: &Term) -> NormalizedQuery {
        NormalizedQuery {
            antecedent: fold_constants(antecedent),
            consequent: fold_constants(consequent),
        }
    }

    /// Looks up a normalized query. Returns the cached [`SmtResult`] of
    /// `sat(antecedent ∧ ¬consequent)` if the same pair was solved
    /// before. Probing is read-only ([`Interner::find`] never inserts),
    /// so concurrent lookups share a read lock, misses never grow the
    /// interner, and the entry bound really bounds memory. A hit stamps
    /// the entry with the current epoch (atomically, still under the
    /// read lock), which is what keeps it alive across epoch GCs.
    pub fn lookup_normalized(&self, query: &NormalizedQuery) -> Option<SmtResult> {
        let epoch = self.inner.epoch.load(Ordering::Relaxed);
        let cached = {
            let table = self.inner.table.read().expect("validity cache poisoned");
            match (
                table.interner.find(&query.antecedent),
                table.interner.find(&query.consequent),
            ) {
                (Some(a), Some(c)) => table.memo.get(&(a, c)).map(|entry| {
                    entry.epoch.store(epoch, Ordering::Relaxed);
                    entry.result
                }),
                _ => None,
            }
        };
        match cached {
            Some(result) => {
                self.inner.hits.fetch_add(1, Ordering::Relaxed);
                if result == SmtResult::Unsat {
                    self.inner.negative_hits.fetch_add(1, Ordering::Relaxed);
                }
                Some(result)
            }
            None => {
                self.inner.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Records the result of a normalized query. At the size bound, one
    /// sweep per epoch evicts entries not touched this epoch; if the
    /// table is still full the insert is refused (a refused insert only
    /// means the query is re-solved, to the identical verdict, next
    /// time).
    pub fn insert_normalized(&self, query: &NormalizedQuery, result: SmtResult) {
        let epoch = self.inner.epoch.load(Ordering::Relaxed);
        let mut table = self.inner.table.write().expect("validity cache poisoned");
        if table.memo.len() >= self.inner.max_entries {
            // Updating an existing key never grows the table.
            let existing = match (
                table.interner.find(&query.antecedent),
                table.interner.find(&query.consequent),
            ) {
                (Some(a), Some(c)) => table.memo.contains_key(&(a, c)),
                _ => false,
            };
            if !existing {
                if table.swept_epoch == Some(epoch) {
                    return;
                }
                table.swept_epoch = Some(epoch);
                let before = table.memo.len();
                table
                    .memo
                    .retain(|_, entry| entry.epoch.load(Ordering::Relaxed) >= epoch);
                self.inner
                    .entries_evicted
                    .fetch_add(before - table.memo.len(), Ordering::Relaxed);
                if table.memo.len() >= self.inner.max_entries {
                    return;
                }
            }
        }
        let key = (
            table.interner.intern(&query.antecedent),
            table.interner.intern(&query.consequent),
        );
        table.memo.insert(
            key,
            Entry {
                result,
                epoch: AtomicU32::new(epoch),
            },
        );
    }

    /// Convenience wrapper: [`normalize`](Self::normalize) + lookup.
    pub fn lookup(&self, antecedent: &Term, consequent: &Term) -> Option<SmtResult> {
        self.lookup_normalized(&Self::normalize(antecedent, consequent))
    }

    /// Convenience wrapper: [`normalize`](Self::normalize) + insert.
    pub fn insert(&self, antecedent: &Term, consequent: &Term, result: SmtResult) {
        self.insert_normalized(&Self::normalize(antecedent, consequent), result)
    }

    /// Closes one GC epoch: entries not touched for two full epochs are
    /// dropped, the interner is compacted to the nodes the surviving
    /// keys still reach, and the epoch counter advances. Resident
    /// sessions call this at batch-run boundaries; one-shot runs never
    /// do, which reproduces the old unbounded-growth behaviour within a
    /// single run.
    pub fn advance_epoch(&self) {
        let mut table = self.inner.table.write().expect("validity cache poisoned");
        let epoch = self.inner.epoch.load(Ordering::Relaxed);
        let before = table.memo.len();
        // Keep entries touched in the current or previous epoch; an entry
        // last touched in epoch `e` survives the GCs closing epochs `e`
        // and `e + 1` and is dropped by the GC closing `e + 2` — two full
        // cold epochs.
        table
            .memo
            .retain(|_, entry| entry.epoch.load(Ordering::Relaxed) + 1 >= epoch);
        self.inner
            .entries_evicted
            .fetch_add(before - table.memo.len(), Ordering::Relaxed);
        let roots: Vec<TermId> = table.memo.keys().flat_map(|&(a, c)| [a, c]).collect();
        let remap = table.interner.compact(roots);
        table.memo = table
            .memo
            .drain()
            .map(|((a, c), entry)| {
                let a = remap[a.index()].expect("memo key survived GC");
                let c = remap[c.index()].expect("memo key survived GC");
                ((a, c), entry)
            })
            .collect();
        table.swept_epoch = None;
        self.inner.epoch.store(epoch + 1, Ordering::Relaxed);
    }

    /// Resolves every stored `Sat`/`Unsat` entry back to its term pair,
    /// for session snapshots. `Unknown` entries are skipped: they are
    /// cheap to rediscover and may be shaped by the budget of the run
    /// that produced them, so persisting them across processes would be
    /// misleading.
    pub fn export_entries(&self) -> Vec<(Term, Term, SmtResult)> {
        let table = self.inner.table.read().expect("validity cache poisoned");
        let mut out: Vec<(Term, Term, SmtResult)> = table
            .memo
            .iter()
            .filter(|(_, entry)| entry.result != SmtResult::Unknown)
            .map(|(&(a, c), entry)| {
                (
                    table.interner.resolve(a),
                    table.interner.resolve(c),
                    entry.result,
                )
            })
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
        let table = self.inner.table.read().expect("validity cache poisoned");
        ValidityCacheStats {
            hits: self.inner.hits.load(Ordering::Relaxed),
            misses: self.inner.misses.load(Ordering::Relaxed),
            negative_hits: self.inner.negative_hits.load(Ordering::Relaxed),
            entries: table.memo.len(),
            interned_nodes: table.interner.len(),
            entries_evicted: self.inner.entries_evicted.load(Ordering::Relaxed),
            terms_interned: table.interner.total_interned(),
            terms_evicted: table.interner.total_evicted(),
            epoch: self.inner.epoch.load(Ordering::Relaxed) as usize,
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
