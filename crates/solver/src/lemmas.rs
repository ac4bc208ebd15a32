//! Learned theory lemmas: one index for replay, one resident store.
//!
//! Each [`Smt`](crate::Smt) instance learns theory conflicts while it
//! solves (see the incremental DPLL(T) machinery in [`crate::smt`]). A
//! lemma is a set of portable atom keys taken at truth values that are
//! jointly LIA-inconsistent — a fact about the formulas themselves,
//! valid in *any* query in which all of its atoms appear. That makes
//! lemmas safe to outlive the run that learned them.
//!
//! A solver replays lemmas from two [`LemmaIndex`]es: the one it learns
//! into, and a [`LemmaSeed`] — an index frozen from its session's
//! [`SharedLemmaStore`] at the start of a batch run. Every solver of
//! that run replays the same seed (so results cannot depend on worker
//! scheduling), and lemmas learned during the run flow back into the
//! store for *future* runs only. Dropping lemmas is always sound — each
//! one is implied by the encoding of any query containing its atoms — so
//! the store is an [`EpochMemo`] like every other resident memo: a lemma
//! stored or replayed this epoch survives, two cold epochs evict.

use crate::epoch_memo::EpochMemo;
use std::collections::HashMap;
use std::sync::Arc;

/// One persisted lemma: portable `(atom key, truth value)` literals,
/// sorted by key. Asserting the negation of the conjunction is sound in
/// any query whose atom set covers the keys.
pub type Lemma = Vec<(String, bool)>;

/// Bound on the lemmas one solver learns and, by default, on a
/// session's store: enough for the longest synthesis runs observed (a
/// few thousand distinct conflicts), small enough that applicability
/// probing stays cheap.
pub const MAX_LEMMAS: usize = 8_192;

/// Lemmas with an index from each lemma's first (smallest) key to its
/// id. Iterating a query's atom keys visits every applicable lemma
/// exactly once, at a cost proportional to the query, not to the index.
#[derive(Debug, Default)]
pub struct LemmaIndex {
    lemmas: Vec<Lemma>,
    by_first_key: HashMap<String, Vec<usize>>,
}

/// A [`LemmaIndex`] frozen at a batch boundary and shared by every
/// solver of the batch.
pub type LemmaSeed = Arc<LemmaIndex>;

/// The resident lemma pool of a session, shared by every goal it runs
/// (a lemma only replays in queries that contain all its atoms). Solvers
/// store fresh conflicts and touch the seeded lemmas they replay; a
/// batch reads it only through [`SharedLemmaStore::seed`].
pub type SharedLemmaStore = EpochMemo<Lemma, ()>;

impl LemmaIndex {
    fn push(&mut self, lemma: Lemma) {
        self.by_first_key
            .entry(lemma[0].0.clone())
            .or_default()
            .push(self.lemmas.len());
        self.lemmas.push(lemma);
    }

    /// Adds a freshly learned lemma (sorted by key) unless it is empty,
    /// already indexed, or the index holds [`MAX_LEMMAS`]; true if
    /// added.
    pub(crate) fn learn(&mut self, lemma: &Lemma) -> bool {
        if self.lemmas.len() >= MAX_LEMMAS || lemma.is_empty() {
            return false;
        }
        if self
            .ids_for_first_key(&lemma[0].0)
            .iter()
            .any(|&id| self.lemmas[id] == *lemma)
        {
            return false;
        }
        self.push(lemma.clone());
        true
    }

    /// Number of indexed lemmas.
    pub fn len(&self) -> usize {
        self.lemmas.len()
    }

    /// True if the index holds no lemma.
    pub fn is_empty(&self) -> bool {
        self.lemmas.is_empty()
    }

    /// The ids of the lemmas whose smallest key is `first_key`.
    pub(crate) fn ids_for_first_key(&self, first_key: &str) -> &[usize] {
        self.by_first_key
            .get(first_key)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The literals of lemma `id`.
    pub(crate) fn lemma(&self, id: usize) -> &Lemma {
        &self.lemmas[id]
    }
}

impl SharedLemmaStore {
    /// Creates an empty store bounded to [`MAX_LEMMAS`].
    pub fn new() -> SharedLemmaStore {
        SharedLemmaStore::with_max_entries(MAX_LEMMAS)
    }

    /// Freezes the resident lemmas, in sorted order, into a seed.
    pub fn seed(&self) -> LemmaSeed {
        let mut index = LemmaIndex::default();
        for lemma in self.sorted_keys() {
            index.push(lemma);
        }
        Arc::new(index)
    }
}

impl Default for SharedLemmaStore {
    fn default() -> SharedLemmaStore {
        SharedLemmaStore::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lemma(keys: &[(&str, bool)]) -> Lemma {
        let mut l: Lemma = keys.iter().map(|(k, v)| (k.to_string(), *v)).collect();
        l.sort();
        l
    }

    #[test]
    fn absorb_dedups_and_snapshot_is_sorted() {
        let store = SharedLemmaStore::new();
        store.insert(lemma(&[("b", true), ("c", false)]), ());
        store.insert(lemma(&[("c", false), ("b", true)]), ());
        store.insert(lemma(&[("a", true)]), ());
        let stats = store.stats();
        assert_eq!((stats.entries, stats.absorbed), (2, 2));
        let seed = store.seed();
        assert_eq!(seed.len(), 2);
        assert_eq!(seed.lemma(0), &lemma(&[("a", true)]));
        assert_eq!(seed.ids_for_first_key("b"), &[1]);
        assert_eq!(seed.ids_for_first_key("c").len(), 0);
    }

    #[test]
    fn learning_dedups_and_stops_at_the_bound() {
        let mut index = LemmaIndex::default();
        assert!(index.learn(&lemma(&[("a", true), ("b", false)])));
        assert!(!index.learn(&lemma(&[("b", false), ("a", true)])));
        assert!(index.learn(&lemma(&[("a", true), ("b", true)])));
        assert!(!index.learn(&Vec::new()));
        assert_eq!(index.ids_for_first_key("a").len(), 2);
        for i in index.len()..MAX_LEMMAS {
            assert!(index.learn(&lemma(&[(&format!("k{i}"), true)])));
        }
        assert!(!index.learn(&lemma(&[("z", true)])));
        assert_eq!(index.len(), MAX_LEMMAS);
    }

    #[test]
    fn epoch_gc_keeps_touched_lemmas_for_two_epochs() {
        let store = SharedLemmaStore::new();
        store.insert(lemma(&[("a", true)]), ());
        store.insert(lemma(&[("b", true)]), ());
        store.advance_epoch();
        // Epoch 1: replaying `a` refreshes it; `b` goes cold.
        store.touch_all([&lemma(&[("a", true)])]);
        store.advance_epoch();
        assert_eq!(store.stats().entries, 2, "one cold epoch survives");
        store.advance_epoch();
        let stats = store.stats();
        assert_eq!(stats.entries, 1, "two cold epochs evict");
        assert_eq!(stats.evicted, 1);
        assert_eq!(store.sorted_keys(), vec![lemma(&[("a", true)])]);
    }

    #[test]
    fn size_bound_drops_new_lemmas_not_old_ones() {
        let store = SharedLemmaStore::with_max_entries(1);
        store.insert(lemma(&[("a", true)]), ());
        store.insert(lemma(&[("b", true)]), ());
        assert_eq!(store.sorted_keys(), vec![lemma(&[("a", true)])]);
        assert_eq!(store.stats().absorbed, 1);
    }
}
