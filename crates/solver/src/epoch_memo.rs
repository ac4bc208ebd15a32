//! A bounded, epoch-collected memo table shared between threads.
//!
//! Resident sessions keep memo tables alive across batch runs, so each
//! must bound itself. A session holds one table per layer, shared by
//! every goal it runs, so a table's bound is the whole session's.
//! [`EpochMemo`] is that policy for every session layer: the tables
//! whose values are pure functions of their keys (the validity verdicts
//! of [`crate::cache`], keyed by interned term ids; the E-term
//! enumeration memo of `synquid-core`; the MUS memo of [`crate::mus`])
//! and the set of learned theory lemmas ([`crate::lemmas`], a table
//! with `()` values):
//!
//! - every lookup hit or insert stamps its entry with the current epoch;
//! - [`EpochMemo::advance_epoch`] (called at batch boundaries) drops
//!   entries cold for two full epochs;
//! - an insert into a full table first sweeps out entries not touched
//!   this epoch, at most once per epoch so a full warm table cannot
//!   thrash, then refuses.
//!
//! Dropping or refusing an entry is always sound: the value is
//! recomputed, to the same result, if it is asked for again.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, MutexGuard};

/// Counters exposed by [`EpochMemo::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Lookups answered from the memo.
    pub hits: usize,
    /// Lookups that found nothing (the caller then computes the value).
    pub misses: usize,
    /// Entries currently stored.
    pub entries: usize,
    /// Keys newly stored (monotone; storing a resident key again is not
    /// counted).
    pub absorbed: usize,
    /// Entries dropped by epoch GC or overflow sweeps (monotone).
    pub evicted: usize,
    /// Inserts of new keys dropped because the table was full even
    /// after its once-per-epoch sweep (monotone).
    pub refused: usize,
    /// GC epochs advanced since the memo was created.
    pub epoch: usize,
}

impl MemoStats {
    /// Hit rate in `[0, 1]`; `0` when no lookups were made.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// The counters accumulated since an earlier snapshot of the same
    /// memo — one run's traffic against a resident table. Gauges
    /// (`entries`, `epoch`) keep their end-of-run values.
    pub fn since(&self, earlier: &MemoStats) -> MemoStats {
        MemoStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            entries: self.entries,
            absorbed: self.absorbed - earlier.absorbed,
            evicted: self.evicted - earlier.evicted,
            refused: self.refused - earlier.refused,
            epoch: self.epoch,
        }
    }
}

#[derive(Debug)]
struct Table<K, V> {
    /// Key → (value, epoch that last stored or hit it).
    map: HashMap<K, (V, u32)>,
    max_entries: usize,
    epoch: u32,
    /// Epoch of the last overflow sweep.
    swept_epoch: Option<u32>,
    hits: usize,
    misses: usize,
    absorbed: usize,
    evicted: usize,
    refused: usize,
}

impl<K: Eq + Hash, V> Table<K, V> {
    /// Makes room in a full table by sweeping out the entries not
    /// touched this epoch, at most once per epoch so a full warm table
    /// cannot thrash; true if that left room for a new key. A new key
    /// that still finds no room is counted as refused.
    fn sweep(&mut self) -> bool {
        if self.swept_epoch != Some(self.epoch) {
            self.swept_epoch = Some(self.epoch);
            let (epoch, before) = (self.epoch, self.map.len());
            self.map.retain(|_, (_, stamp)| *stamp >= epoch);
            self.evicted += before - self.map.len();
        }
        let room = self.map.len() < self.max_entries;
        if !room {
            self.refused += 1;
        }
        room
    }
}

/// A cloneable handle to one bounded memo table; clones share it.
#[derive(Debug)]
pub struct EpochMemo<K, V> {
    table: Arc<Mutex<Table<K, V>>>,
}

impl<K, V> Clone for EpochMemo<K, V> {
    fn clone(&self) -> EpochMemo<K, V> {
        EpochMemo {
            table: Arc::clone(&self.table),
        }
    }
}

impl<K: Eq + Hash, V: Clone> EpochMemo<K, V> {
    /// Creates an empty memo bounded to `max_entries` stored values (at
    /// least 1).
    pub fn with_max_entries(max_entries: usize) -> EpochMemo<K, V> {
        EpochMemo {
            table: Arc::new(Mutex::new(Table {
                map: HashMap::new(),
                max_entries: max_entries.max(1),
                epoch: 0,
                swept_epoch: None,
                hits: 0,
                misses: 0,
                absorbed: 0,
                evicted: 0,
                refused: 0,
            })),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Table<K, V>> {
        self.table.lock().expect("memo table poisoned")
    }

    /// Looks up a value; a hit stamps its entry with the current epoch,
    /// keeping it alive across epoch GCs.
    pub fn lookup(&self, key: &K) -> Option<V> {
        let mut table = self.lock();
        let epoch = table.epoch;
        let found = table.map.get_mut(key).map(|(value, stamp)| {
            *stamp = epoch;
            value.clone()
        });
        match found {
            Some(_) => table.hits += 1,
            None => table.misses += 1,
        }
        found
    }

    /// Stores a value. Callers must store only complete results — a
    /// value cut short by a deadline is not a function of its key. At
    /// the size bound, one sweep per epoch evicts entries not touched
    /// this epoch; if the table is still full the insert is dropped and
    /// counted as refused.
    pub fn insert(&self, key: K, value: V) {
        let mut table = self.lock();
        if table.map.len() >= table.max_entries && !table.map.contains_key(&key) && !table.sweep() {
            return;
        }
        let epoch = table.epoch;
        if table.map.insert(key, (value, epoch)).is_none() {
            table.absorbed += 1;
        }
    }

    /// The room check of [`insert`](Self::insert), sweep included, for
    /// a caller that must spend memory to build a key: a refused insert
    /// then builds nothing. `key` is called only when the table is full,
    /// and answers `None` for a key that cannot be resident yet.
    pub(crate) fn make_room(&self, key: impl FnOnce() -> Option<K>) -> bool {
        let mut table = self.lock();
        table.map.len() < table.max_entries
            || key().is_some_and(|key| table.map.contains_key(&key))
            || table.sweep()
    }

    /// Counts a miss for a probe that could not build its key because
    /// the key was never stored.
    pub(crate) fn count_miss(&self) {
        self.lock().misses += 1;
    }

    /// Stamps every resident key of `keys` with the current epoch, under
    /// one lock, without counting lookups: the keys were read from a
    /// frozen copy of the table and are still in use.
    pub(crate) fn touch_all<'a>(&self, keys: impl IntoIterator<Item = &'a K>)
    where
        K: 'a,
    {
        let mut table = self.lock();
        let epoch = table.epoch;
        for key in keys {
            if let Some((_, stamp)) = table.map.get_mut(key) {
                *stamp = epoch;
            }
        }
    }

    /// Closes one GC epoch: entries neither stored nor hit for two full
    /// epochs are dropped.
    pub fn advance_epoch(&self) {
        let mut table = self.lock();
        let epoch = table.epoch;
        let before = table.map.len();
        table.map.retain(|_, (_, stamp)| *stamp + 1 >= epoch);
        table.evicted += before - table.map.len();
        table.swept_epoch = None;
        table.epoch = epoch + 1;
    }

    /// Renames every key through `rename`, keeping values and stamps,
    /// as when the ids a key is made of are renumbered. `rename` must be
    /// injective on the stored keys.
    pub(crate) fn rekey(&self, mut rename: impl FnMut(K) -> K) {
        let mut table = self.lock();
        table.map = std::mem::take(&mut table.map)
            .into_iter()
            .map(|(key, entry)| (rename(key), entry))
            .collect();
    }

    /// Every stored entry, in no particular order, without stamping it.
    pub(crate) fn entries(&self) -> Vec<(K, V)>
    where
        K: Clone,
    {
        let table = self.lock();
        table
            .map
            .iter()
            .map(|(key, (value, _))| (key.clone(), value.clone()))
            .collect()
    }

    /// Current counters.
    pub fn stats(&self) -> MemoStats {
        let table = self.lock();
        MemoStats {
            hits: table.hits,
            misses: table.misses,
            entries: table.map.len(),
            absorbed: table.absorbed,
            evicted: table.evicted,
            refused: table.refused,
            epoch: table.epoch as usize,
        }
    }

    /// The stored keys in ascending order.
    pub fn sorted_keys(&self) -> Vec<K>
    where
        K: Ord + Clone,
    {
        let mut keys: Vec<K> = self.lock().map.keys().cloned().collect();
        keys.sort_unstable();
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_full_table_counts_the_insert_it_refuses() {
        let memo: EpochMemo<u32, ()> = EpochMemo::with_max_entries(2);
        memo.insert(1, ());
        memo.insert(2, ());
        let full = memo.stats();
        // Every entry was stored this epoch, so the sweep frees nothing.
        memo.insert(3, ());
        let stats = memo.stats();
        assert_eq!((stats.entries, stats.refused), (2, 1));
        assert_eq!(stats.since(&full).refused, 1);
        assert_eq!(memo.lookup(&3), None);
        // Storing a resident key again needs no room.
        memo.insert(2, ());
        assert_eq!(memo.stats().refused, 1);
    }
}
