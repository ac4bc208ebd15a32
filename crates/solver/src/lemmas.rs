//! Learned theory lemmas: numbered keys, an index for replay, one
//! resident store.
//!
//! Each [`Smt`](crate::Smt) instance learns theory conflicts while it
//! solves (see the incremental DPLL(T) machinery in [`crate::smt`]). A
//! lemma is a set of portable atom keys taken at truth values that are
//! jointly LIA-inconsistent — a fact about the formulas themselves,
//! valid in *any* query in which all of its atoms appear. That makes
//! lemmas safe to outlive the run that learned them.
//!
//! A key's string ([`Encoded::portable_atom_key`]) is its persisted
//! identity: the [`SharedLemmaStore`] and session snapshots hold
//! [`Lemma`]s of strings. Inside a process, lemmas are indexed and
//! replayed by key *id*. A [`LemmaSeed`] numbers the keys of its
//! lemmas once, when it is frozen. Each solver (`SolverLemmas`)
//! numbers every further key it meets after the seed's, and remembers
//! the id of each comparison shape, so it formats a key once per shape,
//! not once per atom per query. Ids are local to a process and never
//! persisted.
//!
//! A solver replays lemmas from two [`LemmaIndex`]es: the one it learns
//! into, and its seed, an index frozen from its session's
//! [`SharedLemmaStore`] at the start of a batch run. Every solver of
//! that run replays the same seed (so results cannot depend on worker
//! scheduling), and lemmas learned during the run flow back into the
//! store for *future* runs only. Dropping lemmas is always sound — each
//! one is implied by the encoding of any query containing its atoms — so
//! the store is an [`EpochMemo`] like every other resident memo: a lemma
//! stored or replayed this epoch survives, two cold epochs evict.

use crate::encode::{Encoded, TheoryAtom};
use crate::epoch_memo::EpochMemo;
use crate::rational::Rational;
use crate::sat::Lit;
use std::collections::HashMap;
use std::sync::Arc;

/// One persisted lemma: portable `(atom key, truth value)` literals,
/// sorted by key. Asserting the negation of the conjunction is sound in
/// any query whose atom set covers the keys.
pub type Lemma = Vec<(String, bool)>;

/// A lemma over key ids, its literals in the order of the [`Lemma`] it
/// renders to.
type IdLemma = Vec<(u32, bool)>;

/// Bound on the lemmas one solver learns and, by default, on a
/// session's store: enough for the longest synthesis runs observed (a
/// few thousand distinct conflicts), small enough that applicability
/// probing stays cheap.
pub const MAX_LEMMAS: usize = 8_192;

/// Portable atom keys numbered densely from `first_id`. Each string is
/// stored once, shared by the id's slot and the lookup map.
#[derive(Debug, Default)]
struct KeyTable {
    first_id: u32,
    keys: Vec<Arc<str>>,
    ids: HashMap<Arc<str>, u32>,
}

impl KeyTable {
    fn get(&self, key: &str) -> Option<u32> {
        self.ids.get(key).copied()
    }

    /// The id of `key`, numbered next if it is new.
    fn insert(&mut self, key: &str) -> u32 {
        if let Some(id) = self.get(key) {
            return id;
        }
        let id = self.end();
        let key: Arc<str> = key.into();
        self.keys.push(Arc::clone(&key));
        self.ids.insert(key, id);
        id
    }

    /// One past the last id.
    fn end(&self) -> u32 {
        self.first_id + self.keys.len() as u32
    }

    fn key(&self, id: u32) -> &str {
        &self.keys[(id - self.first_id) as usize]
    }
}

/// Lemmas over key ids, with an index from each lemma's first key (the
/// smallest string) to the lemma. Iterating the distinct key ids of a
/// query visits every applicable lemma exactly once, at a cost
/// proportional to the query, not to the index.
///
/// The index's key table numbers, for a seed, the keys of its lemmas
/// and, for a solver's own index, every key the solver met, after its
/// seed's.
#[derive(Debug, Default)]
pub struct LemmaIndex {
    keys: KeyTable,
    lemmas: Vec<IdLemma>,
    by_first_key: Vec<Vec<usize>>,
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
    /// An empty index whose key ids follow `seed`'s.
    fn extending(seed: &LemmaIndex) -> LemmaIndex {
        LemmaIndex {
            keys: KeyTable {
                first_id: seed.keys.end(),
                ..KeyTable::default()
            },
            ..LemmaIndex::default()
        }
    }

    fn push(&mut self, lemma: IdLemma) {
        let first = lemma[0].0 as usize;
        if self.by_first_key.len() <= first {
            self.by_first_key.resize_with(first + 1, Vec::new);
        }
        self.by_first_key[first].push(self.lemmas.len());
        self.lemmas.push(lemma);
    }

    /// Adds a freshly learned lemma (sorted by key string) unless it is
    /// empty, already indexed, or the index holds [`MAX_LEMMAS`]; true if
    /// added.
    fn learn(&mut self, lemma: &[(u32, bool)]) -> bool {
        if self.lemmas.len() >= MAX_LEMMAS || lemma.is_empty() {
            return false;
        }
        if self
            .ids_for_first_key(lemma[0].0)
            .iter()
            .any(|&id| self.lemmas[id] == lemma)
        {
            return false;
        }
        self.push(lemma.to_vec());
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

    /// The ids of the lemmas whose first key is `key`.
    fn ids_for_first_key(&self, key: u32) -> &[usize] {
        self.by_first_key
            .get(key as usize)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Lemma `id` with its keys' strings, as the store holds it; only
    /// for an index that numbers all its own keys, as a seed does.
    fn render(&self, id: usize) -> Lemma {
        render(&self.lemmas[id], |key| self.keys.key(key))
    }
}

fn render<'a>(lemma: &[(u32, bool)], key: impl Fn(u32) -> &'a str) -> Lemma {
    lemma
        .iter()
        .map(|&(id, value)| (key(id).to_string(), value))
        .collect()
}

impl SharedLemmaStore {
    /// Creates an empty store bounded to [`MAX_LEMMAS`].
    pub fn new() -> SharedLemmaStore {
        SharedLemmaStore::with_max_entries(MAX_LEMMAS)
    }

    /// Freezes the resident lemmas, in sorted order, into a seed that
    /// numbers their keys.
    pub fn seed(&self) -> LemmaSeed {
        let mut index = LemmaIndex::default();
        for lemma in self.sorted_keys() {
            let lemma = lemma
                .iter()
                .map(|(key, value)| (index.keys.insert(key), *value))
                .collect();
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

/// A comparison atom's portable key before it is formatted: its
/// sign-normalized strictness, constant and coefficients, over numbered
/// arithmetic names in name-id order. Equal shapes format to equal keys.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Shape {
    strict: bool,
    constant: Rational,
    coeffs: Vec<(u32, Rational)>,
}

/// The lemma state of one incremental solver: the frozen seed of its
/// session, the index it learns into, the session's store, and what
/// turns a query's atoms into key ids.
#[derive(Debug)]
pub(crate) struct SolverLemmas {
    seed: LemmaSeed,
    /// Its key ids extend the seed's.
    learned: LemmaIndex,
    store: Option<SharedLemmaStore>,
    /// Arithmetic variable names, numbered in first-seen order.
    names: HashMap<Box<str>, u32>,
    /// The key id of every comparison shape met so far.
    shapes: HashMap<Shape, u32>,
    /// Scratch shape, reused for each atom's lookup.
    shape: Shape,
    /// Per key id: the stamp of the last query that carried it, and the
    /// query's first atom with that key.
    slots: Vec<(u32, u32)>,
    stamp: u32,
}

impl Default for SolverLemmas {
    fn default() -> SolverLemmas {
        SolverLemmas::new(LemmaSeed::default(), None)
    }
}

impl SolverLemmas {
    pub(crate) fn new(seed: LemmaSeed, store: Option<SharedLemmaStore>) -> SolverLemmas {
        SolverLemmas {
            learned: LemmaIndex::extending(&seed),
            seed,
            store,
            names: HashMap::new(),
            shapes: HashMap::new(),
            shape: Shape {
                strict: false,
                constant: Rational::ZERO,
                coeffs: Vec::new(),
            },
            slots: Vec::new(),
            stamp: 0,
        }
    }

    /// The string of a key id this solver numbered.
    fn key(&self, id: u32) -> &str {
        if id < self.learned.keys.first_id {
            self.seed.keys.key(id)
        } else {
            self.learned.keys.key(id)
        }
    }

    /// The key id of atom `atom` of `problem`, whose arithmetic names
    /// have ids `names`; `None` for an opaque atom. The key string is
    /// formatted only the first time this solver meets the atom's shape,
    /// and identity is decided by that string.
    fn key_id(&mut self, problem: &Encoded, atom: usize, names: &[u32]) -> Option<u32> {
        let TheoryAtom::Compare(c) = &problem.atoms[atom] else {
            return None;
        };
        let signed = |k: Rational| if c.upper { k } else { -k };
        let shape = &mut self.shape;
        shape.strict = c.strict;
        shape.constant = signed(c.diff.constant);
        shape.coeffs.clear();
        shape
            .coeffs
            .extend(c.diff.coeffs.iter().map(|(&v, &k)| (names[v], signed(k))));
        shape.coeffs.sort_unstable_by_key(|&(name, _)| name);
        if let Some(&id) = self.shapes.get(&*shape) {
            return Some(id);
        }
        let key = problem.portable_atom_key(atom)?;
        let id = match self.seed.keys.get(&key) {
            Some(id) => id,
            None => self.learned.keys.insert(&key),
        };
        self.shapes.insert(shape.clone(), id);
        Some(id)
    }

    /// Numbers the keys of `problem`'s atoms and returns them, with the
    /// blocking clauses of every learned or seeded lemma whose keys all
    /// occur in `problem`, sorted. A key carried by several atoms binds
    /// to the first: the encoder dedups atoms by their printed text, so
    /// twins such as `x < y` and `y > x` are two atoms with one key.
    /// Seeded lemmas that replay are touched in the store, so the epoch
    /// GC sees them as live.
    pub(crate) fn replay(&mut self, problem: &Encoded) -> (Vec<Option<u32>>, Vec<Vec<Lit>>) {
        self.stamp = self.stamp.checked_add(1).unwrap_or_else(|| {
            self.slots.fill((0, 0));
            1
        });
        let stamp = self.stamp;
        let names: Vec<u32> = problem
            .arith_names
            .iter()
            .map(|name| match self.names.get(name.as_str()) {
                Some(&id) => id,
                None => {
                    let id = self.names.len() as u32;
                    self.names.insert(name.as_str().into(), id);
                    id
                }
            })
            .collect();
        // The distinct key ids of the query, each bound to its first atom.
        let mut present: Vec<u32> = Vec::new();
        let atom_keys: Vec<Option<u32>> = (0..problem.atoms.len())
            .map(|atom| {
                let id = self.key_id(problem, atom, &names)?;
                if self.slots.len() <= id as usize {
                    self.slots.resize(self.learned.keys.end() as usize, (0, 0));
                }
                let slot = &mut self.slots[id as usize];
                if slot.0 != stamp {
                    *slot = (stamp, atom as u32);
                    present.push(id);
                }
                Some(id)
            })
            .collect();
        // Maps a lemma's literals onto this problem's atoms; `None` if
        // some key is absent (the lemma does not apply).
        let slots = &self.slots;
        let clause_of = |lemma: &[(u32, bool)]| -> Option<Vec<Lit>> {
            lemma
                .iter()
                .map(|&(key, value)| match slots.get(key as usize) {
                    Some(&(s, atom)) if s == stamp => Some(Lit::new(atom as usize, !value)),
                    _ => None,
                })
                .collect()
        };
        // A seeded lemma can never coincide with a learned one: learning
        // requires the SAT core to violate it, which the already-asserted
        // replay clause makes impossible.
        let mut replayed: Vec<Vec<Lit>> = Vec::new();
        let mut touched: Vec<Lemma> = Vec::new();
        for &key in &present {
            for &id in self.learned.ids_for_first_key(key) {
                replayed.extend(clause_of(&self.learned.lemmas[id]));
            }
            for &id in self.seed.ids_for_first_key(key) {
                if let Some(clause) = clause_of(&self.seed.lemmas[id]) {
                    replayed.push(clause);
                    touched.push(self.seed.render(id));
                }
            }
        }
        if let (Some(store), false) = (&self.store, touched.is_empty()) {
            store.touch_all(&touched);
        }
        // The clause set is order-independent for correctness; sort it
        // so a run's SAT search (and hence its timing profile) does not
        // depend on the order the ids were met in.
        replayed.sort();
        (atom_keys, replayed)
    }

    /// Learns a theory conflict over key ids this solver numbered: sorts
    /// it by key string and, unless [`LemmaIndex::learn`] refuses it,
    /// publishes it to the session's store for future runs (this run
    /// keeps replaying from its learned lemmas and frozen seed). True if
    /// learned.
    pub(crate) fn learn(&mut self, mut lemma: IdLemma) -> bool {
        lemma.sort_by(|a, b| (self.key(a.0), a.1).cmp(&(self.key(b.0), b.1)));
        if !self.learned.learn(&lemma) {
            return false;
        }
        if let Some(store) = &self.store {
            store.insert(render(&lemma, |id| self.key(id)), ());
        }
        true
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
        assert_eq!(seed.render(0), lemma(&[("a", true)]));
        assert_eq!(seed.render(1), lemma(&[("b", true), ("c", false)]));
        let ids: Vec<Option<u32>> = ["a", "b", "c", "d"]
            .iter()
            .map(|k| seed.keys.get(k))
            .collect();
        assert_eq!(ids, [Some(0), Some(1), Some(2), None]);
        assert_eq!(seed.ids_for_first_key(1), &[1]);
        assert_eq!(seed.ids_for_first_key(2).len(), 0);
    }

    #[test]
    fn learning_dedups_and_stops_at_the_bound() {
        let store = SharedLemmaStore::new();
        store.insert(lemma(&[("m", true)]), ());
        let mut solver = SolverLemmas::new(store.seed(), Some(store.clone()));
        // The seed numbers `m` as 0; the solver's own keys follow.
        let (z, a) = (
            solver.learned.keys.insert("z"),
            solver.learned.keys.insert("a"),
        );
        assert_eq!((z, a), (1, 2));
        assert!(solver.learn(vec![(z, true), (a, false)]));
        assert_eq!(solver.learned.lemmas[0], [(a, false), (z, true)]);
        assert!(!solver.learn(vec![(a, false), (z, true)]));
        assert!(solver.learn(vec![(0, true), (a, true)]));
        assert!(!solver.learn(Vec::new()));
        assert_eq!(solver.learned.ids_for_first_key(a).len(), 2);
        assert_eq!(
            store.sorted_keys(),
            [
                lemma(&[("a", false), ("z", true)]),
                lemma(&[("a", true), ("m", true)]),
                lemma(&[("m", true)]),
            ]
        );
        for i in solver.learned.len()..MAX_LEMMAS {
            let key = solver.learned.keys.insert(&format!("k{i}"));
            assert!(solver.learned.learn(&[(key, true)]));
        }
        assert!(!solver.learn(vec![(z, false)]));
        assert_eq!(solver.learned.len(), MAX_LEMMAS);
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
