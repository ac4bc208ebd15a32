//! Hash-consed interning of refinement [`Term`]s.
//!
//! The synthesizer re-issues the same subtyping obligations many times —
//! across backtracking, across iterative-deepening rungs, and (with the
//! parallel engine) across goals running on different threads. Interning
//! maps every structurally distinct term to a small integer [`TermId`],
//! so that validity-cache keys are cheap to hash and compare and shared
//! subterms are stored once.
//!
//! The interner is a classic hash-consing table: terms are flattened
//! bottom-up into `Node`s whose children are already-interned ids, so
//! two terms receive the same id *iff* they are structurally equal, and
//! equal subtrees share one node regardless of how many parents mention
//! them. [`Interner::resolve`] rebuilds the `Term`, making interning a
//! lossless round trip.

use crate::sort::Sort;
use crate::term::{BinOp, Term, UnOp, UnknownId};
use std::collections::HashMap;
use std::sync::Arc;

/// Identifier of an interned term. Ids are dense (`0..len`) and stable
/// until the next [`Interner::compact`], which renumbers survivors and
/// hands the caller a remap table for its own id-keyed structures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TermId(u32);

impl TermId {
    /// The raw index of the id.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One hash-consed node: a [`Term`] constructor with interned children.
///
/// Pending substitutions inside predicate unknowns are flattened to
/// sorted `(variable, id)` pairs, mirroring the `BTreeMap` they come
/// from, so structural equality of unknowns is preserved.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Node {
    IntLit(i64),
    BoolLit(bool),
    SetLit(Sort, Vec<TermId>),
    Var(String, Sort),
    Unknown(UnknownId, Vec<(String, TermId)>),
    Unary(UnOp, TermId),
    Binary(BinOp, TermId, TermId),
    Ite(TermId, TermId, TermId),
    App(String, Vec<TermId>, Sort),
}

impl Node {
    /// Visits each child id of this node once.
    fn for_each_child(&self, mut f: impl FnMut(TermId)) {
        match self {
            Node::IntLit(_) | Node::BoolLit(_) | Node::Var(_, _) => {}
            Node::SetLit(_, items) => items.iter().copied().for_each(&mut f),
            Node::Unknown(_, pending) => pending.iter().for_each(|(_, v)| f(*v)),
            Node::Unary(_, t) => f(*t),
            Node::Binary(_, a, b) => {
                f(*a);
                f(*b);
            }
            Node::Ite(c, t, e) => {
                f(*c);
                f(*t);
                f(*e);
            }
            Node::App(_, args, _) => args.iter().copied().for_each(&mut f),
        }
    }

    /// Rewrites each child id in place.
    fn map_children(&mut self, mut f: impl FnMut(TermId) -> TermId) {
        match self {
            Node::IntLit(_) | Node::BoolLit(_) | Node::Var(_, _) => {}
            Node::SetLit(_, items) => items.iter_mut().for_each(|i| *i = f(*i)),
            Node::Unknown(_, pending) => pending.iter_mut().for_each(|(_, v)| *v = f(*v)),
            Node::Unary(_, t) => *t = f(*t),
            Node::Binary(_, a, b) => {
                *a = f(*a);
                *b = f(*b);
            }
            Node::Ite(c, t, e) => {
                *c = f(*c);
                *t = f(*t);
                *e = f(*e);
            }
            Node::App(_, args, _) => args.iter_mut().for_each(|i| *i = f(*i)),
        }
    }
}

/// A hash-consing table for refinement terms.
///
/// The table grows monotonically between [`Interner::compact`] calls;
/// a resident owner (the validity cache of a long-lived session) calls
/// `compact` at epoch boundaries with the ids its memo still references,
/// and every node unreachable from those roots is dropped. The
/// [`total_interned`](Interner::total_interned) /
/// [`total_evicted`](Interner::total_evicted) counter pair is monotone
/// across compactions, so `total_interned - total_evicted == len()`
/// always holds and a fleet dashboard can watch for leaks.
#[derive(Debug, Default)]
pub struct Interner {
    ids: HashMap<Node, TermId>,
    nodes: Vec<Node>,
    /// Distinct nodes ever created (monotone across compactions).
    total_interned: usize,
    /// Nodes dropped by compactions (monotone).
    total_evicted: usize,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Interner {
        Interner::default()
    }

    /// Number of distinct nodes interned so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Distinct nodes ever created by this interner, including nodes
    /// since evicted by [`compact`](Interner::compact).
    pub fn total_interned(&self) -> usize {
        self.total_interned
    }

    /// Nodes dropped by [`compact`](Interner::compact) calls so far.
    pub fn total_evicted(&self) -> usize {
        self.total_evicted
    }

    /// Interns a term, returning its id. Structurally equal terms map to
    /// the same id; shared subterms are stored once.
    pub fn intern(&mut self, term: &Term) -> TermId {
        let node = match term {
            Term::IntLit(n) => Node::IntLit(*n),
            Term::BoolLit(b) => Node::BoolLit(*b),
            Term::SetLit(elem, items) => {
                Node::SetLit(elem.clone(), items.iter().map(|t| self.intern(t)).collect())
            }
            Term::Var(name, sort) => Node::Var(name.clone(), sort.clone()),
            Term::Unknown(id, pending) => Node::Unknown(
                *id,
                pending
                    .iter()
                    .map(|(k, v)| (k.clone(), self.intern(v)))
                    .collect(),
            ),
            Term::Unary(op, t) => Node::Unary(*op, self.intern(t)),
            Term::Binary(op, a, b) => Node::Binary(*op, self.intern(a), self.intern(b)),
            Term::Ite(c, t, e) => Node::Ite(self.intern(c), self.intern(t), self.intern(e)),
            Term::App(name, args, sort) => Node::App(
                name.clone(),
                args.iter().map(|t| self.intern(t)).collect(),
                sort.clone(),
            ),
        };
        self.intern_node(node)
    }

    fn intern_node(&mut self, node: Node) -> TermId {
        if let Some(id) = self.ids.get(&node) {
            return *id;
        }
        let id = TermId(u32::try_from(self.nodes.len()).expect("interner overflow"));
        self.nodes.push(node.clone());
        self.ids.insert(node, id);
        self.total_interned += 1;
        id
    }

    /// Looks a term up *without* interning it: returns its id only if
    /// the term (including every subterm) has been interned before.
    /// This keeps read-only probes — e.g. validity-cache lookups that
    /// miss — from growing the table.
    pub fn find(&self, term: &Term) -> Option<TermId> {
        let node = match term {
            Term::IntLit(n) => Node::IntLit(*n),
            Term::BoolLit(b) => Node::BoolLit(*b),
            Term::SetLit(elem, items) => Node::SetLit(
                elem.clone(),
                items
                    .iter()
                    .map(|t| self.find(t))
                    .collect::<Option<Vec<_>>>()?,
            ),
            Term::Var(name, sort) => Node::Var(name.clone(), sort.clone()),
            Term::Unknown(id, pending) => Node::Unknown(
                *id,
                pending
                    .iter()
                    .map(|(k, v)| Some((k.clone(), self.find(v)?)))
                    .collect::<Option<Vec<_>>>()?,
            ),
            Term::Unary(op, t) => Node::Unary(*op, self.find(t)?),
            Term::Binary(op, a, b) => Node::Binary(*op, self.find(a)?, self.find(b)?),
            Term::Ite(c, t, e) => Node::Ite(self.find(c)?, self.find(t)?, self.find(e)?),
            Term::App(name, args, sort) => Node::App(
                name.clone(),
                args.iter()
                    .map(|t| self.find(t))
                    .collect::<Option<Vec<_>>>()?,
                sort.clone(),
            ),
        };
        self.ids.get(&node).copied()
    }

    /// Drops every node unreachable from `roots`, renumbering the
    /// survivors densely while preserving their relative order.
    ///
    /// Returns the remap table indexed by *old* id: `remap[old.index()]`
    /// is the surviving node's new id, or `None` if it was evicted. The
    /// caller owns every id-keyed side table and must re-key it through
    /// the remap; child links inside the interner are rewritten here.
    /// Children always precede their parents (interning is bottom-up),
    /// so a root keeps its entire subtree alive.
    pub fn compact(&mut self, roots: impl IntoIterator<Item = TermId>) -> Vec<Option<TermId>> {
        let mut live = vec![false; self.nodes.len()];
        let mut stack: Vec<usize> = roots.into_iter().map(|r| r.index()).collect();
        while let Some(i) = stack.pop() {
            if live[i] {
                continue;
            }
            live[i] = true;
            self.nodes[i].for_each_child(|c| stack.push(c.index()));
        }
        let mut remap: Vec<Option<TermId>> = vec![None; self.nodes.len()];
        let mut new_nodes: Vec<Node> = Vec::new();
        for (i, node) in self.nodes.iter().enumerate() {
            if !live[i] {
                continue;
            }
            let new_id = TermId(u32::try_from(new_nodes.len()).expect("interner overflow"));
            remap[i] = Some(new_id);
            let mut renumbered = node.clone();
            renumbered.map_children(|c| remap[c.index()].expect("child of live node is live"));
            new_nodes.push(renumbered);
        }
        self.total_evicted += self.nodes.len() - new_nodes.len();
        self.ids = new_nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), TermId(i as u32)))
            .collect();
        self.nodes = new_nodes;
        remap
    }

    /// Rebuilds the term behind an id.
    ///
    /// # Panics
    ///
    /// Panics if the id was produced by a different interner (and is out
    /// of range for this one).
    pub fn resolve(&self, id: TermId) -> Term {
        let node = &self.nodes[id.index()];
        match node {
            Node::IntLit(n) => Term::IntLit(*n),
            Node::BoolLit(b) => Term::BoolLit(*b),
            Node::SetLit(elem, items) => Term::SetLit(
                elem.clone(),
                items.iter().map(|i| self.resolve(*i)).collect(),
            ),
            Node::Var(name, sort) => Term::Var(name.clone(), sort.clone()),
            Node::Unknown(uid, pending) => Term::Unknown(
                *uid,
                pending
                    .iter()
                    .map(|(k, v)| (k.clone(), self.resolve(*v)))
                    .collect(),
            ),
            Node::Unary(op, t) => Term::Unary(*op, Arc::new(self.resolve(*t))),
            Node::Binary(op, a, b) => {
                Term::Binary(*op, Arc::new(self.resolve(*a)), Arc::new(self.resolve(*b)))
            }
            Node::Ite(c, t, e) => Term::Ite(
                Arc::new(self.resolve(*c)),
                Arc::new(self.resolve(*t)),
                Arc::new(self.resolve(*e)),
            ),
            Node::App(name, args, sort) => Term::App(
                name.clone(),
                args.iter().map(|i| self.resolve(*i)).collect(),
                sort.clone(),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Substitution;

    fn x() -> Term {
        Term::var("x", Sort::Int)
    }
    fn y() -> Term {
        Term::var("y", Sort::Int)
    }

    #[test]
    fn equal_terms_get_equal_ids() {
        let mut interner = Interner::new();
        let a = interner.intern(&x().plus(y()).le(Term::int(3)));
        let b = interner.intern(&x().plus(y()).le(Term::int(3)));
        assert_eq!(a, b);
        let c = interner.intern(&x().plus(y()).le(Term::int(4)));
        assert_ne!(a, c);
    }

    #[test]
    fn shared_subterms_are_stored_once() {
        let mut interner = Interner::new();
        // (x + y) ≤ (x + y) shares the sum node: x, y, x+y, ≤ = 4 nodes.
        let sum = x().plus(y());
        interner.intern(&sum.clone().le(sum));
        assert_eq!(interner.len(), 4);
    }

    #[test]
    fn resolve_round_trips_structural_equality() {
        let mut interner = Interner::new();
        let list = Sort::data("List", vec![Sort::var("a")]);
        let terms = [
            Term::tt(),
            Term::int(-7),
            Term::empty_set(Sort::Int),
            Term::singleton(Sort::var("a"), Term::var("e", Sort::var("a"))),
            Term::app("len", vec![Term::value_var(list.clone())], Sort::Int).eq(x()),
            Term::ite(x().le(y()), x(), y()).neg(),
            x().le(y()).not().or(x().eq(y())),
        ];
        for term in terms {
            let id = interner.intern(&term);
            assert_eq!(interner.resolve(id), term, "round trip of {term}");
            // Re-interning the resolved term hits the same id.
            let resolved = interner.resolve(id);
            assert_eq!(interner.intern(&resolved), id);
        }
    }

    #[test]
    fn find_never_inserts() {
        let mut interner = Interner::new();
        let formula = x().plus(y()).le(Term::int(3));
        assert_eq!(interner.find(&formula), None);
        assert!(interner.is_empty(), "find must not intern");
        let id = interner.intern(&formula);
        assert_eq!(interner.find(&formula), Some(id));
        // A term sharing subterms with an interned one but not itself
        // interned is still absent, and probing it changes nothing.
        let len = interner.len();
        assert_eq!(interner.find(&x().plus(y()).le(Term::int(9))), None);
        assert_eq!(interner.len(), len);
    }

    #[test]
    fn compact_keeps_roots_and_their_subtrees() {
        let mut interner = Interner::new();
        let keep = interner.intern(&x().plus(y()).le(Term::int(3)));
        let drop = interner.intern(&x().eq(Term::int(42)));
        let before = interner.len();
        let remap = interner.compact([keep]);
        // The kept root and its whole subtree survive; the `= 42` spine
        // dies (x is shared with the survivor and stays).
        let new_keep = remap[keep.index()].expect("root survives");
        assert_eq!(remap[drop.index()], None);
        assert!(interner.len() < before);
        assert_eq!(
            interner.resolve(new_keep),
            x().plus(y()).le(Term::int(3)),
            "surviving ids resolve to the same terms"
        );
        // Re-interning the survivor is a no-op; the dropped term re-interns
        // as new nodes.
        assert_eq!(interner.intern(&x().plus(y()).le(Term::int(3))), new_keep);
        assert_eq!(
            interner.total_interned() - interner.total_evicted(),
            interner.len(),
            "counter pair accounts for every node"
        );
    }

    #[test]
    fn compact_counters_are_monotone() {
        let mut interner = Interner::new();
        interner.intern(&x());
        interner.intern(&y());
        assert_eq!(interner.total_interned(), 2);
        interner.compact([]);
        assert!(interner.is_empty());
        assert_eq!(interner.total_interned(), 2);
        assert_eq!(interner.total_evicted(), 2);
        interner.intern(&x());
        assert_eq!(interner.total_interned(), 3);
    }

    #[test]
    fn unknown_pending_substitutions_participate_in_identity() {
        let mut interner = Interner::new();
        let plain = interner.intern(&Term::unknown(0));
        let mut pending = Substitution::new();
        pending.insert("x".into(), Term::int(1));
        let subst = interner.intern(&Term::Unknown(0, pending.clone()));
        assert_ne!(plain, subst);
        assert_eq!(interner.resolve(subst), Term::Unknown(0, pending));
    }
}
