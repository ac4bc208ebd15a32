//! Memoized E-term enumeration (the §4 performance machinery).
//!
//! Enumeration is split into two stages:
//!
//! 1. **goal-blind generation** — all well-shaped, argument-valid E-terms
//!    of a given base-type *shape* in a given environment, up to an
//!    application depth. Generation validates arguments against the
//!    head's declared types (so termination and precondition obligations
//!    are enforced), but never looks at the goal refinement, which makes
//!    its result a pure function of `(environment, shape, depth)`;
//! 2. **per-goal checking** — each generated candidate is checked against
//!    the current goal type under the current liquid-abduction unknown
//!    (see [`crate::synthesis`]).
//!
//! Stage 1 is what this module memoizes: an [`EnumerationCache`] maps
//! `(environment fingerprint, shape key, depth)` to the candidate set, so
//! the set is built once and reused across the synthesizer's deepening
//! iterations, abduction rounds, guard syntheses — and, when the cache is
//! shared through a [`SolverContext`](crate::SolverContext), across the
//! portfolio rungs and worker threads of a whole batch. Sharing is safe
//! because entries are deterministic functions of their key: a cache hit
//! changes *when* a candidate set is computed, never *what* it contains.

use crate::ast::Program;
use std::sync::Arc;
use synquid_logic::Term;
use synquid_solver::EpochMemo;
use synquid_types::{BaseType, RType};

/// One memoized enumeration result: a well-shaped candidate program
/// together with everything the per-goal check needs to replay it under a
/// fresh constraint solver.
#[derive(Debug, Clone)]
pub struct ShapedCandidate {
    /// The candidate program (may contain [`Program::Hole`] at deferred
    /// higher-order argument positions).
    pub program: Program,
    /// `program.size()`, precomputed for candidate ordering.
    pub size: usize,
    /// The candidate's strengthened (finalized) type. Free unification
    /// type variables are local to the producing enumeration and must be
    /// renamed on consumption (see `ConstraintSolver::import_type`).
    pub ty: RType,
    /// Bindings for intermediate results (application-valued arguments),
    /// in binding order; `ty`'s refinement may mention them. Binder names
    /// are derived deterministically from the candidate's position in the
    /// enumeration, so identical keys yield byte-identical entries
    /// whichever worker computes them first.
    pub extras: Vec<(String, RType)>,
    /// The argument-side condition abduced while validating arguments
    /// (e.g. `n >= 1` for `dec n` at type `Nat`); `true` when the
    /// arguments validate unconditionally. The per-goal check replays it
    /// against the goal's branch-condition unknown.
    pub condition: Term,
    /// Deferred higher-order arguments: `(argument index, function
    /// type)`, synthesized only after the candidate's return type has
    /// been unified with a concrete goal.
    pub pending: Vec<(usize, RType)>,
}

/// One stored generation result: the candidate set together with whether
/// it *grew* relative to the set one application-depth level below.
///
/// The growth bit is what lets the engine's budget ledger prove a deeper
/// portfolio rung redundant: generation at depth `d` extends the depth
/// `d − 1` set, so `grew == false` at every site a failed run touched at
/// its maximum depth means a rerun with a larger depth bound would
/// enumerate — and therefore check — exactly the same candidates.
#[derive(Debug, Clone)]
pub struct GenerationEntry {
    /// The memoized candidate set.
    pub set: Arc<Vec<ShapedCandidate>>,
    /// True if this set is strictly larger than the set at `depth − 1`
    /// (always true at depth 0: a deeper bound enables applications that
    /// depth 0 cannot contain).
    pub grew: bool,
}

/// A concurrent memo table for goal-blind E-term generation, keyed by
/// `(environment fingerprint, shape key, depth)`. Cloning shares the
/// underlying table (like the solver's validity cache). Sets must only
/// be inserted when generation ran to completion (a deadline abort
/// mid-generation must not publish a truncated set).
pub type EnumerationCache = EpochMemo<(String, String, usize), GenerationEntry>;

/// Default bound on stored candidate sets. Environment fingerprints are
/// multi-KB strings and every match arm / else-branch mints new keys, so
/// without a bound a long batch accumulates memory without limit (the
/// validity cache bounds itself the same way). Refusing further inserts
/// keeps determinism — a skipped insert only means the set is
/// regenerated (to the identical value) on the next request.
pub const ENUMERATION_MAX_ENTRIES: usize = 4096;

/// The canonical shape key of a type: its base-type structure with all
/// refinements erased and free unification type variables normalized by
/// first occurrence (`%0`, `%1`, …), so shapes that differ only in the
/// producing solver's fresh-variable numbering share a cache entry.
pub fn shape_key(ty: &RType) -> String {
    let mut out = String::new();
    let mut seen: Vec<String> = Vec::new();
    write_shape(ty, &mut out, &mut seen);
    out
}

fn write_shape(ty: &RType, out: &mut String, seen: &mut Vec<String>) {
    match ty {
        RType::Scalar { base, .. } => write_base_shape(base, out, seen),
        RType::Function { arg, ret, .. } => {
            out.push('(');
            write_shape(arg, out, seen);
            out.push_str(")->");
            write_shape(ret, out, seen);
        }
        RType::Any => out.push_str("top"),
        RType::Bot => out.push_str("bot"),
    }
}

fn write_base_shape(base: &BaseType, out: &mut String, seen: &mut Vec<String>) {
    match base {
        BaseType::Bool => out.push_str("Bool"),
        BaseType::Int => out.push_str("Int"),
        BaseType::TypeVar(name) if synquid_types::is_free_type_var(name) => {
            let idx = match seen.iter().position(|s| s == name) {
                Some(i) => i,
                None => {
                    seen.push(name.clone());
                    seen.len() - 1
                }
            };
            out.push('%');
            out.push_str(&idx.to_string());
        }
        BaseType::TypeVar(name) => out.push_str(name),
        BaseType::Data(name, args) => {
            out.push_str(name);
            for a in args {
                out.push(' ');
                out.push('(');
                write_shape(a, out, seen);
                out.push(')');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_keys_normalize_free_type_variables() {
        let a = RType::base(BaseType::Data(
            "List".into(),
            vec![RType::tyvar("'t0"), RType::tyvar("'t0")],
        ));
        let b = RType::base(BaseType::Data(
            "List".into(),
            vec![RType::tyvar("'t7"), RType::tyvar("'t7")],
        ));
        assert_eq!(shape_key(&a), shape_key(&b));
        let c = RType::base(BaseType::Data(
            "List".into(),
            vec![RType::tyvar("'t0"), RType::tyvar("'t1")],
        ));
        assert_ne!(shape_key(&a), shape_key(&c));
        // Rigid variables keep their names.
        assert_ne!(shape_key(&RType::tyvar("a")), shape_key(&RType::tyvar("b")));
    }

    #[test]
    fn shape_keys_erase_refinements() {
        use synquid_logic::Sort;
        let refined = RType::refined(BaseType::Int, Term::value_var(Sort::Int).ge(Term::int(0)));
        assert_eq!(shape_key(&refined), shape_key(&RType::int()));
        assert_ne!(shape_key(&RType::int()), shape_key(&RType::bool()));
    }

    #[test]
    fn cache_counts_hits_and_misses() {
        let cache = EnumerationCache::with_max_entries(ENUMERATION_MAX_ENTRIES);
        let key = ("env".to_string(), "Int".to_string(), 1);
        assert!(cache.lookup(&key).is_none());
        cache.insert(
            key.clone(),
            GenerationEntry {
                set: Arc::new(Vec::new()),
                grew: false,
            },
        );
        assert!(cache.lookup(&key).is_some());
        let clone = cache.clone();
        assert!(clone.lookup(&key).is_some(), "clones share the table");
        let stats = cache.stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.entries, 1);
    }

    fn entry() -> GenerationEntry {
        GenerationEntry {
            set: Arc::new(Vec::new()),
            grew: false,
        }
    }

    #[test]
    fn epoch_gc_drops_two_cold_entries() {
        let cache = EnumerationCache::with_max_entries(ENUMERATION_MAX_ENTRIES);
        let hot = ("env".to_string(), "Int".to_string(), 0);
        let cold = ("env".to_string(), "Bool".to_string(), 0);
        cache.insert(hot.clone(), entry());
        cache.insert(cold.clone(), entry());
        cache.advance_epoch();
        cache.lookup(&hot); // touched in epoch 1
        cache.advance_epoch();
        assert_eq!(cache.stats().entries, 2, "one cold epoch survives");
        cache.advance_epoch();
        let stats = cache.stats();
        assert_eq!(stats.entries, 1, "two cold epochs evict");
        assert_eq!(stats.evicted, 1);
        assert!(cache.lookup(&hot).is_some());
        assert!(cache.lookup(&cold).is_none());
    }

    #[test]
    fn tiny_bound_sweeps_cold_entries_then_refuses() {
        let cache = EnumerationCache::with_max_entries(1);
        let a = ("env".to_string(), "Int".to_string(), 0);
        let b = ("env".to_string(), "Bool".to_string(), 0);
        cache.insert(a.clone(), entry());
        cache.insert(b.clone(), entry());
        assert!(cache.lookup(&b).is_none(), "full of hot entries: refused");
        cache.advance_epoch();
        cache.insert(b.clone(), entry());
        assert!(cache.lookup(&b).is_some(), "cold sweep made room");
        assert_eq!(cache.stats().entries, 1);
    }
}
