//! The SMT facade: satisfiability and validity of refinement formulas.
//!
//! [`Smt`] combines the encoder ([`crate::encode`]), the CDCL SAT solver
//! ([`crate::sat`]) and the linear integer arithmetic solver
//! ([`crate::lia`]) into a lazy DPLL(T) loop:
//!
//! 1. the formula is encoded into a boolean skeleton over theory atoms and
//!    converted to CNF with the Tseitin transformation;
//! 2. the SAT solver proposes a boolean model;
//! 3. the arithmetic literals implied by the model are checked by the LIA
//!    solver; if they are inconsistent, a blocking clause over the atom
//!    literals is added and the loop repeats.
//!
//! This plays the role that Z3 plays for the original Synquid
//! implementation (see the `crates/solver` section of
//! `docs/ARCHITECTURE.md` for the substitution rationale).

use crate::cache::SharedValidityCache;
use crate::cancel::Budget;
use crate::encode::{Encoded, Encoder, Skeleton, TheoryAtom};
use crate::lemmas::{LemmaSeed, SharedLemmaStore, SolverLemmas};
use crate::lia::{Constraint, IncrementalLia, LiaResult};
use crate::mus::MusMemo;
use crate::rational::Rational;
use crate::sat::{Lit, SatResult, SatSolver};
use std::time::Instant;
use synquid_logic::Term;
use synquid_telemetry::{events, events::Event, Phase};

/// Maximum number of DPLL(T) iterations per query; a query that needs
/// more answers [`SmtResult::Unknown`].
const MAX_DPLL_ITERATIONS: usize = 2_000;

/// Result of an SMT query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SmtResult {
    /// The formula is satisfiable.
    Sat,
    /// The formula is unsatisfiable.
    Unsat,
    /// The solver gave up (budget exhaustion); callers treat this as
    /// "possibly satisfiable".
    Unknown,
}

impl SmtResult {
    /// True unless the result is [`SmtResult::Unsat`].
    pub fn possibly_sat(self) -> bool {
        !matches!(self, SmtResult::Unsat)
    }
}

/// Statistics accumulated by an [`Smt`] instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SmtStats {
    /// Number of satisfiability queries answered.
    pub queries: usize,
    /// Number of queries answered from the instance-local memo cache.
    pub cache_hits: usize,
    /// Number of queries answered from the attached shared validity
    /// cache (zero when no cache is attached).
    pub shared_hits: usize,
    /// Queries that consulted the shared cache and missed.
    pub shared_misses: usize,
    /// Number of SAT-solver invocations across all queries.
    pub sat_calls: usize,
    /// Number of LIA checks across all queries.
    pub theory_calls: usize,
    /// Theory conflicts learned and persisted across queries (the
    /// incremental DPLL(T) state).
    pub conflicts_learned: usize,
    /// Persisted theory conflicts replayed into a later query that shared
    /// the conflict's atoms — each replay pre-prunes every boolean model
    /// that would have re-triggered the same theory conflict.
    pub conflicts_reused: usize,
    /// Duplicate assumption conjuncts dropped by the environment's
    /// assumption extractor before reaching this solver (recorded here so
    /// the counter rides the existing stats plumbing).
    pub assumptions_dropped: usize,
    /// Theory checks served by an already-warm simplex tableau (every
    /// check of a DPLL(T) query after the first, when the incremental
    /// LIA path is on): these reuse the tableau's rows and basis instead
    /// of rebuilding and re-substituting slack rows from scratch.
    pub tableau_warm_starts: usize,
    /// Bound-implication clauses installed between comparison atoms over
    /// the same linear combination but *different* constants (`d ≤ c₁ ⟹
    /// d ≤ c₂` for `c₁ ≤ c₂`, and the lower/exclusivity/totality
    /// variants). Each is a derived bound fact propagated into the SAT
    /// trail by unit propagation, killing boolean models — and whole
    /// candidate families — without an LIA call.
    pub bounds_propagated: usize,
    /// MUS enumerations that missed the MUS memo (or ran without one).
    /// Each encodes `background ∧ soft` once and checks every subset
    /// under selector assumptions; that is the enumerator's only path,
    /// with or without incremental LIA.
    pub mus_shared_encodings: usize,
    /// Estimated simplex pivots saved by warm tableau starts, summed
    /// over all queries: per warm check, the query's cold first-solve
    /// pivot count minus the warm check's own, clamped at zero. An
    /// estimate — the baseline is the same query's first solve, not a
    /// from-scratch rerun of each check.
    pub lia_pivots_saved: usize,
}

/// The SMT solver facade.
///
/// Results are memoized per formula: liquid type checking re-issues the
/// same verification conditions many times while the synthesizer
/// backtracks, so the cache removes most of the redundant work (the cache
/// is sound because queries are self-contained formulas with no
/// incremental assertions).
#[derive(Debug)]
pub struct Smt {
    stats: SmtStats,
    cache: std::collections::HashMap<Term, SmtResult>,
    /// The session's validity cache (see [`SharedValidityCache`]):
    /// consulted after the local memo, keyed by normalized
    /// `(antecedent, consequent)` pairs. `None` for a bare solver.
    shared: Option<SharedValidityCache>,
    /// Polled at every DPLL(T) step and, through the LIA, at every
    /// branch-and-bound node; once exhausted, queries answer
    /// [`SmtResult::Unknown`].
    budget: Budget,
    /// True when the *last* query aborted because the budget ran out —
    /// its `Unknown` reflects the budget, not the formula, and must never
    /// be cached.
    interrupted: bool,
    /// The incremental DPLL(T) state persisted across `check_query`
    /// calls: theory conflicts learned in one query, replayed into every
    /// later query that contains the conflict's atoms, next to the
    /// lemmas of the session's seed. `None` disables persistence (the
    /// from-scratch baseline the parity tests compare against).
    lemmas: Option<SolverLemmas>,
    /// When true (the default), each DPLL(T) query keeps one warm
    /// [`IncrementalLia`] tableau across all of its theory checks
    /// (including core shrinking and MUS subset oracles). When false,
    /// every theory check builds a fresh tableau — the
    /// `without_incremental_lia` ablation baseline.
    incremental_lia: bool,
    /// Memoized MUS enumerations (see [`crate::mus::enumerate_mus_smt`]):
    /// the liquid-abduction loop re-derives the *same* strengthening
    /// problem for every candidate program that shares a VC skeleton, so
    /// the full MARCO enumeration — dozens of subset oracle calls plus
    /// their bookkeeping — repeats verbatim. A private memo for a bare
    /// solver, the session's for one built by
    /// [`with_session`](Smt::with_session). Disabled together with the
    /// theory lemmas.
    mus_memo: Option<MusMemo>,
}

impl Default for Smt {
    fn default() -> Smt {
        Smt::new()
    }
}

impl Smt {
    /// Creates a bare solver: private lemmas and MUS memo, no validity
    /// cache, and a [`Budget`] that never runs out.
    pub fn new() -> Smt {
        Smt {
            stats: SmtStats::default(),
            cache: std::collections::HashMap::new(),
            shared: None,
            budget: Budget::default(),
            interrupted: false,
            lemmas: Some(SolverLemmas::default()),
            incremental_lia: true,
            mus_memo: Some(MusMemo::new()),
        }
    }

    /// Creates a solver on a session's caches: it consults and feeds the
    /// validity cache and the MUS memo, replays the lemmas of `seed` (a
    /// frozen copy of `store`) and publishes fresh conflicts to `store`.
    /// [`set_incremental(false)`](Smt::set_incremental) detaches the
    /// seed, the store and the memo: ablated runs must neither benefit
    /// from nor feed them.
    pub fn with_session(
        validity: SharedValidityCache,
        mus: MusMemo,
        seed: LemmaSeed,
        store: SharedLemmaStore,
    ) -> Smt {
        Smt {
            shared: Some(validity),
            lemmas: Some(SolverLemmas::new(seed, Some(store))),
            mus_memo: Some(mus),
            ..Smt::new()
        }
    }

    /// The MUS memo this solver reads and writes; `None` when
    /// incrementality is disabled.
    pub fn mus_memo(&self) -> Option<&MusMemo> {
        self.mus_memo.as_ref()
    }

    /// Sets the budget polled inside the solving loops. A query running
    /// when it runs out aborts with [`SmtResult::Unknown`]; callers treat
    /// that as "possibly sat", which can only make proofs fail, never
    /// succeed spuriously.
    pub fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
    }

    /// Enables or disables the incremental DPLL(T) state: cross-query
    /// theory-conflict persistence, the session's lemmas and the MUS
    /// memo. Enabled by default. Enabling keeps whatever the solver
    /// already has; disabling drops all of it, giving the from-scratch
    /// behaviour.
    pub fn set_incremental(&mut self, incremental: bool) {
        if incremental {
            self.lemmas.get_or_insert_with(SolverLemmas::default);
            self.mus_memo.get_or_insert_with(MusMemo::new);
        } else {
            self.lemmas = None;
            self.mus_memo = None;
        }
    }

    /// Enables or disables the warm incremental-LIA tableau (on by
    /// default). Disabling gives the from-scratch per-check baseline the
    /// `without_incremental_lia` ablation and the differential fuzz
    /// oracle compare against; verdicts are unaffected either way.
    pub fn set_incremental_lia(&mut self, incremental: bool) {
        self.incremental_lia = incremental;
    }

    /// Statistics collected so far.
    pub fn stats(&self) -> SmtStats {
        self.stats
    }

    /// Records duplicate assumption conjuncts dropped upstream (by the
    /// typing environment's assumption extractor) so the counter reaches
    /// reports through the existing stats plumbing.
    pub fn add_assumptions_dropped(&mut self, n: usize) {
        self.stats.assumptions_dropped += n;
    }

    /// Checks whether `formula` is satisfiable.
    pub fn check_sat(&mut self, formula: &Term) -> SmtResult {
        self.check_sat_conj(std::slice::from_ref(formula))
    }

    /// Checks whether the conjunction of `formulas` is satisfiable.
    ///
    /// The formulas are conjoined *before* encoding so that the finite
    /// universe used by set elimination covers element terms and witnesses
    /// from every conjunct (this matters for entailments whose premise
    /// contains positive set equalities).
    pub fn check_sat_conj(&mut self, formulas: &[Term]) -> SmtResult {
        let conj = Term::conjunction(formulas.iter().cloned());
        // A plain satisfiability check is the degenerate validity query
        // with consequent `false`: sat(f) is the complement of
        // valid(f ⇒ false).
        self.check_query(conj, Term::ff())
    }

    /// Checks whether `formula` is valid (true in all models).
    pub fn is_valid(&mut self, formula: &Term) -> bool {
        matches!(
            self.check_query(Term::tt(), formula.clone()),
            SmtResult::Unsat
        )
    }

    /// Checks whether `premise ⇒ conclusion` is valid.
    pub fn entails(&mut self, premise: &Term, conclusion: &Term) -> bool {
        matches!(
            self.check_query(premise.clone(), conclusion.clone()),
            SmtResult::Unsat
        )
    }

    /// The single query funnel: solves `sat(antecedent ∧ ¬consequent)`
    /// through the local memo and the shared validity cache. Every public
    /// query entry point reduces to this, so all of them share both
    /// cache layers under consistent `(antecedent, consequent)` keys.
    ///
    /// When the event sink is open, queries slower than 25 ms are
    /// captured with their formulas (`smt_query` events — the raw
    /// material solver-benchmark fixtures are transcribed from).
    fn check_query(&mut self, antecedent: Term, consequent: Term) -> SmtResult {
        let capture = events::events_enabled().then(Instant::now);
        let result = self.check_query_inner(&antecedent, &consequent);
        if let Some(started) = capture {
            let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
            if elapsed_ms >= 25.0 {
                events::emit(|| {
                    Event::new("smt_query")
                        .f64("elapsed_ms", elapsed_ms)
                        .str("result", format!("{result:?}"))
                        .str("antecedent", antecedent.to_string())
                        .str("consequent", consequent.to_string())
                });
            }
        }
        result
    }

    fn check_query_inner(&mut self, antecedent: &Term, consequent: &Term) -> SmtResult {
        self.stats.queries += 1;
        self.interrupted = false;
        let formula = if consequent.is_false() {
            antecedent.clone()
        } else {
            antecedent.clone().and(consequent.clone().not())
        };
        let cache_span = synquid_telemetry::span(Phase::CacheLookup);
        if let Some(cached) = self.cache.get(&formula) {
            self.stats.cache_hits += 1;
            events::emit(|| Event::new("cache_hit").str("layer", "local"));
            return *cached;
        }
        // Normalize once, outside the cache's lock, and reuse the
        // normalized pair for both the lookup and the insert.
        let query = self
            .shared
            .as_ref()
            .map(|_| SharedValidityCache::normalize(antecedent, consequent));
        if let (Some(shared), Some(query)) = (&self.shared, &query) {
            if let Some(cached) = shared.lookup_normalized(query) {
                self.stats.shared_hits += 1;
                if self.cache.len() < 200_000 {
                    self.cache.insert(formula, cached);
                }
                events::emit(|| Event::new("cache_hit").str("layer", "shared"));
                return cached;
            }
            self.stats.shared_misses += 1;
            events::emit(|| Event::new("cache_miss").str("layer", "shared"));
        }
        drop(cache_span);
        // Out of budget: answer `Unknown` without solving or caching (the
        // verdict reflects the budget, not the formula).
        if self.budget.exhausted() {
            self.interrupted = true;
            return SmtResult::Unknown;
        }
        let problem = {
            let _encode_span = synquid_telemetry::span(Phase::Encode);
            let mut encoder = Encoder::new();
            let skeleton = encoder.encode(&formula);
            encoder.finish(skeleton)
        };
        let result = self.solve_encoded(&problem, &[]);
        if self.interrupted {
            return result;
        }
        let _cache_span = synquid_telemetry::span(Phase::CacheLookup);
        if self.cache.len() < 200_000 {
            self.cache.insert(formula, result);
        }
        // `Sat`/`Unsat` are pure functions of the formula and safe to
        // share. A budget `Unknown` (DPLL(T) iteration or LIA branch
        // limit) is *not*: whether those limits are hit depends on this
        // instance's accumulated lemma store, so publishing it would make
        // other goals' verdicts depend on which worker got there first.
        // The instance-local cache may keep it — a single instance's
        // lemma store grows along one deterministic execution.
        if !matches!(result, SmtResult::Unknown) {
            if let (Some(shared), Some(query)) = (&self.shared, &query) {
                shared.insert_normalized(query, result);
            }
        }
        result
    }

    /// Low-level entry point: checks the conjunction of already-encoded
    /// skeletons. Builds a one-shot [`EncodedSession`] and solves it with
    /// no assumptions; the MUS enumerator instead keeps its session alive
    /// across subset checks (see [`Smt::begin_session`]).
    pub(crate) fn solve_encoded(&mut self, problem: &Encoded, roots: &[Skeleton]) -> SmtResult {
        // Trivial short-circuit.
        if roots.iter().any(|r| matches!(r, Skeleton::False)) {
            return SmtResult::Unsat;
        }
        let mut session = self.begin_session(problem, roots);
        self.solve_session(&mut session, problem, &[])
    }

    /// Builds a reusable DPLL(T) session for one encoded problem: the SAT
    /// solver loaded with the skeletons, side conditions, bound-
    /// implication axioms and replayed lemmas, plus (when the incremental
    /// LIA path is on) one warm simplex tableau that will serve *every*
    /// theory check issued through this session — main-loop checks, core
    /// shrinking, and MUS subset oracles alike.
    pub(crate) fn begin_session(
        &mut self,
        problem: &Encoded,
        roots: &[Skeleton],
    ) -> EncodedSession {
        // Session set-up is part of turning a formula into CNF: Tseitin
        // clauses, bound axioms and lemma replay are charged to `Encode`.
        let _encode_span = synquid_telemetry::span(Phase::Encode);
        let mut sat = SatSolver::new();
        // One SAT variable per theory atom, allocated up front so atom index
        // and SAT variable coincide.
        sat.reserve_vars(problem.atoms.len());
        let mut tseitin = Tseitin { sat: &mut sat };
        for root in roots
            .iter()
            .chain(std::iter::once(&problem.skeleton))
            .chain(problem.side_conditions.iter())
        {
            tseitin.assert_root(root);
        }
        // Eagerly assert the bound-implication lattice between comparison
        // atoms over the same linear combination (same or different
        // constants: x ≤ y vs x > y, x ≤ 3 vs x ≤ 5, …). Without these
        // lemmas the SAT solver proposes many boolean models that differ
        // only in mutually inconsistent comparisons, each of which costs
        // a theory conflict; with them, most such models are pruned
        // propositionally, and a bound proved for one atom propagates to
        // every weaker atom over the same combination by unit propagation.
        let (axioms, cross_bound) = bound_axioms(problem);
        self.stats.bounds_propagated += cross_bound;
        for clause in axioms {
            sat.add_clause(clause);
        }

        // Replay persisted theory conflicts whose atoms all occur in this
        // problem: each replayed lemma is asserted as a blocking clause up
        // front, pruning every boolean model that would have re-derived
        // the same conflict through a SAT + LIA round trip.
        let atom_keys = match &mut self.lemmas {
            Some(lemmas) => {
                let (atom_keys, replayed) = lemmas.replay(problem);
                self.stats.conflicts_reused += replayed.len();
                if !replayed.is_empty() {
                    events::emit(|| Event::new("lemma_replay").uint("n", replayed.len() as u64));
                }
                for clause in replayed {
                    sat.add_clause(clause);
                }
                atom_keys
            }
            None => Vec::new(),
        };

        EncodedSession {
            sat,
            lia: self
                .incremental_lia
                .then(|| IncrementalLia::new(problem.num_arith_vars, self.budget.clone())),
            atom_keys,
        }
    }

    /// One theory check through the session's LIA backend: the warm
    /// tableau when the incremental path is on, a fresh one otherwise.
    fn theory_check(
        &self,
        session: &mut EncodedSession,
        num_arith_vars: usize,
        constraints: &[&Constraint],
    ) -> LiaResult {
        match &mut session.lia {
            Some(inc) => inc.check(constraints),
            None => IncrementalLia::new(num_arith_vars, self.budget.clone()).check(constraints),
        }
    }

    /// Runs the DPLL(T) loop of a session under the given assumption
    /// literals. `Unsat` means the problem plus assumptions is
    /// unsatisfiable. Sound to call repeatedly with different assumption
    /// sets: everything the loop adds to the session — theory blocking
    /// clauses, learned lemmas, CDCL-learned clauses — is implied by the
    /// encoded problem alone, never by the assumptions.
    pub(crate) fn solve_session(
        &mut self,
        session: &mut EncodedSession,
        problem: &Encoded,
        assumptions: &[Lit],
    ) -> SmtResult {
        let warm_before = session
            .lia
            .as_ref()
            .map(|l| (l.warm_checks(), l.pivots_saved()));
        let result = self.solve_session_inner(session, problem, assumptions);
        if let (Some(inc), Some((w0, p0))) = (&session.lia, warm_before) {
            self.stats.tableau_warm_starts += (inc.warm_checks() - w0) as usize;
            self.stats.lia_pivots_saved += (inc.pivots_saved() - p0) as usize;
        }
        result
    }

    fn solve_session_inner(
        &mut self,
        session: &mut EncodedSession,
        problem: &Encoded,
        assumptions: &[Lit],
    ) -> SmtResult {
        self.interrupted = false;
        for _ in 0..MAX_DPLL_ITERATIONS {
            if self.budget.exhausted() {
                self.interrupted = true;
                return SmtResult::Unknown;
            }
            self.stats.sat_calls += 1;
            let model = {
                let _sat_span = synquid_telemetry::span(Phase::Sat);
                match session.sat.solve_with_assumptions(assumptions) {
                    SatResult::Unsat => return SmtResult::Unsat,
                    SatResult::Sat(model) => model,
                }
            };
            self.stats.theory_calls += 1;
            let (literals, verdict) = {
                // The `Lia` phase counts the literal collection and the
                // first theory check of each DPLL(T) iteration; theory
                // checks issued while shrinking a conflict are
                // attributed to `CoreShrink` below.
                let _lia_span = synquid_telemetry::span(Phase::Lia);
                // Collect the arithmetic literals implied by the boolean model.
                let mut literals: Vec<(usize, bool, &Constraint)> = Vec::new();
                for idx in 0..problem.atoms.len() {
                    let value = model.get(idx).copied().unwrap_or(false);
                    if let Some(c) = problem.atom_constraint(idx, value) {
                        literals.push((idx, value, c));
                    }
                }
                let constraints: Vec<&Constraint> = literals.iter().map(|&(_, _, c)| c).collect();
                let verdict = self.theory_check(session, problem.num_arith_vars, &constraints);
                (literals, verdict)
            };
            match verdict {
                LiaResult::Sat(_) => return SmtResult::Sat,
                LiaResult::Unknown => {
                    // A branch-limit `Unknown` is a deterministic verdict
                    // and may be cached; one caused by the run's budget
                    // must not be (the warm tableau poisons itself then).
                    if self.budget.exhausted() {
                        self.interrupted = true;
                    }
                    return SmtResult::Unknown;
                }
                LiaResult::Unsat => {
                    if literals.is_empty() {
                        return SmtResult::Unsat;
                    }
                    // Shrink the conflicting literal set to a small core by
                    // chunked deletion so the blocking clause prunes many
                    // boolean models at once. Whole blocks are dropped
                    // first, halving the block size on failure, so a core
                    // of size k hiding in n literals costs O(k log n)
                    // theory checks instead of the O(n) of one-at-a-time
                    // deletion — on measure-heavy synthesis queries the
                    // conflict sets run to dozens of literals, and this
                    // shrink loop dominates query time. Every shrink check
                    // runs against the same warm tableau.
                    // The whole shrink (including its theory checks) is
                    // one `CoreShrink` span — matching how solver cost
                    // was profiled by hand before this instrumentation.
                    let _shrink_span = synquid_telemetry::span(Phase::CoreShrink);
                    let mut core = literals;
                    let mut block = core.len().div_ceil(2);
                    // One probe buffer serves every shrink check: the core
                    // minus the block under test, in core order.
                    let mut probe: Vec<&Constraint> = Vec::with_capacity(core.len());
                    loop {
                        if self.budget.exhausted() {
                            self.interrupted = true;
                            return SmtResult::Unknown;
                        }
                        let mut i = 0;
                        while i < core.len() {
                            // Each pass issues up to `core.len()` LIA
                            // checks; poll between them, not just per
                            // pass, so the budget overshoot stays
                            // bounded by one check.
                            if self.budget.exhausted() {
                                self.interrupted = true;
                                return SmtResult::Unknown;
                            }
                            let end = (i + block).min(core.len());
                            probe.clear();
                            probe.extend(core[..i].iter().chain(&core[end..]).map(|&(_, _, c)| c));
                            self.stats.theory_calls += 1;
                            if matches!(
                                self.theory_check(session, problem.num_arith_vars, &probe),
                                LiaResult::Unsat
                            ) {
                                core.drain(i..end);
                            } else {
                                i = end;
                            }
                        }
                        if block == 1 {
                            break;
                        }
                        block = block.div_ceil(2);
                    }
                    // Persist the shrunk conflict for later queries: the
                    // core's atoms at these polarities are jointly
                    // LIA-inconsistent whatever boolean skeleton
                    // surrounds them.
                    if let Some(lemmas) = &mut self.lemmas {
                        let lemma: Option<Vec<(u32, bool)>> = core
                            .iter()
                            .map(|&(idx, value, _)| {
                                session
                                    .atom_keys
                                    .get(idx)
                                    .copied()
                                    .flatten()
                                    .map(|k| (k, value))
                            })
                            .collect();
                        if lemma.is_some_and(|lemma| lemmas.learn(lemma)) {
                            self.stats.conflicts_learned += 1;
                            events::emit(|| {
                                Event::new("lemma_learn").uint("size", core.len() as u64)
                            });
                        }
                    }
                    let blocking: Vec<Lit> = core
                        .iter()
                        .map(|(idx, value, _)| Lit::new(*idx, !*value))
                        .collect();
                    if blocking.is_empty() {
                        return SmtResult::Unsat;
                    }
                    session.sat.add_clause(blocking);
                }
            }
        }
        SmtResult::Unknown
    }

    /// Bumps the shared-MUS-encoding counter (called by the enumerator
    /// once per enumeration that builds a shared session).
    pub(crate) fn note_mus_shared_encoding(&mut self) {
        self.stats.mus_shared_encodings += 1;
    }
}

/// A reusable DPLL(T) session over one encoded problem: the loaded SAT
/// solver, the warm LIA tableau (when the incremental path is on), and
/// the key id of each atom for lemma learning. Created by
/// [`Smt::begin_session`], solved (repeatedly, under varying assumption
/// sets) by [`Smt::solve_session`].
#[derive(Debug)]
pub(crate) struct EncodedSession {
    sat: SatSolver,
    /// `Some` = warm tableau shared by every theory check of the session;
    /// `None` = from-scratch per check (the ablation baseline).
    lia: Option<IncrementalLia>,
    /// Each atom's portable key, numbered by the solver's lemmas; `None`
    /// for an opaque atom, and empty when lemmas are off.
    atom_keys: Vec<Option<u32>>,
}

impl EncodedSession {
    /// Registers a skeleton as *selectable*: returns a selector literal
    /// that, when assumed true, enforces the skeleton (one-sided — the
    /// selector left free or false enforces nothing). This is how the MUS
    /// enumerator activates soft-constraint subsets against one shared
    /// encoding instead of re-encoding each subset.
    pub(crate) fn add_selectable(&mut self, skeleton: &Skeleton) -> Lit {
        let selector = self.sat.new_var();
        let lit = Tseitin { sat: &mut self.sat }.literal_for(skeleton);
        self.sat.add_clause(vec![Lit::neg(selector), lit]);
        Lit::pos(selector)
    }
}

/// A comparison atom normalized to a one-sided bound over a canonical
/// linear combination: `combo ≤ bound` when `upper`, `combo ≥ bound`
/// otherwise, strict or not. The combination is sign- and
/// scale-canonicalized (leading coefficient 1), so `x - y ≤ 0`,
/// `y ≥ x`, and `2x - 2y < 4` all land in the same group and become
/// propositionally comparable by bound alone.
#[derive(Debug, Clone, Copy)]
struct NormAtom {
    idx: usize,
    upper: bool,
    strict: bool,
    bound: Rational,
}

/// True when normalized atom `a` implies normalized atom `b`, both bounds
/// in the *same* direction over the same combination: a tighter (or
/// equally tight, no-weaker-strictness) bound implies a looser one. The
/// rule is valid over the rationals, hence also over the integers.
fn bound_implies(a: &NormAtom, b: &NormAtom) -> bool {
    let tighter = if a.upper {
        a.bound < b.bound
    } else {
        a.bound > b.bound
    };
    tighter || (a.bound == b.bound && (a.strict || !b.strict))
}

/// Above this many atoms over one linear combination, only same-bound
/// pairs are related, keeping the axiom count from going quadratic on
/// pathological queries. Synthesis queries stay far below this.
const MAX_CROSS_BOUND_GROUP: usize = 64;

/// Propositional bound-implication lemmas between comparison atoms over
/// the same canonical linear combination — the theory-propagation layer.
/// Subsumes the old same-difference total-order axioms (complementary,
/// equivalent, strict→non-strict, totality, exclusivity pairs) and adds
/// *cross-constant* propagation: once the SAT trail fixes `x ≤ 3`, unit
/// propagation immediately derives `x ≤ 5`, `¬(x ≥ 4)`, … without a
/// theory call. Returns the clauses plus the number of cross-constant
/// clauses (the `bounds_propagated` statistic).
fn bound_axioms(problem: &Encoded) -> (Vec<Vec<Lit>>, usize) {
    let mut groups: std::collections::BTreeMap<Vec<(crate::lia::VarId, Rational)>, Vec<NormAtom>> =
        std::collections::BTreeMap::new();
    for (idx, atom) in problem.atoms.iter().enumerate() {
        let TheoryAtom::Compare(c) = atom else {
            continue;
        };
        // Ground comparisons have no combination; the encoder folds them.
        let Some(&lead) = c.diff.coeffs.values().next() else {
            continue;
        };
        // `diff ⋈ 0` is `Σ cᵢxᵢ ⋈ -k`. Dividing by the leading coefficient
        // makes it 1; a negative leading coefficient flips the direction.
        let scale = lead.recip();
        let combo = c
            .diff
            .coeffs
            .iter()
            .map(|(v, k)| (*v, *k * scale))
            .collect();
        groups.entry(combo).or_default().push(NormAtom {
            idx,
            upper: c.upper != lead.is_negative(),
            strict: c.strict,
            bound: -c.diff.constant * scale,
        });
    }
    let mut clauses: Vec<Vec<Lit>> = Vec::new();
    let mut cross_bound = 0usize;
    let pos = |n: &NormAtom| Lit::new(n.idx, true);
    let neg = |n: &NormAtom| Lit::new(n.idx, false);
    for group in groups.values() {
        let same_bound_only = group.len() > MAX_CROSS_BOUND_GROUP;
        for i in 0..group.len() {
            for j in (i + 1)..group.len() {
                let (a, b) = (&group[i], &group[j]);
                let cross = a.bound != b.bound;
                if cross && same_bound_only {
                    continue;
                }
                let before = clauses.len();
                if a.upper == b.upper {
                    // Same direction: tighter bound implies looser bound.
                    if bound_implies(a, b) {
                        clauses.push(vec![neg(a), pos(b)]);
                    }
                    if bound_implies(b, a) {
                        clauses.push(vec![neg(b), pos(a)]);
                    }
                } else {
                    let (u, l) = if a.upper { (a, b) } else { (b, a) };
                    // Exclusivity: `combo ≤ b_u` and `combo ≥ b_l` cannot
                    // both hold when the window [b_l, b_u] is empty.
                    if l.bound > u.bound || (l.bound == u.bound && (u.strict || l.strict)) {
                        clauses.push(vec![neg(u), neg(l)]);
                    }
                    // Totality: one of them must hold when together they
                    // cover the whole line (¬upper ⟹ lower).
                    if u.bound > l.bound || (u.bound == l.bound && (!u.strict || !l.strict)) {
                        clauses.push(vec![pos(u), pos(l)]);
                    }
                }
                if cross {
                    cross_bound += clauses.len() - before;
                }
            }
        }
    }
    (clauses, cross_bound)
}

/// Tseitin-style CNF conversion of skeletons into the SAT solver.
///
/// Theory atoms keep their index as SAT variable; internal `And`/`Or`
/// nodes receive fresh auxiliary variables. Since skeletons are in
/// negation normal form, one-sided (Plaisted–Greenbaum) encoding is
/// sufficient.
struct Tseitin<'a> {
    sat: &'a mut SatSolver,
}

impl<'a> Tseitin<'a> {
    fn assert_root(&mut self, s: &Skeleton) {
        match s {
            Skeleton::True => {}
            Skeleton::False => self.sat.add_clause(vec![]),
            Skeleton::Lit(a, p) => self.sat.add_clause(vec![Lit::new(*a, *p)]),
            Skeleton::And(items) => {
                for i in items {
                    self.assert_root(i);
                }
            }
            Skeleton::Or(items) => {
                let lits: Vec<Lit> = items.iter().map(|i| self.literal_for(i)).collect();
                self.sat.add_clause(lits);
            }
        }
    }

    /// Returns a literal equivalent (one-sided) to the sub-skeleton.
    fn literal_for(&mut self, s: &Skeleton) -> Lit {
        match s {
            Skeleton::True => {
                let v = self.sat.new_var();
                self.sat.add_clause(vec![Lit::pos(v)]);
                Lit::pos(v)
            }
            Skeleton::False => {
                let v = self.sat.new_var();
                self.sat.add_clause(vec![Lit::neg(v)]);
                Lit::pos(v)
            }
            Skeleton::Lit(a, p) => Lit::new(*a, *p),
            Skeleton::And(items) => {
                let v = self.sat.new_var();
                let lv = Lit::pos(v);
                for i in items {
                    let li = self.literal_for(i);
                    // v -> li
                    self.sat.add_clause(vec![lv.negate(), li]);
                }
                lv
            }
            Skeleton::Or(items) => {
                let v = self.sat.new_var();
                let lv = Lit::pos(v);
                let mut clause = vec![lv.negate()];
                for i in items {
                    clause.push(self.literal_for(i));
                }
                // v -> (l1 ∨ ... ∨ ln)
                self.sat.add_clause(clause);
                lv
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synquid_logic::{Sort, Term};

    fn x() -> Term {
        Term::var("x", Sort::Int)
    }
    fn y() -> Term {
        Term::var("y", Sort::Int)
    }
    fn n() -> Term {
        Term::var("n", Sort::Int)
    }

    #[test]
    fn tautologies_are_valid() {
        let mut smt = Smt::new();
        assert!(smt.is_valid(&Term::tt()));
        assert!(smt.is_valid(&x().le(y()).or(x().gt(y()))));
        assert!(smt.is_valid(&x().eq(x())));
        assert!(!smt.is_valid(&x().le(y())));
    }

    #[test]
    fn linear_arithmetic_entailment() {
        let mut smt = Smt::new();
        // 0 <= n ∧ n <= 0  ⇒  n == 0
        let premise = Term::int(0).le(n()).and(n().le(Term::int(0)));
        assert!(smt.entails(&premise, &n().eq(Term::int(0))));
        assert!(!smt.entails(&premise, &n().eq(Term::int(1))));
    }

    #[test]
    fn replicate_nil_branch_vc() {
        // 0 <= n ∧ n <= 0 ∧ len ν = 0  ⇒  len ν = n
        let list = Sort::data("List", vec![Sort::var("a")]);
        let len_v = Term::app("len", vec![Term::value_var(list)], Sort::Int);
        let mut smt = Smt::new();
        let premise = Term::int(0)
            .le(n())
            .and(n().le(Term::int(0)))
            .and(len_v.clone().eq(Term::int(0)));
        assert!(smt.entails(&premise, &len_v.clone().eq(n())));
        // Without the branch condition n <= 0 the entailment fails.
        let premise_weak = Term::int(0).le(n()).and(len_v.clone().eq(Term::int(0)));
        assert!(!smt.entails(&premise_weak, &len_v.eq(n())));
    }

    #[test]
    fn set_reasoning_union_singleton() {
        // keys ν = keys t + [x]  ⇒  keys t <= keys ν  (subset)
        let elem = Sort::var("a");
        let keys_v = Term::var("kv", Sort::set(elem.clone()));
        let keys_t = Term::var("kt", Sort::set(elem.clone()));
        let xvar = Term::var("x", elem.clone());
        let premise = keys_v.clone().eq(keys_t
            .clone()
            .union(Term::singleton(elem.clone(), xvar.clone())));
        let mut smt = Smt::new();
        assert!(smt.entails(&premise, &keys_t.clone().subset(keys_v.clone())));
        assert!(smt.entails(&premise, &xvar.clone().member(keys_v.clone())));
        // But not the converse subset (ν may contain x which t lacks) —
        // indeed keys ν ⊆ keys t is not entailed.
        assert!(!smt.entails(&premise, &keys_v.subset(keys_t)));
    }

    #[test]
    fn set_equality_is_reflexive_and_compositional() {
        let elem = Sort::Int;
        let s1 = Term::var("s1", Sort::set(elem.clone()));
        let s2 = Term::var("s2", Sort::set(elem.clone()));
        let s3 = Term::var("s3", Sort::set(elem.clone()));
        let mut smt = Smt::new();
        // s1 = s2 ∧ s2 = s3 ⇒ s1 = s3 (needs witnesses to flow through
        // positive equalities).
        let premise = s1.clone().eq(s2.clone()).and(s2.clone().eq(s3.clone()));
        assert!(smt.entails(&premise, &s1.clone().eq(s3.clone())));
        assert!(!smt.entails(&premise, &s1.clone().eq(Term::empty_set(elem))));
        // Union is commutative.
        let u12 = s1.clone().union(s2.clone());
        let u21 = s2.clone().union(s1.clone());
        assert!(smt.is_valid(&u12.eq(u21)));
    }

    #[test]
    fn uninterpreted_functions_respect_congruence() {
        let a = Term::var("a", Sort::Int);
        let b = Term::var("b", Sort::Int);
        let fa = Term::app("f", vec![a.clone()], Sort::Int);
        let fb = Term::app("f", vec![b.clone()], Sort::Int);
        let mut smt = Smt::new();
        assert!(smt.entails(&a.clone().eq(b.clone()), &fa.clone().eq(fb.clone())));
        assert!(!smt.entails(&a.le(b), &fa.eq(fb)));
    }

    #[test]
    fn boolean_structure_with_ite() {
        let mut smt = Smt::new();
        let t = Term::ite(x().le(y()), x(), y()).le(x());
        // min(x, y) <= x is valid.
        assert!(smt.is_valid(&t));
        let t = Term::ite(x().le(y()), x(), y()).ge(x());
        assert!(!smt.is_valid(&t));
    }

    #[test]
    fn entailment_with_measures_and_arithmetic() {
        // len xs = 2 ∧ len r >= 0 ∧ len ν = len xs + len r ⇒ len ν >= 2
        let list = Sort::data("List", vec![Sort::Int]);
        let len = |t: Term| Term::app("len", vec![t], Sort::Int);
        let xs = Term::var("xs", list.clone());
        let r = Term::var("r", list.clone());
        let v = Term::value_var(list);
        let premise = len(xs.clone())
            .eq(Term::int(2))
            .and(len(r.clone()).ge(Term::int(0)))
            .and(len(v.clone()).eq(len(xs).plus(len(r))));
        let mut smt = Smt::new();
        assert!(smt.entails(&premise, &len(v.clone()).ge(Term::int(2))));
        assert!(!smt.entails(&premise, &len(v).eq(Term::int(2))));
    }

    #[test]
    fn unsat_conjunction_detected() {
        let mut smt = Smt::new();
        let c = x().lt(y()).and(y().lt(x()));
        assert_eq!(smt.check_sat(&c), SmtResult::Unsat);
        let c = x().lt(y()).and(y().lt(x().plus(Term::int(2))));
        assert_eq!(smt.check_sat(&c), SmtResult::Sat);
    }

    /// A solver on `cache` with an otherwise empty session.
    fn on_cache(cache: &SharedValidityCache) -> Smt {
        Smt::with_session(
            cache.clone(),
            MusMemo::new(),
            LemmaSeed::default(),
            SharedLemmaStore::new(),
        )
    }

    #[test]
    fn shared_cache_is_reused_across_instances() {
        let cache = SharedValidityCache::new();
        let mut first = on_cache(&cache);
        assert!(first.entails(&x().lt(y()), &x().le(y())));
        assert_eq!(first.stats().shared_hits, 0);
        assert_eq!(first.stats().shared_misses, 1);
        // A second instance (as used by a sibling worker thread) answers
        // the same entailment from the shared table without solving.
        let mut second = on_cache(&cache);
        let sat_calls_before = second.stats().sat_calls;
        assert!(second.entails(&x().lt(y()), &x().le(y())));
        assert_eq!(second.stats().sat_calls, sat_calls_before);
        assert_eq!(second.stats().shared_hits, 1);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.negative_hits), (1, 1));
        assert!(stats.entries >= 1);
    }

    #[test]
    fn shared_cache_caches_positive_results_too() {
        let cache = SharedValidityCache::new();
        let mut first = on_cache(&cache);
        assert!(!first.entails(&x().le(y()), &x().eq(y())));
        let mut second = on_cache(&cache);
        assert!(!second.entails(&x().le(y()), &x().eq(y())));
        assert_eq!(second.stats().shared_hits, 1);
        assert_eq!(cache.stats().negative_hits, 0);
    }

    #[test]
    fn a_later_solver_replays_lemmas_from_the_seed_of_the_store() {
        let z = Term::var("z", Sort::Int);
        let cycle = x().lt(y()).and(y().lt(z.clone())).and(z.lt(x()));
        let store = SharedLemmaStore::new();
        let mut first = Smt::with_session(
            SharedValidityCache::new(),
            MusMemo::new(),
            LemmaSeed::default(),
            store.clone(),
        );
        assert_eq!(first.check_sat(&cycle), SmtResult::Unsat);
        assert!(first.stats().conflicts_learned > 0);
        assert_eq!(store.stats().absorbed, first.stats().conflicts_learned);
        // A solver of a later batch: a fresh validity cache, so the
        // query is solved again, over the seed frozen from the store.
        let mut second = Smt::with_session(
            SharedValidityCache::new(),
            MusMemo::new(),
            store.seed(),
            store.clone(),
        );
        assert_eq!(second.check_sat(&cycle), SmtResult::Unsat);
        assert!(second.stats().conflicts_reused > 0);
        assert_eq!(second.stats().conflicts_learned, 0);
    }

    #[test]
    fn a_key_shared_by_two_atoms_replays_one_clause() {
        let z = || Term::var("z", Sort::Int);
        let mut smt = Smt::new();
        let cycle = x().lt(y()).and(y().lt(z())).and(z().lt(x()));
        assert_eq!(smt.check_sat(&cycle), SmtResult::Unsat);
        assert_eq!(smt.stats().conflicts_learned, 1);
        // `x < y` and `y > x` encode as atoms 0 and 1, which share one
        // portable key: the lemma binds to the first, once.
        let twin = x()
            .lt(y())
            .and(y().gt(x()))
            .and(y().lt(z()))
            .and(z().lt(x()));
        let problem = {
            let mut encoder = Encoder::new();
            let skeleton = encoder.encode(&twin);
            encoder.finish(skeleton)
        };
        let lemmas = smt.lemmas.as_mut().expect("lemmas are on");
        let (keys, clauses) = lemmas.replay(&problem);
        assert!(keys[0].is_some() && keys[0] == keys[1]);
        assert_eq!(clauses.len(), 1);
        let atoms: Vec<usize> = clauses[0].iter().map(|lit| lit.var()).collect();
        assert!(atoms.contains(&0) && !atoms.contains(&1), "{atoms:?}");
        let before = smt.stats();
        assert_eq!(smt.check_sat(&twin), SmtResult::Unsat);
        let after = smt.stats();
        assert_eq!(after.conflicts_reused, before.conflicts_reused + 1);
        assert_eq!(after.conflicts_learned, before.conflicts_learned);
    }

    #[test]
    fn stats_are_accumulated() {
        let mut smt = Smt::new();
        let _ = smt.check_sat(&x().le(y()));
        let _ = smt.check_sat(&x().gt(y()));
        assert_eq!(smt.stats().queries, 2);
        assert!(smt.stats().sat_calls >= 2);
    }
}
