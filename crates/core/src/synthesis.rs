//! The synthesis procedure (Sec. 3.7), built on round-trip type checking.
//!
//! Given a goal schema, the synthesizer introduces a fixpoint (with a
//! termination-weakened recursive binding), type abstractions, and lambda
//! abstractions, then enumerates well-typed E-terms for the scalar body:
//!
//! * every E-term candidate is checked against the goal *as it is built*
//!   (round-trip checking): partial applications are pruned by early
//!   subtyping and consistency checks before their arguments are
//!   synthesized;
//! * a fresh predicate unknown `P0` is conjoined to the path condition
//!   before checking each candidate, so the Horn solver *abduces* the
//!   weakest branch condition under which the candidate is correct
//!   (liquid abduction / rule IF-ABD);
//! * if no branch-free term (or conditional) works, the synthesizer
//!   generates a pattern match on a datatype variable in scope and
//!   recurses into the branches.

use crate::ast::{Case, Program};
use crate::context::SolverContext;
use crate::memo::{shape_key, EnumerationCache, GenerationEntry, ShapedCandidate};
use crate::options::SynthesisConfig;
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use std::time::Instant;
use synquid_horn::StrengthenBackend;
use synquid_logic::{Sort, Substitution, Term};
use synquid_solver::{Budget, Smt};
use synquid_telemetry::{events, events::Event, json::Json, Phase, PhaseProfile};
use synquid_types::{
    is_free_type_var, weaken_for_recursion, BaseType, ConstraintSolver, Environment, RType, Schema,
};

/// Maximum nesting depth of conditionals (the paper imposes no a-priori
/// bound; this is a safety bound well above what any benchmark needs).
const MAX_BRANCH_DEPTH: usize = 3;

/// Maximum application depth when synthesizing branch guards.
const GUARD_DEPTH: usize = 2;

/// Cap on the goal-passing candidates one abduction pass returns.
const MAX_CANDIDATES: usize = 64;

/// Cap on the argument candidates explored per argument position.
const MAX_ARG_CANDIDATES: usize = 24;

/// A synthesis goal: a name, an environment of components, and the goal
/// schema.
#[derive(Debug, Clone)]
pub struct Goal {
    /// Name of the function being synthesized (used for recursive calls).
    pub name: String,
    /// The component environment.
    pub env: Environment,
    /// The goal type schema.
    pub schema: Schema,
}

impl Goal {
    /// Creates a goal.
    pub fn new(name: impl Into<String>, env: Environment, schema: Schema) -> Goal {
        Goal {
            name: name.into(),
            env,
            schema,
        }
    }
}

/// Why synthesis failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SynthesisError {
    /// The search space was exhausted without finding a solution.
    NoSolution(String),
    /// The configured timeout was exceeded (or the run was cancelled)
    /// while synthesizing the named goal.
    Timeout(String),
}

impl SynthesisError {
    /// The goal name a timeout was attributed to, if any. Batch runners
    /// use this to report *which* goal ran out of budget.
    pub fn goal_name(&self) -> Option<&str> {
        match self {
            SynthesisError::Timeout(name) => Some(name),
            SynthesisError::NoSolution(_) => None,
        }
    }
}

impl std::fmt::Display for SynthesisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SynthesisError::NoSolution(goal) => write!(f, "no solution found for goal {goal}"),
            SynthesisError::Timeout(goal) => write!(f, "goal {goal}: synthesis timed out"),
        }
    }
}

impl std::error::Error for SynthesisError {}

/// Statistics collected during one synthesis run.
#[derive(Debug, Clone, Copy, Default)]
pub struct SynthesisStats {
    /// E-term candidates whose types were checked against a goal.
    pub eterms_checked: usize,
    /// Candidate programs produced by goal-blind generation (each
    /// generated candidate is counted once, however often the memo
    /// serves it afterwards).
    pub terms_enumerated: usize,
    /// Candidates and application heads discarded by early round-trip
    /// checks — return-shape filtering during generation and consistency
    /// checking against the goal — before any full subtyping or
    /// abduction work was spent on them.
    pub pruned_early: usize,
    /// Enumeration-memo lookups answered from the cache.
    pub memo_hits: usize,
    /// Enumeration-memo lookups that had to run generation.
    pub memo_misses: usize,
    /// Conditionals created through liquid abduction.
    pub branches_abduced: usize,
    /// Pattern matches generated.
    pub matches_generated: usize,
    /// Validity/satisfiability queries issued to the SMT backend
    /// (including ones answered from either cache layer).
    pub smt_queries: usize,
    /// Queries answered by the instance-local memo.
    pub smt_cache_hits: usize,
    /// Queries answered by the validity cache of the run's
    /// [`SolverContext`] (a fresh one for a standalone run).
    pub shared_cache_hits: usize,
    /// Queries that consulted the shared validity cache and missed.
    pub shared_cache_misses: usize,
    /// Theory conflicts learned by the incremental DPLL(T) backend and
    /// persisted across queries.
    pub smt_conflicts_learned: usize,
    /// Persisted theory conflicts replayed into later queries (each
    /// replay pre-prunes a SAT + LIA round trip the query would
    /// otherwise repeat).
    pub smt_conflicts_reused: usize,
    /// Duplicate assumption conjuncts dropped by the environment's
    /// assumption extractor before encoding.
    pub assumptions_dropped: usize,
    /// Theory checks answered by a warm simplex tableau (bounds pushed
    /// onto an already-built tableau instead of rebuilding it).
    pub tableau_warm_starts: usize,
    /// Cross-constant bound-implication clauses asserted into SAT
    /// skeletons (each lets a derived bound kill related atoms by unit
    /// propagation instead of an LIA call).
    pub bounds_propagated: usize,
    /// MUS enumerations that missed the MUS memo. Each encodes its
    /// constraint set once and checks subsets under selector
    /// assumptions, the enumerator's only path.
    pub mus_shared_encodings: usize,
    /// Estimated simplex pivots avoided by warm starts (cold first-check
    /// cost minus actual cost, summed over warm checks).
    pub lia_pivots_saved: usize,
    /// True if some E-term generation at the run's maximum application
    /// depth produced candidates its `depth − 1` set lacked — i.e. a
    /// deeper application bound could enumerate new programs. When a run
    /// fails with the frontier *closed*, rerunning it with a larger
    /// application depth is provably futile (the engine's ledger skips
    /// such rungs).
    pub frontier_open: bool,
    /// True if the search declined a pattern match (a datatype scrutinee
    /// was in scope) because the match-depth bound was exhausted — i.e. a
    /// deeper match bound could change the outcome.
    pub match_bound_hit: bool,
    /// Per-phase wall-time attribution of the whole run (generation,
    /// memo lookups, consistency, subtyping, abduction, and the SMT
    /// phases below them), captured from the worker thread's span
    /// profile when profiling is enabled (`--stats`) and empty otherwise.
    /// Phase *counts* are deterministic for a fixed goal, configuration
    /// and cache regime; totals and maxima are wall times.
    pub phases: PhaseProfile,
}

/// A successfully synthesized program together with statistics.
#[derive(Debug, Clone)]
pub struct Synthesized {
    /// The program.
    pub program: Program,
    /// Statistics of the run.
    pub stats: SynthesisStats,
}

/// The synthesizer.
#[derive(Debug)]
pub struct Synthesizer {
    config: SynthesisConfig,
    /// The shared SMT solver (statistics survive backtracking).
    pub smt: Smt,
    /// The context's cancellation token, plus the deadline of the current
    /// [`Synthesizer::synthesize`] call.
    budget: Budget,
    stats: SynthesisStats,
    /// The E-term generation memo (shared through the [`SolverContext`]
    /// with sibling rungs and goals).
    memo: EnumerationCache,
    /// Name of the goal currently being synthesized, for timeout
    /// attribution in batch runs.
    goal_name: String,
    fresh_counter: usize,
    /// Derivation-node ids: `node_counter` allocates ids in preorder over
    /// the `synthesize_in` call tree (reset per [`Synthesizer::synthesize`]
    /// run, so ids are deterministic for a fixed goal, configuration and
    /// cache regime); `current_node` is the id of the frame currently on
    /// the stack (0 = root's parent sentinel). Trace consumers scope ids
    /// to one `goal_start`..`goal_finish` window per thread, because each
    /// rung attempt restarts the counter.
    node_counter: u64,
    current_node: u64,
}

impl Synthesizer {
    /// Creates a standalone synthesizer: a fresh cache bundle, a fresh
    /// cancellation token.
    pub fn new(config: SynthesisConfig) -> Synthesizer {
        Synthesizer::with_context(config, &SolverContext::new())
    }

    /// Creates a synthesizer wired into a shared solver context: its SMT
    /// backend feeds (and is fed by) the context's caches, and the run
    /// stops early when the context's token is cancelled.
    pub fn with_context(config: SynthesisConfig, context: &SolverContext) -> Synthesizer {
        let caches = &context.caches;
        let mut smt = Smt::with_session(
            caches.validity.clone(),
            caches.mus.clone(),
            context.lemma_seed.clone(),
            caches.lemmas.clone(),
        );
        smt.set_incremental(config.incremental_smt);
        smt.set_incremental_lia(config.incremental_lia);
        Synthesizer {
            config,
            smt,
            budget: Budget::from(context.cancel.clone()),
            stats: SynthesisStats::default(),
            memo: caches.enumeration.clone(),
            goal_name: String::new(),
            fresh_counter: 0,
            node_counter: 0,
            current_node: 0,
        }
    }

    /// Statistics of the last run, with the SMT-level counters (queries,
    /// cache hits/misses) folded in.
    pub fn stats(&self) -> SynthesisStats {
        let mut stats = self.stats;
        let smt = self.smt.stats();
        stats.smt_queries = smt.queries;
        stats.smt_cache_hits = smt.cache_hits;
        stats.shared_cache_hits = smt.shared_hits;
        stats.shared_cache_misses = smt.shared_misses;
        stats.smt_conflicts_learned = smt.conflicts_learned;
        stats.smt_conflicts_reused = smt.conflicts_reused;
        stats.assumptions_dropped = smt.assumptions_dropped;
        stats.tableau_warm_starts = smt.tableau_warm_starts;
        stats.bounds_propagated = smt.bounds_propagated;
        stats.mus_shared_encodings = smt.mus_shared_encodings;
        stats.lia_pivots_saved = smt.lia_pivots_saved;
        stats
    }

    fn backend(&self) -> StrengthenBackend {
        if self.config.use_musfix {
            StrengthenBackend::Musfix
        } else {
            StrengthenBackend::NaiveBfs
        }
    }

    fn fresh_name(&mut self, prefix: &str) -> String {
        let n = self.fresh_counter;
        self.fresh_counter += 1;
        format!("__{prefix}{n}")
    }

    fn check_budget(&self) -> Result<(), SynthesisError> {
        if self.budget.exhausted() {
            Err(SynthesisError::Timeout(self.goal_name.clone()))
        } else {
            Ok(())
        }
    }

    /// Synthesizes a program for the goal.
    pub fn synthesize(&mut self, goal: &Goal) -> Result<Synthesized, SynthesisError> {
        // Budget enforcement reaches the DPLL(T) loop and the simplex: a
        // single liquid-abduction round can spend the whole budget inside
        // one fixpoint strengthening, so checks between candidates alone
        // would overshoot by minutes.
        self.budget = self.budget.until(Instant::now() + self.config.timeout);
        self.smt.set_budget(self.budget.clone());
        self.node_counter = 0;
        self.current_node = 0;
        // One synthesis run stays on one thread, so the run's phase
        // profile is a thread-local window around it (no locks, no
        // cross-worker bleed).
        let profile = synquid_telemetry::window();
        let mut result = self.synthesize_goal(goal);
        // A search that exhausted its candidates *after* the budget ran
        // out may have done so only because interrupted SMT queries
        // answered `Unknown`: its `NoSolution` reflects the budget, not
        // the search space, and must not be reported as a genuine
        // exhaustion (the portfolio ledger treats genuine failures as
        // evidence that equivalent deeper rungs can be skipped).
        if matches!(result, Err(SynthesisError::NoSolution(_))) && self.budget.exhausted() {
            result = Err(SynthesisError::Timeout(self.goal_name.clone()));
        }
        if let Some(profile) = profile {
            self.stats.phases = profile.close();
        }
        // Refresh the result's stats copy with the captured phase profile.
        if let Ok(synthesized) = &mut result {
            synthesized.stats = self.stats();
        }
        result
    }

    fn synthesize_goal(&mut self, goal: &Goal) -> Result<Synthesized, SynthesisError> {
        self.goal_name = goal.name.clone();
        let mut env = goal.env.clone();
        env.add_qualifiers_from_type(&goal.schema.ty);

        let solver = ConstraintSolver::new(self.backend());

        let (args, ret) = goal.schema.ty.uncurry();
        let arg_names: Vec<String> = args.iter().map(|(n, _)| n.clone()).collect();
        let recursive = weaken_for_recursion(&env, &goal.schema, &arg_names);
        if let Some(weakened) = &recursive {
            env.add_var(goal.name.clone(), weakened.clone());
        }
        for (name, ty) in &args {
            env.add_var(name.clone(), ty.clone());
        }

        let body = self.synthesize_in(
            &env,
            &ret,
            &solver,
            MAX_BRANCH_DEPTH,
            self.config.max_match_depth,
        )?;

        let mut program = body;
        for (name, _) in args.iter().rev() {
            program = Program::Abs(name.clone(), Box::new(program));
        }
        if recursive.is_some() && program_mentions(&program, &goal.name) {
            program = Program::Fix(goal.name.clone(), Box::new(program));
        }
        Ok(Synthesized {
            program,
            // `stats()` folds in the SMT counters; the caller refreshes
            // the copy with the phase profile on return.
            stats: self.stats(),
        })
    }

    /// Synthesizes a term of the given (possibly functional) goal type.
    ///
    /// Every call is one derivation node. This wrapper allocates the node
    /// id, brackets the frame with `search` / `node_finish` events (parent
    /// link, wall time, per-node cache provenance, and — when profiling is
    /// on — a phase split *inclusive of children*), and restores the
    /// parent id on the way out; the search itself lives in
    /// [`Synthesizer::synthesize_in_node`]. The counter advances even when
    /// no sink is configured, so ids never depend on whether tracing was
    /// on.
    fn synthesize_in(
        &mut self,
        env: &Environment,
        goal: &RType,
        base_solver: &ConstraintSolver,
        branch_depth: usize,
        match_depth: usize,
    ) -> Result<Program, SynthesisError> {
        let parent = self.current_node;
        self.node_counter += 1;
        let node = self.node_counter;
        self.current_node = node;
        let enabled = events::events_enabled();
        let started = enabled.then(Instant::now);
        let provenance_base = enabled.then(|| {
            (
                self.stats.memo_hits,
                self.stats.memo_misses,
                self.smt.stats().conflicts_reused,
            )
        });
        let phase_window = enabled.then(synquid_telemetry::window).flatten();
        events::emit(|| {
            Event::new("search")
                .uint("node", node)
                .uint("parent", parent)
                .str("goal", &self.goal_name)
                .str("ty", goal.to_string())
                .uint("branch_depth", branch_depth as u64)
                .uint("match_depth", match_depth as u64)
        });
        let result = self.synthesize_in_node(env, goal, base_solver, branch_depth, match_depth);
        if let (Some(started), Some((hits0, misses0, replayed0))) = (started, provenance_base) {
            let status = match &result {
                Ok(_) => "solved",
                Err(SynthesisError::Timeout(_)) => "timeout",
                Err(SynthesisError::NoSolution(_)) => "exhausted",
            };
            let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
            let memo_hits = (self.stats.memo_hits - hits0) as u64;
            let memo_misses = (self.stats.memo_misses - misses0) as u64;
            let lemmas_replayed = (self.smt.stats().conflicts_reused - replayed0) as u64;
            let phases = phase_window
                .map(synquid_telemetry::Window::close)
                .filter(|delta| !delta.is_empty());
            events::emit(|| {
                let mut event = Event::new("node_finish")
                    .uint("node", node)
                    .str("goal", &self.goal_name)
                    .str("status", status)
                    .f64("elapsed_ms", elapsed_ms)
                    .uint("memo_hits", memo_hits)
                    .uint("memo_misses", memo_misses)
                    .uint("lemmas_replayed", lemmas_replayed);
                if let Ok(program) = &result {
                    event = event.str("term", program.to_string());
                }
                if let Some(phases) = &phases {
                    event = event.str("phases", Json::from(phases).to_compact());
                }
                event
            });
        }
        self.current_node = parent;
        result
    }

    fn synthesize_in_node(
        &mut self,
        env: &Environment,
        goal: &RType,
        base_solver: &ConstraintSolver,
        branch_depth: usize,
        match_depth: usize,
    ) -> Result<Program, SynthesisError> {
        self.check_budget()?;

        // Function goals: introduce lambdas (rule ABS).
        if goal.is_function() {
            let (args, ret) = goal.uncurry();
            let mut inner = env.clone();
            for (name, ty) in &args {
                inner.add_var(name.clone(), ty.clone());
            }
            let body = self.synthesize_in(&inner, &ret, base_solver, branch_depth, match_depth)?;
            let mut program = body;
            for (name, _) in args.iter().rev() {
                program = Program::Abs(name.clone(), Box::new(program));
            }
            return Ok(program);
        }

        // Phase 1: branch-free E-terms with liquid abduction, by increasing
        // application depth so that the smallest correct term is found
        // first and deep enumerations are only paid for when needed. The
        // candidate set at depth `d` contains the depth `d-1` set (memoized
        // generation extends it incrementally), so candidates already
        // checked at a shallower iteration are skipped via `tried`.
        let mut tried: HashSet<Program> = HashSet::new();
        for depth in 0..=self.config.max_app_depth {
            let candidates =
                self.abduction_candidates(env, goal, depth, base_solver, &mut tried)?;
            events::emit(|| {
                Event::new("abduction_candidates")
                    .uint("node", self.current_node)
                    .str("goal", &self.goal_name)
                    .uint("depth", depth as u64)
                    .uint("n", candidates.len() as u64)
            });
            for (program, condition) in candidates {
                self.check_budget()?;
                if condition.is_true() {
                    return Ok(program);
                }
                if branch_depth == 0 {
                    continue;
                }
                // Synthesize a guard computing the abduced condition.
                let Some(guard) = self.synthesize_guard(env, &condition, base_solver) else {
                    events::emit(|| {
                        Event::new("guard_missing")
                            .uint("node", self.current_node)
                            .str("goal", &self.goal_name)
                            .str("condition", condition.to_string())
                    });
                    continue;
                };
                events::emit(|| {
                    Event::new("guard_found")
                        .uint("node", self.current_node)
                        .str("goal", &self.goal_name)
                        .str("guard", guard.to_string())
                        .str("condition", condition.to_string())
                });
                self.stats.branches_abduced += 1;
                // Synthesize the remaining branch under the negated condition.
                let mut else_env = env.clone();
                else_env.add_path_condition(condition.clone().not());
                match self.synthesize_in(
                    &else_env,
                    goal,
                    base_solver,
                    branch_depth - 1,
                    match_depth,
                ) {
                    Ok(else_branch) => return Ok(Program::ite(guard, program, else_branch)),
                    Err(timeout @ SynthesisError::Timeout(_)) => return Err(timeout),
                    Err(SynthesisError::NoSolution(_)) => continue,
                }
            }
        }

        // Phase 2: pattern matches on datatype variables in scope.
        if match_depth > 0 {
            if let Some(program) =
                self.synthesize_match(env, goal, base_solver, branch_depth, match_depth)?
            {
                return Ok(program);
            }
        } else if self.has_match_scrutinee(env) {
            // A match was declined only because the depth bound ran out:
            // a deeper rung could genuinely differ here, so the failure
            // must not be treated as bound-independent.
            self.stats.match_bound_hit = true;
        }

        Err(SynthesisError::NoSolution(goal.to_string()))
    }

    /// Enumerates branch-free candidates for a scalar goal, each together
    /// with the weakest path condition (abduced via a fresh unknown) under
    /// which it satisfies the goal. Candidate *generation* is memoized and
    /// goal-blind (see [`crate::memo`]); this pass replays each generated
    /// candidate against the goal under the abduction unknown `P0`.
    fn abduction_candidates(
        &mut self,
        env: &Environment,
        goal: &RType,
        depth: usize,
        base_solver: &ConstraintSolver,
        tried: &mut HashSet<Program>,
    ) -> Result<Vec<(Program, Term)>, SynthesisError> {
        let shaped = self.generate_for(env, goal, depth, base_solver)?;
        let mut solver = base_solver.clone();
        let p0 = solver.fresh_unknown(env, None, "branch condition");
        let mut cond_env = env.clone();
        cond_env.add_path_condition(p0.clone());
        let mut out = Vec::new();
        for cand in shaped.iter() {
            // The candidate cap bounds *accepted* candidates (as the
            // interleaved enumerator did), never the generated universe.
            if out.len() >= MAX_CANDIDATES {
                break;
            }
            if !tried.insert(cand.program.clone()) {
                continue;
            }
            if let Some((program, cand_solver)) =
                self.check_shaped(&cond_env, goal, cand, &solver)?
            {
                let condition = cand_solver.apply_assignment(&p0);
                events::emit(|| {
                    Event::new("candidate_accept")
                        .uint("node", self.current_node)
                        .str("goal", &self.goal_name)
                        .str("program", program.to_string())
                        .bool("conditional", !condition.is_true())
                        .str("condition", condition.to_string())
                });
                out.push((program, condition));
            }
        }
        // Prefer candidates that need no branching, then smaller programs.
        out.sort_by_key(|(p, cond)| (!cond.is_true() as usize, p.size()));
        Ok(out)
    }

    /// Synthesizes a boolean guard term whose value equals the abduced
    /// condition. Guards must satisfy their goal outright, so candidates
    /// are checked without an abduction unknown.
    fn synthesize_guard(
        &mut self,
        env: &Environment,
        condition: &Term,
        base_solver: &ConstraintSolver,
    ) -> Option<Program> {
        let goal = RType::refined(
            BaseType::Bool,
            Term::value_var(Sort::Bool).iff(condition.clone()),
        );
        let shaped = self
            .generate_for(env, &goal, GUARD_DEPTH, base_solver)
            .ok()?;
        for cand in shaped.iter() {
            match self.check_shaped(env, &goal, cand, base_solver) {
                Ok(Some((program, _))) => return Some(program),
                Ok(None) => continue,
                Err(_) => return None,
            }
        }
        None
    }

    // -----------------------------------------------------------------
    // Per-goal candidate checking (round-trip discipline)
    // -----------------------------------------------------------------

    /// Checks one memoized candidate against a goal, in an environment
    /// that may already carry the abduction unknown as a path condition.
    ///
    /// The round-trip order is cheapest-first: a consistency check of the
    /// candidate's type against the goal (one satisfiability query,
    /// amortized by both SMT cache layers) prunes refinement-incompatible
    /// candidates before the full subtyping constraint — with its
    /// fixpoint strengthening — is ever attempted. Returns the completed
    /// program (deferred higher-order arguments synthesized) and the
    /// constraint-solver state after all checks.
    fn check_shaped(
        &mut self,
        cond_env: &Environment,
        goal: &RType,
        cand: &ShapedCandidate,
        base_solver: &ConstraintSolver,
    ) -> Result<Option<(Program, ConstraintSolver)>, SynthesisError> {
        self.check_budget()?;
        self.stats.eterms_checked += 1;
        let label = cand.program.to_string();
        let mut s = base_solver.clone();
        // Import the cached types: their free unification variables are
        // local to the producing enumeration and must not alias ours.
        let mut rename = BTreeMap::new();
        let ty = s.import_type(&cand.ty, &mut rename);
        let mut cenv = cond_env.clone();
        for (name, extra_ty) in &cand.extras {
            let extra_ty = s.import_type(extra_ty, &mut rename);
            cenv.add_var(name.clone(), extra_ty);
        }
        let pending: Vec<(usize, RType)> = cand
            .pending
            .iter()
            .map(|(i, t)| (*i, s.import_type(t, &mut rename)))
            .collect();
        // Round-trip pruning: the candidate's type must have a common
        // inhabitant with the goal before any strengthening is attempted.
        if self.config.consistency {
            let consistent = {
                let _span = synquid_telemetry::span(Phase::Consistency);
                s.consistent(&cenv, &ty, goal, &mut self.smt, &label)
            };
            if consistent.is_err() {
                events::emit(|| {
                    Event::new("candidate_reject")
                        .uint("node", self.current_node)
                        .str("goal", &self.goal_name)
                        .str("program", &label)
                        .str("reason", "consistency")
                });
                self.stats.pruned_early += 1;
                return Ok(None);
            }
        }
        // Replay the argument-side condition abduced during generation
        // (e.g. `n >= 1` for `dec n` at type `Nat`) against the current
        // branch-condition unknown.
        let required = {
            let _span = synquid_telemetry::span(Phase::Subtyping);
            s.require(&cenv, &cand.condition, &mut self.smt, &label)
        };
        if required.is_err() {
            events::emit(|| {
                Event::new("candidate_reject")
                    .uint("node", self.current_node)
                    .str("goal", &self.goal_name)
                    .str("program", &label)
                    .str("reason", "side-condition")
                    .str("condition", cand.condition.to_string())
            });
            return Ok(None);
        }
        // The full subtyping constraint (liquid abduction happens here).
        let subtyped = {
            let _span = synquid_telemetry::span(Phase::Subtyping);
            s.subtype(&cenv, &ty, goal, &mut self.smt, &label)
        };
        if let Err(e) = subtyped {
            events::emit(|| {
                Event::new("candidate_reject")
                    .uint("node", self.current_node)
                    .str("goal", &self.goal_name)
                    .str("program", &label)
                    .str("reason", "subtype")
                    .str("detail", e.to_string())
            });
            return Ok(None);
        }
        // Synthesize deferred higher-order arguments now that the return
        // type has been unified with the goal.
        let mut program = cand.program.clone();
        if !pending.is_empty() {
            let (head, mut args) = app_parts(&program);
            for (idx, ho_ty) in &pending {
                let concrete = s.finalize(ho_ty);
                match self.synthesize_in(
                    &cenv,
                    &concrete,
                    &s,
                    MAX_BRANCH_DEPTH,
                    self.config.max_match_depth,
                ) {
                    Ok(p) => args[*idx] = p,
                    Err(timeout @ SynthesisError::Timeout(_)) => return Err(timeout),
                    Err(SynthesisError::NoSolution(_)) => return Ok(None),
                }
            }
            program = args.into_iter().fold(head, |acc, a| acc.app(a));
        }
        Ok(Some((program, s)))
    }

    // -----------------------------------------------------------------
    // Goal-blind, memoized E-term generation
    // -----------------------------------------------------------------

    /// Generates the candidate set for a goal: concretizes the
    /// environment (path conditions may mention enclosing abduction
    /// unknowns, which the memoized generator must never see) and
    /// dispatches on the goal's shape.
    fn generate_for(
        &mut self,
        env: &Environment,
        goal: &RType,
        depth: usize,
        base_solver: &ConstraintSolver,
    ) -> Result<Arc<Vec<ShapedCandidate>>, SynthesisError> {
        let gen_env = env.map_path_conditions(|t| base_solver.apply_assignment(t));
        let env_key = self.env_key(&gen_env);
        self.generate(&gen_env, &env_key, &goal.shape(), depth)
    }

    /// The memo-key prefix for an environment: its canonical fingerprint
    /// plus every configuration knob that changes what generation
    /// produces. Two runs sharing a [`SolverContext`] only share cache
    /// entries when both the environment *and* these knobs agree —
    /// otherwise an ablation variant could synthesize from sets generated
    /// under a different configuration.
    fn env_key(&self, env: &Environment) -> String {
        format!(
            "{};cfg rt:{} cc:{} mus:{}",
            env.fingerprint(),
            self.config.round_trip,
            self.config.consistency,
            self.config.use_musfix,
        )
    }

    /// Enumerates all well-shaped candidate programs of the given shape
    /// in the given environment, up to the given application depth.
    /// Argument obligations (termination metrics, preconditions) are
    /// validated against the heads' declared types, under a fresh
    /// *argument-condition* unknown so obligations that only hold under a
    /// branch condition survive as conditional candidates. The result is
    /// a pure function of `(environment, configuration, shape, depth)`
    /// and is memoized. `env_key` must be [`Synthesizer::env_key`] of
    /// `env` — it is threaded as a parameter because the whole recursive
    /// generation pass works in one environment, and serializing it once
    /// per pass instead of once per lookup keeps the memo probe cheap.
    fn generate(
        &mut self,
        env: &Environment,
        env_key: &str,
        shape: &RType,
        depth: usize,
    ) -> Result<Arc<Vec<ShapedCandidate>>, SynthesisError> {
        self.check_budget()?;
        // Recursive calls nest `Generation` spans; self-time attribution
        // charges each level only for its own work, so the phase total
        // stays additive however deep the enumeration recurses.
        let _generation_span = synquid_telemetry::span(Phase::Generation);
        let key = (env_key.to_string(), shape_key(shape), depth);
        if self.config.memoize {
            let found = {
                let _memo_span = synquid_telemetry::span(Phase::MemoLookup);
                self.memo.lookup(&key)
            };
            if let Some(found) = found {
                self.stats.memo_hits += 1;
                events::emit(|| {
                    Event::new("cache_hit")
                        .str("layer", "enum-memo")
                        .uint("node", self.current_node)
                });
                self.note_frontier(depth, found.grew);
                return Ok(found.set);
            }
            self.stats.memo_misses += 1;
            events::emit(|| {
                Event::new("cache_miss")
                    .str("layer", "enum-memo")
                    .uint("node", self.current_node)
            });
        }
        let mut out: Vec<ShapedCandidate> = Vec::new();
        let mut seen: HashSet<Program> = HashSet::new();
        let mut below_len = 0usize;
        if depth == 0 {
            self.generate_leaves(env, shape, &mut out);
        } else {
            // Level `d` extends level `d-1`: reuse its (memoized) set and
            // add applications whose arguments draw from level `d-1`.
            let below = self.generate(env, env_key, shape, depth - 1)?;
            below_len = below.len();
            out.extend(below.iter().cloned());
            seen.extend(below.iter().map(|c| c.program.clone()));
            self.generate_applications(env, env_key, shape, depth, &mut out, &mut seen)?;
        }
        // Symmetry / cost ordering: size first, then program text, so
        // candidate order is deterministic whatever produced the set.
        // Generated sets are *complete* for their bounds (the
        // `MAX_CANDIDATES` cap applies to goal-passing candidates in the
        // per-goal pass, not to the goal-blind universe — truncating here
        // would silently drop programs some goal needs).
        out.sort_by_cached_key(|c| (c.size, c.program.to_string()));
        // A depth-0 set counts as "grown": a deeper bound enables
        // applications that no depth-0 set can contain.
        let grew = depth == 0 || out.len() > below_len;
        let out = Arc::new(out);
        if self.config.memoize {
            self.memo.insert(
                key,
                GenerationEntry {
                    set: out.clone(),
                    grew,
                },
            );
        }
        self.note_frontier(depth, grew);
        Ok(out)
    }

    /// Records whether the candidate universe is still growing at this
    /// run's application-depth frontier. Only generation requests *at*
    /// the configured maximum depth matter: they are exactly the sets a
    /// deeper rung would extend first.
    fn note_frontier(&mut self, depth: usize, grew: bool) {
        if depth == self.config.max_app_depth && grew {
            self.stats.frontier_open = true;
        }
    }

    /// True if the environment offers a match scrutinee (a monomorphic
    /// datatype-typed scalar variable) — the condition under which an
    /// exhausted match-depth bound actually constrained the search.
    fn has_match_scrutinee(&self, env: &Environment) -> bool {
        env.var_names().iter().any(|name| {
            env.lookup(name).is_some_and(|schema| {
                schema.is_monomorphic()
                    && matches!(
                        schema.ty.base_type(),
                        Some(BaseType::Data(dt, _)) if env.datatype(dt).is_some()
                    )
            })
        })
    }

    /// Depth-0 candidates: literals (for the exact primitive shapes) and
    /// scalar variables whose shape fits.
    fn generate_leaves(
        &mut self,
        env: &Environment,
        shape: &RType,
        out: &mut Vec<ShapedCandidate>,
    ) {
        match shape.base_type() {
            Some(BaseType::Int) => {
                // Integer literals as nullary components (the paper's
                // benchmarks bind `0` as a component; accepting the
                // literal directly keeps the guard and SyGuS benchmarks
                // independent of naming).
                for lit in [0i64, 1] {
                    self.stats.terms_enumerated += 1;
                    out.push(ShapedCandidate {
                        program: Program::IntLit(lit),
                        size: 1,
                        ty: RType::refined(
                            BaseType::Int,
                            Term::value_var(Sort::Int).eq(Term::int(lit)),
                        ),
                        extras: Vec::new(),
                        condition: Term::tt(),
                        pending: Vec::new(),
                    });
                }
            }
            Some(BaseType::Bool) => {
                for lit in [true, false] {
                    self.stats.terms_enumerated += 1;
                    out.push(ShapedCandidate {
                        program: Program::BoolLit(lit),
                        size: 1,
                        ty: RType::refined(
                            BaseType::Bool,
                            Term::value_var(Sort::Bool).iff(Term::BoolLit(lit)),
                        ),
                        extras: Vec::new(),
                        condition: Term::tt(),
                        pending: Vec::new(),
                    });
                }
            }
            _ => {}
        }
        // Variables and components (rules VARSC and VAR∀). One local
        // solver instantiates polymorphic schemas; leaf candidates do not
        // interact, so sharing its fresh-variable counter is fine (and
        // deterministic).
        let mut gs = ConstraintSolver::new(self.backend());
        let names: Vec<String> = env.var_names().to_vec();
        for name in &names {
            let Some(schema) = env.lookup(name).cloned() else {
                continue;
            };
            let instantiated = gs.instantiate_schema(&schema);
            if instantiated.is_function() || !shapes_compatible(&instantiated, shape) {
                continue;
            }
            self.stats.terms_enumerated += 1;
            out.push(ShapedCandidate {
                program: Program::var(name.clone()),
                size: 1,
                ty: env.singleton_type(name, &instantiated),
                extras: Vec::new(),
                condition: Term::tt(),
                pending: Vec::new(),
            });
        }
    }

    /// Applications (rules APPFO and APPHO) at the given depth, with
    /// arguments drawn from the memoized level below.
    fn generate_applications(
        &mut self,
        env: &Environment,
        env_key: &str,
        shape: &RType,
        depth: usize,
        out: &mut Vec<ShapedCandidate>,
        seen: &mut HashSet<Program>,
    ) -> Result<(), SynthesisError> {
        /// One partially-built application: chosen arguments, the solver
        /// threading their checks, bindings for application-valued
        /// arguments, the substitution of formals, and deferred
        /// higher-order positions.
        struct GenPartial {
            args: Vec<Program>,
            solver: ConstraintSolver,
            extras: Vec<(String, RType)>,
            subst: Substitution,
            pending: Vec<(usize, RType)>,
        }

        let names: Vec<String> = env.var_names().to_vec();
        for head in &names {
            self.check_budget()?;
            let Some(schema) = env.lookup(head).cloned() else {
                continue;
            };
            let mut gs = ConstraintSolver::new(self.backend());
            let fty = gs.instantiate_schema(&schema);
            if !fty.is_function() {
                continue;
            }
            let (fargs, fret) = fty.uncurry();
            // Round-trip shape pruning: a head whose return shape cannot
            // fit the target shape is dropped before any argument work.
            // Disabled under the T-nrt ablation, where ill-shaped
            // applications are built in full and rejected only by the
            // final per-goal check — the cost the paper's round-trip
            // discipline exists to avoid.
            if self.config.round_trip && !shapes_compatible(&fret, shape) {
                self.stats.pruned_early += 1;
                continue;
            }
            // The argument-condition unknown: argument obligations that
            // only hold under a (later-abduced) branch condition
            // strengthen this unknown instead of failing outright.
            let pg = gs.fresh_unknown(env, None, "argument condition");
            let mut genv = env.clone();
            genv.add_path_condition(pg.clone());

            let mut partials = vec![GenPartial {
                args: Vec::new(),
                solver: gs,
                extras: Vec::new(),
                subst: Substitution::new(),
                pending: Vec::new(),
            }];
            for (i, (formal, arg_ty)) in fargs.iter().enumerate() {
                let mut next = Vec::new();
                for partial in partials {
                    self.check_budget()?;
                    let expected = arg_ty.substitute(&partial.subst);
                    let resolved = partial.solver.resolve(&expected);
                    if resolved.is_function() {
                        // Higher-order argument: defer until the rest of
                        // the application has determined its type (APPHO;
                        // this is how auxiliary functions such as the
                        // folding operation of `sort` are discovered).
                        let mut pending = partial.pending.clone();
                        pending.push((i, expected));
                        let mut args = partial.args.clone();
                        args.push(Program::Hole);
                        next.push(GenPartial {
                            args,
                            solver: partial.solver,
                            extras: partial.extras,
                            subst: partial.subst,
                            pending,
                        });
                        continue;
                    }
                    let arg_cands = self.generate(env, env_key, &resolved.shape(), depth - 1)?;
                    let mut taken = 0usize;
                    for (ordinal, cand) in arg_cands.iter().enumerate() {
                        if taken >= MAX_ARG_CANDIDATES {
                            break;
                        }
                        // A candidate with unfilled higher-order holes
                        // cannot serve as an argument: its holes could
                        // only be completed against a concrete goal.
                        if !cand.pending.is_empty() {
                            continue;
                        }
                        let mut s = partial.solver.clone();
                        let mut rename = BTreeMap::new();
                        let ty = s.import_type(&cand.ty, &mut rename);
                        let extras: Vec<(String, RType)> = cand
                            .extras
                            .iter()
                            .map(|(n, t)| (n.clone(), s.import_type(t, &mut rename)))
                            .collect();
                        let mut cenv = genv.clone();
                        for (n, t) in partial.extras.iter().chain(extras.iter()) {
                            cenv.add_var(n.clone(), t.clone());
                        }
                        let label = format!("{head}:arg{i}");
                        // Replay the argument's own side condition, then
                        // check it against the declared argument type.
                        let accepted = {
                            let _span = synquid_telemetry::span(Phase::Subtyping);
                            s.require(&cenv, &cand.condition, &mut self.smt, &label)
                                .is_ok()
                                && s.subtype(&cenv, &ty, &expected, &mut self.smt, &label)
                                    .is_ok()
                        };
                        if !accepted {
                            continue;
                        }
                        taken += 1;
                        let mut subst = partial.subst.clone();
                        let mut chain_extras = partial.extras.clone();
                        chain_extras.extend(extras);
                        match &cand.program {
                            // Monomorphic variables and literals
                            // substitute directly for the formal (their
                            // facts are re-derivable from the
                            // environment); polymorphic variables — most
                            // importantly nullary constructors such as
                            // `Nil`, whose defining facts live only in
                            // the instantiated singleton type — and
                            // application-valued arguments need an
                            // intermediate binding. The binder name is
                            // derived from the candidate's position so
                            // memoized entries are identical whichever
                            // run generates them.
                            Program::Var(v)
                                if env.lookup(v).is_some_and(|s| s.is_monomorphic()) =>
                            {
                                subst.insert(formal.clone(), Term::var(v.clone(), ty.sort()));
                            }
                            Program::IntLit(k) => {
                                subst.insert(formal.clone(), Term::int(*k));
                            }
                            Program::BoolLit(b) => {
                                subst.insert(formal.clone(), Term::BoolLit(*b));
                            }
                            _ => {
                                let binder = format!("__m{depth}_{head}_{i}_{ordinal}");
                                subst.insert(formal.clone(), Term::var(binder.clone(), ty.sort()));
                                chain_extras.push((binder, ty));
                            }
                        }
                        let mut args = partial.args.clone();
                        args.push(cand.program.clone());
                        next.push(GenPartial {
                            args,
                            solver: s,
                            extras: chain_extras,
                            subst,
                            pending: partial.pending.clone(),
                        });
                    }
                }
                partials = next;
                // Deterministic safety bound against pathological argument
                // fan-out (the per-position `MAX_ARG_CANDIDATES` cap keeps
                // this far out of reach for real component libraries).
                partials.truncate(2048);
                if partials.is_empty() {
                    break;
                }
            }

            for partial in partials {
                let program = partial
                    .args
                    .iter()
                    .cloned()
                    .fold(Program::var(head.clone()), |acc, a| acc.app(a));
                if !seen.insert(program.clone()) {
                    continue;
                }
                let ret = fret.substitute(&partial.subst);
                let ty = partial.solver.finalize(&ret);
                let extras: Vec<(String, RType)> = partial
                    .extras
                    .iter()
                    .map(|(n, t)| (n.clone(), partial.solver.finalize(t)))
                    .collect();
                let pending: Vec<(usize, RType)> = partial
                    .pending
                    .iter()
                    .map(|(i, t)| (*i, partial.solver.finalize(t)))
                    .collect();
                let condition = partial.solver.apply_assignment(&pg);
                self.stats.terms_enumerated += 1;
                out.push(ShapedCandidate {
                    size: program.size(),
                    program,
                    ty,
                    extras,
                    condition,
                    pending,
                });
            }
        }
        Ok(())
    }
}

/// Splits an application chain into its head and argument list.
fn app_parts(p: &Program) -> (Program, Vec<Program>) {
    match p {
        Program::App(f, a) => {
            let (head, mut args) = app_parts(f);
            args.push((**a).clone());
            (head, args)
        }
        other => (other.clone(), Vec::new()),
    }
}

/// Shape compatibility for generation-time pruning: can a value of shape
/// `s` possibly be used where shape `t` is expected? Free unification
/// type variables match anything (they will be unified by the actual
/// subtyping check); rigid variables only match themselves.
fn shapes_compatible(s: &RType, t: &RType) -> bool {
    match (s, t) {
        (RType::Scalar { base: bs, .. }, RType::Scalar { base: bt, .. }) => {
            base_shapes_compatible(bs, bt)
        }
        // Function-against-function compatibility is left to subtyping.
        (RType::Function { .. }, RType::Function { .. }) => true,
        (RType::Any, _) | (_, RType::Any) | (RType::Bot, _) | (_, RType::Bot) => true,
        _ => false,
    }
}

fn base_shapes_compatible(s: &BaseType, t: &BaseType) -> bool {
    match (s, t) {
        (BaseType::TypeVar(a), _) if is_free_type_var(a) => true,
        (_, BaseType::TypeVar(a)) if is_free_type_var(a) => true,
        (BaseType::TypeVar(a), BaseType::TypeVar(b)) => a == b,
        (BaseType::Int, BaseType::Int) | (BaseType::Bool, BaseType::Bool) => true,
        (BaseType::Data(n1, a1), BaseType::Data(n2, a2)) => {
            n1 == n2
                && a1.len() == a2.len()
                && a1.iter().zip(a2).all(|(x, y)| shapes_compatible(x, y))
        }
        _ => false,
    }
}

impl Synthesizer {
    /// Attempts to synthesize a pattern match on some datatype variable in
    /// scope (the MATCH rule, with the scrutinee restricted to variables).
    fn synthesize_match(
        &mut self,
        env: &Environment,
        goal: &RType,
        base_solver: &ConstraintSolver,
        branch_depth: usize,
        match_depth: usize,
    ) -> Result<Option<Program>, SynthesisError> {
        // Candidate scrutinees: datatype-typed scalar variables, in
        // binding order (function arguments before pattern variables, both
        // before anything a library component could contribute). Matching
        // the first-bound argument first mirrors the paper's examples,
        // where structural recursion is on the leading list/tree argument;
        // trying the most recently bound variable first instead sends
        // goals like `append` into a doomed match on the *second* list,
        // whose Cons branch has no terminating recursive call and burns
        // the whole budget before the right scrutinee is tried.
        let mut scrutinees: Vec<(String, String, Vec<RType>)> = Vec::new();
        for name in env.var_names().iter() {
            if let Some(schema) = env.lookup(name) {
                if !schema.is_monomorphic() {
                    continue;
                }
                if let Some(BaseType::Data(dt, targs)) = schema.ty.base_type() {
                    if env.datatype(dt).is_some() {
                        scrutinees.push((name.clone(), dt.clone(), targs.clone()));
                    }
                }
            }
        }
        'scrutinee: for (scrut, dt_name, targs) in scrutinees {
            self.check_budget()?;
            let Some(dt) = env.datatype(&dt_name).cloned() else {
                continue;
            };
            let scrut_sort = Sort::Data(dt_name.clone(), targs.iter().map(|t| t.sort()).collect());
            let mut cases = Vec::new();
            for ctor in &dt.constructors {
                // Instantiate the constructor at the scrutinee's type args.
                let con_ty = ctor.schema.instantiate(&targs);
                let (cargs, cret) = con_ty.uncurry();
                let mut case_env = env.clone();
                let mut rename = Substitution::new();
                let mut binders = Vec::new();
                for (formal, ty) in &cargs {
                    let binder = self.fresh_name(&format!("{}_{}", scrut, formal));
                    let bound_ty = ty.substitute(&rename);
                    rename.insert(formal.clone(), Term::var(binder.clone(), bound_ty.sort()));
                    case_env.add_var(binder.clone(), bound_ty);
                    binders.push(binder);
                }
                // Path fact: the constructor's result refinement, with ν
                // replaced by the scrutinee and formals by the binders.
                let fact = cret
                    .refinement()
                    .substitute(&rename)
                    .substitute_value(&Term::var(scrut.clone(), scrut_sort.clone()));
                case_env.add_path_condition(fact);
                self.stats.matches_generated += 1;
                events::emit(|| {
                    Event::new("match_case")
                        .uint("node", self.current_node)
                        .str("goal", &self.goal_name)
                        .str("scrutinee", &scrut)
                        .str("constructor", &ctor.name)
                });
                match self.synthesize_in(
                    &case_env,
                    goal,
                    base_solver,
                    branch_depth,
                    match_depth - 1,
                ) {
                    Ok(body) => cases.push(Case {
                        constructor: ctor.name.clone(),
                        binders,
                        body,
                    }),
                    Err(timeout @ SynthesisError::Timeout(_)) => return Err(timeout),
                    Err(SynthesisError::NoSolution(_)) => {
                        events::emit(|| {
                            Event::new("match_case_failed")
                                .uint("node", self.current_node)
                                .str("goal", &self.goal_name)
                                .str("scrutinee", &scrut)
                                .str("constructor", &ctor.name)
                        });
                        continue 'scrutinee;
                    }
                }
            }
            if cases.len() == dt.constructors.len() {
                return Ok(Some(Program::Match(Box::new(Program::var(scrut)), cases)));
            }
        }
        Ok(None)
    }
}

/// True if the program mentions the given variable name.
fn program_mentions(p: &Program, name: &str) -> bool {
    match p {
        Program::Var(v) => v == name,
        Program::App(f, a) => program_mentions(f, name) || program_mentions(a, name),
        Program::Abs(_, b) | Program::Fix(_, b) => program_mentions(b, name),
        Program::If(c, t, e) => {
            program_mentions(c, name) || program_mentions(t, name) || program_mentions(e, name)
        }
        Program::Match(s, cases) => {
            program_mentions(s, name) || cases.iter().any(|c| program_mentions(&c.body, name))
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synquid_logic::Qualifier;
    use synquid_types::list_datatype;

    /// Components 0, inc, dec, leq, neq used across the paper's examples.
    fn int_components(env: &mut Environment) {
        env.add_var(
            "zero",
            RType::refined(BaseType::Int, Term::value_var(Sort::Int).eq(Term::int(0))),
        );
        env.add_var(
            "inc",
            RType::fun(
                "x",
                RType::int(),
                RType::refined(
                    BaseType::Int,
                    Term::value_var(Sort::Int).eq(Term::var("x", Sort::Int).plus(Term::int(1))),
                ),
            ),
        );
        env.add_var(
            "dec",
            RType::fun(
                "x",
                RType::int(),
                RType::refined(
                    BaseType::Int,
                    Term::value_var(Sort::Int).eq(Term::var("x", Sort::Int).minus(Term::int(1))),
                ),
            ),
        );
        env.add_var(
            "leq",
            RType::fun_n(
                vec![("x".into(), RType::int()), ("y".into(), RType::int())],
                RType::refined(
                    BaseType::Bool,
                    Term::value_var(Sort::Bool)
                        .iff(Term::var("x", Sort::Int).le(Term::var("y", Sort::Int))),
                ),
            ),
        );
    }

    fn base_env() -> Environment {
        let mut env = Environment::new();
        env.add_qualifiers(Qualifier::standard(Sort::Int));
        env
    }

    #[test]
    fn synthesizes_the_identity_like_projection() {
        // max-of-one: n: Int → {Int | ν = n} should synthesize `n`.
        let env = base_env();
        let goal = Goal::new(
            "id",
            env,
            Schema::monotype(RType::fun(
                "n",
                RType::int(),
                RType::refined(
                    BaseType::Int,
                    Term::value_var(Sort::Int).eq(Term::var("n", Sort::Int)),
                ),
            )),
        );
        let mut syn = Synthesizer::new(SynthesisConfig::default());
        let result = syn.synthesize(&goal).expect("id should synthesize");
        assert_eq!(result.program.to_string(), "\\n . n");
    }

    #[test]
    fn synthesizes_successor_with_a_component() {
        // n: Int → {Int | ν = n + 1} requires applying inc.
        let mut env = base_env();
        int_components(&mut env);
        let goal = Goal::new(
            "succ",
            env,
            Schema::monotype(RType::fun(
                "n",
                RType::int(),
                RType::refined(
                    BaseType::Int,
                    Term::value_var(Sort::Int).eq(Term::var("n", Sort::Int).plus(Term::int(1))),
                ),
            )),
        );
        let mut syn = Synthesizer::new(SynthesisConfig::default());
        let result = syn.synthesize(&goal).expect("succ should synthesize");
        assert_eq!(result.program.to_string(), "\\n . inc n");
    }

    #[test]
    fn ablations_synthesize_the_same_program_with_different_effort() {
        // Every ablation variant must still find `inc n` — the switches
        // trade search effort, never soundness or completeness on a goal
        // this small. T-nrt (no round-trip shape pruning) must generate
        // strictly more candidates than the default, which proves the
        // flag is actually wired into the new enumeration.
        let build = || {
            let mut env = base_env();
            int_components(&mut env);
            Goal::new(
                "succ",
                env,
                Schema::monotype(RType::fun(
                    "n",
                    RType::int(),
                    RType::refined(
                        BaseType::Int,
                        Term::value_var(Sort::Int).eq(Term::var("n", Sort::Int).plus(Term::int(1))),
                    ),
                )),
            )
        };
        let mut default_syn = Synthesizer::new(SynthesisConfig::default());
        let default_result = default_syn.synthesize(&build()).expect("default solves");
        for config in [
            SynthesisConfig::default().without_round_trip(),
            SynthesisConfig::default().without_consistency(),
            SynthesisConfig::default().without_musfix(),
            SynthesisConfig::default().without_memoization(),
        ] {
            let no_round_trip = !config.round_trip;
            let mut syn = Synthesizer::new(config);
            let result = syn.synthesize(&build()).expect("ablation still solves");
            assert_eq!(result.program, default_result.program);
            if no_round_trip {
                assert!(
                    result.stats.terms_enumerated > default_result.stats.terms_enumerated,
                    "T-nrt must expand ill-shaped heads the default prunes \
                     (the flag would be dead): {} vs {}",
                    result.stats.terms_enumerated,
                    default_result.stats.terms_enumerated
                );
            }
        }
        assert!(
            default_syn.stats().pruned_early > 0,
            "the default configuration prunes ill-shaped heads early"
        );
    }

    #[test]
    fn synthesizes_max_of_two_with_liquid_abduction() {
        // max2 :: x: Int → y: Int → {Int | ν ≥ x ∧ ν ≥ y ∧ (ν = x ∨ ν = y)}
        let mut env = base_env();
        int_components(&mut env);
        let nu = || Term::value_var(Sort::Int);
        let x = || Term::var("x", Sort::Int);
        let y = || Term::var("y", Sort::Int);
        let ret = RType::refined(
            BaseType::Int,
            nu().ge(x())
                .and(nu().ge(y()))
                .and(nu().eq(x()).or(nu().eq(y()))),
        );
        let goal = Goal::new(
            "max2",
            env,
            Schema::monotype(RType::fun_n(
                vec![("x".into(), RType::int()), ("y".into(), RType::int())],
                ret,
            )),
        );
        let mut syn = Synthesizer::new(SynthesisConfig::default());
        let result = syn.synthesize(&goal).expect("max2 should synthesize");
        let text = result.program.to_string();
        assert!(text.contains("if"), "expected a conditional, got:\n{text}");
        assert!(result.stats.branches_abduced >= 1);
        // Both branches return one of the arguments.
        assert!(text.contains('x') && text.contains('y'));
    }

    #[test]
    fn rejects_goals_with_no_solution() {
        // n: Int → {Int | ν = n + 2} with only `inc` available at depth 1.
        let mut env = base_env();
        int_components(&mut env);
        let goal = Goal::new(
            "plus-two",
            env,
            Schema::monotype(RType::fun(
                "n",
                RType::int(),
                RType::refined(
                    BaseType::Int,
                    Term::value_var(Sort::Int).eq(Term::var("n", Sort::Int).plus(Term::int(2))),
                ),
            )),
        );
        let config = SynthesisConfig {
            max_app_depth: 1,
            max_match_depth: 0,
            ..SynthesisConfig::default()
        };
        let mut syn = Synthesizer::new(config);
        assert!(matches!(
            syn.synthesize(&goal),
            Err(SynthesisError::NoSolution(_))
        ));
        // With depth 2 it becomes solvable: inc (inc n).
        let mut env = base_env();
        int_components(&mut env);
        let goal = Goal::new(
            "plus-two",
            env,
            Schema::monotype(RType::fun(
                "n",
                RType::int(),
                RType::refined(
                    BaseType::Int,
                    Term::value_var(Sort::Int).eq(Term::var("n", Sort::Int).plus(Term::int(2))),
                ),
            )),
        );
        let mut syn = Synthesizer::new(SynthesisConfig::default());
        let result = syn.synthesize(&goal).expect("plus-two at depth 2");
        assert_eq!(result.program.to_string(), "\\n . inc (inc n)");
    }

    #[test]
    fn synthesizes_list_head_preserving_polymorphism() {
        // A monomorphic projection through a datatype: given xs with
        // len xs = 0 in the environment, the goal {List a | len ν = 0}
        // is satisfied by xs itself (no constructors needed).
        let mut env = base_env();
        env.add_datatype(list_datatype());
        let list_sort = Sort::data("List", vec![Sort::var("a")]);
        let len_v = Term::app("len", vec![Term::value_var(list_sort.clone())], Sort::Int);
        env.add_var(
            "xs",
            RType::refined(
                BaseType::Data("List".into(), vec![RType::tyvar("a")]),
                len_v.clone().eq(Term::int(0)),
            ),
        );
        let goal = Goal::new(
            "empty_copy",
            env,
            Schema::forall(
                vec!["a".to_string()],
                RType::refined(
                    BaseType::Data("List".into(), vec![RType::tyvar("a")]),
                    len_v.eq(Term::int(0)),
                ),
            ),
        );
        let mut syn = Synthesizer::new(SynthesisConfig::default());
        let result = syn.synthesize(&goal).expect("should reuse xs or Nil");
        let text = result.program.to_string();
        assert!(text == "xs" || text == "Nil", "got {text}");
    }
}
