//! Synthesizer configuration, including the ablation switches evaluated in
//! the paper (Table 1: T-nrt, T-ncc, T-nmus) and exploration bounds
//! (Sec. 4.2: T-all vs T-def).

use std::time::Duration;

/// Configuration of the synthesis procedure.
#[derive(Debug, Clone)]
pub struct SynthesisConfig {
    /// Maximum nesting depth of applications in enumerated E-terms.
    pub max_app_depth: usize,
    /// Maximum nesting depth of pattern matches.
    pub max_match_depth: usize,
    /// Enable round-trip type checking (early subtyping checks on partial
    /// applications). Disabling reproduces the T-nrt ablation.
    pub round_trip: bool,
    /// Enable type-consistency checks on partial applications. Disabling
    /// reproduces the T-ncc ablation.
    pub consistency: bool,
    /// Use MUSFIX for fixpoint strengthening. Disabling switches to the
    /// naive breadth-first backend (the T-nmus ablation).
    pub use_musfix: bool,
    /// Memoize E-term generation in the run's `EnumerationCache` so
    /// candidate sets are built once per `(environment, shape, depth)`
    /// and reused across deepening iterations, abduction rounds, guard
    /// syntheses, and (through a shared `SolverContext`) portfolio rungs.
    /// Disabling regenerates every set from scratch; results are
    /// byte-identical either way, only slower.
    pub memoize: bool,
    /// Persist learned theory conflicts in the SMT backend across
    /// queries (incremental DPLL(T)). Disabling re-solves every query
    /// from scratch. Persisted lemmas are sound theory facts, so no
    /// `Sat`/`Unsat` verdict can differ; the one asymmetry is a query
    /// that would exhaust its DPLL(T)-iteration or LIA-branch budget
    /// from scratch — replayed lemmas can prune enough models to decide
    /// it (`Unknown` → `Unsat`), making strictly *more* proofs succeed,
    /// never fewer.
    pub incremental_smt: bool,
    /// Keep one warm simplex tableau per DPLL(T) query in the LIA
    /// backend (bounds asserted/retracted over a push/pop stack instead
    /// of rebuilding the tableau for every theory check), plus the
    /// shared-encoding MUS oracle that rides on it. Disabling gives the
    /// from-scratch per-check baseline. Verdicts are identical either
    /// way — backtracking restores exactly the bounds each check
    /// asserted — so this flag exists for the differential fuzz oracle
    /// and A/B benchmarking, not for correctness workarounds.
    pub incremental_lia: bool,
    /// Wall-clock timeout for one synthesis goal.
    pub timeout: Duration,
}

impl Default for SynthesisConfig {
    fn default() -> Self {
        SynthesisConfig {
            max_app_depth: 3,
            max_match_depth: 1,
            round_trip: true,
            consistency: true,
            use_musfix: true,
            memoize: true,
            incremental_smt: true,
            incremental_lia: true,
            timeout: Duration::from_secs(120),
        }
    }
}

impl SynthesisConfig {
    /// The default configuration with a different timeout.
    pub fn with_timeout(timeout: Duration) -> SynthesisConfig {
        SynthesisConfig {
            timeout,
            ..SynthesisConfig::default()
        }
    }

    /// The T-nrt ablation: bidirectional checking only (no early subtyping
    /// checks on partial applications).
    pub fn without_round_trip(mut self) -> SynthesisConfig {
        self.round_trip = false;
        self
    }

    /// The T-ncc ablation: no type-consistency checks.
    pub fn without_consistency(mut self) -> SynthesisConfig {
        self.consistency = false;
        self
    }

    /// The T-nmus ablation: naive breadth-first strengthening instead of
    /// MUSFIX.
    pub fn without_musfix(mut self) -> SynthesisConfig {
        self.use_musfix = false;
        self
    }

    /// Disables the E-term enumeration memo (every candidate set is
    /// regenerated from scratch). Used by the regression tests to prove
    /// memoization changes timing only, never results.
    pub fn without_memoization(mut self) -> SynthesisConfig {
        self.memoize = false;
        self
    }

    /// Disables incremental DPLL(T) (cross-query theory-conflict
    /// persistence in the SMT backend). Used by the regression tests to
    /// check incremental solving against from-scratch solving on goals
    /// whose queries are decided within budget (where the results must
    /// be byte-identical; see [`SynthesisConfig::incremental_smt`] for
    /// the budget-boundary asymmetry).
    pub fn without_incremental_smt(mut self) -> SynthesisConfig {
        self.incremental_smt = false;
        self
    }

    /// Disables the warm incremental-LIA tableau (every theory check
    /// rebuilds the simplex tableau from scratch). Used by the
    /// differential fuzz oracle and the solver microbenchmarks to pin
    /// warm-vs-cold verdict equivalence and speedups; see
    /// [`SynthesisConfig::incremental_lia`].
    pub fn without_incremental_lia(mut self) -> SynthesisConfig {
        self.incremental_lia = false;
        self
    }

    /// Per-benchmark exploration bounds (the T-all column of Table 1 uses
    /// minimal bounds per benchmark; T-def shares bounds per group).
    pub fn with_bounds(mut self, app_depth: usize, match_depth: usize) -> SynthesisConfig {
        self.max_app_depth = app_depth;
        self.max_match_depth = match_depth;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_enables_all_features() {
        let c = SynthesisConfig::default();
        assert!(c.round_trip && c.consistency && c.use_musfix);
    }

    #[test]
    fn ablation_builders_flip_single_flags() {
        let c = SynthesisConfig::default().without_round_trip();
        assert!(!c.round_trip && c.consistency && c.use_musfix);
        let c = SynthesisConfig::default().without_consistency();
        assert!(c.round_trip && !c.consistency && c.use_musfix);
        let c = SynthesisConfig::default().without_musfix();
        assert!(c.round_trip && c.consistency && !c.use_musfix);
    }

    #[test]
    fn bounds_builder_sets_depths() {
        let c = SynthesisConfig::default().with_bounds(5, 2);
        assert_eq!(c.max_app_depth, 5);
        assert_eq!(c.max_match_depth, 2);
    }
}
