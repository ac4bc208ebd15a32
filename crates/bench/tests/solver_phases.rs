//! Solver-fixture phase splits cover every fixture kind. Profiling is
//! process-global, so this check runs in its own test binary.

use synquid_bench::solver_bench::run_all;

#[test]
fn every_solver_fixture_carries_a_phase_profile() {
    synquid_telemetry::set_profiling(true);
    for result in run_all(1) {
        assert!(
            !result.phases.is_empty(),
            "fixture {} recorded no phases",
            result.name
        );
    }
}
