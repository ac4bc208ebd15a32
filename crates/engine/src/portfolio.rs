//! Portfolio search over iterative-deepening rungs, governed by a
//! per-goal **budget ledger**.
//!
//! The CLI used to walk the exploration-bound ladder sequentially:
//! shallow searches that exhaust their space hand the remaining budget to
//! the next rung. The engine turns the rungs of one goal into *competing
//! jobs* under a shared per-goal budget: every rung runs the same
//! deterministic single-rung search it would have run sequentially, and
//! the **lowest rung that solves wins**. When a rung wins, every deeper
//! sibling is cancelled through its [`CancellationToken`]; shallower
//! siblings are left to finish, because one of them could still produce a
//! better (lower-rung) winner.
//!
//! ## The ledger
//!
//! Budgets used to be a wall-clock deadline armed when the goal first got
//! a worker, with every rung's run bounded by "time until the deadline".
//! That had two failure modes the benchmark artifacts exposed: a doomed
//! shallow rung could silently eat the whole budget (the deepest rungs
//! were then declared "out of budget" after microsecond scraps, and the
//! goal reported a 0.5 s "timeout" of a 30 s budget), and nothing stopped
//! a rung from overshooting the deadline inside a long SMT call.
//!
//! The ledger instead tracks **consumption**, and its whole state machine
//! is two calls. [`Portfolio::claim`] decides what a rung does next: a
//! rung whose token a shallower winner cancelled is recorded cancelled,
//! a rung that a completed failure *proves equivalent* (`skippable`) is
//! skipped, and any other rung may reserve a bounded *slice* of what is
//! left — on first attempt an even share, `remaining / pending rungs`
//! (the whole remainder for the last pending rung), so an unknown-doomed
//! shallow rung cannot eat the deeper rungs' first chance. Slices are
//! *reserved* while a rung runs so concurrent attempts cannot overcommit
//! the budget. An empty slice never runs: a claim whose slice is zero or
//! below the minimum parks while a sibling is running (its refund may
//! fund the claim) and is otherwise recorded out of budget.
//!
//! [`Portfolio::finish`] releases the reservation and charges exactly the
//! wall time the attempt measured. A rung cut off at its slice is not
//! finished — it is re-queued while a positive slice is still possible or
//! a sibling is running, and re-lent whatever budget its *shallower*
//! siblings leave behind (`slice_for`): once everything shallower is
//! settled, the lowest unfinished rung is the sequential ladder's current
//! position and inherits the remainder outright (repeated attempts are
//! cheap because the enumeration memo and the shared validity cache are
//! warm, but fewer, larger slices still beat thrashing). A rung that
//! finishes under its slice refunds the rest by construction.
//!
//! The outcome report ([`Portfolio::outcome`]) is honest: a goal is
//! `timed_out` only if some rung actually ran out of the goal's budget,
//! and the reported time is the goal's total consumption — never a scrap
//! measured by the last unluckiest rung.

use crate::scheduler::{GoalJob, GoalOutcome};
use std::time::Duration;
use synquid_core::CancellationToken;
use synquid_lang::runner::RunResult;

/// The default exploration-bound ladder `(application depth, match
/// depth)`, shallowest first — the same rungs the sequential CLI used.
pub const DEFAULT_RUNGS: &[(usize, usize)] = &[(1, 0), (1, 1), (2, 1), (3, 1), (3, 2)];

/// How one rung of a goal's portfolio ended.
#[derive(Debug, Clone)]
enum RungOutcome {
    /// The rung ran to completion (solved or exhausted its search space);
    /// boxed: the other variants are unit-sized.
    Finished(Box<RunResult>),
    /// The rung was cancelled before or while running because a
    /// shallower sibling won.
    Cancelled,
    /// A completed sibling failure proved this rung's search would be
    /// identical; it never ran.
    Skipped,
    /// The goal's budget was consumed before the rung could finish
    /// (pure budget exhaustion, no winner involved).
    OutOfBudget,
}

/// What [`Portfolio::claim`] decided for a rung.
#[derive(Debug)]
pub enum Claim {
    /// Run the rung within `slice`, which stays reserved until
    /// [`Portfolio::finish`]; `token` is cancelled if a shallower sibling
    /// wins meanwhile.
    Run {
        /// The reserved share of the goal's budget.
        slice: Duration,
        /// The rung's cancellation token.
        token: CancellationToken,
    },
    /// No slice can be funded now, but a running sibling may refund one:
    /// queue the rung behind its siblings and claim it again.
    Park,
    /// A shallower sibling solved; recorded as cancelled.
    Cancelled,
    /// A completed failure proves the rung's search identical; recorded
    /// as skipped.
    Skipped,
    /// No slice can be funded and no sibling is running; recorded as out
    /// of budget.
    OutOfBudget,
}

/// Book-keeping for the portfolio of one goal: one slot and one
/// cancellation token per rung, plus the budget ledger.
#[derive(Debug)]
pub struct Portfolio {
    /// The exploration bounds of each rung, shallowest first.
    pub rungs: Vec<(usize, usize)>,
    tokens: Vec<CancellationToken>,
    outcomes: Vec<Option<RungOutcome>>,
    in_flight: Vec<bool>,
    /// How many attempts each rung has started (a truncated rung is
    /// re-queued, so counts above one mean re-lent budget).
    attempts: Vec<usize>,
    budget: Duration,
    /// Wall time charged by completed (and truncated) rung attempts.
    consumed: Duration,
    /// Slices reserved by attempts currently running.
    reserved: Duration,
    /// When false, every claim gets the full remaining budget and no
    /// rung is ever skipped — the pre-ledger behaviour, kept for the
    /// shaping-parity regression tests and the `without_shaping` fuzz
    /// ablation.
    shaping: bool,
}

impl Portfolio {
    /// Creates the portfolio state for one goal; `shaping` turns slice
    /// rationing and equivalence skipping on.
    pub fn new(rungs: Vec<(usize, usize)>, budget: Duration, shaping: bool) -> Portfolio {
        let n = rungs.len();
        Portfolio {
            rungs,
            tokens: (0..n).map(|_| CancellationToken::new()).collect(),
            outcomes: vec![None; n],
            in_flight: vec![false; n],
            attempts: vec![0; n],
            budget,
            consumed: Duration::ZERO,
            reserved: Duration::ZERO,
            shaping,
        }
    }

    /// Budget not yet consumed and not reserved by running attempts.
    pub fn available(&self) -> Duration {
        self.budget
            .saturating_sub(self.consumed)
            .saturating_sub(self.reserved)
    }

    /// Decides what `rung`, just taken off the queue, does next. A
    /// [`Claim::Run`] has its slice reserved; `Cancelled`, `Skipped` and
    /// `OutOfBudget` are recorded as the rung's final outcome; a
    /// [`Claim::Park`] records nothing.
    pub fn claim(&mut self, rung: usize) -> Claim {
        if self.tokens[rung].is_cancelled() {
            // Every solved finish cancels the tokens of all deeper rungs.
            self.outcomes[rung] = Some(RungOutcome::Cancelled);
            return Claim::Cancelled;
        }
        if self.skippable(rung) {
            self.outcomes[rung] = Some(RungOutcome::Skipped);
            return Claim::Skipped;
        }
        let slice = self.slice_for(rung);
        if !self.fundable(slice) {
            if self.any_in_flight() {
                return Claim::Park;
            }
            self.outcomes[rung] = Some(RungOutcome::OutOfBudget);
            return Claim::OutOfBudget;
        }
        self.in_flight[rung] = true;
        self.attempts[rung] += 1;
        self.reserved += slice;
        Claim::Run {
            slice,
            token: self.tokens[rung].clone(),
        }
    }

    /// Settles an attempt on `rung` that [`Portfolio::claim`] reserved
    /// `slice` for: the reservation is released and the measured
    /// `elapsed` time is charged, even where it overshoots the slice.
    ///
    /// A run that completed (solved, or genuinely exhausted its search
    /// space — the synthesizer reports budget-truncated exhaustion as a
    /// timeout) is recorded finished, and a solve cancels every deeper
    /// rung. A truncated run is recorded cancelled if a shallower sibling
    /// won; otherwise it asks to be re-queued while a positive slice is
    /// still possible or a sibling is running, and is out of budget once
    /// neither holds. Returns the charge and whether to re-queue.
    pub fn finish(
        &mut self,
        rung: usize,
        slice: Duration,
        elapsed: Duration,
        result: RunResult,
    ) -> (Duration, bool) {
        debug_assert!(self.in_flight[rung]);
        self.in_flight[rung] = false;
        self.reserved = self.reserved.saturating_sub(slice);
        self.consumed += elapsed;
        let outcome = if !result.timed_out {
            if result.solved {
                // Shallower rungs keep running: one of them could still
                // produce the winning, lower-rung solution.
                for token in &self.tokens[rung + 1..] {
                    token.cancel();
                }
            }
            RungOutcome::Finished(Box::new(result))
        } else if self.tokens[rung].is_cancelled() {
            RungOutcome::Cancelled
        } else if self.fundable(self.available()) || self.any_in_flight() {
            return (elapsed, true);
        } else {
            RungOutcome::OutOfBudget
        };
        self.outcomes[rung] = Some(outcome);
        (elapsed, false)
    }

    /// The aggregated outcome of `job`'s complete portfolio: the result
    /// of the *lowest* rung that solved or — mirroring the sequential
    /// ladder's reporting — the deepest finished failure, with the rung
    /// counts and the ledger's consumption. An unsolved goal reports
    /// that consumption as its time, and times out only if some rung ran
    /// out of the goal's budget.
    pub fn outcome(&self, job: &GoalJob) -> GoalOutcome {
        debug_assert!(self.outcomes.iter().all(Option::is_some));
        let winner = self.finished().find(|(_, r)| r.solved);
        let consumed_secs = self.consumed.as_secs_f64();
        let mut result = match winner.or_else(|| self.finished().last()) {
            Some((_, r)) => r.clone(),
            None => RunResult {
                name: job.goal.name.clone(),
                solved: false,
                timed_out: true,
                time_secs: 0.0,
                program: None,
                ast: None,
                code_size: None,
                stats: None,
            },
        };
        let rungs_out_of_budget = self.count(|o| matches!(o, RungOutcome::OutOfBudget));
        if !result.solved {
            result.timed_out = rungs_out_of_budget > 0;
            result.time_secs = consumed_secs;
        }
        GoalOutcome {
            source: job.source.clone(),
            result,
            winning_rung: winner.map(|(i, _)| self.rungs[i]),
            rungs_run: self.finished().count(),
            rungs_cancelled: self.count(|o| matches!(o, RungOutcome::Cancelled)),
            rungs_skipped: self.count(|o| matches!(o, RungOutcome::Skipped)),
            rungs_out_of_budget,
            consumed_secs,
        }
    }

    /// The rungs that ran to completion, shallowest first.
    fn finished(&self) -> impl Iterator<Item = (usize, &RunResult)> {
        self.outcomes
            .iter()
            .enumerate()
            .filter_map(|(i, o)| match o {
                Some(RungOutcome::Finished(r)) => Some((i, r.as_ref())),
                _ => None,
            })
    }

    /// Number of rungs whose recorded outcome satisfies `kind`.
    fn count(&self, kind: impl Fn(&RungOutcome) -> bool) -> usize {
        self.outcomes.iter().flatten().filter(|o| kind(o)).count()
    }

    /// True if `slice` is worth starting a rung attempt for: non-empty
    /// and at least the minimum slice, below which a claim is budget
    /// exhaustion rather than thrashing through micro-slices.
    fn fundable(&self, slice: Duration) -> bool {
        !slice.is_zero() && slice >= (self.budget / 16).min(Duration::from_millis(250))
    }

    /// True if any sibling attempt is currently running.
    fn any_in_flight(&self) -> bool {
        self.in_flight.iter().any(|f| *f)
    }

    /// Rungs in `range` with no final outcome that are not running.
    fn pending(&self, range: std::ops::Range<usize>) -> u32 {
        range
            .filter(|&i| self.outcomes[i].is_none() && !self.in_flight[i])
            .count() as u32
    }

    /// The slice a claim on `rung` may reserve.
    ///
    /// A rung's *first* attempt gets an even share of the available
    /// budget across all pending rungs (the whole remainder for the last
    /// one), so an unknown-doomed shallow rung cannot silently eat the
    /// deeper rungs' first chance. A *retried* rung (truncated at an
    /// earlier slice) instead shares only with pending rungs
    /// **shallower** than itself: once every shallower sibling is
    /// settled, the lowest unfinished rung is the sequential ladder's
    /// current position and inherits the whole remainder — this is the
    /// "unsolved goals re-lend unused budget to deeper rungs" rule, and
    /// it keeps a budget-bound rung from being thrashed through
    /// ever-smaller slices (each re-run replays its memoized prefix, so
    /// fewer, larger slices waste less). Without shaping, always the
    /// whole remainder.
    fn slice_for(&self, rung: usize) -> Duration {
        let available = self.available();
        if !self.shaping {
            return available;
        }
        let sharers = if self.attempts[rung] == 0 {
            self.pending(0..self.rungs.len())
        } else {
            1 + self.pending(0..rung)
        };
        available / sharers.max(1)
    }

    /// True if a completed genuine failure proves `rung`'s search would
    /// be identical, so running it cannot change the goal's outcome.
    ///
    /// A failed run at bounds `(a, m)` reports two facts: whether the
    /// candidate universe was still growing at application depth `a`
    /// (`frontier_open`), and whether the match-depth bound `m` ever
    /// declined a possible match (`match_bound_hit`). Generation at depth
    /// `d` extends the depth `d − 1` sets, so a closed frontier means
    /// every deeper depth enumerates the very same candidates; an unhit
    /// match bound means a deeper match bound changes nothing either.
    /// A later rung `(a', m')` with `a' ≥ a`, `m' ≥ m` therefore re-runs
    /// the identical deterministic search — and must fail identically —
    /// whenever each bound that actually differs is one the failed run
    /// proved irrelevant. A failure without stats proves nothing: both
    /// of its bounds stay binding.
    fn skippable(&self, rung: usize) -> bool {
        if !self.shaping {
            return false;
        }
        let (a_j, m_j) = self.rungs[rung];
        self.finished().filter(|(_, r)| !r.solved).any(|(i, r)| {
            let (a_i, m_i) = self.rungs[i];
            let (frontier_open, match_bound_hit) = r
                .stats
                .as_ref()
                .map_or((true, true), |s| (s.frontier_open, s.match_bound_hit));
            a_j >= a_i
                && m_j >= m_i
                && (a_j == a_i || !frontier_open)
                && (m_j == m_i || !match_bound_hit)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synquid_core::SynthesisStats;

    fn secs(s: u64) -> Duration {
        Duration::from_secs(s)
    }

    fn ms(m: u64) -> Duration {
        Duration::from_millis(m)
    }

    fn result(name: &str, solved: bool) -> RunResult {
        RunResult {
            name: name.into(),
            solved,
            timed_out: false,
            time_secs: 0.0,
            program: solved.then(|| format!("{name}-program")),
            ast: None,
            code_size: None,
            stats: None,
        }
    }

    /// A run cut off at its slice.
    fn truncated(name: &str) -> RunResult {
        RunResult {
            timed_out: true,
            ..result(name, false)
        }
    }

    fn failure_with_flags(name: &str, frontier_open: bool, match_bound_hit: bool) -> RunResult {
        RunResult {
            stats: Some(SynthesisStats {
                frontier_open,
                match_bound_hit,
                ..SynthesisStats::default()
            }),
            ..result(name, false)
        }
    }

    fn job() -> GoalJob {
        GoalJob::new(
            "test",
            synquid_core::Goal::new(
                "g",
                synquid_types::Environment::new(),
                synquid_types::Schema::monotype(synquid_types::RType::int()),
            ),
        )
    }

    /// Claims `rung`, which must be granted a slice.
    fn run(p: &mut Portfolio, rung: usize) -> (Duration, CancellationToken) {
        match p.claim(rung) {
            Claim::Run { slice, token } => (slice, token),
            other => panic!("rung {rung} must run, got {other:?}"),
        }
    }

    /// Claims `rung` and finishes it after `elapsed` with `result`;
    /// returns whether it asks to be re-queued.
    fn attempt(p: &mut Portfolio, rung: usize, elapsed: Duration, result: RunResult) -> bool {
        let (slice, _) = run(p, rung);
        p.finish(rung, slice, elapsed, result).1
    }

    #[test]
    fn lowest_solved_rung_wins_regardless_of_finish_order() {
        let mut p = Portfolio::new(DEFAULT_RUNGS.to_vec(), secs(10), true);
        // Rungs 0–2 are running when the deep rung 3 finishes first and
        // solves.
        let (s0, t0) = run(&mut p, 0);
        let (s1, t1) = run(&mut p, 1);
        let (s2, t2) = run(&mut p, 2);
        assert!(!attempt(&mut p, 3, ms(10), result("deep", true)));
        assert!(
            !t0.is_cancelled() && !t1.is_cancelled() && !t2.is_cancelled(),
            "shallower rungs must keep running"
        );
        assert!(
            matches!(p.claim(4), Claim::Cancelled),
            "deeper rungs get cancelled"
        );
        // The shallow solve wins and cancels rung 2 in its turn.
        p.finish(1, s1, ms(10), result("shallow", true));
        assert!(t2.is_cancelled());
        p.finish(0, s0, ms(10), result("r0", false));
        assert!(!p.finish(2, s2, ms(10), truncated("r2")).1);
        let outcome = p.outcome(&job());
        assert_eq!(outcome.result.program.as_deref(), Some("shallow-program"));
        assert_eq!(outcome.winning_rung, Some((1, 1)));
        assert_eq!(outcome.rungs_run, 3);
        assert_eq!(outcome.rungs_cancelled, 2);
    }

    #[test]
    fn all_failures_report_the_deepest_finished_rung() {
        let mut p = Portfolio::new(vec![(1, 0), (2, 1)], secs(10), true);
        attempt(&mut p, 0, ms(10), result("r0", false));
        attempt(&mut p, 1, ms(10), result("r1", false));
        let outcome = p.outcome(&job());
        assert_eq!(outcome.result.name, "r1");
        assert_eq!(outcome.winning_rung, None);
        assert!(
            !outcome.result.timed_out,
            "exhaustion is not budget overrun"
        );
    }

    #[test]
    fn the_ledger_charges_measured_time_and_refunds_reservations() {
        let mut p = Portfolio::new(DEFAULT_RUNGS.to_vec(), secs(30), true);
        // First claim: an even share of the full budget.
        let (slice, _) = run(&mut p, 0);
        assert_eq!(slice, secs(6));
        assert_eq!(p.available(), secs(24));
        // The rung fails fast: only the measured time is charged; the
        // rest of its reservation flows back to the pool.
        let (charged, requeue) = p.finish(0, slice, ms(100), result("r0", false));
        assert_eq!((charged, requeue), (ms(100), false));
        assert_eq!(p.consumed, ms(100));
        // Four rungs remain: each share grew beyond the original 6 s.
        assert!(p.slice_for(1) > secs(7));
        // The last pending rung gets everything that is left.
        for rung in 1..4 {
            attempt(&mut p, rung, ms(100), result("r", false));
        }
        assert_eq!(p.slice_for(4), p.available());
    }

    #[test]
    fn closed_frontier_failures_prove_deeper_rungs_equivalent() {
        let mut p = Portfolio::new(DEFAULT_RUNGS.to_vec(), secs(30), true);
        // Rung (1, 0) fails with a closed frontier and no declined match:
        // every deeper rung would rerun the identical search.
        attempt(&mut p, 0, ms(10), failure_with_flags("r0", false, false));
        for rung in 1..DEFAULT_RUNGS.len() {
            assert!(p.skippable(rung), "rung {rung} must be skippable");
            assert!(matches!(p.claim(rung), Claim::Skipped));
        }
        assert_eq!(p.outcome(&job()).rungs_skipped, DEFAULT_RUNGS.len() - 1);
    }

    #[test]
    fn binding_bounds_block_the_skip() {
        let mut p = Portfolio::new(DEFAULT_RUNGS.to_vec(), secs(30), true);
        // (1, 0) failed, but a match was declined: only rungs with the
        // same match depth may be skipped (none in the ladder), and once
        // the frontier is open too, nothing may be.
        attempt(&mut p, 0, ms(10), failure_with_flags("r0", false, true));
        assert!(!p.skippable(1), "deeper match depth could matter");
        attempt(&mut p, 1, ms(10), failure_with_flags("r1", true, false));
        // (2, 1) has a deeper app depth than (1, 1) whose frontier is
        // open — not skippable; (3, 1) likewise.
        assert!(!p.skippable(2));
        assert!(!p.skippable(3));
        // A failure without stats proves nothing.
        let mut q = Portfolio::new(DEFAULT_RUNGS.to_vec(), secs(30), true);
        attempt(&mut q, 0, ms(10), result("r0", false));
        assert!(!q.skippable(1));
    }

    #[test]
    fn retried_rungs_inherit_the_ladder_remainder() {
        let mut p = Portfolio::new(DEFAULT_RUNGS.to_vec(), secs(30), true);
        // First claims get the fair even share.
        assert_eq!(p.slice_for(2), secs(6));
        // Rungs 0–2 settle (0 and 1 finish, 2 is truncated at its slice
        // and asks to be re-queued).
        for rung in 0..2 {
            attempt(&mut p, rung, ms(500), result("r", false));
        }
        assert!(attempt(&mut p, 2, secs(9), truncated("r2")));
        // Rung 2's retry shares with no shallower pending rung: the whole
        // 20 s remainder is re-lent to it, not split with rungs 3 and 4
        // (which still get their fair first share if rung 2 exhausts).
        assert_eq!(p.slice_for(2), secs(20));
        // Rungs 3 and 4 have not started: their first claim stays fair.
        assert_eq!(p.slice_for(3), secs(20) / 3);
        assert_eq!(run(&mut p, 2).0, secs(20));
    }

    #[test]
    fn shaping_off_disables_slices_and_skips() {
        let mut p = Portfolio::new(DEFAULT_RUNGS.to_vec(), secs(30), false);
        let (slice, _) = run(&mut p, 0);
        assert_eq!(slice, secs(30), "full remainder");
        p.finish(0, slice, ms(10), failure_with_flags("r0", false, false));
        assert!(!p.skippable(1));
        assert!(matches!(p.claim(1), Claim::Run { .. }));
    }

    #[test]
    fn out_of_budget_is_distinct_from_cancellation() {
        let mut p = Portfolio::new(vec![(1, 0), (2, 1), (3, 2)], secs(10), true);
        // Rung 0 burned the whole budget; the rest never ran. No winner
        // was involved, so nothing counts as "cancelled".
        attempt(&mut p, 0, secs(10), result("r0", false));
        assert!(matches!(p.claim(1), Claim::OutOfBudget));
        assert!(matches!(p.claim(2), Claim::OutOfBudget));
        let outcome = p.outcome(&job());
        assert_eq!(outcome.rungs_run, 1);
        assert_eq!(outcome.rungs_cancelled, 0);
        assert_eq!(outcome.rungs_out_of_budget, 2);
        assert!(outcome.result.timed_out);
        assert_eq!(outcome.result.name, "r0");
        assert_eq!(outcome.winning_rung, None);
    }

    #[test]
    fn a_zero_budget_runs_no_rung() {
        for shaping in [true, false] {
            let mut p = Portfolio::new(DEFAULT_RUNGS.to_vec(), Duration::ZERO, shaping);
            for rung in 0..DEFAULT_RUNGS.len() {
                assert!(
                    matches!(p.claim(rung), Claim::OutOfBudget),
                    "rung {rung} (shaping {shaping}) must not run"
                );
            }
            let outcome = p.outcome(&job());
            assert_eq!(outcome.rungs_out_of_budget, DEFAULT_RUNGS.len());
            assert_eq!(outcome.rungs_run, 0);
            assert!(outcome.result.timed_out && !outcome.result.solved);
            assert_eq!(outcome.consumed_secs, 0.0);
        }
    }

    #[test]
    fn a_starved_claim_parks_until_no_sibling_runs() {
        let mut p = Portfolio::new(vec![(1, 0), (2, 1)], secs(1), true);
        let (s0, _) = run(&mut p, 0);
        let (s1, _) = run(&mut p, 1);
        // Rung 1 overshoots; the budget is gone, but rung 0's refund may
        // re-fund it, so it asks to be re-queued and parks on its claim.
        assert!(p.finish(1, s1, ms(970), truncated("r1")).1);
        assert!(matches!(p.claim(1), Claim::Park));
        // Rung 0 exhausts and leaves less than the minimum slice behind:
        // with no sibling in flight the parked rung is out of budget.
        assert!(!p.finish(0, s0, ms(10), result("r0", false)).1);
        assert!(p.available() < ms(62));
        assert!(matches!(p.claim(1), Claim::OutOfBudget));
        let outcome = p.outcome(&job());
        assert_eq!((outcome.rungs_run, outcome.rungs_out_of_budget), (1, 1));
        assert!(outcome.result.timed_out);
    }
}
