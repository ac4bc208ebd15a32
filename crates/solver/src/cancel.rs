//! The one stop rule of a synthesis run, observed all the way down in
//! the simplex.
//!
//! A single liquid-abduction round can spend tens of seconds inside one
//! fixpoint strengthening — thousands of SMT queries — so a budget that
//! is checked only *between* queries overshoots per-goal budgets by
//! minutes. A [`Budget`] (an optional wall-clock deadline plus a
//! [`CancellationToken`]) is therefore polled at three places: the
//! synthesizer's checks between candidates, every DPLL(T) step of
//! [`crate::smt::Smt`], and every branch-and-bound node of
//! [`crate::lia::IncrementalLia`]. That bounds a goal's overshoot to one
//! simplex solve.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A cooperative cancellation flag shared between the thread driving a
/// synthesis run and whoever may want to stop it early (the portfolio
/// scheduler cancels losing rungs; a frontend may cancel on user
/// interrupt). Observed through the run's [`Budget`], and surfaces as a
/// timeout.
#[derive(Debug, Clone, Default)]
pub struct CancellationToken {
    cancelled: Arc<AtomicBool>,
}

impl CancellationToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancellationToken {
        CancellationToken::default()
    }

    /// Requests cancellation; all clones of the token observe it.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// True once [`cancel`](CancellationToken::cancel) has been called on
    /// any clone.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }
}

/// When a run must stop: once its deadline (if any) has passed or its
/// token has been cancelled. The default never runs out. Cheap enough to
/// poll once per SAT/LIA step; cloning shares the token.
#[derive(Debug, Clone, Default)]
pub struct Budget {
    deadline: Option<Instant>,
    cancel: CancellationToken,
}

impl From<CancellationToken> for Budget {
    /// A budget that runs out only when `cancel` is cancelled.
    fn from(cancel: CancellationToken) -> Budget {
        Budget {
            deadline: None,
            cancel,
        }
    }
}

impl Budget {
    /// The same budget with its deadline (re)set to `deadline`.
    pub fn until(&self, deadline: Instant) -> Budget {
        Budget {
            deadline: Some(deadline),
            cancel: self.cancel.clone(),
        }
    }

    /// True once the deadline has passed or cancellation was requested.
    pub fn exhausted(&self) -> bool {
        self.cancel.is_cancelled() || self.deadline.is_some_and(|d| Instant::now() > d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn cancellation_is_visible_through_clones() {
        let token = CancellationToken::new();
        let clone = token.clone();
        assert!(!clone.is_cancelled());
        token.cancel();
        assert!(clone.is_cancelled());
    }

    #[test]
    fn a_budget_runs_out_at_its_deadline_or_on_cancellation() {
        assert!(!Budget::default().exhausted());
        let token = CancellationToken::new();
        let budget = Budget::from(token.clone()).until(Instant::now() + Duration::from_secs(60));
        assert!(!budget.exhausted());
        token.cancel();
        assert!(budget.exhausted());
        let past = Instant::now() - Duration::from_millis(1);
        assert!(Budget::default().until(past).exhausted());
    }
}
