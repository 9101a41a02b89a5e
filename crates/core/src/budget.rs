//! Cooperative work budgets shared across every analysis entry point.
//!
//! Long-running analyses (`analysis::exact`, `analysis::refined`,
//! `wavesim::explore`, `petri::invariants`, …) call
//! [`Budget::checkpoint`] from their hot loops. A checkpoint counts one
//! unit of work and, at a coarse interval, also checks the wall-clock
//! deadline and the shared [`CancelToken`]. When any limit trips, the
//! analysis unwinds with [`IwaError::BudgetExceeded`] carrying
//! partial-progress counters, so callers can report *how far* the
//! analysis got — the backbone of the engine's degradation ladder.
//!
//! Budgets are cheap to clone; clones share the step/item counters and
//! cancel token, so sibling analyses draw from one pool. Use
//! [`Budget::fork`] for an independent counter under the same deadline
//! and token.

use crate::error::IwaError;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many checkpoints pass between wall-clock / cancellation probes.
/// Steps are counted on every checkpoint; only the (comparatively costly)
/// `Instant::now()` and token load are amortised.
pub const PROBE_INTERVAL: u64 = 1024;

/// A shared flag requesting that in-flight analyses stop at their next
/// checkpoint. Clones observe the same flag.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    #[must_use]
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Request cancellation. Idempotent; visible to all clones.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Has [`cancel`](CancelToken::cancel) been called on any clone?
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// A work budget: optional wall-clock deadline, optional step ceiling,
/// and a [`CancelToken`], plus shared progress counters.
#[derive(Clone, Debug)]
pub struct Budget {
    started: Instant,
    deadline: Option<Instant>,
    /// `u64::MAX` means no step limit.
    max_steps: u64,
    steps: Arc<AtomicU64>,
    items: Arc<AtomicU64>,
    cancel: CancelToken,
}

impl Default for Budget {
    fn default() -> Self {
        Budget::unlimited()
    }
}

impl Budget {
    /// A budget that never trips (modulo its cancel token).
    #[must_use]
    pub fn unlimited() -> Self {
        Budget {
            started: Instant::now(),
            deadline: None,
            max_steps: u64::MAX,
            steps: Arc::new(AtomicU64::new(0)),
            items: Arc::new(AtomicU64::new(0)),
            cancel: CancelToken::new(),
        }
    }

    /// A budget expiring `timeout` from now.
    #[must_use]
    pub fn with_deadline(timeout: Duration) -> Self {
        let mut b = Budget::unlimited();
        b.deadline = Some(b.started + timeout);
        b
    }

    /// A budget allowing at most `max_steps` checkpoints.
    #[must_use]
    pub fn with_max_steps(max_steps: u64) -> Self {
        let mut b = Budget::unlimited();
        b.max_steps = max_steps;
        b
    }

    /// Add (or tighten) a deadline `timeout` from *now*.
    #[must_use]
    pub fn and_deadline(mut self, timeout: Duration) -> Self {
        let candidate = Instant::now() + timeout;
        self.deadline = Some(match self.deadline {
            Some(d) => d.min(candidate),
            None => candidate,
        });
        self
    }

    /// Add (or tighten) a step ceiling.
    #[must_use]
    pub fn and_max_steps(mut self, max_steps: u64) -> Self {
        self.max_steps = self.max_steps.min(max_steps);
        self
    }

    /// Attach an externally owned cancel token.
    #[must_use]
    pub fn and_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }

    /// A budget with *fresh* counters but the same deadline and cancel
    /// token — for a sibling analysis whose steps should be accounted
    /// separately while still honouring the overall wall clock.
    #[must_use]
    pub fn fork(&self) -> Self {
        Budget {
            started: Instant::now(),
            deadline: self.deadline,
            max_steps: self.max_steps,
            steps: Arc::new(AtomicU64::new(0)),
            items: Arc::new(AtomicU64::new(0)),
            cancel: self.cancel.clone(),
        }
    }

    /// The shared cancel token.
    #[must_use]
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// Steps consumed so far across all clones.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.steps.load(Ordering::Relaxed)
    }

    /// Items recorded so far across all clones.
    #[must_use]
    pub fn items(&self) -> u64 {
        self.items.load(Ordering::Relaxed)
    }

    /// Wall-clock time since this budget (or fork) was created.
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Time left before the deadline; `None` when there is no deadline.
    /// Zero once the deadline has passed.
    #[must_use]
    pub fn remaining_time(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// Does this budget have a deadline or step ceiling at all?
    #[must_use]
    pub fn is_limited(&self) -> bool {
        self.deadline.is_some() || self.max_steps != u64::MAX
    }

    /// Record `n` enumerated items (states visited, cycles found, …) for
    /// partial-progress reporting. Never trips the budget by itself.
    pub fn record_items(&self, n: u64) {
        self.items.fetch_add(n, Ordering::Relaxed);
    }

    /// Count one unit of work; fail if the budget is exhausted.
    ///
    /// `what` names the activity for the error message (e.g. `"refined
    /// head search"`). Steps and the step ceiling are checked on every
    /// call; the wall clock and cancel token every [`PROBE_INTERVAL`]
    /// calls.
    pub fn checkpoint(&self, what: &str) -> Result<(), IwaError> {
        let n = self.steps.fetch_add(1, Ordering::Relaxed) + 1;
        if n > self.max_steps {
            return Err(self.exceeded(what, self.max_steps as usize));
        }
        if n.is_multiple_of(PROBE_INTERVAL) {
            self.probe(what)?;
        }
        Ok(())
    }

    /// Check only the wall clock and cancel token, without consuming a
    /// step — for outer loops that want a prompt answer at iteration
    /// boundaries regardless of `PROBE_INTERVAL` phase.
    pub fn probe(&self, what: &str) -> Result<(), IwaError> {
        if self.cancel.is_cancelled() {
            return Err(self.exceeded(&format!("{what} (cancelled)"), 0));
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                let limit = d
                    .saturating_duration_since(self.started)
                    .as_millis()
                    .try_into()
                    .unwrap_or(usize::MAX);
                return Err(self.exceeded(&format!("{what} (deadline)"), limit));
            }
        }
        Ok(())
    }

    /// Build the partial-progress error for this budget.
    fn exceeded(&self, what: &str, limit: usize) -> IwaError {
        IwaError::BudgetExceeded {
            what: what.to_owned(),
            limit,
            steps: self.steps(),
            items: self.items() as usize,
            degraded: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_trips() {
        let b = Budget::unlimited();
        for _ in 0..(3 * PROBE_INTERVAL) {
            b.checkpoint("work").unwrap();
        }
        assert_eq!(b.steps(), 3 * PROBE_INTERVAL);
        assert!(!b.is_limited());
    }

    #[test]
    fn step_ceiling_trips_at_the_exact_count() {
        let b = Budget::with_max_steps(10);
        for _ in 0..10 {
            b.checkpoint("work").unwrap();
        }
        let err = b.checkpoint("work").unwrap_err();
        match err {
            IwaError::BudgetExceeded {
                limit,
                steps,
                degraded,
                ..
            } => {
                assert_eq!(limit, 10);
                assert_eq!(steps, 11, "the tripping step is counted");
                assert!(!degraded);
            }
            other => panic!("unexpected error: {other:?}"),
        }
    }

    #[test]
    fn deadline_trips_via_probe() {
        let b = Budget::with_deadline(Duration::from_millis(0));
        let err = b.probe("waiting").unwrap_err();
        assert!(err.to_string().contains("deadline"), "got: {err}");
    }

    #[test]
    fn deadline_trips_through_checkpoints() {
        let b = Budget::with_deadline(Duration::from_millis(1));
        std::thread::sleep(Duration::from_millis(5));
        let trip = (0..=PROBE_INTERVAL).find_map(|_| b.checkpoint("loop").err());
        assert!(trip.is_some(), "an expired deadline trips within one probe interval");
    }

    #[test]
    fn cancellation_is_shared_across_clones() {
        let b = Budget::unlimited();
        let clone = b.clone();
        b.cancel_token().cancel();
        let err = clone.probe("shutting down").unwrap_err();
        assert!(err.to_string().contains("cancelled"), "got: {err}");
    }

    #[test]
    fn clones_share_counters_but_forks_do_not() {
        let b = Budget::unlimited();
        let clone = b.clone();
        clone.checkpoint("work").unwrap();
        clone.record_items(4);
        assert_eq!(b.steps(), 1);
        assert_eq!(b.items(), 4);

        let fork = b.fork();
        fork.checkpoint("work").unwrap();
        assert_eq!(fork.steps(), 1);
        assert_eq!(b.steps(), 1, "fork counts independently");
    }

    #[test]
    fn tightening_keeps_the_smaller_limit() {
        let b = Budget::with_max_steps(100).and_max_steps(5);
        for _ in 0..5 {
            b.checkpoint("w").unwrap();
        }
        assert!(b.checkpoint("w").is_err());
        assert!(b.is_limited());
    }

    #[test]
    fn a_step_trip_reads_the_same_however_late_it_comes() {
        let trip = |delay: Duration| {
            let b = Budget::with_max_steps(3);
            b.record_items(2);
            std::thread::sleep(delay);
            (0..=3)
                .find_map(|_| b.checkpoint("work").err())
                .expect("the fourth step trips")
                .to_string()
        };
        assert_eq!(trip(Duration::from_millis(5)), trip(Duration::ZERO));
    }

    #[test]
    fn errors_carry_progress_counters() {
        let b = Budget::with_max_steps(2);
        b.record_items(7);
        b.checkpoint("enumerating").unwrap();
        b.checkpoint("enumerating").unwrap();
        match b.checkpoint("enumerating").unwrap_err() {
            IwaError::BudgetExceeded { items, what, .. } => {
                assert_eq!(items, 7);
                assert_eq!(what, "enumerating");
            }
            other => panic!("unexpected error: {other:?}"),
        }
    }
}
