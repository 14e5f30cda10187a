//! Query budgets, deadlines, cooperative cancellation, and the
//! termination status of a (possibly degraded) Top-K answer.
//!
//! The paper's stop rule (Eq. 1: clean until `p̂ ≥ thres`) assumes the
//! oracle may run forever. Under production constraints a query can also
//! end because it ran out of oracle calls, hit its simulated-seconds
//! deadline, was cancelled by its client, or because the oracle itself
//! went down. The probabilistic machinery makes all of those *principled*
//! exits: the current certain Top-K under the posterior is still an exact
//! anytime answer, just with an honest confidence below the requested
//! threshold. [`Termination`] records which exit was taken;
//! [`QueryBudget`] carries the limits into the Phase-2 loop.
//!
//! Budgets are charged to the **simulated clock** (oracle invocations and
//! their sim-seconds), never wall-clock, so a run under a budget is
//! byte-deterministic given the fault schedule.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A cooperative cancellation flag, checked between cleaning batches.
///
/// Cloning shares the flag: the serving layer keeps one half and hands
/// the other to the query, then flips it when the client disconnects.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; takes effect at the query's
    /// next between-batches check.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Limits on one query's Phase-2 cleaning loop. The default is
/// unlimited — the paper's run-to-the-guarantee behaviour.
#[derive(Debug, Clone, Default)]
pub struct QueryBudget {
    /// Cap on oracle cleanings (the `WITHIN <n> ORACLE CALLS` knob).
    pub max_oracle_calls: Option<usize>,
    /// Deadline in *simulated* seconds of oracle work (scoring cost plus
    /// fault/backoff overhead), checked between batches. Phase-1 time is
    /// not charged: the deadline governs the interactive cleaning loop.
    pub deadline_sim_seconds: Option<f64>,
    /// Cooperative cancellation, checked between batches.
    pub cancel: Option<CancelToken>,
}

impl QueryBudget {
    /// No limits (run to the confidence guarantee).
    pub fn unlimited() -> Self {
        QueryBudget::default()
    }

    /// True when the attached [`CancelToken`] (if any) has fired.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(|c| c.is_cancelled())
    }

    /// The between-batches check of the Phase-2 loop: how many more
    /// confirmations may run (`usize::MAX` when nothing caps them), or the
    /// degraded exit to take. Cheapest check first: cancellation, the
    /// deadline against `sim_spent`, then the call caps — `calls` against
    /// [`max_oracle_calls`](Self::max_oracle_calls) and `cap_left`, what
    /// remains of the caller's own cap (`max_cleanings`, a stream's
    /// per-emit budget); the tighter one wins.
    pub(crate) fn room(
        &self,
        sim_spent: f64,
        calls: usize,
        cap_left: Option<usize>,
    ) -> Result<usize, Termination> {
        if self.is_cancelled() {
            return Err(Termination::Cancelled);
        }
        if self.deadline_sim_seconds.is_some_and(|d| sim_spent >= d) {
            return Err(Termination::Deadline);
        }
        let calls_left = self.max_oracle_calls.map(|m| m.saturating_sub(calls));
        match calls_left.into_iter().chain(cap_left).min() {
            Some(0) => Err(Termination::BudgetExhausted),
            left => Ok(left.unwrap_or(usize::MAX)),
        }
    }
}

/// Why a Phase-2 run stopped. Everything except [`Termination::Converged`]
/// is a *degraded* exit: the answer is still the exact certain Top-K
/// under the current posterior, with its honest achieved confidence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Termination {
    /// The Eq.-1 stop rule fired: `p̂ ≥ thres` (or nothing was left
    /// uncertain).
    Converged,
    /// The oracle-call cap ran out.
    BudgetExhausted,
    /// The simulated-seconds deadline passed.
    Deadline,
    /// The client cancelled the query.
    Cancelled,
    /// The oracle failed and retries/breaker gave up.
    OracleDown,
}

impl Termination {
    /// Whether the answer is degraded (any exit but convergence).
    pub fn is_degraded(self) -> bool {
        self != Termination::Converged
    }

    /// Stable lower-case label (rendered answers, metrics, docs).
    pub fn as_str(self) -> &'static str {
        match self {
            Termination::Converged => "converged",
            Termination::BudgetExhausted => "budget-exhausted",
            Termination::Deadline => "deadline",
            Termination::Cancelled => "cancelled",
            Termination::OracleDown => "oracle-down",
        }
    }

    /// Stable wire code (the canonical answer encoding).
    pub fn code(self) -> u8 {
        match self {
            Termination::Converged => 1,
            Termination::BudgetExhausted => 2,
            Termination::Deadline => 3,
            Termination::Cancelled => 4,
            Termination::OracleDown => 5,
        }
    }

    /// Inverse of [`Termination::code`].
    pub fn from_code(code: u8) -> Option<Self> {
        Some(match code {
            1 => Termination::Converged,
            2 => Termination::BudgetExhausted,
            3 => Termination::Deadline,
            4 => Termination::Cancelled,
            5 => Termination::OracleDown,
            _ => return None,
        })
    }
}

impl std::fmt::Display for Termination {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_token_is_shared() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!b.is_cancelled());
        a.cancel();
        assert!(b.is_cancelled());
        let budget = QueryBudget {
            cancel: Some(b),
            ..QueryBudget::unlimited()
        };
        assert!(budget.is_cancelled());
        assert!(!QueryBudget::unlimited().is_cancelled());
    }

    #[test]
    fn termination_codes_round_trip() {
        for t in [
            Termination::Converged,
            Termination::BudgetExhausted,
            Termination::Deadline,
            Termination::Cancelled,
            Termination::OracleDown,
        ] {
            assert_eq!(Termination::from_code(t.code()), Some(t));
            assert_eq!(t.is_degraded(), t != Termination::Converged);
            assert!(!t.as_str().is_empty());
        }
        assert_eq!(Termination::from_code(0), None);
        assert_eq!(Termination::from_code(6), None);
    }
}
