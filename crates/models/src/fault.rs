//! Fault injection and fault tolerance for the scoring oracle.
//!
//! The paper's oracle is a real GPU detector — exactly the component
//! that times out, throttles, or dies in production. This module gives
//! the reproduction a *deterministic* stand-in for those failures so the
//! degradation machinery can be tested bit-for-bit:
//!
//! * [`OracleError`] — why a scoring call failed;
//! * [`FlakyOracle`] — wraps any oracle with a **seeded, deterministic
//!   schedule** of timeouts, transient errors, and latency spikes: the
//!   fault decision for call `i` is a pure function of `(seed, i)`, so a
//!   replay with the same seed sees exactly the same faults;
//! * [`RetryingOracle`] — retries transient failures with capped
//!   exponential backoff charged to the **simulated clock** (never
//!   wall-clock), plus a circuit breaker that trips after N consecutive
//!   exhausted-retry failures and fails fast until reset.
//!
//! Fault penalties and backoff accumulate in
//! [`Oracle::sim_overhead_seconds`], which budget-aware callers (the
//! Phase-2 cleaner's deadline check) add to the per-frame scoring cost.

use crate::oracle::Oracle;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks `m`, recovering the data of a poisoned lock: the guarded values
/// (overhead sums) stay meaningful after another thread panicked
/// mid-update.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Why an oracle call failed.
#[derive(Debug, Clone, PartialEq)]
pub enum OracleError {
    /// The call timed out after `sim_seconds` of simulated waiting.
    /// Retryable.
    Timeout {
        /// Simulated seconds spent waiting before giving up.
        sim_seconds: f64,
    },
    /// A transient failure (throttling, a dropped RPC, a worker restart).
    /// Retryable.
    Transient(&'static str),
    /// The circuit breaker is open: the oracle failed too many times in a
    /// row and callers must stop hammering it. Not retryable.
    BreakerOpen {
        /// Consecutive exhausted-retry failures that tripped the breaker.
        consecutive_failures: u32,
    },
}

impl OracleError {
    /// Whether a retry could plausibly succeed.
    pub fn is_retryable(&self) -> bool {
        !matches!(self, OracleError::BreakerOpen { .. })
    }
}

impl fmt::Display for OracleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OracleError::Timeout { sim_seconds } => {
                write!(
                    f,
                    "oracle call timed out after {sim_seconds:.3} simulated seconds"
                )
            }
            OracleError::Transient(what) => write!(f, "transient oracle failure: {what}"),
            OracleError::BreakerOpen {
                consecutive_failures,
            } => write!(
                f,
                "oracle circuit breaker open after {consecutive_failures} consecutive failures"
            ),
        }
    }
}

impl std::error::Error for OracleError {}

/// The seeded fault schedule of a [`FlakyOracle`].
///
/// Probabilities are per-mille of *calls* (not frames); the decision for
/// call `i` hashes `(seed, i)` with splitmix64, so it is independent of
/// batch contents, thread timing, and everything else — two runs with the
/// same seed fault on exactly the same call indices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed of the deterministic schedule.
    pub seed: u64,
    /// Per-mille of calls that time out (charged `timeout_penalty`).
    pub timeout_per_mille: u64,
    /// Per-mille of calls that fail transiently (no simulated charge —
    /// the failure is immediate).
    pub transient_per_mille: u64,
    /// Per-mille of calls that *succeed* but take a latency spike
    /// (charged `spike_penalty` on top of normal scoring cost).
    pub spike_per_mille: u64,
    /// Simulated seconds burnt by a timeout before it errors.
    pub timeout_penalty: f64,
    /// Extra simulated seconds a latency spike costs.
    pub spike_penalty: f64,
}

impl FaultPlan {
    /// The default chaos mix for `seed`: 5% timeouts, 10% transient
    /// errors, 10% latency spikes; a timeout burns 1 simulated second, a
    /// spike half of one.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            timeout_per_mille: 50,
            transient_per_mille: 100,
            spike_per_mille: 100,
            timeout_penalty: 1.0,
            spike_penalty: 0.5,
        }
    }
}

/// splitmix64, a tiny seeded hash: fault schedules must not depend on
/// a library RNG's evolution.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// What the fault schedule decides for one call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    Timeout,
    Transient,
    Spike,
    None,
}

/// Wraps an oracle with a seeded, deterministic schedule of timeouts,
/// transient errors, and latency spikes.
///
/// Faults surface only on the fallible path
/// ([`Oracle::try_score_batch`]); the infallible [`Oracle::score_batch`]
/// delegates straight to the inner oracle so legacy callers keep
/// working. Fault penalties accumulate in
/// [`Oracle::sim_overhead_seconds`].
pub struct FlakyOracle<O: Oracle> {
    inner: O,
    plan: FaultPlan,
    calls: AtomicU64,
    timeouts: AtomicU64,
    transients: AtomicU64,
    spikes: AtomicU64,
    overhead: Mutex<f64>,
}

impl<O: Oracle> FlakyOracle<O> {
    /// Wraps `inner` with the default chaos mix for `seed`
    /// ([`FaultPlan::new`]).
    pub fn new(inner: O, seed: u64) -> Self {
        FlakyOracle::with_plan(inner, FaultPlan::new(seed))
    }

    /// Wraps `inner` with an explicit fault schedule.
    pub fn with_plan(inner: O, plan: FaultPlan) -> Self {
        assert!(
            plan.timeout_per_mille + plan.transient_per_mille + plan.spike_per_mille <= 1000,
            "fault probabilities exceed 100%"
        );
        assert!(plan.timeout_penalty >= 0.0 && plan.spike_penalty >= 0.0);
        FlakyOracle {
            inner,
            plan,
            calls: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            transients: AtomicU64::new(0),
            spikes: AtomicU64::new(0),
            overhead: Mutex::new(0.0),
        }
    }

    /// The deterministic fault decision for call index `idx`.
    fn decide(&self, idx: u64) -> Fault {
        let r = splitmix64(self.plan.seed ^ idx.wrapping_mul(0xa076_1d64_78bd_642f)) % 1000;
        let t = self.plan.timeout_per_mille;
        let e = t + self.plan.transient_per_mille;
        let s = e + self.plan.spike_per_mille;
        if r < t {
            Fault::Timeout
        } else if r < e {
            Fault::Transient
        } else if r < s {
            Fault::Spike
        } else {
            Fault::None
        }
    }

    /// Calls attempted so far (each advances the schedule by one).
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Timeouts injected so far.
    pub fn timeouts(&self) -> u64 {
        self.timeouts.load(Ordering::Relaxed)
    }

    /// Transient errors injected so far.
    pub fn transients(&self) -> u64 {
        self.transients.load(Ordering::Relaxed)
    }

    /// Latency spikes injected so far.
    pub fn spikes(&self) -> u64 {
        self.spikes.load(Ordering::Relaxed)
    }

    /// The inner oracle.
    pub fn inner(&self) -> &O {
        &self.inner
    }
}

impl<O: Oracle> Oracle for FlakyOracle<O> {
    fn score_batch(&self, frames: &[usize]) -> Vec<f64> {
        self.inner.score_batch(frames)
    }

    fn try_score_batch(&self, frames: &[usize]) -> Result<Vec<f64>, OracleError> {
        let idx = self.calls.fetch_add(1, Ordering::Relaxed);
        match self.decide(idx) {
            Fault::Timeout => {
                self.timeouts.fetch_add(1, Ordering::Relaxed);
                *lock(&self.overhead) += self.plan.timeout_penalty;
                Err(OracleError::Timeout {
                    sim_seconds: self.plan.timeout_penalty,
                })
            }
            Fault::Transient => {
                self.transients.fetch_add(1, Ordering::Relaxed);
                Err(OracleError::Transient("injected fault"))
            }
            Fault::Spike => {
                self.spikes.fetch_add(1, Ordering::Relaxed);
                *lock(&self.overhead) += self.plan.spike_penalty;
                self.inner.try_score_batch(frames)
            }
            Fault::None => self.inner.try_score_batch(frames),
        }
    }

    fn cost_per_frame(&self) -> f64 {
        self.inner.cost_per_frame()
    }

    fn num_frames(&self) -> usize {
        self.inner.num_frames()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn sim_overhead_seconds(&self) -> f64 {
        // Read, then release, before the wrapped oracle takes its own lock.
        let own = *lock(&self.overhead);
        own + self.inner.sim_overhead_seconds()
    }
}

/// Retry policy of a [`RetryingOracle`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Retries per call after the first attempt.
    pub max_retries: u32,
    /// Backoff before retry `i` is `base_backoff * 2^i`, in simulated
    /// seconds…
    pub base_backoff: f64,
    /// …capped at this many simulated seconds.
    pub max_backoff: f64,
    /// Consecutive exhausted-retry failures that trip the breaker.
    pub breaker_threshold: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_backoff: 0.1,
            max_backoff: 2.0,
            breaker_threshold: 4,
        }
    }
}

/// Retries transient failures with deterministic capped exponential
/// backoff and trips a circuit breaker after too many consecutive
/// failures.
///
/// Backoff is charged to the **simulated clock** (it accumulates in
/// [`Oracle::sim_overhead_seconds`]) — no thread ever sleeps, so tests
/// and replays run at full speed and remain byte-deterministic.
pub struct RetryingOracle<O: Oracle> {
    inner: O,
    policy: RetryPolicy,
    retries: AtomicU64,
    breaker_trips: AtomicU64,
    consecutive_failures: AtomicU32,
    breaker_open: AtomicBool,
    backoff: Mutex<f64>,
}

impl<O: Oracle> RetryingOracle<O> {
    /// Wraps `inner` with the default [`RetryPolicy`].
    pub fn new(inner: O) -> Self {
        RetryingOracle::with_policy(inner, RetryPolicy::default())
    }

    /// Wraps `inner` with an explicit policy.
    pub fn with_policy(inner: O, policy: RetryPolicy) -> Self {
        assert!(policy.base_backoff >= 0.0 && policy.max_backoff >= 0.0);
        assert!(policy.breaker_threshold >= 1);
        RetryingOracle {
            inner,
            policy,
            retries: AtomicU64::new(0),
            breaker_trips: AtomicU64::new(0),
            consecutive_failures: AtomicU32::new(0),
            breaker_open: AtomicBool::new(false),
            backoff: Mutex::new(0.0),
        }
    }

    /// Retries performed so far (attempts beyond the first, across all
    /// calls).
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Times the breaker has tripped.
    pub fn breaker_trips(&self) -> u64 {
        self.breaker_trips.load(Ordering::Relaxed)
    }

    /// Whether the breaker is currently open (calls fail fast).
    pub fn breaker_is_open(&self) -> bool {
        self.breaker_open.load(Ordering::Relaxed)
    }

    /// Closes the breaker and forgets the failure streak (an operator
    /// "the detector is back" reset).
    pub fn reset_breaker(&self) {
        self.breaker_open.store(false, Ordering::Relaxed);
        self.consecutive_failures.store(0, Ordering::Relaxed);
    }

    /// The inner oracle.
    pub fn inner(&self) -> &O {
        &self.inner
    }
}

impl<O: Oracle> Oracle for RetryingOracle<O> {
    fn score_batch(&self, frames: &[usize]) -> Vec<f64> {
        self.inner.score_batch(frames)
    }

    fn try_score_batch(&self, frames: &[usize]) -> Result<Vec<f64>, OracleError> {
        if self.breaker_open.load(Ordering::Relaxed) {
            return Err(OracleError::BreakerOpen {
                consecutive_failures: self.consecutive_failures.load(Ordering::Relaxed),
            });
        }
        let mut attempt = 0u32;
        loop {
            match self.inner.try_score_batch(frames) {
                Ok(scores) => {
                    self.consecutive_failures.store(0, Ordering::Relaxed);
                    return Ok(scores);
                }
                Err(e) if e.is_retryable() && attempt < self.policy.max_retries => {
                    let backoff = (self.policy.base_backoff * f64::powi(2.0, attempt as i32))
                        .min(self.policy.max_backoff);
                    *lock(&self.backoff) += backoff;
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    attempt += 1;
                }
                Err(e) => {
                    let streak = self.consecutive_failures.fetch_add(1, Ordering::Relaxed) + 1;
                    if streak >= self.policy.breaker_threshold
                        && !self.breaker_open.swap(true, Ordering::Relaxed)
                    {
                        self.breaker_trips.fetch_add(1, Ordering::Relaxed);
                    }
                    return Err(e);
                }
            }
        }
    }

    fn cost_per_frame(&self) -> f64 {
        self.inner.cost_per_frame()
    }

    fn num_frames(&self) -> usize {
        self.inner.num_frames()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn sim_overhead_seconds(&self) -> f64 {
        // Read, then release, before the wrapped oracle takes its own lock.
        let own = *lock(&self.backoff);
        own + self.inner.sim_overhead_seconds()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::ExactScoreOracle;

    fn table() -> ExactScoreOracle {
        ExactScoreOracle::new("t", (0..100).map(|i| i as f64).collect(), 0.1)
    }

    /// A plan that faults on every call, useful for breaker tests.
    fn always_transient() -> FaultPlan {
        FaultPlan {
            seed: 0,
            timeout_per_mille: 0,
            transient_per_mille: 1000,
            spike_per_mille: 0,
            timeout_penalty: 0.0,
            spike_penalty: 0.0,
        }
    }

    #[test]
    fn default_try_path_wraps_infallible() {
        let o = table();
        assert_eq!(o.try_score_batch(&[3, 7]).unwrap(), vec![3.0, 7.0]);
        assert_eq!(o.sim_overhead_seconds(), 0.0);
    }

    #[test]
    fn flaky_schedule_is_deterministic() {
        let a = FlakyOracle::new(table(), 42);
        let b = FlakyOracle::new(table(), 42);
        let ra: Vec<bool> = (0..200).map(|_| a.try_score_batch(&[0]).is_ok()).collect();
        let rb: Vec<bool> = (0..200).map(|_| b.try_score_batch(&[0]).is_ok()).collect();
        assert_eq!(ra, rb, "same seed must fault on the same calls");
        assert!(ra.iter().any(|ok| !ok), "default mix injects failures");
        assert!(ra.iter().any(|ok| *ok), "default mix lets calls through");
        assert_eq!(a.timeouts(), b.timeouts());
        assert_eq!(a.spikes(), b.spikes());
        assert_eq!(a.sim_overhead_seconds(), b.sim_overhead_seconds());
    }

    #[test]
    fn different_seeds_differ() {
        let a = FlakyOracle::new(table(), 1);
        let b = FlakyOracle::new(table(), 2);
        let ra: Vec<bool> = (0..300).map(|_| a.try_score_batch(&[0]).is_ok()).collect();
        let rb: Vec<bool> = (0..300).map(|_| b.try_score_batch(&[0]).is_ok()).collect();
        assert_ne!(ra, rb);
    }

    #[test]
    fn flaky_charges_sim_penalties() {
        let plan = FaultPlan {
            seed: 7,
            timeout_per_mille: 1000,
            transient_per_mille: 0,
            spike_per_mille: 0,
            timeout_penalty: 1.5,
            spike_penalty: 0.0,
        };
        let o = FlakyOracle::with_plan(table(), plan);
        assert!(matches!(
            o.try_score_batch(&[0]),
            Err(OracleError::Timeout { .. })
        ));
        assert!((o.sim_overhead_seconds() - 1.5).abs() < 1e-12);
        let _ = o.try_score_batch(&[0]);
        assert!((o.sim_overhead_seconds() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn flaky_infallible_path_bypasses_faults() {
        let o = FlakyOracle::with_plan(table(), always_transient());
        assert_eq!(o.score_batch(&[5]), vec![5.0]);
    }

    #[test]
    fn retry_succeeds_through_transient_faults() {
        // Seeded mix with ~25% failures: 3 retries make per-call failure
        // (~0.25^4) rare enough that 50 calls all succeed.
        let plan = FaultPlan {
            seed: 3,
            timeout_per_mille: 100,
            transient_per_mille: 150,
            spike_per_mille: 0,
            timeout_penalty: 1.0,
            spike_penalty: 0.0,
        };
        let o = RetryingOracle::new(FlakyOracle::with_plan(table(), plan));
        for i in 0..50 {
            assert_eq!(o.try_score_batch(&[i]).unwrap(), vec![i as f64]);
        }
        assert!(o.retries() > 0, "the schedule must have injected faults");
        assert_eq!(o.breaker_trips(), 0);
        assert!(o.sim_overhead_seconds() > 0.0, "backoff charges sim time");
    }

    #[test]
    fn backoff_is_capped_exponential() {
        let policy = RetryPolicy {
            max_retries: 4,
            base_backoff: 0.1,
            max_backoff: 0.3,
            breaker_threshold: 100,
        };
        let o = RetryingOracle::with_policy(
            FlakyOracle::with_plan(table(), always_transient()),
            policy,
        );
        assert!(o.try_score_batch(&[0]).is_err());
        // 0.1 + 0.2 + 0.3 (capped) + 0.3 (capped)
        assert!((o.sim_overhead_seconds() - 0.9).abs() < 1e-12);
        assert_eq!(o.retries(), 4);
    }

    #[test]
    fn breaker_trips_and_fails_fast() {
        let policy = RetryPolicy {
            max_retries: 0,
            base_backoff: 0.0,
            max_backoff: 0.0,
            breaker_threshold: 3,
        };
        let flaky = FlakyOracle::with_plan(table(), always_transient());
        let o = RetryingOracle::with_policy(flaky, policy);
        for _ in 0..3 {
            assert!(matches!(
                o.try_score_batch(&[0]),
                Err(OracleError::Transient(_))
            ));
        }
        assert!(o.breaker_is_open());
        assert_eq!(o.breaker_trips(), 1);
        let calls_before = o.inner().calls();
        assert!(matches!(
            o.try_score_batch(&[0]),
            Err(OracleError::BreakerOpen { .. })
        ));
        assert_eq!(o.inner().calls(), calls_before, "open breaker fails fast");
        o.reset_breaker();
        assert!(!o.breaker_is_open());
        assert!(o.try_score_batch(&[0]).is_err(), "oracle is still down");
        assert_eq!(o.breaker_trips(), 1, "re-tripping needs a fresh streak");
    }

    #[test]
    fn success_resets_the_failure_streak() {
        // Fails twice, then works: with threshold 3 the breaker must
        // never trip because successes clear the streak.
        let plan = FaultPlan {
            seed: 11,
            timeout_per_mille: 0,
            transient_per_mille: 300,
            spike_per_mille: 0,
            timeout_penalty: 0.0,
            spike_penalty: 0.0,
        };
        let policy = RetryPolicy {
            max_retries: 2,
            base_backoff: 0.0,
            max_backoff: 0.0,
            breaker_threshold: 3,
        };
        let o = RetryingOracle::with_policy(FlakyOracle::with_plan(table(), plan), policy);
        let mut any_ok = false;
        for _ in 0..100 {
            any_ok |= o.try_score_batch(&[0]).is_ok();
        }
        assert!(any_ok);
        assert_eq!(o.breaker_trips(), 0);
    }

    #[test]
    fn error_display_is_informative() {
        let e = OracleError::Timeout { sim_seconds: 1.0 };
        assert!(e.to_string().contains("timed out"));
        assert!(e.is_retryable());
        let e = OracleError::BreakerOpen {
            consecutive_failures: 4,
        };
        assert!(e.to_string().contains("circuit breaker"));
        assert!(!e.is_retryable());
    }
}
