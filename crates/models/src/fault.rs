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
//! * [`RetryingOracle`] — retries transient failures with exponential
//!   backoff charged to the **simulated clock** (never wall-clock), plus
//!   a circuit breaker that trips after four consecutive exhausted-retry
//!   failures and fails fast from then on.
//!
//! The fault mix and the retry policy are constants: every `FLAKY`
//! query runs under the same ones, so a seed alone names a schedule.
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

// The fault mix every `FLAKY` query runs under, per-mille of *calls*
// (not frames): 5% timeouts, 10% transient errors, 10% latency spikes.
const TIMEOUT_PER_MILLE: u64 = 50;
const TRANSIENT_PER_MILLE: u64 = 100;
const SPIKE_PER_MILLE: u64 = 100;
/// Simulated seconds a timeout burns before it errors.
const TIMEOUT_PENALTY: f64 = 1.0;
/// Extra simulated seconds a latency spike costs on top of scoring.
const SPIKE_PENALTY: f64 = 0.5;

// The retry policy: backoff before retry `i` is `BASE_BACKOFF · 2^i`
// simulated seconds (0.1, 0.2, 0.4); `BREAKER_THRESHOLD` consecutive
// exhausted-retry failures trip the breaker.
const MAX_RETRIES: u32 = 3;
const BASE_BACKOFF: f64 = 0.1;
const BREAKER_THRESHOLD: u32 = 4;

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
/// The decision for call `i` hashes `(seed, i)` with splitmix64, so it is
/// independent of batch contents, thread timing, and everything else —
/// two runs with the same seed fault on exactly the same call indices.
/// Per-mille of calls: 50 time out (burning 1 simulated second), 100
/// fail transiently (no simulated charge: the failure is immediate), and
/// 100 succeed after a latency spike (half a simulated second on top of
/// the scoring cost).
///
/// Faults surface only on the fallible path
/// ([`Oracle::try_score_batch`]); the infallible [`Oracle::score_batch`]
/// delegates straight to the inner oracle so legacy callers keep
/// working. Fault penalties accumulate in
/// [`Oracle::sim_overhead_seconds`].
pub struct FlakyOracle<O: Oracle> {
    inner: O,
    seed: u64,
    calls: AtomicU64,
    overhead: Mutex<f64>,
}

impl<O: Oracle> FlakyOracle<O> {
    /// Wraps `inner` with the fault schedule of `seed`.
    pub fn new(inner: O, seed: u64) -> Self {
        FlakyOracle {
            inner,
            seed,
            calls: AtomicU64::new(0),
            overhead: Mutex::new(0.0),
        }
    }

    /// The deterministic fault decision for call index `idx`.
    fn decide(&self, idx: u64) -> Fault {
        let r = splitmix64(self.seed ^ idx.wrapping_mul(0xa076_1d64_78bd_642f)) % 1000;
        let t = TIMEOUT_PER_MILLE;
        let e = t + TRANSIENT_PER_MILLE;
        let s = e + SPIKE_PER_MILLE;
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
}

impl<O: Oracle> Oracle for FlakyOracle<O> {
    fn score_batch(&self, frames: &[usize]) -> Vec<f64> {
        self.inner.score_batch(frames)
    }

    fn try_score_batch(&self, frames: &[usize]) -> Result<Vec<f64>, OracleError> {
        let idx = self.calls.fetch_add(1, Ordering::Relaxed);
        match self.decide(idx) {
            Fault::Timeout => {
                *lock(&self.overhead) += TIMEOUT_PENALTY;
                Err(OracleError::Timeout {
                    sim_seconds: TIMEOUT_PENALTY,
                })
            }
            Fault::Transient => Err(OracleError::Transient("injected fault")),
            Fault::Spike => {
                *lock(&self.overhead) += SPIKE_PENALTY;
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

/// Retries transient failures with deterministic exponential backoff
/// and trips a circuit breaker after too many consecutive failures.
///
/// Each call gets up to three retries, with 0.1, 0.2 and 0.4 simulated
/// seconds of backoff before them.
/// Four consecutive calls that exhaust their retries trip the breaker,
/// after which every call fails fast with [`OracleError::BreakerOpen`].
///
/// Backoff is charged to the **simulated clock** (it accumulates in
/// [`Oracle::sim_overhead_seconds`]) — no thread ever sleeps, so tests
/// and replays run at full speed and remain byte-deterministic.
pub struct RetryingOracle<O: Oracle> {
    inner: O,
    retries: AtomicU64,
    breaker_trips: AtomicU64,
    consecutive_failures: AtomicU32,
    breaker_open: AtomicBool,
    backoff: Mutex<f64>,
}

impl<O: Oracle> RetryingOracle<O> {
    /// Wraps `inner` with the retry policy and circuit breaker.
    pub fn new(inner: O) -> Self {
        RetryingOracle {
            inner,
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
                Err(e) if e.is_retryable() && attempt < MAX_RETRIES => {
                    *lock(&self.backoff) += BASE_BACKOFF * f64::powi(2.0, attempt as i32);
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    attempt += 1;
                }
                Err(e) => {
                    let streak = self.consecutive_failures.fetch_add(1, Ordering::Relaxed) + 1;
                    if streak >= BREAKER_THRESHOLD
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
    use std::sync::Arc;

    fn table() -> ExactScoreOracle {
        ExactScoreOracle::new("t", (0..100).map(|i| i as f64).collect(), 0.1)
    }

    /// A scripted oracle: call `i` fails transiently when `fails(i)`,
    /// and otherwise scores like [`table`]. The test keeps a clone of
    /// `calls` to watch what reaches it through a [`RetryingOracle`].
    struct Scripted {
        calls: Arc<AtomicU64>,
        fails: fn(u64) -> bool,
    }

    impl Scripted {
        fn new(fails: fn(u64) -> bool) -> (Self, Arc<AtomicU64>) {
            let calls = Arc::new(AtomicU64::new(0));
            let oracle = Scripted {
                calls: Arc::clone(&calls),
                fails,
            };
            (oracle, calls)
        }
    }

    impl Oracle for Scripted {
        fn score_batch(&self, frames: &[usize]) -> Vec<f64> {
            table().score_batch(frames)
        }

        fn try_score_batch(&self, frames: &[usize]) -> Result<Vec<f64>, OracleError> {
            if (self.fails)(self.calls.fetch_add(1, Ordering::Relaxed)) {
                Err(OracleError::Transient("scripted fault"))
            } else {
                Ok(self.score_batch(frames))
            }
        }

        fn cost_per_frame(&self) -> f64 {
            0.1
        }

        fn num_frames(&self) -> usize {
            100
        }

        fn name(&self) -> &str {
            "scripted"
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
        assert!(ra.iter().any(|ok| !ok), "the mix injects failures");
        assert!(ra.iter().any(|ok| *ok), "the mix lets calls through");
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

    /// Each call's outcome and simulated charge: a timeout burns one
    /// second, a transient error nothing, a success nothing or a half
    /// second spike — at rates near the mix's 5% / 10% / 10%.
    #[test]
    fn flaky_charges_the_mix_penalties() {
        let o = FlakyOracle::new(table(), 7);
        let calls = 10_000;
        let (mut timeouts, mut transients, mut spikes) = (0, 0, 0);
        for _ in 0..calls {
            let before = o.sim_overhead_seconds();
            let outcome = o.try_score_batch(&[5]);
            let charged = o.sim_overhead_seconds() - before;
            match outcome {
                Err(OracleError::Timeout { sim_seconds }) => {
                    assert_eq!(sim_seconds, 1.0);
                    assert_eq!(charged, 1.0);
                    timeouts += 1;
                }
                Err(e) => {
                    assert_eq!(e, OracleError::Transient("injected fault"));
                    assert_eq!(charged, 0.0);
                    transients += 1;
                }
                Ok(scores) => {
                    assert_eq!(scores, vec![5.0]);
                    assert!(charged == 0.0 || charged == 0.5, "charged {charged}");
                    spikes += (charged == 0.5) as u32;
                }
            }
        }
        let near = |n: u32, per_mille: u32| n.abs_diff(per_mille * calls / 1000) < calls / 100;
        assert!(near(timeouts, 50), "{timeouts} timeouts");
        assert!(near(transients, 100), "{transients} transient errors");
        assert!(near(spikes, 100), "{spikes} spikes");
    }

    #[test]
    fn flaky_infallible_path_bypasses_faults() {
        let o = FlakyOracle::new(table(), 7);
        for _ in 0..200 {
            assert_eq!(o.score_batch(&[5]), vec![5.0]);
        }
        assert_eq!(o.sim_overhead_seconds(), 0.0);
    }

    #[test]
    fn retry_succeeds_through_transient_faults() {
        // A quarter of calls fail: three retries make a call's failure
        // (~0.25⁴) rare enough that this seed's 50 calls all succeed.
        let o = RetryingOracle::new(FlakyOracle::new(table(), 3));
        for i in 0..50 {
            assert_eq!(o.try_score_batch(&[i]).unwrap(), vec![i as f64]);
        }
        assert!(o.retries() > 0, "the schedule must have injected faults");
        assert_eq!(o.breaker_trips(), 0);
        assert!(o.sim_overhead_seconds() > 0.0, "backoff charges sim time");
    }

    #[test]
    fn backoff_doubles_per_retry() {
        let (down, calls) = Scripted::new(|_| true);
        let o = RetryingOracle::new(down);
        assert!(o.try_score_batch(&[0]).is_err());
        assert_eq!(
            calls.load(Ordering::Relaxed),
            4,
            "one attempt, three retries"
        );
        assert_eq!(o.retries(), 3);
        // 0.1 + 0.2 + 0.4, summed in that order.
        assert_eq!(o.sim_overhead_seconds(), 0.1 + 0.2 + 0.4);
    }

    #[test]
    fn breaker_trips_and_fails_fast() {
        let (down, calls) = Scripted::new(|_| true);
        let o = RetryingOracle::new(down);
        for _ in 0..4 {
            assert!(matches!(
                o.try_score_batch(&[0]),
                Err(OracleError::Transient(_))
            ));
        }
        assert_eq!(o.breaker_trips(), 1);
        let calls_before = calls.load(Ordering::Relaxed);
        assert_eq!(
            o.try_score_batch(&[0]),
            Err(OracleError::BreakerOpen {
                consecutive_failures: 4
            })
        );
        assert_eq!(
            calls.load(Ordering::Relaxed),
            calls_before,
            "open breaker fails fast"
        );
        assert_eq!(o.breaker_trips(), 1, "an open breaker trips once");
    }

    #[test]
    fn success_resets_the_failure_streak() {
        // Every call exhausts its four attempts, then the next succeeds:
        // three exhausted calls in a row at most, so with the breaker at
        // four it never trips.
        let (flappy, _) = Scripted::new(|i| i % 17 < 12);
        let o = RetryingOracle::new(flappy);
        let outcomes: Vec<bool> = (0..100).map(|_| o.try_score_batch(&[0]).is_ok()).collect();
        assert!(outcomes.iter().any(|ok| *ok));
        assert!(outcomes.windows(2).any(|w| !w[0] && !w[1]), "streaks form");
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
