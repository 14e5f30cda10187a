//! The scoring oracle abstraction.
//!
//! A scoring UDF (Figure 3) takes frames and returns their exact scores by
//! running the accurate-but-slow model. In this reproduction the scores are
//! read from the synthetic video's ground truth and the *cost* of the model
//! is simulated: every scored frame charges `cost_per_frame` simulated
//! seconds to whoever is accounting (the pipeline's `SimClock`).

use crate::fault::OracleError;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// An accurate-but-slow scoring model.
pub trait Oracle: Send + Sync {
    /// Exact scores for a batch of frame indices.
    fn score_batch(&self, frames: &[usize]) -> Vec<f64>;

    /// Fallible batch scoring: the surface a production detector
    /// actually has (it times out, throttles, dies). The default wraps
    /// the infallible path and never fails; fault-injection wrappers
    /// ([`crate::fault::FlakyOracle`]) and fault-tolerance wrappers
    /// ([`crate::fault::RetryingOracle`]) override it.
    fn try_score_batch(&self, frames: &[usize]) -> Result<Vec<f64>, OracleError> {
        Ok(self.score_batch(frames))
    }

    /// Simulated inference cost per frame, in seconds.
    fn cost_per_frame(&self) -> f64;

    /// Simulated seconds of *overhead* accumulated beyond per-frame
    /// scoring cost — fault penalties, retry backoff. Budget-aware
    /// callers add this to `frames_scored * cost_per_frame` when
    /// enforcing deadlines. Default: no overhead.
    fn sim_overhead_seconds(&self) -> f64 {
        0.0
    }

    /// Total number of frames the oracle could score.
    fn num_frames(&self) -> usize;

    /// Human-readable model name.
    fn name(&self) -> &str;

    /// Convenience: exact score of a single frame.
    fn score(&self, frame: usize) -> f64 {
        self.score_batch(&[frame])[0]
    }
}

/// Default simulated cost of the YOLOv3-class oracle detector, seconds per
/// frame. State-of-the-art detectors run at ~5–12 fps on a 2017-era GPU
/// (§1 cites ~5 fps); 100 ms/frame sits in that band.
pub const YOLO_COST_PER_FRAME: f64 = 0.100;

/// Simulated cost of the monocular depth estimator (Fig. 9's oracle).
pub const DEPTH_COST_PER_FRAME: f64 = 0.060;

/// An oracle backed by a precomputed exact-score table.
///
/// This is the universal adapter: counting scores, tailgating degrees, or
/// any other UDF's ground truth reduce to "exact score per frame + cost".
#[derive(Debug, Clone)]
pub struct ExactScoreOracle {
    name: String,
    scores: Arc<Vec<f64>>,
    cost_per_frame: f64,
}

impl ExactScoreOracle {
    pub fn new(name: impl Into<String>, scores: Vec<f64>, cost_per_frame: f64) -> Self {
        assert!(!scores.is_empty(), "oracle needs at least one frame");
        assert!(
            scores.iter().all(|s| s.is_finite()),
            "scores must be finite"
        );
        assert!(cost_per_frame >= 0.0);
        ExactScoreOracle {
            name: name.into(),
            scores: Arc::new(scores),
            cost_per_frame,
        }
    }

    /// Direct access to the full ground-truth table (used by baselines that
    /// conceptually scan every frame, and by result-quality metrics).
    pub fn all_scores(&self) -> &[f64] {
        &self.scores
    }
}

impl Oracle for ExactScoreOracle {
    fn score_batch(&self, frames: &[usize]) -> Vec<f64> {
        frames.iter().map(|&f| self.scores[f]).collect()
    }

    fn cost_per_frame(&self) -> f64 {
        self.cost_per_frame
    }

    fn num_frames(&self) -> usize {
        self.scores.len()
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Wraps an oracle and counts the frames and batches it scores.
pub struct InstrumentedOracle<O: Oracle> {
    inner: O,
    frames_scored: AtomicU64,
    batches: AtomicU64,
}

impl<O: Oracle> InstrumentedOracle<O> {
    pub fn new(inner: O) -> Self {
        InstrumentedOracle {
            inner,
            frames_scored: AtomicU64::new(0),
            batches: AtomicU64::new(0),
        }
    }

    pub fn frames_scored(&self) -> u64 {
        self.frames_scored.load(Ordering::Relaxed)
    }

    pub fn batches(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    pub fn inner(&self) -> &O {
        &self.inner
    }
}

impl<O: Oracle> Oracle for InstrumentedOracle<O> {
    fn score_batch(&self, frames: &[usize]) -> Vec<f64> {
        self.frames_scored
            .fetch_add(frames.len() as u64, Ordering::Relaxed);
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.inner.score_batch(frames)
    }

    fn try_score_batch(&self, frames: &[usize]) -> Result<Vec<f64>, OracleError> {
        // Counters move only on success: a failed call scored nothing, so
        // neither simulated cost nor "% cleaned" should charge for it.
        let scores = self.inner.try_score_batch(frames)?;
        self.frames_scored
            .fetch_add(frames.len() as u64, Ordering::Relaxed);
        self.batches.fetch_add(1, Ordering::Relaxed);
        Ok(scores)
    }

    fn cost_per_frame(&self) -> f64 {
        self.inner.cost_per_frame()
    }

    fn sim_overhead_seconds(&self) -> f64 {
        self.inner.sim_overhead_seconds()
    }

    fn num_frames(&self) -> usize {
        self.inner.num_frames()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oracle() -> ExactScoreOracle {
        ExactScoreOracle::new("test", vec![1.0, 2.0, 3.0, 4.0], 0.1)
    }

    #[test]
    fn score_batch_reads_table() {
        let o = oracle();
        assert_eq!(o.score_batch(&[2, 0]), vec![3.0, 1.0]);
        assert_eq!(o.score(3), 4.0);
        assert_eq!(o.num_frames(), 4);
        assert_eq!(o.name(), "test");
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn empty_scores_rejected() {
        let _ = ExactScoreOracle::new("x", vec![], 0.1);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_scores_rejected() {
        let _ = ExactScoreOracle::new("x", vec![f64::NAN], 0.1);
    }

    #[test]
    fn instrumentation_counts_frames_and_batches() {
        let o = InstrumentedOracle::new(oracle());
        let _ = o.score_batch(&[0, 1]);
        let _ = o.score_batch(&[2]);
        assert_eq!(o.frames_scored(), 3);
        assert_eq!(o.batches(), 2);
    }
}
