//! The benchmark's wrappers at the engine's trait seams: an [`Oracle`],
//! a [`CleaningOracle`] and a [`VideoStore`] that count and time what
//! passes through them. The traced run hands these to the engine's public
//! functions in place of the plain objects; answers are unchanged.

use everest_core::cleaner::CleaningOracle;
use everest_core::xtuple::ItemId;
use everest_models::{ExactScoreOracle, InstrumentedOracle, Oracle, OracleError};
use everest_video::frame::Frame;
use everest_video::VideoStore;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Counts (through the repository's own [`InstrumentedOracle`]) and times
/// every batch the engine sends to the oracle.
pub struct TimedOracle {
    inner: InstrumentedOracle<ExactScoreOracle>,
    // A statistic only; publishes no other data.
    busy_ns: AtomicU64,
}

impl TimedOracle {
    pub fn new(oracle: ExactScoreOracle) -> Self {
        TimedOracle {
            inner: InstrumentedOracle::new(oracle),
            busy_ns: AtomicU64::new(0),
        }
    }

    pub fn frames(&self) -> u64 {
        self.inner.frames_scored()
    }

    pub fn batches(&self) -> u64 {
        self.inner.batches()
    }

    pub fn busy(&self) -> Duration {
        Duration::from_nanos(self.busy_ns.load(Ordering::Relaxed))
    }

    fn timed<T>(&self, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        self.busy_ns
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }
}

impl Oracle for TimedOracle {
    fn score_batch(&self, frames: &[usize]) -> Vec<f64> {
        self.timed(|| self.inner.score_batch(frames))
    }

    fn try_score_batch(&self, frames: &[usize]) -> Result<Vec<f64>, OracleError> {
        self.timed(|| self.inner.try_score_batch(frames))
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

/// The frame-query adapter between Phase 2 and the oracle — item id is a
/// retained position, the bucket is the rounded exact score — with the
/// time spent inside it. Mirrors the adapters the engine keeps private;
/// the replay checks catch any drift from them.
pub struct TimedCleaning<'a> {
    oracle: &'a dyn Oracle,
    retained: &'a [usize],
    step: f64,
    max_bucket: usize,
    pub frames_scored: usize,
    /// Frames in the order they were scored (decode-cost replay).
    pub trace: Vec<usize>,
    pub calls: u64,
    pub busy: Duration,
}

impl<'a> TimedCleaning<'a> {
    pub fn new(
        oracle: &'a dyn Oracle,
        retained: &'a [usize],
        step: f64,
        max_bucket: usize,
    ) -> Self {
        TimedCleaning {
            oracle,
            retained,
            step,
            max_bucket,
            frames_scored: 0,
            trace: Vec::new(),
            calls: 0,
            busy: Duration::ZERO,
        }
    }
}

impl CleaningOracle for TimedCleaning<'_> {
    fn clean_batch(&mut self, items: &[ItemId]) -> Vec<u32> {
        self.try_clean_batch(items)
            .expect("the exact oracle behind the adapter never fails")
    }

    fn try_clean_batch(&mut self, items: &[ItemId]) -> Result<Vec<u32>, OracleError> {
        let started = Instant::now();
        let frames: Vec<usize> = items.iter().map(|&i| self.retained[i]).collect();
        let scores = self.oracle.try_score_batch(&frames)?;
        self.frames_scored += frames.len();
        self.trace.extend_from_slice(&frames);
        let buckets = scores
            .iter()
            .map(|&s| ((s / self.step).round().max(0.0) as usize).min(self.max_bucket) as u32)
            .collect();
        self.calls += 1;
        self.busy += started.elapsed();
        Ok(buckets)
    }

    fn sim_seconds_spent(&self) -> f64 {
        self.frames_scored as f64 * self.oracle.cost_per_frame()
    }
}

/// Counts the frames the engine decodes: the staged Phase-1 replay must
/// decode exactly as many as `Everest::prepare` did.
pub struct CountingVideo<'a> {
    inner: &'a dyn VideoStore,
    // A statistic only; publishes no other data.
    decoded: AtomicU64,
}

impl<'a> CountingVideo<'a> {
    pub fn new(inner: &'a dyn VideoStore) -> Self {
        CountingVideo {
            inner,
            decoded: AtomicU64::new(0),
        }
    }

    /// Frames decoded since the last call.
    pub fn take_decoded(&self) -> u64 {
        self.decoded.swap(0, Ordering::Relaxed)
    }
}

impl VideoStore for CountingVideo<'_> {
    fn num_frames(&self) -> usize {
        self.inner.num_frames()
    }

    fn frame(&self, idx: usize) -> Frame {
        self.decoded.fetch_add(1, Ordering::Relaxed);
        self.inner.frame(idx)
    }

    fn width(&self) -> usize {
        self.inner.width()
    }

    fn height(&self) -> usize {
        self.inner.height()
    }

    fn fps(&self) -> f64 {
        self.inner.fps()
    }
}
