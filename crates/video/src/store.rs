//! Video storage abstraction and the decode-cost model.
//!
//! The paper decodes video with Decord and notes (§3.5 "Prefetching") that
//! non-sequential frame access stalls the GPU unless frames are prefetched.
//! The cost asymmetry comes from inter-frame compression: random access must
//! decode forward from the previous keyframe. [`DecodeCostModel`] captures
//! exactly that, so the prefetching optimisation has something real to
//! optimise against in simulated time.

use crate::frame::Frame;

/// Read-only frame access. Implementations must be cheap to share across
/// threads (the difference detector and CMDN inference are parallel).
pub trait VideoStore: Send + Sync {
    /// Total number of frames.
    fn num_frames(&self) -> usize;

    /// Decodes/renders frame `idx`. Panics if out of range.
    fn frame(&self, idx: usize) -> Frame;

    fn width(&self) -> usize;

    fn height(&self) -> usize;

    /// Nominal frames per second (Table 7 column).
    fn fps(&self) -> f64 {
        30.0
    }
}

/// A fully materialised in-memory video, mainly for tests and tiny examples.
#[derive(Debug, Clone)]
pub struct InMemoryVideo {
    frames: Vec<Frame>,
    fps: f64,
}

impl InMemoryVideo {
    pub fn new(frames: Vec<Frame>, fps: f64) -> Self {
        assert!(
            !frames.is_empty(),
            "in-memory video needs at least one frame"
        );
        let (w, h) = (frames[0].width(), frames[0].height());
        assert!(
            frames.iter().all(|f| f.width() == w && f.height() == h),
            "all frames must share dimensions"
        );
        InMemoryVideo { frames, fps }
    }
}

impl VideoStore for InMemoryVideo {
    fn num_frames(&self) -> usize {
        self.frames.len()
    }

    fn frame(&self, idx: usize) -> Frame {
        self.frames[idx].clone()
    }

    fn width(&self) -> usize {
        self.frames[0].width()
    }

    fn height(&self) -> usize {
        self.frames[0].height()
    }

    fn fps(&self) -> f64 {
        self.fps
    }
}

/// GOP-aware decode cost model (simulated seconds).
///
/// * Sequential access (`idx == prev + 1`) costs `seq_cost`.
/// * Random access decodes forward from the nearest preceding keyframe:
///   `seq_cost × (1 + idx mod gop)` — the farther into a group-of-pictures,
///   the more expensive the jump.
/// * Re-reading the current frame is free.
#[derive(Debug, Clone, Copy)]
pub struct DecodeCostModel {
    /// Cost of decoding one frame sequentially, in simulated seconds.
    pub seq_cost: f64,
    /// Keyframe interval (group-of-pictures length), in frames.
    pub gop: usize,
}

impl Default for DecodeCostModel {
    fn default() -> Self {
        // 0.4 ms/frame sequential decode, keyframe every 48 frames.
        DecodeCostModel {
            seq_cost: 0.4e-3,
            gop: 48,
        }
    }
}

impl DecodeCostModel {
    pub fn new(seq_cost: f64, gop: usize) -> Self {
        assert!(seq_cost >= 0.0 && gop >= 1);
        DecodeCostModel { seq_cost, gop }
    }

    /// Simulated cost (seconds) of accessing `idx` when the decoder last
    /// delivered `prev` (`None` = cold start).
    pub fn access_cost(&self, idx: usize, prev: Option<usize>) -> f64 {
        match prev {
            Some(p) if p == idx => 0.0,
            Some(p) if idx == p + 1 => self.seq_cost,
            _ => self.seq_cost * (1.0 + (idx % self.gop) as f64),
        }
    }

    /// Cost of a fully sequential scan over `n` frames.
    pub fn sequential_scan_cost(&self, n: usize) -> f64 {
        self.seq_cost * n as f64
    }

    /// Cost of accessing the given (arbitrary-order) index sequence,
    /// tracking decoder state along the way.
    pub fn trace_cost(&self, indices: &[usize]) -> f64 {
        let mut prev = None;
        let mut total = 0.0;
        for &i in indices {
            total += self.access_cost(i, prev);
            prev = Some(i);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_memory_roundtrip() {
        let v = InMemoryVideo::new(vec![Frame::filled(4, 4, 0.5); 3], 30.0);
        assert_eq!(v.num_frames(), 3);
        assert_eq!(v.frame(1).mean(), 0.5);
        assert_eq!((v.width(), v.height()), (4, 4));
    }

    #[test]
    #[should_panic(expected = "share dimensions")]
    fn in_memory_rejects_mixed_dimensions() {
        let _ = InMemoryVideo::new(vec![Frame::new(4, 4), Frame::new(5, 4)], 30.0);
    }

    #[test]
    fn sequential_access_is_cheapest() {
        let m = DecodeCostModel::new(1.0, 10);
        assert_eq!(m.access_cost(5, Some(4)), 1.0);
        assert_eq!(m.access_cost(5, Some(5)), 0.0);
        // jump to mid-GOP frame costs proportionally more
        assert_eq!(m.access_cost(15, Some(3)), 6.0); // 15 % 10 = 5 → 6×
        assert_eq!(m.access_cost(20, Some(3)), 1.0); // keyframe
    }

    #[test]
    fn scan_cost_is_linear() {
        let m = DecodeCostModel::new(0.5, 10);
        assert_eq!(m.sequential_scan_cost(100), 50.0);
    }

    #[test]
    fn trace_cost_matches_manual_sum() {
        let m = DecodeCostModel::new(1.0, 4);
        // cold start at 2 → 1*(1+2)=3; then 3 sequential → 1; then jump to 9 → 1+1=2
        assert_eq!(m.trace_cost(&[2, 3, 9]), 3.0 + 1.0 + 2.0);
    }

    #[test]
    fn random_scan_costs_more_than_sequential() {
        let m = DecodeCostModel::default();
        let seq: Vec<usize> = (0..1000).collect();
        let mut rev: Vec<usize> = seq.clone();
        rev.reverse();
        assert!(m.trace_cost(&rev) > m.trace_cost(&seq));
    }
}
