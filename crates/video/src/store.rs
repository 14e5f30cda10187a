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

/// GOP-aware decode cost model (simulated seconds).
///
/// * Sequential access (`idx == prev + 1`) costs [`Self::SEQ_COST`].
/// * Random access decodes forward from the nearest preceding keyframe:
///   `SEQ_COST × (1 + idx mod GOP)` — the farther into a group-of-pictures,
///   the more expensive the jump.
/// * Re-reading the current frame is free.
///
/// The model has no fields, only its two constants; callers build it as
/// `DecodeCostModel::default()`. (Braces, not a unit struct, so that call
/// reads as the constructor it is rather than a redundant `default()`.)
#[derive(Debug, Clone, Copy, Default)]
pub struct DecodeCostModel {}

impl DecodeCostModel {
    /// Cost of decoding one frame sequentially: 0.4 simulated ms.
    pub const SEQ_COST: f64 = 0.4e-3;
    /// Keyframe interval (group-of-pictures length), in frames.
    pub const GOP: usize = 48;

    /// Simulated cost (seconds) of accessing `idx` when the decoder last
    /// delivered `prev` (`None` = cold start).
    pub fn access_cost(&self, idx: usize, prev: Option<usize>) -> f64 {
        match prev {
            Some(p) if p == idx => 0.0,
            Some(p) if idx == p + 1 => Self::SEQ_COST,
            _ => Self::SEQ_COST * (1.0 + (idx % Self::GOP) as f64),
        }
    }

    /// Cost of a fully sequential scan over `n` frames.
    pub fn sequential_scan_cost(&self, n: usize) -> f64 {
        Self::SEQ_COST * n as f64
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
    fn sequential_access_is_cheapest() {
        let m = DecodeCostModel::default();
        let seq = DecodeCostModel::SEQ_COST;
        assert_eq!(m.access_cost(5, Some(4)), seq);
        assert_eq!(m.access_cost(5, Some(5)), 0.0);
        // jump to mid-GOP frame costs proportionally more
        assert_eq!(m.access_cost(53, Some(3)), seq * 6.0); // 53 % 48 = 5 → 6×
        assert_eq!(m.access_cost(96, Some(3)), seq); // keyframe
    }

    #[test]
    fn scan_cost_is_linear() {
        assert_eq!(
            DecodeCostModel::default().sequential_scan_cost(100),
            100.0 * 0.4e-3
        );
    }

    #[test]
    fn trace_cost_matches_manual_sum() {
        let seq = DecodeCostModel::SEQ_COST;
        // cold start at 2 → 3×; then 3 sequential → 1×; then jump to 50 → 3×
        let manual = seq * 3.0 + seq + seq * 3.0;
        assert_eq!(DecodeCostModel::default().trace_cost(&[2, 3, 50]), manual);
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
