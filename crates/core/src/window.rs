//! Top-K over tumbling windows (§3.4).
//!
//! A video is divided into consecutive non-overlapping windows of `L`
//! frames; a window's score is the mean of its frames' scores. The window
//! score distribution is approximated by a single Gaussian (Eq. 9) using
//! the difference detector's segmentation: frames in a segment share their
//! retained representative's CMDN mixture (moments ¯μ, ¯σ²), and segments
//! are treated as independent:
//!
//! ```text
//! S_w ~ N( (1/L) Σ_t |s_t| ¯μ_r_t ,  (1/L) Σ_t |s_t| ¯σ²_r_t )
//! ```
//!
//! (We reproduce Eq. 9 exactly as printed, including its variance form.)
//! Confirming a window with the oracle samples ~10 % of its frames and
//! uses the sample mean (§3.4), so window "certain" scores are themselves
//! estimates — the source of the small precision fluctuations the paper
//! reports in §4.2.3.

use crate::cleaner::CleaningOracle;
use crate::xtuple::{score_to_bucket, ItemId, UncertainRelation};
use everest_models::Oracle;
use everest_nn::GaussianMixture;
use everest_video::diff::Segments;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A window: the half-open frame range `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowInfo {
    pub start: usize,
    pub end: usize,
}

impl WindowInfo {
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }
}

/// Sliding (hopping) windows of `len` frames every `slide` frames — an
/// extension beyond the paper's tumbling windows (§3.4).
///
/// Window starts are `0, slide, 2·slide, …`; the last start is the
/// smallest multiple of `slide` whose window reaches the end of the video
/// (so trailing stub windows that are strict subsets of an earlier window
/// are not generated). `slide == len` gives the paper's tumbling windows,
/// which partition the frames (the final window may be shorter).
///
/// **Independence caveat:** overlapping windows share frames, so their
/// scores are *not* independent and Eq. 2's product form treats the
/// confidence as an approximation. The certain-result condition is
/// unaffected — every returned window is still oracle-confirmed — and
/// [`suppress_overlaps`] can post-process the answer into disjoint
/// moments.
pub fn sliding_windows(n_frames: usize, len: usize, slide: usize) -> Vec<WindowInfo> {
    assert!(len >= 1, "window length must be positive");
    assert!(slide >= 1, "slide must be positive");
    assert!(
        slide <= len,
        "slide {slide} > len {len} would leave uncovered gaps"
    );
    if n_frames == 0 {
        return Vec::new();
    }
    if n_frames <= len {
        return vec![WindowInfo {
            start: 0,
            end: n_frames,
        }];
    }
    let last = (n_frames - len).div_ceil(slide);
    (0..=last)
        .map(|i| {
            let start = i * slide;
            WindowInfo {
                start,
                end: (start + len).min(n_frames),
            }
        })
        .collect()
}

/// Greedily filters a ranked window answer down to pairwise-disjoint
/// windows: earlier (better-ranked) windows win; any later window
/// overlapping a kept one is dropped.
///
/// Useful after a sliding-window Top-K, where the top of the ranking is
/// typically several shifted copies of the same moment.
pub fn suppress_overlaps(ranked: &[WindowInfo]) -> Vec<WindowInfo> {
    let mut kept: Vec<WindowInfo> = Vec::new();
    for &w in ranked {
        if kept.iter().all(|k| w.end <= k.start || w.start >= k.end) {
            kept.push(w);
        }
    }
    kept
}

/// Builds the window-level uncertain relation from per-retained-frame CMDN
/// mixtures (Eq. 9 + quantization).
///
/// `mixtures[p]` is the mixture of the `p`-th retained frame (aligned with
/// `segments.retained()`); `step`/`max_bucket` define the shared window
/// score grid.
pub fn build_window_relation(
    mixtures: &[GaussianMixture],
    segments: &Segments,
    windows: &[WindowInfo],
    step: f64,
    max_bucket: usize,
) -> UncertainRelation {
    assert_eq!(
        mixtures.len(),
        segments.num_retained(),
        "one mixture per retained frame required"
    );
    let mut rel = UncertainRelation::new(step, max_bucket);
    for w in windows {
        assert!(!w.is_empty(), "empty window {w:?}");
        let l = w.len() as f64;
        let mut mean = 0.0;
        let mut var = 0.0;
        for (rep_frame, seg_size) in segments.window_segments(w.start, w.end) {
            let pos = segments.representative_position(rep_frame);
            let m = &mixtures[pos];
            mean += seg_size as f64 * m.mean() / l;
            var += seg_size as f64 * m.variance() / l;
        }
        // Guard against a degenerate zero-variance Gaussian.
        let std = var.sqrt().max(step / 10.0);
        let gauss = GaussianMixture::single(mean, std);
        let masses = gauss.quantize(step, max_bucket);
        rel.push_uncertain(crate::dist::DiscreteDist::from_masses(&masses));
    }
    rel
}

/// Exact window scores (mean of exact frame scores) — ground truth for
/// window-query metrics and the scan-and-test window baseline.
pub fn exact_window_scores(frame_scores: &[f64], windows: &[WindowInfo]) -> Vec<f64> {
    windows
        .iter()
        .map(|w| frame_scores[w.start..w.end].iter().sum::<f64>() / w.len() as f64)
        .collect()
}

/// The window-cleaning oracle of §3.4: confirming a window samples
/// `ceil(sample_frac × L)` of its frames, scores them with the deep oracle,
/// and uses the sample mean as the window's (certain) score.
pub struct WindowCleaningOracle<'a> {
    oracle: &'a dyn Oracle,
    windows: &'a [WindowInfo],
    sample_frac: f64,
    step: f64,
    max_bucket: usize,
    rng: StdRng,
    /// Total frames sent to the deep oracle (cost accounting).
    pub frames_scored: usize,
    /// Oracle overhead already accumulated when this query started.
    overhead0: f64,
}

impl<'a> WindowCleaningOracle<'a> {
    pub fn new(
        oracle: &'a dyn Oracle,
        windows: &'a [WindowInfo],
        sample_frac: f64,
        step: f64,
        max_bucket: usize,
        seed: u64,
    ) -> Self {
        assert!((0.0..=1.0).contains(&sample_frac) && sample_frac > 0.0);
        WindowCleaningOracle {
            oracle,
            windows,
            sample_frac,
            step,
            max_bucket,
            rng: StdRng::seed_from_u64(seed),
            frames_scored: 0,
            overhead0: oracle.sim_overhead_seconds(),
        }
    }

    /// The sampled frames for confirming window `wid` (advances the RNG).
    fn sample_frames(&mut self, wid: ItemId) -> Vec<usize> {
        let w = self.windows[wid];
        let m = ((w.len() as f64 * self.sample_frac).ceil() as usize).clamp(1, w.len());
        let mut frames: Vec<usize> = (w.start..w.end).collect();
        frames.shuffle(&mut self.rng);
        frames.truncate(m);
        frames
    }

    fn mean_bucket(&self, scores: &[f64]) -> u32 {
        let mean = scores.iter().sum::<f64>() / scores.len() as f64;
        score_to_bucket(mean, self.step, self.max_bucket)
    }
}

impl CleaningOracle for WindowCleaningOracle<'_> {
    fn clean_batch(&mut self, items: &[ItemId]) -> Vec<u32> {
        items
            .iter()
            .map(|&wid| {
                let frames = self.sample_frames(wid);
                let scores = self.oracle.score_batch(&frames);
                self.frames_scored += frames.len();
                self.mean_bucket(&scores)
            })
            .collect()
    }

    fn try_clean_batch(
        &mut self,
        items: &[ItemId],
    ) -> Result<Vec<u32>, everest_models::OracleError> {
        // A mid-batch failure discards the whole batch's confirmations:
        // frames scored before the failure are still charged (the work
        // happened), and the RNG has advanced — both deterministic given
        // the fault schedule.
        items
            .iter()
            .map(|&wid| {
                let frames = self.sample_frames(wid);
                let scores = self.oracle.try_score_batch(&frames)?;
                self.frames_scored += frames.len();
                Ok(self.mean_bucket(&scores))
            })
            .collect()
    }

    fn sim_seconds_spent(&self) -> f64 {
        self.frames_scored as f64 * self.oracle.cost_per_frame()
            + (self.oracle.sim_overhead_seconds() - self.overhead0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use everest_models::ExactScoreOracle;
    use everest_video::diff::Segments;

    #[test]
    fn tumbling_windows_partition_frames() {
        let ws = sliding_windows(100, 30, 30);
        assert_eq!(ws.len(), 4);
        assert_eq!(ws[0], WindowInfo { start: 0, end: 30 });
        assert_eq!(
            ws[3],
            WindowInfo {
                start: 90,
                end: 100
            }
        );
        // Each window starts where the last ended, so the windows tile the
        // video, and only the final one may be short.
        for (n, len) in [(100, 30), (90, 30), (1, 1), (7, 10)] {
            let ws = sliding_windows(n, len, len);
            assert_eq!(ws.first().map(|w| w.start), Some(0), "n={n} len={len}");
            assert_eq!(ws.last().map(|w| w.end), Some(n), "n={n} len={len}");
            assert!(ws.windows(2).all(|p| p[0].end == p[1].start));
            assert!(ws[..ws.len() - 1].iter().all(|w| w.len() == len));
        }
    }

    #[test]
    fn window_of_one_frame_each() {
        let ws = sliding_windows(5, 1, 1);
        assert_eq!(ws.len(), 5);
        assert!(ws.iter().all(|w| w.len() == 1));
    }

    #[test]
    fn eq9_single_segment_window() {
        // One retained frame represents the whole 10-frame window: the
        // window mean equals the frame's mixture mean and the variance
        // follows Eq. 9: (1/L)·L·σ² = σ².
        let segs = Segments::from_parts(vec![5], vec![0; 10]);
        let mixtures = vec![GaussianMixture::single(4.0, 1.0)];
        let ws = sliding_windows(10, 10, 10);
        let rel = build_window_relation(&mixtures, &segs, &ws, 1.0, 10);
        assert_eq!(rel.len(), 1);
        let d = rel.dist(0).unwrap();
        assert!(
            (d.mean_bucket() - 4.0).abs() < 0.2,
            "mean {}",
            d.mean_bucket()
        );
    }

    #[test]
    fn eq9_mixes_segment_moments() {
        // Two segments of 5 frames each with means 2 and 6 → window mean 4.
        let rep_of: Vec<u32> = [vec![0u32; 5], vec![1u32; 5]].concat();
        let segs = Segments::from_parts(vec![2, 7], rep_of);
        let mixtures = vec![
            GaussianMixture::single(2.0, 0.5),
            GaussianMixture::single(6.0, 0.5),
        ];
        let ws = sliding_windows(10, 10, 10);
        let rel = build_window_relation(&mixtures, &segs, &ws, 1.0, 10);
        let d = rel.dist(0).unwrap();
        assert!(
            (d.mean_bucket() - 4.0).abs() < 0.2,
            "mean {}",
            d.mean_bucket()
        );
    }

    #[test]
    fn exact_window_scores_are_means() {
        let frames = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let ws = sliding_windows(6, 3, 3);
        let scores = exact_window_scores(&frames, &ws);
        assert_eq!(scores, vec![2.0, 5.0]);
    }

    #[test]
    fn window_oracle_full_sampling_is_exact() {
        let frame_scores: Vec<f64> = (0..30).map(|i| (i % 5) as f64).collect();
        let oracle = ExactScoreOracle::new("gt", frame_scores.clone(), 0.01);
        let ws = sliding_windows(30, 10, 10);
        let mut wo = WindowCleaningOracle::new(&oracle, &ws, 1.0, 0.5, 40, 7);
        let buckets = wo.clean_batch(&[0, 1, 2]);
        let exact = exact_window_scores(&frame_scores, &ws);
        for (b, e) in buckets.iter().zip(exact.iter()) {
            assert_eq!(*b as f64 * 0.5, *e, "full sampling must be exact");
        }
        assert_eq!(wo.frames_scored, 30);
    }

    #[test]
    fn window_oracle_sampling_is_unbiasedish() {
        let frame_scores: Vec<f64> = (0..300).map(|i| ((i / 30) % 4) as f64).collect();
        let oracle = ExactScoreOracle::new("gt", frame_scores.clone(), 0.01);
        let ws = sliding_windows(300, 100, 100);
        let exact = exact_window_scores(&frame_scores, &ws);
        let mut wo = WindowCleaningOracle::new(&oracle, &ws, 0.1, 0.25, 40, 3);
        let buckets = wo.clean_batch(&[0, 1, 2]);
        for (b, e) in buckets.iter().zip(exact.iter()) {
            let got = *b as f64 * 0.25;
            assert!(
                (got - e).abs() <= 1.0,
                "sampled window mean {got} too far from exact {e}"
            );
        }
        assert_eq!(wo.frames_scored, 30); // 10% of 3 windows × 100 frames
    }

    #[test]
    #[should_panic(expected = "one mixture per retained frame")]
    fn mixture_count_mismatch_panics() {
        let segs = Segments::identity(4);
        let ws = sliding_windows(4, 2, 2);
        let _ = build_window_relation(&[], &segs, &ws, 1.0, 5);
    }

    #[test]
    fn sliding_windows_hop_and_cover() {
        let ws = sliding_windows(10, 5, 2);
        assert_eq!(
            ws,
            vec![
                WindowInfo { start: 0, end: 5 },
                WindowInfo { start: 2, end: 7 },
                WindowInfo { start: 4, end: 9 },
                WindowInfo { start: 6, end: 10 },
            ]
        );
        // every frame is covered by at least one window
        for f in 0..10 {
            assert!(
                ws.iter().any(|w| w.start <= f && f < w.end),
                "frame {f} uncovered"
            );
        }
        // no stub window that is a subset of the previous one
        for pair in ws.windows(2) {
            assert!(pair[1].start > pair[0].start);
            assert!(pair[1].end > pair[0].end);
        }
    }

    #[test]
    fn sliding_short_video_yields_single_window() {
        assert_eq!(
            sliding_windows(4, 10, 3),
            vec![WindowInfo { start: 0, end: 4 }]
        );
        assert!(sliding_windows(0, 10, 3).is_empty());
    }

    #[test]
    #[should_panic(expected = "uncovered gaps")]
    fn sliding_rejects_gappy_slide() {
        let _ = sliding_windows(100, 10, 11);
    }

    #[test]
    fn suppress_overlaps_keeps_best_ranked_disjoint_set() {
        let w = |s: usize, e: usize| WindowInfo { start: s, end: e };
        // ranked best-first: the 2nd overlaps the 1st and is dropped; the
        // 3rd is disjoint and kept; the 4th overlaps the 3rd and is dropped.
        let ranked = [w(10, 20), w(15, 25), w(30, 40), w(39, 49), w(0, 10)];
        assert_eq!(
            suppress_overlaps(&ranked),
            vec![w(10, 20), w(30, 40), w(0, 10)]
        );
        assert!(suppress_overlaps(&[]).is_empty());
    }

    #[test]
    fn suppress_overlaps_touching_windows_are_disjoint() {
        let w = |s: usize, e: usize| WindowInfo { start: s, end: e };
        // [0,10) and [10,20) share no frame: both kept.
        assert_eq!(
            suppress_overlaps(&[w(0, 10), w(10, 20)]),
            vec![w(0, 10), w(10, 20)]
        );
    }
}
