//! Classic / lightweight baseline scorers: the HOG and TinyYOLOv3 stand-ins
//! of Figure 4.
//!
//! In the paper, both methods scan every frame and rank by their own
//! (noisy) counts; both end up with zero-to-near-zero Top-K precision
//! because "score errors between frames would lead to large errors in their
//! relative rankings" (§4.1). We reproduce them as *noisy readers of the
//! ground truth*: score = ground truth + heteroscedastic noise + systematic
//! miss/hallucination effects, with per-frame costs calibrated to their
//! roles (HOG: slow CPU sliding-window SVM; TinyYOLO: fast but shallow).
//! Each is a score table like the oracle's own, so scan-and-test over it
//! is the baseline.

use crate::oracle::ExactScoreOracle;
use everest_video::util::{frame_rng, gaussian};
use rand::rngs::StdRng;
use rand::Rng;

/// Simulated HOG+SVM cost: hundreds of SVM evaluations per frame on CPU.
/// The paper found HOG *slower than Everest end-to-end* despite being
/// non-deep.
pub const HOG_COST_PER_FRAME: f64 = 0.045;

/// Simulated TinyYOLOv3 cost (the "light" real-time detector).
pub const TINY_YOLO_COST_PER_FRAME: f64 = 0.008;

/// The noisy reading of every frame of `truth`: `noisy(truth score, rng)`
/// with the rng of `(seed, frame)`, so each frame's score is
/// deterministic per (scorer, frame).
fn noisy_scores(
    truth: &ExactScoreOracle,
    seed: u64,
    noisy: impl Fn(f64, &mut StdRng) -> f64,
) -> Vec<f64> {
    truth
        .all_scores()
        .iter()
        .enumerate()
        .map(|(t, &gt)| noisy(gt, &mut frame_rng(seed, t)))
        .collect()
}

/// HOG + SVM sliding-window counter: large heteroscedastic noise plus
/// frequent miss/double-count events.
pub fn hog_oracle(truth: &ExactScoreOracle, seed: u64) -> ExactScoreOracle {
    let scores = noisy_scores(truth, seed ^ 0x4067, |gt, rng| {
        // multiplicative detection-rate wobble + additive clutter noise
        let rate: f64 = rng.gen_range(0.3..1.3);
        let clutter = gaussian(rng) * (1.5 + 0.5 * gt);
        (gt * rate + clutter).max(0.0).round()
    });
    ExactScoreOracle::new("hog-svm", scores, HOG_COST_PER_FRAME)
}

/// TinyYOLOv3: cheaper and a little less wrong than HOG, still far too
/// noisy to rank frames whose true scores differ by one or two objects.
pub fn tiny_yolo_oracle(truth: &ExactScoreOracle, seed: u64) -> ExactScoreOracle {
    let scores = noisy_scores(truth, seed ^ 0x719_0101, |gt, rng| {
        let rate: f64 = rng.gen_range(0.55..1.15); // misses small objects
        let noise = gaussian(rng) * (0.8 + 0.3 * gt);
        (gt * rate + noise).max(0.0).round()
    });
    ExactScoreOracle::new("tiny-yolov3", scores, TINY_YOLO_COST_PER_FRAME)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::Oracle;

    fn truth() -> ExactScoreOracle {
        let scores: Vec<f64> = (0..2_000).map(|t| (t % 17) as f64).collect();
        ExactScoreOracle::new("gt", scores, 0.08)
    }

    #[test]
    fn scores_are_deterministic() {
        assert_eq!(
            hog_oracle(&truth(), 5).all_scores(),
            hog_oracle(&truth(), 5).all_scores()
        );
        assert_eq!(
            tiny_yolo_oracle(&truth(), 5).all_scores(),
            tiny_yolo_oracle(&truth(), 5).all_scores()
        );
    }

    #[test]
    fn scores_are_nonnegative_integers() {
        let hog = hog_oracle(&truth(), 6);
        for &s in &hog.all_scores()[..500] {
            assert!(s >= 0.0 && s.fract() == 0.0, "bad HOG score {s}");
        }
    }

    #[test]
    fn noise_is_correlated_with_truth_but_large() {
        let tiny = tiny_yolo_oracle(&truth(), 7);
        let gt = truth();
        let n = 2_000;
        let (xs, ys) = (gt.all_scores(), tiny.all_scores());
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let (mx, my) = (mean(xs), mean(ys));
        let cov: f64 = xs
            .iter()
            .zip(ys)
            .map(|(x, y)| (x - mx) * (y - my))
            .sum::<f64>()
            / n as f64;
        let sx = (xs.iter().map(|x| (x - mx) * (x - mx)).sum::<f64>() / n as f64).sqrt();
        let sy = (ys.iter().map(|y| (y - my) * (y - my)).sum::<f64>() / n as f64).sqrt();
        let corr = cov / (sx * sy);
        assert!(
            corr > 0.4,
            "cheap scorer should correlate with truth: {corr}"
        );
        assert!(corr < 0.95, "but not be accurate enough to rank: {corr}");
        // average absolute error should be large relative to the unit score
        // differences that decide Top-K membership
        let mae: f64 = xs.iter().zip(ys).map(|(x, y)| (x - y).abs()).sum::<f64>() / n as f64;
        assert!(mae > 1.0, "MAE {mae} too small to model a weak detector");
    }

    #[test]
    fn tiny_is_cheaper_than_hog_and_both_cheaper_than_oracle() {
        let hog = hog_oracle(&truth(), 1);
        let tiny = tiny_yolo_oracle(&truth(), 1);
        assert!(tiny.cost_per_frame() < hog.cost_per_frame());
        assert!(hog.cost_per_frame() < truth().cost_per_frame());
    }

    #[test]
    fn tables_cover_the_video() {
        assert_eq!(hog_oracle(&truth(), 2).num_frames(), 2_000);
        assert_eq!(tiny_yolo_oracle(&truth(), 2).num_frames(), 2_000);
    }
}
