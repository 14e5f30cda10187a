//! The depth-estimator oracle behind the tailgating UDF (Figure 9).
//!
//! The paper's fleet-management UDF ranks dashcam frames by the distance to
//! the front vehicle estimated with a monocular depth network (Godard et
//! al.). Our simulated equivalent reads the dashcam's ground-truth lead
//! distance and converts it to a *tailgating degree* (larger = closer =
//! more dangerous); each scored frame charges the depth model's simulated
//! cost. Scores are continuous, so queries over this oracle must supply a
//! quantization step (§3.2).

use crate::oracle::{ExactScoreOracle, DEPTH_COST_PER_FRAME};
use everest_video::dashcam::DashcamVideo;
use everest_video::VideoStore;

/// Builds the tailgating-degree oracle for a dashcam video.
pub fn depth_oracle(video: &DashcamVideo) -> ExactScoreOracle {
    let scores: Vec<f64> = (0..video.num_frames())
        .map(|t| video.tailgating_score(t))
        .collect();
    ExactScoreOracle::new("depth-tailgating", scores, DEPTH_COST_PER_FRAME)
}

/// The recommended quantization step for tailgating scores (they live in
/// `(0.8, 50.0]`; 0.5 gives ~100 buckets).
pub const TAILGATING_QUANTIZATION_STEP: f64 = 0.5;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::Oracle;
    use everest_video::dashcam::DashcamConfig;

    #[test]
    fn scores_invert_distance() {
        let v = DashcamVideo::new(
            DashcamConfig {
                n_frames: 2_000,
                ..Default::default()
            },
            7,
        );
        let oracle = depth_oracle(&v);
        assert_eq!(oracle.num_frames(), 2_000);
        let scores = oracle.all_scores();
        // the closest moment must be the top-scoring frame
        // distances can tie at the clamp floor, so compare scores not indices
        let closest = (0..2_000)
            .min_by(|&a, &b| v.lead_distance(a).partial_cmp(&v.lead_distance(b)).unwrap())
            .unwrap();
        let top = (0..2_000)
            .max_by(|&a, &b| scores[a].partial_cmp(&scores[b]).unwrap())
            .unwrap();
        assert_eq!(scores[closest], scores[top]);
        assert_eq!(v.lead_distance(closest), v.lead_distance(top));
        assert_eq!(oracle.cost_per_frame(), DEPTH_COST_PER_FRAME);
    }

    #[test]
    fn scores_are_bounded() {
        let v = DashcamVideo::new(
            DashcamConfig {
                n_frames: 1_000,
                ..Default::default()
            },
            8,
        );
        let oracle = depth_oracle(&v);
        for (t, &s) in oracle.all_scores().iter().enumerate() {
            assert!(s > 0.0 && s <= 50.0, "score {s} out of range at {t}");
        }
    }
}
