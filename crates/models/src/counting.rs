//! The default object-counting UDF (Figure 3).
//!
//! ```python
//! def score_func(frames):
//!     object_lists = oracle(frames, object_of_interest)
//!     scores = [len(objects) for objects in object_lists]
//!     return scores
//! ```
//!
//! Our equivalent: the oracle detector reads the ground-truth annotations
//! and the score of a frame is the number of objects of the class of
//! interest; each scored frame charges the YOLO-class simulated cost.

use crate::oracle::{ExactScoreOracle, YOLO_COST_PER_FRAME};
use everest_video::scene::SyntheticVideo;
use everest_video::visualroad::VisualRoadVideo;

/// Builds the counting oracle for a Table 7-style synthetic video.
pub fn counting_oracle(video: &SyntheticVideo) -> ExactScoreOracle {
    let scores: Vec<f64> = video
        .timeline()
        .counts()
        .iter()
        .map(|&c| c as f64)
        .collect();
    ExactScoreOracle::new(
        format!("yolo-count[{}]", video.config().object_class.name()),
        scores,
        YOLO_COST_PER_FRAME,
    )
}

/// Builds the counting oracle for a Visual Road mini-city video.
pub fn counting_oracle_visualroad(video: &VisualRoadVideo) -> ExactScoreOracle {
    let scores: Vec<f64> = video.counts().into_iter().map(|c| c as f64).collect();
    ExactScoreOracle::new("yolo-count[car]", scores, YOLO_COST_PER_FRAME)
}

/// Recommended quantization step for coverage scores (percent-of-frame
/// units; ~2 % buckets keep the grid small while separating crowded from
/// sparse frames).
pub const COVERAGE_QUANTIZATION_STEP: f64 = 2.0;

/// Builds a **coverage** oracle: the score of a frame is the total
/// bounding-box area of the detected objects, in units of 1 % of the frame
/// area (an empty frame scores 0; a frame half-covered scores ~50).
///
/// Coverage ranks frames differently from counting — a few large
/// (close-by) objects beat many distant ones — which makes
/// `(count, coverage)` a natural two-dimensional **skyline** query
/// (`everest-core::skyline`, the paper's §5 future work). Both scores are
/// derived from the *same* detector pass, so a skyline oracle confirming
/// both dimensions charges **one** YOLO invocation per frame.
pub fn coverage_oracle(video: &SyntheticVideo) -> ExactScoreOracle {
    use everest_video::VideoStore;
    let frame_area = (video.width() * video.height()) as f64;
    let scores: Vec<f64> = (0..video.num_frames())
        .map(|t| {
            let covered: f64 = video
                .objects_at(t)
                .iter()
                .map(|o| o.bbox.area() as f64)
                .sum();
            100.0 * covered / frame_area
        })
        .collect();
    ExactScoreOracle::new(
        format!("yolo-coverage[{}]", video.config().object_class.name()),
        scores,
        YOLO_COST_PER_FRAME,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::Oracle;
    use everest_video::arrival::{ArrivalConfig, Timeline};
    use everest_video::scene::SceneConfig;
    use everest_video::visualroad::VisualRoadConfig;

    #[test]
    fn counting_scores_equal_ground_truth() {
        let tl = Timeline::generate(
            &ArrivalConfig {
                n_frames: 500,
                ..ArrivalConfig::default()
            },
            1,
        );
        let v = SyntheticVideo::new(SceneConfig::default(), tl, 1, 30.0);
        let oracle = counting_oracle(&v);
        assert_eq!(oracle.num_frames(), 500);
        for t in (0..500).step_by(41) {
            assert_eq!(oracle.all_scores()[t], v.count_at(t) as f64);
        }
        assert_eq!(oracle.cost_per_frame(), YOLO_COST_PER_FRAME);
    }

    #[test]
    fn visualroad_counting_oracle() {
        let v = VisualRoadVideo::new(
            VisualRoadConfig {
                total_cars: 40,
                n_frames: 200,
                ..Default::default()
            },
            2,
        );
        let oracle = counting_oracle_visualroad(&v);
        for t in (0..200).step_by(13) {
            assert_eq!(oracle.all_scores()[t], v.count_at(t) as f64);
        }
    }

    #[test]
    fn coverage_tracks_object_area_not_count() {
        let tl = Timeline::generate(
            &ArrivalConfig {
                n_frames: 800,
                ..ArrivalConfig::default()
            },
            3,
        );
        let v = SyntheticVideo::new(SceneConfig::default(), tl, 3, 30.0);
        let cover = coverage_oracle(&v);
        let count = counting_oracle(&v);
        let (cover, count) = (cover.all_scores(), count.all_scores());
        // empty frames have zero coverage; occupied frames positive
        let mut corr_signs = 0usize;
        let mut occupied = 0usize;
        for t in 0..800 {
            if count[t] == 0.0 {
                assert_eq!(cover[t], 0.0, "frame {t}");
            } else {
                occupied += 1;
                assert!(cover[t] > 0.0, "frame {t}");
                corr_signs += 1;
            }
            assert!(cover[t] >= 0.0);
        }
        assert!(occupied > 0, "test video must contain objects");
        assert_eq!(corr_signs, occupied);
        // the two scores must NOT be a monotone transform of each other
        // (otherwise the skyline degenerates to Top-1): find two frames
        // where the orders disagree.
        let mut disagreement = false;
        'outer: for a in 0..800 {
            for b in (a + 1)..800 {
                if (count[a] > count[b] && cover[a] < cover[b])
                    || (count[a] < count[b] && cover[a] > cover[b])
                {
                    disagreement = true;
                    break 'outer;
                }
            }
        }
        assert!(
            disagreement,
            "count and coverage must rank differently somewhere"
        );
    }
}
