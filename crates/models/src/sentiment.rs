//! The visual-sentimentalizer oracle behind the thumbnail-generation use
//! case (§1, use case 2): happiness scores for vlog frames.
//!
//! The paper cites Sentribute \[63\] — a mid-level-attribute sentiment
//! model — as the oracle for "Top-10 happiest moments". Our substitute
//! reads the vlog simulator's latent mood and charges a simulated
//! deep-model cost per scored frame. Scores are continuous on a 0–10
//! scale, so queries supply a quantization step (§3.2).

use crate::oracle::ExactScoreOracle;
use everest_video::sentiment::SentimentVideo;
use everest_video::VideoStore;

/// Simulated cost of the sentimentalizer, seconds per frame.
pub const SENTIMENT_COST_PER_FRAME: f64 = 0.040;

/// Recommended quantization step for happiness scores (0–10 scale).
pub const HAPPINESS_QUANTIZATION_STEP: f64 = 0.25;

/// Builds the happiness oracle for a vlog video.
pub fn sentiment_oracle(video: &SentimentVideo) -> ExactScoreOracle {
    let scores: Vec<f64> = (0..video.num_frames())
        .map(|t| video.happiness(t))
        .collect();
    ExactScoreOracle::new("sentribute-happiness", scores, SENTIMENT_COST_PER_FRAME)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::Oracle;
    use everest_video::sentiment::SentimentConfig;

    #[test]
    fn oracle_reads_latent_mood() {
        let v = SentimentVideo::new(
            SentimentConfig {
                n_frames: 1_000,
                ..Default::default()
            },
            3,
        );
        let o = sentiment_oracle(&v);
        assert_eq!(o.num_frames(), 1_000);
        for t in (0..1_000).step_by(77) {
            assert_eq!(o.all_scores()[t], v.happiness(t));
        }
        assert_eq!(o.cost_per_frame(), SENTIMENT_COST_PER_FRAME);
    }

    #[test]
    fn scores_are_on_the_ten_scale() {
        let v = SentimentVideo::new(
            SentimentConfig {
                n_frames: 2_000,
                ..Default::default()
            },
            4,
        );
        let o = sentiment_oracle(&v);
        assert_eq!(o.all_scores().len(), 2_000);
        assert!(o.all_scores().iter().all(|s| (0.0..=10.0).contains(s)));
    }
}
