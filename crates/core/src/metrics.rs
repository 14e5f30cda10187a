//! Result-quality metrics (§4 "Evaluation Metrics"): precision, rank
//! distance, and score error.
//!
//! Ground truth is the exact score of every frame. Because counting scores
//! tie heavily (many frames share the maximum count), the true Top-K set is
//! not unique; all three metrics are therefore **tie-aware**:
//!
//! * **precision** — fraction of returned items whose exact score is ≥ the
//!   K-th highest exact score (any such item belongs to *some* exact Top-K
//!   set; recall = precision since |R̂| = |R| = K, see the paper's
//!   footnote 6);
//! * **rank distance** — normalized Spearman footrule between returned
//!   positions and tie-group true-rank *intervals* (distance 0 inside the
//!   interval; intervals clamped to 2K), normalized by K² for a
//!   conservative [0, 1]-ish bound;
//! * **score error** — mean |i-th returned score − i-th true score| after
//!   sorting both descending.

use std::cmp::Ordering;

/// Exact-score ground truth against which answers are judged.
#[derive(Debug, Clone)]
pub struct GroundTruth {
    /// Exact scores, indexable by item id.
    scores: Vec<f64>,
    /// Scores sorted descending.
    sorted: Vec<f64>,
}

impl GroundTruth {
    pub fn new(scores: Vec<f64>) -> Self {
        assert!(!scores.is_empty(), "ground truth needs at least one item");
        let mut sorted = scores.clone();
        sorted.sort_unstable_by(|a, b| b.partial_cmp(a).unwrap_or(Ordering::Equal));
        GroundTruth { scores, sorted }
    }

    pub fn len(&self) -> usize {
        self.scores.len()
    }

    pub fn is_empty(&self) -> bool {
        self.scores.is_empty()
    }

    /// The K-th highest exact score (1-based K).
    pub fn kth_score(&self, k: usize) -> f64 {
        assert!(k >= 1 && k <= self.sorted.len());
        self.sorted[k - 1]
    }

    /// The true-rank interval `[first, last]` occupied by a score's tie
    /// group (both 1-based, inclusive). Scores absent from the truth get
    /// the empty-interval convention `first = last = rank`.
    pub fn rank_range(&self, score: f64) -> (usize, usize) {
        let first = self.sorted.partition_point(|&s| s > score) + 1;
        let last = self.sorted.partition_point(|&s| s >= score);
        (first, last.max(first))
    }
}

/// Quality of one Top-K answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResultQuality {
    pub precision: f64,
    pub rank_distance: f64,
    pub score_error: f64,
}

/// Evaluates an answer (item ids, assumed ordered best-first) of size K.
pub fn evaluate_topk(truth: &GroundTruth, answer: &[usize], k: usize) -> ResultQuality {
    assert!(k >= 1, "K must be positive");
    assert_eq!(answer.len(), k, "answer must contain exactly K items");
    assert!(k <= truth.len(), "K exceeds item count");

    let threshold = truth.kth_score(k);
    let hits = answer
        .iter()
        .filter(|&&id| truth.scores[id] >= threshold)
        .count();
    let precision = hits as f64 / k as f64;

    // Normalized footrule with tie ranges: an item whose score ties others
    // occupies the true-rank *interval* [first, last] of its tie group; its
    // distance is 0 when its returned position falls inside the interval,
    // else the distance to the nearest end (intervals clamped to 2K so one
    // disastrous item cannot dominate).
    let footrule: f64 = answer
        .iter()
        .enumerate()
        .map(|(pos, &id)| {
            let (first, last) = truth.rank_range(truth.scores[id]);
            let (first, last) = (first.min(2 * k), last.min(2 * k));
            let p = pos + 1;
            if p < first {
                (first - p) as f64
            } else if p > last {
                (p - last) as f64
            } else {
                0.0
            }
        })
        .sum();
    let rank_distance = footrule / (k * k) as f64;

    // Score error: rank-aligned absolute differences.
    let mut got: Vec<f64> = answer.iter().map(|&id| truth.scores[id]).collect();
    got.sort_unstable_by(|a, b| b.partial_cmp(a).unwrap_or(Ordering::Equal));
    let score_error: f64 = got
        .iter()
        .enumerate()
        .map(|(i, &s)| (s - truth.kth_score(i + 1)).abs())
        .sum::<f64>()
        / k as f64;

    ResultQuality {
        precision,
        rank_distance,
        score_error,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn truth() -> GroundTruth {
        // ids:      0    1    2    3    4    5
        GroundTruth::new(vec![9.0, 7.0, 7.0, 5.0, 3.0, 1.0])
    }

    #[test]
    fn perfect_answer_is_perfect() {
        let t = truth();
        let q = evaluate_topk(&t, &[0, 1, 2], 3);
        assert_eq!(q.precision, 1.0);
        assert_eq!(q.rank_distance, 0.0);
        assert_eq!(q.score_error, 0.0);
    }

    #[test]
    fn tie_aware_precision_accepts_either_tied_item() {
        let t = truth();
        // Top-2 could be {0,1} or {0,2}: both have precision 1.
        assert_eq!(evaluate_topk(&t, &[0, 1], 2).precision, 1.0);
        assert_eq!(evaluate_topk(&t, &[0, 2], 2).precision, 1.0);
    }

    #[test]
    fn wrong_item_lowers_precision() {
        let t = truth();
        let q = evaluate_topk(&t, &[0, 5], 2);
        assert_eq!(q.precision, 0.5);
        assert!(q.score_error > 0.0);
    }

    #[test]
    fn kth_score_and_rank() {
        let t = truth();
        assert_eq!(t.kth_score(1), 9.0);
        assert_eq!(t.kth_score(3), 7.0);
        // A tie group starts at its competition rank ("1224").
        assert_eq!(t.rank_range(9.0).0, 1);
        assert_eq!(t.rank_range(7.0).0, 2); // two items tie at rank 2
        assert_eq!(t.rank_range(5.0).0, 4);
        assert_eq!(t.rank_range(0.5).0, 7);
    }

    #[test]
    fn rank_range_covers_tie_groups() {
        let t = truth();
        assert_eq!(t.rank_range(9.0), (1, 1));
        assert_eq!(t.rank_range(7.0), (2, 3)); // the tie pair
        assert_eq!(t.rank_range(5.0), (4, 4));
        // score not present: empty group collapses to its insertion rank
        assert_eq!(t.rank_range(6.0), (4, 4));
    }

    #[test]
    fn rank_distance_detects_shuffled_order() {
        let t = truth();
        let ordered = evaluate_topk(&t, &[0, 1, 3], 3);
        let shuffled = evaluate_topk(&t, &[3, 1, 0], 3);
        assert!(shuffled.rank_distance > ordered.rank_distance);
        assert_eq!(ordered.precision, shuffled.precision);
    }

    #[test]
    fn score_error_is_rank_aligned() {
        let t = truth();
        // answer scores {9, 5}: true top-2 = {9, 7} → error = (0 + 2)/2 = 1
        let q = evaluate_topk(&t, &[0, 3], 2);
        assert!((q.score_error - 1.0).abs() < 1e-12);
    }

    #[test]
    fn metrics_are_bounded() {
        let t = truth();
        let q = evaluate_topk(&t, &[5, 4, 3], 3); // worst plausible answer
        assert!((0.0..=1.0).contains(&q.precision));
        assert!((0.0..=2.0).contains(&q.rank_distance));
        assert!(q.score_error >= 0.0);
    }

    #[test]
    #[should_panic(expected = "exactly K items")]
    fn size_mismatch_panics() {
        let t = truth();
        let _ = evaluate_topk(&t, &[0], 2);
    }
}
