//! The baselines of §4 "Baselines": scan-and-test, HOG, TinyYOLOv3-only,
//! CMDN-only, and Select-and-TopK.
//!
//! Each returns a Top-K frame set and a simulated latency, so Figure 4 can
//! compare speedup and result quality across methods.

use crate::pipeline::PreparedVideo;
use everest_models::{CheapScorer, ExactScoreOracle, Oracle};
use everest_video::store::DecodeCostModel;

/// Output of one baseline run.
#[derive(Debug, Clone)]
pub struct BaselineResult {
    pub name: String,
    /// Top-K frame indices, best first.
    pub topk: Vec<usize>,
    /// Simulated end-to-end latency, seconds.
    pub sim_seconds: f64,
}

/// Top-K indices of a score table (descending score, ties by index).
pub fn topk_indices(scores: &[f64], k: usize) -> Vec<usize> {
    assert!(k >= 1 && k <= scores.len(), "K out of range");
    let mut idx: Vec<usize> = (0..scores.len()).collect();
    idx.sort_by(|&a, &b| {
        scores[b]
            .partial_cmp(&scores[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    idx.truncate(k);
    idx
}

/// Simulated latency of scoring every one of `n_frames` frames at
/// `cost_per_frame`, decoded sequentially: scan-and-test's cost, and so
/// the numerator of every reported speedup.
pub fn scan_seconds(n_frames: usize, cost_per_frame: f64) -> f64 {
    n_frames as f64 * cost_per_frame + DecodeCostModel::default().sequential_scan_cost(n_frames)
}

/// The naive exact baseline: oracle on every frame (§1 "scan-and-test").
pub fn scan_and_test(oracle: &ExactScoreOracle, k: usize) -> BaselineResult {
    BaselineResult {
        name: "scan-and-test".into(),
        topk: topk_indices(oracle.all_scores(), k),
        sim_seconds: scan_seconds(oracle.num_frames(), oracle.cost_per_frame()),
    }
}

/// A scan-every-frame cheap scorer (HOG / TinyYOLOv3): rank by its own
/// noisy scores.
pub fn cheap_scan(scorer: &dyn CheapScorer, k: usize) -> BaselineResult {
    BaselineResult {
        name: scorer.name().to_string(),
        topk: topk_indices(&scorer.score_all(), k),
        sim_seconds: scan_seconds(scorer.num_frames(), scorer.cost_per_frame()),
    }
}

/// CMDN-only (§4 "Baselines"): Phase 1 alone, ranking retained frames by
/// the mean of their CMDN score distribution.
pub fn cmdn_only(prepared: &PreparedVideo, k: usize) -> BaselineResult {
    let retained = prepared.phase1.segments.retained();
    let means: Vec<f64> = prepared.phase1.mixtures.iter().map(|m| m.mean()).collect();
    let topk = topk_indices(&means, k)
        .into_iter()
        .map(|p| retained[p])
        .collect();
    BaselineResult {
        name: "cmdn-only".into(),
        topk,
        sim_seconds: prepared.phase1.clock.total(),
    }
}

/// One Select-and-TopK evaluation at a fixed `λ` (§4 "Baselines"): a
/// NoScope-style range selection `S_f ≥ λM`, followed by Top-K over the
/// oracle-confirmed candidates (false-positive rate 0, as in the paper's
/// configuration).
///
/// The paper's key finding is that selection-only systems "perform well on
/// point queries, but not on range queries": NoScope's specialised model is
/// a *binary classifier*, far less informative than a score distribution.
/// We simulate it as a weak noisy scorer (σ ≈ 2 score units — a shallow
/// binary CNN cannot count) whose decision threshold is lowered until the
/// configured false-negative rate is met; guaranteeing recall with a weak
/// classifier is exactly what blows the candidate set up toward the whole
/// video.
///
/// As in the paper, only oracle time is charged (specialised-model training
/// and scanning are excluded, mimicking offline ingestion à la Focus).
pub fn select_and_topk_at_lambda(
    prepared: &PreparedVideo,
    oracle: &ExactScoreOracle,
    k: usize,
    lambda: f64,
    fn_tolerance: f64,
) -> Option<BaselineResult> {
    use everest_video::util::{frame_rng, gaussian};
    let retained = prepared.phase1.segments.retained();
    let m = prepared.phase1.max_labeled_score;
    let threshold = lambda * m;
    // The specialised classifier's score = truth + N(0, σ_cls). To keep
    // Pr(miss | S_f ≥ λM) ≤ fn_tolerance, its decision threshold must drop
    // by z_{fn}·σ_cls below λM.
    const SIGMA_CLS: f64 = 2.0;
    let z = inverse_normal_tail(fn_tolerance);
    let decision = threshold - z * SIGMA_CLS;
    let mut candidates: Vec<usize> = Vec::new();
    for &frame in retained.iter() {
        let mut rng = frame_rng(0x5e1ec7, frame);
        let classifier_score = oracle.all_scores()[frame] + SIGMA_CLS * gaussian(&mut rng);
        if classifier_score >= decision {
            candidates.push(frame);
        }
    }
    if candidates.len() < k {
        return None; // λ too aggressive: the range query starves Top-K
    }
    // No budget here: the λ-sweep baseline deliberately models the
    // non-Everest competitor, which spends oracle calls with no budget
    // layer; it is benchmarked, never served.
    let scores = oracle.score_batch(&candidates);
    let order = topk_indices(&scores, k);
    let topk: Vec<usize> = order.into_iter().map(|i| candidates[i]).collect();
    let decode = DecodeCostModel::default();
    Some(BaselineResult {
        name: format!("select-and-topk(λ={lambda:.2})"),
        topk,
        sim_seconds: candidates.len() as f64 * oracle.cost_per_frame()
            + decode.trace_cost(&candidates),
    })
}

/// z such that `Pr(N(0,1) < -z) = tail` (one-sided), via bisection on the
/// normal CDF; used to place the classifier's decision threshold.
fn inverse_normal_tail(tail: f64) -> f64 {
    let tail = tail.clamp(1e-6, 0.5);
    let (mut lo, mut hi) = (0.0f64, 8.0f64);
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        let p = everest_nn::mixture::normal_cdf(-mid, 0.0, 1.0);
        if p > tail {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// The paper's calibration protocol: sweep λ and report the run with the
/// largest speedup subject to precision ≥ `precision_target` (falling back
/// to the most precise run when none qualifies). `None` when no λ selects
/// at least K candidates.
pub fn select_and_topk_calibrated(
    prepared: &PreparedVideo,
    oracle: &ExactScoreOracle,
    k: usize,
    precision_target: f64,
) -> Option<BaselineResult> {
    use crate::metrics::{evaluate_topk, GroundTruth};
    let truth = GroundTruth::new(oracle.all_scores().to_vec());
    let lambdas = [0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2];
    let mut best_ok: Option<(f64, BaselineResult)> = None; // (sim, result)
    let mut best_any: Option<(f64, BaselineResult)> = None; // (precision, result)
    for &lambda in &lambdas {
        let Some(result) = select_and_topk_at_lambda(prepared, oracle, k, lambda, 0.05) else {
            continue;
        };
        let q = evaluate_topk(&truth, &result.topk, k);
        if q.precision >= precision_target {
            let better = best_ok
                .as_ref()
                .is_none_or(|(s, _)| result.sim_seconds < *s);
            if better {
                best_ok = Some((result.sim_seconds, result.clone()));
            }
        }
        let better_any = best_any.as_ref().is_none_or(|(p, _)| q.precision > *p);
        if better_any {
            best_any = Some((q.precision, result));
        }
    }
    best_ok.or(best_any).map(|(_, r)| r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{evaluate_topk, GroundTruth};
    use crate::phase1::fast_phase1;
    use crate::pipeline::Everest;
    use everest_models::{counting_oracle, HogScorer, InstrumentedOracle, TinyYoloScorer};
    use everest_video::arrival::{ArrivalConfig, Timeline};
    use everest_video::scene::{SceneConfig, SyntheticVideo};

    fn setup() -> (SyntheticVideo, ExactScoreOracle) {
        let tl = Timeline::generate(
            &ArrivalConfig {
                n_frames: 1_500,
                ..ArrivalConfig::default()
            },
            31,
        );
        let v = SyntheticVideo::new(SceneConfig::default(), tl, 31, 30.0);
        let o = counting_oracle(&v);
        (v, o)
    }

    #[test]
    fn topk_indices_orders_and_breaks_ties() {
        let scores = vec![1.0, 5.0, 5.0, 3.0];
        assert_eq!(topk_indices(&scores, 3), vec![1, 2, 3]);
    }

    #[test]
    fn scan_and_test_is_exact() {
        let (_, o) = setup();
        let r = scan_and_test(&o, 10);
        let truth = GroundTruth::new(o.all_scores().to_vec());
        let q = evaluate_topk(&truth, &r.topk, 10);
        assert_eq!(q.precision, 1.0);
        assert_eq!(q.score_error, 0.0);
        assert!(r.sim_seconds > 0.0);
    }

    #[test]
    fn cheap_scorers_have_low_precision_for_topk() {
        let (_, o) = setup();
        let truth = GroundTruth::new(o.all_scores().to_vec());
        let hog = cheap_scan(&HogScorer::new(o.clone(), 3), 25);
        let tiny = cheap_scan(&TinyYoloScorer::new(o.clone(), 3), 25);
        let qh = evaluate_topk(&truth, &hog.topk, 25);
        let qt = evaluate_topk(&truth, &tiny.topk, 25);
        // The paper reports zero-to-near-zero precision for both.
        assert!(qh.precision < 0.6, "HOG precision {}", qh.precision);
        assert!(qt.precision < 0.8, "TinyYOLO precision {}", qt.precision);
        // and both are much faster than scan-and-test on simulated time
        let scan = scan_and_test(&o, 25);
        assert!(tiny.sim_seconds < scan.sim_seconds);
    }

    #[test]
    fn cmdn_only_uses_phase1_cost() {
        let (v, o) = setup();
        let oracle = InstrumentedOracle::new(o);
        let prepared = Everest::prepare(&v, &oracle, &fast_phase1());
        let r = cmdn_only(&prepared, 10);
        assert_eq!(r.topk.len(), 10);
        assert!((r.sim_seconds - prepared.phase1.clock.total()).abs() < 1e-12);
    }

    #[test]
    fn select_and_topk_lambda_tradeoff() {
        let (v, o) = setup();
        let oracle = InstrumentedOracle::new(o.clone());
        let prepared = Everest::prepare(&v, &oracle, &fast_phase1());
        // smaller λ ⇒ more candidates ⇒ more oracle time
        let lo = select_and_topk_at_lambda(&prepared, &o, 10, 0.2, 0.05);
        let hi = select_and_topk_at_lambda(&prepared, &o, 10, 0.8, 0.05);
        if let (Some(lo), Some(hi)) = (lo, hi) {
            assert!(lo.sim_seconds >= hi.sim_seconds);
        }
    }

    #[test]
    fn select_and_topk_calibrated_meets_target_or_best_effort() {
        let (v, o) = setup();
        let oracle = InstrumentedOracle::new(o.clone());
        let prepared = Everest::prepare(&v, &oracle, &fast_phase1());
        let r = select_and_topk_calibrated(&prepared, &o, 10, 0.9).unwrap();
        assert_eq!(r.topk.len(), 10);
        assert!(r.sim_seconds > 0.0);
    }
}
