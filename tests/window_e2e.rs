//! End-to-end window queries (§3.4): Top-K tumbling windows with sampled
//! oracle confirmation, against exact window ground truth.
//!
//! All tests share one `PreparedVideo` (Phase 1 — CMDN training — is by
//! far the dominant cost and is identical across them); each test runs
//! its own Phase-2 queries against a fresh instrumented oracle.

use everest::core::baselines::topk_indices;
use everest::core::cleaner::CleanerConfig;
use everest::core::metrics::{evaluate_topk, GroundTruth};
use everest::core::phase1::Phase1Config;
use everest::core::pipeline::{Everest, PreparedVideo};
use everest::core::sim::component;
use everest::core::window::{exact_window_scores, sliding_windows};
use everest::models::{counting_oracle, FlakyOracle, InstrumentedOracle, Oracle, RetryingOracle};
use everest::nn::train::TrainConfig;
use everest::nn::HyperGrid;
use everest::video::arrival::{ArrivalConfig, Timeline};
use everest::video::scene::{SceneConfig, SyntheticVideo};
use std::sync::OnceLock;

static PREPARED: OnceLock<(SyntheticVideo, PreparedVideo)> = OnceLock::new();

/// One Phase 1 for the whole suite; re-preparing per test would repeat
/// identical CMDN training (~25s each).
fn setup() -> (
    &'static SyntheticVideo,
    &'static PreparedVideo,
    InstrumentedOracle<everest::models::ExactScoreOracle>,
) {
    let (video, prepared) = PREPARED.get_or_init(|| {
        let tl = Timeline::generate(
            &ArrivalConfig {
                n_frames: 3_000,
                base_intensity: 3.5,
                diurnal_amplitude: 0.7,
                burst_rate_per_10k: 8.0,
                burst_boost: 3.0,
                ..ArrivalConfig::default()
            },
            23,
        );
        // The catalog's sensor noise: at the default σ = 0.02 the
        // difference detector keeps every frame, and Eq. 9 would never
        // mix a multi-frame segment into a window's score.
        let scene = SceneConfig {
            noise_std: 0.01,
            ..SceneConfig::default()
        };
        let v = SyntheticVideo::new(scene, tl, 23, 30.0);
        let o = InstrumentedOracle::new(counting_oracle(&v));
        let prepared = Everest::prepare(&v, &o, &phase1_cfg());
        let (retained, n) = (prepared.phase1.segments.num_retained(), prepared.n_frames());
        assert!(retained < n, "{retained} of {n} frames retained");
        (v, prepared)
    });
    // Fresh per-test oracle: same deterministic scores, isolated counters.
    let oracle = InstrumentedOracle::new(counting_oracle(video));
    (video, prepared, oracle)
}

fn phase1_cfg() -> Phase1Config {
    Phase1Config {
        sample_frac: 0.1,
        sample_cap: 320,
        sample_min: 200,
        grid: HyperGrid::single(5, 24),
        train: TrainConfig {
            epochs: 25,
            ..TrainConfig::default()
        },
        conv_channels: vec![8, 16, 32],
        threads: 4,
        ..Phase1Config::default()
    }
}

#[test]
fn window_query_finds_busy_windows() {
    let (_video, prepared, oracle) = setup();
    let window_len = 60;
    let k = 5;
    let report =
        prepared.query_topk_windows(&oracle, k, 0.9, window_len, 0.2, &CleanerConfig::default());
    assert!(report.converged);
    assert_eq!(report.items.len(), k);

    // Window ground truth and quality.
    let exact = exact_window_scores(
        oracle.inner().all_scores(),
        &sliding_windows(prepared.n_frames(), window_len, window_len),
    );
    let truth = GroundTruth::new(exact.clone());
    let answer: Vec<usize> = report.items.iter().map(|i| i.frame / window_len).collect();
    let q = evaluate_topk(&truth, &answer, k);
    // Sampling-based confirmation makes window scores estimates, so allow
    // the fluctuation the paper reports (§4.2.3) while requiring the
    // answer to be concentrated near the true top.
    assert!(q.precision >= 0.6, "window precision {}", q.precision);
    let exact_top = topk_indices(&exact, k);
    let best_missed = answer.iter().filter(|w| exact_top.contains(w)).count();
    assert!(
        best_missed >= k / 2,
        "answer misses most of the exact top: {answer:?}"
    );
}

#[test]
fn full_sampling_gives_exact_window_scores() {
    let (_video, prepared, oracle) = setup();
    let window_len = 50;
    let report = prepared.query_topk_windows(
        &oracle,
        4,
        0.9,
        window_len,
        1.0, // confirm whole windows
        &CleanerConfig::default(),
    );
    let exact = exact_window_scores(
        oracle.inner().all_scores(),
        &sliding_windows(prepared.n_frames(), window_len, window_len),
    );
    for item in &report.items {
        let wid = item.frame / window_len;
        assert!(
            (item.score - exact[wid]).abs() <= prepared.phase1.relation.step() / 4.0 + 1e-9,
            "window {wid}: confirmed {} vs exact {} (quantization only)",
            item.score,
            exact[wid]
        );
    }
}

#[test]
fn larger_windows_need_more_oracle_frames_per_cleaning() {
    let (_video, prepared, oracle) = setup();
    let small = prepared.query_topk_windows(&oracle, 5, 0.9, 30, 0.1, &CleanerConfig::default());
    let large = prepared.query_topk_windows(&oracle, 5, 0.9, 150, 0.1, &CleanerConfig::default());
    let per_clean_small = small.oracle_frames as f64 / small.cleaned.max(1) as f64;
    let per_clean_large = large.oracle_frames as f64 / large.cleaned.max(1) as f64;
    assert!(
        per_clean_large > per_clean_small,
        "larger windows should confirm more frames per cleaning: {per_clean_small} vs {per_clean_large}"
    );
}

#[test]
fn sliding_windows_find_the_same_peaks_with_finer_offsets() {
    let (video, prepared, oracle) = setup();
    let (len, slide, k) = (60, 20, 5);
    let report = prepared.query_topk_sliding_windows(
        &oracle,
        k,
        0.9,
        len,
        slide,
        0.5,
        &CleanerConfig::default(),
    );
    assert!(report.converged);
    assert!(report.confidence >= 0.9);
    assert_eq!(report.items.len(), k);
    for item in &report.items {
        assert_eq!(item.range.0 % slide, 0, "starts on the slide grid");
        assert!(item.range.1 - item.range.0 <= len);
    }

    // The best sliding window's exact mean must be at least the best
    // tumbling window's: tumbling windows are a subset of sliding ones.
    let scores = oracle.inner().all_scores();
    let best = |ws: &[everest::core::window::WindowInfo]| {
        exact_window_scores(scores, ws)
            .into_iter()
            .fold(f64::MIN, f64::max)
    };
    let best_sliding = best(&sliding_windows(video.timeline().n_frames(), len, slide));
    let best_tumbling = best(&sliding_windows(video.timeline().n_frames(), len, len));
    assert!(
        best_sliding >= best_tumbling - 1e-12,
        "sliding {best_sliding} vs tumbling {best_tumbling}"
    );

    // Overlap suppression on the answer yields pairwise-disjoint moments.
    let ranked: Vec<everest::core::window::WindowInfo> = report
        .items
        .iter()
        .map(|i| everest::core::window::WindowInfo {
            start: i.range.0,
            end: i.range.1,
        })
        .collect();
    let disjoint = everest::core::window::suppress_overlaps(&ranked);
    for a in 0..disjoint.len() {
        for b in (a + 1)..disjoint.len() {
            let (x, y) = (disjoint[a], disjoint[b]);
            assert!(x.end <= y.start || y.end <= x.start, "{x:?} overlaps {y:?}");
        }
    }
    assert!(!disjoint.is_empty());
}

#[test]
fn flaky_window_query_charges_oracle_overhead_to_confirm() {
    let (_video, prepared, oracle) = setup();
    // Seed 11's schedule times out once in this query's calls: the
    // timeout burns a simulated second before its retry.
    let flaky = RetryingOracle::new(FlakyOracle::new(oracle, 11));
    let before = flaky.sim_overhead_seconds();
    let report = prepared.query_topk_windows(&flaky, 5, 0.9, 60, 0.2, &CleanerConfig::default());
    let overhead = flaky.sim_overhead_seconds() - before;
    assert!(
        overhead >= 1.0,
        "the schedule must force at least one timeout"
    );
    // What the deadline sees (scoring cost + fault/backoff overhead) is
    // what CONFIRM reports; decode comes on top.
    let confirm = report.clock.component(component::CONFIRM);
    let scored = report.oracle_frames as f64 * flaky.cost_per_frame();
    assert!(
        confirm >= scored + overhead - 1e-9,
        "CONFIRM {confirm} omits the oracle's {overhead}s of overhead ({scored}s of scoring)"
    );
}
