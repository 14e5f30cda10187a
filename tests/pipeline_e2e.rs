//! End-to-end integration: the full Everest pipeline (difference detector →
//! CMDN → uncertain relation → oracle-in-the-loop cleaning) against the
//! baselines, on a small synthetic traffic video.
//!
//! Phase 1 (CMDN training) dominates the suite's cost, so the tests share
//! two `PreparedVideo`s — one 3 000-frame and one 2 500-frame video — via
//! `OnceLock` instead of re-training per test. Each test runs its own
//! Phase-2 queries against a fresh instrumented oracle, so oracle counters
//! stay per-test.

use everest::core::baselines::{cmdn_only, scan_and_test};
use everest::core::cleaner::CleanerConfig;
use everest::core::metrics::{evaluate_topk, GroundTruth};
use everest::core::phase1::Phase1Config;
use everest::core::pipeline::{Everest, PreparedVideo};
use everest::core::sim::component;
use everest::models::{counting_oracle, hog_oracle, InstrumentedOracle};
use everest::nn::train::TrainConfig;
use everest::nn::HyperGrid;
use everest::video::arrival::{ArrivalConfig, Timeline};
use everest::video::scene::{SceneConfig, SyntheticVideo};
use everest::video::VideoStore;
use std::sync::OnceLock;

static PREPARED_3K: OnceLock<(SyntheticVideo, PreparedVideo)> = OnceLock::new();
static PREPARED_2K5: OnceLock<(SyntheticVideo, PreparedVideo)> = OnceLock::new();

fn build(n_frames: usize, seed: u64) -> (SyntheticVideo, PreparedVideo) {
    let tl = Timeline::generate(
        &ArrivalConfig {
            n_frames,
            base_intensity: 3.5,
            diurnal_amplitude: 0.7,
            burst_rate_per_10k: 8.0,
            burst_boost: 3.0,
            ..ArrivalConfig::default()
        },
        seed,
    );
    // The catalog's sensor noise: at the default σ = 0.02 the difference
    // detector keeps every frame, and the pipeline would never drop one.
    let scene = SceneConfig {
        noise_std: 0.01,
        ..SceneConfig::default()
    };
    let v = SyntheticVideo::new(scene, tl, seed, 30.0);
    let o = InstrumentedOracle::new(counting_oracle(&v));
    let prepared = Everest::prepare(&v, &o, &phase1_cfg());
    let retained = prepared.phase1.segments.num_retained();
    assert!(
        retained < n_frames,
        "{retained} of {n_frames} frames retained"
    );
    (v, prepared)
}

/// The 3 000-frame fixture (one Phase 1 for every test that uses it),
/// plus a fresh per-test oracle with isolated counters.
fn setup_3k() -> (
    &'static SyntheticVideo,
    &'static PreparedVideo,
    InstrumentedOracle<everest::models::ExactScoreOracle>,
) {
    let (video, prepared) = PREPARED_3K.get_or_init(|| build(3_000, 11));
    let oracle = InstrumentedOracle::new(counting_oracle(video));
    (video, prepared, oracle)
}

/// The 2 500-frame fixture.
fn setup_2k5() -> (
    &'static SyntheticVideo,
    &'static PreparedVideo,
    InstrumentedOracle<everest::models::ExactScoreOracle>,
) {
    let (video, prepared) = PREPARED_2K5.get_or_init(|| build(2_500, 17));
    let oracle = InstrumentedOracle::new(counting_oracle(video));
    (video, prepared, oracle)
}

fn phase1_cfg() -> Phase1Config {
    Phase1Config {
        sample_frac: 0.15,
        sample_cap: 450,
        sample_min: 200,
        grid: HyperGrid::single(5, 24),
        train: TrainConfig {
            epochs: 25,
            batch_size: 32,
            ..TrainConfig::default()
        },
        conv_channels: vec![8, 16, 32],
        threads: 4,
        ..Phase1Config::default()
    }
}

#[test]
fn everest_beats_scan_and_test_with_high_precision() {
    let (video, prepared, oracle) = setup_3k();
    let report = prepared.query_topk(&oracle, 10, 0.9, &CleanerConfig::default());

    assert!(report.converged);
    assert!(report.confidence >= 0.9);

    // Quality versus exact ground truth over the whole video.
    let truth = GroundTruth::new(oracle.inner().all_scores().to_vec());
    let quality = evaluate_topk(&truth, &report.frames(), 10);
    // The guarantee is exact w.r.t. the proxy's distributions; empirical
    // precision tracks it as closely as CMDN calibration allows. At this
    // scale the CMDN sees only ~450 labelled frames (the paper: 30 000), so
    // the bound here is looser; full-scale precision is measured by the
    // Figure 4 experiment binary.
    assert!(quality.precision >= 0.6, "precision {}", quality.precision);
    assert!(
        quality.score_error <= 2.0,
        "score error {}",
        quality.score_error
    );

    // Simulated speedup over the naive baseline.
    let scan = scan_and_test(oracle.inner(), 10);
    let speedup = scan.sim_seconds / report.sim_seconds();
    assert!(speedup > 2.0, "expected a clear speedup, got {speedup:.2}×");

    // The oracle was invoked on a small fraction of frames only:
    // Phase-1 labels (certain items of D0) plus Phase-2 confirmations.
    let oracle_touched = prepared.phase1.relation.num_certain() + report.oracle_frames;
    let frac = oracle_touched as f64 / video.num_frames() as f64;
    assert!(frac < 0.3, "oracle touched {frac:.2} of the video");
}

#[test]
fn latency_breakdown_shape_matches_table8() {
    let (_video, prepared, oracle) = setup_3k();
    let report = prepared.query_topk(&oracle, 10, 0.9, &CleanerConfig::default());

    let clock = &report.clock;
    // Phase 1 dominates (Table 8: ≥ 80%); our scaled ratio is looser but
    // Phase 1 must still be the bulk of the cost.
    let phase1 = clock.component(component::LABEL)
        + clock.component(component::TRAIN)
        + clock.component(component::POPULATE);
    assert!(
        phase1 / clock.total() > 0.5,
        "phase 1 should dominate: {:.2}",
        phase1 / clock.total()
    );
    // Select-candidate's algorithmic overhead is negligible (paper: ≤ 0.41%).
    assert!(
        clock.fraction(component::SELECT) < 0.05,
        "select-candidate overhead {:.4}",
        clock.fraction(component::SELECT)
    );
    // Confirmations happen but stay small.
    assert!(clock.component(component::CONFIRM) > 0.0);
}

#[test]
fn everest_beats_baselines_on_quality() {
    let (_video, prepared, oracle) = setup_2k5();
    let truth = GroundTruth::new(oracle.inner().all_scores().to_vec());
    let k = 15;

    let everest = prepared.query_topk(&oracle, k, 0.9, &CleanerConfig::default());
    let q_everest = evaluate_topk(&truth, &everest.frames(), k);

    let hog = scan_and_test(&hog_oracle(oracle.inner(), 3), k);
    let q_hog = evaluate_topk(&truth, &hog.topk, k);

    let cmdn = cmdn_only(prepared, k);
    let q_cmdn = evaluate_topk(&truth, &cmdn.topk, k);

    assert!(
        q_everest.precision > q_hog.precision,
        "everest {} vs hog {}",
        q_everest.precision,
        q_hog.precision
    );
    // At this toy scale tie groups are wide, so CMDN-only can score well
    // under tie-aware precision; Everest must never be worse (the full-scale
    // separation is exercised by the Figure 4 experiment binary).
    assert!(
        q_everest.precision >= q_cmdn.precision,
        "everest {} vs cmdn-only {}",
        q_everest.precision,
        q_cmdn.precision
    );
    assert!(q_everest.score_error <= q_hog.score_error);
}

#[test]
fn smaller_k_converges_faster() {
    // §4.2.1: smaller K ⇒ higher threshold score ⇒ earlier stop.
    let (_video, prepared, oracle) = setup_2k5();
    let small = prepared.query_topk(&oracle, 3, 0.9, &CleanerConfig::default());
    let large = prepared.query_topk(&oracle, 40, 0.9, &CleanerConfig::default());
    assert!(
        small.cleaned <= large.cleaned,
        "K=3 cleaned {} > K=40 cleaned {}",
        small.cleaned,
        large.cleaned
    );
}
