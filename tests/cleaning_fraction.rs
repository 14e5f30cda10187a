//! Regression pin for the "cleaning fraction at toy scale" question.
//!
//! A Top-5 query on a 2 000-frame junction video, prepared with a
//! deliberately starved Phase-1 recipe, cleans 78% of unique frames where
//! the paper reports ~1%. The open question was whether tie-dense counting
//! scores at small scale or a loose `Select-candidate` stop rule is the
//! cause. The controlled comparison below answers it — the cause is
//! **neither**; it is proxy miscalibration from the starved recipe:
//!
//! * **Not the stop rule.** The cleaner exits at p̂ = 0.9005 — the first
//!   batch that crosses thres = 0.9. An overshoot of half a percent
//!   leaves no room for a "loose" stop to waste oracle calls; the test
//!   asserts the overshoot stays tiny.
//! * **Not tie density.** The 2 000 retained frames occupy only 14
//!   distinct count buckets, but the boundary tie groups are small: the
//!   four buckets at-or-just-below `s_k = 13` hold ~115 items in total,
//!   while the run cleans 1 560. Even confirming *every* boundary-tied
//!   frame could not account for a tenth of the spend.
//! * **It is calibration.** With 200 training labels, 10 epochs, and a
//!   3×16 hypergrid, the CMDN's mixtures are so flat that *all* 1 808
//!   uncertain items carry proxy mass at or above the boundary bucket, so
//!   Eq. 2's product forces the cleaner through most of the relation. The
//!   control: the **same video** (identical scores, identical ties,
//!   identical stop rule) prepared with a properly trained proxy
//!   (500 labels, 25 epochs, 5×24 grid) cleans **0.4%** — better than
//!   the paper's ~1% — converging in a single batch.
//!
//! Both halves are pinned so a calibration regression (or a stop-rule
//! regression) shows up as a loud diff in this file. `starved_phase1` is
//! the starved recipe's only copy: the known-bad proxy stays in view here,
//! as a test fixture, and nowhere else.

use everest::core::cleaner::CleanerConfig;
use everest::core::phase1::Phase1Config;
use everest::core::pipeline::{Everest, PreparedVideo};
use everest::models::{counting_oracle, InstrumentedOracle};
use everest::nn::train::TrainConfig;
use everest::nn::HyperGrid;
use everest::video::arrival::{ArrivalConfig, Timeline};
use everest::video::scene::{SceneConfig, SyntheticVideo};

const THRES: f64 = 0.9;

/// The junction video: 2 000 frames, default arrivals, seed 42.
fn junction_video() -> SyntheticVideo {
    let timeline = Timeline::generate(
        &ArrivalConfig {
            n_frames: 2_000,
            ..ArrivalConfig::default()
        },
        42,
    );
    SyntheticVideo::new(SceneConfig::default(), timeline, 42, 30.0)
}

fn prepare(video: &SyntheticVideo, phase1: &Phase1Config) -> PreparedVideo {
    let oracle = InstrumentedOracle::new(counting_oracle(video));
    Everest::prepare(video, &oracle, phase1)
}

/// The starved recipe: 200 labels, 10 epochs, one 3×16 model.
fn starved_phase1() -> Phase1Config {
    Phase1Config {
        sample_frac: 0.08,
        sample_cap: 200,
        sample_min: 32,
        grid: HyperGrid::single(3, 16),
        train: TrainConfig {
            epochs: 10,
            ..TrainConfig::default()
        },
        conv_channels: vec![8, 16],
        ..Phase1Config::default()
    }
}

/// The same pipeline with enough labels and epochs to calibrate.
fn calibrated_phase1() -> Phase1Config {
    Phase1Config {
        sample_frac: 0.25,
        sample_cap: 500,
        sample_min: 32,
        grid: HyperGrid::single(5, 24),
        train: TrainConfig {
            epochs: 25,
            ..TrainConfig::default()
        },
        conv_channels: vec![8, 16, 32],
        ..Phase1Config::default()
    }
}

#[test]
fn starved_proxy_cleans_most_frames_but_not_because_of_ties_or_the_stop_rule() {
    let video = junction_video();
    let oracle = InstrumentedOracle::new(counting_oracle(&video));
    let prepared = prepare(&video, &starved_phase1());
    let report = prepared.query_topk(&oracle, 5, THRES, &CleanerConfig::default());

    assert!(report.converged);
    let frac = report.cleaned as f64 / report.total_items as f64;
    assert!(
        (0.55..=0.95).contains(&frac),
        "starved recipe cleaned {frac:.3}; the ~0.78 regression moved"
    );

    // Stop rule is tight: the first batch past thres ends the loop.
    assert!(
        report.confidence - THRES < 0.02,
        "stop-rule overshoot {:.4} — Select-candidate kept cleaning past thres",
        report.confidence - THRES
    );

    // Tie density cannot explain the spend: even cleaning every frame
    // that ties with (or sits one bucket below) the true K-th score would
    // cost an order of magnitude less than what the run actually spent.
    let scores = oracle.inner().all_scores().to_vec();
    let rel = &prepared.phase1.relation;
    let item_scores: Vec<f64> = prepared
        .phase1
        .segments
        .retained()
        .iter()
        .map(|&f| scores[f])
        .collect();
    let mut sorted = item_scores.clone();
    sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
    let b_k = rel.score_to_bucket(sorted[4]);
    let boundary_ties = item_scores
        .iter()
        .filter(|&&s| {
            let b = rel.score_to_bucket(s);
            b + 1 >= b_k && b <= b_k
        })
        .count();
    assert!(
        report.cleaned > 5 * boundary_ties,
        "cleaned {} vs {} boundary-tied frames: tie density would explain the spend",
        report.cleaned,
        boundary_ties
    );

    // The actual cause: the starved CMDN leaves (almost) every uncertain
    // item with proxy mass at or above the boundary bucket, so the Eq.-2
    // product starts near zero and most of the relation must be cleaned.
    let uncertain = rel.uncertain_ids();
    let mass_above = uncertain
        .iter()
        .filter(|&&u| {
            let d = rel.dist(u).expect("uncertain item has a distribution");
            (b_k as usize..=d.max_bucket())
                .map(|b| d.pmf(b))
                .sum::<f64>()
                > 1e-6
        })
        .count();
    assert!(
        mass_above as f64 >= 0.9 * uncertain.len() as f64,
        "only {mass_above} of {} uncertain items reach the boundary — the miscalibration \
         signature changed; revisit the write-up above",
        uncertain.len()
    );
}

#[test]
fn calibrated_proxy_matches_the_papers_cleaning_fraction() {
    // Control: identical video, scores, tie structure and stop rule —
    // only the Phase-1 training budget changes.
    let video = junction_video();
    let oracle = InstrumentedOracle::new(counting_oracle(&video));
    let prepared = prepare(&video, &calibrated_phase1());
    let report = prepared.query_topk(&oracle, 5, THRES, &CleanerConfig::default());

    assert!(report.converged);
    assert!(report.confidence >= THRES);
    let frac = report.cleaned as f64 / report.total_items as f64;
    assert!(
        frac <= 0.05,
        "calibrated run cleaned {frac:.3}; toy scale should reach the paper's ~1% regime"
    );
}
