//! Oracle-call caps, counted at the oracle. The paper's cost model is
//! oracle invocations, so `QueryBudget::max_oracle_calls` must bound what
//! the oracle actually scores, not just what the cleaning loop counts.
//!
//! Each Phase-2 engine — frame Top-K, sliding-window Top-K, continuous
//! Top-K and the skyline — runs under a cap of [`CAP`] confirmations
//! against a fresh [`InstrumentedOracle`] that Phase 1 never touched, and
//! the frames that oracle scored must fit the cap. The cap binds in every run (each ends
//! `BudgetExhausted`), so every confirmation it allows is spent: one
//! oracle call that bypasses the budget check in the shared cleaning
//! loop, anywhere on an engine's path, pushes the count over the cap.

use everest::core::budget::{QueryBudget, Termination};
use everest::core::cleaner::CleanerConfig;
use everest::core::dist::DiscreteDist;
use everest::core::phase1::Phase1Config;
use everest::core::pipeline::{Everest, FrameOracleAdapter, PreparedVideo};
use everest::core::skyline::{run_skyline_cleaner, zip_relations, SkylineConfig};
use everest::core::stream::{StreamConfig, StreamTopK};
use everest::core::xtuple::ItemState;
use everest::models::counting::COVERAGE_QUANTIZATION_STEP;
use everest::models::{
    counting_oracle, coverage_oracle, ExactScoreOracle, InstrumentedOracle, Oracle,
};
use everest::nn::train::TrainConfig;
use everest::nn::HyperGrid;
use everest::video::arrival::{ArrivalConfig, Timeline};
use everest::video::scene::{SceneConfig, SyntheticVideo};
use std::sync::OnceLock;

/// Confirmations each query may spend.
const CAP: usize = 6;
const K: usize = 10;
/// High enough that no engine converges within [`CAP`] confirmations.
const THRES: f64 = 0.999;

/// One video, prepared once per dimension: counting drives the Top-K
/// engines, counting × coverage the skyline.
struct Fixture {
    video: SyntheticVideo,
    count: PreparedVideo,
    coverage: PreparedVideo,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let n_frames = 1_500;
        let tl = Timeline::generate(
            &ArrivalConfig {
                n_frames,
                ..ArrivalConfig::default()
            },
            31,
        );
        // The catalog's sensor noise: at the default σ = 0.02 the
        // difference detector keeps every frame, and the engines would
        // never see a dropped one.
        let scene = SceneConfig {
            noise_std: 0.01,
            ..SceneConfig::default()
        };
        let video = SyntheticVideo::new(scene, tl, 31, 30.0);
        let count = Everest::prepare(&video, &counting_oracle(&video), &phase1(1.0));
        let retained = count.phase1.segments.num_retained();
        assert!(
            retained < n_frames,
            "{retained} of {n_frames} frames retained"
        );
        let coverage = Everest::prepare(
            &video,
            &coverage_oracle(&video),
            &phase1(COVERAGE_QUANTIZATION_STEP),
        );
        Fixture {
            video,
            count,
            coverage,
        }
    })
}

fn phase1(quant_step: f64) -> Phase1Config {
    Phase1Config {
        sample_frac: 0.1,
        sample_cap: 150,
        sample_min: 32,
        grid: HyperGrid::single(3, 16),
        train: TrainConfig {
            epochs: 8,
            batch_size: 32,
            ..TrainConfig::default()
        },
        conv_channels: vec![6, 12],
        quant_step,
        threads: 2,
        ..Phase1Config::default()
    }
}

fn capped() -> QueryBudget {
    QueryBudget {
        max_oracle_calls: Some(CAP),
        ..QueryBudget::unlimited()
    }
}

fn cleaner() -> CleanerConfig {
    CleanerConfig {
        budget: capped(),
        ..CleanerConfig::default()
    }
}

/// Frames `oracle` has scored: all Phase-2 spend, as Phase 1 ran on
/// another oracle.
fn spent(oracle: &InstrumentedOracle<ExactScoreOracle>) -> usize {
    oracle.frames_scored() as usize
}

#[test]
fn frame_topk_spends_at_most_the_cap() {
    let f = fixture();
    let oracle = InstrumentedOracle::new(counting_oracle(&f.video));
    let report = f.count.query_topk(&oracle, K, THRES, &cleaner());
    assert_eq!(report.termination, Termination::BudgetExhausted);
    // One frame per confirmed item.
    assert!(spent(&oracle) <= CAP, "{}", spent(&oracle));
}

#[test]
fn window_topk_spends_at_most_the_cap() {
    let f = fixture();
    let oracle = InstrumentedOracle::new(counting_oracle(&f.video));
    let (window_len, slide, sample_frac) = (30, 15, 0.2);
    let report = f.count.query_topk_sliding_windows(
        &oracle,
        K,
        THRES,
        window_len,
        slide,
        sample_frac,
        &cleaner(),
    );
    assert_eq!(report.termination, Termination::BudgetExhausted);
    // Confirming a window samples ceil(sample_frac × L) of its frames.
    let per_window = (window_len as f64 * sample_frac).ceil() as usize;
    let spent = spent(&oracle);
    assert!(spent <= CAP * per_window, "{spent}");
}

#[test]
fn stream_spends_at_most_the_cap() {
    let f = fixture();
    let oracle = InstrumentedOracle::new(counting_oracle(&f.video));
    let rel = &f.count.phase1.relation;
    let mut engine = StreamTopK::new(StreamConfig {
        k: K,
        thres: THRES,
        emit_every: 100,
        window: Some(400),
        budget: capped(),
        quant_step: rel.step(),
        max_bucket: rel.max_bucket(),
        ..StreamConfig::default()
    });
    let mut adapter = FrameOracleAdapter::new(
        &oracle as &dyn Oracle,
        f.count.phase1.segments.retained(),
        rel,
    );
    let mut terminations = Vec::new();
    for id in 0..rel.len() {
        let dist = match rel.item(id) {
            ItemState::Uncertain(d) => d.clone(),
            ItemState::Certain(b) => DiscreteDist::certain(*b as usize, rel.max_bucket()),
        };
        if let Some(answer) = engine.push_frame(dist, &mut adapter) {
            terminations.push(answer.termination);
        }
    }
    assert!(
        terminations.contains(&Termination::BudgetExhausted),
        "{terminations:?}"
    );
    // The cap is stream-wide: every emit draws on the same CAP.
    assert!(spent(&oracle) <= CAP, "{}", spent(&oracle));
}

#[test]
fn skyline_spends_at_most_the_cap_on_every_dimension() {
    let f = fixture();
    let retained = f.count.phase1.segments.retained();
    assert_eq!(retained, f.coverage.phase1.segments.retained());
    let count = InstrumentedOracle::new(counting_oracle(&f.video));
    let coverage = InstrumentedOracle::new(coverage_oracle(&f.video));
    let mut rel = zip_relations(&[&f.count.phase1.relation, &f.coverage.phase1.relation]);
    let mut adapters = vec![
        FrameOracleAdapter::new(&count as &dyn Oracle, retained, &f.count.phase1.relation),
        FrameOracleAdapter::new(
            &coverage as &dyn Oracle,
            retained,
            &f.coverage.phase1.relation,
        ),
    ];
    let outcome = run_skyline_cleaner(
        &mut rel,
        &mut adapters,
        &SkylineConfig {
            thres: THRES,
            batch_size: 4,
            budget: capped(),
        },
    );
    assert_eq!(outcome.termination, Termination::BudgetExhausted);
    // Each dimension's oracle scores each confirmed frame once.
    for oracle in [&count, &coverage] {
        let spent = spent(oracle);
        assert!(spent <= CAP, "{} scored {spent}", oracle.name());
    }
}
