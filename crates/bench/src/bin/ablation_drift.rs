//! Ablation: model drift — a proxy trained on one video serving another.
//!
//! ```text
//! cargo run --release -p everest-bench --bin ablation_drift
//! ```
//!
//! §3.1 keeps model drift out of scope ("tracking model drift in visual
//! data is still an ongoing research"). This ablation quantifies *why the
//! proxy must be query- and video-specific* — the premise of CNN
//! specialization itself:
//!
//! * **native** — the paper's protocol: CMDN trained on a sample of the
//!   query video;
//! * **drifted** — the same architecture trained on a *different* video
//!   (same scene family, different traffic process), then used to populate
//!   `D0` for the query video with no labelled frames.
//!
//! Both run the identical Phase 2 afterwards. The certain-result condition
//! means returned scores are always oracle-true; what drift costs is
//! *cleaning volume* (a diffuse/miscalibrated prior stops the Eq. 2
//! product from converging early) and potentially precision (a prior that
//! is confidently wrong can satisfy `thres` while missing true peaks).

use everest_core::baselines::scan_seconds;
use everest_core::cleaner::CleanerConfig;
use everest_core::metrics::{evaluate_topk, GroundTruth};
use everest_core::phase1::{populate_with_model, run_phase1, Phase1Config};
use everest_core::pipeline::{Everest, PreparedVideo};
use everest_models::{counting_oracle, ExactScoreOracle, InstrumentedOracle, Oracle};
use everest_nn::train::TrainConfig;
use everest_nn::HyperGrid;
use everest_video::arrival::{ArrivalConfig, Timeline};
use everest_video::scene::{SceneConfig, SyntheticVideo};
use everest_video::VideoStore;

fn make_video(n: usize, base_intensity: f64, lifetime: f64, seed: u64) -> SyntheticVideo {
    let tl = Timeline::generate(
        &ArrivalConfig {
            n_frames: n,
            base_intensity,
            mean_lifetime: lifetime,
            ..ArrivalConfig::default()
        },
        seed,
    );
    SyntheticVideo::new(SceneConfig::default(), tl, seed, 30.0)
}

fn phase1_cfg(seed: u64) -> Phase1Config {
    Phase1Config {
        sample_frac: 0.08,
        sample_cap: 600,
        sample_min: 200,
        grid: HyperGrid::single(3, 16),
        train: TrainConfig {
            epochs: 15,
            ..TrainConfig::default()
        },
        conv_channels: vec![8, 16],
        quant_step: 1.0,
        seed,
        ..Phase1Config::default()
    }
}

struct Row {
    label: &'static str,
    cleaned_pct: f64,
    speedup: f64,
    precision: f64,
    converged: bool,
}

fn run(
    prepared: &PreparedVideo,
    oracle: &InstrumentedOracle<ExactScoreOracle>,
    label: &'static str,
    k: usize,
) -> Row {
    let report = prepared.query_topk(oracle, k, 0.9, &CleanerConfig::default());
    let exact = oracle.inner();
    let truth = GroundTruth::new(exact.all_scores().to_vec());
    let quality = evaluate_topk(&truth, &report.frames(), k);
    Row {
        label,
        cleaned_pct: 100.0 * report.pct_cleaned(),
        speedup: scan_seconds(exact.num_frames(), exact.cost_per_frame()) / report.sim_seconds(),
        precision: quality.precision,
        converged: report.converged,
    }
}

fn main() {
    let n = 6_000;
    let k = 20;

    // Video A: quiet suburban junction. Video B (the query video): busy
    // downtown junction — same scene family, different traffic process.
    let video_a = make_video(n, 1.2, 150.0, 71);
    let video_b = make_video(n, 4.0, 60.0, 72);
    let oracle_a = InstrumentedOracle::new(counting_oracle(&video_a));
    let oracle_b = InstrumentedOracle::new(counting_oracle(&video_b));
    println!(
        "video A (training source): {} frames, counts ≤ {}",
        video_a.num_frames(),
        video_a.timeline().max_count()
    );
    println!(
        "video B (query target):    {} frames, counts ≤ {}\n",
        video_b.num_frames(),
        video_b.timeline().max_count()
    );

    // Native: the paper's protocol on video B.
    let native = Everest::prepare(&video_b, &oracle_b, &phase1_cfg(7));

    // Drifted: train on A, populate B with A's model.
    let trained_on_a = run_phase1(&video_a, &oracle_a, &phase1_cfg(7));
    let drifted_phase1 = populate_with_model(&video_b, &trained_on_a.model, &phase1_cfg(7));
    // Charge the drifted pipeline for A's training too (it is not free);
    // its own clock only has diff+populate.
    let mut drifted_phase1 = drifted_phase1;
    drifted_phase1.clock.merge(&trained_on_a.clock);
    let drifted = PreparedVideo::from_parts(drifted_phase1, video_b.num_frames());

    println!("Top-{k} (thres 0.9) on video B:\n");
    println!(
        "{:<22} {:>10} {:>9} {:>10} {:>10}",
        "proxy", "cleaned%", "speedup", "precision", "converged"
    );
    for row in [
        run(&native, &oracle_b, "native (trained on B)", k),
        run(&drifted, &oracle_b, "drifted (trained on A)", k),
    ] {
        println!(
            "{:<22} {:>9.1}% {:>8.1}x {:>10.3} {:>10}",
            row.label, row.cleaned_pct, row.speedup, row.precision, row.converged
        );
    }
    println!(
        "\nReading: the drifted proxy was fit to counts ≤ {}, so on the busier\n\
         video it is *confidently* miscalibrated — it asserts every frame\n\
         scores low, the Eq. 2 product converges almost immediately, and the\n\
         query returns fast with high claimed confidence but badly degraded\n\
         precision. This is the silent failure mode of drift: the guarantee\n\
         is exact over the modeled relation, and a drifted model is the\n\
         wrong relation. (A merely *diffuse* drifted prior shows the other\n\
         mode — inflated cleaning volume.) Hence the paper's insistence on\n\
         query-time CNN specialization on the video-of-interest, and its\n\
         deferral of drift to future CV research (§3.1).",
        video_a.timeline().max_count()
    );
}
