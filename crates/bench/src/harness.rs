//! Shared experiment harness: dataset preparation, method runners, and
//! table printing for the paper experiments in [`crate::figures`].
//!
//! Scale control: the `EVEREST_SCALE` environment variable selects
//! `full` (the 1/400-scaled Table 7 catalog as-is), `mid` (default —
//! a further 1/4 shrink so the whole suite runs in ~10 minutes), or
//! `smoke` (tiny; CI-sized).

use everest_core::baselines::{
    cheap_scan, cmdn_only, scan_and_test, select_and_topk_calibrated, BaselineResult,
};
use everest_core::cleaner::CleanerConfig;
use everest_core::metrics::{evaluate_topk, GroundTruth, ResultQuality};
use everest_core::phase1::Phase1Config;
use everest_core::pipeline::{Everest, PreparedVideo, QueryReport};
use everest_core::window::{exact_window_scores, sliding_windows};
use everest_models::{
    counting_oracle, ExactScoreOracle, HogScorer, InstrumentedOracle, TinyYoloScorer,
};
use everest_nn::train::TrainConfig;
use everest_nn::HyperGrid;
use everest_video::datasets::{counting_datasets, DatasetSpec};
use everest_video::VideoStore;

/// Experiment scale knobs.
#[derive(Debug, Clone)]
pub struct Scale {
    pub name: &'static str,
    /// Extra divisor applied to the catalog's (already 1/400) frame counts.
    pub shrink: u32,
    pub sample_cap: usize,
    pub grid: HyperGrid,
    pub epochs: usize,
    /// Default K for the headline experiments (the paper uses 50).
    pub default_k: usize,
}

/// The scale preset called `name` (`full` | `smoke`; anything else is `mid`).
pub fn scale_named(name: &str) -> Scale {
    match name {
        "full" => Scale {
            name: "full",
            shrink: 1,
            sample_cap: 2_000,
            grid: HyperGrid::default(), // 2×2 = 4 models
            epochs: 25,
            default_k: 50,
        },
        "smoke" => Scale {
            name: "smoke",
            shrink: 16,
            sample_cap: 300,
            grid: HyperGrid::single(5, 24),
            epochs: 12,
            default_k: 20,
        },
        _ => Scale {
            name: "mid",
            shrink: 4,
            sample_cap: 1_000,
            grid: HyperGrid {
                gaussians: vec![5, 8],
                hidden: vec![24],
            },
            epochs: 30,
            default_k: 50,
        },
    }
}

/// Reads `EVEREST_SCALE` (`full` | `mid` | `smoke`); defaults to `mid`.
pub fn scale_from_env() -> Scale {
    scale_named(std::env::var("EVEREST_SCALE").as_deref().unwrap_or("mid"))
}

/// The Table 7 counting catalog at the chosen scale.
///
/// Shrinking never takes a dataset below ~4 000 frames: a Top-50 query
/// over fewer frames targets several percent of the whole video, which is
/// a different regime from the paper's (Top-50 of millions).
pub fn dataset_specs(scale: &Scale) -> Vec<DatasetSpec> {
    counting_datasets()
        .into_iter()
        .map(|mut d| {
            let shrunk = (d.n_frames / scale.shrink as usize).max(d.n_frames.min(4_000));
            d.scale = (d.paper_frames_k as usize * 1000 / shrunk) as u32;
            d.n_frames = shrunk;
            d.arrival.n_frames = d.n_frames;
            d
        })
        .collect()
}

/// Phase-1 configuration for a scale (quantization step 1 = counting).
pub fn phase1_cfg(scale: &Scale, quant_step: f64, seed: u64) -> Phase1Config {
    Phase1Config {
        sample_frac: 0.04,
        sample_cap: scale.sample_cap,
        sample_min: 300,
        grid: scale.grid.clone(),
        train: TrainConfig {
            epochs: scale.epochs,
            ..TrainConfig::default()
        },
        quant_step,
        seed,
        ..Phase1Config::default()
    }
}

/// A fully prepared dataset: oracle + Phase-1 artifacts + truth.
pub struct PreparedDataset {
    pub name: String,
    pub oracle: InstrumentedOracle<ExactScoreOracle>,
    pub prepared: PreparedVideo,
    pub truth: GroundTruth,
}

/// Phase-1-prepares any video under its exact-score oracle.
pub fn prepare_video(
    name: &str,
    video: &dyn VideoStore,
    oracle: ExactScoreOracle,
    cfg: &Phase1Config,
) -> PreparedDataset {
    let oracle = InstrumentedOracle::new(oracle);
    let prepared = Everest::prepare(video, &oracle, cfg);
    let truth = GroundTruth::new(oracle.inner().all_scores().to_vec());
    PreparedDataset {
        name: name.to_string(),
        oracle,
        prepared,
        truth,
    }
}

/// Builds and Phase-1-prepares one catalog dataset.
pub fn prepare_dataset(spec: &DatasetSpec, seed: u64, scale: &Scale) -> PreparedDataset {
    let video = spec.build(seed);
    let cfg = phase1_cfg(scale, 1.0, seed);
    prepare_video(spec.name, &video, counting_oracle(&video), &cfg)
}

/// One measured method run: quality + simulated latency (+ speedup against
/// the scan-and-test reference).
#[derive(Debug, Clone)]
pub struct MethodRow {
    pub method: String,
    pub quality: ResultQuality,
    pub sim_seconds: f64,
    pub speedup: f64,
}

/// Runs the Everest query and evaluates it against the whole-video truth.
pub fn run_everest(ds: &PreparedDataset, k: usize, thres: f64) -> (QueryReport, MethodRow) {
    let report = ds
        .prepared
        .query_topk(&ds.oracle, k, thres, &CleanerConfig::default());
    let quality = evaluate_topk(&ds.truth, &report.frames(), k);
    let scan = scan_cost(&ds.oracle);
    let row = MethodRow {
        method: "Everest".into(),
        quality,
        sim_seconds: report.sim_seconds(),
        speedup: scan / report.sim_seconds(),
    };
    (report, row)
}

/// Runs a window query and evaluates against exact window means.
pub fn run_everest_windows(
    ds: &PreparedDataset,
    k: usize,
    thres: f64,
    window_len: usize,
    sample_frac: f64,
) -> (QueryReport, MethodRow) {
    let report = ds.prepared.query_topk_windows(
        &ds.oracle,
        k,
        thres,
        window_len,
        sample_frac,
        &CleanerConfig::default(),
    );
    let windows = sliding_windows(ds.prepared.n_frames(), window_len, window_len);
    let exact = exact_window_scores(ds.oracle.inner().all_scores(), &windows);
    let truth = GroundTruth::new(exact);
    let answer: Vec<usize> = report.items.iter().map(|i| i.frame / window_len).collect();
    let quality = evaluate_topk(&truth, &answer, k);
    let scan = scan_cost(&ds.oracle);
    let row = MethodRow {
        method: format!("Everest(w={window_len})"),
        quality,
        sim_seconds: report.sim_seconds(),
        speedup: scan / report.sim_seconds(),
    };
    (report, row)
}

/// Simulated cost of the scan-and-test reference on this oracle.
pub fn scan_cost(oracle: &InstrumentedOracle<ExactScoreOracle>) -> f64 {
    scan_and_test(oracle.inner(), 1).sim_seconds
}

/// Evaluates a baseline result against the dataset truth.
pub fn eval_baseline(ds: &PreparedDataset, r: &BaselineResult, k: usize) -> MethodRow {
    let quality = evaluate_topk(&ds.truth, &r.topk, k);
    let scan = scan_cost(&ds.oracle);
    MethodRow {
        method: r.name.clone(),
        quality,
        sim_seconds: r.sim_seconds,
        speedup: scan / r.sim_seconds,
    }
}

/// Runs the full Figure-4 method suite on one dataset.
pub fn run_all_methods(ds: &PreparedDataset, k: usize, thres: f64) -> Vec<MethodRow> {
    let mut rows = Vec::new();
    let scan = scan_and_test(ds.oracle.inner(), k);
    rows.push(eval_baseline(ds, &scan, k));
    let hog = cheap_scan(&HogScorer::new(ds.oracle.inner().clone(), 1), k);
    rows.push(eval_baseline(ds, &hog, k));
    let tiny = cheap_scan(&TinyYoloScorer::new(ds.oracle.inner().clone(), 1), k);
    rows.push(eval_baseline(ds, &tiny, k));
    rows.push(eval_baseline(ds, &cmdn_only(&ds.prepared, k), k));
    // No row when no λ selects K candidates.
    if let Some(snt) = select_and_topk_calibrated(&ds.prepared, ds.oracle.inner(), k, 0.9) {
        rows.push(eval_baseline(ds, &snt, k));
    }
    let (_, everest) = run_everest(ds, k, thres);
    rows.push(everest);
    rows
}

/// Prints a method table in the Figure-4 layout.
pub fn print_method_table(dataset: &str, rows: &[MethodRow]) {
    println!("\n--- {dataset} ---");
    println!(
        "{:<24} {:>9} {:>10} {:>10} {:>11} {:>12}",
        "method", "speedup", "precision", "rank-dist", "score-err", "sim-time(s)"
    );
    for r in rows {
        println!(
            "{:<24} {:>8.1}x {:>10.3} {:>10.4} {:>11.3} {:>12.1}",
            r.method,
            r.speedup,
            r.quality.precision,
            r.quality.rank_distance,
            r.quality.score_error,
            r.sim_seconds
        );
    }
}

/// Prints one Everest sweep row (Figures 5–9 series).
pub fn print_sweep_row(label: &str, row: &MethodRow) {
    println!(
        "{:<18} speedup {:>6.1}x  precision {:>5.3}  rank-dist {:>7.4}  score-err {:>6.3}",
        label,
        row.speedup,
        row.quality.precision,
        row.quality.rank_distance,
        row.quality.score_error
    );
}
