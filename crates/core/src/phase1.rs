//! Phase 1 (§3.2): building the initial uncertain relation `D0`.
//!
//! 1. Run the difference detector; only retained frames become x-tuples.
//! 2. Sample frames, label them with the oracle (training + hold-out sets).
//! 3. Train the CMDN hyper-parameter grid; keep the smallest-NLL model.
//! 4. Run the chosen CMDN over every retained frame → Gaussian mixtures.
//! 5. Truncate/quantize the mixtures onto a shared bucket grid; insert the
//!    oracle-labelled frames as *certain* so no work is wasted.
//!
//! Sampling constants: the paper uses `min{0.5 %·n, 30 000}` training
//! frames and a 3 000-frame hold-out against multi-million-frame videos.
//! Our videos are scaled ~1/400, so the defaults keep the same functional
//! form with rescaled constants (`min{2.5 %·n, 2 000}`, hold-out 15 % of
//! the sample) — a CMDN still needs a few hundred samples to train.

use crate::dist::DiscreteDist;
use crate::sim::{component, SimClock, CMDN_INFER_COST, CMDN_TRAIN_COST, DIFF_COST};
use crate::xtuple::UncertainRelation;
use everest_models::Oracle;
use everest_nn::cmdn::CmdnConfig;
use everest_nn::train::{grid_search, parallel_chunks, HyperGrid, Sample, TrainConfig};
use everest_nn::{Cmdn, GaussianMixture};
use everest_video::diff::{DiffConfig, DifferenceDetector, Segments};
use everest_video::store::DecodeCostModel;
use everest_video::VideoStore;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// Phase-1 configuration.
#[derive(Debug, Clone)]
pub struct Phase1Config {
    /// Training-sample fraction of the full frame count.
    pub sample_frac: f64,
    /// Cap on the training-sample size.
    pub sample_cap: usize,
    /// Floor on the training-sample size: unlike the paper's multi-million
    /// frame videos, a scaled video's `frac × n` can drop below what a CMDN
    /// needs to train at all.
    pub sample_min: usize,
    /// Hold-out size as a fraction of the training sample (min 32 frames).
    pub holdout_frac: f64,
    /// CMDN hyper-parameter grid (§3.5).
    pub grid: HyperGrid,
    /// Training-loop settings.
    pub train: TrainConfig,
    /// Conv-stack widths (must divide the input resolution by `2^depth`).
    pub conv_channels: Vec<usize>,
    /// Floor on mixture component σ.
    pub sigma_min: f64,
    /// Difference-detector settings.
    pub diff: DiffConfig,
    /// Quantization step (1.0 for counting; user-supplied otherwise, §3.2).
    pub quant_step: f64,
    /// Hard cap on the bucket-grid size.
    pub max_bucket_cap: usize,
    /// Worker threads for rendering/inference.
    pub threads: usize,
    /// Sampling seed.
    pub seed: u64,
}

impl Default for Phase1Config {
    fn default() -> Self {
        Phase1Config {
            sample_frac: 0.025,
            sample_cap: 2_000,
            sample_min: 200,
            holdout_frac: 0.15,
            grid: HyperGrid::default(),
            train: TrainConfig::default(),
            conv_channels: vec![8, 16, 32],
            sigma_min: 0.25,
            diff: DiffConfig::default(),
            quant_step: 1.0,
            max_bucket_cap: 400,
            threads: default_threads(),
            seed: 0,
        }
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(8)
}

/// Everything Phase 1 produces; reusable across Phase-2 queries on the same
/// video + scoring function.
#[derive(Debug, Clone)]
pub struct Phase1Output {
    /// The initial uncertain relation `D0`; item id = retained position.
    pub relation: UncertainRelation,
    /// Difference-detector segmentation (windows need it).
    pub segments: Segments,
    /// CMDN mixtures per retained frame (windows need them).
    pub mixtures: Vec<GaussianMixture>,
    /// Oracle-labelled retained positions → exact score.
    pub labeled: BTreeMap<usize, f64>,
    /// Grid-search results `(g, h, holdout_nll)`.
    pub grid_results: Vec<(usize, usize, f64)>,
    /// The selected proxy model.
    pub model: Cmdn,
    /// Simulated-time charges of Phase 1.
    pub clock: SimClock,
    /// Largest labelled score (the `M` of the Select-and-TopK baseline).
    pub max_labeled_score: f64,
}

/// Renders one frame at the CMDN input resolution (`(h, w)`), appending
/// its flattened pixels to `out` — the single place the render-or-resize
/// policy lives (training samples, the fused scorer, and tests all route
/// through it).
pub fn render_frame_into(
    video: &dyn VideoStore,
    t: usize,
    input: (usize, usize),
    out: &mut Vec<f32>,
) {
    let f = video.frame(t);
    if (f.height(), f.width()) == input {
        out.extend_from_slice(f.pixels());
    } else {
        out.extend_from_slice(f.resize(input.1, input.0).pixels());
    }
}

/// Renders frames into flattened CMDN inputs, in parallel.
pub fn render_inputs(
    video: &dyn VideoStore,
    frames: &[usize],
    input: (usize, usize),
    threads: usize,
) -> Vec<Vec<f32>> {
    let parts: Vec<Vec<Vec<f32>>> = parallel_chunks(frames, threads, "render", |part| {
        part.iter()
            .map(|&t| {
                let mut px = Vec::new();
                render_frame_into(video, t, input, &mut px);
                px
            })
            .collect()
    });
    parts.into_iter().flatten().collect()
}

/// Frames per batched forward in the fused scoring pipeline — a speed
/// knob only. Each frame's mixture is the same bits at any width because
/// the CMDN's conv layers all have an `h·w` that is a multiple of 16
/// (32×32 inputs: 1 024, 256 and 64 positions), so no frame's columns fall
/// into the GEMM's edge (see `everest_nn::kernels` § Determinism). (The
/// training microbatch is the opposite: its width sets the order of the
/// gradient sum.) On a 2-vCPU x86-64 host a 32×32 `conv [6, 12]` forward
/// costs ~11.5 µs/frame at 4, ~11.8 at 8 and ~12.9 at 16 — the first
/// layer's packed patches (~37 KB per frame) leave the cache as the batch
/// widens — so it is 4.
const INFER_BATCH: usize = 4;

/// Fused render + CMDN-score pass over `frames`, in parallel: each worker
/// owns a model clone and renders its share of the frames **directly into
/// a packed sample-major buffer** (no per-frame `Vec`, no materialised
/// frame set), feeding [`Cmdn::predict_many`]-batched forwards. Returns
/// one mixture per frame, in input order — bit-identical to scoring the
/// frames one at a time, whatever the thread count or batch width (see
/// `INFER_BATCH`).
pub fn score_frames(
    video: &dyn VideoStore,
    model: &Cmdn,
    frames: &[usize],
    threads: usize,
) -> Vec<GaussianMixture> {
    let input = model.config().input;
    let parts: Vec<Vec<GaussianMixture>> = parallel_chunks(frames, threads, "score", |part| {
        let mut worker = model.clone();
        let mut xs: Vec<f32> = Vec::new();
        let mut out = Vec::with_capacity(part.len());
        for sub in part.chunks(INFER_BATCH) {
            xs.clear();
            for &t in sub {
                render_frame_into(video, t, input, &mut xs);
            }
            out.extend(worker.predict_many(&xs));
        }
        out
    });
    parts.into_iter().flatten().collect()
}

/// Runs Phase 1 end to end.
pub fn run_phase1(video: &dyn VideoStore, oracle: &dyn Oracle, cfg: &Phase1Config) -> Phase1Output {
    assert_eq!(
        video.num_frames(),
        oracle.num_frames(),
        "oracle and video must cover the same frames"
    );
    build_d0(video, cfg, Proxy::Train(oracle))
}

/// Populates an uncertain relation over `video` with a **pre-trained**
/// CMDN — the *model drift* scenario of §3.1 ("tracking model drift in
/// visual data is still an ongoing research"): a proxy trained on one
/// video serving another.
///
/// Compared to [`run_phase1`]: no sampling, no labelling, no training —
/// the clock is charged only for the difference detector and the populate
/// pass, and the relation starts with *zero* certain items (Phase 2's
/// bootstrap will oracle-confirm its first K candidates). The
/// `ablation_drift` experiment uses this to measure what a drifted proxy
/// costs in cleaning volume and answer quality.
pub fn populate_with_model(
    video: &dyn VideoStore,
    model: &Cmdn,
    cfg: &Phase1Config,
) -> Phase1Output {
    assert_eq!(
        cmdn_input_dims(video, model.config().conv_channels.len()),
        model.config().input,
        "pre-trained model input dims must match the video's CMDN dims"
    );
    build_d0(video, cfg, Proxy::Given(model))
}

/// Where Phase 1's proxy comes from.
enum Proxy<'a> {
    /// Label a sample of the retained frames with this oracle and train
    /// the CMDN grid on it.
    Train(&'a dyn Oracle),
    /// A pre-trained model, used as is: no labels, no training.
    Given(&'a Cmdn),
}

/// A proxy model and the oracle labels it was trained on.
struct Trained {
    model: Cmdn,
    /// Retained position → exact score.
    labeled: BTreeMap<usize, f64>,
    grid_results: Vec<(usize, usize, f64)>,
}

/// The one builder of `D0`: difference detection, the proxy, CMDN scoring
/// of every retained frame, the shared bucket grid, and the relation.
fn build_d0(video: &dyn VideoStore, cfg: &Phase1Config, proxy: Proxy<'_>) -> Phase1Output {
    let mut clock = SimClock::new();
    let n = video.num_frames();
    let decode = DecodeCostModel::default();

    // 1. Difference detection (one sequential decode pass + MSE per frame).
    let segments = DifferenceDetector::new(cfg.diff).run(video);
    clock.charge(
        component::POPULATE,
        n as f64 * DIFF_COST + decode.sequential_scan_cost(n),
    );
    let retained = segments.retained();
    assert!(
        !retained.is_empty(),
        "difference detector retained no frames"
    );

    // 2–4. The proxy.
    let Trained {
        model,
        labeled,
        grid_results,
    } = match proxy {
        Proxy::Train(oracle) => train_proxy(video, oracle, cfg, retained, &mut clock),
        Proxy::Given(model) => Trained {
            model: model.clone(),
            labeled: BTreeMap::new(),
            grid_results: Vec::new(),
        },
    };

    // 5. CMDN inference over every retained frame: the fused pipeline
    // renders each worker's share straight into packed batch buffers, so
    // the frame set is never materialised (memory stays bounded by
    // threads × INFER_BATCH frames).
    let mixtures = score_frames(video, &model, retained, cfg.threads);
    clock.charge(
        component::POPULATE,
        retained.len() as f64 * CMDN_INFER_COST + decode.trace_cost(retained),
    );

    // 6. Shared bucket grid: cover labelled scores and mixture 3σ ranges.
    let mix_max = mixtures
        .iter()
        .map(|m| m.truncated_range().1)
        .fold(0.0f64, f64::max);
    // With no labels, the proxy's own top stands in for the labelled one.
    let max_labeled_score = labeled
        .values()
        .copied()
        .reduce(f64::max)
        .unwrap_or(mix_max);
    let needed = (max_labeled_score.max(mix_max) / cfg.quant_step).ceil() as usize + 2;
    let max_bucket = needed.clamp(4, cfg.max_bucket_cap);

    // 7. Populate D0: labelled frames enter certain, the rest uncertain.
    let mut relation = UncertainRelation::new(cfg.quant_step, max_bucket);
    for (pos, mixture) in mixtures.iter().enumerate() {
        match labeled.get(&pos) {
            Some(&score) => {
                let b = relation.score_to_bucket(score);
                relation.push_certain(b);
            }
            None => {
                let masses = mixture.quantize(cfg.quant_step, max_bucket);
                relation.push_uncertain(DiscreteDist::from_masses(&masses));
            }
        }
    }

    Phase1Output {
        relation,
        segments,
        mixtures,
        labeled,
        grid_results,
        model,
        clock,
        max_labeled_score,
    }
}

/// Steps 2–4: draws a training and a hold-out sample from the `retained`
/// frames, labels both with the oracle, and keeps the grid's smallest-NLL
/// CMDN.
fn train_proxy(
    video: &dyn VideoStore,
    oracle: &dyn Oracle,
    cfg: &Phase1Config,
    retained: &[usize],
    clock: &mut SimClock,
) -> Trained {
    // 2. Sampling plan over retained frames.
    let n = video.num_frames();
    let m_target = ((cfg.sample_frac * n as f64).ceil() as usize)
        .clamp(cfg.sample_min.max(16), cfg.sample_cap.max(cfg.sample_min));
    let h_target = ((m_target as f64 * cfg.holdout_frac).ceil() as usize).max(32);
    let mut positions: Vec<usize> = (0..retained.len()).collect();
    const SAMPLE_SALT: u64 = 0x5a4d_71e5;
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ SAMPLE_SALT);
    positions.shuffle(&mut rng);
    let m = m_target.min(positions.len().saturating_sub(1)).max(1);
    let h = h_target.min(positions.len() - m);
    let train_pos = &positions[..m];
    let holdout_pos = &positions[m..m + h];

    // 3. Oracle-label the sample (cost: one oracle call per frame).
    let labelled_pos: Vec<usize> = train_pos.iter().chain(holdout_pos).copied().collect();
    let labelled_frames: Vec<usize> = labelled_pos.iter().map(|&p| retained[p]).collect();
    // No budget here: Phase-1 labeling is charged to the LABEL cost
    // component on the very next statement; QueryBudget governs the
    // Phase-2 interactive loop, not this up-front sampling pass.
    let labels = oracle.score_batch(&labelled_frames);
    clock.charge(
        component::LABEL,
        labelled_frames.len() as f64 * oracle.cost_per_frame()
            + DecodeCostModel::default().trace_cost(&labelled_frames),
    );
    let labeled: BTreeMap<usize, f64> = labelled_pos
        .iter()
        .copied()
        .zip(labels.iter().copied())
        .collect();
    let max_labeled_score = labels.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let min_labeled_score = labels.iter().cloned().fold(f64::INFINITY, f64::min);

    // 4. CMDN grid search on the labelled sample.
    let input_hw = cmdn_input_dims(video, cfg.conv_channels.len());
    let make_samples = |pos: &[usize]| -> Vec<Sample> {
        let frames: Vec<usize> = pos.iter().map(|&p| retained[p]).collect();
        let inputs = render_inputs(video, &frames, input_hw, cfg.threads);
        inputs
            .into_iter()
            .zip(pos.iter().map(|p| labeled[p]))
            .collect()
    };
    let train_set = make_samples(train_pos);
    let holdout_set = make_samples(holdout_pos);
    let base = CmdnConfig {
        input: input_hw,
        conv_channels: cfg.conv_channels.clone(),
        hidden: 32,
        num_gaussians: 5,
        sigma_min: cfg.sigma_min,
        target_range: (
            min_labeled_score,
            max_labeled_score.max(min_labeled_score + 1.0),
        ),
        seed: cfg.seed,
    };
    let outcome = grid_search(&cfg.grid, &base, &cfg.train, &train_set, &holdout_set);
    clock.charge(
        component::TRAIN,
        outcome.total_epochs as f64 * train_set.len() as f64 * CMDN_TRAIN_COST,
    );
    Trained {
        model: outcome.best.model,
        labeled,
        grid_results: outcome.evaluated,
    }
}

/// CMDN input dims: the video resolution when it divides cleanly by the
/// pooling stack, otherwise the nearest 32×32 resize (the paper resizes to
/// a fixed CMDN resolution as well).
fn cmdn_input_dims(video: &dyn VideoStore, depth: usize) -> (usize, usize) {
    let div = 1usize << depth;
    let (h, w) = (video.height(), video.width());
    if h % div == 0 && w % div == 0 {
        (h, w)
    } else {
        (32, 32)
    }
}

/// The core unit tests' Phase-1 recipe: a 150-label sample and one 3×16
/// CMDN trained for 8 epochs.
#[cfg(test)]
pub(crate) fn fast_phase1() -> Phase1Config {
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
        threads: 4,
        ..Phase1Config::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use everest_models::counting_oracle;
    use everest_video::arrival::{ArrivalConfig, Timeline};
    use everest_video::scene::{SceneConfig, SyntheticVideo};

    fn tiny_setup() -> (SyntheticVideo, everest_models::ExactScoreOracle) {
        let tl = Timeline::generate(
            &ArrivalConfig {
                n_frames: 1_200,
                ..ArrivalConfig::default()
            },
            13,
        );
        let v = SyntheticVideo::new(SceneConfig::default(), tl, 13, 30.0);
        let o = counting_oracle(&v);
        (v, o)
    }

    #[test]
    fn phase1_builds_consistent_relation() {
        let (v, o) = tiny_setup();
        let out = run_phase1(&v, &o, &fast_phase1());
        assert_eq!(out.relation.len(), out.segments.num_retained());
        assert_eq!(out.mixtures.len(), out.segments.num_retained());
        assert!(
            out.relation.num_certain() > 0,
            "labelled frames must be certain"
        );
        assert!(out.relation.num_uncertain() > 0);
        // labelled certain buckets must equal the oracle's exact counts
        for (&pos, &score) in &out.labeled {
            assert_eq!(
                out.relation.certain_bucket(pos),
                Some(out.relation.score_to_bucket(score)),
                "labelled frame at position {pos}"
            );
        }
    }

    #[test]
    fn phase1_charges_all_components() {
        let (v, o) = tiny_setup();
        let out = run_phase1(&v, &o, &fast_phase1());
        assert!(out.clock.component(component::LABEL) > 0.0);
        assert!(out.clock.component(component::TRAIN) > 0.0);
        assert!(out.clock.component(component::POPULATE) > 0.0);
        assert_eq!(out.clock.component(component::CONFIRM), 0.0);
    }

    #[test]
    fn phase1_is_deterministic() {
        let (v, o) = tiny_setup();
        let a = run_phase1(&v, &o, &fast_phase1());
        let b = run_phase1(&v, &o, &fast_phase1());
        assert_eq!(a.relation, b.relation);
        assert_eq!(a.grid_results, b.grid_results);
    }

    #[test]
    fn grid_covers_labelled_scores() {
        let (v, o) = tiny_setup();
        let out = run_phase1(&v, &o, &fast_phase1());
        let max_label = out.labeled.values().cloned().fold(0.0f64, f64::max);
        assert!(
            out.relation.max_bucket() as f64 * out.relation.step() >= max_label,
            "grid must cover the labelled maximum"
        );
    }

    #[test]
    fn populate_with_model_reuses_weights_without_labels() {
        let (v, o) = tiny_setup();
        let cfg = fast_phase1();
        let native = run_phase1(&v, &o, &cfg);
        let drifted = populate_with_model(&v, &native.model, &cfg);
        // same video + same model → same segmentation and mixtures
        assert_eq!(drifted.segments, native.segments);
        assert_eq!(drifted.mixtures, native.mixtures);
        // but no labels, no training charge, all-uncertain relation
        assert!(drifted.labeled.is_empty());
        assert!(drifted.grid_results.is_empty());
        assert_eq!(drifted.relation.num_certain(), 0);
        assert_eq!(drifted.relation.len(), drifted.segments.num_retained());
        assert_eq!(drifted.clock.component(crate::sim::component::TRAIN), 0.0);
        assert_eq!(drifted.clock.component(crate::sim::component::LABEL), 0.0);
        assert!(drifted.clock.component(crate::sim::component::POPULATE) > 0.0);
    }

    #[test]
    fn render_inputs_matches_direct_render() {
        let (v, _) = tiny_setup();
        let frames = vec![0, 7, 100];
        let inputs = render_inputs(&v, &frames, (32, 32), 2);
        assert_eq!(inputs.len(), 3);
        assert_eq!(inputs[1], v.frame(7).pixels().to_vec());
    }

    /// The fused render+score pipeline must agree exactly with scoring
    /// each frame alone, whatever the thread count.
    #[test]
    fn score_frames_matches_per_frame_predict() {
        let (v, o) = tiny_setup();
        let out = run_phase1(&v, &o, &fast_phase1());
        let frames: Vec<usize> = out.segments.retained().iter().copied().take(37).collect();
        let mut single = out.model.clone();
        for threads in [1usize, 3] {
            let fused = score_frames(&v, &out.model, &frames, threads);
            assert_eq!(fused.len(), frames.len());
            for (i, &t) in frames.iter().enumerate() {
                let mut input = Vec::new();
                render_frame_into(&v, t, single.config().input, &mut input);
                assert_eq!(
                    fused[i],
                    single.predict(&input),
                    "frame {t} threads {threads}"
                );
            }
        }
    }
}
