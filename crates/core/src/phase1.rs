//! Phase 1 (§3.2): building the initial uncertain relation `D0`.
//!
//! Each step is public, and [`run_phase1`] is their composition:
//!
//! 1. [`Phase1Config::detect`] runs the difference detector; only
//!    retained frames become x-tuples.
//! 2. [`Phase1Config::label_plan`] draws the training and hold-out
//!    positions, and [`LabelPlan::label`] labels them with the oracle.
//! 3. [`Phase1Config::proxy_config`] shapes the CMDN for the video and the
//!    label range, [`LabelPlan::samples`] renders its inputs, and
//!    [`Phase1Config::train_proxy`] trains the hyper-parameter grid and
//!    keeps the smallest-NLL model.
//! 4. [`score_frames`] runs the chosen CMDN over every retained frame →
//!    Gaussian mixtures.
//! 5. [`Phase1Config::populate`] truncates/quantizes the mixtures onto a
//!    shared bucket grid and inserts the oracle-labelled frames as
//!    *certain* so no work is wasted.
//!
//! [`populate_with_model`] composes steps 1, 4 and 5 around a pre-trained
//! model. A step that costs simulated time charges the clock it is given.
//!
//! Sampling constants: the paper uses `min{0.5 %·n, 30 000}` training
//! frames and a 3 000-frame hold-out against multi-million-frame videos.
//! Our videos are scaled ~1/400, so the defaults keep the same functional
//! form with rescaled constants (`min{2.5 %·n, 2 000}`, hold-out 15 % of
//! the sample) — a CMDN still needs a few hundred samples to train.
//!
//! [`Phase1Config::interactive`] is the recipe EVQL prepares every video
//! with: `min{4 %·n, 800}` labels (floor 200, hold-out 15 %), a
//! `conv [6, 12]` CMDN, a one-point grid of 3 Gaussians × 16 hidden units,
//! 6 training epochs, and sampling/initialisation seed `seed + 0xE7E57`.
//! Everything else, the thread count included, is the default's.

use crate::dist::DiscreteDist;
use crate::sim::{component, SimClock, CMDN_INFER_COST, CMDN_TRAIN_COST, DIFF_COST};
use crate::xtuple::UncertainRelation;
use everest_models::Oracle;
use everest_nn::cmdn::CmdnConfig;
use everest_nn::train::{
    default_threads, grid_search, parallel_chunks, HyperGrid, Sample, TrainConfig, TrainOutcome,
};
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

impl Phase1Config {
    /// The recipe EVQL prepares every video with: the paper's protocol
    /// (random sample → CMDN grid → hold-out NLL selection) at interactive
    /// scale. The module header lists its constants.
    pub fn interactive(quant_step: f64, seed: u64) -> Self {
        Phase1Config {
            sample_frac: 0.04,
            sample_cap: 800,
            sample_min: 200,
            grid: HyperGrid::single(3, 16),
            train: TrainConfig {
                epochs: 6,
                ..TrainConfig::default()
            },
            conv_channels: vec![6, 12],
            quant_step,
            seed: seed.wrapping_add(0xE7E57),
            ..Phase1Config::default()
        }
    }

    /// Step 1: the difference detector over the whole video (one
    /// sequential decode pass + MSE per frame), charged to `POPULATE`.
    pub fn detect(&self, video: &dyn VideoStore, clock: &mut SimClock) -> Segments {
        let n = video.num_frames();
        let segments = DifferenceDetector::new(self.diff).run(video);
        clock.charge(
            component::POPULATE,
            n as f64 * DIFF_COST + DecodeCostModel::default().sequential_scan_cost(n),
        );
        assert!(
            !segments.retained().is_empty(),
            "difference detector retained no frames"
        );
        segments
    }

    /// Step 2: draws the training and hold-out positions among
    /// `n_retained` retained frames of an `n_frames`-frame video.
    pub fn label_plan(&self, n_frames: usize, n_retained: usize) -> LabelPlan {
        const SAMPLE_SALT: u64 = 0x5a4d_71e5;
        let m_target = ((self.sample_frac * n_frames as f64).ceil() as usize).clamp(
            self.sample_min.max(16),
            self.sample_cap.max(self.sample_min),
        );
        let h_target = ((m_target as f64 * self.holdout_frac).ceil() as usize).max(32);
        let mut positions: Vec<usize> = (0..n_retained).collect();
        positions.shuffle(&mut StdRng::seed_from_u64(self.seed ^ SAMPLE_SALT));
        let m = m_target.min(n_retained.saturating_sub(1)).max(1);
        let h = h_target.min(n_retained - m);
        positions.truncate(m + h);
        let holdout = positions.split_off(m);
        LabelPlan {
            train: positions,
            holdout,
        }
    }

    /// Step 3's model: the proxy's `CmdnConfig` for `video`, its targets
    /// spanning the `labeled` scores. The input is the video's resolution
    /// when the pooling stack divides it, otherwise a 32×32 resize (the
    /// paper resizes to a fixed CMDN resolution as well).
    pub fn proxy_config(
        &self,
        video: &dyn VideoStore,
        labeled: &BTreeMap<usize, f64>,
    ) -> CmdnConfig {
        let (lo, hi) = label_range(labeled);
        CmdnConfig {
            input: cmdn_input_dims(video, self.conv_channels.len()),
            conv_channels: self.conv_channels.clone(),
            hidden: 32,
            num_gaussians: 5,
            sigma_min: self.sigma_min,
            target_range: (lo, hi.max(lo + 1.0)),
            seed: self.seed,
        }
    }

    /// Step 3: trains the hyper-parameter grid from `base` and keeps the
    /// smallest hold-out-NLL model (§3.2), charged to `TRAIN`.
    pub fn train_proxy(
        &self,
        base: &CmdnConfig,
        train: &[Sample],
        holdout: &[Sample],
        clock: &mut SimClock,
    ) -> TrainOutcome {
        let outcome = grid_search(&self.grid, base, &self.train, train, holdout);
        clock.charge(
            component::TRAIN,
            outcome.total_epochs as f64 * train.len() as f64 * CMDN_TRAIN_COST,
        );
        outcome
    }

    /// Step 5: `D0` from one mixture per retained frame. The shared bucket
    /// grid covers the labelled scores and every mixture's 3σ range;
    /// labelled positions enter certain, the rest as their quantized
    /// mixtures. Charges `POPULATE` for the CMDN pass over `retained` that
    /// produced `mixtures`. Returns `D0` and the largest labelled score
    /// (the proxy's largest upper end when nothing is labelled).
    pub fn populate(
        &self,
        retained: &[usize],
        mixtures: &[GaussianMixture],
        labeled: &BTreeMap<usize, f64>,
        clock: &mut SimClock,
    ) -> (UncertainRelation, f64) {
        clock.charge(
            component::POPULATE,
            retained.len() as f64 * CMDN_INFER_COST
                + DecodeCostModel::default().trace_cost(retained),
        );
        let mix_max = mixtures
            .iter()
            .map(|m| m.truncated_range().1)
            .fold(0.0f64, f64::max);
        let top = if labeled.is_empty() {
            mix_max
        } else {
            label_range(labeled).1
        };
        let needed = (top.max(mix_max) / self.quant_step).ceil() as usize + 2;
        let max_bucket = needed.clamp(4, self.max_bucket_cap);
        let mut relation = UncertainRelation::new(self.quant_step, max_bucket);
        for (pos, mixture) in mixtures.iter().enumerate() {
            match labeled.get(&pos) {
                Some(&score) => {
                    let b = relation.score_to_bucket(score);
                    relation.push_certain(b);
                }
                None => {
                    let masses = mixture.quantize(self.quant_step, max_bucket);
                    relation.push_uncertain(DiscreteDist::from_masses(&masses));
                }
            }
        }
        (relation, top)
    }
}

/// Step 2's draw: positions into the retained frames (`Segments::retained`)
/// labelled for training and for hold-out, disjoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabelPlan {
    /// Positions the proxy trains on.
    pub train: Vec<usize>,
    /// Positions the grid's models are compared on (hold-out NLL).
    pub holdout: Vec<usize>,
}

impl LabelPlan {
    /// Labels the plan's frames with the oracle in one batch, charged to
    /// `LABEL`; returns retained position → exact score.
    pub fn label(
        &self,
        oracle: &dyn Oracle,
        retained: &[usize],
        clock: &mut SimClock,
    ) -> BTreeMap<usize, f64> {
        let positions: Vec<usize> = self.train.iter().chain(&self.holdout).copied().collect();
        let frames: Vec<usize> = positions.iter().map(|&p| retained[p]).collect();
        // No budget here: QueryBudget governs the Phase-2 interactive loop,
        // not this up-front sampling pass.
        let labels = oracle.score_batch(&frames);
        clock.charge(
            component::LABEL,
            frames.len() as f64 * oracle.cost_per_frame()
                + DecodeCostModel::default().trace_cost(&frames),
        );
        positions.into_iter().zip(labels).collect()
    }

    /// Renders the training and the hold-out frames at the CMDN `input`
    /// resolution, each paired with its label.
    pub fn samples(
        &self,
        video: &dyn VideoStore,
        retained: &[usize],
        labeled: &BTreeMap<usize, f64>,
        input: (usize, usize),
        threads: usize,
    ) -> (Vec<Sample>, Vec<Sample>) {
        let render = |pos: &[usize]| -> Vec<Sample> {
            let frames: Vec<usize> = pos.iter().map(|&p| retained[p]).collect();
            render_inputs(video, &frames, input, threads)
                .into_iter()
                .zip(pos.iter().map(|p| labeled[p]))
                .collect()
        };
        (render(&self.train), render(&self.holdout))
    }
}

/// The smallest and the largest labelled score (`(∞, −∞)` when nothing is
/// labelled).
fn label_range(labeled: &BTreeMap<usize, f64>) -> (f64, f64) {
    labeled
        .values()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &s| {
            (lo.min(s), hi.max(s))
        })
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

/// Runs Phase 1 end to end: the module header's steps, in order.
pub fn run_phase1(video: &dyn VideoStore, oracle: &dyn Oracle, cfg: &Phase1Config) -> Phase1Output {
    assert_eq!(
        video.num_frames(),
        oracle.num_frames(),
        "oracle and video must cover the same frames"
    );
    let mut clock = SimClock::new();
    let segments = cfg.detect(video, &mut clock);
    let retained = segments.retained();
    let plan = cfg.label_plan(video.num_frames(), retained.len());
    let labeled = plan.label(oracle, retained, &mut clock);
    let base = cfg.proxy_config(video, &labeled);
    // The rendered samples are freed before the scoring pass.
    let outcome = {
        let (train, holdout) = plan.samples(video, retained, &labeled, base.input, cfg.threads);
        cfg.train_proxy(&base, &train, &holdout, &mut clock)
    };
    let model = outcome.best.model;
    let mixtures = score_frames(video, &model, retained, cfg.threads);
    let (relation, max_labeled_score) = cfg.populate(retained, &mixtures, &labeled, &mut clock);
    Phase1Output {
        relation,
        segments,
        mixtures,
        labeled,
        grid_results: outcome.evaluated,
        model,
        clock,
        max_labeled_score,
    }
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
    let mut clock = SimClock::new();
    let segments = cfg.detect(video, &mut clock);
    let retained = segments.retained();
    let labeled = BTreeMap::new();
    let mixtures = score_frames(video, model, retained, cfg.threads);
    let (relation, max_labeled_score) = cfg.populate(retained, &mixtures, &labeled, &mut clock);
    Phase1Output {
        relation,
        segments,
        mixtures,
        labeled,
        grid_results: Vec::new(),
        model: model.clone(),
        clock,
        max_labeled_score,
    }
}

/// The CMDN input resolution for `video` under a `depth`-block pooling
/// stack (see [`Phase1Config::proxy_config`]).
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

    /// The public steps, called one by one in `run_phase1`'s order, give
    /// its relation, mixtures, labels and clock bit for bit.
    #[test]
    fn steps_compose_to_run_phase1() {
        let (v, o) = tiny_setup();
        let cfg = fast_phase1();
        let whole = run_phase1(&v, &o, &cfg);

        let mut clock = SimClock::new();
        let segments = cfg.detect(&v, &mut clock);
        let retained = segments.retained();
        let plan = cfg.label_plan(v.num_frames(), retained.len());
        let labeled = plan.label(&o, retained, &mut clock);
        let base = cfg.proxy_config(&v, &labeled);
        let (train, holdout) = plan.samples(&v, retained, &labeled, base.input, cfg.threads);
        let outcome = cfg.train_proxy(&base, &train, &holdout, &mut clock);
        let mixtures = score_frames(&v, &outcome.best.model, retained, cfg.threads);
        let (relation, top) = cfg.populate(retained, &mixtures, &labeled, &mut clock);

        assert_eq!(segments, whole.segments);
        assert_eq!(labeled, whole.labeled);
        assert_eq!(outcome.evaluated, whole.grid_results);
        assert_eq!(mixtures, whole.mixtures);
        assert_eq!(relation, whole.relation);
        assert_eq!(top.to_bits(), whole.max_labeled_score.to_bits());
        // `{:?}` prints each charge's shortest round-trip form, so equal
        // text is equal bits.
        assert_eq!(format!("{clock:?}"), format!("{:?}", whole.clock));
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
                    single.predict_many(&input)[0],
                    "frame {t} threads {threads}"
                );
            }
        }
    }
}
