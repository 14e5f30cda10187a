//! Mini-batch CMDN training, hold-out evaluation, and the hyper-parameter
//! grid search of §3.2/§3.5.
//!
//! The paper trains 12 CMDNs over the grid g = {5, 8, 12, 15} ×
//! h = {20, 30, 40} and keeps the one with the smallest hold-out negative
//! log-likelihood. [`HyperGrid::paper`] reproduces that grid;
//! [`HyperGrid::default`] is the scaled-down grid used by the experiments
//! (the protocol — train all, select by hold-out NLL, discard the rest — is
//! identical).
//!
//! Gradients are data-parallel: each batch splits into a fixed number of
//! shards (`SHARDS`, 2); a worker clones the model per shard, pushes the
//! shard through the **batched** layer passes (one im2col + GEMM per layer
//! per microbatch — see [`crate::kernels`]) accumulating gradients, and the
//! main thread sums the flattened shard gradients in shard order and
//! applies one Adam step. The shard count, not the worker count, fixes the
//! summation order, so the trained model does not depend on the host.

use crate::cmdn::{Cmdn, CmdnConfig};
use crate::optim::Adam;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A labelled sample: flattened grayscale pixels and the oracle score.
pub type Sample = (Vec<f32>, f64);

/// Training-loop configuration.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Maximum training epochs.
    pub epochs: usize,
    /// Minibatch size per Adam step.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Early-stopping patience in epochs (0 disables early stopping).
    pub patience: usize,
    /// Shuffling seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 30,
            batch_size: 64,
            lr: 2e-3,
            patience: 6,
            seed: 0,
        }
    }
}

/// The default worker count of every parallel stage: the host's
/// parallelism, at most 8 (4 when it cannot be read).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(8)
}

/// A trained model together with its selection statistics.
#[derive(Debug, Clone)]
pub struct TrainedCmdn {
    /// The best-holdout-NLL snapshot of the trained model.
    pub model: Cmdn,
    /// Mean hold-out NLL of the selected (best) epoch.
    pub holdout_nll: f64,
    /// Epochs actually run (≤ `epochs` under early stopping).
    pub epochs_run: usize,
}

/// Trains one CMDN configuration to convergence (or early stop) and returns
/// the best-hold-out snapshot. Each batch's gradient shards and the
/// hold-out NLL's run on [`default_threads`] workers; the split into
/// shards is fixed, so the worker count sets speed, not bits.
pub fn train_cmdn(
    cfg: CmdnConfig,
    tcfg: &TrainConfig,
    train: &[Sample],
    holdout: &[Sample],
) -> TrainedCmdn {
    train_on(cfg, tcfg, train, holdout, default_threads())
}

/// [`train_cmdn`] on `threads` workers.
fn train_on(
    cfg: CmdnConfig,
    tcfg: &TrainConfig,
    train: &[Sample],
    holdout: &[Sample],
    threads: usize,
) -> TrainedCmdn {
    assert!(!train.is_empty(), "empty training set");
    assert!(tcfg.batch_size >= 1 && tcfg.epochs >= 1 && threads >= 1);
    let mut model = Cmdn::new(cfg);
    let mut opt = Adam::new(tcfg.lr, model.num_params());
    const SHUFFLE_SALT: u64 = 0x7_2a1f_5eed;
    let mut rng = StdRng::seed_from_u64(tcfg.seed ^ SHUFFLE_SALT);
    let mut order: Vec<usize> = (0..train.len()).collect();

    let mut best_nll = f64::INFINITY;
    let mut best_params = model.params_flat();
    let mut since_best = 0usize;
    let mut epochs_run = 0usize;

    for _epoch in 0..tcfg.epochs {
        epochs_run += 1;
        order.shuffle(&mut rng);
        for batch in order.chunks(tcfg.batch_size) {
            let grads = parallel_batch_grads(&model, train, batch, threads);
            let mut params = model.params_flat();
            opt.step(&mut params, &grads);
            model.set_params_flat(&params);
        }
        let nll = if holdout.is_empty() {
            mean_nll(&model, train, threads)
        } else {
            mean_nll(&model, holdout, threads)
        };
        if nll < best_nll {
            best_nll = nll;
            best_params = model.params_flat();
            since_best = 0;
        } else {
            since_best += 1;
            if tcfg.patience > 0 && since_best >= tcfg.patience {
                break;
            }
        }
    }
    model.set_params_flat(&best_params);
    TrainedCmdn {
        model,
        holdout_nll: best_nll,
        epochs_run,
    }
}

/// Runs `f` over up to `threads` contiguous chunks of `items` on scoped
/// worker threads, returning the per-chunk results in chunk order — the
/// shared scaffolding behind every data-parallel pass here and in
/// `everest-core` (gradients, evaluation, frame scoring). Returns an
/// empty vector for empty `items`; a panicking worker propagates with
/// `<label> worker panicked`.
pub fn parallel_chunks<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    label: &str,
    f: impl Fn(&[T]) -> R + Sync,
) -> Vec<R> {
    if items.is_empty() {
        return Vec::new();
    }
    let threads = threads.min(items.len()).max(1);
    let chunk = items.len().div_ceil(threads);
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|part| scope.spawn(move || f(part)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| panic!("{label} worker panicked"))
            })
            .collect()
    })
}

/// Contiguous shards a gradient batch and a hold-out set are split into.
/// Part of the numeric contract, like the microbatch width: each shard
/// sums its own partial in a fixed order and the partials fold in shard
/// order, so the trained weights are the same bits however many workers
/// compute the shards. Two is the split a 2-worker host always made, so
/// those hosts' answers keep their bits.
const SHARDS: usize = 2;

/// Samples per batched layer pass within a shard. Unlike the inference
/// batch width (`INFER_BATCH` in `everest-core`, which changes no bit),
/// this is **part of the numeric contract**: it sets the order of the
/// gradient sum — a shard accumulates one microbatch at a time, and each
/// weight-gradient dot product spans one microbatch's columns — and the
/// grouping of the hold-out NLL sum, so changing it moves the trained
/// weights. It was picked for speed (the packed-patch matrix grows with
/// the microbatch; on a 2-vCPU x86-64 host a 3-epoch 32×32 train ran
/// ~0.36 s at 2–4 samples per pass vs ~0.50 s at 32) and stays 4 for the
/// bits.
const MICROBATCH: usize = 4;

/// Runs `f` over the [`SHARDS`] contiguous shards of `items` on up to
/// `threads` workers, returning the per-shard results in shard order —
/// the same results for every `threads ≥ 1`.
fn sharded<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    label: &str,
    f: impl Fn(&[T]) -> R + Sync,
) -> Vec<R> {
    if items.is_empty() {
        return Vec::new();
    }
    let shards: Vec<&[T]> = items.chunks(items.len().div_ceil(SHARDS)).collect();
    parallel_chunks(&shards, threads, label, |mine| {
        mine.iter().map(|shard| f(shard)).collect::<Vec<R>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Packs inputs into one sample-major buffer (cleared first), asserting
/// each sample has the model's input length — concatenation would
/// otherwise silently misalign mis-sized samples.
fn pack_inputs<'a>(
    inputs: impl Iterator<Item = &'a Vec<f32>>,
    sample_len: usize,
    xs: &mut Vec<f32>,
) {
    xs.clear();
    for x in inputs {
        assert_eq!(x.len(), sample_len, "CMDN input size mismatch");
        xs.extend_from_slice(x);
    }
}

/// Packs samples into one sample-major buffer + target vector.
fn pack_samples<'a>(
    samples: impl Iterator<Item = &'a Sample> + Clone,
    sample_len: usize,
    xs: &mut Vec<f32>,
    ys: &mut Vec<f64>,
) {
    pack_inputs(samples.clone().map(|(x, _)| x), sample_len, xs);
    ys.clear();
    ys.extend(samples.map(|(_, y)| y));
}

/// Sums per-sample gradients over `batch` (indices into `data`), averaged by
/// batch size, one partial per shard on up to `threads` workers. Each shard
/// goes through whole-microbatch GEMMs ([`Cmdn::train_step_batch`]).
fn parallel_batch_grads(
    model: &Cmdn,
    data: &[Sample],
    batch: &[usize],
    threads: usize,
) -> Vec<f32> {
    let partials: Vec<Vec<f32>> = sharded(batch, threads, "grad", |idxs| {
        let mut worker = model.clone();
        worker.zero_grads();
        let ilen = worker.input_len();
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for sub in idxs.chunks(MICROBATCH) {
            pack_samples(sub.iter().map(|&i| &data[i]), ilen, &mut xs, &mut ys);
            let _ = worker.train_step_batch(&xs, &ys);
        }
        worker.grads_flat()
    });
    let n = batch.len() as f32;
    let mut total = partials[0].clone();
    for p in &partials[1..] {
        for (t, v) in total.iter_mut().zip(p.iter()) {
            *t += v;
        }
    }
    for t in &mut total {
        *t /= n;
    }
    total
}

/// Mean NLL over a dataset, one partial sum per shard on up to `threads`
/// workers, with batched forwards. The result does not depend on `threads`.
fn mean_nll(model: &Cmdn, data: &[Sample], threads: usize) -> f64 {
    if data.is_empty() {
        return f64::NAN;
    }
    let sums: Vec<f64> = sharded(data, threads, "eval", |part| {
        let mut worker = model.clone();
        let ilen = worker.input_len();
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        let mut sum = 0.0f64;
        for sub in part.chunks(MICROBATCH) {
            pack_samples(sub.iter(), ilen, &mut xs, &mut ys);
            sum += worker.eval_nll_batch(&xs, &ys).iter().sum::<f64>();
        }
        sum
    });
    sums.iter().sum::<f64>() / data.len() as f64
}

/// The (g, h) hyper-parameter grid of §3.5.
#[derive(Debug, Clone)]
pub struct HyperGrid {
    /// Candidate numbers of Gaussians `g`.
    pub gaussians: Vec<usize>,
    /// Candidate MDN hidden widths `h`.
    pub hidden: Vec<usize>,
}

impl Default for HyperGrid {
    /// Scaled-down default grid (2 × 2 = 4 models).
    fn default() -> Self {
        HyperGrid {
            gaussians: vec![3, 5],
            hidden: vec![24, 32],
        }
    }
}

impl HyperGrid {
    /// The paper's full grid: 4 × 3 = 12 models.
    pub fn paper() -> Self {
        HyperGrid {
            gaussians: vec![5, 8, 12, 15],
            hidden: vec![20, 30, 40],
        }
    }

    /// A single-model "grid" for fast tests.
    pub fn single(g: usize, h: usize) -> Self {
        HyperGrid {
            gaussians: vec![g],
            hidden: vec![h],
        }
    }

    /// Number of (g, h) configurations in the grid.
    pub fn len(&self) -> usize {
        self.gaussians.len() * self.hidden.len()
    }

    /// True when either axis of the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.gaussians.is_empty() || self.hidden.is_empty()
    }
}

/// Result of a grid search: the selected model plus the per-config NLLs
/// (useful for reporting and ablations).
#[derive(Debug, Clone)]
pub struct TrainOutcome {
    /// The smallest-holdout-NLL model of the grid.
    pub best: TrainedCmdn,
    /// `(g, h, holdout_nll)` for every configuration evaluated.
    pub evaluated: Vec<(usize, usize, f64)>,
    /// Total training epochs across all configurations (cost accounting).
    pub total_epochs: usize,
}

/// Trains every configuration in the grid and keeps the smallest-NLL model
/// (§3.2: "The model with the smallest negative log-likelihood is chosen
/// and the rest are discarded").
pub fn grid_search(
    grid: &HyperGrid,
    base: &CmdnConfig,
    tcfg: &TrainConfig,
    train: &[Sample],
    holdout: &[Sample],
) -> TrainOutcome {
    assert!(!grid.is_empty(), "empty hyper-parameter grid");
    let mut best: Option<TrainedCmdn> = None;
    let mut evaluated = Vec::with_capacity(grid.len());
    let mut total_epochs = 0usize;
    for &g in &grid.gaussians {
        for &h in &grid.hidden {
            let cfg = CmdnConfig {
                num_gaussians: g,
                hidden: h,
                ..base.clone()
            };
            let trained = train_cmdn(cfg, tcfg, train, holdout);
            evaluated.push((g, h, trained.holdout_nll));
            total_epochs += trained.epochs_run;
            let better = best
                .as_ref()
                .is_none_or(|b| trained.holdout_nll < b.holdout_nll);
            if better {
                best = Some(trained);
            }
        }
    }
    TrainOutcome {
        best: best.expect("non-empty grid"),
        evaluated,
        total_epochs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// Synthetic learnable task: constant-intensity 8×8 frames; the target
    /// score is `10 × intensity + noise`. The CMDN must learn to read the
    /// brightness.
    fn brightness_dataset(n: usize, seed: u64) -> Vec<Sample> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let v: f32 = rng.gen_range(0.0..1.0);
                let y = 10.0 * v as f64 + 0.3 * (rng.gen::<f64>() - 0.5);
                (vec![v; 64], y)
            })
            .collect()
    }

    fn tiny_cfg(g: usize, h: usize) -> CmdnConfig {
        CmdnConfig {
            input: (8, 8),
            conv_channels: vec![4],
            hidden: h,
            num_gaussians: g,
            sigma_min: 0.2,
            target_range: (0.0, 10.0),
            seed: 3,
        }
    }

    fn fast_tcfg() -> TrainConfig {
        TrainConfig {
            epochs: 12,
            batch_size: 32,
            lr: 5e-3,
            patience: 0,
            seed: 1,
        }
    }

    #[test]
    fn training_reduces_holdout_nll() {
        let train = brightness_dataset(300, 1);
        let holdout = brightness_dataset(80, 2);
        let cfg = tiny_cfg(3, 16);
        let untrained = mean_nll(&Cmdn::new(cfg.clone()), &holdout, 2);
        let trained = train_cmdn(cfg, &fast_tcfg(), &train, &holdout);
        assert!(
            trained.holdout_nll < untrained - 0.3,
            "training should improve NLL markedly: {untrained} → {}",
            trained.holdout_nll
        );
    }

    #[test]
    fn trained_model_mean_tracks_target() {
        let train = brightness_dataset(400, 3);
        let holdout = brightness_dataset(80, 4);
        let trained = train_cmdn(tiny_cfg(3, 16), &fast_tcfg(), &train, &holdout);
        let mut model = trained.model;
        let lo = model.predict_many(&[0.1f32; 64])[0].mean();
        let hi = model.predict_many(&[0.9f32; 64])[0].mean();
        assert!(
            hi - lo > 4.0,
            "predicted means should separate bright from dark: {lo} vs {hi}"
        );
    }

    #[test]
    fn parallel_grads_match_serial() {
        let data = brightness_dataset(16, 5);
        let model = Cmdn::new(tiny_cfg(2, 8));
        let batch: Vec<usize> = (0..16).collect();
        let g1 = parallel_batch_grads(&model, &data, &batch, 1);
        let g4 = parallel_batch_grads(&model, &data, &batch, 4);
        assert_eq!(bits(&g1), bits(&g4));
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The worker count sets speed only: 1, 2 and 3 workers train the
    /// same parameters and select on the same hold-out NLL, bit for bit.
    #[test]
    fn worker_count_does_not_change_the_trained_bits() {
        let train = brightness_dataset(75, 11);
        let holdout = brightness_dataset(21, 12);
        let tcfg = TrainConfig {
            epochs: 3,
            batch_size: 16,
            ..fast_tcfg()
        };
        let run = |threads| train_on(tiny_cfg(3, 8), &tcfg, &train, &holdout, threads);
        let one = run(1);
        for threads in [2, 3] {
            let other = run(threads);
            assert_eq!(
                bits(&one.model.params_flat()),
                bits(&other.model.params_flat()),
                "{threads} workers"
            );
            assert_eq!(one.holdout_nll.to_bits(), other.holdout_nll.to_bits());
        }
    }

    #[test]
    fn grid_search_selects_min_nll() {
        let train = brightness_dataset(150, 6);
        let holdout = brightness_dataset(50, 7);
        let grid = HyperGrid {
            gaussians: vec![2, 3],
            hidden: vec![8],
        };
        let out = grid_search(&grid, &tiny_cfg(2, 8), &fast_tcfg(), &train, &holdout);
        assert_eq!(out.evaluated.len(), 2);
        let min = out
            .evaluated
            .iter()
            .map(|&(_, _, nll)| nll)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(out.best.holdout_nll, min);
    }

    #[test]
    fn early_stopping_halts() {
        let train = brightness_dataset(60, 8);
        let holdout = brightness_dataset(30, 9);
        let tcfg = TrainConfig {
            epochs: 60,
            patience: 2,
            ..fast_tcfg()
        };
        let trained = train_cmdn(tiny_cfg(2, 8), &tcfg, &train, &holdout);
        assert!(trained.epochs_run <= 60);
    }

    #[test]
    // The per-sample size assert fires inside a worker thread; the join
    // surfaces it as a worker panic. The lengths sum to 128 = 2×64, so
    // only a per-sample check (not the packed total) can catch this.
    #[should_panic(expected = "eval worker panicked")]
    fn mean_nll_rejects_mis_sized_samples() {
        let model = Cmdn::new(tiny_cfg(2, 8)); // input_len = 64
        let data = vec![(vec![0.0f32; 32], 1.0), (vec![0.0f32; 96], 1.0)];
        let _ = mean_nll(&model, &data, 1);
    }

    #[test]
    fn empty_inputs_are_handled() {
        let model = Cmdn::new(tiny_cfg(2, 8));
        assert!(mean_nll(&model, &[], 4).is_nan());
    }

    #[test]
    fn grid_len() {
        assert_eq!(HyperGrid::paper().len(), 12);
        assert_eq!(HyperGrid::default().len(), 4);
        assert_eq!(HyperGrid::single(5, 20).len(), 1);
    }
}
