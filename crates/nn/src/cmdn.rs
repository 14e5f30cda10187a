//! The convolutional mixture density network of Figure 2.
//!
//! Architecture: a stack of `(3×3 conv → ReLU → 2×2 max-pool)` blocks that
//! halve the spatial resolution, followed by the MDN head — a dense layer
//! to `h` hidden units ("hypotheses" in the paper's wording), ReLU, and a
//! dense layer to `3g` raw outputs interpreted as `g` mixture weights
//! (softmax), `g` means, and `g` standard deviations (softplus + floor).
//!
//! Training minimises the mixture negative log-likelihood with Bishop's
//! classic MDN gradients, computed in closed form in
//! [`Cmdn::train_step_batch`].

use crate::layers::{init_rng, Conv3x3, Dense, MaxPool2x2, Relu};
use crate::mixture::{Component, GaussianMixture};

/// Hyper-parameters of a CMDN instance.
#[derive(Debug, Clone, PartialEq)]
pub struct CmdnConfig {
    /// Input spatial dimensions (height, width). Must be divisible by
    /// `2^conv_channels.len()`.
    pub input: (usize, usize),
    /// Output channels of each conv block (the paper's i-th layer has
    /// `2^(i+3)` filters; at our scale the default is `[8, 16, 32]`).
    pub conv_channels: Vec<usize>,
    /// Hidden width `h` of the MDN layer (the paper's "hypotheses").
    pub hidden: usize,
    /// Number of Gaussians `g` in the mixture.
    pub num_gaussians: usize,
    /// Floor on component standard deviations (keeps the NLL bounded).
    pub sigma_min: f64,
    /// Target value range `(lo, hi)` used to spread the initial component
    /// means — standard MDN initialisation that prevents component collapse.
    pub target_range: (f64, f64),
    /// Weight initialisation seed.
    pub seed: u64,
}

impl Default for CmdnConfig {
    fn default() -> Self {
        CmdnConfig {
            input: (32, 32),
            conv_channels: vec![8, 16, 32],
            hidden: 32,
            num_gaussians: 5,
            sigma_min: 0.25,
            target_range: (0.0, 10.0),
            seed: 0,
        }
    }
}

/// One conv → ReLU → pool block.
#[derive(Debug, Clone)]
struct ConvBlock {
    conv: Conv3x3,
    relu: Relu,
    pool: MaxPool2x2,
}

impl ConvBlock {
    /// conv → ReLU (in place) → pool, `x → out` with `mid` holding the
    /// pre-pool activations. No allocation once the buffers have grown.
    fn forward_batch_into(
        &mut self,
        x: &[f32],
        batch: usize,
        train: bool,
        mid: &mut Vec<f32>,
        out: &mut Vec<f32>,
    ) {
        self.conv.forward_batch_into(x, batch, train, mid);
        self.relu.forward_inplace(mid, train);
        self.pool.forward_batch_into(mid, batch, train, out);
    }

    fn backward_batch(&mut self, g: &[f32], batch: usize) -> Vec<f32> {
        let g = self.pool.backward(g);
        let g = self.relu.backward(&g);
        self.conv.backward_batch(&g, batch)
    }

    /// [`ConvBlock::backward_batch`] without the input gradient — the
    /// first block's input is the frame, so nothing reads it.
    fn backward_params_batch(&mut self, g: &[f32], batch: usize) {
        let g = self.pool.backward(g);
        let g = self.relu.backward(&g);
        self.conv.backward_params_batch(&g, batch);
    }
}

/// Reusable forward-pass buffers (grown on first use). `x`/`y` ping-pong the
/// between-layer activations, `mid` holds each block's pre-pool
/// activations, and `raw` receives the head output — so a forward pass
/// allocates nothing after warmup.
#[derive(Debug, Clone, Default)]
struct ForwardScratch {
    x: Vec<f32>,
    mid: Vec<f32>,
    y: Vec<f32>,
    raw: Vec<f32>,
}

/// Raw MDN head output converted to mixture parameters, kept together with
/// the intermediate values the backward pass needs.
#[derive(Debug, Clone)]
struct MdnParams {
    /// Softmax mixture weights π (length g).
    pi: Vec<f64>,
    /// Component means μ (length g).
    mu: Vec<f64>,
    /// Component standard deviations σ (length g, ≥ sigma_min).
    sigma: Vec<f64>,
    /// Raw pre-softplus σ inputs (needed for the σ gradient).
    raw_s: Vec<f64>,
}

/// The CMDN model.
#[derive(Debug, Clone)]
pub struct Cmdn {
    cfg: CmdnConfig,
    blocks: Vec<ConvBlock>,
    fc1: Dense,
    fc1_relu: Relu,
    fc2: Dense,
    scratch: ForwardScratch,
}

impl Cmdn {
    /// Builds a CMDN with randomly initialised weights.
    pub fn new(cfg: CmdnConfig) -> Self {
        let (h, w) = cfg.input;
        let depth = cfg.conv_channels.len();
        assert!(depth >= 1, "need at least one conv block");
        assert!(
            h % (1 << depth) == 0 && w % (1 << depth) == 0,
            "input {h}×{w} not divisible by 2^{depth}"
        );
        assert!(cfg.num_gaussians >= 1 && cfg.hidden >= 1);
        assert!(cfg.sigma_min > 0.0);
        assert!(cfg.target_range.1 >= cfg.target_range.0);

        let mut rng = init_rng(cfg.seed);
        let mut blocks = Vec::with_capacity(depth);
        let mut in_ch = 1usize;
        let (mut ch_h, mut ch_w) = (h, w);
        for &out_ch in &cfg.conv_channels {
            blocks.push(ConvBlock {
                conv: Conv3x3::new(in_ch, out_ch, ch_h, ch_w, &mut rng),
                relu: Relu::new(),
                pool: MaxPool2x2::new(out_ch, ch_h, ch_w),
            });
            in_ch = out_ch;
            ch_h /= 2;
            ch_w /= 2;
        }
        let feat = in_ch * ch_h * ch_w;
        let g = cfg.num_gaussians;
        let mut fc1 = Dense::new(feat, cfg.hidden, &mut rng);
        let mut fc2 = Dense::new(cfg.hidden, 3 * g, &mut rng);
        // Shrink head init so the initial mixture is dominated by the bias
        // terms below.
        for w in fc2.weight.w.iter_mut() {
            *w *= 0.1;
        }
        let _ = &mut fc1;
        // Spread initial means over the target range; start σ mid-sized.
        let (lo, hi) = cfg.target_range;
        let span = (hi - lo).max(1e-6);
        for j in 0..g {
            let q = (j as f64 + 0.5) / g as f64;
            fc2.bias.w[g + j] = (lo + q * span) as f32; // μ biases
            fc2.bias.w[2 * g + j] = softplus_inv(span / (2.0 * g as f64)) as f32;
        }
        Cmdn {
            cfg,
            blocks,
            fc1,
            fc1_relu: Relu::new(),
            fc2,
            scratch: ForwardScratch::default(),
        }
    }

    /// The hyper-parameters this model was built with.
    pub fn config(&self) -> &CmdnConfig {
        &self.cfg
    }

    /// Expected input length (`1 × h × w` grayscale pixels).
    pub fn input_len(&self) -> usize {
        self.cfg.input.0 * self.cfg.input.1
    }

    /// Shape of the conv stack's output: `(channels, positions per channel)`.
    fn feature_dims(&self) -> (usize, usize) {
        let depth = self.cfg.conv_channels.len();
        let ch = *self.cfg.conv_channels.last().expect("non-empty conv stack");
        let pos = (self.cfg.input.0 >> depth) * (self.cfg.input.1 >> depth);
        (ch, pos)
    }

    /// Repacks conv activations (`[c][s][pos]` batched layout) into
    /// sample-major feature vectors (`[s][feat]`) for the dense head,
    /// into a reusable buffer.
    fn flatten_features_into(x: &[f32], batch: usize, ch: usize, pos: usize, out: &mut Vec<f32>) {
        let feat = ch * pos;
        // Resize without zero-filling the retained prefix: every element
        // is written below.
        if out.len() != batch * feat {
            out.resize(batch * feat, 0.0);
        }
        for c in 0..ch {
            for s in 0..batch {
                out[s * feat + c * pos..s * feat + (c + 1) * pos]
                    .copy_from_slice(&x[(c * batch + s) * pos..(c * batch + s + 1) * pos]);
            }
        }
    }

    /// Inverse of [`Cmdn::flatten_features_into`], for the backward pass.
    fn unflatten_features(&self, g: &[f32], batch: usize) -> Vec<f32> {
        let (ch, pos) = self.feature_dims();
        let feat = ch * pos;
        let mut out = vec![0.0f32; batch * feat];
        for c in 0..ch {
            for s in 0..batch {
                out[(c * batch + s) * pos..(c * batch + s + 1) * pos]
                    .copy_from_slice(&g[s * feat + c * pos..s * feat + (c + 1) * pos]);
            }
        }
        out
    }

    /// Batched body forward: `batch` sample-major grayscale inputs in one
    /// buffer, one im2col + GEMM per conv layer for the whole minibatch.
    /// The raw head outputs (`batch × 3g`, sample-major) land in
    /// `self.scratch.raw`.
    ///
    /// Activations ping-pong between the two scratch buffers — layer `i+1`
    /// reads layer `i`'s output where it was written (the grayscale inputs
    /// double as the `in_ch = 1` batched conv layout, so the first conv
    /// reads the caller's buffer directly) — and every buffer is reused
    /// across calls: after warmup a forward pass performs **zero** heap
    /// allocations.
    fn forward_raw_batch(&mut self, inputs: &[f32], batch: usize, train: bool) {
        assert!(batch >= 1, "empty batch");
        assert_eq!(
            inputs.len(),
            batch * self.input_len(),
            "CMDN input size mismatch"
        );
        for i in 0..self.blocks.len() {
            if i == 0 {
                self.blocks[0].forward_batch_into(
                    inputs,
                    batch,
                    train,
                    &mut self.scratch.mid,
                    &mut self.scratch.y,
                );
            } else {
                self.blocks[i].forward_batch_into(
                    &self.scratch.x,
                    batch,
                    train,
                    &mut self.scratch.mid,
                    &mut self.scratch.y,
                );
            }
            std::mem::swap(&mut self.scratch.x, &mut self.scratch.y);
        }
        let (ch, pos) = self.feature_dims();
        Self::flatten_features_into(&self.scratch.x, batch, ch, pos, &mut self.scratch.mid);
        self.fc1
            .forward_batch_into(&self.scratch.mid, batch, train, &mut self.scratch.y);
        self.fc1_relu.forward_inplace(&mut self.scratch.y, train);
        self.fc2
            .forward_batch_into(&self.scratch.y, batch, train, &mut self.scratch.raw);
    }

    /// Raw MDN head outputs (`batch × 3g`, sample-major) for a packed
    /// sample-major input buffer, evaluated without touching gradients.
    ///
    /// This is the advanced zero-allocation entry point: the returned
    /// slice borrows the model's internal scratch (valid until the next
    /// forward pass), and after a warmup call the pass performs no heap
    /// allocation at all — the property `tests/no_alloc.rs` pins.
    pub fn predict_raw_batch(&mut self, inputs: &[f32], batch: usize) -> &[f32] {
        self.forward_raw_batch(inputs, batch, false);
        &self.scratch.raw
    }

    /// Converts raw head outputs into mixture parameters.
    fn to_params(&self, raw: &[f32]) -> MdnParams {
        let g = self.cfg.num_gaussians;
        let alpha: Vec<f64> = raw[0..g].iter().map(|&a| a as f64).collect();
        let mu: Vec<f64> = raw[g..2 * g].iter().map(|&m| m as f64).collect();
        let raw_s: Vec<f64> = raw[2 * g..3 * g].iter().map(|&s| s as f64).collect();
        // stable softmax
        let amax = alpha.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let exps: Vec<f64> = alpha.iter().map(|a| (a - amax).exp()).collect();
        let z: f64 = exps.iter().sum();
        let pi: Vec<f64> = exps.iter().map(|e| e / z).collect();
        let sigma: Vec<f64> = raw_s
            .iter()
            .map(|&s| self.cfg.sigma_min + softplus(s))
            .collect();
        MdnParams {
            pi,
            mu,
            sigma,
            raw_s,
        }
    }

    /// Batched inference: `inputs` packs `inputs.len() / input_len()`
    /// sample-major frames; the whole minibatch runs through one GEMM per
    /// layer. Returns one mixture per sample, in input order.
    pub fn predict_many(&mut self, inputs: &[f32]) -> Vec<GaussianMixture> {
        let ilen = self.input_len();
        assert!(
            ilen > 0 && inputs.len().is_multiple_of(ilen),
            "predict_many inputs must pack whole samples"
        );
        let batch = inputs.len() / ilen;
        if batch == 0 {
            return Vec::new();
        }
        self.forward_raw_batch(inputs, batch, false);
        let raw = &self.scratch.raw;
        let g3 = 3 * self.cfg.num_gaussians;
        (0..batch)
            .map(|s| self.params_to_mixture(&self.to_params(&raw[s * g3..(s + 1) * g3])))
            .collect()
    }

    fn params_to_mixture(&self, p: &MdnParams) -> GaussianMixture {
        GaussianMixture::new(
            (0..self.cfg.num_gaussians)
                .map(|j| Component {
                    weight: p.pi[j],
                    mean: p.mu[j],
                    std: p.sigma[j],
                })
                .collect(),
        )
    }

    /// Negative log-likelihood of target `y` under the mixture `p`.
    fn nll(p: &MdnParams, y: f64) -> f64 {
        -log_mixture_density(p, y)
    }

    /// One training **minibatch**: `inputs` packs `ys.len()` sample-major
    /// frames; the whole batch runs through one GEMM per layer in both
    /// directions. Gradients accumulate (summed over the batch) into the
    /// layer parameter buffers — call [`Cmdn::zero_grads`] between batches.
    /// Returns the summed NLL of the batch.
    pub fn train_step_batch(&mut self, inputs: &[f32], ys: &[f64]) -> f64 {
        let batch = ys.len();
        self.forward_raw_batch(inputs, batch, true);
        let (grad_raw, total_nll) = self.head_grads(ys);

        // Backprop through the body, whole minibatch per call. Block 0
        // stops at its parameters: its input gradient is ∂/∂pixels.
        let gr = self.fc2.backward_batch(&grad_raw, batch);
        let gr = self.fc1_relu.backward(&gr);
        let gr = self.fc1.backward_batch(&gr, batch);
        let mut gx = self.unflatten_features(&gr, batch);
        for b in self.blocks[1..].iter_mut().rev() {
            gx = b.backward_batch(&gx, batch);
        }
        self.blocks[0].backward_params_batch(&gx, batch);
        total_nll
    }

    /// Bishop's MDN gradients w.r.t. the raw head outputs of the last
    /// forward (`batch × 3g`, sample-major), with the summed NLL.
    fn head_grads(&self, ys: &[f64]) -> (Vec<f32>, f64) {
        let batch = ys.len();
        let g = self.cfg.num_gaussians;
        let mut grad_raw = vec![0.0f32; batch * 3 * g];
        let mut total_nll = 0.0f64;
        for (s, &y) in ys.iter().enumerate() {
            let raw = &self.scratch.raw;
            let p = self.to_params(&raw[s * 3 * g..(s + 1) * 3 * g]);
            // Responsibilities γ_j = π_j φ_j / Σ_k π_k φ_k, in log space.
            let log_terms: Vec<f64> = (0..g)
                .map(|j| p.pi[j].max(1e-300).ln() + log_normal_pdf(y, p.mu[j], p.sigma[j]))
                .collect();
            let log_density = log_sum_exp(&log_terms);
            let gamma: Vec<f64> = log_terms
                .iter()
                .map(|&lt| (lt - log_density).exp())
                .collect();

            // Bishop's MDN gradients w.r.t. the raw head outputs.
            let gr = &mut grad_raw[s * 3 * g..(s + 1) * 3 * g];
            for j in 0..g {
                // ∂NLL/∂α_j (softmax logits)
                gr[j] = (p.pi[j] - gamma[j]) as f32;
                // ∂NLL/∂μ_j
                let var = p.sigma[j] * p.sigma[j];
                gr[g + j] = (gamma[j] * (p.mu[j] - y) / var) as f32;
                // ∂NLL/∂s_j where σ = σ_min + softplus(s):
                // ∂NLL/∂σ_j = γ_j (1/σ − (y−μ)²/σ³); ∂σ/∂s = sigmoid(s)
                let z2 = (y - p.mu[j]) * (y - p.mu[j]) / var;
                let dsigma = gamma[j] * (1.0 - z2) / p.sigma[j];
                gr[2 * g + j] = (dsigma * sigmoid(p.raw_s[j])) as f32;
            }
            total_nll += -log_density;
        }
        (grad_raw, total_nll)
    }

    /// Per-sample evaluation NLLs of a minibatch (`inputs` packs
    /// `ys.len()` sample-major frames), computed batched without touching
    /// gradients.
    pub fn eval_nll_batch(&mut self, inputs: &[f32], ys: &[f64]) -> Vec<f64> {
        let batch = ys.len();
        if batch == 0 {
            return Vec::new();
        }
        self.forward_raw_batch(inputs, batch, false);
        let raw = &self.scratch.raw;
        let g3 = 3 * self.cfg.num_gaussians;
        ys.iter()
            .enumerate()
            .map(|(s, &y)| Self::nll(&self.to_params(&raw[s * g3..(s + 1) * g3]), y))
            .collect()
    }

    /// Zeroes every gradient accumulator.
    pub fn zero_grads(&mut self) {
        for b in &mut self.blocks {
            b.conv.weight.zero_grad();
            b.conv.bias.zero_grad();
        }
        self.fc1.weight.zero_grad();
        self.fc1.bias.zero_grad();
        self.fc2.weight.zero_grad();
        self.fc2.bias.zero_grad();
    }

    /// Total number of learnable parameters.
    pub fn num_params(&self) -> usize {
        self.param_slices().iter().map(|s| s.len()).sum()
    }

    fn param_slices(&self) -> Vec<&[f32]> {
        let mut v = Vec::new();
        for b in &self.blocks {
            v.push(&b.conv.weight.w[..]);
            v.push(&b.conv.bias.w[..]);
        }
        v.push(&self.fc1.weight.w[..]);
        v.push(&self.fc1.bias.w[..]);
        v.push(&self.fc2.weight.w[..]);
        v.push(&self.fc2.bias.w[..]);
        v
    }

    /// Flattens all parameters into one vector (Adam operates on this).
    pub fn params_flat(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.num_params());
        for s in self.param_slices() {
            out.extend_from_slice(s);
        }
        out
    }

    /// Flattens all gradients, in the same order as [`Cmdn::params_flat`].
    pub fn grads_flat(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.num_params());
        for b in &self.blocks {
            out.extend_from_slice(&b.conv.weight.g);
            out.extend_from_slice(&b.conv.bias.g);
        }
        out.extend_from_slice(&self.fc1.weight.g);
        out.extend_from_slice(&self.fc1.bias.g);
        out.extend_from_slice(&self.fc2.weight.g);
        out.extend_from_slice(&self.fc2.bias.g);
        out
    }

    /// Loads parameters from a flat vector (inverse of [`Cmdn::params_flat`]).
    pub fn set_params_flat(&mut self, flat: &[f32]) {
        assert_eq!(
            flat.len(),
            self.num_params(),
            "flat parameter size mismatch"
        );
        let mut off = 0usize;
        let mut take = |dst: &mut Vec<f32>| {
            let len = dst.len();
            dst.copy_from_slice(&flat[off..off + len]);
            off += len;
        };
        for b in &mut self.blocks {
            take(&mut b.conv.weight.w);
            take(&mut b.conv.bias.w);
        }
        take(&mut self.fc1.weight.w);
        take(&mut self.fc1.bias.w);
        take(&mut self.fc2.weight.w);
        take(&mut self.fc2.bias.w);
        debug_assert_eq!(off, flat.len());
    }
}

fn softplus(x: f64) -> f64 {
    if x > 30.0 {
        x
    } else {
        (1.0 + x.exp()).ln()
    }
}

/// Inverse of softplus, for bias initialisation: softplus(softplus_inv(y)) = y.
fn softplus_inv(y: f64) -> f64 {
    if y > 30.0 {
        y
    } else {
        (y.exp() - 1.0).max(1e-12).ln()
    }
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

fn log_normal_pdf(y: f64, mu: f64, sigma: f64) -> f64 {
    let z = (y - mu) / sigma;
    -0.5 * z * z - sigma.ln() - 0.5 * (2.0 * std::f64::consts::PI).ln()
}

fn log_sum_exp(xs: &[f64]) -> f64 {
    let m = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if m.is_infinite() {
        return m;
    }
    m + xs.iter().map(|x| (x - m).exp()).sum::<f64>().ln()
}

/// Log-density of the mixture at `y`.
fn log_mixture_density(p: &MdnParams, y: f64) -> f64 {
    let terms: Vec<f64> = (0..p.pi.len())
        .map(|j| p.pi[j].max(1e-300).ln() + log_normal_pdf(y, p.mu[j], p.sigma[j]))
        .collect();
    log_sum_exp(&terms)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> CmdnConfig {
        CmdnConfig {
            input: (8, 8),
            conv_channels: vec![4, 8],
            hidden: 12,
            num_gaussians: 3,
            sigma_min: 0.2,
            target_range: (0.0, 6.0),
            seed: 5,
        }
    }

    #[test]
    fn construction_and_shapes() {
        let m = Cmdn::new(tiny_cfg());
        assert_eq!(m.input_len(), 64);
        assert!(m.num_params() > 0);
        assert_eq!(m.params_flat().len(), m.num_params());
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn rejects_indivisible_input() {
        let _ = Cmdn::new(CmdnConfig {
            input: (10, 10),
            conv_channels: vec![4, 8],
            ..tiny_cfg()
        });
    }

    #[test]
    fn predict_is_valid_mixture() {
        let mut m = Cmdn::new(tiny_cfg());
        let input = vec![0.3f32; 64];
        let mix = m.predict_many(&input).remove(0);
        assert_eq!(mix.components().len(), 3);
        let wsum: f64 = mix.components().iter().map(|c| c.weight).sum();
        assert!((wsum - 1.0).abs() < 1e-9);
        assert!(mix.components().iter().all(|c| c.std >= 0.2));
    }

    #[test]
    fn initial_means_spread_over_target_range() {
        let mut m = Cmdn::new(tiny_cfg());
        let mix = m.predict_many(&[0.0f32; 64]).remove(0);
        let means: Vec<f64> = mix.components().iter().map(|c| c.mean).collect();
        // With zero input, biases dominate: means ≈ 1, 3, 5 on (0, 6).
        assert!(
            means[0] < means[1] && means[1] < means[2],
            "means {means:?}"
        );
        assert!(means[0] > -1.0 && means[2] < 7.0, "means {means:?}");
    }

    #[test]
    fn params_flat_roundtrip() {
        let m = Cmdn::new(tiny_cfg());
        let flat = m.params_flat();
        let mut m2 = Cmdn::new(CmdnConfig {
            seed: 99,
            ..tiny_cfg()
        });
        assert_ne!(m2.params_flat(), flat);
        m2.set_params_flat(&flat);
        assert_eq!(m2.params_flat(), flat);
    }

    #[test]
    fn train_step_reduces_nll_with_sgd() {
        let mut m = Cmdn::new(tiny_cfg());
        let input: Vec<f32> = (0..64).map(|i| ((i * 37) % 64) as f32 / 64.0).collect();
        let y = 4.0;
        let before = m.eval_nll_batch(&input, &[y])[0];
        // 50 plain-SGD steps on a single example must overfit it.
        for _ in 0..50 {
            m.zero_grads();
            let _ = m.train_step_batch(&input, &[y]);
            let mut p = m.params_flat();
            let g = m.grads_flat();
            for (pi, gi) in p.iter_mut().zip(g.iter()) {
                *pi -= 0.01 * gi;
            }
            m.set_params_flat(&p);
        }
        let after = m.eval_nll_batch(&input, &[y])[0];
        assert!(after < before, "NLL should drop: {before} → {after}");
    }

    /// `train_step_batch` skips block 0's input gradient; every parameter
    /// gradient must still equal the full backward pass's, bit for bit.
    #[test]
    fn skipping_block0_input_grad_keeps_every_param_grad() {
        let cfg = CmdnConfig {
            input: (16, 16),
            conv_channels: vec![6, 12],
            ..tiny_cfg()
        };
        let batch = 3;
        let inputs: Vec<f32> = (0..batch * 256)
            .map(|i| ((i * 37) % 101) as f32 / 101.0)
            .collect();
        let ys = [1.0, 4.5, 2.0];
        let mut skipped = Cmdn::new(cfg);
        let mut full = skipped.clone();
        let nll = skipped.train_step_batch(&inputs, &ys);

        full.forward_raw_batch(&inputs, batch, true);
        let (grad_raw, full_nll) = full.head_grads(&ys);
        let gr = full.fc2.backward_batch(&grad_raw, batch);
        let gr = full.fc1_relu.backward(&gr);
        let gr = full.fc1.backward_batch(&gr, batch);
        let mut gx = full.unflatten_features(&gr, batch);
        for b in full.blocks.iter_mut().rev() {
            gx = b.backward_batch(&gx, batch);
        }
        assert_eq!(
            gx.len(),
            inputs.len(),
            "the pixel gradient the fast path skips"
        );

        let bits = |v: Vec<f32>| v.into_iter().map(f32::to_bits).collect::<Vec<_>>();
        assert_eq!(bits(skipped.grads_flat()), bits(full.grads_flat()));
        assert_eq!(nll.to_bits(), full_nll.to_bits());
    }

    #[test]
    fn mdn_gradient_check_against_finite_differences() {
        // Check dNLL/dparams on the head by perturbing flat params.
        let mut m = Cmdn::new(CmdnConfig {
            input: (8, 8),
            conv_channels: vec![2],
            hidden: 6,
            num_gaussians: 2,
            sigma_min: 0.3,
            target_range: (0.0, 4.0),
            seed: 11,
        });
        let input: Vec<f32> = (0..64).map(|i| (i as f32 * 0.13).sin().abs()).collect();
        let y = 2.5;
        m.zero_grads();
        let _ = m.train_step_batch(&input, &[y]);
        let analytic = m.grads_flat();
        let mut flat = m.params_flat();
        let eps = 1e-3f32;
        // check a scattering of parameters, including the head (tail of vec)
        let n = flat.len();
        for &i in &[0usize, 7, n / 2, n - 1, n - 3, n - 8] {
            let orig = flat[i];
            flat[i] = orig + eps;
            m.set_params_flat(&flat);
            let lp = m.eval_nll_batch(&input, &[y])[0];
            flat[i] = orig - eps;
            m.set_params_flat(&flat);
            let lm = m.eval_nll_batch(&input, &[y])[0];
            flat[i] = orig;
            m.set_params_flat(&flat);
            let numeric = ((lp - lm) / (2.0 * eps as f64)) as f32;
            assert!(
                (numeric - analytic[i]).abs() < 0.05 * (1.0 + numeric.abs()),
                "grad mismatch at {i}: numeric {numeric} vs analytic {}",
                analytic[i]
            );
        }
    }

    #[test]
    fn nll_matches_single_gaussian_formula() {
        let p = MdnParams {
            pi: vec![1.0],
            mu: vec![2.0],
            sigma: vec![1.5],
            raw_s: vec![0.0],
        };
        let y = 3.0;
        let z: f64 = (y - 2.0) / 1.5;
        let expect = 0.5 * z * z + 1.5f64.ln() + 0.5 * (2.0 * std::f64::consts::PI).ln();
        assert!((Cmdn::nll(&p, y) - expect).abs() < 1e-12);
    }

    #[test]
    fn softplus_inverse_roundtrip() {
        for y in [0.1, 1.0, 5.0, 40.0] {
            assert!(
                (softplus(softplus_inv(y)) - y).abs() < 1e-9,
                "roundtrip {y}"
            );
        }
    }

    #[test]
    fn log_sum_exp_stability() {
        assert!((log_sum_exp(&[-1000.0, -1000.0]) - (-1000.0 + 2.0f64.ln())).abs() < 1e-9);
        assert_eq!(log_sum_exp(&[f64::NEG_INFINITY]), f64::NEG_INFINITY);
    }
}
