//! Neural-network layers with hand-derived backward passes.
//!
//! Layers operate on **batched** channel-major buffers (see
//! [`crate::kernels`] for the exact layout) and have one entry point per
//! pass: `forward_batch_into` pushes a whole minibatch through one
//! im2col + GEMM (convolution) or one GEMM (dense) call into a
//! caller-provided buffer, and `backward_batch` returns the minibatch's
//! input gradient. A single sample is the `batch = 1` case. Shapes are
//! fixed at construction and asserted at the boundaries.
//!
//! The original scalar triple-loop implementations survive in the
//! `#[cfg(test)]` [`reference`] module as oracles for the GEMM-path
//! equivalence tests.

use crate::kernels;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A learnable parameter tensor with its gradient accumulator.
#[derive(Debug, Clone)]
pub struct Param {
    /// The weights.
    pub w: Vec<f32>,
    /// The gradient accumulator, same shape as [`Param::w`].
    pub g: Vec<f32>,
}

impl Param {
    fn new(w: Vec<f32>) -> Self {
        let g = vec![0.0; w.len()];
        Param { w, g }
    }

    /// Resets the gradient accumulator to zero.
    pub fn zero_grad(&mut self) {
        self.g.iter_mut().for_each(|g| *g = 0.0);
    }
}

/// He-normal initialisation (good default before ReLU).
fn he_init(rng: &mut StdRng, n: usize, fan_in: usize) -> Vec<f32> {
    let std = (2.0 / fan_in as f32).sqrt();
    (0..n).map(|_| gaussian32(rng) * std).collect()
}

fn gaussian32(rng: &mut StdRng) -> f32 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    ((-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()) as f32
}

/// Reusable im2col / packing scratch of a convolution layer (buffers grow
/// on first use and are reused across calls).
#[derive(Debug, Clone, Default)]
struct ConvScratch {
    /// Packed 3×3 patches, `(in_ch·9) × (batch·h·w)`.
    cols: Vec<f32>,
    /// Gradient w.r.t. the packed patches (backward data pass).
    gcols: Vec<f32>,
    /// Transposed weight matrix `Wᵀ`, `(in_ch·9) × out_ch`.
    wt: Vec<f32>,
}

/// 3×3 convolution, stride 1, zero padding 1 (spatial dims preserved).
///
/// The forward/backward passes lower onto im2col + blocked GEMM (see
/// [`crate::kernels`]); one call processes a whole minibatch.
#[derive(Debug, Clone)]
pub struct Conv3x3 {
    /// Input channels.
    pub in_ch: usize,
    /// Output channels.
    pub out_ch: usize,
    /// Spatial height (preserved by the convolution).
    pub h: usize,
    /// Spatial width (preserved by the convolution).
    pub w: usize,
    /// Kernel weights, shape `[out_ch][in_ch][3][3]`.
    pub weight: Param,
    /// Per-output-channel bias, shape `[out_ch]`.
    pub bias: Param,
    cached_input: Vec<f32>,
    cached_batch: usize,
    /// True while `scratch.cols` still holds the packed patches of the
    /// last train-mode forward (lets backward skip the re-pack).
    cols_from_train: bool,
    scratch: ConvScratch,
}

impl Conv3x3 {
    /// Builds a conv layer with He-normal weights and zero bias.
    pub fn new(in_ch: usize, out_ch: usize, h: usize, w: usize, rng: &mut StdRng) -> Self {
        let fan_in = in_ch * 9;
        Conv3x3 {
            in_ch,
            out_ch,
            h,
            w,
            weight: Param::new(he_init(rng, out_ch * in_ch * 9, fan_in)),
            bias: Param::new(vec![0.0; out_ch]),
            cached_input: Vec::new(),
            cached_batch: 0,
            cols_from_train: false,
            scratch: ConvScratch::default(),
        }
    }

    /// Input length of one sample (`in_ch · h · w`).
    pub fn input_len(&self) -> usize {
        self.in_ch * self.h * self.w
    }

    /// Output length of one sample (`out_ch · h · w`).
    pub fn output_len(&self) -> usize {
        self.out_ch * self.h * self.w
    }

    /// Batched forward pass over `batch` samples in the channel-major
    /// batched layout of [`crate::kernels`], into `out` (resized as
    /// needed): im2col packs all patches of the whole minibatch, then one
    /// blocked GEMM against the weight matrix computes every output
    /// channel of every sample.
    ///
    /// With `train = true` the input is cached for
    /// [`Conv3x3::backward_batch`]. After warmup every buffer (including
    /// the train-mode input cache) is reused, so the call allocates
    /// nothing.
    ///
    /// ```
    /// use everest_nn::layers::{init_rng, Conv3x3};
    ///
    /// let mut rng = init_rng(0);
    /// let mut conv = Conv3x3::new(1, 2, 4, 4, &mut rng);
    /// let batch = 3;
    /// let inputs = vec![0.25f32; batch * conv.input_len()];
    /// let mut out = Vec::new();
    /// conv.forward_batch_into(&inputs, batch, false, &mut out);
    /// assert_eq!(out.len(), batch * conv.output_len()); // 3 × 2 × 4 × 4
    /// ```
    pub fn forward_batch_into(
        &mut self,
        input: &[f32],
        batch: usize,
        train: bool,
        out: &mut Vec<f32>,
    ) {
        assert!(batch >= 1, "empty batch");
        assert_eq!(
            input.len(),
            batch * self.input_len(),
            "conv input size mismatch"
        );
        if train {
            self.cached_input.clear();
            self.cached_input.extend_from_slice(input);
            self.cached_batch = batch;
        }
        let n = batch * self.h * self.w;
        let k = self.in_ch * 9;
        kernels::im2col_3x3(
            input,
            self.in_ch,
            batch,
            self.h,
            self.w,
            &mut self.scratch.cols,
        );
        self.cols_from_train = train;
        // Resize without zero-filling the retained prefix: the bias
        // pre-fill below writes every element, and the GEMM accumulates
        // on top of it (folding what used to be a separate bias pass).
        if out.len() != self.out_ch * n {
            out.resize(self.out_ch * n, 0.0);
        }
        for (row, &b) in self.bias.w.iter().enumerate() {
            out[row * n..(row + 1) * n].fill(b);
        }
        kernels::gemm(self.out_ch, n, k, &self.weight.w, &self.scratch.cols, out);
    }

    /// Batched backward pass: accumulates weight/bias gradients (`+=`) and
    /// returns the input gradient for the whole minibatch.
    ///
    /// The weight gradient is one `∇out · colsᵀ` GEMM against the packed
    /// patches of the cached input (reused from the train-mode forward
    /// when still valid); the data gradient is one `Wᵀ · ∇out` GEMM
    /// followed by a col2im scatter-add.
    pub fn backward_batch(&mut self, grad_out: &[f32], batch: usize) -> Vec<f32> {
        self.backward_params_batch(grad_out, batch);
        let n = batch * self.h * self.w;
        let k = self.in_ch * 9;
        // Data gradient: ∇cols = Wᵀ · ∇out, then scatter back to the input.
        kernels::transpose(&self.weight.w, self.out_ch, k, &mut self.scratch.wt);
        self.scratch.gcols.clear();
        self.scratch.gcols.resize(k * n, 0.0);
        kernels::gemm(
            k,
            n,
            self.out_ch,
            &self.scratch.wt,
            grad_out,
            &mut self.scratch.gcols,
        );
        let mut grad_in = vec![0.0f32; batch * self.input_len()];
        kernels::col2im_add_3x3(
            &self.scratch.gcols,
            self.in_ch,
            batch,
            self.h,
            self.w,
            &mut grad_in,
        );
        grad_in
    }

    /// The parameter half of [`Conv3x3::backward_batch`]: accumulates the
    /// weight and bias gradients (`+=`, the same bits) and skips the input
    /// gradient — for a first layer, whose input is the data.
    pub(crate) fn backward_params_batch(&mut self, grad_out: &[f32], batch: usize) {
        assert_eq!(
            grad_out.len(),
            batch * self.output_len(),
            "conv grad size mismatch"
        );
        assert!(
            batch == self.cached_batch && !self.cached_input.is_empty(),
            "backward before forward(train=true) with the same batch"
        );
        let n = batch * self.h * self.w;
        let k = self.in_ch * 9;
        // Bias gradient: per-channel row sums.
        kernels::add_row_sums(grad_out, self.out_ch, n, &mut self.bias.g);
        // Weight gradient: ∇W += ∇out · colsᵀ. The train-mode forward
        // usually left the packed patches in scratch; re-pack only when an
        // eval forward has clobbered them since.
        if !self.cols_from_train {
            kernels::im2col_3x3(
                &self.cached_input,
                self.in_ch,
                batch,
                self.h,
                self.w,
                &mut self.scratch.cols,
            );
            self.cols_from_train = true;
        }
        kernels::gemm_nt(
            self.out_ch,
            k,
            n,
            grad_out,
            &self.scratch.cols,
            &mut self.weight.g,
        );
    }
}

/// 2×2 max-pooling with stride 2. Requires even spatial dimensions.
#[derive(Debug, Clone)]
pub struct MaxPool2x2 {
    /// Channels (unchanged by pooling).
    pub ch: usize,
    /// Input spatial height (output is `h / 2`).
    pub h: usize,
    /// Input spatial width (output is `w / 2`).
    pub w: usize,
    argmax: Vec<u32>,
}

impl MaxPool2x2 {
    /// Builds a pooling layer; panics unless both spatial dims are even.
    pub fn new(ch: usize, h: usize, w: usize) -> Self {
        assert!(
            h.is_multiple_of(2) && w.is_multiple_of(2),
            "pooling needs even dims, got {h}×{w}"
        );
        MaxPool2x2 {
            ch,
            h,
            w,
            argmax: Vec::new(),
        }
    }

    /// Input length of one sample (`ch · h · w`).
    pub fn input_len(&self) -> usize {
        self.ch * self.h * self.w
    }

    /// Output length of one sample (`ch · h/2 · w/2`).
    pub fn output_len(&self) -> usize {
        self.ch * (self.h / 2) * (self.w / 2)
    }

    /// Batched forward pass in the channel-major batched layout, into
    /// `out` (resized as needed). With `train = true` records the argmax
    /// positions for [`MaxPool2x2::backward`]; that buffer is reused
    /// across calls, so steady-state calls allocate nothing.
    pub fn forward_batch_into(
        &mut self,
        input: &[f32],
        batch: usize,
        train: bool,
        out: &mut Vec<f32>,
    ) {
        assert_eq!(input.len(), batch * self.input_len());
        let (w, ow) = (self.w, self.w / 2);
        let out_len = batch * self.output_len();
        // Resize without zero-filling the retained prefix: every element
        // is written below.
        if out.len() != out_len {
            out.resize(out_len, 0.0);
        }
        // Eval forwards leave any train-mode argmax untouched (backward
        // pairs with the last *train* forward, as before).
        if train && self.argmax.len() != out_len {
            self.argmax.resize(out_len, 0);
        }
        if out_len == 0 {
            return;
        }
        // Output row `oy` (over every channel and sample; `h` is even) pools
        // input rows `2·oy` and `2·oy + 1`. Each output scans its window
        // (0,0), (0,1), (1,0), (1,1) from −∞ and moves only on a strict `>`,
        // so ties and NaN keep the earlier cell. The eval loop is that scan
        // alone, which the compiler vectorises.
        let row_pairs = input.chunks_exact(2 * w).zip(out.chunks_exact_mut(ow));
        if !train {
            for (pair, orow) in row_pairs {
                let (r0, r1) = pair.split_at(w);
                let windows = r0.chunks_exact(2).zip(r1.chunks_exact(2));
                for (o, (a, b)) in orow.iter_mut().zip(windows) {
                    let mut best = f32::NEG_INFINITY;
                    for v in [a[0], a[1], b[0], b[1]] {
                        if v > best {
                            best = v;
                        }
                    }
                    *o = best;
                }
            }
            return;
        }
        // The train loop runs the same scan as selects, carrying the
        // winner's input index alongside its value.
        let arg_rows = self.argmax.chunks_exact_mut(ow);
        for (oy, ((pair, orow), arow)) in row_pairs.zip(arg_rows).enumerate() {
            let (r0, r1) = pair.split_at(w);
            let windows = r0.chunks_exact(2).zip(r1.chunks_exact(2));
            let base = (2 * oy * w) as u32;
            for (x, ((o, arg), (a, b))) in orow.iter_mut().zip(arow).zip(windows).enumerate() {
                let at = base + 2 * x as u32;
                let mut best = f32::NEG_INFINITY;
                // A window where nothing beats −∞ (all NaN or −∞) routes to
                // input 0 of the whole buffer: the scalar scan's answer.
                let mut best_idx = 0u32;
                for (v, idx) in [
                    (a[0], at),
                    (a[1], at + 1),
                    (b[0], at + w as u32),
                    (b[1], at + w as u32 + 1),
                ] {
                    let wins = v > best;
                    best = if wins { v } else { best };
                    best_idx = if wins { idx } else { best_idx };
                }
                *o = best;
                *arg = best_idx;
            }
        }
    }

    /// Routes each output gradient back to the input cell that won the
    /// max (works for whatever batch the previous train-mode
    /// [`MaxPool2x2::forward_batch_into`] processed).
    pub fn backward(&mut self, grad_out: &[f32]) -> Vec<f32> {
        assert!(
            !self.argmax.is_empty(),
            "backward before forward(train=true)"
        );
        assert_eq!(grad_out.len(), self.argmax.len());
        let batch = self.argmax.len() / self.output_len();
        let mut grad_in = vec![0.0f32; batch * self.input_len()];
        for (i, &go) in grad_out.iter().enumerate() {
            grad_in[self.argmax[i] as usize] += go;
        }
        grad_in
    }
}

/// Elementwise ReLU (layout- and batch-agnostic).
#[derive(Debug, Clone, Default)]
pub struct Relu {
    mask: Vec<bool>,
}

impl Relu {
    /// Builds a ReLU activation.
    pub fn new() -> Self {
        Relu { mask: Vec::new() }
    }

    /// `max(x, 0)` elementwise, in place — activations never leave the
    /// layer above's output buffer. With `train = true` records the
    /// active mask for [`Relu::backward`]; the mask is reused across
    /// calls, so steady-state calls allocate nothing. Works on buffers of
    /// any length, so batched activations need no separate entry point.
    pub fn forward_inplace(&mut self, x: &mut [f32], train: bool) {
        if train {
            self.mask.resize(x.len(), false);
            for (m, v) in self.mask.iter_mut().zip(x.iter_mut()) {
                *m = *v > 0.0;
                *v = v.max(0.0);
            }
            return;
        }
        for v in x.iter_mut() {
            *v = v.max(0.0);
        }
    }

    /// Zeroes the gradient wherever the forward input was non-positive.
    pub fn backward(&mut self, grad_out: &[f32]) -> Vec<f32> {
        assert_eq!(
            grad_out.len(),
            self.mask.len(),
            "relu backward before forward"
        );
        grad_out
            .iter()
            .zip(self.mask.iter())
            .map(|(&g, &m)| if m { g } else { 0.0 })
            .collect()
    }
}

/// Reusable packing scratch of a dense layer.
#[derive(Debug, Clone, Default)]
struct DenseScratch {
    /// Transposed output gradient, `out_dim × batch` (weight gradient).
    got: Vec<f32>,
}

/// Fully-connected layer; batched passes are single GEMM calls.
#[derive(Debug, Clone)]
pub struct Dense {
    /// Input features per sample.
    pub in_dim: usize,
    /// Output features per sample.
    pub out_dim: usize,
    /// Weights, shape `[out_dim][in_dim]`.
    pub weight: Param,
    /// Bias, shape `[out_dim]`.
    pub bias: Param,
    cached_input: Vec<f32>,
    cached_batch: usize,
    scratch: DenseScratch,
}

impl Dense {
    /// Builds a dense layer with He-normal weights and zero bias.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut StdRng) -> Self {
        Dense {
            in_dim,
            out_dim,
            weight: Param::new(he_init(rng, out_dim * in_dim, in_dim)),
            bias: Param::new(vec![0.0; out_dim]),
            cached_input: Vec::new(),
            cached_batch: 0,
            scratch: DenseScratch::default(),
        }
    }

    /// Batched forward pass into `out` (resized as needed): inputs are
    /// sample-major (`batch × in_dim` row-major), the output is
    /// `batch × out_dim`. One `X · Wᵀ` GEMM ([`kernels::gemm_nt`], which
    /// reads the `[out][in]` weights directly — no transpose pass)
    /// computes the whole minibatch; steady-state calls allocate nothing.
    pub fn forward_batch_into(
        &mut self,
        input: &[f32],
        batch: usize,
        train: bool,
        out: &mut Vec<f32>,
    ) {
        assert!(batch >= 1, "empty batch");
        assert_eq!(
            input.len(),
            batch * self.in_dim,
            "dense input size mismatch"
        );
        if train {
            self.cached_input.clear();
            self.cached_input.extend_from_slice(input);
            self.cached_batch = batch;
        }
        // Resize without zero-filling the retained prefix: the bias
        // pre-fill writes every element, the GEMM accumulates on top.
        if out.len() != batch * self.out_dim {
            out.resize(batch * self.out_dim, 0.0);
        }
        for s in 0..batch {
            out[s * self.out_dim..(s + 1) * self.out_dim].copy_from_slice(&self.bias.w);
        }
        kernels::gemm_nt(batch, self.out_dim, self.in_dim, input, &self.weight.w, out);
    }

    /// Batched backward pass: accumulates weight/bias gradients and
    /// returns the `batch × in_dim` input gradient, each as one GEMM.
    pub fn backward_batch(&mut self, grad_out: &[f32], batch: usize) -> Vec<f32> {
        assert_eq!(grad_out.len(), batch * self.out_dim);
        assert!(
            batch == self.cached_batch && !self.cached_input.is_empty(),
            "backward before forward(train=true) with the same batch"
        );
        // Bias gradient: column sums in ascending-sample order.
        for s in 0..batch {
            let row = &grad_out[s * self.out_dim..(s + 1) * self.out_dim];
            for (g, &go) in self.bias.g.iter_mut().zip(row) {
                *g += go;
            }
        }
        // Weight gradient: ∇W += ∇outᵀ · X.
        kernels::transpose(grad_out, batch, self.out_dim, &mut self.scratch.got);
        kernels::gemm(
            self.out_dim,
            self.in_dim,
            batch,
            &self.scratch.got,
            &self.cached_input,
            &mut self.weight.g,
        );
        // Input gradient: ∇X = ∇out · W.
        let mut grad_in = vec![0.0f32; batch * self.in_dim];
        kernels::gemm(
            batch,
            self.in_dim,
            self.out_dim,
            grad_out,
            &self.weight.w,
            &mut grad_in,
        );
        grad_in
    }
}

/// Creates a deterministic RNG for layer initialisation.
pub fn init_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Scalar triple-loop reference implementations — the pre-GEMM layer
/// code, kept as the oracle the equivalence property tests compare
/// against.
#[cfg(test)]
pub(crate) mod reference {
    /// Scalar 3×3 pad-1 convolution forward (single sample).
    pub fn conv3x3_forward(
        in_ch: usize,
        out_ch: usize,
        h: usize,
        w: usize,
        weight: &[f32],
        bias: &[f32],
        input: &[f32],
    ) -> Vec<f32> {
        let mut out = vec![0.0f32; out_ch * h * w];
        for o in 0..out_ch {
            let b = bias[o];
            for y in 0..h {
                for x in 0..w {
                    let mut acc = b;
                    for i in 0..in_ch {
                        let wbase = ((o * in_ch + i) * 3) * 3;
                        let ibase = i * h * w;
                        for ky in 0..3usize {
                            let iy = y as isize + ky as isize - 1;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            let row = ibase + iy as usize * w;
                            for kx in 0..3usize {
                                let ix = x as isize + kx as isize - 1;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                acc += input[row + ix as usize] * weight[wbase + ky * 3 + kx];
                            }
                        }
                    }
                    out[(o * h + y) * w + x] = acc;
                }
            }
        }
        out
    }

    /// Scalar conv backward (single sample): returns
    /// `(grad_in, grad_weight, grad_bias)`.
    #[allow(
        clippy::too_many_arguments,
        clippy::needless_range_loop,
        reason = "index loops mirror the hand-derived gradient equations one-to-one; iterator \
                  rewrites would obscure the (o, y, x, i, ky, kx) indexing this reference \
                  implementation exists to spell out"
    )]
    pub fn conv3x3_backward(
        in_ch: usize,
        out_ch: usize,
        h: usize,
        w: usize,
        weight: &[f32],
        input: &[f32],
        grad_out: &[f32],
    ) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let mut grad_in = vec![0.0f32; in_ch * h * w];
        let mut grad_w = vec![0.0f32; out_ch * in_ch * 9];
        let mut grad_b = vec![0.0f32; out_ch];
        for o in 0..out_ch {
            let obase = o * h * w;
            for y in 0..h {
                for x in 0..w {
                    let go = grad_out[obase + y * w + x];
                    if go == 0.0 {
                        continue;
                    }
                    grad_b[o] += go;
                    for i in 0..in_ch {
                        let wbase = ((o * in_ch + i) * 3) * 3;
                        let ibase = i * h * w;
                        for ky in 0..3usize {
                            let iy = y as isize + ky as isize - 1;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            let row = ibase + iy as usize * w;
                            for kx in 0..3usize {
                                let ix = x as isize + kx as isize - 1;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                let widx = wbase + ky * 3 + kx;
                                grad_w[widx] += go * input[row + ix as usize];
                                grad_in[row + ix as usize] += go * weight[widx];
                            }
                        }
                    }
                }
            }
        }
        (grad_in, grad_w, grad_b)
    }

    /// Scalar 2×2 max-pool over the batched layout (`planes = ch·batch`
    /// planes of `h×w`): the output and each output's winning input index.
    pub fn maxpool2x2(planes: usize, h: usize, w: usize, input: &[f32]) -> (Vec<f32>, Vec<u32>) {
        let (oh, ow) = (h / 2, w / 2);
        let mut out = vec![0.0f32; planes * oh * ow];
        let mut argmax = vec![0u32; planes * oh * ow];
        for p in 0..planes {
            let (ibase, obase) = (p * h * w, p * oh * ow);
            for y in 0..oh {
                for x in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = 0usize;
                    for dy in 0..2 {
                        for dx in 0..2 {
                            let idx = ibase + (2 * y + dy) * w + (2 * x + dx);
                            if input[idx] > best {
                                best = input[idx];
                                best_idx = idx;
                            }
                        }
                    }
                    out[obase + y * ow + x] = best;
                    argmax[obase + y * ow + x] = best_idx as u32;
                }
            }
        }
        (out, argmax)
    }

    /// Scalar dense forward (single sample).
    pub fn dense_forward(
        in_dim: usize,
        out_dim: usize,
        weight: &[f32],
        bias: &[f32],
        input: &[f32],
    ) -> Vec<f32> {
        let mut out = bias.to_vec();
        for o in 0..out_dim {
            let row = &weight[o * in_dim..(o + 1) * in_dim];
            let mut acc = 0.0f32;
            for (wi, xi) in row.iter().zip(input.iter()) {
                acc += wi * xi;
            }
            out[o] += acc;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The output a `forward_batch_into` call writes into a fresh buffer.
    fn fwd(forward: impl FnOnce(&mut Vec<f32>)) -> Vec<f32> {
        let mut out = Vec::new();
        forward(&mut out);
        out
    }

    #[test]
    fn conv_identity_kernel() {
        let mut rng = init_rng(1);
        let mut conv = Conv3x3::new(1, 1, 4, 4, &mut rng);
        // set kernel to identity (center tap 1), bias 0
        conv.weight.w.iter_mut().for_each(|w| *w = 0.0);
        conv.weight.w[4] = 1.0; // center of the 3×3
        conv.bias.w[0] = 0.0;
        let input: Vec<f32> = (0..16).map(|i| i as f32).collect();
        let out = fwd(|o| conv.forward_batch_into(&input, 1, false, o));
        assert_eq!(out, input);
    }

    #[test]
    fn conv_bias_applied() {
        let mut rng = init_rng(1);
        let mut conv = Conv3x3::new(1, 2, 2, 2, &mut rng);
        conv.weight.w.iter_mut().for_each(|w| *w = 0.0);
        conv.bias.w = vec![0.5, -0.5];
        let out = fwd(|o| conv.forward_batch_into(&[0.0; 4], 1, false, o));
        assert_eq!(&out[0..4], &[0.5; 4]);
        assert_eq!(&out[4..8], &[-0.5; 4]);
    }

    #[test]
    fn conv_gradient_check() {
        let mut rng = init_rng(7);
        let mut conv = Conv3x3::new(2, 3, 4, 4, &mut rng);
        let input: Vec<f32> = (0..conv.input_len())
            .map(|i| (i as f32 * 0.37).sin())
            .collect();
        let out = fwd(|o| conv.forward_batch_into(&input, 1, true, o));
        // L = Σ out², dL/dout = 2·out
        let grad_out: Vec<f32> = out.iter().map(|&o| 2.0 * o).collect();
        let grad_in = conv.backward_batch(&grad_out, 1);

        let loss = |c: &mut Conv3x3, x: &[f32]| -> f32 {
            fwd(|o| c.forward_batch_into(x, 1, false, o))
                .iter()
                .map(|o| o * o)
                .sum()
        };
        let eps = 1e-2f32;
        let mut x = input.clone();
        for i in [0usize, 5, 11, 17, 23, 31] {
            let orig = x[i];
            x[i] = orig + eps;
            let lp = loss(&mut conv, &x);
            x[i] = orig - eps;
            let lm = loss(&mut conv, &x);
            x[i] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - grad_in[i]).abs() < 0.05 * (1.0 + numeric.abs()),
                "input grad mismatch at {i}: numeric {numeric} vs analytic {}",
                grad_in[i]
            );
        }
    }

    #[test]
    #[allow(
        clippy::needless_range_loop,
        reason = "the numeric gradient check perturbs weight[wi] in place; the index is the \
                  subject of the test, not an iteration artefact"
    )]
    fn conv_weight_gradient_check() {
        let mut rng = init_rng(9);
        let mut conv = Conv3x3::new(1, 1, 4, 4, &mut rng);
        let input: Vec<f32> = (0..16).map(|i| (i as f32 * 0.21).cos()).collect();
        let out = fwd(|o| conv.forward_batch_into(&input, 1, true, o));
        let grad_out: Vec<f32> = out.iter().map(|&o| 2.0 * o).collect();
        conv.weight.zero_grad();
        conv.bias.zero_grad();
        let _ = conv.backward_batch(&grad_out, 1);
        let analytic = conv.weight.g.clone();

        let eps = 1e-2f32;
        for wi in 0..9 {
            let orig = conv.weight.w[wi];
            conv.weight.w[wi] = orig + eps;
            let lp: f32 = fwd(|o| conv.forward_batch_into(&input, 1, false, o))
                .iter()
                .map(|o| o * o)
                .sum();
            conv.weight.w[wi] = orig - eps;
            let lm: f32 = fwd(|o| conv.forward_batch_into(&input, 1, false, o))
                .iter()
                .map(|o| o * o)
                .sum();
            conv.weight.w[wi] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - analytic[wi]).abs() < 0.05 * (1.0 + numeric.abs()),
                "weight grad mismatch at {wi}: {numeric} vs {}",
                analytic[wi]
            );
        }
    }

    #[test]
    fn pool_selects_max_and_routes_grad() {
        let mut pool = MaxPool2x2::new(1, 4, 4);
        #[rustfmt::skip]
        let input = vec![
            1.0, 2.0,   0.0, 0.0,
            3.0, 4.0,   0.0, 5.0,
            0.0, 0.0,   9.0, 8.0,
            0.0, 0.0,   7.0, 6.0,
        ];
        let out = fwd(|o| pool.forward_batch_into(&input, 1, true, o));
        assert_eq!(out, vec![4.0, 5.0, 0.0, 9.0]);
        let grad_in = pool.backward(&[1.0, 1.0, 1.0, 1.0]);
        assert_eq!(grad_in[5], 1.0); // position of 4.0
        assert_eq!(grad_in[7], 1.0); // position of 5.0
        assert_eq!(grad_in[10], 1.0); // position of 9.0
        assert_eq!(grad_in.iter().sum::<f32>(), 4.0);
    }

    #[test]
    fn pool_batched_matches_per_sample() {
        let mut rng = init_rng(13);
        let mut pool = MaxPool2x2::new(2, 4, 4);
        let batch = 3;
        let hw = 16;
        let per_sample: Vec<Vec<f32>> = (0..batch)
            .map(|_| (0..2 * hw).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect();
        let batched = pack_batched(&per_sample, 2, hw);
        let out = fwd(|o| pool.forward_batch_into(&batched, batch, false, o));
        let mut single = MaxPool2x2::new(2, 4, 4);
        for (s, sample) in per_sample.iter().enumerate() {
            let o = fwd(|o| single.forward_batch_into(sample, 1, false, o));
            for c in 0..2 {
                for pos in 0..4 {
                    assert_eq!(out[(c * batch + s) * 4 + pos], o[c * 4 + pos], "c{c} s{s}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "even dims")]
    fn pool_rejects_odd_dims() {
        let _ = MaxPool2x2::new(1, 3, 4);
    }

    #[test]
    fn relu_forward_backward() {
        let mut relu = Relu::new();
        let mut x = [-1.0, 0.0, 2.0];
        relu.forward_inplace(&mut x, true);
        assert_eq!(x, [0.0, 0.0, 2.0]);
        let grad = relu.backward(&[5.0, 5.0, 5.0]);
        assert_eq!(grad, vec![0.0, 0.0, 5.0]);
    }

    #[test]
    fn dense_forward_matches_matrix_multiply() {
        let mut rng = init_rng(2);
        let mut d = Dense::new(3, 2, &mut rng);
        d.weight.w = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        d.bias.w = vec![0.1, -0.1];
        let out = fwd(|o| d.forward_batch_into(&[1.0, 0.0, -1.0], 1, false, o));
        assert!((out[0] - (1.0 - 3.0 + 0.1)).abs() < 1e-6);
        assert!((out[1] - (4.0 - 6.0 - 0.1)).abs() < 1e-6);
    }

    #[test]
    fn dense_gradient_check() {
        let mut rng = init_rng(3);
        let mut d = Dense::new(5, 4, &mut rng);
        let input: Vec<f32> = (0..5).map(|i| i as f32 * 0.3 - 0.6).collect();
        let out = fwd(|o| d.forward_batch_into(&input, 1, true, o));
        let grad_out: Vec<f32> = out.iter().map(|&o| 2.0 * o).collect();
        let grad_in = d.backward_batch(&grad_out, 1);
        let eps = 1e-3f32;
        let mut x = input.clone();
        for i in 0..5 {
            let orig = x[i];
            x[i] = orig + eps;
            let lp: f32 = fwd(|o| d.forward_batch_into(&x, 1, false, o))
                .iter()
                .map(|o| o * o)
                .sum();
            x[i] = orig - eps;
            let lm: f32 = fwd(|o| d.forward_batch_into(&x, 1, false, o))
                .iter()
                .map(|o| o * o)
                .sum();
            x[i] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - grad_in[i]).abs() < 0.02 * (1.0 + numeric.abs()),
                "dense grad mismatch at {i}"
            );
        }
    }

    #[test]
    #[allow(
        clippy::needless_range_loop,
        reason = "the reference grads are spelled index-style ((o, i) against the flattened \
                  weight matrix) to mirror the math being verified"
    )]
    fn dense_batched_matches_per_sample() {
        let mut rng = init_rng(21);
        let mut d = Dense::new(7, 5, &mut rng);
        let batch = 4;
        let inputs: Vec<f32> = (0..batch * 7).map(|i| (i as f32 * 0.23).sin()).collect();
        let out = fwd(|o| d.forward_batch_into(&inputs, batch, true, o));
        let mut single = Dense::new(7, 5, &mut init_rng(21));
        for s in 0..batch {
            let o = fwd(|o| single.forward_batch_into(&inputs[s * 7..(s + 1) * 7], 1, false, o));
            assert_eq!(&out[s * 5..(s + 1) * 5], &o[..], "sample {s}");
        }
        // batched backward grads = sum of per-sample grads
        let gout: Vec<f32> = (0..batch * 5).map(|i| (i as f32 * 0.31).cos()).collect();
        let gin = d.backward_batch(&gout, batch);
        let mut gw_ref = [0.0f32; 5 * 7];
        let mut gb_ref = [0.0f32; 5];
        for s in 0..batch {
            let x = &inputs[s * 7..(s + 1) * 7];
            let go = &gout[s * 5..(s + 1) * 5];
            for o in 0..5 {
                gb_ref[o] += go[o];
                for i in 0..7 {
                    gw_ref[o * 7 + i] += go[o] * x[i];
                }
            }
            // per-sample grad_in check
            let mut gin_ref = [0.0f32; 7];
            for o in 0..5 {
                for i in 0..7 {
                    gin_ref[i] += go[o] * d.weight.w[o * 7 + i];
                }
            }
            for i in 0..7 {
                assert!((gin[s * 7 + i] - gin_ref[i]).abs() < 1e-5, "gin s{s} i{i}");
            }
        }
        for (a, b) in d.weight.g.iter().zip(gw_ref.iter()) {
            assert!((a - b).abs() < 1e-4 * (1.0 + b.abs()), "{a} vs {b}");
        }
        for (a, b) in d.bias.g.iter().zip(gb_ref.iter()) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn he_init_scale_is_reasonable() {
        let mut rng = init_rng(4);
        let w = he_init(&mut rng, 10_000, 100);
        let var: f32 = w.iter().map(|x| x * x).sum::<f32>() / w.len() as f32;
        assert!(
            (var - 0.02).abs() < 0.005,
            "He variance {var} should be ≈ 2/100"
        );
    }

    /// Packs per-sample channel-major buffers into the batched layout.
    fn pack_batched(samples: &[Vec<f32>], ch: usize, hw: usize) -> Vec<f32> {
        let batch = samples.len();
        let mut out = vec![0.0f32; ch * batch * hw];
        for c in 0..ch {
            for (s, sample) in samples.iter().enumerate() {
                out[(c * batch + s) * hw..(c * batch + s + 1) * hw]
                    .copy_from_slice(&sample[c * hw..(c + 1) * hw]);
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// GEMM conv forward ≡ scalar oracle on random shapes, including
        /// non-square spatial dims and the ch = 1 edge cases.
        #[test]
        fn conv_forward_gemm_equals_scalar(
            in_ch in 1usize..4,
            out_ch in 1usize..5,
            h in 1usize..9,
            w in 1usize..9,
            seed in 0u64..1_000,
        ) {
            let mut rng = init_rng(seed);
            let mut conv = Conv3x3::new(in_ch, out_ch, h, w, &mut rng);
            for b in conv.bias.w.iter_mut() {
                *b = rng.gen_range(-0.5..0.5);
            }
            let input: Vec<f32> = (0..conv.input_len())
                .map(|_| rng.gen_range(-1.0..1.0))
                .collect();
            let fast = fwd(|o| conv.forward_batch_into(&input, 1, false, o));
            let slow = reference::conv3x3_forward(
                in_ch, out_ch, h, w, &conv.weight.w, &conv.bias.w, &input,
            );
            for (i, (a, b)) in fast.iter().zip(slow.iter()).enumerate() {
                prop_assert!(
                    (a - b).abs() <= 1e-4 * (1.0 + b.abs()),
                    "({}, {}, {}, {}) idx {}: {} vs {}", in_ch, out_ch, h, w, i, a, b
                );
            }
        }

        /// GEMM conv backward ≡ scalar oracle: input, weight, and bias
        /// gradients all match within tolerance.
        #[test]
        fn conv_backward_gemm_equals_scalar(
            in_ch in 1usize..4,
            out_ch in 1usize..4,
            h in 1usize..7,
            w in 1usize..7,
            seed in 0u64..1_000,
        ) {
            let mut rng = init_rng(seed.wrapping_add(77));
            let mut conv = Conv3x3::new(in_ch, out_ch, h, w, &mut rng);
            let input: Vec<f32> = (0..conv.input_len())
                .map(|_| rng.gen_range(-1.0..1.0))
                .collect();
            let grad_out: Vec<f32> = (0..conv.output_len())
                .map(|_| rng.gen_range(-1.0..1.0))
                .collect();
            let _ = fwd(|o| conv.forward_batch_into(&input, 1, true, o));
            conv.weight.zero_grad();
            conv.bias.zero_grad();
            let gin = conv.backward_batch(&grad_out, 1);
            let (gin_ref, gw_ref, gb_ref) = reference::conv3x3_backward(
                in_ch, out_ch, h, w, &conv.weight.w, &input, &grad_out,
            );
            for (a, b) in gin.iter().zip(gin_ref.iter()) {
                prop_assert!((a - b).abs() <= 1e-4 * (1.0 + b.abs()), "gin {} vs {}", a, b);
            }
            for (a, b) in conv.weight.g.iter().zip(gw_ref.iter()) {
                prop_assert!((a - b).abs() <= 1e-4 * (1.0 + b.abs()), "gw {} vs {}", a, b);
            }
            for (a, b) in conv.bias.g.iter().zip(gb_ref.iter()) {
                prop_assert!((a - b).abs() <= 1e-4 * (1.0 + b.abs()), "gb {} vs {}", a, b);
            }
        }

        /// Batched conv forward ≡ per-sample scalar oracle: one GEMM over
        /// the whole minibatch must agree with running each sample alone.
        #[test]
        fn conv_forward_batched_equals_scalar_per_sample(
            in_ch in 1usize..3,
            out_ch in 1usize..4,
            h in 1usize..6,
            w in 1usize..6,
            batch in 1usize..5,
            seed in 0u64..1_000,
        ) {
            let mut rng = init_rng(seed.wrapping_add(311));
            let mut conv = Conv3x3::new(in_ch, out_ch, h, w, &mut rng);
            let hw = h * w;
            let samples: Vec<Vec<f32>> = (0..batch)
                .map(|_| (0..in_ch * hw).map(|_| rng.gen_range(-1.0..1.0)).collect())
                .collect();
            let batched = pack_batched(&samples, in_ch, hw);
            let out = fwd(|o| conv.forward_batch_into(&batched, batch, false, o));
            for (s, sample) in samples.iter().enumerate() {
                let slow = reference::conv3x3_forward(
                    in_ch, out_ch, h, w, &conv.weight.w, &conv.bias.w, sample,
                );
                for c in 0..out_ch {
                    for pos in 0..hw {
                        let a = out[(c * batch + s) * hw + pos];
                        let b = slow[c * hw + pos];
                        prop_assert!(
                            (a - b).abs() <= 1e-4 * (1.0 + b.abs()),
                            "s{} c{} pos{}: {} vs {}", s, c, pos, a, b
                        );
                    }
                }
            }
        }

        /// Both pooling loops ≡ the scalar scan, bit for bit — outputs and,
        /// in train mode, the routed argmax — on inputs full of ties,
        /// signed zeros and NaN, where scan order decides the winner.
        #[test]
        fn pool_equals_scalar_scan_on_ties_and_nan(
            ch in 1usize..3,
            batch in 1usize..3,
            half_h in 1usize..4,
            half_w in 1usize..5,
            seed in 0u64..1_000,
        ) {
            let (h, w) = (2 * half_h, 2 * half_w);
            let cells = [-1.0f32, -0.0, 0.0, 0.5, 0.5, f32::NAN, f32::NEG_INFINITY];
            let mut rng = init_rng(seed);
            let input: Vec<f32> = (0..ch * batch * h * w)
                .map(|_| cells[rng.gen_range(0..cells.len())])
                .collect();
            let (want, want_arg) = reference::maxpool2x2(ch * batch, h, w, &input);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let mut pool = MaxPool2x2::new(ch, h, w);
            let eval = fwd(|o| pool.forward_batch_into(&input, batch, false, o));
            prop_assert_eq!(bits(&eval), bits(&want));
            let trained = fwd(|o| pool.forward_batch_into(&input, batch, true, o));
            prop_assert_eq!(bits(&trained), bits(&want));
            prop_assert_eq!(&pool.argmax, &want_arg);
        }

        /// Dense forward ≡ scalar oracle on random shapes.
        #[test]
        fn dense_forward_gemm_equals_scalar(
            in_dim in 1usize..40,
            out_dim in 1usize..20,
            seed in 0u64..1_000,
        ) {
            let mut rng = init_rng(seed.wrapping_add(5));
            let mut d = Dense::new(in_dim, out_dim, &mut rng);
            let input: Vec<f32> = (0..in_dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let fast = fwd(|o| d.forward_batch_into(&input, 1, false, o));
            let slow = reference::dense_forward(in_dim, out_dim, &d.weight.w, &d.bias.w, &input);
            for (a, b) in fast.iter().zip(slow.iter()) {
                prop_assert!((a - b).abs() <= 1e-4 * (1.0 + b.abs()), "{} vs {}", a, b);
            }
        }
    }
}
