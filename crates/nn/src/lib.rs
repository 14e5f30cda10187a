//! # everest-nn — a pure-Rust convolutional mixture density network
//!
//! The Everest paper's Phase 1 (§3.2) trains a lightweight **CMDN** — a
//! small CNN whose head is a mixture density network — to map a video frame
//! to a *distribution* over its score, rather than a point estimate. The
//! original implementation uses PyTorch; this crate is the from-scratch
//! substitute, implementing everything the pipeline needs with no external
//! numeric dependencies:
//!
//! * [`layers`] — 3×3 convolution (pad 1), 2×2 max-pooling, ReLU and dense
//!   layers with hand-derived backward passes;
//! * [`cmdn`] — the CMDN architecture of Figure 2 (conv stack → MDN head)
//!   with mixture-NLL training gradients (Bishop's MDN formulation);
//! * [`mixture`] — Gaussian mixtures: moments, CDF (erf), the paper's 3σ
//!   truncation, and quantization to discrete score distributions;
//! * [`optim`] — Adam over flattened parameter vectors;
//! * [`train`] — mini-batch training with data-parallel gradient workers,
//!   hold-out NLL evaluation, and the hyper-parameter grid search over
//!   (g = #Gaussians, h = hidden width) with smallest-NLL model selection,
//!   exactly the model-selection protocol of §3.2/§3.5.
//!
//! The paper stacks five conv layers for 128×128 inputs; at our scaled
//! 32×32 inputs the default is three conv blocks (each halves the spatial
//! resolution), which preserves the "each layer halves, features feed an
//! MDN" design. The depth is configurable.
//!
//! Conv and dense passes are lowered onto im2col + cache-blocked GEMM (see
//! [`kernels`]); every layer and the CMDN take whole minibatches, so
//! training and inference push a batch through one GEMM per layer, and a
//! single sample is a batch of one.

#![warn(missing_docs)]
// Every unsafe operation inside an `unsafe fn` sits in an `unsafe {}`
// block (the Rust 2024 default), so `undocumented_unsafe_blocks` below
// asks each kernel body for its `// SAFETY:` comment.
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(
    clippy::undocumented_unsafe_blocks,
    clippy::iter_over_hash_type,
    clippy::allow_attributes_without_reason
)]

pub mod cmdn;
pub mod kernels;
pub mod layers;
pub mod mixture;
pub mod optim;
pub mod train;

pub use cmdn::{Cmdn, CmdnConfig};
pub use mixture::GaussianMixture;
pub use optim::Adam;
pub use train::{train_cmdn, HyperGrid, TrainConfig, TrainOutcome, TrainedCmdn};
