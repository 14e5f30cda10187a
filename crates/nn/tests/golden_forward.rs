//! Bit-level pin of the CMDN forward pass.
//!
//! `Cmdn::predict_raw_batch` is f32 arithmetic only — no libm call — so
//! for fixed weights and fixed inputs its output bits depend on the
//! kernels alone, and every kernel path (scalar, AVX2, AVX-512) computes
//! the same chains: one digest holds on any CPU. It was recorded before
//! the GEMM's edge rows went vector; any kernel change that moves one bit
//! of the forward fails here without a benchmark run.

use everest_nn::cmdn::{Cmdn, CmdnConfig};

/// FNV-1a over the output bits.
const DIGEST: u64 = 0xfebc_68c4_dcee_d589;

/// Values in `[-1, 1)` from an integer LCG, each exact in f32 (24 bits):
/// no libm, no RNG crate.
fn fill(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 40) as f32 / (1u32 << 23) as f32 - 1.0
        })
        .collect()
}

fn fnv1a(values: &[f32]) -> u64 {
    values
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, byte| {
            (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// The EVQL recipe's network shape (32×32 input, `conv [6, 12]`) with
/// weights set from [`fill`], so even the initialiser's libm calls are out
/// of the picture.
fn model() -> Cmdn {
    let mut m = Cmdn::new(CmdnConfig {
        input: (32, 32),
        conv_channels: vec![6, 12],
        hidden: 16,
        num_gaussians: 3,
        sigma_min: 0.25,
        target_range: (0.0, 10.0),
        seed: 0,
    });
    let weights: Vec<f32> = fill(m.num_params(), 1).iter().map(|w| 0.25 * w).collect();
    m.set_params_flat(&weights);
    m
}

#[test]
fn predict_raw_batch_bits_are_pinned() {
    let mut m = model();
    let batch = 4;
    let inputs: Vec<f32> = fill(batch * m.input_len(), 2)
        .iter()
        .map(|x| 0.5 + 0.5 * x)
        .collect();
    let raw = m.predict_raw_batch(&inputs, batch).to_vec();
    assert_eq!(raw.len(), batch * 9);
    assert!(raw.iter().all(|v| v.is_finite()), "{raw:?}");
    let got = fnv1a(&raw);
    assert_eq!(got, DIGEST, "digest {got:#018x}, raw {raw:?}");
}
