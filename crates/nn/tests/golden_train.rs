//! Fixed-seed golden regression for the CMDN training loop.
//!
//! The holdout-NLL trajectory of a 2-epoch train run was recorded with the
//! pre-GEMM scalar implementation (commit c622ceb); the im2col + blocked
//! GEMM path must reproduce it within a small tolerance. f32 summation
//! order differs between the two implementations, so the values are not
//! bit-identical — observed drift is ~1e-8, and the tolerance below is
//! wide enough for future reorderings of the same math but far too tight
//! for any functional regression (a broken gradient moves the NLL by
//! whole percents).

use everest_nn::cmdn::CmdnConfig;
use everest_nn::train::{train_cmdn, Sample, TrainConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn brightness_dataset(n: usize, seed: u64) -> Vec<Sample> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let v: f32 = rng.gen_range(0.0..1.0);
            let y = 10.0 * v as f64 + 0.3 * (rng.gen::<f64>() - 0.5);
            (vec![v; 256], y)
        })
        .collect()
}

fn cfg() -> CmdnConfig {
    CmdnConfig {
        input: (16, 16),
        conv_channels: vec![4, 8],
        hidden: 16,
        num_gaussians: 3,
        sigma_min: 0.2,
        target_range: (0.0, 10.0),
        seed: 42,
    }
}

fn tcfg(epochs: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        batch_size: 32,
        lr: 5e-3,
        num_threads: 4,
        patience: 0,
        seed: 9,
    }
}

/// Holdout NLL after 1 and 2 epochs, recorded with the scalar layers.
const GOLDEN: [(usize, f64); 2] = [(1, 2.2905088566), (2, 2.2407844299)];

/// The same trajectory pinned **per dispatch path** at near-bit tightness
/// (values re-recorded whenever the accumulation order deliberately
/// changes). The vector path's FMA fuses each multiply-add into one
/// rounding, so it diverges from the scalar path at ~1e-8 — each path is
/// bit-deterministic on its own, which is what these constants pin. The
/// scalar column is what `EVEREST_NO_SIMD=1` (CI's `test-scalar` job)
/// reproduces. Recorded with the batch split into `train::SHARDS` fixed
/// shards, so the 4 workers below and any other count give these values.
///
/// The tight assertion only runs on the recording platform (x86-64
/// Linux): the MDN loss goes through `f64::exp`/`ln`, whose last-ulp
/// behaviour is libm-specific, so other platforms could drift past 1e-9
/// with perfectly correct kernels — they are still covered by the 1e-3
/// scalar-era check above.
const GOLDEN_SIMD: [(usize, f64); 2] = [(1, 2.2905088729), (2, 2.2407844266)];
const GOLDEN_SCALAR: [(usize, f64); 2] = [(1, 2.2905088705), (2, 2.2407844243)];

#[test]
fn two_epoch_loss_trajectory_matches_scalar_era_golden() {
    let train = brightness_dataset(200, 101);
    let holdout = brightness_dataset(60, 102);
    let per_path = if everest_nn::kernels::simd_active() {
        GOLDEN_SIMD
    } else {
        GOLDEN_SCALAR
    };
    for ((epochs, golden), (_, path_golden)) in GOLDEN.into_iter().zip(per_path) {
        let out = train_cmdn(cfg(), &tcfg(epochs), &train, &holdout);
        let drift = (out.holdout_nll - golden).abs();
        assert!(
            drift < 1e-3,
            "epochs={epochs}: holdout NLL {} drifted {drift:.2e} from golden {golden}",
            out.holdout_nll
        );
        #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
        {
            let path_drift = (out.holdout_nll - path_golden).abs();
            assert!(
                path_drift < 1e-9,
                "epochs={epochs} (simd={}): holdout NLL {} drifted {path_drift:.2e} from \
                 the per-path golden {path_golden}",
                everest_nn::kernels::simd_active(),
                out.holdout_nll
            );
        }
        #[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
        let _ = path_golden;
    }
}

/// The trajectory itself must be bit-reproducible across repeated runs in
/// the same build (the determinism contract the golden values rely on).
#[test]
fn training_is_deterministic_across_runs() {
    let train = brightness_dataset(120, 7);
    let holdout = brightness_dataset(40, 8);
    let a = train_cmdn(cfg(), &tcfg(2), &train, &holdout);
    let b = train_cmdn(cfg(), &tcfg(2), &train, &holdout);
    assert_eq!(a.holdout_nll.to_bits(), b.holdout_nll.to_bits());
    assert_eq!(a.model.params_flat(), b.model.params_flat());
}
