//! Fixed-seed golden regression for the CMDN training loop.
//!
//! The holdout-NLL trajectory of a 2-epoch train run is pinned at
//! near-bit tightness. Every kernel path (scalar, AVX2, AVX-512) computes
//! the same chains, so one table holds on any CPU; the values are
//! re-recorded only when the accumulation order deliberately changes.
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

/// Holdout NLL after 1 and 2 epochs, recorded with the batch split into
/// `train::SHARDS` fixed shards, so the 4 workers below and any other count
/// give these values.
const GOLDEN: [(usize, f64); 2] = [(1, 2.2905088729), (2, 2.2407844266)];

/// The MDN loss goes through `f64::exp`/`ln`, whose last-ulp behaviour is
/// libm's, so the near-bit check runs only on the recording platform
/// (x86-64 Linux); elsewhere a correct build may drift past it, and the
/// loose check still catches a broken gradient, which moves the NLL by
/// whole percents.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
const TOLERANCE: f64 = 1e-9;
#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
const TOLERANCE: f64 = 1e-3;

#[test]
fn two_epoch_loss_trajectory_matches_golden() {
    let train = brightness_dataset(200, 101);
    let holdout = brightness_dataset(60, 102);
    for (epochs, golden) in GOLDEN {
        let out = train_cmdn(cfg(), &tcfg(epochs), &train, &holdout);
        let drift = (out.holdout_nll - golden).abs();
        assert!(
            drift < TOLERANCE,
            "epochs={epochs}: holdout NLL {} drifted {drift:.2e} from golden {golden}",
            out.holdout_nll
        );
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
