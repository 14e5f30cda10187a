//! Optimisers over flattened parameter vectors.

/// Exponential decay of the first-moment estimate.
const BETA1: f32 = 0.9;
/// Exponential decay of the second-moment estimate.
const BETA2: f32 = 0.999;
/// Denominator fuzz preventing division by zero.
const EPS: f32 = 1e-8;
/// Global L2 gradient clip.
const CLIP: f32 = 5.0;

/// Adam (Kingma & Ba) with global-norm gradient clipping.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    m: Vec<f32>,
    v: Vec<f32>,
    t: u64,
}

impl Adam {
    /// Builds an optimiser for `n_params` parameters with the standard
    /// Kingma–Ba defaults (`β₁ = 0.9`, `β₂ = 0.999`) and clip 5.
    pub fn new(lr: f32, n_params: usize) -> Self {
        Adam {
            lr,
            m: vec![0.0; n_params],
            v: vec![0.0; n_params],
            t: 0,
        }
    }

    /// One update: `params ← params − lr · m̂ / (√v̂ + ε)`.
    pub fn step(&mut self, params: &mut [f32], grads: &[f32]) {
        assert_eq!(params.len(), self.m.len(), "param size mismatch");
        assert_eq!(grads.len(), self.m.len(), "grad size mismatch");
        self.t += 1;

        // Global-norm clip. A plain iterator sum on purpose: the sequential
        // fold is itself deterministic, and switching to the 8-lane reducer
        // would change the summation tree and shift the pinned golden loss
        // trajectories (crates/nn/tests/golden_train.rs). A NaN norm fails
        // the comparison, so poisoned gradients reach the skip below
        // unscaled.
        let norm: f32 = grads.iter().map(|g| g * g).sum::<f32>().sqrt();
        let scale = if norm > CLIP { CLIP / norm } else { 1.0 };

        let b1c = 1.0 - BETA1.powi(self.t as i32);
        let b2c = 1.0 - BETA2.powi(self.t as i32);
        for i in 0..params.len() {
            let g = grads[i] * scale;
            if !g.is_finite() {
                continue; // skip poisoned gradients rather than corrupting state
            }
            self.m[i] = BETA1 * self.m[i] + (1.0 - BETA1) * g;
            self.v[i] = BETA2 * self.v[i] + (1.0 - BETA2) * g * g;
            let mhat = self.m[i] / b1c;
            let vhat = self.v[i] / b2c;
            params[i] -= self.lr * mhat / (vhat.sqrt() + EPS);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adam_minimises_quadratic() {
        // f(x) = Σ (x_i − target_i)², ∇f = 2(x − target)
        let target = [3.0f32, -1.0, 0.5];
        let mut x = vec![0.0f32; 3];
        let mut opt = Adam::new(0.05, 3);
        for _ in 0..2000 {
            let grads: Vec<f32> = x
                .iter()
                .zip(target.iter())
                .map(|(xi, ti)| 2.0 * (xi - ti))
                .collect();
            opt.step(&mut x, &grads);
        }
        for (xi, ti) in x.iter().zip(target.iter()) {
            assert!((xi - ti).abs() < 1e-2, "{xi} vs {ti}");
        }
        assert_eq!(opt.t, 2000);
    }

    #[test]
    fn clipping_limits_update_magnitude() {
        // Every first gradient moves the param by ≈ lr, but the moments
        // remember its clipped size, which the second step reads: a
        // gradient far over the clip leaves the bits one of exactly `CLIP`
        // leaves, and one under the clip passes unscaled.
        let after_two_steps = |first: f32| {
            let mut opt = Adam::new(0.1, 1);
            let mut x = vec![0.0f32];
            opt.step(&mut x, &[first]);
            opt.step(&mut x, &[0.001]);
            x[0].to_bits()
        };
        assert_eq!(after_two_steps(1000.0), after_two_steps(CLIP));
        assert_ne!(after_two_steps(CLIP / 2.0), after_two_steps(CLIP));
    }

    #[test]
    fn non_finite_gradients_are_skipped() {
        let mut opt = Adam::new(0.1, 2);
        let mut x = vec![1.0f32, 1.0];
        opt.step(&mut x, &[f32::NAN, 1.0]);
        assert!(
            (x[0] - 1.0).abs() < 1e-9,
            "NaN gradient must not move the param"
        );
        assert!(x[1] < 1.0, "finite gradient still applies");
        assert!(x.iter().all(|v| v.is_finite()));
    }

    #[test]
    #[should_panic(expected = "param size mismatch")]
    fn size_mismatch_panics() {
        let mut opt = Adam::new(0.1, 2);
        let mut x = vec![0.0f32; 3];
        opt.step(&mut x, &[0.0; 3]);
    }
}
