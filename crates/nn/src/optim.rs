//! Optimisers over flattened parameter vectors.

/// Adam (Kingma & Ba) with optional gradient clipping.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// Exponential decay of the first-moment estimate.
    pub beta1: f32,
    /// Exponential decay of the second-moment estimate.
    pub beta2: f32,
    /// Denominator fuzz preventing division by zero.
    pub eps: f32,
    /// Global L2 gradient clip; 0 disables clipping.
    pub clip: f32,
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
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            clip: 5.0,
            m: vec![0.0; n_params],
            v: vec![0.0; n_params],
            t: 0,
        }
    }

    /// Number of [`Adam::step`] calls so far (the bias-correction clock).
    pub fn steps_taken(&self) -> u64 {
        self.t
    }

    /// One update: `params ← params − lr · m̂ / (√v̂ + ε)`.
    pub fn step(&mut self, params: &mut [f32], grads: &[f32]) {
        assert_eq!(params.len(), self.m.len(), "param size mismatch");
        assert_eq!(grads.len(), self.m.len(), "grad size mismatch");
        self.t += 1;

        // Global-norm clip.
        let mut scale = 1.0f32;
        if self.clip > 0.0 {
            // A plain iterator sum on purpose: the sequential fold is
            // itself deterministic, and switching to the 8-lane reducer
            // would change the summation tree and shift the pinned golden
            // loss trajectories (crates/nn/tests/golden_train.rs).
            let norm: f32 = grads.iter().map(|g| g * g).sum::<f32>().sqrt();
            if norm > self.clip {
                scale = self.clip / norm;
            }
        }

        let b1c = 1.0 - self.beta1.powi(self.t as i32);
        let b2c = 1.0 - self.beta2.powi(self.t as i32);
        for i in 0..params.len() {
            let g = grads[i] * scale;
            if !g.is_finite() {
                continue; // skip poisoned gradients rather than corrupting state
            }
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g;
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g;
            let mhat = self.m[i] / b1c;
            let vhat = self.v[i] / b2c;
            params[i] -= self.lr * mhat / (vhat.sqrt() + self.eps);
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
        assert_eq!(opt.steps_taken(), 2000);
    }

    #[test]
    fn clipping_limits_update_magnitude() {
        let mut unclipped = Adam::new(0.1, 1);
        unclipped.clip = 0.0;
        let mut clipped = Adam::new(0.1, 1);
        clipped.clip = 0.5;
        let mut xa = vec![0.0f32];
        let mut xb = vec![0.0f32];
        unclipped.step(&mut xa, &[1000.0]);
        clipped.step(&mut xb, &[1000.0]);
        // Both move by ≈ lr on the first Adam step, but clipping changes the
        // internal moments; after a second small-gradient step the states differ.
        unclipped.step(&mut xa, &[0.001]);
        clipped.step(&mut xb, &[0.001]);
        assert_ne!(xa[0], xb[0]);
    }

    #[test]
    fn non_finite_gradients_are_skipped() {
        let mut opt = Adam::new(0.1, 2);
        opt.clip = 0.0;
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
