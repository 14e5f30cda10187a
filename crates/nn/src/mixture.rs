//! Gaussian mixtures: the CMDN's output representation.
//!
//! §3.2 of the paper: the MDN layer emits, per frame, the parameters of `g`
//! Gaussians (mean μ, variance σ²) and their weights π. Before the mixture
//! becomes an x-tuple, Everest (a) truncates each Gaussian at 3σ
//! ("probabilities beyond 3σ are set to zero and evenly distributed to the
//! rest", i.e. renormalised), and (b) quantizes the continuous density to a
//! discrete distribution — integer support for counting scores, a
//! user-provided step size otherwise.

/// One Gaussian component of a mixture.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Component {
    /// Mixture weight π (non-negative; the mixture normalises them).
    pub weight: f64,
    /// Mean μ.
    pub mean: f64,
    /// Standard deviation σ (strictly positive).
    pub std: f64,
}

/// A Gaussian mixture distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct GaussianMixture {
    components: Vec<Component>,
}

impl GaussianMixture {
    /// Builds a mixture, normalising the weights to sum to one.
    ///
    /// Panics if no component has positive weight or any σ ≤ 0.
    pub fn new(mut components: Vec<Component>) -> Self {
        assert!(
            !components.is_empty(),
            "mixture needs at least one component"
        );
        let total: f64 = components.iter().map(|c| c.weight.max(0.0)).sum();
        assert!(total > 0.0, "mixture needs positive total weight");
        for c in &mut components {
            assert!(c.std > 0.0, "component std must be positive");
            assert!(
                c.mean.is_finite() && c.std.is_finite(),
                "non-finite component"
            );
            c.weight = c.weight.max(0.0) / total;
        }
        GaussianMixture { components }
    }

    /// A single Gaussian as a 1-component mixture.
    pub fn single(mean: f64, std: f64) -> Self {
        GaussianMixture::new(vec![Component {
            weight: 1.0,
            mean,
            std,
        }])
    }

    /// The normalised components.
    pub fn components(&self) -> &[Component] {
        &self.components
    }

    /// Number of components.
    pub fn num_components(&self) -> usize {
        self.components.len()
    }

    /// Mixture mean: Σ π_j μ_j (the paper's ¯μ).
    pub fn mean(&self) -> f64 {
        self.components.iter().map(|c| c.weight * c.mean).sum()
    }

    /// Total variance: Σ π_j (σ_j² + μ_j²) − ¯μ² (the paper's ¯σ², §3.4).
    pub fn variance(&self) -> f64 {
        let m = self.mean();
        let second: f64 = self
            .components
            .iter()
            .map(|c| c.weight * (c.std * c.std + c.mean * c.mean))
            .sum();
        (second - m * m).max(0.0)
    }

    /// CDF at `x` (untruncated).
    pub fn cdf(&self, x: f64) -> f64 {
        self.components
            .iter()
            .map(|c| c.weight * normal_cdf(x, c.mean, c.std))
            .sum()
    }

    /// CDF at `x` with each component truncated at ±3σ and renormalised —
    /// the paper's truncation rule (following Chopin \[17\]).
    pub fn truncated_cdf(&self, x: f64) -> f64 {
        self.components
            .iter()
            .map(|c| c.weight * truncated_normal_cdf(x, c.mean, c.std))
            .sum()
    }

    /// Smallest and largest support points after 3σ truncation.
    pub fn truncated_range(&self) -> (f64, f64) {
        let lo = self
            .components
            .iter()
            .map(|c| c.mean - 3.0 * c.std)
            .fold(f64::INFINITY, f64::min);
        let hi = self
            .components
            .iter()
            .map(|c| c.mean + 3.0 * c.std)
            .fold(f64::NEG_INFINITY, f64::max);
        (lo, hi)
    }

    /// Quantizes the truncated mixture into probability masses over the
    /// bucket grid `value_k = k * step` for `k = 0 ..= max_bucket`.
    ///
    /// Bucket `k` receives the truncated mass of `((k−½)·step, (k+½)·step]`;
    /// the first and last buckets absorb the tails, so the masses always sum
    /// to 1. With `step = 1` this is the paper's quantization for counting
    /// scores (non-negative integer support).
    pub fn quantize(&self, step: f64, max_bucket: usize) -> Vec<f64> {
        assert!(step > 0.0, "quantization step must be positive");
        let n = max_bucket + 1;
        let mut masses = Vec::with_capacity(n);
        let mut prev_cdf = 0.0; // truncated CDF at -inf is 0; bucket 0 absorbs the left tail
        for k in 0..n {
            let upper = (k as f64 + 0.5) * step;
            let cdf = if k == max_bucket {
                1.0
            } else {
                self.truncated_cdf(upper)
            };
            masses.push((cdf - prev_cdf).max(0.0));
            prev_cdf = cdf;
        }
        // Guard against pathological rounding: renormalise exactly.
        let total: f64 = masses.iter().sum();
        if total > 0.0 {
            for m in &mut masses {
                *m /= total;
            }
        } else {
            // Degenerate mixture entirely above the grid: all mass on top bucket.
            masses[max_bucket] = 1.0;
        }
        masses
    }
}

/// Standard normal CDF via the error function.
pub fn normal_cdf(x: f64, mean: f64, std: f64) -> f64 {
    0.5 * (1.0 + erf((x - mean) / (std * std::f64::consts::SQRT_2)))
}

/// CDF of a normal truncated to ±3σ around its mean, renormalised.
pub fn truncated_normal_cdf(x: f64, mean: f64, std: f64) -> f64 {
    let lo = mean - 3.0 * std;
    let hi = mean + 3.0 * std;
    if x < lo {
        return 0.0;
    }
    if x >= hi {
        return 1.0;
    }
    // Φ(3) − Φ(−3) = 0.9973…
    const MASS_3SIGMA: f64 = 0.997_300_203_936_740_2;
    let base = normal_cdf(x, mean, std) - normal_cdf(lo, mean, std);
    (base / MASS_3SIGMA).clamp(0.0, 1.0)
}

/// Error function, Abramowitz & Stegun 7.1.26 (|error| ≤ 1.5e-7).
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    const A1: f64 = 0.254829592;
    const A2: f64 = -0.284496736;
    const A3: f64 = 1.421413741;
    const A4: f64 = -1.453152027;
    const A5: f64 = 1.061405429;
    const P: f64 = 0.3275911;
    let t = 1.0 / (1.0 + P * x);
    let y = 1.0 - (((((A5 * t + A4) * t) + A3) * t + A2) * t + A1) * t * (-x * x).exp();
    sign * y
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, eps: f64) -> bool {
        (a - b).abs() < eps
    }

    #[test]
    fn erf_reference_values() {
        assert!(close(erf(0.0), 0.0, 1e-7));
        assert!(close(erf(1.0), 0.8427007929, 2e-7));
        assert!(close(erf(-1.0), -0.8427007929, 2e-7));
        assert!(close(erf(2.0), 0.9953222650, 2e-7));
    }

    #[test]
    fn normal_cdf_symmetry() {
        assert!(close(normal_cdf(0.0, 0.0, 1.0), 0.5, 1e-9));
        assert!(close(
            normal_cdf(1.5, 0.0, 1.0) + normal_cdf(-1.5, 0.0, 1.0),
            1.0,
            1e-9
        ));
    }

    #[test]
    fn weights_are_normalised() {
        let m = GaussianMixture::new(vec![
            Component {
                weight: 2.0,
                mean: 0.0,
                std: 1.0,
            },
            Component {
                weight: 6.0,
                mean: 5.0,
                std: 1.0,
            },
        ]);
        assert!(close(m.components()[0].weight, 0.25, 1e-12));
        assert!(close(m.components()[1].weight, 0.75, 1e-12));
    }

    #[test]
    #[should_panic(expected = "std must be positive")]
    fn rejects_nonpositive_std() {
        let _ = GaussianMixture::new(vec![Component {
            weight: 1.0,
            mean: 0.0,
            std: 0.0,
        }]);
    }

    #[test]
    fn mean_and_variance_single() {
        let m = GaussianMixture::single(3.0, 2.0);
        assert!(close(m.mean(), 3.0, 1e-12));
        assert!(close(m.variance(), 4.0, 1e-12));
    }

    #[test]
    fn mixture_moments_match_formula() {
        // 0.5·N(0,1) + 0.5·N(4,1): mean 2, var = E[σ²] + Var(μ) = 1 + 4 = 5.
        let m = GaussianMixture::new(vec![
            Component {
                weight: 0.5,
                mean: 0.0,
                std: 1.0,
            },
            Component {
                weight: 0.5,
                mean: 4.0,
                std: 1.0,
            },
        ]);
        assert!(close(m.mean(), 2.0, 1e-12));
        assert!(close(m.variance(), 5.0, 1e-12));
    }

    #[test]
    fn moments_match_monte_carlo() {
        use rand::{Rng, SeedableRng};
        let m = GaussianMixture::new(vec![
            Component {
                weight: 0.3,
                mean: 1.0,
                std: 0.5,
            },
            Component {
                weight: 0.7,
                mean: 6.0,
                std: 2.0,
            },
        ]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let n = 200_000;
        let mut sum = 0.0;
        let mut sumsq = 0.0;
        for _ in 0..n {
            let c = if rng.gen::<f64>() < 0.3 {
                m.components()[0]
            } else {
                m.components()[1]
            };
            // Box–Muller
            let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            let u2: f64 = rng.gen();
            let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            let x = c.mean + c.std * z;
            sum += x;
            sumsq += x * x;
        }
        let mc_mean = sum / n as f64;
        let mc_var = sumsq / n as f64 - mc_mean * mc_mean;
        assert!(
            close(m.mean(), mc_mean, 0.03),
            "{} vs {}",
            m.mean(),
            mc_mean
        );
        assert!(
            close(m.variance(), mc_var, 0.1),
            "{} vs {}",
            m.variance(),
            mc_var
        );
    }

    #[test]
    fn cdf_is_monotone_and_bounded() {
        let m = GaussianMixture::new(vec![
            Component {
                weight: 0.4,
                mean: 2.0,
                std: 1.0,
            },
            Component {
                weight: 0.6,
                mean: 8.0,
                std: 2.5,
            },
        ]);
        let mut prev = 0.0;
        for i in -50..100 {
            let x = i as f64 * 0.3;
            let c = m.cdf(x);
            assert!((0.0..=1.0).contains(&c));
            assert!(c >= prev - 1e-12, "CDF must be monotone");
            prev = c;
        }
    }

    #[test]
    fn truncated_cdf_saturates_at_3_sigma() {
        let m = GaussianMixture::single(10.0, 2.0);
        assert_eq!(m.truncated_cdf(10.0 - 6.1), 0.0);
        assert_eq!(m.truncated_cdf(10.0 + 6.0), 1.0);
        // erf approximation carries ~1.5e-7 absolute error
        assert!(close(m.truncated_cdf(10.0), 0.5, 1e-6));
    }

    #[test]
    fn quantize_masses_sum_to_one() {
        let m = GaussianMixture::new(vec![
            Component {
                weight: 0.5,
                mean: 2.3,
                std: 0.8,
            },
            Component {
                weight: 0.5,
                mean: 7.1,
                std: 1.4,
            },
        ]);
        let masses = m.quantize(1.0, 15);
        assert_eq!(masses.len(), 16);
        assert!(close(masses.iter().sum::<f64>(), 1.0, 1e-9));
        assert!(masses.iter().all(|&p| p >= 0.0));
    }

    #[test]
    fn quantize_concentrates_near_mean() {
        let m = GaussianMixture::single(5.0, 0.3);
        let masses = m.quantize(1.0, 10);
        let argmax = masses
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(argmax, 5);
        assert!(masses[5] > 0.85);
    }

    #[test]
    fn quantize_tail_absorption() {
        // Mean far below 0: all mass lands in bucket 0.
        let m = GaussianMixture::single(-20.0, 1.0);
        let masses = m.quantize(1.0, 5);
        assert!(close(masses[0], 1.0, 1e-9));
        // Mean far above the grid: all mass in the last bucket.
        let m = GaussianMixture::single(100.0, 1.0);
        let masses = m.quantize(1.0, 5);
        assert!(close(masses[5], 1.0, 1e-9));
    }

    #[test]
    fn quantize_respects_step_size() {
        let m = GaussianMixture::single(2.0, 0.4);
        let masses = m.quantize(0.5, 20); // grid 0, 0.5, …, 10
        let argmax = masses
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(argmax, 4); // bucket 4 ↔ value 2.0
    }

    #[test]
    fn truncated_range_covers_components() {
        let m = GaussianMixture::new(vec![
            Component {
                weight: 0.5,
                mean: 0.0,
                std: 1.0,
            },
            Component {
                weight: 0.5,
                mean: 10.0,
                std: 2.0,
            },
        ]);
        let (lo, hi) = m.truncated_range();
        assert!(close(lo, -3.0, 1e-12));
        assert!(close(hi, 16.0, 1e-12));
    }
}
