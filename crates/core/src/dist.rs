//! Discrete score distributions: the probabilistic payload of an x-tuple.
//!
//! After Phase 1 quantizes a frame's Gaussian-mixture score distribution
//! (§3.2), each frame carries a probability mass function over a shared
//! bucket grid `value = bucket × step`. All Phase-2 maths (Eq. 2–8) runs on
//! bucket indices; `step` only matters when converting back to score units
//! for reporting.

/// A discrete distribution over buckets `0 ..= max_bucket`.
///
/// Stores the PMF, the precomputed CDF — what Eq. 2/3 consume
/// (`F_f(t) = Pr(S_f ≤ t)`) — and the support bounds.
#[derive(Debug, Clone, PartialEq)]
pub struct DiscreteDist {
    pmf: Box<[f64]>,
    cdf: Box<[f64]>,
    /// Smallest and largest bucket with positive mass.
    support: (usize, usize),
}

impl DiscreteDist {
    /// Builds a distribution from raw masses, normalising them.
    ///
    /// Panics if the masses are empty, negative, or sum to zero.
    pub fn from_masses(masses: &[f64]) -> Self {
        assert!(!masses.is_empty(), "distribution needs at least one bucket");
        assert!(
            masses.iter().all(|&m| m.is_finite() && m >= 0.0),
            "masses must be finite and non-negative"
        );
        let total: f64 = masses.iter().sum();
        assert!(total > 0.0, "distribution needs positive total mass");
        let pmf: Box<[f64]> = masses.iter().map(|m| m / total).collect();
        let mut cdf = Vec::with_capacity(pmf.len());
        let mut acc = 0.0;
        for &p in &pmf {
            acc += p;
            cdf.push(acc.min(1.0));
        }
        // force exactness at the top to avoid 1-1e-16 artifacts
        if let Some(top) = cdf.last_mut() {
            *top = 1.0;
        }
        let cdf = cdf.into_boxed_slice();
        // The total mass is positive, so both scans stop inside the grid.
        let zero = |p: &&f64| **p == 0.0;
        let support = (
            pmf.iter().take_while(zero).count(),
            pmf.len() - 1 - pmf.iter().rev().take_while(zero).count(),
        );
        DiscreteDist { pmf, cdf, support }
    }

    /// A point mass at `bucket` on a grid of `max_bucket + 1` buckets.
    pub fn certain(bucket: usize, max_bucket: usize) -> Self {
        assert!(
            bucket <= max_bucket,
            "bucket {bucket} beyond grid {max_bucket}"
        );
        let mut masses = vec![0.0; max_bucket + 1];
        masses[bucket] = 1.0;
        DiscreteDist::from_masses(&masses)
    }

    /// Number of buckets (`max_bucket + 1`).
    pub fn len(&self) -> usize {
        self.pmf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.pmf.is_empty()
    }

    /// Largest bucket index.
    pub fn max_bucket(&self) -> usize {
        self.pmf.len() - 1
    }

    /// `Pr(S = bucket)`.
    pub fn pmf(&self, bucket: usize) -> f64 {
        self.pmf.get(bucket).copied().unwrap_or(0.0)
    }

    /// `F(t) = Pr(S ≤ t)`; saturates to 1 beyond the grid.
    pub fn cdf(&self, bucket: usize) -> f64 {
        if bucket >= self.cdf.len() {
            1.0
        } else {
            self.cdf[bucket]
        }
    }

    /// Mean bucket value (in bucket units).
    pub fn mean_bucket(&self) -> f64 {
        self.pmf
            .iter()
            .enumerate()
            .map(|(b, &p)| b as f64 * p)
            .sum()
    }

    /// Smallest bucket with positive mass.
    pub fn support_min(&self) -> usize {
        self.support.0
    }

    /// Largest bucket with positive mass.
    pub fn support_max(&self) -> usize {
        self.support.1
    }

    /// Samples a bucket given a uniform `u ∈ [0, 1)` (inverse CDF).
    pub fn sample_with(&self, u: f64) -> usize {
        debug_assert!((0.0..=1.0).contains(&u));
        self.cdf.partition_point(|&c| c < u).min(self.max_bucket())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_masses_normalises() {
        let d = DiscreteDist::from_masses(&[1.0, 3.0]);
        assert!((d.pmf(0) - 0.25).abs() < 1e-12);
        assert!((d.pmf(1) - 0.75).abs() < 1e-12);
        assert_eq!(d.cdf(1), 1.0);
    }

    #[test]
    fn cdf_is_monotone_and_saturates() {
        let d = DiscreteDist::from_masses(&[0.2, 0.3, 0.5]);
        assert!(d.cdf(0) <= d.cdf(1) && d.cdf(1) <= d.cdf(2));
        assert_eq!(d.cdf(2), 1.0);
        assert_eq!(d.cdf(100), 1.0);
    }

    #[test]
    fn certain_is_point_mass() {
        let d = DiscreteDist::certain(2, 4);
        assert_eq!(d.pmf(2), 1.0);
        assert_eq!(d.cdf(1), 0.0);
        assert_eq!(d.cdf(2), 1.0);
        assert_eq!(d.support_min(), 2);
        assert_eq!(d.support_max(), 2);
        assert_eq!(d.len(), 5);
    }

    #[test]
    #[should_panic(expected = "beyond grid")]
    fn certain_bucket_out_of_grid_panics() {
        let _ = DiscreteDist::certain(5, 4);
    }

    #[test]
    #[should_panic(expected = "positive total mass")]
    fn zero_mass_panics() {
        let _ = DiscreteDist::from_masses(&[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_mass_panics() {
        let _ = DiscreteDist::from_masses(&[0.5, -0.1]);
    }

    #[test]
    fn mean_bucket_weighted() {
        let d = DiscreteDist::from_masses(&[0.5, 0.0, 0.5]);
        assert!((d.mean_bucket() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn support_bounds() {
        let d = DiscreteDist::from_masses(&[0.0, 0.4, 0.6, 0.0]);
        assert_eq!(d.support_min(), 1);
        assert_eq!(d.support_max(), 2);
    }

    #[test]
    fn sampling_follows_cdf() {
        let d = DiscreteDist::from_masses(&[0.25, 0.25, 0.5]);
        assert_eq!(d.sample_with(0.0), 0);
        assert_eq!(d.sample_with(0.2), 0);
        assert_eq!(d.sample_with(0.3), 1);
        assert_eq!(d.sample_with(0.6), 2);
        assert_eq!(d.sample_with(0.999), 2);
    }
}
