//! Discrete score distributions: the probabilistic payload of an x-tuple.
//!
//! After Phase 1 quantizes a frame's Gaussian-mixture score distribution
//! (§3.2), each frame carries a probability mass function over a shared
//! bucket grid `value = bucket × step`. All Phase-2 maths (Eq. 2–8) runs on
//! bucket indices; `step` only matters when converting back to score units
//! for reporting.

use std::sync::Arc;

/// A discrete distribution over buckets `0 ..= max_bucket`.
///
/// Stores the PMF, the precomputed CDF — what Eq. 2/3 consume
/// (`F_f(t) = Pr(S_f ≤ t)`) — and the support bounds. The PMF and CDF are
/// shared and immutable: a clone is two reference-count bumps, so copying
/// a relation's items (each frame query starts from a copy of `D0`)
/// allocates nothing per item.
#[derive(Debug, Clone, PartialEq)]
pub struct DiscreteDist {
    // Two allocations, not one block holding both: measured, one block per
    // item tripled Phase 1's page faults, as the allocator handed more of
    // the heap back to the OS between training batches and faulted it in
    // again.
    pmf: Arc<[f64]>,
    cdf: Arc<[f64]>,
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
        // Both come from exact-size iterators, so `collect` writes each
        // straight into its shared allocation.
        let pmf: Arc<[f64]> = masses.iter().map(|m| m / total).collect();
        let top = pmf.len() - 1;
        let mut acc = 0.0;
        let cdf: Arc<[f64]> = pmf
            .iter()
            .enumerate()
            .map(|(b, &p)| {
                acc += p;
                // force exactness at the top to avoid 1-1e-16 artifacts
                if b == top {
                    1.0
                } else {
                    acc.min(1.0)
                }
            })
            .collect();
        // The total mass is positive, so both scans stop inside the grid.
        let zero = |p: &&f64| **p == 0.0;
        let support = (
            pmf.iter().take_while(zero).count(),
            top - pmf.iter().rev().take_while(zero).count(),
        );
        DiscreteDist { pmf, cdf, support }
    }

    /// The CDF, one value per bucket; non-decreasing, and exactly 1 at the
    /// top bucket.
    pub(crate) fn cdf_values(&self) -> &[f64] {
        &self.cdf
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

/// A random distribution on `0 ..= max_bucket` whose support is a random
/// run of buckets (some inside it empty too), so its CDF is exactly 0
/// below the support and exactly 1 from its top on.
#[cfg(test)]
pub(crate) fn random_dist(rng: &mut impl rand::Rng, max_bucket: usize) -> DiscreteDist {
    let lo = rng.gen_range(0..=max_bucket);
    let hi = rng.gen_range(lo..=max_bucket);
    let mut masses = vec![0.0; max_bucket + 1];
    for m in &mut masses[lo..=hi] {
        if rng.gen_bool(0.8) {
            *m = rng.gen_range(0.01..1.0);
        }
    }
    masses[lo] = rng.gen_range(0.01..1.0);
    DiscreteDist::from_masses(&masses)
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
    fn clones_share_their_masses() {
        let d = DiscreteDist::from_masses(&[0.0, 0.4, 0.6, 0.0]);
        let copy = d.clone();
        assert!(Arc::ptr_eq(&d.pmf, &copy.pmf));
        assert!(Arc::ptr_eq(&d.cdf, &copy.cdf));
        assert_eq!(copy, d);
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
