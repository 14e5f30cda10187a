//! `Topk-prob` (§3.3.1): the confidence of a candidate Top-K answer.
//!
//! Under the certain-result condition, Eq. 2 collapses Eq. 1's exponential
//! sum over possible worlds to a product over the *uncertain* items:
//!
//! ```text
//! p̂_i = ∏_{f ∈ D_u_i} Pr(S_f ≤ S_k_i)
//! ```
//!
//! The paper precomputes the joint CDF `H(t) = ∏_{f ∈ D_u_0} F_f(t)` once
//! and divides out cleaned items per evaluation (Eq. 3). We maintain the
//! same quantity **incrementally in log space**: per bucket `t` we keep the
//! sum of `log F_f(t)` over currently-uncertain items plus a counter of
//! items with `F_f(t) = 0`. Cleaning an item removes its factor in
//! O(#buckets), with no `ln` where `F_f(t) = 1`. This is numerically safe
//! where a literal Eq. 3 would divide by zero when a cleaned item's prior
//! CDF was 0 at the threshold (the proxy was wrong about it) — a case that
//! does occur in practice. As in the paper, `H` over `D0` is built once: a
//! prepared video keeps it, and each frame query cleans a copy.
//!
//! A batch run reads `H` only at or above its threshold bucket `S_k`, which
//! never falls as items are cleaned. [`JointCdf::raise_floor`] lets it say
//! so: updates then skip the buckets below the floor, and a read there
//! panics. Each bucket at or above the floor sees the same operations in
//! the same order as without one, so its bits are unchanged. The stream
//! path, whose threshold falls when items expire, never sets a floor.
//!
//! [`topk_confidence`] evaluates Eq. 1 itself in closed form for an
//! arbitrary answer, certain-result condition or not; the tests check it
//! against the brute-force enumeration in [`crate::pws`].

use crate::dist::DiscreteDist;
use crate::xtuple::{ItemId, UncertainRelation};

/// Incrementally-maintained joint CDF over the uncertain items.
#[derive(Debug, Clone)]
pub struct JointCdf {
    /// Per bucket `t`: Σ log F_f(t) over uncertain items with F_f(t) > 0.
    log_sum: Vec<f64>,
    /// Per bucket `t`: #{uncertain items with F_f(t) = 0}.
    zero_count: Vec<u32>,
    /// Number of uncertain items currently contributing.
    members: usize,
    /// Buckets below this one are no longer updated nor readable.
    floor: usize,
}

impl JointCdf {
    /// Builds the joint CDF over every currently-uncertain item of the
    /// relation (the `H` of Eq. 3, except it tracks cleaning updates).
    pub fn build(rel: &UncertainRelation) -> Self {
        let mut h = JointCdf {
            log_sum: vec![0.0; rel.max_bucket() + 1],
            zero_count: vec![0; rel.max_bucket() + 1],
            members: 0,
            floor: 0,
        };
        for id in 0..rel.len() {
            if let Some(d) = rel.dist(id) {
                h.add(d);
            }
        }
        h
    }

    /// Number of buckets in the grid.
    pub fn num_buckets(&self) -> usize {
        self.log_sum.len()
    }

    /// Number of uncertain items currently contributing factors.
    pub fn members(&self) -> usize {
        self.members
    }

    /// Stops maintaining the buckets below `t` (capped at the grid): the
    /// caller promises never to read them again. The floor never falls.
    pub fn raise_floor(&mut self, t: usize) {
        self.floor = self.floor.max(t.min(self.log_sum.len()));
    }

    /// The buckets from the floor up: `(Σ log F, zero count)` per bucket
    /// beside `dist`'s CDF there.
    fn maintained<'a>(
        &'a mut self,
        dist: &'a DiscreteDist,
    ) -> impl Iterator<Item = ((&'a mut f64, &'a mut u32), &'a f64)> {
        assert_eq!(dist.len(), self.log_sum.len(), "grid mismatch");
        let from = self.floor;
        let buckets = self.log_sum[from..]
            .iter_mut()
            .zip(&mut self.zero_count[from..]);
        buckets.zip(&dist.cdf_values()[from..])
    }

    /// Adds one item's factors.
    pub fn add(&mut self, dist: &DiscreteDist) {
        for ((sum, zeros), &f) in self.maintained(dist) {
            if f == 0.0 {
                *zeros += 1;
            } else if f < 1.0 {
                // `ln 1 = +0.0` adds nothing: a sum that starts at +0.0
                // and only gains negative terms is never −0.0.
                *sum += f.ln();
            }
        }
        self.members += 1;
    }

    /// Removes one item's factors (call with the distribution returned by
    /// [`UncertainRelation::clean`]).
    pub fn remove(&mut self, dist: &DiscreteDist) {
        assert!(self.members > 0, "removing from empty joint CDF");
        for ((sum, zeros), &f) in self.maintained(dist) {
            if f == 0.0 {
                debug_assert!(*zeros > 0);
                *zeros -= 1;
            } else if f < 1.0 {
                // Subtracting `ln 1 = +0.0` is the identity, as in `add`.
                *sum -= f.ln();
            }
        }
        self.members -= 1;
    }

    /// `H(t) = ∏_{f uncertain} F_f(t)`; saturates to the all-ones product
    /// beyond the grid. Panics below the floor.
    pub fn value(&self, t: usize) -> f64 {
        if t >= self.log_sum.len() {
            return 1.0;
        }
        self.assert_maintained(t);
        if self.zero_count[t] > 0 {
            0.0
        } else {
            self.log_sum[t].exp()
        }
    }

    /// `H(t) / F_f(t)` — the joint CDF excluding one member item, computed
    /// without division (Eq. 5/6 denominators). Panics below the floor.
    pub fn value_excluding(&self, dist: &DiscreteDist, t: usize) -> f64 {
        if t >= self.log_sum.len() {
            return 1.0;
        }
        self.assert_maintained(t);
        let f = dist.cdf(t);
        if f == 0.0 {
            // `dist` accounts for one of the zeros; any other zero keeps H at 0.
            if self.zero_count[t] > 1 {
                0.0
            } else {
                self.log_sum[t].exp()
            }
        } else if self.zero_count[t] > 0 {
            0.0
        } else {
            (self.log_sum[t] - f.ln()).exp()
        }
    }

    fn assert_maintained(&self, t: usize) {
        assert!(
            t >= self.floor,
            "H({t}) read below the floor {}",
            self.floor
        );
    }
}

/// Eq. 2: the confidence of an answer whose K-th ("threshold") certain item
/// has bucket `s_k`, given the joint CDF over the current uncertain items.
///
/// Returns 1 when no uncertainty remains.
pub fn topk_prob(h: &JointCdf, s_k: usize) -> f64 {
    if h.members() == 0 {
        return 1.0;
    }
    h.value(s_k)
}

/// Direct evaluation of Eq. 2 by multiplying CDFs — the reference the
/// tests hold [`topk_prob`] to.
pub fn topk_prob_naive(rel: &UncertainRelation, s_k: usize) -> f64 {
    let mut p = 1.0;
    for id in 0..rel.len() {
        if let Some(d) = rel.dist(id) {
            p *= d.cdf(s_k);
        }
    }
    p
}

/// Eq. 1 confidence of `answer` as a Top-`k` result, in closed form —
/// the polynomial equivalent of
/// [`crate::pws::topk_confidence_bruteforce`], for any answer (Eq. 2
/// needs the certain-result condition; this does not).
///
/// Uses the paper's footnote-1 tie rule: `answer` counts as Top-K in a
/// world when no outside item scores **strictly higher** than the lowest
/// score inside the answer. Conditioning on the answer's minimum score
/// `M` makes the outside items independent of it:
/// `Σ_t Pr(M = t) · ∏_{g∉answer} F_g(t)`, which is O(n·m).
///
/// Returns 0 when `answer` is not exactly `k` items (wrong-cardinality
/// answers are Top-K in no world).
///
/// ```
/// use everest_core::dist::DiscreteDist;
/// use everest_core::topkprob::topk_confidence;
/// use everest_core::xtuple::UncertainRelation;
///
/// let mut rel = UncertainRelation::new(1.0, 2);
/// rel.push_uncertain(DiscreteDist::from_masses(&[0.78, 0.21, 0.01]));
/// rel.push_uncertain(DiscreteDist::from_masses(&[0.49, 0.42, 0.09]));
/// rel.push_uncertain(DiscreteDist::from_masses(&[0.16, 0.48, 0.36]));
/// // §3: the Top-1 result {f3} has confidence ≈ 0.85
/// // (0.16·0.78·0.49 + 0.48·0.99·0.91 + 0.36 = 0.853584).
/// assert!((topk_confidence(&rel, &[2], 1) - 0.853584).abs() < 1e-9);
/// ```
pub fn topk_confidence(rel: &UncertainRelation, answer: &[ItemId], k: usize) -> f64 {
    if answer.len() != k {
        return 0.0;
    }
    let n = rel.len();
    let m = rel.max_bucket();
    let mut in_answer = vec![false; n];
    for &f in answer {
        in_answer[f] = true;
    }
    let mut total = 0.0;
    for t in 0..=m {
        // Pr(min over the answer = t) via the survival products.
        let p_ge: f64 = answer.iter().map(|&f| 1.0 - cdf_below(rel, f, t)).product();
        let p_gt: f64 = answer.iter().map(|&f| 1.0 - rel.cdf(f, t)).product();
        let p_min_eq = p_ge - p_gt;
        if p_min_eq <= 0.0 {
            continue;
        }
        let mut outside = 1.0;
        for (g, &in_ans) in in_answer.iter().enumerate() {
            if !in_ans {
                outside *= rel.cdf(g, t);
                if outside == 0.0 {
                    break;
                }
            }
        }
        total += p_min_eq * outside;
    }
    total.min(1.0)
}

/// `Pr(S_g < b)` — one bucket below the CDF.
fn cdf_below(rel: &UncertainRelation, g: ItemId, b: usize) -> f64 {
    if b == 0 {
        0.0
    } else {
        rel.cdf(g, b - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pws::topk_confidence_bruteforce;
    use crate::xtuple::table_1a;

    #[test]
    fn matches_naive_product() {
        let rel = table_1a();
        let h = JointCdf::build(&rel);
        for t in 0..=2 {
            assert!(
                (h.value(t) - topk_prob_naive(&rel, t)).abs() < 1e-12,
                "H({t}) mismatch"
            );
        }
    }

    #[test]
    fn matches_bruteforce_after_cleaning() {
        // Clean f3 to 0 (Table 5) and compare Eq. 2 against Eq. 1.
        let mut rel = table_1a();
        let mut h = JointCdf::build(&rel);
        let old = rel.clean(2, 0);
        h.remove(&old);
        // answer {f3} has threshold bucket 0
        let fast = topk_prob(&h, 0);
        let brute = topk_confidence_bruteforce(&rel, &[2], 1).unwrap();
        assert!((fast - brute).abs() < 1e-12, "fast {fast} vs brute {brute}");
        assert!((fast - 0.78 * 0.49).abs() < 1e-12);
    }

    #[test]
    fn confidence_matches_paper_table_5() {
        // After Oracle(f3) = 0, {f3}'s Top-1 confidence drops to
        // 0.78 × 0.49 (§3 / Table 5).
        let mut rel = table_1a();
        rel.clean(2, 0);
        let p = topk_confidence(&rel, &[2], 1);
        assert!((p - 0.78 * 0.49).abs() < 1e-12);
    }

    #[test]
    fn wrong_cardinality_answers_have_zero_confidence() {
        let rel = table_1a();
        assert_eq!(topk_confidence(&rel, &[0, 1], 1), 0.0);
    }

    #[test]
    fn empty_uncertainty_gives_certainty() {
        let mut rel = UncertainRelation::new(1.0, 2);
        rel.push_certain(2);
        let h = JointCdf::build(&rel);
        assert_eq!(h.members(), 0);
        assert_eq!(topk_prob(&h, 0), 1.0);
    }

    #[test]
    fn zero_cdf_buckets_zero_the_product() {
        use crate::dist::DiscreteDist;
        let mut rel = UncertainRelation::new(1.0, 3);
        // This frame is certainly ≥ 2, so H(0) = H(1) = 0.
        rel.push_uncertain(DiscreteDist::from_masses(&[0.0, 0.0, 0.5, 0.5]));
        rel.push_uncertain(DiscreteDist::from_masses(&[0.5, 0.5, 0.0, 0.0]));
        let h = JointCdf::build(&rel);
        assert_eq!(h.value(0), 0.0);
        assert_eq!(h.value(1), 0.0);
        assert!(h.value(2) > 0.0);
        assert!((h.value(3) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn value_excluding_removes_exactly_one_factor() {
        use crate::dist::DiscreteDist;
        let mut rel = UncertainRelation::new(1.0, 2);
        let d0 = DiscreteDist::from_masses(&[0.5, 0.3, 0.2]);
        let d1 = DiscreteDist::from_masses(&[0.0, 0.6, 0.4]); // F(0) = 0
        rel.push_uncertain(d0.clone());
        rel.push_uncertain(d1.clone());
        let h = JointCdf::build(&rel);
        // excluding d1 at t=0: only d0 remains → 0.5
        assert!((h.value_excluding(&d1, 0) - 0.5).abs() < 1e-12);
        // excluding d0 at t=0: d1 remains with F(0)=0 → 0
        assert_eq!(h.value_excluding(&d0, 0), 0.0);
        // at t=1: H = 0.8 × 0.6; excluding d0 → 0.6
        assert!((h.value_excluding(&d0, 1) - 0.6).abs() < 1e-12);
        // beyond grid
        assert_eq!(h.value_excluding(&d0, 99), 1.0);
    }

    #[test]
    fn incremental_removal_matches_rebuild() {
        let mut rel = table_1a();
        let mut h = JointCdf::build(&rel);
        let old = rel.clean(1, 1);
        h.remove(&old);
        let rebuilt = JointCdf::build(&rel);
        for t in 0..=2 {
            assert!(
                (h.value(t) - rebuilt.value(t)).abs() < 1e-12,
                "incremental vs rebuild at {t}"
            );
        }
        assert_eq!(h.members(), rebuilt.members());
    }

    /// The add/remove loop before buckets with `F = 1` were skipped: one
    /// `ln` per bucket, `ln 1` included.
    fn every_bucket(h: &mut JointCdf, dist: &DiscreteDist, adding: bool) {
        for t in 0..h.num_buckets() {
            let f = dist.cdf(t);
            match (f == 0.0, adding) {
                (true, true) => h.zero_count[t] += 1,
                (true, false) => h.zero_count[t] -= 1,
                (false, true) => h.log_sum[t] += f.ln(),
                (false, false) => h.log_sum[t] -= f.ln(),
            }
        }
    }

    #[test]
    fn skipping_certain_buckets_keeps_every_bit() {
        use crate::dist::random_dist;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(36);
        let max_bucket = 24;
        let dists: Vec<DiscreteDist> = (0..400)
            .map(|_| random_dist(&mut rng, max_bucket))
            .collect();
        assert!(dists.iter().any(|d| d.cdf(0) == 0.0));
        assert!(dists.iter().any(|d| d.cdf(max_bucket - 1) == 1.0));
        let mut h = JointCdf::build(&UncertainRelation::new(1.0, max_bucket));
        let mut reference = h.clone();
        let mut members: Vec<usize> = Vec::new();
        for step in 0..3_000 {
            if members.is_empty() || rng.gen_bool(0.6) {
                let id = rng.gen_range(0..dists.len());
                h.add(&dists[id]);
                every_bucket(&mut reference, &dists[id], true);
                members.push(id);
            } else {
                let id = members.swap_remove(rng.gen_range(0..members.len()));
                h.remove(&dists[id]);
                every_bucket(&mut reference, &dists[id], false);
            }
            let bits = |h: &JointCdf| h.log_sum.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&h), bits(&reference), "log sums differ at step {step}");
            assert_eq!(
                h.zero_count, reference.zero_count,
                "zeros differ at step {step}"
            );
            assert_eq!(h.members(), members.len());
        }
    }

    #[test]
    fn a_rising_floor_keeps_every_bit_at_or_above_it() {
        use crate::dist::random_dist;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(43);
        let max_bucket = 24;
        let mut rel = UncertainRelation::new(1.0, max_bucket);
        for _ in 0..300 {
            rel.push_uncertain(random_dist(&mut rng, max_bucket));
        }
        let mut floored = JointCdf::build(&rel);
        let mut eager = floored.clone();
        let mut members = rel.uncertain_ids();
        while members.len() > 1 {
            if rng.gen_bool(0.04) {
                floored.raise_floor(floored.floor + rng.gen_range(0..3usize));
            }
            let id = members.swap_remove(rng.gen_range(0..members.len()));
            let dist = rel.dist(id).unwrap().clone();
            floored.remove(&dist);
            eager.remove(&dist);
            let member = rel.dist(members[0]).unwrap();
            for t in floored.floor..=max_bucket + 1 {
                assert_eq!(floored.value(t).to_bits(), eager.value(t).to_bits());
                assert_eq!(
                    floored.value_excluding(member, t).to_bits(),
                    eager.value_excluding(member, t).to_bits()
                );
            }
            assert_eq!(floored.members(), eager.members());
        }
        assert!(floored.floor > 0, "the floor never rose");
    }

    #[test]
    #[should_panic(expected = "below the floor")]
    fn a_read_below_the_floor_panics() {
        let mut h = JointCdf::build(&table_1a());
        h.raise_floor(1);
        let _ = h.value(0);
    }

    #[test]
    fn beyond_grid_saturates() {
        let rel = table_1a();
        let h = JointCdf::build(&rel);
        assert_eq!(h.value(2), 1.0); // every CDF is 1 at the top bucket
        assert_eq!(h.value(1000), 1.0);
    }
}
