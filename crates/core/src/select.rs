//! `Select-candidate` (§3.3.2): choosing the most promising uncertain item
//! to clean next.
//!
//! For each uncertain item `f`, the expected confidence after cleaning it,
//! `E[X_f]` (Eq. 4–6), is computed in closed form from the item's own CDF
//! and the joint CDF excluding it. Scanning every item per iteration is too
//! slow, so items are examined in descending order of the **sort factor**
//!
//! ```text
//! ψ_j(f) = (1 − F_f(S_k_j)) / F_f(S_p_j)
//! ```
//!
//! whose induced upper bound `U(X_f) = p̂_i + γ_i·ψ_j(f)` (Eq. 7/8) permits
//! early stopping. ψ is computed lazily at iteration `j ≤ i`: since `S_k`
//! and `S_p` only grow over iterations, `ψ_j(f) ≥ ψ_i(f)`, so a stale ψ
//! still yields a valid upper bound. (The paper's §3.3.2 states the
//! inequality as `ψ_j ≤ ψ_i`; the monotonicity that actually holds — and
//! that the bound requires — is `ψ_j ≥ ψ_i`, which is what we implement.)
//!
//! The re-sort schedule follows the paper: every `resort_period` (10)
//! iterations for the first 100 iterations, then only when `S_k` or `S_p`
//! change. ψ depends only on an item's distribution and `(S_k, S_p)`, so a
//! scheduled re-sort at the thresholds of the last one keeps the order and
//! only drops the items cleaned since. Between re-sorts the scan starts
//! past the leading run of cleaned items instead of re-walking it.
//!
//! The scan stops after a few dozen of the ~10⁴ items, so a re-sort
//! recomputes ψ in place but orders only a prefix (a selection, then a
//! sort of what it selected), and the scan doubles the ordered prefix on
//! demand when it reaches the end. The order is a strict total order (ψ
//! descending, then id), so every position the scan reads holds the item
//! a full sort would put there. None of this changes which items are
//! examined, in what order.

use crate::dist::DiscreteDist;
use crate::topkprob::JointCdf;
use crate::xtuple::{ItemId, UncertainRelation};
use std::cmp::Ordering;

/// The sort factor ψ (Eq. 7). `F_f(S_p) = 0` maps to +∞: such an item is
/// certainly above the penultimate threshold and must be cleaned first.
pub fn psi(dist: &DiscreteDist, s_k: usize, s_p: usize) -> f64 {
    let fk = dist.cdf(s_k);
    let fp = dist.cdf(s_p);
    if fp == 0.0 {
        f64::INFINITY
    } else {
        (1.0 - fk) / fp
    }
}

/// Eq. 6: expected confidence of the *next* iteration if the uncertain
/// item with distribution `d` is cleaned now, marginalising over its
/// possible exact scores.
///
/// `s_k` is the current threshold bucket (K-th certain score), `s_p` the
/// penultimate bucket ((K−1)-th certain score; pass the grid maximum when
/// K = 1, where any score above `s_k` becomes the new threshold).
pub fn expected_confidence(d: &DiscreteDist, h: &JointCdf, s_k: usize, s_p: usize) -> f64 {
    debug_assert!(s_k <= s_p, "threshold above penultimate ({s_k} > {s_p})");
    // Case s ≤ S_k: answer unchanged, f's uncertainty discounted.
    let mut e = d.cdf(s_k) * h.value_excluding(d, s_k);
    // Case S_k < s ≤ S_p: f becomes the new K-th; threshold moves to s.
    let hi = s_p.min(d.support_max());
    for s in (s_k + 1)..=hi {
        let p = d.pmf(s);
        if p > 0.0 {
            e += p * h.value_excluding(d, s);
        }
    }
    // Case s > S_p: the old penultimate becomes the threshold.
    let tail = 1.0 - d.cdf(s_p);
    if tail > 0.0 {
        e += tail * h.value_excluding(d, s_p);
    }
    e
}

/// Statistics of the candidate-selection machinery.
#[derive(Debug, Clone, Copy, Default)]
pub struct SelectStats {
    /// Total `E[X_f]` evaluations performed.
    pub examined: u64,
    /// Total candidate-selection invocations.
    pub invocations: u64,
    /// Number of ψ re-sorts.
    pub resorts: u64,
}

/// Items put in order when ψ is recomputed. The scan reads a few dozen;
/// when it reaches the end of the ordered prefix, the prefix doubles.
const ORDERED_PREFIX: usize = 64;

/// Descending ψ, ties by ascending id. ψ is never NaN and ids are
/// distinct, so this is a strict total order: an unstable sort, or a
/// selection, puts every item where a full sort would.
fn by_psi(a: &(f64, ItemId), b: &(f64, ItemId)) -> Ordering {
    b.0.partial_cmp(&a.0)
        .unwrap_or(Ordering::Equal)
        .then(a.1.cmp(&b.1))
}

/// Stateful candidate selector with the lazy ψ-ordering of §3.3.2.
#[derive(Debug, Clone)]
pub struct CandidateSelector {
    /// Uncertain items with their stale ψ. `ranked[..ordered]` is in
    /// [`by_psi`] order, and every item past it ranks after all of those.
    ranked: Vec<(f64, ItemId)>,
    /// Length of the ordered prefix of `ranked`.
    ordered: usize,
    /// Every item of `ranked` before this position has been cleaned.
    head: usize,
    /// The (s_k, s_p) the current ψ values were computed at.
    sorted_at: Option<(usize, usize)>,
    /// Iterations seen so far (the paper's `i`).
    iteration: usize,
    /// Re-sort period within the first 100 iterations.
    resort_period: usize,
    pub stats: SelectStats,
}

impl CandidateSelector {
    pub fn new(rel: &UncertainRelation, resort_period: usize) -> Self {
        assert!(resort_period >= 1);
        CandidateSelector {
            // ψ is computed at the first call, which always re-sorts.
            ranked: (0..rel.len())
                .filter(|&id| !rel.is_certain(id))
                .map(|id| (f64::INFINITY, id))
                .collect(),
            ordered: 0,
            head: 0,
            sorted_at: None,
            iteration: 0,
            resort_period,
            stats: SelectStats::default(),
        }
    }

    fn needs_resort(&self, s_k: usize, s_p: usize) -> bool {
        match self.sorted_at {
            None => true,
            Some(_) if self.iteration < 100 => self.iteration.is_multiple_of(self.resort_period),
            Some(at) => at != (s_k, s_p),
        }
    }

    fn resort(&mut self, rel: &UncertainRelation, s_k: usize, s_p: usize) {
        self.head = 0;
        self.stats.resorts += 1;
        if self.sorted_at == Some((s_k, s_p)) {
            // ψ is unchanged, so the order is too: drop the cleaned items.
            let (mut pos, mut ordered) = (0, 0);
            self.ranked.retain(|&(_, id)| {
                let keep = !rel.is_certain(id);
                if keep && pos < self.ordered {
                    ordered += 1;
                }
                pos += 1;
                keep
            });
            self.ordered = ordered;
            return;
        }
        // Drop cleaned items and recompute ψ at the current thresholds.
        self.ranked.retain_mut(|(psi_f, id)| match rel.dist(*id) {
            Some(d) => {
                *psi_f = psi(d, s_k, s_p);
                true
            }
            None => false,
        });
        self.ordered = 0;
        self.extend_ordered();
        self.sorted_at = Some((s_k, s_p));
    }

    /// Orders the next stretch of `ranked`: the prefix doubles, to at
    /// least [`ORDERED_PREFIX`] items.
    fn extend_ordered(&mut self) {
        let rest = &mut self.ranked[self.ordered..];
        let n = self.ordered.max(ORDERED_PREFIX).min(rest.len());
        if n < rest.len() {
            rest.select_nth_unstable_by(n, by_psi);
        }
        rest[..n].sort_unstable_by(by_psi);
        self.ordered += n;
    }

    /// Selects up to `batch` uncertain items maximising `E[X_f]`, using the
    /// upper bound for early stopping.
    pub fn select_batch(
        &mut self,
        rel: &UncertainRelation,
        h: &JointCdf,
        s_k: usize,
        s_p: usize,
        batch: usize,
    ) -> Vec<ItemId> {
        assert!(batch >= 1);
        self.iteration += 1;
        self.stats.invocations += 1;
        if self.needs_resort(s_k, s_p) {
            self.resort(rel, s_k, s_p);
        }
        let p_hat = h.value(s_k);
        let gamma = h.value(s_p);

        // Top-`batch` E values found so far, kept sorted ascending so the
        // worst kept value is `best[0]`.
        let mut best: Vec<(f64, ItemId)> = Vec::with_capacity(batch + 1);
        while self.head < self.ordered && rel.is_certain(self.ranked[self.head].1) {
            self.head += 1;
        }
        let mut pos = self.head;
        while pos < self.ranked.len() {
            if pos == self.ordered {
                self.extend_ordered();
            }
            let (stale_psi, id) = self.ranked[pos];
            pos += 1;
            let Some(d) = rel.dist(id) else {
                continue; // cleaned since the last re-sort
            };
            let bound = if stale_psi.is_infinite() {
                f64::INFINITY
            } else {
                p_hat + gamma * stale_psi
            };
            if best.len() == batch && bound <= best[0].0 {
                break; // every remaining item has a smaller upper bound
            }
            let e = expected_confidence(d, h, s_k, s_p);
            self.stats.examined += 1;
            if best.len() < batch {
                best.push((e, id));
                best.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(Ordering::Equal));
            } else if e > best[0].0 {
                best[0] = (e, id);
                best.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(Ordering::Equal));
            }
        }
        // Return in descending-E order.
        best.reverse();
        best.into_iter().map(|(_, id)| id).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::DiscreteDist;

    fn d(masses: &[f64]) -> DiscreteDist {
        DiscreteDist::from_masses(masses)
    }

    /// A relation with a couple of certain items and varied uncertain ones.
    fn setup() -> (UncertainRelation, JointCdf) {
        let mut rel = UncertainRelation::new(1.0, 4);
        rel.push_certain(3); // id 0 — top certain
        rel.push_certain(2); // id 1 — threshold for K = 2
        rel.push_uncertain(d(&[0.1, 0.1, 0.2, 0.3, 0.3])); // id 2: likely high
        rel.push_uncertain(d(&[0.7, 0.2, 0.1, 0.0, 0.0])); // id 3: likely low
        rel.push_uncertain(d(&[0.0, 0.0, 0.0, 0.0, 1.0])); // id 4: certainly 4 > s_p
        let h = JointCdf::build(&rel);
        (rel, h)
    }

    #[test]
    fn psi_orders_promising_items_first() {
        let (rel, _) = setup();
        // K = 2: s_k = 2 (bucket of id 1), s_p = 3 (bucket of id 0)
        let p2 = psi(rel.dist(2).unwrap(), 2, 3);
        let p3 = psi(rel.dist(3).unwrap(), 2, 3);
        let p4 = psi(rel.dist(4).unwrap(), 2, 3);
        assert!(p4.is_infinite(), "F(s_p)=0 item must sort first");
        assert!(p2 > p3, "high-scoring item should outrank low-scoring one");
    }

    #[test]
    fn expected_confidence_is_at_least_current() {
        let (rel, h) = setup();
        let p_hat = h.value(2);
        for id in [2, 3, 4] {
            let e = expected_confidence(rel.dist(id).unwrap(), &h, 2, 3);
            assert!(
                e >= p_hat - 1e-12,
                "cleaning cannot reduce expected confidence: id {id}, {e} < {p_hat}"
            );
            assert!(e <= 1.0 + 1e-12);
        }
    }

    #[test]
    fn expected_confidence_matches_manual_enumeration() {
        // Manually marginalise: for each possible exact score s of the item,
        // the next-iteration confidence is computable from the other items.
        let (rel, h) = setup();
        let id = 2;
        let dist = rel.dist(id).unwrap().clone();
        let mut manual = 0.0;
        for s in 0..=4usize {
            let p = dist.pmf(s);
            if p == 0.0 {
                continue;
            }
            // Simulate cleaning id → s on a copy.
            let mut rel2 = rel.clone();
            let mut h2 = h.clone();
            let old = rel2.clean(id, s as u32);
            h2.remove(&old);
            // New certain set for K=2: buckets {3, 2, s}. Threshold = 2nd.
            let mut certain: Vec<u32> = vec![3, 2, s as u32];
            certain.sort_unstable_by(|a, b| b.cmp(a));
            let new_sk = certain[1] as usize;
            manual += p * crate::topkprob::topk_prob(&h2, new_sk);
        }
        let fast = expected_confidence(&dist, &h, 2, 3);
        assert!(
            (fast - manual).abs() < 1e-12,
            "fast {fast} vs manual {manual}"
        );
    }

    #[test]
    fn select_batch_prefers_must_clean_items() {
        let (rel, h) = setup();
        let mut sel = CandidateSelector::new(&rel, 10);
        let batch = sel.select_batch(&rel, &h, 2, 3, 1);
        // id 4 forces H(s_k) = 0: cleaning it is the only way to make progress,
        // and its E[X] dominates.
        assert_eq!(batch, vec![4]);
    }

    #[test]
    fn select_batch_returns_descending_e() {
        let (rel, h) = setup();
        let mut sel = CandidateSelector::new(&rel, 10);
        let batch = sel.select_batch(&rel, &h, 2, 3, 3);
        assert_eq!(batch.len(), 3);
        let es: Vec<f64> = batch
            .iter()
            .map(|&id| expected_confidence(rel.dist(id).unwrap(), &h, 2, 3))
            .collect();
        assert!(
            es.windows(2).all(|w| w[0] >= w[1] - 1e-12),
            "not descending: {es:?}"
        );
    }

    #[test]
    fn early_stop_agrees_with_exhaustive_scan() {
        let (rel, h) = setup();
        let mut lazy = CandidateSelector::new(&rel, 10);
        let mut full = ReferenceSelector::new(&rel, 10, true);
        let a = lazy.select_batch(&rel, &h, 2, 3, 2);
        let b = full.select_batch(&rel, &h, 2, 3, 2);
        assert_eq!(a, b);
        assert!(lazy.stats.examined <= full.examined);
    }

    #[test]
    fn selector_skips_cleaned_items() {
        let (mut rel, mut h) = setup();
        let mut sel = CandidateSelector::new(&rel, 10);
        let first = sel.select_batch(&rel, &h, 2, 3, 1)[0];
        let old = rel.clean(first, 4);
        h.remove(&old);
        let second = sel.select_batch(&rel, &h, 2, 4, 1)[0];
        assert_ne!(first, second);
        assert!(!rel.is_certain(second));
    }

    #[test]
    fn resort_schedule_matches_paper() {
        let (rel, h) = setup();
        let mut sel = CandidateSelector::new(&rel, 10);
        // 30 iterations with unchanged thresholds: initial sort + every 10th.
        for _ in 0..30 {
            let _ = sel.select_batch(&rel, &h, 2, 3, 1);
        }
        // iterations 1..=30: sorts at i=1 (initial), i=10, 20, 30
        assert_eq!(sel.stats.resorts, 4, "resorts: {}", sel.stats.resorts);
    }

    #[test]
    fn late_iterations_resort_only_on_threshold_change() {
        let (rel, h) = setup();
        let mut sel = CandidateSelector::new(&rel, 10);
        for _ in 0..120 {
            let _ = sel.select_batch(&rel, &h, 2, 3, 1);
        }
        let resorts_before = sel.stats.resorts;
        // unchanged thresholds → no resort
        let _ = sel.select_batch(&rel, &h, 2, 3, 1);
        assert_eq!(sel.stats.resorts, resorts_before);
        // changed threshold → resort
        let _ = sel.select_batch(&rel, &h, 3, 3, 1);
        assert_eq!(sel.stats.resorts, resorts_before + 1);
    }

    /// The selector as it was before same-threshold re-sorts kept the order,
    /// the scan skipped the leading cleaned run and a re-sort ordered only
    /// a prefix: every re-sort recomputes ψ and sorts every item, and every
    /// scan starts at position 0. `exhaustive` re-sorts on every call and
    /// scans every item, with no early stop.
    struct ReferenceSelector {
        order: Vec<ItemId>,
        psi: Vec<f64>,
        sorted_at: Option<(usize, usize)>,
        iteration: usize,
        resort_period: usize,
        exhaustive: bool,
        examined: u64,
        resorts: u64,
        /// Re-sorts at the thresholds of the previous one.
        same_threshold_resorts: u64,
    }

    impl ReferenceSelector {
        fn new(rel: &UncertainRelation, resort_period: usize, exhaustive: bool) -> Self {
            ReferenceSelector {
                order: rel.uncertain_ids(),
                psi: Vec::new(),
                sorted_at: None,
                iteration: 0,
                resort_period,
                exhaustive,
                examined: 0,
                resorts: 0,
                same_threshold_resorts: 0,
            }
        }

        fn select_batch(
            &mut self,
            rel: &UncertainRelation,
            h: &JointCdf,
            s_k: usize,
            s_p: usize,
            batch: usize,
        ) -> Vec<ItemId> {
            self.iteration += 1;
            let resort = match self.sorted_at {
                None => true,
                Some(_) if self.exhaustive => true,
                Some(_) if self.iteration < 100 => {
                    self.iteration.is_multiple_of(self.resort_period)
                }
                Some(at) => at != (s_k, s_p),
            };
            if resort {
                if self.sorted_at == Some((s_k, s_p)) {
                    self.same_threshold_resorts += 1;
                }
                let mut keyed: Vec<(f64, ItemId)> = self
                    .order
                    .iter()
                    .filter_map(|&id| rel.dist(id).map(|d| (psi(d, s_k, s_p), id)))
                    .collect();
                keyed.sort_by(|a, b| {
                    b.0.partial_cmp(&a.0)
                        .unwrap_or(Ordering::Equal)
                        .then(a.1.cmp(&b.1))
                });
                self.order = keyed.iter().map(|&(_, id)| id).collect();
                self.psi = keyed.into_iter().map(|(p, _)| p).collect();
                self.sorted_at = Some((s_k, s_p));
                self.resorts += 1;
            }
            let (p_hat, gamma) = (h.value(s_k), h.value(s_p));
            let mut best: Vec<(f64, ItemId)> = Vec::new();
            for (pos, &id) in self.order.iter().enumerate() {
                let Some(d) = rel.dist(id) else { continue };
                let stale_psi = self.psi[pos];
                let bound = if stale_psi.is_infinite() {
                    f64::INFINITY
                } else {
                    p_hat + gamma * stale_psi
                };
                if !self.exhaustive && best.len() == batch && bound <= best[0].0 {
                    break;
                }
                let e = expected_confidence(d, h, s_k, s_p);
                self.examined += 1;
                if best.len() < batch {
                    best.push((e, id));
                } else if e > best[0].0 {
                    best[0] = (e, id);
                } else {
                    continue;
                }
                best.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(Ordering::Equal));
            }
            best.iter().rev().map(|&(_, id)| id).collect()
        }
    }

    /// The thresholds of call `i` (1-based): steady stretches before and
    /// past iteration 100, a return to an earlier pair, and a K = 1 style
    /// penultimate at the grid maximum.
    fn threshold_schedule(i: usize) -> (usize, usize) {
        match i {
            0..=45 => (10, 14),
            46..=80 => (12, 14),
            81..=130 => (12, 15),
            131..=220 => (15, 18),
            221..=260 => (12, 15),
            261..=330 => (20, 22),
            _ => (21, 30),
        }
    }

    #[test]
    fn selector_picks_what_the_full_resort_reference_picks() {
        use crate::dist::random_dist;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(36);
        let max_bucket = 30;
        let mut rel = UncertainRelation::new(1.0, max_bucket);
        for id in 0..1_600 {
            if id % 40 == 0 {
                rel.push_certain(rng.gen_range(0..=max_bucket as u32));
            } else {
                rel.push_uncertain(random_dist(&mut rng, max_bucket));
            }
        }
        let mut h = JointCdf::build(&rel);
        let mut sel = CandidateSelector::new(&rel, 10);
        let mut reference = ReferenceSelector::new(&rel, 10, false);
        let mut past_the_prefix = 0;
        for i in 1..=400 {
            let (s_k, s_p) = threshold_schedule(i);
            // Now and then a batch larger than the first ordered prefix,
            // so the scan has to extend it.
            let batch = if i % 90 == 5 {
                3 * ORDERED_PREFIX / 2
            } else {
                1 + i % 4
            };
            let examined = sel.stats.examined;
            let picks = sel.select_batch(&rel, &h, s_k, s_p, batch);
            let expected = reference.select_batch(&rel, &h, s_k, s_p, batch);
            assert_eq!(picks, expected, "call {i}: picks differ");
            assert_eq!(sel.stats.examined, reference.examined, "call {i}: examined");
            assert_eq!(sel.stats.resorts, reference.resorts, "call {i}: resorts");
            if sel.stats.examined - examined > ORDERED_PREFIX as u64 {
                past_the_prefix += 1;
            }
            for id in picks {
                let bucket = rel.dist(id).unwrap().sample_with(rng.gen_range(0.0..1.0));
                h.remove(&rel.clean(id, bucket as u32));
            }
        }
        assert!(
            reference.same_threshold_resorts >= 3,
            "the schedule must re-sort at unchanged thresholds"
        );
        assert!(
            past_the_prefix >= 3,
            "only {past_the_prefix} scans read past the first ordered prefix"
        );
    }

    #[test]
    fn k1_uses_grid_max_as_penultimate() {
        let mut rel = UncertainRelation::new(1.0, 4);
        rel.push_certain(1);
        rel.push_uncertain(d(&[0.2, 0.2, 0.2, 0.2, 0.2]));
        let h = JointCdf::build(&rel);
        // K = 1: s_p = max_bucket; expected confidence must marginalise over
        // all s > s_k as "new threshold = s".
        let e = expected_confidence(rel.dist(1).unwrap(), &h, 1, 4);
        // After cleaning, the relation is fully certain → every branch gives 1.
        assert!((e - 1.0).abs() < 1e-12);
    }
}
