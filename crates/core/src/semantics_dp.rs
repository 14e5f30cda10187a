//! Polynomial-time evaluation of the §2 uncertain Top-K semantics.
//!
//! [`crate::semantics`] defines U-TopK, U-KRanks and PT-k by literally
//! enumerating possible worlds — exponential, guarded by
//! [`crate::pws::MAX_WORLDS`], and unusable beyond toy relations. This
//! module computes the same answers in polynomial time, which is what lets
//! the `semantics_comparison` experiment (and any future large-relation
//! workload) run on relations of hundreds of items.
//!
//! The engine is a **rank-distribution dynamic program** over score
//! buckets ([`RankTable`]). For the canonical world ranking — bucket
//! descending, ties broken by ascending item id (the same deterministic
//! rule the enumeration oracle uses) — item `f` placed at bucket `b` is
//! outranked by `g` exactly when `S_g > b`, or `S_g = b` with `g < f`.
//! Conditioned on `S_f = b`, the number of items outranking `f` is a sum
//! of independent Bernoullis, so its distribution (a Poisson binomial,
//! truncated at `K`) comes from multiplying out one linear factor per
//! item. Running one truncated product left-to-right (`Pr(S_g ≥ b)` for
//! `g < f`) and one right-to-left (`Pr(S_g > b)` for `g > f`) and
//! convolving the two at each split yields `Pr(rank(f) = i)` for every
//! item and every rank `i < K` in **O(n·m·K²)** total (n items, m+1
//! buckets) — versus `Ω(mⁿ)` for enumeration.
//!
//! From the shared table:
//!
//! * **U-KRanks** reads the per-rank argmax ([`u_kranks_dp`]);
//! * **PT-k** thresholds the membership marginals `Pr(rank(f) < K)`
//!   ([`topk_membership_dp`], [`probabilistic_threshold_topk_dp`]);
//! * **U-TopK** uses the memberships as admissible upper bounds for a
//!   best-first candidate-set search whose scoring oracle,
//!   [`topk_set_probability`], evaluates any set exactly in O(K·m·n) by
//!   conditioning on the set's weakest member ([`u_topk_dp`]);
//! * truncated expected ranks `E[min(rank, K)]` fall out of the table
//!   directly ([`RankTable::truncated_expected_ranks`]).
//!
//! [`topk_confidence`] additionally gives a closed form for the paper's
//! Eq. 1 answer confidence under the footnote-1 tie rule, replacing
//! [`crate::pws::topk_confidence_bruteforce`] at scale.
//!
//! Every function here is property-tested against the enumeration oracle
//! on all enumerable relations (`tests/semantics_properties.rs`,
//! `tests/pws_equivalence.rs`); see `docs/SEMANTICS.md` for the guide and
//! the worked Table 1a example.

use crate::xtuple::{ItemId, UncertainRelation};

/// `Pr(rank(f) = i)` for every item `f` and rank `i < K` under the
/// canonical world ranking (bucket descending, id ascending), plus the
/// overflow mass `Pr(rank(f) ≥ K)` — the shared table behind U-KRanks,
/// PT-k and the U-TopK search.
///
/// Built in O(n·m·K²) by [`RankTable::build`]; `n` items over `m+1`
/// buckets.
///
/// ```
/// use everest_core::dist::DiscreteDist;
/// use everest_core::semantics_dp::RankTable;
/// use everest_core::xtuple::UncertainRelation;
///
/// // Table 1a's three frames.
/// let mut rel = UncertainRelation::new(1.0, 2);
/// rel.push_uncertain(DiscreteDist::from_masses(&[0.78, 0.21, 0.01]));
/// rel.push_uncertain(DiscreteDist::from_masses(&[0.49, 0.42, 0.09]));
/// rel.push_uncertain(DiscreteDist::from_masses(&[0.16, 0.48, 0.36]));
/// let table = RankTable::build(&rel, 1);
/// // Pr(f3 is the Top-1): 0.48·0.78·0.49 + 0.36·0.99·0.91 = 0.50778
/// assert!((table.membership(2) - 0.50778).abs() < 1e-12);
/// // Memberships always sum to K.
/// let total: f64 = (0..3).map(|f| table.membership(f)).sum();
/// assert!((total - 1.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct RankTable {
    k: usize,
    /// `probs[f][i] = Pr(rank(f) = i)` for `i < k`; `probs[f][k] =
    /// Pr(rank(f) ≥ k)`.
    probs: Vec<Vec<f64>>,
}

/// Multiplies a truncated counting polynomial by one Bernoulli(`p`)
/// factor in place: `new[i] = old[i]·(1−p) + old[i−1]·p`, with the last
/// slot absorbing all mass at counts ≥ its index.
fn bernoulli_mult(poly: &mut [f64], p: f64) {
    let cap = poly.len() - 1;
    if cap == 0 {
        return; // all mass already in the overflow slot
    }
    poly[cap] += poly[cap - 1] * p;
    for i in (1..cap).rev() {
        poly[i] = poly[i] * (1.0 - p) + poly[i - 1] * p;
    }
    poly[0] *= 1.0 - p;
}

/// Convolves two truncated counting polynomials, folding everything at or
/// beyond the cap into the final slot.
fn truncated_convolution(a: &[f64], b: &[f64]) -> Vec<f64> {
    let cap = a.len() - 1;
    debug_assert_eq!(a.len(), b.len());
    let mut out = vec![0.0; cap + 1];
    for (i, &ai) in a.iter().enumerate() {
        if ai == 0.0 {
            continue;
        }
        for (j, &bj) in b.iter().enumerate() {
            out[(i + j).min(cap)] += ai * bj;
        }
    }
    out
}

impl RankTable {
    /// Runs the rank-distribution DP for Top-`k` over the whole relation.
    ///
    /// Panics if `k` is 0 or exceeds the relation size (same contract as
    /// the enumeration oracle).
    pub fn build(rel: &UncertainRelation, k: usize) -> Self {
        let n = rel.len();
        assert!(k >= 1 && k <= n, "K out of range");
        let m = rel.max_bucket();
        let mut probs = vec![vec![0.0f64; k + 1]; n];
        // suffix[f] = distribution of #{g ≥ f : S_g > b}, truncated at k.
        let mut suffix: Vec<Vec<f64>> = vec![vec![0.0; k + 1]; n + 1];
        for b in 0..=m {
            suffix[n].fill(0.0);
            suffix[n][0] = 1.0;
            for f in (0..n).rev() {
                let (head, tail) = suffix.split_at_mut(f + 1);
                head[f].copy_from_slice(&tail[0]);
                bernoulli_mult(&mut head[f], 1.0 - rel.cdf(f, b));
            }
            // prefix = distribution of #{g < f : S_g ≥ b}, truncated at k.
            let mut prefix = vec![0.0; k + 1];
            prefix[0] = 1.0;
            for (f, row) in probs.iter_mut().enumerate() {
                let pf = rel.pmf(f, b);
                if pf > 0.0 {
                    let outranked = truncated_convolution(&prefix, &suffix[f + 1]);
                    for (slot, &c) in row.iter_mut().zip(&outranked) {
                        *slot += pf * c;
                    }
                }
                let ge = if b == 0 { 1.0 } else { 1.0 - rel.cdf(f, b - 1) };
                bernoulli_mult(&mut prefix, ge);
            }
        }
        RankTable { k, probs }
    }

    /// The `K` this table was built for.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of items covered.
    pub fn len(&self) -> usize {
        self.probs.len()
    }

    /// Whether the table covers no items (never true: `K ≥ 1` forces a
    /// non-empty relation).
    pub fn is_empty(&self) -> bool {
        self.probs.is_empty()
    }

    /// `Pr(rank(f) = rank)` for `rank < K` (0-based, canonical ranking).
    pub fn rank_prob(&self, f: ItemId, rank: usize) -> f64 {
        assert!(
            rank < self.k,
            "rank {rank} not covered by a Top-{} table",
            self.k
        );
        self.probs[f][rank]
    }

    /// `Pr(rank(f) ≥ K)` — the truncated tail mass.
    pub fn beyond_prob(&self, f: ItemId) -> f64 {
        self.probs[f][self.k]
    }

    /// `Pr(f ∈ Top-K) = Pr(rank(f) < K)`.
    pub fn membership(&self, f: ItemId) -> f64 {
        self.probs[f][..self.k].iter().sum()
    }

    /// All membership probabilities, indexed by item id.
    pub fn memberships(&self) -> Vec<f64> {
        (0..self.len()).map(|f| self.membership(f)).collect()
    }

    /// U-KRanks straight off the table: for each rank, the item with the
    /// highest probability of occupying it (ties to the lowest id, same
    /// rule as the enumeration oracle).
    pub fn u_kranks(&self) -> Vec<(ItemId, f64)> {
        (0..self.k)
            .map(|rank| {
                let mut best = (0, self.probs[0][rank]);
                for (f, row) in self.probs.iter().enumerate().skip(1) {
                    if row[rank] > best.1 {
                        best = (f, row[rank]);
                    }
                }
                best
            })
            .collect()
    }

    /// `E[min(rank(f), K)]` per item — the expected rank truncated at `K`,
    /// exactly computable from the truncated table. A Top-K-centric
    /// cousin of [`crate::semantics::expected_ranks`] (which uses the
    /// midpoint tie convention of \[19\] and is untruncated).
    pub fn truncated_expected_ranks(&self) -> Vec<f64> {
        self.probs
            .iter()
            .map(|row| {
                row.iter()
                    .enumerate()
                    .map(|(i, &p)| i as f64 * p)
                    .sum::<f64>()
            })
            .collect()
    }
}

/// U-KRanks in polynomial time: for each rank `i < k`, the item most
/// likely to be ranked `i`-th. Same answer (and tie rule) as the
/// exponential [`crate::semantics::u_kranks`].
///
/// ```
/// use everest_core::dist::DiscreteDist;
/// use everest_core::semantics_dp::u_kranks_dp;
/// use everest_core::xtuple::UncertainRelation;
///
/// let mut rel = UncertainRelation::new(1.0, 3);
/// rel.push_uncertain(DiscreteDist::from_masses(&[0.0, 0.0, 0.5, 0.5])); // strong
/// rel.push_uncertain(DiscreteDist::from_masses(&[0.9, 0.1, 0.0, 0.0])); // weak
/// rel.push_uncertain(DiscreteDist::from_masses(&[0.9, 0.1, 0.0, 0.0])); // weak
/// let ranks = u_kranks_dp(&rel, 2);
/// assert_eq!(ranks[0], (0, 1.0)); // the strong item always wins rank 1
/// assert_eq!(ranks[1].0, 1); // rank 2: item 1, Pr = 1 − 0.9·0.1 = 0.91
/// assert!((ranks[1].1 - 0.91).abs() < 1e-12);
/// ```
pub fn u_kranks_dp(rel: &UncertainRelation, k: usize) -> Vec<(ItemId, f64)> {
    RankTable::build(rel, k).u_kranks()
}

/// Membership probabilities `Pr(f ∈ Top-K)` for every item, in polynomial
/// time. Same values as the exponential
/// [`crate::semantics::topk_membership`].
pub fn topk_membership_dp(rel: &UncertainRelation, k: usize) -> Vec<f64> {
    RankTable::build(rel, k).memberships()
}

/// PT-k in polynomial time: every item whose Top-K membership probability
/// is at least `p`. May return fewer or more than `k` items — including
/// the empty set (the §2 critique).
///
/// ```
/// use everest_core::dist::DiscreteDist;
/// use everest_core::semantics_dp::probabilistic_threshold_topk_dp;
/// use everest_core::xtuple::UncertainRelation;
///
/// let mut rel = UncertainRelation::new(1.0, 3);
/// for _ in 0..6 {
///     rel.push_uncertain(DiscreteDist::from_masses(&[0.25; 4]));
/// }
/// // Six iid items: nobody clears 0.9, everybody clears 0.05.
/// assert!(probabilistic_threshold_topk_dp(&rel, 1, 0.9).is_empty());
/// assert_eq!(probabilistic_threshold_topk_dp(&rel, 1, 0.05).len(), 6);
/// ```
pub fn probabilistic_threshold_topk_dp(rel: &UncertainRelation, k: usize, p: f64) -> Vec<ItemId> {
    topk_membership_dp(rel, k)
        .into_iter()
        .enumerate()
        .filter(|&(_, prob)| prob >= p)
        .map(|(f, _)| f)
        .collect()
}

/// `Pr(S_g < b)` — one bucket below the CDF.
fn cdf_below(rel: &UncertainRelation, g: ItemId, b: usize) -> f64 {
    if b == 0 {
        0.0
    } else {
        rel.cdf(g, b - 1)
    }
}

/// Exact probability that `set` is the **canonical** Top-`set.len()` of a
/// random world (bucket descending, ties to the ascending id — the same
/// deterministic answer the enumeration oracle accumulates).
///
/// Conditions on which member is the set's weakest under the canonical
/// order and at which bucket: the event factorizes over the independent
/// items, giving O(K·m·n) total. This is the scoring oracle of
/// [`u_topk_dp`].
///
/// ```
/// use everest_core::dist::DiscreteDist;
/// use everest_core::semantics_dp::topk_set_probability;
/// use everest_core::xtuple::UncertainRelation;
///
/// let mut rel = UncertainRelation::new(1.0, 2);
/// rel.push_uncertain(DiscreteDist::from_masses(&[0.78, 0.21, 0.01]));
/// rel.push_uncertain(DiscreteDist::from_masses(&[0.49, 0.42, 0.09]));
/// rel.push_uncertain(DiscreteDist::from_masses(&[0.16, 0.48, 0.36]));
/// // The three Top-1 candidates partition the worlds.
/// let p: f64 = (0..3).map(|f| topk_set_probability(&rel, &[f])).sum();
/// assert!((p - 1.0).abs() < 1e-12);
/// assert!((topk_set_probability(&rel, &[2]) - 0.50778).abs() < 1e-12);
/// ```
pub fn topk_set_probability(rel: &UncertainRelation, set: &[ItemId]) -> f64 {
    let n = rel.len();
    let k = set.len();
    assert!(k >= 1 && k <= n, "K out of range");
    let mut in_set = vec![false; n];
    for &f in set {
        assert!(!in_set[f], "duplicate item {f} in candidate set");
        in_set[f] = true;
    }
    let mut total = 0.0;
    // Condition on the weakest member f* and its bucket b: members must
    // outrank (b, f*), non-members must rank below it.
    for &fstar in set {
        let (lo, hi) = rel.support(fstar);
        for b in lo..=hi {
            let pf = rel.pmf(fstar, b);
            if pf == 0.0 {
                continue;
            }
            let mut term = pf;
            for (g, &is_member) in in_set.iter().enumerate() {
                if g == fstar {
                    continue;
                }
                let factor = if is_member {
                    // strictly above, or tied with a smaller id
                    (1.0 - rel.cdf(g, b)) + if g < fstar { rel.pmf(g, b) } else { 0.0 }
                } else {
                    // strictly below, or tied with a larger id
                    cdf_below(rel, g, b) + if g > fstar { rel.pmf(g, b) } else { 0.0 }
                };
                if factor == 0.0 {
                    term = 0.0;
                    break;
                }
                term *= factor;
            }
            total += term;
        }
    }
    total.min(1.0)
}

/// Whether two items carry the same score distribution (certain items
/// compare by bucket). Used for the U-TopK dominance reduction.
fn same_dist(rel: &UncertainRelation, a: ItemId, b: ItemId) -> bool {
    match (rel.certain_bucket(a), rel.certain_bucket(b)) {
        (Some(x), Some(y)) => x == y,
        (None, None) => rel.dist(a) == rel.dist(b),
        _ => false,
    }
}

/// Groups items into identical-distribution equivalence classes and
/// returns each item's class id.
fn distribution_classes(rel: &UncertainRelation) -> Vec<usize> {
    let n = rel.len();
    let mut reps: Vec<ItemId> = Vec::new();
    let mut class_of = vec![0usize; n];
    for (f, class) in class_of.iter_mut().enumerate() {
        match reps.iter().position(|&r| same_dist(rel, r, f)) {
            Some(c) => *class = c,
            None => {
                *class = reps.len();
                reps.push(f);
            }
        }
    }
    class_of
}

/// Streams every `need`-subset of `free` (ascending positions) that is
/// **class-prefix-closed**: a position may only be chosen if no earlier
/// position of the same class was skipped. This is the exact dominance
/// reduction for identical-distribution items — swapping a chosen item
/// for a skipped lower-id twin never decreases a set's probability, so
/// the lexicographically smallest maximizer is always prefix-closed.
fn for_each_prefix_closed_subset(
    free: &[usize],
    class_of_free: &[usize],
    num_classes: usize,
    need: usize,
    visit: &mut impl FnMut(&[usize]),
) {
    fn rec(
        free: &[usize],
        class_of_free: &[usize],
        idx: usize,
        need: usize,
        chosen: &mut Vec<usize>,
        blocked: &mut [bool],
        visit: &mut impl FnMut(&[usize]),
    ) {
        if chosen.len() == need {
            visit(chosen);
            return;
        }
        if free.len() - idx < need - chosen.len() {
            return; // not enough positions left
        }
        let c = class_of_free[idx];
        if !blocked[c] {
            chosen.push(free[idx]);
            rec(free, class_of_free, idx + 1, need, chosen, blocked, visit);
            chosen.pop();
        }
        // skipping this position blocks the rest of its class
        let was = blocked[c];
        blocked[c] = true;
        rec(free, class_of_free, idx + 1, need, chosen, blocked, visit);
        blocked[c] = was;
    }
    let mut blocked = vec![false; num_classes];
    let mut chosen = Vec::with_capacity(need);
    rec(
        free,
        class_of_free,
        0,
        need,
        &mut chosen,
        &mut blocked,
        visit,
    );
}

/// U-TopK without world enumeration: the most probable canonical Top-K
/// *set*, with its probability. Same answer as the exponential
/// [`crate::semantics::u_topk`].
///
/// Candidate sets are scored exactly by [`topk_set_probability`] and
/// searched best-first under the admissible bound `Pr(T is the Top-K) ≤
/// min_{f∈T} Pr(f ∈ Top-K)`: sets are visited in decreasing order of
/// their weakest member's membership probability, and the search stops as
/// soon as the best exact score dominates the bound on everything
/// unvisited. Items with *identical* distributions are collapsed by an
/// exact dominance reduction (the lexicographically smallest maximizer
/// always takes the lowest ids of each identical-distribution class
/// first), so tie-heavy relations — the common case for counting scores —
/// don't blow the search up. With distinguishable strengths it terminates
/// after a handful of evaluations (the membership Top-K itself is usually
/// optimal); on adversarial near-exchangeable relations — where every set
/// is roughly equally improbable but no two items are exactly alike — it
/// can degrade toward exhaustive `C(n, K)` scoring, which is still
/// exponentially cheaper than enumerating worlds.
///
/// ```
/// use everest_core::dist::DiscreteDist;
/// use everest_core::semantics_dp::u_topk_dp;
/// use everest_core::xtuple::UncertainRelation;
///
/// let mut rel = UncertainRelation::new(1.0, 2);
/// rel.push_uncertain(DiscreteDist::from_masses(&[0.78, 0.21, 0.01]));
/// rel.push_uncertain(DiscreteDist::from_masses(&[0.49, 0.42, 0.09]));
/// rel.push_uncertain(DiscreteDist::from_masses(&[0.16, 0.48, 0.36]));
/// let (set, p) = u_topk_dp(&rel, 1);
/// assert_eq!(set, vec![2]); // f3 is the most probable Top-1…
/// assert!((p - 0.50778).abs() < 1e-12); // …but only at ~51% (§2 critique)
/// ```
pub fn u_topk_dp(rel: &UncertainRelation, k: usize) -> (Vec<ItemId>, f64) {
    u_topk_with_memberships(rel, k, &topk_membership_dp(rel, k))
}

/// [`u_topk_dp`] with the membership marginals supplied by the caller —
/// lets [`crate::semantics::compare_semantics`] reuse one [`RankTable`]
/// for every semantic instead of rebuilding the DP per entry point.
pub fn u_topk_with_memberships(
    rel: &UncertainRelation,
    k: usize,
    member: &[f64],
) -> (Vec<ItemId>, f64) {
    let n = rel.len();
    assert!(k >= 1 && k <= n, "K out of range");
    assert_eq!(member.len(), n, "one membership probability per item");
    // Items by decreasing membership (ties to the lower id for
    // determinism): level j considers the sets whose weakest member — in
    // this order — is order[j-1], bounded above by member[order[j-1]].
    let mut order: Vec<ItemId> = (0..n).collect();
    order.sort_by(|&a, &b| {
        member[b]
            .partial_cmp(&member[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let class_of: Vec<usize> = distribution_classes(rel);
    let num_classes = class_of.iter().max().copied().unwrap_or(0) + 1;
    let mut best_set: Vec<ItemId> = Vec::new();
    let mut best_p = f64::NEG_INFINITY;
    for j in k..=n {
        // Every set not yet visited has its weakest member at or after
        // order[j-1], so its probability is at most this bound.
        if best_p >= member[order[j - 1]] {
            break;
        }
        // The anchor (level weakest) brings its whole class prefix along:
        // same-class items with lower ids sort before it and, by
        // dominance, must be in any candidate that contains it.
        let anchor = order[j - 1];
        let required: Vec<usize> = (0..j - 1)
            .filter(|&p| class_of[order[p]] == class_of[anchor])
            .collect();
        if required.len() > k - 1 {
            continue; // anchor can't be the weakest of any prefix-closed set
        }
        let free: Vec<usize> = (0..j - 1)
            .filter(|&p| class_of[order[p]] != class_of[anchor])
            .collect();
        let class_of_free: Vec<usize> = free.iter().map(|&p| class_of[order[p]]).collect();
        let need = k - 1 - required.len();
        for_each_prefix_closed_subset(&free, &class_of_free, num_classes, need, &mut |combo| {
            let mut set: Vec<ItemId> = combo.iter().map(|&p| order[p]).collect();
            set.extend(required.iter().map(|&p| order[p]));
            set.push(anchor);
            set.sort_unstable();
            let p = topk_set_probability(rel, &set);
            // strict improvement, or the lexicographically smaller set on
            // an exact tie (the enumeration oracle's tie rule)
            if p > best_p || (p == best_p && set < best_set) {
                best_set = set;
                best_p = p;
            }
        });
    }
    (best_set, best_p)
}

/// Eq. 1 confidence of `answer` as a Top-`k` result, in closed form —
/// the polynomial replacement for
/// [`crate::pws::topk_confidence_bruteforce`].
///
/// Uses the paper's footnote-1 tie rule: `answer` counts as Top-K in a
/// world when no outside item scores **strictly higher** than the lowest
/// score inside the answer (ties are tolerated, unlike the canonical-set
/// semantics of [`topk_set_probability`]). Conditioning on the answer's
/// minimum score `M` makes the outside items independent of it:
/// `Σ_t Pr(M = t) · ∏_{g∉answer} F_g(t)`, which is O(n·m).
///
/// Returns 0 when `answer` is not exactly `k` items (wrong-cardinality
/// answers are Top-K in no world).
///
/// ```
/// use everest_core::dist::DiscreteDist;
/// use everest_core::semantics_dp::topk_confidence;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::DiscreteDist;
    use crate::xtuple::table_1a;

    fn d(masses: &[f64]) -> DiscreteDist {
        DiscreteDist::from_masses(masses)
    }

    #[test]
    fn bernoulli_mult_tracks_poisson_binomial() {
        // Three coins with p = 0.5, capped at 2: (1/8, 3/8, 4/8).
        let mut poly = vec![1.0, 0.0, 0.0];
        for _ in 0..3 {
            bernoulli_mult(&mut poly, 0.5);
        }
        assert!((poly[0] - 0.125).abs() < 1e-12);
        assert!((poly[1] - 0.375).abs() < 1e-12);
        assert!((poly[2] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn truncated_convolution_folds_overflow() {
        let a = vec![0.5, 0.5, 0.0];
        let b = vec![0.0, 0.5, 0.5];
        // counts: 1 w.p. .25, 2 w.p. .5, 3 w.p. .25 → capped [0, .25, .75]
        let c = truncated_convolution(&a, &b);
        assert!((c[0] - 0.0).abs() < 1e-12);
        assert!((c[1] - 0.25).abs() < 1e-12);
        assert!((c[2] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn prefix_closed_subsets_enumerate_all_singleton_classes() {
        // All-distinct classes: the generator degrades to plain
        // combinations.
        let free = [0usize, 1, 2, 3];
        let classes = [0usize, 1, 2, 3];
        let mut seen = Vec::new();
        for_each_prefix_closed_subset(&free, &classes, 4, 2, &mut |c| seen.push(c.to_vec()));
        seen.sort();
        assert_eq!(
            seen,
            vec![
                vec![0, 1],
                vec![0, 2],
                vec![0, 3],
                vec![1, 2],
                vec![1, 3],
                vec![2, 3]
            ]
        );
        let mut empty = 0;
        for_each_prefix_closed_subset(&free, &classes, 4, 0, &mut |c| {
            assert!(c.is_empty());
            empty += 1;
        });
        assert_eq!(empty, 1, "need = 0 yields exactly the empty subset");
    }

    #[test]
    fn prefix_closed_subsets_respect_class_dominance() {
        // Positions 0..4 all in one class: only id-prefixes are admissible.
        let free = [0usize, 1, 2, 3];
        let classes = [0usize, 0, 0, 0];
        let mut seen = Vec::new();
        for_each_prefix_closed_subset(&free, &classes, 1, 2, &mut |c| seen.push(c.to_vec()));
        assert_eq!(seen, vec![vec![0, 1]], "only the 2-prefix survives");
        // Two interleaved classes a(0,2) / b(1,3): picking position 2
        // requires position 0, picking 3 requires 1.
        let classes = [0usize, 1, 0, 1];
        let mut seen = Vec::new();
        for_each_prefix_closed_subset(&free, &classes, 2, 2, &mut |c| {
            let mut c = c.to_vec();
            c.sort_unstable();
            seen.push(c);
        });
        seen.sort();
        assert_eq!(seen, vec![vec![0, 1], vec![0, 2], vec![1, 3]]);
    }

    #[test]
    fn distribution_classes_group_identical_items() {
        let mut rel = UncertainRelation::new(1.0, 2);
        rel.push_uncertain(d(&[0.5, 0.5, 0.0]));
        rel.push_uncertain(d(&[0.2, 0.2, 0.6]));
        rel.push_uncertain(d(&[0.5, 0.5, 0.0])); // twin of item 0
        rel.push_certain(1);
        rel.push_certain(1); // twin of item 3
        rel.push_certain(2);
        assert_eq!(distribution_classes(&rel), vec![0, 1, 0, 2, 2, 3]);
    }

    #[test]
    fn u_topk_dp_collapses_identical_items() {
        // 24 identical strong items + 24 identical weak ones: the Top-8 is
        // the 8 lowest-id strong items by canonical dominance, and the
        // search must find it without enumerating C(24,8) sets.
        let mut rel = UncertainRelation::new(1.0, 4);
        for _ in 0..24 {
            rel.push_uncertain(d(&[0.0, 0.0, 0.2, 0.4, 0.4]));
        }
        for _ in 0..24 {
            rel.push_uncertain(d(&[0.4, 0.4, 0.2, 0.0, 0.0]));
        }
        #[expect(clippy::disallowed_methods, reason = "test timing")]
        let started = std::time::Instant::now();
        let (set, p) = u_topk_dp(&rel, 8);
        assert!(started.elapsed() < std::time::Duration::from_secs(1));
        assert_eq!(set, (0..8).collect::<Vec<_>>());
        assert!(p > 0.0 && p <= 1.0);
    }

    #[test]
    fn rank_table_rows_are_distributions() {
        let table = RankTable::build(&table_1a(), 2);
        for f in 0..3 {
            let total: f64 =
                (0..2).map(|i| table.rank_prob(f, i)).sum::<f64>() + table.beyond_prob(f);
            assert!((total - 1.0).abs() < 1e-9, "item {f}: mass {total}");
        }
        let member_sum: f64 = table.memberships().iter().sum();
        assert!((member_sum - 2.0).abs() < 1e-9);
    }

    #[test]
    fn table_1a_top1_set_probabilities_partition() {
        // Hand-computed canonical Top-1 probabilities for Table 1a.
        let rel = table_1a();
        let p: Vec<f64> = (0..3).map(|f| topk_set_probability(&rel, &[f])).collect();
        assert!((p[0] - 0.193456).abs() < 1e-9);
        assert!((p[1] - 0.298764).abs() < 1e-9);
        assert!((p[2] - 0.50778).abs() < 1e-9);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn u_topk_dp_on_table_1a() {
        let (set, p) = u_topk_dp(&table_1a(), 1);
        assert_eq!(set, vec![2]);
        assert!((p - 0.50778).abs() < 1e-9);
    }

    #[test]
    fn certain_relation_all_dp_semantics_agree() {
        let mut rel = UncertainRelation::new(1.0, 5);
        rel.push_certain(5);
        rel.push_certain(3);
        rel.push_certain(1);
        let (set, p) = u_topk_dp(&rel, 2);
        assert_eq!(set, vec![0, 1]);
        assert_eq!(p, 1.0);
        let ranks = u_kranks_dp(&rel, 2);
        assert_eq!(ranks[0], (0, 1.0));
        assert_eq!(ranks[1], (1, 1.0));
        assert_eq!(probabilistic_threshold_topk_dp(&rel, 2, 0.99), vec![0, 1]);
        assert_eq!(topk_confidence(&rel, &[0, 1], 2), 1.0);
        assert_eq!(topk_confidence(&rel, &[1, 2], 2), 0.0);
    }

    #[test]
    fn canonical_ties_break_to_the_lower_id() {
        let mut rel = UncertainRelation::new(1.0, 1);
        rel.push_certain(1);
        rel.push_certain(1);
        // Canonically item 0 wins the tie in every world…
        assert_eq!(topk_set_probability(&rel, &[0]), 1.0);
        assert_eq!(topk_set_probability(&rel, &[1]), 0.0);
        assert_eq!(u_topk_dp(&rel, 1), (vec![0], 1.0));
        // …but under the footnote-1 tie rule either answer is valid.
        assert_eq!(topk_confidence(&rel, &[0], 1), 1.0);
        assert_eq!(topk_confidence(&rel, &[1], 1), 1.0);
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
    fn truncated_expected_ranks_on_certain_relation() {
        let mut rel = UncertainRelation::new(1.0, 5);
        rel.push_certain(5);
        rel.push_certain(3);
        rel.push_certain(1);
        let t = RankTable::build(&rel, 2).truncated_expected_ranks();
        assert_eq!(t, vec![0.0, 1.0, 2.0]); // ranks 0, 1, and ≥2 ⇒ capped at 2
    }

    #[test]
    fn u_topk_dp_handles_k_equal_n() {
        let mut rel = UncertainRelation::new(1.0, 2);
        rel.push_uncertain(d(&[0.3, 0.3, 0.4]));
        rel.push_uncertain(d(&[0.5, 0.5, 0.0]));
        let (set, p) = u_topk_dp(&rel, 2);
        assert_eq!(set, vec![0, 1]);
        assert!((p - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dp_scales_where_enumeration_cannot() {
        // 40 items × 6-bucket supports ≈ 6⁴⁰ worlds — far past MAX_WORLDS.
        let mut rel = UncertainRelation::new(1.0, 8);
        for i in 0..40 {
            let center = (i % 9) as f64;
            let masses: Vec<f64> = (0..=8)
                .map(|b| (-((b as f64 - center) / 1.3).powi(2)).exp() + 1e-6)
                .collect();
            rel.push_uncertain(d(&masses));
        }
        let table = RankTable::build(&rel, 5);
        let member_sum: f64 = table.memberships().iter().sum();
        assert!((member_sum - 5.0).abs() < 1e-6);
        let (set, p) = u_topk_dp(&rel, 5);
        assert_eq!(set.len(), 5);
        assert!(p > 0.0 && p <= 1.0);
        assert_eq!(u_kranks_dp(&rel, 5).len(), 5);
    }
}
