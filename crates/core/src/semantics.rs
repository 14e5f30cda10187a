//! Alternative uncertain Top-K semantics from the literature (§2,
//! "Uncertain Top-K Processing"), implemented over the possible-world
//! enumerator so their behaviour can be contrasted with Everest's
//! guarantee experimentally:
//!
//! * **U-TopK** (Soliman et al.): the result *set* with the highest
//!   probability of being the Top-K. The paper's critique: the winner may
//!   still have very low absolute probability — there is no threshold
//!   guarantee.
//! * **U-KRanks** (Soliman et al.): position-by-position — the i-th result
//!   is the item most likely to be ranked i-th. Critique: the assembled
//!   set as a whole need not be the most probable Top-K (the same item can
//!   even win several positions).
//! * **Probabilistic threshold Top-K, PT-k** (Hua et al.): all items whose
//!   *membership* probability `Pr(f ∈ Top-K)` exceeds a threshold.
//!   Critique: the result may contain fewer (even zero) or more than K
//!   items, and says nothing about the set as a whole.
//!
//! All three assume no run-time oracle; they rank the uncertain relation
//! as-is. That is exactly the contrast with Everest's
//! oracle-in-the-loop processing, whose answer meets `Pr(R̂ = R) ≥ thres`
//! *and* is fully oracle-confirmed.
//!
//! The implementations in this module enumerate possible worlds and are
//! **exponential** — they are the correctness oracle that the
//! polynomial-time dynamic programs in [`crate::semantics_dp`] are
//! property-tested against, and they refuse oversized relations with a
//! typed [`TooManyWorlds`] error. Production-size comparisons (the
//! `semantics_comparison` experiment) run on the DP layer; see
//! `docs/SEMANTICS.md` for the full map.

use crate::pws::{enumerate_worlds, TooManyWorlds, World};
use crate::semantics_dp;
use crate::xtuple::{ItemId, UncertainRelation};
use std::collections::BTreeMap;

/// The Top-K item set of one world, ties broken by ascending id
/// (deterministic canonical answer).
fn topk_of_world(world: &World, k: usize) -> Vec<ItemId> {
    let mut ids: Vec<ItemId> = (0..world.buckets.len()).collect();
    ids.sort_by(|&a, &b| world.buckets[b].cmp(&world.buckets[a]).then(a.cmp(&b)));
    let mut top: Vec<ItemId> = ids.into_iter().take(k).collect();
    top.sort_unstable();
    top
}

/// U-TopK by world enumeration: the most probable Top-K *set*, with its
/// probability (test oracle for [`semantics_dp::u_topk_dp`]).
///
/// Returns `(set, probability)`; the set is sorted by item id. Errors with
/// [`TooManyWorlds`] on relations too large to enumerate.
#[expect(
    clippy::expect_used,
    reason = "a validated relation enumerates to at least one world, so `scores` is non-empty"
)]
pub fn u_topk(rel: &UncertainRelation, k: usize) -> Result<(Vec<ItemId>, f64), TooManyWorlds> {
    assert!(k >= 1 && k <= rel.len(), "K out of range");
    // BTreeMap so the max_by scan below runs in sorted-key order — the
    // total tie-break already made the winner unique, but iteration order
    // is part of the byte-identical contract (determinism suite).
    let mut scores: BTreeMap<Vec<ItemId>, f64> = BTreeMap::new();
    for world in enumerate_worlds(rel)? {
        *scores.entry(topk_of_world(&world, k)).or_insert(0.0) += world.prob;
    }
    Ok(scores
        .into_iter()
        .max_by(|a, b| {
            a.1.partial_cmp(&b.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                // deterministic tie-break on the set itself
                .then_with(|| b.0.cmp(&a.0))
        })
        .expect("at least one world"))
}

/// U-KRanks by world enumeration: for each rank i (0-based), the item most
/// likely to occupy it (test oracle for [`semantics_dp::u_kranks_dp`]).
///
/// Returns `ranks[i] = (item, probability)`. Note the same item may win
/// multiple ranks — one of the semantic quirks the paper points out.
/// Errors with [`TooManyWorlds`] on relations too large to enumerate.
pub fn u_kranks(rel: &UncertainRelation, k: usize) -> Result<Vec<(ItemId, f64)>, TooManyWorlds> {
    // Each row has one entry per item, so every rank has a winner.
    Ok(rank_probabilities(rel, k)?
        .into_iter()
        .filter_map(|probs| {
            probs.into_iter().enumerate().max_by(|a, b| {
                a.1.partial_cmp(&b.1)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(b.0.cmp(&a.0))
            })
        })
        .collect())
}

/// The full positional table by world enumeration:
/// `table[i][f] = Pr(item f is ranked i-th)` for every rank `i < k` (test
/// oracle for [`semantics_dp::RankTable`]).
pub fn rank_probabilities(
    rel: &UncertainRelation,
    k: usize,
) -> Result<Vec<Vec<f64>>, TooManyWorlds> {
    assert!(k >= 1 && k <= rel.len(), "K out of range");
    let n = rel.len();
    let mut rank_prob = vec![vec![0.0f64; n]; k];
    for world in enumerate_worlds(rel)? {
        let mut ids: Vec<ItemId> = (0..n).collect();
        ids.sort_by(|&a, &b| world.buckets[b].cmp(&world.buckets[a]).then(a.cmp(&b)));
        for (i, &f) in ids.iter().take(k).enumerate() {
            rank_prob[i][f] += world.prob;
        }
    }
    Ok(rank_prob)
}

/// Membership probabilities `Pr(f ∈ Top-K)` for every item, by world
/// enumeration (test oracle for [`semantics_dp::topk_membership_dp`]).
pub fn topk_membership(rel: &UncertainRelation, k: usize) -> Result<Vec<f64>, TooManyWorlds> {
    assert!(k >= 1 && k <= rel.len(), "K out of range");
    let n = rel.len();
    let mut member = vec![0.0f64; n];
    for world in enumerate_worlds(rel)? {
        for f in topk_of_world(&world, k) {
            member[f] += world.prob;
        }
    }
    Ok(member)
}

/// PT-k by world enumeration: every item whose Top-K membership
/// probability is at least `p` (test oracle for
/// [`semantics_dp::probabilistic_threshold_topk_dp`]). May return fewer or
/// more than K items — including the empty set.
pub fn probabilistic_threshold_topk(
    rel: &UncertainRelation,
    k: usize,
    p: f64,
) -> Result<Vec<ItemId>, TooManyWorlds> {
    Ok(topk_membership(rel, k)?
        .into_iter()
        .enumerate()
        .filter(|&(_, prob)| prob >= p)
        .map(|(f, _)| f)
        .collect())
}

/// **Expected ranks** (Cormode, Li & Yi \[19\]): `E[rank(f)]` over possible
/// worlds, where the rank of `f` in a world counts the items scoring
/// strictly higher plus half the items tying it (the midpoint convention
/// makes the statistic symmetric under ties).
///
/// Unlike U-TopK / U-KRanks / PT-k, expected ranks are computable in
/// **polynomial time** — `O(n·m)` here via two global per-bucket tables —
/// which was \[19\]'s selling point. By linearity of expectation,
///
/// ```text
/// E[rank(f)] = Σ_{g≠f} [ Pr(S_g > S_f) + ½·Pr(S_g = S_f) ]
///            = Σ_b Pr(S_f = b) · [ (G(b) − Pr(S_f > b)) + ½(T(b) − Pr(S_f = b)) ]
/// ```
///
/// with `G(b) = Σ_g Pr(S_g > b)` and `T(b) = Σ_g Pr(S_g = b)`.
pub fn expected_ranks(rel: &UncertainRelation) -> Vec<f64> {
    let n = rel.len();
    let m = rel.max_bucket() + 1;
    // G[b] = Σ_g Pr(S_g > b);  T[b] = Σ_g Pr(S_g = b)
    let mut above = vec![0.0f64; m];
    let mut tie = vec![0.0f64; m];
    for g in 0..n {
        for (b, (a, t)) in above.iter_mut().zip(tie.iter_mut()).enumerate() {
            *a += 1.0 - rel.cdf(g, b);
            *t += rel.pmf(g, b);
        }
    }
    (0..n)
        .map(|f| {
            (0..m)
                .map(|b| {
                    let pf = rel.pmf(f, b);
                    if pf == 0.0 {
                        return 0.0;
                    }
                    let others_above = above[b] - (1.0 - rel.cdf(f, b));
                    let others_tie = tie[b] - pf;
                    pf * (others_above + 0.5 * others_tie)
                })
                .sum()
        })
        .collect()
}

/// Expected-rank Top-K: the K items with the smallest expected ranks
/// (ties by ascending id), together with those ranks.
pub fn expected_rank_topk(rel: &UncertainRelation, k: usize) -> Vec<(ItemId, f64)> {
    assert!(k >= 1 && k <= rel.len(), "K out of range");
    let ranks = expected_ranks(rel);
    let mut ids: Vec<ItemId> = (0..rel.len()).collect();
    ids.sort_by(|&a, &b| {
        ranks[a]
            .partial_cmp(&ranks[b])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    ids.into_iter().take(k).map(|f| (f, ranks[f])).collect()
}

/// Brute-force expected ranks via world enumeration (test oracle for
/// [`expected_ranks`]; exponential, errors with [`TooManyWorlds`]).
pub fn pws_expected_ranks(rel: &UncertainRelation) -> Result<Vec<f64>, TooManyWorlds> {
    let n = rel.len();
    let mut ranks = vec![0.0f64; n];
    for world in enumerate_worlds(rel)? {
        for (f, rank) in ranks.iter_mut().enumerate() {
            let mut r = 0.0;
            for (g, bg) in world.buckets.iter().enumerate() {
                if g == f {
                    continue;
                }
                match bg.cmp(&world.buckets[f]) {
                    std::cmp::Ordering::Greater => r += 1.0,
                    std::cmp::Ordering::Equal => r += 0.5,
                    std::cmp::Ordering::Less => {}
                }
            }
            *rank += world.prob * r;
        }
    }
    Ok(ranks)
}

/// A side-by-side comparison of every implemented uncertain Top-K
/// semantic on one relation — the experimental companion of §2's survey
/// table (used by the `semantics_comparison` bench bin and docs).
#[derive(Debug, Clone)]
pub struct SemanticsComparison {
    pub k: usize,
    /// U-TopK answer and its (possibly low) probability.
    pub u_topk: (Vec<ItemId>, f64),
    /// U-KRanks: per-rank winners (repeats possible).
    pub u_kranks: Vec<(ItemId, f64)>,
    /// PT-k at the given threshold (size may differ from K).
    pub ptk: Vec<ItemId>,
    pub ptk_threshold: f64,
    /// Expected-rank Top-K.
    pub expected_rank: Vec<(ItemId, f64)>,
}

/// Runs all semantics on one relation.
///
/// Evaluation goes through the polynomial-time layer
/// ([`crate::semantics_dp`]), so — unlike the enumeration oracles above —
/// this works on relations of hundreds of items, not just enumerable toys.
pub fn compare_semantics(rel: &UncertainRelation, k: usize, ptk_p: f64) -> SemanticsComparison {
    // One rank-distribution DP serves U-KRanks, PT-k and the U-TopK
    // search's membership bounds.
    let table = semantics_dp::RankTable::build(rel, k);
    let member = table.memberships();
    SemanticsComparison {
        k,
        u_topk: semantics_dp::u_topk_with_memberships(rel, k, &member),
        u_kranks: table.u_kranks(),
        ptk: member
            .into_iter()
            .enumerate()
            .filter(|&(_, prob)| prob >= ptk_p)
            .map(|(f, _)| f)
            .collect(),
        ptk_threshold: ptk_p,
        expected_rank: expected_rank_topk(rel, k),
    }
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
    fn u_topk_on_table_1a() {
        let (set, p) = u_topk(&table_1a(), 1).unwrap();
        // f3 dominates: it is the most probable Top-1.
        assert_eq!(set, vec![2]);
        assert!(p > 0.5 && p < 1.0, "probability {p}");
    }

    #[test]
    fn u_topk_probability_can_be_low() {
        // The paper's critique: the most probable set may still be unlikely.
        // Five iid uniform items over 4 buckets: every Top-1 winner is ~1/5.
        let mut rel = UncertainRelation::new(1.0, 3);
        for _ in 0..5 {
            rel.push_uncertain(d(&[0.25, 0.25, 0.25, 0.25]));
        }
        let (_, p) = u_topk(&rel, 1).unwrap();
        assert!(p < 0.5, "no guarantee: winner probability is only {p}");
    }

    #[test]
    fn u_kranks_positions_sum_to_valid_probs() {
        let ranks = u_kranks(&table_1a(), 2).unwrap();
        assert_eq!(ranks.len(), 2);
        for &(f, p) in &ranks {
            assert!(f < 3);
            assert!(p > 0.0 && p <= 1.0);
        }
        // rank-1 winner should be f3 (it has the highest counts).
        assert_eq!(ranks[0].0, 2);
    }

    #[test]
    fn u_kranks_rank_probabilities_are_exact() {
        let mut rel = UncertainRelation::new(1.0, 3);
        rel.push_uncertain(d(&[0.0, 0.0, 0.5, 0.5])); // strong: always rank 1
        rel.push_uncertain(d(&[0.9, 0.1, 0.0, 0.0])); // weak
        rel.push_uncertain(d(&[0.9, 0.1, 0.0, 0.0])); // weak
        let ranks = u_kranks(&rel, 2).unwrap();
        assert_eq!(ranks[0], (0, 1.0), "strong item wins rank 1 certainly");
        // Rank 2 goes to item 1 except when (item1 = 0, item2 = 1):
        // Pr = 1 − 0.9·0.1 = 0.91 (ties at 0 break to the lower id).
        assert_eq!(ranks[1].0, 1);
        assert!((ranks[1].1 - 0.91).abs() < 1e-9, "got {}", ranks[1].1);
    }

    #[test]
    fn membership_probabilities_sum_to_k() {
        let member = topk_membership(&table_1a(), 2).unwrap();
        let total: f64 = member.iter().sum();
        assert!(
            (total - 2.0).abs() < 1e-9,
            "Σ membership must equal K, got {total}"
        );
    }

    #[test]
    fn ptk_can_return_empty_or_oversized_sets() {
        // Uniform items: with a high threshold nothing qualifies…
        let mut rel = UncertainRelation::new(1.0, 3);
        for _ in 0..6 {
            rel.push_uncertain(d(&[0.25, 0.25, 0.25, 0.25]));
        }
        assert!(probabilistic_threshold_topk(&rel, 1, 0.9)
            .unwrap()
            .is_empty());
        // …and with a low threshold more than K items qualify.
        let many = probabilistic_threshold_topk(&rel, 1, 0.05).unwrap();
        assert!(many.len() > 1, "PT-1 returned {} items", many.len());
    }

    #[test]
    fn certain_relation_all_semantics_agree() {
        let mut rel = UncertainRelation::new(1.0, 5);
        rel.push_certain(5);
        rel.push_certain(3);
        rel.push_certain(1);
        let (set, p) = u_topk(&rel, 2).unwrap();
        assert_eq!(set, vec![0, 1]);
        assert_eq!(p, 1.0);
        let ranks = u_kranks(&rel, 2).unwrap();
        assert_eq!(ranks[0], (0, 1.0));
        assert_eq!(ranks[1], (1, 1.0));
        assert_eq!(
            probabilistic_threshold_topk(&rel, 2, 0.99).unwrap(),
            vec![0, 1]
        );
        let er = expected_rank_topk(&rel, 2);
        assert_eq!(er[0], (0, 0.0), "the top item has nothing above it");
        assert_eq!(er[1], (1, 1.0), "exactly one item above");
    }

    #[test]
    fn oversized_relations_error_instead_of_aborting() {
        let mut rel = UncertainRelation::new(1.0, 9);
        let masses = vec![0.1; 10];
        for _ in 0..25 {
            rel.push_uncertain(d(&masses));
        }
        assert!(u_topk(&rel, 3).is_err());
        assert!(u_kranks(&rel, 3).is_err());
        assert!(topk_membership(&rel, 3).is_err());
        assert!(probabilistic_threshold_topk(&rel, 3, 0.5).is_err());
        assert!(pws_expected_ranks(&rel).is_err());
        // …while the polynomial paths (and the comparison bundle built on
        // them) still work.
        let cmp = compare_semantics(&rel, 3, 0.5);
        assert_eq!(cmp.u_topk.0.len(), 3);
        assert!(expected_ranks(&rel).len() == 25);
    }

    #[test]
    fn expected_ranks_match_world_enumeration() {
        for rel in [table_1a(), {
            let mut r = UncertainRelation::new(1.0, 3);
            r.push_uncertain(d(&[0.1, 0.2, 0.3, 0.4]));
            r.push_certain(2);
            r.push_uncertain(d(&[0.7, 0.0, 0.0, 0.3]));
            r.push_uncertain(d(&[0.25, 0.25, 0.25, 0.25]));
            r
        }] {
            let fast = expected_ranks(&rel);
            let brute = pws_expected_ranks(&rel).unwrap();
            for (f, (a, b)) in fast.iter().zip(&brute).enumerate() {
                assert!((a - b).abs() < 1e-9, "item {f}: fast {a} vs brute {b}");
            }
        }
    }

    #[test]
    fn expected_ranks_sum_is_fixed_by_pair_count() {
        // Σ_f E[rank(f)] = Σ pairs [Pr(>) + Pr(<) + 2·½·Pr(=)] = C(n,2):
        // every unordered pair contributes exactly 1 in every world.
        let rel = table_1a();
        let total: f64 = expected_ranks(&rel).iter().sum();
        let n = rel.len() as f64;
        assert!((total - n * (n - 1.0) / 2.0).abs() < 1e-9, "got {total}");
    }

    #[test]
    fn expected_rank_topk_orders_by_rank() {
        let rel = table_1a();
        let er = expected_rank_topk(&rel, 3);
        assert_eq!(er.len(), 3);
        assert!(er.windows(2).all(|w| w[0].1 <= w[1].1));
        // f3 has the stochastically largest score → smallest expected rank
        assert_eq!(er[0].0, 2);
    }

    #[test]
    fn expected_ranks_can_disagree_with_u_topk() {
        // A classic [19]-style example: a bimodal item vs a safe middle
        // item. The bimodal one wins Top-1 most often (U-Top1 picks it),
        // but its expected rank is dragged down by the bad mode.
        let mut rel = UncertainRelation::new(1.0, 4);
        rel.push_uncertain(d(&[0.45, 0.0, 0.0, 0.0, 0.55])); // bimodal: 0 or 4
        rel.push_certain(3); // safe: always 3
        rel.push_certain(2);
        let (set, _) = u_topk(&rel, 1).unwrap();
        assert_eq!(set, vec![0], "U-Top1 picks the gambler");
        let er = expected_rank_topk(&rel, 1);
        assert_eq!(er[0].0, 1, "expected rank prefers the safe item");
    }

    #[test]
    fn compare_semantics_bundles_everything() {
        let rel = table_1a();
        let cmp = compare_semantics(&rel, 2, 0.5);
        assert_eq!(cmp.k, 2);
        assert_eq!(cmp.u_kranks.len(), 2);
        assert_eq!(cmp.expected_rank.len(), 2);
        assert_eq!(cmp.ptk_threshold, 0.5);
        // All semantics agree that f3 is a Top-2 member here.
        assert!(cmp.u_topk.0.contains(&2));
        assert!(cmp.expected_rank.iter().any(|&(f, _)| f == 2));
    }

    #[test]
    fn compare_semantics_matches_the_enumeration_oracles() {
        let rel = table_1a();
        let cmp = compare_semantics(&rel, 2, 0.5);
        let (bf_set, bf_p) = u_topk(&rel, 2).unwrap();
        assert_eq!(cmp.u_topk.0, bf_set);
        assert!((cmp.u_topk.1 - bf_p).abs() < 1e-9);
        let bf_ranks = u_kranks(&rel, 2).unwrap();
        for (dp, bf) in cmp.u_kranks.iter().zip(&bf_ranks) {
            assert_eq!(dp.0, bf.0);
            assert!((dp.1 - bf.1).abs() < 1e-9);
        }
        assert_eq!(cmp.ptk, probabilistic_threshold_topk(&rel, 2, 0.5).unwrap());
    }
}
