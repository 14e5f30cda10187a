//! Property tests for the alternative uncertain Top-K semantics (§2) —
//! cross-checking the polynomial-time dynamic programs (`semantics_dp`)
//! against the world-enumeration oracles (`semantics`) on every
//! enumerable relation, the fast expected-ranks computation against
//! enumeration, and the structural relationships between the semantics.

use everest::core::dist::DiscreteDist;
use everest::core::semantics::{
    expected_rank_topk, expected_ranks, probabilistic_threshold_topk, pws_expected_ranks,
    rank_probabilities, topk_membership, u_kranks, u_topk,
};
use everest::core::semantics_dp::{
    probabilistic_threshold_topk_dp, topk_membership_dp, topk_set_probability, u_kranks_dp,
    u_topk_dp, RankTable,
};
use everest::core::xtuple::UncertainRelation;
use proptest::prelude::*;

const MAX_B: usize = 3;

fn arb_dist() -> impl Strategy<Value = DiscreteDist> {
    proptest::collection::vec(0.0f64..1.0, MAX_B + 1).prop_filter_map("positive mass", |masses| {
        if masses.iter().sum::<f64>() > 1e-9 {
            Some(DiscreteDist::from_masses(&masses))
        } else {
            None
        }
    })
}

/// A distribution whose masses are multiples of ¼, so zeros and exact
/// score ties across items occur often (the tie rule's hard cases).
fn arb_tie_dense_dist() -> impl Strategy<Value = DiscreteDist> {
    proptest::collection::vec(0.0f64..1.0, MAX_B + 1).prop_filter_map("positive mass", |masses| {
        let rounded: Vec<f64> = masses.iter().map(|m| (m * 4.0).round() / 4.0).collect();
        if rounded.iter().sum::<f64>() > 0.0 {
            Some(DiscreteDist::from_masses(&rounded))
        } else {
            None
        }
    })
}

fn assemble(dists: Vec<DiscreteDist>, certains: Vec<u32>) -> UncertainRelation {
    let mut rel = UncertainRelation::new(1.0, MAX_B);
    for d in dists {
        rel.push_uncertain(d);
    }
    for b in certains {
        rel.push_certain(b);
    }
    rel
}

fn arb_relation() -> impl Strategy<Value = UncertainRelation> {
    (
        proptest::collection::vec(arb_dist(), 1..5),
        proptest::collection::vec(0u32..=MAX_B as u32, 0..3),
    )
        .prop_map(|(dists, certains)| assemble(dists, certains))
}

/// Like [`arb_relation`] but tie-dense: exact inter-item ties and zero
/// buckets are common, stressing the canonical tie-break equivalence.
fn arb_tie_dense_relation() -> impl Strategy<Value = UncertainRelation> {
    (
        proptest::collection::vec(arb_tie_dense_dist(), 1..6),
        proptest::collection::vec(0u32..=MAX_B as u32, 0..3),
    )
        .prop_map(|(dists, certains)| assemble(dists, certains))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The O(n·m) expected-ranks computation equals brute-force world
    /// enumeration (linearity of expectation, verified empirically).
    #[test]
    fn expected_ranks_equal_world_enumeration(rel in arb_relation()) {
        let fast = expected_ranks(&rel);
        let brute = pws_expected_ranks(&rel).unwrap();
        for (f, (a, b)) in fast.iter().zip(&brute).enumerate() {
            prop_assert!((a - b).abs() < 1e-9, "item {f}: {a} vs {b}");
        }
    }

    /// Σ_f E[rank(f)] = C(n,2): every unordered pair contributes exactly 1
    /// in every world under the midpoint tie convention.
    #[test]
    fn expected_ranks_sum_to_pair_count(rel in arb_relation()) {
        let n = rel.len() as f64;
        let total: f64 = expected_ranks(&rel).iter().sum();
        prop_assert!((total - n * (n - 1.0) / 2.0).abs() < 1e-9, "Σ = {total}, n = {n}");
    }

    /// Expected ranks live in [0, n−1].
    #[test]
    fn expected_ranks_are_bounded(rel in arb_relation()) {
        let n = rel.len() as f64;
        for (f, r) in expected_ranks(&rel).iter().enumerate() {
            prop_assert!((-1e-12..=n - 1.0 + 1e-12).contains(r), "item {f}: rank {r}");
        }
    }

    /// Top-K membership probabilities always sum to exactly K.
    #[test]
    fn membership_sums_to_k(rel in arb_relation(), k_seed in 0usize..100) {
        let k = 1 + k_seed % rel.len();
        let member = topk_membership(&rel, k).unwrap();
        let total: f64 = member.iter().sum();
        prop_assert!((total - k as f64).abs() < 1e-9, "Σ = {total}, K = {k}");
        for (f, p) in member.iter().enumerate() {
            prop_assert!((-1e-12..=1.0 + 1e-12).contains(p), "item {f}: {p}");
        }
    }

    /// U-TopK's winner probability can never exceed the largest membership
    /// probability of its members, and PT-k at threshold 0 returns every
    /// item.
    #[test]
    fn semantics_relationships(rel in arb_relation(), k_seed in 0usize..100) {
        let k = 1 + k_seed % rel.len();
        let (set, p) = u_topk(&rel, k).unwrap();
        prop_assert_eq!(set.len(), k);
        prop_assert!(p > 0.0 && p <= 1.0 + 1e-12);
        let member = topk_membership(&rel, k).unwrap();
        for &f in &set {
            prop_assert!(
                member[f] >= p - 1e-9,
                "member {f}: Pr(f ∈ TopK) = {} < Pr(set) = {p}", member[f]
            );
        }
        let everyone = probabilistic_threshold_topk(&rel, k, 0.0).unwrap();
        prop_assert_eq!(everyone.len(), rel.len());
    }

    /// U-KRanks winners have positive probability, and rank-1's winner
    /// probability is consistent with membership.
    #[test]
    fn u_kranks_consistency(rel in arb_relation(), k_seed in 0usize..100) {
        let k = 1 + k_seed % rel.len();
        let ranks = u_kranks(&rel, k).unwrap();
        prop_assert_eq!(ranks.len(), k);
        let member = topk_membership(&rel, k).unwrap();
        for (i, &(f, p)) in ranks.iter().enumerate() {
            prop_assert!(p > 0.0 && p <= 1.0 + 1e-12, "rank {i}: {p}");
            prop_assert!(
                member[f] >= p - 1e-9,
                "rank {i} winner {f}: membership {} < rank prob {p}", member[f]
            );
        }
    }

    /// `expected_rank_topk` returns K items in non-decreasing rank order,
    /// and its first pick minimises the expected rank globally.
    #[test]
    fn expected_rank_topk_is_sorted_and_optimal(rel in arb_relation()) {
        let k = rel.len().min(3);
        let top = expected_rank_topk(&rel, k);
        prop_assert_eq!(top.len(), k);
        for pair in top.windows(2) {
            prop_assert!(pair[0].1 <= pair[1].1 + 1e-12);
        }
        let all = expected_ranks(&rel);
        let best = all.iter().cloned().fold(f64::INFINITY, f64::min);
        prop_assert!((top[0].1 - best).abs() < 1e-12);
    }

    // ---- DP ≡ enumeration (the tentpole equivalences) ----

    /// The rank-distribution DP reproduces the full positional table of the
    /// enumeration oracle: `Pr(rank(f) = i)` for every item and rank.
    #[test]
    fn dp_rank_table_equals_enumeration(rel in arb_tie_dense_relation(), k_seed in 0usize..100) {
        let k = 1 + k_seed % rel.len();
        let table = RankTable::build(&rel, k);
        let brute = rank_probabilities(&rel, k).unwrap();
        for f in 0..rel.len() {
            let mut brute_member = 0.0;
            for (i, row) in brute.iter().enumerate() {
                prop_assert!(
                    (table.rank_prob(f, i) - row[f]).abs() < 1e-9,
                    "item {f} rank {i}: dp {} vs brute {}", table.rank_prob(f, i), row[f]
                );
                brute_member += row[f];
            }
            prop_assert!(
                (table.membership(f) - brute_member).abs() < 1e-9,
                "item {f}: membership dp {} vs brute {brute_member}", table.membership(f)
            );
            prop_assert!(
                (table.membership(f) + table.beyond_prob(f) - 1.0).abs() < 1e-9,
                "item {f}: table row must be a distribution"
            );
        }
    }

    /// U-KRanks via DP equals U-KRanks via enumeration: identical winners
    /// (same tie rule) and probabilities, rank by rank.
    #[test]
    fn dp_u_kranks_equals_enumeration(rel in arb_tie_dense_relation(), k_seed in 0usize..100) {
        let k = 1 + k_seed % rel.len();
        let dp = u_kranks_dp(&rel, k);
        let bf = u_kranks(&rel, k).unwrap();
        prop_assert_eq!(dp.len(), bf.len());
        for (i, (d, b)) in dp.iter().zip(&bf).enumerate() {
            prop_assert!((d.1 - b.1).abs() < 1e-9, "rank {i}: dp {} vs bf {}", d.1, b.1);
            // Winners may only differ when their probabilities tie to
            // within float noise; in that case both must be maximal.
            if d.0 != b.0 {
                prop_assert!(
                    (d.1 - b.1).abs() < 1e-9,
                    "rank {i}: different winners {} vs {} without a tie", d.0, b.0
                );
            }
        }
    }

    /// Canonical set probabilities from the closed form match the world
    /// mass the enumeration oracle accumulates per canonical Top-K set —
    /// and PT-k / membership marginals agree between the two layers.
    #[test]
    fn dp_membership_and_ptk_equal_enumeration(
        rel in arb_tie_dense_relation(),
        k_seed in 0usize..100,
        thresh in 0.0f64..1.0,
    ) {
        let k = 1 + k_seed % rel.len();
        let dp = topk_membership_dp(&rel, k);
        let bf = topk_membership(&rel, k).unwrap();
        for (f, (a, b)) in dp.iter().zip(&bf).enumerate() {
            prop_assert!((a - b).abs() < 1e-9, "item {f}: dp {a} vs bf {b}");
        }
        prop_assert_eq!(
            probabilistic_threshold_topk_dp(&rel, k, thresh),
            probabilistic_threshold_topk(&rel, k, thresh).unwrap()
        );
    }

    /// U-TopK via the candidate-set search equals U-TopK via enumeration:
    /// the winning probabilities match, and the DP's set is itself a
    /// maximiser (on exact ties either lexicographic winner is accepted
    /// from the float-order-sensitive search).
    #[test]
    fn dp_u_topk_equals_enumeration(rel in arb_tie_dense_relation(), k_seed in 0usize..100) {
        let k = 1 + k_seed % rel.len();
        let (dp_set, dp_p) = u_topk_dp(&rel, k);
        let (bf_set, bf_p) = u_topk(&rel, k).unwrap();
        prop_assert!((dp_p - bf_p).abs() < 1e-9, "dp {dp_p} vs bf {bf_p}");
        // The DP's set must achieve the maximal probability under the
        // enumeration oracle's own accounting.
        let dp_set_bf = topk_set_probability(&rel, &dp_set);
        prop_assert!(
            (dp_set_bf - bf_p).abs() < 1e-9,
            "dp set {dp_set:?} scores {dp_set_bf} vs optimum {bf_p} ({bf_set:?})"
        );
        prop_assert_eq!(dp_set.len(), k);
    }

    /// The closed-form canonical set probability sums to 1 over the Top-1
    /// candidates (they partition the worlds), and every value matches the
    /// enumeration-backed U-Top-1 accounting.
    #[test]
    fn dp_set_probabilities_partition_for_top1(rel in arb_tie_dense_relation()) {
        let total: f64 = (0..rel.len())
            .map(|f| topk_set_probability(&rel, &[f]))
            .sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "Σ = {total}");
    }

    /// Truncated expected ranks from the DP table equal
    /// `E[min(rank(f), K)]` accumulated over enumerated worlds.
    #[test]
    fn dp_truncated_expected_ranks_equal_enumeration(
        rel in arb_tie_dense_relation(),
        k_seed in 0usize..100,
    ) {
        let k = 1 + k_seed % rel.len();
        let dp = RankTable::build(&rel, k).truncated_expected_ranks();
        // brute: Σ_worlds Pr(w)·min(rank_w(f), k)
        let n = rel.len();
        let mut brute = vec![0.0f64; n];
        for world in everest::core::pws::enumerate_worlds(&rel).unwrap() {
            let mut ids: Vec<usize> = (0..n).collect();
            ids.sort_by(|&a, &b| world.buckets[b].cmp(&world.buckets[a]).then(a.cmp(&b)));
            for (rank, &f) in ids.iter().enumerate() {
                brute[f] += world.prob * rank.min(k) as f64;
            }
        }
        for (f, (a, b)) in dp.iter().zip(&brute).enumerate() {
            prop_assert!((a - b).abs() < 1e-9, "item {f}: dp {a} vs brute {b}");
        }
    }
}

/// The acceptance-scale smoke test: a 200-item relation (≈ 5²⁰⁰ worlds)
/// that only the DP layer can evaluate, well under a second.
#[test]
fn dp_semantics_evaluate_200_items_quickly() {
    let n = 200;
    let max_b = 600;
    let mut rel = UncertainRelation::new(1.0, max_b);
    for i in 0..n {
        // Distinct strengths (center 3·i) with ±2-bucket supports, so
        // neighbours genuinely overlap but no two items are identical.
        let center = (3 * i) as f64;
        let masses: Vec<f64> = (0..=max_b)
            .map(|b| {
                let d = (b as f64 - center).abs();
                if d > 2.0 {
                    0.0
                } else {
                    (-d / 0.8).exp()
                }
            })
            .collect();
        rel.push_uncertain(DiscreteDist::from_masses(&masses));
    }
    assert!(
        everest::core::pws::enumerate_worlds(&rel).is_err(),
        "the enumeration oracle must refuse this relation"
    );

    let k = 10;
    #[expect(clippy::disallowed_methods, reason = "test timing")]
    let started = std::time::Instant::now();
    let table = RankTable::build(&rel, k);
    let (set, p) = u_topk_dp(&rel, k);
    let ranks = u_kranks_dp(&rel, k);
    let ptk = probabilistic_threshold_topk_dp(&rel, k, 0.5);
    let elapsed = started.elapsed();

    assert!(
        elapsed < std::time::Duration::from_secs(1),
        "DP semantics took {elapsed:?} on 200 items"
    );
    assert_eq!(set.len(), k);
    assert!(p > 0.0 && p <= 1.0);
    assert_eq!(ranks.len(), k);
    assert!(!ptk.is_empty(), "strong items must clear PT-k at 0.5");
    let member_sum: f64 = table.memberships().iter().sum();
    assert!(
        (member_sum - k as f64).abs() < 1e-6,
        "Σ membership = {member_sum}"
    );
    // The U-TopK winner's members must each clear their own membership.
    for &f in &set {
        assert!(table.membership(f) >= p - 1e-9);
    }
}
