//! Property tests: the fast confidence path (Eq. 2 via the incremental
//! joint CDF) and the closed-form Eq. 1 evaluation
//! (`topkprob::topk_confidence`) are equivalent to brute-force
//! possible-world semantics (Eq. 1 by enumeration) on arbitrary
//! relations, including under arbitrary cleaning sequences.

use everest::core::dist::DiscreteDist;
use everest::core::pws::{count_worlds, enumerate_worlds, topk_confidence_bruteforce, MAX_WORLDS};
use everest::core::topkprob::{topk_confidence, topk_prob, topk_prob_naive, JointCdf};
use everest::core::xtuple::UncertainRelation;
use proptest::prelude::*;

const MAX_BUCKET: usize = 3;

/// Strategy: random distribution over MAX_BUCKET+1 buckets.
fn arb_dist() -> impl Strategy<Value = DiscreteDist> {
    proptest::collection::vec(0.0f64..1.0, MAX_BUCKET + 1).prop_filter_map(
        "needs positive mass",
        |mut masses| {
            // round masses so ties and zeros occur often
            for m in &mut masses {
                *m = (*m * 4.0).round() / 4.0;
            }
            if masses.iter().sum::<f64>() > 0.0 {
                Some(DiscreteDist::from_masses(&masses))
            } else {
                None
            }
        },
    )
}

/// Strategy: a relation of 2–6 items, first `n_certain` of them certain.
fn arb_relation() -> impl Strategy<Value = UncertainRelation> {
    (
        proptest::collection::vec(arb_dist(), 2..6),
        proptest::collection::vec(0u32..=MAX_BUCKET as u32, 0..3),
    )
        .prop_map(|(dists, certains)| {
            let mut rel = UncertainRelation::new(1.0, MAX_BUCKET);
            for b in certains {
                rel.push_certain(b);
            }
            for d in dists {
                rel.push_uncertain(d);
            }
            rel
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Eq. 2's joint-CDF evaluation equals the naive CDF product.
    #[test]
    fn joint_cdf_matches_naive_product(rel in arb_relation()) {
        let h = JointCdf::build(&rel);
        for t in 0..=MAX_BUCKET {
            let fast = h.value(t);
            let naive = topk_prob_naive(&rel, t);
            prop_assert!((fast - naive).abs() < 1e-9, "t={t}: {fast} vs {naive}");
        }
    }

    /// After cleaning every item to an arbitrary bucket (one at a time, in
    /// arbitrary order), the incremental joint CDF still matches a rebuild.
    #[test]
    fn incremental_updates_match_rebuild(
        rel in arb_relation(),
        picks in proptest::collection::vec((0usize..6, 0u32..=MAX_BUCKET as u32), 1..6),
    ) {
        let mut rel = rel;
        let mut h = JointCdf::build(&rel);
        for (raw_id, bucket) in picks {
            let uncertain = rel.uncertain_ids();
            if uncertain.is_empty() { break; }
            let id = uncertain[raw_id % uncertain.len()];
            let old = rel.clean(id, bucket);
            h.remove(&old);
            let rebuilt = JointCdf::build(&rel);
            for t in 0..=MAX_BUCKET {
                prop_assert!((h.value(t) - rebuilt.value(t)).abs() < 1e-9);
            }
            prop_assert_eq!(h.members(), rebuilt.members());
        }
    }

    /// The certain-result fast path (Eq. 2) agrees with brute-force PWS
    /// (Eq. 1) for the Top-K drawn from the certain subset.
    #[test]
    fn fast_confidence_equals_bruteforce(
        rel in arb_relation(),
        k in 1usize..3,
    ) {
        // Build the certain Top-K (bucket desc, id asc).
        let mut certain: Vec<(u32, usize)> = rel
            .certain_ids()
            .into_iter()
            .map(|id| (rel.certain_bucket(id).unwrap(), id))
            .collect();
        certain.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        prop_assume!(certain.len() >= k);
        let answer: Vec<usize> = certain.iter().take(k).map(|&(_, id)| id).collect();
        let s_k = certain[k - 1].0 as usize;

        let h = JointCdf::build(&rel);
        let fast = topk_prob(&h, s_k);
        let brute = topk_confidence_bruteforce(&rel, &answer, k).unwrap();
        prop_assert!((fast - brute).abs() < 1e-9, "fast {fast} vs brute {brute}");
        // The closed-form Eq. 1 evaluation agrees with both.
        let closed = topk_confidence(&rel, &answer, k);
        prop_assert!((closed - brute).abs() < 1e-9, "closed {closed} vs brute {brute}");
    }

    /// The closed-form Eq. 1 confidence (`topkprob::topk_confidence`)
    /// equals enumeration for *arbitrary* answers — certain or uncertain
    /// members, any composition (not just the certain-result fast path).
    #[test]
    fn closed_form_confidence_equals_bruteforce(
        rel in arb_relation(),
        pick in proptest::collection::vec(0usize..6, 1..4),
    ) {
        // Derive a deterministic answer set of size ≤ n from the picks.
        let mut answer: Vec<usize> = pick.iter().map(|&p| p % rel.len()).collect();
        answer.sort_unstable();
        answer.dedup();
        let k = answer.len();
        let closed = topk_confidence(&rel, &answer, k);
        let brute = topk_confidence_bruteforce(&rel, &answer, k).unwrap();
        prop_assert!(
            (closed - brute).abs() < 1e-9,
            "answer {answer:?}: closed {closed} vs brute {brute}"
        );
    }

    /// Confidence is monotone in the threshold bucket.
    #[test]
    fn confidence_monotone_in_threshold(rel in arb_relation()) {
        let h = JointCdf::build(&rel);
        let mut prev = 0.0;
        for t in 0..=MAX_BUCKET {
            let v = h.value(t);
            prop_assert!(v >= prev - 1e-12);
            prev = v;
        }
        prop_assert!((h.value(MAX_BUCKET) - 1.0).abs() < 1e-9);
    }
}

/// Oversized relations: enumeration refuses with a typed error while the
/// closed-form Eq. 1 path still answers (the graceful-degradation story).
#[test]
fn oversized_relation_degrades_to_closed_form() {
    let mut rel = UncertainRelation::new(1.0, 9);
    let masses = vec![0.1; 10];
    for _ in 0..30 {
        rel.push_uncertain(DiscreteDist::from_masses(&masses));
    }
    assert!(count_worlds(&rel) > MAX_WORLDS);
    let err = enumerate_worlds(&rel).expect_err("guard must trip");
    assert!(err.to_string().contains("too large"));
    assert!(topk_confidence_bruteforce(&rel, &[0, 1], 2).is_err());
    // The closed form is exact and instant on the same relation.
    let p = topk_confidence(&rel, &[0, 1], 2);
    assert!((0.0..=1.0).contains(&p));
    // 30 iid items: by symmetry the Top-2 confidence of any pair is small.
    assert!(p < 0.1, "iid pair confidence {p}");
}
