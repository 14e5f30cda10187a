//! Property tests for `Select-candidate` (Eq. 4–8) and the window
//! approximation (Eq. 9): the invariants the paper's derivations rely on.

use everest::core::dist::DiscreteDist;
use everest::core::select::{expected_confidence, psi};
use everest::core::topkprob::JointCdf;
use everest::core::xtuple::UncertainRelation;
use everest::nn::mixture::{Component, GaussianMixture};
use proptest::prelude::*;

const MAX_BUCKET: usize = 5;

fn arb_dist() -> impl Strategy<Value = DiscreteDist> {
    proptest::collection::vec(0.0f64..1.0, MAX_BUCKET + 1).prop_filter_map(
        "positive mass",
        |masses| {
            if masses.iter().sum::<f64>() > 1e-9 {
                Some(DiscreteDist::from_masses(&masses))
            } else {
                None
            }
        },
    )
}

fn arb_relation() -> impl Strategy<Value = UncertainRelation> {
    (
        proptest::collection::vec(arb_dist(), 2..7),
        proptest::collection::vec(0u32..=MAX_BUCKET as u32, 2..5),
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
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The ψ-based upper bound (Eq. 7) dominates E[X_f], and E[X_f] never
    /// falls below the current confidence (cleaning can only help, in
    /// expectation) nor exceeds 1.
    #[test]
    fn upper_bound_dominates_expected_confidence(
        rel in arb_relation(),
        s_k in 0usize..MAX_BUCKET,
    ) {
        let s_p = (s_k + 1).min(MAX_BUCKET);
        let h = JointCdf::build(&rel);
        let p_hat = h.value(s_k);
        let gamma = h.value(s_p);
        for id in rel.uncertain_ids() {
            let d = rel.dist(id).unwrap();
            let e = expected_confidence(d, &h, s_k, s_p);
            prop_assert!(e >= p_hat - 1e-12, "E < p̂ for item {id}: {e} < {p_hat}");
            prop_assert!(e <= 1.0 + 1e-12, "E > 1 for item {id}: {e}");
            let bound = {
                let ps = psi(d, s_k, s_p);
                if ps.is_infinite() { f64::INFINITY } else { p_hat + gamma * ps }
            };
            prop_assert!(
                bound >= e - 1e-9,
                "bound violated for item {id}: U = {bound} < E = {e}"
            );
        }
    }

    /// ψ is monotone: growing thresholds can only shrink the sort factor
    /// (the property that keeps stale-ψ upper bounds valid, §3.3.2).
    #[test]
    fn psi_monotone_under_threshold_growth(d in arb_dist()) {
        for s_k in 0..MAX_BUCKET {
            for s_p in s_k..MAX_BUCKET {
                let now = psi(&d, s_k, s_p);
                let later = psi(&d, s_k + 1, s_p + 1);
                prop_assert!(
                    later <= now || (later.is_infinite() && now.is_infinite()),
                    "ψ grew: ψ({},{}) = {now} < ψ({},{}) = {later}",
                    s_k, s_p, s_k + 1, s_p + 1
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Eq. 9's window moments match Monte-Carlo simulation of the
    /// generative story it assumes (segments share their representative's
    /// score; segments independent).
    #[test]
    fn eq9_window_moments_match_monte_carlo(
        seg_means in proptest::collection::vec(0.5f64..8.0, 2..5),
        seed in 0u64..1000,
    ) {
        use rand::{Rng, SeedableRng};
        let seg_size = 10usize;
        let l = (seg_means.len() * seg_size) as f64;
        let mixtures: Vec<GaussianMixture> = seg_means
            .iter()
            .map(|&m| GaussianMixture::new(vec![
                Component { weight: 0.6, mean: m, std: 0.5 },
                Component { weight: 0.4, mean: m + 1.0, std: 1.0 },
            ]))
            .collect();

        // Eq. 9 moments.
        let mean9: f64 =
            mixtures.iter().map(|m| seg_size as f64 * m.mean() / l).sum();
        let var9: f64 =
            mixtures.iter().map(|m| seg_size as f64 * m.variance() / l).sum();

        // Monte-Carlo of the assumed generative story.
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let trials = 20_000;
        let mut sum = 0.0;
        let mut sumsq = 0.0;
        for _ in 0..trials {
            let mut w = 0.0;
            for m in &mixtures {
                // sample one component, then a gaussian within it
                let u: f64 = rng.gen();
                let c = if u < 0.6 { m.components()[0] } else { m.components()[1] };
                let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                let u2: f64 = rng.gen();
                let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                let s = c.mean + c.std * z;
                w += seg_size as f64 * s / l;
            }
            sum += w;
            sumsq += w * w;
        }
        let mc_mean = sum / trials as f64;
        let mc_var = sumsq / trials as f64 - mc_mean * mc_mean;
        prop_assert!((mean9 - mc_mean).abs() < 0.05, "mean: {mean9} vs {mc_mean}");
        // Eq. 9 as printed uses (1/L)Σ|s|σ̄², which for equal segments of
        // size |s| is |s|/L × Σσ̄² — i.e. (#segments × |s|²/L²) × avg σ².
        // The Monte-Carlo variance of the generative story is
        // (1/L²)Σ|s|²σ̄². Their ratio is exactly L/|s| (= #segments here):
        // Eq. 9 is conservative by that factor. Verify both the MC value
        // and the documented relationship.
        let exact_var: f64 = mixtures
            .iter()
            .map(|m| (seg_size * seg_size) as f64 * m.variance() / (l * l))
            .sum();
        prop_assert!((exact_var - mc_var).abs() < 0.1 * exact_var.max(0.05),
            "exact var {exact_var} vs MC {mc_var}");
        prop_assert!(var9 >= exact_var - 1e-9, "Eq. 9 must be conservative");
    }
}
