//! Failure injection and degenerate-input tests: the cleaner and skyline
//! loops must terminate and keep their structural invariants even when
//! the proxy model is garbage, scores tie everywhere, or parameters sit
//! at the edges of their ranges.

use everest::core::budget::Termination;
use everest::core::cleaner::{run_cleaner, CleanerConfig, CleaningOracle, FnCleaningOracle};
use everest::core::dist::DiscreteDist;
use everest::core::skyline::{run_skyline_cleaner, SkylineConfig, VectorRelation};
use everest::core::xtuple::{ItemId, UncertainRelation};
use everest::models::OracleError;

const MAX_B: usize = 10;

/// Truth table used throughout: item i's exact bucket.
fn truth(n: usize) -> Vec<u32> {
    (0..n).map(|i| ((i * 7 + 3) % (MAX_B + 1)) as u32).collect()
}

fn exact_topk(truth: &[u32], k: usize) -> Vec<ItemId> {
    let mut ids: Vec<ItemId> = (0..truth.len()).collect();
    ids.sort_by(|&a, &b| truth[b].cmp(&truth[a]).then(a.cmp(&b)));
    ids.truncate(k);
    ids
}

/// A proxy that is *systematically wrong*: every item's distribution is a
/// near-point mass on the WRONG bucket (inverted scale).
fn adversarial_relation(truth: &[u32]) -> UncertainRelation {
    let mut rel = UncertainRelation::new(1.0, MAX_B);
    for &t in truth {
        let wrong = MAX_B as u32 - t; // inverted
        let mut masses = vec![0.001; MAX_B + 1]; // keep full support
        masses[wrong as usize] = 1.0;
        rel.push_uncertain(DiscreteDist::from_masses(&masses));
    }
    rel
}

#[test]
fn cleaner_survives_a_lying_proxy() {
    let n = 60;
    let t = truth(n);
    let mut rel = adversarial_relation(&t);
    let mut oracle = FnCleaningOracle(|id: ItemId| t[id]);
    let cfg = CleanerConfig {
        k: 5,
        thres: 0.9,
        ..Default::default()
    };
    let out = run_cleaner(&mut rel, &mut oracle, &cfg);

    // Must terminate, converge (w.r.t. the *modeled* relation), and
    // return 5 certain items.
    assert!(out.converged);
    assert!(out.confidence >= 0.9);
    assert_eq!(out.topk.len(), 5);
    for &id in &out.topk {
        assert!(rel.is_certain(id), "certain-result condition");
        assert_eq!(rel.certain_bucket(id).unwrap(), t[id], "oracle scores only");
    }
    // IMPORTANT CAVEAT (documented, not a bug): the probabilistic
    // guarantee is *with respect to the modeled distributions*. A lying
    // proxy can drive the claimed confidence above thres while the answer
    // misses true top frames — the paper's guarantee presumes a CMDN
    // whose truncated support covers the truth. `tests/guarantee.rs`
    // verifies the statistical guarantee under calibrated proxies; this
    // test pins down the conditionality.
    let exact = exact_topk(&t, 5);
    let kth = t[*exact.last().unwrap()];
    let hits = out.topk.iter().filter(|&&id| t[id] >= kth).count();
    assert!(
        hits < 5,
        "a fully-inverted proxy should actually fool the engine here \
         (if this starts passing, the test setup lost its teeth)"
    );
}

#[test]
fn lying_proxy_costs_work_but_not_correctness() {
    // The same query with an honest proxy cleans far fewer items.
    let n = 60;
    let t = truth(n);

    let mut lying = adversarial_relation(&t);
    let mut honest = UncertainRelation::new(1.0, MAX_B);
    for &b in &t {
        let mut masses = vec![0.001; MAX_B + 1];
        masses[b as usize] = 1.0;
        honest.push_uncertain(DiscreteDist::from_masses(&masses));
    }
    let cfg = CleanerConfig {
        k: 5,
        thres: 0.9,
        ..Default::default()
    };
    let mut o1 = FnCleaningOracle(|id: ItemId| t[id]);
    let out_lying = run_cleaner(&mut lying, &mut o1, &cfg);
    let mut o2 = FnCleaningOracle(|id: ItemId| t[id]);
    let out_honest = run_cleaner(&mut honest, &mut o2, &cfg);

    assert!(out_honest.cleaned <= out_lying.cleaned);
    // the honest proxy's answer is exactly right (its point masses are
    // calibrated), and it needs only about K cleanings
    let kth = t[*exact_topk(&t, 5).last().unwrap()];
    for &id in &out_honest.topk {
        assert!(t[id] >= kth);
    }
    assert!(
        out_honest.cleaned <= 10,
        "honest proxy cleaned {}",
        out_honest.cleaned
    );
}

#[test]
fn all_ties_relation_terminates() {
    // Every item has the same score: any K certain items are a valid
    // answer, and the threshold is reached once ties stop mattering
    // (frames tying the threshold are allowed by Eq. 2's ≤).
    let n = 40;
    let mut rel = UncertainRelation::new(1.0, MAX_B);
    for _ in 0..n {
        let mut masses = vec![0.0; MAX_B + 1];
        masses[4] = 0.8;
        masses[5] = 0.2;
        rel.push_uncertain(DiscreteDist::from_masses(&masses));
    }
    let mut oracle = FnCleaningOracle(|_| 4u32);
    let out = run_cleaner(
        &mut rel,
        &mut oracle,
        &CleanerConfig {
            k: 10,
            thres: 0.95,
            ..Default::default()
        },
    );
    assert!(out.converged);
    assert_eq!(out.topk.len(), 10);
    assert!(out.cleaned <= n);
}

#[test]
fn k_equals_n_cleans_everything_and_reaches_certainty() {
    let n = 25;
    let t = truth(n);
    let mut rel = adversarial_relation(&t);
    let mut oracle = FnCleaningOracle(|id: ItemId| t[id]);
    let out = run_cleaner(
        &mut rel,
        &mut oracle,
        &CleanerConfig {
            k: n,
            thres: 0.99,
            ..Default::default()
        },
    );
    assert!(out.converged);
    assert_eq!(out.topk.len(), n);
    assert_eq!(out.cleaned, n, "K = n forces full cleaning");
    assert_eq!(out.confidence, 1.0, "no uncertainty remains");
}

#[test]
fn k_equals_one_with_extreme_threshold() {
    let n = 50;
    let t = truth(n);
    let mut rel = adversarial_relation(&t);
    let mut oracle = FnCleaningOracle(|id: ItemId| t[id]);
    let out = run_cleaner(
        &mut rel,
        &mut oracle,
        &CleanerConfig {
            k: 1,
            thres: 0.999,
            ..Default::default()
        },
    );
    assert!(out.converged);
    assert!(out.confidence >= 0.999);
    assert_eq!(t[out.topk[0]], *t.iter().max().unwrap());
}

#[test]
fn max_cleanings_zero_reports_non_convergence_immediately() {
    let n = 30;
    let t = truth(n);
    let mut rel = adversarial_relation(&t);
    let mut oracle = FnCleaningOracle(|_| panic!("budget 0 must never call the oracle"));
    let out = run_cleaner(
        &mut rel,
        &mut oracle,
        &CleanerConfig {
            k: 3,
            thres: 0.9,
            max_cleanings: Some(0),
            ..Default::default()
        },
    );
    assert!(!out.converged);
    assert_eq!(out.cleaned, 0);
}

#[test]
fn batch_size_larger_than_relation_is_safe() {
    let n = 10;
    let t = truth(n);
    let mut rel = adversarial_relation(&t);
    let mut oracle = FnCleaningOracle(|id: ItemId| t[id]);
    let out = run_cleaner(
        &mut rel,
        &mut oracle,
        &CleanerConfig {
            k: 2,
            thres: 0.9,
            batch_size: 1_000,
            ..Default::default()
        },
    );
    assert!(out.converged);
    assert!(out.cleaned <= n);
}

// ---- skyline under attack ----

struct TableSkyOracle {
    truth: Vec<[u32; 2]>,
}

impl CleaningOracle<[u32; 2]> for TableSkyOracle {
    fn try_clean_batch(&mut self, items: &[ItemId]) -> Result<Vec<[u32; 2]>, OracleError> {
        Ok(items.iter().map(|&i| self.truth[i]).collect())
    }
}

#[test]
fn skyline_survives_a_lying_proxy() {
    let n = 30;
    let max_b = 6usize;
    let truth: Vec<[u32; 2]> = (0..n)
        .map(|i| {
            [
                ((i * 5 + 1) % (max_b + 1)) as u32,
                ((i * 3 + 2) % (max_b + 1)) as u32,
            ]
        })
        .collect();
    let mut rel = VectorRelation::new([max_b, max_b]);
    for v in &truth {
        // inverted near-point masses with full support
        let dist = |wrong: u32| {
            let mut masses = vec![0.002; max_b + 1];
            masses[wrong as usize] = 1.0;
            DiscreteDist::from_masses(&masses)
        };
        rel.push_uncertain([dist(max_b as u32 - v[0]), dist(max_b as u32 - v[1])]);
    }
    let mut oracle = TableSkyOracle {
        truth: truth.clone(),
    };
    let out = run_skyline_cleaner(
        &mut rel,
        &mut oracle,
        &SkylineConfig {
            thres: 0.9,
            batch_size: 4,
            ..Default::default()
        },
    );
    assert_eq!(out.termination, Termination::Converged);
    assert!(out.confidence >= 0.9);
    // no returned member may be dominated by ANY true vector
    for &id in &out.skyline {
        for v in &truth {
            assert!(
                !everest::core::skyline::dominates(v, &truth[id]),
                "answer member {id} is dominated under ground truth"
            );
        }
    }
}

#[test]
fn window_oracle_clamps_out_of_grid_scores() {
    use everest::core::cleaner::CleaningOracle;
    use everest::core::window::{sliding_windows, WindowCleaningOracle};
    use everest::models::ExactScoreOracle;

    // Scores far beyond the bucket grid must clamp, not panic.
    let scores: Vec<f64> = (0..30).map(|i| 1e6 + i as f64).collect();
    let oracle = ExactScoreOracle::new("huge", scores, 0.01);
    let ws = sliding_windows(30, 10, 10);
    let mut wo = WindowCleaningOracle::new(&oracle, &ws, 1.0, 1.0, 8, 1);
    let buckets = wo.clean_batch(&[0, 1, 2]);
    assert!(
        buckets.iter().all(|&b| b == 8),
        "clamped to max bucket: {buckets:?}"
    );
}

#[test]
fn negative_scores_clamp_to_bucket_zero() {
    use everest::core::cleaner::CleaningOracle;
    use everest::core::window::{sliding_windows, WindowCleaningOracle};
    use everest::models::ExactScoreOracle;

    let scores: Vec<f64> = (0..20).map(|i| -5.0 - i as f64).collect();
    let oracle = ExactScoreOracle::new("negative", scores, 0.01);
    let ws = sliding_windows(20, 5, 5);
    let mut wo = WindowCleaningOracle::new(&oracle, &ws, 1.0, 1.0, 8, 1);
    let buckets = wo.clean_batch(&[0, 1]);
    assert!(
        buckets.iter().all(|&b| b == 0),
        "clamped to zero: {buckets:?}"
    );
}
