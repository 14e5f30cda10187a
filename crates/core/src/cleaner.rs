//! Phase 2: Top-K processing via online, oracle-in-the-loop uncertain data
//! cleaning (§3.3, Figure 1 right).
//!
//! Starting from the Phase-1 uncertain relation, the cleaner repeatedly
//! (i) extracts the Top-K of the *certain* subset (certain-result
//! condition), (ii) evaluates its confidence `p̂` with `Topk-prob`, and
//! (iii) if `p̂ < thres`, asks `Select-candidate` for the most promising
//! batch of uncertain items and confirms their exact scores with the
//! oracle. Termination is guaranteed: cleaning strictly shrinks the
//! uncertain set and a fully-certain relation has confidence 1.
//!
//! There is one such loop, the crate-private `drive`, generic over the
//! `Answer` being certified — what its confidence is, which uncertain
//! items to confirm next, and how a confirmed item is retired.
//! [`run_cleaner`] certifies a Top-K over an [`UncertainRelation`] (frame
//! and window queries), [`crate::stream::StreamTopK`] a Top-K over its
//! active window once per emit (the two share `TopKState`), and
//! [`crate::skyline::run_skyline_cleaner`] a skyline.

use crate::budget::{QueryBudget, Termination};
use crate::select::{CandidateSelector, SelectStats};
use crate::topkprob::{topk_prob, JointCdf};
use crate::xtuple::{ItemId, UncertainRelation};
use everest_models::OracleError;
use std::cmp::Reverse;
use std::collections::BTreeSet;

/// Resolves an item's exact value `V` (by running the expensive oracle):
/// its score bucket for Top-K, its bucket vector for a skyline.
///
/// Frame-level queries clean one frame per item; window queries sample a
/// fraction of the window's frames (§3.4). Implementations track their own
/// oracle-invocation counts for cost accounting.
pub trait CleaningOracle<V = u32> {
    /// Exact values for `items`, in order. This is the path `drive`
    /// takes: an oracle failure ends its loop with
    /// [`Termination::OracleDown`] and the answer confirmed so far.
    fn try_clean_batch(&mut self, items: &[ItemId]) -> Result<Vec<V>, OracleError>;

    /// [`CleaningOracle::try_clean_batch`] for callers with no degraded
    /// answer to give; no engine path calls it.
    ///
    /// # Panics
    /// When the oracle call fails.
    fn clean_batch(&mut self, items: &[ItemId]) -> Vec<V> {
        self.try_clean_batch(items)
            .unwrap_or_else(|e| panic!("cleaning oracle: {e}"))
    }

    /// Simulated seconds this oracle has consumed so far (scoring cost
    /// plus fault/backoff overhead). The cleaner's deadline check reads
    /// this between batches. Default: not accounted (deadlines never
    /// fire).
    fn sim_seconds_spent(&self) -> f64 {
        0.0
    }
}

/// A `CleaningOracle` backed by a closure (used by tests and simple setups).
pub struct FnCleaningOracle<F: FnMut(ItemId) -> u32>(pub F);

impl<F: FnMut(ItemId) -> u32> CleaningOracle for FnCleaningOracle<F> {
    fn try_clean_batch(&mut self, items: &[ItemId]) -> Result<Vec<u32>, OracleError> {
        Ok(items.iter().map(|&i| (self.0)(i)).collect())
    }
}

/// Phase-2 configuration.
#[derive(Debug, Clone)]
pub struct CleanerConfig {
    /// Result size K (default 50, the paper's default query).
    pub k: usize,
    /// Probability threshold `thres` (default 0.9).
    pub thres: f64,
    /// Batch-inference size `b` (§3.5; the paper measures b = 8 on their GPU).
    pub batch_size: usize,
    /// ψ re-sort period for the first 100 iterations (§3.3.2; 10).
    pub resort_period: usize,
    /// Optional hard cap on cleanings (diagnostics only; `None` = run to
    /// the guarantee). A cap is enforced strictly — it bounds the
    /// bootstrap too, so a capped run may return *fewer than K* items
    /// (with `converged = false`).
    pub max_cleanings: Option<usize>,
    /// Query-level limits: oracle-call cap, simulated-seconds deadline,
    /// cooperative cancellation. Checked between cleaning batches; the
    /// default is unlimited. A call cap here and `max_cleanings` compose
    /// (the tighter one wins).
    pub budget: QueryBudget,
}

impl Default for CleanerConfig {
    fn default() -> Self {
        CleanerConfig {
            k: 50,
            thres: 0.9,
            batch_size: 8,
            resort_period: 10,
            max_cleanings: None,
            budget: QueryBudget::unlimited(),
        }
    }
}

/// Result of a Phase-2 run.
#[derive(Debug, Clone)]
pub struct CleanOutcome {
    /// The Top-K item ids, ordered by (bucket desc, id asc). All certain.
    pub topk: Vec<ItemId>,
    /// The same Top-K as `(id, confirmed bucket)` rows.
    pub rows: Vec<(ItemId, u32)>,
    /// Final confidence `p̂ = Pr(R̂ = R)` under PWS.
    pub confidence: f64,
    /// Select-clean iterations executed.
    pub iterations: usize,
    /// Items cleaned during Phase 2 (excludes items certain on entry).
    pub cleaned: usize,
    /// Whether the confidence target was met (equivalent to
    /// `termination == Termination::Converged`).
    pub converged: bool,
    /// Why the run stopped. Anything but `Converged` marks a *degraded*
    /// answer: still the exact certain Top-K under the posterior, with
    /// its honest achieved confidence.
    pub termination: Termination,
    /// Selector statistics (examined counts, resorts).
    pub select_stats: SelectStats,
}

/// The Top-K state of §3.3 and the decisions derived from it. The batch
/// engine builds one per query; [`crate::stream::StreamTopK`] keeps one
/// alive across emits, adding and expiring frames between runs of
/// [`drive`].
#[derive(Debug)]
pub(crate) struct TopKState {
    /// Joint CDF over the currently-uncertain items.
    pub(crate) h: JointCdf,
    /// Certain items ordered by (bucket desc, id asc). Its first K entries
    /// are the certain Top-K; the batch engine leaves out confirmations
    /// below `S_k`, which can never reach them.
    pub(crate) certain: BTreeSet<(Reverse<u32>, ItemId)>,
    /// Result size K.
    pub(crate) k: usize,
}

/// What a Top-K answer needs confirmed next.
pub(crate) enum Want {
    /// Fewer than K items are certain; `missing` more are needed before
    /// an answer exists.
    Bootstrap { missing: usize },
    /// `p̂ < thres` at the current thresholds.
    Boundary { s_k: usize, s_p: usize },
}

impl TopKState {
    /// Threshold bucket `S_k` (K-th certain item) and penultimate bucket
    /// `S_p` ((K−1)-th; the grid maximum when K = 1, where any score above
    /// `S_k` becomes the new threshold). `None` until K items are certain:
    /// the certain-result condition has no answer yet.
    fn thresholds(&self) -> Option<(usize, usize)> {
        let mut ranked = self.certain.iter().map(|&(Reverse(b), _)| b as usize);
        if self.k == 1 {
            return Some((ranked.next()?, self.h.num_buckets() - 1));
        }
        let s_p = ranked.nth(self.k - 2)?;
        Some((ranked.next()?, s_p))
    }

    /// [`Answer::assess`] of a Top-K: Eq. 2 at the current thresholds.
    pub(crate) fn assess(&self) -> (Option<f64>, Want) {
        self.assess_at(self.thresholds())
    }

    /// [`Self::assess`] given `thresholds`, which must be
    /// [`Self::thresholds`].
    fn assess_at(&self, thresholds: Option<(usize, usize)>) -> (Option<f64>, Want) {
        match thresholds {
            Some((s_k, s_p)) => (Some(topk_prob(&self.h, s_k)), Want::Boundary { s_k, s_p }),
            None => (
                None,
                Want::Bootstrap {
                    missing: self.k - self.certain.len(),
                },
            ),
        }
    }

    /// The certain Top-K as `(id, bucket)` rows, best first; fewer than K
    /// rows when the run stopped before K items were certain.
    pub(crate) fn topk(&self) -> impl Iterator<Item = (ItemId, u32)> + '_ {
        self.certain
            .iter()
            .take(self.k)
            .map(|&(Reverse(b), id)| (id, b))
    }
}

/// What the §3.3 loop is certifying: an answer read off the certain
/// items, its confidence, and the uncertain items standing in its way.
pub(crate) trait Answer {
    /// What the oracle confirms about one item.
    type Value;
    /// What `assess` found lacking, for `pick` to act on.
    type Want;

    /// The certain answer's confidence (`None` while there are too few
    /// certain items for an answer to exist) and what would raise it.
    fn assess(&self) -> (Option<f64>, Self::Want);

    /// Between 1 and `room` uncertain items to confirm next.
    fn pick(&mut self, want: Self::Want, room: usize) -> Vec<ItemId>;

    /// Records `id`'s confirmed value.
    fn retire(&mut self, id: ItemId, value: Self::Value);
}

/// How a run of [`drive`] ended.
pub(crate) struct Driven {
    pub(crate) termination: Termination,
    /// `p̂` of the certain answer: 0 while none exists, 1 once nothing is
    /// left uncertain.
    pub(crate) confidence: f64,
    pub(crate) iterations: usize,
    pub(crate) cleaned: usize,
}

/// The §3.3 loop: while the certain answer's confidence is below `thres`
/// and the limits leave room, confirm what the answer picks. The limits
/// are `budget` — against which `prior_calls` oracle calls were already
/// charged before this run — and `cap`, the caller's own cap on this
/// run's confirmations.
///
/// The stop rule is checked before the limits, so an answer that already
/// meets `thres` is never reported degraded. A failed batch leaves the
/// answer untouched (the oracle scored nothing), so every exit returns a
/// consistent anytime answer with its honest achieved confidence.
pub(crate) fn drive<A: Answer>(
    answer: &mut A,
    oracle: &mut dyn CleaningOracle<A::Value>,
    thres: f64,
    budget: &QueryBudget,
    prior_calls: usize,
    cap: Option<usize>,
) -> Driven {
    let mut iterations = 0usize;
    let mut cleaned = 0usize;
    let mut confidence = 0.0;
    let termination = loop {
        let (assessed, want) = answer.assess();
        if let Some(p) = assessed {
            confidence = p;
            if confidence >= thres {
                break Termination::Converged;
            }
        }
        let room = match budget.room(
            oracle.sim_seconds_spent(),
            prior_calls + cleaned,
            cap.map(|c| c.saturating_sub(cleaned)),
        ) {
            Ok(room) => room,
            Err(why) => break why,
        };
        let picks = answer.pick(want, room);
        assert!(!picks.is_empty(), "nothing left to confirm below thres");
        let Ok(values) = oracle.try_clean_batch(&picks) else {
            break Termination::OracleDown;
        };
        assert_eq!(values.len(), picks.len(), "oracle must answer the batch");
        for (&id, value) in picks.iter().zip(values) {
            answer.retire(id, value);
        }
        cleaned += picks.len();
        iterations += 1;
    };
    Driven {
        termination,
        confidence,
        iterations,
        cleaned,
    }
}

/// The batch Top-K: bootstrap with the highest-mean items in one batch,
/// then lazy-ψ `Select-candidate` batches over the relation.
///
/// Items are only ever added to the certain set, so `S_k` never falls:
/// picking at `S_k` floors the joint CDF there, the thresholds are walked
/// again only when a confirmation can move them, and a confirmation below
/// `S_k` stays out of `state.certain`, since it can never rank into the
/// Top-K.
struct RelationTopK<'a> {
    state: TopKState,
    /// `state.thresholds()`.
    thresholds: Option<(usize, usize)>,
    rel: &'a mut UncertainRelation,
    selector: CandidateSelector,
    batch_size: usize,
}

impl Answer for RelationTopK<'_> {
    type Value = u32;
    type Want = Want;

    fn assess(&self) -> (Option<f64>, Want) {
        self.state.assess_at(self.thresholds)
    }

    fn pick(&mut self, want: Want, room: usize) -> Vec<ItemId> {
        match want {
            Want::Bootstrap { missing } => {
                let rel = &*self.rel;
                let mut by_mean: Vec<(f64, ItemId)> = (0..rel.len())
                    .filter_map(|id| rel.dist(id).map(|d| (d.mean_bucket(), id)))
                    .collect();
                // Descending mean, ties by ascending id: a strict total
                // order, so the unstable sort is deterministic.
                by_mean.sort_unstable_by(|a, b| {
                    b.0.partial_cmp(&a.0)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.1.cmp(&b.1))
                });
                by_mean.truncate(missing.min(room));
                by_mean.into_iter().map(|(_, id)| id).collect()
            }
            Want::Boundary { s_k, s_p } => {
                // Every later read of `h` is at or above this `S_k`.
                self.state.h.raise_floor(s_k);
                let batch = self.batch_size.min(self.rel.num_uncertain()).min(room);
                let h = &self.state.h;
                self.selector.select_batch(self.rel, h, s_k, s_p, batch)
            }
        }
    }

    fn retire(&mut self, id: ItemId, bucket: u32) {
        self.state.h.remove(&self.rel.clean(id, bucket));
        let at = bucket as usize;
        // `S_k` never falls, so a bucket below it never ranks into the
        // Top-K. One at `S_k` may: a smaller id there displaces the K-th
        // row.
        if self.thresholds.is_none_or(|(s_k, _)| at >= s_k) {
            self.state.certain.insert((Reverse(bucket), id));
        }
        // A bucket at or below `S_k` ranks at or below the K-th item's, so
        // the K-th and (K−1)-th buckets stay where they were.
        if self.thresholds.is_none_or(|(s_k, _)| at > s_k) {
            self.thresholds = self.state.thresholds();
        }
    }
}

/// Runs Phase 2 to completion.
///
/// Panics if the relation has fewer than `k` items.
pub fn run_cleaner(
    rel: &mut UncertainRelation,
    oracle: &mut dyn CleaningOracle,
    cfg: &CleanerConfig,
) -> CleanOutcome {
    let h = JointCdf::build(rel);
    run_cleaner_from(rel, h, oracle, cfg)
}

/// [`run_cleaner`] given `h`, the relation's joint CDF
/// (`JointCdf::build(rel)`), made elsewhere: a prepared video builds its
/// `D0`'s once and hands each frame query a copy.
pub(crate) fn run_cleaner_from(
    rel: &mut UncertainRelation,
    h: JointCdf,
    oracle: &mut dyn CleaningOracle,
    cfg: &CleanerConfig,
) -> CleanOutcome {
    assert!(cfg.k >= 1, "K must be at least 1");
    assert!(
        (0.0..=1.0).contains(&cfg.thres),
        "thres must be a probability"
    );
    assert!(cfg.batch_size >= 1);
    assert!(
        rel.len() >= cfg.k,
        "relation has {} items but K = {}",
        rel.len(),
        cfg.k
    );
    assert_eq!(
        h.members(),
        rel.num_uncertain(),
        "joint CDF is not the relation's"
    );

    let state = TopKState {
        h,
        certain: (0..rel.len())
            .filter_map(|id| rel.certain_bucket(id).map(|b| (Reverse(b), id)))
            .collect(),
        k: cfg.k,
    };
    let mut answer = RelationTopK {
        thresholds: state.thresholds(),
        state,
        selector: CandidateSelector::new(rel, cfg.resort_period),
        rel,
        batch_size: cfg.batch_size,
    };
    let run = drive(
        &mut answer,
        oracle,
        cfg.thres,
        &cfg.budget,
        0,
        cfg.max_cleanings,
    );
    let rows: Vec<(ItemId, u32)> = answer.state.topk().collect();
    CleanOutcome {
        topk: rows.iter().map(|&(id, _)| id).collect(),
        rows,
        confidence: run.confidence,
        iterations: run.iterations,
        cleaned: run.cleaned,
        converged: run.termination == Termination::Converged,
        termination: run.termination,
        select_stats: answer.selector.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::DiscreteDist;
    use crate::pws::topk_confidence_bruteforce;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Builds a relation whose uncertain distributions are noisy views of
    /// `truth`, plus an oracle that reveals the truth.
    fn noisy_relation(
        truth: &[u32],
        max_bucket: usize,
        certain_seed: usize,
        seed: u64,
    ) -> (UncertainRelation, Vec<u32>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rel = UncertainRelation::new(1.0, max_bucket);
        for (i, &t) in truth.iter().enumerate() {
            if i < certain_seed {
                rel.push_certain(t);
            } else {
                // triangular noise around the truth
                let mut masses = vec![0.0; max_bucket + 1];
                for db in -2i64..=2 {
                    let b = (t as i64 + db).clamp(0, max_bucket as i64) as usize;
                    masses[b] += match db.abs() {
                        0 => 0.4,
                        1 => 0.2,
                        _ => 0.1,
                    } * rng.gen_range(0.5..1.5);
                }
                rel.push_uncertain(DiscreteDist::from_masses(&masses));
            }
        }
        (rel, truth.to_vec())
    }

    #[test]
    fn converges_and_returns_certain_topk() {
        let mut rng = StdRng::seed_from_u64(1);
        let truth: Vec<u32> = (0..200).map(|_| rng.gen_range(0..=10)).collect();
        let (mut rel, t) = noisy_relation(&truth, 10, 20, 2);
        let mut oracle = FnCleaningOracle(|id| t[id]);
        let cfg = CleanerConfig {
            k: 5,
            thres: 0.9,
            ..Default::default()
        };
        let out = run_cleaner(&mut rel, &mut oracle, &cfg);
        assert!(out.converged);
        assert!(out.confidence >= 0.9);
        assert_eq!(out.topk.len(), 5);
        // certain-result condition
        for &id in &out.topk {
            assert!(rel.is_certain(id), "answer item {id} is not certain");
        }
        // every answer's exact bucket must be ≥ the threshold bucket
        let buckets: Vec<u32> = out
            .topk
            .iter()
            .map(|&id| rel.certain_bucket(id).unwrap())
            .collect();
        assert!(
            buckets.windows(2).all(|w| w[0] >= w[1]),
            "not sorted: {buckets:?}"
        );
    }

    #[test]
    fn confidence_matches_bruteforce_on_small_relation() {
        let truth: Vec<u32> = vec![3, 1, 4, 0, 2, 4, 1, 3];
        let (mut rel, t) = noisy_relation(&truth, 4, 2, 3);
        let mut oracle = FnCleaningOracle(|id| t[id]);
        let cfg = CleanerConfig {
            k: 2,
            thres: 0.8,
            batch_size: 1,
            ..Default::default()
        };
        let out = run_cleaner(&mut rel, &mut oracle, &cfg);
        let brute = topk_confidence_bruteforce(&rel, &out.topk, 2).unwrap();
        assert!(
            (out.confidence - brute).abs() < 1e-9,
            "fast {} vs brute {brute}",
            out.confidence
        );
        assert!(out.confidence >= 0.8);
    }

    #[test]
    fn answer_is_correct_when_proxy_is_wrong() {
        // Proxy says item 0 is probably low (but keeps calibrated tail
        // mass) and item 1 is high; truth is reversed. A high threshold
        // must force both to be cleaned, surfacing the true top item.
        // (If the proxy put *zero* mass on the truth, PWS would rightly be
        // confident in the wrong answer — the guarantee is conditional on
        // the proxy's distributions not assigning zero to reality.)
        let mut rel = UncertainRelation::new(1.0, 5);
        let truth: Vec<u32> = vec![5, 0, 1, 1, 2, 2, 3, 1, 0, 0];
        for (i, &t) in truth.iter().enumerate() {
            if i < 2 {
                let masses = if i == 0 {
                    vec![0.70, 0.20, 0.05, 0.03, 0.01, 0.01]
                } else {
                    vec![0.01, 0.01, 0.03, 0.05, 0.30, 0.60]
                };
                rel.push_uncertain(DiscreteDist::from_masses(&masses));
            } else {
                rel.push_certain(t);
            }
        }
        let mut oracle = FnCleaningOracle(|id| truth[id]);
        let cfg = CleanerConfig {
            k: 1,
            thres: 0.99,
            batch_size: 1,
            ..Default::default()
        };
        let out = run_cleaner(&mut rel, &mut oracle, &cfg);
        assert!(out.converged);
        // With thres = 0.99 the misleading pair must get cleaned and the
        // true top item (0, bucket 5) must win.
        assert_eq!(out.topk, vec![0]);
        assert_eq!(out.confidence, 1.0);
    }

    #[test]
    fn all_certain_relation_returns_immediately() {
        let mut rel = UncertainRelation::new(1.0, 5);
        for b in [5u32, 3, 4, 1, 0] {
            rel.push_certain(b);
        }
        let mut oracle = FnCleaningOracle(|_| panic!("oracle must not be called"));
        let cfg = CleanerConfig {
            k: 2,
            thres: 0.99,
            ..Default::default()
        };
        let out = run_cleaner(&mut rel, &mut oracle, &cfg);
        assert_eq!(out.cleaned, 0);
        assert_eq!(out.confidence, 1.0);
        assert_eq!(out.topk, vec![0, 2]); // buckets 5 and 4
    }

    #[test]
    fn thres_zero_stops_after_bootstrap() {
        let truth: Vec<u32> = (0..50).map(|i| (i % 7) as u32).collect();
        let (mut rel, t) = noisy_relation(&truth, 6, 0, 5);
        let mut oracle = FnCleaningOracle(|id| t[id]);
        let cfg = CleanerConfig {
            k: 3,
            thres: 0.0,
            ..Default::default()
        };
        let out = run_cleaner(&mut rel, &mut oracle, &cfg);
        // Needs K certain items, then any confidence passes.
        assert_eq!(out.cleaned, 3);
        assert!(out.converged);
    }

    #[test]
    fn max_cleanings_caps_work() {
        let truth: Vec<u32> = (0..300).map(|i| (i % 11) as u32).collect();
        let (mut rel, t) = noisy_relation(&truth, 10, 20, 6);
        let mut oracle = FnCleaningOracle(|id| t[id]);
        let cfg = CleanerConfig {
            k: 5,
            thres: 0.9999,
            max_cleanings: Some(10),
            ..Default::default()
        };
        let out = run_cleaner(&mut rel, &mut oracle, &cfg);
        assert!(out.cleaned <= 10 + cfg.batch_size);
        if !out.converged {
            assert!(out.confidence < 0.9999);
        }
    }

    #[test]
    fn higher_threshold_cleans_more() {
        let mut rng = StdRng::seed_from_u64(7);
        let truth: Vec<u32> = (0..400).map(|_| rng.gen_range(0..=12)).collect();
        let run = |thres: f64| {
            let (mut rel, t) = noisy_relation(&truth, 12, 30, 8);
            let mut oracle = FnCleaningOracle(|id| t[id]);
            let cfg = CleanerConfig {
                k: 10,
                thres,
                ..Default::default()
            };
            run_cleaner(&mut rel, &mut oracle, &cfg).cleaned
        };
        let low = run(0.5);
        let high = run(0.99);
        assert!(
            high >= low,
            "thres 0.99 cleaned {high} < thres 0.5 cleaned {low}"
        );
    }

    #[test]
    fn termination_is_converged_on_normal_runs() {
        let truth: Vec<u32> = (0..50).map(|i| (i % 7) as u32).collect();
        let (mut rel, t) = noisy_relation(&truth, 6, 10, 11);
        let mut oracle = FnCleaningOracle(|id| t[id]);
        let out = run_cleaner(
            &mut rel,
            &mut oracle,
            &CleanerConfig {
                k: 3,
                ..Default::default()
            },
        );
        assert_eq!(out.termination, Termination::Converged);
        assert!(out.converged);
        assert!(!out.termination.is_degraded());
    }

    #[test]
    fn query_budget_cap_reports_budget_exhausted() {
        let truth: Vec<u32> = (0..300).map(|i| (i % 11) as u32).collect();
        let (mut rel, t) = noisy_relation(&truth, 10, 20, 12);
        let mut oracle = FnCleaningOracle(|id| t[id]);
        let cfg = CleanerConfig {
            k: 5,
            thres: 0.99999,
            batch_size: 1,
            budget: QueryBudget {
                max_oracle_calls: Some(3),
                ..QueryBudget::unlimited()
            },
            ..Default::default()
        };
        let out = run_cleaner(&mut rel, &mut oracle, &cfg);
        assert_eq!(out.termination, Termination::BudgetExhausted);
        assert!(!out.converged);
        assert_eq!(out.cleaned, 3);
        assert_eq!(out.topk.len(), 5, "20 certain items exist on entry");
        assert!(out.confidence < 0.99999);
    }

    #[test]
    fn cancelled_token_stops_before_cleaning() {
        let truth: Vec<u32> = (0..100).map(|i| (i % 9) as u32).collect();
        let (mut rel, t) = noisy_relation(&truth, 8, 10, 13);
        let mut oracle = FnCleaningOracle(|id| t[id]);
        let token = crate::budget::CancelToken::new();
        token.cancel();
        let cfg = CleanerConfig {
            k: 4,
            budget: QueryBudget {
                cancel: Some(token),
                ..QueryBudget::unlimited()
            },
            ..Default::default()
        };
        let out = run_cleaner(&mut rel, &mut oracle, &cfg);
        assert_eq!(out.termination, Termination::Cancelled);
        assert_eq!(out.cleaned, 0);
        assert!(!out.converged);
    }

    #[test]
    fn a_converged_answer_is_never_reported_degraded() {
        // The stop rule is checked before the limits: a cancelled token or
        // an already-passed deadline over a relation that needs no cleaning
        // must not turn a full-confidence answer into a degraded one.
        let token = crate::budget::CancelToken::new();
        token.cancel();
        let budgets = [
            QueryBudget {
                cancel: Some(token),
                ..QueryBudget::unlimited()
            },
            QueryBudget {
                deadline_sim_seconds: Some(0.0),
                ..QueryBudget::unlimited()
            },
        ];
        for budget in budgets {
            let mut rel = UncertainRelation::new(1.0, 5);
            for b in [5u32, 3, 4, 1, 0] {
                rel.push_certain(b);
            }
            let mut oracle = FnCleaningOracle(|_| panic!("oracle must not be called"));
            let cfg = CleanerConfig {
                k: 2,
                thres: 0.99,
                budget,
                ..Default::default()
            };
            let out = run_cleaner(&mut rel, &mut oracle, &cfg);
            assert_eq!(out.termination, Termination::Converged);
            assert!(out.converged);
            assert_eq!(out.confidence, 1.0);
            assert_eq!(out.topk, vec![0, 2]);
        }
    }

    /// An oracle charging 0.1 simulated seconds per cleaning.
    struct CostedOracle<'a> {
        truth: &'a [u32],
        spent: f64,
    }

    impl CleaningOracle for CostedOracle<'_> {
        fn try_clean_batch(&mut self, items: &[ItemId]) -> Result<Vec<u32>, OracleError> {
            self.spent += items.len() as f64 * 0.1;
            Ok(items.iter().map(|&i| self.truth[i]).collect())
        }

        fn sim_seconds_spent(&self) -> f64 {
            self.spent
        }
    }

    #[test]
    fn deadline_is_simulated_seconds_not_wall_clock() {
        let truth: Vec<u32> = (0..200).map(|i| (i % 13) as u32).collect();
        let (mut rel, t) = noisy_relation(&truth, 12, 30, 14);
        let mut oracle = CostedOracle {
            truth: &t,
            spent: 0.0,
        };
        let cfg = CleanerConfig {
            k: 5,
            thres: 0.99999,
            batch_size: 1,
            budget: QueryBudget {
                deadline_sim_seconds: Some(0.35),
                ..QueryBudget::unlimited()
            },
            ..Default::default()
        };
        let out = run_cleaner(&mut rel, &mut oracle, &cfg);
        if out.termination == Termination::Deadline {
            // Checked between batches: at most one batch overshoots.
            assert!(oracle.spent < 0.35 + 0.1 + 1e-9);
            assert!(!out.converged);
        } else {
            assert_eq!(out.termination, Termination::Converged);
        }
    }

    /// An oracle that dies after `live` successful batches.
    struct DyingOracle<'a> {
        truth: &'a [u32],
        live: usize,
    }

    impl CleaningOracle for DyingOracle<'_> {
        fn try_clean_batch(&mut self, items: &[ItemId]) -> Result<Vec<u32>, OracleError> {
            if self.live == 0 {
                return Err(OracleError::Transient("oracle died"));
            }
            self.live -= 1;
            Ok(items.iter().map(|&i| self.truth[i]).collect())
        }
    }

    #[test]
    fn oracle_failure_degrades_to_oracle_down() {
        let truth: Vec<u32> = (0..200).map(|i| (i % 13) as u32).collect();
        let (mut rel, t) = noisy_relation(&truth, 12, 30, 15);
        let mut oracle = DyingOracle { truth: &t, live: 2 };
        let cfg = CleanerConfig {
            k: 5,
            thres: 0.99999,
            batch_size: 1,
            ..Default::default()
        };
        let out = run_cleaner(&mut rel, &mut oracle, &cfg);
        assert_eq!(out.termination, Termination::OracleDown);
        assert!(!out.converged);
        assert_eq!(out.cleaned, 2);
        assert_eq!(out.topk.len(), 5);
        // The degraded answer is still entirely certain.
        for &id in &out.topk {
            assert!(rel.is_certain(id));
        }
    }

    #[test]
    fn degraded_confidence_matches_posterior_recomputation() {
        // The degradation contract: a degraded answer's reported
        // confidence equals Eq.-1 `topk_confidence` recomputed from the
        // relation's returned posterior state.
        use crate::topkprob::topk_confidence;
        let truth: Vec<u32> = (0..150).map(|i| (i * 7 % 13) as u32).collect();
        for cap in [0usize, 1, 3, 8, 40] {
            let (mut rel, t) = noisy_relation(&truth, 12, 10, 16);
            let mut oracle = FnCleaningOracle(|id| t[id]);
            let cfg = CleanerConfig {
                k: 6,
                thres: 0.99999,
                batch_size: 3,
                budget: QueryBudget {
                    max_oracle_calls: Some(cap),
                    ..QueryBudget::unlimited()
                },
                ..Default::default()
            };
            let out = run_cleaner(&mut rel, &mut oracle, &cfg);
            let recomputed = topk_confidence(&rel, &out.topk, 6);
            assert!(
                (out.confidence - recomputed).abs() < 1e-9,
                "cap {cap}: reported {} vs recomputed {recomputed}",
                out.confidence
            );
        }
    }

    /// A fallible test oracle: fails call `i` whenever the seeded hash
    /// says so (a deterministic fault schedule), charges 0.05 simulated
    /// seconds per confirmed item.
    struct SeededFlakyCleaner<'a> {
        truth: &'a [u32],
        seed: u64,
        calls: u64,
        spent: f64,
    }

    impl CleaningOracle for SeededFlakyCleaner<'_> {
        fn try_clean_batch(&mut self, items: &[ItemId]) -> Result<Vec<u32>, OracleError> {
            let idx = self.calls;
            self.calls += 1;
            let mut z = self
                .seed
                .wrapping_add(idx.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z ^= z >> 27;
            if z % 100 < 15 {
                return Err(OracleError::Transient("injected"));
            }
            self.spent += items.len() as f64 * 0.05;
            Ok(items.iter().map(|&i| self.truth[i]).collect())
        }

        fn sim_seconds_spent(&self) -> f64 {
            self.spent
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The degradation contract under *random* budgets and fault
        /// schedules: whatever stopped the run (cap, deadline, a fault),
        /// the reported confidence equals Eq.-1 `topk_confidence`
        /// recomputed from the relation's returned posterior, and the
        /// answer is entirely certain.
        #[test]
        fn degraded_answers_honor_the_posterior(
            cap in 0usize..40,
            deadline_steps in 0u32..30,
            fault_seed in 0u64..1_000,
            data_seed in 0u64..1_000,
        ) {
            use crate::topkprob::topk_confidence;
            let truth: Vec<u32> = (0..120)
                .map(|i: u64| ((i.wrapping_mul(data_seed + 7)) % 13) as u32)
                .collect();
            let (mut rel, t) = noisy_relation(&truth, 12, 8, data_seed);
            let mut oracle = SeededFlakyCleaner {
                truth: &t,
                seed: fault_seed,
                calls: 0,
                spent: 0.0,
            };
            let cfg = CleanerConfig {
                k: 5,
                thres: 0.999,
                batch_size: 2,
                budget: QueryBudget {
                    max_oracle_calls: Some(cap),
                    deadline_sim_seconds: Some(deadline_steps as f64 * 0.05),
                    ..QueryBudget::unlimited()
                },
                ..Default::default()
            };
            let out = run_cleaner(&mut rel, &mut oracle, &cfg);
            for &id in &out.topk {
                proptest::prop_assert!(rel.is_certain(id));
            }
            let recomputed = topk_confidence(&rel, &out.topk, 5);
            proptest::prop_assert!(
                (out.confidence - recomputed).abs() < 1e-9,
                "termination {:?}: reported {} vs recomputed {}",
                out.termination, out.confidence, recomputed
            );
            proptest::prop_assert_eq!(
                out.converged,
                out.termination == Termination::Converged
            );
            // Degraded only when actually degraded: a full-K answer that
            // stopped for any other reason is below the threshold.
            if out.termination != Termination::Converged && out.topk.len() == 5 {
                proptest::prop_assert!(
                    out.confidence < cfg.thres,
                    "termination {:?} at confidence {}",
                    out.termination, out.confidence
                );
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The certain set leaves out confirmations below `S_k`, never
        /// those at it: with an oracle that answers few distinct buckets,
        /// so that many items tie on the threshold bucket, the answer is
        /// the Top-K of *every* certain item of the relation after the
        /// run, (bucket desc, id asc).
        #[test]
        fn rows_are_the_topk_of_every_certain_item(
            data_seed in 0u64..1_000,
            k in 1usize..12,
            batch_size in 1usize..9,
            certain_seed in 0usize..6,
            thres in 0.5f64..0.999,
        ) {
            let mut rng = StdRng::seed_from_u64(data_seed);
            let levels = [2u32, 5, 6];
            let truth: Vec<u32> = (0..90)
                .map(|_| levels[rng.gen_range(0..levels.len())])
                .collect();
            let (mut rel, t) = noisy_relation(&truth, 8, certain_seed, data_seed);
            let mut oracle = FnCleaningOracle(|id| t[id]);
            let cfg = CleanerConfig {
                k,
                thres,
                batch_size,
                ..Default::default()
            };
            let out = run_cleaner(&mut rel, &mut oracle, &cfg);
            let mut every: Vec<(ItemId, u32)> = (0..rel.len())
                .filter_map(|id| rel.certain_bucket(id).map(|b| (id, b)))
                .collect();
            every.sort_unstable_by_key(|&(id, b)| (Reverse(b), id));
            every.truncate(k);
            proptest::prop_assert_eq!(out.rows, every);
        }
    }

    #[test]
    #[should_panic(expected = "relation has")]
    fn too_small_relation_panics() {
        let mut rel = UncertainRelation::new(1.0, 2);
        rel.push_certain(1);
        let mut oracle = FnCleaningOracle(|_| 0);
        let _ = run_cleaner(&mut rel, &mut oracle, &CleanerConfig::default());
    }

    #[test]
    fn exact_result_matches_ground_truth_topk_scores() {
        // With thres close to 1 the returned set's scores must match the
        // true Top-K scores (sets may differ under ties).
        let mut rng = StdRng::seed_from_u64(9);
        let truth: Vec<u32> = (0..250).map(|_| rng.gen_range(0..=15)).collect();
        let (mut rel, t) = noisy_relation(&truth, 15, 25, 10);
        let t2 = t.clone();
        let mut oracle = FnCleaningOracle(|id| t2[id]);
        let cfg = CleanerConfig {
            k: 8,
            thres: 0.99,
            ..Default::default()
        };
        let out = run_cleaner(&mut rel, &mut oracle, &cfg);
        let mut expect: Vec<u32> = t.clone();
        expect.sort_unstable_by(|a, b| b.cmp(a));
        let got: Vec<u32> = out
            .topk
            .iter()
            .map(|&id| rel.certain_bucket(id).unwrap())
            .collect();
        // allow the bottom item to differ by ties only when confidence < 1
        for (g, e) in got.iter().zip(expect.iter()) {
            assert!(
                g >= e || out.confidence < 1.0,
                "top scores diverge: got {got:?}, expect {:?}",
                &expect[..8]
            );
        }
    }
}
