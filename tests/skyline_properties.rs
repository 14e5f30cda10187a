//! Property tests for the probabilistic skyline operator (§5 future work):
//! the factorized confidence must agree exactly with possible-world
//! enumeration, and domination probabilities must behave like
//! probabilities.

use everest::core::budget::{QueryBudget, Termination};
use everest::core::cleaner::CleaningOracle;
use everest::core::dist::DiscreteDist;
use everest::core::skyline::{
    dominates, prob_dominated, pws_skyline_probability, run_skyline_cleaner, skyline_of,
    skyline_state, SkylineConfig, SkylineMaintainer, VectorRelation,
};
use everest::core::xtuple::ItemState;
use everest::models::OracleError;
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

/// A small mixed 2-D relation (uncertain + certain items).
fn arb_relation() -> impl Strategy<Value = VectorRelation> {
    (
        proptest::collection::vec((arb_dist(), arb_dist()), 1..4),
        proptest::collection::vec((0u32..=MAX_B as u32, 0u32..=MAX_B as u32), 1..4),
    )
        .prop_map(|(uncertain, certain)| {
            let mut rel = VectorRelation::new([MAX_B, MAX_B]);
            for (x, y) in certain {
                rel.push_certain([x, y]);
            }
            for (dx, dy) in uncertain {
                rel.push_uncertain([dx, dy]);
            }
            rel
        })
}

fn arb_points() -> impl Strategy<Value = Vec<[u32; 2]>> {
    proptest::collection::vec(
        (0u32..=MAX_B as u32, 0u32..=MAX_B as u32).prop_map(|(x, y)| [x, y]),
        0..5,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The central identity: `p̂ = Π_u Pr(S_u ∈ Dominated(R̂))` equals the
    /// brute-force probability that the certain skyline IS the skyline —
    /// a world's skyline equals R̂ iff every uncertain item is dominated
    /// by R̂ (transitivity argument in the module docs).
    #[test]
    fn factorized_confidence_equals_world_enumeration(rel in arb_relation()) {
        let state = skyline_state(&rel);
        let brute = pws_skyline_probability(&rel, &state.skyline);
        prop_assert!(
            (state.confidence - brute).abs() < 1e-9,
            "fast {} vs brute {}", state.confidence, brute
        );
    }

    /// Domination factors are probabilities, and the confidence is their
    /// product.
    #[test]
    fn factors_are_probabilities(rel in arb_relation()) {
        let state = skyline_state(&rel);
        let mut product = 1.0;
        for &(_, p) in &state.factors {
            prop_assert!((0.0..=1.0 + 1e-12).contains(&p), "factor {p}");
            product *= p;
        }
        prop_assert!((product - state.confidence).abs() < 1e-12);
    }

    /// `prob_dominated` is monotone in the point set: more dominating
    /// points can only grow the dominated region.
    #[test]
    fn prob_dominated_monotone_in_points(
        rel in arb_relation(),
        points in arb_points(),
        extra in (0u32..=MAX_B as u32, 0u32..=MAX_B as u32),
    ) {
        let bigger: Vec<[u32; 2]> = points
            .iter()
            .cloned()
            .chain(std::iter::once([extra.0, extra.1]))
            .collect();
        for u in rel.uncertain_ids() {
            let p_small = prob_dominated(&rel, u, &points);
            let p_big = prob_dominated(&rel, u, &bigger);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&p_small));
            prop_assert!(
                p_big >= p_small - 1e-12,
                "item {u}: adding a point shrank Pr(dominated): {p_small} → {p_big}"
            );
        }
    }

    /// The 2-D staircase fast path agrees with direct support enumeration.
    #[test]
    fn staircase_matches_enumeration(rel in arb_relation(), points in arb_points()) {
        for u in rel.uncertain_ids() {
            let fast = prob_dominated(&rel, u, &points);
            // direct: Σ_{x,y} Pr(X=x)Pr(Y=y) · 1[∃p: p ≻ (x,y)]
            let mut direct = 0.0;
            for x in 0..=MAX_B as u32 {
                for y in 0..=MAX_B as u32 {
                    let px = pmf_of(&rel, u, 0, x);
                    let py = pmf_of(&rel, u, 1, y);
                    if px * py > 0.0 && points.iter().any(|p| dominates(p, &[x, y])) {
                        direct += px * py;
                    }
                }
            }
            prop_assert!((fast - direct).abs() < 1e-9, "item {u}: {fast} vs {direct}");
        }
    }

    /// Skyline structural invariants: members never dominate each other,
    /// non-members are always dominated by some member, and the skyline of
    /// the skyline is itself.
    #[test]
    fn skyline_structural_invariants(
        vectors in proptest::collection::vec(
            (0u32..=6, 0u32..=6).prop_map(|(x, y)| [x, y]), 1..12),
    ) {
        let tagged: Vec<(usize, [u32; 2])> = vectors.into_iter().enumerate().collect();
        let sky = skyline_of(&tagged);
        prop_assert!(!sky.is_empty(), "a non-empty set always has a maximal element");
        let members: Vec<&[u32; 2]> =
            sky.iter().map(|id| &tagged.iter().find(|(i, _)| i == id).unwrap().1).collect();
        for a in &members {
            for b in &members {
                prop_assert!(!dominates(a, b), "skyline member dominated: {a:?} ≻ {b:?}");
            }
        }
        for (id, v) in &tagged {
            if !sky.contains(id) {
                prop_assert!(
                    members.iter().any(|m| dominates(m, v)),
                    "non-member {v:?} not dominated by any member"
                );
            }
        }
        // idempotence
        let again: Vec<(usize, [u32; 2])> = sky
            .iter()
            .map(|&id| (id, tagged.iter().find(|(i, _)| *i == id).unwrap().1))
            .collect();
        let mut sky2 = skyline_of(&again);
        let mut sky1 = sky.clone();
        sky1.sort_unstable();
        sky2.sort_unstable();
        prop_assert_eq!(sky1, sky2);
    }

    /// Cleaning an item to its modal bucket vector keeps all invariants
    /// and produces a state whose confidence still matches brute force.
    #[test]
    fn cleaning_preserves_the_identity(rel in arb_relation()) {
        let mut rel = rel;
        if let Some(&u) = rel.uncertain_ids().first() {
            // clean to each dimension's most probable bucket
            let v = [0, 1].map(|j| {
                (0..=MAX_B as u32)
                    .max_by(|&a, &b| {
                        pmf_of(&rel, u, j, a)
                            .partial_cmp(&pmf_of(&rel, u, j, b))
                            .unwrap()
                    })
                    .unwrap()
            });
            rel.clean(u, v);
            prop_assert!(rel.is_certain(u));
            let state = skyline_state(&rel);
            let brute = pws_skyline_probability(&rel, &state.skyline);
            prop_assert!((state.confidence - brute).abs() < 1e-9);
        }
    }
}

/// Pr(dimension `j` of item `u` equals bucket `b`), via the public API.
fn pmf_of(rel: &VectorRelation, u: usize, j: usize, b: u32) -> f64 {
    rel.dim_pmf(u, j, b as usize)
}

// ---------------------------------------------------------------------------
// Incremental maintainer ≡ full recompute (the permanent oracle for the
// index every skyline run keeps).
// ---------------------------------------------------------------------------

/// One random staircase mutation. The selector field is resolved against
/// the *current* uncertain items at apply time (modulo their count), so
/// every generated sequence is valid regardless of how earlier ops
/// reshaped the relation.
#[derive(Debug, Clone)]
enum Mutation {
    InsertCertain(u32, u32),
    InsertUncertain(DiscreteDist, DiscreteDist),
    /// Oracle confirmation: shifts an uncertain item onto an exact point
    /// (the "score-shift" that moves the staircase).
    Clean(usize, u32, u32),
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    // Uncertain inserts get double weight: factors are where the
    // incremental bookkeeping can silently go stale.
    (
        0u8..4,
        0u32..=MAX_B as u32,
        0u32..=MAX_B as u32,
        arb_dist(),
        arb_dist(),
        any::<usize>(),
    )
        .prop_map(|(kind, x, y, dx, dy, sel)| match kind {
            0 => Mutation::InsertCertain(x, y),
            1 | 2 => Mutation::InsertUncertain(dx, dy),
            _ => Mutation::Clean(sel, x, y),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The permanent oracle pinning the incremental [`SkylineMaintainer`]
    /// to the from-scratch [`skyline_state`]: after *every* mutation in a
    /// random insert/clean sequence, the maintained state — the certain
    /// skyline, each uncertain item's domination factor, and the
    /// confidence product — equals a full recompute over the maintained
    /// relation, and the maintainer spent no more factor recomputations
    /// than the recompute-everything baseline would have.
    #[test]
    fn maintainer_matches_full_recompute_under_random_mutations(
        ops in proptest::collection::vec(arb_mutation(), 1..25),
    ) {
        let mut rel = VectorRelation::new([MAX_B, MAX_B]);
        let mut m = SkylineMaintainer::new(&mut rel);
        let mut baseline_recomputes = 0u64;

        for op in ops {
            match op {
                Mutation::InsertCertain(x, y) => {
                    m.push([ItemState::Certain(x), ItemState::Certain(y)]);
                }
                Mutation::InsertUncertain(dx, dy) => {
                    m.push([ItemState::Uncertain(dx), ItemState::Uncertain(dy)]);
                }
                Mutation::Clean(sel, x, y) => {
                    let uncertain = m.relation().uncertain_ids();
                    if uncertain.is_empty() {
                        continue;
                    }
                    m.clean(uncertain[sel % uncertain.len()], [x, y]);
                }
            }
            // A recompute-everything baseline pays one factor evaluation
            // per uncertain item per mutation.
            let live = m.relation();
            baseline_recomputes += (live.len() - live.num_certain()) as u64;

            let state = m.state();
            let want = skyline_state(live);
            prop_assert_eq!(&state.skyline, &want.skyline, "skyline diverged");
            prop_assert_eq!(
                state.factors.len(),
                want.factors.len(),
                "factor set diverged"
            );
            for (&(id, got), &(want_id, want)) in
                state.factors.iter().zip(&want.factors)
            {
                prop_assert_eq!(id, want_id);
                prop_assert!(
                    (got - want).abs() < 1e-12,
                    "item {}: factor {} vs recompute {}", id, got, want
                );
            }
            prop_assert!(
                (state.confidence - want.confidence).abs() < 1e-12,
                "confidence {} vs recompute {}", state.confidence, want.confidence
            );
        }
        prop_assert!(
            m.stats.factor_recomputes <= baseline_recomputes,
            "incremental maintenance did more work ({}) than recompute-all ({})",
            m.stats.factor_recomputes,
            baseline_recomputes
        );
    }
}

// ---------------------------------------------------------------------------
// Degraded skyline answers honour the posterior (the skyline twin of the
// cleaner's `degraded_answers_honor_the_posterior`).
// ---------------------------------------------------------------------------

/// Reveals a fixed truth table and remembers what it was asked.
struct RecordingOracle {
    truth: Vec<[u32; 2]>,
    asked: Vec<usize>,
}

impl CleaningOracle<[u32; 2]> for RecordingOracle {
    fn try_clean_batch(&mut self, items: &[usize]) -> Result<Vec<[u32; 2]>, OracleError> {
        self.asked.extend_from_slice(items);
        Ok(items.iter().map(|&i| self.truth[i]).collect())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Whatever call cap stops the run, the answer is the certain skyline of
    /// exactly the items confirmed, its reported confidence is
    /// `skyline_state` of the relation the run leaves behind, and a run
    /// that did not converge is below the threshold.
    #[test]
    fn capped_skyline_answers_honor_the_posterior(
        rel in arb_relation(),
        truth in proptest::collection::vec(
            (0u32..=MAX_B as u32, 0u32..=MAX_B as u32).prop_map(|(x, y)| [x, y]), 6),
        cap in 0usize..5,
        batch_size in 1usize..4,
        thres_pick in 0usize..3,
    ) {
        let thres = [0.5, 0.9, 0.999][thres_pick];
        let mut rel = rel;
        let before = rel.clone();
        let mut oracle = RecordingOracle { truth: truth.clone(), asked: Vec::new() };
        let cfg = SkylineConfig {
            thres,
            batch_size,
            budget: QueryBudget { max_oracle_calls: Some(cap), ..QueryBudget::unlimited() },
        };
        let out = run_skyline_cleaner(&mut rel, &mut oracle, &cfg);

        // Exactly the asked items changed, each to its confirmed vector.
        prop_assert!(out.cleaned <= cap);
        prop_assert_eq!(out.cleaned, oracle.asked.len());
        prop_assert_eq!(rel.num_certain(), before.num_certain() + out.cleaned);
        for (id, truth) in truth.iter().enumerate().take(rel.len()) {
            if oracle.asked.contains(&id) {
                prop_assert!(!before.is_certain(id), "item {} confirmed twice", id);
                prop_assert_eq!(rel.certain_vector(id).as_ref(), Some(truth));
            } else {
                prop_assert_eq!(rel.is_certain(id), before.is_certain(id));
            }
        }

        let state = skyline_state(&rel);
        let mut answer = out.skyline.clone();
        answer.sort_unstable();
        prop_assert_eq!(answer, state.skyline);
        prop_assert!(
            (out.confidence - state.confidence).abs() < 1e-12,
            "termination {:?}: reported {} vs recomputed {}",
            out.termination, out.confidence, state.confidence
        );
        if out.termination == Termination::Converged {
            prop_assert!(out.confidence >= thres);
        } else {
            prop_assert_eq!(out.termination, Termination::BudgetExhausted);
            prop_assert!(out.confidence < thres);
        }
    }
}
