//! Brute-force possible-world semantics (Eq. 1) — the correctness oracle
//! for the fast path.
//!
//! §3 defines the confidence of a Top-K answer as the total probability of
//! the possible worlds in which the answer is (a) Top-K (Eq. 1). The fast
//! path (Eq. 2/3, [`crate::topkprob`]) is an algebraic simplification under
//! the certain-result condition; this module enumerates worlds explicitly
//! so tests (including property tests) can verify the equivalence on small
//! relations — the paper's Table 4 example included.
//!
//! Ties follow the paper's footnote 1: an answer `R̂` counts as Top-K in a
//! world when **no item outside `R̂` scores strictly higher than the lowest
//! score inside `R̂`**.
//!
//! Enumeration is guarded by [`MAX_WORLDS`]: oversized relations yield a
//! typed [`TooManyWorlds`] error instead of aborting, so callers can fall
//! back to a polynomial path in [`crate::topkprob`]: Eq. 2/3 for an answer
//! that meets the certain-result condition, the closed-form
//! [`crate::topkprob::topk_confidence`] for any answer.

use crate::xtuple::{ItemId, ItemState, UncertainRelation};
use std::fmt;

/// Enumeration guard: relations with more possible worlds than this are
/// rejected (the caller should be using the fast path).
pub const MAX_WORLDS: u128 = 2_000_000;

/// Error: the relation's possible-world count exceeds [`MAX_WORLDS`], so
/// brute-force enumeration was refused. Recoverable — use the polynomial
/// paths in [`crate::topkprob`] instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TooManyWorlds {
    /// The offending world count (saturating; capped at `u128::MAX`).
    pub worlds: u128,
    /// The guard it exceeded ([`MAX_WORLDS`]).
    pub limit: u128,
}

impl fmt::Display for TooManyWorlds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "relation too large for brute-force enumeration ({} worlds > limit {}); \
             use the polynomial paths in topkprob (topk_prob / topk_confidence)",
            self.worlds, self.limit
        )
    }
}

impl std::error::Error for TooManyWorlds {}

/// Number of possible worlds of the relation (saturating product of the
/// per-item support sizes; certain items contribute a factor of 1).
pub fn count_worlds(rel: &UncertainRelation) -> u128 {
    let mut count: u128 = 1;
    for id in 0..rel.len() {
        let options = match rel.dist(id) {
            Some(d) => (d.support_max() - d.support_min() + 1) as u128,
            None => 1,
        };
        count = count.saturating_mul(options);
    }
    count
}

/// One fully instantiated world: a score bucket per item, plus its
/// probability.
#[derive(Debug, Clone)]
pub struct World {
    pub buckets: Vec<u32>,
    pub prob: f64,
}

/// Enumerates every possible world of the relation.
///
/// Certain items contribute their exact bucket with probability 1;
/// uncertain items contribute each support bucket with its PMF mass.
///
/// Returns [`TooManyWorlds`] (instead of panicking) when the world count
/// exceeds [`MAX_WORLDS`], so callers degrade gracefully to the
/// polynomial paths.
pub fn enumerate_worlds(rel: &UncertainRelation) -> Result<Vec<World>, TooManyWorlds> {
    let n = rel.len();
    let world_count = count_worlds(rel);
    if world_count > MAX_WORLDS {
        return Err(TooManyWorlds {
            worlds: world_count,
            limit: MAX_WORLDS,
        });
    }

    let mut worlds = vec![World {
        buckets: vec![0; n],
        prob: 1.0,
    }];
    for id in 0..n {
        match rel.item(id) {
            ItemState::Certain(b) => {
                for w in &mut worlds {
                    w.buckets[id] = *b;
                }
            }
            ItemState::Uncertain(d) => {
                let mut next = Vec::with_capacity(worlds.len() * 2);
                for w in &worlds {
                    for bucket in d.support_min()..=d.support_max() {
                        let p = d.pmf(bucket);
                        if p == 0.0 {
                            continue;
                        }
                        let mut nw = w.clone();
                        nw.buckets[id] = bucket as u32;
                        nw.prob = w.prob * p;
                        next.push(nw);
                    }
                }
                worlds = next;
            }
        }
    }
    Ok(worlds)
}

/// Whether `answer` is a valid Top-K set in the given world (tie-tolerant).
pub fn is_topk_in_world(world: &World, answer: &[ItemId], k: usize) -> bool {
    if answer.len() != k {
        return false;
    }
    world
        .buckets
        .iter()
        .enumerate()
        .filter(|(id, _)| !answer.contains(id))
        .all(|(_, &b)| answer.iter().all(|&a| b <= world.buckets[a]))
}

/// Eq. 1: the confidence of `answer` as the probability mass of the worlds
/// where it is Top-K.
///
/// Errors with [`TooManyWorlds`] on oversized relations; the polynomial
/// equivalent is [`crate::topkprob::topk_confidence`].
pub fn topk_confidence_bruteforce(
    rel: &UncertainRelation,
    answer: &[ItemId],
    k: usize,
) -> Result<f64, TooManyWorlds> {
    Ok(enumerate_worlds(rel)?
        .iter()
        .filter(|w| is_topk_in_world(w, answer, k))
        .map(|w| w.prob)
        .sum())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::DiscreteDist;
    use crate::xtuple::table_1a;

    #[test]
    fn world_count_and_mass() {
        let rel = table_1a();
        let worlds = enumerate_worlds(&rel).expect("enumerable");
        assert_eq!(worlds.len(), 27); // 3^3 as in §3 ("out of 3^3")
        let mass: f64 = worlds.iter().map(|w| w.prob).sum();
        assert!((mass - 1.0).abs() < 1e-12);
    }

    #[test]
    fn table4_world_probabilities() {
        // W1 = (0,0,0): 0.78 × 0.49 × 0.16; W2 = (1,0,0): 0.21 × 0.49 × 0.16
        let rel = table_1a();
        let worlds = enumerate_worlds(&rel).expect("enumerable");
        let find = |b: &[u32]| {
            worlds
                .iter()
                .find(|w| w.buckets == b)
                .map(|w| w.prob)
                .expect("world exists")
        };
        assert!((find(&[0, 0, 0]) - 0.78 * 0.49 * 0.16).abs() < 1e-12);
        assert!((find(&[1, 0, 0]) - 0.21 * 0.49 * 0.16).abs() < 1e-12);
    }

    #[test]
    fn paper_top1_confidence_of_f3_is_085() {
        // §3: "the Top-1 result of Table 1a is {f3} with confidence 0.85".
        let rel = table_1a();
        let p = topk_confidence_bruteforce(&rel, &[2], 1).unwrap();
        assert!((p - 0.8476).abs() < 0.01, "expected ≈0.85, got {p}");
    }

    #[test]
    fn paper_updated_confidence_after_cleaning_f3_is_038() {
        // §3/Table 5: after Oracle(f3) = 0, {f3}'s Top-1 confidence drops to
        // 0.78 × 0.49 ≈ 0.38 (worlds where f1 = f2 = 0).
        let mut rel = table_1a();
        rel.clean(2, 0);
        let p = topk_confidence_bruteforce(&rel, &[2], 1).unwrap();
        assert!((p - 0.78 * 0.49).abs() < 1e-9, "expected ≈0.382, got {p}");
    }

    #[test]
    fn certain_relation_confidence_is_binary() {
        let mut rel = UncertainRelation::new(1.0, 4);
        rel.push_certain(4);
        rel.push_certain(2);
        rel.push_certain(1);
        assert_eq!(topk_confidence_bruteforce(&rel, &[0], 1).unwrap(), 1.0);
        assert_eq!(topk_confidence_bruteforce(&rel, &[1], 1).unwrap(), 0.0);
        assert_eq!(topk_confidence_bruteforce(&rel, &[0, 1], 2).unwrap(), 1.0);
    }

    #[test]
    fn ties_count_as_valid_topk() {
        let mut rel = UncertainRelation::new(1.0, 1);
        rel.push_certain(1);
        rel.push_certain(1);
        // Either single frame is a valid Top-1 when both tie.
        assert_eq!(topk_confidence_bruteforce(&rel, &[0], 1).unwrap(), 1.0);
        assert_eq!(topk_confidence_bruteforce(&rel, &[1], 1).unwrap(), 1.0);
    }

    #[test]
    fn wrong_answer_size_has_zero_confidence() {
        let rel = table_1a();
        assert_eq!(topk_confidence_bruteforce(&rel, &[0, 1], 1).unwrap(), 0.0);
    }

    #[test]
    fn enumeration_guard_returns_typed_error() {
        let mut rel = UncertainRelation::new(1.0, 9);
        let masses = vec![0.1; 10];
        for _ in 0..25 {
            rel.push_uncertain(DiscreteDist::from_masses(&masses));
        }
        assert_eq!(count_worlds(&rel), 10u128.pow(25));
        let err = enumerate_worlds(&rel).expect_err("must refuse 10^25 worlds");
        assert_eq!(err.limit, MAX_WORLDS);
        assert_eq!(err.worlds, 10u128.pow(25));
        assert!(err.to_string().contains("too large"));
        let err2 = topk_confidence_bruteforce(&rel, &[0], 1).expect_err("propagates");
        assert_eq!(err, err2);
    }

    #[test]
    fn count_worlds_saturates_instead_of_overflowing() {
        let mut rel = UncertainRelation::new(1.0, 9);
        let masses = vec![0.1; 10];
        for _ in 0..200 {
            rel.push_uncertain(DiscreteDist::from_masses(&masses));
        }
        assert_eq!(count_worlds(&rel), u128::MAX);
        assert!(enumerate_worlds(&rel).is_err());
    }
}
