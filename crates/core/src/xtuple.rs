//! The uncertain relation: a collection of x-tuples (§2, Table 1a).
//!
//! Every item (frame in frame-level queries, window in window queries) is
//! either **uncertain** — carrying the discrete score distribution produced
//! by Phase 1 — or **certain** — its exact bucket is known, either because
//! it was oracle-labelled while collecting training data or because Phase 2
//! cleaned it. The certain-result condition (§3) means query answers are
//! drawn exclusively from the certain subset.

use crate::dist::DiscreteDist;

/// Identifier of an item within an [`UncertainRelation`] (dense index).
pub type ItemId = usize;

/// The quantization every relation and oracle adapter shares: the nearest
/// bucket of `score` on a grid of `step` score units per bucket, clamped to
/// `0 ..= max_bucket`.
pub fn score_to_bucket(score: f64, step: f64, max_bucket: usize) -> u32 {
    ((score / step).round().max(0.0) as usize).min(max_bucket) as u32
}

/// The state of one x-tuple.
#[derive(Debug, Clone, PartialEq)]
pub enum ItemState {
    /// Score distribution from the proxy model.
    Uncertain(DiscreteDist),
    /// Exact bucket confirmed by the oracle.
    Certain(u32),
}

impl ItemState {
    /// `F(t) = Pr(S ≤ bucket)`: certain items are step functions.
    pub fn cdf(&self, bucket: usize) -> f64 {
        match self {
            ItemState::Uncertain(d) => d.cdf(bucket),
            ItemState::Certain(b) => {
                if (*b as usize) <= bucket {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }

    /// `Pr(S = bucket)`: certain items are point masses.
    pub fn pmf(&self, bucket: usize) -> f64 {
        match self {
            ItemState::Uncertain(d) => d.pmf(bucket),
            ItemState::Certain(b) => {
                if *b as usize == bucket {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }

    /// `(lowest, highest)` bucket with positive mass; a certain item's
    /// support is the single bucket it was confirmed at.
    pub fn support(&self) -> (usize, usize) {
        match self {
            ItemState::Uncertain(d) => (d.support_min(), d.support_max()),
            ItemState::Certain(b) => (*b as usize, *b as usize),
        }
    }
}

/// An uncertain relation over a shared quantization grid.
#[derive(Debug, Clone, PartialEq)]
pub struct UncertainRelation {
    /// Score units per bucket (1.0 for counting scores).
    step: f64,
    /// All buckets live in `0 ..= max_bucket`.
    max_bucket: usize,
    items: Vec<ItemState>,
    /// Original (pre-cleaning) distributions of items that started
    /// uncertain, kept for Eq. 3-style analysis and diagnostics.
    num_certain: usize,
}

impl UncertainRelation {
    pub fn new(step: f64, max_bucket: usize) -> Self {
        assert!(step > 0.0, "step must be positive");
        UncertainRelation {
            step,
            max_bucket,
            items: Vec::new(),
            num_certain: 0,
        }
    }

    pub fn step(&self) -> f64 {
        self.step
    }

    pub fn max_bucket(&self) -> usize {
        self.max_bucket
    }

    /// Adds an uncertain item; the distribution must match the grid.
    pub fn push_uncertain(&mut self, dist: DiscreteDist) -> ItemId {
        assert_eq!(
            dist.max_bucket(),
            self.max_bucket,
            "distribution grid mismatch (item {} vs relation {})",
            dist.max_bucket(),
            self.max_bucket
        );
        self.items.push(ItemState::Uncertain(dist));
        self.items.len() - 1
    }

    /// Adds an already-certain item (e.g. a frame labelled while collecting
    /// CMDN training data — §3.2: "no work is wasted").
    pub fn push_certain(&mut self, bucket: u32) -> ItemId {
        assert!(bucket as usize <= self.max_bucket, "bucket beyond grid");
        self.items.push(ItemState::Certain(bucket));
        self.num_certain += 1;
        self.items.len() - 1
    }

    pub fn len(&self) -> usize {
        self.items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    pub fn num_certain(&self) -> usize {
        self.num_certain
    }

    pub fn num_uncertain(&self) -> usize {
        self.items.len() - self.num_certain
    }

    pub fn is_certain(&self, id: ItemId) -> bool {
        matches!(self.items[id], ItemState::Certain(_))
    }

    /// The state of any item: match on it once instead of asking
    /// [`Self::certain_bucket`] and then [`Self::dist`].
    pub fn item(&self, id: ItemId) -> &ItemState {
        &self.items[id]
    }

    /// The exact bucket of a certain item; `None` while uncertain.
    pub fn certain_bucket(&self, id: ItemId) -> Option<u32> {
        match &self.items[id] {
            ItemState::Certain(b) => Some(*b),
            ItemState::Uncertain(_) => None,
        }
    }

    /// The distribution of an uncertain item; `None` once certain.
    pub fn dist(&self, id: ItemId) -> Option<&DiscreteDist> {
        match &self.items[id] {
            ItemState::Uncertain(d) => Some(d),
            ItemState::Certain(_) => None,
        }
    }

    /// `F_f(t)` for any item: certain items are step functions.
    pub fn cdf(&self, id: ItemId, bucket: usize) -> f64 {
        self.items[id].cdf(bucket)
    }

    /// `Pr(S_f = bucket)` for any item: certain items are point masses.
    pub fn pmf(&self, id: ItemId, bucket: usize) -> f64 {
        self.items[id].pmf(bucket)
    }

    /// `(lowest, highest)` bucket with positive mass for any item.
    pub fn support(&self, id: ItemId) -> (usize, usize) {
        self.items[id].support()
    }

    /// Marks an item certain with its oracle-confirmed bucket, returning its
    /// previous distribution. Panics if it was already certain.
    pub fn clean(&mut self, id: ItemId, bucket: u32) -> DiscreteDist {
        assert!(bucket as usize <= self.max_bucket, "bucket beyond grid");
        match std::mem::replace(&mut self.items[id], ItemState::Certain(bucket)) {
            ItemState::Uncertain(d) => {
                self.num_certain += 1;
                d
            }
            ItemState::Certain(_) => panic!("item {id} cleaned twice"),
        }
    }

    /// Ids of all certain items.
    pub fn certain_ids(&self) -> Vec<ItemId> {
        (0..self.items.len())
            .filter(|&i| self.is_certain(i))
            .collect()
    }

    /// Ids of all uncertain items.
    pub fn uncertain_ids(&self) -> Vec<ItemId> {
        (0..self.items.len())
            .filter(|&i| !self.is_certain(i))
            .collect()
    }

    /// Converts a bucket index to score units.
    pub fn bucket_to_score(&self, bucket: u32) -> f64 {
        bucket as f64 * self.step
    }

    /// Converts a score to the nearest bucket (clamped to the grid).
    pub fn score_to_bucket(&self, score: f64) -> u32 {
        score_to_bucket(score, self.step, self.max_bucket)
    }

    /// Expected bucket of any item (exact bucket when certain).
    pub fn mean_bucket(&self, id: ItemId) -> f64 {
        match &self.items[id] {
            ItemState::Uncertain(d) => d.mean_bucket(),
            ItemState::Certain(b) => *b as f64,
        }
    }
}

#[cfg(test)]
pub(crate) use tests::table_1a;

#[cfg(test)]
mod tests {
    use super::*;

    fn dist(masses: &[f64]) -> DiscreteDist {
        DiscreteDist::from_masses(masses)
    }

    /// The running example of Table 1a: three frames over buckets {0,1,2}.
    pub(crate) fn table_1a() -> UncertainRelation {
        let mut r = UncertainRelation::new(1.0, 2);
        r.push_uncertain(dist(&[0.78, 0.21, 0.01]));
        r.push_uncertain(dist(&[0.49, 0.42, 0.09]));
        r.push_uncertain(dist(&[0.16, 0.48, 0.36]));
        r
    }

    #[test]
    fn push_and_query() {
        let r = table_1a();
        assert_eq!(r.len(), 3);
        assert_eq!(r.num_uncertain(), 3);
        assert_eq!(r.num_certain(), 0);
        assert!((r.cdf(0, 1) - 0.99).abs() < 1e-12);
        assert!((r.cdf(2, 0) - 0.16).abs() < 1e-12);
    }

    #[test]
    fn clean_moves_item_to_certain() {
        let mut r = table_1a();
        let old = r.clean(2, 0); // Table 5: Oracle(f3) returns 0
        assert!((old.pmf(1) - 0.48).abs() < 1e-12);
        assert!(r.is_certain(2));
        assert_eq!(r.certain_bucket(2), Some(0));
        assert_eq!(r.num_certain(), 1);
        assert_eq!(r.certain_ids(), vec![2]);
        assert_eq!(r.uncertain_ids(), vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "cleaned twice")]
    fn double_clean_panics() {
        let mut r = table_1a();
        r.clean(0, 1);
        r.clean(0, 1);
    }

    #[test]
    fn certain_cdf_is_step_function() {
        let mut r = UncertainRelation::new(1.0, 3);
        r.push_certain(2);
        assert_eq!(r.cdf(0, 1), 0.0);
        assert_eq!(r.cdf(0, 2), 1.0);
        assert_eq!(r.cdf(0, 3), 1.0);
    }

    #[test]
    #[should_panic(expected = "grid mismatch")]
    fn grid_mismatch_rejected() {
        let mut r = UncertainRelation::new(1.0, 2);
        r.push_uncertain(dist(&[0.5, 0.5])); // max_bucket 1, relation expects 2
    }

    #[test]
    fn score_bucket_roundtrip() {
        let r = UncertainRelation::new(0.5, 10);
        assert_eq!(r.score_to_bucket(2.3), 5); // 2.3/0.5 = 4.6 → 5
        assert_eq!(r.bucket_to_score(5), 2.5);
        assert_eq!(r.score_to_bucket(-3.0), 0);
        assert_eq!(r.score_to_bucket(1e9), 10);
    }

    #[test]
    fn pmf_and_support_for_both_states() {
        let mut r = UncertainRelation::new(1.0, 3);
        r.push_uncertain(dist(&[0.0, 0.4, 0.6, 0.0]));
        r.push_certain(2);
        assert!((r.pmf(0, 1) - 0.4).abs() < 1e-12);
        assert_eq!(r.pmf(0, 0), 0.0);
        assert_eq!(r.support(0), (1, 2));
        assert_eq!(r.pmf(1, 2), 1.0);
        assert_eq!(r.pmf(1, 1), 0.0);
        assert_eq!(r.support(1), (2, 2));
    }

    #[test]
    fn mean_bucket_for_both_states() {
        let mut r = UncertainRelation::new(1.0, 2);
        r.push_uncertain(dist(&[0.0, 0.5, 0.5]));
        r.push_certain(2);
        assert!((r.mean_bucket(0) - 1.5).abs() < 1e-12);
        assert_eq!(r.mean_bucket(1), 2.0);
    }
}
