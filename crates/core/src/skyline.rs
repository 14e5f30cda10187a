//! Probabilistic skyline over uncertain video data — the future-work
//! direction the paper names in §5 ("Finding the skyline \[6\] from such
//! uncertain video data"), built in Everest's oracle-in-the-loop style.
//!
//! ## Setting
//!
//! Each frame carries a *vector* of `d` scores (e.g. `(cars, persons)`),
//! each given as an independent per-dimension x-tuple distribution (the
//! difference-detector argument of §3.2 justifies independence across
//! frames; a separate CMDN per scoring function justifies independence
//! across dimensions). Frame `a` **dominates** `b` (`a ≻ b`) iff
//! `a_j ≥ b_j` on every dimension and `a_j > b_j` on at least one. The
//! **skyline** is the set of non-dominated frames.
//!
//! ## Oracle-in-the-loop skyline cleaning
//!
//! Mirroring §3.3, the answer `R̂` is the skyline of the *certain* subset
//! (certain-result condition), and its confidence is the probability that
//! `R̂` equals the true skyline. Under item independence that probability
//! factorizes exactly like Eq. 2:
//!
//! ```text
//! p̂ = Π_{u ∈ Dᵘ} Pr(S_u ∈ Dominated(R̂))
//! ```
//!
//! because `R̂` is wrong iff some uncertain item escapes domination by
//! `R̂`: an escaped item either joins the skyline or evicts a member
//! (and a dominated item can do neither — domination is transitive, so
//! `u ≺ r ∈ R̂` and `u ≻ r' ∈ R̂` would give `r ≻ r'`, contradicting both
//! being skyline members). `Dominated(R̂)` is a deterministic region —
//! `R̂`'s scores are oracle-confirmed — so each factor is a plain
//! probability mass, computed in `O(m)` per item for `d = 2` via the
//! staircase of `R̂` (and by grid enumeration for `d = 3`).
//!
//! Cleaning is the one §3.3 loop of [`crate::cleaner`] with the skyline as
//! the answer being certified: it repeatedly confirms the uncertain items
//! with the **smallest** factors — the analogue of §3.3.2's ψ ordering: for
//! a product of probabilities, the smallest factor is both the largest drag
//! on `p̂` and the item most likely to change the skyline.

use crate::budget::{QueryBudget, Termination};
use crate::cleaner::{drive, Answer, CleaningOracle};
use crate::dist::DiscreteDist;
use crate::xtuple::{ItemId, ItemState};
use std::collections::BTreeMap;

/// Panics unless an item's per-dimension states lie on the grid
/// `max_bucket`.
fn check_dims(max_bucket: &[usize], dims: &[ItemState]) {
    assert_eq!(dims.len(), max_bucket.len(), "dimension count mismatch");
    for (j, d) in dims.iter().enumerate() {
        match d {
            ItemState::Uncertain(dist) => assert_eq!(
                dist.max_bucket(),
                max_bucket[j],
                "dim {j}: distribution grid mismatch"
            ),
            ItemState::Certain(b) => assert!(
                *b as usize <= max_bucket[j],
                "dim {j}: bucket {b} beyond grid {}",
                max_bucket[j]
            ),
        }
    }
}

/// A multi-dimensional uncertain relation: `items[i][j]` is item `i`'s
/// x-tuple state on dimension `j`. All items share one bucket grid per
/// dimension (`max_bucket[j]`).
#[derive(Debug, Clone)]
pub struct VectorRelation {
    max_bucket: Vec<usize>,
    items: Vec<Vec<ItemState>>,
    num_certain: usize,
}

impl VectorRelation {
    pub fn new(max_bucket: Vec<usize>) -> Self {
        assert!(
            (2..=3).contains(&max_bucket.len()),
            "skylines need 2 or 3 dimensions, got {}",
            max_bucket.len()
        );
        VectorRelation {
            max_bucket,
            items: Vec::new(),
            num_certain: 0,
        }
    }

    pub fn dims(&self) -> usize {
        self.max_bucket.len()
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

    pub fn max_bucket(&self, dim: usize) -> usize {
        self.max_bucket[dim]
    }

    /// Adds an item with per-dimension states (certain dimensions allowed,
    /// but the item counts as certain only when *all* dimensions are).
    pub fn push(&mut self, dims: Vec<ItemState>) -> ItemId {
        check_dims(&self.max_bucket, &dims);
        if dims.iter().all(|d| matches!(d, ItemState::Certain(_))) {
            self.num_certain += 1;
        }
        self.items.push(dims);
        self.items.len() - 1
    }

    /// Convenience: push a fully-certain vector.
    pub fn push_certain(&mut self, v: &[u32]) -> ItemId {
        self.push(v.iter().map(|&b| ItemState::Certain(b)).collect())
    }

    /// Convenience: push a fully-uncertain vector.
    pub fn push_uncertain(&mut self, dists: Vec<DiscreteDist>) -> ItemId {
        self.push(dists.into_iter().map(ItemState::Uncertain).collect())
    }

    pub fn is_certain(&self, id: ItemId) -> bool {
        self.items[id]
            .iter()
            .all(|d| matches!(d, ItemState::Certain(_)))
    }

    /// The exact vector of a certain item; `None` while any dimension is
    /// uncertain.
    pub fn certain_vector(&self, id: ItemId) -> Option<Vec<u32>> {
        self.items[id]
            .iter()
            .map(|d| match d {
                ItemState::Certain(b) => Some(*b),
                ItemState::Uncertain(_) => None,
            })
            .collect()
    }

    /// Marks an item certain with oracle-confirmed buckets.
    pub fn clean(&mut self, id: ItemId, v: &[u32]) {
        assert!(!self.is_certain(id), "item {id} cleaned twice");
        let dims: Vec<ItemState> = v.iter().map(|&b| ItemState::Certain(b)).collect();
        check_dims(&self.max_bucket, &dims);
        self.items[id] = dims;
        self.num_certain += 1;
    }

    pub fn certain_ids(&self) -> Vec<ItemId> {
        (0..self.len()).filter(|&i| self.is_certain(i)).collect()
    }

    pub fn uncertain_ids(&self) -> Vec<ItemId> {
        (0..self.len()).filter(|&i| !self.is_certain(i)).collect()
    }

    /// `Pr(S_{id,j} = bucket)` — per-dimension probability mass.
    pub fn dim_pmf(&self, id: ItemId, j: usize, bucket: usize) -> f64 {
        self.items[id][j].pmf(bucket)
    }

    /// Every fully-certain item with its exact vector, ascending id.
    fn certain_points(&self) -> Vec<(ItemId, Vec<u32>)> {
        (0..self.len())
            .filter_map(|id| self.certain_vector(id).map(|v| (id, v)))
            .collect()
    }

    #[cfg(test)]
    fn dim(&self, id: ItemId, j: usize) -> &ItemState {
        &self.items[id][j]
    }
}

/// Zips per-dimension [`crate::xtuple::UncertainRelation`]s (one Phase-1
/// run per scoring function over the *same* video) into a
/// [`VectorRelation`].
///
/// Items must align 1:1 — both Phase-1 runs see the same retained frames
/// because the difference detector is score-independent. An item is
/// vector-certain only when every dimension was labelled during sampling.
pub fn zip_relations(dims: &[&crate::xtuple::UncertainRelation]) -> VectorRelation {
    assert!(
        (2..=3).contains(&dims.len()),
        "skylines need 2 or 3 dimensions"
    );
    let n = dims[0].len();
    for (j, r) in dims.iter().enumerate() {
        assert_eq!(
            r.len(),
            n,
            "dimension {j} has {} items, expected {n}",
            r.len()
        );
    }
    let mut rel = VectorRelation::new(dims.iter().map(|r| r.max_bucket()).collect());
    for i in 0..n {
        rel.push(dims.iter().map(|r| r.item(i).clone()).collect());
    }
    rel
}

/// `a ≻ b`: componentwise ≥ with at least one strict >.
pub fn dominates(a: &[u32], b: &[u32]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    let mut strict = false;
    for (x, y) in a.iter().zip(b) {
        if x < y {
            return false;
        }
        if x > y {
            strict = true;
        }
    }
    strict
}

/// Skyline of a set of certain vectors: ids of the non-dominated ones,
/// in input order.
///
/// Sort-filter skyline: candidates are visited in descending
/// coordinate-sum order. Dominance implies a strictly larger sum, so any
/// dominator of `v` is visited before `v`, and (by transitivity) some
/// *skyline* member dominating `v` is already accepted when `v` arrives —
/// each candidate therefore compares only against the accepted skyline,
/// with an early exit on the first dominator. Typical cost is
/// `O(n log n + n·|skyline|)` versus the all-pairs `O(n²)` of the
/// original (`skyline_of_pairwise`), which survives as the property-test
/// oracle.
pub fn skyline_of(vectors: &[(ItemId, Vec<u32>)]) -> Vec<ItemId> {
    // Precomputed sums (recomputing the key inside the sort comparator
    // costs more than the filter itself); equal-sum ties break by input
    // index, so the visit order — and with it the result — is fully
    // deterministic.
    let mut order: Vec<(u64, u32)> = vectors
        .iter()
        .enumerate()
        .map(|(i, (_, v))| (v.iter().map(|&x| x as u64).sum::<u64>(), i as u32))
        .collect();
    order.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut sky: Vec<u32> = Vec::new();
    for &(_, i) in &order {
        if !sky
            .iter()
            .any(|&s| dominates(&vectors[s as usize].1, &vectors[i as usize].1))
        {
            sky.push(i);
        }
    }
    sky.sort_unstable();
    sky.into_iter().map(|i| vectors[i as usize].0).collect()
}

/// The original all-pairs skyline (`O(s²)`): the oracle [`skyline_of`] is
/// property-tested against.
#[cfg(test)]
fn skyline_of_pairwise(vectors: &[(ItemId, Vec<u32>)]) -> Vec<ItemId> {
    vectors
        .iter()
        .filter(|(_, v)| !vectors.iter().any(|(_, w)| dominates(w, v)))
        .map(|(id, _)| *id)
        .collect()
}

/// `Pr(S_u ∈ Dominated(points))` for an uncertain item `u` whose
/// dimensions are independent, against a *certain* point set.
///
/// For `d = 2` this walks `u`'s x-support once against the staircase of
/// `points` (`O(m + s)` after an `O(s)` staircase build per call). For
/// `d = 3` it enumerates `u`'s support grid (`O(m³ · s)` worst case, fine
/// at video-score bucket counts).
pub fn prob_dominated(rel: &VectorRelation, u: ItemId, points: &[Vec<u32>]) -> f64 {
    let item = &rel.items[u];
    if points.is_empty() {
        0.0
    } else if item.len() == 2 {
        prob_dominated_2d(item, points)
    } else {
        prob_dominated_grid(item, points)
    }
}

fn prob_dominated_2d(item: &[ItemState], points: &[Vec<u32>]) -> f64 {
    let x_state = &item[0];
    let y_state = &item[1];
    let (x_lo, x_hi) = x_state.support();

    // For each x, the largest y that is still dominated:
    //   ybound(x) = max( max{p.y   : p.x > x},     (strict on dim 0)
    //                    max{p.y − 1 : p.x == x} ) (strict on dim 1)
    // Walk x over u's support; maintaining maxima over points sorted by x
    // descending would be O(s log s + m); a direct scan is O(m·s) but both
    // m and s are small — keep the direct form, it is obviously correct.
    let mut total = 0.0;
    for x in x_lo..=x_hi {
        let px = x_state.pmf(x);
        if px == 0.0 {
            continue;
        }
        let mut ybound: i64 = -1;
        for p in points {
            let (p0, p1) = (p[0] as usize, p[1] as i64);
            if p0 > x {
                ybound = ybound.max(p1);
            } else if p0 == x {
                ybound = ybound.max(p1 - 1);
            }
        }
        if ybound >= 0 {
            total += px * y_state.cdf(ybound as usize);
        }
    }
    total
}

fn prob_dominated_grid(item: &[ItemState], points: &[Vec<u32>]) -> f64 {
    let supports: Vec<(usize, usize)> = item.iter().map(|d| d.support()).collect();
    let mut total = 0.0;
    let mut v = vec![0u32; item.len()];
    enumerate_support(item, &supports, 0, 1.0, &mut v, &mut |v, mass| {
        if points.iter().any(|p| dominates(p, v)) {
            total += mass;
        }
    });
    total
}

fn enumerate_support(
    item: &[ItemState],
    supports: &[(usize, usize)],
    j: usize,
    mass: f64,
    v: &mut Vec<u32>,
    f: &mut impl FnMut(&[u32], f64),
) {
    if mass == 0.0 {
        return;
    }
    if j == supports.len() {
        f(v, mass);
        return;
    }
    let (lo, hi) = supports[j];
    for b in lo..=hi {
        let p = item[j].pmf(b);
        if p > 0.0 {
            v[j] = b as u32;
            enumerate_support(item, supports, j + 1, mass * p, v, f);
        }
    }
}

/// The state of a skyline query against a relation: the certain skyline,
/// per-uncertain-item domination factors, and the confidence product.
#[derive(Debug, Clone)]
pub struct SkylineState {
    /// Skyline of the certain subset (the candidate answer `R̂`).
    pub skyline: Vec<ItemId>,
    /// `Pr(S_u ∈ Dominated(R̂))` per uncertain item, paired with its id.
    pub factors: Vec<(ItemId, f64)>,
    /// `p̂ = Π factors`.
    pub confidence: f64,
}

/// Computes the full [`SkylineState`] of a relation.
pub fn skyline_state(rel: &VectorRelation) -> SkylineState {
    let mut certain = rel.certain_points();
    let skyline = skyline_of(&certain);
    // Both lists ascend by id, so the members are found by binary search.
    certain.retain(|(id, _)| skyline.binary_search(id).is_ok());
    let points: Vec<Vec<u32>> = certain.into_iter().map(|(_, v)| v).collect();
    let mut confidence = 1.0;
    let factors: Vec<(ItemId, f64)> = rel
        .uncertain_ids()
        .into_iter()
        .map(|u| {
            let p = prob_dominated(rel, u, &points);
            confidence *= p;
            (u, p)
        })
        .collect();
    SkylineState {
        skyline,
        factors,
        confidence,
    }
}

/// Counters of the incremental maintainer's actual work — asserted by
/// tests to pin the O(affected) claim.
#[derive(Debug, Clone, Copy, Default)]
pub struct MaintainerStats {
    /// Domination factors (re)computed.
    pub factor_recomputes: u64,
}

/// Incrementally-maintained [`SkylineState`] of a [`VectorRelation`] under
/// item insertion and cleaning — the index a skyline run keeps, pinned to
/// the from-scratch [`skyline_state`] by property tests
/// (`tests/skyline_properties.rs`).
///
/// The maintainer holds the relation's only mutable borrow, so every
/// insertion and cleaning goes through it and the index cannot go stale.
/// The items themselves stay in the relation; the index stores only the
/// skyline members' vectors and the uncertain items' domination factors.
///
/// The key observation (d = 2): a staircase point `(a, b)` entering or
/// leaving the skyline changes `ybound(x)` only for `x ≤ a`, so only
/// uncertain items whose x-support intersects `[0, max a over changed
/// points]` can see a different domination factor — everything else keeps
/// its stored value, bit-for-bit (the staircase walk consumes integer
/// `ybound`s, which are unchanged outside the affected range). For d = 3
/// any staircase change recomputes all factors; insertions of dominated
/// points never touch a factor in either dimensionality.
#[derive(Debug)]
pub struct SkylineMaintainer<'a> {
    rel: &'a mut VectorRelation,
    /// Certain skyline members and their vectors.
    skyline: BTreeMap<ItemId, Vec<u32>>,
    /// Domination factors of the not-fully-certain items.
    factors: BTreeMap<ItemId, f64>,
    pub stats: MaintainerStats,
}

impl<'a> SkylineMaintainer<'a> {
    /// Indexes every item of `rel`, one insertion at a time.
    pub fn new(rel: &'a mut VectorRelation) -> Self {
        let mut m = SkylineMaintainer {
            rel,
            skyline: BTreeMap::new(),
            factors: BTreeMap::new(),
            stats: MaintainerStats::default(),
        };
        for id in 0..m.rel.len() {
            m.index(id);
        }
        m
    }

    /// The relation being maintained.
    pub fn relation(&self) -> &VectorRelation {
        self.rel
    }

    /// Adds an item to the relation and to the index.
    pub fn push(&mut self, dims: Vec<ItemState>) -> ItemId {
        let id = self.rel.push(dims);
        self.index(id);
        id
    }

    /// Confirms an uncertain item's exact vector (oracle cleaning).
    pub fn clean(&mut self, id: ItemId, v: &[u32]) {
        self.rel.clean(id, v);
        self.factors.remove(&id);
        self.insert_point(id, v.to_vec());
    }

    fn index(&mut self, id: ItemId) {
        match self.rel.certain_vector(id) {
            Some(v) => self.insert_point(id, v),
            None => {
                let f = prob_dominated(self.rel, id, &self.points());
                self.stats.factor_recomputes += 1;
                self.factors.insert(id, f);
            }
        }
    }

    /// Current skyline point vectors, ascending id order.
    fn points(&self) -> Vec<Vec<u32>> {
        self.skyline.values().cloned().collect()
    }

    /// Folds a new certain point into the skyline and refreshes only the
    /// factors its staircase change can reach.
    fn insert_point(&mut self, id: ItemId, v: Vec<u32>) {
        if self.skyline.values().any(|w| dominates(w, &v)) {
            // A dominated point changes neither the skyline nor any factor.
            return;
        }
        let (evicted, kept): (BTreeMap<ItemId, Vec<u32>>, _) = std::mem::take(&mut self.skyline)
            .into_iter()
            .partition(|(_, w)| dominates(&v, w));
        let x_cut = evicted.values().fold(v[0], |x, w| x.max(w[0])) as usize;
        self.skyline = kept;
        self.skyline.insert(id, v);
        self.refresh_factors(x_cut);
    }

    /// Recomputes the factors a staircase change at `x ≤ x_cut` can affect.
    fn refresh_factors(&mut self, x_cut: usize) {
        let points = self.points();
        let two_d = self.rel.dims() == 2;
        for (&id, factor) in self.factors.iter_mut() {
            if two_d && self.rel.items[id][0].support().0 > x_cut {
                continue; // its ybound(x) range is untouched
            }
            *factor = prob_dominated(self.rel, id, &points);
            self.stats.factor_recomputes += 1;
        }
    }

    /// The current [`SkylineState`], identical (to fp identity of each
    /// factor) to [`skyline_state`] of the maintained relation.
    pub fn state(&self) -> SkylineState {
        let mut confidence = 1.0;
        let factors: Vec<(ItemId, f64)> = self
            .factors
            .iter()
            .map(|(&id, &f)| {
                confidence *= f;
                (id, f)
            })
            .collect();
        SkylineState {
            skyline: self.skyline.keys().copied().collect(),
            factors,
            confidence,
        }
    }
}

/// Configuration of a skyline query.
#[derive(Debug, Clone)]
pub struct SkylineConfig {
    /// Confidence threshold `thres`.
    pub thres: f64,
    /// Oracle batch size (§3.5's batch inference).
    pub batch_size: usize,
    /// Query-level limits, checked between cleaning batches; the default is
    /// unlimited.
    pub budget: QueryBudget,
}

impl Default for SkylineConfig {
    fn default() -> Self {
        SkylineConfig {
            thres: 0.9,
            batch_size: 8,
            budget: QueryBudget::unlimited(),
        }
    }
}

/// Result of a skyline query.
#[derive(Debug, Clone)]
pub struct SkylineOutcome {
    /// The answer: certain, non-dominated items (ids), unordered.
    pub skyline: Vec<ItemId>,
    /// `Pr(R̂ = Sky)` at termination.
    pub confidence: f64,
    /// Why the run stopped. Anything but `Converged` marks a *degraded*
    /// answer: still the skyline of the certain items, with its honest
    /// achieved confidence.
    pub termination: Termination,
    pub iterations: usize,
    pub cleaned: usize,
}

/// The skyline [`Answer`]: the certain skyline, certified by the product of
/// the uncertain items' domination factors.
struct Skyline<'a> {
    index: SkylineMaintainer<'a>,
    batch_size: usize,
}

impl Answer for Skyline<'_> {
    type Value = Vec<u32>;
    type Want = ();
    type Picks = Vec<ItemId>;

    fn assess(&self) -> (Option<f64>, ()) {
        (Some(self.index.factors.values().product()), ())
    }

    /// The uncertain items with the smallest factors, ties by ascending id.
    fn pick(&mut self, (): (), room: usize) -> Vec<ItemId> {
        let mut by_factor: Vec<(ItemId, f64)> =
            self.index.factors.iter().map(|(&id, &f)| (id, f)).collect();
        by_factor.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        by_factor.truncate(self.batch_size.min(room));
        by_factor.into_iter().map(|(id, _)| id).collect()
    }

    fn retire(&mut self, id: ItemId, v: Vec<u32>) {
        self.index.clean(id, &v);
    }
}

/// Runs the oracle-in-the-loop skyline query until
/// `Pr(R̂ = Sky) ≥ thres` (§3.3 adapted to domination) or `cfg.budget`
/// stops it.
///
/// Each iteration confirms the `batch_size` uncertain items with the
/// smallest domination factors. Like Phase 2 for Top-K, an unlimited run
/// always terminates: every cleaning strictly shrinks `Dᵘ`, and with
/// `Dᵘ = ∅` the confidence is exactly 1.
///
/// The per-iteration state comes from an incremental [`SkylineMaintainer`]
/// (each cleaning refreshes only the factors its staircase change can
/// reach) rather than a full [`skyline_state`] recompute; the two are
/// property-tested equal, factor for factor.
pub fn run_skyline_cleaner(
    rel: &mut VectorRelation,
    oracle: &mut dyn CleaningOracle<Vec<u32>>,
    cfg: &SkylineConfig,
) -> SkylineOutcome {
    assert!((0.0..1.0).contains(&cfg.thres), "thres must be in [0, 1)");
    assert!(cfg.batch_size >= 1);
    let mut answer = Skyline {
        index: SkylineMaintainer::new(rel),
        batch_size: cfg.batch_size,
    };
    let run = drive(&mut answer, oracle, cfg.thres, &cfg.budget, 0, None);
    SkylineOutcome {
        skyline: answer.index.skyline.into_keys().collect(),
        confidence: run.confidence,
        termination: run.termination,
        iterations: run.iterations,
        cleaned: run.cleaned,
    }
}

/// Brute-force possible-world skyline probability — the test oracle for
/// [`skyline_state`]. Enumerates every combination of the uncertain items'
/// supports (exponential; tiny relations only).
///
/// Returns `Pr(skyline(world) == candidate)` where worlds fix certain
/// items at their exact vectors.
pub fn pws_skyline_probability(rel: &VectorRelation, candidate: &[ItemId]) -> f64 {
    let uncertain = rel.uncertain_ids();
    let certain = rel.certain_points();
    let mut total = 0.0;
    let mut sorted_candidate: Vec<ItemId> = candidate.to_vec();
    sorted_candidate.sort_unstable();

    // Recursive world enumeration over uncertain items.
    fn recurse(
        rel: &VectorRelation,
        uncertain: &[ItemId],
        fixed: &mut Vec<(ItemId, Vec<u32>)>,
        mass: f64,
        candidate: &[ItemId],
        total: &mut f64,
    ) {
        if mass == 0.0 {
            return;
        }
        match uncertain.split_first() {
            None => {
                let mut sky = skyline_of(fixed);
                sky.sort_unstable();
                if sky == candidate {
                    *total += mass;
                }
            }
            Some((&u, rest)) => {
                let item = &rel.items[u];
                let supports: Vec<(usize, usize)> = item.iter().map(|d| d.support()).collect();
                let mut v = vec![0u32; rel.dims()];
                enumerate_support(item, &supports, 0, 1.0, &mut v, &mut |v, m| {
                    fixed.push((u, v.to_vec()));
                    recurse(rel, rest, fixed, mass * m, candidate, total);
                    fixed.pop();
                });
            }
        }
    }

    let mut fixed = certain;
    recurse(
        rel,
        &uncertain,
        &mut fixed,
        1.0,
        &sorted_candidate,
        &mut total,
    );
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(masses: &[f64]) -> DiscreteDist {
        DiscreteDist::from_masses(masses)
    }

    #[test]
    fn dominates_needs_a_strict_dimension() {
        assert!(dominates(&[2, 3], &[1, 3]));
        assert!(dominates(&[2, 3], &[2, 2]));
        assert!(
            !dominates(&[2, 3], &[2, 3]),
            "equal vectors do not dominate"
        );
        assert!(!dominates(&[2, 3], &[3, 2]), "incomparable");
        assert!(!dominates(&[1, 1], &[2, 0]), "incomparable the other way");
    }

    #[test]
    fn skyline_of_certain_vectors() {
        let vs = vec![
            (0, vec![5, 1]),
            (1, vec![3, 3]),
            (2, vec![1, 5]),
            (3, vec![2, 2]), // dominated by (3,3)
            (4, vec![5, 1]), // ties with item 0: neither dominates
        ];
        let mut sky = skyline_of(&vs);
        sky.sort_unstable();
        assert_eq!(sky, vec![0, 1, 2, 4]);
        assert_eq!(skyline_of(&vs), skyline_of_pairwise(&vs));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Sort-filter skyline ≡ all-pairs oracle on random vector sets
        /// (2-D and 3-D, dense ties included).
        #[test]
        fn sorted_skyline_equals_pairwise(
            dims in 2usize..4,
            n in 0usize..60,
            seed in 0u64..10_000,
        ) {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let vectors: Vec<(ItemId, Vec<u32>)> = (0..n)
                .map(|i| (i, (0..dims).map(|_| rng.gen_range(0..6u32)).collect()))
                .collect();
            proptest::prop_assert_eq!(skyline_of(&vectors), skyline_of_pairwise(&vectors));
        }
    }

    #[test]
    fn prob_dominated_2d_hand_computed() {
        // u = (X, Y), X uniform {0,1}, Y uniform {0,1}; point set {(1,1)}.
        // Dominated(·): (0,0) ✓ (0,1) ✓ (1,0) ✓ (1,1) ✗ → 3/4.
        let mut rel = VectorRelation::new(vec![2, 2]);
        let u = rel.push_uncertain(vec![d(&[0.5, 0.5, 0.0]), d(&[0.5, 0.5, 0.0])]);
        let p = prob_dominated(&rel, u, &[vec![1, 1]]);
        assert!((p - 0.75).abs() < 1e-12, "got {p}");
    }

    #[test]
    fn prob_dominated_respects_strictness() {
        // u certain at (1,1) exactly: (1,1) does not dominate itself.
        let mut rel = VectorRelation::new(vec![2, 2]);
        let u = rel.push(vec![ItemState::Certain(1), ItemState::Certain(1)]);
        assert_eq!(prob_dominated(&rel, u, &[vec![1, 1]]), 0.0);
        // (2,1) dominates (1,1) via dim 0.
        assert_eq!(prob_dominated(&rel, u, &[vec![2, 1]]), 1.0);
        // (1,2) dominates via dim 1.
        assert_eq!(prob_dominated(&rel, u, &[vec![1, 2]]), 1.0);
    }

    #[test]
    fn prob_dominated_union_of_cones() {
        // Points (2,0) and (0,2); u uniform on {0,1,2}².
        // Dominated: by (2,0): (0,0),(1,0) ; by (0,2): (0,0),(0,1).
        // Union = {(0,0),(1,0),(0,1)} → 3/9.
        let mut rel = VectorRelation::new(vec![2, 2]);
        let u = rel.push_uncertain(vec![
            d(&[1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0]),
            d(&[1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0]),
        ]);
        let p = prob_dominated(&rel, u, &[vec![2, 0], vec![0, 2]]);
        assert!((p - 3.0 / 9.0).abs() < 1e-12, "got {p}");
    }

    #[test]
    fn prob_dominated_3d_grid_path() {
        // Point (1,1,1); u uniform on {0,1}³: dominated = all but (1,1,1)
        // → 7/8.
        let mut rel = VectorRelation::new(vec![1, 1, 1]);
        let u = rel.push_uncertain(vec![d(&[0.5, 0.5]), d(&[0.5, 0.5]), d(&[0.5, 0.5])]);
        let p = prob_dominated(&rel, u, &[vec![1, 1, 1]]);
        assert!((p - 7.0 / 8.0).abs() < 1e-12, "got {p}");
    }

    #[test]
    fn empty_point_set_dominates_nothing() {
        let mut rel = VectorRelation::new(vec![2, 2]);
        let u = rel.push_uncertain(vec![d(&[0.5, 0.5, 0.0]), d(&[1.0, 0.0, 0.0])]);
        assert_eq!(prob_dominated(&rel, u, &[]), 0.0);
    }

    /// A small mixed relation used by the state/PWS agreement tests.
    fn mixed_relation() -> VectorRelation {
        let mut rel = VectorRelation::new(vec![2, 2]);
        rel.push_certain(&[2, 1]); // strong certain point
        rel.push_certain(&[0, 2]); // incomparable certain point
        rel.push_uncertain(vec![d(&[0.6, 0.3, 0.1]), d(&[0.5, 0.5, 0.0])]);
        rel.push_uncertain(vec![d(&[0.2, 0.8, 0.0]), d(&[0.9, 0.1, 0.0])]);
        rel
    }

    #[test]
    fn skyline_state_matches_possible_world_enumeration() {
        let rel = mixed_relation();
        let state = skyline_state(&rel);
        let brute = pws_skyline_probability(&rel, &state.skyline);
        // The factorized confidence counts worlds where *every* uncertain
        // item is dominated by R̂; such worlds have skyline exactly R̂.
        // Brute force also counts worlds where the skyline happens to be
        // R̂ in other ways — impossible here, so the two must agree.
        assert!(
            (state.confidence - brute).abs() < 1e-9,
            "fast {} vs brute {}",
            state.confidence,
            brute
        );
    }

    #[test]
    fn factorized_confidence_is_a_lower_bound_in_general() {
        // With NO certain items the candidate skyline is empty, which can
        // never be a real skyline (some item always survives): both the
        // factorized confidence and the brute-force probability are 0.
        let mut rel = VectorRelation::new(vec![1, 1]);
        rel.push_uncertain(vec![d(&[0.5, 0.5]), d(&[0.5, 0.5])]);
        let state = skyline_state(&rel);
        assert!(state.skyline.is_empty());
        assert_eq!(state.confidence, 0.0);
        assert_eq!(pws_skyline_probability(&rel, &[]), 0.0);
    }

    /// Asserts a maintainer's state equals a from-scratch recompute over
    /// the relation it maintains, factor for factor.
    fn assert_state_matches(m: &SkylineMaintainer) {
        let inc = m.state();
        let full = skyline_state(m.relation());
        assert_eq!(inc.skyline, full.skyline, "skyline diverged");
        assert_eq!(inc.factors.len(), full.factors.len());
        for ((ia, fa), (ib, fb)) in inc.factors.iter().zip(&full.factors) {
            assert_eq!(ia, ib, "factor id order diverged");
            assert!((fa - fb).abs() < 1e-12, "factor {ia}: {fa} vs {fb}");
        }
        assert!(
            (inc.confidence - full.confidence).abs() < 1e-12,
            "confidence {} vs {}",
            inc.confidence,
            full.confidence
        );
    }

    #[test]
    fn maintainer_matches_full_recompute_after_cleaning() {
        let (mut rel, oracle) = noisy_setup(25, 42);
        let mut m = SkylineMaintainer::new(&mut rel);
        assert_state_matches(&m);
        for id in [3, 17, 0, 9, 21] {
            m.clean(id, &oracle.truth[id]);
            assert_state_matches(&m);
        }
    }

    #[test]
    fn maintainer_skips_factors_outside_staircase_change() {
        // Skyline {(5,5)}; an uncertain item supported on x ∈ {7, 8} can
        // never be affected by a new point at x = 2, so its factor must
        // not be recomputed.
        let mut rel = VectorRelation::new(vec![8, 8]);
        let mut m = SkylineMaintainer::new(&mut rel);
        m.push(vec![ItemState::Certain(5), ItemState::Certain(5)]);
        let mut far = vec![0.0; 9];
        far[7] = 0.5;
        far[8] = 0.5;
        m.push(vec![
            ItemState::Uncertain(d(&far)),
            ItemState::Uncertain(d(&[0.5, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])),
        ]);
        let before = m.stats.factor_recomputes;
        // (2, 6) is incomparable with (5, 5): it joins the skyline with
        // x_cut = 2 < 7 = the far item's minimum x.
        m.push(vec![ItemState::Certain(2), ItemState::Certain(6)]);
        assert_eq!(m.state().skyline, vec![0, 2]);
        assert_eq!(
            m.stats.factor_recomputes, before,
            "far item's factor must be skipped"
        );
        // And the skipped value is still the correct one.
        assert_state_matches(&m);
    }

    #[test]
    fn maintainer_dominated_insert_touches_nothing() {
        let mut rel = VectorRelation::new(vec![4, 4]);
        let mut m = SkylineMaintainer::new(&mut rel);
        m.push(vec![ItemState::Certain(3), ItemState::Certain(3)]);
        m.push(vec![
            ItemState::Uncertain(d(&[0.2, 0.2, 0.2, 0.2, 0.2])),
            ItemState::Uncertain(d(&[0.2, 0.2, 0.2, 0.2, 0.2])),
        ]);
        let before = m.stats.factor_recomputes;
        m.push(vec![ItemState::Certain(1), ItemState::Certain(1)]);
        assert_eq!(m.stats.factor_recomputes, before);
        assert_eq!(m.state().skyline, vec![0]);
    }

    struct TableOracle {
        truth: Vec<Vec<u32>>,
        calls: usize,
        frames: usize,
    }

    impl CleaningOracle<Vec<u32>> for TableOracle {
        fn clean_batch(&mut self, items: &[ItemId]) -> Vec<Vec<u32>> {
            self.calls += 1;
            self.frames += items.len();
            items.iter().map(|&i| self.truth[i].clone()).collect()
        }
    }

    /// Builds a relation whose uncertain distributions are centred on the
    /// ground truth, plus the matching oracle.
    fn noisy_setup(n: usize, seed: u64) -> (VectorRelation, TableOracle) {
        use everest_video::util::{frame_rng, gaussian};
        let max_b = 8usize;
        let mut rel = VectorRelation::new(vec![max_b, max_b]);
        let mut truth = Vec::with_capacity(n);
        for i in 0..n {
            let mut rng = frame_rng(seed, i);
            let mut dims = Vec::with_capacity(2);
            let mut v = Vec::with_capacity(2);
            for jdim in 0..2 {
                let t = ((i * (jdim + 3) + 7 * jdim + i / 3) % (max_b + 1)) as u32;
                v.push(t);
                // triangular-ish noise around t
                let mut masses = vec![0.0; max_b + 1];
                for (b, m) in masses.iter_mut().enumerate() {
                    let dist = (b as f64 - t as f64).abs() + 0.3 * gaussian(&mut rng).abs();
                    *m = (-dist).exp();
                }
                dims.push(ItemState::Uncertain(DiscreteDist::from_masses(&masses)));
            }
            truth.push(v);
            rel.push(dims);
        }
        (
            rel,
            TableOracle {
                truth,
                calls: 0,
                frames: 0,
            },
        )
    }

    #[test]
    fn cleaner_reaches_threshold_and_answer_is_true_skyline() {
        let (mut rel, mut oracle) = noisy_setup(40, 99);
        let truth = oracle.truth.clone();
        let out = run_skyline_cleaner(
            &mut rel,
            &mut oracle,
            &SkylineConfig {
                thres: 0.95,
                batch_size: 4,
                ..Default::default()
            },
        );
        assert_eq!(out.termination, Termination::Converged);
        assert!(out.confidence >= 0.95);
        // certain-result condition
        for &id in &out.skyline {
            assert!(rel.is_certain(id), "answer item {id} must be certain");
            assert_eq!(rel.certain_vector(id).unwrap(), truth[id], "oracle scores");
        }
        // the answer must be exactly the skyline of the true vectors that
        // were confirmed — and since confidence ≥ 0.95 over *this* relation
        // the true skyline of ALL items should normally be caught; verify
        // no unconfirmed item dominates any answer item under truth.
        let all: Vec<(ItemId, Vec<u32>)> = truth.iter().cloned().enumerate().collect();
        let mut true_sky = skyline_of(&all);
        true_sky.sort_unstable();
        let mut got = out.skyline.clone();
        got.sort_unstable();
        assert_eq!(
            got, true_sky,
            "cleaned skyline should match ground truth here"
        );
        assert!(out.cleaned < 40, "should not have cleaned everything");
    }

    #[test]
    fn cleaner_with_certain_seeds_cleans_less() {
        let (mut rel_cold, mut oracle_cold) = noisy_setup(30, 7);
        let cold = run_skyline_cleaner(&mut rel_cold, &mut oracle_cold, &Default::default());

        // Same data, but pre-confirm the true skyline members (as if they
        // were labelled during Phase-1 sampling).
        let (mut rel_warm, mut oracle_warm) = noisy_setup(30, 7);
        let all: Vec<(ItemId, Vec<u32>)> = oracle_warm.truth.iter().cloned().enumerate().collect();
        for id in skyline_of(&all) {
            let v = oracle_warm.truth[id].clone();
            rel_warm.clean(id, &v);
        }
        let warm = run_skyline_cleaner(&mut rel_warm, &mut oracle_warm, &Default::default());
        assert_eq!(warm.termination, Termination::Converged);
        assert_eq!(cold.termination, Termination::Converged);
        assert!(
            warm.cleaned <= cold.cleaned,
            "pre-confirmed skyline must not clean more (warm {} vs cold {})",
            warm.cleaned,
            cold.cleaned
        );
    }

    fn capped(calls: usize) -> QueryBudget {
        QueryBudget {
            max_oracle_calls: Some(calls),
            ..QueryBudget::unlimited()
        }
    }

    #[test]
    fn call_cap_reports_budget_exhausted() {
        // The cap bounds the batch: batch 8 under cap 2 confirms 2, as
        // batch 1 does.
        for batch_size in [1, 8] {
            let (mut rel, mut oracle) = noisy_setup(40, 5);
            let out = run_skyline_cleaner(
                &mut rel,
                &mut oracle,
                &SkylineConfig {
                    thres: 0.99,
                    batch_size,
                    budget: capped(2),
                },
            );
            assert_eq!(out.termination, Termination::BudgetExhausted);
            assert_eq!(out.cleaned, 2, "batch {batch_size}");
            assert_eq!(oracle.frames, 2);
            assert_eq!(rel.num_certain(), 2);
            assert!(out.confidence < 0.99);
        }
    }

    #[test]
    fn oracle_failure_degrades_to_oracle_down() {
        /// Answers as many batches as its second field says, then fails.
        struct Dying(TableOracle, usize);
        impl CleaningOracle<Vec<u32>> for Dying {
            fn clean_batch(&mut self, items: &[ItemId]) -> Vec<Vec<u32>> {
                self.0.clean_batch(items)
            }
            fn try_clean_batch(
                &mut self,
                items: &[ItemId],
            ) -> Result<Vec<Vec<u32>>, everest_models::OracleError> {
                if self.0.calls == self.1 {
                    return Err(everest_models::OracleError::Transient("oracle died"));
                }
                Ok(self.clean_batch(items))
            }
        }
        let cfg = SkylineConfig {
            thres: 0.99,
            batch_size: 3,
            ..Default::default()
        };
        let (mut rel, oracle) = noisy_setup(40, 5);
        let mut dying = Dying(oracle, 2);
        let out = run_skyline_cleaner(&mut rel, &mut dying, &cfg);
        assert_eq!(out.termination, Termination::OracleDown);
        assert_eq!((out.iterations, out.cleaned), (2, 6));
        // The failed batch left no mark: the relation is what two batches
        // of a healthy run leave behind, and the answer is read off it.
        let (mut healthy, mut oracle) = noisy_setup(40, 5);
        let two_batches = SkylineConfig {
            budget: capped(6),
            ..cfg
        };
        let two = run_skyline_cleaner(&mut healthy, &mut oracle, &two_batches);
        assert_eq!(rel.items, healthy.items);
        assert_eq!(rel.num_certain(), 6);
        assert_eq!(out.skyline, two.skyline);
        assert_eq!(out.confidence, skyline_state(&rel).confidence);
        assert!(out.confidence < 0.99);
    }

    #[test]
    fn fully_certain_relation_has_confidence_one() {
        let mut rel = VectorRelation::new(vec![3, 3]);
        rel.push_certain(&[3, 0]);
        rel.push_certain(&[0, 3]);
        rel.push_certain(&[2, 2]);
        rel.push_certain(&[1, 1]); // dominated by (2,2)
        struct Never;
        impl CleaningOracle<Vec<u32>> for Never {
            fn clean_batch(&mut self, _: &[ItemId]) -> Vec<Vec<u32>> {
                panic!("nothing to clean")
            }
        }
        let out = run_skyline_cleaner(&mut rel, &mut Never, &Default::default());
        assert_eq!(out.confidence, 1.0);
        assert_eq!(out.cleaned, 0);
        let mut sky = out.skyline;
        sky.sort_unstable();
        assert_eq!(sky, vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "cleaned twice")]
    fn double_clean_rejected() {
        let mut rel = VectorRelation::new(vec![2, 2]);
        rel.push_uncertain(vec![d(&[0.5, 0.5, 0.0]), d(&[0.5, 0.5, 0.0])]);
        rel.clean(0, &[1, 1]);
        rel.clean(0, &[1, 1]);
    }

    #[test]
    #[should_panic(expected = "2 or 3 dimensions")]
    fn one_dimension_is_not_a_skyline() {
        let _ = VectorRelation::new(vec![4]);
    }

    #[test]
    fn zip_relations_preserves_states() {
        use crate::xtuple::UncertainRelation;
        let mut a = UncertainRelation::new(1.0, 2);
        a.push_uncertain(d(&[0.5, 0.5, 0.0]));
        a.push_certain(2);
        let mut b = UncertainRelation::new(1.0, 3);
        b.push_certain(1);
        b.push_uncertain(d(&[0.25, 0.25, 0.25, 0.25]));
        let rel = zip_relations(&[&a, &b]);
        assert_eq!(rel.len(), 2);
        assert_eq!(rel.dims(), 2);
        assert_eq!(rel.max_bucket(0), 2);
        assert_eq!(rel.max_bucket(1), 3);
        // item 0: (uncertain, certain 1); item 1: (certain 2, uncertain)
        assert!(!rel.is_certain(0) && !rel.is_certain(1));
        assert_eq!(rel.dim(0, 1).cdf(0), 0.0);
        assert_eq!(rel.dim(0, 1).cdf(1), 1.0);
        assert_eq!(rel.dim(1, 0).pmf(2), 1.0);
        // cleaning completes the vector
        let mut rel2 = rel.clone();
        rel2.clean(0, &[1, 1]);
        assert!(rel2.is_certain(0));
        assert_eq!(rel2.certain_vector(0), Some(vec![1, 1]));
    }

    #[test]
    #[should_panic(expected = "expected 2")]
    fn zip_relations_rejects_misaligned_lengths() {
        use crate::xtuple::UncertainRelation;
        let mut a = UncertainRelation::new(1.0, 2);
        a.push_certain(0);
        a.push_certain(1);
        let mut b = UncertainRelation::new(1.0, 2);
        b.push_certain(0);
        let _ = zip_relations(&[&a, &b]);
    }
}
