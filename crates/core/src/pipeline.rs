//! The end-to-end Everest engine: Phase 1 + Phase 2 with full cost
//! accounting (Figure 1).
//!
//! [`Everest::prepare`] runs Phase 1 once per (video, scoring function);
//! the returned [`PreparedVideo`] then serves any number of frame-level or
//! window queries, each re-running Phase 2 on a fresh copy of `D0` (the
//! paper re-runs both phases per query; reusing Phase 1 across a parameter
//! sweep only removes redundant identical work — each query's reported
//! time still includes the full Phase-1 charge). A frame query's copy of
//! `D0` shares the distributions and starts from the joint CDF of Eq. 3
//! built once per prepared video, so it pays only for the items it cleans.
//! A window query does the same with its shape's Eq. 9 relation and that
//! relation's joint CDF: both are pure functions of Phase 1 and
//! `(window_len, slide)`, so the prepared video builds them at the first
//! query over a shape and keeps the last few shapes it was asked for.

use crate::budget::Termination;
use crate::cleaner::{run_cleaner_from, CleanerConfig, CleaningOracle};
use crate::phase1::{run_phase1, Phase1Config, Phase1Output};
use crate::sim::{component, SimClock, SELECT_EVAL_COST};
use crate::topkprob::JointCdf;
use crate::window::{build_window_relation, sliding_windows, WindowCleaningOracle};
use crate::xtuple::{score_to_bucket, ItemId, UncertainRelation};
use everest_models::{Oracle, OracleError};
use everest_video::store::DecodeCostModel;
use everest_video::VideoStore;
use std::collections::VecDeque;
use std::ops::Deref;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// The Everest engine entry point.
pub struct Everest;

impl Everest {
    /// Phase 1: builds the initial uncertain relation and proxy model.
    pub fn prepare(
        video: &dyn VideoStore,
        oracle: &dyn Oracle,
        cfg: &Phase1Config,
    ) -> PreparedVideo {
        PreparedVideo::from_parts(run_phase1(video, oracle, cfg), video.num_frames())
    }
}

/// Phase-1 artifacts bound to one video + scoring function.
///
/// It also keeps the joint CDF `H` of `phase1.relation` (Eq. 3), built
/// once when the video is prepared; every frame query starts its cleaning
/// loop from a copy of it. Likewise every window query starts from a copy
/// of its shape's relation and joint CDF, built by the first query over
/// that shape. Queries leave `phase1` as it was, so what is kept stays
/// Phase 1's. Code that edits `phase1` must build a new `PreparedVideo`
/// from the edited parts with [`PreparedVideo::from_parts`].
#[derive(Debug, Clone)]
pub struct PreparedVideo {
    pub phase1: Phase1Output,
    n_frames: usize,
    /// `JointCdf::build(&phase1.relation)`.
    d0_joint_cdf: JointCdf,
    window_relations: WindowRelations,
}

/// The most window shapes a prepared video keeps relations for.
const WINDOW_SHAPES: usize = 4;

/// One window shape's relation (Eq. 9) and its joint CDF.
type WindowRelation = Arc<(UncertainRelation, JointCdf)>;

/// `(window_len, slide)` shapes and their relations, oldest first.
type Shapes = VecDeque<((usize, usize), WindowRelation)>;

/// The window relations of the last [`WINDOW_SHAPES`] `(window_len,
/// slide)` shapes asked for. Daemon threads share a prepared video, hence
/// the lock; a clone shares the entries.
#[derive(Debug, Default)]
struct WindowRelations(Mutex<Shapes>);

impl WindowRelations {
    fn lock(&self) -> MutexGuard<'_, Shapes> {
        // Every critical section is a lookup or a push: a panic inside one
        // leaves no broken invariant, so recover rather than propagate.
        self.0
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// The relation of `shape`, built with `build` if none is kept.
    fn get_or_build(
        &self,
        shape: (usize, usize),
        build: impl FnOnce() -> UncertainRelation,
    ) -> WindowRelation {
        let kept = |shapes: &Shapes| {
            let found = shapes.iter().find(|(s, _)| *s == shape);
            found.map(|(_, rel)| Arc::clone(rel))
        };
        if let Some(rel) = kept(&self.lock()) {
            return rel;
        }
        // Built outside the lock, so other shapes are not held up; two
        // threads racing on one shape build the same bits.
        let relation = build();
        let h = JointCdf::build(&relation);
        let built = Arc::new((relation, h));
        let mut shapes = self.lock();
        if let Some(rel) = kept(&shapes) {
            return rel;
        }
        if shapes.len() == WINDOW_SHAPES {
            shapes.pop_front();
        }
        shapes.push_back((shape, Arc::clone(&built)));
        built
    }
}

impl Clone for WindowRelations {
    fn clone(&self) -> Self {
        WindowRelations(Mutex::new(self.lock().clone()))
    }
}

/// One returned Top-K item.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResultItem {
    /// Frame index (frame queries) or window start frame (window queries).
    pub frame: usize,
    /// Window frame range (frame queries report a 1-frame range).
    pub range: (usize, usize),
    /// Oracle-confirmed score (window queries: sampled mean).
    pub score: f64,
}

/// Full report of one query.
#[derive(Debug, Clone)]
pub struct QueryReport {
    /// The Top-K answer, best first. Every item is oracle-confirmed
    /// (certain-result condition).
    pub items: Vec<ResultItem>,
    /// `Pr(R̂ = R)` under possible-world semantics at termination.
    pub confidence: f64,
    /// Whether the confidence threshold was met.
    pub converged: bool,
    /// Why Phase 2 stopped (converged, or a degraded exit: budget,
    /// deadline, cancellation, oracle failure).
    pub termination: Termination,
    /// Simulated-time breakdown (Phase 1 + Phase 2), Table 8 style.
    pub clock: SimClock,
    /// Phase-2 iterations (select → clean rounds).
    pub iterations: usize,
    /// Items cleaned in Phase 2.
    pub cleaned: usize,
    /// Total items in the uncertain relation.
    pub total_items: usize,
    /// Oracle frames consumed by Phase-2 confirmation.
    pub oracle_frames: usize,
    /// Real wall time of Phase 2.
    pub phase2_wall: std::time::Duration,
}

impl QueryReport {
    /// Fraction of items cleaned during Phase 2 (Table 8b).
    pub fn pct_cleaned(&self) -> f64 {
        if self.total_items == 0 {
            0.0
        } else {
            self.cleaned as f64 / self.total_items as f64
        }
    }

    /// Total simulated end-to-end latency, seconds.
    pub fn sim_seconds(&self) -> f64 {
        self.clock.total()
    }

    /// Answer frame ids (or window start frames).
    pub fn frames(&self) -> Vec<usize> {
        self.items.iter().map(|i| i.frame).collect()
    }
}

/// The Phase-2 oracle adapter for frame items: item id = retained position
/// → video frame → [`Oracle::try_score_batch`] → bucket on the relation's
/// grid. It records the frames it scores, in order (the decode trace).
///
/// Generic over how the oracle and the retained-frame list are held, so a
/// query can borrow both (`&dyn Oracle`, `&[usize]`) while a long-lived
/// stream owns them (`Arc<dyn Oracle>`, `Vec<usize>`).
pub struct FrameOracleAdapter<O, R> {
    oracle: O,
    retained: R,
    step: f64,
    max_bucket: usize,
    trace: Vec<usize>,
    /// Oracle overhead (fault penalties, backoff) already accumulated
    /// when this adapter was built; `sim_seconds_spent` reports the delta.
    overhead0: f64,
}

impl<'o, O, R> FrameOracleAdapter<O, R>
where
    O: Deref<Target = dyn Oracle + 'o>,
    R: Deref<Target = [usize]>,
{
    /// An adapter confirming `relation`'s items (`retained[id]` is item
    /// `id`'s video frame) on `relation`'s bucket grid.
    pub fn new(oracle: O, retained: R, relation: &UncertainRelation) -> Self {
        FrameOracleAdapter {
            overhead0: oracle.sim_overhead_seconds(),
            oracle,
            retained,
            step: relation.step(),
            max_bucket: relation.max_bucket(),
            trace: Vec::new(),
        }
    }

    /// Every frame sent to the oracle so far, in confirmation order.
    pub fn trace(&self) -> &[usize] {
        &self.trace
    }

    fn frames(&self, items: &[ItemId]) -> Vec<usize> {
        items.iter().map(|&i| self.retained[i]).collect()
    }

    fn confirmed(&mut self, frames: &[usize], scores: &[f64]) -> Vec<u32> {
        self.trace.extend_from_slice(frames);
        scores
            .iter()
            .map(|&s| score_to_bucket(s, self.step, self.max_bucket))
            .collect()
    }
}

impl<'o, O, R> CleaningOracle for FrameOracleAdapter<O, R>
where
    O: Deref<Target = dyn Oracle + 'o>,
    R: Deref<Target = [usize]>,
{
    fn clean_batch(&mut self, items: &[ItemId]) -> Vec<u32> {
        let frames = self.frames(items);
        let scores = self.oracle.score_batch(&frames);
        self.confirmed(&frames, &scores)
    }

    fn try_clean_batch(&mut self, items: &[ItemId]) -> Result<Vec<u32>, OracleError> {
        let frames = self.frames(items);
        let scores = self.oracle.try_score_batch(&frames)?;
        Ok(self.confirmed(&frames, &scores))
    }

    fn sim_seconds_spent(&self) -> f64 {
        self.trace.len() as f64 * self.oracle.cost_per_frame()
            + (self.oracle.sim_overhead_seconds() - self.overhead0)
    }
}

/// The skyline's oracle adapter: one frame adapter per dimension, so a
/// confirmed item's vector is its bucket on each dimension's grid. An
/// oracle failure on any dimension fails the whole batch.
impl<'o, O, R> CleaningOracle<Vec<u32>> for Vec<FrameOracleAdapter<O, R>>
where
    O: Deref<Target = dyn Oracle + 'o>,
    R: Deref<Target = [usize]>,
{
    fn clean_batch(&mut self, items: &[ItemId]) -> Vec<Vec<u32>> {
        let per_dim: Vec<Vec<u32>> = self.iter_mut().map(|a| a.clean_batch(items)).collect();
        transpose(&per_dim, items.len())
    }

    fn try_clean_batch(&mut self, items: &[ItemId]) -> Result<Vec<Vec<u32>>, OracleError> {
        let per_dim = self
            .iter_mut()
            .map(|a| a.try_clean_batch(items))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(transpose(&per_dim, items.len()))
    }
}

/// Per-dimension bucket columns → one bucket vector per item.
fn transpose(per_dim: &[Vec<u32>], n: usize) -> Vec<Vec<u32>> {
    (0..n)
        .map(|i| per_dim.iter().map(|buckets| buckets[i]).collect())
        .collect()
}

impl PreparedVideo {
    /// Builds a prepared video from Phase-1 artifacts made elsewhere. The
    /// caller vouches that `phase1` was produced for a video of `n_frames`
    /// frames.
    pub fn from_parts(phase1: Phase1Output, n_frames: usize) -> Self {
        PreparedVideo {
            d0_joint_cdf: JointCdf::build(&phase1.relation),
            phase1,
            n_frames,
            window_relations: WindowRelations::default(),
        }
    }

    /// Number of frames of the underlying video.
    pub fn n_frames(&self) -> usize {
        self.n_frames
    }

    /// Runs a frame-level Top-K query (Phase 2).
    pub fn query_topk(
        &self,
        oracle: &dyn Oracle,
        k: usize,
        thres: f64,
        cleaner: &CleanerConfig,
    ) -> QueryReport {
        let retained = self.phase1.segments.retained();
        self.run_phase2(
            k,
            thres,
            cleaner,
            || {
                let relation = self.phase1.relation.clone();
                let cleaning = FrameOracleAdapter::new(oracle, retained, &relation);
                (relation, self.d0_joint_cdf.clone(), cleaning)
            },
            |cleaning| {
                let trace = cleaning.trace();
                (trace.len(), DecodeCostModel::default().trace_cost(trace))
            },
            |id, score| {
                let frame = retained[id];
                ResultItem {
                    frame,
                    range: (frame, frame + 1),
                    score,
                }
            },
        )
    }

    /// Runs a Top-K window query (§3.4): tumbling windows of `window_len`
    /// frames, confirmed by sampling `sample_frac` of each window's frames.
    /// The sliding query with `slide == window_len`.
    pub fn query_topk_windows(
        &self,
        oracle: &dyn Oracle,
        k: usize,
        thres: f64,
        window_len: usize,
        sample_frac: f64,
        cleaner: &CleanerConfig,
    ) -> QueryReport {
        self.query_topk_sliding_windows(
            oracle,
            k,
            thres,
            window_len,
            window_len,
            sample_frac,
            cleaner,
        )
    }

    /// Runs a Top-K query over *sliding* windows of `window_len` frames
    /// hopping by `slide` — the sliding extension of §3.4 (see
    /// [`sliding_windows`] for the independence caveat when
    /// `slide < window_len`).
    pub fn query_topk_sliding_windows(
        &self,
        oracle: &dyn Oracle,
        k: usize,
        thres: f64,
        window_len: usize,
        slide: usize,
        sample_frac: f64,
        cleaner: &CleanerConfig,
    ) -> QueryReport {
        let windows = sliding_windows(self.n_frames, window_len, slide);
        // Window scores are means of frame scores: reuse the frame grid but
        // refine the step for sub-integer means.
        let step = self.phase1.relation.step() / 4.0;
        let max_bucket = (self.phase1.relation.max_bucket() * 4 + 4).min(4 * 400);
        self.run_phase2(
            k,
            thres,
            cleaner,
            || {
                let shared = self.window_relations.get_or_build((window_len, slide), || {
                    build_window_relation(
                        &self.phase1.mixtures,
                        &self.phase1.segments,
                        &windows,
                        step,
                        max_bucket,
                    )
                });
                let (relation, h) = (shared.0.clone(), shared.1.clone());
                let cleaning = WindowCleaningOracle::new(
                    oracle,
                    &windows,
                    sample_frac,
                    step,
                    max_bucket,
                    self.phase1_seed() ^ WINDOW_SAMPLE_SALT,
                );
                (relation, h, cleaning)
            },
            |cleaning| {
                let frames = cleaning.frames_scored;
                (frames, frames as f64 * DecodeCostModel::SEQ_COST * 4.0)
            },
            |wid, score| {
                let w = windows[wid];
                ResultItem {
                    frame: w.start,
                    range: (w.start, w.end),
                    score,
                }
            },
        )
    }

    /// Phase 2 of any Top-K query, and its report. The callers supply only
    /// what differs between item kinds: `build` makes the relation, its
    /// joint CDF and its oracle adapter, `spend` reads the adapter's
    /// `(oracle frames, decode seconds)` once cleaning is over, and `item`
    /// maps an answer id and its confirmed score to a result row.
    fn run_phase2<C: CleaningOracle>(
        &self,
        k: usize,
        thres: f64,
        cleaner: &CleanerConfig,
        build: impl FnOnce() -> (UncertainRelation, JointCdf, C),
        spend: impl FnOnce(&C) -> (usize, f64),
        item: impl Fn(ItemId, f64) -> ResultItem,
    ) -> QueryReport {
        #[expect(
            clippy::disallowed_methods,
            reason = "feeds the reported phase2_wall stat only; query results never branch on wall \
                      time"
        )]
        let started = Instant::now();
        let (mut relation, h, mut cleaning) = build();
        let cfg = CleanerConfig {
            k,
            thres,
            ..cleaner.clone()
        };
        let outcome = run_cleaner_from(&mut relation, h, &mut cleaning, &cfg);

        let (oracle_frames, decode_seconds) = spend(&cleaning);
        let mut clock = self.phase1.clock.clone();
        clock.charge(
            component::CONFIRM,
            cleaning.sim_seconds_spent() + decode_seconds,
        );
        clock.charge(
            component::SELECT,
            outcome.select_stats.examined as f64 * SELECT_EVAL_COST,
        );

        let items = outcome
            .rows
            .iter()
            .map(|&(id, bucket)| item(id, relation.bucket_to_score(bucket)))
            .collect();
        QueryReport {
            items,
            confidence: outcome.confidence,
            converged: outcome.converged,
            termination: outcome.termination,
            clock,
            iterations: outcome.iterations,
            cleaned: outcome.cleaned,
            total_items: relation.len(),
            oracle_frames,
            phase2_wall: started.elapsed(),
        }
    }

    fn phase1_seed(&self) -> u64 {
        // derive a stable seed from phase-1 size characteristics
        (self.phase1.relation.len() as u64) << 20 | self.n_frames as u64
    }
}

const WINDOW_SAMPLE_SALT: u64 = 0x81D_7005;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{evaluate_topk, GroundTruth};
    use crate::phase1::fast_phase1;
    use everest_models::{counting_oracle, ExactScoreOracle, InstrumentedOracle};
    use everest_video::arrival::{ArrivalConfig, Timeline};
    use everest_video::scene::{SceneConfig, SyntheticVideo};

    fn tiny_setup() -> (SyntheticVideo, ExactScoreOracle) {
        let tl = Timeline::generate(
            &ArrivalConfig {
                n_frames: 1_500,
                ..ArrivalConfig::default()
            },
            29,
        );
        let v = SyntheticVideo::new(SceneConfig::default(), tl, 29, 30.0);
        let o = counting_oracle(&v);
        (v, o)
    }

    #[test]
    fn end_to_end_frame_query_meets_threshold() {
        let (v, o) = tiny_setup();
        let oracle = InstrumentedOracle::new(o);
        let prepared = Everest::prepare(&v, &oracle, &fast_phase1());
        let report = prepared.query_topk(&oracle, 10, 0.9, &CleanerConfig::default());
        assert!(report.converged);
        assert!(report.confidence >= 0.9);
        assert_eq!(report.items.len(), 10);
        // certain-result condition: every reported score is the exact score
        for item in &report.items {
            let exact = oracle.inner().all_scores()[item.frame];
            assert_eq!(item.score, exact, "frame {}", item.frame);
        }
        // quality against exact ground truth over retained frames
        let retained = prepared.phase1.segments.retained();
        let truth = GroundTruth::new(
            retained
                .iter()
                .map(|&t| oracle.inner().all_scores()[t])
                .collect(),
        );
        let answer_pos: Vec<usize> = report
            .items
            .iter()
            .map(|i| retained.iter().position(|&t| t == i.frame).unwrap())
            .collect();
        let q = evaluate_topk(&truth, &answer_pos, 10);
        assert!(q.precision >= 0.8, "precision {}", q.precision);
    }

    #[test]
    fn sim_clock_includes_all_components() {
        let (v, o) = tiny_setup();
        let oracle = InstrumentedOracle::new(o);
        let prepared = Everest::prepare(&v, &oracle, &fast_phase1());
        let report = prepared.query_topk(&oracle, 5, 0.9, &CleanerConfig::default());
        assert!(report.clock.component(component::LABEL) > 0.0);
        assert!(report.clock.component(component::TRAIN) > 0.0);
        assert!(report.clock.component(component::POPULATE) > 0.0);
        assert!(report.sim_seconds() > 0.0);
        assert!(report.pct_cleaned() <= 1.0);
        // SELECT is counted (evaluations × a constant), not measured: the
        // same query charges the same amount again.
        let select = report.clock.component(component::SELECT);
        assert!(select > 0.0);
        let again = prepared.query_topk(&oracle, 5, 0.9, &CleanerConfig::default());
        assert_eq!(again.clock.component(component::SELECT), select);
    }

    #[test]
    fn higher_k_does_not_break() {
        let (v, o) = tiny_setup();
        let oracle = InstrumentedOracle::new(o);
        let prepared = Everest::prepare(&v, &oracle, &fast_phase1());
        for k in [1, 5, 25] {
            let report = prepared.query_topk(&oracle, k, 0.9, &CleanerConfig::default());
            assert_eq!(report.items.len(), k);
            assert!(report.converged, "k={k}");
            // descending scores
            let scores: Vec<f64> = report.items.iter().map(|i| i.score).collect();
            assert!(scores.windows(2).all(|w| w[0] >= w[1]), "k={k}: {scores:?}");
        }
    }

    #[test]
    fn window_query_end_to_end() {
        let (v, o) = tiny_setup();
        let oracle = InstrumentedOracle::new(o);
        let prepared = Everest::prepare(&v, &oracle, &fast_phase1());
        let report =
            prepared.query_topk_windows(&oracle, 5, 0.9, 30, 0.5, &CleanerConfig::default());
        assert!(report.converged);
        assert_eq!(report.items.len(), 5);
        for item in &report.items {
            assert_eq!(
                item.range.1 - item.range.0,
                30.min(item.range.1 - item.range.0)
            );
            assert!(item.range.0 % 30 == 0, "window must start on a boundary");
        }
        // sampled window means should be near the exact window means
        let exact = crate::window::exact_window_scores(
            oracle.inner().all_scores(),
            &sliding_windows(prepared.n_frames(), 30, 30),
        );
        for item in &report.items {
            let wid = item.frame / 30;
            assert!(
                (item.score - exact[wid]).abs() <= 2.0,
                "window {wid}: sampled {} vs exact {}",
                item.score,
                exact[wid]
            );
        }
    }

    /// `H(t)` at every bucket, as bits, and the member count.
    fn joint_cdf_bits(h: &JointCdf) -> (Vec<u64>, usize) {
        let bits = (0..h.num_buckets()).map(|t| h.value(t).to_bits());
        (bits.collect(), h.members())
    }

    #[test]
    fn cached_joint_cdf_is_d0s_and_queries_leave_it_alone() {
        let (v, o) = tiny_setup();
        let oracle = InstrumentedOracle::new(o);
        let prepared = Everest::prepare(&v, &oracle, &fast_phase1());
        let cached = joint_cdf_bits(&prepared.d0_joint_cdf);
        let built = joint_cdf_bits(&JointCdf::build(&prepared.phase1.relation));
        assert_eq!(cached, built, "cached H differs from D0's");
        assert!(cached.1 > 0, "D0 must have uncertain items");

        let d0 = prepared.phase1.relation.clone();
        for k in [5, 50, 200] {
            let report = prepared.query_topk(&oracle, k, 0.9, &CleanerConfig::default());
            assert_eq!(report.items.len(), k);
            assert!(report.cleaned > 0, "K = {k} cleaned nothing");
        }
        assert_eq!(prepared.phase1.relation, d0, "a query changed D0");
        assert_eq!(
            joint_cdf_bits(&prepared.d0_joint_cdf),
            cached,
            "a query changed the cached H"
        );
    }

    /// What a window report answers and charges, as bits.
    fn window_report_bits(r: &QueryReport) -> impl PartialEq + std::fmt::Debug {
        let items: Vec<_> = r
            .items
            .iter()
            .map(|i| (i.frame, i.range, i.score.to_bits()))
            .collect();
        (
            items,
            r.confidence.to_bits(),
            r.iterations,
            r.cleaned,
            r.sim_seconds().to_bits(),
        )
    }

    #[test]
    fn cached_window_relations_answer_as_fresh_ones_do() {
        let (v, o) = tiny_setup();
        let oracle = InstrumentedOracle::new(o);
        let prepared = Everest::prepare(&v, &oracle, &fast_phase1());
        let cfg = CleanerConfig::default();
        let shapes = || prepared.window_relations.lock().len();
        let first = prepared.query_topk_windows(&oracle, 5, 0.9, 30, 0.5, &cfg);
        assert!(first.cleaned > 0, "the window query cleaned nothing");
        assert_eq!(shapes(), 1);
        let again = prepared.query_topk_windows(&oracle, 5, 0.9, 30, 0.5, &cfg);
        assert_eq!(shapes(), 1, "a repeated shape got a second entry");
        let fresh = PreparedVideo::from_parts(prepared.phase1.clone(), prepared.n_frames())
            .query_topk_windows(&oracle, 5, 0.9, 30, 0.5, &cfg);
        let bits = window_report_bits(&first);
        assert_eq!(window_report_bits(&again), bits, "the cached relation");
        assert_eq!(window_report_bits(&fresh), bits, "a fresh prepared video");

        let _ = prepared.query_topk_sliding_windows(&oracle, 5, 0.9, 30, 15, 0.5, &cfg);
        assert_eq!(shapes(), 2, "another slide gets its own entry");
        for len in [20, 40, 45, 60] {
            let _ = prepared.query_topk_windows(&oracle, 5, 0.9, len, 0.5, &cfg);
            assert!(shapes() <= WINDOW_SHAPES);
        }
        assert_eq!(shapes(), WINDOW_SHAPES);
        let kept: Vec<_> = prepared
            .window_relations
            .lock()
            .iter()
            .map(|&(shape, _)| shape)
            .collect();
        assert_eq!(kept, [(20, 20), (40, 40), (45, 45), (60, 60)]);
    }

    #[test]
    fn queries_are_reusable_and_deterministic() {
        let (v, o) = tiny_setup();
        let oracle = InstrumentedOracle::new(o);
        let prepared = Everest::prepare(&v, &oracle, &fast_phase1());
        let a = prepared.query_topk(&oracle, 5, 0.9, &CleanerConfig::default());
        let b = prepared.query_topk(&oracle, 5, 0.9, &CleanerConfig::default());
        assert_eq!(a.frames(), b.frames());
        assert_eq!(a.confidence, b.confidence);
        assert_eq!(a.cleaned, b.cleaned);
    }
}
