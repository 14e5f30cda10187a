//! Continuous Top-K over a live frame stream (the "live feeds" direction
//! the paper motivates with traffic cameras and dashcam fleets).
//!
//! ## Model
//!
//! Frames arrive one at a time (driven by `everest_video::arrival` or any
//! other source), each carrying its Phase-1 proxy distribution. The engine
//! maintains a continuous PT-k answer over either the full prefix seen so
//! far (`window = None`, a landmark query) or a sliding window of the last
//! `w` frames; a tumbling window is the special case `emit_every == w`.
//! Every `emit_every` arrivals the engine *emits* an answer: the Top-K of
//! the certain subset together with its Eq.-2 confidence.
//!
//! ## O(delta) maintenance
//!
//! Between emits only the delta is touched: each arriving frame is one
//! [`JointCdf::add`], each expiring frame one [`JointCdf::remove`] (the
//! ladder's `stream.push_ns_per_frame` rung times an arrival) instead of
//! an O(n) [`JointCdf::build`] per emit. [`batch_reference`] is the
//! specification: it drives the same arrival and emit steps in
//! [`Maintenance::Rebuild`], which rebuilds the joint CDF and the certain
//! set from the active window before every emit, a from-scratch run over
//! the same prefix that the streaming≡batch equivalence harness
//! (`tests/stream_e2e.rs`) compares against at every emit point.
//!
//! ## Boundary-focused cleaning
//!
//! Each emit runs the one Phase-2 loop ([`crate::cleaner`]) over the
//! active window: thresholds, stop rule, budget checks and termination
//! causes are the batch engine's. Only the picking policy is the stream's
//! own. Instead of spending the oracle budget up front, it cleans one
//! frame at a time at the currently-unstable rank boundary: the uncertain
//! frame with the largest ψ (Eq. 7) at the *current* thresholds
//! `(S_k, S_p)`, recomputed after every confirmation (Fagin-style
//! threshold processing). The policy is deliberately stateless and
//! deterministic — argmax ψ, ties by ascending frame id — so a batch
//! replay reproduces the exact oracle-call sequence, which is what makes
//! byte-identical streaming≡batch comparison possible. (The batch engine's
//! [`crate::select::CandidateSelector`] keeps its lazy stale-ψ schedule;
//! that laziness is an *intra-query* optimisation with no stable meaning
//! across emits.)

use crate::budget::{QueryBudget, Termination};
use crate::cleaner::{drive, Answer, CleaningOracle, TopKState, Want};
use crate::dist::DiscreteDist;
use crate::select::psi;
use crate::topkprob::{topk_prob, JointCdf};
use crate::xtuple::{ItemId, UncertainRelation};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// How the joint CDF and the certain set are kept between emits. Only
/// [`push_frame`](StreamTopK::push_frame) reads it, once per emit; the
/// arrival, expiry and emit steps are the same in both modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Maintenance {
    /// O(delta): one [`JointCdf::add`]/[`JointCdf::remove`] per arriving /
    /// expiring frame. The production mode.
    Incremental,
    /// The same updates, then a from-scratch rebuild of the joint CDF and
    /// the certain set before every emit. The batch reference the
    /// equivalence harness replays.
    Rebuild,
}

/// Configuration of a continuous Top-K query.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Result size K.
    pub k: usize,
    /// Confidence threshold `thres` per emit.
    pub thres: f64,
    /// Emit an answer every `emit_every` arrivals.
    pub emit_every: usize,
    /// Sliding-window length in frames; `None` queries the full prefix.
    /// `emit_every == window` gives tumbling windows.
    pub window: Option<usize>,
    /// Oracle confirmations allowed per emit; `None` cleans until the
    /// threshold is met (the batch guarantee, amortised over the stream).
    pub budget_per_emit: Option<usize>,
    /// Stream-wide limits: a total oracle-call cap, a simulated-seconds
    /// deadline, and/or a cancellation token — all checked between
    /// confirmations. The per-emit budget composes with these (tighter
    /// wins). Default is unlimited.
    pub budget: QueryBudget,
    pub maintenance: Maintenance,
    /// Bucket grid shared by every arriving distribution.
    pub quant_step: f64,
    pub max_bucket: usize,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            k: 5,
            thres: 0.9,
            emit_every: 25,
            window: None,
            budget_per_emit: None,
            budget: QueryBudget::unlimited(),
            maintenance: Maintenance::Incremental,
            quant_step: 1.0,
            max_bucket: 16,
        }
    }
}

/// One emitted answer of a continuous query.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamAnswer {
    /// Number of frames that had arrived when this answer was emitted.
    pub at_frame: usize,
    /// First frame of the active window (0 for landmark queries).
    pub window_start: usize,
    /// `(frame, bucket)` rows ordered by (bucket desc, frame asc). All
    /// oracle-confirmed (certain-result condition). May hold fewer than K
    /// rows early in the stream or when the budget runs out mid-bootstrap.
    pub topk: Vec<(ItemId, u32)>,
    /// Per row: `H(bucket)` — the probability that no currently-uncertain
    /// frame strictly outranks this row ("retention probability").
    pub stability: Vec<f64>,
    /// Eq.-2 confidence `p̂` of the emitted set.
    pub confidence: f64,
    /// Whether `p̂ ≥ thres` was reached within this emit's budget.
    pub converged: bool,
    /// Why this emit stopped cleaning (equals [`Termination::Converged`]
    /// exactly when `converged`).
    pub termination: Termination,
    /// Oracle confirmations spent on this emit.
    pub cleaned: usize,
}

impl StreamAnswer {
    /// Deterministic text rendering (the byte-identity surface of the
    /// streaming≡batch harness).
    pub fn render(&self, quant_step: f64) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "emit @{:<7} window [{}, {})  confidence {:.6}  {}",
            self.at_frame,
            self.window_start,
            self.at_frame,
            self.confidence,
            if self.converged {
                "converged"
            } else if self.termination == Termination::BudgetExhausted {
                "budget-capped"
            } else {
                self.termination.as_str()
            },
        );
        let _ = writeln!(out, "rank  frame      score  stability");
        for (i, &(frame, bucket)) in self.topk.iter().enumerate() {
            let _ = writeln!(
                out,
                "{:<5} {:<8} {:>7.3}   {:.6}",
                i + 1,
                frame,
                bucket as f64 * quant_step,
                self.stability[i],
            );
        }
        out
    }
}

/// The continuous Top-K engine.
///
/// Feed frames with [`push_frame`](StreamTopK::push_frame); every
/// `emit_every`-th arrival returns a [`StreamAnswer`]. Oracle confirmations
/// persist across emits (a frame is never cleaned twice), and expired
/// frames leave the joint CDF in O(buckets) each.
#[derive(Debug)]
pub struct StreamTopK {
    cfg: StreamConfig,
    frames: Frames,
    /// First active frame (window low edge).
    lo: usize,
    cleaned_total: usize,
}

impl StreamTopK {
    pub fn new(cfg: StreamConfig) -> Self {
        assert!(cfg.k >= 1, "K must be at least 1");
        assert!(
            (0.0..=1.0).contains(&cfg.thres),
            "thres must be a probability"
        );
        assert!(cfg.emit_every >= 1, "emit stride must be positive");
        if let Some(w) = cfg.window {
            assert!(w >= 1, "window length must be positive");
        }
        let empty = UncertainRelation::new(cfg.quant_step, cfg.max_bucket);
        StreamTopK {
            frames: Frames {
                dists: Vec::new(),
                cleaned: BTreeMap::new(),
                uncertain_active: BTreeSet::new(),
                state: TopKState {
                    h: JointCdf::build(&empty),
                    certain: BTreeSet::new(),
                    k: cfg.k,
                },
            },
            cfg,
            lo: 0,
            cleaned_total: 0,
        }
    }

    pub fn config(&self) -> &StreamConfig {
        &self.cfg
    }

    /// Total oracle confirmations across the stream.
    pub fn cleaned_total(&self) -> usize {
        self.cleaned_total
    }

    /// Feeds one arriving frame; returns an answer on emit boundaries.
    pub fn push_frame(
        &mut self,
        dist: DiscreteDist,
        oracle: &mut dyn CleaningOracle,
    ) -> Option<StreamAnswer> {
        assert_eq!(
            dist.max_bucket(),
            self.cfg.max_bucket,
            "arriving frame is on a different bucket grid"
        );
        let id = self.frames.dists.len();
        self.frames.state.h.add(&dist);
        self.frames.uncertain_active.insert(id);
        self.frames.dists.push(dist);
        self.advance_window();
        if !self.frames.dists.len().is_multiple_of(self.cfg.emit_every) {
            return None;
        }
        if self.cfg.maintenance == Maintenance::Rebuild {
            self.rebuild();
        }
        Some(self.emit(oracle))
    }

    /// Expires frames that fell out of the sliding window.
    fn advance_window(&mut self) {
        let Some(w) = self.cfg.window else { return };
        let new_lo = self.frames.dists.len().saturating_sub(w);
        for frame in self.lo..new_lo {
            if let Some(&b) = self.frames.cleaned.get(&frame) {
                self.frames.state.certain.remove(&(Reverse(b), frame));
            } else if self.frames.uncertain_active.remove(&frame) {
                self.frames.state.h.remove(&self.frames.dists[frame]);
            }
        }
        self.lo = new_lo;
    }

    /// From-scratch reconstruction of the joint CDF and the certain set
    /// over the active window (the batch half of the equivalence harness).
    fn rebuild(&mut self) {
        self.frames.state.certain = self
            .frames
            .cleaned
            .range(self.lo..)
            .map(|(&f, &b)| (Reverse(b), f))
            .collect();
        let mut rel = UncertainRelation::new(self.cfg.quant_step, self.cfg.max_bucket);
        for &frame in &self.frames.uncertain_active {
            rel.push_uncertain(self.frames.dists[frame].clone());
        }
        self.frames.state.h = JointCdf::build(&rel);
    }

    /// Runs the per-emit answer maintenance: the shared Phase-2 loop over
    /// the active window, confirming one frame at a time.
    fn emit(&mut self, oracle: &mut dyn CleaningOracle) -> StreamAnswer {
        let n = self.frames.dists.len();
        self.frames.state.k = self.cfg.k.min(n - self.lo);
        let run = drive(
            &mut self.frames,
            oracle,
            self.cfg.thres,
            &self.cfg.budget,
            self.cleaned_total,
            self.cfg.budget_per_emit,
        );
        self.cleaned_total += run.cleaned;

        let state = &self.frames.state;
        let topk: Vec<(ItemId, u32)> = state.topk().collect();
        let stability = topk
            .iter()
            .map(|&(_, b)| topk_prob(&state.h, b as usize))
            .collect();
        StreamAnswer {
            at_frame: n,
            window_start: self.lo,
            topk,
            stability,
            confidence: run.confidence,
            converged: run.termination == Termination::Converged,
            termination: run.termination,
            cleaned: run.cleaned,
        }
    }
}

/// What has arrived, what the oracle has confirmed of it, and the Top-K
/// state over the active window. As the [`Answer`] of an emit it confirms
/// one frame at a time: the active uncertain frame with the highest mean
/// while bootstrapping, the largest ψ at the current thresholds afterwards.
#[derive(Debug)]
struct Frames {
    /// Every arrived frame's proxy distribution, by frame id.
    dists: Vec<DiscreteDist>,
    /// Oracle-confirmed exact buckets (kept past expiry; frames never
    /// re-enter a forward-moving window).
    cleaned: BTreeMap<ItemId, u32>,
    /// Active frames still uncertain.
    uncertain_active: BTreeSet<ItemId>,
    /// Joint CDF over the active uncertain frames + the active certain
    /// frames in rank order; `k` is the K of the current emit.
    state: TopKState,
}

impl Frames {
    /// The uncertain frame maximising `key`, ties by ascending frame id.
    fn argmax_uncertain(&self, mut key: impl FnMut(&DiscreteDist) -> f64) -> Option<ItemId> {
        let mut best: Option<(f64, ItemId)> = None;
        for &frame in &self.uncertain_active {
            let v = key(&self.dists[frame]);
            if best.is_none_or(|(bv, _)| v > bv) {
                best = Some((v, frame));
            }
        }
        best.map(|(_, frame)| frame)
    }
}

impl Answer for Frames {
    type Value = u32;
    type Want = Want;

    fn assess(&self) -> (Option<f64>, Want) {
        self.state.assess()
    }

    /// At most one frame. Below thres there always is one — either fewer
    /// are certain than active, or `p̂ < 1` and so the joint CDF has
    /// members — and `drive` rejects an empty pick.
    fn pick(&mut self, want: Want, _room: usize) -> Vec<ItemId> {
        let pick = match want {
            Want::Bootstrap { .. } => self.argmax_uncertain(|d| d.mean_bucket()),
            Want::Boundary { s_k, s_p } => self.argmax_uncertain(|d| psi(d, s_k, s_p)),
        };
        pick.into_iter().collect()
    }

    /// A failed confirmation never gets here, so the frame stays uncertain.
    fn retire(&mut self, frame: ItemId, bucket: u32) {
        let was_uncertain = self.uncertain_active.remove(&frame);
        debug_assert!(was_uncertain, "frame {frame} cleaned twice");
        self.state.h.remove(&self.dists[frame]);
        self.cleaned.insert(frame, bucket);
        self.state.certain.insert((Reverse(bucket), frame));
    }
}

/// Feeds every distribution through a fresh engine, collecting the emits.
pub fn run_stream(
    cfg: &StreamConfig,
    dists: &[DiscreteDist],
    oracle: &mut dyn CleaningOracle,
) -> Vec<StreamAnswer> {
    let mut engine = StreamTopK::new(cfg.clone());
    dists
        .iter()
        .filter_map(|d| engine.push_frame(d.clone(), oracle))
        .collect()
}

/// The batch half of the streaming≡batch equivalence: the same emit
/// schedule and cleaning policy in [`Maintenance::Rebuild`]: before every
/// emit the joint CDF is rebuilt with [`JointCdf::build`] over the active
/// uncertain frames and the certain set from the window's confirmations,
/// so nothing the incremental updates left behind reaches an answer. An
/// answer at emit point `t` depends only on frames `0..t`, so element `i`
/// of the result is exactly "a from-scratch batch run over the prefix
/// ending at emit `i`".
pub fn batch_reference(
    cfg: &StreamConfig,
    dists: &[DiscreteDist],
    oracle: &mut dyn CleaningOracle,
) -> Vec<StreamAnswer> {
    let mut batch_cfg = cfg.clone();
    batch_cfg.maintenance = Maintenance::Rebuild;
    run_stream(&batch_cfg, dists, oracle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cleaner::FnCleaningOracle;
    use everest_models::OracleError;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Noisy triangular proxies around a ground truth, as in the cleaner
    /// tests.
    fn noisy_dists(truth: &[u32], max_bucket: usize, seed: u64) -> Vec<DiscreteDist> {
        let mut rng = StdRng::seed_from_u64(seed);
        truth
            .iter()
            .map(|&t| {
                let mut masses = vec![0.0; max_bucket + 1];
                for db in -2i64..=2 {
                    let b = (t as i64 + db).clamp(0, max_bucket as i64) as usize;
                    masses[b] += match db.abs() {
                        0 => 0.4,
                        1 => 0.2,
                        _ => 0.1,
                    } * rng.gen_range(0.5..1.5);
                }
                DiscreteDist::from_masses(&masses)
            })
            .collect()
    }

    fn fixture(n: usize, seed: u64) -> (Vec<u32>, Vec<DiscreteDist>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let truth: Vec<u32> = (0..n).map(|_| rng.gen_range(0..=10)).collect();
        let dists = noisy_dists(&truth, 10, seed ^ 0xABCD);
        (truth, dists)
    }

    #[test]
    fn emits_on_stride_and_converges() {
        let (truth, dists) = fixture(120, 1);
        let mut oracle = FnCleaningOracle(|id| truth[id]);
        let cfg = StreamConfig {
            k: 3,
            emit_every: 30,
            max_bucket: 10,
            ..StreamConfig::default()
        };
        let answers = run_stream(&cfg, &dists, &mut oracle);
        assert_eq!(answers.len(), 4);
        for (i, a) in answers.iter().enumerate() {
            assert_eq!(a.at_frame, (i + 1) * 30);
            assert_eq!(a.window_start, 0);
            assert_eq!(a.topk.len(), 3);
            assert!(a.converged, "unlimited budget must converge");
            assert!(a.confidence >= 0.9);
            // certain-result condition: answers are oracle-confirmed truth
            for &(f, b) in &a.topk {
                assert_eq!(b, truth[f], "frame {f}");
            }
            // ranks ordered (bucket desc, frame asc)
            for w in a.topk.windows(2) {
                assert!(w[0].1 > w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0));
            }
        }
    }

    #[test]
    fn answers_match_prefix_ground_truth() {
        let (truth, dists) = fixture(200, 2);
        let mut oracle = FnCleaningOracle(|id| truth[id]);
        let cfg = StreamConfig {
            k: 4,
            thres: 0.95,
            emit_every: 50,
            max_bucket: 10,
            ..StreamConfig::default()
        };
        for a in run_stream(&cfg, &dists, &mut oracle) {
            // The emitted score multiset must match the true Top-4 of the
            // prefix whenever the answer fully converged.
            let mut expect: Vec<u32> = truth[..a.at_frame].to_vec();
            expect.sort_unstable_by(|x, y| y.cmp(x));
            let got: Vec<u32> = a.topk.iter().map(|&(_, b)| b).collect();
            for (g, e) in got.iter().zip(&expect) {
                assert!(
                    g >= e || a.confidence < 1.0,
                    "got {got:?} expect {expect:?}"
                );
            }
        }
    }

    #[test]
    fn sliding_window_expires_frames() {
        let (truth, dists) = fixture(150, 3);
        let mut oracle = FnCleaningOracle(|id| truth[id]);
        let cfg = StreamConfig {
            k: 2,
            emit_every: 25,
            window: Some(50),
            max_bucket: 10,
            ..StreamConfig::default()
        };
        let answers = run_stream(&cfg, &dists, &mut oracle);
        for a in &answers {
            assert_eq!(a.window_start, a.at_frame.saturating_sub(50));
            for &(f, _) in &a.topk {
                assert!(f >= a.window_start, "expired frame {f} in answer");
            }
        }
    }

    #[test]
    fn early_emits_are_underfilled_not_panicking() {
        let (truth, dists) = fixture(8, 4);
        let mut oracle = FnCleaningOracle(|id| truth[id]);
        let cfg = StreamConfig {
            k: 5,
            emit_every: 2,
            max_bucket: 10,
            ..StreamConfig::default()
        };
        let answers = run_stream(&cfg, &dists, &mut oracle);
        assert_eq!(answers[0].topk.len(), 2); // only 2 frames exist yet
        assert_eq!(answers[1].topk.len(), 4);
        assert_eq!(answers[2].topk.len(), 5);
    }

    #[test]
    fn zero_budget_emits_nonconverged() {
        let (truth, dists) = fixture(60, 5);
        let mut oracle = FnCleaningOracle(|_| -> u32 { panic!("budget 0 must not clean") });
        let _ = truth;
        let cfg = StreamConfig {
            k: 3,
            emit_every: 20,
            budget_per_emit: Some(0),
            max_bucket: 10,
            ..StreamConfig::default()
        };
        for a in run_stream(&cfg, &dists, &mut oracle) {
            assert!(!a.converged);
            assert_eq!(a.cleaned, 0);
            assert!(a.topk.is_empty(), "no certain frames without cleaning");
        }
    }

    #[test]
    fn budget_caps_cleaning_per_emit() {
        let (truth, dists) = fixture(100, 6);
        let mut oracle = FnCleaningOracle(|id| truth[id]);
        let cfg = StreamConfig {
            k: 3,
            thres: 0.99,
            emit_every: 20,
            budget_per_emit: Some(4),
            max_bucket: 10,
            ..StreamConfig::default()
        };
        for a in run_stream(&cfg, &dists, &mut oracle) {
            assert!(a.cleaned <= 4);
            if !a.converged {
                assert!(a.confidence < 0.99);
            }
        }
    }

    /// Like [`fixture`], but with bucket headroom above the truth range so
    /// `s_k < max_bucket` and convergence genuinely needs cleaning (a top
    /// bucket of exactly `max_bucket` makes Eq. 2 trivially 1.0).
    fn slack_fixture(n: usize, seed: u64) -> (Vec<u32>, Vec<DiscreteDist>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let truth: Vec<u32> = (0..n).map(|_| rng.gen_range(0..=10)).collect();
        let dists = noisy_dists(&truth, 16, seed ^ 0xABCD);
        (truth, dists)
    }

    /// A truth oracle that charges simulated seconds per confirmation and
    /// can be wired to die after a set number of calls.
    struct ChaosStreamOracle<'a> {
        truth: &'a [u32],
        cleans: usize,
        cost: f64,
        die_after: Option<usize>,
    }

    impl CleaningOracle for ChaosStreamOracle<'_> {
        fn try_clean_batch(&mut self, items: &[ItemId]) -> Result<Vec<u32>, OracleError> {
            if self.die_after.is_some_and(|n| self.cleans >= n) {
                return Err(OracleError::Transient("oracle host down"));
            }
            self.cleans += items.len();
            Ok(items.iter().map(|&i| self.truth[i]).collect())
        }

        fn sim_seconds_spent(&self) -> f64 {
            self.cleans as f64 * self.cost
        }
    }

    #[test]
    fn stream_wide_call_cap_reports_budget_exhausted() {
        let (truth, dists) = slack_fixture(80, 11);
        let mut oracle = ChaosStreamOracle {
            truth: &truth,
            cleans: 0,
            cost: 0.0,
            die_after: None,
        };
        let cfg = StreamConfig {
            k: 3,
            thres: 0.99,
            emit_every: 20,
            budget: QueryBudget {
                max_oracle_calls: Some(5),
                ..QueryBudget::unlimited()
            },
            max_bucket: 16,
            ..StreamConfig::default()
        };
        let answers = run_stream(&cfg, &dists, &mut oracle);
        let total: usize = answers.iter().map(|a| a.cleaned).sum();
        assert!(total <= 5, "stream-wide cap exceeded: {total}");
        let last = answers.last().unwrap();
        assert_eq!(last.termination, Termination::BudgetExhausted);
        assert!(!last.converged);
        for a in &answers {
            assert_eq!(a.converged, a.termination == Termination::Converged);
        }
    }

    #[test]
    fn stream_deadline_is_simulated_seconds() {
        let (truth, dists) = slack_fixture(80, 12);
        let mut oracle = ChaosStreamOracle {
            truth: &truth,
            cleans: 0,
            cost: 0.1,
            die_after: None,
        };
        let cfg = StreamConfig {
            k: 3,
            thres: 0.99,
            emit_every: 20,
            budget: QueryBudget {
                deadline_sim_seconds: Some(0.25),
                ..QueryBudget::unlimited()
            },
            max_bucket: 16,
            ..StreamConfig::default()
        };
        let answers = run_stream(&cfg, &dists, &mut oracle);
        // Checked between confirmations: at most one overshoot past 0.25s.
        assert!(oracle.sim_seconds_spent() <= 0.25 + 0.1 + 1e-12);
        assert!(answers
            .iter()
            .any(|a| a.termination == Termination::Deadline));
    }

    #[test]
    fn cancelled_stream_emits_degraded_answers() {
        let (truth, dists) = fixture(40, 13);
        let mut oracle = FnCleaningOracle(|id| truth[id]);
        let token = crate::budget::CancelToken::new();
        token.cancel();
        let cfg = StreamConfig {
            k: 3,
            emit_every: 20,
            budget: QueryBudget {
                cancel: Some(token),
                ..QueryBudget::unlimited()
            },
            max_bucket: 10,
            ..StreamConfig::default()
        };
        for a in run_stream(&cfg, &dists, &mut oracle) {
            assert_eq!(a.termination, Termination::Cancelled);
            assert_eq!(a.cleaned, 0);
            assert!(!a.converged);
        }
    }

    #[test]
    fn oracle_down_mid_stream_degrades() {
        let (truth, dists) = slack_fixture(80, 14);
        let mut oracle = ChaosStreamOracle {
            truth: &truth,
            cleans: 0,
            cost: 0.0,
            die_after: Some(4),
        };
        let cfg = StreamConfig {
            k: 3,
            thres: 0.99,
            emit_every: 20,
            max_bucket: 16,
            ..StreamConfig::default()
        };
        let answers = run_stream(&cfg, &dists, &mut oracle);
        assert!(answers
            .iter()
            .any(|a| a.termination == Termination::OracleDown));
        // Confirmed rows stay honest even under failure.
        for a in &answers {
            for &(f, b) in &a.topk {
                assert_eq!(b, truth[f]);
            }
        }
    }

    #[test]
    fn incremental_equals_rebuild_smoke() {
        let (truth, dists) = fixture(180, 7);
        let cfg = StreamConfig {
            k: 4,
            emit_every: 15,
            window: Some(60),
            max_bucket: 10,
            ..StreamConfig::default()
        };
        let mut o1 = FnCleaningOracle(|id| truth[id]);
        let mut o2 = FnCleaningOracle(|id| truth[id]);
        let live = run_stream(&cfg, &dists, &mut o1);
        let batch = batch_reference(&cfg, &dists, &mut o2);
        assert_eq!(live.len(), batch.len());
        for (a, b) in live.iter().zip(&batch) {
            assert_eq!(a.topk, b.topk);
            assert_eq!(a.cleaned, b.cleaned);
            assert!((a.confidence - b.confidence).abs() < 1e-9);
            assert_eq!(
                a.render(1.0),
                b.render(1.0),
                "render must be byte-identical"
            );
        }
    }

    #[test]
    fn render_is_stable() {
        let (truth, dists) = fixture(40, 8);
        let mut oracle = FnCleaningOracle(|id| truth[id]);
        let cfg = StreamConfig {
            k: 2,
            emit_every: 40,
            max_bucket: 10,
            ..StreamConfig::default()
        };
        let answers = run_stream(&cfg, &dists, &mut oracle);
        let text = answers[0].render(1.0);
        assert!(text.starts_with("emit @40"), "got:\n{text}");
        assert!(text.contains("confidence"));
        assert_eq!(text.lines().count(), 2 + answers[0].topk.len());
    }

    #[test]
    fn cleaning_persists_across_emits() {
        let (truth, dists) = fixture(90, 9);
        let mut ids = Vec::new();
        let mut oracle = FnCleaningOracle(|id| {
            ids.push(id);
            truth[id]
        });
        let cfg = StreamConfig {
            k: 3,
            emit_every: 30,
            max_bucket: 10,
            ..StreamConfig::default()
        };
        let mut engine = StreamTopK::new(cfg);
        for d in &dists {
            let _ = engine.push_frame(d.clone(), &mut oracle);
        }
        let cleaned_total = engine.cleaned_total();
        // No frame may ever be cleaned twice: every id reaches the oracle
        // once, and the engine counts each of them.
        assert!(!ids.is_empty(), "the emits must clean something");
        assert_eq!(ids.iter().collect::<BTreeSet<_>>().len(), ids.len());
        assert_eq!(ids.len(), cleaned_total);
    }
}
