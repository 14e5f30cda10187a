//! Validated logical plans and `EXPLAIN` rendering.
//!
//! A [`QueryPlan`] is the output of [`crate::analyze`]: every name is
//! resolved against the catalog, every parameter validated and defaulted.
//! Executing a plan (see [`crate::exec`]) cannot fail on user input — only
//! on environmental problems.

use crate::catalog::{ScoreFn, SourceEntry};
use crate::shared::CacheKey;
use everest_core::budget::{CancelToken, QueryBudget};
use everest_core::cleaner::CleanerConfig;

/// Which processing engine answers the query (§4's method lineup).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The paper's system: CMDN Phase 1 + oracle-in-the-loop Phase 2.
    Everest,
    /// Scan-and-test: oracle on every frame (the exact baseline).
    Scan,
    /// CMDN-only: rank by the proxy's mean score, no cleaning.
    CmdnOnly,
    /// HOG + SVM classic scorer.
    Hog,
    /// TinyYOLOv3-style cheap detector.
    TinyYolo,
    /// NoScope-style range selection, then Top-K over candidates.
    SelectTopk,
}

impl Engine {
    pub fn display(&self) -> &'static str {
        match self {
            Engine::Everest => "everest",
            Engine::Scan => "scan",
            Engine::CmdnOnly => "cmdn",
            Engine::Hog => "hog",
            Engine::TinyYolo => "tinyyolo",
            Engine::SelectTopk => "select_topk",
        }
    }

    /// All engine spellings EVQL accepts (first spelling is canonical).
    pub fn aliases(&self) -> &'static [&'static str] {
        match self {
            Engine::Everest => &["everest"],
            Engine::Scan => &["scan", "scan_and_test", "oracle"],
            Engine::CmdnOnly => &["cmdn", "cmdn_only", "proxy"],
            Engine::Hog => &["hog"],
            Engine::TinyYolo => &["tinyyolo", "tiny_yolo", "tinyyolov3"],
            Engine::SelectTopk => &["select_topk", "select-topk", "noscope"],
        }
    }

    pub fn all() -> [Engine; 6] {
        [
            Engine::Everest,
            Engine::Scan,
            Engine::CmdnOnly,
            Engine::Hog,
            Engine::TinyYolo,
            Engine::SelectTopk,
        ]
    }

    /// Resolves an engine name (any alias, case-insensitive).
    pub fn by_name(name: &str) -> Option<Engine> {
        Engine::all()
            .into_iter()
            .find(|e| e.aliases().iter().any(|a| a.eq_ignore_ascii_case(name)))
    }
}

/// What the validated query ranks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlanTarget {
    Frames,
    /// `slide == len` is a tumbling window (§3.4); `slide < len` slides.
    Windows {
        len: usize,
        slide: usize,
        sample_frac: f64,
    },
}

/// A fully-resolved, validated Top-K query.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    pub source: SourceEntry,
    pub score: ScoreFn,
    pub k: usize,
    pub target: PlanTarget,
    pub engine: Engine,
    /// Probability threshold `thres` (Everest engine only).
    pub thres: f64,
    /// Dataset build seed (0 = the source's default seed).
    pub seed: u64,
    /// Score quantization step (§3.2).
    pub quant_step: f64,
    /// Phase-2 batch-inference size `b` (§3.5).
    pub batch: usize,
    /// ψ re-sort period (§3.3.2).
    pub resort_period: usize,
    /// Catalog scale divisor in force when the plan was made.
    pub scale_divisor: usize,
    /// Scaled frame count the plan will run over.
    pub n_frames: usize,
    /// `EVERY <n> FRAMES EMIT`: continuous emission stride in arriving
    /// frames; `None` runs the query once over the whole video.
    pub emit_every: Option<usize>,
    /// Streaming sliding-window length (`WITH WINDOW w`); `None` keeps the
    /// whole prefix (a landmark query).
    pub stream_window: Option<usize>,
    /// Per-emit oracle-cleaning budget (`WITH BUDGET b`); `None` cleans
    /// until the confidence threshold is met.
    pub stream_budget: Option<usize>,
    /// `WITHIN <n> ORACLE CALLS`: hard cap on Phase-2 oracle calls for
    /// the whole query; exceeding it yields a degraded (anytime) answer.
    pub max_oracle_calls: Option<usize>,
    /// `WITH DEADLINE <s>`: simulated-seconds deadline on Phase-2
    /// cleaning; exceeding it yields a degraded answer.
    pub deadline: Option<f64>,
    /// `WITH FLAKY <seed>`: wrap the oracle in seeded fault injection
    /// (timeouts, transient errors, latency spikes) with deterministic
    /// retry/backoff. `None` runs the pristine oracle.
    pub flaky_seed: Option<u64>,
}

impl QueryPlan {
    /// The prepared-video cache key this plan's Phase 1 is stored under.
    pub fn cache_key(&self) -> CacheKey {
        CacheKey::new(
            &self.source,
            self.score,
            self.scale_divisor,
            self.seed,
            self.quant_step,
        )
    }

    /// The Phase-2 cleaner configuration this plan runs with; `cancel`
    /// is checked between cleaning batches.
    pub fn cleaner(&self, cancel: Option<CancelToken>) -> CleanerConfig {
        CleanerConfig {
            k: self.k,
            thres: self.thres,
            batch_size: self.batch,
            resort_period: self.resort_period,
            max_cleanings: None,
            budget: QueryBudget {
                max_oracle_calls: self.max_oracle_calls,
                deadline_sim_seconds: self.deadline,
                cancel,
            },
        }
    }

    /// Number of rankable items (frames, or windows of the given spec).
    pub fn n_items(&self) -> usize {
        match self.target {
            PlanTarget::Frames => self.n_frames,
            PlanTarget::Windows { len, slide, .. } => {
                if self.n_frames == 0 {
                    0
                } else {
                    // ceil((n - len) / slide) + 1, clamped for short videos
                    let n = self.n_frames;
                    if n <= len {
                        1
                    } else {
                        (n - len).div_ceil(slide) + 1
                    }
                }
            }
        }
    }

    /// Multi-line `EXPLAIN` rendering.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "TopK(k={}, engine={}{})\n",
            self.k,
            self.engine.display(),
            if self.engine == Engine::Everest {
                format!(", thres={}", self.thres)
            } else {
                String::new()
            }
        ));
        let mut indent = " └─ ";
        if self.max_oracle_calls.is_some() || self.deadline.is_some() || self.flaky_seed.is_some() {
            let mut parts = Vec::new();
            if let Some(c) = self.max_oracle_calls {
                parts.push(format!("calls≤{c}"));
            }
            if let Some(d) = self.deadline {
                parts.push(format!("deadline={d}s"));
            }
            if let Some(s) = self.flaky_seed {
                parts.push(format!("flaky(seed={s})"));
            }
            out.push_str(&format!("{indent}Budget({})\n", parts.join(", ")));
            indent = "     └─ ";
        }
        if let Some(stride) = self.emit_every {
            out.push_str(&format!(
                "{indent}StreamEmit(every={stride} frames, window={}, budget={})\n",
                self.stream_window
                    .map_or("prefix".into(), |w| w.to_string()),
                self.stream_budget
                    .map_or("unbounded".into(), |b| b.to_string()),
            ));
            indent = "     └─ ";
        }
        if let PlanTarget::Windows {
            len,
            slide,
            sample_frac,
        } = self.target
        {
            out.push_str(&format!(
                "{indent}WindowAgg(len={len}, slide={slide}{}, sample={sample_frac})\n",
                if slide == len {
                    " [tumbling]"
                } else {
                    " [sliding]"
                },
            ));
            indent = "     └─ ";
        }
        out.push_str(&format!(
            "{indent}UncertainScan(dataset={}, frames={}, score={}, step={})\n",
            self.source.name,
            self.n_frames,
            self.score.display(),
            self.quant_step,
        ));
        let deeper = format!("    {indent}");
        match self.engine {
            Engine::Everest | Engine::CmdnOnly => {
                out.push_str(&format!(
                    "{deeper}Phase1(CMDN proxy, quantized mixture → D0, seed={})\n",
                    self.seed
                ));
                if self.engine == Engine::Everest {
                    out.push_str(&format!(
                        "{deeper}Phase2(oracle-in-the-loop cleaning, batch={}, resort={})\n",
                        self.batch, self.resort_period
                    ));
                }
            }
            Engine::Scan => {
                out.push_str(&format!(
                    "{deeper}OracleScan(cost≈{:.0} ms/frame)\n",
                    1000.0 * oracle_cost_hint(self.score)
                ));
            }
            Engine::Hog | Engine::TinyYolo => {
                out.push_str(&format!("{deeper}CheapScan({})\n", self.engine.display()));
            }
            Engine::SelectTopk => {
                out.push_str(&format!(
                    "{deeper}RangeSelect(λ sweep, fn≤0.1) → OracleConfirm → TopK\n"
                ));
            }
        }
        out
    }
}

fn oracle_cost_hint(score: ScoreFn) -> f64 {
    match score {
        ScoreFn::Count(_) | ScoreFn::Coverage => everest_models::oracle::YOLO_COST_PER_FRAME,
        ScoreFn::Tailgating => everest_models::oracle::DEPTH_COST_PER_FRAME,
        ScoreFn::Sentiment => everest_models::sentiment::SENTIMENT_COST_PER_FRAME,
    }
}

/// A validated `SELECT SKYLINE` query: 2–3 scoring dimensions over one
/// dataset, answered with the oracle-in-the-loop skyline cleaner
/// (`everest-core::skyline`).
#[derive(Debug, Clone)]
pub struct SkylinePlan {
    pub source: SourceEntry,
    /// The scoring dimensions (2 or 3, distinct, all served by `source`).
    pub scores: Vec<ScoreFn>,
    /// Confidence threshold for `Pr(R̂ = Sky)`.
    pub thres: f64,
    pub seed: u64,
    pub batch: usize,
    pub scale_divisor: usize,
    pub n_frames: usize,
}

impl SkylinePlan {
    /// Multi-line `EXPLAIN` rendering.
    pub fn explain(&self) -> String {
        let mut out = format!(
            "Skyline(dims={}, thres={})\n",
            self.scores.len(),
            self.thres
        );
        out.push_str(&format!(
            " └─ UncertainScan(dataset={}, frames={}, scores=[{}])\n",
            self.source.name,
            self.n_frames,
            self.scores
                .iter()
                .map(|s| s.display())
                .collect::<Vec<_>>()
                .join(", "),
        ));
        out.push_str(&format!(
            "     └─ Phase1(one CMDN per dimension, seed={})\n",
            self.seed
        ));
        out.push_str(&format!(
            "     └─ SkylineClean(smallest-factor batches of {}, shared detector pass)\n",
            self.batch
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::source_by_name;
    use everest_video::scene::ObjectClass;

    fn plan(target: PlanTarget, n_frames: usize) -> QueryPlan {
        QueryPlan {
            source: source_by_name("Archie").unwrap(),
            score: ScoreFn::Count(ObjectClass::Car),
            k: 10,
            target,
            engine: Engine::Everest,
            thres: 0.9,
            seed: 0,
            quant_step: 1.0,
            batch: 8,
            resort_period: 10,
            scale_divisor: 8,
            n_frames,
            emit_every: None,
            stream_window: None,
            stream_budget: None,
            max_oracle_calls: None,
            deadline: None,
            flaky_seed: None,
        }
    }

    #[test]
    fn engine_alias_resolution() {
        assert_eq!(Engine::by_name("EVEREST"), Some(Engine::Everest));
        assert_eq!(Engine::by_name("noscope"), Some(Engine::SelectTopk));
        assert_eq!(Engine::by_name("select-topk"), Some(Engine::SelectTopk));
        assert_eq!(Engine::by_name("oracle"), Some(Engine::Scan));
        assert_eq!(Engine::by_name("warp"), None);
    }

    #[test]
    fn n_items_frames_and_windows() {
        assert_eq!(plan(PlanTarget::Frames, 1000).n_items(), 1000);
        // tumbling 100-frame windows over 1000 frames = 10
        let t = PlanTarget::Windows {
            len: 100,
            slide: 100,
            sample_frac: 0.1,
        };
        assert_eq!(plan(t, 1000).n_items(), 10);
        // sliding by 50: (1000-100)/50 + 1 = 19
        let s = PlanTarget::Windows {
            len: 100,
            slide: 50,
            sample_frac: 0.1,
        };
        assert_eq!(plan(s, 1000).n_items(), 19);
        // degenerate: video shorter than the window
        let d = PlanTarget::Windows {
            len: 100,
            slide: 100,
            sample_frac: 0.1,
        };
        assert_eq!(plan(d, 60).n_items(), 1);
    }

    #[test]
    fn explain_mentions_the_pieces() {
        let p = plan(
            PlanTarget::Windows {
                len: 30,
                slide: 15,
                sample_frac: 0.1,
            },
            5000,
        );
        let text = p.explain();
        assert!(text.contains("TopK(k=10"), "{text}");
        assert!(text.contains("[sliding]"), "{text}");
        assert!(text.contains("UncertainScan(dataset=Archie"), "{text}");
        assert!(text.contains("Phase2"), "{text}");
    }

    #[test]
    fn explain_streaming_plan_shows_emit_node() {
        let mut p = plan(PlanTarget::Frames, 5000);
        p.emit_every = Some(100);
        p.stream_window = Some(500);
        p.stream_budget = Some(16);
        let text = p.explain();
        assert!(
            text.contains("StreamEmit(every=100 frames, window=500, budget=16)"),
            "{text}"
        );
        // the stream node sits between TopK and the scan
        let emit_at = text.find("StreamEmit").unwrap();
        assert!(text.find("TopK").unwrap() < emit_at, "{text}");
        assert!(emit_at < text.find("UncertainScan").unwrap(), "{text}");
        p.stream_window = None;
        p.stream_budget = None;
        let text = p.explain();
        assert!(text.contains("window=prefix, budget=unbounded"), "{text}");
    }

    #[test]
    fn explain_budget_node_renders_only_when_set() {
        let mut p = plan(PlanTarget::Frames, 5000);
        assert!(!p.explain().contains("Budget("), "{}", p.explain());
        p.max_oracle_calls = Some(200);
        p.deadline = Some(2.5);
        p.flaky_seed = Some(7);
        let text = p.explain();
        assert!(
            text.contains("Budget(calls≤200, deadline=2.5s, flaky(seed=7))"),
            "{text}"
        );
        let budget_at = text.find("Budget").unwrap();
        assert!(text.find("TopK").unwrap() < budget_at, "{text}");
        assert!(budget_at < text.find("UncertainScan").unwrap(), "{text}");
    }

    #[test]
    fn explain_scan_engine_has_no_phase2() {
        let mut p = plan(PlanTarget::Frames, 5000);
        p.engine = Engine::Scan;
        let text = p.explain();
        assert!(text.contains("OracleScan"), "{text}");
        assert!(!text.contains("Phase2"), "{text}");
    }
}
