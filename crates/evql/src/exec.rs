//! EVQL execution: a [`Session`] turns statements into answers.
//!
//! The session owns the [`SessionSettings`] (mutable via `SET`) and a
//! **prepared-video cache**: Phase 1 (CMDN training + populating `D0`) runs
//! once per `(dataset, score, scale, seed, step)` and is reused by every
//! later query — the Focus-style offline-ingestion mode §4.2 describes
//! ("Phase 1 can be done offline during data ingestion"). Reported
//! simulated time always includes the full Phase-1 charge, as the paper's
//! end-to-end numbers do; [`ExecStats::phase1_cached`] records whether the
//! *wall-clock* work was reused. The cache is LRU-bounded
//! ([`DEFAULT_CACHE_CAPACITY`], adjustable via [`SharedCache::set_capacity`]
//! on [`Session::shared_cache`]) so sessions touching many distinct
//! `(dataset, score, scale, seed, step)` combinations can't grow memory
//! without limit.

use crate::analyze::{analyze, SessionSettings};
use crate::ast::Statement;
use crate::catalog::{catalog, ScoreFn, SourceEntry};
use crate::error::{ErrorKind, EvqlError};
use crate::parser::parse;
use crate::plan::{Engine, PlanTarget, QueryPlan};
use crate::shared::{CacheKey, SharedCache};
use everest_core::baselines::{
    cheap_scan, cmdn_only, scan_and_test, scan_seconds, select_and_topk_calibrated, topk_indices,
    BaselineResult,
};
use everest_core::budget::{CancelToken, QueryBudget, Termination};
use everest_core::cleaner::CleaningOracle;
use everest_core::dist::DiscreteDist;
use everest_core::metrics::{evaluate_topk, GroundTruth, ResultQuality};
use everest_core::phase1::Phase1Config;
use everest_core::pipeline::{Everest, FrameOracleAdapter, PreparedVideo, QueryReport};
use everest_core::stream::{batch_reference, StreamAnswer, StreamConfig, StreamTopK};
use everest_core::window::{exact_window_scores, sliding_windows, WindowInfo};
use everest_core::xtuple::ItemState;
use everest_models::{
    ExactScoreOracle, FlakyOracle, HogScorer, Oracle, RetryingOracle, TinyYoloScorer,
};
use everest_video::store::DecodeCostModel;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One answer row: a frame or window with its confirmed/exact score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnswerRow {
    /// 1-based rank.
    pub rank: usize,
    /// Frame range `[start, end)` (frames report a 1-frame range).
    pub start_frame: usize,
    pub end_frame: usize,
    /// Video timestamp of `start_frame`, seconds.
    pub time_sec: f64,
    /// The engine's score for this item (oracle-confirmed under Everest's
    /// certain-result condition; exact ground truth for baselines).
    pub score: f64,
}

/// Run statistics attached to a query answer.
#[derive(Debug, Clone)]
pub struct ExecStats {
    pub engine: Engine,
    /// Frames in the (scaled) video.
    pub n_frames: usize,
    /// Rankable items (frames or windows).
    pub n_items: usize,
    /// `Pr(R̂ = R)` at termination (Everest engine only).
    pub confidence: Option<f64>,
    pub converged: Option<bool>,
    /// Why Phase-2 cleaning stopped (Everest engine only): converged, or
    /// a degraded exit (budget, deadline, cancellation, oracle failure).
    /// Part of the canonical answer — deterministic given the fault
    /// schedule.
    pub termination: Option<Termination>,
    pub iterations: Option<usize>,
    pub cleaned: Option<usize>,
    /// Oracle retries performed under `WITH FLAKY` fault injection
    /// (None without fault injection). Not part of the canonical answer.
    pub oracle_retries: Option<u64>,
    /// Circuit-breaker trips under `WITH FLAKY` fault injection.
    pub breaker_trips: Option<u64>,
    /// Simulated end-to-end latency, seconds.
    pub sim_seconds: f64,
    /// Simulated scan-and-test latency (the speedup denominator′s
    /// numerator — §4's baseline).
    pub scan_seconds: f64,
    /// `scan_seconds / sim_seconds`.
    pub speedup: f64,
    /// Tie-aware quality vs. exact ground truth (None when the engine
    /// returned fewer than K items).
    pub quality: Option<ResultQuality>,
    /// Real wall-clock time of the whole request.
    pub wall: Duration,
    /// Whether Phase 1 came from the session cache.
    pub phase1_cached: bool,
}

/// A query answer: rows + stats + the plan it ran.
#[derive(Debug, Clone)]
pub struct QueryOutput {
    pub rows: Vec<AnswerRow>,
    pub stats: ExecStats,
    pub plan: QueryPlan,
}

/// What executing a statement produces.
#[derive(Debug, Clone)]
pub enum Output {
    /// A `SELECT TOP` answer.
    Rows(QueryOutput),
    /// A `SELECT SKYLINE` answer.
    Skyline(SkylineOutput),
    /// A continuous `SELECT TOP … EVERY n FRAMES EMIT` answer.
    Stream(StreamOutput),
    /// `SHOW` / `SET` / `EXPLAIN` text.
    Message(String),
}

/// A continuous query's answer: one [`StreamAnswer`] per emit point.
#[derive(Debug, Clone)]
pub struct StreamOutput {
    /// Per-emit answers in arrival order. Frame ids are x-tuple ids on the
    /// retained stream; [`StreamOutput::retained`] maps them back.
    pub answers: Vec<StreamAnswer>,
    /// Retained video-frame number of each arriving x-tuple.
    pub retained: Vec<usize>,
    pub stats: ExecStats,
    pub plan: QueryPlan,
}

/// One skyline answer row: a Pareto-optimal frame with its score vector.
#[derive(Debug, Clone, PartialEq)]
pub struct SkylineRow {
    pub frame: usize,
    pub time_sec: f64,
    /// Oracle-confirmed scores, one per dimension (same order as
    /// [`SkylineOutput::score_names`]).
    pub scores: [f64; 2],
}

/// A `SELECT SKYLINE` answer.
#[derive(Debug, Clone)]
pub struct SkylineOutput {
    pub rows: Vec<SkylineRow>,
    /// Display names of the dimensions.
    pub score_names: Vec<String>,
    pub stats: ExecStats,
    pub plan: crate::plan::SkylinePlan,
}

/// One cached Phase-1 preparation: the prepared video plus the exact
/// oracle it was built against. Public so [`crate::shared::SharedCache`]
/// (and the serve daemon inspecting it) can store real entries.
pub struct PreparedEntry {
    /// Phase-1 artifacts for one `(dataset, score, scale, seed, step)`.
    pub prepared: PreparedVideo,
    /// The exact-score oracle Phase 2 confirms against.
    pub oracle: ExactScoreOracle,
}

/// Default cap on cached Phase-1 preparations. Each entry holds a full
/// relation + mixtures + trained CMDN for one `(dataset, score, scale,
/// seed, step)` combination — a handful covers an interactive session,
/// while an unbounded map would grow with every distinct query shape.
pub const DEFAULT_CACHE_CAPACITY: usize = 8;

/// An EVQL session: settings + LRU-bounded prepared-video cache.
///
/// The cache is a [`SharedCache`]: private to this session by default,
/// but [`Session::with_shared_cache`] lets a pool of sessions (one per
/// serve-daemon connection) share a single LRU of Phase-1 preparations
/// with single-flight builds.
pub struct Session {
    pub settings: SessionSettings,
    cache: SharedCache,
    /// Cooperative cancellation checked between cleaning batches of every
    /// query this session runs (see [`Session::set_cancel_token`]).
    cancel: Option<CancelToken>,
}

impl Default for Session {
    fn default() -> Self {
        Session::new()
    }
}

impl Session {
    pub fn new() -> Self {
        Session::with_settings(SessionSettings::default())
    }

    pub fn with_settings(settings: SessionSettings) -> Self {
        Session::with_shared_cache(settings, SharedCache::with_capacity(DEFAULT_CACHE_CAPACITY))
    }

    /// A session whose prepared-video cache is shared with other
    /// sessions (every clone of `cache` sees the same entries).
    pub fn with_shared_cache(settings: SessionSettings, cache: SharedCache) -> Self {
        Session {
            settings,
            cache,
            cancel: None,
        }
    }

    /// Installs (or clears) a cooperative cancel token. Every subsequent
    /// query checks it between cleaning batches: a fired token stops
    /// Phase 2 at the next batch boundary and the query returns a
    /// degraded answer with [`Termination::Cancelled`]. The serve daemon
    /// installs one per query so a client disconnect aborts the work.
    pub fn set_cancel_token(&mut self, token: Option<CancelToken>) {
        self.cancel = token;
    }

    /// A clone of this session's cache handle, for sharing with further
    /// sessions or for `SHOW CACHES`-style introspection.
    pub fn shared_cache(&self) -> SharedCache {
        self.cache.clone()
    }

    /// Parses, analyzes and executes one statement.
    pub fn execute(&mut self, src: &str) -> Result<Output, EvqlError> {
        match parse(src)? {
            Statement::Select(stmt) => {
                let plan = analyze(&stmt, &self.settings)?;
                if let Some(every) = plan.emit_every {
                    return Ok(Output::Stream(self.open_stream(plan, every)?.finish()?));
                }
                Ok(Output::Rows(self.run(plan)?))
            }
            Statement::Skyline(stmt) => {
                let plan = crate::analyze::analyze_skyline(&stmt, &self.settings)?;
                Ok(Output::Skyline(self.run_skyline(plan)?))
            }
            Statement::Explain(stmt) => {
                let plan = analyze(&stmt, &self.settings)?;
                Ok(Output::Message(plan.explain()))
            }
            Statement::ExplainSkyline(stmt) => {
                let plan = crate::analyze::analyze_skyline(&stmt, &self.settings)?;
                Ok(Output::Message(plan.explain()))
            }
            Statement::Show { what, span } => self.show(&what, span).map(Output::Message),
            Statement::Set { name, value, span } => self
                .settings
                .apply(&name, &value, span)
                .map(Output::Message),
        }
    }

    // ---- SHOW ----

    fn show(&self, what: &str, span: crate::token::Span) -> Result<String, EvqlError> {
        match what.to_ascii_lowercase().as_str() {
            "datasets" => {
                let mut out = String::from(
                    "dataset                n_frames(full)  at-scale  fps   default score   description\n",
                );
                for e in catalog() {
                    out.push_str(&format!(
                        "{:<22} {:>14}  {:>8}  {:<5} {:<15} {}\n",
                        e.name,
                        e.n_frames_full,
                        e.scaled_frames(self.settings.scale),
                        e.fps,
                        e.default_score.display(),
                        e.description,
                    ));
                }
                Ok(out)
            }
            "scores" => Ok("count(<class>)   objects of a class per frame (classes: car, person, boat, bus, truck)\n\
                 coverage()       total object bounding-box area, % of frame (counting datasets; skyline dim)\n\
                 tailgating()     depth-estimator tailgating degree (dashcam datasets)\n\
                 sentiment()      visual-sentimentalizer happiness (vlog datasets)\n"
                .into()),
            "engines" => {
                let mut out = String::new();
                for e in Engine::all() {
                    out.push_str(&format!(
                        "{:<12} aliases: {}\n",
                        e.display(),
                        e.aliases().join(", ")
                    ));
                }
                Ok(out)
            }
            "settings" => Ok(format!(
                "scale      = {} (datasets shrink by 1/{})\n\
                 confidence = {}\n\
                 seed       = {}\n\
                 sample     = {}\n\
                 batch      = {}\n\
                 resort     = {}\n",
                self.settings.scale,
                self.settings.scale,
                self.settings.confidence,
                self.settings.seed,
                self.settings.sample,
                self.settings.batch,
                self.settings.resort,
            )),
            other => Err(EvqlError::new(
                ErrorKind::Unknown {
                    what: "SHOW target",
                    name: other.into(),
                    suggestion: crate::error::suggest(
                        other,
                        ["datasets", "scores", "engines", "settings"],
                    ),
                },
                span,
            )),
        }
    }

    // ---- SELECT ----

    fn run(&mut self, plan: QueryPlan) -> Result<QueryOutput, EvqlError> {
        #[expect(
            clippy::disallowed_methods,
            reason = "feeds the reported wall_ms stat only; query answers never branch on wall time"
        )]
        let started = Instant::now();
        // Phase 1 (CMDN training + D0) is only charged to engines that use
        // a proxy model; pure scans get the oracle directly.
        let needs_phase1 = matches!(
            plan.engine,
            Engine::Everest | Engine::CmdnOnly | Engine::SelectTopk
        );
        let (entry, phase1_cached) = if needs_phase1 {
            let (e, cached) = self.prepared(&plan);
            (Some(e), cached)
        } else {
            (None, false)
        };
        // Difference detection can retain fewer frames than the plan's
        // frame count, the bound `analyze` checked K against.
        if let (Some(e), PlanTarget::Frames) = (&entry, plan.target) {
            let retained = e.prepared.phase1.relation.len();
            if plan.k > retained {
                return Err(EvqlError::new(
                    ErrorKind::Exec(format!(
                        "TOP {} exceeds the {retained} frames {} retains after difference \
                         detection at scale 1/{}",
                        plan.k, plan.source.name, plan.scale_divisor
                    )),
                    crate::token::Span::point(0),
                ));
            }
        }
        let standalone_oracle;
        let oracle: &ExactScoreOracle = match &entry {
            Some(e) => &e.oracle,
            None => {
                standalone_oracle = plan
                    .source
                    .build(plan.score, plan.scale_divisor, plan.seed)
                    .oracle;
                &standalone_oracle
            }
        };
        let fps = plan.source.fps;
        let n = plan.n_frames;
        let scan_seconds = scan_seconds(n, oracle.cost_per_frame());

        // A fresh fault-injection wrapper per query means replaying the
        // same statement replays the same fault schedule bit-for-bit.
        let flaky = flaky_oracle(oracle, plan.flaky_seed);
        let query_oracle: &dyn Oracle = match &flaky {
            Some(f) => f,
            None => oracle,
        };

        let cleaner = plan.cleaner(self.cancel.clone());

        // The frame baselines differ only in the call that ranks.
        let baseline = |result: BaselineResult| {
            let scores = oracle.all_scores();
            let ranked = result.topk.iter().map(|&f| (f, f + 1, scores[f]));
            Ran {
                rows: answer_rows(ranked, fps),
                report: None,
                sim_seconds: result.sim_seconds,
                quality: quality(scores.to_vec(), &result.topk, plan.k),
            }
        };
        let ran = match (plan.engine, plan.target, entry.as_deref()) {
            (Engine::Everest, PlanTarget::Frames, Some(e)) => {
                let report = e
                    .prepared
                    .query_topk(query_oracle, plan.k, plan.thres, &cleaner);
                let quality = quality(oracle.all_scores().to_vec(), &report.frames(), plan.k);
                Ran::everest(report, quality, fps)
            }
            (
                Engine::Everest,
                PlanTarget::Windows {
                    len,
                    slide,
                    sample_frac,
                },
                Some(e),
            ) => {
                // `slide == len` is the tumbling case of the same window list.
                let report = e.prepared.query_topk_sliding_windows(
                    query_oracle,
                    plan.k,
                    plan.thres,
                    len,
                    slide,
                    sample_frac,
                    &cleaner,
                );
                let windows = sliding_windows(n, len, slide);
                let quality = window_quality(oracle, &windows, &report, plan.k, slide);
                Ran::everest(report, quality, fps)
            }
            (Engine::Scan, PlanTarget::Windows { len, slide, .. }, _) => {
                let windows = sliding_windows(n, len, slide);
                let w_scores = exact_window_scores(oracle.all_scores(), &windows);
                let top = topk_indices(&w_scores, plan.k);
                let ranked = top
                    .iter()
                    .map(|&wid| (windows[wid].start, windows[wid].end, w_scores[wid]));
                Ran {
                    rows: answer_rows(ranked, fps),
                    report: None,
                    sim_seconds: scan_seconds,
                    quality: quality(w_scores, &top, plan.k),
                }
            }
            (Engine::Scan, PlanTarget::Frames, _) => baseline(scan_and_test(oracle, plan.k)),
            (Engine::CmdnOnly, PlanTarget::Frames, Some(e)) => {
                baseline(cmdn_only(&e.prepared, plan.k))
            }
            (Engine::Hog, PlanTarget::Frames, _) => baseline(cheap_scan(
                &HogScorer::new(oracle.clone(), plan.seed ^ 0x09),
                plan.k,
            )),
            (Engine::TinyYolo, PlanTarget::Frames, _) => baseline(cheap_scan(
                &TinyYoloScorer::new(oracle.clone(), plan.seed ^ 0x77),
                plan.k,
            )),
            (Engine::SelectTopk, PlanTarget::Frames, Some(e)) => {
                let Some(result) = select_and_topk_calibrated(&e.prepared, oracle, plan.k, 0.9)
                else {
                    return Err(EvqlError::new(
                        ErrorKind::Exec(format!(
                            "engine `{}` selected fewer than {} candidates at every λ",
                            plan.engine.display(),
                            plan.k
                        )),
                        crate::token::Span::point(0),
                    ));
                };
                baseline(result)
            }
            // analyze() rejects window queries on the other engines, and a
            // proxy engine always has its Phase-1 entry; keep a defensive
            // error rather than a panic for forward compatibility.
            (engine, _, _) => {
                return Err(EvqlError::new(
                    ErrorKind::Exec(format!(
                        "engine `{}` cannot run this query",
                        engine.display()
                    )),
                    crate::token::Span::point(0),
                ));
            }
        };

        let report = ran.report.as_ref();
        Ok(QueryOutput {
            rows: ran.rows,
            stats: ExecStats {
                engine: plan.engine,
                n_frames: n,
                n_items: plan.n_items(),
                confidence: report.map(|r| r.confidence),
                converged: report.map(|r| r.converged),
                termination: report.map(|r| r.termination),
                iterations: report.map(|r| r.iterations),
                cleaned: report.map(|r| r.cleaned),
                oracle_retries: flaky.as_ref().map(|f| f.retries()),
                breaker_trips: flaky.as_ref().map(|f| f.breaker_trips()),
                sim_seconds: ran.sim_seconds,
                scan_seconds,
                speedup: speedup(scan_seconds, ran.sim_seconds),
                quality: ran.quality,
                wall: started.elapsed(),
                phase1_cached,
            },
            plan,
        })
    }

    /// Returns the cached Phase-1 preparation for a plan, building it on a
    /// miss. The bool is `true` on a cache hit.
    fn prepared(&mut self, plan: &QueryPlan) -> (Arc<PreparedEntry>, bool) {
        self.prepared_for(
            &plan.source,
            plan.score,
            plan.scale_divisor,
            plan.seed,
            plan.quant_step,
        )
    }

    /// Cache lookup/build keyed by `(dataset, score, scale, seed, step)`.
    /// Builds are single-flight under a shared cache: concurrent sessions
    /// racing on the same key block until one of them finishes Phase 1.
    fn prepared_for(
        &mut self,
        source: &SourceEntry,
        score: ScoreFn,
        scale: usize,
        seed: u64,
        step: f64,
    ) -> (Arc<PreparedEntry>, bool) {
        let key = CacheKey::new(source, score, scale, seed, step);
        self.cache.get_or_build(&key, || {
            let built = source.build(score, scale, seed);
            let cfg = Phase1Config::interactive(step, seed);
            let prepared = Everest::prepare(built.video.as_ref(), &built.oracle, &cfg);
            PreparedEntry {
                prepared,
                oracle: built.oracle,
            }
        })
    }

    /// Opens a continuous query as a [`StreamSession`] that yields one
    /// answer per emit point. The statement must carry an
    /// `EVERY <n> FRAMES EMIT` clause.
    pub fn stream(&mut self, src: &str) -> Result<StreamSession, EvqlError> {
        match parse(src)? {
            Statement::Select(stmt) => {
                let plan = analyze(&stmt, &self.settings)?;
                let Some(every) = plan.emit_every else {
                    return Err(EvqlError::new(
                        ErrorKind::Incompatible(
                            "Session::stream needs a continuous statement; \
                             add EVERY <n> FRAMES EMIT"
                                .into(),
                        ),
                        stmt.k_span,
                    ));
                };
                self.open_stream(plan, every)
            }
            _ => Err(EvqlError::new(
                ErrorKind::Incompatible(
                    "Session::stream needs a SELECT TOP … EVERY <n> FRAMES EMIT statement".into(),
                ),
                crate::token::Span::point(0),
            )),
        }
    }

    /// Builds the streaming engine for a validated continuous plan that
    /// emits every `every` arriving frames.
    fn open_stream(&mut self, plan: QueryPlan, every: usize) -> Result<StreamSession, EvqlError> {
        #[expect(
            clippy::disallowed_methods,
            reason = "feeds the reported wall_ms stat only; stream answers never branch on wall \
                      time"
        )]
        let started = Instant::now();
        let (entry, phase1_cached) = self.prepared(&plan);
        let rel = &entry.prepared.phase1.relation;
        // The arriving unit is a retained x-tuple: the difference detector
        // may drop near-duplicate frames, so the emit stride (validated in
        // video frames) is clamped to the stream length to guarantee the
        // query emits at least once.
        // Frames labelled during Phase-1 training enter D0 certain; they
        // arrive as point masses (the oracle re-confirms them for free in
        // simulated cost terms only if the cleaner ever picks one).
        let dists: Vec<DiscreteDist> = (0..rel.len())
            .map(|id| match rel.item(id) {
                ItemState::Uncertain(d) => d.clone(),
                ItemState::Certain(b) => DiscreteDist::certain(*b as usize, rel.max_bucket()),
            })
            .collect();
        let stride = every.min(dists.len());
        let cfg = StreamConfig {
            k: plan.k,
            thres: plan.thres,
            emit_every: stride.max(1),
            window: plan.stream_window,
            budget_per_emit: plan.stream_budget,
            quant_step: rel.step(),
            max_bucket: rel.max_bucket(),
            budget: QueryBudget {
                max_oracle_calls: plan.max_oracle_calls,
                deadline_sim_seconds: plan.deadline,
                cancel: self.cancel.clone(),
            },
            ..StreamConfig::default()
        };
        let (oracle, flaky) = stream_oracle(&entry, plan.flaky_seed);
        Ok(StreamSession {
            engine: StreamTopK::new(cfg),
            plan,
            dists,
            oracle,
            flaky,
            entry,
            fed: 0,
            answers: Vec::new(),
            phase1_cached,
            started,
        })
    }

    /// Executes a validated skyline plan (`everest-core::skyline`).
    ///
    /// Phase 1 runs once per dimension (cached independently, so a later
    /// Top-K on `count(...)` reuses the skyline's first dimension). Both
    /// dimensions derive from the *same* detector pass, so confirming a
    /// frame charges one oracle invocation, not two.
    fn run_skyline(&mut self, plan: crate::plan::SkylinePlan) -> Result<SkylineOutput, EvqlError> {
        use everest_core::skyline::{run_skyline_cleaner, zip_relations, SkylineConfig};

        #[expect(
            clippy::disallowed_methods,
            reason = "feeds the reported wall_ms stat only; skyline answers never branch on wall \
                      time"
        )]
        let started = Instant::now();
        let prepared = plan.scores.map(|score| {
            self.prepared_for(
                &plan.source,
                score,
                plan.scale_divisor,
                plan.seed,
                score.default_step(),
            )
        });
        let phase1_cached = prepared.iter().all(|&(_, cached)| cached);
        let entries = prepared.map(|(entry, _)| entry);
        // The difference detector is score-independent: both dimensions
        // must see the same retained frames.
        let retained = entries[0].prepared.phase1.segments.retained().to_vec();
        if entries[1].prepared.phase1.segments.retained() != retained.as_slice() {
            return Err(EvqlError::new(
                ErrorKind::Exec("phase-1 segmentations diverged across dimensions".into()),
                crate::token::Span::point(0),
            ));
        }

        let mut rel = zip_relations(entries.each_ref().map(|e| &e.prepared.phase1.relation));

        // One frame adapter per dimension.
        let mut oracle = entries.each_ref().map(|e| {
            let rel = &e.prepared.phase1.relation;
            FrameOracleAdapter::new(&e.oracle as &dyn Oracle, &retained[..], rel)
        });

        let outcome = run_skyline_cleaner(
            &mut rel,
            &mut oracle,
            &SkylineConfig {
                thres: plan.thres,
                batch_size: plan.batch,
                budget: QueryBudget {
                    cancel: self.cancel.clone(),
                    ..QueryBudget::unlimited()
                },
            },
        );

        // Simulated cost: both Phase-1 clocks + one oracle charge and one
        // random-access decode per confirmed frame (both dimensions share
        // the detector pass, so both adapters hold the same trace).
        let trace = oracle[0].trace();
        let per_frame = entries
            .iter()
            .map(|e| e.oracle.cost_per_frame())
            .fold(0.0f64, f64::max);
        let sim_seconds: f64 = entries
            .iter()
            .map(|e| e.prepared.phase1.clock.total())
            .sum::<f64>()
            + trace.len() as f64 * per_frame
            + DecodeCostModel::default().trace_cost(trace);
        let scan_seconds = scan_seconds(plan.n_frames, per_frame);

        let mut rows: Vec<SkylineRow> = outcome
            .skyline
            .iter()
            .map(|&id| {
                let frame = retained[id];
                SkylineRow {
                    frame,
                    time_sec: frame as f64 / plan.source.fps,
                    scores: entries.each_ref().map(|e| e.oracle.all_scores()[frame]),
                }
            })
            .collect();
        rows.sort_by(|a, b| {
            b.scores[0]
                .partial_cmp(&a.scores[0])
                .unwrap_or(std::cmp::Ordering::Equal)
        });

        Ok(SkylineOutput {
            rows,
            score_names: plan.scores.iter().map(|s| s.display()).collect(),
            stats: ExecStats {
                engine: Engine::Everest,
                n_frames: plan.n_frames,
                n_items: rel.len(),
                confidence: Some(outcome.confidence),
                converged: Some(outcome.termination == Termination::Converged),
                termination: Some(outcome.termination),
                iterations: Some(outcome.iterations),
                cleaned: Some(outcome.cleaned),
                oracle_retries: None,
                breaker_trips: None,
                sim_seconds,
                scan_seconds,
                speedup: speedup(scan_seconds, sim_seconds),
                quality: None,
                wall: started.elapsed(),
                phase1_cached,
            },
            plan,
        })
    }
}

/// The exact oracle behind seeded fault injection and deterministic
/// retry/backoff (`WITH FLAKY <seed>`).
type FlakyExact = RetryingOracle<FlakyOracle<ExactScoreOracle>>;

fn flaky_oracle(oracle: &ExactScoreOracle, seed: Option<u64>) -> Option<FlakyExact> {
    seed.map(|seed| RetryingOracle::new(FlakyOracle::new(oracle.clone(), seed)))
}

/// A stream's Phase-2 adapter: the same retained-position → frame →
/// bucket mapping `PreparedVideo::query_topk` confirms through, owning
/// its oracle so it can live as long as the [`StreamSession`].
type StreamOracle = FrameOracleAdapter<Arc<dyn Oracle>, Vec<usize>>;

/// A fresh adapter over `entry`, and the fault-injection wrapper it scores
/// through under a `FLAKY` seed (kept for its retry/breaker counters).
fn stream_oracle(
    entry: &PreparedEntry,
    flaky_seed: Option<u64>,
) -> (StreamOracle, Option<Arc<FlakyExact>>) {
    let flaky = flaky_oracle(&entry.oracle, flaky_seed).map(Arc::new);
    let oracle: Arc<dyn Oracle> = match &flaky {
        Some(f) => f.clone(),
        None => Arc::new(entry.oracle.clone()),
    };
    let phase1 = &entry.prepared.phase1;
    let retained = phase1.segments.retained().to_vec();
    let adapter = FrameOracleAdapter::new(oracle, retained, &phase1.relation);
    (adapter, flaky)
}

/// How many times faster than scan-and-test a simulated latency is.
fn speedup(scan_seconds: f64, sim_seconds: f64) -> f64 {
    scan_seconds / sim_seconds.max(f64::MIN_POSITIVE)
}

/// What one engine arm of [`Session::run`] produces.
struct Ran {
    rows: Vec<AnswerRow>,
    /// The Phase-2 report (Everest engine only).
    report: Option<QueryReport>,
    sim_seconds: f64,
    quality: Option<ResultQuality>,
}

impl Ran {
    fn everest(report: QueryReport, quality: Option<ResultQuality>, fps: f64) -> Ran {
        Ran {
            rows: answer_rows(
                report.items.iter().map(|i| (i.range.0, i.range.1, i.score)),
                fps,
            ),
            sim_seconds: report.sim_seconds(),
            report: Some(report),
            quality,
        }
    }
}

/// An open continuous query: feed-and-emit until the stream is exhausted.
///
/// Yields one [`StreamAnswer`] per emit point via
/// [`next_emit`](StreamSession::next_emit); [`finish`](StreamSession::finish)
/// drains the rest and packages the stats. Oracle confirmations persist
/// across emits, so a frame is never cleaned twice.
pub struct StreamSession {
    plan: QueryPlan,
    engine: StreamTopK,
    dists: Vec<DiscreteDist>,
    entry: Arc<PreparedEntry>,
    oracle: StreamOracle,
    flaky: Option<Arc<FlakyExact>>,
    fed: usize,
    answers: Vec<StreamAnswer>,
    phase1_cached: bool,
    started: Instant,
}

impl std::fmt::Debug for StreamSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamSession")
            .field("arrivals", &self.dists.len())
            .field("fed", &self.fed)
            .field("emits", &self.answers.len())
            .finish_non_exhaustive()
    }
}

impl StreamSession {
    /// Feeds arrivals until the next emit point; `None` when the stream is
    /// exhausted.
    pub fn next_emit(&mut self) -> Option<&StreamAnswer> {
        while self.fed < self.dists.len() {
            let dist = self.dists[self.fed].clone();
            self.fed += 1;
            if let Some(answer) = self.engine.push_frame(dist, &mut self.oracle) {
                self.answers.push(answer);
                return self.answers.last();
            }
        }
        None
    }

    /// Drains the stream and packages every emitted answer with stats.
    pub fn finish(mut self) -> Result<StreamOutput, EvqlError> {
        while self.next_emit().is_some() {}
        let last = self.answers.last();
        let phase1 = &self.entry.prepared.phase1;
        let sim_seconds = phase1.clock.total() + self.oracle.sim_seconds_spent();
        let scan_seconds = scan_seconds(self.plan.n_frames, self.entry.oracle.cost_per_frame());
        let stats = ExecStats {
            engine: Engine::Everest,
            n_frames: self.plan.n_frames,
            n_items: self.dists.len(),
            confidence: last.map(|a| a.confidence),
            converged: last.map(|a| a.converged),
            termination: last.map(|a| a.termination),
            iterations: Some(self.answers.len()),
            cleaned: Some(self.engine.cleaned_total()),
            oracle_retries: self.flaky.as_ref().map(|f| f.retries()),
            breaker_trips: self.flaky.as_ref().map(|f| f.breaker_trips()),
            sim_seconds,
            scan_seconds,
            speedup: speedup(scan_seconds, sim_seconds),
            quality: None,
            wall: self.started.elapsed(),
            phase1_cached: self.phase1_cached,
        };
        Ok(StreamOutput {
            retained: phase1.segments.retained().to_vec(),
            answers: self.answers,
            stats,
            plan: self.plan,
        })
    }

    /// The streaming≡batch equivalence check (the `tests/stream_e2e.rs`
    /// property on the production path): drains the stream, replays it
    /// from scratch with per-emit rebuilds, and demands identical answers
    /// at every emit point.
    pub fn verify_against_batch(&mut self) -> Result<(), EvqlError> {
        while self.next_emit().is_some() {}
        // A fresh wrapper replays the same fault schedule from call 0.
        let (mut oracle, _) = stream_oracle(&self.entry, self.plan.flaky_seed);
        let cfg = self.engine.config();
        let reference = batch_reference(cfg, &self.dists, &mut oracle);
        let mismatch = |what: String| {
            EvqlError::new(
                ErrorKind::Exec(format!("streaming≡batch violated: {what}")),
                crate::token::Span::point(0),
            )
        };
        if reference.len() != self.answers.len() {
            return Err(mismatch(format!(
                "{} streaming emits vs {} batch emits",
                self.answers.len(),
                reference.len()
            )));
        }
        for (live, batch) in self.answers.iter().zip(&reference) {
            if live.topk != batch.topk
                || (live.confidence - batch.confidence).abs() > 1e-9
                || live.render(cfg.quant_step) != batch.render(cfg.quant_step)
            {
                return Err(mismatch(format!("divergence at emit @{}", live.at_frame)));
            }
        }
        Ok(())
    }
}

/// Ranks `(start_frame, end_frame, score)` items, best first, into rows.
fn answer_rows(ranked: impl Iterator<Item = (usize, usize, f64)>, fps: f64) -> Vec<AnswerRow> {
    ranked
        .enumerate()
        .map(|(i, (start_frame, end_frame, score))| AnswerRow {
            rank: i + 1,
            start_frame,
            end_frame,
            time_sec: start_frame as f64 / fps,
            score,
        })
        .collect()
}

/// Tie-aware quality of the answer items `answer` against every item's
/// exact score (`None` when the engine returned fewer than K items).
fn quality(exact: Vec<f64>, answer: &[usize], k: usize) -> Option<ResultQuality> {
    (answer.len() == k).then(|| evaluate_topk(&GroundTruth::new(exact), answer, k))
}

fn window_quality(
    oracle: &ExactScoreOracle,
    windows: &[WindowInfo],
    report: &QueryReport,
    k: usize,
    slide: usize,
) -> Option<ResultQuality> {
    let answer: Vec<usize> = report
        .items
        .iter()
        .map(|item| (item.frame / slide).min(windows.len().saturating_sub(1)))
        .collect();
    quality(
        exact_window_scores(oracle.all_scores(), windows),
        &answer,
        k,
    )
}

// ---- rendering ----

impl Output {
    /// ASCII rendering for the CLI: the answer's own rendering, or the
    /// message text.
    pub fn render(&self) -> String {
        match self {
            Output::Rows(q) => q.render(),
            Output::Skyline(s) => s.render(),
            Output::Stream(s) => s.render(),
            Output::Message(m) => m.clone(),
        }
    }

    /// The run statistics of a query answer (`None` for a message).
    pub fn stats(&self) -> Option<&ExecStats> {
        match self {
            Output::Rows(q) => Some(&q.stats),
            Output::Skyline(s) => Some(&s.stats),
            Output::Stream(s) => Some(&s.stats),
            Output::Message(_) => None,
        }
    }
}

impl QueryOutput {
    /// ASCII rendering for the CLI.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "rank  frames           t+ (mm:ss)   score\n{}\n",
            "-".repeat(46)
        ));
        for row in &self.rows {
            let mins = (row.time_sec / 60.0).floor() as u64;
            let secs = row.time_sec - mins as f64 * 60.0;
            let range = if row.end_frame - row.start_frame > 1 {
                format!("{}..{}", row.start_frame, row.end_frame)
            } else {
                format!("{}", row.start_frame)
            };
            out.push_str(&format!(
                "{:<5} {:<16} {:>3}:{:05.2}    {:>8.3}\n",
                row.rank, range, mins, secs, row.score
            ));
        }
        out.push_str(&format!("{}\n{}", "-".repeat(46), self.stats.render()));
        out
    }
}

impl ExecStats {
    fn render(&self) -> String {
        let mut out = format!(
            "engine={}  items={}  sim={:.1}s  scan={:.1}s  speedup={:.1}x",
            self.engine.display(),
            self.n_items,
            self.sim_seconds,
            self.scan_seconds,
            self.speedup,
        );
        if let Some(c) = self.confidence {
            out.push_str(&format!("  confidence={c:.4}"));
        }
        if let Some(t) = self.termination {
            if t.is_degraded() {
                out.push_str(&format!("  termination={t}"));
            }
        }
        if let (Some(r), Some(b)) = (self.oracle_retries, self.breaker_trips) {
            out.push_str(&format!("  retries={r}  breaker-trips={b}"));
        }
        if let (Some(it), Some(cl)) = (self.iterations, self.cleaned) {
            out.push_str(&format!(
                "  iterations={it}  cleaned={cl} ({:.2}%)",
                100.0 * cl as f64 / self.n_items.max(1) as f64
            ));
        }
        if let Some(q) = self.quality {
            out.push_str(&format!(
                "\nquality: precision={:.3}  rank-distance={:.4}  score-error={:.3}",
                q.precision, q.rank_distance, q.score_error
            ));
        }
        if self.phase1_cached {
            out.push_str("\n(phase 1 served from session cache)");
        }
        out.push('\n');
        out
    }
}

impl StreamOutput {
    /// ASCII rendering for the CLI: one block per emit point, with stream
    /// ids mapped back to video frames.
    pub fn render(&self) -> String {
        let fps = self.plan.source.fps;
        let step = self.plan.quant_step;
        let mut out = format!(
            "continuous top-{} (emit every {} arrivals, {} emits)\n",
            self.plan.k,
            self.plan.emit_every.unwrap_or(0),
            self.answers.len()
        );
        for a in &self.answers {
            out.push_str(&format!(
                "{}\nemit @{:<7} window [{}, {})  confidence {:.6}  {}\n",
                "-".repeat(46),
                a.at_frame,
                a.window_start,
                a.at_frame,
                a.confidence,
                if a.converged {
                    "converged"
                } else if a.termination == Termination::BudgetExhausted {
                    // pre-termination spelling, pinned by the CLI tests
                    "budget-capped"
                } else {
                    a.termination.as_str()
                },
            ));
            out.push_str("rank  frame      t+ (mm:ss)     score\n");
            for (i, &(id, bucket)) in a.topk.iter().enumerate() {
                let frame = self.retained[id];
                let t = frame as f64 / fps;
                let mins = (t / 60.0).floor() as u64;
                let secs = t - mins as f64 * 60.0;
                out.push_str(&format!(
                    "{:<5} {:<8} {:>5}:{:05.2}  {:>8.3}\n",
                    i + 1,
                    frame,
                    mins,
                    secs,
                    bucket as f64 * step,
                ));
            }
        }
        out.push_str(&format!("{}\n{}", "-".repeat(46), self.stats.render()));
        out
    }
}

impl SkylineOutput {
    /// ASCII rendering for the CLI.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Pareto-optimal frames over ({}):\n",
            self.score_names.join(", ")
        );
        out.push_str("frame      t+ (mm:ss)");
        for name in &self.score_names {
            out.push_str(&format!("  {name:>14}"));
        }
        out.push('\n');
        let width = 22 + 16 * self.score_names.len();
        out.push_str(&format!("{}\n", "-".repeat(width)));
        for row in &self.rows {
            let mins = (row.time_sec / 60.0).floor() as u64;
            let secs = row.time_sec - mins as f64 * 60.0;
            out.push_str(&format!("{:<10} {:>4}:{:05.2}", row.frame, mins, secs));
            for v in &row.scores {
                out.push_str(&format!("  {v:>14.3}"));
            }
            out.push('\n');
        }
        out.push_str(&format!("{}\n{}", "-".repeat(width), self.stats.render()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_session() -> Session {
        // Large divisor → every dataset floors at 2 000 frames; queries
        // complete in seconds on CI hardware.
        let mut s = Session::new();
        s.settings.scale = 1_000;
        s
    }

    #[test]
    fn show_and_set_round_trip() {
        let mut s = fast_session();
        match s.execute("SHOW DATASETS").unwrap() {
            Output::Message(m) => {
                assert!(m.contains("Archie") && m.contains("Vlog"), "{m}");
            }
            other => panic!("{other:?}"),
        }
        match s.execute("SET confidence = 0.75").unwrap() {
            Output::Message(m) => assert!(m.contains("0.75"), "{m}"),
            other => panic!("{other:?}"),
        }
        assert_eq!(s.settings.confidence, 0.75);
        match s.execute("SHOW SETTINGS").unwrap() {
            Output::Message(m) => assert!(m.contains("confidence = 0.75"), "{m}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn show_unknown_target_suggests() {
        let mut s = fast_session();
        let err = s.execute("SHOW DATASET").unwrap_err();
        assert!(
            err.message().contains("did you mean `datasets`"),
            "{}",
            err.message()
        );
    }

    #[test]
    fn explain_does_not_execute() {
        let mut s = fast_session();
        match s
            .execute("EXPLAIN SELECT TOP 5 FRAMES FROM Archie")
            .unwrap()
        {
            Output::Message(m) => assert!(m.contains("TopK(k=5"), "{m}"),
            other => panic!("{other:?}"),
        }
        match s
            .execute("EXPLAIN SELECT SKYLINE FROM Archie WITH CONFIDENCE 0.8")
            .unwrap()
        {
            Output::Message(m) => {
                assert!(m.contains("Skyline(dims=2, thres=0.8"), "{m}");
                assert!(m.contains("count(car), coverage()"), "{m}");
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(s.shared_cache().len(), 0, "EXPLAIN must not run Phase 1");
    }

    #[test]
    fn everest_frame_query_end_to_end() {
        let mut s = fast_session();
        let out = match s
            .execute("SELECT TOP 5 FRAMES FROM Archie WITH SEED 3")
            .unwrap()
        {
            Output::Rows(o) => o,
            other => panic!("{other:?}"),
        };
        assert_eq!(out.rows.len(), 5);
        assert!(out.stats.confidence.unwrap() >= 0.9);
        assert_eq!(out.stats.converged, Some(true));
        // rows are rank-ordered with descending scores
        for pair in out.rows.windows(2) {
            assert!(pair[0].score >= pair[1].score);
            assert_eq!(pair[0].rank + 1, pair[1].rank);
        }
        // certain-result condition: scores match ground truth exactly
        let entry = crate::catalog::source_by_name("Archie").unwrap();
        let built = entry.build(out.plan.score, out.plan.scale_divisor, out.plan.seed);
        for row in &out.rows {
            assert_eq!(row.score, built.oracle.all_scores()[row.start_frame]);
        }
        // the render path produces a table mentioning the stats
        let text = out.render();
        assert!(text.contains("confidence="), "{text}");
        assert_eq!(s.shared_cache().len(), 1);
    }

    #[test]
    fn phase1_cache_reused_across_queries() {
        let mut s = fast_session();
        let first = match s
            .execute("SELECT TOP 5 FRAMES FROM Archie WITH SEED 3")
            .unwrap()
        {
            Output::Rows(o) => o,
            other => panic!("{other:?}"),
        };
        assert!(!first.stats.phase1_cached);
        let second = match s
            .execute("SELECT TOP 10 FRAMES FROM Archie WITH SEED 3")
            .unwrap()
        {
            Output::Rows(o) => o,
            other => panic!("{other:?}"),
        };
        assert!(
            second.stats.phase1_cached,
            "same dataset+score+seed must hit the cache"
        );
        assert_eq!(s.shared_cache().len(), 1);
        // The plan names the key its preparation is cached under.
        let listing = s.shared_cache().render();
        assert!(
            listing.contains(&second.plan.cache_key().display()),
            "{listing}"
        );
        assert!(
            second.stats.wall < first.stats.wall,
            "cache must save wall time"
        );
        // different seed = different video → miss
        let third = match s
            .execute("SELECT TOP 5 FRAMES FROM Archie WITH SEED 4")
            .unwrap()
        {
            Output::Rows(o) => o,
            other => panic!("{other:?}"),
        };
        assert!(!third.stats.phase1_cached);
        assert_eq!(s.shared_cache().len(), 2);
        s.shared_cache().clear();
        assert_eq!(s.shared_cache().len(), 0);
    }

    #[test]
    fn scan_engine_returns_exact_topk() {
        let mut s = fast_session();
        let out = match s
            .execute("SELECT TOP 5 FRAMES FROM Archie USING scan WITH SEED 3")
            .unwrap()
        {
            Output::Rows(o) => o,
            other => panic!("{other:?}"),
        };
        assert_eq!(out.rows.len(), 5);
        let q = out.stats.quality.unwrap();
        assert_eq!(q.precision, 1.0);
        assert_eq!(q.score_error, 0.0);
        assert!(out.stats.confidence.is_none());
        assert!(
            (out.stats.speedup - 1.0).abs() < 1e-9,
            "scan speedup is 1 by definition"
        );
    }

    #[test]
    fn cache_capacity_bounds_and_evicts_lru() {
        let mut s = fast_session();
        s.shared_cache().set_capacity(2);
        let run = |s: &mut Session, seed: u64| -> bool {
            match s
                .execute(&format!("SELECT TOP 3 FRAMES FROM Archie WITH SEED {seed}"))
                .unwrap()
            {
                Output::Rows(o) => o.stats.phase1_cached,
                other => panic!("{other:?}"),
            }
        };
        assert!(!run(&mut s, 1)); // miss: {1}
        assert!(!run(&mut s, 2)); // miss: {1, 2}
        assert_eq!(s.shared_cache().len(), 2);
        assert!(run(&mut s, 1)); // hit bumps 1's recency: LRU is now 2
        assert!(!run(&mut s, 3)); // miss evicts 2: {1, 3}
        assert_eq!(s.shared_cache().len(), 2, "capacity must bound the cache");
        assert!(run(&mut s, 1), "recently-used entry must survive eviction");
        assert!(!run(&mut s, 2), "evicted entry must rebuild");
        // shrinking the cap evicts immediately
        s.shared_cache().set_capacity(1);
        assert_eq!(s.shared_cache().len(), 1);
        assert!(run(&mut s, 2), "the single most-recent entry survives");
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_cache_capacity_rejected() {
        Session::new().shared_cache().set_capacity(0);
    }

    #[test]
    fn continuous_query_emits_on_schedule() {
        let mut s = fast_session();
        let out = match s
            .execute("SELECT TOP 3 FRAMES FROM Archie EVERY 400 FRAMES EMIT WITH SEED 3")
            .unwrap()
        {
            Output::Stream(o) => o,
            other => panic!("{other:?}"),
        };
        assert!(!out.answers.is_empty(), "stream must emit at least once");
        let stride = out.answers[0].at_frame;
        for (i, a) in out.answers.iter().enumerate() {
            assert_eq!(a.at_frame, (i + 1) * stride, "emits land on the stride");
            assert!(a.converged, "unbounded budget must converge");
            assert!(a.confidence >= 0.9);
            assert!(a.topk.len() <= 3);
        }
        // rows are rank-ordered (bucket desc, arrival-id asc) and map to
        // real video frames
        let last = out.answers.last().unwrap();
        for w in last.topk.windows(2) {
            assert!(w[0].1 > w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0));
        }
        for &(id, _) in &last.topk {
            assert!(out.retained[id] < out.stats.n_frames);
        }
        let text = out.render();
        assert!(text.contains("continuous top-3"), "{text}");
        assert!(text.contains("emit @"), "{text}");
        // streaming reuses the same Phase-1 cache slot as batch queries
        assert_eq!(s.shared_cache().len(), 1);
    }

    #[test]
    fn stream_session_yields_per_emit_answers() {
        let mut s = fast_session();
        let mut stream = s
            .stream(
                "SELECT TOP 2 FRAMES FROM Archie EVERY 300 FRAMES EMIT \
                 WITH SEED 3, WINDOW 600, BUDGET 10",
            )
            .unwrap();
        let mut emits = 0usize;
        let mut last_at = 0usize;
        while let Some(a) = stream.next_emit() {
            assert!(a.at_frame > last_at, "emits advance monotonically");
            assert!(a.cleaned <= 10, "per-emit budget respected");
            assert_eq!(a.window_start, a.at_frame.saturating_sub(600));
            last_at = a.at_frame;
            emits += 1;
        }
        let out = stream.finish().unwrap();
        let n = out.stats.n_items;
        assert!(n > 0);
        assert_eq!(emits, n / 300.min(n).max(1));
        assert_eq!(out.answers.len(), emits);
        assert_eq!(out.stats.iterations, Some(emits));
    }

    #[test]
    fn verify_against_batch_checks_the_whole_stream_from_mid_stream() {
        let mut s = fast_session();
        let mut stream = s
            .stream(
                "SELECT TOP 2 FRAMES FROM Archie EVERY 300 FRAMES EMIT \
                 WITH SEED 3, WINDOW 600, BUDGET 10",
            )
            .unwrap();
        assert!(stream.next_emit().is_some());
        stream.verify_against_batch().unwrap();
        assert!(stream.next_emit().is_none(), "the check drains the stream");
        let out = stream.finish().unwrap();
        assert!(out.answers.len() > 1);
    }

    #[test]
    fn stream_requires_every_clause() {
        let mut s = fast_session();
        let e = s.stream("SELECT TOP 2 FRAMES FROM Archie").unwrap_err();
        assert!(
            e.message().contains("EVERY <n> FRAMES EMIT"),
            "{}",
            e.message()
        );
        let e = s.stream("SHOW DATASETS").unwrap_err();
        assert!(e.message().contains("SELECT TOP"), "{}", e.message());
    }

    #[test]
    fn cheap_engines_are_fast_but_inaccurate() {
        let mut s = fast_session();
        let out = match s
            .execute("SELECT TOP 10 FRAMES FROM Archie USING tinyyolo WITH SEED 3")
            .unwrap()
        {
            Output::Rows(o) => o,
            other => panic!("{other:?}"),
        };
        assert!(
            out.stats.speedup > 2.0,
            "cheap scan must beat the oracle scan"
        );
        assert!(
            out.stats.quality.unwrap().precision < 1.0,
            "and pay for it in precision"
        );
        assert_eq!(s.shared_cache().len(), 0, "cheap scans need no Phase 1");
    }
}
