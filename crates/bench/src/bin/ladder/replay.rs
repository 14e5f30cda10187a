//! The traced run's replays: each op is run once as the engine's own
//! opaque call and once more as the sequence of public sub-calls it is
//! made of, with a span around each sub-call.
//!
//! A replay only reports numbers if it is the engine: its relation, its
//! emitted answers or its canonical answer bytes must equal the opaque
//! call's ([`ReplayChecks`]), and its stages must sum to the opaque call's
//! duration within [`Closure::BAND`]. The handful of engine-private
//! recipes mirrored here (EVQL's Phase-1 configuration, the sampling
//! plan's salt, the bucket adapters) are exactly what those checks guard.

use crate::seams::{CountingVideo, TimedCleaning, TimedOracle};
use crate::spans::{Closure, Layer, ReplayChecks, SpanId, Tracer};
use everest_core::budget::QueryBudget;
use everest_core::cleaner::{run_cleaner, CleanerConfig};
use everest_core::dist::DiscreteDist;
use everest_core::metrics::{evaluate_topk, GroundTruth};
use everest_core::phase1::{render_frame_into, render_inputs, Phase1Config};
use everest_core::pipeline::{Everest, PreparedVideo, QueryReport, ResultItem};
use everest_core::select::CandidateSelector;
use everest_core::stream::{StreamAnswer, StreamConfig, StreamTopK};
use everest_core::topkprob::JointCdf;
use everest_core::window::{exact_window_scores, sliding_windows};
use everest_core::xtuple::UncertainRelation;
use everest_evql::ast::Statement;
use everest_evql::exec::PreparedEntry;
use everest_evql::shared::CacheKey;
use everest_evql::wire::canonical_output;
use everest_evql::{
    analyze_select, parse, AnswerRow, ExecStats, Output, PlanTarget, QueryOutput, QueryPlan,
    Session, SessionSettings, StreamOutput,
};
use everest_models::Oracle;
use everest_nn::cmdn::CmdnConfig;
use everest_nn::train::{grid_search, parallel_chunks, HyperGrid, Sample, TrainConfig};
use everest_nn::{kernels, Cmdn, GaussianMixture};
use everest_video::store::DecodeCostModel;
use everest_video::{DifferenceDetector, VideoStore};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Named sums with counts: the raw material of the per-layer metrics.
#[derive(Debug, Default)]
pub struct Acc {
    sums: BTreeMap<&'static str, (f64, u64)>,
}

impl Acc {
    pub fn add(&mut self, name: &'static str, value: f64) {
        let slot = self.sums.entry(name).or_insert((0.0, 0));
        slot.0 += value;
        slot.1 += 1;
    }

    pub fn sum(&self, name: &str) -> f64 {
        self.sums.get(name).map_or(0.0, |s| s.0)
    }

    /// Mean of the values added under `name`; 0 when there were none (a
    /// layer the workload never entered).
    pub fn mean(&self, name: &str) -> f64 {
        self.sums
            .get(name)
            .map_or(0.0, |&(sum, n)| sum / n.max(1) as f64)
    }

    /// `sum(num) / sum(den)`, 0 when the denominator is empty.
    pub fn ratio(&self, num: &str, den: &str) -> f64 {
        let d = self.sum(den);
        if d == 0.0 {
            0.0
        } else {
            self.sum(num) / d
        }
    }

    pub fn merge(&mut self, other: Acc) {
        for (name, (sum, n)) in other.sums {
            let slot = self.sums.entry(name).or_insert((0.0, 0));
            slot.0 += sum;
            slot.1 += n;
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// One thread's traced-run state.
pub struct Traced {
    pub tracer: Tracer,
    pub checks: ReplayChecks,
    pub acc: Acc,
    pub closures: BTreeMap<&'static str, Closure>,
    /// Prepared-video cache lookups the replays made themselves.
    pub own_cache_lookups: u64,
    /// A CMDN configuration seen in a cold replay (kernel shapes).
    pub model_config: Option<CmdnConfig>,
    /// Whether replays feed the `*.closure` ratios. Off on `served_mixed`:
    /// a closure compares two timings of the same work and is only a
    /// statement about the replay when nothing else competes, and its
    /// client threads keep the other core busy.
    pub feed_closures: bool,
    profiled_relations: BTreeSet<CacheKey>,
    next_op: u32,
}

impl Traced {
    /// `first_op` keeps op ids of concurrently tracing threads apart.
    pub fn new(epoch: Instant, first_op: u32) -> Self {
        Traced {
            tracer: Tracer::new(epoch),
            checks: ReplayChecks::default(),
            acc: Acc::default(),
            closures: BTreeMap::new(),
            own_cache_lookups: 0,
            model_config: None,
            feed_closures: true,
            profiled_relations: BTreeSet::new(),
            next_op: first_op,
        }
    }

    pub fn merge(&mut self, other: Traced) {
        self.tracer.absorb(other.tracer);
        self.checks.merge(other.checks);
        self.acc.merge(other.acc);
        for (name, c) in other.closures {
            self.closures
                .entry(name)
                .or_default()
                .add(c.children, c.parent);
        }
        self.own_cache_lookups += other.own_cache_lookups;
        self.model_config = self.model_config.take().or(other.model_config);
    }

    fn new_op(&mut self) -> u32 {
        self.next_op += 1;
        self.next_op - 1
    }

    fn close_op(&mut self, replay: SpanId, root: SpanId) {
        self.tracer.close(replay);
        self.tracer.close(root);
    }

    fn feed_closure(&mut self, name: &'static str, children: Duration, parent: SpanId) {
        if !self.feed_closures {
            return;
        }
        let parent = self.tracer.dur(parent);
        self.closures.entry(name).or_default().add(children, parent);
    }

    /// Starts an op with the engine's own path: one opaque
    /// `Session::execute`, marked as the reference the replay is held to.
    fn opaque_execute(
        &mut self,
        root_name: &'static str,
        session: &mut Session,
        stmt: &str,
    ) -> Result<Begun, String> {
        let op = self.new_op();
        let root = self.tracer.open(op, None, Layer::Bench, root_name);
        let (out, opaque) = self
            .tracer
            .run(op, Some(root), Layer::Evql, "session.execute", || {
                session.execute(stmt)
            });
        self.tracer.mark_reference(opaque);
        let output = out.map_err(|e| e.message())?;
        let engine_bytes = canonical_output(&output);
        let engine = rows_of(Ok(output))?;
        if let Some(retries) = engine.stats.oracle_retries {
            self.acc.add("models.oracle_retries", retries as f64);
        }
        if let Some(trips) = engine.stats.breaker_trips {
            self.acc.add("models.breaker_trips", trips as f64);
        }
        Ok(Begun {
            op,
            root,
            opaque,
            engine,
            engine_bytes,
        })
    }

    /// A cold statement: Phase 1 and Phase 2 on a video no session has
    /// seen. Returns the engine's own answer and how long it took.
    pub fn cold(
        &mut self,
        stmt: &str,
        settings: &SessionSettings,
    ) -> Result<(QueryOutput, Duration), String> {
        let mut session = Session::with_settings(settings.clone());
        let Begun {
            op,
            root,
            opaque,
            engine,
            engine_bytes,
        } = self.opaque_execute("op.cold", &mut session, stmt)?;
        let replay = self.tracer.open(op, Some(root), Layer::Bench, "replay");
        let t = &mut self.tracer;
        let (plan, parse_id) = t.run(op, Some(replay), Layer::Evql, "evql.parse_analyze", || {
            parse_select(stmt, settings)
        });
        let plan = plan?;
        let (built, build_id) = t.run(op, Some(replay), Layer::Video, "video.build", || {
            plan.source.build(plan.score, plan.scale_divisor, plan.seed)
        });
        let video = CountingVideo::new(built.video.as_ref());
        let cfg = phase1_recipe(plan.quant_step, plan.seed);
        let (prepared, prepare_id) =
            t.run(op, Some(replay), Layer::Phase1, "phase1.prepare", || {
                Everest::prepare(&video, &built.oracle, &cfg)
            });
        t.mark_reference(prepare_id);
        let engine_decoded = video.take_decoded();

        let oracle = TimedOracle::new(built.oracle.clone());
        let staged = self.staged_phase1(op, replay, &video, &oracle, &cfg);
        self.checks.same(
            "phase-1 relation",
            op,
            &prepared.phase1.relation,
            &staged.relation,
        );
        self.checks.same(
            "decoded-frame count",
            op,
            &engine_decoded,
            &video.take_decoded(),
        );
        self.feed_closure("phase1.closure", staged.stages, prepare_id);
        self.acc
            .add("phase1.total_ms", ms(self.tracer.dur(prepare_id)));
        self.acc
            .add("video.build_ms", ms(self.tracer.dur(build_id)));

        let (report, query_id) = self.query(op, replay, &plan, &prepared, &oracle);
        let exact = built.oracle.all_scores();
        let (replayed, encode_ids) = self.assemble_and_encode(op, replay, &plan, &report, exact);
        self.close_op(replay, root);
        self.checks
            .same("canonical answer", op, &engine_bytes, &replayed);
        let stages = [parse_id, build_id, prepare_id, query_id]
            .into_iter()
            .chain(encode_ids)
            .map(|id| self.tracer.dur(id))
            .sum();
        self.feed_closure("evql.closure", stages, opaque);
        self.acc
            .add("evql.parse_analyze_us", us(self.tracer.dur(parse_id)));
        self.model_config
            .get_or_insert_with(|| prepared.phase1.model.config().clone());
        Ok((engine, self.tracer.dur(opaque)))
    }

    /// A warm statement on `session`, whose cache already holds the
    /// prepared video.
    pub fn warm(
        &mut self,
        session: &mut Session,
        stmt: &str,
    ) -> Result<(QueryOutput, Duration), String> {
        let Begun {
            op,
            root,
            opaque,
            engine,
            engine_bytes,
        } = self.opaque_execute("op.warm", session, stmt)?;
        let replay = self.tracer.open(op, Some(root), Layer::Bench, "replay");
        let t = &mut self.tracer;
        let (plan, parse_id) = t.run(op, Some(replay), Layer::Evql, "evql.parse_analyze", || {
            parse_select(stmt, &session.settings)
        });
        let plan = plan?;
        let key = cache_key(&plan);
        let cache = session.shared_cache();
        let (entry, lookup_id) = t.run(op, Some(replay), Layer::Evql, "evql.cache_lookup", || {
            lookup(&cache, &key)
        });
        self.own_cache_lookups += 1;
        let oracle = TimedOracle::new(entry.oracle.clone());
        let (report, query_id) = self.query(op, replay, &plan, &entry.prepared, &oracle);
        let exact = entry.oracle.all_scores();
        let (replayed, encode_ids) = self.assemble_and_encode(op, replay, &plan, &report, exact);
        if plan.target == PlanTarget::Frames {
            self.staged_phase2(op, replay, &plan, &entry, &report, query_id);
        }
        self.close_op(replay, root);
        self.checks
            .same("canonical answer", op, &engine_bytes, &replayed);
        let stages = [parse_id, lookup_id, query_id]
            .into_iter()
            .chain(encode_ids)
            .map(|id| self.tracer.dur(id))
            .sum();
        self.feed_closure("evql.closure", stages, opaque);
        self.acc
            .add("evql.parse_analyze_us", us(self.tracer.dur(parse_id)));
        self.acc
            .add("evql.execute_warm_ms", ms(self.tracer.dur(opaque)));
        if self.profiled_relations.insert(key) {
            self.profile_relation(&entry.prepared.phase1.relation, plan.resort_period);
        }
        Ok((engine, self.tracer.dur(opaque)))
    }

    /// A continuous query on `session`: the engine's `StreamSession`
    /// first (`on_emit` sees each answer and how long it took), then the
    /// same stream pushed through a bare `StreamTopK`.
    pub fn stream(
        &mut self,
        session: &mut Session,
        stmt: &str,
        on_emit: &mut dyn FnMut(&StreamAnswer, Duration),
    ) -> Result<(StreamOutput, Duration), String> {
        let op = self.new_op();
        let root = self.tracer.open(op, None, Layer::Bench, "op.stream");
        let opaque = self
            .tracer
            .open(op, Some(root), Layer::Stream, "session.stream");
        self.tracer.mark_reference(opaque);
        let engine = drive_stream(session, stmt, on_emit);
        self.tracer.close(opaque);
        let engine = engine?;

        let replay = self.tracer.open(op, Some(root), Layer::Bench, "replay");
        let t = &mut self.tracer;
        let (opened, _) = t.run(op, Some(replay), Layer::Evql, "evql.open_stream", || {
            let plan = parse_select(stmt, &session.settings)?;
            let entry = lookup(&session.shared_cache(), &cache_key(&plan));
            let (dists, cfg) = stream_inputs(&plan, &entry.prepared.phase1.relation);
            Ok::<_, String>((entry, dists, cfg))
        });
        let (entry, dists, cfg) = opened?;
        self.own_cache_lookups += 1;
        let retained = entry.prepared.phase1.segments.retained();
        let mut cleaning =
            TimedCleaning::new(&entry.oracle, retained, cfg.quant_step, cfg.max_bucket);
        let stride = cfg.emit_every;
        let mut topk = StreamTopK::new(cfg);
        let mut answers = Vec::new();
        let (mut quiet, mut emitting) = (Duration::ZERO, Duration::ZERO);
        let run = t.open(op, Some(replay), Layer::Stream, "stream.run");
        // Between two emit boundaries every push is quiet, so a whole run
        // of them is timed at once; the push on the boundary emits.
        for block in dists.chunks(stride) {
            let (last, before) = block.split_last().expect("chunks are non-empty");
            let started = Instant::now();
            for dist in before {
                let none = topk.push_frame(dist.clone(), &mut cleaning);
                debug_assert!(none.is_none());
            }
            let boundary = Instant::now();
            let answer = topk.push_frame(last.clone(), &mut cleaning);
            let done = Instant::now();
            quiet += boundary - started;
            match answer {
                Some(a) => {
                    emitting += done - boundary;
                    answers.push(a);
                }
                None => quiet += done - boundary,
            }
        }
        t.close(run);
        let emits = answers.len() as u64;
        let quiet_pushes = dists.len() as u64 - emits;
        t.aggregate(op, run, Layer::Stream, "stream.push", quiet, quiet_pushes);
        let emit_id = t.aggregate(op, run, Layer::Stream, "stream.emit", emitting, emits);
        t.aggregate(
            op,
            emit_id,
            Layer::Models,
            "models.score_batch",
            cleaning.busy,
            cleaning.calls,
        );
        self.close_op(replay, root);
        self.checks
            .same("emitted answers", op, &engine.answers, &answers);
        self.acc.add("stream.push_ns", quiet.as_nanos() as f64);
        self.acc.add("stream.pushes", quiet_pushes as f64);
        self.acc.add("stream.emit_us_sum", us(emitting));
        self.acc.add("stream.emits", emits as f64);
        self.acc.add("stream.cleaned", topk.cleaned_total() as f64);
        self.acc
            .add("models.oracle_frames", cleaning.frames_scored as f64);
        self.acc.add("models.oracle_batches", cleaning.calls as f64);
        Ok((engine, self.tracer.dur(opaque)))
    }

    /// What a round trip through the daemon took beyond the same
    /// statement in process: the serve layer's own time. Only the span's
    /// length is a measurement.
    pub fn serve_overhead(&mut self, overhead: Duration) {
        let op = self.new_op();
        let ended = Instant::now();
        let started = ended.checked_sub(overhead).unwrap_or(ended);
        self.tracer
            .record(op, None, Layer::Serve, "serve.overhead", started, ended);
    }

    /// Phase 2 through the engine's public entry points, the oracle's
    /// share of it as an aggregate child.
    fn query(
        &mut self,
        op: u32,
        parent: SpanId,
        plan: &QueryPlan,
        prepared: &PreparedVideo,
        oracle: &TimedOracle,
    ) -> (QueryReport, SpanId) {
        let cleaner = cleaner_config(plan);
        let (busy0, frames0, batches0) = (oracle.busy(), oracle.frames(), oracle.batches());
        let (report, id) =
            self.tracer.run(
                op,
                Some(parent),
                Layer::Phase2,
                "phase2.query",
                || match plan.target {
                    PlanTarget::Frames => prepared.query_topk(oracle, plan.k, plan.thres, &cleaner),
                    PlanTarget::Windows {
                        len,
                        slide,
                        sample_frac,
                    } => {
                        assert_eq!(len, slide, "the ladder only asks for tumbling windows");
                        prepared.query_topk_windows(
                            oracle,
                            plan.k,
                            plan.thres,
                            len,
                            sample_frac,
                            &cleaner,
                        )
                    }
                },
            );
        let confirm = oracle.busy() - busy0;
        let batches = oracle.batches() - batches0;
        self.tracer.aggregate(
            op,
            id,
            Layer::Models,
            "models.score_batch",
            confirm,
            batches,
        );
        let total = self.tracer.dur(id);
        self.acc.add("phase2.total_ms", ms(total));
        self.acc.add("phase2.confirm_ms", ms(confirm));
        self.acc
            .add("phase2.self_us", us(total.saturating_sub(confirm)));
        self.acc.add("phase2.iterations", report.iterations as f64);
        self.acc.add("phase2.cleaned", report.cleaned as f64);
        self.acc
            .add("models.oracle_frames", (oracle.frames() - frames0) as f64);
        self.acc.add("models.oracle_batches", batches as f64);
        (report, id)
    }

    /// Turns a Phase-2 report into the answer EVQL returns and encodes
    /// it; returns the canonical bytes and the two spans' ids.
    fn assemble_and_encode(
        &mut self,
        op: u32,
        parent: SpanId,
        plan: &QueryPlan,
        report: &QueryReport,
        exact: &[f64],
    ) -> (Vec<u8>, [SpanId; 2]) {
        let t = &mut self.tracer;
        let (output, assemble_id) = t.run(op, Some(parent), Layer::Evql, "evql.assemble", || {
            assemble(plan, report, exact)
        });
        let (bytes, encode_id) = t.run(
            op,
            Some(parent),
            Layer::Evql,
            "evql.canonical_encode",
            || canonical_output(&output),
        );
        self.acc
            .add("evql.canonical_encode_us", us(self.tracer.dur(encode_id)));
        (bytes, [assemble_id, encode_id])
    }

    /// `run_phase1` as its stages, through the public functions it is
    /// built from.
    fn staged_phase1(
        &mut self,
        op: u32,
        parent: SpanId,
        video: &dyn VideoStore,
        oracle: &TimedOracle,
        cfg: &Phase1Config,
    ) -> StagedPhase1 {
        let t = &mut self.tracer;
        let staged = t.open(op, Some(parent), Layer::Bench, "phase1.staged");
        let n = video.num_frames();
        let (segments, diff_id) = t.run(op, Some(staged), Layer::Video, "video.diff", || {
            DifferenceDetector::new(cfg.diff).run(video)
        });
        let retained = segments.retained().to_vec();

        // Sampling plan and oracle labels.
        let label_id = t.open(op, Some(staged), Layer::Phase1, "phase1.label");
        let m_target = ((cfg.sample_frac * n as f64).ceil() as usize)
            .clamp(cfg.sample_min.max(16), cfg.sample_cap.max(cfg.sample_min));
        let h_target = ((m_target as f64 * cfg.holdout_frac).ceil() as usize).max(32);
        let mut positions: Vec<usize> = (0..retained.len()).collect();
        positions.shuffle(&mut StdRng::seed_from_u64(cfg.seed ^ SAMPLE_SALT));
        let m = m_target.min(positions.len().saturating_sub(1)).max(1);
        let h = h_target.min(positions.len() - m);
        let (train_pos, holdout_pos) = (&positions[..m], &positions[m..m + h]);
        let labelled_pos: Vec<usize> = train_pos.iter().chain(holdout_pos).copied().collect();
        let labelled_frames: Vec<usize> = labelled_pos.iter().map(|&p| retained[p]).collect();
        let labels = oracle.score_batch(&labelled_frames);
        let labeled: BTreeMap<usize, f64> = labelled_pos
            .iter()
            .copied()
            .zip(labels.iter().copied())
            .collect();
        let max_label = labels.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let min_label = labels.iter().copied().fold(f64::INFINITY, f64::min);
        t.close(label_id);
        t.aggregate(
            op,
            label_id,
            Layer::Models,
            "models.score_batch",
            oracle.busy(),
            1,
        );

        // Training: render the sample, then the grid search.
        let input_hw = cmdn_input_dims(video, cfg.conv_channels.len());
        let render_id = t.open(op, Some(staged), Layer::Video, "video.render_inputs");
        let make_samples = |pos: &[usize]| -> Vec<Sample> {
            let frames: Vec<usize> = pos.iter().map(|&p| retained[p]).collect();
            render_inputs(video, &frames, input_hw, cfg.threads)
                .into_iter()
                .zip(pos.iter().map(|p| labeled[p]))
                .collect()
        };
        let train_set = make_samples(train_pos);
        let holdout_set = make_samples(holdout_pos);
        t.close(render_id);
        let base = CmdnConfig {
            input: input_hw,
            conv_channels: cfg.conv_channels.clone(),
            hidden: 32,
            num_gaussians: 5,
            sigma_min: cfg.sigma_min,
            target_range: (min_label, max_label.max(min_label + 1.0)),
            seed: cfg.seed,
        };
        let (outcome, grid_id) = t.run(op, Some(staged), Layer::Nn, "nn.grid_search", || {
            grid_search(&cfg.grid, &base, &cfg.train, &train_set, &holdout_set)
        });
        let model = outcome.best.model;

        // Fused render + forward over every retained frame. The stage is
        // apportioned to `video` and `nn` by its workers' mean busy time,
        // so the children stay in wall-clock terms like every other span.
        let score_id = t.open(op, Some(staged), Layer::Phase1, "phase1.score_frames");
        let workers = parallel_chunks(&retained, cfg.threads, "score", |part| {
            score_worker(video, &model, part)
        });
        t.close(score_id);
        let n_workers = workers.len() as u32;
        let frames = retained.len() as u64;
        let render: Duration = workers.iter().map(|w| w.render).sum();
        let forward: Duration = workers.iter().map(|w| w.forward).sum();
        t.aggregate(
            op,
            score_id,
            Layer::Video,
            "video.render",
            render / n_workers,
            frames,
        );
        t.aggregate(
            op,
            score_id,
            Layer::Nn,
            "nn.forward",
            forward / n_workers,
            frames,
        );
        let mixtures: Vec<GaussianMixture> = workers.into_iter().flat_map(|w| w.mixtures).collect();

        // Shared bucket grid, then D0.
        let (relation, quantize_id) =
            t.run(op, Some(staged), Layer::Phase1, "phase1.quantize", || {
                let mix_max = mixtures
                    .iter()
                    .map(|m| m.truncated_range().1)
                    .fold(0.0f64, f64::max);
                let needed = (max_label.max(mix_max) / cfg.quant_step).ceil() as usize + 2;
                let max_bucket = needed.clamp(4, cfg.max_bucket_cap);
                let mut relation = UncertainRelation::new(cfg.quant_step, max_bucket);
                for (pos, mixture) in mixtures.iter().enumerate() {
                    match labeled.get(&pos) {
                        Some(&score) => {
                            let b = relation.score_to_bucket(score);
                            relation.push_certain(b);
                        }
                        None => {
                            let masses = mixture.quantize(cfg.quant_step, max_bucket);
                            relation.push_uncertain(DiscreteDist::from_masses(&masses));
                        }
                    }
                }
                relation
            });
        t.close(staged);

        let train = t.dur(render_id) + t.dur(grid_id);
        let sample = (train_set.len() + holdout_set.len()) as f64;
        let acc = &mut self.acc;
        acc.add("video.diff_ns", t.dur(diff_id).as_nanos() as f64);
        acc.add("video.frames", n as f64);
        acc.add("video.retained", retained.len() as f64);
        acc.add("video.render_ns", t.dur(render_id).as_nanos() as f64);
        acc.add("video.rendered", sample);
        acc.add("nn.forward_us_sum", us(forward));
        acc.add("nn.forward_frames", frames as f64);
        acc.add("nn.grid_search_ms", ms(t.dur(grid_id)));
        acc.add("nn.train_us_sum", us(t.dur(grid_id)));
        acc.add(
            "nn.train_sample_epochs",
            (outcome.total_epochs * train_set.len()) as f64,
        );
        acc.add("phase1.label_ms", ms(t.dur(label_id)));
        acc.add("phase1.train_ms", ms(train));
        acc.add("phase1.score_frames_ms", ms(t.dur(score_id)));
        acc.add("phase1.quantize_ms", ms(t.dur(quantize_id)));
        acc.add("models.oracle_frames", labelled_frames.len() as f64);
        acc.add("models.oracle_batches", 1.0);
        StagedPhase1 {
            relation,
            stages: [diff_id, label_id, render_id, grid_id, score_id, quantize_id]
                .into_iter()
                .map(|id| t.dur(id))
                .sum(),
        }
    }

    /// `PreparedVideo::query_topk` as its stages: clone `D0`, run the
    /// cleaner against the benchmark's own adapter, assemble the items.
    /// The work was already counted under `phase2.query`, so the stages
    /// sit under a reference span and only feed `phase2.closure`.
    fn staged_phase2(
        &mut self,
        op: u32,
        parent: SpanId,
        plan: &QueryPlan,
        entry: &PreparedEntry,
        report: &QueryReport,
        query_id: SpanId,
    ) {
        let t = &mut self.tracer;
        let staged = t.open(op, Some(parent), Layer::Bench, "phase2.staged");
        t.mark_reference(staged);
        let phase1 = &entry.prepared.phase1;
        let (mut relation, clone_id) = t.run(
            op,
            Some(staged),
            Layer::Phase2,
            "phase2.relation_clone",
            || phase1.relation.clone(),
        );
        let retained = phase1.segments.retained();
        let mut cleaning = TimedCleaning::new(
            &entry.oracle,
            retained,
            relation.step(),
            relation.max_bucket(),
        );
        let cfg = cleaner_config(plan);
        let (outcome, clean_id) = t.run(
            op,
            Some(staged),
            Layer::Phase2,
            "phase2.run_cleaner",
            || run_cleaner(&mut relation, &mut cleaning, &cfg),
        );
        t.aggregate(
            op,
            clean_id,
            Layer::Models,
            "models.score_batch",
            cleaning.busy,
            cleaning.calls,
        );
        let (items, assemble_id) =
            t.run(op, Some(staged), Layer::Phase2, "phase2.assemble", || {
                // The report's simulated clock is part of the engine's work.
                let mut clock = phase1.clock.clone();
                clock.charge(
                    everest_core::sim::component::CONFIRM,
                    cleaning.frames_scored as f64 * entry.oracle.cost_per_frame()
                        + DecodeCostModel::default().trace_cost(&cleaning.trace),
                );
                black_box(clock);
                outcome
                    .topk
                    .iter()
                    .map(|&id| {
                        let frame = retained[id];
                        let bucket = relation.certain_bucket(id).expect("answer is certain");
                        ResultItem {
                            frame,
                            range: (frame, frame + 1),
                            score: relation.bucket_to_score(bucket),
                        }
                    })
                    .collect::<Vec<_>>()
            });
        t.close(staged);
        let stages = t.dur(clone_id) + t.dur(clean_id) + t.dur(assemble_id);
        self.checks.same("phase-2 items", op, &report.items, &items);
        self.checks.same(
            "phase-2 iterations and cleanings",
            op,
            &(report.iterations, report.cleaned),
            &(outcome.iterations, outcome.cleaned),
        );
        self.feed_closure("phase2.closure", stages, query_id);
    }

    /// `JointCdf::build` and `CandidateSelector::new` on their own, once
    /// per prepared relation.
    fn profile_relation(&mut self, relation: &UncertainRelation, resort_period: usize) {
        let started = Instant::now();
        black_box(JointCdf::build(black_box(relation)));
        let built = Instant::now();
        black_box(CandidateSelector::new(black_box(relation), resort_period));
        self.acc
            .add("phase2.jointcdf_build_us", us(built - started));
        self.acc.add("phase2.selector_new_us", us(built.elapsed()));
    }

    /// The GEMM and im2col kernels at the shapes the workload's own CMDN
    /// gives its last conv block (inference batch of 4).
    pub fn profile_kernels(&mut self) {
        let Some(cfg) = self.model_config.clone() else {
            return;
        };
        let depth = cfg.conv_channels.len();
        let c_out = cfg.conv_channels[depth - 1];
        let c_in = if depth >= 2 {
            cfg.conv_channels[depth - 2]
        } else {
            1
        };
        let (h, w) = (cfg.input.0 >> (depth - 1), cfg.input.1 >> (depth - 1));
        let cols = 4 * h * w;
        let taps = c_in * 9;
        let fill =
            |len: usize| -> Vec<f32> { (0..len).map(|i| (i % 13) as f32 * 0.25 - 1.5).collect() };
        let (weights, patches, grads) = (fill(c_out * taps), fill(taps * cols), fill(c_out * cols));
        let flops = 2.0 * (c_out * cols * taps) as f64;

        let mut out = vec![0.0f32; c_out * cols];
        let per_call = time_per_call(|| {
            kernels::gemm(
                c_out,
                cols,
                taps,
                black_box(&weights),
                black_box(&patches),
                &mut out,
            );
            black_box(&out);
        });
        self.acc
            .add("nn.gemm_gflops", flops / per_call.as_secs_f64() / 1e9);

        let patches_t = fill(taps * cols);
        let mut wgrad = vec![0.0f32; c_out * taps];
        let per_call = time_per_call(|| {
            kernels::gemm_nt(
                c_out,
                taps,
                cols,
                black_box(&grads),
                black_box(&patches_t),
                &mut wgrad,
            );
            black_box(&wgrad);
        });
        self.acc
            .add("nn.gemm_nt_gflops", flops / per_call.as_secs_f64() / 1e9);

        let input = fill(c_in * cols);
        let mut packed = Vec::new();
        let per_call = time_per_call(|| {
            kernels::im2col_3x3(black_box(&input), c_in, 4, h, w, &mut packed);
            black_box(&packed);
        });
        self.acc.add(
            "nn.im2col_ns_per_patch",
            per_call.as_nanos() as f64 / cols as f64,
        );
    }
}

/// Mean time of one call of `f` over at least 20 ms of calls.
fn time_per_call(mut f: impl FnMut()) -> Duration {
    f();
    let started = Instant::now();
    let mut calls = 0u32;
    while calls < 16 || started.elapsed() < Duration::from_millis(20) {
        f();
        calls += 1;
    }
    started.elapsed() / calls
}

/// An op begun with the engine's own opaque call.
struct Begun {
    op: u32,
    root: SpanId,
    /// The reference span around `Session::execute`.
    opaque: SpanId,
    engine: QueryOutput,
    engine_bytes: Vec<u8>,
}

struct StagedPhase1 {
    relation: UncertainRelation,
    /// Sum of the stage spans' durations.
    stages: Duration,
}

struct ScoreWorker {
    mixtures: Vec<GaussianMixture>,
    /// Time this worker spent rendering, and in the CMDN forward.
    render: Duration,
    forward: Duration,
}

/// Frames per batched forward — `everest_core::phase1`'s private
/// `INFER_BATCH`. Batch width never changes results, only speed, so this
/// is what `nn.forward_us_per_frame` is measured at.
const INFER_BATCH: usize = 4;

/// `everest_core::phase1`'s private sampling salt.
const SAMPLE_SALT: u64 = 0x5a4d_71e5;

/// One worker's share of `phase1::score_frames`, with the time spent
/// rendering and the time spent in the CMDN forward kept apart.
fn score_worker(video: &dyn VideoStore, model: &Cmdn, part: &[usize]) -> ScoreWorker {
    let input = model.config().input;
    let mut worker = model.clone();
    let mut xs: Vec<f32> = Vec::new();
    let mut mixtures = Vec::with_capacity(part.len());
    let (mut render, mut forward) = (Duration::ZERO, Duration::ZERO);
    for sub in part.chunks(INFER_BATCH) {
        let t0 = Instant::now();
        xs.clear();
        for &frame in sub {
            render_frame_into(video, frame, input, &mut xs);
        }
        let t1 = Instant::now();
        mixtures.extend(worker.predict_many(&xs));
        render += t1 - t0;
        forward += t1.elapsed();
    }
    ScoreWorker {
        mixtures,
        render,
        forward,
    }
}

/// `everest_core::phase1`'s private input-resolution rule.
fn cmdn_input_dims(video: &dyn VideoStore, depth: usize) -> (usize, usize) {
    let div = 1usize << depth;
    let (h, w) = (video.height(), video.width());
    if h % div == 0 && w % div == 0 {
        (h, w)
    } else {
        (32, 32)
    }
}

/// The Phase-1 recipe `everest_evql::exec` prepares videos with (private
/// there).
fn phase1_recipe(quant_step: f64, seed: u64) -> Phase1Config {
    let threads = std::thread::available_parallelism().map_or(2, |n| n.get());
    Phase1Config {
        sample_frac: 0.04,
        sample_cap: 800,
        sample_min: 200,
        grid: HyperGrid::single(3, 16),
        train: TrainConfig {
            epochs: 6,
            ..TrainConfig::default()
        },
        conv_channels: vec![6, 12],
        quant_step,
        seed: seed.wrapping_add(0xE7E57),
        threads,
        ..Phase1Config::default()
    }
}

pub fn parse_select(stmt: &str, settings: &SessionSettings) -> Result<QueryPlan, String> {
    match parse(stmt).map_err(|e| e.message())? {
        Statement::Select(select) => analyze_select(&select, settings).map_err(|e| e.message()),
        _ => Err("not a SELECT TOP statement".into()),
    }
}

pub fn rows_of(out: Result<Output, everest_evql::EvqlError>) -> Result<QueryOutput, String> {
    match out {
        Ok(Output::Rows(rows)) => Ok(rows),
        Ok(_) => Err("not a row answer".into()),
        Err(e) => Err(e.message()),
    }
}

/// Runs a continuous statement to exhaustion on `session`, timing each
/// emit.
pub fn drive_stream(
    session: &mut Session,
    stmt: &str,
    on_emit: &mut dyn FnMut(&StreamAnswer, Duration),
) -> Result<StreamOutput, String> {
    let mut stream = session.stream(stmt).map_err(|e| e.message())?;
    loop {
        let started = Instant::now();
        match stream.next_emit() {
            Some(answer) => on_emit(answer, started.elapsed()),
            None => break,
        }
    }
    stream.finish().map_err(|e| e.message())
}

fn cache_key(plan: &QueryPlan) -> CacheKey {
    CacheKey {
        source: plan.source.name.to_ascii_lowercase(),
        score: plan.score.display(),
        scale: plan.scale_divisor,
        seed: plan.seed,
        step_bits: plan.quant_step.to_bits(),
    }
}

/// The bucket grid (step, largest bucket) of the prepared video a warm
/// statement runs on. Costs one cache lookup, which the caller subtracts
/// from the cache counters it reports.
pub fn bucket_grid(session: &Session, plan: &QueryPlan) -> (f64, usize) {
    let entry = lookup(&session.shared_cache(), &cache_key(plan));
    let relation = &entry.prepared.phase1.relation;
    (relation.step(), relation.max_bucket())
}

fn lookup(cache: &everest_evql::SharedCache, key: &CacheKey) -> Arc<PreparedEntry> {
    cache
        .get_or_build(key, || {
            panic!("a warm statement missed the prepared-video cache")
        })
        .0
}

fn cleaner_config(plan: &QueryPlan) -> CleanerConfig {
    CleanerConfig {
        k: plan.k,
        thres: plan.thres,
        batch_size: plan.batch,
        resort_period: plan.resort_period,
        max_cleanings: None,
        budget: QueryBudget {
            max_oracle_calls: plan.max_oracle_calls,
            deadline_sim_seconds: plan.deadline,
            cancel: None,
        },
    }
}

/// The arrivals and configuration `Session::stream` derives from a plan
/// and the prepared relation.
fn stream_inputs(plan: &QueryPlan, rel: &UncertainRelation) -> (Vec<DiscreteDist>, StreamConfig) {
    let dists: Vec<DiscreteDist> = (0..rel.len())
        .map(|id| match rel.dist(id) {
            Some(d) => d.clone(),
            None => DiscreteDist::certain(
                rel.certain_bucket(id).expect("no dist means certain") as usize,
                rel.max_bucket(),
            ),
        })
        .collect();
    let stride = plan
        .emit_every
        .expect("a continuous statement")
        .min(dists.len());
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
            cancel: None,
        },
        ..StreamConfig::default()
    };
    (dists, cfg)
}

/// The answer `Session::execute` builds from a Phase-2 report. Only what
/// the canonical encoding reads has to be right; wall time and the
/// simulated-latency trio are outside it.
fn assemble(plan: &QueryPlan, report: &QueryReport, exact: &[f64]) -> Output {
    let fps = plan.source.fps;
    let rows = report
        .items
        .iter()
        .enumerate()
        .map(|(i, item)| AnswerRow {
            rank: i + 1,
            start_frame: item.range.0,
            end_frame: item.range.1,
            time_sec: item.range.0 as f64 / fps,
            score: item.score,
        })
        .collect();
    let quality = (report.items.len() == plan.k).then(|| match plan.target {
        PlanTarget::Frames => {
            evaluate_topk(&GroundTruth::new(exact.to_vec()), &report.frames(), plan.k)
        }
        PlanTarget::Windows { len, slide, .. } => {
            let windows = sliding_windows(plan.n_frames, len, slide);
            let truth = GroundTruth::new(exact_window_scores(exact, &windows));
            let answer: Vec<usize> = report
                .items
                .iter()
                .map(|item| (item.frame / slide).min(windows.len().saturating_sub(1)))
                .collect();
            evaluate_topk(&truth, &answer, plan.k)
        }
    });
    Output::Rows(QueryOutput {
        rows,
        stats: ExecStats {
            engine: plan.engine,
            n_frames: plan.n_frames,
            n_items: plan.n_items(),
            confidence: Some(report.confidence),
            converged: Some(report.converged),
            termination: Some(report.termination),
            iterations: Some(report.iterations),
            cleaned: Some(report.cleaned),
            oracle_retries: None,
            breaker_trips: None,
            sim_seconds: report.sim_seconds(),
            scan_seconds: 0.0,
            speedup: 0.0,
            quality,
            wall: report.phase2_wall,
            phase1_cached: true,
        },
        plan: plan.clone(),
    })
}
