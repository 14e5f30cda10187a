//! Span bookkeeping for the traced run.
//!
//! Spans are recorded by the benchmark's own code around each call into a
//! layer (nothing inside `crates/*/src` is instrumented), kept in memory,
//! and written out when the run ends. A span names its layer, its parent
//! and the op that caused it, so a layer's **self time** — its duration
//! minus the part its children cover — can be summed per layer.
//!
//! Two conventions keep the arithmetic plain interval arithmetic:
//!
//! * An **aggregate** span stands for many short calls (every
//!   `score_batch` of one query, every `push_frame` between two emits).
//!   Only its duration and call count are measurements; it is laid end to
//!   end from its parent's start so it still nests.
//! * A **reference** span is the engine's own opaque call
//!   (`Session::execute`, `Everest::prepare`) that the replay beside it
//!   decomposes. It is the parent a closure ratio is taken against, and
//!   its subtree is left out of the per-layer sums, which would otherwise
//!   count the same work twice.

use serde::value::Value;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The layers of this repository, as the metric prefixes name them.
/// `Bench` is the benchmark's own glue (replay scaffolding, checks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    Video,
    Nn,
    Models,
    Phase1,
    Phase2,
    Stream,
    Evql,
    Serve,
    Bench,
}

impl Layer {
    pub const ENGINE: [Layer; 8] = [
        Layer::Video,
        Layer::Nn,
        Layer::Models,
        Layer::Phase1,
        Layer::Phase2,
        Layer::Stream,
        Layer::Evql,
        Layer::Serve,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Video => "video",
            Layer::Nn => "nn",
            Layer::Models => "models",
            Layer::Phase1 => "phase1",
            Layer::Phase2 => "phase2",
            Layer::Stream => "stream",
            Layer::Evql => "evql",
            Layer::Serve => "serve",
            Layer::Bench => "bench",
        }
    }
}

pub type SpanId = u32;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    /// The op (statement, stream, round trip) that caused this span.
    pub op: u32,
    pub layer: Layer,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Calls this span stands for (1 unless it is an aggregate).
    pub calls: u64,
    pub reference: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder of one thread. Threads that trace
/// concurrently each own a `Tracer` on a shared epoch and are merged
/// with [`Tracer::absorb`].
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    /// Next free offset for aggregate children, per parent.
    aggregate_cursor: BTreeMap<SpanId, u64>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
            aggregate_cursor: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts a span now; [`close`](Tracer::close) ends it.
    pub fn open(
        &mut self,
        op: u32,
        parent: Option<SpanId>,
        layer: Layer,
        name: &'static str,
    ) -> SpanId {
        let now = self.now_ns();
        self.push(op, parent, layer, name, now, now, 1)
    }

    /// Ends a span now and returns its duration.
    pub fn close(&mut self, id: SpanId) -> Duration {
        let now = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        Duration::from_nanos(span.dur_ns())
    }

    /// Times `f` as a leaf span.
    pub fn run<T>(
        &mut self,
        op: u32,
        parent: Option<SpanId>,
        layer: Layer,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        let id = self.open(op, parent, layer, name);
        let out = f();
        self.close(id);
        (out, id)
    }

    /// Records a span another thread timed itself (a parallel worker).
    pub fn record(
        &mut self,
        op: u32,
        parent: Option<SpanId>,
        layer: Layer,
        name: &'static str,
        started: Instant,
        ended: Instant,
    ) -> SpanId {
        let ns = |at: Instant| at.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.push(op, parent, layer, name, ns(started), ns(ended), 1)
    }

    /// Records `calls` short calls totalling `busy` as one span laid end
    /// to end inside `parent`, clipped to what the parent has left.
    pub fn aggregate(
        &mut self,
        op: u32,
        parent: SpanId,
        layer: Layer,
        name: &'static str,
        busy: Duration,
        calls: u64,
    ) -> SpanId {
        let (p_start, p_end) = {
            let p = &self.spans[parent as usize];
            (p.start_ns, p.end_ns)
        };
        let cursor = self.aggregate_cursor.entry(parent).or_insert(0);
        let start = (p_start + *cursor).min(p_end);
        let end = (start + busy.as_nanos() as u64).min(p_end);
        *cursor += end - start;
        self.push(op, Some(parent), layer, name, start, end, calls)
    }

    /// Marks the engine's own opaque call that a replay decomposes.
    pub fn mark_reference(&mut self, id: SpanId) {
        self.spans[id as usize].reference = true;
    }

    pub fn dur(&self, id: SpanId) -> Duration {
        Duration::from_nanos(self.spans[id as usize].dur_ns())
    }

    /// Appends another thread's spans, renumbering them past this one's.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as SpanId;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.id += base;
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn push(
        &mut self,
        op: u32,
        parent: Option<SpanId>,
        layer: Layer,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        calls: u64,
    ) -> SpanId {
        let id = self.spans.len() as SpanId;
        self.spans.push(Span {
            id,
            parent,
            op,
            layer,
            name,
            start_ns,
            end_ns,
            calls,
            reference: false,
        });
        id
    }
}

/// Self time of every span: its duration minus the part of it that its
/// direct children cover. Children that overlap each other (parallel
/// workers) cover their union once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[p as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| s.dur_ns() - union_len(kids))
        .collect()
}

/// Total length of the union of intervals.
fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = 0;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// Self time per layer, leaving out reference spans and everything under
/// them (the replay beside a reference span is what gets counted).
pub fn layer_self_times(spans: &[Span]) -> BTreeMap<Layer, u64> {
    let selfs = self_times(spans);
    // Spans are appended parent-first, so one forward pass propagates the
    // reference mark down the tree.
    let mut under_reference = vec![false; spans.len()];
    let mut out = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        under_reference[i] = s.reference || s.parent.is_some_and(|p| under_reference[p as usize]);
        if !under_reference[i] {
            *out.entry(s.layer).or_insert(0) += selfs[i];
        }
    }
    out
}

/// Children-over-parent accumulator behind the `*.closure` metrics: the
/// replay's stages, summed over every traced op, against the engine's
/// own opaque calls.
#[derive(Debug, Default, Clone, Copy)]
pub struct Closure {
    pub children: Duration,
    pub parent: Duration,
}

impl Closure {
    /// The band a closure must fall in for the replay's numbers to count.
    /// A sound replay closes within 10 %. The band that fails a run is
    /// wider because a closure compares two executions of the same work a
    /// second apart, and on this host those differ: over the six cold ops
    /// of a traced `ingest_cold` run `phase1.closure` read 0.85–1.11 in
    /// thirteen runs of one commit. A replay that drops or repeats a
    /// stage worth a quarter of the call is still outside.
    pub const BAND: (f64, f64) = (0.75, 1.33);

    pub fn add(&mut self, children: Duration, parent: Duration) {
        self.children += children;
        self.parent += parent;
    }

    /// `None` when no op fed this closure.
    pub fn ratio(&self) -> Option<f64> {
        (!self.parent.is_zero()).then(|| self.children.as_secs_f64() / self.parent.as_secs_f64())
    }

    /// True when the closure was never fed or lies inside [`Closure::BAND`].
    pub fn holds(&self) -> bool {
        self.ratio()
            .is_none_or(|r| (Self::BAND.0..=Self::BAND.1).contains(&r))
    }
}

/// Replay-equality ledger: a replay whose result differs from the
/// engine's opaque call has drifted from the engine and must not report
/// numbers, so a single failure fails the run.
#[derive(Debug, Default)]
pub struct ReplayChecks {
    pub checked: u64,
    pub failures: Vec<String>,
}

impl ReplayChecks {
    pub fn same<T: PartialEq + ?Sized>(&mut self, what: &str, op: u32, engine: &T, replay: &T) {
        self.checked += 1;
        if engine != replay {
            self.failures.push(format!(
                "op {op}: replayed {what} differs from the engine's"
            ));
        }
    }

    pub fn merge(&mut self, other: ReplayChecks) {
        self.checked += other.checked;
        self.failures.extend(other.failures);
    }

    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The trace file's span list.
pub fn spans_to_json(spans: &[Span]) -> Value {
    let int = |v: u64| Value::Int(v as i128);
    Value::Array(
        spans
            .iter()
            .map(|s| {
                Value::Object(vec![
                    ("id".into(), int(s.id as u64)),
                    (
                        "parent".into(),
                        s.parent.map_or(Value::Null, |p| int(p as u64)),
                    ),
                    ("op".into(), int(s.op as u64)),
                    ("layer".into(), Value::Str(s.layer.name().into())),
                    ("name".into(), Value::Str(s.name.into())),
                    ("start_ns".into(), int(s.start_ns)),
                    ("end_ns".into(), int(s.end_ns)),
                    ("calls".into(), int(s.calls)),
                    ("reference".into(), Value::Bool(s.reference)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: Option<SpanId>, layer: Layer, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 0,
            layer,
            name: "synthetic",
            start_ns,
            end_ns,
            calls: 1,
            reference: false,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let spans = [
            span(0, None, Layer::Evql, 0, 100),
            span(1, Some(0), Layer::Phase2, 10, 40),
            span(2, Some(0), Layer::Models, 50, 70),
            span(3, Some(1), Layer::Models, 20, 30),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 20, 10]);
    }

    #[test]
    fn overlapping_children_from_parallel_workers_count_once() {
        // Two workers run side by side under one parent; a third child
        // sticks out past the parent's end and is clipped.
        let spans = [
            span(0, None, Layer::Phase1, 0, 100),
            span(1, Some(0), Layer::Nn, 10, 60),
            span(2, Some(0), Layer::Nn, 30, 80),
            span(3, Some(0), Layer::Video, 90, 130),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 100 - (80 - 10) - (100 - 90));
        assert_eq!(selfs[1], 50);
    }

    #[test]
    fn layer_sums_skip_reference_subtrees() {
        let mut spans = vec![
            span(0, None, Layer::Bench, 0, 200),
            span(1, Some(0), Layer::Evql, 0, 90),
            span(2, Some(1), Layer::Phase2, 10, 50),
            span(3, Some(0), Layer::Evql, 100, 200),
            span(4, Some(3), Layer::Phase2, 110, 170),
        ];
        spans[1].reference = true;
        let by_layer = layer_self_times(&spans);
        assert_eq!(by_layer[&Layer::Evql], 40, "only the replay's evql span");
        assert_eq!(by_layer[&Layer::Phase2], 60);
        assert_eq!(by_layer[&Layer::Bench], 200 - 90 - 100);
    }

    #[test]
    fn aggregates_nest_end_to_end_and_clip_to_the_parent() {
        let mut t = Tracer::new(Instant::now());
        let parent = t.push(7, None, Layer::Phase2, "query", 1_000, 2_000, 1);
        let a = t.aggregate(
            7,
            parent,
            Layer::Models,
            "confirm",
            Duration::from_nanos(300),
            12,
        );
        let b = t.aggregate(
            7,
            parent,
            Layer::Models,
            "confirm",
            Duration::from_nanos(900),
            3,
        );
        let spans = t.spans();
        assert_eq!(
            (spans[a as usize].start_ns, spans[a as usize].end_ns),
            (1_000, 1_300)
        );
        assert_eq!(
            (spans[b as usize].start_ns, spans[b as usize].end_ns),
            (1_300, 2_000)
        );
        assert_eq!(spans[a as usize].calls, 12);
        assert_eq!(self_times(spans)[parent as usize], 0);
    }

    #[test]
    fn absorb_renumbers_ids_and_parents() {
        let mut a = Tracer::new(Instant::now());
        a.push(0, None, Layer::Serve, "a", 0, 10, 1);
        let mut b = Tracer::new(Instant::now());
        let root = b.push(1, None, Layer::Serve, "b", 0, 10, 1);
        b.push(1, Some(root), Layer::Evql, "b.child", 2, 5, 1);
        a.absorb(b);
        let spans = a.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[2].id, 2);
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(self_times(spans), vec![10, 7, 3]);
    }

    #[test]
    fn closure_ratio_and_band() {
        let mut c = Closure::default();
        assert!(c.holds(), "an unfed closure constrains nothing");
        assert_eq!(c.ratio(), None);
        c.add(Duration::from_millis(95), Duration::from_millis(100));
        c.add(Duration::from_millis(100), Duration::from_millis(100));
        assert_eq!(c.ratio(), Some(0.975));
        assert!(c.holds());
        c.add(Duration::from_millis(10), Duration::from_millis(100));
        assert!(!c.holds(), "children covering 68 % of the parent");
    }

    #[test]
    fn a_drifted_replay_is_reported_and_fails_the_ledger() {
        let mut checks = ReplayChecks::default();
        checks.same("answer bytes", 3, b"abc".as_slice(), b"abc".as_slice());
        assert!(checks.ok());
        checks.same("relation", 4, &[1, 2, 3], &[1, 2, 4]);
        assert!(!checks.ok());
        assert_eq!(checks.checked, 2);
        assert_eq!(
            checks.failures,
            vec!["op 4: replayed relation differs from the engine's".to_string()]
        );
    }
}
