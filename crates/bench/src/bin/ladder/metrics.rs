//! The metric tables — name, unit, better direction, bound — and how each
//! value is computed from what a workload measured. `BENCHMARK.json`
//! lists the same tables; a test keeps the two in step.

use crate::replay::{Acc, Traced};
use crate::run::Measured;
use crate::spans::{layer_self_times, Layer};
use crate::stats::peak_rss_mib;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// A count repeats exactly, at any seed and any number of rounds; a
    /// timing does not.
    pub count: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    count: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        count,
    }
}

/// What a user of the system sees, on every workload.
pub const END_TO_END: [EndToEnd; 8] = [
    e2e("setup_s", "s", Better::Lower, 0.25, false),
    e2e("ops_per_s", "1/s", Better::Higher, 0.25, false),
    e2e("frames_per_s", "1/s", Better::Higher, 0.25, false),
    e2e("op_p50_ms", "ms", Better::Lower, 0.25, false),
    e2e("oracle_frac", "ratio", Better::Lower, 0.01, true),
    e2e("sim_speedup", "x", Better::Higher, 0.02, false),
    e2e("topk_precision", "ratio", Better::Higher, 0.0, true),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.10, false),
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

/// Single layers, from the traced run. A layer the workload's timed ops
/// never enter reads 0.
pub const PER_LAYER: [PerLayer; 58] = [
    lo("video.build_ms", "ms"),
    lo("video.diff_ns_per_frame", "ns"),
    lo("video.diff_retained_share", "ratio"),
    lo("video.render_ns_per_frame", "ns"),
    hi("nn.gemm_gflops", "GFLOP/s"),
    hi("nn.gemm_nt_gflops", "GFLOP/s"),
    lo("nn.im2col_ns_per_patch", "ns"),
    lo("nn.forward_us_per_frame", "us"),
    lo("nn.train_us_per_sample_epoch", "us"),
    lo("nn.grid_search_ms", "ms"),
    hi("nn.simd_active", "count"),
    lo("models.oracle_frames", "count"),
    lo("models.oracle_batches", "count"),
    lo("models.oracle_retries", "count"),
    lo("models.breaker_trips", "count"),
    lo("phase1.label_ms", "ms"),
    lo("phase1.train_ms", "ms"),
    lo("phase1.score_frames_ms", "ms"),
    lo("phase1.quantize_ms", "ms"),
    lo("phase1.total_ms", "ms"),
    hi("phase1.closure", "ratio"),
    lo("phase2.iterations", "count"),
    lo("phase2.cleaned", "count"),
    lo("phase2.jointcdf_build_us", "us"),
    lo("phase2.selector_new_us", "us"),
    lo("phase2.confirm_ms", "ms"),
    lo("phase2.self_ms", "ms"),
    lo("phase2.us_per_iteration", "us"),
    lo("phase2.total_ms", "ms"),
    hi("phase2.closure", "ratio"),
    lo("stream.push_ns_per_frame", "ns"),
    lo("stream.emit_us", "us"),
    lo("stream.cleaned_per_emit", "count"),
    hi("stream.emits", "count"),
    lo("evql.parse_analyze_us", "us"),
    lo("evql.execute_warm_ms", "ms"),
    lo("evql.canonical_encode_us", "us"),
    hi("evql.closure", "ratio"),
    hi("evql.cache_hits", "count"),
    lo("evql.cache_misses", "count"),
    lo("evql.cache_evictions", "count"),
    lo("serve.ping_us", "us"),
    lo("serve.roundtrip_scan_us", "us"),
    lo("serve.overhead_us", "us"),
    lo("serve.shed", "count"),
    lo("serve.errors", "count"),
    hi("trace.ops_per_s", "1/s"),
    lo("video.self_share", "ratio"),
    lo("nn.self_share", "ratio"),
    lo("models.self_share", "ratio"),
    lo("phase1.self_share", "ratio"),
    lo("phase2.self_share", "ratio"),
    lo("stream.self_share", "ratio"),
    lo("evql.self_share", "ratio"),
    lo("serve.self_share", "ratio"),
    lo("op_p99_ms", "ms"),
    lo("miss_p50_ms", "ms"),
    lo("host.slice_ms", "ms"),
];

/// `num / den`, 0 when nothing was counted.
fn per(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The end-to-end values, in [`END_TO_END`] order.
pub fn end_to_end(m: &Measured) -> Vec<f64> {
    let wall = m.wall.as_secs_f64();
    let t = &m.tally;
    vec![
        m.setup_s,
        per(t.ops as f64, wall),
        per(t.frames as f64, wall),
        m.rec.median_ms("op").unwrap_or(0.0),
        per(t.cleaned as f64, t.items as f64),
        per(t.scan_seconds, t.sim_seconds),
        t.precision(),
        peak_rss_mib(),
    ]
}

/// The per-layer values of a traced run, in [`PER_LAYER`] order.
pub fn per_layer(m: &Measured, traced: &Traced) -> Vec<f64> {
    let acc: &Acc = &traced.acc;
    let closure = |name: &str| {
        traced
            .closures
            .get(name)
            .and_then(|c| c.ratio())
            .unwrap_or(0.0)
    };
    let selfs = layer_self_times(traced.tracer.spans());
    let engine_self: u64 = Layer::ENGINE
        .iter()
        .map(|l| selfs.get(l).copied().unwrap_or(0))
        .sum();
    let share = |layer: Layer| {
        per(
            selfs.get(&layer).copied().unwrap_or(0) as f64,
            engine_self as f64,
        )
    };
    let mut values = vec![
        acc.mean("video.build_ms"),
        acc.ratio("video.diff_ns", "video.frames"),
        acc.ratio("video.retained", "video.frames"),
        acc.ratio("video.render_ns", "video.rendered"),
        acc.mean("nn.gemm_gflops"),
        acc.mean("nn.gemm_nt_gflops"),
        acc.mean("nn.im2col_ns_per_patch"),
        acc.ratio("nn.forward_us_sum", "nn.forward_frames"),
        acc.ratio("nn.train_us_sum", "nn.train_sample_epochs"),
        acc.mean("nn.grid_search_ms"),
        everest_nn::kernels::simd_active() as u8 as f64,
        acc.sum("models.oracle_frames"),
        acc.sum("models.oracle_batches"),
        acc.sum("models.oracle_retries"),
        acc.sum("models.breaker_trips"),
        acc.mean("phase1.label_ms"),
        acc.mean("phase1.train_ms"),
        acc.mean("phase1.score_frames_ms"),
        acc.mean("phase1.quantize_ms"),
        acc.mean("phase1.total_ms"),
        closure("phase1.closure"),
        acc.mean("phase2.iterations"),
        acc.mean("phase2.cleaned"),
        acc.mean("phase2.jointcdf_build_us"),
        acc.mean("phase2.selector_new_us"),
        acc.mean("phase2.confirm_ms"),
        acc.mean("phase2.self_us") / 1e3,
        acc.ratio("phase2.self_us", "phase2.iterations"),
        acc.mean("phase2.total_ms"),
        closure("phase2.closure"),
        acc.ratio("stream.push_ns", "stream.pushes"),
        acc.ratio("stream.emit_us_sum", "stream.emits"),
        acc.ratio("stream.cleaned", "stream.emits"),
        acc.sum("stream.emits"),
        acc.mean("evql.parse_analyze_us"),
        acc.mean("evql.execute_warm_ms"),
        acc.mean("evql.canonical_encode_us"),
        closure("evql.closure"),
        m.cache.hits as f64,
        m.cache.misses as f64,
        m.cache.evictions as f64,
        m.serve.ping_us,
        m.serve.roundtrip_scan_us,
        m.serve.overhead_us,
        m.serve.shed as f64,
        m.serve.errors as f64,
        per(m.tally.ops as f64, m.wall.as_secs_f64()),
    ];
    values.extend(Layer::ENGINE.iter().map(|&l| share(l)));
    values.push(m.rec.tail_ms("op", 0.99).unwrap_or(0.0));
    values.push(m.rec.median_ms("miss").unwrap_or(0.0));
    values.push(m.host_slice_ms);
    values
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::value::Value;
    use std::collections::BTreeSet;

    fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
        v.get(key)
            .unwrap_or_else(|| panic!("BENCHMARK.json: missing `{key}`"))
    }

    fn text(v: &Value) -> &str {
        match v {
            Value::Str(s) => s,
            other => panic!("expected a string, found {other:?}"),
        }
    }

    /// `BENCHMARK.json` at the repository root and the tables above are
    /// two statements of one contract.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let json = serde_json::value_from_str(include_str!("../../../../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let listed: Vec<(String, String, String, Option<f64>)> = ["end_to_end", "per_layer"]
            .iter()
            .flat_map(|key| field(&json, key).as_array().expect("a list").to_vec())
            .map(|m| {
                let bound = m.get("bound").map(|b| match b {
                    Value::Float(f) => *f,
                    Value::Int(i) => *i as f64,
                    other => panic!("bound {other:?}"),
                });
                (
                    text(field(&m, "name")).to_string(),
                    text(field(&m, "unit")).to_string(),
                    text(field(&m, "better")).to_string(),
                    bound,
                )
            })
            .collect();
        let ours: Vec<(String, String, String, Option<f64>)> = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, m.better, Some(m.bound)))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit, m.better, None)))
            .map(|(n, u, b, bound)| (n.to_string(), u.to_string(), b.as_str().to_string(), bound))
            .collect();
        assert_eq!(listed, ours);

        let workloads: Vec<&str> = field(&json, "workloads")
            .as_array()
            .expect("a list")
            .iter()
            .map(|w| text(field(w, "name")))
            .collect();
        assert_eq!(workloads, crate::workloads::WORKLOADS);
    }

    #[test]
    fn metric_names_are_unique_and_setup_has_the_largest_bound() {
        let names: BTreeSet<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(setup.bound <= 0.25);
    }
}
