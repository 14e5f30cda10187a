//! Raw-sample latency recorder and the small statistics the ladder
//! reports.
//!
//! Every op latency is kept as its own nanosecond sample, per op class,
//! and percentiles are nearest-rank over the sorted samples — unlike
//! `everest_serve::LatencyHistogram`, whose power-of-two buckets put a
//! 600 µs and a 1 000 µs median in the same bin and so cannot resolve the
//! 10 % change the benchmark's bounds are about.

use std::collections::BTreeMap;
use std::time::Duration;

/// A tail percentile is reported only with at least this many samples
/// beyond it: fewer, and it is the reading of a handful of outliers.
pub const MIN_BEYOND: usize = 10;

/// Raw latency samples, keyed by op class (`"op"`, `"miss"`, …).
#[derive(Debug, Default, Clone)]
pub struct Recorder {
    classes: BTreeMap<&'static str, Vec<u64>>,
}

impl Recorder {
    pub fn record(&mut self, class: &'static str, d: Duration) {
        self.classes
            .entry(class)
            .or_default()
            .push(d.as_nanos() as u64);
    }

    /// Folds another recorder's samples in (per-thread recorders).
    pub fn merge(&mut self, other: Recorder) {
        for (class, mut samples) in other.classes {
            self.classes.entry(class).or_default().append(&mut samples);
        }
    }

    /// Number of samples of `class`.
    pub fn n(&self, class: &str) -> usize {
        self.classes.get(class).map_or(0, Vec::len)
    }

    fn sorted(&self, class: &str) -> Vec<u64> {
        let mut v = self.classes.get(class).cloned().unwrap_or_default();
        v.sort_unstable();
        v
    }

    /// Median in milliseconds (nearest rank); `None` without samples.
    pub fn median_ms(&self, class: &str) -> Option<f64> {
        nearest_rank(&self.sorted(class), 0.5).map(ns_to_ms)
    }

    /// The `p`-quantile (`0 < p < 1`) in milliseconds, nearest rank —
    /// refused (`None`) unless at least [`MIN_BEYOND`] samples lie beyond
    /// it.
    pub fn tail_ms(&self, class: &str, p: f64) -> Option<f64> {
        let v = self.sorted(class);
        let rank = rank_of(v.len(), p)?;
        if v.len() - rank < MIN_BEYOND {
            return None;
        }
        Some(ns_to_ms(v[rank - 1]))
    }
}

fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// 1-based nearest rank of the `p`-quantile among `n` samples.
fn rank_of(n: usize, p: f64) -> Option<usize> {
    assert!(p > 0.0 && p < 1.0, "quantile {p} outside (0, 1)");
    if n == 0 {
        return None;
    }
    Some(((p * n as f64).ceil() as usize).clamp(1, n))
}

fn nearest_rank(sorted: &[u64], p: f64) -> Option<u64> {
    rank_of(sorted.len(), p).map(|r| sorted[r - 1])
}

/// Median of a small list of seconds (set-up repeats).
pub fn median_f64(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[(v.len() - 1) / 2]
}

/// `VmHWM` of this process in MiB (0 when `/proc` is unreadable).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorder(class: &'static str, micros: impl IntoIterator<Item = u64>) -> Recorder {
        let mut r = Recorder::default();
        for us in micros {
            r.record(class, Duration::from_micros(us));
        }
        r
    }

    #[test]
    fn median_is_nearest_rank_over_raw_samples() {
        // 600 µs and 1 000 µs share a power-of-two bucket; raw samples
        // keep them apart.
        let r = recorder("op", [1_000, 600, 700, 650, 900]);
        assert_eq!(r.median_ms("op"), Some(0.7));
        assert_eq!(r.n("op"), 5);
        let even = recorder("op", [4, 1, 3, 2]);
        assert_eq!(even.median_ms("op"), Some(0.002));
        assert_eq!(Recorder::default().median_ms("op"), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let r = recorder("op", 1..=999);
        assert_eq!(r.tail_ms("op", 0.99), None, "only 9 samples beyond p99");
        let r = recorder("op", 1..=1_000);
        assert_eq!(r.tail_ms("op", 0.99), Some(0.99));
        assert_eq!(r.tail_ms("op", 0.9), Some(0.9));
        let small = recorder("op", 1..=15);
        assert_eq!(small.tail_ms("op", 0.9), None);
        assert_eq!(small.median_ms("op"), Some(0.008));
    }

    #[test]
    fn classes_are_separate_and_merge_adds_samples() {
        let mut a = recorder("op", [10, 20]);
        a.record("miss", Duration::from_millis(5));
        let b = recorder("op", [30]);
        a.merge(b);
        assert_eq!(a.n("op"), 3);
        assert_eq!(a.n("miss"), 1);
        assert_eq!(a.median_ms("miss"), Some(5.0));
        assert_eq!(a.median_ms("op"), Some(0.02));
    }

    #[test]
    fn median_of_setups_takes_the_middle() {
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&[4.0]), 4.0);
        assert_eq!(median_f64(&[4.0, 2.0]), 2.0);
    }
}
