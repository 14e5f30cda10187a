//! Daemon-wide counters and the `SHOW METRICS` rendering.
//!
//! The render is split in two by [`WALL_CLOCK_MARKER`]: everything above
//! the marker is derived from integer counters whose final values are
//! deterministic for a given workload (single-flight cache, atomic
//! increments), everything below is wall-clock-derived (uptime, qps,
//! latency quantiles). The determinism harness compares only the prefix.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Separates the deterministic counter section of a metrics render from
/// the wall-clock-derived section below it.
pub const WALL_CLOCK_MARKER: &str = "---- wall clock ----";

/// Power-of-two latency histogram in microseconds.
///
/// Bucket `i` counts samples in `[2^i, 2^(i+1))` µs (bucket 0 also takes
/// sub-microsecond samples); quantiles report the upper bound of the
/// bucket the quantile lands in, so two runs with the same per-sample
/// buckets report the same quantiles.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; Self::BUCKETS],
    count: AtomicU64,
}

impl LatencyHistogram {
    const BUCKETS: usize = 40; // 2^39 µs ≈ 6.4 days: everything fits.

    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: [const { AtomicU64::new(0) }; Self::BUCKETS],
            count: AtomicU64::new(0),
        }
    }

    /// Records one latency sample, in microseconds.
    pub fn record_us(&self, us: u64) {
        let idx = (us.max(1).ilog2() as usize).min(Self::BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as the upper bound of the bucket
    /// it falls in, in microseconds. Returns 0 with no samples.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                return 1u64 << (i + 1);
            }
        }
        1u64 << Self::BUCKETS
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

/// Daemon-wide counters. All atomic, all monotonic (except none): a
/// `Metrics` is shared by every worker via `Arc`.
#[derive(Debug)]
pub struct Metrics {
    /// Connections handed to a worker.
    pub connections_accepted: AtomicU64,
    /// Connections whose handler returned (any reason).
    pub connections_closed: AtomicU64,
    /// Query frames fully decoded (the graceful-shutdown contract:
    /// every one of these gets an answer).
    pub queries_accepted: AtomicU64,
    /// Query responses (answer or query-level error) written back.
    pub queries_answered: AtomicU64,
    /// Queries that produced an EVQL error response.
    pub queries_failed: AtomicU64,
    /// Queries shed at admission (`Overloaded` response). The drain
    /// invariant becomes `accepted == answered + shed`.
    pub shed_queries: AtomicU64,
    /// Oracle calls retried after a fault, summed over fault-injected
    /// (`WITH FLAKY`) queries.
    pub oracle_retries: AtomicU64,
    /// Circuit-breaker trips across fault-injected queries.
    pub breaker_trips: AtomicU64,
    /// Answers returned with a degraded termination (budget, deadline,
    /// cancellation, oracle-down) instead of convergence.
    pub degraded_answers: AtomicU64,
    /// Admin frames served.
    pub admin_commands: AtomicU64,
    /// Ping frames echoed.
    pub pings: AtomicU64,
    /// Frames rejected by the codec (bad tag, truncation, UTF-8, …).
    pub protocol_errors: AtomicU64,
    /// Frames rejected by the max-frame guard specifically.
    pub frames_rejected: AtomicU64,
    /// Connections dropped because the peer vanished mid-exchange.
    pub client_disconnects: AtomicU64,
    /// Responses abandoned because the peer would not read in time.
    pub write_timeouts: AtomicU64,
    /// `RELOAD`s executed.
    pub reloads: AtomicU64,
    /// Total frames cleaned (oracle invocations) across all answered
    /// queries — the paper's clean-budget spend, aggregated.
    pub cleaned_frames: AtomicU64,
    /// Payload bytes received in valid frames.
    pub bytes_in: AtomicU64,
    /// Payload bytes written in response frames.
    pub bytes_out: AtomicU64,
    /// Query latency, decode-to-answer-written.
    pub latency: LatencyHistogram,
    started: Instant,
}

impl Metrics {
    /// Fresh, all-zero metrics; the uptime clock starts now.
    pub fn new() -> Self {
        Metrics {
            connections_accepted: AtomicU64::new(0),
            connections_closed: AtomicU64::new(0),
            queries_accepted: AtomicU64::new(0),
            queries_answered: AtomicU64::new(0),
            queries_failed: AtomicU64::new(0),
            shed_queries: AtomicU64::new(0),
            oracle_retries: AtomicU64::new(0),
            breaker_trips: AtomicU64::new(0),
            degraded_answers: AtomicU64::new(0),
            admin_commands: AtomicU64::new(0),
            pings: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            frames_rejected: AtomicU64::new(0),
            client_disconnects: AtomicU64::new(0),
            write_timeouts: AtomicU64::new(0),
            reloads: AtomicU64::new(0),
            cleaned_frames: AtomicU64::new(0),
            bytes_in: AtomicU64::new(0),
            bytes_out: AtomicU64::new(0),
            latency: LatencyHistogram::new(),
            #[expect(
                clippy::disallowed_methods,
                reason = "uptime/qps base for the metrics endpoint; rendered only below \
                          WALL_CLOCK_MARKER"
            )]
            started: Instant::now(),
        }
    }

    /// `SHOW METRICS` text: deterministic counters, then
    /// [`WALL_CLOCK_MARKER`], then wall-clock-derived lines.
    pub fn render(&self) -> String {
        let ld = Ordering::Relaxed;
        let answered = self.queries_answered.load(ld);
        let mut out = String::new();
        out.push_str(&format!(
            "connections_accepted={}\nconnections_closed={}\n",
            self.connections_accepted.load(ld),
            self.connections_closed.load(ld),
        ));
        out.push_str(&format!(
            "queries_accepted={}\nqueries_answered={}\nqueries_failed={}\n",
            self.queries_accepted.load(ld),
            answered,
            self.queries_failed.load(ld),
        ));
        // Robustness counters: deterministic for a fixed workload and
        // fault seed (shedding only fires when the caller engineers an
        // overload, and then the *count* is part of what the harness
        // asserts via accepted == answered + shed).
        out.push_str(&format!(
            "shed_queries={}\noracle_retries={}\nbreaker_trips={}\ndegraded_answers={}\n",
            self.shed_queries.load(ld),
            self.oracle_retries.load(ld),
            self.breaker_trips.load(ld),
            self.degraded_answers.load(ld),
        ));
        out.push_str(&format!(
            "admin_commands={}\npings={}\n",
            self.admin_commands.load(ld),
            self.pings.load(ld),
        ));
        out.push_str(&format!(
            "protocol_errors={}\nframes_rejected={}\n",
            self.protocol_errors.load(ld),
            self.frames_rejected.load(ld),
        ));
        out.push_str(&format!(
            "client_disconnects={}\nwrite_timeouts={}\nreloads={}\n",
            self.client_disconnects.load(ld),
            self.write_timeouts.load(ld),
            self.reloads.load(ld),
        ));
        out.push_str(&format!(
            "cleaned_frames={}\nbytes_in={}\n",
            self.cleaned_frames.load(ld),
            self.bytes_in.load(ld),
        ));
        out.push_str(WALL_CLOCK_MARKER);
        out.push('\n');
        // bytes_out lives below the marker: rendered answers note cache
        // hits ("phase 1 served from session cache"), and which session
        // scores the hit is scheduling-dependent, so outgoing byte totals
        // vary run to run even when every answer is byte-identical in its
        // canonical form.
        out.push_str(&format!("bytes_out={}\n", self.bytes_out.load(ld)));
        // qps/uptime section, explicitly quarantined below the marker.
        let uptime = self.started.elapsed().as_secs_f64().max(1e-9);
        out.push_str(&format!("uptime_seconds={uptime:.3}\n"));
        out.push_str(&format!("qps={:.2}\n", answered as f64 / uptime));
        out.push_str(&format!(
            "latency_p50_us={}\nlatency_p99_us={}\n",
            self.latency.quantile_us(0.50),
            self.latency.quantile_us(0.99),
        ));
        out
    }

    /// The deterministic prefix of [`Metrics::render`]: everything above
    /// [`WALL_CLOCK_MARKER`]. This is what determinism harnesses compare
    /// across runs.
    pub fn render_deterministic(&self) -> String {
        let full = self.render();
        match full.find(WALL_CLOCK_MARKER) {
            Some(pos) => full[..pos].to_string(),
            None => full,
        }
    }
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_are_bucket_upper_bounds() {
        let h = LatencyHistogram::new();
        for us in [1u64, 3, 100, 100, 100, 5000] {
            h.record_us(us);
        }
        assert_eq!(h.count(), 6);
        // 100µs lands in bucket [64,128) → upper bound 128.
        assert_eq!(h.quantile_us(0.5), 128);
        // 5000µs lands in [4096,8192) → upper bound 8192.
        assert_eq!(h.quantile_us(1.0), 8192);
        assert_eq!(LatencyHistogram::new().quantile_us(0.99), 0);
    }

    #[test]
    fn render_splits_on_the_marker() {
        let m = Metrics::new();
        m.queries_accepted.fetch_add(3, Ordering::Relaxed);
        m.queries_answered.fetch_add(3, Ordering::Relaxed);
        let full = m.render();
        let det = m.render_deterministic();
        assert!(full.contains(WALL_CLOCK_MARKER));
        assert!(!det.contains(WALL_CLOCK_MARKER));
        assert!(det.contains("queries_accepted=3"));
        assert!(det.contains("queries_answered=3"));
        // The robustness counters are part of the deterministic prefix.
        m.shed_queries.fetch_add(2, Ordering::Relaxed);
        m.oracle_retries.fetch_add(5, Ordering::Relaxed);
        let det = m.render_deterministic();
        assert!(det.contains("shed_queries=2"));
        assert!(det.contains("oracle_retries=5"));
        assert!(det.contains("breaker_trips=0"));
        assert!(det.contains("degraded_answers=0"));
        assert!(!det.contains("qps="));
        assert!(full.contains("latency_p99_us="));
        // Every key rendered below the marker stays out of the prefix.
        let (_, wall) = full.split_once(WALL_CLOCK_MARKER).unwrap();
        let wall_keys: Vec<&str> = wall
            .lines()
            .filter_map(|l| l.split_once('='))
            .map(|(k, _)| k)
            .collect();
        assert!(wall_keys.len() >= 5, "{wall_keys:?}");
        for key in wall_keys {
            let prefix = format!("{key}=");
            assert!(
                !det.lines().any(|l| l.starts_with(&prefix)),
                "wall-clock key `{key}` in the deterministic section:\n{det}"
            );
        }
    }
}
