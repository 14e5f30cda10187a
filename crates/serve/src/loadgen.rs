//! A deterministic concurrent load generator for the daemon.
//!
//! `run_loadgen` drives N client sessions in parallel, each executing a
//! seeded pseudo-random sequence drawn from a query mix. Everything that
//! determines *what* is asked is a pure function of the seed, so two
//! runs against fresh daemons ask exactly the same queries — and because
//! answers are canonical-encoded, the combined answer digest must come
//! out identical too. Wall-clock figures (qps, quantiles) are reported
//! but excluded from the digest.

use crate::client::Client;
use crate::metrics::LatencyHistogram;
use everest_evql::wire::Response;
use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// What to throw at the daemon.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Daemon address.
    pub addr: SocketAddr,
    /// Concurrent client sessions.
    pub sessions: usize,
    /// Queries each session executes.
    pub queries_per_session: usize,
    /// Seed for the per-session query sequences.
    pub seed: u64,
    /// EVQL statements to draw from; see [`default_mix`].
    pub mix: Vec<String>,
}

impl LoadgenConfig {
    /// `sessions` × `queries_per_session` against `addr` with the
    /// default mix.
    pub fn new(addr: SocketAddr, sessions: usize, queries_per_session: usize, seed: u64) -> Self {
        LoadgenConfig {
            addr,
            sessions,
            queries_per_session,
            seed,
            mix: default_mix(),
        }
    }
}

/// The default query mix: scan-engine Top-K over the paper's counting
/// datasets (frames and windows). Scan needs no Phase-1 training, so a
/// load test exercises the full wire/session/cache path without
/// multi-second CMDN fits per distinct query shape.
pub fn default_mix() -> Vec<String> {
    [
        "SELECT TOP 5 FRAMES FROM Archie USING scan",
        "SELECT TOP 10 FRAMES FROM Grand-Canal SCORE count(boat) USING scan",
        "SELECT TOP 3 FRAMES FROM Taipei-bus USING scan",
        "SELECT TOP 5 FRAMES FROM Irish-Center USING scan",
        "SELECT TOP 2 WINDOWS OF 30 FRAMES FROM Archie USING scan",
    ]
    .map(String::from)
    .to_vec()
}

/// A fault-injection mix (`--flaky-seed`): Everest-engine queries whose
/// Phase-2 oracle is wrapped in the seeded `everest_models::FlakyOracle`
/// via `WITH FLAKY`, under tight call caps and deadlines so some answers
/// come back degraded. Every knob is in the query text, so the run stays
/// a pure function of the seeds and the combined digest stays comparable
/// across runs.
pub fn flaky_mix(seed: u64) -> Vec<String> {
    vec![
        format!(
            "SELECT TOP 5 FRAMES FROM Archie \
             WITHIN 60 ORACLE CALLS WITH SEED 11, FLAKY {seed}"
        ),
        format!(
            "SELECT TOP 3 FRAMES FROM Taipei-bus \
             WITH SEED 12, DEADLINE 4.0, FLAKY {}",
            seed.wrapping_add(1)
        ),
        format!(
            "SELECT TOP 4 FRAMES FROM Irish-Center \
             WITHIN 40 ORACLE CALLS WITH SEED 13, FLAKY {}",
            seed.wrapping_add(2)
        ),
    ]
}

/// What a load run produced.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// Sessions driven.
    pub sessions: usize,
    /// Queries that completed with a response (including shed ones —
    /// an `Overloaded` frame is a response).
    pub queries_total: u64,
    /// Responses that were errors (daemon- or query-level).
    pub errors: u64,
    /// Responses that were typed `Overloaded` frames: the daemon shed
    /// the query at admission. Always 0 unless the daemon runs with
    /// `max_inflight_queries` set and the load exceeds it. Shed answers
    /// carry no canonical bytes, so a run with `shed > 0` has a
    /// load-dependent digest.
    pub shed: u64,
    /// End-to-end wall time of the run.
    pub wall: Duration,
    /// `queries_total / wall`.
    pub qps: f64,
    /// Median round-trip latency, µs (bucket upper bound).
    pub p50_us: u64,
    /// 99th-percentile round-trip latency, µs (bucket upper bound).
    pub p99_us: u64,
    /// Order-independent digest over every answer's canonical bytes.
    /// Identical seeds against equivalent daemons must produce identical
    /// digests.
    pub digest: u64,
}

impl LoadgenReport {
    /// One-line-per-field text report.
    pub fn render(&self) -> String {
        format!(
            "sessions={}\nqueries={}\nerrors={}\nshed={}\nwall_ms={}\nqps={:.1}\n\
             p50_us={}\np99_us={}\ndigest={:016x}\n",
            self.sessions,
            self.queries_total,
            self.errors,
            self.shed,
            self.wall.as_millis(),
            self.qps,
            self.p50_us,
            self.p99_us,
            self.digest,
        )
    }
}

/// splitmix64: tiny, seedable, identical everywhere — query selection
/// must not depend on a library RNG's evolution.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a 64 over a byte slice, continuing from `hash`.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Drives the configured load and reports. Each session's digest chains
/// its answers in execution order; session digests combine with a
/// wrapping sum so the total does not depend on thread finish order.
pub fn run_loadgen(cfg: &LoadgenConfig) -> io::Result<LoadgenReport> {
    if cfg.mix.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "loadgen mix is empty",
        ));
    }
    let latency = Arc::new(LatencyHistogram::new());
    #[expect(
        clippy::disallowed_methods,
        reason = "load-test wall timing; reported outside the deterministic digest"
    )]
    let started = Instant::now();

    let mut threads = Vec::with_capacity(cfg.sessions);
    for session_idx in 0..cfg.sessions {
        let cfg = cfg.clone();
        let latency = Arc::clone(&latency);
        threads.push(thread::spawn(
            move || -> io::Result<(u64, u64, u64, u64)> {
                let mut client = Client::connect(cfg.addr)?;
                let mut rng = cfg.seed ^ (session_idx as u64).wrapping_mul(0xa076_1d64_78bd_642f);
                let mut digest = FNV_OFFSET;
                let mut completed = 0u64;
                let mut errors = 0u64;
                let mut shed = 0u64;
                for _ in 0..cfg.queries_per_session {
                    let pick = (splitmix64(&mut rng) % cfg.mix.len() as u64) as usize;
                    #[expect(
                        clippy::disallowed_methods,
                        reason = "per-query round-trip sample for the latency histogram"
                    )]
                    let t0 = Instant::now();
                    let response = client.query(&cfg.mix[pick])?;
                    latency.record_us(t0.elapsed().as_micros() as u64);
                    completed += 1;
                    match response {
                        Response::Answer { canonical, .. } => {
                            digest = fnv1a(digest, &canonical);
                        }
                        Response::Message { text, .. } => {
                            digest = fnv1a(digest, text.as_bytes());
                        }
                        Response::Error { .. } => errors += 1,
                        // Shed at admission: counted, not digested (which
                        // query gets shed is timing-dependent).
                        Response::Overloaded { .. } => shed += 1,
                        Response::Pong { .. } => {
                            return Err(io::Error::new(
                                io::ErrorKind::InvalidData,
                                "pong in response to a query",
                            ));
                        }
                    }
                }
                Ok((digest, completed, errors, shed))
            },
        ));
    }

    let mut digest = 0u64;
    let mut queries_total = 0u64;
    let mut errors = 0u64;
    let mut shed = 0u64;
    for t in threads {
        let (d, q, e, s) = t
            .join()
            .map_err(|_| io::Error::other("loadgen session panicked"))??;
        digest = digest.wrapping_add(d);
        queries_total += q;
        errors += e;
        shed += s;
    }

    let wall = started.elapsed();
    Ok(LoadgenReport {
        sessions: cfg.sessions,
        queries_total,
        errors,
        shed,
        wall,
        qps: queries_total as f64 / wall.as_secs_f64().max(1e-9),
        p50_us: latency.quantile_us(0.50),
        p99_us: latency.quantile_us(0.99),
        digest,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_and_fnv_are_stable() {
        let mut s = 42u64;
        let a = splitmix64(&mut s);
        let b = splitmix64(&mut s);
        assert_ne!(a, b);
        let mut s2 = 42u64;
        assert_eq!(splitmix64(&mut s2), a);
        assert_eq!(fnv1a(FNV_OFFSET, b"everest"), fnv1a(FNV_OFFSET, b"everest"));
        assert_ne!(fnv1a(FNV_OFFSET, b"everest"), fnv1a(FNV_OFFSET, b"everesT"));
    }

    #[test]
    fn empty_mix_is_rejected() {
        let mut cfg = LoadgenConfig::new("127.0.0.1:1".parse().unwrap(), 1, 1, 0);
        cfg.mix.clear();
        assert!(run_loadgen(&cfg).is_err());
    }
}
