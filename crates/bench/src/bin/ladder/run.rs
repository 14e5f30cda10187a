//! What every workload shares: how long a run lasts, what it tallies,
//! and what it hands back to be turned into metrics.

use crate::check::Checker;
use crate::replay::Traced;
use crate::stats::Recorder;
use everest_evql::shared::CacheStats;
use everest_evql::{ExecStats, SessionSettings};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use std::time::{Duration, Instant};

/// The five Table-7 counting datasets, smallest video first.
pub const COUNTING: [&str; 5] = [
    "Archie",
    "Daxi-old-street",
    "Grand-Canal",
    "Irish-Center",
    "Taipei-bus",
];

/// How much work a run does. A workload runs whole **rounds** — a round
/// is one pass over its seeded schedule — until the limit is reached, so
/// every run covers each kind of op equally often.
#[derive(Debug, Clone)]
pub enum Limit {
    /// Start rounds until this many seconds have passed (at least one).
    Seconds(f64),
    /// Exactly this many rounds, per client — what makes two runs at one
    /// seed ask exactly the same questions (`--aa`, the smoke test).
    Rounds(Vec<usize>),
}

impl Limit {
    pub fn more(&self, client: usize, rounds_done: usize, started: Instant) -> bool {
        match self {
            Limit::Seconds(s) => rounds_done == 0 || started.elapsed().as_secs_f64() < *s,
            Limit::Rounds(per_client) => rounds_done < per_client[client.min(per_client.len() - 1)],
        }
    }
}

/// Problem sizes. `full` is what `BENCHMARK.json` runs; `smoke` answers
/// in seconds and exists so the test suite can run every workload body.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Catalog scale divisor (`SET scale`).
    pub scale: usize,
    /// Times the set-up is repeated; `setup_s` is the median.
    pub setups: usize,
    /// How many of a workload's datasets are used (a prefix).
    pub datasets: usize,
    /// Hot statements in a client's round on `served_mixed`.
    pub hot_run: usize,
}

impl Sizes {
    pub fn full() -> Self {
        Sizes {
            scale: 8,
            setups: 5,
            datasets: 5,
            hot_run: 512,
        }
    }

    pub fn smoke() -> Self {
        Sizes {
            // every catalog video shrinks to its 2 000-frame floor
            scale: 1_000,
            setups: 1,
            datasets: 2,
            hot_run: 12,
        }
    }

    pub fn settings(&self) -> SessionSettings {
        SessionSettings {
            scale: self.scale,
            ..SessionSettings::default()
        }
    }

    pub fn describe(&self) -> String {
        format!(
            "scale=1/{} setups={} datasets<={} hot_run={}",
            self.scale, self.setups, self.datasets, self.hot_run
        )
    }
}

/// What the answers of a run add up to.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Ops completed in the timed window.
    pub ops: u64,
    /// Video frames those ops ingested, saw arrive, or ranked.
    pub frames: u64,
    /// Items the Everest engine cleaned, out of the items it ranked.
    pub cleaned: u64,
    pub items: u64,
    /// Simulated scan-and-test seconds over simulated Everest seconds.
    pub scan_seconds: f64,
    pub sim_seconds: f64,
    /// Σ precision in units of 1e-9: an integer, so the sum is the same
    /// in whatever order a seed puts the statements — `topk_precision`
    /// has a bound of 0 and must repeat to the last bit.
    pub precision_nano: u64,
    pub precision_n: u64,
}

impl Tally {
    /// Folds in the statistics of an Everest-engine answer (other
    /// engines clean nothing and carry no guarantee).
    pub fn add_everest(&mut self, stats: &ExecStats) {
        let Some(cleaned) = stats.cleaned else { return };
        self.cleaned += cleaned as u64;
        self.items += stats.n_items as u64;
        self.scan_seconds += stats.scan_seconds;
        self.sim_seconds += stats.sim_seconds;
        if let Some(q) = stats.quality {
            self.add_precision(q.precision, 1);
        }
    }

    /// Folds in the summed precision of `n` answers.
    pub fn add_precision(&mut self, sum: f64, n: u64) {
        self.precision_nano += (sum * 1e9).round() as u64;
        self.precision_n += n;
    }

    /// Mean precision (0 with no answer): one division of two exact
    /// integers, so whole rounds more or fewer give the same bits.
    pub fn precision(&self) -> f64 {
        if self.precision_n == 0 {
            return 0.0;
        }
        self.precision_nano as f64 / (self.precision_n as f64 * 1e9)
    }

    pub fn merge(&mut self, other: &Tally) {
        self.ops += other.ops;
        self.frames += other.frames;
        self.cleaned += other.cleaned;
        self.items += other.items;
        self.scan_seconds += other.scan_seconds;
        self.sim_seconds += other.sim_seconds;
        self.precision_nano += other.precision_nano;
        self.precision_n += other.precision_n;
    }
}

/// A fixed piece of work that is none of the engine's: vectorisable f32
/// arithmetic, a sort, and ordered-set churn, about 6 ms on a quiet
/// 2-core build machine. This host's speed drifts by tens of percent over
/// minutes; how long the slice takes beside a run says how fast the host
/// was then. It is reported (`host.slice_ms`) and scales nothing.
pub fn host_slice() -> Duration {
    let started = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    // f32 multiply-adds over 64 KiB, the shape of the CMDN's inner loops
    let mut a: Vec<f32> = (0..16_384).map(|i| (i % 97) as f32 * 0.01).collect();
    let b: Vec<f32> = (0..16_384).map(|i| (i % 89) as f32 * 0.02).collect();
    for pass in 0..150 {
        let k = 1.0 + pass as f32 * 1e-4;
        for (x, y) in a.iter_mut().zip(&b) {
            *x = *x * 0.999 + y * k;
        }
    }
    std::hint::black_box(&a);
    // a branchy integer sort
    for _ in 0..6 {
        let mut keys: Vec<u64> = (0..16_384).map(|_| next()).collect();
        keys.sort_unstable();
        std::hint::black_box(&keys);
    }
    // ordered-set churn, the shape of Phase 2's bookkeeping
    let mut set = std::collections::BTreeSet::new();
    for _ in 0..3 {
        for _ in 0..8_192 {
            set.insert((next() % 50_000) as u32);
        }
        for _ in 0..8_192 {
            set.remove(&((next() % 50_000) as u32));
        }
    }
    std::hint::black_box(&set);
    started.elapsed()
}

/// Host slices taken before a workload's set-up and again after its last
/// check, while no engine thread runs.
pub const HOST_SLICES_PER_SIDE: usize = 8;

/// Mean of `n` host slices, milliseconds.
pub fn host_slices_ms(n: usize) -> f64 {
    (0..n)
        .map(|_| host_slice().as_secs_f64() * 1e3)
        .sum::<f64>()
        / n.max(1) as f64
}

/// Per-round readings, in completion order (clients concatenated).
#[derive(Debug, Default, Clone)]
pub struct RoundLog {
    /// Seconds each round spent inside its ops — the engine's calls, not
    /// the answer checks (or, traced, the replays) between them.
    pub busy_s: Vec<f64>,
}

impl RoundLog {
    pub fn close(&mut self, busy: Duration) {
        self.busy_s.push(busy.as_secs_f64());
    }

    pub fn merge(&mut self, other: RoundLog) {
        self.busy_s.extend(other.busy_s);
    }

    pub fn busy(&self) -> Duration {
        Duration::from_secs_f64(self.busy_s.iter().sum())
    }
}

/// The set-up passes of a run; `setup_s` is their median.
#[derive(Debug, Default)]
pub struct Setups {
    pass_s: Vec<f64>,
}

impl Setups {
    pub fn pass<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let (out, took) = timed(f);
        self.pass_s.push(took.as_secs_f64());
        out
    }

    pub fn median_s(&self) -> f64 {
        crate::stats::median_f64(&self.pass_s)
    }
}

/// Everything a workload measured.
pub struct Measured {
    /// Median time of the set-up passes (process state → first timed
    /// op).
    pub setup_s: f64,
    /// The timed wall: time inside the ops of every round (`served_mixed`:
    /// of the busier client).
    pub wall: Duration,
    /// Rounds completed, per client.
    pub rounds: Vec<usize>,
    pub log: RoundLog,
    /// Latency samples: class `op`, and `miss` for statements that had
    /// to prepare their video.
    pub rec: Recorder,
    pub chk: Checker,
    pub tally: Tally,
    /// Prepared-video cache counters over the run.
    pub cache: CacheStats,
    /// `serve` layer numbers (all zero off `served_mixed`).
    pub serve: ServeNumbers,
    pub traced: Option<Traced>,
    /// Mean host slice around the run, milliseconds (filled in by
    /// `workloads::run`).
    pub host_slice_ms: f64,
}

#[derive(Debug, Default, Clone, Copy)]
pub struct ServeNumbers {
    pub ping_us: f64,
    pub roundtrip_scan_us: f64,
    pub overhead_us: f64,
    pub shed: u64,
    pub errors: u64,
}

/// A fresh seeded order of `items` (each round reshuffles).
pub fn shuffled<T: Clone>(items: &[T], rng: &mut StdRng) -> Vec<T> {
    let mut order = items.to_vec();
    order.shuffle(rng);
    order
}

/// Times `f`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed())
}

/// Exact per-frame scores of a catalog video — the ground truth answers
/// are checked against. Videos render lazily, so this costs milliseconds.
pub fn exact_scores(dataset: &str, scale: usize, seed: u64) -> Vec<f64> {
    let source = everest_evql::catalog::source_by_name(dataset)
        .unwrap_or_else(|| panic!("`{dataset}` is not in the catalog"));
    source
        .build(source.default_score, scale, seed)
        .oracle
        .all_scores()
        .to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_precision_ignores_statement_order_and_round_count() {
        let round = [0.54, 1.0, 1.0 / 3.0, 0.98, 0.1, 0.7, 0.05];
        let mut few = Tally::default();
        for _ in 0..3 {
            round.iter().for_each(|&p| few.add_precision(p, 1));
        }
        let mut many = Tally::default();
        for _ in 0..7 {
            round.iter().rev().for_each(|&p| many.add_precision(p, 1));
        }
        assert_eq!(few.precision().to_bits(), many.precision().to_bits());
        assert!((few.precision() - round.iter().sum::<f64>() / 7.0).abs() < 1e-9);
        assert_eq!(Tally::default().precision(), 0.0);
    }

    #[test]
    fn limits_bound_rounds_or_time() {
        let now = Instant::now();
        let rounds = Limit::Rounds(vec![2, 3]);
        assert!(rounds.more(0, 1, now));
        assert!(!rounds.more(0, 2, now));
        assert!(rounds.more(1, 2, now));
        assert!(
            rounds.more(5, 2, now),
            "extra clients follow the last entry"
        );
        let seconds = Limit::Seconds(0.0);
        assert!(seconds.more(0, 0, now), "always at least one round");
        assert!(!seconds.more(0, 1, now));
    }
}
