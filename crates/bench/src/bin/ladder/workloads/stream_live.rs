//! `stream_live` — continuous Top-K (`EVERY … EMIT`) over videos whose
//! Phase 1 ran in set-up. An op is one emit.
//!
//! Each round streams every dataset in three configurations: a landmark
//! query, a short sliding window on a small per-emit budget, and a long
//! one on a larger budget. Streaming uses `topkprob::JointCdf` the other
//! way round from batch Phase 2 — one `add`/`remove` per arrival in place
//! of a `build` and a select loop — so a change that speeds batch Phase 2
//! at the cost of incremental maintenance shows here and nowhere else.

use crate::check::{check_emit, emit_precision, Checker};
use crate::replay::{bucket_grid, drive_stream, parse_select, Traced};
use crate::run::{
    shuffled, timed, Limit, Measured, RoundLog, ServeNumbers, Sizes, Tally, COUNTING,
};
use crate::stats::Recorder;
use crate::workloads::query_warm::{set_up, Warm};
use everest_evql::wire::canonical_output;
use everest_evql::{Output, SessionSettings, StreamOutput};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

const SHAPES: [&str; 3] = [
    "EVERY 300 FRAMES EMIT",
    "EVERY 100 FRAMES EMIT WITH WINDOW 1000, BUDGET 10",
    "EVERY 50 FRAMES EMIT WITH WINDOW 5000, BUDGET 50",
];

struct Statement {
    text: String,
    dataset: usize,
}

fn statements(datasets: &[&str], settings: &SessionSettings) -> Vec<Statement> {
    let mut out = Vec::new();
    for (dataset, name) in datasets.iter().enumerate() {
        for shape in SHAPES {
            let text = format!("SELECT TOP 10 FRAMES FROM {name} {shape}");
            if parse_select(&text, settings).is_ok() {
                out.push(Statement { text, dataset });
            }
        }
    }
    out
}

/// What the first pass over a stream established, reused by later rounds.
struct FirstPass {
    canonical: Vec<u8>,
    precision_sum: f64,
}

/// Checks every emit of a finished stream against exact ground truth and
/// sums the emits' precision.
fn check_stream(out: &StreamOutput, exact: &[f64], grid: (f64, usize)) -> Result<f64, String> {
    let arrivals: Vec<f64> = out.retained.iter().map(|&frame| exact[frame]).collect();
    let mut precision_sum = 0.0;
    for answer in &out.answers {
        check_emit(
            answer,
            &arrivals,
            grid.0,
            grid.1,
            out.plan.k,
            out.plan.stream_budget,
        )
        .map_err(|e| format!("emit @{}: {e}", answer.at_frame))?;
        precision_sum += emit_precision(answer, &arrivals, out.plan.k);
    }
    Ok(precision_sum)
}

pub fn run(seed: u64, limit: &Limit, sizes: Sizes, trace: bool) -> Measured {
    let datasets = &COUNTING[..sizes.datasets.min(COUNTING.len())];
    let mut rec = Recorder::default();
    let Warm {
        mut session,
        exact,
        setup_s,
    } = set_up(datasets, sizes, &mut rec);
    let statements = statements(datasets, &session.settings);

    let started = Instant::now();
    let mut traced = trace.then(|| Traced::new(started, 0));
    let (mut chk, mut tally) = (Checker::default(), Tally::default());
    let mut first_passes: BTreeMap<&str, FirstPass> = BTreeMap::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let order: Vec<usize> = (0..statements.len()).collect();
    let mut own_lookups = 0;
    let mut rounds = 0;
    let mut log = RoundLog::default();
    while limit.more(0, rounds, started) {
        let mut busy = Duration::ZERO;
        for i in shuffled(&order, &mut rng) {
            let stmt = &statements[i];
            let mut emits = 0u64;
            let mut on_emit = |_: &everest_core::stream::StreamAnswer, took| {
                rec.record("op", took);
                emits += 1;
            };
            // The whole stream is timed, not the emits alone: opening it
            // and the pushes between two emits are the analyst's wait too.
            let streamed = match &mut traced {
                Some(t) => t.stream(&mut session, &stmt.text, &mut on_emit),
                None => {
                    let (out, took) =
                        timed(|| drive_stream(&mut session, &stmt.text, &mut on_emit));
                    out.map(|out| (out, took))
                }
            };
            let verdict = streamed.and_then(|(out, took)| {
                busy += took;
                tally.ops += emits;
                tally.frames += out.stats.n_items as u64;
                tally.add_everest(&out.stats);
                if !out.stats.phase1_cached {
                    return Err("the stream had to prepare its video".into());
                }
                let precision_sum = match first_passes.get(stmt.text.as_str()) {
                    Some(first) => {
                        if first.canonical != canonical_output(&Output::Stream(out)) {
                            return Err("the emitted answers changed between rounds".into());
                        }
                        first.precision_sum
                    }
                    None => {
                        own_lookups += 1;
                        let grid = bucket_grid(&session, &out.plan);
                        let precision_sum = check_stream(&out, &exact[stmt.dataset], grid)?;
                        let canonical = canonical_output(&Output::Stream(out));
                        chk.note_answer(&stmt.text, &canonical);
                        first_passes.insert(
                            &stmt.text,
                            FirstPass {
                                canonical,
                                precision_sum,
                            },
                        );
                        precision_sum
                    }
                };
                tally.add_precision(precision_sum, emits);
                Ok(())
            });
            // Every emit of the stream is an op; a stream that fails,
            // fails all of them (and counts as one if it never emitted).
            chk.ops(&stmt.text, emits.max(1), verdict);
        }
        log.close(busy);
        rounds += 1;
    }
    let mut cache = session.shared_cache().stats();
    cache.hits -= own_lookups + traced.as_ref().map_or(0, |t| t.own_cache_lookups);
    Measured {
        setup_s,
        wall: log.busy(),
        rounds: vec![rounds],
        log,
        rec,
        chk,
        tally,
        cache,
        serve: ServeNumbers::default(),
        traced,
        host_slice_ms: 0.0,
    }
}
