//! `ingest_cold` — time to first answer on a video nobody has queried.
//!
//! Every op is `SELECT TOP 50 FRAMES FROM <d> WITH SEED <s>` on a fresh
//! `Session`, so every op builds the video, runs the difference detector,
//! trains a CMDN and scores every retained frame before Phase 2 starts.
//! `video`, `nn` and `phase1` do nearly all of the work: this is where a
//! kernel, a forward-pass or a diff-scan change must show.
//!
//! The three videos are the same in every round and at every `--seed`
//! (the seed orders them): what an op costs and how well Phase 2 does on
//! it depend on the video, and a benchmark whose videos changed with the
//! seed or the number of rounds could not tell a change in the engine
//! from a change of input.

use crate::check::Checker;
use crate::replay::{rows_of, Traced};
use crate::run::{
    exact_scores, shuffled, timed, Limit, Measured, RoundLog, ServeNumbers, Setups, Sizes, Tally,
};
use crate::stats::Recorder;
use everest_evql::shared::CacheStats;
use everest_evql::wire::canonical_output;
use everest_evql::{Output, Session};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

const DATASETS: [&str; 3] = ["Taipei-bus", "Irish-Center", "Grand-Canal"];
/// Not 0, the catalog's default videos, which the other workloads run on.
/// And 2 rather than 1: at seed 1 all three answers are exact, a ceiling
/// from which `topk_precision` could only ever fall, while the seed-2
/// Taipei-bus video is one the engine gets 54 % right at a claimed
/// confidence of 0.9 — the benchmark keeps one such case in view.
const VIDEO_SEED: u64 = 2;

fn statement(dataset: &str) -> String {
    format!("SELECT TOP 50 FRAMES FROM {dataset} WITH SEED {VIDEO_SEED}")
}

pub fn run(seed: u64, limit: &Limit, sizes: Sizes, trace: bool) -> Measured {
    let datasets = &DATASETS[DATASETS.len() - sizes.datasets.min(DATASETS.len())..];
    let settings = sizes.settings();

    // Set-up: one warm-up op on the smallest video, so worker threads,
    // allocator arenas and page tables exist before the first timed op.
    let warm_up = statement(datasets[datasets.len() - 1]);
    let mut setups = Setups::default();
    for _ in 0..sizes.setups {
        setups.pass(|| {
            let out = Session::with_settings(settings.clone()).execute(&warm_up);
            rows_of(out).unwrap_or_else(|e| panic!("warm-up `{warm_up}` failed: {e}"));
        });
    }
    let statements: Vec<String> = datasets.iter().map(|d| statement(d)).collect();
    let exact: Vec<Vec<f64>> = datasets
        .iter()
        .map(|d| exact_scores(d, sizes.scale, VIDEO_SEED))
        .collect();

    let started = Instant::now();
    let mut traced = trace.then(|| Traced::new(started, 0));
    let (mut rec, mut chk, mut tally) = (Recorder::default(), Checker::default(), Tally::default());
    // Rounds repeat the same statements on the same videos, so an answer
    // is checked row by row once and byte for byte ever after.
    let mut first_answers: BTreeMap<&str, Vec<u8>> = BTreeMap::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let order: Vec<usize> = (0..statements.len()).collect();
    let mut rounds = 0;
    let mut log = RoundLog::default();
    while limit.more(0, rounds, started) {
        let mut busy = Duration::ZERO;
        for i in shuffled(&order, &mut rng) {
            let stmt = statements[i].as_str();
            let answered = match &mut traced {
                Some(t) => t.cold(stmt, &settings),
                None => {
                    let mut session = Session::with_settings(settings.clone());
                    let (out, took) = timed(|| session.execute(stmt));
                    rows_of(out).map(|rows| (rows, took))
                }
            };
            let verdict = answered.and_then(|(out, took)| {
                busy += took;
                rec.record("op", took);
                rec.record("miss", took);
                tally.ops += 1;
                tally.frames += out.stats.n_frames as u64;
                tally.add_everest(&out.stats);
                if out.stats.phase1_cached {
                    return Err("a cold op was served from a cache".into());
                }
                match first_answers.get(stmt) {
                    Some(first) => {
                        if *first != canonical_output(&Output::Rows(out)) {
                            return Err("the answer changed between rounds".into());
                        }
                    }
                    None => {
                        chk.rows(&out, &exact[i])?;
                        let bytes = canonical_output(&Output::Rows(out));
                        chk.note_answer(stmt, &bytes);
                        first_answers.insert(stmt, bytes);
                    }
                }
                Ok(())
            });
            chk.op(stmt, verdict);
        }
        log.close(busy);
        rounds += 1;
    }
    if let Some(t) = &mut traced {
        t.profile_kernels();
    }
    Measured {
        setup_s: setups.median_s(),
        wall: log.busy(),
        rounds: vec![rounds],
        log,
        // Every op owns its session and cache; the check above is what
        // establishes that each one missed.
        cache: CacheStats {
            misses: tally.ops,
            ..CacheStats::default()
        },
        rec,
        chk,
        tally,
        serve: ServeNumbers::default(),
        traced,
        host_slice_ms: 0.0,
    }
}
