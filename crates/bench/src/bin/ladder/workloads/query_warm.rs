//! `query_warm` — the notebook loop of §1: the videos are prepared once
//! (set-up), then an analyst asks one Top-K question after another.
//!
//! One `Session` holds the five counting datasets' default videos; each
//! round runs, in a fresh seeded order, every statement of
//! K ∈ {5, 50, 200} × confidence ∈ {0.9, 0.99} × {frames, 30-frame
//! windows} that the dataset is long enough for. `phase2` and `evql` do
//! all of the work; `nn` and `video` do none, so a kernel change must not
//! move this workload and a `Select-candidate` / `Topk-prob` change must.

use crate::check::Checker;
use crate::replay::{parse_select, rows_of, Traced};
use crate::run::{
    exact_scores, shuffled, timed, Limit, Measured, RoundLog, ServeNumbers, Setups, Sizes, Tally,
    COUNTING,
};
use crate::stats::Recorder;
use everest_evql::wire::canonical_output;
use everest_evql::{Output, Session, SessionSettings};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

struct Statement {
    text: String,
    dataset: usize,
}

fn statements(datasets: &[&str], settings: &SessionSettings) -> Vec<Statement> {
    let mut out = Vec::new();
    for (dataset, name) in datasets.iter().enumerate() {
        for k in [5, 50, 200] {
            for confidence in ["0.9", "0.99"] {
                for target in ["FRAMES", "WINDOWS OF 30 FRAMES"] {
                    let text =
                        format!("SELECT TOP {k} {target} FROM {name} WITH CONFIDENCE {confidence}");
                    // A short video has fewer than 200 windows; no op of
                    // a workload may fail, so such statements are left out.
                    if parse_select(&text, settings).is_ok() {
                        out.push(Statement { text, dataset });
                    }
                }
            }
        }
    }
    out
}

/// Prepares every dataset on a fresh session: one cold statement each.
fn prepare(datasets: &[&str], settings: &SessionSettings, rec: &mut Recorder) -> Session {
    let mut session = Session::with_settings(settings.clone());
    for name in datasets {
        let stmt = format!("SELECT TOP 50 FRAMES FROM {name}");
        let (out, took) = timed(|| session.execute(&stmt));
        rows_of(out).unwrap_or_else(|e| panic!("set-up `{stmt}` failed: {e}"));
        rec.record("miss", took);
    }
    session
}

/// What the warm workloads start from: a session holding the datasets'
/// default videos, and those videos' exact scores.
pub struct Warm {
    pub session: Session,
    /// Exact per-frame scores, per dataset.
    pub exact: Vec<Vec<f64>>,
    pub setup_s: f64,
}

/// The warm workloads' set-up: Phase 1 of every dataset on a fresh
/// session, `sizes.setups` times over (the last session is kept). Each
/// cold statement's latency is recorded as a `miss`.
pub fn set_up(datasets: &[&str], sizes: Sizes, rec: &mut Recorder) -> Warm {
    let settings = sizes.settings();
    let mut setups = Setups::default();
    let mut session = None;
    for _ in 0..sizes.setups {
        session = Some(setups.pass(|| prepare(datasets, &settings, rec)));
    }
    Warm {
        session: session.expect("at least one set-up pass"),
        exact: datasets
            .iter()
            .map(|name| exact_scores(name, sizes.scale, 0))
            .collect(),
        setup_s: setups.median_s(),
    }
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
            let stmt = &statements[i];
            let answered = match &mut traced {
                Some(t) => t.warm(&mut session, &stmt.text),
                None => {
                    let (out, took) = timed(|| session.execute(&stmt.text));
                    rows_of(out).map(|rows| (rows, took))
                }
            };
            let verdict = answered.and_then(|(out, took)| {
                busy += took;
                rec.record("op", took);
                tally.ops += 1;
                tally.frames += out.stats.n_frames as u64;
                tally.add_everest(&out.stats);
                if !out.stats.phase1_cached {
                    return Err("a warm op had to prepare its video".into());
                }
                match first_answers.get(stmt.text.as_str()) {
                    Some(first) => {
                        if *first != canonical_output(&Output::Rows(out)) {
                            return Err("the answer changed between rounds".into());
                        }
                    }
                    None => {
                        chk.rows(&out, &exact[stmt.dataset])?;
                        let bytes = canonical_output(&Output::Rows(out));
                        chk.note_answer(&stmt.text, &bytes);
                        first_answers.insert(&stmt.text, bytes);
                    }
                }
                Ok(())
            });
            chk.op(&stmt.text, verdict);
        }
        log.close(busy);
        rounds += 1;
    }
    let mut cache = session.shared_cache().stats();
    if let Some(t) = &traced {
        cache.hits -= t.own_cache_lookups;
    }
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
