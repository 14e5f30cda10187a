//! `served_mixed` — the daemon with the real engine, under concurrency.
//!
//! An in-process `everest-serve` daemon is booted with three hot videos
//! loaded through `ServeConfig::warmup`; `nproc` clients (at most two)
//! each run rounds of [`Sizes::hot_run`] hot statements — frame and
//! window Top-K over all hot videos and one `USING scan`. The first
//! client ends each of its rounds with one cold statement whose
//! `WITH SEED` no earlier statement used: a miss by construction, so a
//! full Phase 1 under the shared cache while the other client keeps
//! asking hot questions, then an LRU eviction. One client asks all the
//! cold statements so that two builds never coincide: with both asking,
//! whether they did decided a round's length (0.45 s or 1.2 s a build)
//! and ten runs of one commit spread `ops_per_s` by 21–24 %.
//!
//! The cache holds the hot videos plus two more. The cold client asks
//! for every hot video between any two of its cold statements, so when an
//! insert needs room the least recently used entry is always an earlier
//! cold video; that makes hits, misses and evictions exact functions of
//! the schedule, and the run fails if the daemon's counters differ.

use crate::check::Checker;
use crate::replay::{rows_of, Traced};
use crate::run::{
    exact_scores, shuffled, timed, Limit, Measured, RoundLog, ServeNumbers, Setups, Sizes, Tally,
};
use crate::stats::Recorder;
use everest_evql::shared::CacheStats;
use everest_evql::wire::{canonical_output, Response};
use everest_evql::{ExecStats, Output, Session, SessionSettings, SharedCache};
use everest_serve::{Client, ServeConfig, Server, ServerHandle};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::SocketAddr;
use std::sync::atomic::Ordering;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const HOT: [&str; 3] = ["Archie", "Grand-Canal", "Taipei-bus"];
const COLD: [&str; 2] = ["Daxi-old-street", "Irish-Center"];

/// A hot statement and the in-process answer the daemon's must equal.
struct Hot {
    text: String,
    canonical: Vec<u8>,
    stats: ExecStats,
    scan: bool,
}

fn hot_texts(hot: &[&str]) -> Vec<(String, bool)> {
    let mut out = Vec::new();
    for name in hot {
        out.push((format!("SELECT TOP 5 FRAMES FROM {name}"), false));
        out.push((
            format!("SELECT TOP 50 FRAMES FROM {name} WITH CONFIDENCE 0.99"),
            false,
        ));
        out.push((
            format!("SELECT TOP 20 WINDOWS OF 30 FRAMES FROM {name}"),
            false,
        ));
        out.push((
            format!("SELECT TOP 5 WINDOWS OF 30 FRAMES FROM {name} WITH CONFIDENCE 0.99"),
            false,
        ));
    }
    out.push((
        format!("SELECT TOP 10 FRAMES FROM {} USING scan", hot[0]),
        true,
    ));
    out
}

/// One client's pattern: every Everest statement in turn until the run
/// is full, the scan once, in a seeded order.
fn pattern(hot: &[Hot], hot_run: usize, rng: &mut StdRng) -> Vec<usize> {
    let everest: Vec<usize> = (0..hot.len()).filter(|&i| !hot[i].scan).collect();
    let scan = hot.iter().position(|h| h.scan).expect("one scan statement");
    let mut run: Vec<usize> = everest.iter().copied().cycle().take(hot_run - 1).collect();
    run.push(scan);
    shuffled(&run, rng)
}

struct ClientRun {
    rec: Recorder,
    chk: Checker,
    tally: Tally,
    rounds: usize,
    /// Time inside the round trips of the round under way.
    busy: Duration,
    log: RoundLog,
    /// Cold statements asked (text, dataset, video seed), with the
    /// daemon's canonical answers.
    cold: Vec<(String, &'static str, u64, Vec<u8>)>,
    hot_everest: u64,
    scan_us: Vec<f64>,
    overhead_us: Vec<f64>,
    traced: Option<Traced>,
}

struct Daemon {
    handle: ServerHandle,
    join: JoinHandle<everest_serve::ShutdownReport>,
}

impl Daemon {
    fn boot(cfg: &ServeConfig) -> Daemon {
        let (handle, join) = Server::spawn(cfg.clone()).expect("daemon failed to boot");
        Daemon { handle, join }
    }

    /// Drains the daemon; `Err` when it did not drain cleanly.
    fn stop(self) -> Result<(), String> {
        self.handle.shutdown();
        let report = self.join.join().map_err(|_| "the daemon panicked")?;
        if report.clean() {
            Ok(())
        } else {
            Err(format!("the daemon did not drain cleanly: {report:?}"))
        }
    }
}

pub fn run(seed: u64, limit: &Limit, sizes: Sizes, trace: bool) -> Measured {
    let nproc = std::thread::available_parallelism().map_or(2, |n| n.get());
    let clients = nproc.min(2);
    let hot_names = &HOT[..sizes.datasets.min(HOT.len())];
    let settings = sizes.settings();
    let capacity = hot_names.len() + clients;
    let cfg = ServeConfig {
        workers: nproc,
        cache_capacity: capacity,
        settings: settings.clone(),
        warmup: hot_names
            .iter()
            .map(|name| format!("SELECT TOP 5 FRAMES FROM {name}"))
            .collect(),
        ..ServeConfig::default()
    };

    // Set-up: boot the daemon (bind, warm-up Phase 1 of the hot videos,
    // worker pool). The last boot is the one the run talks to.
    let mut setups = Setups::default();
    let mut daemon = None;
    let mut chk = Checker::default();
    for _ in 0..sizes.setups {
        if let Some(previous) = daemon.take() {
            if let Err(why) = Daemon::stop(previous) {
                chk.fail(why);
            }
        }
        daemon = Some(setups.pass(|| Daemon::boot(&cfg)));
    }
    let daemon = daemon.expect("at least one set-up pass");
    let addr = daemon.handle.addr();

    // The benchmark's own in-process twin of the daemon's sessions: the
    // answers every hot statement must match byte for byte.
    let twin_cache = SharedCache::with_capacity(capacity);
    let mut twin = Session::with_shared_cache(settings.clone(), twin_cache.clone());
    let hot: Vec<Hot> = hot_texts(hot_names)
        .into_iter()
        .map(|(text, scan)| {
            let rows = rows_of(twin.execute(&text))
                .unwrap_or_else(|e| panic!("reference `{text}` failed: {e}"));
            Hot {
                stats: rows.stats.clone(),
                canonical: canonical_output(&Output::Rows(rows)),
                text,
                scan,
            }
        })
        .collect();
    // Every hot answer the daemon gives is compared with these bytes, so
    // they are what the digest covers.
    for h in &hot {
        chk.note_answer(&h.text, &h.canonical);
    }

    let mut serve = ServeNumbers::default();
    if trace {
        let mut probe = Client::connect(addr).expect("connect");
        let pings: Vec<f64> = (0..200u32)
            .map(|i| {
                let (echo, took) = timed(|| probe.ping(i.to_be_bytes().to_vec()));
                echo.expect("ping");
                took.as_secs_f64() * 1e6
            })
            .collect();
        serve.ping_us = pings.iter().sum::<f64>() / pings.len() as f64;
    }

    let started = Instant::now();
    let mut runs: Vec<ClientRun> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients)
            .map(|c| {
                let (hot, settings, twin_cache) = (&hot, &settings, &twin_cache);
                scope.spawn(move || {
                    let twin = trace.then(|| {
                        let mut traced = Traced::new(started, c as u32 * (u32::MAX / 4));
                        // The twins run beside the other client, and the
                        // cold replays after the window are a handful:
                        // the replay code is judged on `ingest_cold` and
                        // `query_warm`.
                        traced.feed_closures = false;
                        let session =
                            Session::with_shared_cache(settings.clone(), twin_cache.clone());
                        (traced, session)
                    });
                    client(c, seed, addr, hot, sizes, limit, started, twin)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client panicked"))
            .collect()
    });
    // The clients run side by side, each for as long as its own rounds
    // take: throughput is the sum of their rates, and the timed wall the
    // time in which that rate completes all their ops.
    let rate: f64 = runs
        .iter()
        .map(|r| r.tally.ops as f64 / r.log.busy().as_secs_f64())
        .sum();
    let ops: u64 = runs.iter().map(|r| r.tally.ops).sum();
    let wall = Duration::from_secs_f64(ops as f64 / rate);

    // The daemon's counters against the schedule's prediction.
    let cold_asked: u64 = runs.iter().map(|r| r.cold.len() as u64).sum();
    let predicted = CacheStats {
        hits: runs.iter().map(|r| r.hot_everest).sum(),
        misses: hot_names.len() as u64 + cold_asked,
        evictions: (hot_names.len() as u64 + cold_asked).saturating_sub(capacity as u64),
        reloads: 0,
    };
    let cache = daemon.handle.cache().stats();
    if cache != predicted {
        chk.fail(format!(
            "daemon cache counters {cache:?} differ from the schedule's {predicted:?}"
        ));
    }
    let metrics = daemon.handle.metrics();
    serve.shed = metrics.shed_queries.load(Ordering::SeqCst);
    serve.errors = metrics.queries_failed.load(Ordering::SeqCst)
        + metrics.protocol_errors.load(Ordering::SeqCst);
    if serve.shed + serve.errors > 0 {
        chk.fail(format!(
            "the daemon shed {} and failed {} queries",
            serve.shed, serve.errors
        ));
    }
    if let Err(why) = daemon.stop() {
        chk.fail(why);
    }

    // Cold answers are verified after the timed window: each needs a
    // Phase 1 of its own on a fresh in-process session (traced, that
    // Phase 1 is the replay the `phase1.*` and `video.*` numbers come
    // from, and nothing else runs beside it).
    for run in &mut runs {
        verify_cold(run, &settings, sizes.scale);
    }

    let rounds: Vec<usize> = runs.iter().map(|r| r.rounds).collect();
    let mut runs = runs.into_iter();
    let mut merged = runs.next().expect("at least one client");
    for run in runs {
        merged.log.merge(run.log);
        merged.rec.merge(run.rec);
        merged.chk.merge(run.chk);
        merged.tally.merge(&run.tally);
        merged.scan_us.extend(run.scan_us);
        merged.overhead_us.extend(run.overhead_us);
        if let (Some(into), Some(from)) = (&mut merged.traced, run.traced) {
            into.merge(from);
        }
    }
    chk.merge(merged.chk);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    serve.roundtrip_scan_us = mean(&merged.scan_us);
    serve.overhead_us = mean(&merged.overhead_us);
    if let Some(t) = &mut merged.traced {
        t.profile_kernels();
    }
    Measured {
        setup_s: setups.median_s(),
        wall,
        rounds,
        log: merged.log,
        rec: merged.rec,
        chk,
        tally: merged.tally,
        cache,
        serve,
        traced: merged.traced,
        host_slice_ms: 0.0,
    }
}

/// One client connection's closed loop.
fn client(
    c: usize,
    seed: u64,
    addr: SocketAddr,
    hot: &[Hot],
    sizes: Sizes,
    limit: &Limit,
    started: Instant,
    mut twin: Option<(Traced, Session)>,
) -> ClientRun {
    let mut conn = Client::connect(addr).expect("connect");
    let mut rng = StdRng::seed_from_u64(seed ^ (c as u64 + 1).wrapping_mul(0x9E37_79B9));
    let pattern = pattern(hot, sizes.hot_run, &mut rng);
    let mut run = ClientRun {
        rec: Recorder::default(),
        chk: Checker::default(),
        tally: Tally::default(),
        rounds: 0,
        busy: Duration::ZERO,
        log: RoundLog::default(),
        cold: Vec::new(),
        hot_everest: 0,
        scan_us: Vec::new(),
        overhead_us: Vec::new(),
        traced: None,
    };
    while limit.more(c, run.rounds, started) {
        for &i in &pattern {
            ask_hot(&mut conn, &hot[i], &mut run, twin.as_mut());
        }
        if c == 0 {
            // The cold videos are the same at every `--seed`: round r
            // always builds the same one, and no two statements of a run
            // share one.
            let dataset = COLD[run.rounds % COLD.len()];
            ask_cold(&mut conn, dataset, 1 + run.rounds as u64, &mut run);
        }
        let busy = std::mem::take(&mut run.busy);
        run.log.close(busy);
        run.rounds += 1;
    }
    run.traced = twin.map(|(traced, _)| traced);
    run
}

fn ask_hot(
    conn: &mut Client,
    hot: &Hot,
    run: &mut ClientRun,
    twin: Option<&mut (Traced, Session)>,
) {
    let asked = Instant::now();
    let response = conn.query(&hot.text);
    let took = asked.elapsed();
    let verdict = match response {
        Ok(Response::Answer { canonical, .. }) if canonical == hot.canonical => Ok(()),
        Ok(Response::Answer { .. }) => Err("differs from the in-process answer".into()),
        Ok(other) => Err(format!("daemon answered {other:?}")),
        Err(e) => Err(format!("connection error: {e}")),
    };
    run.busy += took;
    run.rec.record("op", took);
    run.tally.ops += 1;
    run.tally.frames += hot.stats.n_frames as u64;
    run.tally.add_everest(&hot.stats);
    if hot.scan {
        run.scan_us.push(took.as_secs_f64() * 1e6);
    } else {
        run.hot_everest += 1;
    }
    run.chk.op(&hot.text, verdict);
    // Traced run: the same statement in process, decomposed; what the
    // round trip took beyond it is the serve layer's own time.
    if let Some((traced, session)) = twin {
        let in_process = if hot.scan {
            let (out, in_process) = timed(|| session.execute(&hot.text));
            rows_of(out).map(|_| in_process)
        } else {
            traced
                .warm(session, &hot.text)
                .map(|(_, in_process)| in_process)
        };
        match in_process {
            Ok(in_process) => {
                let overhead = took.saturating_sub(in_process);
                traced.serve_overhead(overhead);
                run.overhead_us.push(overhead.as_secs_f64() * 1e6);
            }
            Err(why) => run
                .chk
                .fail(format!("in-process twin of `{}`: {why}", hot.text)),
        }
    }
}

fn ask_cold(conn: &mut Client, dataset: &'static str, video_seed: u64, run: &mut ClientRun) {
    let text = format!("SELECT TOP 50 FRAMES FROM {dataset} WITH SEED {video_seed}");
    let (response, took) = timed(|| conn.query(&text));
    run.busy += took;
    run.tally.ops += 1;
    match response {
        Ok(Response::Answer { canonical, .. }) => {
            run.rec.record("miss", took);
            run.cold.push((text, dataset, video_seed, canonical));
        }
        Ok(other) => run.chk.op(&text, Err(format!("daemon answered {other:?}"))),
        Err(e) => run.chk.op(&text, Err(format!("connection error: {e}"))),
    }
}

/// Replays each cold statement on a fresh in-process session and checks
/// the daemon's answer against it and against exact ground truth.
fn verify_cold(run: &mut ClientRun, settings: &SessionSettings, scale: usize) {
    for (text, dataset, video_seed, served) in std::mem::take(&mut run.cold) {
        let answered = match &mut run.traced {
            Some(t) => t.cold(&text, settings).map(|(rows, _)| rows),
            None => rows_of(Session::with_settings(settings.clone()).execute(&text)),
        };
        let verdict = answered.and_then(|rows| {
            // The quality metrics cover the hot statements only: how
            // many cold ones a run asks depends on the host's speed.
            run.tally.frames += rows.stats.n_frames as u64;
            run.chk
                .rows(&rows, &exact_scores(dataset, scale, video_seed))?;
            let canonical = canonical_output(&Output::Rows(rows));
            run.chk.note_answer(&text, &canonical);
            if canonical != served {
                return Err("differs from the in-process answer".into());
            }
            Ok(())
        });
        run.chk.op(&text, verdict);
    }
}
