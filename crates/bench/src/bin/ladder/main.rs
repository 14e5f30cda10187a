//! The Everest ladder: the repository's benchmark.
//!
//! ```text
//! ladder --workload <ingest_cold|query_warm|stream_live|served_mixed>
//!        --seed <u64> [--seconds <s> | --rounds <n>[,<n>…]]
//!        [--trace <0|1>] [--smoke] [--aa]
//! ```
//!
//! One invocation runs one workload in its own process, checks every
//! answer, prints every metric by name with its unit and sample count,
//! and ends with one JSON line (`correct`, `attempted`, `failed`,
//! `metrics`). Without `--trace` the metrics are the end-to-end ones;
//! with it the workload is run as traced replays and the metrics are the
//! per-layer ones (spans go to `target/ladder/trace_<workload>.json`).
//! `--aa` runs the workload twice and fails if the two runs disagree
//! beyond the metrics' own bounds. See `README.md` beside this file.

mod check;
mod metrics;
mod replay;
mod run;
mod seams;
mod spans;
mod stats;
mod workloads;

use metrics::{Better, END_TO_END, PER_LAYER};
use run::{Limit, Measured, Sizes};
use serde::value::Value;
use spans::{spans_to_json, Closure};
use std::process::ExitCode;

/// What `BENCHMARK.json`'s `run_seconds` is, for runs started by hand.
const DEFAULT_SECONDS: f64 = 10.0;

struct Args {
    workload: String,
    seed: u64,
    limit: Limit,
    trace: bool,
    smoke: bool,
    aa: bool,
}

fn usage(problem: &str) -> ! {
    eprintln!(
        "ladder: {problem}\n\
         usage: ladder --workload <{}> --seed <u64>\n\
         \u{20}             [--seconds <s> | --rounds <n>[,<n>...]] [--trace <0|1>] [--smoke] [--aa]",
        workloads::WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args(argv: impl Iterator<Item = String>) -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        limit: Limit::Seconds(DEFAULT_SECONDS),
        trace: false,
        smoke: false,
        aa: false,
    };
    let mut argv = argv.peekable();
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| {
            argv.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs {what}")))
        };
        match flag.as_str() {
            "--workload" => args.workload = value("a workload name"),
            "--seed" => {
                args.seed = value("a seed")
                    .parse()
                    .unwrap_or_else(|_| usage("--seed takes a u64"))
            }
            "--seconds" => {
                let seconds: f64 = value("a duration")
                    .parse()
                    .unwrap_or_else(|_| usage("--seconds takes a number"));
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    usage("--seconds must lie in (0, 3600]");
                }
                args.limit = Limit::Seconds(seconds);
            }
            "--rounds" => {
                let rounds: Vec<usize> = value("round counts")
                    .split(',')
                    .map(|n| {
                        n.parse()
                            .unwrap_or_else(|_| usage("--rounds takes integers"))
                    })
                    .collect();
                if rounds.contains(&0) {
                    usage("--rounds must be at least 1");
                }
                args.limit = Limit::Rounds(rounds);
            }
            "--trace" => {
                args.trace = match value("0 or 1").as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--smoke" => args.smoke = true,
            "--aa" => args.aa = true,
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    if !workloads::WORKLOADS.contains(&args.workload.as_str()) {
        usage("--workload must name one of the four workloads");
    }
    args
}

/// The outcome of one run, ready to print.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// `(name, value, unit, better)` in table order.
    metrics: Vec<(&'static str, f64, &'static str, Better)>,
    problems: Vec<String>,
    digest: u64,
    rounds: Vec<usize>,
}

fn report(m: &Measured) -> Report {
    let mut problems = m.chk.messages.clone();
    let metrics = match &m.traced {
        None => END_TO_END
            .iter()
            .zip(metrics::end_to_end(m))
            .map(|(def, v)| (def.name, v, def.unit, def.better))
            .collect(),
        Some(traced) => {
            if !traced.checks.ok() {
                problems.extend(traced.checks.failures.iter().cloned());
            }
            for (name, closure) in &traced.closures {
                if !closure.holds() {
                    problems.push(format!(
                        "{name} = {:.3} lies outside [{}, {}]: the replay's stages do not add up to the engine's call",
                        closure.ratio().unwrap_or(0.0),
                        Closure::BAND.0,
                        Closure::BAND.1
                    ));
                }
            }
            PER_LAYER
                .iter()
                .zip(metrics::per_layer(m, traced))
                .map(|(def, v)| (def.name, v, def.unit, def.better))
                .collect()
        }
    };
    Report {
        correct: m.chk.failed == 0 && problems.is_empty(),
        attempted: m.chk.attempted,
        failed: m.chk.failed,
        metrics,
        problems,
        digest: m.chk.digest(),
        rounds: m.rounds.clone(),
    }
}

fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn text(s: impl Into<String>) -> Value {
    Value::Str(s.into())
}

/// The vendored `serde_json` prints a `serde` value tree.
struct Json(Value);

impl serde::Serialize for Json {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

fn to_json(v: Value) -> String {
    serde_json::to_string(&Json(v)).expect("a value tree always prints")
}

/// Run metadata: printed with every result and written into the trace.
fn metadata(args: &Args, sizes: Sizes, r: &Report, m: &Measured) -> Value {
    obj(vec![
        ("workload", text(&args.workload)),
        ("seed", Value::Int(args.seed as i128)),
        ("commit", text(git_commit())),
        (
            "nproc",
            Value::Int(std::thread::available_parallelism().map_or(0, |n| n.get()) as i128),
        ),
        (
            "simd_active",
            Value::Bool(everest_nn::kernels::simd_active()),
        ),
        ("sizes", text(sizes.describe())),
        ("traced", Value::Bool(args.trace)),
        (
            "rounds",
            Value::Array(r.rounds.iter().map(|&n| Value::Int(n as i128)).collect()),
        ),
        ("timed_s", Value::Float(m.wall.as_secs_f64())),
        ("host_slice_ms", Value::Float(m.host_slice_ms)),
        (
            "round_s",
            Value::Array(m.log.busy_s.iter().map(|&s| Value::Float(s)).collect()),
        ),
        ("op_samples", Value::Int(m.rec.n("op") as i128)),
        ("miss_samples", Value::Int(m.rec.n("miss") as i128)),
        ("digest", text(format!("{:016x}", r.digest))),
    ])
}

fn print_report(args: &Args, sizes: Sizes, r: &Report, m: &Measured, meta: Value) {
    println!(
        "ladder {} seed={} {} rounds={:?} timed={:.2}s",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        r.rounds,
        m.wall.as_secs_f64()
    );
    for &(name, value, unit, better) in &r.metrics {
        let n = match name {
            "op_p50_ms" | "op_p99_ms" | "ops_per_s" => format!("  (n={})", m.rec.n("op")),
            "miss_p50_ms" => format!("  (n={})", m.rec.n("miss")),
            "setup_s" => format!("  (median of {})", sizes.setups),
            _ => String::new(),
        };
        println!(
            "  {name:<32} {value:>16.6} {unit:<8} {} is better{n}",
            better.as_str()
        );
    }
    println!(
        "  attempted={} failed={} digest={:016x}",
        r.attempted, r.failed, r.digest
    );
    for problem in &r.problems {
        println!("  PROBLEM: {problem}");
    }
    println!("{}", to_json(obj(vec![("meta", meta)])));
    let metrics = r
        .metrics
        .iter()
        .map(|&(name, value, unit, _)| {
            (
                name,
                obj(vec![("value", Value::Float(value)), ("unit", text(unit))]),
            )
        })
        .collect();
    println!(
        "{}",
        to_json(obj(vec![
            ("correct", Value::Bool(r.correct)),
            ("attempted", Value::Int(r.attempted as i128)),
            ("failed", Value::Int(r.failed as i128)),
            ("metrics", obj(metrics)),
        ]))
    );
}

fn write_trace(args: &Args, m: &Measured, meta: Value) -> std::io::Result<()> {
    let Some(traced) = &m.traced else {
        return Ok(());
    };
    let dir = std::path::Path::new("target").join("ladder");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace_{}.json", args.workload));
    let trace = obj(vec![
        ("meta", meta),
        ("spans", spans_to_json(traced.tracer.spans())),
    ]);
    std::fs::write(&path, to_json(trace))?;
    println!(
        "  trace: {} spans -> {}",
        traced.tracer.spans().len(),
        path.display()
    );
    Ok(())
}

fn run_once(args: &Args) -> ExitCode {
    let sizes = if args.smoke {
        Sizes::smoke()
    } else {
        Sizes::full()
    };
    let measured = workloads::run(&args.workload, args.seed, &args.limit, sizes, args.trace)
        .expect("the workload name was validated");
    let r = report(&measured);
    let meta = metadata(args, sizes, &r, &measured);
    if let Err(e) = write_trace(args, &measured, meta.clone()) {
        eprintln!("ladder: could not write the trace: {e}");
        return ExitCode::from(1);
    }
    print_report(args, sizes, &r, &measured, meta);
    if r.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// One child run of `--aa`: its metrics, counts and metadata.
struct ChildRun {
    correct: bool,
    attempted: i128,
    failed: i128,
    metrics: Vec<(String, f64)>,
    rounds: Vec<usize>,
    digest: String,
}

fn child_run(args: &Args, limit: &Limit) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args([
        "--workload",
        &args.workload,
        "--seed",
        &args.seed.to_string(),
    ]);
    match limit {
        Limit::Seconds(s) => cmd.args(["--seconds", &s.to_string()]),
        Limit::Rounds(r) => {
            let list: Vec<String> = r.iter().map(usize::to_string).collect();
            cmd.args(["--rounds", &list.join(",")])
        }
    };
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let parse = |line: Option<&str>| {
        serde_json::value_from_str(line.unwrap_or("")).map_err(|e| format!("child output: {e}"))
    };
    let result = parse(lines.next())?;
    let meta = parse(lines.next())?;
    let meta = meta.get("meta").ok_or("child printed no metadata")?;
    let int = |v: Option<&Value>| match v {
        Some(Value::Int(i)) => Ok(*i),
        other => Err(format!("expected an integer, found {other:?}")),
    };
    let metrics = result
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or("child printed no metrics")?
        .iter()
        .map(|(name, m)| match m.get("value") {
            Some(Value::Float(f)) => Ok((name.clone(), *f)),
            Some(Value::Int(i)) => Ok((name.clone(), *i as f64)),
            other => Err(format!("metric {name}: {other:?}")),
        })
        .collect::<Result<_, _>>()?;
    let rounds = meta
        .get("rounds")
        .and_then(Value::as_array)
        .ok_or("child printed no rounds")?
        .iter()
        .map(|v| int(Some(v)).map(|i| i as usize))
        .collect::<Result<_, _>>()?;
    Ok(ChildRun {
        correct: matches!(result.get("correct"), Some(Value::Bool(true))),
        attempted: int(result.get("attempted"))?,
        failed: int(result.get("failed"))?,
        metrics,
        rounds,
        digest: match meta.get("digest") {
            Some(Value::Str(s)) => s.clone(),
            other => return Err(format!("digest: {other:?}")),
        },
    })
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
fn worsening(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// `--aa`: the same workload twice, each in a process of its own. The
/// second run repeats the first one's rounds exactly, so counts and the
/// digest must be equal and timings must agree within their bounds.
fn run_aa(args: &Args) -> ExitCode {
    let first = child_run(args, &args.limit);
    let second = first
        .as_ref()
        .map_err(String::clone)
        .and_then(|a| child_run(args, &Limit::Rounds(a.rounds.clone())));
    let (a, b) = match (first, second) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("ladder --aa: {e}");
            return ExitCode::from(1);
        }
    };
    let mut ok = a.correct && b.correct;
    println!(
        "A/A {} seed={} rounds={:?}",
        args.workload, args.seed, a.rounds
    );
    println!(
        "  {:<16} {:>16} {:>16} {:>9} {:>7}",
        "metric", "run A", "run B", "differs", "bound"
    );
    for def in &END_TO_END {
        let value = |run: &ChildRun| {
            run.metrics
                .iter()
                .find(|(name, _)| name == def.name)
                .map_or(f64::NAN, |(_, v)| *v)
        };
        let (va, vb) = (value(&a), value(&b));
        let differs = worsening(def.better, va, vb).abs();
        let agree = if def.count {
            va == vb
        } else {
            differs <= def.bound
        };
        ok &= agree;
        println!(
            "  {:<16} {:>16.6} {:>16.6} {:>8.2}% {:>6.0}%{}",
            def.name,
            va,
            vb,
            differs * 100.0,
            def.bound * 100.0,
            match (agree, def.count) {
                (true, _) => "",
                (false, true) => "  <- a count; must be equal",
                (false, false) => "  <- beyond the bound",
            }
        );
    }
    let same_counts = (a.attempted, a.failed, &a.digest) == (b.attempted, b.failed, &b.digest);
    println!(
        "  attempted {} / {}  failed {} / {}  digest {} / {}{}",
        a.attempted,
        b.attempted,
        a.failed,
        b.failed,
        a.digest,
        b.digest,
        if same_counts {
            ""
        } else {
            "  <- must be equal"
        }
    );
    if ok && same_counts {
        println!("  A/A holds");
        ExitCode::SUCCESS
    } else {
        println!("  A/A FAILED");
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args = parse_args(std::env::args().skip(1));
    if args.aa {
        run_aa(&args)
    } else {
        run_once(&args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: &str, trace: bool) -> Measured {
        workloads::run(workload, 11, &Limit::Rounds(vec![1]), Sizes::smoke(), trace)
            .expect("a known workload")
    }

    /// Every workload body, once, at smoke size: all answers pass their
    /// checks, every end-to-end metric is a positive number, and the same
    /// seed gives the same digest.
    #[test]
    fn every_workload_passes_its_checks_at_smoke_size() {
        for workload in workloads::WORKLOADS {
            let m = smoke(workload, false);
            let r = report(&m);
            assert!(r.correct, "{workload}: {:?}", r.problems);
            assert!(r.attempted >= 1, "{workload} attempted nothing");
            assert_eq!(r.metrics.len(), END_TO_END.len());
            for &(name, value, _, _) in &r.metrics {
                assert!(
                    value.is_finite() && value > 0.0,
                    "{workload} {name} = {value}"
                );
            }
            assert_eq!(
                report(&smoke(workload, false)).digest,
                r.digest,
                "{workload}: two runs at one seed must agree"
            );
        }
    }

    /// The traced bodies: every replay equals the engine's own call (the
    /// closure bands are timing and are not asserted at smoke size).
    #[test]
    fn every_traced_replay_matches_the_engine_at_smoke_size() {
        for workload in workloads::WORKLOADS {
            let m = smoke(workload, true);
            let traced = m.traced.as_ref().expect("a traced run");
            assert!(m.chk.failed == 0, "{workload}: {:?}", m.chk.messages);
            assert!(traced.checks.checked > 0, "{workload} replayed nothing");
            assert!(
                traced.checks.ok(),
                "{workload}: {:?}",
                traced.checks.failures
            );
            let values = metrics::per_layer(&m, traced);
            assert_eq!(values.len(), PER_LAYER.len());
            assert!(
                values.iter().all(|v| v.is_finite()),
                "{workload}: {values:?}"
            );
        }
    }

    /// A deliberately wrong answer is counted as a failed op and fails
    /// the run.
    #[test]
    fn a_wrong_answer_raises_failed_and_fails_the_run() {
        let sizes = Sizes::smoke();
        let mut session = everest_evql::Session::with_settings(sizes.settings());
        let stmt = "SELECT TOP 5 FRAMES FROM Archie";
        let rows = replay::rows_of(session.execute(stmt)).expect("a row answer");
        let exact = run::exact_scores("Archie", sizes.scale, 0);
        let mut m = smoke("query_warm", false);
        assert!(report(&m).correct);
        let verdict = m.chk.rows(&rows, &exact);
        m.chk.op(stmt, verdict);
        assert!(report(&m).correct, "the true answer passes");
        m.chk.corrupt_next = true;
        let verdict = m.chk.rows(&rows, &exact);
        m.chk.op(stmt, verdict);
        let r = report(&m);
        assert_eq!(r.failed, 1);
        assert!(!r.correct);
        assert!(r.problems[0].contains("reported"), "{:?}", r.problems);
    }

    #[test]
    fn arguments_parse_as_the_driver_passes_them() {
        let argv = "--workload stream_live --seed 42 --seconds 7 --trace 1";
        let args = parse_args(argv.split(' ').map(String::from));
        assert_eq!(
            (args.workload.as_str(), args.seed, args.trace),
            ("stream_live", 42, true)
        );
        assert!(matches!(args.limit, Limit::Seconds(s) if s == 7.0));
        let args = parse_args(
            "--workload served_mixed --rounds 3,2"
                .split(' ')
                .map(String::from),
        );
        assert!(matches!(args.limit, Limit::Rounds(ref r) if r == &[3, 2]));
        assert!(!args.trace);
    }

    #[test]
    fn worsening_follows_the_better_direction() {
        assert_eq!(worsening(Better::Lower, 10.0, 11.0), 0.1);
        assert_eq!(worsening(Better::Higher, 10.0, 9.0), 0.1);
        assert!(worsening(Better::Higher, 10.0, 12.0) < 0.0);
    }
}
