//! The paper's §4 evaluation as EVQL statements: Table 7, Figures 4–9,
//! Table 8 and the batch-size / ψ re-sort ablations. Every row is one
//! statement run through a single [`Session`] at its default scale and
//! printed beside the [`ExecStats`](everest_evql::ExecStats) it answered
//! with, so any row re-runs alone as `everest-cli -e "<statement>"`
//! (another scale is `SET scale = n` there).
//!
//! ```text
//! cargo run --release -q -p everest-bench --bin figures
//! ```

use everest_core::sim::component;
use everest_evql::catalog::{catalog, SourceEntry, SourceKind};
use everest_evql::{Engine, Output, QueryOutput, Session};

/// The paper's headline K (Top-50).
const K: usize = 50;

fn main() {
    let sources = catalog();
    let mut session = Session::new();
    // Room for every source: each is prepared once for the whole run.
    session.shared_cache().set_capacity(sources.len());
    let scale = session.settings.scale;
    let of_kind = |pick: fn(&SourceKind) -> bool| -> Vec<&SourceEntry> {
        sources.iter().filter(|s| pick(&s.kind)).collect()
    };
    let counting = of_kind(|k| matches!(k, SourceKind::Counting(_)));
    let visual_road = of_kind(|k| matches!(k, SourceKind::VisualRoad(_)));
    let dashcams = of_kind(|k| matches!(k, SourceKind::Dashcam(..)));
    let frames = |s: &SourceEntry, k: usize, thres: f64| {
        format!(
            "SELECT TOP {k} FRAMES FROM {} WITH CONFIDENCE {thres}",
            s.name
        )
    };
    // K follows the paper's Top-50 where the video has enough windows,
    // else a third of the window count.
    let windows = |s: &SourceEntry, len: usize| {
        let k = K.min((s.scaled_frames(scale).div_ceil(len) / 3).max(1));
        format!(
            "SELECT TOP {k} WINDOWS OF {len} FRAMES FROM {} WITH CONFIDENCE 0.9, SAMPLE 0.1",
            s.name
        )
    };

    table7(&sources, scale);
    figure(
        &mut session,
        &format!("Figure 4: every engine, Top-{K} thres=0.9"),
        counting.iter().flat_map(|s| {
            Engine::all().map(|e| {
                format!(
                    "SELECT TOP {K} FRAMES FROM {} USING {} WITH CONFIDENCE 0.9",
                    s.name,
                    e.display()
                )
            })
        }),
        numbers,
    );
    figure(
        &mut session,
        &format!("Table 8: latency breakdown, Top-{K} thres=0.9"),
        counting.iter().map(|s| frames(s, K, 0.9)),
        table8,
    );
    figure(
        &mut session,
        "Figure 5: impact of K, thres=0.9",
        counting
            .iter()
            .flat_map(|s| [5, 10, 25, 50, 75, 100].map(|k| frames(s, k, 0.9))),
        numbers,
    );
    figure(
        &mut session,
        &format!("Figure 6: impact of thres, Top-{K}"),
        counting
            .iter()
            .flat_map(|s| [0.5, 0.75, 0.9, 0.95, 0.99].map(|t| frames(s, K, t))),
        numbers,
    );
    figure(
        &mut session,
        "Figure 7: window sizes, thres=0.9, 10% sampling",
        counting
            .iter()
            .flat_map(|s| [1, 30, 60, 150, 300].map(|len| windows(s, len))),
        numbers,
    );
    figure(
        &mut session,
        &format!("Figure 8: Visual Road object density, Top-{K} thres=0.9"),
        visual_road.iter().map(|s| frames(s, K, 0.9)),
        numbers,
    );
    figure(
        &mut session,
        "Figure 9: dashcams under their default score, the tailgating() depth UDF",
        dashcams.iter().flat_map(|s| {
            [(K, 0.9), (2 * K, 0.9), (K, 0.75)]
                .map(|(k, t)| frames(s, k, t))
                .into_iter()
                .chain([windows(s, 30)])
        }),
        numbers,
    );
    let smallest = counting[0];
    figure(
        &mut session,
        &format!("Ablation: batch size b vs oracle work ({})", smallest.name),
        [1, 4, 8, 16, 32].map(|b| format!("{}, BATCH {b}", frames(smallest, K, 0.9))),
        numbers,
    );
    figure(
        &mut session,
        &format!("Ablation: ψ re-sort period ({})", smallest.name),
        [1, 10, 50].map(|r| format!("{}, RESORT {r}", frames(smallest, K, 0.9))),
        numbers,
    );
}

/// Table 7: every catalog source at the session's scale, with the
/// paper's columns for the counting datasets.
fn table7(sources: &[SourceEntry], scale: usize) {
    println!("\n===== Table 7: dataset characteristics (scale 1/{scale}) =====");
    println!(
        "{:<18} {:<14} {:>4} {:>11} {:>12} {:>9} {:>7} {:>7}",
        "video", "score", "fps", "resolution", "paper-frames", "paper-hrs", "frames", "minutes"
    );
    for s in sources {
        let paper = match &s.kind {
            SourceKind::Counting(d) => [
                format!("{}x{}", d.paper_resolution.0, d.paper_resolution.1),
                format!("{}k", d.paper_frames_k),
                format!("{:.1}", d.paper_hours),
            ],
            _ => ["-".into(), "-".into(), "-".into()],
        };
        let n = s.scaled_frames(scale);
        println!(
            "{:<18} {:<14} {:>4} {:>11} {:>12} {:>9} {:>7} {:>7.1}",
            s.name,
            s.default_score.display(),
            s.fps,
            paper[0],
            paper[1],
            paper[2],
            n,
            n as f64 / s.fps / 60.0
        );
    }
}

/// Runs each statement and prints it beside `row`'s rendering of its
/// answer, or beside EVQL's error text when EVQL rejects it.
fn figure(
    session: &mut Session,
    title: &str,
    statements: impl IntoIterator<Item = String>,
    row: fn(&Session, &QueryOutput) -> String,
) {
    println!("\n===== {title} =====");
    let statements: Vec<String> = statements.into_iter().collect();
    let width = statements.iter().map(String::len).max().unwrap_or(0);
    for stmt in &statements {
        match session.execute(stmt) {
            Ok(Output::Rows(out)) => println!("{stmt:<width$}  {}", row(session, &out)),
            Ok(other) => panic!("`{stmt}` answered with something other than rows: {other:?}"),
            Err(e) => println!("{stmt:<width$}  error: {e}"),
        }
    }
}

/// The figures' columns, in the CLI's precision.
fn numbers(_: &Session, out: &QueryOutput) -> String {
    let stats = &out.stats;
    let mut out = format!("speedup {:>6.1}x", stats.speedup);
    match &stats.quality {
        Some(q) => out.push_str(&format!(
            "  precision {:.3}  rank-dist {:.4}  score-err {:.3}",
            q.precision, q.rank_distance, q.score_error
        )),
        None => out.push_str("  (fewer than K items)"),
    }
    out.push_str(&format!("  sim {:.1}s", stats.sim_seconds));
    if let (Some(iterations), Some(cleaned)) = (stats.iterations, stats.cleaned) {
        out.push_str(&format!("  iterations {iterations}  cleaned {cleaned}"));
    }
    out
}

/// A Table 8 row: (a) the simulated-latency split over Everest's
/// components and (b) Phase-2 iterations and share of frames cleaned.
///
/// `ExecStats` carries no per-component clock, so the statement's Phase 2
/// is re-run on the session's cached preparation with the plan's cleaner
/// configuration; the re-run must reproduce the statement's iterations,
/// cleaned count and simulated seconds bit for bit, so the split describes
/// the answer it is printed beside.
fn table8(session: &Session, out: &QueryOutput) -> String {
    let plan = &out.plan;
    let (entry, _) = session.shared_cache().get_or_build(&plan.cache_key(), || {
        panic!("a Table 8 statement left no preparation in the session cache")
    });
    let report = entry
        .prepared
        .query_topk(&entry.oracle, plan.k, plan.thres, &plan.cleaner(None));
    assert_eq!(Some(report.iterations), out.stats.iterations);
    assert_eq!(Some(report.cleaned), out.stats.cleaned);
    assert_eq!(
        report.sim_seconds().to_bits(),
        out.stats.sim_seconds.to_bits()
    );
    let c = &report.clock;
    format!(
        "label {:>5.2}%  train {:>5.2}%  populate {:>5.2}%  select {:>5.2}%  confirm {:>5.2}%  \
         | iterations {}  cleaned {:.2}%",
        100.0 * c.fraction(component::LABEL),
        100.0 * c.fraction(component::TRAIN),
        100.0 * c.fraction(component::POPULATE),
        100.0 * c.fraction(component::SELECT),
        100.0 * c.fraction(component::CONFIRM),
        report.iterations,
        100.0 * report.pct_cleaned(),
    )
}
