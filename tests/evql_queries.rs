//! Integration tests: EVQL front end driving the full Everest engine.
//!
//! These exercise the complete chain — lexer → parser → analysis → catalog
//! → Phase 1 (CMDN) → Phase 2 (oracle-in-the-loop cleaning) — on
//! floor-scaled datasets (2 000 frames), including the §4 baselines as
//! alternative engines and the §3.4 window path.

use everest::evql::{Output, Session};
use everest::video::store::DecodeCostModel;

fn fast_session() -> Session {
    let mut s = Session::new();
    s.settings.scale = 1_000; // floors every dataset at 2 000 frames
    s
}

fn rows(session: &mut Session, q: &str) -> everest::evql::QueryOutput {
    match session
        .execute(q)
        .unwrap_or_else(|e| panic!("{}", e.render(q)))
    {
        Output::Rows(o) => o,
        other => panic!("expected rows for {q}, got {other:?}"),
    }
}

#[test]
fn everest_and_scan_agree_on_the_top_frames() {
    let mut s = fast_session();
    let everest = rows(&mut s, "SELECT TOP 10 FRAMES FROM Archie WITH SEED 11");
    let scan = rows(
        &mut s,
        "SELECT TOP 10 FRAMES FROM Archie USING scan WITH SEED 11",
    );

    assert!(everest.stats.confidence.unwrap() >= 0.9);
    assert_eq!(everest.stats.converged, Some(true));

    // Every speedup divides scan-and-test's own cost: a frame scan is its
    // own denominator.
    assert_eq!(
        scan.stats.sim_seconds.to_bits(),
        scan.stats.scan_seconds.to_bits()
    );
    assert_eq!(scan.stats.speedup, 1.0);

    // Tie-aware agreement: every Everest frame's exact score must reach
    // the scan answer's K-th score (both engines read the same oracle).
    let kth = scan.rows.last().unwrap().score;
    for row in &everest.rows {
        assert!(
            row.score >= kth,
            "frame {} score {} below scan's k-th {}",
            row.start_frame,
            row.score,
            kth
        );
    }
    // Everest must beat the scan on simulated time.
    assert!(
        everest.stats.sim_seconds < scan.stats.sim_seconds,
        "everest {}s vs scan {}s",
        everest.stats.sim_seconds,
        scan.stats.sim_seconds
    );
}

#[test]
fn window_query_via_evql_meets_guarantee() {
    let mut s = fast_session();
    let out = rows(
        &mut s,
        "SELECT TOP 3 WINDOWS OF 50 FRAMES FROM Archie WITH SAMPLE 0.5, SEED 11",
    );
    assert_eq!(out.rows.len(), 3);
    assert!(out.stats.confidence.unwrap() >= 0.9);
    for row in &out.rows {
        assert!(row.end_frame - row.start_frame <= 50);
        assert_eq!(
            row.start_frame % 50,
            0,
            "tumbling windows start on boundaries"
        );
    }
}

#[test]
fn sliding_window_query_offsets_are_on_the_slide_grid() {
    let mut s = fast_session();
    let out = rows(
        &mut s,
        "SELECT TOP 3 WINDOWS OF 60 FRAMES SLIDE 20 FROM Archie WITH SAMPLE 0.5, SEED 11",
    );
    assert_eq!(out.rows.len(), 3);
    for row in &out.rows {
        assert_eq!(
            row.start_frame % 20,
            0,
            "sliding window starts on the slide grid"
        );
    }
}

#[test]
fn baseline_engines_run_through_evql() {
    let mut s = fast_session();
    for engine in ["cmdn", "hog", "tinyyolo", "noscope"] {
        let q = format!("SELECT TOP 10 FRAMES FROM Archie USING {engine} WITH SEED 11");
        let out = rows(&mut s, &q);
        assert_eq!(out.rows.len(), 10, "{engine}");
        assert!(out.stats.quality.is_some(), "{engine}");
        assert!(
            out.stats.confidence.is_none(),
            "{engine} gives no guarantee"
        );
    }
}

#[test]
fn phase1_cache_shared_between_frame_and_window_queries() {
    let mut s = fast_session();
    let first = rows(&mut s, "SELECT TOP 5 FRAMES FROM Archie WITH SEED 11");
    assert!(!first.stats.phase1_cached);
    let windows = rows(
        &mut s,
        "SELECT TOP 3 WINDOWS OF 50 FRAMES FROM Archie WITH SAMPLE 0.5, SEED 11",
    );
    assert!(
        windows.stats.phase1_cached,
        "window query reuses the frame query's Phase 1"
    );
}

#[test]
fn a_warm_statement_answers_what_a_cold_one_does() {
    use everest::evql::wire::canonical_output;
    use everest::evql::QueryOutput;

    let a = "SELECT TOP 10 FRAMES FROM Archie WITH SEED 11";
    let encode = |out: &QueryOutput| {
        let bytes = canonical_output(&Output::Rows(out.clone()));
        (bytes, out.stats.sim_seconds.to_bits())
    };
    let mut warm = fast_session();
    let first = rows(&mut warm, a);
    rows(
        &mut warm,
        "SELECT TOP 3 WINDOWS OF 50 FRAMES FROM Archie WITH SAMPLE 0.5, SEED 11",
    );
    rows(
        &mut warm,
        "SELECT TOP 25 FRAMES FROM Archie WITH CONFIDENCE 0.99, SEED 11",
    );
    let again = rows(&mut warm, a);
    assert!(again.stats.phase1_cached);
    assert!(first.stats.cleaned.is_some_and(|n| n > 0));
    assert_eq!(
        encode(&first),
        encode(&again),
        "an earlier statement changed A's answer"
    );
    let cold = rows(&mut fast_session(), a);
    assert_eq!(
        encode(&first),
        encode(&cold),
        "a warm A differs from a cold one"
    );
}

/// Canonical bytes cover every answer kind (rows, windows, skyline,
/// continuous) and exclude every performance-shaped stat: a warm re-run
/// encodes to a cold run's bytes, and so does an answer whose wall-clock
/// and simulated-latency stats are changed, while a changed result-shaped
/// stat changes the bytes.
#[test]
fn canonical_bytes_exclude_every_wall_clock_stat() {
    use everest::evql::wire::canonical_output;
    use everest::evql::ExecStats;
    use std::time::Duration;

    fn stats_mut(out: &mut Output) -> &mut ExecStats {
        match out {
            Output::Rows(q) => &mut q.stats,
            Output::Skyline(s) => &mut s.stats,
            Output::Stream(s) => &mut s.stats,
            Output::Message(m) => panic!("expected an answer, got {m}"),
        }
    }

    for q in [
        "SELECT TOP 10 FRAMES FROM Archie WITH SEED 11",
        "SELECT TOP 3 WINDOWS OF 50 FRAMES SLIDE 25 FROM Archie WITH SAMPLE 0.5, SEED 11",
        "SELECT SKYLINE FROM Archie WITH CONFIDENCE 0.8, SEED 11",
        "SELECT TOP 3 FRAMES FROM Archie EVERY 400 FRAMES EMIT WITH SEED 11, FLAKY 3",
    ] {
        let mut session = fast_session();
        let mut run = || {
            session
                .execute(q)
                .unwrap_or_else(|e| panic!("{}", e.render(q)))
        };
        let cold = run();
        let mut warm = run();
        assert!(stats_mut(&mut warm).phase1_cached, "re-run not warm: {q}");
        let bytes = canonical_output(&cold);
        assert_eq!(bytes, canonical_output(&warm), "warm re-run differs: {q}");

        let mut perf = cold.clone();
        let stats = stats_mut(&mut perf);
        stats.wall += Duration::from_secs(1);
        stats.phase1_cached = !stats.phase1_cached;
        stats.oracle_retries = Some(stats.oracle_retries.unwrap_or(0) + 1);
        stats.breaker_trips = Some(stats.breaker_trips.unwrap_or(0) + 1);
        stats.sim_seconds += 1.0;
        stats.scan_seconds += 1.0;
        stats.speedup += 1.0;
        assert_eq!(bytes, canonical_output(&perf), "a perf stat leaked: {q}");

        stats_mut(&mut perf).n_items += 1;
        assert_ne!(bytes, canonical_output(&perf), "n_items not encoded: {q}");
    }
}

#[test]
fn continuous_udf_query_runs_with_its_default_step() {
    let mut s = fast_session();
    let out = rows(
        &mut s,
        "SELECT TOP 5 FRAMES FROM Dashcam-California WITH SEED 11",
    );
    assert_eq!(out.rows.len(), 5);
    assert!(out.stats.confidence.unwrap() >= 0.9);
    // tailgating scores are positive and descending
    for pair in out.rows.windows(2) {
        assert!(pair[0].score >= pair[1].score);
    }
    assert!(out.rows[0].score > 0.0);
}

#[test]
fn explain_then_run_consistency() {
    let mut s = fast_session();
    let q = "SELECT TOP 4 WINDOWS OF 40 FRAMES SLIDE 10 FROM Archie WITH SEED 11, SAMPLE 0.5";
    let plan_text = match s.execute(&format!("EXPLAIN {q}")).unwrap() {
        Output::Message(m) => m,
        other => panic!("{other:?}"),
    };
    assert!(plan_text.contains("[sliding]"), "{plan_text}");
    assert!(
        plan_text.contains("WindowAgg(len=40, slide=10"),
        "{plan_text}"
    );
    let out = rows(&mut s, q);
    assert_eq!(out.rows.len(), 4);
}

#[test]
fn skyline_query_end_to_end() {
    let mut s = fast_session();
    let out = match s
        .execute("SELECT SKYLINE FROM Archie WITH CONFIDENCE 0.8, SEED 11")
        .unwrap_or_else(|e| panic!("{}", e.message()))
    {
        Output::Skyline(o) => o,
        other => panic!("{other:?}"),
    };
    assert!(out.stats.converged.unwrap());
    assert!(out.stats.confidence.unwrap() >= 0.8);
    assert!(!out.rows.is_empty());
    assert_eq!(out.score_names, vec!["count(car)", "coverage()"]);
    // answer rows are pairwise non-dominated under their exact scores
    // (ties at quantized values allowed; compare in bucket units)
    let to_buckets = |r: &everest::evql::SkylineRow| {
        vec![
            r.scores[0].round() as i64,
            (r.scores[1] / 2.0).round() as i64,
        ]
    };
    for a in &out.rows {
        for b in &out.rows {
            let (va, vb) = (to_buckets(a), to_buckets(b));
            let dominates =
                va.iter().zip(&vb).all(|(x, y)| x >= y) && va.iter().zip(&vb).any(|(x, y)| x > y);
            assert!(
                !dominates,
                "frame {} dominates fellow answer frame {}",
                a.frame, b.frame
            );
        }
    }
    assert_eq!(s.shared_cache().len(), 2, "one Phase 1 per dimension");

    // A later Top-K on the same dataset/score reuses the skyline's
    // count-dimension Phase 1.
    let topk = match s
        .execute("SELECT TOP 5 FRAMES FROM Archie WITH SEED 11")
        .unwrap()
    {
        Output::Rows(o) => o,
        other => panic!("{other:?}"),
    };
    assert!(
        topk.stats.phase1_cached,
        "skyline and Top-K share Phase-1 work"
    );

    // The simulated latency pays what a Top-K query pays: both Phase 1s
    // (the cmdn engine reports exactly its Phase-1 clock), one oracle charge
    // per confirmed frame, and a decode — never cheaper than a sequential
    // one — to reach each of them.
    let phase1: f64 = ["count(car)", "coverage()"]
        .iter()
        .map(|score| {
            let q =
                format!("SELECT TOP 1 FRAMES FROM Archie SCORE {score} USING cmdn WITH SEED 11");
            rows(&mut s, &q).stats.sim_seconds
        })
        .sum();
    let decode = DecodeCostModel::default();
    let n = out.stats.n_frames;
    let cost_per_frame = (out.stats.scan_seconds - decode.sequential_scan_cost(n)) / n as f64;
    let cleaned = out.stats.cleaned.unwrap() as f64;
    assert!(cleaned > 0.0);
    assert!(
        out.stats.sim_seconds
            > phase1 + cleaned * cost_per_frame + 0.99 * cleaned * DecodeCostModel::SEQ_COST,
        "sim {} pays no decode over phase 1 {phase1} + {cleaned} × {cost_per_frame}",
        out.stats.sim_seconds
    );
}

/// Pins one skyline answer's bits: each row's frame and scores, the
/// confidence, iterations, cleaned frames, termination and simulated
/// seconds. The byte-identity tests compare a run only with its own
/// re-run; this one holds the answer itself still.
#[test]
fn a_skyline_statement_keeps_its_pinned_answer() {
    let mut s = fast_session();
    let Output::Skyline(out) = s
        .execute("SELECT SKYLINE FROM Archie WITH CONFIDENCE 0.8, SEED 11")
        .unwrap()
    else {
        panic!("a SELECT SKYLINE statement answers with a skyline");
    };
    let rows: Vec<(usize, Vec<u64>)> = out
        .rows
        .iter()
        .map(|r| (r.frame, r.scores.iter().map(|v| v.to_bits()).collect()))
        .collect();
    // count(car) = 11.0, coverage() ≈ 17.42 on both frames.
    let scores = vec![0x4026_0000_0000_0000, 0x4031_6ba2_72f0_0000];
    assert_eq!(rows, [(799, scores.clone()), (800, scores)]);
    let stats = &out.stats;
    assert_eq!(
        stats.confidence.map(f64::to_bits),
        Some(0x3fe9_b6f3_442a_2f49)
    );
    assert_eq!(stats.iterations, Some(187));
    assert_eq!(stats.cleaned, Some(1496));
    assert_eq!(
        stats.termination,
        Some(everest::core::budget::Termination::Converged)
    );
    assert_eq!(stats.sim_seconds.to_bits(), 0x406c_3c8e_8a71_de66);
}

#[test]
fn error_messages_render_against_the_query() {
    let mut s = fast_session();
    let q = "SELECT TOP 10 FRAMES FROM Tapei-bus";
    let err = s.execute(q).unwrap_err();
    let rendered = err.render(q);
    assert!(rendered.contains("did you mean `Taipei-bus`"), "{rendered}");
    assert!(rendered.contains("^^^"), "{rendered}");
}

#[test]
fn set_scale_changes_planned_video_size() {
    let mut s = fast_session();
    s.execute("SET scale = 1").unwrap();
    let err = s
        .execute("SELECT TOP 999999 FRAMES FROM Archie")
        .unwrap_err();
    assert!(err.message().contains("exceeds"), "{}", err.message());
    // At scale 1, Archie has its full 5 325 frames: K = 5 000 is legal.
    // (Do not run it — just confirm analysis accepts the size.)
    let plan_text = match s
        .execute("EXPLAIN SELECT TOP 5000 FRAMES FROM Archie")
        .unwrap()
    {
        Output::Message(m) => m,
        other => panic!("{other:?}"),
    };
    assert!(plan_text.contains("frames=5325"), "{plan_text}");
}

#[test]
fn k_beyond_the_retained_frames_is_a_typed_error() {
    // K = 300 passes analysis (the video has 2 000 frames), but difference
    // detection retains fewer than 300 of them for the proxy engines.
    let mut s = fast_session();
    for engine in ["everest", "cmdn", "noscope"] {
        let q = format!("SELECT TOP 300 FRAMES FROM Dashcam-California USING {engine}");
        let err = s.execute(&q).expect_err(&q);
        let message = err.message();
        assert!(message.contains("retains"), "{q}: {message}");
        assert!(message.contains("Dashcam-California"), "{q}: {message}");
    }
}
