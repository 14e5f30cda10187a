//! Streaming ≡ batch equivalence harness for continuous Top-K
//! (`core::stream`).
//!
//! The streaming engine maintains the joint CDF in O(delta) per arrival;
//! the batch reference (`batch_reference`) replays the same emit schedule
//! but rebuilds the joint CDF and the certain set from scratch before
//! every emit. An answer at emit point `t` depends only on frames `0..t`,
//! so the reference is literally "a from-scratch batch run over the same
//! frame prefix". The harness asserts, **at every emit point**:
//!
//! * the same Top-K set (same `(frame, bucket)` rows, same order),
//! * the same membership probabilities to 1e-9 (confidence + per-row
//!   stability; see `assert_equivalent` for why not bit for bit),
//! * byte-identical formatted output (`StreamAnswer::render`),
//! * the same oracle spend (`cleaned`) — the cleaning policy itself must
//!   be replayable, not just its outcome,
//!
//! under randomized window sizes, emit strides, tie-dense counting
//! scores, and mid-stream arrival bursts. The EVQL end of the pipe is
//! covered by driving `Session::stream` and calling
//! `StreamSession::verify_against_batch`, which replays the batch
//! reference against the session's own emits and fails on any divergence.

use everest::core::cleaner::FnCleaningOracle;
use everest::core::dist::DiscreteDist;
use everest::core::stream::{batch_reference, run_stream, StreamAnswer, StreamConfig};
use everest::evql::{Output, Session};
use everest::video::arrival::{poisson, ArrivalConfig, Timeline};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const MAX_BUCKET: usize = 10;

/// Noisy triangular proxy distributions around a ground-truth score
/// vector — the same error model the cleaner and stream unit tests use.
fn noisy_dists(truth: &[u32], seed: u64) -> Vec<DiscreteDist> {
    let mut rng = StdRng::seed_from_u64(seed);
    truth
        .iter()
        .map(|&t| {
            let mut masses = vec![0.0; MAX_BUCKET + 1];
            for db in -2i64..=2 {
                let b = (t as i64 + db).clamp(0, MAX_BUCKET as i64) as usize;
                masses[b] += match db.abs() {
                    0 => 0.4,
                    1 => 0.2,
                    _ => 0.1,
                } * rng.gen_range(0.5..1.5);
            }
            DiscreteDist::from_masses(&masses)
        })
        .collect()
}

/// Emit-by-emit equality: Top-K rows exactly, probabilities to 1e-9,
/// rendering byte-for-byte.
///
/// Probabilities are not compared bit for bit. The joint CDF keeps a sum
/// of `ln F` per bucket: the live engine's is the running total of every
/// `add` and `remove` since the stream began (subtracting a term does not
/// restore the bits adding it changed), the reference's a fresh sum over
/// the window. A probe of 40 seeds × 5 window/budget shapes (480 frames,
/// K = 4, an emit every 20) found 1 029 of 4 800 emits whose confidence or
/// stability differed, by at most 1.2e-14, every one with equal rows.
fn assert_equivalent(live: &[StreamAnswer], batch: &[StreamAnswer], quant_step: f64) {
    assert_eq!(live.len(), batch.len(), "emit counts differ");
    for (i, (a, b)) in live.iter().zip(batch).enumerate() {
        assert_eq!(a.at_frame, b.at_frame, "emit {i}: emit points differ");
        assert_eq!(a.window_start, b.window_start, "emit {i}: windows differ");
        assert_eq!(a.topk, b.topk, "emit {i}: Top-K sets differ");
        assert_eq!(a.cleaned, b.cleaned, "emit {i}: oracle spend differs");
        assert_eq!(a.converged, b.converged, "emit {i}: convergence differs");
        assert!(
            (a.confidence - b.confidence).abs() < 1e-9,
            "emit {i}: confidence {} vs {}",
            a.confidence,
            b.confidence
        );
        assert_eq!(a.stability.len(), b.stability.len(), "emit {i}");
        for (j, (s, t)) in a.stability.iter().zip(&b.stability).enumerate() {
            assert!(
                (s - t).abs() < 1e-9,
                "emit {i} rank {j}: stability {s} vs {t}"
            );
        }
        assert_eq!(
            a.render(quant_step),
            b.render(quant_step),
            "emit {i}: rendering must be byte-identical"
        );
    }
}

/// Runs both halves on twin oracles (the streaming run must not see the
/// batch run's confirmations) and asserts equivalence.
fn check_equivalence(cfg: &StreamConfig, truth: &[u32], seed: u64) -> Vec<StreamAnswer> {
    let dists = noisy_dists(truth, seed);
    let mut live_oracle = FnCleaningOracle(|id| truth[id]);
    let mut batch_oracle = FnCleaningOracle(|id| truth[id]);
    let live = run_stream(cfg, &dists, &mut live_oracle);
    let batch = batch_reference(cfg, &dists, &mut batch_oracle);
    assert_equivalent(&live, &batch, cfg.quant_step);
    live
}

/// Strategy: a random stream configuration on the shared bucket grid.
fn arb_cfg() -> impl Strategy<Value = StreamConfig> {
    (
        1usize..6,
        1usize..40,
        prop::option::of(1usize..80),
        prop::option::of(0usize..8),
    )
        .prop_map(|(k, emit_every, window, budget_per_emit)| StreamConfig {
            k,
            emit_every,
            window,
            budget_per_emit,
            max_bucket: MAX_BUCKET,
            ..StreamConfig::default()
        })
}

/// Strategy: tie-dense counting scores — only a handful of distinct
/// levels, so rank boundaries sit inside large tie groups (the adversarial
/// regime for Top-K semantics).
fn arb_tie_dense_truth() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(0u32..=3, 30..150)
}

/// Strategy: a mid-stream burst — quiet traffic, a surge of high counts,
/// quiet again (the dashcam-incident shape from `video::arrival`).
fn arb_bursty_truth() -> impl Strategy<Value = Vec<u32>> {
    (
        prop::collection::vec(0u32..=3, 10..60),
        prop::collection::vec(6u32..=10, 5..40),
        prop::collection::vec(0u32..=3, 10..60),
    )
        .prop_map(|(quiet_a, burst, quiet_b)| [quiet_a, burst, quiet_b].concat())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The core invariant: for arbitrary scores and arbitrary
    /// (K, stride, window, budget), every emitted answer of the
    /// incremental engine is identical to a from-scratch batch run over
    /// the same prefix.
    #[test]
    fn streaming_equals_batch_at_every_emit(
        truth in prop::collection::vec(0u32..=MAX_BUCKET as u32, 30..200),
        cfg in arb_cfg(),
        seed in any::<u64>(),
    ) {
        check_equivalence(&cfg, &truth, seed);
    }

    /// Tie-dense counting scores: large tie groups straddling the rank
    /// boundary must not desynchronise the two engines (deterministic
    /// tie-breaking by ascending frame id is part of the contract).
    #[test]
    fn tie_dense_scores_stay_equivalent(
        truth in arb_tie_dense_truth(),
        cfg in arb_cfg(),
        seed in any::<u64>(),
    ) {
        check_equivalence(&cfg, &truth, seed);
    }

    /// A mid-stream arrival burst displaces the entire Top-K within a few
    /// strides; windowed configs additionally expire the burst later.
    /// Both transitions must replay identically.
    #[test]
    fn mid_stream_bursts_stay_equivalent(
        truth in arb_bursty_truth(),
        cfg in arb_cfg(),
        seed in any::<u64>(),
    ) {
        let answers = check_equivalence(&cfg, &truth, seed);
        // Sanity: the schedule actually emitted (the strategy guarantees
        // at least 25 frames and strides are < 40).
        if truth.len() >= cfg.emit_every {
            prop_assert!(!answers.is_empty());
        }
    }
}

/// Deterministic burst scenario on the real arrival simulator: a Poisson
/// timeline with an injected incident surge, streamed with a sliding
/// window that first absorbs and then expires the burst.
#[test]
fn arrival_timeline_burst_replays_identically() {
    let base = Timeline::generate(
        &ArrivalConfig {
            n_frames: 240,
            ..ArrivalConfig::default()
        },
        17,
    );
    let mut counts = base.counts().to_vec();
    let mut rng = StdRng::seed_from_u64(99);
    for c in counts.iter_mut().skip(90).take(40) {
        *c = (*c + 5 + poisson(&mut rng, 1.5) as u32).min(MAX_BUCKET as u32);
    }
    for c in counts.iter_mut() {
        *c = (*c).min(MAX_BUCKET as u32);
    }
    let timeline = Timeline::from_counts(&counts, 17);
    let truth = timeline.counts().to_vec();

    for window in [None, Some(60), Some(25)] {
        let cfg = StreamConfig {
            k: 4,
            emit_every: 20,
            window,
            max_bucket: MAX_BUCKET,
            ..StreamConfig::default()
        };
        let answers = check_equivalence(&cfg, &truth, 4242);
        assert_eq!(answers.len(), truth.len() / 20);
        // The burst must surface: some answer's Top-1 lives inside it …
        assert!(
            answers
                .iter()
                .any(|a| a.topk.first().is_some_and(|&(f, _)| (90..130).contains(&f))),
            "burst never reached rank 1 (window {window:?})"
        );
        // … and with a short window the burst must also expire again.
        if window == Some(25) {
            let last = answers.last().unwrap();
            for &(f, _) in &last.topk {
                assert!(f >= last.window_start, "expired frame {f} emitted");
            }
            assert!(last.window_start >= 200);
        }
    }
}

/// Tumbling windows (`emit_every == window`) are the degenerate case where
/// every emit starts from an empty certain set; equivalence still holds
/// and every emitted frame belongs to the current tumble.
#[test]
fn tumbling_windows_stay_equivalent() {
    let mut rng = StdRng::seed_from_u64(5);
    let truth: Vec<u32> = (0..180)
        .map(|_| rng.gen_range(0..=MAX_BUCKET as u32))
        .collect();
    let cfg = StreamConfig {
        k: 3,
        emit_every: 30,
        window: Some(30),
        max_bucket: MAX_BUCKET,
        ..StreamConfig::default()
    };
    let answers = check_equivalence(&cfg, &truth, 7);
    for a in &answers {
        assert_eq!(a.window_start, a.at_frame - 30);
        for &(f, _) in &a.topk {
            assert!((a.window_start..a.at_frame).contains(&f));
        }
    }
}

/// Budget-capped streams: equivalence must hold for *non-converged*
/// answers too — the partial certain set, the sub-threshold confidence
/// and the spend must all replay exactly.
#[test]
fn budget_capped_streams_stay_equivalent() {
    let mut rng = StdRng::seed_from_u64(21);
    let truth: Vec<u32> = (0..160).map(|_| rng.gen_range(0..=4)).collect();
    for budget in [0, 1, 3] {
        let cfg = StreamConfig {
            k: 5,
            thres: 0.99,
            emit_every: 16,
            budget_per_emit: Some(budget),
            max_bucket: MAX_BUCKET,
            ..StreamConfig::default()
        };
        let answers = check_equivalence(&cfg, &truth, 1000 + budget as u64);
        for a in &answers {
            assert!(a.cleaned <= budget);
        }
        // With thres = 0.99 on tie-dense scores a tiny budget cannot keep
        // up everywhere; the harness must have exercised the capped path.
        if budget <= 1 {
            assert!(answers.iter().any(|a| !a.converged));
        }
    }
}

/// End-to-end EVQL: `Session::stream` over a real prepared video, with
/// `verify_against_batch` replaying the batch reference against the
/// session's emits — the production-path version of this harness. Also
/// pins the incremental session (`next_emit`) to the drained output, and
/// the replay under fault injection.
#[test]
fn evql_stream_session_verifies_against_batch() {
    let mut session = Session::new();
    session.settings.scale = 1_000; // floors the dataset at 2 000 frames

    let src = "SELECT TOP 3 FRAMES FROM Archie EVERY 400 FRAMES EMIT WITH SEED 7, BUDGET 12";
    let mut stream = session
        .stream(src)
        .unwrap_or_else(|e| panic!("{}", e.render(src)));
    let mut seen: Vec<StreamAnswer> = Vec::new();
    while let Some(a) = stream.next_emit() {
        seen.push(a.clone());
    }
    stream
        .verify_against_batch()
        .expect("streaming≡batch replay must pass");
    let out = stream.finish().expect("drained stream packages its stats");
    assert_eq!(out.answers, seen, "finish() must drain exactly the emits");
    assert!(!out.answers.is_empty());
    for a in &out.answers {
        assert!(a.cleaned <= 12);
    }

    // The one-shot execute() path covers the same statement (fresh session
    // state is unnecessary: Phase 1 is cached, Phase 2 state is not).
    match session.execute(src) {
        Ok(Output::Stream(output)) => assert_eq!(output.answers, seen),
        other => panic!("expected a stream output, got {other:?}"),
    }

    // Under `FLAKY` the replay builds a fresh fault wrapper, which must
    // inject the same schedule from call 0 for the answers to agree.
    let flaky = "SELECT TOP 3 FRAMES FROM Archie EVERY 400 FRAMES EMIT \
                 WITH SEED 7, FLAKY 3, WINDOW 800, BUDGET 12";
    let mut stream = session
        .stream(flaky)
        .unwrap_or_else(|e| panic!("{}", e.render(flaky)));
    stream
        .verify_against_batch()
        .expect("streaming≡batch replay must pass under fault injection");
    let out = stream.finish().expect("drained stream packages its stats");
    let retries = out.stats.oracle_retries;
    assert!(
        retries.is_some_and(|r| r > 0),
        "the schedule must retry at least once: {retries:?}"
    );
}
