//! Workspace wiring smoke test: drives the `everest::prelude` re-exports
//! end-to-end on a tiny (≤ 200-frame) synthetic video, so a facade or
//! re-export regression fails fast without the cost of the full e2e suites.
//! It also pins the lint configuration in the tree (docs/LINTING.md, first
//! table): every `#[expect(clippy::…)]` switches its lint on for its own
//! scope, so a stale exemption or a deleted `clippy.toml` fails clippy by
//! itself — a deleted crate-root lint line would not.

use everest::prelude::*;

use everest::nn::train::TrainConfig;
use everest::nn::HyperGrid;
use everest::video::arrival::{ArrivalConfig, Timeline};
use everest::video::scene::SceneConfig;

const N_FRAMES: usize = 200;

fn tiny_video() -> SyntheticVideo {
    let timeline = Timeline::generate(
        &ArrivalConfig {
            n_frames: N_FRAMES,
            ..ArrivalConfig::default()
        },
        123,
    );
    SyntheticVideo::new(SceneConfig::default(), timeline, 123, 30.0)
}

#[test]
fn prelude_pipeline_end_to_end() {
    // Video substrate via prelude types (SyntheticVideo, VideoStore, Frame).
    let video = tiny_video();
    assert_eq!(video.num_frames(), N_FRAMES);
    let frame: Frame = video.frame(0);
    assert!(frame.width() > 0 && frame.height() > 0);

    // Oracle wiring (Oracle, InstrumentedOracle, counting_oracle).
    let oracle = InstrumentedOracle::new(counting_oracle(&video));
    assert_eq!(oracle.frames_scored(), 0);

    // Phase 1 + a Top-3 query through the prelude's pipeline types.
    let phase1 = Phase1Config {
        sample_frac: 0.3,
        sample_cap: 60,
        sample_min: 24,
        grid: HyperGrid::single(2, 8),
        train: TrainConfig {
            epochs: 2,
            ..TrainConfig::default()
        },
        conv_channels: vec![4],
        threads: 2,
        ..Phase1Config::default()
    };
    let prepared: PreparedVideo = Everest::prepare(&video, &oracle, &phase1);
    let report: QueryReport = prepared.query_topk(&oracle, 3, 0.9, &CleanerConfig::default());

    assert_eq!(report.items.len(), 3, "Top-3 answer must have 3 items");
    assert!(report.confidence >= 0.9, "confidence {}", report.confidence);
    assert!(report.frames().iter().all(|&f| f < N_FRAMES));
    assert!(
        oracle.frames_scored() > 0,
        "the oracle must have been consulted"
    );

    // Result quality plumbing (GroundTruth, evaluate_topk, ResultQuality).
    let truth = GroundTruth::new(oracle.inner().all_scores().to_vec());
    let quality: ResultQuality = evaluate_topk(&truth, &report.frames(), 3);
    assert!((0.0..=1.0).contains(&quality.precision));
}

#[test]
fn prelude_uncertain_relation_types() {
    // Core uncertain-relation types re-exported through the prelude.
    let mut rel = UncertainRelation::new(1.0, 4);
    let certain: ItemId = rel.push_certain(3);
    let uncertain: ItemId =
        rel.push_uncertain(DiscreteDist::from_masses(&[0.2, 0.8, 0.0, 0.0, 0.0]));
    assert_ne!(certain, uncertain);
    assert_eq!(rel.len(), 2);
}

#[test]
fn prelude_evql_session() {
    // EVQL session wiring (EvqlSession/EvqlOutput aliases): a catalog
    // statement that needs no video preparation.
    let mut session = EvqlSession::new();
    match session.execute("SHOW DATASETS") {
        Ok(EvqlOutput::Message(m)) => {
            assert!(
                m.contains("Archie"),
                "catalog listing should name Archie: {m}"
            )
        }
        other => panic!("SHOW DATASETS should yield a message, got {other:?}"),
    }
    // Malformed input surfaces a spanned error, not a panic.
    assert!(session.execute("SELECT TOP").is_err());
}

/// The crate-level (`#![…]`) attributes of a source file that switch lints
/// on, concatenated.
fn crate_level_lints(src: &str) -> String {
    let mut out = String::new();
    let mut rest = src;
    while let Some(start) = rest.find("#![") {
        let attr = &rest[start..];
        let end = attr.find(")]").map_or(attr.len(), |e| e + 2);
        if attr[..end].contains("warn(") || attr[..end].contains("deny(") {
            out.push_str(&attr[..end]);
        }
        rest = &attr[end..];
    }
    out
}

#[test]
fn clippy_configuration_is_in_place() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |rel: &str| {
        std::fs::read_to_string(root.join(rel)).unwrap_or_else(|e| panic!("read {rel}: {e}"))
    };
    const EVERYWHERE: [&str; 3] = [
        "clippy::undocumented_unsafe_blocks",
        "clippy::iter_over_hash_type",
        "clippy::allow_attributes_without_reason",
    ];
    const NO_PANIC_LIBS: [&str; 2] = ["clippy::unwrap_used", "clippy::expect_used"];
    for krate in ["core", "video", "nn", "models", "evql", "serve"] {
        let rel = format!("crates/{krate}/src/lib.rs");
        let lints = crate_level_lints(&read(&rel));
        let no_panic = matches!(krate, "core" | "evql");
        let wanted = EVERYWHERE
            .iter()
            .chain(NO_PANIC_LIBS.iter().filter(|_| no_panic));
        for lint in wanted {
            assert!(
                lints.contains(lint),
                "{rel} must switch on `{lint}` at the crate root (docs/LINTING.md)"
            );
        }
    }
    // The SIMD kernels' `unsafe fn` bodies: without this line their unsafe
    // operations need no block, and so no `// SAFETY:` comment.
    assert!(
        crate_level_lints(&read("crates/nn/src/lib.rs")).contains("deny(unsafe_op_in_unsafe_fn)"),
        "crates/nn/src/lib.rs must deny `unsafe_op_in_unsafe_fn` at the crate root (docs/LINTING.md)"
    );
    let clippy_toml = read("clippy.toml");
    for path in ["std::time::Instant::now", "std::time::SystemTime::now"] {
        assert!(
            clippy_toml.contains(&format!("path = \"{path}\"")),
            "clippy.toml must list `{path}` under disallowed-methods"
        );
    }
}
