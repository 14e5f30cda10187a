//! Cross-crate determinism: identical seeds must produce identical videos,
//! relations, and query answers — the property every experiment binary and
//! regression test relies on.

use everest::core::cleaner::CleanerConfig;
use everest::core::dist::DiscreteDist;
use everest::core::phase1::Phase1Config;
use everest::core::pipeline::Everest;
use everest::core::semantics::{u_kranks, u_topk};
use everest::core::xtuple::UncertainRelation;
use everest::evql::{Output, Session};
use everest::models::{counting_oracle, InstrumentedOracle};
use everest::nn::train::TrainConfig;
use everest::nn::HyperGrid;
use everest::video::arrival::{ArrivalConfig, Timeline};
use everest::video::datasets::counting_datasets;
use everest::video::scene::{SceneConfig, SyntheticVideo};
use everest::video::VideoStore;

#[test]
fn same_seed_same_everything() {
    let build = || {
        let tl = Timeline::generate(
            &ArrivalConfig {
                n_frames: 1_000,
                ..ArrivalConfig::default()
            },
            5,
        );
        SyntheticVideo::new(SceneConfig::default(), tl, 5, 30.0)
    };
    let a = build();
    let b = build();
    assert_eq!(a.timeline().counts(), b.timeline().counts());
    for t in (0..1_000).step_by(111) {
        assert_eq!(a.frame(t), b.frame(t), "frame {t}");
    }
}

#[test]
fn different_seed_different_video() {
    let spec = &counting_datasets()[0];
    let mut spec_small = spec.clone();
    spec_small.n_frames = 500;
    spec_small.arrival.n_frames = 500;
    let a = spec_small.build(1);
    let b = spec_small.build(2);
    assert_ne!(a.timeline().counts(), b.timeline().counts());
}

#[test]
fn full_query_is_reproducible() {
    let run = || {
        let tl = Timeline::generate(
            &ArrivalConfig {
                n_frames: 1_200,
                ..ArrivalConfig::default()
            },
            37,
        );
        // The catalog's sensor noise: at the default σ = 0.02 the difference
        // detector keeps every frame, and the noise bits would decide nothing.
        let scene = SceneConfig {
            noise_std: 0.01,
            ..SceneConfig::default()
        };
        let v = SyntheticVideo::new(scene, tl, 37, 30.0);
        let o = InstrumentedOracle::new(counting_oracle(&v));
        let phase1 = Phase1Config {
            sample_frac: 0.1,
            sample_cap: 120,
            sample_min: 32,
            grid: HyperGrid::single(2, 12),
            train: TrainConfig {
                epochs: 6,
                ..TrainConfig::default()
            },
            conv_channels: vec![6, 12],
            threads: 4,
            ..Phase1Config::default()
        };
        let prepared = Everest::prepare(&v, &o, &phase1);
        let retained = prepared.phase1.segments.num_retained();
        assert!(retained < 1_200, "{retained} of 1200 frames retained");
        let r = prepared.query_topk(&o, 5, 0.9, &CleanerConfig::default());
        (retained, r.frames(), r.confidence, r.cleaned, r.iterations)
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "same seed must reproduce the full query trace");
}

#[test]
fn semantics_reruns_are_identical() {
    // The enumeration semantics iterate candidate-set maps; those maps are
    // BTreeMaps precisely so repeated runs (and ties) resolve identically.
    // Deliberately includes exact ties between items 0/1 and 2/3.
    let build = || {
        let mut rel = UncertainRelation::new(1.0, 4);
        for _ in 0..2 {
            rel.push_uncertain(DiscreteDist::from_masses(&[0.1, 0.1, 0.2, 0.3, 0.3]));
        }
        for _ in 0..2 {
            rel.push_uncertain(DiscreteDist::from_masses(&[0.3, 0.3, 0.2, 0.1, 0.1]));
        }
        rel.push_certain(2);
        rel
    };
    let (set_a, p_a) = u_topk(&build(), 2).expect("small world set");
    let (set_b, p_b) = u_topk(&build(), 2).expect("small world set");
    assert_eq!(set_a, set_b, "U-Top-K winner set must not depend on run");
    assert_eq!(p_a.to_bits(), p_b.to_bits(), "confidence must be bit-equal");
    let ranks_a = u_kranks(&build(), 2).expect("small world set");
    let ranks_b = u_kranks(&build(), 2).expect("small world set");
    assert_eq!(ranks_a, ranks_b, "U-kRanks winners must not depend on run");
}

#[test]
fn simulated_latency_is_a_pure_function_of_the_statement() {
    // The simulated clock is charged counts × constants, never measured
    // time: two fresh sessions (each paying its own Phase 1) must agree on
    // the simulated latency and the speedup to the last bit.
    let run = |stmt: &str| {
        let mut session = Session::new();
        session.settings.scale = 1_000; // floors the dataset at 2 000 frames
        match session.execute(stmt).expect("statement runs") {
            Output::Rows(out) => {
                assert!(
                    out.stats.cleaned.unwrap() > 0,
                    "{stmt}: Phase 2 must do work"
                );
                (out.stats.sim_seconds.to_bits(), out.stats.speedup.to_bits())
            }
            other => panic!("{other:?}"),
        }
    };
    for stmt in [
        "SELECT TOP 5 FRAMES FROM Archie WITH SEED 3",
        "SELECT TOP 5 WINDOWS OF 30 FRAMES FROM Archie WITH SEED 3",
    ] {
        assert_eq!(run(stmt), run(stmt), "{stmt}");
    }
}
