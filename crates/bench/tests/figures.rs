//! Pins what the paper figures share: the speedup denominator (every
//! figure divides the same scan-and-test cost — oracle on every frame
//! *plus* the sequential decode — so Figures 8/9 agree with Figures 4–7)
//! and the catalog's scale floor; and that a figure body survives the
//! smallest scale.

use everest_bench::figures::{fig8_point, fig9};
use everest_bench::harness::{dataset_specs, scale_named};
use everest_core::baselines::scan_and_test;
use everest_video::datasets::counting_datasets;

#[test]
fn fig8_speedup_is_scan_and_test_over_everest() {
    let scale = scale_named("smoke");
    let (ds, report, row) = fig8_point(&scale, 50);
    let scan = scan_and_test(ds.oracle.inner(), scale.default_k);
    assert_eq!(row.speedup, scan.sim_seconds / report.sim_seconds());
}

/// Shrinking keeps every dataset in the paper's regime (Top-K of a tiny
/// share of the video) and rewrites the three coupled fields together.
#[test]
fn catalog_shrink_floors_at_4000_frames_and_stays_consistent() {
    for name in ["full", "mid", "smoke"] {
        let scale = scale_named(name);
        for (spec, full) in dataset_specs(&scale).iter().zip(counting_datasets()) {
            assert!(spec.n_frames >= full.n_frames.min(4_000), "{name} {spec:?}");
            assert!(spec.n_frames <= full.n_frames);
            assert_eq!(spec.arrival.n_frames, spec.n_frames);
            let paper_frames = spec.paper_frames_k as usize * 1000;
            assert_eq!(spec.scale as usize, paper_frames / spec.n_frames);
        }
    }
}

/// At `smoke` a dashcam shrinks to 506 frames and retains fewer items than
/// the default K; the frame rows must cap K instead of asking the engine
/// for more items than the relation holds.
#[test]
fn fig9_runs_at_smoke_scale() {
    fig9(&scale_named("smoke"));
}
