//! Probabilistic skyline example — the paper's §5 future work, running on
//! the full pipeline.
//!
//! ```text
//! cargo run --release --example skyline_pareto
//! ```
//!
//! Query: *"find the frames that are Pareto-optimal in (object count,
//! object coverage)"* — the busiest moments **and** the moments with the
//! biggest/closest objects, plus every non-dominated trade-off between
//! them. Neither Top-K alone captures this: a frame with 3 huge vehicles
//! and a frame with 11 distant ones can both be skyline members.
//!
//! Pipeline:
//!  1. Phase 1 twice on the same video — one CMDN per scoring function
//!     (count and coverage share the difference detector, so the retained
//!     frames align 1:1);
//!  2. zip the two uncertain relations into a `VectorRelation`;
//!  3. oracle-in-the-loop skyline cleaning until
//!     `Pr(R̂ = skyline) ≥ 0.95` — confirming a frame runs the detector
//!     **once** and yields both dimensions.

use everest::core::budget::Termination;
use everest::core::cleaner::CleaningOracle;
use everest::core::phase1::Phase1Config;
use everest::core::skyline::{run_skyline_cleaner, zip_relations, SkylineConfig};
use everest::models::{counting_oracle, coverage_oracle, Oracle};
use everest::nn::train::TrainConfig;
use everest::nn::HyperGrid;
use everest::video::arrival::{ArrivalConfig, Timeline};
use everest::video::scene::{SceneConfig, SyntheticVideo};
use everest_core::pipeline::Everest;
use everest_core::xtuple::ItemId;

/// Confirms both dimensions with one simulated detector pass per frame.
struct DualScoreOracle<'a> {
    count: &'a everest::models::ExactScoreOracle,
    coverage: &'a everest::models::ExactScoreOracle,
    retained: &'a [usize],
    steps: (f64, f64),
    max_buckets: (usize, usize),
    frames_scored: usize,
}

impl CleaningOracle<Vec<u32>> for DualScoreOracle<'_> {
    fn clean_batch(&mut self, items: &[ItemId]) -> Vec<Vec<u32>> {
        let frames: Vec<usize> = items.iter().map(|&i| self.retained[i]).collect();
        // One detector pass yields the object list; count and coverage are
        // both derived from it, so charge the frames once.
        let counts = self.count.score_batch(&frames);
        let covers = self.coverage.score_batch(&frames);
        self.frames_scored += frames.len();
        counts
            .iter()
            .zip(&covers)
            .map(|(&c, &a)| {
                vec![
                    ((c / self.steps.0).round().max(0.0) as usize).min(self.max_buckets.0) as u32,
                    ((a / self.steps.1).round().max(0.0) as usize).min(self.max_buckets.1) as u32,
                ]
            })
            .collect()
    }
}

fn main() {
    // A moderately busy fixed-camera traffic scene with known ground truth.
    let n_frames = 4_000;
    let timeline = Timeline::generate(
        &ArrivalConfig {
            n_frames,
            base_intensity: 2.0,
            ..ArrivalConfig::default()
        },
        1234,
    );
    let video = SyntheticVideo::new(SceneConfig::default(), timeline, 1234, 30.0);
    let count = counting_oracle(&video);
    let coverage = coverage_oracle(&video);

    // Skylines are harder on the proxy than Top-K: Eq. 2's product only
    // converges when most items have *exactly zero* mass above the
    // certain staircase (the 3σ truncation of §3.2), and here escape can
    // happen on either dimension. A tighter CMDN (more samples/epochs)
    // is what buys that — see DESIGN.md's skyline notes.
    let phase1 = |step: f64, seed: u64| Phase1Config {
        sample_frac: 0.1,
        sample_cap: 1_000,
        sample_min: 200,
        grid: HyperGrid::single(3, 16),
        train: TrainConfig {
            epochs: 25,
            ..TrainConfig::default()
        },
        conv_channels: vec![8, 16],
        quant_step: step,
        seed,
        ..Phase1Config::default()
    };

    println!("Phase 1 ×2: one CMDN per scoring function…");
    let prep_count = Everest::prepare(&video, &count, &phase1(1.0, 7));
    let prep_cover = Everest::prepare(&video, &coverage, &phase1(2.0, 7));
    assert_eq!(
        prep_count.phase1.segments.retained(),
        prep_cover.phase1.segments.retained(),
        "same video + same difference detector → same retained frames"
    );

    let mut rel = zip_relations(&[&prep_count.phase1.relation, &prep_cover.phase1.relation]);
    let retained = prep_count.phase1.segments.retained();
    println!(
        "zipped VectorRelation: {} items ({} already certain from sampling)",
        rel.len(),
        rel.num_certain()
    );

    let mut oracle = DualScoreOracle {
        count: &count,
        coverage: &coverage,
        retained,
        steps: (
            prep_count.phase1.relation.step(),
            prep_cover.phase1.relation.step(),
        ),
        max_buckets: (
            prep_count.phase1.relation.max_bucket(),
            prep_cover.phase1.relation.max_bucket(),
        ),
        frames_scored: 0,
    };

    let outcome = run_skyline_cleaner(
        &mut rel,
        &mut oracle,
        &SkylineConfig {
            thres: 0.95,
            batch_size: 8,
            ..Default::default()
        },
    );

    println!(
        "\nskyline query: converged={} confidence={:.4} iterations={} cleaned={} \
         ({:.2}% of items, {} oracle frames)",
        outcome.termination == Termination::Converged,
        outcome.confidence,
        outcome.iterations,
        outcome.cleaned,
        100.0 * outcome.cleaned as f64 / rel.len() as f64,
        oracle.frames_scored,
    );

    let mut rows: Vec<(usize, f64, f64)> = outcome
        .skyline
        .iter()
        .map(|&id| {
            let frame = retained[id];
            (frame, count.score(frame), coverage.score(frame))
        })
        .collect();
    rows.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());

    println!("\nPareto-optimal frames (count vs coverage %):");
    println!("frame    t+ (s)   count   coverage");
    for (frame, c, a) in &rows {
        println!("{frame:<8} {:<8.1} {c:<7} {a:.1}", *frame as f64 / 30.0);
    }

    // Sanity: the skyline under the exact scores matches.
    let scan_cost = count.num_frames() as f64 * count.cost_per_frame();
    let sky_cost = oracle.frames_scored as f64 * count.cost_per_frame();
    println!(
        "\nsimulated oracle time: skyline {:.1}s vs scan-and-test {:.1}s ({:.1}x)",
        sky_cost,
        scan_cost,
        scan_cost / sky_cost.max(1e-9),
    );
}
