//! The EVQL catalog: every queryable data source and scoring function.
//!
//! EVQL binds names to the reproduction's synthetic substrates:
//!
//! * the five **counting datasets** of Table 7 (`Archie`, `Daxi-old-street`,
//!   `Grand-Canal`, `Irish-Center`, `Taipei-bus`) scored by `count(<class>)`;
//! * the **Visual Road** mini-city sweep (`VisualRoad-50` … `VisualRoad-250`,
//!   Fig. 8) scored by `count(car)`;
//! * the two **dashcam** videos (Fig. 9) scored by `tailgating()`;
//! * a synthetic **vlog** (`Vlog`, the thumbnail use case of §1) scored by
//!   `sentiment()`.
//!
//! A [`SourceEntry`] can be *built* into a [`BuiltSource`] — a concrete
//! video store plus its exact-score oracle — optionally shrunk by a scale
//! divisor so interactive queries return in seconds.

use everest_models::sentiment::sentiment_oracle;
use everest_models::{counting_oracle, depth_oracle, ExactScoreOracle};
use everest_video::dashcam::{dashcam_datasets, DashcamConfig, DashcamVideo};
use everest_video::datasets::counting_datasets;
use everest_video::scene::ObjectClass;
use everest_video::sentiment::{SentimentConfig, SentimentVideo};
use everest_video::visualroad::{VisualRoadConfig, VisualRoadVideo};
use everest_video::{DatasetSpec, VideoStore};

// Re-exported for CLI display and tests.
pub use everest_models::sentiment::{HAPPINESS_QUANTIZATION_STEP, SENTIMENT_COST_PER_FRAME};

/// A scoring function, resolved.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScoreFn {
    /// `count(<class>)`: number of objects of the class per frame.
    Count(ObjectClass),
    /// `coverage()`: total object bounding-box area, % of the frame
    /// (the second dimension of the skyline workload).
    Coverage,
    /// `tailgating()`: depth-estimator tailgating degree (Fig. 9).
    Tailgating,
    /// `sentiment()`: visual-sentimentalizer happiness (§1 use case 2).
    Sentiment,
}

impl ScoreFn {
    /// Canonical EVQL spelling.
    pub fn display(&self) -> String {
        match self {
            ScoreFn::Count(c) => format!("count({})", c.name()),
            ScoreFn::Coverage => "coverage()".into(),
            ScoreFn::Tailgating => "tailgating()".into(),
            ScoreFn::Sentiment => "sentiment()".into(),
        }
    }

    /// The natural quantization step of this score (§3.2: counting scores
    /// quantize to integers; continuous scores need a user/UDF step).
    pub fn default_step(&self) -> f64 {
        match self {
            ScoreFn::Count(_) => 1.0,
            ScoreFn::Coverage => everest_models::counting::COVERAGE_QUANTIZATION_STEP,
            ScoreFn::Tailgating => everest_models::depth::TAILGATING_QUANTIZATION_STEP,
            ScoreFn::Sentiment => HAPPINESS_QUANTIZATION_STEP,
        }
    }
}

/// How a source is materialised.
#[derive(Debug, Clone)]
pub enum SourceKind {
    /// A Table 7 counting dataset.
    Counting(DatasetSpec),
    /// A Visual Road mini-city with this many cars (Fig. 8).
    VisualRoad(usize),
    /// A dashcam video (Fig. 9).
    Dashcam(DashcamConfig, u64),
    /// The synthetic vlog.
    Vlog(SentimentConfig, u64),
}

/// One catalog row.
#[derive(Debug, Clone)]
pub struct SourceEntry {
    pub name: String,
    pub kind: SourceKind,
    /// The score this source is queried with when no `SCORE` clause is
    /// given.
    pub default_score: ScoreFn,
    /// Frame count at scale divisor 1.
    pub n_frames_full: usize,
    pub fps: f64,
    pub description: String,
}

/// A materialised source: video + exact-score oracle.
pub struct BuiltSource {
    pub video: Box<dyn VideoStore>,
    pub oracle: ExactScoreOracle,
    pub fps: f64,
}

impl SourceEntry {
    /// Frame count after applying a scale divisor (floored at a size that
    /// still trains a CMDN).
    pub fn scaled_frames(&self, divisor: usize) -> usize {
        (self.n_frames_full / divisor.max(1))
            .max(2_000)
            .min(self.n_frames_full)
    }

    /// Builds the video and its oracle for the requested score.
    ///
    /// The caller must have validated compatibility (see
    /// [`compatible_score`]); this panics on a mismatch.
    pub fn build(&self, score: ScoreFn, divisor: usize, seed: u64) -> BuiltSource {
        let n = self.scaled_frames(divisor);
        match (&self.kind, score) {
            (SourceKind::Counting(spec), ScoreFn::Count(class)) => {
                assert_eq!(class, spec.object_class, "validated upstream");
                let mut spec = spec.clone();
                spec.n_frames = n;
                spec.arrival.n_frames = n;
                let video = spec.build(seed);
                let oracle = counting_oracle(&video);
                BuiltSource {
                    video: Box::new(video),
                    oracle,
                    fps: self.fps,
                }
            }
            (SourceKind::Counting(spec), ScoreFn::Coverage) => {
                let mut spec = spec.clone();
                spec.n_frames = n;
                spec.arrival.n_frames = n;
                let video = spec.build(seed);
                let oracle = everest_models::coverage_oracle(&video);
                BuiltSource {
                    video: Box::new(video),
                    oracle,
                    fps: self.fps,
                }
            }
            (SourceKind::VisualRoad(cars), ScoreFn::Count(ObjectClass::Car)) => {
                let cfg = VisualRoadConfig {
                    total_cars: *cars,
                    n_frames: n,
                    ..Default::default()
                };
                let video = VisualRoadVideo::new(cfg, seed);
                let oracle = everest_models::counting::counting_oracle_visualroad(&video);
                BuiltSource {
                    video: Box::new(video),
                    oracle,
                    fps: self.fps,
                }
            }
            (SourceKind::Dashcam(cfg, default_seed), ScoreFn::Tailgating) => {
                let cfg = DashcamConfig {
                    n_frames: n,
                    ..cfg.clone()
                };
                let video = DashcamVideo::new(cfg, if seed == 0 { *default_seed } else { seed });
                let oracle = depth_oracle(&video);
                BuiltSource {
                    video: Box::new(video),
                    oracle,
                    fps: self.fps,
                }
            }
            (SourceKind::Vlog(cfg, default_seed), ScoreFn::Sentiment) => {
                let cfg = SentimentConfig {
                    n_frames: n,
                    ..cfg.clone()
                };
                let video = SentimentVideo::new(cfg, if seed == 0 { *default_seed } else { seed });
                let oracle = sentiment_oracle(&video);
                BuiltSource {
                    video: Box::new(video),
                    oracle,
                    fps: self.fps,
                }
            }
            (kind, score) => panic!(
                "source kind {kind:?} cannot serve score {score:?} (analysis must reject this)"
            ),
        }
    }
}

/// Whether `score` can run on this source; `Err` carries a human
/// explanation used verbatim in diagnostics.
pub fn compatible_score(entry: &SourceEntry, score: ScoreFn) -> Result<(), String> {
    match (&entry.kind, score) {
        (SourceKind::Counting(spec), ScoreFn::Count(class)) => {
            if class == spec.object_class {
                Ok(())
            } else {
                Err(format!(
                    "dataset `{}` is annotated for `{}`; use SCORE count({}) or omit SCORE",
                    entry.name,
                    spec.object_class.name(),
                    spec.object_class.name(),
                ))
            }
        }
        (SourceKind::Counting(_), ScoreFn::Coverage) => Ok(()),
        (SourceKind::VisualRoad(_), ScoreFn::Count(ObjectClass::Car)) => Ok(()),
        (SourceKind::VisualRoad(_), ScoreFn::Count(c)) => Err(format!(
            "Visual Road videos only contain cars; `count({})` would always be 0",
            c.name()
        )),
        (SourceKind::Dashcam(..), ScoreFn::Tailgating) => Ok(()),
        (SourceKind::Vlog(..), ScoreFn::Sentiment) => Ok(()),
        (_, s) => Err(format!(
            "score {} cannot run on dataset `{}` (its default score is {})",
            s.display(),
            entry.name,
            entry.default_score.display()
        )),
    }
}

/// The full EVQL catalog.
pub fn catalog() -> Vec<SourceEntry> {
    let mut out = Vec::new();
    for spec in counting_datasets() {
        out.push(SourceEntry {
            name: spec.name.to_string(),
            default_score: ScoreFn::Count(spec.object_class),
            n_frames_full: spec.n_frames,
            fps: spec.fps,
            description: format!(
                "Table 7 {} footage, object-of-interest `{}`",
                match spec.style {
                    everest_video::SceneStyle::FixedCamera => "fixed-camera",
                    everest_video::SceneStyle::MovingCamera => "moving-camera",
                },
                spec.object_class.name()
            ),
            kind: SourceKind::Counting(spec),
        });
    }
    for cars in [50usize, 100, 150, 200, 250] {
        let cfg = VisualRoadConfig::default();
        out.push(SourceEntry {
            name: format!("VisualRoad-{cars}"),
            kind: SourceKind::VisualRoad(cars),
            default_score: ScoreFn::Count(ObjectClass::Car),
            n_frames_full: cfg.n_frames,
            fps: cfg.fps,
            description: format!("Visual Road mini-city with {cars} cars (Fig. 8)"),
        });
    }
    for (name, cfg, seed) in dashcam_datasets() {
        out.push(SourceEntry {
            name: name.to_string(),
            n_frames_full: cfg.n_frames,
            fps: cfg.fps,
            description: "Table 7 dashcam footage for the tailgating UDF (Fig. 9)".into(),
            default_score: ScoreFn::Tailgating,
            kind: SourceKind::Dashcam(cfg, seed),
        });
    }
    let vlog = SentimentConfig::default();
    out.push(SourceEntry {
        name: "Vlog".into(),
        n_frames_full: vlog.n_frames,
        fps: vlog.fps,
        description: "synthetic vlog for the thumbnail-generation use case (§1)".into(),
        default_score: ScoreFn::Sentiment,
        kind: SourceKind::Vlog(vlog, 404),
    });
    out
}

/// Case-insensitive catalog lookup.
pub fn source_by_name(name: &str) -> Option<SourceEntry> {
    catalog()
        .into_iter()
        .find(|e| e.name.eq_ignore_ascii_case(name))
}

/// All source names (for `SHOW DATASETS` and suggestions).
pub fn source_names() -> Vec<String> {
    catalog().into_iter().map(|e| e.name).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_all_paper_sources() {
        let names = source_names();
        for expect in [
            "Archie",
            "Daxi-old-street",
            "Grand-Canal",
            "Irish-Center",
            "Taipei-bus",
            "VisualRoad-50",
            "VisualRoad-250",
            "Dashcam-California",
            "Dashcam-Greenport",
            "Vlog",
        ] {
            assert!(names.iter().any(|n| n == expect), "missing {expect}");
        }
        assert_eq!(names.len(), 13);
    }

    #[test]
    fn lookup_is_case_insensitive() {
        assert!(source_by_name("grand-canal").is_some());
        assert!(source_by_name("GRAND-CANAL").is_some());
        assert!(source_by_name("no-such").is_none());
    }

    #[test]
    fn score_compatibility_rules() {
        let canal = source_by_name("Grand-Canal").unwrap();
        assert!(compatible_score(&canal, ScoreFn::Count(ObjectClass::Boat)).is_ok());
        assert!(compatible_score(&canal, ScoreFn::Count(ObjectClass::Car)).is_err());
        assert!(compatible_score(&canal, ScoreFn::Tailgating).is_err());

        let vr = source_by_name("VisualRoad-100").unwrap();
        assert!(compatible_score(&vr, ScoreFn::Count(ObjectClass::Car)).is_ok());
        assert!(compatible_score(&vr, ScoreFn::Count(ObjectClass::Boat)).is_err());

        let dash = source_by_name("Dashcam-California").unwrap();
        assert!(compatible_score(&dash, ScoreFn::Tailgating).is_ok());
        assert!(compatible_score(&dash, ScoreFn::Sentiment).is_err());

        let vlog = source_by_name("Vlog").unwrap();
        assert!(compatible_score(&vlog, ScoreFn::Sentiment).is_ok());
    }

    #[test]
    fn scaled_frames_floor_and_cap() {
        let canal = source_by_name("Grand-Canal").unwrap();
        assert_eq!(canal.scaled_frames(1), canal.n_frames_full);
        assert!(canal.scaled_frames(8) >= 2_000);
        assert!(canal.scaled_frames(8) < canal.n_frames_full);
        // divisor larger than the video floors at 2000 but never exceeds full
        let small_floor = canal.scaled_frames(usize::MAX);
        assert_eq!(small_floor, 2_000.min(canal.n_frames_full));
    }

    #[test]
    fn build_counting_source() {
        let archie = source_by_name("Archie").unwrap();
        let built = archie.build(ScoreFn::Count(ObjectClass::Car), 16, 7);
        let n = archie.scaled_frames(16);
        assert_eq!(built.video.num_frames(), n);
        assert_eq!(everest_models::Oracle::num_frames(&built.oracle), n);
    }

    #[test]
    fn build_dashcam_and_vlog_sources() {
        let dash = source_by_name("Dashcam-Greenport").unwrap();
        let built = dash.build(ScoreFn::Tailgating, 4, 0);
        assert_eq!(built.video.num_frames(), dash.scaled_frames(4));

        let vlog = source_by_name("Vlog").unwrap();
        let built = vlog.build(ScoreFn::Sentiment, 4, 0);
        assert_eq!(built.video.num_frames(), vlog.scaled_frames(4));
    }

    #[test]
    fn build_visualroad_source() {
        let vr = source_by_name("VisualRoad-50").unwrap();
        let built = vr.build(ScoreFn::Count(ObjectClass::Car), 8, 3);
        assert_eq!(built.video.num_frames(), vr.scaled_frames(8));
    }

    #[test]
    #[should_panic(expected = "analysis must reject")]
    fn incompatible_build_panics() {
        let vlog = source_by_name("Vlog").unwrap();
        let _ = vlog.build(ScoreFn::Tailgating, 8, 1);
    }

    #[test]
    fn default_steps_match_udf_constants() {
        assert_eq!(ScoreFn::Count(ObjectClass::Car).default_step(), 1.0);
        assert_eq!(
            ScoreFn::Tailgating.default_step(),
            everest_models::depth::TAILGATING_QUANTIZATION_STEP
        );
        assert_eq!(
            ScoreFn::Sentiment.default_step(),
            HAPPINESS_QUANTIZATION_STEP
        );
    }

    #[test]
    fn cost_constants_are_positive() {
        const { assert!(SENTIMENT_COST_PER_FRAME > 0.0) }
    }
}
