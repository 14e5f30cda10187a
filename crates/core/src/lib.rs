//! # everest-core — uncertain Top-K query processing with an
//! oracle-in-the-loop (the Everest paper's contribution)
//!
//! This crate implements the algorithms and pipeline of *"Top-K Deep Video
//! Analytics: A Probabilistic Approach"* (SIGMOD 2021):
//!
//! * [`dist`] / [`xtuple`] — discrete score distributions and the x-tuple
//!   uncertain relation (§2);
//! * [`pws`] — brute-force possible-world semantics (Eq. 1), the test
//!   oracle for the fast path;
//! * [`topkprob`] — `Topk-prob` (Eq. 2/3) with an incrementally-maintained
//!   joint CDF in log space, and the closed-form Eq. 1 confidence of any
//!   answer (see `docs/SEMANTICS.md`);
//! * [`select`] — `Select-candidate` (Eq. 4–8) with upper-bound early
//!   stopping and the lazy ψ re-sort schedule;
//! * [`budget`] — query budgets, simulated-seconds deadlines, cooperative
//!   cancellation, and the [`budget::Termination`] status of degraded
//!   anytime answers;
//! * [`cleaner`] — the one Phase-2 loop: certain-result condition, stop
//!   rule, budget checks, oracle cleaning — batch and streaming both run it;
//! * [`window`] — Top-K over tumbling windows (Eq. 9 + sampled
//!   confirmation, §3.4);
//! * [`stream`] — continuous Top-K over live streams: sliding/tumbling
//!   windows advanced in O(delta), the [`cleaner`] loop with a
//!   boundary-focused picking policy, and the batch-replay reference the
//!   equivalence harness compares against;
//! * [`phase1`] — CMDN sampling/training/model-selection and the initial
//!   uncertain relation `D0` (§3.2);
//! * [`pipeline`] — the end-to-end engine with simulated-cost accounting
//!   ([`sim`], Table 8 style breakdowns);
//! * [`baselines`] — scan-and-test, HOG/TinyYOLO scans, CMDN-only, and the
//!   calibrated Select-and-TopK baseline (§4);
//! * [`metrics`] — precision / rank distance / score error (§4).
//!
//! ## Quick start
//!
//! ```
//! use everest_core::prelude::*;
//! use everest_models::{counting_oracle, InstrumentedOracle};
//! use everest_nn::train::TrainConfig;
//! use everest_nn::HyperGrid;
//! use everest_video::arrival::{ArrivalConfig, Timeline};
//! use everest_video::scene::{SceneConfig, SyntheticVideo};
//!
//! // A tiny synthetic traffic video with known ground truth.
//! let timeline = Timeline::generate(
//!     &ArrivalConfig { n_frames: 600, ..ArrivalConfig::default() }, 7);
//! let video = SyntheticVideo::new(SceneConfig::default(), timeline, 7, 30.0);
//! let oracle = InstrumentedOracle::new(counting_oracle(&video));
//!
//! // Phase 1 (kept tiny for the doctest), then a Top-5 query at thres 0.9.
//! let phase1 = Phase1Config {
//!     sample_frac: 0.2,
//!     sample_cap: 80,
//!     sample_min: 32,
//!     grid: HyperGrid::single(2, 8),
//!     train: TrainConfig { epochs: 2, ..TrainConfig::default() },
//!     conv_channels: vec![4],
//!     threads: 2,
//!     ..Phase1Config::default()
//! };
//! let prepared = Everest::prepare(&video, &oracle, &phase1);
//! let report = prepared.query_topk(&oracle, 5, 0.9, &CleanerConfig::default());
//! assert_eq!(report.items.len(), 5);
//! assert!(report.confidence >= 0.9);
//! ```

#![deny(unsafe_code)]
#![warn(
    clippy::undocumented_unsafe_blocks,
    clippy::iter_over_hash_type,
    clippy::allow_attributes_without_reason
)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod baselines;
pub mod budget;
pub mod cleaner;
pub mod dist;
pub mod metrics;
pub mod phase1;
pub mod pipeline;
pub mod pws;
pub mod select;
pub mod sim;
pub mod skyline;
pub mod stream;
pub mod topkprob;
pub mod window;
pub mod xtuple;

/// The types most programs need.
pub mod prelude {
    pub use crate::baselines::{scan_and_test, topk_indices, BaselineResult};
    pub use crate::budget::{CancelToken, QueryBudget, Termination};
    pub use crate::cleaner::{CleanerConfig, CleaningOracle};
    pub use crate::dist::DiscreteDist;
    pub use crate::metrics::{evaluate_topk, GroundTruth, ResultQuality};
    pub use crate::phase1::Phase1Config;
    pub use crate::pipeline::{Everest, PreparedVideo, QueryReport, ResultItem};
    pub use crate::sim::SimClock;
    pub use crate::stream::{StreamAnswer, StreamConfig, StreamTopK};
    pub use crate::xtuple::{ItemId, UncertainRelation};
}
