//! # everest-models — simulated deep-model oracles and baseline scorers
//!
//! Everest treats an accurate-but-slow deep model as a ground-truth
//! **oracle** (§2: "a video relation that is materialized by an accurate
//! deep CNN such as YOLOv3 is regarded as the ground-truth"). This crate is
//! the model zoo of the reproduction:
//!
//! * [`oracle`] — the [`oracle::Oracle`] trait (exact batch scoring + a
//!   simulated per-frame GPU cost) with instrumentation;
//! * [`fault`] — fault injection and tolerance: [`fault::FlakyOracle`]
//!   (seeded deterministic timeouts/transient errors/latency spikes) and
//!   [`fault::RetryingOracle`] (sim-clock backoff + circuit breaker);
//! * [`counting`] — the default object-counting UDF of Figure 3;
//! * [`depth`] — the depth-estimator oracle behind the tailgating UDF
//!   (Figure 9);
//! * [`classic`] — HOG and TinyYOLOv3 stand-ins: noisy score tables whose
//!   noise and cost constants are calibrated to their roles in Figure 4
//!   (fast and/or classic, but far too inaccurate to rank frames).
//!
//! Cost constants are simulated seconds per frame; every reported speedup
//! is a ratio of simulated times, so only the *relative* magnitudes matter.

#![deny(unsafe_code)]
#![warn(
    clippy::undocumented_unsafe_blocks,
    clippy::iter_over_hash_type,
    clippy::allow_attributes_without_reason
)]

pub mod classic;
pub mod counting;
pub mod depth;
pub mod fault;
pub mod oracle;
pub mod sentiment;

pub use classic::{hog_oracle, tiny_yolo_oracle};
pub use counting::{counting_oracle, coverage_oracle};
pub use depth::depth_oracle;
pub use fault::{FlakyOracle, OracleError, RetryingOracle};
pub use oracle::{ExactScoreOracle, InstrumentedOracle, Oracle};
