//! # everest-video — synthetic video substrate
//!
//! The Everest paper evaluates on hours-long real videos (Table 7) decoded
//! with Decord. This crate is the from-scratch substitute: a **procedural,
//! deterministic scene renderer** whose ground-truth object annotations are
//! known per frame, plus the supporting machinery the paper's pipeline
//! needs from the video layer:
//!
//! * [`frame::Frame`] — grayscale frames with pixel-level ops (MSE, noise);
//! * [`scene`] — the renderer: objects as soft blobs over textured
//!   backgrounds, with camera pan/shake for moving-camera footage;
//! * [`arrival`] — object arrival processes (diurnal intensity, bursts,
//!   lifetimes) that create the heavy-tailed count profiles that make Top-K
//!   queries non-trivial;
//! * [`datasets`] — the seven-video catalog of the paper's Table 7, scaled
//!   ~1/400 in frame count so experiments run on a CPU in minutes;
//! * [`visualroad`] — a mini-city traffic simulator with a controllable car
//!   population (the Visual Road substitute used by Figure 8);
//! * [`dashcam`] — the lead-vehicle distance process behind the
//!   depth-estimation / tailgating UDF of Figure 9;
//! * [`store`] — the [`store::VideoStore`] abstraction plus a GOP-aware
//!   decode-cost model (sequential vs random access);
//! * [`diff`] — the clip-parallel MSE difference detector of §3.5.
//!
//! Everything is deterministic given a seed: `frame(i)` is a pure function
//! of `(video_seed, i)`, so no frames ever need to be stored.

#![deny(unsafe_code)]
#![warn(
    clippy::undocumented_unsafe_blocks,
    clippy::iter_over_hash_type,
    clippy::allow_attributes_without_reason
)]

pub mod arrival;
pub mod dashcam;
pub mod datasets;
pub mod diff;
pub mod frame;
pub mod scene;
pub mod sentiment;
pub mod store;
pub mod util;
pub mod visualroad;

pub use datasets::{DatasetSpec, SceneStyle};
pub use diff::{DiffConfig, DifferenceDetector, Segments};
pub use frame::Frame;
pub use scene::{GroundTruthObject, ObjectClass, SyntheticVideo};
pub use store::{DecodeCostModel, VideoStore};
