//! # Everest — Top-K Deep Video Analytics: A Probabilistic Approach
//!
//! A from-scratch Rust reproduction of the Everest system (SIGMOD 2021):
//! Top-K queries over video with **probabilistic guarantees** under
//! possible-world semantics, powered by CNN specialization (a convolutional
//! mixture density network proxy) and oracle-in-the-loop uncertain data
//! cleaning.
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`core`] (`everest-core`) — the paper's contribution: uncertain Top-K
//!   query processing, Phase 1/Phase 2 pipeline, windows, guarantees.
//! * [`video`] (`everest-video`) — synthetic video substrate (datasets,
//!   difference detector, decode cost model, Visual Road, dashcams).
//! * [`nn`] (`everest-nn`) — pure-Rust convolutional mixture density network.
//! * [`models`] (`everest-models`) — simulated deep-model oracles (incl.
//!   fault injection and retry wrappers), the HOG / TinyYOLOv3 baselines
//!   as noisy score tables.
//! * [`evql`] (`everest-evql`) — the declarative Top-K query language
//!   (§5's FrameQL-style integration) and the `everest-cli` shell.
//!
//! Start with `examples/quickstart.rs` (the paper's running example, then
//! one end-to-end EVQL query) and `examples/evql_analytics.rs` (the §1 use
//! cases, one statement each); `everest-core`'s crate docs walk through
//! the library API underneath.

#![deny(unsafe_code)]

pub use everest_core as core;
pub use everest_evql as evql;
pub use everest_models as models;
pub use everest_nn as nn;
pub use everest_video as video;

/// Convenience prelude with the types most programs need.
pub mod prelude {
    pub use everest_core::prelude::*;
    pub use everest_evql::{Output as EvqlOutput, Session as EvqlSession};
    pub use everest_models::{counting_oracle, InstrumentedOracle, Oracle};
    pub use everest_video::{DatasetSpec, Frame, SyntheticVideo, VideoStore};
}
