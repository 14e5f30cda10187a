//! # everest-bench — experiment harness
//!
//! [`figures`] holds the paper's §4 experiments, one function per
//! table/figure, over the shared helpers in [`harness`]; `src/bin/` wraps
//! each in a regeneration target. Timing lives in one place only: the
//! benchmark ladder (`src/bin/ladder`, declared by `BENCHMARK.json`).

#![deny(unsafe_code)]

pub mod figures;
pub mod harness;
