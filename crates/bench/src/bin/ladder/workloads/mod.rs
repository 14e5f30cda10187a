//! The four workloads. Each is closed-loop — an analyst waits for an
//! answer before asking the next question — and is its own process.

pub mod ingest_cold;
pub mod query_warm;
pub mod served_mixed;
pub mod stream_live;

use crate::run::{host_slices_ms, Limit, Measured, Sizes, HOST_SLICES_PER_SIDE};

/// The workloads' names, in `BENCHMARK.json`'s order.
pub const WORKLOADS: [&str; 4] = ["ingest_cold", "query_warm", "stream_live", "served_mixed"];

pub fn run(name: &str, seed: u64, limit: &Limit, sizes: Sizes, trace: bool) -> Option<Measured> {
    let run = match name {
        "ingest_cold" => ingest_cold::run,
        "query_warm" => query_warm::run,
        "stream_live" => stream_live::run,
        "served_mixed" => served_mixed::run,
        _ => return None,
    };
    let before = host_slices_ms(HOST_SLICES_PER_SIDE);
    let mut measured = run(seed, limit, sizes, trace);
    measured.host_slice_ms = (before + host_slices_ms(HOST_SLICES_PER_SIDE)) / 2.0;
    Some(measured)
}
