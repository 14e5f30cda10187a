//! Taint fixture (fail), source side: a wall-clock reading laundered
//! through two return-value hops — only the graph rule can follow the
//! value.

use std::time::Instant;

pub fn stamp_micros() -> u64 {
    let t = Instant::now();
    t.elapsed().as_micros() as u64
}

pub fn freshness_token() -> u64 {
    stamp_micros() ^ 0x5eed
}
