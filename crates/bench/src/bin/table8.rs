//! Regenerates Table 8: [`everest_bench::figures::table8`].
//!
//! `cargo run --release -p everest-bench --bin table8`

use everest_bench::{figures, harness::scale_from_env};

fn main() {
    let scale = scale_from_env();
    figures::table8(&scale, &figures::prepare_catalog(&scale));
}
