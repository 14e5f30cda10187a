//! Regenerates Figure 6: [`everest_bench::figures::fig6`].
//!
//! `cargo run --release -p everest-bench --bin fig6`

use everest_bench::{figures, harness::scale_from_env};

fn main() {
    let scale = scale_from_env();
    figures::fig6(&scale, &figures::prepare_catalog(&scale));
}
