//! Regenerates Figure 7: [`everest_bench::figures::fig7`].
//!
//! `cargo run --release -p everest-bench --bin fig7`

use everest_bench::{figures, harness::scale_from_env};

fn main() {
    let scale = scale_from_env();
    figures::fig7(&scale, &figures::prepare_catalog(&scale));
}
