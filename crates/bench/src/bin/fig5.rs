//! Regenerates Figure 5: [`everest_bench::figures::fig5`].
//!
//! `cargo run --release -p everest-bench --bin fig5`

use everest_bench::{figures, harness::scale_from_env};

fn main() {
    let scale = scale_from_env();
    figures::fig5(&scale, &figures::prepare_catalog(&scale));
}
