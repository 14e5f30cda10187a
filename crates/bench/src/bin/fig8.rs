//! Regenerates Figure 8: [`everest_bench::figures::fig8`].
//!
//! `cargo run --release -p everest-bench --bin fig8`

use everest_bench::{figures, harness::scale_from_env};

fn main() {
    let scale = scale_from_env();
    figures::fig8(&scale);
}
