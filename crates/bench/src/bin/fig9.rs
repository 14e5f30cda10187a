//! Regenerates Figure 9: [`everest_bench::figures::fig9`].
//!
//! `cargo run --release -p everest-bench --bin fig9`

use everest_bench::{figures, harness::scale_from_env};

fn main() {
    let scale = scale_from_env();
    figures::fig9(&scale);
}
