//! Regenerates Figure 4: [`everest_bench::figures::fig4`].
//!
//! `cargo run --release -p everest-bench --bin fig4`

use everest_bench::{figures, harness::scale_from_env};

fn main() {
    let scale = scale_from_env();
    figures::fig4(&scale, &figures::prepare_catalog(&scale));
}
