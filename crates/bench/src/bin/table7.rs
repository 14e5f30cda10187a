//! Regenerates Table 7: [`everest_bench::figures::table7`].
//!
//! `cargo run --release -p everest-bench --bin table7`

use everest_bench::{figures, harness::scale_from_env};

fn main() {
    let scale = scale_from_env();
    figures::table7(&scale);
}
