//! Runs the entire evaluation in one process, sharing Phase-1 work across
//! the frame-level sweeps: every table/figure in [`everest_bench::figures`],
//! plus two ablations: the batch size `b` against oracle work, and the ψ
//! re-sort period.
//!
//! `EVEREST_SCALE=mid cargo run --release -p everest-bench --bin all_experiments`

use everest_bench::figures;
use everest_bench::harness::scale_from_env;
use everest_core::cleaner::CleanerConfig;
use everest_core::sim::component;

fn main() {
    let scale = scale_from_env();
    let k = scale.default_k;
    println!("===== Everest reproduction — full experiment suite =====");

    figures::table7(&scale);
    let datasets = figures::prepare_catalog(&scale);
    figures::fig4(&scale, &datasets);
    figures::table8(&scale, &datasets);
    figures::fig5(&scale, &datasets);
    figures::fig6(&scale, &datasets);
    figures::fig7(&scale, &datasets);
    figures::fig8(&scale);
    figures::fig9(&scale);

    // ---------- Ablations ----------
    println!("\n===== Ablations =====");
    let ds = &datasets[0]; // the smallest dataset keeps this section fast
    println!(
        "\n--- batch size b vs oracle work (Top-{k}, thres 0.9, {}) ---",
        ds.name
    );
    for &b in &[1usize, 4, 8, 16, 32] {
        let cfg = CleanerConfig {
            batch_size: b,
            ..CleanerConfig::default()
        };
        let report = ds.prepared.query_topk(&ds.oracle, k, 0.9, &cfg);
        println!(
            "b={:<3} cleaned {:>5} frames in {:>5} iterations (confirm {:>7.1}s sim)",
            b,
            report.cleaned,
            report.iterations,
            report.clock.component(component::CONFIRM)
        );
    }
    println!("\n--- ψ re-sort period (first 100 iterations) ---");
    for &period in &[1usize, 10, 50] {
        let cfg = CleanerConfig {
            resort_period: period,
            ..CleanerConfig::default()
        };
        let started = std::time::Instant::now();
        let report = ds.prepared.query_topk(&ds.oracle, k, 0.9, &cfg);
        println!(
            "period={:<3} cleaned {:>5}, select wall {:>8.2?} (total phase-2 wall {:>8.2?})",
            period,
            report.cleaned,
            report.clock.component(component::SELECT),
            started.elapsed()
        );
    }
    println!("\nDone.");
}
