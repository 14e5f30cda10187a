//! EVQL example: the paper's three §1 use cases as one-line queries.
//!
//! ```text
//! cargo run --release --example evql_analytics
//! ```
//!
//! Property valuation, thumbnail generation and fleet management — the
//! motivating applications of the paper's introduction — each become a
//! single declarative statement. The session caches Phase-1 work, so the
//! follow-up query on `Archie` (same dataset, different K and confidence)
//! skips CMDN training entirely.

use everest::evql::{Output, Session};

fn main() {
    let mut session = Session::new();
    // Shrink the catalog to its 2 000-frame floor so the demo finishes in
    // seconds on CPU.
    session.settings.scale = 400;

    let statements = [
        // Use case 1 — property valuation: peak pedestrian/vehicle moments.
        "SELECT TOP 5 FRAMES FROM Archie WITH CONFIDENCE 0.9, SEED 42",
        // Same dataset, bigger K, stricter guarantee: Phase 1 is cached.
        "SELECT TOP 10 FRAMES FROM Archie WITH CONFIDENCE 0.95, SEED 42",
        // Use case 2 — thumbnail generation: the happiest vlog moments.
        "SELECT TOP 5 FRAMES FROM Vlog SCORE sentiment() WITH SEED 42",
        // Use case 3 — fleet management: the worst tailgating moments.
        "SELECT TOP 5 FRAMES FROM Dashcam-California SCORE tailgating() WITH SEED 42",
        // §3.4: the busiest 5-second clips (150 frames at 30 fps).
        "SELECT TOP 3 WINDOWS OF 150 FRAMES FROM Archie WITH SAMPLE 0.2, SEED 42",
        // §4 comparison: the same query on a baseline engine.
        "SELECT TOP 5 FRAMES FROM Archie USING noscope WITH SEED 42",
        // Live-feed mode: the same Top-K maintained continuously, one
        // answer per emit point (Phase 1 is cached from the queries above).
        "SELECT TOP 5 FRAMES FROM Archie EVERY 300 FRAMES EMIT WITH SEED 42, BUDGET 25",
        // §5 future work: Pareto-optimal frames in (count, coverage).
        // Reuses Archie's cached count-dimension Phase 1 from above.
        "SELECT SKYLINE FROM Archie WITH CONFIDENCE 0.8, SEED 42",
    ];

    for stmt in statements {
        println!("evql> {stmt}");
        match session.execute(stmt) {
            Ok(Output::Rows(answer)) => println!("{}", answer.render()),
            Ok(Output::Skyline(answer)) => println!("{}", answer.render()),
            Ok(Output::Stream(answer)) => println!("{}", answer.render()),
            Ok(Output::Message(m)) => println!("{m}"),
            Err(e) => {
                eprintln!("{}", e.render(stmt));
                std::process::exit(1);
            }
        }
    }

    println!(
        "cached Phase-1 preparations at exit: {}",
        session.cached_preparations()
    );
}
