//! Quickstart: the paper's running example (Tables 1a, 4, 5) followed by a
//! real end-to-end Top-K query, run as one EVQL statement.
//!
//! Run with: `cargo run --release --example quickstart`
//!
//! `examples/evql_analytics.rs` runs the paper's §1 use cases the same way;
//! `everest-core`'s crate docs walk through the library API underneath.

use everest::core::dist::DiscreteDist;
use everest::core::pws::topk_confidence_bruteforce;
use everest::core::topkprob::{topk_prob, JointCdf};
use everest::core::xtuple::UncertainRelation;
use everest::evql::{Output, Session};

fn main() {
    paper_running_example();
    end_to_end_query();
}

/// Reproduces §3's worked example: the uncertain relation of Table 1a, the
/// possible worlds of Table 4, and the certain-result condition via
/// Table 5.
fn paper_running_example() {
    println!("=== The paper's running example (Tables 1a, 4, 5) ===");
    // Table 1a: three frames with car-count distributions over {0, 1, 2}.
    let mut rel = UncertainRelation::new(1.0, 2);
    rel.push_uncertain(DiscreteDist::from_masses(&[0.78, 0.21, 0.01])); // f1
    rel.push_uncertain(DiscreteDist::from_masses(&[0.49, 0.42, 0.09])); // f2
    rel.push_uncertain(DiscreteDist::from_masses(&[0.16, 0.48, 0.36])); // f3

    // Table 4: two possible worlds and their probabilities.
    let w1 = 0.78 * 0.49 * 0.16;
    let w2 = 0.21 * 0.49 * 0.16;
    println!("Pr(W1 = (0,0,0)) = {w1:.4}   Pr(W2 = (1,0,0)) = {w2:.4}");

    // Top-1 = {f3} has confidence 0.85 under Eq. 1 …
    let before = topk_confidence_bruteforce(&rel, &[2], 1).expect("27 worlds are enumerable");
    println!("Pr({{f3}} is Top-1) before cleaning = {before:.4} (paper: 0.85)");

    // … but the certain-result condition requires confirming f3 first.
    // Table 5: Oracle(f3) returns 0 and the confidence drops to 0.38.
    let mut h = JointCdf::build(&rel);
    let old = rel.clean(2, 0);
    h.remove(&old);
    let after = topk_prob(&h, 0);
    println!("Pr({{f3}} is Top-1) after Oracle(f3)=0 = {after:.4} (paper: 0.38)");
    println!();
}

/// A real query: the Top-5 busiest moments of a traffic video with a 0.9
/// probabilistic guarantee. Phase 1 (difference detection, CMDN training,
/// `D0`) and Phase 2 (oracle-in-the-loop cleaning) both run inside the
/// statement; the `engine=` line sets its simulated cost against
/// scan-and-test's.
fn end_to_end_query() {
    println!("=== End-to-end Top-5 query (thres = 0.9) ===");
    let mut session = Session::new();
    // The catalog's smallest size (2 000 frames), so the demo answers in
    // well under a second.
    session.settings.scale = 400;
    let stmt = "SELECT TOP 5 FRAMES FROM Archie WITH CONFIDENCE 0.9, SEED 42";
    println!("evql> {stmt}");
    match session.execute(stmt) {
        Ok(Output::Rows(answer)) => print!("{}", answer.render()),
        Ok(_) => unreachable!("a SELECT TOP statement answers with rows"),
        Err(e) => {
            eprintln!("{}", e.render(stmt));
            std::process::exit(1);
        }
    }
}
