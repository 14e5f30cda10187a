//! # everest-evql — a declarative Top-K video query language
//!
//! The Everest paper closes by pointing at "integrating it with an
//! expressive video query language or libraries like FrameQL" (§5). EVQL is
//! that integration: a small SQL-flavoured language whose only first-class
//! operation is the paper's contribution — **Top-K over video with a
//! probabilistic guarantee** — plus the baselines of §4 as alternative
//! engines, so the paper's comparisons can be re-run from one REPL line.
//!
//! ```text
//! SELECT TOP 50 FRAMES FROM Taipei-bus WITH CONFIDENCE 0.9
//! SELECT TOP 10 WINDOWS OF 150 FRAMES FROM Grand-Canal SCORE count(boat)
//! SELECT TOP 5 WINDOWS OF 60 FRAMES SLIDE 15 FROM Archie
//! SELECT TOP 50 FRAMES FROM Dashcam-California SCORE tailgating() WITH STEP 0.5
//! SELECT TOP 5 FRAMES FROM Archie EVERY 100 FRAMES EMIT   -- continuous Top-K
//! SELECT TOP 20 FRAMES FROM Archie USING noscope          -- §4 baseline
//! SELECT SKYLINE OF count(car), coverage() FROM Archie    -- §5 future work
//! EXPLAIN SELECT TOP 5 FRAMES FROM Vlog SCORE sentiment()
//! SHOW DATASETS; SET scale = 4
//! ```
//!
//! ## Pipeline
//!
//! `text → [lexer] → tokens → [parser] → AST → [analyze] → QueryPlan →
//! [exec] → rows`
//!
//! * [`lexer`] / [`token`] — spanned tokens, hyphenated identifiers,
//!   `--` comments;
//! * [`parser`] / [`ast`] — recursive descent, strict diagnostics;
//! * [`analyze`] — name resolution against the [`catalog`], parameter
//!   validation, "did-you-mean" hints;
//! * [`plan`] — validated plans and `EXPLAIN` rendering;
//! * [`exec`] — the [`exec::Session`]: executes plans on the Everest
//!   engine (or a §4 baseline), caching Phase-1 artifacts per
//!   `(dataset, score, scale, seed, step)` the way Focus-style systems
//!   ingest offline;
//! * [`error`] — spanned errors with caret rendering.
//!
//! ## Quick start
//!
//! ```no_run
//! use everest_evql::{Output, Session};
//!
//! let mut session = Session::new();
//! match session.execute("SELECT TOP 5 FRAMES FROM Archie").unwrap() {
//!     Output::Rows(answer) => {
//!         println!("{}", answer.render());
//!         assert!(answer.stats.confidence.unwrap() >= 0.9);
//!     }
//!     Output::Message(m) => println!("{m}"),
//!     other => println!("{other:?}"),
//! }
//! ```

#![deny(unsafe_code)]
#![warn(
    clippy::undocumented_unsafe_blocks,
    clippy::iter_over_hash_type,
    clippy::allow_attributes_without_reason
)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod analyze;
pub mod ast;
pub mod catalog;
pub mod error;
pub mod exec;
pub mod lexer;
pub mod parser;
pub mod plan;
pub mod shared;
pub mod token;
pub mod wire;

pub use analyze::{analyze as analyze_select, analyze_skyline, SessionSettings};
pub use error::EvqlError;
pub use exec::{
    AnswerRow, ExecStats, Output, QueryOutput, Session, SkylineOutput, SkylineRow, StreamOutput,
    StreamSession,
};
pub use parser::parse;
pub use plan::{Engine, PlanTarget, QueryPlan, SkylinePlan};
pub use shared::{CacheStats, SharedCache};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_api_parse_analyze_chain() {
        let stmt = match parse("SELECT TOP 3 FRAMES FROM Archie").unwrap() {
            ast::Statement::Select(s) => s,
            other => panic!("{other:?}"),
        };
        let plan = analyze_select(&stmt, &SessionSettings::default()).unwrap();
        assert_eq!(plan.k, 3);
        assert_eq!(plan.engine, Engine::Everest);
    }

    #[test]
    fn errors_render_with_carets_at_api_level() {
        let src = "SELECT TOP 3 FRAMES FROM Atlantis";
        let stmt = match parse(src).unwrap() {
            ast::Statement::Select(s) => s,
            other => panic!("{other:?}"),
        };
        let err = analyze_select(&stmt, &SessionSettings::default()).unwrap_err();
        let rendered = err.render(src);
        assert!(rendered.contains('^'), "{rendered}");
    }
}
