//! Property tests for EVQL: print/parse round-trips for well-formed
//! queries, no-panic guarantees on arbitrary input for every front-end
//! stage (lexer, parser, analysis), and no panic from executing any K.

use everest::evql::analyze_select;
use everest::evql::ast::{Statement, Target};
use everest::evql::parse;
use everest::evql::{Output, Session, SessionSettings};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{LazyLock, Mutex};

// ---- generators for well-formed queries ----

fn arb_dataset() -> impl Strategy<Value = &'static str> {
    prop::sample::select(vec![
        "Archie",
        "Daxi-old-street",
        "Grand-Canal",
        "Irish-Center",
        "Taipei-bus",
        "VisualRoad-100",
        "Dashcam-California",
        "Vlog",
    ])
}

fn arb_engine() -> impl Strategy<Value = &'static str> {
    prop::sample::select(vec![
        "everest",
        "scan",
        "oracle",
        "cmdn",
        "hog",
        "tinyyolo",
        "noscope",
        "select_topk",
    ])
}

#[derive(Debug, Clone)]
struct QuerySpec {
    k: u64,
    window: Option<(u64, Option<u64>)>,
    dataset: &'static str,
    engine: Option<&'static str>,
    confidence: Option<u32>, // percent, 1..=99
    seed: Option<u64>,
    whitespace: bool,
    lowercase_kw: bool,
}

fn arb_query() -> impl Strategy<Value = QuerySpec> {
    (
        1u64..=20,
        proptest::option::of((2u64..=60, proptest::option::of(1u64..=60))),
        arb_dataset(),
        proptest::option::of(arb_engine()),
        proptest::option::of(1u32..=99),
        proptest::option::of(0u64..=1_000),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(
            |(k, window, dataset, engine, confidence, seed, whitespace, lowercase_kw)| QuerySpec {
                k,
                window: window.map(|(len, slide)| (len, slide.map(|s| s.min(len).max(1)))),
                dataset,
                engine,
                confidence,
                seed,
                whitespace,
                lowercase_kw,
            },
        )
}

impl QuerySpec {
    fn render(&self) -> String {
        let kw = |s: &str| {
            if self.lowercase_kw {
                s.to_ascii_lowercase()
            } else {
                s.to_string()
            }
        };
        let pad = if self.whitespace { "  " } else { " " };
        let mut q = format!("{}{pad}{}{pad}{}", kw("SELECT"), kw("TOP"), self.k);
        match self.window {
            None => q.push_str(&format!("{pad}{}", kw("FRAMES"))),
            Some((len, slide)) => {
                q.push_str(&format!(
                    "{pad}{}{pad}{}{pad}{len}{pad}{}",
                    kw("WINDOWS"),
                    kw("OF"),
                    kw("FRAMES")
                ));
                if let Some(s) = slide {
                    q.push_str(&format!("{pad}{}{pad}{s}", kw("SLIDE")));
                }
            }
        }
        q.push_str(&format!("{pad}{}{pad}{}", kw("FROM"), self.dataset));
        if let Some(e) = self.engine {
            q.push_str(&format!("{pad}{}{pad}{e}", kw("USING")));
        }
        let mut opts: Vec<String> = Vec::new();
        if let Some(c) = self.confidence {
            opts.push(format!("{} 0.{c:02}", kw("CONFIDENCE")));
        }
        if let Some(s) = self.seed {
            opts.push(format!("{} {s}", kw("SEED")));
        }
        if !opts.is_empty() {
            q.push_str(&format!("{pad}{}{pad}{}", kw("WITH"), opts.join(", ")));
        }
        q
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Well-formed queries parse, and the AST reflects exactly what was
    /// printed (print → parse round-trip on the semantic fields).
    #[test]
    fn well_formed_queries_round_trip(spec in arb_query()) {
        let text = spec.render();
        let stmt = match parse(&text) {
            Ok(Statement::Select(s)) => s,
            other => return Err(TestCaseError::fail(format!("{text} → {other:?}"))),
        };
        prop_assert_eq!(stmt.k, spec.k, "{}", text);
        prop_assert_eq!(&stmt.source, spec.dataset, "{}", text);
        match (spec.window, stmt.target) {
            (None, Target::Frames) => {}
            (Some((len, slide)), Target::Windows { len: l, slide: s, .. }) => {
                prop_assert_eq!(len, l);
                prop_assert_eq!(slide, s.map(|(v, _)| v));
            }
            (w, t) => return Err(TestCaseError::fail(format!("{w:?} vs {t:?}"))),
        }
        prop_assert_eq!(
            stmt.engine.as_ref().map(|(e, _)| e.as_str()),
            spec.engine,
            "{}", text
        );
        if let Some(c) = spec.confidence {
            let got = stmt.option("confidence").unwrap().value.as_f64().unwrap();
            prop_assert!((got - f64::from(c) / 100.0).abs() < 1e-12);
        }
    }

    /// Well-formed queries also pass analysis (valid dataset + parameters
    /// by construction), and planning preserves K and the engine.
    #[test]
    fn well_formed_queries_analyze(spec in arb_query()) {
        let text = spec.render();
        let stmt = match parse(&text) {
            Ok(Statement::Select(s)) => s,
            other => return Err(TestCaseError::fail(format!("{text} → {other:?}"))),
        };
        // Window engines other than everest/scan are rejected by design;
        // skip those combinations (they are covered by unit tests).
        let windowed = spec.window.is_some();
        let engine_ok = matches!(spec.engine, None | Some("everest") | Some("scan") | Some("oracle"));
        // tailgating/sentiment datasets reject nothing here (default score).
        if windowed && !engine_ok {
            prop_assert!(analyze_select(&stmt, &SessionSettings::default()).is_err());
        } else {
            let plan = analyze_select(&stmt, &SessionSettings::default())
                .map_err(|e| TestCaseError::fail(format!("{text}: {}", e.message())))?;
            prop_assert_eq!(plan.k as u64, spec.k);
            if let Some(c) = spec.confidence {
                prop_assert!((plan.thres - f64::from(c) / 100.0).abs() < 1e-12);
            }
        }
    }

    /// The lexer and parser never panic, whatever bytes arrive.
    #[test]
    fn parser_total_on_arbitrary_input(input in "\\PC{0,80}") {
        let _ = parse(&input); // Ok or Err — never a panic
    }

    /// Near-miss queries (random keyword soup) never panic either, and
    /// analysis is total on whatever parses.
    #[test]
    fn analysis_total_on_keyword_soup(
        words in proptest::collection::vec(
            prop::sample::select(vec![
                "SELECT", "TOP", "FRAMES", "WINDOWS", "OF", "SLIDE", "FROM",
                "Archie", "USING", "WITH", "CONFIDENCE", "5", "0.9", "(", ")",
                ",", "count", "car", "scan",
            ]),
            0..12,
        ),
    ) {
        let text = words.join(" ");
        if let Ok(Statement::Select(stmt)) = parse(&text) {
            let _ = analyze_select(&stmt, &SessionSettings::default());
        }
    }
}

/// One session for every case, so Phase 1 runs once per video.
static SESSION: LazyLock<Mutex<Session>> = LazyLock::new(|| {
    let mut session = Session::new();
    session.execute("SET scale = 1000").unwrap();
    Mutex::new(session)
});

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any K the analysis accepts either answers with K rows or returns a
    /// typed error — including K beyond the frames difference detection
    /// retains (ROADMAP aim 3's "K ≥ n" edge). Half the cases draw K
    /// below 200, where the retained counts lie.
    #[test]
    fn no_statement_panics(
        k in (any::<bool>(), 1usize..200, 1usize..=2_000)
            .prop_map(|(small, lo, any)| if small { lo } else { any }),
        engine in prop::sample::select(vec!["everest", "cmdn", "noscope", "scan"]),
        video in prop::sample::select(vec!["Dashcam-California", "Dashcam-Greenport", "Archie"]),
    ) {
        let q = format!("SELECT TOP {k} FRAMES FROM {video} USING {engine}");
        let mut session = SESSION.lock().unwrap_or_else(|e| e.into_inner());
        match catch_unwind(AssertUnwindSafe(|| session.execute(&q))) {
            Ok(Ok(Output::Rows(out))) => prop_assert_eq!(out.rows.len(), k, "{}", q),
            Ok(Ok(other)) => return Err(TestCaseError::fail(format!("{q} → {other:?}"))),
            Ok(Err(_)) => {}
            Err(_) => return Err(TestCaseError::fail(format!("{q} panicked"))),
        }
    }
}
