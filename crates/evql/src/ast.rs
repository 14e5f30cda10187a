//! Abstract syntax of EVQL statements.
//!
//! The grammar (keywords case-insensitive):
//!
//! ```text
//! statement  := select | skyline | EXPLAIN (select | skyline)
//!             | SHOW word | SET ident = literal
//! select     := SELECT TOP int target FROM source
//!               [SCORE ident '(' args ')']
//!               [USING ident]
//!               [EVERY int FRAMES EMIT]
//!               [WITHIN int ORACLE CALLS]
//!               [WITH option (',' option)*] [';']
//! skyline    := SELECT SKYLINE [OF call (',' call)*] FROM source
//!               [WITH option (',' option)*] [';']
//! target     := FRAMES | WINDOWS OF int FRAMES [SLIDE int]
//! source     := ident | string
//! args       := (ident | string | number) (',' …)*
//! option     := ident (number | int | ident | string)
//! ```
//!
//! The AST is purely syntactic: names are unresolved strings with spans.
//! Resolution and validation happen in [`crate::analyze`].

use crate::token::Span;

/// Any parsed EVQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    Select(SelectStmt),
    /// `SELECT SKYLINE [OF f1(), f2()] FROM …` — probabilistic skyline
    /// (the §5 future-work operator).
    Skyline(SkylineStmt),
    /// `EXPLAIN SELECT …` — plan only, no execution.
    Explain(SelectStmt),
    /// `EXPLAIN SELECT SKYLINE …`.
    ExplainSkyline(SkylineStmt),
    /// `SHOW DATASETS | SCORES | ENGINES | SETTINGS`.
    Show {
        what: String,
        span: Span,
    },
    /// `SET name = value` — session option.
    Set {
        name: String,
        value: Literal,
        span: Span,
    },
}

/// A `SELECT SKYLINE …` query: Pareto-optimal frames across two scores.
#[derive(Debug, Clone, PartialEq)]
pub struct SkylineStmt {
    /// The scoring dimensions as written; empty = the dataset's default
    /// pair. Analysis accepts exactly two.
    pub scores: Vec<ScoreCall>,
    /// Span of the `SKYLINE` keyword (for diagnostics).
    pub skyline_span: Span,
    pub source: String,
    pub source_span: Span,
    pub options: Vec<OptionClause>,
}

impl SkylineStmt {
    /// Looks an option up by case-insensitive name (last one wins).
    pub fn option(&self, name: &str) -> Option<&OptionClause> {
        self.options
            .iter()
            .rev()
            .find(|o| o.name.eq_ignore_ascii_case(name))
    }
}

/// A `SELECT TOP k …` query.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    /// Result size K.
    pub k: u64,
    pub k_span: Span,
    /// Frames or windows.
    pub target: Target,
    /// Dataset name, as written.
    pub source: String,
    pub source_span: Span,
    /// Scoring UDF call; `None` = the dataset's default score.
    pub score: Option<ScoreCall>,
    /// Processing engine; `None` = Everest.
    pub engine: Option<(String, Span)>,
    /// `EVERY <n> FRAMES EMIT` — continuous emission stride; `None` runs
    /// the query once over the whole video.
    pub every: Option<(u64, Span)>,
    /// `WITHIN <n> ORACLE CALLS` — hard cap on Phase-2 oracle calls;
    /// exceeding it yields a degraded (anytime) answer.
    pub within: Option<(u64, Span)>,
    /// `WITH` options in source order.
    pub options: Vec<OptionClause>,
}

/// What the query ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    Frames,
    /// Tumbling when `slide` is `None` (slide = len), else hopping/sliding.
    Windows {
        len: u64,
        len_span: Span,
        slide: Option<(u64, Span)>,
    },
}

/// A scoring-function call, e.g. `count(car)` or `tailgating()`.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreCall {
    pub name: String,
    pub name_span: Span,
    pub args: Vec<Literal>,
    /// Span of the whole call (for incompatibility diagnostics).
    pub span: Span,
}

/// One `WITH` option, e.g. `CONFIDENCE 0.9`.
#[derive(Debug, Clone, PartialEq)]
pub struct OptionClause {
    pub name: String,
    pub name_span: Span,
    pub value: Literal,
}

/// A literal argument or option value.
#[derive(Debug, Clone, PartialEq)]
pub struct Literal {
    pub value: LiteralValue,
    pub span: Span,
}

#[derive(Debug, Clone, PartialEq)]
pub enum LiteralValue {
    Int(u64),
    Float(f64),
    /// Bare word or quoted string.
    Word(String),
}

impl Literal {
    /// The literal as a float, when numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self.value {
            LiteralValue::Int(v) => Some(v as f64),
            LiteralValue::Float(v) => Some(v),
            LiteralValue::Word(_) => None,
        }
    }

    /// The literal as an unsigned integer, when it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self.value {
            LiteralValue::Int(v) => Some(v),
            _ => None,
        }
    }

    /// The literal as a word/string.
    pub fn as_word(&self) -> Option<&str> {
        match &self.value {
            LiteralValue::Word(s) => Some(s),
            _ => None,
        }
    }

    /// Display form for plans and error messages.
    pub fn display(&self) -> String {
        match &self.value {
            LiteralValue::Int(v) => v.to_string(),
            LiteralValue::Float(v) => format!("{v}"),
            LiteralValue::Word(s) => s.clone(),
        }
    }
}

impl SelectStmt {
    /// Looks an option up by case-insensitive name (last one wins, like SQL
    /// session settings).
    pub fn option(&self, name: &str) -> Option<&OptionClause> {
        self.options
            .iter()
            .rev()
            .find(|o| o.name.eq_ignore_ascii_case(name))
    }

    /// Canonical source rendering. Parsing the result yields the same
    /// statement back (modulo spans) — pinned by the parser's round-trip
    /// test.
    pub fn display(&self) -> String {
        let mut out = format!("SELECT TOP {} ", self.k);
        match self.target {
            Target::Frames => out.push_str("FRAMES"),
            Target::Windows { len, slide, .. } => {
                out.push_str(&format!("WINDOWS OF {len} FRAMES"));
                if let Some((s, _)) = slide {
                    out.push_str(&format!(" SLIDE {s}"));
                }
            }
        }
        out.push_str(&format!(" FROM '{}'", self.source));
        if let Some(score) = &self.score {
            let args: Vec<String> = score.args.iter().map(|a| a.display()).collect();
            out.push_str(&format!(" SCORE {}({})", score.name, args.join(", ")));
        }
        if let Some((engine, _)) = &self.engine {
            out.push_str(&format!(" USING {engine}"));
        }
        if let Some((n, _)) = self.every {
            out.push_str(&format!(" EVERY {n} FRAMES EMIT"));
        }
        if let Some((n, _)) = self.within {
            out.push_str(&format!(" WITHIN {n} ORACLE CALLS"));
        }
        if !self.options.is_empty() {
            let opts: Vec<String> = self
                .options
                .iter()
                .map(|o| format!("{} {}", o.name, o.value.display()))
                .collect();
            out.push_str(&format!(" WITH {}", opts.join(", ")));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(v: LiteralValue) -> Literal {
        Literal {
            value: v,
            span: Span::new(0, 0),
        }
    }

    #[test]
    fn literal_coercions() {
        assert_eq!(lit(LiteralValue::Int(5)).as_f64(), Some(5.0));
        assert_eq!(lit(LiteralValue::Float(0.9)).as_f64(), Some(0.9));
        assert_eq!(lit(LiteralValue::Word("x".into())).as_f64(), None);
        assert_eq!(lit(LiteralValue::Int(5)).as_u64(), Some(5));
        assert_eq!(
            lit(LiteralValue::Float(5.0)).as_u64(),
            None,
            "floats never coerce to int"
        );
        assert_eq!(lit(LiteralValue::Word("car".into())).as_word(), Some("car"));
    }

    #[test]
    fn last_duplicate_option_wins() {
        let mk = |name: &str, v: u64| OptionClause {
            name: name.into(),
            name_span: Span::new(0, 0),
            value: lit(LiteralValue::Int(v)),
        };
        let stmt = SelectStmt {
            k: 1,
            k_span: Span::new(0, 0),
            target: Target::Frames,
            source: "x".into(),
            source_span: Span::new(0, 0),
            score: None,
            engine: None,
            every: None,
            within: None,
            options: vec![mk("seed", 1), mk("SEED", 2)],
        };
        assert_eq!(stmt.option("seed").unwrap().value.as_u64(), Some(2));
        assert!(stmt.option("batch").is_none());
    }
}
