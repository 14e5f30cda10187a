//! Recursive-descent parser for EVQL.
//!
//! The parser consumes the token stream from [`crate::lexer`] and produces
//! the [`crate::ast`] types. It is deliberately strict: every fork in the
//! grammar reports what it expected and what it found, with a span, so the
//! CLI can render a caret diagnostic.

use crate::ast::{Literal, LiteralValue, OptionClause, ScoreCall, SelectStmt, Statement, Target};
use crate::error::{ErrorKind, EvqlError};
use crate::lexer::lex;
use crate::token::{Span, Token, TokenKind};

/// Parses exactly one statement (a trailing `;` is allowed).
pub fn parse(src: &str) -> Result<Statement, EvqlError> {
    let tokens = lex(src)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        src_len: src.len(),
    };
    let stmt = p.statement()?;
    p.eat_semi();
    if let Some(t) = p.peek() {
        return Err(EvqlError::new(ErrorKind::TrailingInput, t.span));
    }
    Ok(stmt)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    src_len: usize,
}

impl Parser {
    // ---- token plumbing ----

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn end_span(&self) -> Span {
        Span::point(self.src_len)
    }

    fn err_expected(&self, wanted: &str) -> EvqlError {
        match self.peek() {
            Some(t) => EvqlError::new(
                ErrorKind::Expected {
                    wanted: wanted.into(),
                    got: t.kind.describe(),
                },
                t.span,
            ),
            None => EvqlError::new(
                ErrorKind::UnexpectedEnd {
                    wanted: wanted.into(),
                },
                self.end_span(),
            ),
        }
    }

    /// Consumes the next token if it is the keyword `kw`.
    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek().is_some_and(|t| t.is_kw(kw)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<Span, EvqlError> {
        match self.peek() {
            Some(t) if t.is_kw(kw) => {
                let span = t.span;
                self.pos += 1;
                Ok(span)
            }
            _ => Err(self.err_expected(&format!("`{kw}`"))),
        }
    }

    fn expect_ident(&mut self, what: &str) -> Result<(String, Span), EvqlError> {
        match self.peek() {
            Some(Token {
                kind: TokenKind::Ident(s),
                span,
            }) => {
                let out = (s.clone(), *span);
                self.pos += 1;
                Ok(out)
            }
            _ => Err(self.err_expected(what)),
        }
    }

    fn expect_int(&mut self, what: &str) -> Result<(u64, Span), EvqlError> {
        match self.peek() {
            Some(Token {
                kind: TokenKind::Int(v),
                span,
            }) => {
                let out = (*v, *span);
                self.pos += 1;
                Ok(out)
            }
            _ => Err(self.err_expected(what)),
        }
    }

    fn eat_semi(&mut self) {
        while self.peek().is_some_and(|t| t.kind == TokenKind::Semi) {
            self.pos += 1;
        }
    }

    // ---- grammar ----

    fn statement(&mut self) -> Result<Statement, EvqlError> {
        match self.peek() {
            Some(t) if t.is_kw("SELECT") => {
                // Lookahead: `SELECT SKYLINE …` vs `SELECT TOP …`.
                if self
                    .tokens
                    .get(self.pos + 1)
                    .is_some_and(|t| t.is_kw("SKYLINE"))
                {
                    return Ok(Statement::Skyline(self.skyline()?));
                }
                Ok(Statement::Select(self.select()?))
            }
            Some(t) if t.is_kw("EXPLAIN") => {
                self.pos += 1;
                if self
                    .tokens
                    .get(self.pos + 1)
                    .is_some_and(|t| t.is_kw("SKYLINE"))
                {
                    return Ok(Statement::ExplainSkyline(self.skyline()?));
                }
                Ok(Statement::Explain(self.select()?))
            }
            Some(t) if t.is_kw("SHOW") => {
                self.pos += 1;
                let (what, span) =
                    self.expect_ident("`DATASETS`, `SCORES`, `ENGINES` or `SETTINGS`")?;
                Ok(Statement::Show { what, span })
            }
            Some(t) if t.is_kw("SET") => {
                let set_start = t.span;
                self.pos += 1;
                let (name, _) = self.expect_ident("a setting name")?;
                // `SET name = value` and `SET name value` both accepted.
                if self.peek().is_some_and(|t| t.kind == TokenKind::Eq) {
                    self.pos += 1;
                }
                let value = self.literal("a setting value")?;
                let span = set_start.merge(value.span);
                Ok(Statement::Set { name, value, span })
            }
            _ => Err(self.err_expected("`SELECT`, `EXPLAIN`, `SHOW` or `SET`")),
        }
    }

    fn select(&mut self) -> Result<SelectStmt, EvqlError> {
        self.expect_kw("SELECT")?;
        self.expect_kw("TOP")?;
        let (k, k_span) = self.expect_int("K (a positive integer)")?;
        let target = self.target()?;
        self.expect_kw("FROM")?;
        let (source, source_span) = self.source()?;

        let mut score = None;
        let mut engine = None;
        let mut every = None;
        let mut within = None;
        let mut options = Vec::new();
        loop {
            if self.eat_kw("SCORE") {
                if score.is_some() {
                    return Err(self.duplicate_clause("SCORE"));
                }
                score = Some(self.score_call()?);
            } else if self.eat_kw("USING") {
                if engine.is_some() {
                    return Err(self.duplicate_clause("USING"));
                }
                engine = Some(self.expect_ident("an engine name")?);
            } else if self.eat_kw("EVERY") {
                if every.is_some() {
                    return Err(self.duplicate_clause("EVERY"));
                }
                let (n, span) = self.expect_int("the emit stride in frames")?;
                self.expect_kw("FRAMES")?;
                self.expect_kw("EMIT")?;
                every = Some((n, span));
            } else if self.eat_kw("WITHIN") {
                if within.is_some() {
                    return Err(self.duplicate_clause("WITHIN"));
                }
                let (n, span) = self.expect_int("the oracle-call budget")?;
                self.expect_kw("ORACLE")?;
                self.expect_kw("CALLS")?;
                within = Some((n, span));
            } else if self.eat_kw("WITH") {
                options.push(self.option_clause()?);
                while self.peek().is_some_and(|t| t.kind == TokenKind::Comma) {
                    self.pos += 1;
                    options.push(self.option_clause()?);
                }
            } else {
                break;
            }
        }
        Ok(SelectStmt {
            k,
            k_span,
            target,
            source,
            source_span,
            score,
            engine,
            every,
            within,
            options,
        })
    }

    fn skyline(&mut self) -> Result<crate::ast::SkylineStmt, EvqlError> {
        self.expect_kw("SELECT")?;
        let skyline_span = self.expect_kw("SKYLINE")?;
        let mut scores = Vec::new();
        if self.eat_kw("OF") {
            scores.push(self.score_call()?);
            while self.peek().is_some_and(|t| t.kind == TokenKind::Comma) {
                self.pos += 1;
                scores.push(self.score_call()?);
            }
        }
        self.expect_kw("FROM")?;
        let (source, source_span) = self.source()?;
        let mut options = Vec::new();
        while self.eat_kw("WITH") {
            options.push(self.option_clause()?);
            while self.peek().is_some_and(|t| t.kind == TokenKind::Comma) {
                self.pos += 1;
                options.push(self.option_clause()?);
            }
        }
        Ok(crate::ast::SkylineStmt {
            scores,
            skyline_span,
            source,
            source_span,
            options,
        })
    }

    fn duplicate_clause(&self, clause: &str) -> EvqlError {
        let span = self
            .tokens
            .get(self.pos.saturating_sub(1))
            .map_or(self.end_span(), |t| t.span);
        EvqlError::new(
            ErrorKind::Expected {
                wanted: format!("at most one `{clause}` clause"),
                got: format!("a second `{clause}`"),
            },
            span,
        )
    }

    fn target(&mut self) -> Result<Target, EvqlError> {
        if self.eat_kw("FRAMES") {
            return Ok(Target::Frames);
        }
        if self.eat_kw("WINDOWS") {
            self.expect_kw("OF")?;
            let (len, len_span) = self.expect_int("the window length in frames")?;
            self.expect_kw("FRAMES")?;
            let slide = if self.eat_kw("SLIDE") {
                Some(self.expect_int("the slide step in frames")?)
            } else {
                None
            };
            return Ok(Target::Windows {
                len,
                len_span,
                slide,
            });
        }
        Err(self.err_expected("`FRAMES` or `WINDOWS OF <n> FRAMES`"))
    }

    fn source(&mut self) -> Result<(String, Span), EvqlError> {
        match self.peek() {
            Some(Token {
                kind: TokenKind::Ident(s),
                span,
            }) => {
                let out = (s.clone(), *span);
                self.pos += 1;
                Ok(out)
            }
            Some(Token {
                kind: TokenKind::Str(s),
                span,
            }) => {
                let out = (s.clone(), *span);
                self.pos += 1;
                Ok(out)
            }
            _ => Err(self.err_expected("a dataset name")),
        }
    }

    fn score_call(&mut self) -> Result<ScoreCall, EvqlError> {
        let (name, name_span) = self.expect_ident("a scoring function name")?;
        match self.peek() {
            Some(Token {
                kind: TokenKind::LParen,
                ..
            }) => {
                self.pos += 1;
            }
            _ => return Err(self.err_expected("`(` after the scoring function name")),
        }
        let mut args = Vec::new();
        if !self.peek().is_some_and(|t| t.kind == TokenKind::RParen) {
            args.push(self.literal("a scoring-function argument")?);
            while self.peek().is_some_and(|t| t.kind == TokenKind::Comma) {
                self.pos += 1;
                args.push(self.literal("a scoring-function argument")?);
            }
        }
        let rparen = match self.next() {
            Some(Token {
                kind: TokenKind::RParen,
                span,
            }) => span,
            Some(t) => {
                return Err(EvqlError::new(
                    ErrorKind::Expected {
                        wanted: "`)`".into(),
                        got: t.kind.describe(),
                    },
                    t.span,
                ))
            }
            None => {
                return Err(EvqlError::new(
                    ErrorKind::UnexpectedEnd {
                        wanted: "`)`".into(),
                    },
                    self.end_span(),
                ))
            }
        };
        Ok(ScoreCall {
            name,
            name_span,
            args,
            span: name_span.merge(rparen),
        })
    }

    fn option_clause(&mut self) -> Result<OptionClause, EvqlError> {
        let (name, name_span) = self.expect_ident("an option name (e.g. `CONFIDENCE`)")?;
        // `WITH CONFIDENCE 0.9` and `WITH CONFIDENCE = 0.9` both accepted.
        if self.peek().is_some_and(|t| t.kind == TokenKind::Eq) {
            self.pos += 1;
        }
        let value = self.literal(&format!("a value for option `{name}`"))?;
        Ok(OptionClause {
            name,
            name_span,
            value,
        })
    }

    fn literal(&mut self, what: &str) -> Result<Literal, EvqlError> {
        match self.peek().cloned() {
            Some(Token {
                kind: TokenKind::Int(v),
                span,
            }) => {
                self.pos += 1;
                Ok(Literal {
                    value: LiteralValue::Int(v),
                    span,
                })
            }
            Some(Token {
                kind: TokenKind::Float(v),
                span,
            }) => {
                self.pos += 1;
                Ok(Literal {
                    value: LiteralValue::Float(v),
                    span,
                })
            }
            Some(Token {
                kind: TokenKind::Ident(s),
                span,
            })
            | Some(Token {
                kind: TokenKind::Str(s),
                span,
            }) => {
                self.pos += 1;
                Ok(Literal {
                    value: LiteralValue::Word(s),
                    span,
                })
            }
            _ => Err(self.err_expected(what)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn select(src: &str) -> SelectStmt {
        match parse(src).unwrap() {
            Statement::Select(s) => s,
            other => panic!("expected SELECT, got {other:?}"),
        }
    }

    #[test]
    fn minimal_frame_query() {
        let s = select("SELECT TOP 50 FRAMES FROM Archie");
        assert_eq!(s.k, 50);
        assert_eq!(s.target, Target::Frames);
        assert_eq!(s.source, "Archie");
        assert!(s.score.is_none() && s.engine.is_none() && s.options.is_empty());
    }

    #[test]
    fn full_frame_query_with_everything() {
        let s = select(
            "SELECT TOP 10 FRAMES FROM Grand-Canal \
             SCORE count(boat) USING everest \
             WITH CONFIDENCE 0.95, SEED 7, BATCH 4;",
        );
        assert_eq!(s.k, 10);
        let score = s.score.as_ref().unwrap();
        assert_eq!(score.name, "count");
        assert_eq!(score.args.len(), 1);
        assert_eq!(score.args[0].as_word(), Some("boat"));
        assert_eq!(s.engine.as_ref().unwrap().0, "everest");
        assert_eq!(s.options.len(), 3);
        assert_eq!(s.option("confidence").unwrap().value.as_f64(), Some(0.95));
        assert_eq!(s.option("seed").unwrap().value.as_u64(), Some(7));
        assert_eq!(s.option("batch").unwrap().value.as_u64(), Some(4));
    }

    #[test]
    fn tumbling_window_query() {
        let s = select("SELECT TOP 5 WINDOWS OF 30 FRAMES FROM Taipei-bus WITH SAMPLE 0.1");
        match s.target {
            Target::Windows { len, slide, .. } => {
                assert_eq!(len, 30);
                assert!(slide.is_none());
            }
            t => panic!("wrong target {t:?}"),
        }
    }

    #[test]
    fn sliding_window_query() {
        let s = select("SELECT TOP 5 WINDOWS OF 60 FRAMES SLIDE 15 FROM Archie");
        match s.target {
            Target::Windows { len, slide, .. } => {
                assert_eq!(len, 60);
                assert_eq!(slide.unwrap().0, 15);
            }
            t => panic!("wrong target {t:?}"),
        }
    }

    #[test]
    fn quoted_source_and_zero_arg_score() {
        let s = select("SELECT TOP 3 FRAMES FROM 'Dashcam-California' SCORE tailgating()");
        assert_eq!(s.source, "Dashcam-California");
        assert!(s.score.unwrap().args.is_empty());
    }

    #[test]
    fn explain_show_set() {
        assert!(matches!(
            parse("EXPLAIN SELECT TOP 1 FRAMES FROM x").unwrap(),
            Statement::Explain(_)
        ));
        match parse("SHOW DATASETS").unwrap() {
            Statement::Show { what, .. } => assert_eq!(what, "DATASETS"),
            other => panic!("{other:?}"),
        }
        match parse("SET scale = 8").unwrap() {
            Statement::Set { name, value, .. } => {
                assert_eq!(name, "scale");
                assert_eq!(value.as_u64(), Some(8));
            }
            other => panic!("{other:?}"),
        }
        // SET without `=` also parses
        assert!(matches!(
            parse("SET scale 8").unwrap(),
            Statement::Set { .. }
        ));
    }

    #[test]
    fn options_accept_equals_sign() {
        let s = select("SELECT TOP 2 FRAMES FROM x WITH CONFIDENCE = 0.9");
        assert_eq!(s.option("confidence").unwrap().value.as_f64(), Some(0.9));
    }

    #[test]
    fn multiple_with_clauses_accumulate() {
        let s = select("SELECT TOP 2 FRAMES FROM x WITH SEED 1 WITH BATCH 2");
        assert_eq!(s.options.len(), 2);
    }

    #[test]
    fn clause_order_is_flexible() {
        let s = select("SELECT TOP 2 FRAMES FROM x USING scan SCORE count(car)");
        assert!(s.engine.is_some() && s.score.is_some());
    }

    // ---- error paths ----

    fn err(src: &str) -> EvqlError {
        parse(src).unwrap_err()
    }

    #[test]
    fn missing_top_k() {
        let e = err("SELECT FRAMES FROM x");
        assert!(e.message().contains("`TOP`"), "{}", e.message());
    }

    #[test]
    fn k_must_be_integer() {
        let e = err("SELECT TOP 0.5 FRAMES FROM x");
        assert!(e.message().contains("K"), "{}", e.message());
    }

    #[test]
    fn windows_require_of_and_frames() {
        let e = err("SELECT TOP 5 WINDOWS 30 FROM x");
        assert!(e.message().contains("`OF`"), "{}", e.message());
        let e = err("SELECT TOP 5 WINDOWS OF 30 FROM x");
        assert!(e.message().contains("`FRAMES`"), "{}", e.message());
    }

    #[test]
    fn truncated_query_reports_end() {
        let e = err("SELECT TOP 5");
        assert!(matches!(e.kind, ErrorKind::UnexpectedEnd { .. }), "{e:?}");
    }

    #[test]
    fn trailing_garbage_rejected() {
        let e = err("SELECT TOP 5 FRAMES FROM x bogus trailing");
        // `bogus` is consumed as... actually after FROM x the parser loop
        // breaks at `bogus`, so it is trailing input.
        assert_eq!(e.kind, ErrorKind::TrailingInput);
    }

    #[test]
    fn duplicate_score_clause_rejected() {
        let e = err("SELECT TOP 5 FRAMES FROM x SCORE count(car) SCORE count(bus)");
        assert!(e.message().contains("at most one"), "{}", e.message());
    }

    #[test]
    fn score_requires_parentheses() {
        let e = err("SELECT TOP 5 FRAMES FROM x SCORE count");
        assert!(e.message().contains("`(`"), "{}", e.message());
        let e = err("SELECT TOP 5 FRAMES FROM x SCORE count(car");
        assert!(e.message().contains("`)`"), "{}", e.message());
    }

    #[test]
    fn empty_input_is_an_error() {
        let e = err("");
        assert!(matches!(e.kind, ErrorKind::UnexpectedEnd { .. }), "{e:?}");
    }

    #[test]
    fn semicolons_are_optional_and_repeatable() {
        assert!(parse("SELECT TOP 1 FRAMES FROM x;;").is_ok());
        assert!(parse("SHOW DATASETS;").is_ok());
    }

    // ---- EVERY … EMIT (continuous queries) ----

    #[test]
    fn every_clause_parses_with_value_and_span() {
        let src = "SELECT TOP 5 FRAMES FROM Archie EVERY 30 FRAMES EMIT";
        let s = select(src);
        let (n, span) = s.every.unwrap();
        assert_eq!(n, 30);
        // the span points at the stride literal itself
        assert_eq!(&src[span.start..span.end], "30");
    }

    #[test]
    fn every_clause_order_is_flexible_and_composes() {
        let s = select(
            "SELECT TOP 5 FRAMES FROM Archie EVERY 10 FRAMES EMIT \
             USING everest WITH SEED 1",
        );
        assert_eq!(s.every.unwrap().0, 10);
        assert!(s.engine.is_some());
        assert_eq!(s.options.len(), 1);
        let s = select("SELECT TOP 5 FRAMES FROM Archie WITH SEED 1 EVERY 10 FRAMES EMIT");
        assert_eq!(s.every.unwrap().0, 10);
    }

    #[test]
    fn every_zero_stride_parses_for_analyze_to_reject() {
        // stride validation is semantic (needs the video length), so the
        // parser accepts 0 and carries the span for analyze's diagnostic
        let src = "SELECT TOP 5 FRAMES FROM Archie EVERY 0 FRAMES EMIT";
        let (n, span) = select(src).every.unwrap();
        assert_eq!(n, 0);
        assert_eq!(&src[span.start..span.end], "0");
    }

    #[test]
    fn every_missing_emit_rejected_with_span() {
        let src = "SELECT TOP 5 FRAMES FROM Archie EVERY 30 FRAMES";
        let e = err(src);
        assert!(e.message().contains("`EMIT`"), "{}", e.message());
        assert!(matches!(e.kind, ErrorKind::UnexpectedEnd { .. }), "{e:?}");
        // with trailing input the span lands on the offending token
        let src = "SELECT TOP 5 FRAMES FROM Archie EVERY 30 FRAMES WITH SEED 1";
        let e = err(src);
        assert!(e.message().contains("`EMIT`"), "{}", e.message());
        assert_eq!(&src[e.span.start..e.span.end], "WITH");
    }

    #[test]
    fn every_missing_frames_rejected() {
        let e = err("SELECT TOP 5 FRAMES FROM Archie EVERY 30 EMIT");
        assert!(e.message().contains("`FRAMES`"), "{}", e.message());
    }

    #[test]
    fn every_stride_must_be_an_integer() {
        let src = "SELECT TOP 5 FRAMES FROM Archie EVERY fast FRAMES EMIT";
        let e = err(src);
        assert!(e.message().contains("emit stride"), "{}", e.message());
        assert_eq!(&src[e.span.start..e.span.end], "fast");
    }

    #[test]
    fn every_in_bad_position_rejected_with_span() {
        // before the target: the target grammar owns this position
        let src = "SELECT TOP 5 EVERY 10 FRAMES EMIT FROM Archie";
        let e = err(src);
        assert!(
            e.message().contains("`FRAMES` or `WINDOWS OF"),
            "{}",
            e.message()
        );
        assert_eq!(&src[e.span.start..e.span.end], "EVERY");
        // before FROM: the source grammar owns this position
        let e = err("SELECT TOP 5 FRAMES EVERY 10 FRAMES EMIT FROM Archie");
        assert!(e.message().contains("`FROM`"), "{}", e.message());
    }

    #[test]
    fn duplicate_every_clause_rejected() {
        let e = err("SELECT TOP 5 FRAMES FROM x EVERY 10 FRAMES EMIT EVERY 20 FRAMES EMIT");
        assert!(
            e.message().contains("at most one `EVERY`"),
            "{}",
            e.message()
        );
    }

    // ---- WITHIN … ORACLE CALLS (anytime budgets) ----

    #[test]
    fn within_clause_parses_with_value_and_span() {
        let src = "SELECT TOP 5 FRAMES FROM Archie WITHIN 200 ORACLE CALLS";
        let s = select(src);
        let (n, span) = s.within.unwrap();
        assert_eq!(n, 200);
        assert_eq!(&src[span.start..span.end], "200");
    }

    #[test]
    fn within_composes_with_other_clauses() {
        let s = select(
            "SELECT TOP 5 FRAMES FROM Archie WITHIN 50 ORACLE CALLS \
             USING everest WITH SEED 1, DEADLINE 2.5",
        );
        assert_eq!(s.within.unwrap().0, 50);
        assert!(s.engine.is_some());
        assert_eq!(s.options.len(), 2);
        // order is flexible: WITH before WITHIN also parses
        let s = select("SELECT TOP 5 FRAMES FROM Archie WITH SEED 1 WITHIN 9 ORACLE CALLS");
        assert_eq!(s.within.unwrap().0, 9);
    }

    #[test]
    fn within_requires_oracle_calls_keywords() {
        let e = err("SELECT TOP 5 FRAMES FROM Archie WITHIN 50 CALLS");
        assert!(e.message().contains("`ORACLE`"), "{}", e.message());
        let e = err("SELECT TOP 5 FRAMES FROM Archie WITHIN 50 ORACLE");
        assert!(e.message().contains("`CALLS`"), "{}", e.message());
    }

    #[test]
    fn within_budget_must_be_an_integer() {
        let src = "SELECT TOP 5 FRAMES FROM Archie WITHIN fast ORACLE CALLS";
        let e = err(src);
        assert!(
            e.message().contains("oracle-call budget"),
            "{}",
            e.message()
        );
        assert_eq!(&src[e.span.start..e.span.end], "fast");
    }

    #[test]
    fn duplicate_within_clause_rejected() {
        let e = err("SELECT TOP 5 FRAMES FROM x WITHIN 5 ORACLE CALLS WITHIN 6 ORACLE CALLS");
        assert!(
            e.message().contains("at most one `WITHIN`"),
            "{}",
            e.message()
        );
    }

    // ---- skyline ----

    fn skyline(src: &str) -> crate::ast::SkylineStmt {
        match parse(src).unwrap() {
            Statement::Skyline(s) => s,
            other => panic!("expected SKYLINE, got {other:?}"),
        }
    }

    #[test]
    fn skyline_with_default_dimensions() {
        let s = skyline("SELECT SKYLINE FROM Archie");
        assert!(s.scores.is_empty());
        assert_eq!(s.source, "Archie");
        assert!(s.options.is_empty());
    }

    #[test]
    fn skyline_with_explicit_dimensions_and_options() {
        let s = skyline(
            "SELECT SKYLINE OF count(car), coverage() FROM Archie \
             WITH CONFIDENCE 0.95, SEED 3",
        );
        assert_eq!(s.scores.len(), 2);
        assert_eq!(s.scores[0].name, "count");
        assert_eq!(s.scores[1].name, "coverage");
        let [confidence, seed] = &s.options[..] else {
            panic!("{:?}", s.options);
        };
        assert!(confidence.name.eq_ignore_ascii_case("confidence"));
        assert_eq!(confidence.value.as_f64(), Some(0.95));
        assert!(seed.name.eq_ignore_ascii_case("seed"));
        assert_eq!(seed.value.as_u64(), Some(3));
    }

    #[test]
    fn explain_skyline_parses() {
        match parse("EXPLAIN SELECT SKYLINE FROM Archie").unwrap() {
            Statement::ExplainSkyline(s) => assert_eq!(s.source, "Archie"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn skyline_requires_from() {
        let e = err("SELECT SKYLINE OF count(car)");
        assert!(e.message().contains("`FROM`"), "{}", e.message());
    }

    #[test]
    fn skyline_of_requires_at_least_one_call() {
        let e = err("SELECT SKYLINE OF FROM Archie");
        // `FROM` is consumed as the score name; `(` is then demanded.
        assert!(e.message().contains("`(`"), "{}", e.message());
    }
}
