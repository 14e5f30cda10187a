//! Semantic analysis: resolves a parsed [`SelectStmt`] against the catalog
//! into a validated [`QueryPlan`].
//!
//! Everything a user can get wrong — unknown dataset, a score the dataset
//! cannot serve, a confidence of 1.3, a window longer than the video — is
//! caught here with a spanned diagnostic (and a "did you mean" hint where
//! a near-miss candidate exists). Execution never re-validates.

use crate::ast::{Literal, OptionClause, ScoreCall, SelectStmt, Target};
use crate::catalog::{compatible_score, source_by_name, source_names, ScoreFn, SourceEntry};
use crate::error::{suggest, ErrorKind, EvqlError};
use crate::plan::{Engine, PlanTarget, QueryPlan};
use crate::token::Span;
use everest_video::scene::ObjectClass;

/// Session-level defaults that `SET` can change.
#[derive(Debug, Clone)]
pub struct SessionSettings {
    /// Catalog scale divisor: frame counts are divided by this.
    pub scale: usize,
    /// Default probability threshold when a query has no `WITH CONFIDENCE`.
    pub confidence: f64,
    /// Default dataset build seed (0 = the source's own default).
    pub seed: u64,
    /// Default window sampling fraction (§3.4 uses 10 %).
    pub sample: f64,
    /// Default Phase-2 batch size `b`.
    pub batch: usize,
    /// Default ψ re-sort period.
    pub resort: usize,
}

impl Default for SessionSettings {
    fn default() -> Self {
        SessionSettings {
            // Interactive default: 1/8 of the (already 1/400-scaled)
            // catalog so a query answers in seconds on a laptop CPU.
            scale: 8,
            confidence: 0.9,
            seed: 0,
            sample: 0.1,
            batch: 8,
            resort: 10,
        }
    }
}

/// Names `SET` accepts (used for suggestions and `SHOW SETTINGS`).
pub const SETTING_NAMES: [&str; 6] = ["scale", "confidence", "seed", "sample", "batch", "resort"];

impl SessionSettings {
    /// Applies `SET name = value`; returns a description of the change.
    pub fn apply(&mut self, name: &str, value: &Literal, span: Span) -> Result<String, EvqlError> {
        let err = |detail: String| {
            Err(EvqlError::new(
                ErrorKind::OutOfRange {
                    what: format!("SET {name}"),
                    detail,
                },
                value.span,
            ))
        };
        match name.to_ascii_lowercase().as_str() {
            "scale" => match at_least_one(value) {
                Some(v) => {
                    self.scale = v;
                    Ok(format!("scale = {v} (datasets shrink by 1/{v})"))
                }
                _ => err("expected an integer ≥ 1".into()),
            },
            "confidence" => match open_unit(value) {
                Some(v) => {
                    self.confidence = v;
                    Ok(format!("confidence = {v}"))
                }
                _ => err("expected a number in (0, 1)".into()),
            },
            "seed" => match value.as_u64() {
                Some(v) => {
                    self.seed = v;
                    Ok(format!("seed = {v}"))
                }
                _ => err("expected a non-negative integer".into()),
            },
            "sample" => match fraction(value) {
                Some(v) => {
                    self.sample = v;
                    Ok(format!("sample = {v}"))
                }
                _ => err("expected a fraction in (0, 1]".into()),
            },
            "batch" => match at_least_one(value) {
                Some(v) => {
                    self.batch = v;
                    Ok(format!("batch = {v}"))
                }
                _ => err("expected an integer ≥ 1".into()),
            },
            "resort" => match at_least_one(value) {
                Some(v) => {
                    self.resort = v;
                    Ok(format!("resort = {v}"))
                }
                _ => err("expected an integer ≥ 1".into()),
            },
            other => Err(EvqlError::new(
                ErrorKind::Unknown {
                    what: "setting",
                    name: other.into(),
                    suggestion: suggest(other, SETTING_NAMES),
                },
                span,
            )),
        }
    }
}

/// The option names a `WITH` clause accepts.
const OPTION_NAMES: [&str; 10] = [
    "confidence",
    "sample",
    "step",
    "seed",
    "batch",
    "resort",
    "window",
    "budget",
    "deadline",
    "flaky",
];

/// Resolves a `FROM` dataset name against the catalog.
fn resolve_dataset(name: &str, span: Span) -> Result<SourceEntry, EvqlError> {
    source_by_name(name).ok_or_else(|| {
        let names = source_names();
        EvqlError::new(
            ErrorKind::Unknown {
                what: "dataset",
                name: name.into(),
                suggestion: suggest(name, names.iter().map(|s| s.as_str())),
            },
            span,
        )
    })
}

// Value ranges shared by `SET` and `WITH`.

fn at_least_one(value: &Literal) -> Option<usize> {
    value.as_u64().filter(|v| *v >= 1).map(|v| v as usize)
}

fn open_unit(value: &Literal) -> Option<f64> {
    value.as_f64().filter(|v| *v > 0.0 && *v < 1.0)
}

fn fraction(value: &Literal) -> Option<f64> {
    value.as_f64().filter(|v| *v > 0.0 && *v <= 1.0)
}

fn positive(value: &Literal) -> Option<f64> {
    value.as_f64().filter(|v| *v > 0.0 && v.is_finite())
}

fn bad_option(opt: &OptionClause, detail: &str) -> EvqlError {
    EvqlError::new(
        ErrorKind::OutOfRange {
            what: format!("option `{}`", opt.name),
            detail: detail.into(),
        },
        opt.value.span,
    )
}

/// The `WITH` options `SELECT TOP` and `SELECT SKYLINE` share.
struct CommonOptions {
    thres: f64,
    seed: u64,
    batch: usize,
}

impl CommonOptions {
    fn defaults(session: &SessionSettings) -> Self {
        CommonOptions {
            thres: session.confidence,
            seed: session.seed,
            batch: session.batch,
        }
    }

    /// Validates and applies `opt` (lower-cased name `lname`) when it is one
    /// of the shared options; `Ok(false)` leaves any other name to the
    /// caller.
    fn apply(&mut self, lname: &str, opt: &OptionClause) -> Result<bool, EvqlError> {
        match lname {
            "confidence" | "thres" => {
                self.thres = open_unit(&opt.value)
                    .ok_or_else(|| bad_option(opt, "expected a probability in (0, 1)"))?;
            }
            "seed" => {
                self.seed = opt
                    .value
                    .as_u64()
                    .ok_or_else(|| bad_option(opt, "expected an integer seed"))?;
            }
            "batch" => {
                self.batch = at_least_one(&opt.value)
                    .ok_or_else(|| bad_option(opt, "expected an integer ≥ 1"))?;
            }
            _ => return Ok(false),
        }
        Ok(true)
    }
}

/// Analyzes a `SELECT` statement into an executable plan.
pub fn analyze(stmt: &SelectStmt, session: &SessionSettings) -> Result<QueryPlan, EvqlError> {
    let source = resolve_dataset(&stmt.source, stmt.source_span)?;

    // -- score --
    let score = match &stmt.score {
        None => source.default_score,
        Some(call) => resolve_score(call, &source)?,
    };

    // -- engine --
    let engine = match &stmt.engine {
        None => Engine::Everest,
        Some((name, span)) => Engine::by_name(name).ok_or_else(|| {
            let all: Vec<&str> = Engine::all()
                .iter()
                .flat_map(|e| e.aliases().iter().copied())
                .collect();
            EvqlError::new(
                ErrorKind::Unknown {
                    what: "engine",
                    name: name.clone(),
                    suggestion: suggest(name, all),
                },
                *span,
            )
        })?,
    };

    // -- options --
    let mut common = CommonOptions::defaults(session);
    let mut sample = session.sample;
    let mut quant_step = score.default_step();
    let mut resort = session.resort;
    let mut stream_window: Option<(usize, Span)> = None;
    let mut stream_budget: Option<(usize, Span)> = None;
    let mut deadline: Option<(f64, Span)> = None;
    let mut flaky_seed: Option<(u64, Span)> = None;
    for opt in &stmt.options {
        let lname = opt.name.to_ascii_lowercase();
        if common.apply(&lname, opt)? {
            continue;
        }
        let bad = |detail: &str| bad_option(opt, detail);
        match lname.as_str() {
            "sample" => {
                sample =
                    fraction(&opt.value).ok_or_else(|| bad("expected a fraction in (0, 1]"))?;
            }
            "step" => {
                quant_step = positive(&opt.value)
                    .ok_or_else(|| bad("expected a positive quantization step"))?;
            }
            "resort" => {
                resort = at_least_one(&opt.value).ok_or_else(|| bad("expected an integer ≥ 1"))?;
            }
            "window" => {
                let w = at_least_one(&opt.value)
                    .ok_or_else(|| bad("expected a window length of at least 1 frame"))?;
                stream_window = Some((w, opt.name_span));
            }
            "budget" => {
                let b = opt
                    .value
                    .as_u64()
                    .ok_or_else(|| bad("expected a per-emit cleaning budget ≥ 0"))?
                    as usize;
                stream_budget = Some((b, opt.name_span));
            }
            "deadline" => {
                let d = positive(&opt.value)
                    .ok_or_else(|| bad("expected a positive deadline in simulated seconds"))?;
                deadline = Some((d, opt.name_span));
            }
            "flaky" => {
                let s = opt
                    .value
                    .as_u64()
                    .ok_or_else(|| bad("expected an integer fault-injection seed"))?;
                flaky_seed = Some((s, opt.name_span));
            }
            other => {
                return Err(EvqlError::new(
                    ErrorKind::Unknown {
                        what: "option",
                        name: other.into(),
                        suggestion: suggest(other, OPTION_NAMES),
                    },
                    opt.name_span,
                ))
            }
        }
    }

    // -- target --
    let n_frames = source.scaled_frames(session.scale);
    let target = match stmt.target {
        Target::Frames => PlanTarget::Frames,
        Target::Windows {
            len,
            len_span,
            slide,
        } => {
            if len == 0 {
                return Err(EvqlError::new(
                    ErrorKind::OutOfRange {
                        what: "window length".into(),
                        detail: "must be at least 1 frame".into(),
                    },
                    len_span,
                ));
            }
            if len as usize > n_frames {
                return Err(EvqlError::new(
                    ErrorKind::OutOfRange {
                        what: "window length".into(),
                        detail: format!(
                            "window of {len} frames exceeds the video ({n_frames} frames at scale 1/{})",
                            session.scale
                        ),
                    },
                    len_span,
                ));
            }
            let slide_frames = match slide {
                None => len,
                Some((s, s_span)) => {
                    if s == 0 || s > len {
                        return Err(EvqlError::new(
                            ErrorKind::OutOfRange {
                                what: "slide".into(),
                                detail: format!("must be between 1 and the window length ({len})"),
                            },
                            s_span,
                        ));
                    }
                    s
                }
            };
            if engine != Engine::Everest && engine != Engine::Scan {
                return Err(EvqlError::new(
                    ErrorKind::Incompatible(format!(
                        "engine `{}` only supports frame queries; window queries \
                         need `everest` or `scan`",
                        engine.display()
                    )),
                    stmt.engine.as_ref().map_or(len_span, |(_, s)| *s),
                ));
            }
            PlanTarget::Windows {
                len: len as usize,
                slide: slide_frames as usize,
                sample_frac: sample,
            }
        }
    };

    // -- EVERY … EMIT (continuous queries) --
    if let Some((stride, stride_span)) = stmt.every {
        if stride == 0 {
            return Err(EvqlError::new(
                ErrorKind::OutOfRange {
                    what: "EVERY".into(),
                    detail: "the emit stride must be at least 1 frame".into(),
                },
                stride_span,
            ));
        }
        if stride as usize > n_frames {
            return Err(EvqlError::new(
                ErrorKind::OutOfRange {
                    what: "EVERY".into(),
                    detail: format!(
                        "an emit stride of {stride} frames exceeds the video \
                         ({n_frames} frames at scale 1/{}) — the stream would never emit",
                        session.scale
                    ),
                },
                stride_span,
            ));
        }
        if !matches!(target, PlanTarget::Frames) {
            return Err(EvqlError::new(
                ErrorKind::Incompatible(
                    "EVERY … EMIT streams frame queries; window targets are batch-only \
                     (stream a frame query WITH WINDOW <w> for sliding windows)"
                        .into(),
                ),
                stride_span,
            ));
        }
        if engine != Engine::Everest {
            return Err(EvqlError::new(
                ErrorKind::Incompatible(format!(
                    "engine `{}` cannot stream; EVERY … EMIT needs the `everest` \
                     engine's incremental joint CDF",
                    engine.display()
                )),
                stmt.engine.as_ref().map_or(stride_span, |(_, s)| *s),
            ));
        }
    } else {
        if let Some((_, span)) = stream_window {
            return Err(EvqlError::new(
                ErrorKind::Incompatible(
                    "option `window` configures a continuous query; add EVERY <n> FRAMES EMIT \
                     (batch window queries use `WINDOWS OF <len> FRAMES`)"
                        .into(),
                ),
                span,
            ));
        }
        if let Some((_, span)) = stream_budget {
            return Err(EvqlError::new(
                ErrorKind::Incompatible(
                    "option `budget` configures a continuous query; add EVERY <n> FRAMES EMIT"
                        .into(),
                ),
                span,
            ));
        }
    }

    // -- budget knobs (WITHIN … ORACLE CALLS, WITH DEADLINE/FLAKY) --
    // They shape Phase-2 cleaning, so only the Everest engine honors
    // them; silently ignoring a budget on a baseline engine would be
    // worse than rejecting it.
    if engine != Engine::Everest {
        let knob = stmt
            .within
            .map(|(_, s)| ("WITHIN … ORACLE CALLS", s))
            .or(deadline.map(|(_, s)| ("option `deadline`", s)))
            .or(flaky_seed.map(|(_, s)| ("option `flaky`", s)));
        if let Some((what, span)) = knob {
            return Err(EvqlError::new(
                ErrorKind::Incompatible(format!(
                    "{what} bounds Phase-2 oracle cleaning; engine `{}` has no \
                     cleaning phase (use the `everest` engine)",
                    engine.display()
                )),
                span,
            ));
        }
    }

    // -- K --
    if stmt.k == 0 {
        return Err(EvqlError::new(
            ErrorKind::OutOfRange {
                what: "K".into(),
                detail: "must be at least 1".into(),
            },
            stmt.k_span,
        ));
    }
    let mut plan = QueryPlan {
        source,
        score,
        k: stmt.k as usize,
        target,
        engine,
        thres: common.thres,
        seed: common.seed,
        quant_step,
        batch: common.batch,
        resort_period: resort,
        scale_divisor: session.scale,
        n_frames,
        emit_every: stmt.every.map(|(n, _)| n as usize),
        stream_window: stream_window.map(|(w, _)| w),
        stream_budget: stream_budget.map(|(b, _)| b),
        max_oracle_calls: stmt.within.map(|(n, _)| n as usize),
        deadline: deadline.map(|(d, _)| d),
        flaky_seed: flaky_seed.map(|(s, _)| s),
    };
    let n_items = plan.n_items();
    if plan.k > n_items {
        return Err(EvqlError::new(
            ErrorKind::OutOfRange {
                what: "K".into(),
                detail: format!(
                    "K={} exceeds the {} rankable {} at scale 1/{}",
                    plan.k,
                    n_items,
                    match plan.target {
                        PlanTarget::Frames => "frames",
                        PlanTarget::Windows { .. } => "windows",
                    },
                    session.scale
                ),
            },
            stmt.k_span,
        ));
    }
    // Hygiene: the certain-result condition needs at least one oracle call
    // per answer; a K of the full item count degenerates to scan-and-test.
    // Continuous queries are exempt — mid-stream prefixes still rank fewer
    // than K frames, and streaming requires the Everest engine anyway.
    // Budgeted queries are exempt too: a scan would ignore the caps the
    // user asked for, while budgeted cleaning still terminates.
    if plan.k == n_items
        && plan.engine == Engine::Everest
        && plan.emit_every.is_none()
        && plan.max_oracle_calls.is_none()
        && plan.deadline.is_none()
        && plan.flaky_seed.is_none()
    {
        plan.engine = Engine::Scan;
    }
    Ok(plan)
}

/// Analyzes a `SELECT SKYLINE` statement into a [`crate::plan::SkylinePlan`].
pub fn analyze_skyline(
    stmt: &crate::ast::SkylineStmt,
    session: &SessionSettings,
) -> Result<crate::plan::SkylinePlan, EvqlError> {
    let source = resolve_dataset(&stmt.source, stmt.source_span)?;

    // Resolve dimensions: an explicit pair, or the dataset's default pair.
    let scores: [ScoreFn; 2] = if stmt.scores.is_empty() {
        match &source.kind {
            crate::catalog::SourceKind::Counting(spec) => {
                [ScoreFn::Count(spec.object_class), ScoreFn::Coverage]
            }
            _ => {
                return Err(EvqlError::new(
                    ErrorKind::Incompatible(format!(
                        "dataset `{}` has no default skyline dimensions; \
                         only the counting datasets pair count(<class>) with \
                         coverage(). Spell the dimensions out: \
                         SELECT SKYLINE OF f1(), f2() FROM …",
                        source.name
                    )),
                    stmt.skyline_span,
                ))
            }
        }
    } else {
        // Every source serves at most two distinct scores, so a skyline
        // is a pair. A longer list is marked at its first surplus call.
        let [x, y] = &stmt.scores[..] else {
            return Err(EvqlError::new(
                ErrorKind::OutOfRange {
                    what: "SKYLINE OF".into(),
                    detail: format!(
                        "needs exactly 2 scoring dimensions, got {}",
                        stmt.scores.len()
                    ),
                },
                stmt.scores.get(2).map_or(stmt.skyline_span, |c| c.span),
            ));
        };
        let pair = [resolve_score(x, &source)?, resolve_score(y, &source)?];
        if pair[0] == pair[1] {
            return Err(EvqlError::new(
                ErrorKind::Incompatible(format!(
                    "duplicate skyline dimension {}",
                    pair[1].display()
                )),
                y.span,
            ));
        }
        pair
    };

    // Options: CONFIDENCE / SEED / BATCH only.
    let mut common = CommonOptions::defaults(session);
    for opt in &stmt.options {
        let lname = opt.name.to_ascii_lowercase();
        if !common.apply(&lname, opt)? {
            return Err(EvqlError::new(
                ErrorKind::Unknown {
                    what: "skyline option",
                    suggestion: suggest(&lname, ["confidence", "seed", "batch"]),
                    name: lname,
                },
                opt.name_span,
            ));
        }
    }

    let n_frames = source.scaled_frames(session.scale);
    Ok(crate::plan::SkylinePlan {
        source,
        scores,
        thres: common.thres,
        seed: common.seed,
        batch: common.batch,
        scale_divisor: session.scale,
        n_frames,
    })
}

fn resolve_score(call: &ScoreCall, source: &SourceEntry) -> Result<ScoreFn, EvqlError> {
    let score = match call.name.to_ascii_lowercase().as_str() {
        "count" => {
            if call.args.len() != 1 {
                return Err(EvqlError::new(
                    ErrorKind::OutOfRange {
                        what: "count(...)".into(),
                        detail: format!("takes exactly one object class, got {}", call.args.len()),
                    },
                    call.span,
                ));
            }
            let arg = &call.args[0];
            let word = arg.as_word().ok_or_else(|| {
                EvqlError::new(
                    ErrorKind::OutOfRange {
                        what: "count(...)".into(),
                        detail: "the object class must be a name, e.g. count(car)".into(),
                    },
                    arg.span,
                )
            })?;
            let class = ObjectClass::ALL
                .into_iter()
                .find(|c| c.name().eq_ignore_ascii_case(word))
                .ok_or_else(|| {
                    EvqlError::new(
                        ErrorKind::Unknown {
                            what: "object class",
                            name: word.into(),
                            suggestion: suggest(word, ObjectClass::ALL.map(ObjectClass::name)),
                        },
                        arg.span,
                    )
                })?;
            ScoreFn::Count(class)
        }
        "tailgating" | "sentiment" | "coverage" => {
            if !call.args.is_empty() {
                return Err(EvqlError::new(
                    ErrorKind::OutOfRange {
                        what: format!("{}()", call.name),
                        detail: "takes no arguments".into(),
                    },
                    call.span,
                ));
            }
            match call.name.to_ascii_lowercase().as_str() {
                "tailgating" => ScoreFn::Tailgating,
                "sentiment" => ScoreFn::Sentiment,
                _ => ScoreFn::Coverage,
            }
        }
        other => {
            return Err(EvqlError::new(
                ErrorKind::Unknown {
                    what: "scoring function",
                    name: other.into(),
                    suggestion: suggest(other, ["count", "coverage", "tailgating", "sentiment"]),
                },
                call.name_span,
            ))
        }
    };
    compatible_score(source, score)
        .map_err(|msg| EvqlError::new(ErrorKind::Incompatible(msg), call.span))?;
    Ok(score)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn plan_of(src: &str) -> Result<QueryPlan, EvqlError> {
        let stmt = match parse(src).unwrap() {
            crate::ast::Statement::Select(s) => s,
            other => panic!("expected SELECT, got {other:?}"),
        };
        analyze(&stmt, &SessionSettings::default())
    }

    #[test]
    fn defaults_fill_in() {
        let p = plan_of("SELECT TOP 10 FRAMES FROM Archie").unwrap();
        assert_eq!(
            p.score,
            ScoreFn::Count(ObjectClass::Car),
            "dataset default score"
        );
        assert_eq!(p.engine, Engine::Everest);
        assert_eq!(p.thres, 0.9);
        assert_eq!(p.quant_step, 1.0);
        assert_eq!(p.batch, 8);
    }

    #[test]
    fn options_override_defaults() {
        let p = plan_of(
            "SELECT TOP 10 FRAMES FROM Archie WITH CONFIDENCE 0.75, SEED 9, BATCH 2, RESORT 5",
        )
        .unwrap();
        assert_eq!(p.thres, 0.75);
        assert_eq!(p.seed, 9);
        assert_eq!(p.batch, 2);
        assert_eq!(p.resort_period, 5);
    }

    #[test]
    fn unknown_dataset_suggests() {
        let e = plan_of("SELECT TOP 10 FRAMES FROM Grand-Chanel").unwrap_err();
        assert!(
            e.message().contains("did you mean `Grand-Canal`"),
            "{}",
            e.message()
        );
    }

    #[test]
    fn object_classes_resolve_by_name_in_any_case() {
        let p = plan_of("SELECT TOP 10 FRAMES FROM Grand-Canal SCORE count(BOAT)").unwrap();
        assert_eq!(p.score, ScoreFn::Count(ObjectClass::Boat));
        let e = plan_of("SELECT TOP 10 FRAMES FROM Archie SCORE count(cars)").unwrap_err();
        assert!(
            e.message().contains("did you mean `car`"),
            "{}",
            e.message()
        );
    }

    #[test]
    fn unknown_option_suggests() {
        let e = plan_of("SELECT TOP 10 FRAMES FROM Archie WITH CONFIDANCE 0.9").unwrap_err();
        assert!(
            e.message().contains("did you mean `confidence`"),
            "{}",
            e.message()
        );
    }

    #[test]
    fn unknown_engine_suggests() {
        let e = plan_of("SELECT TOP 10 FRAMES FROM Archie USING noscop").unwrap_err();
        assert!(
            e.message().contains("did you mean `noscope`"),
            "{}",
            e.message()
        );
    }

    #[test]
    fn wrong_class_for_dataset_is_incompatible() {
        let e = plan_of("SELECT TOP 10 FRAMES FROM Grand-Canal SCORE count(car)").unwrap_err();
        assert!(
            e.message().contains("annotated for `boat`"),
            "{}",
            e.message()
        );
    }

    #[test]
    fn score_arity_is_checked() {
        let e = plan_of("SELECT TOP 10 FRAMES FROM Archie SCORE count()").unwrap_err();
        assert!(e.message().contains("exactly one"), "{}", e.message());
        let e = plan_of("SELECT TOP 10 FRAMES FROM Dashcam-California SCORE tailgating(5)")
            .unwrap_err();
        assert!(e.message().contains("no arguments"), "{}", e.message());
    }

    #[test]
    fn confidence_must_be_a_probability() {
        for bad in ["0", "1", "1.5", "car"] {
            let q = format!("SELECT TOP 10 FRAMES FROM Archie WITH CONFIDENCE {bad}");
            assert!(plan_of(&q).is_err(), "CONFIDENCE {bad} should be rejected");
        }
    }

    #[test]
    fn k_zero_and_k_too_large_rejected() {
        let e = plan_of("SELECT TOP 0 FRAMES FROM Archie").unwrap_err();
        assert!(e.message().contains("at least 1"), "{}", e.message());
        let e = plan_of("SELECT TOP 99999999 FRAMES FROM Archie").unwrap_err();
        assert!(e.message().contains("exceeds"), "{}", e.message());
    }

    #[test]
    fn window_length_validated_against_video() {
        let e = plan_of("SELECT TOP 2 WINDOWS OF 999999 FRAMES FROM Archie").unwrap_err();
        assert!(e.message().contains("exceeds the video"), "{}", e.message());
    }

    #[test]
    fn slide_must_not_exceed_length() {
        let e = plan_of("SELECT TOP 2 WINDOWS OF 30 FRAMES SLIDE 31 FROM Archie").unwrap_err();
        assert!(
            e.message().contains("between 1 and the window length"),
            "{}",
            e.message()
        );
        let p = plan_of("SELECT TOP 2 WINDOWS OF 30 FRAMES SLIDE 30 FROM Archie").unwrap();
        match p.target {
            PlanTarget::Windows { len, slide, .. } => {
                assert_eq!((len, slide), (30, 30));
            }
            t => panic!("{t:?}"),
        }
    }

    #[test]
    fn default_slide_is_tumbling() {
        let p = plan_of("SELECT TOP 2 WINDOWS OF 60 FRAMES FROM Archie").unwrap();
        match p.target {
            PlanTarget::Windows {
                len,
                slide,
                sample_frac,
            } => {
                assert_eq!((len, slide), (60, 60));
                assert_eq!(sample_frac, 0.1, "session default sampling");
            }
            t => panic!("{t:?}"),
        }
    }

    #[test]
    fn windows_need_a_capable_engine() {
        let e = plan_of("SELECT TOP 2 WINDOWS OF 30 FRAMES FROM Archie USING hog").unwrap_err();
        assert!(
            e.message().contains("only supports frame queries"),
            "{}",
            e.message()
        );
        assert!(plan_of("SELECT TOP 2 WINDOWS OF 30 FRAMES FROM Archie USING scan").is_ok());
    }

    #[test]
    fn continuous_scores_pick_up_udf_step() {
        let p = plan_of("SELECT TOP 5 FRAMES FROM Dashcam-California").unwrap();
        assert_eq!(p.score, ScoreFn::Tailgating);
        assert_eq!(
            p.quant_step,
            everest_models::depth::TAILGATING_QUANTIZATION_STEP
        );
        let p = plan_of("SELECT TOP 5 FRAMES FROM Dashcam-California WITH STEP 0.1").unwrap();
        assert_eq!(p.quant_step, 0.1);
    }

    #[test]
    fn k_equal_to_item_count_degrades_to_scan() {
        // At default scale Archie floors to 2000 frames; K = 2000 must not
        // try to "clean" its way to the full set one batch at a time.
        let n = source_by_name("Archie").unwrap().scaled_frames(8);
        let p = plan_of(&format!("SELECT TOP {n} FRAMES FROM Archie")).unwrap();
        assert_eq!(p.engine, Engine::Scan);
    }

    #[test]
    fn settings_apply_and_validate() {
        let mut s = SessionSettings::default();
        let lit = |v: crate::ast::LiteralValue| crate::ast::Literal {
            value: v,
            span: Span::new(0, 0),
        };
        s.apply(
            "scale",
            &lit(crate::ast::LiteralValue::Int(2)),
            Span::new(0, 0),
        )
        .unwrap();
        assert_eq!(s.scale, 2);
        s.apply(
            "confidence",
            &lit(crate::ast::LiteralValue::Float(0.99)),
            Span::new(0, 0),
        )
        .unwrap();
        assert_eq!(s.confidence, 0.99);
        assert!(s
            .apply(
                "confidence",
                &lit(crate::ast::LiteralValue::Float(2.0)),
                Span::new(0, 0)
            )
            .is_err());
        let err = s
            .apply(
                "scal",
                &lit(crate::ast::LiteralValue::Int(2)),
                Span::new(0, 0),
            )
            .unwrap_err();
        assert!(
            err.message().contains("did you mean `scale`"),
            "{}",
            err.message()
        );
    }

    use crate::catalog::source_by_name;
    use crate::token::Span;

    // ---- EVERY … EMIT (continuous queries) ----

    #[test]
    fn streaming_plan_resolves_every_window_budget() {
        let p = plan_of(
            "SELECT TOP 5 FRAMES FROM Archie EVERY 100 FRAMES EMIT WITH WINDOW 500, BUDGET 16",
        )
        .unwrap();
        assert_eq!(p.emit_every, Some(100));
        assert_eq!(p.stream_window, Some(500));
        assert_eq!(p.stream_budget, Some(16));
        assert_eq!(p.engine, Engine::Everest);
        let p = plan_of("SELECT TOP 5 FRAMES FROM Archie EVERY 100 FRAMES EMIT").unwrap();
        assert_eq!((p.stream_window, p.stream_budget), (None, None));
    }

    #[test]
    fn every_zero_stride_rejected_with_span() {
        let src = "SELECT TOP 5 FRAMES FROM Archie EVERY 0 FRAMES EMIT";
        let stmt = match parse(src).unwrap() {
            crate::ast::Statement::Select(s) => s,
            other => panic!("{other:?}"),
        };
        let e = analyze(&stmt, &SessionSettings::default()).unwrap_err();
        assert!(e.message().contains("at least 1 frame"), "{}", e.message());
        assert_eq!(
            &src[e.span.start..e.span.end],
            "0",
            "span must pin the stride"
        );
    }

    #[test]
    fn every_stride_beyond_video_rejected() {
        let e = plan_of("SELECT TOP 5 FRAMES FROM Archie EVERY 99999999 FRAMES EMIT").unwrap_err();
        assert!(e.message().contains("would never emit"), "{}", e.message());
    }

    #[test]
    fn every_incompatible_with_window_targets_and_baseline_engines() {
        let e = plan_of("SELECT TOP 2 WINDOWS OF 30 FRAMES FROM Archie EVERY 10 FRAMES EMIT")
            .unwrap_err();
        assert!(e.message().contains("batch-only"), "{}", e.message());
        let e =
            plan_of("SELECT TOP 5 FRAMES FROM Archie USING scan EVERY 10 FRAMES EMIT").unwrap_err();
        assert!(e.message().contains("cannot stream"), "{}", e.message());
    }

    #[test]
    fn stream_options_require_every_clause() {
        let e = plan_of("SELECT TOP 5 FRAMES FROM Archie WITH WINDOW 500").unwrap_err();
        assert!(
            e.message().contains("EVERY <n> FRAMES EMIT"),
            "{}",
            e.message()
        );
        let e = plan_of("SELECT TOP 5 FRAMES FROM Archie WITH BUDGET 4").unwrap_err();
        assert!(
            e.message().contains("EVERY <n> FRAMES EMIT"),
            "{}",
            e.message()
        );
        let e = plan_of("SELECT TOP 5 FRAMES FROM Archie EVERY 10 FRAMES EMIT WITH WINDOW 0")
            .unwrap_err();
        assert!(e.message().contains("at least 1 frame"), "{}", e.message());
    }

    #[test]
    fn streaming_k_equal_to_item_count_keeps_everest() {
        // mid-stream prefixes rank fewer than K frames, so the scan
        // degrade would break continuous emission
        let n = source_by_name("Archie").unwrap().scaled_frames(8);
        let p = plan_of(&format!(
            "SELECT TOP {n} FRAMES FROM Archie EVERY {n} FRAMES EMIT"
        ))
        .unwrap();
        assert_eq!(p.engine, Engine::Everest);
    }

    // ---- WITHIN / DEADLINE / FLAKY (budgeted, fault-injected queries) ----

    #[test]
    fn budget_knobs_resolve_into_the_plan() {
        let p = plan_of(
            "SELECT TOP 5 FRAMES FROM Archie WITHIN 200 ORACLE CALLS \
             WITH DEADLINE 2.5, FLAKY 7",
        )
        .unwrap();
        assert_eq!(p.max_oracle_calls, Some(200));
        assert_eq!(p.deadline, Some(2.5));
        assert_eq!(p.flaky_seed, Some(7));
        let p = plan_of("SELECT TOP 5 FRAMES FROM Archie").unwrap();
        assert_eq!(
            (p.max_oracle_calls, p.deadline, p.flaky_seed),
            (None, None, None)
        );
    }

    #[test]
    fn deadline_must_be_positive_and_finite() {
        for bad in ["0", "0.0", "car"] {
            let q = format!("SELECT TOP 5 FRAMES FROM Archie WITH DEADLINE {bad}");
            assert!(plan_of(&q).is_err(), "DEADLINE {bad} should be rejected");
        }
    }

    #[test]
    fn budget_knobs_require_the_everest_engine() {
        let e = plan_of("SELECT TOP 5 FRAMES FROM Archie USING scan WITHIN 10 ORACLE CALLS")
            .unwrap_err();
        assert!(e.message().contains("no cleaning phase"), "{}", e.message());
        let e =
            plan_of("SELECT TOP 5 FRAMES FROM Archie USING scan WITH DEADLINE 1.0").unwrap_err();
        assert!(e.message().contains("no cleaning phase"), "{}", e.message());
        let e = plan_of("SELECT TOP 5 FRAMES FROM Archie USING noscope WITH FLAKY 3").unwrap_err();
        assert!(e.message().contains("no cleaning phase"), "{}", e.message());
    }

    #[test]
    fn budgeted_k_equal_to_item_count_keeps_everest() {
        // the scan degrade would silently drop the user's cap
        let n = source_by_name("Archie").unwrap().scaled_frames(8);
        let p = plan_of(&format!(
            "SELECT TOP {n} FRAMES FROM Archie WITHIN 10 ORACLE CALLS"
        ))
        .unwrap();
        assert_eq!(p.engine, Engine::Everest);
    }

    // ---- skyline analysis ----

    fn skyline_plan_of(src: &str) -> Result<crate::plan::SkylinePlan, EvqlError> {
        let stmt = match parse(src).unwrap() {
            crate::ast::Statement::Skyline(s) => s,
            other => panic!("expected SKYLINE, got {other:?}"),
        };
        analyze_skyline(&stmt, &SessionSettings::default())
    }

    #[test]
    fn skyline_default_pair_on_counting_datasets() {
        let p = skyline_plan_of("SELECT SKYLINE FROM Grand-Canal").unwrap();
        assert_eq!(
            p.scores,
            [ScoreFn::Count(ObjectClass::Boat), ScoreFn::Coverage]
        );
        assert_eq!(p.thres, 0.9);
    }

    #[test]
    fn skyline_has_no_default_on_single_score_datasets() {
        let e = skyline_plan_of("SELECT SKYLINE FROM Vlog").unwrap_err();
        assert!(
            e.message().contains("no default skyline dimensions"),
            "{}",
            e.message()
        );
    }

    #[test]
    fn skyline_rejects_duplicate_and_wrong_arity_dimensions() {
        let e =
            skyline_plan_of("SELECT SKYLINE OF count(car), count(car) FROM Archie").unwrap_err();
        assert!(e.message().contains("duplicate"), "{}", e.message());
        let e = skyline_plan_of("SELECT SKYLINE OF count(car) FROM Archie").unwrap_err();
        assert!(e.message().contains("exactly 2"), "{}", e.message());
        let src = "SELECT SKYLINE OF count(car), coverage(), count(person) FROM Archie";
        let e = skyline_plan_of(src).unwrap_err();
        assert!(e.message().contains("exactly 2"), "{}", e.message());
        assert_eq!(&src[e.span.start..e.span.end], "count(person)");
    }

    #[test]
    fn skyline_dimensions_must_fit_the_dataset() {
        let e =
            skyline_plan_of("SELECT SKYLINE OF count(car), tailgating() FROM Archie").unwrap_err();
        assert!(e.message().contains("cannot run"), "{}", e.message());
        // coverage on a counting dataset with explicit matching count, in
        // either order: ok
        assert!(
            skyline_plan_of("SELECT SKYLINE OF count(boat), coverage() FROM Grand-Canal").is_ok()
        );
        let p = skyline_plan_of("SELECT SKYLINE OF coverage(), count(car) FROM Archie").unwrap();
        assert_eq!(
            p.scores,
            [ScoreFn::Coverage, ScoreFn::Count(ObjectClass::Car)]
        );
    }

    #[test]
    fn skyline_option_validation_and_suggestions() {
        let p = skyline_plan_of("SELECT SKYLINE FROM Archie WITH CONFIDENCE 0.8, SEED 5, BATCH 2")
            .unwrap();
        assert_eq!((p.thres, p.seed, p.batch), (0.8, 5, 2));
        let e = skyline_plan_of("SELECT SKYLINE FROM Archie WITH SAMPLE 0.1").unwrap_err();
        assert!(
            e.message().contains("unknown skyline option"),
            "{}",
            e.message()
        );
        let e = skyline_plan_of("SELECT SKYLINE FROM Archie WITH CONFIDENEC 0.8").unwrap_err();
        assert!(
            e.message().contains("did you mean `confidence`"),
            "{}",
            e.message()
        );
    }
}
