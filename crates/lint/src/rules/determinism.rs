//! Rule family **determinism**: byte-identical output across runs,
//! threads, and ISA tiers is a headline claim of this engine (ROADMAP
//! "Net state"; determinism suite). Hash-order iteration and wall-clock
//! reads are clippy's job (`clippy::iter_over_hash_type` at the crate
//! roots, `clippy::disallowed_methods` in `clippy.toml`); what clippy has
//! no lint for is the one rule left here.
//!
//! ID:
//! * `det-float-sum` — `.sum::<f32>()` in kernel modules
//!   (`crates/nn/src`): summation order is part of the bit-identical
//!   contract, so kernels must use the explicit fixed-order reducers
//!   (`kernels::deterministic_sum`-style) rather than an iterator fold
//!   whose shape is an implementation detail of the call site.

use crate::source::FileCtx;
use crate::Diagnostic;

pub const FLOAT_SUM: &str = "det-float-sum";

pub fn check(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    if !ctx.rel.starts_with("crates/nn/src/") {
        return;
    }
    for (i, t) in ctx.toks.iter().enumerate() {
        if !t.is_ident("sum") || ctx.in_test(t.line) {
            continue;
        }
        // `. sum :: < f32`
        let prev_is_dot = i
            .checked_sub(1)
            .and_then(|p| ctx.prev_code(p))
            .is_some_and(|p| ctx.toks[p].is_punct('.'));
        if !prev_is_dot {
            continue;
        }
        let Some(c1) = ctx.next_code(i + 1).filter(|&c| ctx.toks[c].is_punct(':')) else {
            continue;
        };
        let Some(c2) = ctx.next_code(c1 + 1).filter(|&c| ctx.toks[c].is_punct(':')) else {
            continue;
        };
        let Some(lt) = ctx.next_code(c2 + 1).filter(|&l| ctx.toks[l].is_punct('<')) else {
            continue;
        };
        let is_f32 = ctx
            .next_code(lt + 1)
            .is_some_and(|f| ctx.toks[f].is_ident("f32"));
        if !is_f32 || ctx.allowed(FLOAT_SUM, t.line) {
            continue;
        }
        out.push(Diagnostic::new(
            ctx,
            t.line,
            FLOAT_SUM,
            "`.sum::<f32>()` in a kernel module: summation order is part of the bit-identical \
             contract — use an explicit fixed-order reducer (see kernels::deterministic_sum)"
                .to_string(),
        ));
    }
}
