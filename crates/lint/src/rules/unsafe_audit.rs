//! Rule family **unsafe-audit**: machine-checked `unsafe` hygiene for the
//! SIMD microkernels (and anything else that ever grows an `unsafe`).
//!
//! `// SAFETY:` on every `unsafe` block and `# Safety` on every `unsafe fn`
//! are clippy's job (`clippy::undocumented_unsafe_blocks` at the crate
//! roots, `clippy::missing_safety_doc` on by default); the rules here need
//! facts clippy does not look at — which fns the *workspace* declares
//! unsafe, item visibility next to an attribute, a macro call elsewhere in
//! the file.
//!
//! IDs:
//! * `unsafe-callsite-comment` — every call of a workspace-declared
//!   `unsafe fn` must be covered by a `// SAFETY:` comment, either at the
//!   call site or on its enclosing `unsafe` block.
//! * `target-feature-vis` — `#[target_feature]` fns must be
//!   `pub(super)`-or-tighter, so feature-gated code cannot escape the
//!   module that guards it.
//! * `target-feature-guard` — a file containing `#[target_feature]` fns
//!   must contain an `is_x86_feature_detected!` guard (the dispatch
//!   decision lives next to the kernels it gates).

use crate::source::{FileCtx, UnsafeKind};
use crate::{Diagnostic, WorkspaceIndex};

pub const CALLSITE: &str = "unsafe-callsite-comment";
pub const TF_VIS: &str = "target-feature-vis";
pub const TF_GUARD: &str = "target-feature-guard";

pub fn check(ctx: &FileCtx, ws: &WorkspaceIndex, out: &mut Vec<Diagnostic>) {
    unsafe_callsites(ctx, ws, out);
    target_feature(ctx, out);
}

fn unsafe_callsites(ctx: &FileCtx, ws: &WorkspaceIndex, out: &mut Vec<Diagnostic>) {
    let decls: Vec<usize> = ctx.unsafe_fns.iter().map(|f| f.name_tok).collect();
    for (i, t) in ctx.toks.iter().enumerate() {
        if !(t.kind == crate::lexer::Kind::Ident && ws.unsafe_fn_names.contains(&t.text)) {
            continue;
        }
        if decls.contains(&i) {
            continue; // the declaration itself
        }
        // A call: identifier directly followed by `(`.
        let Some(next) = ctx.next_code(i + 1) else {
            continue;
        };
        if !ctx.toks[next].is_punct('(') {
            continue;
        }
        // `fn name(` (a safe fn that happens to share the name) is a decl.
        if let Some(prev) = i.checked_sub(1).and_then(|p| ctx.prev_code(p)) {
            if ctx.toks[prev].is_ident("fn") {
                continue;
            }
        }
        // Only calls inside an unsafe context can actually invoke an
        // unsafe fn; a same-named safe call elsewhere is not a finding.
        let enclosing = ctx.enclosing_unsafe(i);
        if enclosing.is_empty() {
            continue;
        }
        let line = t.line;
        let block_covered = enclosing
            .iter()
            .any(|s| s.kind == UnsafeKind::Block && s.has_safety);
        if ctx.safety_near(line) || block_covered || ctx.allowed(CALLSITE, line) {
            continue;
        }
        out.push(Diagnostic::new(
            ctx,
            line,
            CALLSITE,
            format!(
                "call of `unsafe fn {}` without a `// SAFETY:` comment (at the call site or on \
                 the enclosing `unsafe` block)",
                t.text
            ),
        ));
    }
}

fn target_feature(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    let has_guard = ctx
        .toks
        .iter()
        .any(|t| t.is_ident("is_x86_feature_detected"));
    let mut reported_guard = false;
    let mut i = 0;
    while i + 1 < ctx.toks.len() {
        let is_attr_start = ctx.toks[i].is_punct('#')
            && ctx
                .next_code(i + 1)
                .is_some_and(|j| ctx.toks[j].is_punct('['));
        if !is_attr_start {
            i += 1;
            continue;
        }
        let open = ctx.next_code(i + 1).expect("checked above");
        // Attribute body up to the matching `]`.
        let mut depth = 0usize;
        let mut close = open;
        for (k, t) in ctx.toks.iter().enumerate().skip(open) {
            if t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(']') {
                depth -= 1;
                if depth == 0 {
                    close = k;
                    break;
                }
            }
        }
        let is_tf = ctx.toks[open..close]
            .iter()
            .any(|t| t.is_ident("target_feature"));
        if !is_tf {
            i = close + 1;
            continue;
        }
        let line = ctx.toks[i].line;
        if !has_guard && !reported_guard && !ctx.allowed(TF_GUARD, line) {
            reported_guard = true; // one finding per file is enough
            out.push(Diagnostic::new(
                ctx,
                line,
                TF_GUARD,
                "`#[target_feature]` in a file with no `is_x86_feature_detected!` guard — \
                 feature-gated kernels must live next to their dispatch check"
                    .to_string(),
            ));
        }
        // Visibility of the following item: walk to `fn`, collecting any
        // `pub` qualifier on the way (skipping further attributes).
        let mut j = close + 1;
        while let Some(k) = ctx.next_code(j) {
            let t = &ctx.toks[k];
            if t.is_punct('#') {
                // another attribute: skip it
                let Some(o) = ctx.next_code(k + 1) else { break };
                let mut d = 0usize;
                let mut e = o;
                for (x, tt) in ctx.toks.iter().enumerate().skip(o) {
                    if tt.is_punct('[') {
                        d += 1;
                    } else if tt.is_punct(']') {
                        d -= 1;
                        if d == 0 {
                            e = x;
                            break;
                        }
                    }
                }
                j = e + 1;
                continue;
            }
            if t.is_ident("pub") {
                // `pub` alone or `pub(crate)` is too wide; `pub(super)`,
                // `pub(self)`, `pub(in …)` are fine.
                let wide = match ctx.next_code(k + 1) {
                    Some(p) if ctx.toks[p].is_punct('(') => ctx
                        .next_code(p + 1)
                        .is_some_and(|q| ctx.toks[q].is_ident("crate")),
                    _ => true,
                };
                if wide && !ctx.allowed(TF_VIS, line) {
                    out.push(Diagnostic::new(
                        ctx,
                        line,
                        TF_VIS,
                        "`#[target_feature]` fn wider than `pub(super)` — keep feature-gated \
                         kernels reachable only through their guarded dispatch module"
                            .to_string(),
                    ));
                }
                break;
            }
            if t.is_ident("fn") || t.is_ident("unsafe") || t.is_ident("extern") {
                break; // private item: fine
            }
            j = k + 1;
        }
        i = close + 1;
    }
}
