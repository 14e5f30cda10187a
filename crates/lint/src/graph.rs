//! Workspace symbol index and call graph — the substrate of the one
//! cross-function rule, `det-taint` ([`crate::rules::taint`]).
//!
//! Built purely from the [`crate::lexer`] token streams, so the same
//! precision contract applies as everywhere in this crate: this is a
//! lexer, not a type checker. The graph reconstructs:
//!
//! * **fn definitions** — name, innermost `impl`/`trait` type,
//!   `#[cfg(test)]` membership, whether the signature declares a return
//!   type, and the token span of the body;
//! * **call sites** — `name(…)`, `path::name(…)`, and `.name(…)` method
//!   calls, attributed to the *innermost* enclosing definition (so a
//!   nested `impl Drop` inside a fn body never pollutes the outer fn);
//! * **resolution** — name-based: a bare or method call links to every
//!   workspace fn with that name (which handles trait dispatch for free);
//!   a `Type::name(…)` call whose qualifier is a known workspace
//!   `impl`/`trait` type links only within that type; an uppercase
//!   qualifier that is *not* a workspace type (e.g. `Vec::new`) resolves
//!   to nothing; a lowercase qualifier is treated as a module path and
//!   falls back to name-only resolution. `Self::name(…)` resolves within
//!   the caller's own type. A `self.name(…)` receiver prefers same-type
//!   candidates when any exist.
//!
//! What it deliberately does **not** resolve (documented in
//! `docs/LINTING.md`): closures-as-values, function pointers, turbofish
//! call syntax, macro-generated code, and the [`UNRESOLVED_NAMES`] set of
//! derive/std-trait glue names (`drop`, `clone`, `fmt`, …) where a
//! workspace definition and the ubiquitous std name collide — linking
//! those would wire every `drop(guard)` to every `impl Drop` in the
//! workspace. A rule built on this graph must prefer missing an exotic
//! construct over flagging a correct one.

use crate::lexer::Kind;
use crate::source::FileCtx;
use std::collections::{BTreeMap, BTreeSet};

/// One `fn` definition somewhere in the scanned workspace.
#[derive(Debug, Clone)]
pub struct FnDef {
    pub name: String,
    /// Index into the `FileCtx` slice the graph was built from.
    pub file: usize,
    /// Token index of the `fn` keyword.
    pub kw: usize,
    /// Innermost `impl`/`trait` type name containing the def, when any.
    pub impl_type: Option<String>,
    /// Inside a `#[cfg(test)]` region.
    pub is_test: bool,
    /// Signature declares a return type (`-> …` after the params).
    pub has_ret: bool,
    /// Token indices of the body `{` and `}`; `None` for trait decls.
    pub body: Option<(usize, usize)>,
}

/// One call expression, attributed to its innermost enclosing fn.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Index into [`Graph::fns`] of the enclosing definition.
    pub caller: usize,
    /// Called name (last path segment / method name).
    pub callee: String,
    /// `Foo::bar(…)` → `Some("Foo")`; bare and method calls → `None`.
    pub qualifier: Option<String>,
    /// `.bar(…)` method-call syntax.
    pub is_method: bool,
    /// Receiver is literally `self` (only meaningful for method calls).
    pub self_recv: bool,
    pub line: usize,
}

/// Fn names never linked through the graph: derive/std-trait glue where a
/// workspace definition and the ubiquitous std name collide. Resolving
/// these by name would create edges from every `drop(x)` / `a == b` /
/// `format!`-driven `fmt` call to unrelated workspace impls.
pub const UNRESOLVED_NAMES: &[&str] = &[
    "drop",
    "clone",
    "fmt",
    "default",
    "from",
    "into",
    "eq",
    "ne",
    "cmp",
    "partial_cmp",
    "hash",
    "next",
    "deref",
    "deref_mut",
    "borrow",
    "borrow_mut",
    "to_string",
    "as_ref",
    "as_mut",
    "index",
    "index_mut",
];

/// Keywords that look like `ident (` but are never calls.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "in", "match", "return", "loop", "let", "mut", "ref", "move",
    "as", "fn", "impl", "trait", "struct", "enum", "union", "type", "const", "static", "use",
    "mod", "pub", "unsafe", "extern", "where", "dyn", "box", "break", "continue", "async", "await",
    "yield",
];

/// The workspace call graph plus symbol index.
pub struct Graph<'a> {
    pub ctxs: &'a [FileCtx],
    pub fns: Vec<FnDef>,
    pub calls: Vec<CallSite>,
    /// Fn name → indices into `fns`.
    pub by_name: BTreeMap<String, Vec<usize>>,
    /// Every `impl`/`trait` type name seen (for qualifier resolution).
    pub impl_types: BTreeSet<String>,
    /// Per fn: `(call index, resolved callee fn index)` edges, in token
    /// order, deduplicated per `(call, callee)` pair.
    pub callees: Vec<Vec<(usize, usize)>>,
    /// Per fn: caller fn indices, deduplicated.
    pub callers: Vec<Vec<usize>>,
}

impl<'a> Graph<'a> {
    pub fn build(ctxs: &'a [FileCtx]) -> Graph<'a> {
        let mut g = Graph {
            ctxs,
            fns: Vec::new(),
            calls: Vec::new(),
            by_name: BTreeMap::new(),
            impl_types: BTreeSet::new(),
            callees: Vec::new(),
            callers: Vec::new(),
        };
        for (fi, ctx) in ctxs.iter().enumerate() {
            g.collect_defs(fi, ctx);
        }
        for (i, d) in g.fns.iter().enumerate() {
            g.by_name.entry(d.name.clone()).or_default().push(i);
            if let Some(t) = &d.impl_type {
                g.impl_types.insert(t.clone());
            }
        }
        for (fi, ctx) in ctxs.iter().enumerate() {
            g.collect_calls(fi, ctx);
        }
        g.callees = vec![Vec::new(); g.fns.len()];
        g.callers = vec![Vec::new(); g.fns.len()];
        for (ci, call) in g.calls.iter().enumerate() {
            for target in g.resolve(call) {
                g.callees[call.caller].push((ci, target));
                if !g.callers[target].contains(&call.caller) {
                    g.callers[target].push(call.caller);
                }
            }
        }
        g
    }

    /// The `FileCtx` a definition lives in.
    pub fn ctx(&self, def: usize) -> &FileCtx {
        &self.ctxs[self.fns[def].file]
    }

    /// Resolution targets for one call site (see the module docs for the
    /// name-based resolution contract).
    pub fn resolve(&self, call: &CallSite) -> Vec<usize> {
        if UNRESOLVED_NAMES.contains(&call.callee.as_str()) {
            return Vec::new();
        }
        let Some(all) = self.by_name.get(&call.callee) else {
            return Vec::new();
        };
        // Body-less trait declarations are never call targets: dispatch
        // goes to the bodied impls (trait *default* methods have bodies
        // and stay in the set).
        let cands: Vec<usize> = all
            .iter()
            .copied()
            .filter(|&i| self.fns[i].body.is_some())
            .collect();
        if cands.is_empty() {
            return Vec::new();
        }
        let same_type = |idx: usize, ty: &Option<String>| -> bool {
            ty.is_some() && self.fns[idx].impl_type == *ty
        };
        match call.qualifier.as_deref() {
            Some("Self") => {
                let ty = self.fns[call.caller].impl_type.clone();
                cands.into_iter().filter(|&i| same_type(i, &ty)).collect()
            }
            Some(q) if self.impl_types.contains(q) => {
                let ty = Some(q.to_string());
                cands.into_iter().filter(|&i| same_type(i, &ty)).collect()
            }
            // An uppercase qualifier that is not a workspace type is an
            // external type (`Vec::new`, `Instant::now`): no edge.
            Some(q) if q.starts_with(|c: char| c.is_ascii_uppercase()) => Vec::new(),
            // Lowercase qualifier: a module path — name-only resolution.
            _ => {
                if call.is_method && call.self_recv {
                    // `self.name(…)`: prefer same-type candidates when any
                    // exist (trait default methods keep the full set).
                    let ty = self.fns[call.caller].impl_type.clone();
                    let narrowed: Vec<usize> = cands
                        .iter()
                        .copied()
                        .filter(|&i| same_type(i, &ty))
                        .collect();
                    if !narrowed.is_empty() {
                        return narrowed;
                    }
                }
                cands
            }
        }
    }

    /// Token ranges belonging to `def` itself: its signature and body minus
    /// any nested definitions (an `fn` or `impl` declared inside the body).
    pub fn own_ranges(&self, def: usize) -> Vec<(usize, usize)> {
        let d = &self.fns[def];
        let Some((open, close)) = d.body else {
            return vec![(d.kw, d.kw)];
        };
        // Nested defs in the same file whose body lies strictly inside.
        let mut holes: Vec<(usize, usize)> = self
            .fns
            .iter()
            .filter(|n| n.file == d.file)
            .filter_map(|n| n.body.map(|b| (n.kw, b.1)))
            .filter(|&(s, e)| s > open && e < close)
            .collect();
        holes.sort_unstable();
        let mut out = Vec::new();
        let mut cur = d.kw;
        for (s, e) in holes {
            if s > cur {
                out.push((cur, s - 1));
            }
            cur = cur.max(e + 1);
        }
        if cur <= close {
            out.push((cur, close));
        }
        out
    }

    /// Innermost definition in file `fi` whose span contains token `i`.
    fn innermost_def(&self, fi: usize, i: usize) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (di, d) in self.fns.iter().enumerate() {
            if d.file != fi {
                continue;
            }
            let Some((_, close)) = d.body else { continue };
            if d.kw <= i && i <= close {
                match best {
                    Some(b) if self.fns[b].kw >= d.kw => {}
                    _ => best = Some(di),
                }
            }
        }
        best
    }

    fn collect_defs(&mut self, fi: usize, ctx: &FileCtx) {
        // `impl`/`trait` regions: (body span, type name).
        let mut regions: Vec<((usize, usize), String)> = Vec::new();
        let mut i = 0;
        while i < ctx.toks.len() {
            let t = &ctx.toks[i];
            if t.is_ident("impl") || t.is_ident("trait") {
                if let Some((span, name)) = impl_region(ctx, i) {
                    regions.push((span, name));
                    // Do not skip the body: nested impls inside fns (e.g.
                    // an `impl Drop` guard) must be seen too.
                }
            }
            i += 1;
        }

        let mut i = 0;
        while i < ctx.toks.len() {
            if !ctx.toks[i].is_ident("fn") {
                i += 1;
                continue;
            }
            let Some(name_i) = ctx.next_code(i + 1) else {
                break;
            };
            if ctx.toks[name_i].kind != Kind::Ident {
                // `fn(` pointer type or similar — not a definition.
                i += 1;
                continue;
            }
            let name = ctx.toks[name_i].text.clone();
            let sig = parse_signature(ctx, name_i);
            let impl_type = regions
                .iter()
                .filter(|((s, e), _)| *s <= i && i <= *e)
                .max_by_key(|((s, _), _)| *s)
                .map(|(_, n)| n.clone());
            self.fns.push(FnDef {
                name,
                file: fi,
                kw: i,
                impl_type,
                is_test: ctx.in_test(ctx.toks[i].line),
                has_ret: sig.has_ret,
                body: sig.body,
            });
            i = name_i + 1;
        }
    }

    fn collect_calls(&mut self, fi: usize, ctx: &FileCtx) {
        for i in 0..ctx.toks.len() {
            let t = &ctx.toks[i];
            if t.kind != Kind::Ident || NON_CALL_KEYWORDS.contains(&t.text.as_str()) {
                continue;
            }
            // Callee ident must be directly followed by `(` (macros are
            // `name!(…)` and fall out here; turbofish is unresolved).
            if !ctx
                .next_code(i + 1)
                .is_some_and(|j| ctx.toks[j].is_punct('('))
            {
                continue;
            }
            let Some(prev) = i.checked_sub(1).and_then(|p| ctx.prev_code(p)) else {
                continue;
            };
            // A definition, not a call.
            if ctx.toks[prev].is_ident("fn") {
                continue;
            }
            let Some(caller) = self.innermost_def(fi, i) else {
                continue; // call in const/static initializer — unattributed
            };
            let (qualifier, is_method, self_recv) = classify_prefix(ctx, prev);
            self.calls.push(CallSite {
                caller,
                callee: t.text.clone(),
                qualifier,
                is_method,
                self_recv,
                line: t.line,
            });
        }
    }
}

/// Classifies the tokens before a callee ident: path qualifier
/// (`Foo :: name`), method call (`. name`), or bare call.
fn classify_prefix(ctx: &FileCtx, prev: usize) -> (Option<String>, bool, bool) {
    if ctx.toks[prev].is_punct('.') {
        let self_recv = prev
            .checked_sub(1)
            .and_then(|p| ctx.prev_code(p))
            .is_some_and(|p| ctx.toks[p].is_ident("self"));
        return (None, true, self_recv);
    }
    // `Qual :: name` — two ':' then the qualifying segment.
    if ctx.toks[prev].is_punct(':') {
        let q = prev
            .checked_sub(1)
            .and_then(|p| ctx.prev_code(p))
            .filter(|&p| ctx.toks[p].is_punct(':'))
            .and_then(|p| p.checked_sub(1))
            .and_then(|p| ctx.prev_code(p))
            .filter(|&p| ctx.toks[p].kind == Kind::Ident)
            .map(|p| ctx.toks[p].text.clone());
        return (q, false, false);
    }
    (None, false, false)
}

struct Signature {
    has_ret: bool,
    body: Option<(usize, usize)>,
}

/// Parses the signature following the fn name at `name_i`: skips the
/// generic parameter list (angle matching that ignores `->`-closed `>` and
/// paren groups, so `<F: Fn(u32) -> bool>` parses), finds the parameter
/// parens, notes whether `->` follows them, then takes the first `{` (the
/// body) or `;` (a trait declaration) after them. A return type spelled
/// `[T; N]` therefore reads as a declaration: a known miss.
fn parse_signature(ctx: &FileCtx, name_i: usize) -> Signature {
    let none = Signature {
        has_ret: false,
        body: None,
    };
    let Some(mut i) = ctx.next_code(name_i + 1) else {
        return none;
    };
    if ctx.toks[i].is_punct('<') {
        let close = matching_angle(ctx, i);
        let Some(n) = ctx.next_code(close + 1) else {
            return none;
        };
        i = n;
    }
    if !ctx.toks[i].is_punct('(') {
        return none;
    }
    let params_close = matching_paren(ctx, i);
    let Some(after) = ctx.next_code(params_close + 1) else {
        return none;
    };
    let has_ret = ctx.toks[after].is_punct('-')
        && ctx
            .next_code(after + 1)
            .is_some_and(|k| ctx.toks[k].is_punct('>'));
    let mut k = after;
    let body = loop {
        let Some(n) = ctx.next_code(k) else {
            break None;
        };
        if ctx.toks[n].is_punct('{') {
            break Some((n, ctx.matching_brace(n)));
        }
        if ctx.toks[n].is_punct(';') {
            break None;
        }
        k = n + 1;
    };
    Signature { has_ret, body }
}

/// Matching `>` for the `<` at `open`, skipping paren groups and treating
/// `->`'s `>` as non-closing (so `Fn(u32) -> bool` inside bounds parses).
fn matching_angle(ctx: &FileCtx, open: usize) -> usize {
    let mut depth = 0usize;
    let mut paren = 0usize;
    let mut i = open;
    while i < ctx.toks.len() {
        let t = &ctx.toks[i];
        if t.is_comment() {
            i += 1;
            continue;
        }
        if paren > 0 {
            if t.is_punct('(') {
                paren += 1;
            } else if t.is_punct(')') {
                paren -= 1;
            }
        } else if t.is_punct('(') {
            paren = 1;
        } else if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') {
            let after_dash = i
                .checked_sub(1)
                .and_then(|p| ctx.prev_code(p))
                .is_some_and(|p| ctx.toks[p].is_punct('-'));
            if !after_dash {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
        }
        i += 1;
    }
    ctx.toks.len().saturating_sub(1)
}

/// Matching `)` for the `(` at `open`.
fn matching_paren(ctx: &FileCtx, open: usize) -> usize {
    let mut depth = 0usize;
    for (i, t) in ctx.toks.iter().enumerate().skip(open) {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    ctx.toks.len().saturating_sub(1)
}

/// The body span and subject type of the `impl`/`trait` at token `kw`.
/// `impl Trait for Type { … }` yields `Type`; `impl Type { … }` and
/// `trait Name { … }` yield the single name; path types yield the last
/// segment before any generics.
fn impl_region(ctx: &FileCtx, kw: usize) -> Option<((usize, usize), String)> {
    // Body `{` — the header (generics, bounds, where clauses) is brace-free.
    let mut j = kw + 1;
    let open = loop {
        let n = ctx.next_code(j)?;
        if ctx.toks[n].is_punct('{') {
            break n;
        }
        if ctx.toks[n].is_punct(';') {
            return None; // `impl Trait for Type;` — nothing inside
        }
        j = n + 1;
    };
    let close = ctx.matching_brace(open);
    let header: Vec<usize> = (kw + 1..open)
        .filter(|&i| !ctx.toks[i].is_comment())
        .collect();
    // Subject starts after `for` when present, else after the generics.
    let start = header
        .iter()
        .position(|&i| ctx.toks[i].is_ident("for"))
        .map(|p| p + 1)
        .unwrap_or_else(|| {
            if header.first().is_some_and(|&i| ctx.toks[i].is_punct('<')) {
                let close_g = matching_angle(ctx, header[0]);
                header.iter().position(|&i| i > close_g).unwrap_or(0)
            } else {
                0
            }
        });
    // Last path segment: idents joined by `::`, stopping at `<` or the end.
    let mut name = None;
    let mut k = start;
    while k < header.len() {
        let t = &ctx.toks[header[k]];
        if t.kind == Kind::Ident && !matches!(t.text.as_str(), "dyn" | "mut") {
            name = Some(t.text.clone());
            k += 1;
        } else if t.is_punct(':') || t.is_punct('&') || t.kind == Kind::Lifetime {
            k += 1;
        } else {
            break;
        }
    }
    name.map(|n| ((kw, close), n))
}
