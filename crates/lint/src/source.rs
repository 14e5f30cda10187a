//! Per-file analysis context: the token stream plus the derived structure
//! every rule consumes — comment indexes (`SAFETY:`, `lint:allow`),
//! `#[cfg(test)]` regions, and `unsafe` block / `unsafe fn` spans.

use crate::lexer::{lex, Tok};
use std::collections::BTreeMap;

/// One parsed `// lint:allow(<rule>): <reason>` escape hatch.
#[derive(Debug, Clone)]
pub struct Allow {
    pub line: usize,
    pub rule: String,
    /// The justification after the colon; empty string when missing.
    pub reason: String,
}

/// Kind of an `unsafe` span (execution contexts for the call-site rule).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnsafeKind {
    /// `unsafe { … }` expression block.
    Block,
    /// Body of an `unsafe fn`.
    FnBody,
}

/// One `unsafe` region, as token-index and line bounds.
#[derive(Debug, Clone)]
pub struct UnsafeSpan {
    pub kind: UnsafeKind,
    /// Token range of the braced body (indices of `{` and `}`).
    pub body: (usize, usize),
    /// Whether a `// SAFETY:` comment covers the span head.
    pub has_safety: bool,
}

/// A declared `unsafe fn` in this file.
#[derive(Debug, Clone)]
pub struct UnsafeFn {
    pub name: String,
    /// Token index of the name identifier (excluded from call-site scan).
    pub name_tok: usize,
}

/// Fully analysed source file, ready for the rules.
pub struct FileCtx {
    /// Workspace-relative path with forward slashes.
    pub rel: String,
    pub lines: Vec<String>,
    pub toks: Vec<Tok>,
    /// `is_test_line[line - 1]`: line is inside a `#[cfg(test)]` item.
    pub is_test_line: Vec<bool>,
    /// Lines whose comments contain `SAFETY:`.
    safety_lines: Vec<bool>,
    /// Comment-only lines (used to let allow/SAFETY comments stack).
    comment_lines: Vec<bool>,
    pub allows: Vec<Allow>,
    pub unsafe_spans: Vec<UnsafeSpan>,
    pub unsafe_fns: Vec<UnsafeFn>,
}

impl FileCtx {
    pub fn new(rel: String, src: &str) -> FileCtx {
        let lines: Vec<String> = src.lines().map(str::to_owned).collect();
        let toks = lex(src);
        let n = lines.len();
        let mut ctx = FileCtx {
            rel,
            lines,
            toks,
            is_test_line: vec![false; n],
            safety_lines: vec![false; n],
            comment_lines: vec![false; n],
            allows: Vec::new(),
            unsafe_spans: Vec::new(),
            unsafe_fns: Vec::new(),
        };
        ctx.index_comments();
        ctx.mark_test_regions();
        ctx.collect_unsafe();
        ctx
    }

    /// Next non-comment token index at or after `i`.
    pub fn next_code(&self, mut i: usize) -> Option<usize> {
        while let Some(t) = self.toks.get(i) {
            if !t.is_comment() {
                return Some(i);
            }
            i += 1;
        }
        None
    }

    /// Previous non-comment token index at or before `i`.
    pub fn prev_code(&self, mut i: usize) -> Option<usize> {
        loop {
            if !self.toks[i].is_comment() {
                return Some(i);
            }
            if i == 0 {
                return None;
            }
            i -= 1;
        }
    }

    /// Index of the `}` matching the `{` at token index `open`.
    pub fn matching_brace(&self, open: usize) -> usize {
        let mut depth = 0usize;
        for (i, t) in self.toks.iter().enumerate().skip(open) {
            if t.is_punct('{') {
                depth += 1;
            } else if t.is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
        }
        self.toks.len().saturating_sub(1)
    }

    /// Whether `line` (1-based) lies in a `#[cfg(test)]` region.
    pub fn in_test(&self, line: usize) -> bool {
        self.is_test_line.get(line - 1).copied().unwrap_or(false)
    }

    /// True when a `SAFETY:` comment covers `line`: on the line itself or
    /// on the run of comment-only lines immediately above it.
    pub fn safety_near(&self, line: usize) -> bool {
        if self.safety_lines.get(line - 1).copied().unwrap_or(false) {
            return true;
        }
        let mut l = line - 1; // 1-based line above
        while l >= 1 && self.comment_lines[l - 1] {
            if self.safety_lines[l - 1] {
                return true;
            }
            l -= 1;
        }
        false
    }

    /// True when `// lint:allow(rule): …` covers `line` (same line or the
    /// comment run immediately above).
    pub fn allowed(&self, rule: &str, line: usize) -> bool {
        self.allows.iter().any(|a| {
            if a.rule != rule || a.reason.is_empty() {
                return false;
            }
            if a.line == line {
                return true;
            }
            // Allow sits in the comment run directly above `line`.
            let mut l = line - 1;
            while l >= 1 && self.comment_lines[l - 1] {
                if a.line == l {
                    return true;
                }
                l -= 1;
            }
            false
        })
    }

    /// Innermost `unsafe` spans containing token index `i`, outermost last.
    pub fn enclosing_unsafe(&self, i: usize) -> Vec<&UnsafeSpan> {
        self.unsafe_spans
            .iter()
            .filter(|s| s.body.0 <= i && i <= s.body.1)
            .collect()
    }

    fn index_comments(&mut self) {
        // Which lines are comment-only (trimmed content starts with // or
        // is the interior of a block comment)? Token-based: a line is
        // comment-only when every token starting on it is a comment.
        let mut has_code = vec![false; self.lines.len()];
        let mut has_comment = vec![false; self.lines.len()];
        for t in &self.toks {
            let idx = t.line - 1;
            if t.is_comment() {
                let end = (idx + t.text.matches('\n').count() + 1).min(self.lines.len());
                for flag in &mut has_comment[idx..end] {
                    *flag = true;
                }
            } else if idx < has_code.len() {
                has_code[idx] = true;
            }
        }
        for i in 0..self.lines.len() {
            self.comment_lines[i] = has_comment[i] && !has_code[i];
        }
        let mut allows = Vec::new();
        for t in &self.toks {
            if !t.is_comment() {
                continue;
            }
            if t.text.contains("SAFETY:") {
                self.safety_lines[t.line - 1] = true;
            }
            // Escape hatches live in plain comments only: doc comments
            // merely *describing* the syntax must not count as allows.
            let is_doc = t.text.starts_with("///")
                || t.text.starts_with("//!")
                || t.text.starts_with("/**")
                || t.text.starts_with("/*!");
            if is_doc {
                continue;
            }
            if let Some(pos) = t.text.find("lint:allow(") {
                let rest = &t.text[pos + "lint:allow(".len()..];
                if let Some(close) = rest.find(')') {
                    let rule = rest[..close].trim().to_string();
                    let after = rest[close + 1..].trim_start();
                    let reason = after
                        .strip_prefix(':')
                        .map(|r| r.trim().to_string())
                        .unwrap_or_default();
                    allows.push(Allow {
                        line: t.line,
                        rule,
                        reason,
                    });
                }
            }
        }
        self.allows = allows;
    }

    /// Marks every line covered by a `#[cfg(test)]`-gated item. The
    /// attribute content must mention `test` without `not(`, so
    /// `#[cfg(all(test, …))]` counts and `#[cfg(not(test))]` does not.
    fn mark_test_regions(&mut self) {
        let mut i = 0;
        while i < self.toks.len() {
            if !(self.toks[i].is_punct('#')
                && self
                    .next_code(i + 1)
                    .is_some_and(|j| self.toks[j].is_punct('[')))
            {
                i += 1;
                continue;
            }
            let open = self.next_code(i + 1).expect("checked above");
            let close = self.matching_bracket(open);
            let attr: Vec<&Tok> = self.toks[open..=close]
                .iter()
                .filter(|t| !t.is_comment())
                .collect();
            let is_cfg_test = attr.iter().any(|t| t.is_ident("cfg"))
                && attr.iter().any(|t| t.is_ident("test"))
                && !attr.iter().any(|t| t.is_ident("not"));
            if !is_cfg_test {
                i = close + 1;
                continue;
            }
            // Span of the gated item: attribute start through the matching
            // `}` of the first brace (or the first `;` when braceless).
            let start_line = self.toks[i].line;
            let mut j = close + 1;
            let mut end_line = start_line;
            while let Some(k) = self.next_code(j) {
                let t = &self.toks[k];
                if t.is_punct(';') {
                    end_line = t.line;
                    break;
                }
                if t.is_punct('{') {
                    let e = self.matching_brace(k);
                    end_line = self.toks[e].line;
                    break;
                }
                j = k + 1;
            }
            for l in start_line..=end_line.min(self.lines.len()) {
                self.is_test_line[l - 1] = true;
            }
            i = close + 1;
        }
    }

    /// Index of the `]` matching the `[` at token index `open`.
    fn matching_bracket(&self, open: usize) -> usize {
        let mut depth = 0usize;
        for (i, t) in self.toks.iter().enumerate().skip(open) {
            if t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(']') {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
        }
        self.toks.len().saturating_sub(1)
    }

    /// Collects `unsafe { … }` blocks (and whether a `// SAFETY:` comment
    /// covers each) and `unsafe fn` declarations with their body spans —
    /// they are execution contexts too.
    fn collect_unsafe(&mut self) {
        let mut spans = Vec::new();
        let mut fns = Vec::new();
        let mut i = 0;
        while i < self.toks.len() {
            if !self.toks[i].is_ident("unsafe") {
                i += 1;
                continue;
            }
            let kw = i;
            let Some(next) = self.next_code(i + 1) else {
                break;
            };
            let t = &self.toks[next];
            if t.is_punct('{') {
                let close = self.matching_brace(next);
                spans.push(UnsafeSpan {
                    kind: UnsafeKind::Block,
                    body: (next, close),
                    has_safety: self.safety_near(self.toks[kw].line),
                });
                i = next + 1;
                continue;
            }
            if t.is_ident("fn") {
                let Some(name_i) = self.next_code(next + 1) else {
                    break;
                };
                let name = self.toks[name_i].text.clone();
                // Find the body `{` (skip the parameter list and any
                // return type); a trait-declaration `;` means no body.
                let mut j = name_i + 1;
                let mut body = None;
                while let Some(k) = self.next_code(j) {
                    if self.toks[k].is_punct('{') {
                        body = Some((k, self.matching_brace(k)));
                        break;
                    }
                    if self.toks[k].is_punct(';') {
                        break;
                    }
                    j = k + 1;
                }
                if let Some(body) = body {
                    spans.push(UnsafeSpan {
                        kind: UnsafeKind::FnBody,
                        body,
                        has_safety: false,
                    });
                }
                fns.push(UnsafeFn {
                    name,
                    name_tok: name_i,
                });
                i = name_i + 1;
                continue;
            }
            i = next;
        }
        self.unsafe_spans = spans;
        self.unsafe_fns = fns;
    }
}

/// Extracts every `EVEREST_[A-Z0-9_]+` name from a piece of text.
pub fn everest_vars(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let bytes = text.as_bytes();
    let needle = b"EVEREST_";
    let mut i = 0;
    while i + needle.len() <= bytes.len() {
        if &bytes[i..i + needle.len()] == needle
            && (i == 0 || !(bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_'))
        {
            let mut j = i + needle.len();
            while j < bytes.len()
                && (bytes[j].is_ascii_uppercase() || bytes[j].is_ascii_digit() || bytes[j] == b'_')
            {
                j += 1;
            }
            if j > i + needle.len() {
                out.push(text[i..j].trim_end_matches('_').to_string());
            }
            i = j;
        } else {
            i += 1;
        }
    }
    out
}

/// Map from env-var name to the `(file, line)` of its first occurrence.
pub type VarSites = BTreeMap<String, (String, usize)>;
