//! # everest-lint — repo-specific static analysis for the Everest engine
//!
//! Enforces invariants clippy cannot express, with machine-readable rule
//! IDs, `file:line` diagnostics, and an inline
//! `// lint:allow(<id>): <reason>` escape hatch (the reason is
//! mandatory). What clippy *can* express — `SAFETY:`-commented `unsafe`
//! blocks, `# Safety` docs, hash-order iteration, wall-clock reads,
//! `unwrap()`/`expect()` in library code — is clippy configuration
//! (`clippy.toml` and the crate-root lint lines; see `docs/LINTING.md`).
//! Rule families:
//!
//! * **unsafe-audit** — `SAFETY:`-commented calls of workspace-declared
//!   `unsafe fn`s, `#[target_feature]` confinement
//!   ([`rules::unsafe_audit`]);
//! * **determinism** — no implicit f32 iterator sums in kernel modules
//!   ([`rules::determinism`]);
//! * **env-var registry** — `EVEREST_*` variables in source and CI
//!   workflows ↔ `docs/BENCHMARKING.md` table, both directions
//!   ([`rules::env_registry`]).
//!
//! No rule follows calls across functions: the one invariant that would
//! need it — no wall-clock value reaches canonical answer bytes — is
//! checked by the root package's byte-identity tests instead.
//!
//! The crate has **no dependencies** (the build env is offline) and
//! reconstructs just enough structure from a hand-rolled lexer
//! ([`lexer`]) — see `docs/LINTING.md` for the catalog, the precision
//! contract, and how to add a rule.

#![deny(unsafe_code)]

pub mod lexer;
pub mod rules;
pub mod source;

use source::{FileCtx, VarSites};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// One finding: `file:line: [rule] message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Root-relative path, forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Stable machine-readable rule ID.
    pub rule: &'static str,
    pub message: String,
}

impl Diagnostic {
    pub fn new(ctx: &FileCtx, line: usize, rule: &'static str, message: String) -> Diagnostic {
        Diagnostic {
            file: ctx.rel.clone(),
            line,
            rule,
            message,
        }
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Cross-file facts gathered in the first pass.
#[derive(Debug, Default)]
pub struct WorkspaceIndex {
    /// Names of `unsafe fn`s declared anywhere in the scanned sources.
    pub unsafe_fn_names: BTreeSet<String>,
}

/// Result of a full lint run.
pub struct Report {
    pub diagnostics: Vec<Diagnostic>,
    /// Files scanned (for the summary line).
    pub files_scanned: usize,
}

/// Source directories scanned under the lint root. `vendor/` is excluded
/// (third-party-shaped shims; `#![deny(unsafe_code)]` covers them at
/// compile time).
const SCAN_DIRS: &[&str] = &["src", "crates", "tests", "examples", "benches"];

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", "vendor", "fixtures", ".git"];

/// Runs every rule over the workspace rooted at `root`.
pub fn lint_root(root: &Path) -> Report {
    let mut files = Vec::new();
    for dir in SCAN_DIRS {
        collect_rs(&root.join(dir), &mut files);
    }
    files.sort();
    let mut ctxs = Vec::with_capacity(files.len());
    for path in &files {
        let Ok(src) = std::fs::read_to_string(path) else {
            continue;
        };
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        ctxs.push(FileCtx::new(rel, &src));
    }

    // Pass 1: cross-file facts (unsafe fn names, env-var sites).
    let mut ws = WorkspaceIndex::default();
    let mut var_sites = VarSites::new();
    for ctx in &ctxs {
        for f in &ctx.unsafe_fns {
            ws.unsafe_fn_names.insert(f.name.clone());
        }
        rules::env_registry::collect(ctx, &mut var_sites);
    }
    // CI workflows are reference sites too: an `EVEREST_*` knob set only
    // as a job `env:` entry must still appear in the registry.
    rules::env_registry::collect_workflows(root, &mut var_sites);

    // Pass 2: per-file rules.
    let mut diagnostics = Vec::new();
    for ctx in &ctxs {
        rules::unsafe_audit::check(ctx, &ws, &mut diagnostics);
        rules::determinism::check(ctx, &mut diagnostics);
        check_allows(ctx, &mut diagnostics);
    }

    // Workspace-level rule.
    rules::env_registry::check(root, &var_sites, &mut diagnostics);

    diagnostics
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    Report {
        diagnostics,
        files_scanned: ctxs.len(),
    }
}

/// Validates the escape hatches themselves: an allow must name a known
/// rule and carry a non-empty reason.
fn check_allows(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    for a in &ctx.allows {
        if !rules::ALL_RULES.contains(&a.rule.as_str()) {
            out.push(Diagnostic::new(
                ctx,
                a.line,
                "allow-unknown-rule",
                format!(
                    "lint:allow names unknown rule `{}` (known: {})",
                    a.rule,
                    rules::ALL_RULES.join(", ")
                ),
            ));
        } else if a.reason.is_empty() {
            out.push(Diagnostic::new(
                ctx,
                a.line,
                "allow-missing-reason",
                format!(
                    "lint:allow({}) without a reason — write \
                     `// lint:allow({}): <why this is sound>`",
                    a.rule, a.rule
                ),
            ));
        }
    }
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy().into_owned();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_str()) {
                collect_rs(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}
