//! The workspace must stay clean under its own linter: this is the same
//! gate CI runs (`cargo lint`), expressed as a test so `cargo test -q`
//! alone catches a violation before a PR ever reaches the lint job.
//!
//! The invariants that are clippy's job (docs/LINTING.md, first table) are
//! pinned here too: every `#[expect(clippy::…)]` switches its lint on for
//! its own scope, so a stale exemption or a deleted `clippy.toml` fails
//! clippy by itself — a deleted crate-root lint line would not.

use everest_lint::lint_root;
use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists")
}

#[test]
fn workspace_is_lint_clean() {
    let report = lint_root(&workspace_root());
    assert!(
        report.files_scanned > 50,
        "self-check must actually scan the workspace (got {} files)",
        report.files_scanned
    );
    assert!(
        report.diagnostics.is_empty(),
        "workspace must be lint-clean:\n{}",
        report
            .diagnostics
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The crate-level (`#![…]`) attributes of a source file that switch lints
/// on, concatenated.
fn crate_level_lints(src: &str) -> String {
    let mut out = String::new();
    let mut rest = src;
    while let Some(start) = rest.find("#![") {
        let attr = &rest[start..];
        let end = attr.find(")]").map_or(attr.len(), |e| e + 2);
        if attr[..end].contains("warn(") || attr[..end].contains("deny(") {
            out.push_str(&attr[..end]);
        }
        rest = &attr[end..];
    }
    out
}

#[test]
fn clippy_configuration_is_in_place() {
    let root = workspace_root();
    let read = |rel: &str| {
        std::fs::read_to_string(root.join(rel)).unwrap_or_else(|e| panic!("read {rel}: {e}"))
    };
    const EVERYWHERE: [&str; 3] = [
        "clippy::undocumented_unsafe_blocks",
        "clippy::iter_over_hash_type",
        "clippy::allow_attributes_without_reason",
    ];
    const NO_PANIC_LIBS: [&str; 2] = ["clippy::unwrap_used", "clippy::expect_used"];
    for krate in ["core", "video", "nn", "models", "evql", "serve"] {
        let rel = format!("crates/{krate}/src/lib.rs");
        let lints = crate_level_lints(&read(&rel));
        let no_panic = matches!(krate, "core" | "evql");
        let wanted = EVERYWHERE
            .iter()
            .chain(NO_PANIC_LIBS.iter().filter(|_| no_panic));
        for lint in wanted {
            assert!(
                lints.contains(lint),
                "{rel} must switch on `{lint}` at the crate root (docs/LINTING.md)"
            );
        }
    }
    let clippy_toml = read("clippy.toml");
    for path in ["std::time::Instant::now", "std::time::SystemTime::now"] {
        assert!(
            clippy_toml.contains(&format!("path = \"{path}\"")),
            "clippy.toml must list `{path}` under disallowed-methods"
        );
    }
}
