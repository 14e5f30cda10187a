//! The workspace must stay clean under its own linter: this is the same
//! gate CI runs (`cargo lint`), expressed as a test so `cargo test -q`
//! alone catches a violation before a PR ever reaches the lint job.

use everest_lint::lint_root;
use std::path::PathBuf;

#[test]
fn workspace_is_lint_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists");
    let report = lint_root(&root);
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
    // The burn-down ledger stays truthful: budgets cover the current
    // sites, and slack (sites < budget) is reported by the binary, not
    // asserted here, so shrinking debt never breaks the build.
    assert!(report.panic_sites <= report.panic_budget);
}
