//! Every rule family has a positive (`pass/`) and negative (`fail/`)
//! fixture tree under `tests/fixtures/`: a miniature workspace whose file
//! *paths* matter as much as their contents, because some rules are
//! path-scoped (kernel modules under `crates/nn/src/`). `pass` trees must
//! lint clean; `fail` trees must produce exactly the expected rule IDs —
//! never extras, so rule precision regressions surface here too.

use everest_lint::lint_root;
use std::collections::BTreeSet;
use std::path::PathBuf;

fn fixture(name: &str, side: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
        .join(side)
}

/// Rule IDs found in a fixture tree, deduplicated.
fn rules_in(name: &str, side: &str) -> BTreeSet<&'static str> {
    let report = lint_root(&fixture(name, side));
    report.diagnostics.iter().map(|d| d.rule).collect()
}

fn assert_pass(name: &str) {
    let report = lint_root(&fixture(name, "pass"));
    assert!(
        report.diagnostics.is_empty(),
        "fixture {name}/pass must be clean, got:\n{}",
        report
            .diagnostics
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

fn assert_fail(name: &str, expected: &[&str]) {
    let got = rules_in(name, "fail");
    let want: BTreeSet<&str> = expected.iter().copied().collect();
    assert_eq!(
        got, want,
        "fixture {name}/fail must trip exactly the expected rules"
    );
}

#[test]
fn unsafe_audit_fixtures() {
    assert_pass("unsafe_audit");
    assert_fail(
        "unsafe_audit",
        &[
            "unsafe-callsite-comment",
            "target-feature-vis",
            "target-feature-guard",
        ],
    );
}

#[test]
fn determinism_fixtures() {
    assert_pass("determinism");
    assert_fail("determinism", &["det-float-sum"]);
}

#[test]
fn env_registry_fixtures() {
    assert_pass("env_registry");
    assert_fail(
        "env_registry",
        &["env-var-undocumented", "env-var-doc-stale"],
    );
}

#[test]
fn allow_meta_fixtures() {
    assert_pass("allows");
    // A reason-less allow is rejected AND does not suppress its rule:
    // det-float-sum still fires under the malformed escape hatch.
    assert_fail(
        "allows",
        &[
            "allow-unknown-rule",
            "allow-missing-reason",
            "det-float-sum",
        ],
    );
}
