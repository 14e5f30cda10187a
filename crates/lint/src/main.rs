//! `everest-lint` binary: `cargo lint` / CI entry point.
//!
//! Usage: `everest-lint [--check] [ROOT]`
//!
//! * With no `ROOT`, lints the workspace containing the current
//!   directory (walking up to the first `Cargo.toml` with a
//!   `[workspace]` table).
//! * `--check` is accepted for CI-invocation clarity; the exit code is
//!   the same either way: 0 when clean, 1 when there are findings, 2 on
//!   usage or I/O errors. There is deliberately no `--fix`.

#![deny(unsafe_code)]

use everest_lint::lint_root;
use std::path::PathBuf;

fn main() {
    let mut root: Option<PathBuf> = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--check" => {}
            "--help" | "-h" => {
                eprintln!("usage: everest-lint [--check] [ROOT]");
                return;
            }
            _ if arg.starts_with('-') => {
                eprintln!("everest-lint: unknown flag `{arg}`");
                std::process::exit(2);
            }
            _ => root = Some(PathBuf::from(arg)),
        }
    }
    let root = match root {
        Some(r) => r,
        None => match find_workspace_root() {
            Some(r) => r,
            None => {
                eprintln!("everest-lint: no workspace Cargo.toml found above the current dir");
                std::process::exit(2);
            }
        },
    };
    if !root.is_dir() {
        eprintln!("everest-lint: root `{}` is not a directory", root.display());
        std::process::exit(2);
    }

    let report = lint_root(&root);

    for d in &report.diagnostics {
        println!("{d}");
    }
    if report.diagnostics.is_empty() {
        println!(
            "everest-lint: clean ({} files scanned)",
            report.files_scanned
        );
    } else {
        println!(
            "everest-lint: {} finding(s) in {} files scanned",
            report.diagnostics.len(),
            report.files_scanned
        );
        std::process::exit(1);
    }
}

/// Walks up from the current directory to a `Cargo.toml` declaring a
/// `[workspace]`.
fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}
