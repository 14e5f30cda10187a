//! Rule **panic-policy** (`panic-unwrap`): `unwrap()`/`expect()` are
//! denied in non-test code of the `everest-core` and `everest-evql`
//! *library* modules — query execution should surface typed errors
//! (`EvqlError`, `TooManyWorlds`), not abort the process; the serve-daemon
//! direction (ROADMAP) makes a panicking library a denial-of-service.
//!
//! Existing debt is held by a per-file budget allowlist below: a file may
//! carry at most its budgeted number of sites, each shrink is banked by
//! lowering the budget, and any growth fails CI. The binary prints the
//! burn-down total. New files start at budget zero. Individual sites that
//! are provably unreachable can instead carry
//! `// lint:allow(panic-unwrap): <why it cannot fire>`.

use crate::lexer::Kind;
use crate::source::FileCtx;
use crate::Diagnostic;

pub const RULE: &str = "panic-unwrap";

/// Per-file budget for pre-existing `unwrap`/`expect` sites.
pub struct PanicBudget {
    pub file: &'static str,
    pub budget: usize,
    /// Why the residue is tolerated (shown in the burn-down report).
    pub reason: &'static str,
}

/// The debt ledger. Keep budgets equal to the current count: the
/// self-check test fails when a file *exceeds* its budget, and the binary
/// nags (without failing) when a budget is slack and can be tightened.
pub const PANIC_ALLOWLIST: &[PanicBudget] = &[
    PanicBudget {
        file: "crates/core/src/baselines.rs",
        budget: 1,
        reason: "the λ-sweep always yields ≥ K candidates at λ = 0 (full scan)",
    },
    PanicBudget {
        file: "crates/core/src/dist.rs",
        budget: 3,
        reason: "CDF/quantile lookups over distributions normalised at construction",
    },
    PanicBudget {
        file: "crates/core/src/metrics.rs",
        budget: 2,
        reason: "partial_cmp ordering over scores that are finite by relation contract",
    },
    PanicBudget {
        file: "crates/core/src/pipeline.rs",
        budget: 1,
        reason: "certain_bucket lookup on items the cleaner just proved certain",
    },
    PanicBudget {
        file: "crates/core/src/pws.rs",
        budget: 2,
        reason: "dist()/max_by on uncertain items of a non-empty enumerated relation",
    },
    PanicBudget {
        file: "crates/core/src/select.rs",
        budget: 4,
        reason: "ψ-ordering over finite membership probabilities of uncertain items",
    },
    PanicBudget {
        file: "crates/core/src/semantics.rs",
        budget: 3,
        reason: "world enumeration is non-empty for validated relations",
    },
    PanicBudget {
        file: "crates/core/src/skyline.rs",
        budget: 4,
        reason: "certain_vector/dist lookups guarded by the cleaner's certainty state",
    },
    PanicBudget {
        file: "crates/evql/src/exec.rs",
        budget: 1,
        reason: "phase-1 entry is Some for every engine that analyze() routes here",
    },
];

/// In-scope library files: core and evql `src/`, excluding binaries.
fn in_scope(rel: &str) -> bool {
    (rel.starts_with("crates/core/src/") || rel.starts_with("crates/evql/src/"))
        && !rel.contains("/bin/")
}

/// Counts policy sites in one file and emits findings for files that are
/// over budget (or not in the ledger at all). Returns
/// `(counted_sites, site_allows)` for the burn-down report.
pub fn check(ctx: &FileCtx, out: &mut Vec<Diagnostic>) -> (usize, usize) {
    if !in_scope(&ctx.rel) {
        return (0, 0);
    }
    let mut sites: Vec<usize> = Vec::new(); // lines
    let mut site_allows = 0usize;
    for (i, t) in ctx.toks.iter().enumerate() {
        if t.kind != Kind::Ident || !(t.text == "unwrap" || t.text == "expect") {
            continue;
        }
        let prev_is_dot = i
            .checked_sub(1)
            .and_then(|p| ctx.prev_code(p))
            .is_some_and(|p| ctx.toks[p].is_punct('.'));
        let next_is_call = ctx
            .next_code(i + 1)
            .is_some_and(|n| ctx.toks[n].is_punct('('));
        if !prev_is_dot || !next_is_call || ctx.in_test(t.line) {
            continue;
        }
        if ctx.allowed(RULE, t.line) {
            site_allows += 1;
            continue;
        }
        sites.push(t.line);
    }
    let budget = PANIC_ALLOWLIST
        .iter()
        .find(|b| b.file == ctx.rel)
        .map(|b| b.budget)
        .unwrap_or(0);
    if sites.len() > budget {
        let shown = sites.len().min(budget + 5);
        for &line in &sites[budget..shown] {
            out.push(Diagnostic::new(
                ctx,
                line,
                RULE,
                format!(
                    "`unwrap()`/`expect()` in library code: {} sites exceed this file's budget \
                     of {budget} (return a typed error, prove the invariant with a \
                     lint:allow(panic-unwrap) reason, or — for pre-existing debt — raise the \
                     budget in crates/lint/src/rules/panic_policy.rs with justification)",
                    sites.len()
                ),
            ));
        }
    }
    (sites.len(), site_allows)
}
