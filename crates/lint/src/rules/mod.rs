//! The rule catalog. Each rule has a stable machine-readable ID (used in
//! diagnostics and in `// lint:allow(<id>): <reason>` escape hatches);
//! `docs/LINTING.md` is the human-facing catalog.

pub mod determinism;
pub mod env_registry;
pub mod unsafe_audit;

/// Every known rule ID, for validating `lint:allow` references.
pub const ALL_RULES: &[&str] = &[
    unsafe_audit::CALLSITE,
    unsafe_audit::TF_VIS,
    unsafe_audit::TF_GUARD,
    determinism::FLOAT_SUM,
    env_registry::UNDOCUMENTED,
    env_registry::DOC_STALE,
];
