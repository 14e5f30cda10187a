//! Simulated-time accounting.
//!
//! The paper measures end-to-end latency on a GTX1080Ti; our substrate
//! replaces the GPU models with ground-truth lookups, so *time* is
//! accounted explicitly: every component charges its simulated cost to a
//! [`SimClock`]. Reported speedups are ratios of simulated times, which
//! preserves the paper's comparative shape regardless of the host CPU.
//!
//! Every charge is a *count* times a constant — frames labelled, frames
//! confirmed, `E[X_f]` evaluations — never a wall-clock reading, so a
//! query's simulated time is a pure function of the statement and seed.
//!
//! Constants are calibration knobs, each documented where it is defined.
//! The oracle and baseline scorer costs live with their models in
//! `everest-models`; this module holds the pipeline-side constants.

use std::collections::BTreeMap;

/// Simulated cost of CMDN inference per frame (batched GPU), seconds.
pub const CMDN_INFER_COST: f64 = 1.5e-3;

/// Simulated CMDN training cost per (sample × epoch × model), seconds.
pub const CMDN_TRAIN_COST: f64 = 3.0e-4;

/// Simulated difference-detector cost per frame, seconds.
pub const DIFF_COST: f64 = 5.0e-5;

/// Simulated `Select-candidate` cost per `E[X_f]` evaluation (Eq. 6),
/// seconds. Calibrated once on the reference machine: an exhaustive
/// `select_batch` scan of 1 000 / 10 000 items took 93 µs / 2.02 ms
/// (≈ 1–2e-7 s per evaluation). The wall-clock counterpart on the
/// benchmark ladder is `phase2.self_ms`.
pub const SELECT_EVAL_COST: f64 = 2.0e-7;

/// Component labels used in the Table 8 breakdown.
pub mod component {
    /// Phase 1: labelling sampled frames with the oracle.
    pub const LABEL: &str = "label_sample_by_oracle";
    /// Phase 1: CMDN training (all grid configurations).
    pub const TRAIN: &str = "cmdn_training";
    /// Phase 1: populating D0 (decode + diff detect + CMDN inference).
    pub const POPULATE: &str = "populate_d0";
    /// Phase 2: Select-candidate algorithmic time, counted as `E[X_f]`
    /// evaluations × [`SELECT_EVAL_COST`](super::SELECT_EVAL_COST).
    pub const SELECT: &str = "select_candidate";
    /// Phase 2: confirming frames with the oracle.
    pub const CONFIRM: &str = "confirm_by_oracle";
}

/// A component-labelled simulated clock.
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    components: BTreeMap<&'static str, f64>,
}

impl SimClock {
    pub fn new() -> Self {
        SimClock::default()
    }

    /// Charges `seconds` of simulated time to `component`.
    pub fn charge(&mut self, component: &'static str, seconds: f64) {
        assert!(
            seconds >= 0.0 && seconds.is_finite(),
            "invalid charge {seconds}"
        );
        *self.components.entry(component).or_insert(0.0) += seconds;
    }

    /// Simulated seconds charged to one component.
    pub fn component(&self, component: &str) -> f64 {
        self.components.get(component).copied().unwrap_or(0.0)
    }

    /// Total simulated seconds across components.
    pub fn total(&self) -> f64 {
        self.components.values().sum()
    }

    /// Fraction of the total charged to one component (0 when empty).
    pub fn fraction(&self, component: &str) -> f64 {
        let total = self.total();
        if total == 0.0 {
            0.0
        } else {
            self.component(component) / total
        }
    }

    /// Merges another clock into this one.
    pub fn merge(&mut self, other: &SimClock) {
        for (&k, &v) in &other.components {
            *self.components.entry(k).or_insert(0.0) += v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_and_total() {
        let mut c = SimClock::new();
        c.charge(component::LABEL, 2.0);
        c.charge(component::TRAIN, 3.0);
        c.charge(component::LABEL, 1.0);
        assert_eq!(c.component(component::LABEL), 3.0);
        assert_eq!(c.total(), 6.0);
        assert!((c.fraction(component::TRAIN) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_clock() {
        let c = SimClock::new();
        assert_eq!(c.total(), 0.0);
        assert_eq!(c.fraction(component::LABEL), 0.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = SimClock::new();
        a.charge(component::SELECT, 1.0);
        let mut b = SimClock::new();
        b.charge(component::SELECT, 2.0);
        b.charge(component::CONFIRM, 5.0);
        a.merge(&b);
        assert_eq!(a.component(component::SELECT), 3.0);
        assert_eq!(a.component(component::CONFIRM), 5.0);
    }

    #[test]
    #[should_panic(expected = "invalid charge")]
    fn negative_charge_panics() {
        let mut c = SimClock::new();
        c.charge(component::LABEL, -1.0);
    }
}
