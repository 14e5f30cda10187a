//! Positive fixture: a well-formed escape hatch.

pub fn norm2(x: &[f32]) -> f32 {
    // lint:allow(det-float-sum): two-element inputs only; order cannot matter.
    x.iter().map(|v| v * v).sum::<f32>()
}
