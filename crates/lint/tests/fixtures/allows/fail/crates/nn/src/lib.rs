//! Negative fixture: malformed escape hatches.

pub fn norm2(x: &[f32]) -> f32 {
    // lint:allow(no-such-rule): this rule id does not exist.
    let a = 1.0;
    // lint:allow(det-float-sum)
    a * x.iter().map(|v| v * v).sum::<f32>()
}
