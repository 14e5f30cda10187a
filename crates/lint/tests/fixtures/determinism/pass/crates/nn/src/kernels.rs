//! Positive fixture: a fixed-order reducer, and an f64 iterator sum (the
//! rule is about f32 kernels only).

pub fn norm2(x: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    for v in x {
        acc += v * v;
    }
    acc
}

pub fn mean(x: &[f64]) -> f64 {
    x.iter().sum::<f64>() / x.len() as f64
}
