//! Small deterministic-randomness helpers shared by the synthetic substrates.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::f64::consts::TAU;

/// SplitMix64 finalizer — cheap, high-quality mixing of `(seed, index)` pairs
/// so every frame gets an independent, reproducible RNG stream.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A reproducible per-frame RNG derived from a video seed and frame index.
pub fn frame_rng(seed: u64, frame_idx: usize) -> StdRng {
    StdRng::seed_from_u64(splitmix64(seed ^ splitmix64(frame_idx as u64)))
}

/// Standard normal sample via Box–Muller (rand 0.8 without `rand_distr`
/// has no Gaussian sampler). The renderers' per-pixel noise draws the same
/// samples, a block at a time, through [`add_sensor_noise`].
pub fn gaussian<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen::<f64>();
    box_muller(u1, u2)
}

/// The Box–Muller transform through libm: [`gaussian`]'s value for the
/// uniforms `(u1, u2)`.
fn box_muller(u1: f64, u2: f64) -> f64 {
    (-2.0 * u1.ln()).sqrt() * (TAU * u2).cos()
}

/// Pixels whose uniforms [`add_sensor_noise`] draws and transforms
/// together; its three block buffers (5 KiB) stay in L1.
const NOISE_BLOCK: usize = 256;

/// Adds sensor noise of standard deviation `std` to every pixel, clamped to
/// `[0, 1]`. Pixel `i` becomes `(p + std * gaussian(rng) as f32).clamp(0.0,
/// 1.0)`, bit for bit, with the `i`-th draw of [`gaussian`], and `rng` ends
/// where that per-pixel loop would leave it. A `std` that is not positive
/// adds nothing and draws nothing.
///
/// For each block of pixels it draws all the uniforms first, then runs the
/// Box–Muller transform over the block in branch-free polynomial code that
/// vectorises at the baseline x86-64 target:
///
/// - `ln u1` is fdlibm's `__ieee754_log` core (`Lg1`–`Lg7`). `u1` is a
///   normal number in `(0, 1)`, so no special case is needed.
/// - `cos(TAU * u2)` rounds `TAU * u2` as libm's caller does, reduces it by
///   `n·π/2` with a two-part Cody–Waite constant, evaluates fdlibm's
///   `__kernel_cos`/`__kernel_sin` on the reduced argument `r` plus its
///   rounding tail, and picks the quadrant with bit masks.
///
/// A polynomial value `v` is used only when its f32 rounding is certified:
/// `(v·(1−2⁻⁴⁰)) as f32 == (v·(1+2⁻⁴⁰)) as f32` and `|r| > 10⁻⁶`. Otherwise
/// (about 1.5·10⁻⁵ of draws) libm recomputes it. Why a certified `v` gives
/// libm's f32:
///
/// - **Polynomial error.** The log and both kernels are within 1 ULP, the
///   square root and the product round once each, so `v` is within about
///   2⁻⁵⁰ (relative) of `sqrt(−2 ln u1)·cos(x)`, with `x = fl(TAU·u2)`.
/// - **Reduction error.** `x − n·pio2_1` is exact (Sterbenz, `n ≤ 4`), and
///   `pio2_1 + pio2_1t` is within 2⁻⁸⁷ of π/2, so the reduced argument is
///   off by less than 10⁻²⁵ absolute: under 10⁻¹⁹ relative once `|r| > 10⁻⁶`.
/// - **libm error.** libm's `ln` and `cos` are within a few ULP, so its value
///   is within about 2⁻⁴⁸ of the same real number, and of `v` within 2⁻⁴⁶.
/// - **Margin.** f64→f32 rounding is monotone. Both ends of the 2⁻⁴⁰ band
///   round to one f32, so every value inside it, libm's included, rounds to
///   that f32. The band tolerates libm errors up to ~2¹⁰ ULP.
pub fn add_sensor_noise(pixels: &mut [f32], std: f32, rng: &mut StdRng) {
    if std.is_nan() || std <= 0.0 {
        return;
    }
    let mut u1 = [0.0f64; NOISE_BLOCK];
    let mut u2 = [0.0f64; NOISE_BLOCK];
    let mut g = [0.0f32; NOISE_BLOCK];
    for block in pixels.chunks_mut(NOISE_BLOCK) {
        let n = block.len();
        let (u1, u2, g) = (&mut u1[..n], &mut u2[..n], &mut g[..n]);
        for (a, b) in u1.iter_mut().zip(u2.iter_mut()) {
            *a = rng.gen_range(f64::MIN_POSITIVE..1.0);
            *b = rng.gen::<f64>();
        }
        for ((g, &a), &b) in g.iter_mut().zip(&*u1).zip(&*u2) {
            *g = certified_box_muller(a, b);
        }
        for (((p, &g), &a), &b) in block.iter_mut().zip(&*g).zip(&*u1).zip(&*u2) {
            let g = if g.is_nan() {
                box_muller(a, b) as f32
            } else {
                g
            };
            *p = (*p + std * g).clamp(0.0, 1.0);
        }
    }
}

/// Half-width of the certification band, relative.
const MARGIN: f64 = 1.0 / (1u64 << 40) as f64;

/// `box_muller(u1, u2) as f32` when the polynomial value certifies it (see
/// [`add_sensor_noise`]), NaN when libm must decide.
#[inline(always)]
fn certified_box_muller(u1: f64, u2: f64) -> f32 {
    let (c, r) = cos_tau(u2);
    let v = (-2.0 * ln_unit(u1)).sqrt() * c;
    let lo = (v * (1.0 - MARGIN)) as f32;
    let hi = (v * (1.0 + MARGIN)) as f32;
    if lo == hi && r.abs() > 1e-6 {
        lo
    } else {
        f32::NAN
    }
}

/// The bits of 1.0: OR-ed onto a mantissa, they scale it into [1, 2).
const ONE_BITS: u64 = 0x3ff0_0000_0000_0000;
const MANTISSA: u64 = 0x000f_ffff_ffff_ffff;
/// 2⁵² as bits: `from_bits(TWO52_BITS | k) − 2⁵²` converts `k < 2⁵²` exactly.
const TWO52_BITS: u64 = 0x4330_0000_0000_0000;
const TWO52: f64 = 4_503_599_627_370_496.0;

/// `ln x` for a normal `x` in `(0, 1)`: fdlibm's `__ieee754_log` without its
/// special cases, both of its final forms computed and one selected.
#[inline(always)]
fn ln_unit(x: f64) -> f64 {
    const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
    const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);
    const LG1: f64 = f64::from_bits(0x3fe5_5555_5555_5593);
    const LG2: f64 = f64::from_bits(0x3fd9_9999_9997_fa04);
    const LG3: f64 = f64::from_bits(0x3fd2_4924_9422_9359);
    const LG4: f64 = f64::from_bits(0x3fcc_71c5_1d8e_78af);
    const LG5: f64 = f64::from_bits(0x3fc7_4664_96cb_03de);
    const LG6: f64 = f64::from_bits(0x3fc3_9a09_d078_c69f);
    const LG7: f64 = f64::from_bits(0x3fc2_f112_df3e_5244);
    // fdlibm's `hx` window [0x6147a, 0x6b851] on the high mantissa word,
    // as bounds on the mantissa scaled into [1, 2).
    const HFSQ_LO: f64 = f64::from_bits(ONE_BITS | 0x0006_147a_0000_0000);
    const HFSQ_HI: f64 = f64::from_bits(ONE_BITS | 0x0006_b852_0000_0000);

    let bits = x.to_bits();
    let mant = bits & MANTISSA;
    // Set when the mantissa is at least ~√2: the scaled mantissa is then
    // halved so `f = m − 1` lies in [√2/2 − 1, √2 − 1).
    let carry = (mant + 0x0009_5f64_0000_0000) & 0x0010_0000_0000_0000;
    let f = f64::from_bits(mant | (carry ^ ONE_BITS)) - 1.0;
    let k = f64::from_bits(TWO52_BITS | ((bits >> 52) + (carry >> 52))) - (TWO52 + 1023.0);

    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let t1 = w * (LG2 + w * (LG4 + w * LG6));
    let t2 = z * (LG1 + w * (LG3 + w * (LG5 + w * LG7)));
    let r = t2 + t1;
    let hfsq = 0.5 * f * f;
    let with_hfsq = k * LN2_HI - ((hfsq - (s * (hfsq + r) + k * LN2_LO)) - f);
    let without = k * LN2_HI - ((s * (f - r) - k * LN2_LO) - f);
    let m = f64::from_bits(mant | ONE_BITS);
    if (HFSQ_LO..HFSQ_HI).contains(&m) {
        with_hfsq
    } else {
        without
    }
}

/// `(cos(fl(TAU·u2)), r)` for `u2` in `[0, 1)`, where `r` is the head of the
/// argument reduced into about `[−π/4, π/4]`.
#[inline(always)]
fn cos_tau(u2: f64) -> (f64, f64) {
    const INV_PIO2: f64 = f64::from_bits(0x3fe4_5f30_6dc9_c883);
    /// π/2's leading 33 bits, so `n·PIO2_1` is exact for small `n`.
    const PIO2_1: f64 = f64::from_bits(0x3ff9_21fb_5440_0000);
    /// π/2 − `PIO2_1`.
    const PIO2_1T: f64 = f64::from_bits(0x3dd0_b461_1a62_6331);
    /// Adding 1.5·2⁵² rounds to an integer, which lands in the low bits.
    const TOINT: f64 = 1.5 * TWO52;

    let x = TAU * u2;
    let q = x * INV_PIO2 + TOINT;
    let n = q.to_bits();
    let nf = q - TOINT;
    let t = x - nf * PIO2_1;
    let w = nf * PIO2_1T;
    let r = t - w;
    let tail = (t - r) - w;
    // Odd quadrants take the sine; quadrants 1 and 2 flip the sign.
    let odd = (n & 1).wrapping_neg();
    let flip = ((n + 1) & 2) << 62;
    let pick = (kernel_sin(r, tail).to_bits() & odd) | (kernel_cos(r, tail).to_bits() & !odd);
    (f64::from_bits(pick ^ flip), r)
}

/// fdlibm's `__kernel_cos(x, y)`: `cos(x + y)` for `|x| ≲ π/4`, `|y|` tiny.
#[inline(always)]
fn kernel_cos(x: f64, y: f64) -> f64 {
    const C1: f64 = f64::from_bits(0x3fa5_5555_5555_554c);
    const C2: f64 = f64::from_bits(0xbf56_c16c_16c1_5177);
    const C3: f64 = f64::from_bits(0x3efa_01a0_19cb_1590);
    const C4: f64 = f64::from_bits(0xbe92_7e4f_809c_52ad);
    const C5: f64 = f64::from_bits(0x3e21_ee9e_bdb4_b1c4);
    const C6: f64 = f64::from_bits(0xbda8_fae9_be88_38d4);
    let z = x * x;
    let w = z * z;
    let r = z * (C1 + z * (C2 + z * C3)) + w * w * (C4 + z * (C5 + z * C6));
    let hz = 0.5 * z;
    let w = 1.0 - hz;
    w + (((1.0 - w) - hz) + (z * r - x * y))
}

/// fdlibm's `__kernel_sin(x, y, 1)`: `sin(x + y)` for `|x| ≲ π/4`, `|y|`
/// tiny.
#[inline(always)]
fn kernel_sin(x: f64, y: f64) -> f64 {
    const S1: f64 = f64::from_bits(0xbfc5_5555_5555_5549);
    const S2: f64 = f64::from_bits(0x3f81_1111_1110_f8a6);
    const S3: f64 = f64::from_bits(0xbf2a_01a0_19c1_61d5);
    const S4: f64 = f64::from_bits(0x3ec7_1de3_57b1_fe7d);
    const S5: f64 = f64::from_bits(0xbe5a_e5e6_8a2b_9ceb);
    const S6: f64 = f64::from_bits(0x3de5_d93a_5acf_d57c);
    let z = x * x;
    let w = z * z;
    let r = S2 + z * (S3 + z * S4) + z * w * (S5 + z * S6);
    let v = z * x;
    x - ((z * (0.5 * y - v * r) - y) - v * S1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn splitmix_is_deterministic_and_mixing() {
        assert_eq!(splitmix64(1), splitmix64(1));
        assert_ne!(splitmix64(1), splitmix64(2));
        // consecutive inputs should differ in many bits
        let d = (splitmix64(100) ^ splitmix64(101)).count_ones();
        assert!(d > 10, "poor mixing: only {d} differing bits");
    }

    #[test]
    fn frame_rng_streams_are_independent() {
        let a: u64 = frame_rng(5, 0).gen();
        let b: u64 = frame_rng(5, 1).gen();
        let a2: u64 = frame_rng(5, 0).gen();
        assert_eq!(a, a2);
        assert_ne!(a, b);
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| gaussian(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "gaussian mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "gaussian var {var}");
    }

    /// `x` moved by `j` ULPs (the bit pattern read as an ordered integer;
    /// `x` positive).
    fn ulps(x: f64, j: i64) -> f64 {
        f64::from_bits(x.to_bits().wrapping_add_signed(j))
    }

    /// Checks every certified value against libm's f32 and returns how
    /// many pairs fell back.
    fn check_pairs(pairs: impl IntoIterator<Item = (f64, f64)>) -> usize {
        let mut fallbacks = 0;
        for (u1, u2) in pairs {
            let got = certified_box_muller(u1, u2);
            if got.is_nan() {
                fallbacks += 1;
            } else {
                let want = box_muller(u1, u2) as f32;
                assert_eq!(got.to_bits(), want.to_bits(), "u1={u1:e} u2={u2:e}");
            }
        }
        fallbacks
    }

    /// The certified polynomial path agrees with libm to the f32 bit on
    /// random and adversarial uniforms, and the libm fallback fires.
    #[test]
    fn certified_kernel_matches_libm_bit_for_bit() {
        // 2²⁰ seeded pairs: half as `gaussian` draws them, half with `u1`
        // spread over every normal exponent below 1.
        let mut rng = StdRng::seed_from_u64(0x5e45_0a15e);
        let random: Vec<(f64, f64)> = (0..1 << 20)
            .map(|i| {
                let u1 = if i % 2 == 0 {
                    rng.gen_range(f64::MIN_POSITIVE..1.0)
                } else {
                    f64::from_bits(
                        (rng.gen_range(1u64..1022) << 52) | (rng.gen::<u64>() & MANTISSA),
                    )
                };
                (u1, rng.gen::<f64>())
            })
            .collect();
        let random_fallbacks = check_pairs(random);
        assert!(
            random_fallbacks < 200,
            "{random_fallbacks} fallbacks in 2^20 draws"
        );

        // Edge uniforms: the ends of `u1`'s range, the log's normalisation
        // flip (mantissa 0x6a09c…, just below √½) and √½ itself, the edges
        // of its `hfsq` window, and `u2` at and around the quadrant
        // boundaries k/8, where the reduced argument nears 0 or π/4.
        let mut u1s = vec![
            f64::MIN_POSITIVE,
            2f64.powi(-500),
            0.5,
            1.0 - f64::EPSILON / 2.0,
        ];
        for centre in [
            f64::from_bits(0x3fe6_a09c_0000_0000),
            std::f64::consts::FRAC_1_SQRT_2,
            f64::from_bits(0x3fe6_147a_0000_0000),
            f64::from_bits(0x3fe6_b852_0000_0000),
        ] {
            u1s.extend((-64..=64).map(|j| ulps(centre, j)));
        }
        let mut u2s = vec![0.0, 1.0 - f64::EPSILON / 2.0];
        for k in 1..8 {
            let centre = k as f64 / 8.0;
            u2s.extend((-64..=64).map(|j| ulps(centre, j)));
            // Offsets that walk the reduced argument across the 1e-6 guard.
            for e in 4..53 {
                let d = 2f64.powi(-e);
                u2s.extend([centre - d, centre + d]);
            }
        }
        let edges = u1s
            .iter()
            .flat_map(|&u1| u2s.iter().map(move |&u2| (u1, u2)));
        let edge_fallbacks = check_pairs(edges);

        // Pairs whose libm value sits next to an f32 rounding midpoint on
        // purpose: `u1` is solved from the target `mid·(1 + δ)`. The ±64-ULP
        // sweep around δ = 0 lies inside the polynomial's own error, so only
        // the margin check stops a wrong rounding there. The δ = ±2⁻³⁴…2⁻⁴⁴
        // sweep lies outside the margin but, where `u2` is a multiple of 1/4
        // (`r` ≈ 10⁻¹⁶), inside the reduction's error, so only the `|r|`
        // guard stops one there.
        let quarter_turns = (1..4).flat_map(|k| (-2..=2).map(move |j| ulps(k as f64 / 4.0, j)));
        let mut near_ties = Vec::new();
        for u2 in [0.01, 0.1, 0.2, 0.33, 0.4, 0.6, 0.7, 0.9]
            .into_iter()
            .chain(quarter_turns)
        {
            let c = (TAU * u2).cos().abs();
            let solve = |v: f64| (-(v / c).powi(2) / 2.0).exp();
            for radius in [0.3, 0.7, 1.1, 1.9, 2.6, 3.3] {
                let f = (radius * c) as f32;
                let mid = f64::from(f) + f64::from(f.next_up() - f) / 2.0;
                near_ties.extend((-64..=64).map(|j| (ulps(solve(mid), j), u2)));
                for e in 34..=44 {
                    let d = 2f64.powi(-e);
                    near_ties.extend([(solve(mid * (1.0 - d)), u2), (solve(mid * (1.0 + d)), u2)]);
                }
            }
        }
        let tie_fallbacks = check_pairs(near_ties);
        assert!(edge_fallbacks > 0, "the libm fallback never fired");
        assert!(tie_fallbacks > 0, "no near-tie reached the fallback");
    }

    /// Noise added in blocks equals the per-pixel `gaussian` loop on every
    /// block boundary, and leaves the RNG where that loop does.
    #[test]
    fn block_noise_equals_per_pixel_noise() {
        for (seed, len) in [
            (1u64, 0usize),
            (2, 1),
            (3, 255),
            (4, 256),
            (5, 257),
            (6, 1024),
            (7, 1500),
        ] {
            let pixels: Vec<f32> = (0..len).map(|i| (i % 97) as f32 / 96.0).collect();
            let mut want = pixels.clone();
            let mut rng = StdRng::seed_from_u64(seed);
            for p in &mut want {
                *p = (*p + 0.02 * gaussian(&mut rng) as f32).clamp(0.0, 1.0);
            }
            let mut got = pixels;
            let mut block_rng = StdRng::seed_from_u64(seed);
            add_sensor_noise(&mut got, 0.02, &mut block_rng);
            let bits = |v: &[f32]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "len {len}");
            assert_eq!(block_rng.gen::<u64>(), rng.gen::<u64>(), "len {len}");
        }
        let mut rng = StdRng::seed_from_u64(9);
        let mut untouched = vec![0.5f32; 8];
        add_sensor_noise(&mut untouched, 0.0, &mut rng);
        assert_eq!(untouched, vec![0.5; 8]);
        assert_eq!(rng.gen::<u64>(), StdRng::seed_from_u64(9).gen::<u64>());
    }
}
