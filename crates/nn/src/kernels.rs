//! im2col + cache-blocked GEMM kernels behind the layer forward/backward
//! passes.
//!
//! The CMDN's convolutions are the hottest loops of the whole Everest
//! reproduction (Phase 1 trains on every sampled frame), so instead of the
//! textbook 6-deep scalar loop the layers lower convolution onto dense
//! matrix multiplication:
//!
//! 1. [`im2col_3x3`] packs every 3×3 input patch into a column of a
//!    `(in_ch·9) × (batch·h·w)` matrix (zero padding materialised as
//!    zeroes, so the GEMM needs no boundary tests);
//! 2. [`gemm`] multiplies the `out_ch × (in_ch·9)` weight matrix against
//!    the packed patches with cache blocking over the output columns and a
//!    register-blocked 4×16 microkernel that the compiler auto-vectorises;
//! 3. the backward data pass is the transposed GEMM followed by
//!    [`col2im_add_3x3`] (scatter-add of patch gradients), and the backward
//!    weight pass is [`gemm_nt`] (`C += A·Bᵀ`, a batch of long dot
//!    products) against the same packed patches.
//!
//! # Batched tensor layout
//!
//! Batched activations use a **channel-major-over-the-batch** layout:
//! element `(c, s, y, x)` of a `ch × batch × h × w` tensor lives at
//! `(c·batch + s)·h·w + y·w + x`. A single sample (`batch = 1`) degenerates
//! to the classic channel-major `[c][y][x]` layout, so the per-sample layer
//! API is the `batch = 1` special case of the batched one. The layout lets
//! one GEMM process a whole minibatch: the packed-patch matrix simply grows
//! wider (`batch·h·w` columns) while the weight matrix is unchanged.
//!
//! # Determinism
//!
//! There is **one arithmetic**: every path — portable scalar, AVX2, AVX-512
//! — computes every output element through the same chain of roundings, so
//! a kernel's bits do not depend on the CPU that runs it. What an element
//! of [`gemm`]'s `C` holds is decided by where it sits in the `m × n`
//! output, not by the path or the register width:
//!
//! - **Tile elements** (row below `m − m % 4`, column below `n − n % 16`)
//!   run a fused chain, `acc = fma(a, b, acc)` for ascending `k`, then
//!   `C += acc`. The scalar 4×16 kernel spells it `f32::mul_add`; the
//!   4×16, 4×32 and 8×32 vector tiles all run this one chain, so the tile
//!   width changes nothing.
//! - **Edge elements** (the `m % 4` rows and `n % 16` columns) run a
//!   separate multiply then add per step, `acc = acc + a·b`, then
//!   `C += acc` — on both vector tiers (vector edge rows) and in the
//!   scalar edge kernel (edge columns, and every edge on the scalar path).
//!
//! Each of [`gemm_nt`]'s dot products is four chains of eight fused lanes
//! over 32-element blocks (leftover 8-lane chunks into chain 0), the
//! chains folded `(0 + 1) + (2 + 3)`, the lanes summed in order, then the
//! `k % 8` tail added unfused — the scalar `dot` and the vector `dots`
//! alike.
//!
//! So a GEMM result depends on `m` and `n` modulo the tile, and a conv
//! layer's per-sample outputs are independent of the batch width only
//! while its `h·w` is a multiple of 16; the tests in [`crate::layers`]
//! compare with a naive per-sample reference and so use a small
//! tolerance. The edge
//! must stay unfused: an FMA edge would be faster on the vector path, but
//! it moves the bits of every GEMM whose `m` is not a multiple of 4 — the
//! first conv block of the EVQL recipe has `out_ch = 6` — and with them
//! the Phase-1 relation and the answers. `f32::mul_add` is one fused
//! rounding on every target (a hardware FMA, or the libm's `fmaf` where
//! there is none), so the scalar path gets slower without FMA, never
//! different — provided that `fmaf` is correctly rounded, as IEEE 754
//! requires and glibc's and musl's are. The unit tests
//! below compare the scalar path with both vector tiers bit for bit.
//!
//! # CPU dispatch
//!
//! On x86-64 hosts with AVX2 + FMA (detected once per process via
//! `is_x86_feature_detected!`) the GEMM strips and [`gemm_nt`]'s dot
//! products run as explicit `std::arch` vector code; everywhere else —
//! x86-64 without AVX2 + FMA, aarch64, any other target — the portable
//! scalar forms run. There is no switch: the choice moves speed, not bits.
//! The scalar path is the slow one: this crate is not built with the `fma`
//! target feature, so each `mul_add` there is a call to `fmaf` (about 15×
//! slower than the vector path end to end on an x86-64 host; speed on
//! aarch64, where FMA is baseline, is unmeasured). [`simd_active`] reports the dispatch decision.

/// Columns processed per cache block: `NC` patch columns of ≤ `in_ch·9`
/// rows keep the packed panel L2-resident while the microkernel streams
/// the weight rows over it.
const NC: usize = 256;
/// Microkernel rows (accumulator rows held in registers).
const MR: usize = 4;
/// Microkernel columns (two 8-lane vector registers per accumulator row).
const NR: usize = 16;

/// Whether the runtime-dispatched vector path is active for this process:
/// x86-64 with AVX2 + FMA detected.
///
/// It reports speed, not numerics. On AVX-512F hosts the GEMM microkernel
/// runs 32 columns per tile instead of 16, and without AVX2 + FMA the
/// portable scalar forms run, but every path computes every output element
/// through the same chain (the module's *Determinism* section), so all
/// three produce bit-identical results.
pub fn simd_active() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// Whether the vector path may use the 512-bit microkernel (AVX-512F on
/// top of [`simd_active`]).
#[cfg(target_arch = "x86_64")]
fn avx512_active() -> bool {
    std::arch::is_x86_feature_detected!("avx512f")
}

/// `C += A·B` for row-major `f32` matrices: `A` is `m×k`, `B` is `k×n`,
/// `C` is `m×n`.
///
/// Accumulation into `C` means callers can fold a bias pre-fill (forward)
/// or gradient accumulation (backward) into the same call. The reduction
/// runs over `p = 0..k` in ascending order for every output element, so the
/// result is deterministic; which elements fuse their multiply-adds is set
/// out in the module's *Determinism* section.
pub fn gemm(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    gemm_dispatch(simd_active(), m, n, k, a, b, c);
}

/// [`gemm`] with the microkernel choice explicit: `simd = false` is the
/// portable scalar path, which the unit tests compare with both vector
/// tiers bit for bit.
fn gemm_dispatch(simd: bool, m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), m * k, "gemm: A shape mismatch");
    assert_eq!(b.len(), k * n, "gemm: B shape mismatch");
    assert_eq!(c.len(), m * n, "gemm: C shape mismatch");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    gemm_serial(simd, m, n, k, a, b, c);
}

/// The blocked GEMM body; `simd` picks the microkernel implementation.
fn gemm_serial(simd: bool, m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if simd {
        use std::cell::RefCell;
        thread_local! {
            /// Per-thread packed-B-strip scratch; grows to the largest
            /// strip seen and is then reused, so steady-state GEMMs
            /// allocate nothing.
            static PACK: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
        }
        PACK.with(|p| {
            let pack = &mut p.borrow_mut();
            // SAFETY: simd is only true when AVX2+FMA were detected, and
            // the dispatch wrapper validated every slice length.
            unsafe {
                if avx512_active() {
                    avx512::gemm(m, n, k, a, b, c, pack);
                } else {
                    avx2::gemm(m, n, k, 0, a, b, c, pack);
                }
            }
        });
        return;
    }
    let _ = simd;
    // Block over columns so the active B panel stays cache-resident.
    let mut j0 = 0;
    while j0 < n {
        let jb = NC.min(n - j0);
        let mut i0 = 0;
        while i0 + MR <= m {
            let mut j = j0;
            while j + NR <= j0 + jb {
                kernel_4x16(k, n, i0, j, a, b, c);
                j += NR;
            }
            if j < j0 + jb {
                kernel_edge(MR, j0 + jb - j, k, n, i0, j, a, b, c);
            }
            i0 += MR;
        }
        if i0 < m {
            kernel_edge(m - i0, jb, k, n, i0, j0, a, b, c);
        }
        j0 += jb;
    }
}

/// The register-blocked microkernel: `C[i0..i0+4][j..j+16] += A·B`.
///
/// Four broadcast rows of `A` against a 16-wide panel of `B`, each
/// element the fused tile chain of the vector tiles (`mul_add` for
/// ascending `p`, then one add into `C`).
#[inline]
fn kernel_4x16(k: usize, n: usize, i0: usize, j: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    let a0 = &a[i0 * k..(i0 + 1) * k];
    let a1 = &a[(i0 + 1) * k..(i0 + 2) * k];
    let a2 = &a[(i0 + 2) * k..(i0 + 3) * k];
    let a3 = &a[(i0 + 3) * k..(i0 + 4) * k];
    let mut c0 = [0.0f32; NR];
    let mut c1 = [0.0f32; NR];
    let mut c2 = [0.0f32; NR];
    let mut c3 = [0.0f32; NR];
    for p in 0..k {
        let br: &[f32; NR] = b[p * n + j..p * n + j + NR].try_into().expect("B panel");
        let (v0, v1, v2, v3) = (a0[p], a1[p], a2[p], a3[p]);
        for l in 0..NR {
            c0[l] = v0.mul_add(br[l], c0[l]);
            c1[l] = v1.mul_add(br[l], c1[l]);
            c2[l] = v2.mul_add(br[l], c2[l]);
            c3[l] = v3.mul_add(br[l], c3[l]);
        }
    }
    for (row, acc) in [c0, c1, c2, c3].iter().enumerate() {
        let cr = &mut c[(i0 + row) * n + j..(i0 + row) * n + j + NR];
        for l in 0..NR {
            cr[l] += acc[l];
        }
    }
}

/// Scalar edge kernel for the `m % 4` / `n % 16` tails: the unfused edge
/// chain (a separate multiply then add per ascending `p`), which both
/// vector tiers' edge rows reproduce.
#[expect(
    clippy::too_many_arguments,
    reason = "the tile's shape (`mr`, `nr`, `k`, `n`), its origin (`i0`, `j`) and the three matrices are one call; a struct would be rebuilt per tile"
)]
fn kernel_edge(
    mr: usize,
    nr: usize,
    k: usize,
    n: usize,
    i0: usize,
    j: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    for im in 0..mr {
        let ar = &a[(i0 + im) * k..(i0 + im + 1) * k];
        for jn in 0..nr {
            let mut acc = 0.0f32;
            for (p, &av) in ar.iter().enumerate() {
                acc += av * b[p * n + j + jn];
            }
            c[(i0 + im) * n + j + jn] += acc;
        }
    }
}

/// `C += A·Bᵀ` with `B` supplied row-major as `n×k`: `A` is `m×k`, `C` is
/// `m×n`. Each output element is a length-`k` dot product of two
/// contiguous rows.
///
/// This is the backward weight pass (`∇W += ∇out · colsᵀ`), where the
/// reduction dimension is the (large) number of patch columns. Every dot
/// product is the fixed four-chain, eight-lane scheme of the module's
/// *Determinism* section (ordered differently from [`gemm`]); on the
/// vector path the lanes live in FMA registers and dots are computed 2×2
/// at a time so each loaded row chunk feeds two.
pub fn gemm_nt(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    gemm_nt_dispatch(simd_active(), m, n, k, a, b, c);
}

/// [`gemm_nt`] with the dot-product choice explicit — see [`gemm_dispatch`].
fn gemm_nt_dispatch(simd: bool, m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), m * k, "gemm_nt: A shape mismatch");
    assert_eq!(b.len(), n * k, "gemm_nt: B shape mismatch");
    assert_eq!(c.len(), m * n, "gemm_nt: C shape mismatch");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    gemm_nt_serial(simd, m, n, k, a, b, c);
}

fn gemm_nt_serial(simd: bool, m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if simd {
        // SAFETY: simd is only true when AVX2+FMA were detected, and the
        // dispatch wrapper validated every slice length.
        unsafe { avx2::gemm_nt(m, n, k, a, b, c) };
        return;
    }
    let _ = simd;
    for i in 0..m {
        let ar = &a[i * k..(i + 1) * k];
        for jn in 0..n {
            c[i * n + jn] += dot(ar, &b[jn * k..(jn + 1) * k]);
        }
    }
}

/// The dot product every path computes: four chains of eight fused lanes
/// over 32-element blocks, leftover 8-lane chunks into chain 0, chains
/// folded `(0 + 1) + (2 + 3)`, lanes summed in order, then the `k % 8`
/// tail unfused — the vector `dots`' chain, element for element.
#[inline]
fn dot(x: &[f32], y: &[f32]) -> f32 {
    let mut acc = [[0.0f32; 8]; 4];
    let blocks = x.len() / 32;
    let fma = |acc: &mut [f32; 8], off: usize| {
        for (l, a) in acc.iter_mut().enumerate() {
            *a = x[off + l].mul_add(y[off + l], *a);
        }
    };
    for bi in 0..blocks {
        for (ci, chain) in acc.iter_mut().enumerate() {
            fma(chain, bi * 32 + ci * 8);
        }
    }
    let mut done = blocks * 32;
    while done + 8 <= x.len() {
        fma(&mut acc[0], done);
        done += 8;
    }
    let [c0, c1, c2, c3] = acc;
    let mut sum = 0.0f32;
    for l in 0..8 {
        sum += (c0[l] + c1[l]) + (c2[l] + c3[l]);
    }
    for (xv, yv) in x[done..].iter().zip(&y[done..]) {
        sum += xv * yv;
    }
    sum
}

/// Explicit AVX2 + FMA forms of the two hot kernels. Numerically they are
/// their scalar twins: every element runs the same chain of roundings, so
/// only the speed differs.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{kernel_edge, MR, NR};
    use std::arch::x86_64::*;

    /// Full GEMM starting at column `j0`: for every 16-column strip of
    /// `B`, pack the strip contiguously into `pack` (one 64-byte line per
    /// `p` instead of a `4n`-byte stride), then sweep all 4-row tiles of
    /// `A` over it. The `m % 4` edge rows of a strip run
    /// [`edge_rows_packed`] (vector, unfused); the trailing `< 16` columns
    /// run the scalar [`kernel_edge`].
    ///
    /// # Safety
    ///
    /// Requires AVX2 + FMA at runtime and the [`super::gemm`] slice-length
    /// invariants (validated by the dispatch wrapper), with `j0 ≤ n`.
    #[target_feature(enable = "avx2", enable = "fma")]
    #[expect(
        clippy::too_many_arguments,
        reason = "the GEMM shape (`m`, `n`, `k`), the start column, the three matrices and the reused pack buffer mirror the dispatch wrapper's signature"
    )]
    pub(super) unsafe fn gemm(
        m: usize,
        n: usize,
        k: usize,
        j0: usize,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        pack: &mut Vec<f32>,
    ) {
        // SAFETY: `# Safety` above (AVX2 + FMA, valid slices, `j0 ≤ n`) covers the calls below.
        unsafe {
            if pack.len() < k * NR {
                pack.resize(k * NR, 0.0);
            }
            let mut j = j0;
            while j + NR <= n {
                for p in 0..k {
                    pack[p * NR..(p + 1) * NR].copy_from_slice(&b[p * n + j..p * n + j + NR]);
                }
                let mut i0 = 0;
                while i0 + MR <= m {
                    // SAFETY: caller guarantees AVX2+FMA; i0 + MR ≤ m and
                    // j + NR ≤ n keep every row/column index of the tile in
                    // bounds of the caller-validated slices, and the strip
                    // was packed to k·NR elements above.
                    kernel_4x16_packed(k, n, i0, j, a, pack, c);
                    i0 += MR;
                }
                if i0 < m {
                    // SAFETY: caller guarantees AVX2+FMA; the edge rows
                    // i0..m and columns j..j + NR lie inside the validated
                    // slices, and the strip is packed to k·NR elements.
                    edge_rows_packed(m - i0, k, n, i0, j, a, pack, c);
                }
                j += NR;
            }
            if j < n {
                let mut i0 = 0;
                while i0 < m {
                    let mr = MR.min(m - i0);
                    kernel_edge(mr, n - j, k, n, i0, j, a, b, c);
                    i0 += mr;
                }
            }
        }
    }

    /// The packed microkernel: four broadcast rows of `A` against the
    /// packed 16-wide `B` strip, eight `__m256` accumulators pinned in
    /// registers across the whole `k` loop. The same fused chain per
    /// element as the scalar [`super::kernel_4x16`].
    ///
    /// # Safety
    ///
    /// Requires AVX2 + FMA at runtime; `a` must hold at least
    /// `(i0 + MR)·k` elements, `pack` at least `k·NR`, and `c` the full
    /// `m×n` output with `i0 + MR ≤ m` and `j + NR ≤ n`.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn kernel_4x16_packed(
        k: usize,
        n: usize,
        i0: usize,
        j: usize,
        a: &[f32],
        pack: &[f32],
        c: &mut [f32],
    ) {
        // SAFETY: `# Safety` above (AVX2 + FMA, slice lengths) covers every access below.
        unsafe {
            debug_assert!(a.len() >= (i0 + MR) * k && pack.len() >= k * NR);
            let mut acc = [_mm256_setzero_ps(); 2 * MR];
            for p in 0..k {
                let bp = pack.as_ptr().add(p * NR);
                let b0 = _mm256_loadu_ps(bp);
                let b1 = _mm256_loadu_ps(bp.add(8));
                for (r, pair) in acc.chunks_exact_mut(2).enumerate() {
                    let av = _mm256_broadcast_ss(a.get_unchecked((i0 + r) * k + p));
                    pair[0] = _mm256_fmadd_ps(av, b0, pair[0]);
                    pair[1] = _mm256_fmadd_ps(av, b1, pair[1]);
                }
            }
            for (r, pair) in acc.chunks_exact(2).enumerate() {
                let cp = c.as_mut_ptr().add((i0 + r) * n + j);
                _mm256_storeu_ps(cp, _mm256_add_ps(_mm256_loadu_ps(cp), pair[0]));
                let cp8 = cp.add(8);
                _mm256_storeu_ps(cp8, _mm256_add_ps(_mm256_loadu_ps(cp8), pair[1]));
            }
        }
    }

    /// The `mr < 4` edge rows of a packed 16-column strip. Every element
    /// runs [`super::kernel_edge`]'s exact arithmetic — a separate
    /// multiply then add per `p` (`_mm256_mul_ps`, `_mm256_add_ps`, never
    /// FMA) into a zero accumulator, then one add into `C` — so the result
    /// is bit-identical to the scalar edge; only sixteen columns move at
    /// once.
    ///
    /// # Safety
    ///
    /// Requires AVX2 at runtime; `a` must hold at least `(i0 + mr)·k`
    /// elements, `pack` at least `k·NR`, and `c` the full `m×n` output
    /// with `i0 + mr ≤ m` and `j + NR ≤ n`.
    #[target_feature(enable = "avx2", enable = "fma")]
    #[expect(
        clippy::too_many_arguments,
        reason = "the edge rows' shape (`mr`, `k`, `n`), their origin (`i0`, `j`), `A`, the packed strip and `C` are one call per strip"
    )]
    unsafe fn edge_rows_packed(
        mr: usize,
        k: usize,
        n: usize,
        i0: usize,
        j: usize,
        a: &[f32],
        pack: &[f32],
        c: &mut [f32],
    ) {
        // SAFETY: `# Safety` above, passed on unchanged to `edge_rows`.
        unsafe {
            debug_assert!((1..MR).contains(&mr));
            match mr {
                // SAFETY: this function's own contract, with mr = 1.
                1 => edge_rows::<1>(k, n, i0, j, a, pack, c),
                // SAFETY: this function's own contract, with mr = 2.
                2 => edge_rows::<2>(k, n, i0, j, a, pack, c),
                // SAFETY: this function's own contract, with mr = 3.
                _ => edge_rows::<3>(k, n, i0, j, a, pack, c),
            }
        }
    }

    /// [`edge_rows_packed`] for `R` rows, interleaved so their add chains
    /// overlap.
    ///
    /// # Safety
    ///
    /// As [`edge_rows_packed`] with `mr = R`.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn edge_rows<const R: usize>(
        k: usize,
        n: usize,
        i0: usize,
        j: usize,
        a: &[f32],
        pack: &[f32],
        c: &mut [f32],
    ) {
        // SAFETY: `# Safety` above (AVX2, slice lengths) covers every access below.
        unsafe {
            debug_assert!(R < MR && a.len() >= (i0 + R) * k && pack.len() >= k * NR);
            let mut acc = [[_mm256_setzero_ps(); 2]; R];
            for p in 0..k {
                let bp = pack.as_ptr().add(p * NR);
                let b0 = _mm256_loadu_ps(bp);
                let b1 = _mm256_loadu_ps(bp.add(8));
                for (r, pair) in acc.iter_mut().enumerate() {
                    let av = _mm256_broadcast_ss(a.get_unchecked((i0 + r) * k + p));
                    pair[0] = _mm256_add_ps(pair[0], _mm256_mul_ps(av, b0));
                    pair[1] = _mm256_add_ps(pair[1], _mm256_mul_ps(av, b1));
                }
            }
            for (r, pair) in acc.iter().enumerate() {
                let cp = c.as_mut_ptr().add((i0 + r) * n + j);
                _mm256_storeu_ps(cp, _mm256_add_ps(_mm256_loadu_ps(cp), pair[0]));
                let cp8 = cp.add(8);
                _mm256_storeu_ps(cp8, _mm256_add_ps(_mm256_loadu_ps(cp8), pair[1]));
            }
        }
    }

    /// `C += A·Bᵀ` on the vector path, 2×2 blocks of dot products at a
    /// time (then 2×1, 1×2, 1×1 at the edges) through [`dots`], so each
    /// loaded chunk of `A` and `B` feeds two dots instead of one. Every
    /// element is the same [`dots`] chain whatever block computes it.
    ///
    /// # Safety
    ///
    /// Requires AVX2 + FMA at runtime and the [`super::gemm_nt`]
    /// slice-length invariants (validated by the dispatch wrapper).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn gemm_nt(
        m: usize,
        n: usize,
        k: usize,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
    ) {
        // SAFETY: `# Safety` above (AVX2 + FMA, valid slices) covers the `block` calls below.
        unsafe {
            let mut i = 0;
            while i < m {
                let pair = i + 2 <= m;
                let mut j = 0;
                while j < n {
                    let wide = j + 2 <= n;
                    match (pair, wide) {
                        // SAFETY: rows i, i + 1 < m and j, j + 1 < n; AVX2 +
                        // FMA and the slice lengths are this function's contract.
                        (true, true) => block::<2, 2>(n, k, i, j, a, b, c),
                        // SAFETY: as above, with the one column j < n.
                        (true, false) => block::<2, 1>(n, k, i, j, a, b, c),
                        // SAFETY: as above, with the one row i < m.
                        (false, true) => block::<1, 2>(n, k, i, j, a, b, c),
                        // SAFETY: as above, with one row and one column.
                        (false, false) => block::<1, 1>(n, k, i, j, a, b, c),
                    }
                    j += if wide { 2 } else { 1 };
                }
                i += if pair { 2 } else { 1 };
            }
        }
    }

    /// `C[i..i+R][j..j+C] += ` the `R×C` [`dots`] of rows `i..` of `A`
    /// and rows `j..` of `B`.
    ///
    /// # Safety
    ///
    /// The caller's target features must include AVX2 + FMA; `i + R ≤ m`,
    /// `j + C ≤ n`, with `a`, `b`, `c` holding `m·k`, `n·k`, `m·n`.
    #[inline(always)]
    unsafe fn block<const R: usize, const C: usize>(
        n: usize,
        k: usize,
        i: usize,
        j: usize,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
    ) {
        // SAFETY: `# Safety` above (AVX2 + FMA, rows in bounds) covers the pointers and `dots`.
        unsafe {
            let mut xs = [a.as_ptr(); R];
            for (r, x) in xs.iter_mut().enumerate() {
                *x = x.add((i + r) * k);
            }
            let mut ys = [b.as_ptr(); C];
            for (col, y) in ys.iter_mut().enumerate() {
                *y = y.add((j + col) * k);
            }
            // SAFETY: each pointer starts a k-element row inside its slice.
            let d = dots::<R, C>(k, xs, ys);
            for (r, dr) in d.iter().enumerate() {
                for (col, v) in dr.iter().enumerate() {
                    c[(i + r) * n + j + col] += v;
                }
            }
        }
    }

    /// `R×C` dot products of length `k` — rows `xs` against rows `ys` —
    /// sharing each loaded chunk across the dots that use it. Each dot is
    /// [`super::dot`]'s chain, whose four independent FMA chains cover the
    /// FMA latency, so every `R×C` gives the scalar twin's bits.
    ///
    /// # Safety
    ///
    /// The caller's target features must include AVX2 + FMA; every
    /// pointer must be valid for `k` reads.
    #[inline(always)]
    unsafe fn dots<const R: usize, const C: usize>(
        k: usize,
        xs: [*const f32; R],
        ys: [*const f32; C],
    ) -> [[f32; C]; R] {
        // SAFETY: `# Safety` above (AVX2 + FMA, `k` valid reads) covers every access below.
        unsafe {
            const LANES: usize = 8;
            const CHAINS: usize = 4;
            let mut acc = [[[_mm256_setzero_ps(); CHAINS]; C]; R];
            let blocks = k / (LANES * CHAINS);
            for bi in 0..blocks {
                for ci in 0..CHAINS {
                    // SAFETY: the block ends at or before k.
                    fma_step(&mut acc, ci, bi * LANES * CHAINS + ci * LANES, xs, ys);
                }
            }
            let mut done = blocks * LANES * CHAINS;
            while done + LANES <= k {
                // SAFETY: the chunk ends at or before k.
                fma_step(&mut acc, 0, done, xs, ys);
                done += LANES;
            }
            let mut out = [[0.0f32; C]; R];
            for (r, x) in xs.iter().enumerate() {
                for (col, y) in ys.iter().enumerate() {
                    let a = &acc[r][col];
                    let folded =
                        _mm256_add_ps(_mm256_add_ps(a[0], a[1]), _mm256_add_ps(a[2], a[3]));
                    let mut lanes = [0.0f32; LANES];
                    _mm256_storeu_ps(lanes.as_mut_ptr(), folded);
                    let mut sum = 0.0f32;
                    for &l in &lanes {
                        sum += l;
                    }
                    for p in done..k {
                        sum += *x.add(p) * *y.add(p);
                    }
                    out[r][col] = sum;
                }
            }
            out
        }
    }

    /// One 8-lane FMA of every dot of a [`dots`] block into `chain`, at
    /// element offset `off`.
    ///
    /// # Safety
    ///
    /// The caller's target features must include AVX2 + FMA; every
    /// pointer must be valid for reads of `off..off + 8`.
    #[inline(always)]
    unsafe fn fma_step<const R: usize, const C: usize>(
        acc: &mut [[[__m256; 4]; C]; R],
        chain: usize,
        off: usize,
        xs: [*const f32; R],
        ys: [*const f32; C],
    ) {
        // SAFETY: `# Safety` above (AVX2 + FMA, `off..off + 8` valid) covers every load below.
        unsafe {
            let mut xv = [_mm256_setzero_ps(); R];
            for (v, x) in xv.iter_mut().zip(xs) {
                *v = _mm256_loadu_ps(x.add(off));
            }
            for (col, y) in ys.iter().enumerate() {
                let yv = _mm256_loadu_ps(y.add(off));
                for (r, &xr) in xv.iter().enumerate() {
                    acc[r][col][chain] = _mm256_fmadd_ps(xr, yv, acc[r][col][chain]);
                }
            }
        }
    }
}

/// 512-bit width tier of the vector GEMM. Every output element runs the
/// exact FMA chain of the [`avx2`] kernels (ascending `k`, one fused
/// rounding per multiply-add), so results are **bit-identical** to the
/// 256-bit tier — the wider registers only double the columns per tile.
///
/// It is kept because it pays. On a 2-vCPU AVX-512 x86-64 host at commit
/// `47e3ecd`, 10 alternated 10-s `ingest_cold` ladder pairs at `--seed 7`
/// with and without it (the latter a build whose `avx512_active` returns
/// `false`, so every GEMM runs [`avx2::gemm`], same digest) read
/// `ops_per_s` median 2.94 [quartiles 2.89–3.03] against 2.73
/// [2.65–2.81] and `op_p50_ms` 365 against 410; the tier won 9 of 10
/// pairs, and no run failed an op.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{avx2, MR};
    use std::arch::x86_64::*;

    /// Rows per 512-bit tile.
    const MR512: usize = 2 * MR;
    /// Columns per 512-bit tile (two 16-lane registers per row).
    const NR512: usize = 32;

    /// Full GEMM: 32-column packed strips swept by 8-row (then 4-row)
    /// tiles of zmm accumulators, then [`edge_rows_packed`] for the
    /// `m % 4` edge rows; trailing columns fall through to the 16-wide
    /// [`avx2::gemm`] logic and the scalar [`super::kernel_edge`].
    ///
    /// # Safety
    ///
    /// Requires AVX-512F (+AVX2/FMA) at runtime and the [`super::gemm`]
    /// slice-length invariants (validated by the dispatch wrapper).
    #[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
    pub(super) unsafe fn gemm(
        m: usize,
        n: usize,
        k: usize,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        pack: &mut Vec<f32>,
    ) {
        // SAFETY: `# Safety` above (AVX-512F, valid slices) covers the calls below.
        unsafe {
            if pack.len() < k * NR512 {
                pack.resize(k * NR512, 0.0);
            }
            let mut j = 0;
            while j + NR512 <= n {
                for p in 0..k {
                    pack[p * NR512..(p + 1) * NR512]
                        .copy_from_slice(&b[p * n + j..p * n + j + NR512]);
                }
                let mut i0 = 0;
                while i0 + MR512 <= m {
                    // SAFETY: caller guarantees AVX-512F; i0 + MR512 ≤ m and
                    // j + NR512 ≤ n keep the 8×32 tile inside the validated
                    // slices; the strip was packed to k·NR512 elements above.
                    kernel_8x32_packed(k, n, i0, j, a, pack, c);
                    i0 += MR512;
                }
                if i0 + MR <= m {
                    // SAFETY: same bounds argument for the 4-row tail tile
                    // (i0 + MR ≤ m checked on the branch).
                    kernel_4x32_packed(k, n, i0, j, a, pack, c);
                    i0 += MR;
                }
                if i0 < m {
                    // SAFETY: caller guarantees AVX-512F; the edge rows
                    // i0..m and columns j..j + NR512 lie inside the validated
                    // slices, and the strip is packed to k·NR512 elements.
                    edge_rows_packed(m - i0, k, n, i0, j, a, pack, c);
                }
                j += NR512;
            }
            if j < n {
                // SAFETY: AVX-512F implies the AVX2+FMA this kernel needs;
                // the slice-length invariants are inherited unchanged, with
                // j ≤ n marking the already-computed column prefix.
                avx2::gemm(m, n, k, j, a, b, c, pack);
            }
        }
    }

    /// 8×32 packed microkernel: sixteen zmm accumulators pinned across the
    /// whole `k` loop.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F at runtime; `a` must hold at least
    /// `(i0 + MR512)·k` elements, `pack` at least `k·NR512`, and `c` the
    /// full `m×n` output with `i0 + MR512 ≤ m` and `j + NR512 ≤ n`.
    #[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
    unsafe fn kernel_8x32_packed(
        k: usize,
        n: usize,
        i0: usize,
        j: usize,
        a: &[f32],
        pack: &[f32],
        c: &mut [f32],
    ) {
        // SAFETY: `# Safety` above (AVX-512F, slice lengths) covers every access below.
        unsafe {
            debug_assert!(a.len() >= (i0 + MR512) * k && pack.len() >= k * NR512);
            let mut acc = [_mm512_setzero_ps(); 2 * MR512];
            for p in 0..k {
                let bp = pack.as_ptr().add(p * NR512);
                let b0 = _mm512_loadu_ps(bp);
                let b1 = _mm512_loadu_ps(bp.add(16));
                for (r, pair) in acc.chunks_exact_mut(2).enumerate() {
                    let av = _mm512_set1_ps(*a.get_unchecked((i0 + r) * k + p));
                    pair[0] = _mm512_fmadd_ps(av, b0, pair[0]);
                    pair[1] = _mm512_fmadd_ps(av, b1, pair[1]);
                }
            }
            for (r, pair) in acc.chunks_exact(2).enumerate() {
                let cp = c.as_mut_ptr().add((i0 + r) * n + j);
                _mm512_storeu_ps(cp, _mm512_add_ps(_mm512_loadu_ps(cp), pair[0]));
                let cp16 = cp.add(16);
                _mm512_storeu_ps(cp16, _mm512_add_ps(_mm512_loadu_ps(cp16), pair[1]));
            }
        }
    }

    /// 4×32 packed microkernel for the `m % 8 ≥ 4` row tail.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F at runtime; `a` must hold at least
    /// `(i0 + MR)·k` elements, `pack` at least `k·NR512`, and `c` the
    /// full `m×n` output with `i0 + MR ≤ m` and `j + NR512 ≤ n`.
    #[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
    unsafe fn kernel_4x32_packed(
        k: usize,
        n: usize,
        i0: usize,
        j: usize,
        a: &[f32],
        pack: &[f32],
        c: &mut [f32],
    ) {
        // SAFETY: `# Safety` above (AVX-512F, slice lengths) covers every access below.
        unsafe {
            debug_assert!(a.len() >= (i0 + MR) * k && pack.len() >= k * NR512);
            let mut acc = [_mm512_setzero_ps(); 2 * MR];
            for p in 0..k {
                let bp = pack.as_ptr().add(p * NR512);
                let b0 = _mm512_loadu_ps(bp);
                let b1 = _mm512_loadu_ps(bp.add(16));
                for (r, pair) in acc.chunks_exact_mut(2).enumerate() {
                    let av = _mm512_set1_ps(*a.get_unchecked((i0 + r) * k + p));
                    pair[0] = _mm512_fmadd_ps(av, b0, pair[0]);
                    pair[1] = _mm512_fmadd_ps(av, b1, pair[1]);
                }
            }
            for (r, pair) in acc.chunks_exact(2).enumerate() {
                let cp = c.as_mut_ptr().add((i0 + r) * n + j);
                _mm512_storeu_ps(cp, _mm512_add_ps(_mm512_loadu_ps(cp), pair[0]));
                let cp16 = cp.add(16);
                _mm512_storeu_ps(cp16, _mm512_add_ps(_mm512_loadu_ps(cp16), pair[1]));
            }
        }
    }

    /// 512-bit twin of [`avx2`]'s edge rows: the `mr < 4` rows of a packed
    /// 32-column strip, each element a separate multiply then add per `p`
    /// (`_mm512_mul_ps`, `_mm512_add_ps`, never FMA) — bit-identical to
    /// the scalar [`super::kernel_edge`].
    ///
    /// # Safety
    ///
    /// Requires AVX-512F at runtime; `a` must hold at least `(i0 + mr)·k`
    /// elements, `pack` at least `k·NR512`, and `c` the full `m×n` output
    /// with `i0 + mr ≤ m` and `j + NR512 ≤ n`.
    #[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
    #[expect(
        clippy::too_many_arguments,
        reason = "the edge rows' shape (`mr`, `k`, `n`), their origin (`i0`, `j`), `A`, the packed strip and `C` are one call per strip"
    )]
    unsafe fn edge_rows_packed(
        mr: usize,
        k: usize,
        n: usize,
        i0: usize,
        j: usize,
        a: &[f32],
        pack: &[f32],
        c: &mut [f32],
    ) {
        // SAFETY: `# Safety` above, passed on unchanged to `edge_rows`.
        unsafe {
            debug_assert!((1..MR).contains(&mr));
            match mr {
                // SAFETY: this function's own contract, with mr = 1.
                1 => edge_rows::<1>(k, n, i0, j, a, pack, c),
                // SAFETY: this function's own contract, with mr = 2.
                2 => edge_rows::<2>(k, n, i0, j, a, pack, c),
                // SAFETY: this function's own contract, with mr = 3.
                _ => edge_rows::<3>(k, n, i0, j, a, pack, c),
            }
        }
    }

    /// [`edge_rows_packed`] for `R` rows, interleaved so their add chains
    /// overlap.
    ///
    /// # Safety
    ///
    /// As [`edge_rows_packed`] with `mr = R`.
    #[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
    unsafe fn edge_rows<const R: usize>(
        k: usize,
        n: usize,
        i0: usize,
        j: usize,
        a: &[f32],
        pack: &[f32],
        c: &mut [f32],
    ) {
        // SAFETY: `# Safety` above (AVX-512F, slice lengths) covers every access below.
        unsafe {
            debug_assert!(R < MR && a.len() >= (i0 + R) * k && pack.len() >= k * NR512);
            let mut acc = [[_mm512_setzero_ps(); 2]; R];
            for p in 0..k {
                let bp = pack.as_ptr().add(p * NR512);
                let b0 = _mm512_loadu_ps(bp);
                let b1 = _mm512_loadu_ps(bp.add(16));
                for (r, pair) in acc.iter_mut().enumerate() {
                    let av = _mm512_set1_ps(*a.get_unchecked((i0 + r) * k + p));
                    pair[0] = _mm512_add_ps(pair[0], _mm512_mul_ps(av, b0));
                    pair[1] = _mm512_add_ps(pair[1], _mm512_mul_ps(av, b1));
                }
            }
            for (r, pair) in acc.iter().enumerate() {
                let cp = c.as_mut_ptr().add((i0 + r) * n + j);
                _mm512_storeu_ps(cp, _mm512_add_ps(_mm512_loadu_ps(cp), pair[0]));
                let cp16 = cp.add(16);
                _mm512_storeu_ps(cp16, _mm512_add_ps(_mm512_loadu_ps(cp16), pair[1]));
            }
        }
    }
}

/// Packs 3×3 stride-1 pad-1 patches of a batched channel-major input into
/// the `(in_ch·9) × (batch·h·w)` matrix `cols` (resized as needed).
///
/// Row `r = (i·3 + ky)·3 + kx` holds input channel `i` shifted by the
/// kernel tap `(ky, kx)`; column `j = s·h·w + y·w + x` is the output
/// position `(y, x)` of sample `s`. Out-of-bounds taps are materialised as
/// `0.0`, so a plain GEMM against the weight matrix computes the padded
/// convolution.
///
/// A tap is one fixed shift of the whole channel: row `r` is the channel's
/// `batch·h·w` values moved by `dy·w + dx` — one block copy — after which
/// the positions whose tap falls outside their own sample's image (the
/// first or last row of each sample, the first or last column of each
/// row) are zeroed. No per-element boundary tests.
pub fn im2col_3x3(
    input: &[f32],
    in_ch: usize,
    batch: usize,
    h: usize,
    w: usize,
    cols: &mut Vec<f32>,
) {
    let hw = h * w;
    let n = batch * hw;
    assert_eq!(input.len(), in_ch * n, "im2col: input shape mismatch");
    // Resize without zero-filling the retained prefix: the loop below
    // writes every element (padding is stored explicitly).
    if cols.len() != in_ch * 9 * n {
        cols.resize(in_ch * 9 * n, 0.0);
    }
    if n == 0 {
        return;
    }
    for (i, src) in input.chunks_exact(n).enumerate() {
        for ky in 0..3usize {
            for kx in 0..3usize {
                let r = (i * 3 + ky) * 3 + kx;
                let dst = &mut cols[r * n..(r + 1) * n];
                // dst[j] = src[j + shift]; what falls off either end is
                // padding, zeroed here or by the fix-ups below.
                let shift = (ky * w + kx) as isize - (w + 1) as isize;
                let lead = shift.unsigned_abs().min(n);
                if shift >= 0 {
                    dst[..n - lead].copy_from_slice(&src[lead..]);
                    dst[n - lead..].fill(0.0);
                } else {
                    dst[lead..].copy_from_slice(&src[..n - lead]);
                    dst[..lead].fill(0.0);
                }
                for plane in dst.chunks_exact_mut(hw) {
                    match ky {
                        0 => plane[..w].fill(0.0),
                        2 => plane[hw - w..].fill(0.0),
                        _ => {}
                    }
                    match kx {
                        0 => plane.iter_mut().step_by(w).for_each(|v| *v = 0.0),
                        2 => plane[w - 1..].iter_mut().step_by(w).for_each(|v| *v = 0.0),
                        _ => {}
                    }
                }
            }
        }
    }
}

/// Inverse of [`im2col_3x3`] for the backward data pass: scatter-adds the
/// packed patch gradients `gcols` (`(in_ch·9) × (batch·h·w)`) back onto the
/// batched input gradient (`+=`, caller zeroes `grad_in`).
pub fn col2im_add_3x3(
    gcols: &[f32],
    in_ch: usize,
    batch: usize,
    h: usize,
    w: usize,
    grad_in: &mut [f32],
) {
    let hw = h * w;
    let n = batch * hw;
    assert_eq!(gcols.len(), in_ch * 9 * n, "col2im: gcols shape mismatch");
    assert_eq!(grad_in.len(), in_ch * n, "col2im: grad_in shape mismatch");
    for i in 0..in_ch {
        for ky in 0..3usize {
            // The three `kx` taps of one `ky` land on the same input row,
            // so one pass adds all three. Each element still takes its
            // taps in tap order (`ky`, then `kx`), which fixes its
            // rounding.
            let r0 = (i * 3 + ky) * 3;
            let (g0, rest) = gcols[r0 * n..(r0 + 3) * n].split_at(n);
            let (g1, g2) = rest.split_at(n);
            for s in 0..batch {
                let dst = &mut grad_in[(i * batch + s) * hw..(i * batch + s + 1) * hw];
                for y in 0..h {
                    // Source row y feeds input row y + ky − 1.
                    let Some(iy) = (y + ky).checked_sub(1).filter(|&iy| iy < h) else {
                        continue;
                    };
                    let at = s * hw + y * w;
                    add_row_taps(
                        &mut dst[iy * w..(iy + 1) * w],
                        &g0[at..at + w],
                        &g1[at..at + w],
                        &g2[at..at + w],
                    );
                }
            }
        }
    }
}

/// `d[x] += g0[x + 1]`, then `+= g1[x]`, then `+= g2[x − 1]`, each only
/// where the tap exists: one input row's share of a `ky`'s three taps.
fn add_row_taps(d: &mut [f32], g0: &[f32], g1: &[f32], g2: &[f32]) {
    let w = d.len();
    if w == 1 {
        d[0] += g1[0];
        return;
    }
    d[0] = (d[0] + g0[1]) + g1[0];
    let taps = g0[2..].iter().zip(&g1[1..]).zip(&g2[..w - 2]);
    for (v, ((a, b), c)) in d[1..w - 1].iter_mut().zip(taps) {
        *v = ((*v + a) + b) + c;
    }
    d[w - 1] = (d[w - 1] + g1[w - 1]) + g2[w - 2];
}

/// `dst ← srcᵀ` for a row-major `rows × cols` matrix (`dst` resized to
/// `cols × rows`). Used to pack transposed weight matrices for the GEMMs
/// whose natural operand order is transposed.
pub fn transpose(src: &[f32], rows: usize, cols: usize, dst: &mut Vec<f32>) {
    assert_eq!(src.len(), rows * cols, "transpose: shape mismatch");
    // Resize without zero-filling the retained prefix: every element is
    // written below.
    if dst.len() != rows * cols {
        dst.resize(rows * cols, 0.0);
    }
    for r in 0..rows {
        for c in 0..cols {
            dst[c * rows + r] = src[r * cols + c];
        }
    }
}

/// Accumulates the sum of each row of the row-major `m×n` matrix `g` into
/// `acc[i]` (`+=`) — the bias gradient of a convolution.
pub fn add_row_sums(g: &[f32], m: usize, n: usize, acc: &mut [f32]) {
    assert_eq!(g.len(), m * n, "add_row_sums: G shape mismatch");
    assert_eq!(acc.len(), m, "add_row_sums: acc length mismatch");
    for (row, a) in acc.iter_mut().enumerate() {
        *a += deterministic_sum(&g[row * n..(row + 1) * n]);
    }
}

/// Deterministic 8-lane sum (lanes folded in index order, then the tail).
#[inline]
fn deterministic_sum(x: &[f32]) -> f32 {
    const LANES: usize = 8;
    let mut acc = [0.0f32; LANES];
    let chunks = x.len() / LANES;
    for ci in 0..chunks {
        let xs: &[f32; LANES] = x[ci * LANES..(ci + 1) * LANES].try_into().expect("x chunk");
        for l in 0..LANES {
            acc[l] += xs[l];
        }
    }
    let mut sum = 0.0f32;
    for &lane in &acc {
        sum += lane;
    }
    for &xv in &x[chunks * LANES..] {
        sum += xv;
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Naive triple-loop reference for `C += A·B`.
    fn gemm_ref(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += a[i * k + p] * b[p * n + j];
                }
                c[i * n + j] += acc;
            }
        }
    }

    fn fill(len: usize, seed: u64) -> Vec<f32> {
        // cheap deterministic pseudo-random values in [-1, 1]
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as f32 / (1u64 << 31) as f32) - 1.0
            })
            .collect()
    }

    #[test]
    fn gemm_matches_reference_on_microkernel_and_edges() {
        // Shapes chosen to exercise the 4×16 main path, both tails, and
        // blocking boundaries (n > NC).
        for &(m, n, k) in &[
            (4, 16, 8),
            (1, 1, 1),
            (3, 15, 7),
            (5, 17, 9),
            (8, 300, 144),
            (13, 259, 31),
        ] {
            let a = fill(m * k, 1);
            let b = fill(k * n, 2);
            let mut c = fill(m * n, 3);
            let mut c_ref = c.clone();
            gemm(m, n, k, &a, &b, &mut c);
            gemm_ref(m, n, k, &a, &b, &mut c_ref);
            for (i, (x, y)) in c.iter().zip(c_ref.iter()).enumerate() {
                assert!(
                    (x - y).abs() <= 1e-4 * (1.0 + y.abs()),
                    "({m},{n},{k}) idx {i}: {x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn gemm_nt_matches_reference() {
        let (m, n, k) = (7, 19, 133);
        let a = fill(m * k, 4);
        let bt = fill(n * k, 5);
        // reference: C += A·Bᵀ element-wise
        let mut c = vec![0.25f32; m * n];
        let mut c_ref = c.clone();
        gemm_nt(m, n, k, &a, &bt, &mut c);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += a[i * k + p] * bt[j * k + p];
                }
                c_ref[i * n + j] += acc;
            }
        }
        for (x, y) in c.iter().zip(c_ref.iter()) {
            assert!((x - y).abs() <= 1e-4 * (1.0 + y.abs()), "{x} vs {y}");
        }
    }

    #[test]
    fn gemm_is_deterministic_across_calls() {
        let (m, n, k) = (11, 270, 90);
        let a = fill(m * k, 6);
        let b = fill(k * n, 7);
        let mut c1 = vec![0.0f32; m * n];
        let mut c2 = vec![0.0f32; m * n];
        gemm(m, n, k, &a, &b, &mut c1);
        gemm(m, n, k, &a, &b, &mut c2);
        assert_eq!(c1, c2, "gemm must be bit-deterministic");
    }

    /// The 256- and 512-bit width tiers are one numeric path: identical
    /// per-element FMA chains, so bit-identical outputs (on hosts that
    /// have both).
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn avx512_tier_is_bitwise_equal_to_avx2_tier() {
        if !(simd_active() && std::arch::is_x86_feature_detected!("avx512f")) {
            return; // nothing to compare on this host
        }
        // Shapes exercising 8-row tiles, the 4-row tail, scalar edge rows,
        // the 16-wide column fallback, and scalar edge columns.
        for &(m, n, k) in &[(32, 1024, 144), (22, 57, 31), (7, 16, 9), (9, 40, 12)] {
            let a = fill(m * k, 41);
            let b = fill(k * n, 42);
            let mut c256 = fill(m * n, 43);
            let mut c512 = c256.clone();
            let mut pack = Vec::new();
            // SAFETY: features checked above; slice lengths match shapes.
            unsafe {
                avx2::gemm(m, n, k, 0, &a, &b, &mut c256, &mut pack);
                avx512::gemm(m, n, k, &a, &b, &mut c512, &mut pack);
            }
            assert_eq!(c256, c512, "width tiers diverged at ({m},{n},{k})");
        }
    }

    /// [`gemm_ref`] with every multiply-add fused: the chain the vector
    /// tiles run.
    fn gemm_fused_ref(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc = a[i * k + p].mul_add(b[p * n + j], acc);
                }
                c[i * n + j] += acc;
            }
        }
    }

    /// The CMDN's own GEMM shapes — the EVQL recipe's 32×32 `conv [6, 12]`
    /// model at a batch of 4: both conv blocks' forwards, then their
    /// backward data GEMMs. The last one is `(54, 1024, 12)`: two edge
    /// rows under 52 tile rows.
    const CMDN_SHAPES: [(usize, usize, usize); 4] =
        [(6, 4096, 9), (12, 1024, 54), (9, 4096, 6), (54, 1024, 12)];

    /// Every path — the scalar one, `avx2` and (where detected) `avx512` —
    /// on the CMDN's shapes and one shape with edge columns: tile elements
    /// equal the fused chain of [`gemm_fused_ref`], edge rows and columns
    /// the unfused chain of [`gemm_ref`], bit for bit.
    #[test]
    fn every_path_fuses_tiles_and_leaves_edges_unfused() {
        for (m, n, k) in CMDN_SHAPES.into_iter().chain([(7, 72, 13)]) {
            let (a, b, c0) = (fill(m * k, 51), fill(k * n, 52), fill(m * n, 53));
            let mut fused = c0.clone();
            gemm_fused_ref(m, n, k, &a, &b, &mut fused);
            let mut plain = c0.clone();
            gemm_ref(m, n, k, &a, &b, &mut plain);
            let (tile_m, tile_n) = (m - m % MR, n - n % NR);
            let check = |tier: &str, got: &[f32]| {
                for i in 0..m {
                    for j in 0..n {
                        let tile = i < tile_m && j < tile_n;
                        let want = if tile {
                            fused[i * n + j]
                        } else {
                            plain[i * n + j]
                        };
                        assert_eq!(
                            got[i * n + j].to_bits(),
                            want.to_bits(),
                            "{tier} ({m},{n},{k}) at ({i},{j}), {} element",
                            if tile { "tile" } else { "edge" }
                        );
                    }
                }
            };
            let mut c = c0.clone();
            gemm_dispatch(false, m, n, k, &a, &b, &mut c);
            check("scalar", &c);
            #[cfg(target_arch = "x86_64")]
            if simd_active() {
                let mut pack = Vec::new();
                let mut c = c0.clone();
                // SAFETY: AVX2 + FMA checked above; slice lengths match shapes.
                unsafe { avx2::gemm(m, n, k, 0, &a, &b, &mut c, &mut pack) };
                check("avx2", &c);
                if std::arch::is_x86_feature_detected!("avx512f") {
                    let mut c = c0.clone();
                    // SAFETY: AVX-512F checked above; slice lengths match shapes.
                    unsafe { avx512::gemm(m, n, k, &a, &b, &mut c, &mut pack) };
                    check("avx512", &c);
                }
            }
        }
    }

    /// The vector path's blocked `gemm_nt` — 2×2 blocks, then the 2×1,
    /// 1×2 and 1×1 edges — gives every element the scalar path's [`dot`]
    /// chain, bit for bit: the CMDN's weight-gradient and dense shapes,
    /// plus odd ones that hit every edge and `k` tail.
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn blocked_gemm_nt_keeps_each_dots_chain() {
        if !simd_active() {
            return; // no vector tier on this host
        }
        for (m, n, k) in [
            (12, 54, 1024),
            (6, 9, 4096),
            (4, 16, 768),
            (5, 7, 77),
            (3, 3, 13),
        ] {
            let (a, b) = (fill(m * k, 61), fill(n * k, 62));
            let mut c = fill(m * n, 63);
            let mut want = c.clone();
            gemm_nt_dispatch(false, m, n, k, &a, &b, &mut want);
            // SAFETY: AVX2 + FMA checked above; slice lengths match shapes.
            unsafe { avx2::gemm_nt(m, n, k, &a, &b, &mut c) };
            assert_eq!(bits(&c), bits(&want), "({m},{n},{k})");
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// im2col followed by col2im must reproduce the multiplicity of each
    /// input cell (how many patches it participates in).
    #[test]
    fn im2col_col2im_roundtrip_counts_patch_membership() {
        let (in_ch, batch, h, w) = (2, 3, 4, 5);
        let input = vec![1.0f32; in_ch * batch * h * w];
        let mut cols = Vec::new();
        im2col_3x3(&input, in_ch, batch, h, w, &mut cols);
        let mut back = vec![0.0f32; input.len()];
        col2im_add_3x3(&cols, in_ch, batch, h, w, &mut back);
        // interior cells belong to 9 patches, edges 6, corners 4
        for s in 0..batch {
            for y in 0..h {
                for x in 0..w {
                    let expected = (3 - (y == 0) as usize - (y == h - 1) as usize)
                        * (3 - (x == 0) as usize - (x == w - 1) as usize);
                    let got = back[s * h * w + y * w + x];
                    assert_eq!(got, expected as f32, "({s},{y},{x})");
                }
            }
        }
    }

    #[test]
    fn transpose_roundtrip() {
        let src = fill(6 * 9, 8);
        let mut t = Vec::new();
        let mut back = Vec::new();
        transpose(&src, 6, 9, &mut t);
        transpose(&t, 9, 6, &mut back);
        assert_eq!(src, back);
    }

    #[test]
    fn row_sums_accumulate() {
        let c = vec![1.0f32, 1.0, 1.0, -2.0, -2.0, -2.0];
        let mut acc = vec![0.5f32, 0.0];
        add_row_sums(&c, 2, 3, &mut acc);
        assert_eq!(acc, vec![3.5, -6.0]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Blocked GEMM ≡ naive reference on random shapes, including
        /// degenerate 1-row / 1-column cases.
        #[test]
        fn gemm_equivalence_random_shapes(
            m in 1usize..24,
            n in 1usize..80,
            k in 1usize..48,
            seed in 0u64..1_000,
        ) {
            let a = fill(m * k, seed);
            let b = fill(k * n, seed.wrapping_add(1));
            let mut c = fill(m * n, seed.wrapping_add(2));
            let mut c_ref = c.clone();
            gemm(m, n, k, &a, &b, &mut c);
            gemm_ref(m, n, k, &a, &b, &mut c_ref);
            for (x, y) in c.iter().zip(c_ref.iter()) {
                prop_assert!((x - y).abs() <= 1e-4 * (1.0 + y.abs()), "{} vs {}", x, y);
            }
        }

        /// The block-copy im2col ≡ the per-element definition, exactly,
        /// including 1-pixel-wide and 1-pixel-high images.
        #[test]
        fn im2col_equals_per_element_definition(
            in_ch in 1usize..4,
            batch in 1usize..4,
            h in 1usize..7,
            w in 1usize..7,
            seed in 0u64..1_000,
        ) {
            let (hw, n) = (h * w, batch * h * w);
            let input = fill(in_ch * n, seed);
            let mut cols = fill(in_ch * 9 * n, seed.wrapping_add(1)); // stale contents
            im2col_3x3(&input, in_ch, batch, h, w, &mut cols);
            for i in 0..in_ch {
                for (ky, kx) in (0..3).flat_map(|ky| (0..3).map(move |kx| (ky, kx))) {
                    let r = (i * 3 + ky) * 3 + kx;
                    for s in 0..batch {
                        for y in 0..h {
                            for x in 0..w {
                                let (iy, ix) = ((y + ky).checked_sub(1), (x + kx).checked_sub(1));
                                let want = match (iy, ix) {
                                    (Some(iy), Some(ix)) if iy < h && ix < w => {
                                        input[(i * batch + s) * hw + iy * w + ix]
                                    }
                                    _ => 0.0,
                                };
                                let got = cols[r * n + s * hw + y * w + x];
                                prop_assert_eq!(got.to_bits(), want.to_bits());
                            }
                        }
                    }
                }
            }
        }

        /// The fused col2im ≡ scatter-adding one tap at a time in tap
        /// order, exactly, onto a non-zero gradient.
        #[test]
        fn col2im_equals_per_tap_scatter(
            in_ch in 1usize..4,
            batch in 1usize..4,
            h in 1usize..7,
            w in 1usize..7,
            seed in 0u64..1_000,
        ) {
            let (hw, n) = (h * w, batch * h * w);
            let gcols = fill(in_ch * 9 * n, seed);
            let mut got = fill(in_ch * n, seed.wrapping_add(1));
            let mut want = got.clone();
            col2im_add_3x3(&gcols, in_ch, batch, h, w, &mut got);
            for i in 0..in_ch {
                for r in i * 9..(i + 1) * 9 {
                    let (ky, kx) = ((r % 9) / 3, r % 3);
                    for s in 0..batch {
                        for y in 0..h {
                            for x in 0..w {
                                let (iy, ix) = ((y + ky).checked_sub(1), (x + kx).checked_sub(1));
                                if let (Some(iy), Some(ix)) = (iy, ix) {
                                    if iy < h && ix < w {
                                        want[(i * batch + s) * hw + iy * w + ix] +=
                                            gcols[r * n + s * hw + y * w + x];
                                    }
                                }
                            }
                        }
                    }
                }
            }
            prop_assert_eq!(bits(&got), bits(&want));
        }

        /// Dispatched (SIMD where available) ≡ forced-scalar `gemm`, bit
        /// for bit, on random shapes covering microkernel remainder
        /// rows/columns, the 512-bit tier's 8-row tiles and long chains.
        #[test]
        fn simd_gemm_equals_scalar_random_shapes(
            m in 1usize..24,
            n in 1usize..80,
            k in 1usize..160,
            seed in 0u64..1_000,
        ) {
            let a = fill(m * k, seed.wrapping_add(7));
            let b = fill(k * n, seed.wrapping_add(8));
            let mut fast = fill(m * n, seed.wrapping_add(9));
            let mut slow = fast.clone();
            gemm(m, n, k, &a, &b, &mut fast);
            gemm_dispatch(false, m, n, k, &a, &b, &mut slow);
            prop_assert_eq!(bits(&fast), bits(&slow));
        }

        /// Dispatched ≡ forced-scalar `gemm_nt`, bit for bit, including
        /// the `k % 8` unfused dot-product tail.
        #[test]
        fn simd_gemm_nt_equals_scalar_random_shapes(
            m in 1usize..16,
            n in 1usize..40,
            k in 1usize..160,
            seed in 0u64..1_000,
        ) {
            let a = fill(m * k, seed.wrapping_add(17));
            let bt = fill(n * k, seed.wrapping_add(18));
            let mut fast = fill(m * n, seed.wrapping_add(19));
            let mut slow = fast.clone();
            gemm_nt(m, n, k, &a, &bt, &mut fast);
            gemm_nt_dispatch(false, m, n, k, &a, &bt, &mut slow);
            prop_assert_eq!(bits(&fast), bits(&slow));
        }
    }
}
