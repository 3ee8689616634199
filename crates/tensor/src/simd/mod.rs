//! Runtime-dispatched vectorized kernels backing
//! [`crate::backend::SimdBackend`].
//!
//! # Structure
//!
//! * [`portable`] — 8-wide chunked bodies with an explicit lane structure;
//!   the numeric *definition* of every elementwise op and reduction.
//! * [`avx2`] (x86-64) — a 6×16 FMA GEMM micro-tile, plus the portable
//!   bodies re-compiled inside `#[target_feature(enable = "avx2")]`
//!   wrappers (bitwise-identical results, wider codegen).
//! * [`sse2`] (x86-64) — a 4×8 multiply-add GEMM micro-tile for hosts
//!   without AVX2. Elementwise/reduction paths need no wrapper: SSE2 is
//!   the x86-64 baseline, so the portable bodies already compile to it.
//!
//! # Dispatch
//!
//! The host's [`Level`] is detected once (`std::arch` feature detection,
//! cached in a `OnceLock`) and every entry point branches on it. The level
//! is part of artifact provenance ([`level_name`]): GEMM results are
//! bitwise reproducible only for a fixed level (FMA fuses roundings),
//! while every non-GEMM op is bitwise identical across levels because all
//! levels execute the same portable body.

use std::sync::OnceLock;

use crate::backend::Layout;
use crate::conv::Window;
use crate::{im2col, kernels};

#[cfg(target_arch = "x86_64")]
mod avx2;
#[cfg(target_arch = "x86_64")]
mod avx512;
mod portable;
#[cfg(target_arch = "x86_64")]
mod sse2;

/// The instruction-set level the SIMD backend runs at on this host.
/// (Per-target `allow(dead_code)`: each target constructs only the
/// variants its `detect()` can return.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Level {
    /// AVX-512F detected: 8×32 ZMM GEMM micro-tile; non-GEMM ops run the
    /// AVX2-compiled portable bodies (wider codegen cannot change their
    /// lane-explicit results, and they are bandwidth-bound anyway).
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    Avx512,
    /// AVX2 + FMA detected: 6×16 FMA GEMM micro-tile, AVX2 codegen for
    /// the portable bodies.
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    Avx2Fma,
    /// x86-64 baseline: 4×8 SSE2 GEMM micro-tile.
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    Sse2,
    /// Non-x86 targets: portable bodies only (autovectorized).
    #[cfg_attr(target_arch = "x86_64", allow(dead_code))]
    Portable,
}

fn detect() -> Level {
    #[cfg(target_arch = "x86_64")]
    {
        let avx2 = std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("fma");
        if avx2 && std::arch::is_x86_feature_detected!("avx512f") {
            Level::Avx512
        } else if avx2 {
            Level::Avx2Fma
        } else {
            Level::Sse2
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        Level::Portable
    }
}

/// The detected [`Level`], resolved once per process.
pub(crate) fn level() -> Level {
    static LEVEL: OnceLock<Level> = OnceLock::new();
    *LEVEL.get_or_init(detect)
}

/// Stable name of the detected level, recorded in benchmark and
/// golden-trace provenance.
pub(crate) fn level_name() -> &'static str {
    match level() {
        Level::Avx512 => "avx512f",
        Level::Avx2Fma => "avx2+fma",
        Level::Sse2 => "sse2",
        Level::Portable => "portable",
    }
}

/// Whether this host has a real vector unit for the SIMD backend to use
/// (drives the `auto` backend choice — on non-x86 targets the "SIMD"
/// paths would just be the portable loops).
pub(crate) fn host_has_vector_unit() -> bool {
    !matches!(level(), Level::Portable)
}

// ---------------------------------------------------------------------------
// GEMM
// ---------------------------------------------------------------------------

/// SIMD GEMM over a contiguous row range of `C` (serial; the caller owns
/// row sharding — see [`crate::backend::ComputeBackend::gemm_rows`]).
///
/// Products under [`kernels::SMALL_FLOPS`] fall back to the scalar kernel:
/// packing would dominate, and the gate depends only on the problem size,
/// so the choice is identical for every row partition.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_rows(
    layout: Layout,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c_rows: &mut [f32],
    row0: usize,
) {
    if m * k * n < kernels::SMALL_FLOPS {
        return kernels::gemm_rows_scalar(layout, m, k, n, a, b, c_rows, row0);
    }
    match level() {
        #[cfg(target_arch = "x86_64")]
        Level::Avx512 => {
            // SAFETY: `level()` returns Avx512 only after runtime
            // detection of avx512f on this host.
            unsafe { avx512::gemm_rows(layout, m, k, n, a, b, c_rows, row0) }
        }
        #[cfg(target_arch = "x86_64")]
        Level::Avx2Fma => {
            // SAFETY: `level()` returns Avx2Fma only after runtime
            // detection of both avx2 and fma on this host.
            unsafe { avx2::gemm_rows(layout, m, k, n, a, b, c_rows, row0) }
        }
        #[cfg(target_arch = "x86_64")]
        Level::Sse2 => {
            // SAFETY: SSE2 is part of the x86-64 baseline ABI.
            unsafe { sse2::gemm_rows(layout, m, k, n, a, b, c_rows, row0) }
        }
        _ => kernels::gemm_rows_scalar(layout, m, k, n, a, b, c_rows, row0),
    }
}

/// Packs an `mb × kb` block of `op(A)` into `mr`-major panels: panel `ip`
/// holds rows `ip·mr .. ip·mr+mr` as `apack[ip·kb·mr + p·mr + r]`, so the
/// micro-kernel reads one contiguous `mr`-group per depth step. Rows past
/// `mb` are zero-filled (the padded lanes compute garbage that is never
/// stored).
#[allow(clippy::too_many_arguments)]
pub(super) fn pack_a(
    layout: Layout,
    a: &[f32],
    m: usize,
    k: usize,
    row: usize,
    mb: usize,
    k0: usize,
    kb: usize,
    mr: usize,
    apack: &mut [f32],
) {
    let ipanels = mb.div_ceil(mr);
    for ip in 0..ipanels {
        let panel = &mut apack[ip * kb * mr..(ip + 1) * kb * mr];
        let rbase = ip * mr;
        let rn = mr.min(mb - rbase);
        match layout {
            Layout::Nn | Layout::Nt => {
                // A is [m, k]: read rows contiguously, scatter into the
                // mr-strided panel
                for r in 0..rn {
                    let src = &a[(row + rbase + r) * k + k0..(row + rbase + r) * k + k0 + kb];
                    for (p, &v) in src.iter().enumerate() {
                        panel[p * mr + r] = v;
                    }
                }
            }
            Layout::Tn => {
                // A is [k, m]: each depth row is already mr-contiguous
                for p in 0..kb {
                    let src = &a[(k0 + p) * m + row + rbase..(k0 + p) * m + row + rbase + rn];
                    panel[p * mr..p * mr + rn].copy_from_slice(src);
                }
            }
        }
        if rn < mr {
            for p in 0..kb {
                for slot in &mut panel[p * mr + rn..(p + 1) * mr] {
                    *slot = 0.0;
                }
            }
        }
    }
}

/// Packs a `kb × nb` panel of `op(B)` into `nr`-wide panels: panel `jp`
/// holds columns `j0+jp·nr .. +nr` as `bpack[jp·kb·nr + p·nr + j]`.
/// Columns past `nb` are zero-filled.
#[allow(clippy::too_many_arguments)]
pub(super) fn pack_b(
    layout: Layout,
    b: &[f32],
    k: usize,
    n: usize,
    k0: usize,
    kb: usize,
    j0: usize,
    nb: usize,
    nr: usize,
    bpack: &mut [f32],
) {
    let _ = k;
    let jpanels = nb.div_ceil(nr);
    for jp in 0..jpanels {
        let panel = &mut bpack[jp * kb * nr..(jp + 1) * kb * nr];
        let jbase = j0 + jp * nr;
        let jn = nr.min(nb - jp * nr);
        match layout {
            Layout::Nn | Layout::Tn => {
                // B is [k, n]: each depth row is nr-contiguous
                for p in 0..kb {
                    let dst = &mut panel[p * nr..(p + 1) * nr];
                    dst[..jn].copy_from_slice(&b[(k0 + p) * n + jbase..(k0 + p) * n + jbase + jn]);
                    for slot in &mut dst[jn..] {
                        *slot = 0.0;
                    }
                }
            }
            Layout::Nt => {
                // B is [n, k]: read its rows contiguously, scatter into
                // the nr-strided panel
                for j in 0..jn {
                    let src = &b[(jbase + j) * k + k0..(jbase + j) * k + k0 + kb];
                    for (p, &v) in src.iter().enumerate() {
                        panel[p * nr + j] = v;
                    }
                }
                if jn < nr {
                    for p in 0..kb {
                        for slot in &mut panel[p * nr + jn..(p + 1) * nr] {
                            *slot = 0.0;
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Elementwise / reductions / row kernels
// ---------------------------------------------------------------------------

/// Expands to a dispatcher that runs the AVX2-compiled wrapper when the
/// host level is [`Level::Avx2Fma`] and the portable body otherwise. Both
/// paths execute the identical lane-explicit float-operation order, so the
/// choice never changes results — only throughput.
macro_rules! dispatch {
    ($(#[$doc:meta] fn $name:ident($($arg:ident: $ty:ty),*) $(-> $ret:ty)?;)*) => {
        $(
            #[$doc]
            pub(crate) fn $name($($arg: $ty),*) $(-> $ret)? {
                match level() {
                    #[cfg(target_arch = "x86_64")]
                    Level::Avx512 | Level::Avx2Fma => {
                        // SAFETY: `detect()` returns Avx512 or Avx2Fma
                        // only after runtime detection of avx2 on this
                        // host (the wrapper enables nothing beyond avx2).
                        unsafe { avx2::$name($($arg),*) }
                    }
                    _ => portable::$name($($arg),*),
                }
            }
        )*
    };
}

dispatch! {
    /// `out[i] = a[i] + b[i]`.
    fn add_slices(a: &[f32], b: &[f32], out: &mut [f32]);
    /// `out[i] = a[i] - b[i]`.
    fn sub_slices(a: &[f32], b: &[f32], out: &mut [f32]);
    /// `out[i] = a[i] * b[i]`.
    fn mul_slices(a: &[f32], b: &[f32], out: &mut [f32]);
    /// `out[i] = a[i] / b[i]`.
    fn div_slices(a: &[f32], b: &[f32], out: &mut [f32]);
    /// `y[i] += alpha * x[i]`.
    fn axpy(alpha: f32, x: &[f32], y: &mut [f32]);
    /// `out[i] = src[i] * s`.
    fn scale(s: f32, src: &[f32], out: &mut [f32]);
    /// `out[i] = src[i] + s`.
    fn add_scalar(s: f32, src: &[f32], out: &mut [f32]);
    /// `out[i] = max(src[i], 0)`.
    fn relu(src: &[f32], out: &mut [f32]);
    /// 8-lane chunked sum with a fixed pairwise fold.
    fn sum(x: &[f32]) -> f32;
    /// 8-lane chunked sum of squares.
    fn sq_sum(x: &[f32]) -> f32;
    /// 8-lane chunked dot product.
    fn dot(a: &[f32], b: &[f32]) -> f32;
    /// 8-lane chunked maximum (`-inf` when empty).
    fn max(x: &[f32]) -> f32;
    /// 8-lane chunked minimum (`+inf` when empty).
    fn min(x: &[f32]) -> f32;
    /// Stable softmax of one row.
    fn softmax_row(row: &[f32], out: &mut [f32]);
    /// Stable log-softmax of one row.
    fn log_softmax_row(row: &[f32], out: &mut [f32]);
    /// `(mean, biased variance)` of one row.
    fn mean_var_row(row: &[f32]) -> (f32, f32);
}

// ---------------------------------------------------------------------------
// Conv lowering
// ---------------------------------------------------------------------------

/// im2col of one input plane with a stride-1 segment fast path: for
/// stride 1 every `(ky, kx, oy)` output row is one contiguous source
/// segment (clipped to the padding window), so the unroll becomes `K²·OH`
/// memcpys instead of `K²·OH·OW` scalar moves. Other strides fall back to
/// the scalar loop — identical values either way (this is pure data
/// movement, no arithmetic).
#[allow(clippy::too_many_arguments)]
pub(crate) fn im2col_channel(
    plane: &[f32],
    h: usize,
    w: usize,
    win: Window,
    oh: usize,
    ow: usize,
    cols: &mut [f32],
) {
    if win.stride != 1 {
        return im2col::im2col_channel_scalar(plane, h, w, win, oh, ow, cols);
    }
    let k = win.kernel;
    let pad = win.padding;
    let ohw = oh * ow;
    for ky in 0..k {
        for kx in 0..k {
            let base = (ky * k + kx) * ohw;
            // ox range whose input column ix = ox + kx - pad lands in
            // [0, w); outside it `cols` keeps its caller-zeroed padding
            let ox_lo = pad.saturating_sub(kx);
            let ox_hi = ow.min((w + pad).saturating_sub(kx));
            if ox_lo >= ox_hi {
                continue;
            }
            let ix0 = ox_lo + kx - pad;
            for oy in 0..oh {
                let iy = (oy + ky) as isize - pad as isize;
                if iy < 0 || iy >= h as isize {
                    continue;
                }
                let src = iy as usize * w + ix0;
                cols[base + oy * ow + ox_lo..base + oy * ow + ox_hi]
                    .copy_from_slice(&plane[src..src + (ox_hi - ox_lo)]);
            }
        }
    }
}

/// col2im of one channel: delegates to the shared compensated scatter-add.
/// Per-element Kahan streams run in the same `(ky, kx, oy, ox)` order on
/// every backend, so this is bitwise identical to the scalar backend.
#[allow(clippy::too_many_arguments)]
pub(crate) fn col2im_channel(
    cols: &[f32],
    h: usize,
    w: usize,
    win: Window,
    oh: usize,
    ow: usize,
    plane: &mut [f32],
) {
    im2col::col2im_channel_compensated(cols, h, w, win, oh, ow, plane);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Prng;

    fn naive_nn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for p in 0..k {
                for j in 0..n {
                    c[i * n + j] += a[i * k + p] * b[p * n + j];
                }
            }
        }
        c
    }

    #[test]
    fn simd_gemm_matches_naive_across_layouts() {
        // sizes above SMALL_FLOPS so the vector micro-tile actually runs,
        // with shapes that exercise edge tiles in both m and n
        for &(m, k, n) in &[(37, 64, 41), (96, 300, 64), (130, 257, 80)] {
            let mut rng = Prng::new((m * 31 + k * 7 + n) as u64);
            let a: Vec<f32> = (0..m * k).map(|_| rng.normal()).collect();
            let b: Vec<f32> = (0..k * n).map(|_| rng.normal()).collect();
            let expect = naive_nn(m, k, n, &a, &b);
            let mut c = vec![0.0f32; m * n];
            gemm_rows(Layout::Nn, m, k, n, &a, &b, &mut c, 0);
            for (i, (x, y)) in c.iter().zip(&expect).enumerate() {
                let tol = 1e-4 * (1.0 + y.abs()) * (k as f32).sqrt();
                assert!((x - y).abs() <= tol, "({m},{k},{n})[{i}]: {x} vs {y}");
            }

            // Tn: A stored [k, m]
            let mut at = vec![0.0f32; k * m];
            for i in 0..m {
                for p in 0..k {
                    at[p * m + i] = a[i * k + p];
                }
            }
            let mut c_tn = vec![0.0f32; m * n];
            gemm_rows(Layout::Tn, m, k, n, &at, &b, &mut c_tn, 0);
            // Nt: B stored [n, k]
            let mut bt = vec![0.0f32; n * k];
            for p in 0..k {
                for j in 0..n {
                    bt[j * k + p] = b[p * n + j];
                }
            }
            let mut c_nt = vec![0.0f32; m * n];
            gemm_rows(Layout::Nt, m, k, n, &a, &bt, &mut c_nt, 0);
            for (i, y) in expect.iter().enumerate() {
                let tol = 1e-4 * (1.0 + y.abs()) * (k as f32).sqrt();
                assert!((c_tn[i] - y).abs() <= tol, "tn ({m},{k},{n})[{i}]");
                assert!((c_nt[i] - y).abs() <= tol, "nt ({m},{k},{n})[{i}]");
            }
        }
    }

    #[test]
    fn simd_gemm_row_partition_is_bitwise_invariant() {
        let (m, k, n) = (67, 129, 43);
        let mut rng = Prng::new(4242);
        let a: Vec<f32> = (0..m * k).map(|_| rng.normal()).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.normal()).collect();
        let mut whole = vec![0.0f32; m * n];
        gemm_rows(Layout::Nn, m, k, n, &a, &b, &mut whole, 0);
        // compute the same product in uneven row chunks
        let mut parts = vec![0.0f32; m * n];
        for (row0, rows) in [(0usize, 11usize), (11, 29), (40, 27)] {
            gemm_rows(
                Layout::Nn,
                m,
                k,
                n,
                &a,
                &b,
                &mut parts[row0 * n..(row0 + rows) * n],
                row0,
            );
        }
        for (i, (x, y)) in whole.iter().zip(&parts).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "row-partition divergence at {i}");
        }
    }

    #[test]
    fn im2col_fast_path_matches_scalar_with_padding() {
        let (h, w) = (7, 9);
        let win = Window {
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let (oh, ow) = (7, 9);
        let plane: Vec<f32> = (0..h * w).map(|v| v as f32 + 1.0).collect();
        let len = 9 * oh * ow;
        let mut fast = vec![0.0f32; len];
        im2col_channel(&plane, h, w, win, oh, ow, &mut fast);
        let mut slow = vec![0.0f32; len];
        im2col::im2col_channel_scalar(&plane, h, w, win, oh, ow, &mut slow);
        assert_eq!(fast, slow);
    }

    #[test]
    fn level_is_detected_and_named() {
        let name = level_name();
        assert!(["avx512f", "avx2+fma", "sse2", "portable"].contains(&name));
    }
}
