//! Runtime-dispatched vector kernels: the GEMM micro-tiles behind
//! [`crate::backend::SimdBackend`], and the elementwise, reduction and row
//! bodies every backend runs.
//!
//! # Structure
//!
//! * [`portable`] — 8-wide chunked bodies with an explicit lane structure;
//!   the numeric *definition* of every elementwise op and reduction.
//! * [`blocked_gemm`] — the one packed MC/KC/NC loop nest both GEMM
//!   micro-tiles run under. Each tile's `#[target_feature]` entry point
//!   inlines it, so packing compiles with that tile's instruction set.
//! * [`avx512`] (x86-64) — the 8×32 AVX-512F micro-kernel.
//! * [`avx2`] (x86-64) — the 6×16 AVX2+FMA micro-kernel, plus the portable
//!   bodies re-compiled inside `#[target_feature(enable = "avx2")]`
//!   wrappers (bitwise-identical results, wider codegen).
//!
//! # Dispatch
//!
//! The host's [`Level`] is detected once (`std::arch` feature detection,
//! cached in a `OnceLock`) and every entry point branches on it: AVX-512F,
//! AVX2+FMA, or no vector GEMM at all ([`Level::Portable`]: the scalar
//! GEMM and the portable bodies, on x86-64 hosts without AVX2+FMA and on
//! every other target). The level is part of artifact provenance
//! ([`level_name`]). The two micro-tiles give the same bits: each `C`
//! element sums every `KC`-deep run with one FMA per depth step in one
//! lane, starting from zero, and adds the runs to `C` in `k` order. Every
//! non-GEMM op runs the same portable body at every level. So only
//! whether a vector GEMM runs moves bits, not which one.

use std::sync::OnceLock;

use crate::backend::Layout;
use crate::kernels;
#[cfg(target_arch = "x86_64")]
use crate::scratch::PooledBuf;

#[cfg(target_arch = "x86_64")]
mod avx2;
#[cfg(target_arch = "x86_64")]
mod avx512;
mod portable;

/// The instruction-set level the SIMD backend runs at on this host.
/// (Per-target `allow(dead_code)`: only x86-64's `detect()` returns the
/// vector levels.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Level {
    /// AVX-512F (with AVX2+FMA): the 8×32 ZMM GEMM micro-tile; non-GEMM
    /// ops run the AVX2-compiled portable bodies (wider codegen cannot
    /// change their lane-explicit results, and they are bandwidth-bound
    /// anyway).
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    Avx512,
    /// AVX2 + FMA: the 6×16 GEMM micro-tile, AVX2 codegen for the
    /// portable bodies.
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    Avx2Fma,
    /// No vector GEMM: the scalar GEMM kernel and the portable bodies
    /// (autovectorized at the target's baseline).
    Portable,
}

fn detect() -> Level {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            return if std::arch::is_x86_feature_detected!("avx512f") {
                Level::Avx512
            } else {
                Level::Avx2Fma
            };
        }
    }
    Level::Portable
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
        Level::Portable => "portable",
    }
}

/// Whether this host has a vector GEMM tile (drives the `auto` backend
/// choice: without one the SIMD backend would run the scalar GEMM and
/// only the portable bodies).
pub(crate) fn host_has_vector_gemm() -> bool {
    level() != Level::Portable
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
        _ => kernels::gemm_rows_scalar(layout, m, k, n, a, b, c_rows, row0),
    }
}

/// Rows of packed `A` per cache block (a multiple of every tile's `MR`).
#[cfg(target_arch = "x86_64")]
const MC: usize = 96;
/// Depth per packed block. Each `C` element sums one `KC`-deep run in a
/// register lane before adding it to `C`, so `KC` is part of the tiles'
/// per-element order.
#[cfg(target_arch = "x86_64")]
const KC: usize = 256;
/// Columns of packed `B` per panel (a multiple of every tile's `NR`).
#[cfg(target_arch = "x86_64")]
const NC: usize = 256;

/// The blocked GEMM both vector tiles run: `C += op(A)·op(B)` over the
/// contiguous row range `c_rows` (rows `row0 ..` of `C`).
///
/// `B` is packed `KC × NC` at a time and `A` `MC × KC`, into `NR`- and
/// `MR`-wide zero-padded panels; `tile(kb, ap, bp, c, n, mrows, ncols)`
/// then adds `Ap·Bp` — one packed depth run of `kb` — onto the
/// `mrows × ncols` window at the start of `c`, whose row stride is `n`.
/// The padded lanes are computed and dropped, so every real `C` element
/// accumulates along `k` in one lane wherever its tile sits: the result
/// does not depend on the row, tile or thread partition.
///
/// `#[inline(always)]`: each tile's `#[target_feature]` entry point
/// compiles its own copy, packing included, with its instruction set.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn blocked_gemm<const MR: usize, const NR: usize>(
    layout: Layout,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c_rows: &mut [f32],
    row0: usize,
    tile: impl Fn(usize, &[f32], &[f32], &mut [f32], usize, usize, usize),
) {
    const { assert!(MC.is_multiple_of(MR) && NC.is_multiple_of(NR)) };
    let rows = c_rows.len() / n;
    // uninit is fine: pack_a/pack_b fully overwrite every panel slot the
    // micro-kernel reads (including the zero padding)
    let mut apack = PooledBuf::uninit(MC * KC);
    let mut bpack = PooledBuf::uninit(KC * NC);
    for j0 in (0..n).step_by(NC) {
        let nb = NC.min(n - j0);
        let jpanels = nb.div_ceil(NR);
        for k0 in (0..k).step_by(KC) {
            let kb = KC.min(k - k0);
            pack_b(layout, b, k, n, k0, kb, j0, nb, NR, &mut bpack);
            for i0 in (0..rows).step_by(MC) {
                let mb = MC.min(rows - i0);
                pack_a(layout, a, m, k, row0 + i0, mb, k0, kb, MR, &mut apack);
                let ipanels = mb.div_ceil(MR);
                for jp in 0..jpanels {
                    let ncols = NR.min(nb - jp * NR);
                    let bp = &bpack[jp * kb * NR..(jp + 1) * kb * NR];
                    for ip in 0..ipanels {
                        let mrows = MR.min(mb - ip * MR);
                        let ap = &apack[ip * kb * MR..(ip + 1) * kb * MR];
                        let c = &mut c_rows[(i0 + ip * MR) * n + j0 + jp * NR..];
                        tile(kb, ap, bp, c, n, mrows, ncols);
                    }
                }
            }
        }
    }
}

/// Packs an `mb × kb` block of `op(A)` into `mr`-major panels: panel `ip`
/// holds rows `ip·mr .. ip·mr+mr` as `apack[ip·kb·mr + p·mr + r]`, so the
/// micro-kernel reads one contiguous `mr`-group per depth step. Rows past
/// `mb` are zero-filled (the padded lanes compute garbage that is never
/// stored).
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
fn pack_a(
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
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
fn pack_b(
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

/// Expands to a dispatcher that runs the AVX2-compiled wrapper at either
/// vector level and the portable body otherwise. Both paths execute the
/// identical lane-explicit float-operation order, so the choice never
/// changes results — only throughput. Every backend calls the eight
/// elementwise maps; only the reductions and row kernels sit behind
/// [`crate::backend::ComputeBackend`].
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

    /// Every vector tile this host supports, called through its own entry
    /// point (the dispatcher runs only the widest): each matches the naive
    /// product to rounding in all three layouts, and the tiles agree bit
    /// for bit, since they share one per-element order.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn every_supported_tile_matches_naive_and_the_tiles_agree_bitwise() {
        type Entry = unsafe fn(Layout, usize, usize, usize, &[f32], &[f32], &mut [f32], usize);
        let mut tiles: Vec<(&str, Entry)> = Vec::new();
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            tiles.push(("avx2", avx2::gemm_rows));
        }
        if is_x86_feature_detected!("avx512f") {
            tiles.push(("avx512", avx512::gemm_rows));
        }
        assert_eq!(tiles.is_empty(), level() == Level::Portable);
        // tail-only k, tiles smaller than one micro-tile, exact tiles, edge
        // tiles in m and n, and one past MC, KC and NC
        let shapes = [
            (1, 1, 1),
            (7, 3, 5),
            (13, 5, 33),
            (6, 7, 16),
            (8, 9, 32),
            (97, 61, 127),
            (64, 256, 64),
            (65, 257, 95),
            (97, 257, 257),
            (130, 300, 170),
        ];
        for &(m, k, n) in &shapes {
            let mut rng = Prng::new((m * 1009 + k * 31 + n) as u64);
            let a: Vec<f32> = (0..m * k).map(|_| rng.normal()).collect();
            let b: Vec<f32> = (0..k * n).map(|_| rng.normal()).collect();
            let expect = crate::reference::matmul_naive(m, k, n, &a, &b);
            let at: Vec<f32> = (0..k * m).map(|i| a[(i % m) * k + i / m]).collect();
            let bt: Vec<f32> = (0..n * k).map(|i| b[(i % k) * n + i / k]).collect();
            for (layout, x, y) in [
                (Layout::Nn, &a, &b),
                (Layout::Tn, &at, &b),
                (Layout::Nt, &a, &bt),
            ] {
                let mut first: Option<Vec<f32>> = None;
                for &(name, entry) in &tiles {
                    let ctx = format!("{name} {layout:?} {m}x{k}x{n}");
                    let mut c = vec![0.0f32; m * n];
                    // SAFETY: each entry point is listed only after its
                    // instruction set was detected on this host
                    unsafe { entry(layout, m, k, n, x, y, &mut c, 0) };
                    let tol = 1e-5 * (k as f32).sqrt().max(1.0);
                    for (i, (got, want)) in c.iter().zip(&expect).enumerate() {
                        let bound = tol * (1.0 + got.abs().max(want.abs()));
                        assert!((got - want).abs() <= bound, "{ctx}[{i}]: {got} vs {want}");
                    }
                    match &first {
                        None => first = Some(c),
                        Some(f) => assert!(
                            f.iter().zip(&c).all(|(p, q)| p.to_bits() == q.to_bits()),
                            "{ctx}: bits differ from {}",
                            tiles[0].0
                        ),
                    }
                }
            }
        }
    }

    #[test]
    fn level_is_detected_and_named() {
        let name = level_name();
        assert!(["avx512f", "avx2+fma", "portable"].contains(&name));
    }
}
