//! AVX2 + FMA kernels (x86-64, runtime-detected).
//!
//! The GEMM micro-tile is a classic 6×16 register kernel: 6 rows × two
//! 8-lane YMM columns of `C` accumulate in 12 registers while one
//! broadcast of `A` and two loads of packed `B` feed 12 FMAs per depth
//! step. `A` is packed MR-major (6 row elements per depth), `B` NR-major
//! (16 column elements per depth), both zero-padded to full tiles — the
//! padded lanes are computed and discarded, so every *real* `C` element
//! accumulates along `k` in one lane regardless of where its tile sits.
//! That makes the result independent of the row/tile/thread partition,
//! which is what lets the caller shard rows freely while keeping bitwise
//! determinism at any thread count.
//!
//! Elementwise and reduction entry points re-compile the portable 8-wide
//! bodies ([`super::portable`]) inside `#[target_feature]` wrappers: LLVM
//! lowers them with AVX2, and because the lane grouping is explicit in the
//! source the results stay bitwise identical to the portable build.

use std::arch::x86_64::*;

use super::portable;
use crate::backend::Layout;
use crate::scratch::PooledBuf;

/// Micro-tile rows (A broadcast values per depth step).
pub(super) const MR: usize = 6;
/// Micro-tile columns (two 8-lane YMM registers).
pub(super) const NR: usize = 16;
/// Rows of packed `A` per cache block (multiple of [`MR`]).
const MC: usize = 96;
/// Depth per packed block (shared with the scalar kernel's `KC`).
const KC: usize = 256;
/// Columns of packed `B` per panel (multiple of [`NR`]).
const NC: usize = 256;

/// Blocked GEMM over a contiguous row range of `C` (see
/// [`crate::backend::ComputeBackend::gemm_rows`] for the contract).
///
/// # Safety
///
/// Caller must guarantee the host supports AVX2 and FMA (checked once in
/// [`super::level`]). Slice geometry must satisfy the usual GEMM dimension
/// invariants (`a`/`b`/`c_rows` sized per `layout`, `n` divides
/// `c_rows.len()`), which the public drivers in [`crate::kernels`] check.
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
pub(super) unsafe fn gemm_rows(
    layout: Layout,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c_rows: &mut [f32],
    row0: usize,
) {
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
            super::pack_b(layout, b, k, n, k0, kb, j0, nb, NR, &mut bpack);
            for i0 in (0..rows).step_by(MC) {
                let mb = MC.min(rows - i0);
                super::pack_a(layout, a, m, k, row0 + i0, mb, k0, kb, MR, &mut apack);
                let ipanels = mb.div_ceil(MR);
                for jp in 0..jpanels {
                    let ncols = NR.min(nb - jp * NR);
                    let bp = bpack.as_ptr().add(jp * kb * NR);
                    for ip in 0..ipanels {
                        let mrows = MR.min(mb - ip * MR);
                        let ap = apack.as_ptr().add(ip * kb * MR);
                        let cptr = c_rows.as_mut_ptr().add((i0 + ip * MR) * n + j0 + jp * NR);
                        // SAFETY: ap/bp point at `kb`-deep packed panels,
                        // and cptr addresses an mrows×ncols window of
                        // c_rows with stride n (in bounds by construction
                        // of the tile grid above).
                        unsafe { mk6x16(kb, ap, bp, cptr, n, mrows, ncols) };
                    }
                }
            }
        }
    }
}

/// The 6×16 FMA micro-kernel: `C[mrows,ncols] += Ap·Bp` over one packed
/// depth run of `kb`.
///
/// # Safety
///
/// Requires AVX2+FMA. `ap` must be valid for `kb * MR` reads, `bp` for
/// `kb * NR` reads, and `c` for an `mrows × ncols` strided window with row
/// stride `c_stride`.
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn mk6x16(
    kb: usize,
    ap: *const f32,
    bp: *const f32,
    c: *mut f32,
    c_stride: usize,
    mrows: usize,
    ncols: usize,
) {
    // SAFETY: (for every intrinsic below) AVX2+FMA availability is the
    // function's safety contract; all pointer arithmetic stays within the
    // ranges documented above.
    unsafe {
        let mut acc00 = _mm256_setzero_ps();
        let mut acc01 = _mm256_setzero_ps();
        let mut acc10 = _mm256_setzero_ps();
        let mut acc11 = _mm256_setzero_ps();
        let mut acc20 = _mm256_setzero_ps();
        let mut acc21 = _mm256_setzero_ps();
        let mut acc30 = _mm256_setzero_ps();
        let mut acc31 = _mm256_setzero_ps();
        let mut acc40 = _mm256_setzero_ps();
        let mut acc41 = _mm256_setzero_ps();
        let mut acc50 = _mm256_setzero_ps();
        let mut acc51 = _mm256_setzero_ps();
        let mut a = ap;
        let mut b = bp;
        // one depth step: 2 B loads + 6 A broadcasts feed 12 FMAs
        macro_rules! kstep {
            ($a:expr, $b:expr) => {{
                let b0 = _mm256_loadu_ps($b);
                let b1 = _mm256_loadu_ps($b.add(8));
                let a0 = _mm256_broadcast_ss(&*$a);
                acc00 = _mm256_fmadd_ps(a0, b0, acc00);
                acc01 = _mm256_fmadd_ps(a0, b1, acc01);
                let a1 = _mm256_broadcast_ss(&*$a.add(1));
                acc10 = _mm256_fmadd_ps(a1, b0, acc10);
                acc11 = _mm256_fmadd_ps(a1, b1, acc11);
                let a2 = _mm256_broadcast_ss(&*$a.add(2));
                acc20 = _mm256_fmadd_ps(a2, b0, acc20);
                acc21 = _mm256_fmadd_ps(a2, b1, acc21);
                let a3 = _mm256_broadcast_ss(&*$a.add(3));
                acc30 = _mm256_fmadd_ps(a3, b0, acc30);
                acc31 = _mm256_fmadd_ps(a3, b1, acc31);
                let a4 = _mm256_broadcast_ss(&*$a.add(4));
                acc40 = _mm256_fmadd_ps(a4, b0, acc40);
                acc41 = _mm256_fmadd_ps(a4, b1, acc41);
                let a5 = _mm256_broadcast_ss(&*$a.add(5));
                acc50 = _mm256_fmadd_ps(a5, b0, acc50);
                acc51 = _mm256_fmadd_ps(a5, b1, acc51);
            }};
        }
        // unroll the depth loop 2× to halve loop overhead; the FMA chain
        // per accumulator is unchanged, so results are bit-identical to
        // the rolled form
        let mut p = 0;
        while p + 2 <= kb {
            kstep!(a, b);
            kstep!(a.add(MR), b.add(NR));
            a = a.add(2 * MR);
            b = b.add(2 * NR);
            p += 2;
        }
        if p < kb {
            kstep!(a, b);
        }
        let acc = [
            [acc00, acc01],
            [acc10, acc11],
            [acc20, acc21],
            [acc30, acc31],
            [acc40, acc41],
            [acc50, acc51],
        ];
        if mrows == MR && ncols == NR {
            // full tile: C += acc directly
            for (r, pair) in acc.iter().enumerate() {
                let cr = c.add(r * c_stride);
                _mm256_storeu_ps(cr, _mm256_add_ps(_mm256_loadu_ps(cr), pair[0]));
                let cr8 = cr.add(8);
                _mm256_storeu_ps(cr8, _mm256_add_ps(_mm256_loadu_ps(cr8), pair[1]));
            }
        } else {
            // edge tile: spill the full tile and add only the real lanes.
            // Each real element's value is identical to the full-tile path
            // (lanes are independent), so tail handling does not perturb
            // the partition-invariance argument.
            let mut tmp = [0.0f32; MR * NR];
            for (r, pair) in acc.iter().enumerate() {
                _mm256_storeu_ps(tmp.as_mut_ptr().add(r * NR), pair[0]);
                _mm256_storeu_ps(tmp.as_mut_ptr().add(r * NR + 8), pair[1]);
            }
            for (r, trow) in tmp.chunks_exact(NR).enumerate().take(mrows) {
                for (j, &v) in trow.iter().enumerate().take(ncols) {
                    *c.add(r * c_stride + j) += v;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Recompiled portable bodies (bitwise identical, AVX2 codegen)
// ---------------------------------------------------------------------------

macro_rules! recompiled {
    ($(#[$doc:meta] fn $name:ident($($arg:ident: $ty:ty),*) $(-> $ret:ty)?;)*) => {
        $(
            #[$doc]
            ///
            /// # Safety
            ///
            /// Caller must guarantee AVX2 support (checked in `super::level`).
            /// The body is the safe portable implementation; the wrapper only
            /// widens the codegen ISA.
            #[target_feature(enable = "avx2")]
            pub(super) unsafe fn $name($($arg: $ty),*) $(-> $ret)? {
                portable::$name($($arg),*)
            }
        )*
    };
}

recompiled! {
    /// AVX2-compiled [`portable::add_slices`].
    fn add_slices(a: &[f32], b: &[f32], out: &mut [f32]);
    /// AVX2-compiled [`portable::sub_slices`].
    fn sub_slices(a: &[f32], b: &[f32], out: &mut [f32]);
    /// AVX2-compiled [`portable::mul_slices`].
    fn mul_slices(a: &[f32], b: &[f32], out: &mut [f32]);
    /// AVX2-compiled [`portable::div_slices`].
    fn div_slices(a: &[f32], b: &[f32], out: &mut [f32]);
    /// AVX2-compiled [`portable::axpy`].
    fn axpy(alpha: f32, x: &[f32], y: &mut [f32]);
    /// AVX2-compiled [`portable::scale`].
    fn scale(s: f32, src: &[f32], out: &mut [f32]);
    /// AVX2-compiled [`portable::add_scalar`].
    fn add_scalar(s: f32, src: &[f32], out: &mut [f32]);
    /// AVX2-compiled [`portable::relu`].
    fn relu(src: &[f32], out: &mut [f32]);
    /// AVX2-compiled [`portable::sum`].
    fn sum(x: &[f32]) -> f32;
    /// AVX2-compiled [`portable::sq_sum`].
    fn sq_sum(x: &[f32]) -> f32;
    /// AVX2-compiled [`portable::dot`].
    fn dot(a: &[f32], b: &[f32]) -> f32;
    /// AVX2-compiled [`portable::max`].
    fn max(x: &[f32]) -> f32;
    /// AVX2-compiled [`portable::min`].
    fn min(x: &[f32]) -> f32;
    /// AVX2-compiled [`portable::softmax_row`].
    fn softmax_row(row: &[f32], out: &mut [f32]);
    /// AVX2-compiled [`portable::log_softmax_row`].
    fn log_softmax_row(row: &[f32], out: &mut [f32]);
    /// AVX2-compiled [`portable::mean_var_row`].
    fn mean_var_row(row: &[f32]) -> (f32, f32);
}
