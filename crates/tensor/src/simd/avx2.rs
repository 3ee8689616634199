//! AVX2 + FMA kernels (x86-64, runtime-detected).
//!
//! The GEMM micro-tile is a classic 6×16 register kernel: 6 rows × two
//! 8-lane YMM columns of `C` accumulate in 12 registers while one
//! broadcast of `A` and two loads of packed `B` feed 12 FMAs per depth
//! step, over the zero-padded panels [`super::blocked_gemm`] packs. Each
//! real `C` element accumulates along `k` in one lane regardless of where
//! its tile sits, so the result is independent of the row/tile/thread
//! partition, and it is bitwise identical to the AVX-512 tile's.
//!
//! Elementwise and reduction entry points re-compile the portable 8-wide
//! bodies ([`super::portable`]) inside `#[target_feature]` wrappers: LLVM
//! lowers them with AVX2, and because the lane grouping is explicit in the
//! source the results stay bitwise identical to the portable build.

use std::arch::x86_64::*;

use super::portable;
use crate::backend::Layout;

/// Micro-tile rows (A broadcast values per depth step).
const MR: usize = 6;
/// Micro-tile columns (two 8-lane YMM registers).
const NR: usize = 16;

/// [`super::blocked_gemm`] with the 6×16 FMA tile, over a contiguous row
/// range of `C` (see [`crate::backend::ComputeBackend::gemm_rows`] for
/// the contract).
///
/// # Safety
///
/// Caller must guarantee the host supports AVX2 and FMA (checked once in
/// [`super::level`]). Slices too short for the dimensions panic.
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
    super::blocked_gemm::<MR, NR>(
        layout,
        m,
        k,
        n,
        a,
        b,
        c_rows,
        row0,
        |kb, ap, bp, c, cs, mr, nc| {
            // SAFETY: this function's contract guarantees AVX2+FMA, and
            // blocked_gemm hands over panels and a C window of the sizes
            // mk6x16 requires.
            unsafe { mk6x16(kb, ap, bp, c, cs, mr, nc) }
        },
    );
}

/// The 6×16 FMA micro-kernel: `C[mrows,ncols] += Ap·Bp` over one packed
/// depth run of `kb`.
///
/// # Safety
///
/// Requires AVX2+FMA. `ap` must hold `kb * MR` values, `bp` `kb * NR`,
/// and `c` an `mrows × ncols` window with row stride `c_stride`
/// (`mrows <= MR`, `ncols <= NR`).
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn mk6x16(
    kb: usize,
    ap: &[f32],
    bp: &[f32],
    c: &mut [f32],
    c_stride: usize,
    mrows: usize,
    ncols: usize,
) {
    debug_assert!(ap.len() >= kb * MR && bp.len() >= kb * NR);
    debug_assert!(mrows <= MR && ncols <= NR && c.len() >= (mrows - 1) * c_stride + ncols);
    let (ap, bp, c) = (ap.as_ptr(), bp.as_ptr(), c.as_mut_ptr());
    // SAFETY: (for every intrinsic below) AVX2+FMA availability is the
    // function's safety contract; all pointer arithmetic stays within the
    // slice lengths documented above.
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
