//! The AVX-512F GEMM tile (x86-64, runtime-detected).
//!
//! The micro-tile is 8×32: 8 rows × two 16-lane ZMM columns of `C` in 16
//! accumulator registers, fed by two packed-`B` loads and eight `A`
//! broadcasts per depth step (16 FMAs/step — FMA-port-bound on cores with
//! two 512-bit FMA units, which is where this level pays off over
//! [`super::avx2`]). Packing and blocking are [`super::blocked_gemm`]'s,
//! and each `C` element accumulates along `k` in one lane with the same
//! FMA order as the AVX2 tile, so the two give the same bits.
//!
//! Only the GEMM lives here: elementwise and reduction ops dispatch to the
//! AVX2-compiled portable bodies (their lane order is fixed in source, so
//! wider codegen could not change results, and they are load/store-bound
//! anyway).

use std::arch::x86_64::*;

use crate::backend::Layout;

/// Micro-tile rows (A broadcast values per depth step).
const MR: usize = 8;
/// Micro-tile columns (two 16-lane ZMM registers).
const NR: usize = 32;

/// [`super::blocked_gemm`] with the 8×32 AVX-512 tile, over a contiguous
/// row range of `C` (see [`crate::backend::ComputeBackend::gemm_rows`]
/// for the contract).
///
/// # Safety
///
/// Caller must guarantee the host supports AVX-512F (checked once in
/// [`super::level`]). Slices too short for the dimensions panic.
#[target_feature(enable = "avx512f")]
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
            // SAFETY: this function's contract guarantees AVX-512F, and
            // blocked_gemm hands over panels and a C window of the sizes
            // mk8x32 requires.
            unsafe { mk8x32(kb, ap, bp, c, cs, mr, nc) }
        },
    );
}

/// The 8×32 AVX-512 micro-kernel: `C[mrows,ncols] += Ap·Bp` over one
/// packed depth run of `kb`.
///
/// # Safety
///
/// Requires AVX-512F. `ap` must hold `kb * MR` values, `bp` `kb * NR`,
/// and `c` an `mrows × ncols` window with row stride `c_stride`
/// (`mrows <= MR`, `ncols <= NR`).
#[target_feature(enable = "avx512f")]
unsafe fn mk8x32(
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
    // SAFETY: (for every intrinsic below) AVX-512F availability is the
    // function's safety contract; all pointer arithmetic stays within the
    // slice lengths documented above.
    unsafe {
        let mut acc00 = _mm512_setzero_ps();
        let mut acc01 = _mm512_setzero_ps();
        let mut acc10 = _mm512_setzero_ps();
        let mut acc11 = _mm512_setzero_ps();
        let mut acc20 = _mm512_setzero_ps();
        let mut acc21 = _mm512_setzero_ps();
        let mut acc30 = _mm512_setzero_ps();
        let mut acc31 = _mm512_setzero_ps();
        let mut acc40 = _mm512_setzero_ps();
        let mut acc41 = _mm512_setzero_ps();
        let mut acc50 = _mm512_setzero_ps();
        let mut acc51 = _mm512_setzero_ps();
        let mut acc60 = _mm512_setzero_ps();
        let mut acc61 = _mm512_setzero_ps();
        let mut acc70 = _mm512_setzero_ps();
        let mut acc71 = _mm512_setzero_ps();
        let mut a = ap;
        let mut b = bp;
        // one depth step: 2 B loads + 8 A broadcasts feed 16 FMAs
        macro_rules! kstep {
            ($a:expr, $b:expr) => {{
                let b0 = _mm512_loadu_ps($b);
                let b1 = _mm512_loadu_ps($b.add(16));
                let a0 = _mm512_set1_ps(*$a);
                acc00 = _mm512_fmadd_ps(a0, b0, acc00);
                acc01 = _mm512_fmadd_ps(a0, b1, acc01);
                let a1 = _mm512_set1_ps(*$a.add(1));
                acc10 = _mm512_fmadd_ps(a1, b0, acc10);
                acc11 = _mm512_fmadd_ps(a1, b1, acc11);
                let a2 = _mm512_set1_ps(*$a.add(2));
                acc20 = _mm512_fmadd_ps(a2, b0, acc20);
                acc21 = _mm512_fmadd_ps(a2, b1, acc21);
                let a3 = _mm512_set1_ps(*$a.add(3));
                acc30 = _mm512_fmadd_ps(a3, b0, acc30);
                acc31 = _mm512_fmadd_ps(a3, b1, acc31);
                let a4 = _mm512_set1_ps(*$a.add(4));
                acc40 = _mm512_fmadd_ps(a4, b0, acc40);
                acc41 = _mm512_fmadd_ps(a4, b1, acc41);
                let a5 = _mm512_set1_ps(*$a.add(5));
                acc50 = _mm512_fmadd_ps(a5, b0, acc50);
                acc51 = _mm512_fmadd_ps(a5, b1, acc51);
                let a6 = _mm512_set1_ps(*$a.add(6));
                acc60 = _mm512_fmadd_ps(a6, b0, acc60);
                acc61 = _mm512_fmadd_ps(a6, b1, acc61);
                let a7 = _mm512_set1_ps(*$a.add(7));
                acc70 = _mm512_fmadd_ps(a7, b0, acc70);
                acc71 = _mm512_fmadd_ps(a7, b1, acc71);
            }};
        }
        // unroll the depth loop 2×; the FMA chain per accumulator is
        // unchanged, so results are bit-identical to the rolled form
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
            [acc60, acc61],
            [acc70, acc71],
        ];
        if mrows == MR && ncols == NR {
            // full tile: C += acc directly
            for (r, pair) in acc.iter().enumerate() {
                let cr = c.add(r * c_stride);
                _mm512_storeu_ps(cr, _mm512_add_ps(_mm512_loadu_ps(cr), pair[0]));
                let cr16 = cr.add(16);
                _mm512_storeu_ps(cr16, _mm512_add_ps(_mm512_loadu_ps(cr16), pair[1]));
            }
        } else {
            // edge tile: spill the full tile and add only the real lanes
            // (identical per-element values — lanes are independent)
            let mut tmp = [0.0f32; MR * NR];
            for (r, pair) in acc.iter().enumerate() {
                _mm512_storeu_ps(tmp.as_mut_ptr().add(r * NR), pair[0]);
                _mm512_storeu_ps(tmp.as_mut_ptr().add(r * NR + 16), pair[1]);
            }
            for (r, trow) in tmp.chunks_exact(NR).enumerate().take(mrows) {
                for (j, &v) in trow.iter().enumerate().take(ncols) {
                    *c.add(r * c_stride + j) += v;
                }
            }
        }
    }
}
