//! Blocked, register-tiled f32 GEMM microkernels.
//!
//! This module is the single compute core every matrix product in the
//! workspace lowers onto: [`crate::Tensor::matmul`] and its fused-transpose
//! variants, the batched [`crate::ops::matmul3`] family feeding attention,
//! and the im2col convolution in [`crate::conv`].
//!
//! # Kernel structure
//!
//! All entry points compute `C += op(A) · op(B)` (accumulating — callers
//! zero `C` when they want a plain product, which lets the conv backward
//! pass accumulate per-sample weight gradients with no temporaries).
//!
//! Large products run the classic three-level blocked algorithm: `B` is
//! packed into a `KC×NC` panel and `A` into an `MC×KC` block (both drawn
//! from the thread-local [`crate::scratch`] pool), then a branch-free
//! microkernel walks the block with the `k`-loop unrolled 4× so every
//! `C`-row element is loaded and stored once per four multiply–adds. The
//! inner `j` loop is a straight-line FMA expression over exact-length
//! slices, which LLVM auto-vectorises. Products smaller than
//! `SMALL_FLOPS` (2^15 multiply–adds) skip packing entirely and use the
//! same unrolled loops directly on the operands (the packing memcpy would
//! dominate).
//!
//! Unlike the seed kernels there is **no** per-element `a == 0.0` skip:
//! on dense data the branch cost a mispredict opportunity per element and
//! blocked the vectoriser. (Consequence: `0·NaN` is now `NaN`, IEEE-754
//! semantics, where the seed silently skipped it.)
//!
//! # Threading
//!
//! Products of at least `PAR_FLOPS` (2^20 multiply–adds) shard the rows
//! of `C` — or the batch axis for the `gemm_batch*` family — onto the
//! persistent [`rex_pool`] worker pool in *fixed-size* chunks ([`MC`]
//! rows / one batch sample per chunk), so no thread is ever spawned in the
//! hot path and the chunk grid is a function of problem size alone. Each
//! chunk owns a disjoint `&mut` window of `C` and its own thread-local
//! scratch pool, and per-row accumulation order is independent of which
//! rows share a chunk, so results are bitwise identical at every thread
//! count (see the determinism contract in `rex_pool`). Thread count comes
//! from [`rex_pool::num_threads`]: `--threads` flag > `REX_NUM_THREADS` >
//! core count.

use crate::backend::Layout;
use crate::scratch::PooledBuf;

/// Rows of `A` per packed block (`MC × KC` block ≈ 64 KiB, L2-resident).
pub const MC: usize = 64;
/// Shared (depth) dimension per packed panel.
pub const KC: usize = 256;
/// Columns of `B` per packed panel (`KC × NC` panel ≈ 256 KiB; each
/// microkernel `C` row slice of `NC` f32 is 1 KiB, L1-resident).
pub const NC: usize = 256;

/// Below this many multiply–adds (`m·k·n`) the unpacked small-product
/// path runs instead of the blocked algorithm (the SIMD backend uses the
/// same gate to fall back to the scalar kernel, where packing would
/// dominate).
pub(crate) const SMALL_FLOPS: usize = 1 << 15;

/// Minimum `m·k·n` (times batch for the batched entry points) before work
/// is handed to the thread pool; below it, handoff cost dominates.
pub(crate) const PAR_FLOPS: usize = 1 << 20;

/// Number of worker threads for the compute layer.
///
/// Delegates to [`rex_pool::current_num_threads`] — resolved once per
/// process as `set_num_threads` (`--threads`) > `REX_NUM_THREADS` > core
/// count, with scoped overrides from `rex_pool::with_pool_size` honoured.
pub fn num_threads() -> usize {
    rex_pool::current_num_threads()
}

/// `C[m,n] += A[m,k] · B[k,n]` (all row-major slices).
///
/// # Panics
///
/// Panics if slice lengths disagree with the dimensions.
pub fn gemm(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    gemm_driver(Layout::Nn, m, k, n, a, b, c);
}

/// `C[m,n] += A[k,m]ᵀ · B[k,n]` without materialising the transpose.
///
/// # Panics
///
/// Panics if slice lengths disagree with the dimensions.
pub fn gemm_tn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    gemm_driver(Layout::Tn, m, k, n, a, b, c);
}

/// `C[m,n] += A[m,k] · B[n,k]ᵀ` without materialising the transpose.
///
/// # Panics
///
/// Panics if slice lengths disagree with the dimensions.
pub fn gemm_nt(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    gemm_driver(Layout::Nt, m, k, n, a, b, c);
}

/// Batched `C[s] += A[s] · B[s]` over `batch` independent `[m,k]×[k,n]`
/// products stored contiguously. Shards the batch axis across threads.
///
/// # Panics
///
/// Panics if slice lengths disagree with the dimensions.
pub fn gemm_batch(batch: usize, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    batch_driver(Layout::Nn, batch, m, k, n, a, b, c);
}

/// Batched `C[s] += A[s]ᵀ · B[s]` (`A[s]` is `[k,m]`).
///
/// # Panics
///
/// Panics if slice lengths disagree with the dimensions.
pub fn gemm_batch_tn(
    batch: usize,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    batch_driver(Layout::Tn, batch, m, k, n, a, b, c);
}

/// Batched `C[s] += A[s] · B[s]ᵀ` (`B[s]` is `[n,k]`).
///
/// # Panics
///
/// Panics if slice lengths disagree with the dimensions.
pub fn gemm_batch_nt(
    batch: usize,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    batch_driver(Layout::Nt, batch, m, k, n, a, b, c);
}

fn check_dims(layout: Layout, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &[f32]) {
    // every layout's operand holds the same element count, only the
    // logical row/col mapping differs
    let _ = layout;
    assert_eq!(a.len(), m * k, "gemm: A length {} != {m}x{k}", a.len());
    assert_eq!(b.len(), k * n, "gemm: B length {} != {k}x{n}", b.len());
    assert_eq!(c.len(), m * n, "gemm: C length {} != {m}x{n}", c.len());
}

fn gemm_driver(layout: Layout, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    check_dims(layout, m, k, n, a, b, c);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    // the driver runs on the submitting thread (the pool fans out
    // internally), so this span covers the whole op including fan-out
    let _sp = rex_telemetry::span::kernel_span("gemm");
    // resolve the backend once, before sharding: chunk bodies run on pool
    // workers, and the captured reference is what propagates a thread-local
    // `with_backend` override into them
    let be = crate::backend::active();
    if num_threads() > 1 && m > MC && m * k * n >= PAR_FLOPS {
        // MC-row chunks: the grid depends only on m, and each C row's
        // accumulation order is row-local, so any partition of the rows is
        // bitwise identical to the serial pass.
        rex_pool::parallel_for_slices(c, MC * n, |_, offset, rows| {
            be.gemm_rows(layout, m, k, n, a, b, rows, offset / n);
        });
    } else {
        be.gemm_rows(layout, m, k, n, a, b, c, 0);
    }
}

#[allow(clippy::too_many_arguments)]
fn batch_driver(
    layout: Layout,
    batch: usize,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    assert_eq!(a.len(), batch * m * k, "gemm_batch: A length mismatch");
    assert_eq!(b.len(), batch * k * n, "gemm_batch: B length mismatch");
    assert_eq!(c.len(), batch * m * n, "gemm_batch: C length mismatch");
    if batch == 0 || m == 0 || n == 0 || k == 0 {
        return;
    }
    let _sp = rex_telemetry::span::kernel_span("gemm_batch");
    let (sa, sb, sc) = (m * k, k * n, m * n);
    let be = crate::backend::active();
    let run_range = move |a: &[f32], b: &[f32], c: &mut [f32], s0: usize, count: usize| {
        for s in s0..s0 + count {
            be.gemm_rows(
                layout,
                m,
                k,
                n,
                &a[s * sa..(s + 1) * sa],
                &b[s * sb..(s + 1) * sb],
                &mut c[(s - s0) * sc..(s - s0 + 1) * sc],
                0,
            );
        }
    };
    if num_threads() > 1 && batch >= 2 && batch * m * k * n >= PAR_FLOPS {
        // one sample per chunk: sample products are fully independent
        rex_pool::parallel_for_slices(c, sc, |s, _, c_s| run_range(a, b, c_s, s, 1));
    } else {
        run_range(a, b, c, 0, batch);
    }
}

/// Computes rows `row0 .. row0 + c_rows.len()/n` of the product into
/// `c_rows` (a contiguous row-range of `C`) with the historical scalar
/// kernels — the [`crate::backend::ScalarBackend`] GEMM implementation.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_rows_scalar(
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
    if m * k * n < SMALL_FLOPS {
        return match layout {
            Layout::Nn => micro(rows, k, n, &a[row0 * k..], k, b, n, c_rows, n),
            Layout::Tn => small_tn(rows, k, m, n, a, b, c_rows, row0),
            Layout::Nt => small_nt(rows, k, n, a, b, c_rows, row0),
        };
    }
    if matches!(layout, Layout::Nn) && k <= KC && n <= NC {
        // the whole problem fits one cache block: packing would be a
        // plain copy, so run the microkernel on the operands in place
        return micro(rows, k, n, &a[row0 * k..], k, b, n, c_rows, n);
    }
    let mut apack = PooledBuf::zeroed(MC * KC);
    let mut bpack = PooledBuf::zeroed(KC * NC);
    for j0 in (0..n).step_by(NC) {
        let nb = NC.min(n - j0);
        for k0 in (0..k).step_by(KC) {
            let kb = KC.min(k - k0);
            pack_b(layout, b, k, n, k0, kb, j0, nb, &mut bpack);
            for i0 in (0..rows).step_by(MC) {
                let mb = MC.min(rows - i0);
                pack_a(layout, a, m, k, row0 + i0, mb, k0, kb, &mut apack);
                micro(
                    mb,
                    kb,
                    nb,
                    &apack,
                    kb,
                    &bpack,
                    nb,
                    &mut c_rows[i0 * n + j0..],
                    n,
                );
            }
        }
    }
}

/// Packs an `mb × kb` block of `op(A)` (rows `row..row+mb`, depth
/// `k0..k0+kb`) into contiguous `kb`-wide rows of `apack`.
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
    apack: &mut [f32],
) {
    match layout {
        Layout::Nn | Layout::Nt => {
            for i in 0..mb {
                apack[i * kb..(i + 1) * kb]
                    .copy_from_slice(&a[(row + i) * k + k0..(row + i) * k + k0 + kb]);
            }
        }
        Layout::Tn => {
            // A is [k, m]; gather its columns into rows of the pack
            for p in 0..kb {
                let src = &a[(k0 + p) * m + row..(k0 + p) * m + row + mb];
                for (i, &v) in src.iter().enumerate() {
                    apack[i * kb + p] = v;
                }
            }
        }
    }
}

/// Packs a `kb × nb` panel of `op(B)` (depth `k0..k0+kb`, columns
/// `j0..j0+nb`) into contiguous `nb`-wide rows of `bpack`.
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
    bpack: &mut [f32],
) {
    match layout {
        Layout::Nn | Layout::Tn => {
            for p in 0..kb {
                bpack[p * nb..(p + 1) * nb]
                    .copy_from_slice(&b[(k0 + p) * n + j0..(k0 + p) * n + j0 + nb]);
            }
        }
        Layout::Nt => {
            // B is [n, k]; transpose its rows into the panel
            for j in 0..nb {
                let src = &b[(j0 + j) * k + k0..(j0 + j) * k + k0 + kb];
                for (p, &v) in src.iter().enumerate() {
                    bpack[p * nb + j] = v;
                }
            }
        }
    }
}

/// The branch-free microkernel: `C[mb,nb] += A[mb,kb] · B[kb,nb]` over
/// strided row-major operands, register-tiled 2 rows × 4 depths — each
/// loaded group of four `B` rows feeds eight FMA-shaped updates across two
/// `C` rows. Also serves as the unpacked small-product path for the NN
/// layout (`a_stride = k`, `b_stride = n`).
#[allow(clippy::too_many_arguments)]
fn micro(
    mb: usize,
    kb: usize,
    nb: usize,
    a: &[f32],
    a_stride: usize,
    b: &[f32],
    b_stride: usize,
    c: &mut [f32],
    c_stride: usize,
) {
    let mut i = 0;
    while i + 2 <= mb {
        let ar0 = &a[i * a_stride..i * a_stride + kb];
        let ar1 = &a[(i + 1) * a_stride..(i + 1) * a_stride + kb];
        let (head, tail) = c.split_at_mut((i + 1) * c_stride);
        let crow0 = &mut head[i * c_stride..i * c_stride + nb];
        let crow1 = &mut tail[..nb];
        let mut p = 0;
        while p + 4 <= kb {
            let (x0, x1, x2, x3) = (ar0[p], ar0[p + 1], ar0[p + 2], ar0[p + 3]);
            let (y0, y1, y2, y3) = (ar1[p], ar1[p + 1], ar1[p + 2], ar1[p + 3]);
            let b0 = &b[p * b_stride..p * b_stride + nb];
            let b1 = &b[(p + 1) * b_stride..(p + 1) * b_stride + nb];
            let b2 = &b[(p + 2) * b_stride..(p + 2) * b_stride + nb];
            let b3 = &b[(p + 3) * b_stride..(p + 3) * b_stride + nb];
            for j in 0..nb {
                let (u0, u1, u2, u3) = (b0[j], b1[j], b2[j], b3[j]);
                crow0[j] += x0 * u0 + x1 * u1 + x2 * u2 + x3 * u3;
                crow1[j] += y0 * u0 + y1 * u1 + y2 * u2 + y3 * u3;
            }
            p += 4;
        }
        while p < kb {
            let (xp, yp) = (ar0[p], ar1[p]);
            let brow = &b[p * b_stride..p * b_stride + nb];
            for j in 0..nb {
                crow0[j] += xp * brow[j];
                crow1[j] += yp * brow[j];
            }
            p += 1;
        }
        i += 2;
    }
    if i < mb {
        let arow = &a[i * a_stride..i * a_stride + kb];
        let crow = &mut c[i * c_stride..i * c_stride + nb];
        let mut p = 0;
        while p + 4 <= kb {
            let (a0, a1, a2, a3) = (arow[p], arow[p + 1], arow[p + 2], arow[p + 3]);
            let b0 = &b[p * b_stride..p * b_stride + nb];
            let b1 = &b[(p + 1) * b_stride..(p + 1) * b_stride + nb];
            let b2 = &b[(p + 2) * b_stride..(p + 2) * b_stride + nb];
            let b3 = &b[(p + 3) * b_stride..(p + 3) * b_stride + nb];
            for j in 0..nb {
                crow[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
            }
            p += 4;
        }
        while p < kb {
            let ap = arow[p];
            let brow = &b[p * b_stride..p * b_stride + nb];
            for j in 0..nb {
                crow[j] += ap * brow[j];
            }
            p += 1;
        }
    }
}

/// Small-product TN path: accumulates `Aᵀ·B` in depth-major order so both
/// operand rows stream contiguously (`A` is `[k,m]`).
#[allow(clippy::too_many_arguments)]
fn small_tn(
    rows: usize,
    k: usize,
    m: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c_rows: &mut [f32],
    row0: usize,
) {
    for p in 0..k {
        let arow = &a[p * m + row0..p * m + row0 + rows];
        let brow = &b[p * n..(p + 1) * n];
        for (i, &ai) in arow.iter().enumerate() {
            let crow = &mut c_rows[i * n..i * n + n];
            for j in 0..n {
                crow[j] += ai * brow[j];
            }
        }
    }
}

/// Small-product NT path: per-element dot products with four running
/// accumulators over the shared dimension (`B` is `[n,k]`).
fn small_nt(
    rows: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c_rows: &mut [f32],
    row0: usize,
) {
    for i in 0..rows {
        let arow = &a[(row0 + i) * k..(row0 + i) * k + k];
        for j in 0..n {
            let brow = &b[j * k..j * k + k];
            let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
            let mut p = 0;
            while p + 4 <= k {
                s0 += arow[p] * brow[p];
                s1 += arow[p + 1] * brow[p + 1];
                s2 += arow[p + 2] * brow[p + 2];
                s3 += arow[p + 3] * brow[p + 3];
                p += 4;
            }
            let mut acc = (s0 + s1) + (s2 + s3);
            while p < k {
                acc += arow[p] * brow[p];
                p += 1;
            }
            c_rows[i * n + j] += acc;
        }
    }
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

    fn close(a: f32, b: f32) -> bool {
        (a - b).abs() <= 1e-4 * (1.0 + a.abs().max(b.abs()))
    }

    /// Sizes chosen to cross every block boundary (MC=64, KC=NC=256) and
    /// to exercise the small path and the 4x-unroll remainders.
    const CASES: &[(usize, usize, usize)] = &[
        (1, 1, 1),
        (3, 5, 7),
        (4, 8, 4),
        (17, 9, 13),
        (65, 300, 70),
        (70, 130, 300),
        (130, 257, 259),
    ];

    #[test]
    fn gemm_nn_matches_naive() {
        for &(m, k, n) in CASES {
            let mut rng = Prng::new((m * 1000 + k * 10 + n) as u64);
            let a: Vec<f32> = (0..m * k).map(|_| rng.normal()).collect();
            let b: Vec<f32> = (0..k * n).map(|_| rng.normal()).collect();
            let expect = naive_nn(m, k, n, &a, &b);
            let mut c = vec![0.0f32; m * n];
            gemm(m, k, n, &a, &b, &mut c);
            for (x, y) in c.iter().zip(&expect) {
                assert!(close(*x, *y), "({m},{k},{n}): {x} vs {y}");
            }
        }
    }

    #[test]
    fn gemm_tn_matches_naive_on_transpose() {
        for &(m, k, n) in CASES {
            let mut rng = Prng::new((m + k + n) as u64);
            // A stored [k, m]
            let a: Vec<f32> = (0..k * m).map(|_| rng.normal()).collect();
            let b: Vec<f32> = (0..k * n).map(|_| rng.normal()).collect();
            let mut at = vec![0.0f32; m * k];
            for p in 0..k {
                for i in 0..m {
                    at[i * k + p] = a[p * m + i];
                }
            }
            let expect = naive_nn(m, k, n, &at, &b);
            let mut c = vec![0.0f32; m * n];
            gemm_tn(m, k, n, &a, &b, &mut c);
            for (x, y) in c.iter().zip(&expect) {
                assert!(close(*x, *y), "({m},{k},{n}): {x} vs {y}");
            }
        }
    }

    #[test]
    fn gemm_nt_matches_naive_on_transpose() {
        for &(m, k, n) in CASES {
            let mut rng = Prng::new((m * 7 + k * 3 + n) as u64);
            let a: Vec<f32> = (0..m * k).map(|_| rng.normal()).collect();
            // B stored [n, k]
            let b: Vec<f32> = (0..n * k).map(|_| rng.normal()).collect();
            let mut bt = vec![0.0f32; k * n];
            for j in 0..n {
                for p in 0..k {
                    bt[p * n + j] = b[j * k + p];
                }
            }
            let expect = naive_nn(m, k, n, &a, &bt);
            let mut c = vec![0.0f32; m * n];
            gemm_nt(m, k, n, &a, &b, &mut c);
            for (x, y) in c.iter().zip(&expect) {
                assert!(close(*x, *y), "({m},{k},{n}): {x} vs {y}");
            }
        }
    }

    #[test]
    fn gemm_accumulates_into_c() {
        let a = [1.0f32, 2.0, 3.0, 4.0];
        let b = [1.0f32, 0.0, 0.0, 1.0];
        let mut c = [10.0f32, 20.0, 30.0, 40.0];
        gemm(2, 2, 2, &a, &b, &mut c);
        assert_eq!(c, [11.0, 22.0, 33.0, 44.0]);
    }

    #[test]
    fn gemm_batch_matches_per_slice() {
        let (batch, m, k, n) = (3, 5, 6, 4);
        let mut rng = Prng::new(99);
        let a: Vec<f32> = (0..batch * m * k).map(|_| rng.normal()).collect();
        let b: Vec<f32> = (0..batch * k * n).map(|_| rng.normal()).collect();
        let mut c = vec![0.0f32; batch * m * n];
        gemm_batch(batch, m, k, n, &a, &b, &mut c);
        for s in 0..batch {
            let expect = naive_nn(
                m,
                k,
                n,
                &a[s * m * k..(s + 1) * m * k],
                &b[s * k * n..(s + 1) * k * n],
            );
            for (x, y) in c[s * m * n..(s + 1) * m * n].iter().zip(&expect) {
                assert!(close(*x, *y), "slice {s}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn zero_times_nan_propagates() {
        // The seed kernels skipped a == 0.0, silently converting 0*NaN to
        // 0. The branch-free kernel must follow IEEE-754: this doubles as
        // the regression test that dense inputs take the branch-free path.
        let a = [0.0f32, 0.0, 0.0, 0.0];
        let b = [f32::NAN, 1.0, 2.0, 3.0];
        let mut c = [0.0f32; 4];
        gemm(2, 2, 2, &a, &b, &mut c);
        // column 0 multiplies the NaN; column 1 never touches it
        assert!(
            c[0].is_nan(),
            "zero-skip branch resurfaced: 0*NaN was dropped"
        );
        assert!(c[2].is_nan(), "zero-skip branch resurfaced in row 1");
        assert_eq!(c[1], 0.0);
        assert_eq!(c[3], 0.0);
    }

    #[test]
    fn empty_dims_are_noops() {
        let mut c = [1.0f32; 4];
        gemm(2, 0, 2, &[], &[], &mut c);
        assert_eq!(c, [1.0; 4]);
        gemm(0, 3, 0, &[], &[], &mut []);
    }
}
