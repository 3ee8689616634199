//! Free-standing numeric kernels shared by the autograd layer.
//!
//! These operate on [`Tensor`]s and implement the numerically-sensitive
//! primitives (stabilised softmax, log-sum-exp) plus common activations.

use crate::{Tensor, TensorError};

/// Minimum element count before an elementwise or row-wise op is worth
/// handing to the thread pool (each output element is computed from its
/// own inputs only, so sharding never changes float order).
const PAR_ELEMS: usize = 1 << 16;

/// Rows per chunk for the row-parallel softmax family — fixed so the
/// chunk grid depends only on the row count.
const ROW_CHUNK: usize = 32;

/// Applies `f` elementwise, sharding chunks of the output across the
/// thread pool above [`PAR_ELEMS`]. Per-element results are independent,
/// so this is bitwise identical to [`Tensor::map`] at any thread count.
fn unary_par(x: &Tensor, f: impl Fn(f32) -> f32 + Sync) -> Tensor {
    if x.len() < PAR_ELEMS || rex_pool::current_num_threads() == 1 {
        return x.map(f);
    }
    let src = x.data();
    let mut out = vec![0.0f32; src.len()];
    rex_pool::parallel_for_slices(&mut out, PAR_ELEMS / 8, |_, offset, window| {
        let len = window.len();
        for (o, &v) in window.iter_mut().zip(&src[offset..offset + len]) {
            *o = f(v);
        }
    });
    Tensor::from_vec(out, x.shape()).expect("shape preserved")
}

/// Runs `per_row(row_index, input_row, output_row)` over all `r` rows,
/// sharding [`ROW_CHUNK`]-row chunks across the pool for large inputs.
/// Rows are independent, so this is bitwise identical to the serial loop.
fn rowwise_par(
    r: usize,
    c: usize,
    input: &[f32],
    out: &mut [f32],
    per_row: impl Fn(&[f32], &mut [f32]) + Sync,
) {
    if r * c < PAR_ELEMS || rex_pool::current_num_threads() == 1 {
        for (row, orow) in input.chunks(c).zip(out.chunks_mut(c)) {
            per_row(row, orow);
        }
    } else {
        rex_pool::parallel_for_slices(out, ROW_CHUNK * c, |_, offset, window| {
            let rows = window.len() / c;
            let i0 = offset / c;
            for i in 0..rows {
                per_row(
                    &input[(i0 + i) * c..(i0 + i + 1) * c],
                    &mut window[i * c..(i + 1) * c],
                );
            }
        });
    }
}

/// Numerically-stable softmax over the last axis of a 2-D tensor.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-2-D inputs.
pub fn softmax_rows(x: &Tensor) -> Result<Tensor, TensorError> {
    let (r, c) = as_2d(x)?;
    let _sp = rex_telemetry::span::kernel_span("softmax");
    let mut out = vec![0.0f32; r * c];
    // backend resolved once so the row closure (which may run on pool
    // workers) uses the caller's backend
    let be = crate::backend::active();
    rowwise_par(r, c, x.data(), &mut out, |row, orow| {
        be.softmax_row(row, orow);
    });
    Tensor::from_vec(out, &[r, c])
}

/// Numerically-stable log-softmax over the last axis of a 2-D tensor.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-2-D inputs.
pub fn log_softmax_rows(x: &Tensor) -> Result<Tensor, TensorError> {
    let (r, c) = as_2d(x)?;
    let _sp = rex_telemetry::span::kernel_span("log_softmax");
    let mut out = vec![0.0f32; r * c];
    let be = crate::backend::active();
    rowwise_par(r, c, x.data(), &mut out, |row, orow| {
        be.log_softmax_row(row, orow);
    });
    Tensor::from_vec(out, &[r, c])
}

/// Rectified linear unit (one vector slice kernel for every backend;
/// elementwise, so results are bitwise identical at any thread count).
pub fn relu(x: &Tensor) -> Tensor {
    let src = x.data();
    let mut out = vec![0.0f32; src.len()];
    if src.len() < PAR_ELEMS || rex_pool::current_num_threads() == 1 {
        crate::simd::relu(src, &mut out);
    } else {
        rex_pool::parallel_for_slices(&mut out, PAR_ELEMS / 8, |_, offset, window| {
            crate::simd::relu(&src[offset..offset + window.len()], window);
        });
    }
    Tensor::from_vec(out, x.shape()).expect("shape preserved")
}

/// Leaky ReLU with slope `alpha` for negative inputs.
pub fn leaky_relu(x: &Tensor, alpha: f32) -> Tensor {
    unary_par(x, |v| if v >= 0.0 { v } else { alpha * v })
}

/// Logistic sigmoid, computed in the numerically-stable two-branch form.
pub fn sigmoid(x: &Tensor) -> Tensor {
    unary_par(x, sigmoid_scalar)
}

/// Scalar logistic sigmoid (stable for large |x|).
pub fn sigmoid_scalar(v: f32) -> f32 {
    if v >= 0.0 {
        1.0 / (1.0 + (-v).exp())
    } else {
        let e = v.exp();
        e / (1.0 + e)
    }
}

/// Hyperbolic tangent.
pub fn tanh(x: &Tensor) -> Tensor {
    unary_par(x, f32::tanh)
}

/// Gaussian error linear unit (tanh approximation, as used by BERT).
pub fn gelu(x: &Tensor) -> Tensor {
    unary_par(x, gelu_scalar)
}

/// Scalar GELU (tanh approximation).
pub fn gelu_scalar(v: f32) -> f32 {
    const C: f32 = 0.797_884_6; // sqrt(2/pi)
    0.5 * v * (1.0 + (C * (v + 0.044_715 * v * v * v)).tanh())
}

/// Derivative of the tanh-approximated GELU, used by the backward pass.
pub fn gelu_grad_scalar(v: f32) -> f32 {
    const C: f32 = 0.797_884_6;
    let inner = C * (v + 0.044_715 * v * v * v);
    let t = inner.tanh();
    let dinner = C * (1.0 + 3.0 * 0.044_715 * v * v);
    0.5 * (1.0 + t) + 0.5 * v * (1.0 - t * t) * dinner
}

fn as_2d(x: &Tensor) -> Result<(usize, usize), TensorError> {
    if x.ndim() != 2 {
        return Err(TensorError::RankMismatch {
            expected: "2-D matrix",
            got: x.shape().to_vec(),
        });
    }
    Ok((x.shape()[0], x.shape()[1]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f32, b: f32, tol: f32) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]).unwrap();
        let s = softmax_rows(&x).unwrap();
        for i in 0..2 {
            let sum: f32 = s.data()[i * 3..(i + 1) * 3].iter().sum();
            assert_close(sum, 1.0, 1e-6);
        }
    }

    #[test]
    fn softmax_stable_for_large_logits() {
        let x = Tensor::from_vec(vec![1000.0, 1000.0, 1000.0], &[1, 3]).unwrap();
        let s = softmax_rows(&x).unwrap();
        for &v in s.data() {
            assert_close(v, 1.0 / 3.0, 1e-6);
        }
    }

    #[test]
    fn log_softmax_consistent_with_softmax() {
        let x = Tensor::from_vec(vec![0.5, -0.5, 2.0, 1.0], &[2, 2]).unwrap();
        let s = softmax_rows(&x).unwrap();
        let ls = log_softmax_rows(&x).unwrap();
        for (a, b) in s.data().iter().zip(ls.data()) {
            assert_close(a.ln(), *b, 1e-5);
        }
    }

    #[test]
    fn sigmoid_stable_extremes() {
        assert_close(sigmoid_scalar(100.0), 1.0, 1e-6);
        assert_close(sigmoid_scalar(-100.0), 0.0, 1e-6);
        assert_close(sigmoid_scalar(0.0), 0.5, 1e-7);
    }

    #[test]
    fn relu_clamps_negatives() {
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0], &[3]).unwrap();
        assert_eq!(relu(&x).data(), &[0.0, 0.0, 2.0]);
        assert_eq!(leaky_relu(&x, 0.1).data(), &[-0.1, 0.0, 2.0]);
    }

    #[test]
    fn gelu_matches_reference_points() {
        // Reference values from the tanh approximation itself at known points.
        assert_close(gelu_scalar(0.0), 0.0, 1e-7);
        assert!(gelu_scalar(3.0) > 2.99);
        assert!(gelu_scalar(-3.0).abs() < 0.01);
    }

    #[test]
    fn gelu_grad_matches_finite_difference() {
        for &v in &[-2.0f32, -0.5, 0.0, 0.7, 1.5] {
            let h = 1e-3;
            let fd = (gelu_scalar(v + h) - gelu_scalar(v - h)) / (2.0 * h);
            assert_close(gelu_grad_scalar(v), fd, 1e-3);
        }
    }
}

/// Transposes the last two axes of a 3-D tensor (`[B,M,N] → [B,N,M]`).
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-3-D inputs.
pub fn transpose_last2(t: &Tensor) -> Result<Tensor, TensorError> {
    let (b, m, n) = dims3(t)?;
    let mut out = vec![0.0f32; b * m * n];
    let src = t.data();
    let slice_transpose = |s: usize, window: &mut [f32]| {
        for i in 0..m {
            for j in 0..n {
                window[j * m + i] = src[s * m * n + i * n + j];
            }
        }
    };
    if b >= 2 && b * m * n >= PAR_ELEMS && rex_pool::current_num_threads() > 1 {
        rex_pool::parallel_for_slices(&mut out, m * n, |s, _, w| slice_transpose(s, w));
    } else {
        for (s, w) in out.chunks_mut(m * n).enumerate() {
            slice_transpose(s, w);
        }
    }
    Tensor::from_vec(out, &[b, n, m])
}

/// Permutes a 4-D tensor's axes from `[B, X, Y, D]` to `[B, Y, X, D]`
/// (the multi-head attention head split/merge; self-inverse).
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-4-D inputs.
pub fn permute_0213(t: &Tensor) -> Result<Tensor, TensorError> {
    if t.ndim() != 4 {
        return Err(TensorError::RankMismatch {
            expected: "4-D tensor for 0213 permutation",
            got: t.shape().to_vec(),
        });
    }
    let (b, x, y, d) = (t.shape()[0], t.shape()[1], t.shape()[2], t.shape()[3]);
    let mut out = vec![0.0f32; t.len()];
    let data = t.data();
    let slice_permute = |s: usize, window: &mut [f32]| {
        for i in 0..x {
            for j in 0..y {
                let src = ((s * x + i) * y + j) * d;
                let dst = (j * x + i) * d;
                window[dst..dst + d].copy_from_slice(&data[src..src + d]);
            }
        }
    };
    if b >= 2 && t.len() >= PAR_ELEMS && rex_pool::current_num_threads() > 1 {
        rex_pool::parallel_for_slices(&mut out, x * y * d, |s, _, w| slice_permute(s, w));
    } else {
        for (s, w) in out.chunks_mut(x * y * d).enumerate() {
            slice_permute(s, w);
        }
    }
    Tensor::from_vec(out, &[b, y, x, d])
}

/// One batch slice `[rows, cols]` of a 3-D tensor, copied out as a matrix.
///
/// # Panics
///
/// Panics if the slice range exceeds the tensor's storage.
pub fn batch_slice(t: &Tensor, s: usize, rows: usize, cols: usize) -> Tensor {
    let base = s * rows * cols;
    Tensor::from_vec(t.data()[base..base + rows * cols].to_vec(), &[rows, cols])
        .expect("slice geometry is consistent")
}

fn dims3(t: &Tensor) -> Result<(usize, usize, usize), TensorError> {
    if t.ndim() != 3 {
        return Err(TensorError::RankMismatch {
            expected: "3-D tensor",
            got: t.shape().to_vec(),
        });
    }
    Ok((t.shape()[0], t.shape()[1], t.shape()[2]))
}

/// Batched matrix product of 3-D tensors: `[B,M,K] × [B,K,N] → [B,M,N]`.
///
/// Runs directly on the batch slices via [`crate::kernels::gemm_batch`] —
/// no per-batch copies are materialised (unlike the old
/// [`batch_slice`]-based path).
///
/// # Errors
///
/// Returns [`TensorError::MatmulMismatch`] on incompatible shapes.
pub fn matmul3(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    let (ba, m, k) = dims3(a)?;
    let (bb, k2, n) = dims3(b)?;
    if ba != bb || k != k2 {
        return Err(TensorError::MatmulMismatch {
            lhs: a.shape().to_vec(),
            rhs: b.shape().to_vec(),
        });
    }
    let mut out = vec![0.0f32; ba * m * n];
    crate::kernels::gemm_batch(ba, m, k, n, a.data(), b.data(), &mut out);
    Tensor::from_vec(out, &[ba, m, n])
}

/// Batched `g × bᵀ` per batch element (`[B,M,N] × [B,K,N] → [B,M,K]`),
/// without materialising transposes or batch copies.
///
/// # Errors
///
/// Returns [`TensorError::MatmulMismatch`] on incompatible shapes.
pub fn matmul3_nt(g: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    let (bs, m, n) = dims3(g)?;
    let (bs2, k, n2) = dims3(b)?;
    if bs != bs2 || n != n2 {
        return Err(TensorError::MatmulMismatch {
            lhs: g.shape().to_vec(),
            rhs: b.shape().to_vec(),
        });
    }
    let mut out = vec![0.0f32; bs * m * k];
    crate::kernels::gemm_batch_nt(bs, m, n, k, g.data(), b.data(), &mut out);
    Tensor::from_vec(out, &[bs, m, k])
}

/// Batched `aᵀ × g` per batch element (`[B,M,K] × [B,M,N] → [B,K,N]`),
/// without materialising transposes or batch copies.
///
/// # Errors
///
/// Returns [`TensorError::MatmulMismatch`] on incompatible shapes.
pub fn matmul3_tn(a: &Tensor, g: &Tensor) -> Result<Tensor, TensorError> {
    let (bs, m, k) = dims3(a)?;
    let (bs2, m2, n) = dims3(g)?;
    if bs != bs2 || m != m2 {
        return Err(TensorError::MatmulMismatch {
            lhs: a.shape().to_vec(),
            rhs: g.shape().to_vec(),
        });
    }
    let mut out = vec![0.0f32; bs * k * n];
    crate::kernels::gemm_batch_tn(bs, k, m, n, a.data(), g.data(), &mut out);
    Tensor::from_vec(out, &[bs, k, n])
}

/// Batched matrix product (alias of [`matmul3`], kept for callers that
/// predate the kernel rework).
///
/// # Errors
///
/// Returns [`TensorError::MatmulMismatch`] on incompatible shapes.
pub fn batch_matmul(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    matmul3(a, b)
}

/// Batched `aᵀ × g` (alias of [`matmul3_tn`]).
///
/// # Errors
///
/// Returns [`TensorError::MatmulMismatch`] on incompatible shapes.
pub fn batch_matmul_tn(a: &Tensor, g: &Tensor) -> Result<Tensor, TensorError> {
    matmul3_tn(a, g)
}

/// Concatenates tensors along axis 0; all trailing dims must match.
///
/// # Errors
///
/// Returns [`TensorError::BroadcastMismatch`] on trailing-shape mismatch or
/// an empty input list (reported against empty shapes).
pub fn concat_rows(parts: &[&Tensor]) -> Result<Tensor, TensorError> {
    let first = parts.first().ok_or(TensorError::BroadcastMismatch {
        lhs: vec![],
        rhs: vec![],
    })?;
    let tail = &first.shape()[1..];
    let mut rows = 0;
    for p in parts {
        if p.ndim() == 0 || &p.shape()[1..] != tail {
            return Err(TensorError::BroadcastMismatch {
                lhs: first.shape().to_vec(),
                rhs: p.shape().to_vec(),
            });
        }
        rows += p.shape()[0];
    }
    let mut data = Vec::with_capacity(rows * tail.iter().product::<usize>());
    for p in parts {
        data.extend_from_slice(p.data());
    }
    let mut shape = vec![rows];
    shape.extend_from_slice(tail);
    Tensor::from_vec(data, &shape)
}

/// Zero-pads the two trailing spatial axes of a `[N,C,H,W]` tensor by
/// `pad` on every side.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-4-D inputs.
pub fn pad2d(t: &Tensor, pad: usize) -> Result<Tensor, TensorError> {
    if t.ndim() != 4 {
        return Err(TensorError::RankMismatch {
            expected: "4-D [N,C,H,W] tensor",
            got: t.shape().to_vec(),
        });
    }
    let (n, c, h, w) = (t.shape()[0], t.shape()[1], t.shape()[2], t.shape()[3]);
    let (oh, ow) = (h + 2 * pad, w + 2 * pad);
    let mut out = Tensor::zeros(&[n, c, oh, ow]);
    let data = t.data();
    let pad_plane = |p: usize, window: &mut [f32]| {
        for y in 0..h {
            let src = (p * h + y) * w;
            let dst = (y + pad) * ow + pad;
            window[dst..dst + w].copy_from_slice(&data[src..src + w]);
        }
    };
    if n * c >= 2 && out.len() >= PAR_ELEMS && rex_pool::current_num_threads() > 1 {
        rex_pool::parallel_for_slices(out.data_mut(), oh * ow, |p, _, window| pad_plane(p, window));
    } else {
        for (p, window) in out.data_mut().chunks_mut(oh * ow).enumerate() {
            pad_plane(p, window);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod extended_tests {
    use super::*;
    use crate::Prng;

    #[test]
    fn transpose_last2_is_involution() {
        let mut rng = Prng::new(1);
        let t = rng.normal_tensor(&[2, 3, 4], 0.0, 1.0);
        let tt = transpose_last2(&transpose_last2(&t).unwrap()).unwrap();
        assert_eq!(t, tt);
    }

    #[test]
    fn permute_0213_is_involution() {
        let mut rng = Prng::new(2);
        let t = rng.normal_tensor(&[2, 3, 4, 5], 0.0, 1.0);
        let tt = permute_0213(&permute_0213(&t).unwrap()).unwrap();
        assert_eq!(t, tt);
    }

    #[test]
    fn batch_matmul_matches_per_slice() {
        let mut rng = Prng::new(3);
        let a = rng.normal_tensor(&[2, 3, 4], 0.0, 1.0);
        let b = rng.normal_tensor(&[2, 4, 2], 0.0, 1.0);
        let c = batch_matmul(&a, &b).unwrap();
        assert_eq!(c.shape(), &[2, 3, 2]);
        for s in 0..2 {
            let expect = batch_slice(&a, s, 3, 4)
                .matmul(&batch_slice(&b, s, 4, 2))
                .unwrap();
            assert_eq!(batch_slice(&c, s, 3, 2), expect);
        }
    }

    #[test]
    fn batch_transpose_variants_consistent() {
        let mut rng = Prng::new(4);
        let a = rng.normal_tensor(&[2, 3, 4], 0.0, 1.0);
        let b = rng.normal_tensor(&[2, 3, 5], 0.0, 1.0);
        // aᵀ b via batch_matmul_tn must equal transpose+batch_matmul
        let direct = batch_matmul_tn(&a, &b).unwrap();
        let at = transpose_last2(&a).unwrap();
        let explicit = batch_matmul(&at, &b).unwrap();
        for (x, y) in direct.data().iter().zip(explicit.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn concat_rows_stacks() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, 4.0, 5.0, 6.0], &[2, 2]).unwrap();
        let c = concat_rows(&[&a, &b]).unwrap();
        assert_eq!(c.shape(), &[3, 2]);
        assert_eq!(c.data(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        // trailing mismatch rejected
        let bad = Tensor::zeros(&[1, 3]);
        assert!(concat_rows(&[&a, &bad]).is_err());
        assert!(concat_rows(&[]).is_err());
    }

    #[test]
    fn pad2d_places_input_in_center() {
        let t = Tensor::ones(&[1, 1, 2, 2]);
        let p = pad2d(&t, 1).unwrap();
        assert_eq!(p.shape(), &[1, 1, 4, 4]);
        assert_eq!(p.sum(), 4.0);
        assert_eq!(p.at(&[0, 0, 0, 0]), 0.0);
        assert_eq!(p.at(&[0, 0, 1, 1]), 1.0);
        assert_eq!(p.at(&[0, 0, 2, 2]), 1.0);
    }
}
