//! Portable 8-wide chunked kernel bodies.
//!
//! Every function here is written with an *explicit* lane structure —
//! 8-element chunks accumulated into an 8-slot array, folded with a fixed
//! pairwise tree, scalar tail last — so the float-operation order is part
//! of the source, not the codegen. The same body compiled at the baseline
//! ISA or re-compiled inside an AVX2 `#[target_feature]` wrapper (see
//! [`super::avx2`]) executes the identical operations in the identical
//! order and therefore produces bitwise-identical results; the wrapper only
//! changes *how fast* LLVM's autovectorizer lowers it.
//!
//! Elementwise maps have no accumulation order at all (each output element
//! depends on its own inputs only), so they are plain zipped loops that the
//! autovectorizer handles directly.

/// Lane width of the virtual vector unit. Matches one AVX2 register of
/// f32, and two SSE2 registers; the portable grouping is fixed to this
/// width on every target so reduction results do not depend on the ISA.
pub(crate) const LANES: usize = 8;

/// Folds an 8-slot lane accumulator with a fixed pairwise tree.
#[inline(always)]
fn fold_lanes(l: [f32; LANES], op: impl Fn(f32, f32) -> f32) -> f32 {
    op(
        op(op(l[0], l[1]), op(l[2], l[3])),
        op(op(l[4], l[5]), op(l[6], l[7])),
    )
}

// ---------------------------------------------------------------------------
// Elementwise
// ---------------------------------------------------------------------------

#[inline(always)]
pub(crate) fn add_slices(a: &[f32], b: &[f32], out: &mut [f32]) {
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = x + y;
    }
}

#[inline(always)]
pub(crate) fn sub_slices(a: &[f32], b: &[f32], out: &mut [f32]) {
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = x - y;
    }
}

#[inline(always)]
pub(crate) fn mul_slices(a: &[f32], b: &[f32], out: &mut [f32]) {
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = x * y;
    }
}

#[inline(always)]
pub(crate) fn div_slices(a: &[f32], b: &[f32], out: &mut [f32]) {
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = x / y;
    }
}

#[inline(always)]
pub(crate) fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    for (o, &v) in y.iter_mut().zip(x) {
        *o += alpha * v;
    }
}

#[inline(always)]
pub(crate) fn scale(s: f32, src: &[f32], out: &mut [f32]) {
    for (o, &v) in out.iter_mut().zip(src) {
        *o = v * s;
    }
}

#[inline(always)]
pub(crate) fn add_scalar(s: f32, src: &[f32], out: &mut [f32]) {
    for (o, &v) in out.iter_mut().zip(src) {
        *o = v + s;
    }
}

#[inline(always)]
pub(crate) fn relu(src: &[f32], out: &mut [f32]) {
    for (o, &v) in out.iter_mut().zip(src) {
        *o = v.max(0.0);
    }
}

// ---------------------------------------------------------------------------
// Reductions (fixed 8-lane grouping)
// ---------------------------------------------------------------------------

#[inline(always)]
pub(crate) fn sum(x: &[f32]) -> f32 {
    let mut lanes = [0.0f32; LANES];
    let mut chunks = x.chunks_exact(LANES);
    for c in &mut chunks {
        for (l, &v) in lanes.iter_mut().zip(c) {
            *l += v;
        }
    }
    let mut acc = fold_lanes(lanes, |a, b| a + b);
    for &v in chunks.remainder() {
        acc += v;
    }
    acc
}

#[inline(always)]
pub(crate) fn sq_sum(x: &[f32]) -> f32 {
    let mut lanes = [0.0f32; LANES];
    let mut chunks = x.chunks_exact(LANES);
    for c in &mut chunks {
        for (l, &v) in lanes.iter_mut().zip(c) {
            *l += v * v;
        }
    }
    let mut acc = fold_lanes(lanes, |a, b| a + b);
    for &v in chunks.remainder() {
        acc += v * v;
    }
    acc
}

#[inline(always)]
pub(crate) fn dot(a: &[f32], b: &[f32]) -> f32 {
    let mut lanes = [0.0f32; LANES];
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut ac = a.chunks_exact(LANES);
    let mut bc = b.chunks_exact(LANES);
    for (ca, cb) in (&mut ac).zip(&mut bc) {
        for ((l, &x), &y) in lanes.iter_mut().zip(ca).zip(cb) {
            *l += x * y;
        }
    }
    let mut acc = fold_lanes(lanes, |a, b| a + b);
    for (&x, &y) in ac.remainder().iter().zip(bc.remainder()) {
        acc += x * y;
    }
    acc
}

#[inline(always)]
pub(crate) fn max(x: &[f32]) -> f32 {
    let mut lanes = [f32::NEG_INFINITY; LANES];
    let mut chunks = x.chunks_exact(LANES);
    for c in &mut chunks {
        for (l, &v) in lanes.iter_mut().zip(c) {
            *l = l.max(v);
        }
    }
    let mut acc = fold_lanes(lanes, f32::max);
    for &v in chunks.remainder() {
        acc = acc.max(v);
    }
    acc
}

#[inline(always)]
pub(crate) fn min(x: &[f32]) -> f32 {
    let mut lanes = [f32::INFINITY; LANES];
    let mut chunks = x.chunks_exact(LANES);
    for c in &mut chunks {
        for (l, &v) in lanes.iter_mut().zip(c) {
            *l = l.min(v);
        }
    }
    let mut acc = fold_lanes(lanes, f32::min);
    for &v in chunks.remainder() {
        acc = acc.min(v);
    }
    acc
}

// ---------------------------------------------------------------------------
// Fused row kernels
// ---------------------------------------------------------------------------

/// Softmax of one row: lane-chunked max and sum; the transcendental `exp`
/// stays the scalar `std` call per element (identical on every path).
#[inline(always)]
pub(crate) fn softmax_row(row: &[f32], out: &mut [f32]) {
    let m = max(row);
    for (o, &v) in out.iter_mut().zip(row) {
        *o = (v - m).exp();
    }
    let inv = 1.0 / sum(out);
    for v in out.iter_mut() {
        *v *= inv;
    }
}

/// Log-softmax of one row (same lane structure as [`softmax_row`]).
#[inline(always)]
pub(crate) fn log_softmax_row(row: &[f32], out: &mut [f32]) {
    let m = max(row);
    for (o, &v) in out.iter_mut().zip(row) {
        *o = (v - m).exp();
    }
    let lse = m + sum(out).ln();
    for (o, &v) in out.iter_mut().zip(row) {
        *o = v - lse;
    }
}

/// `(mean, biased variance)` of one row via lane-chunked sums.
#[inline(always)]
pub(crate) fn mean_var_row(row: &[f32]) -> (f32, f32) {
    let d = row.len().max(1) as f32;
    let mean = sum(row) / d;
    let mut lanes = [0.0f32; LANES];
    let mut chunks = row.chunks_exact(LANES);
    for c in &mut chunks {
        for (l, &v) in lanes.iter_mut().zip(c) {
            let dv = v - mean;
            *l += dv * dv;
        }
    }
    let mut acc = fold_lanes(lanes, |a, b| a + b);
    for &v in chunks.remainder() {
        let dv = v - mean;
        acc += dv * dv;
    }
    (mean, acc / d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_has_fixed_grouping() {
        // 8-lane grouping: sum of 0..16 = (0+8)+(1+9)+... lane slots, then
        // pairwise folds — for these exact integers the value equals the
        // sequential sum, but the test pins the tail handling too.
        let xs: Vec<f32> = (0..19).map(|i| i as f32).collect();
        assert_eq!(sum(&xs), (0..19).sum::<i32>() as f32);
    }

    #[test]
    fn dot_matches_naive_to_rounding() {
        let a: Vec<f32> = (0..100).map(|i| (i as f32 * 0.31).sin()).collect();
        let b: Vec<f32> = (0..100).map(|i| (i as f32 * 0.17).cos()).collect();
        let naive: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert!((dot(&a, &b) - naive).abs() < 1e-4);
    }

    #[test]
    fn max_min_cover_tail() {
        let mut xs = vec![0.0f32; 17];
        xs[16] = 9.0; // tail position
        xs[3] = -9.0;
        assert_eq!(max(&xs), 9.0);
        assert_eq!(min(&xs), -9.0);
    }

    #[test]
    fn softmax_row_sums_to_one() {
        let row: Vec<f32> = (0..13).map(|i| (i as f32 * 0.7).sin() * 3.0).collect();
        let mut out = vec![0.0f32; 13];
        softmax_row(&row, &mut out);
        let s: f32 = out.iter().sum();
        assert!((s - 1.0).abs() < 1e-6);
    }
}
