use crate::shape::broadcast_strides;
use crate::{broadcast_shapes, simd, TensorError};

/// Minimum element count before elementwise ops shard onto the thread
/// pool. Elementwise sharding is bitwise-invisible (each output element
/// depends only on its own inputs), so this is purely a cost threshold.
const ELEM_PAR_MIN: usize = 1 << 16;

/// Chunk length for sharded elementwise ops.
const ELEM_CHUNK: usize = 1 << 13;

/// Minimum element count before whole-tensor reductions switch from the
/// historical serial fold to the deterministic fixed-chunk tree. The
/// switch changes float grouping, so the threshold is part of the
/// numerical contract: it is compared against *length only* (never thread
/// count), keeping results bitwise identical across pool sizes, and it is
/// set above the largest tensor whose reduction feeds the pinned golden
/// traces.
const REDUCE_PAR_MIN: usize = 1 << 15;

/// Chunk length for the deterministic reduction tree.
const REDUCE_CHUNK: usize = 1 << 13;

/// Dispatch key routing [`Tensor::add`]/[`Tensor::sub`]/[`Tensor::mul`]/
/// [`Tensor::div`] onto the corresponding slice kernel.
#[derive(Clone, Copy)]
enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
}

impl BinOp {
    #[inline]
    fn apply(self, a: &[f32], b: &[f32], out: &mut [f32]) {
        match self {
            BinOp::Add => simd::add_slices(a, b, out),
            BinOp::Sub => simd::sub_slices(a, b, out),
            BinOp::Mul => simd::mul_slices(a, b, out),
            BinOp::Div => simd::div_slices(a, b, out),
        }
    }
}

/// A dense, contiguous, row-major `f32` tensor.
///
/// `Tensor` is the single data type flowing through the whole REX stack:
/// model parameters, activations, gradients, and dataset batches. Storage is
/// always contiguous, which keeps every op simple and cache-friendly; views
/// are deliberately not supported (ops allocate their outputs).
///
/// A scalar is represented as shape `[]` with exactly one element.
///
/// ```
/// use rex_tensor::Tensor;
///
/// let t = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3])?;
/// assert_eq!(t.sum(), 6.0);
/// # Ok::<(), rex_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Vec<usize>,
}

impl Default for Tensor {
    /// The scalar zero tensor.
    fn default() -> Self {
        Tensor::zeros(&[])
    }
}

impl Tensor {
    // ---------------------------------------------------------------------
    // Constructors
    // ---------------------------------------------------------------------

    /// Creates a tensor from raw data and a shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeDataMismatch`] if the shape's element
    /// count differs from `data.len()`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Result<Self, TensorError> {
        let n: usize = shape.iter().product();
        if n != data.len() {
            return Err(TensorError::ShapeDataMismatch {
                shape: shape.to_vec(),
                data_len: data.len(),
            });
        }
        Ok(Tensor {
            data,
            shape: shape.to_vec(),
        })
    }

    /// A tensor of zeros.
    pub fn zeros(shape: &[usize]) -> Self {
        Tensor {
            data: vec![0.0; shape.iter().product()],
            shape: shape.to_vec(),
        }
    }

    /// A tensor of ones.
    pub fn ones(shape: &[usize]) -> Self {
        Tensor::full(shape, 1.0)
    }

    /// A tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        Tensor {
            data: vec![value; shape.iter().product()],
            shape: shape.to_vec(),
        }
    }

    /// A rank-0 (scalar) tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            data: vec![value],
            shape: vec![],
        }
    }

    /// A tensor shaped like `other`, filled with zeros.
    pub fn zeros_like(other: &Tensor) -> Self {
        Tensor::zeros(other.shape())
    }

    /// Evenly spaced values: `start, start+step, ...` for `n` elements.
    pub fn arange(start: f32, step: f32, n: usize) -> Self {
        let data = (0..n).map(|i| start + step * i as f32).collect();
        Tensor {
            data,
            shape: vec![n],
        }
    }

    // ---------------------------------------------------------------------
    // Accessors
    // ---------------------------------------------------------------------

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of axes (0 for a scalar).
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its raw storage.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// The single value of a scalar or one-element tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor has more than one element.
    pub fn item(&self) -> f32 {
        assert!(
            self.data.len() == 1,
            "item() on tensor with {} elements (shape {:?})",
            self.data.len(),
            self.shape
        );
        self.data[0]
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if `idx` has the wrong rank or is out of bounds.
    pub fn at(&self, idx: &[usize]) -> f32 {
        self.data[self.offset(idx)]
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if `idx` has the wrong rank or is out of bounds.
    pub fn set(&mut self, idx: &[usize], value: f32) {
        let o = self.offset(idx);
        self.data[o] = value;
    }

    fn offset(&self, idx: &[usize]) -> usize {
        assert_eq!(idx.len(), self.shape.len(), "index rank mismatch");
        // row-major offset without allocating a strides vector (this runs
        // inside hot indexing loops)
        let mut off = 0;
        for (i, (&ix, &dim)) in idx.iter().zip(&self.shape).enumerate() {
            assert!(
                ix < dim,
                "index {ix} out of bounds for axis {i} (dim {dim})"
            );
            off = off * dim + ix;
        }
        off
    }

    // ---------------------------------------------------------------------
    // Shape manipulation
    // ---------------------------------------------------------------------

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ReshapeMismatch`] if element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> Result<Tensor, TensorError> {
        let n: usize = shape.iter().product();
        if n != self.data.len() {
            return Err(TensorError::ReshapeMismatch {
                from: self.shape.clone(),
                to: shape.to_vec(),
            });
        }
        Ok(Tensor {
            data: self.data.clone(),
            shape: shape.to_vec(),
        })
    }

    /// Flattens to rank 1.
    pub fn flatten(&self) -> Tensor {
        Tensor {
            data: self.data.clone(),
            shape: vec![self.data.len()],
        }
    }

    /// Transpose of a 2-D matrix.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-2-D inputs.
    pub fn transpose(&self) -> Result<Tensor, TensorError> {
        if self.ndim() != 2 {
            return Err(TensorError::RankMismatch {
                expected: "2-D matrix",
                got: self.shape.clone(),
            });
        }
        let (r, c) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0; r * c];
        for i in 0..r {
            for j in 0..c {
                out[j * r + i] = self.data[i * c + j];
            }
        }
        Ok(Tensor {
            data: out,
            shape: vec![c, r],
        })
    }

    /// Extracts row-major rows `rows` from a tensor whose first axis indexes
    /// samples, producing a new tensor stacked along axis 0. Used by the
    /// data loader to assemble batches.
    ///
    /// # Panics
    ///
    /// Panics if any row index is out of bounds or the tensor is rank 0.
    pub fn gather_rows(&self, rows: &[usize]) -> Tensor {
        assert!(self.ndim() >= 1, "gather_rows on scalar");
        let row_len: usize = self.shape[1..].iter().product();
        let mut data = Vec::with_capacity(rows.len() * row_len);
        for &r in rows {
            assert!(r < self.shape[0], "row {r} out of bounds");
            data.extend_from_slice(&self.data[r * row_len..(r + 1) * row_len]);
        }
        let mut shape = self.shape.clone();
        shape[0] = rows.len();
        Tensor { data, shape }
    }

    // ---------------------------------------------------------------------
    // Elementwise maps and arithmetic
    // ---------------------------------------------------------------------

    /// Elementwise map with the chunks sharded across the thread pool.
    /// Private because it requires `Sync`; the public entry points route
    /// their fixed closures through it. Bitwise identical to [`Tensor::map`]
    /// at any thread count (each output element depends only on its input).
    fn map_par(&self, f: impl Fn(f32) -> f32 + Sync) -> Tensor {
        if self.data.len() < ELEM_PAR_MIN || rex_pool::current_num_threads() == 1 {
            return self.map(f);
        }
        let mut data = vec![0.0f32; self.data.len()];
        rex_pool::parallel_for_slices(&mut data, ELEM_CHUNK, |_, offset, window| {
            let len = window.len();
            for (o, &x) in window.iter_mut().zip(&self.data[offset..offset + len]) {
                *o = f(x);
            }
        });
        Tensor {
            data,
            shape: self.shape.clone(),
        }
    }

    /// Equal-shape elementwise combine, sharded across the pool; the
    /// parallel sibling of [`Tensor::zip_map`] (same caveats as
    /// [`Tensor::map_par`]).
    fn zip_map_par(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32 + Sync) -> Tensor {
        let mut data = vec![0.0f32; self.data.len()];
        rex_pool::parallel_for_slices(&mut data, ELEM_CHUNK, |_, offset, window| {
            for (i, o) in window.iter_mut().enumerate() {
                *o = f(self.data[offset + i], other.data[offset + i]);
            }
        });
        Tensor {
            data,
            shape: self.shape.clone(),
        }
    }

    /// Broadcasting binary op with parallel equal-shape and scalar fast
    /// paths (the general strided walk stays serial — it is rare and
    /// cheap in every model here). Bitwise identical to
    /// [`Tensor::broadcast_op`] at any thread count.
    fn broadcast_op_par(
        &self,
        other: &Tensor,
        f: impl Fn(f32, f32) -> f32 + Sync,
    ) -> Result<Tensor, TensorError> {
        let n = self.data.len().max(other.data.len());
        if n < ELEM_PAR_MIN || rex_pool::current_num_threads() == 1 {
            return self.broadcast_op(other, f);
        }
        if self.shape == other.shape {
            return Ok(self.zip_map_par(other, &f));
        }
        if other.data.len() == 1 {
            let b = other.data[0];
            return Ok(self.map_par(|a| f(a, b)));
        }
        if self.data.len() == 1 {
            let a = self.data[0];
            return Ok(other.map_par(|b| f(a, b)));
        }
        self.broadcast_op(other, f)
    }

    /// Slice-kernel binary op. Equal shapes, scalar operands, and the
    /// `[.., c] ⊕ [c]` row-broadcast (bias) pattern run the vector slice
    /// kernels (the same on every backend); any other broadcast falls back
    /// to the historical closure walk. Every fast path is a pure
    /// elementwise map, so the result is bitwise identical at any thread
    /// count and matches the historical [`Tensor::broadcast_op`] bit for
    /// bit (scalar subtraction becomes `x + (-s)`, which IEEE 754 defines
    /// as the same operation).
    fn binary_slices(&self, other: &Tensor, op: BinOp) -> Result<Tensor, TensorError> {
        if self.shape == other.shape {
            let mut data = vec![0.0f32; self.data.len()];
            if self.data.len() < ELEM_PAR_MIN || rex_pool::current_num_threads() == 1 {
                op.apply(&self.data, &other.data, &mut data);
            } else {
                rex_pool::parallel_for_slices(&mut data, ELEM_CHUNK, |_, offset, window| {
                    let len = window.len();
                    op.apply(
                        &self.data[offset..offset + len],
                        &other.data[offset..offset + len],
                        window,
                    );
                });
            }
            return Ok(Tensor {
                data,
                shape: self.shape.clone(),
            });
        }
        if other.data.len() == 1 {
            let s = other.data[0];
            return match op {
                BinOp::Add => Ok(self.unary_slices(move |src, out| simd::add_scalar(s, src, out))),
                BinOp::Sub => Ok(self.unary_slices(move |src, out| simd::add_scalar(-s, src, out))),
                BinOp::Mul => Ok(self.unary_slices(move |src, out| simd::scale(s, src, out))),
                // x / s must stay a true division (not a multiply by 1/s)
                BinOp::Div => Ok(self.map_par(move |a| a / s)),
            };
        }
        if other.ndim() == 1 && self.ndim() >= 2 && self.shape.last() == Some(&other.data.len()) {
            // row-broadcast bias pattern: apply the slice kernel per row
            let c = other.data.len();
            let mut data = vec![0.0f32; self.data.len()];
            if data.is_empty() {
                return Ok(Tensor {
                    data,
                    shape: self.shape.clone(),
                });
            }
            let body = |offset: usize, window: &mut [f32]| {
                for (i, orow) in window.chunks_mut(c).enumerate() {
                    let r0 = offset / c + i;
                    op.apply(&self.data[r0 * c..(r0 + 1) * c], &other.data, orow);
                }
            };
            if self.data.len() < ELEM_PAR_MIN || rex_pool::current_num_threads() == 1 {
                body(0, &mut data);
            } else {
                // chunk on whole-row boundaries so each body call sees full rows
                let chunk = (ELEM_CHUNK / c).max(1) * c;
                rex_pool::parallel_for_slices(&mut data, chunk, |_, offset, window| {
                    body(offset, window);
                });
            }
            return Ok(Tensor {
                data,
                shape: self.shape.clone(),
            });
        }
        match op {
            BinOp::Add => self.broadcast_op_par(other, |a, b| a + b),
            BinOp::Sub => self.broadcast_op_par(other, |a, b| a - b),
            BinOp::Mul => self.broadcast_op_par(other, |a, b| a * b),
            BinOp::Div => self.broadcast_op_par(other, |a, b| a / b),
        }
    }

    /// Unary slice-kernel op (scale / add-scalar), sharded like
    /// [`Tensor::map_par`].
    fn unary_slices(&self, f: impl Fn(&[f32], &mut [f32]) + Sync) -> Tensor {
        let mut data = vec![0.0f32; self.data.len()];
        if self.data.len() < ELEM_PAR_MIN || rex_pool::current_num_threads() == 1 {
            f(&self.data, &mut data);
        } else {
            rex_pool::parallel_for_slices(&mut data, ELEM_CHUNK, |_, offset, window| {
                let len = window.len();
                f(&self.data[offset..offset + len], window);
            });
        }
        Tensor {
            data,
            shape: self.shape.clone(),
        }
    }

    /// Applies `f` elementwise, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            data: self.data.iter().map(|&x| f(x)).collect(),
            shape: self.shape.clone(),
        }
    }

    /// Combines two same-shaped tensors elementwise with `f`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::BroadcastMismatch`] if shapes differ (this is
    /// the strict, non-broadcasting variant; see [`Tensor::broadcast_op`]).
    pub fn zip_map(
        &self,
        other: &Tensor,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<Tensor, TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::BroadcastMismatch {
                lhs: self.shape.clone(),
                rhs: other.shape.clone(),
            });
        }
        Ok(Tensor {
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
            shape: self.shape.clone(),
        })
    }

    /// Applies a binary op under full NumPy-style broadcasting.
    ///
    /// Fast paths handle equal shapes and scalar operands; the general case
    /// walks the broadcast index space with per-axis strides.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::BroadcastMismatch`] if shapes are incompatible.
    pub fn broadcast_op(
        &self,
        other: &Tensor,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<Tensor, TensorError> {
        if self.shape == other.shape {
            return self.zip_map(other, f);
        }
        if other.data.len() == 1 {
            let b = other.data[0];
            return Ok(self.map(|a| f(a, b)));
        }
        if self.data.len() == 1 {
            let a = self.data[0];
            return Ok(other.map(|b| f(a, b)));
        }
        let out_shape = broadcast_shapes(&self.shape, &other.shape)?;
        let ls = broadcast_strides(&self.shape, &out_shape);
        let rs = broadcast_strides(&other.shape, &out_shape);
        let n: usize = out_shape.iter().product();
        let mut data = Vec::with_capacity(n);
        let mut idx = vec![0usize; out_shape.len()];
        let mut loff = 0usize;
        let mut roff = 0usize;
        for _ in 0..n {
            data.push(f(self.data[loff], other.data[roff]));
            // advance multi-index with stride bookkeeping
            for ax in (0..out_shape.len()).rev() {
                idx[ax] += 1;
                loff += ls[ax];
                roff += rs[ax];
                if idx[ax] < out_shape[ax] {
                    break;
                }
                idx[ax] = 0;
                loff -= ls[ax] * out_shape[ax];
                roff -= rs[ax] * out_shape[ax];
            }
        }
        Ok(Tensor {
            data,
            shape: out_shape,
        })
    }

    /// Elementwise sum with broadcasting.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::BroadcastMismatch`] on incompatible shapes.
    pub fn add(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.binary_slices(other, BinOp::Add)
    }

    /// Elementwise difference with broadcasting.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::BroadcastMismatch`] on incompatible shapes.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.binary_slices(other, BinOp::Sub)
    }

    /// Elementwise product with broadcasting.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::BroadcastMismatch`] on incompatible shapes.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.binary_slices(other, BinOp::Mul)
    }

    /// Elementwise quotient with broadcasting.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::BroadcastMismatch`] on incompatible shapes.
    pub fn div(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.binary_slices(other, BinOp::Div)
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f32) -> Tensor {
        self.unary_slices(move |src, out| simd::scale(s, src, out))
    }

    /// Adds `s` to every element.
    pub fn add_scalar(&self, s: f32) -> Tensor {
        self.unary_slices(move |src, out| simd::add_scalar(s, src, out))
    }

    /// In-place `self += other * alpha` for same-shaped tensors (the hot
    /// loop of every optimizer and gradient accumulation site).
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(
            self.shape, other.shape,
            "axpy shape mismatch {:?} vs {:?}",
            self.shape, other.shape
        );
        if self.data.len() >= ELEM_PAR_MIN && rex_pool::current_num_threads() > 1 {
            let src = &other.data;
            rex_pool::parallel_for_slices(&mut self.data, ELEM_CHUNK, |_, offset, window| {
                let len = window.len();
                simd::axpy(alpha, &src[offset..offset + len], window);
            });
        } else {
            simd::axpy(alpha, &other.data, &mut self.data);
        }
    }

    // ---------------------------------------------------------------------
    // Reductions
    // ---------------------------------------------------------------------

    /// Sum of all elements (folded by the active compute backend:
    /// [`crate::backend::ScalarBackend`] keeps the historical serial fold,
    /// [`crate::backend::SimdBackend`] uses its fixed 8-lane chunked fold).
    ///
    /// Tensors of at least `REDUCE_PAR_MIN` (2^15) elements reduce through the
    /// pool's fixed-chunk deterministic tree ([`rex_pool::parallel_reduce`])
    /// with the backend fold applied per chunk. Both the path and the chunk
    /// grid are chosen by *length alone* — never thread count — so within a
    /// backend the result is bitwise identical for any pool size.
    pub fn sum(&self) -> f32 {
        let be = crate::backend::active();
        if self.data.len() < REDUCE_PAR_MIN {
            return be.sum(&self.data);
        }
        rex_pool::parallel_reduce(
            self.data.len(),
            REDUCE_CHUNK,
            |_, r| be.sum(&self.data[r]),
            |a, b| a + b,
        )
        .unwrap_or(0.0)
    }

    /// Mean of all elements (0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element.
    ///
    /// # Panics
    ///
    /// Panics on an empty tensor.
    pub fn max(&self) -> f32 {
        assert!(!self.data.is_empty(), "max of empty tensor");
        let be = crate::backend::active();
        if self.data.len() < REDUCE_PAR_MIN {
            return be.max(&self.data);
        }
        // f32::max is associative and commutative (NaN-ignoring), so any
        // grouping yields the same value; the fixed tree is used for
        // uniformity with sum.
        rex_pool::parallel_reduce(
            self.data.len(),
            REDUCE_CHUNK,
            |_, r| be.max(&self.data[r]),
            f32::max,
        )
        .unwrap_or(f32::NEG_INFINITY)
    }

    /// Minimum element.
    ///
    /// # Panics
    ///
    /// Panics on an empty tensor.
    pub fn min(&self) -> f32 {
        assert!(!self.data.is_empty(), "min of empty tensor");
        let be = crate::backend::active();
        if self.data.len() < REDUCE_PAR_MIN {
            return be.min(&self.data);
        }
        rex_pool::parallel_reduce(
            self.data.len(),
            REDUCE_CHUNK,
            |_, r| be.min(&self.data[r]),
            f32::min,
        )
        .unwrap_or(f32::INFINITY)
    }

    /// Squared L2 norm (same deterministic chunked path as [`Tensor::sum`]
    /// from `REDUCE_PAR_MIN` elements on).
    pub fn sq_norm(&self) -> f32 {
        let be = crate::backend::active();
        if self.data.len() < REDUCE_PAR_MIN {
            return be.sq_sum(&self.data);
        }
        rex_pool::parallel_reduce(
            self.data.len(),
            REDUCE_CHUNK,
            |_, r| be.sq_sum(&self.data[r]),
            |a, b| a + b,
        )
        .unwrap_or(0.0)
    }

    /// Sums along `axis`, removing it from the shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::AxisOutOfRange`] if `axis >= ndim`.
    pub fn sum_axis(&self, axis: usize) -> Result<Tensor, TensorError> {
        if axis >= self.ndim() {
            return Err(TensorError::AxisOutOfRange {
                axis,
                ndim: self.ndim(),
            });
        }
        let outer: usize = self.shape[..axis].iter().product();
        let mid = self.shape[axis];
        let inner: usize = self.shape[axis + 1..].iter().product();
        let mut out = vec![0.0; outer * inner];
        for o in 0..outer {
            for m in 0..mid {
                let base = (o * mid + m) * inner;
                let obase = o * inner;
                for i in 0..inner {
                    out[obase + i] += self.data[base + i];
                }
            }
        }
        let mut shape: Vec<usize> = self.shape.clone();
        shape.remove(axis);
        Ok(Tensor { data: out, shape })
    }

    /// Reduces `grad` (shaped like a broadcast output) back to `target`
    /// shape by summing over the broadcast axes. This is the adjoint of
    /// broadcasting and is used by every broadcast-aware backward pass.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::BroadcastMismatch`] if `target` does not
    /// broadcast to `self.shape()`.
    pub fn reduce_to_shape(&self, target: &[usize]) -> Result<Tensor, TensorError> {
        if self.shape == target {
            return Ok(self.clone());
        }
        // Verify the relationship is a legal broadcast.
        let broad = broadcast_shapes(&self.shape, target)?;
        if broad != self.shape {
            return Err(TensorError::BroadcastMismatch {
                lhs: self.shape.clone(),
                rhs: target.to_vec(),
            });
        }
        let mut cur = self.clone();
        // Sum leading extra axes.
        while cur.ndim() > target.len() {
            cur = cur.sum_axis(0)?;
        }
        // Sum axes where target dim is 1 but current dim > 1 (keeping dim).
        for (ax, &target_dim) in target.iter().enumerate() {
            if target_dim == 1 && cur.shape[ax] != 1 {
                let summed = cur.sum_axis(ax)?;
                let mut shape = summed.shape.clone();
                shape.insert(ax, 1);
                cur = Tensor {
                    data: summed.data,
                    shape,
                };
            }
        }
        Ok(cur)
    }

    /// Index of the maximum element of each row of a 2-D tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-2-D inputs.
    pub fn argmax_rows(&self) -> Result<Vec<usize>, TensorError> {
        if self.ndim() != 2 {
            return Err(TensorError::RankMismatch {
                expected: "2-D matrix",
                got: self.shape.clone(),
            });
        }
        let (r, c) = (self.shape[0], self.shape[1]);
        let mut out = Vec::with_capacity(r);
        for i in 0..r {
            let row = &self.data[i * c..(i + 1) * c];
            let mut best = 0;
            for j in 1..c {
                if row[j] > row[best] {
                    best = j;
                }
            }
            out.push(best);
        }
        Ok(out)
    }

    // ---------------------------------------------------------------------
    // Linear algebra
    // ---------------------------------------------------------------------

    /// Matrix product of two 2-D tensors (`[m,k] x [k,n] -> [m,n]`).
    ///
    /// Lowers onto the blocked, branch-free GEMM in [`crate::kernels`];
    /// this is the single hottest kernel in the workspace.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::MatmulMismatch`] if either operand is not 2-D
    /// or the inner dimensions differ.
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        if self.ndim() != 2 || other.ndim() != 2 || self.shape[1] != other.shape[0] {
            return Err(TensorError::MatmulMismatch {
                lhs: self.shape.clone(),
                rhs: other.shape.clone(),
            });
        }
        let (m, k) = (self.shape[0], self.shape[1]);
        let n = other.shape[1];
        let mut out = vec![0.0f32; m * n];
        crate::kernels::gemm(m, k, n, &self.data, &other.data, &mut out);
        Ok(Tensor {
            data: out,
            shape: vec![m, n],
        })
    }

    /// `selfᵀ × other` without materialising the transpose.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::MatmulMismatch`] on shape mismatch.
    pub fn matmul_tn(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        if self.ndim() != 2 || other.ndim() != 2 || self.shape[0] != other.shape[0] {
            return Err(TensorError::MatmulMismatch {
                lhs: self.shape.clone(),
                rhs: other.shape.clone(),
            });
        }
        let (k, m) = (self.shape[0], self.shape[1]);
        let n = other.shape[1];
        let mut out = vec![0.0f32; m * n];
        crate::kernels::gemm_tn(m, k, n, &self.data, &other.data, &mut out);
        Ok(Tensor {
            data: out,
            shape: vec![m, n],
        })
    }

    /// `self × otherᵀ` without materialising the transpose.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::MatmulMismatch`] on shape mismatch.
    pub fn matmul_nt(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        if self.ndim() != 2 || other.ndim() != 2 || self.shape[1] != other.shape[1] {
            return Err(TensorError::MatmulMismatch {
                lhs: self.shape.clone(),
                rhs: other.shape.clone(),
            });
        }
        let (m, k) = (self.shape[0], self.shape[1]);
        let n = other.shape[0];
        let mut out = vec![0.0f32; m * n];
        crate::kernels::gemm_nt(m, k, n, &self.data, &other.data, &mut out);
        Ok(Tensor {
            data: out,
            shape: vec![m, n],
        })
    }
}

impl std::fmt::Display for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tensor{:?}", self.shape)?;
        if self.data.len() <= 16 {
            write!(f, " {:?}", self.data)?;
        } else {
            write!(
                f,
                " [{:.4}, {:.4}, ..., {:.4}] ({} elems)",
                self.data[0],
                self.data[1],
                self.data[self.data.len() - 1],
                self.data.len()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![1.0, 2.0], &[3]).is_err());
        assert!(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).is_ok());
    }

    #[test]
    fn scalar_roundtrip() {
        let s = Tensor::scalar(2.5);
        assert_eq!(s.ndim(), 0);
        assert_eq!(s.item(), 2.5);
    }

    #[test]
    fn arange_values() {
        let t = Tensor::arange(1.0, 0.5, 4);
        assert_eq!(t.data(), &[1.0, 1.5, 2.0, 2.5]);
    }

    #[test]
    fn add_same_shape() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![10.0, 20.0], &[2]).unwrap();
        assert_eq!(a.add(&b).unwrap().data(), &[11.0, 22.0]);
    }

    #[test]
    fn add_broadcast_bias() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let bias = Tensor::from_vec(vec![10.0, 20.0], &[2]).unwrap();
        let c = a.add(&bias).unwrap();
        assert_eq!(c.data(), &[11.0, 22.0, 13.0, 24.0]);
    }

    #[test]
    fn add_broadcast_column() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let col = Tensor::from_vec(vec![10.0, 100.0], &[2, 1]).unwrap();
        let c = a.add(&col).unwrap();
        assert_eq!(c.data(), &[11.0, 12.0, 103.0, 104.0]);
    }

    #[test]
    fn broadcast_incompatible_errors() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 4]);
        assert!(a.add(&b).is_err());
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]).unwrap();
        let b = Tensor::from_vec(vec![1.0, 0.0, 2.0, 1.0, 0.0, 3.0], &[3, 2]).unwrap();
        let direct = a.transpose().unwrap().matmul(&b).unwrap();
        let fused = a.matmul_tn(&b).unwrap();
        assert_eq!(direct, fused);
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]).unwrap();
        let direct = a.matmul(&b.transpose().unwrap()).unwrap();
        let fused = a.matmul_nt(&b).unwrap();
        assert_eq!(direct, fused);
    }

    #[test]
    fn sum_axis_middle() {
        let t = Tensor::arange(0.0, 1.0, 24).reshape(&[2, 3, 4]).unwrap();
        let s = t.sum_axis(1).unwrap();
        assert_eq!(s.shape(), &[2, 4]);
        // element (0,0) = t[0,0,0]+t[0,1,0]+t[0,2,0] = 0+4+8
        assert_eq!(s.at(&[0, 0]), 12.0);
    }

    #[test]
    fn reduce_to_shape_sums_broadcast_axes() {
        let g = Tensor::ones(&[4, 3]);
        let r = g.reduce_to_shape(&[3]).unwrap();
        assert_eq!(r.shape(), &[3]);
        assert_eq!(r.data(), &[4.0, 4.0, 4.0]);

        let r2 = g.reduce_to_shape(&[4, 1]).unwrap();
        assert_eq!(r2.shape(), &[4, 1]);
        assert_eq!(r2.data(), &[3.0, 3.0, 3.0, 3.0]);
    }

    #[test]
    fn reduce_to_shape_identity() {
        let g = Tensor::ones(&[2, 2]);
        assert_eq!(g.reduce_to_shape(&[2, 2]).unwrap(), g);
    }

    #[test]
    fn argmax_rows_basic() {
        let t = Tensor::from_vec(vec![0.1, 0.9, 0.0, 0.7, 0.2, 0.1], &[2, 3]).unwrap();
        assert_eq!(t.argmax_rows().unwrap(), vec![1, 0]);
    }

    #[test]
    fn gather_rows_stacks_samples() {
        let t = Tensor::arange(0.0, 1.0, 12).reshape(&[4, 3]).unwrap();
        let g = t.gather_rows(&[2, 0]);
        assert_eq!(g.shape(), &[2, 3]);
        assert_eq!(g.data(), &[6.0, 7.0, 8.0, 0.0, 1.0, 2.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::ones(&[3]);
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        a.axpy(0.5, &b);
        assert_eq!(a.data(), &[1.5, 2.0, 2.5]);
    }

    #[test]
    fn transpose_rectangular() {
        let t = Tensor::arange(0.0, 1.0, 6).reshape(&[2, 3]).unwrap();
        let tt = t.transpose().unwrap();
        assert_eq!(tt.shape(), &[3, 2]);
        assert_eq!(tt.at(&[2, 1]), t.at(&[1, 2]));
    }
}
