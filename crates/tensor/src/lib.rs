//! # rex-tensor
//!
//! A small, dependency-free, row-major `f32` tensor engine built for the
//! [REX budgeted-training reproduction](https://arxiv.org/abs/2107.04197).
//!
//! The crate provides exactly what a from-scratch CPU deep-learning stack
//! needs and nothing more:
//!
//! * [`Tensor`] — contiguous row-major storage with shape metadata,
//!   constructors, elementwise arithmetic with NumPy-style broadcasting,
//!   reductions, matrix multiplication, and activations.
//! * [`backend`] — the [`backend::ComputeBackend`] trait behind the ops
//!   whose float order differs between backends (GEMM, reductions, fused
//!   rows): the historical [`backend::ScalarBackend`] and a
//!   runtime-dispatched [`backend::SimdBackend`] (an AVX-512F or AVX2+FMA
//!   GEMM tile, 8-wide chunked reductions), selected via `REX_BACKEND` /
//!   `--backend` / auto-detection. Elementwise maps and im2col/col2im run
//!   one body on every backend.
//! * [`kernels`] — the blocked, register-tiled f32 GEMM every matrix
//!   product lowers onto, with optional `REX_NUM_THREADS` row sharding.
//! * [`conv`] — 2-D convolution and pooling lowered onto the GEMM via
//!   [`im2col`], with explicit backward passes (consumed by
//!   `rex-autograd`) and pooled scratch buffers ([`scratch`]).
//! * [`reference`](mod@reference) — the seed's naive kernels, kept as the parity-test
//!   oracle (for **both** backends) and the `kernel-bench` baseline.
//! * [`rng`] — a deterministic xoshiro256\*\*-based PRNG ([`rng::Prng`]) with
//!   uniform/normal sampling and weight-initialisation helpers, so every
//!   experiment in the workspace is seed-reproducible across platforms.
//!
//! # Example
//!
//! ```
//! use rex_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::ones(&[2, 2]);
//! let c = a.matmul(&b)?;
//! assert_eq!(c.shape(), &[2, 2]);
//! assert_eq!(c.data(), &[3.0, 3.0, 7.0, 7.0]);
//! # Ok::<(), rex_tensor::TensorError>(())
//! ```

#![warn(missing_docs)]
#![deny(clippy::missing_safety_doc)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod backend;
pub mod conv;
pub mod dtype;
mod error;
pub mod im2col;
pub mod kernels;
pub mod ops;
pub mod reference;
pub mod rng;
pub mod scratch;
mod shape;
mod simd;
mod tensor;

pub use backend::{BackendKind, ComputeBackend};
pub use dtype::DType;
pub use error::TensorError;
pub use rng::Prng;
pub use shape::{broadcast_shapes, strides_for};
pub use tensor::Tensor;
