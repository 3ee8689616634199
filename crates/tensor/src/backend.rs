//! The compute-backend abstraction: the ops whose float order differs
//! between backends sit behind the [`ComputeBackend`] trait, with two
//! implementations behind one dispatch point.
//!
//! * [`ScalarBackend`] — the historical paths in [`crate::kernels`] and the
//!   serial folds: plain Rust loops whose float order is the crate's
//!   long-standing numerical contract.
//! * [`SimdBackend`] — the crate's runtime-dispatched vector kernels: an
//!   AVX-512F or AVX2+FMA GEMM micro-tile (both give the same bits), and
//!   8-lane chunked reductions and row kernels (compiled with AVX2 where
//!   the host has it). A host without AVX2+FMA has no vector GEMM, and
//!   `auto` resolves to [`ScalarBackend`] there.
//!
//! Ops that compute the same values whatever the backend — the elementwise
//! maps, im2col and col2im — are not on the trait: every backend runs one
//! body for each, so forcing a backend never changes them.
//!
//! # Dispatch order
//!
//! [`active`] resolves, in priority order:
//!
//! 1. the innermost [`with_backend`] scope on the current thread (tests),
//! 2. the process-wide pin from [`set_backend`] (the `--backend` CLI flag),
//! 3. the `REX_BACKEND` env var (`scalar` | `simd` | `auto`),
//! 4. `auto`: [`SimdBackend`] when the host has a vector GEMM tile,
//!    [`ScalarBackend`] otherwise.
//!
//! Drivers resolve the backend **once** per entry point, before any work is
//! sharded onto [`rex_pool`], and capture the resolved reference in their
//! parallel closures — so a thread-local [`with_backend`] override applies
//! to the whole operation even though chunk bodies run on worker threads.
//!
//! # Determinism scope
//!
//! Bitwise determinism holds *within* a backend: for a fixed backend (and,
//! for [`SimdBackend`], whether the host has a vector GEMM), every op
//! produces bit-identical results at any thread count, because chunk grids
//! depend only on problem size and per-element accumulation order is
//! independent of the partition (see `rex_pool`). *Across* backends results
//! agree only to rounding (reductions reassociate; the SIMD GEMM uses FMA),
//! which is why the naive [`crate::reference`] oracles remain the parity
//! court for both.

use std::cell::RefCell;
use std::sync::OnceLock;

use crate::{kernels, simd};

/// Identifies a compute backend (the value of `REX_BACKEND` / `--backend`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// The historical scalar kernels ([`ScalarBackend`]).
    Scalar,
    /// Runtime-dispatched vectorized kernels ([`SimdBackend`]).
    Simd,
}

impl BackendKind {
    /// Parses a backend name as accepted by `REX_BACKEND` / `--backend`.
    /// `auto` resolves to the detected best backend for this host.
    ///
    /// # Errors
    ///
    /// Returns a descriptive message for anything other than
    /// `scalar` | `simd` | `auto`.
    pub fn parse(name: &str) -> Result<BackendKind, String> {
        match name.trim().to_ascii_lowercase().as_str() {
            "scalar" => Ok(BackendKind::Scalar),
            "simd" => Ok(BackendKind::Simd),
            "auto" => Ok(auto_kind()),
            other => Err(format!(
                "unknown backend {other:?} (expected scalar | simd | auto)"
            )),
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BackendKind::Scalar => "scalar",
            BackendKind::Simd => "simd",
        })
    }
}

/// Operand layout of a GEMM `C += op(A)·op(B)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// `A[m,k] · B[k,n]`
    Nn,
    /// `A[k,m]ᵀ · B[k,n]`
    Tn,
    /// `A[m,k] · B[n,k]ᵀ`
    Nt,
}

/// The tensor crate's compute interface: the serial kernels whose float
/// order differs between backends (the GEMM, reductions and fused rows).
///
/// Threading is *not* part of the trait — drivers in [`crate::kernels`],
/// [`crate::ops`], and `Tensor` own the chunk grids (which are part of
/// the determinism contract) and call these methods from chunk bodies.
/// Every method must be deterministic: for fixed inputs the output is a
/// pure function of the arguments, with a fixed float-operation order.
pub trait ComputeBackend: Sync {
    /// Which backend this is.
    fn kind(&self) -> BackendKind;

    /// Stable short name (`"scalar"` / `"simd"`), used in artifacts.
    fn name(&self) -> &'static str;

    /// The instruction-set level the backend executes with on this host
    /// (`"none"` for scalar; `"avx512f"` / `"avx2+fma"` / `"portable"` for
    /// SIMD). Part of golden-trace provenance: bitwise reproducibility of
    /// GEMM-derived results is scoped to a backend and whether its level
    /// has a vector GEMM (`avx512f` and `avx2+fma` give the same bits).
    fn simd_level(&self) -> &'static str;

    // -- GEMM ------------------------------------------------------------

    /// Computes rows `row0 .. row0 + c_rows.len()/n` of `C += op(A)·op(B)`
    /// into `c_rows` (a contiguous row range of the full `[m, n]` output).
    /// Serial: the caller owns row sharding. Accumulation order along `k`
    /// must depend only on `(k, layout)` — never on the row range — so any
    /// row partition is bitwise identical.
    #[allow(clippy::too_many_arguments)]
    fn gemm_rows(
        &self,
        layout: Layout,
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        b: &[f32],
        c_rows: &mut [f32],
        row0: usize,
    );

    // -- Reductions ------------------------------------------------------

    /// Sum of all elements, in the backend's fixed accumulation order.
    fn sum(&self, x: &[f32]) -> f32;
    /// Sum of squares, in the backend's fixed accumulation order.
    fn sq_sum(&self, x: &[f32]) -> f32;
    /// Dot product of equal-length slices.
    fn dot(&self, a: &[f32], b: &[f32]) -> f32;
    /// Maximum element (`-inf` for an empty slice).
    fn max(&self, x: &[f32]) -> f32;
    /// Minimum element (`+inf` for an empty slice).
    fn min(&self, x: &[f32]) -> f32;

    // -- Fused row kernels -----------------------------------------------

    /// Numerically-stable softmax of one row into `out`.
    fn softmax_row(&self, row: &[f32], out: &mut [f32]);
    /// Numerically-stable log-softmax of one row into `out`.
    fn log_softmax_row(&self, row: &[f32], out: &mut [f32]);
    /// `(mean, biased variance)` of one row (the layer-norm statistics).
    fn mean_var_row(&self, row: &[f32]) -> (f32, f32);
}

// ---------------------------------------------------------------------------
// ScalarBackend
// ---------------------------------------------------------------------------

/// The historical scalar kernels: plain Rust loops with the crate's
/// long-standing sequential accumulation order. Bit-for-bit identical to
/// the pre-backend-refactor code on every path.
#[derive(Debug, Default, Clone, Copy)]
pub struct ScalarBackend;

impl ComputeBackend for ScalarBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Scalar
    }

    fn name(&self) -> &'static str {
        "scalar"
    }

    fn simd_level(&self) -> &'static str {
        "none"
    }

    fn gemm_rows(
        &self,
        layout: Layout,
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        b: &[f32],
        c_rows: &mut [f32],
        row0: usize,
    ) {
        kernels::gemm_rows_scalar(layout, m, k, n, a, b, c_rows, row0);
    }

    fn sum(&self, x: &[f32]) -> f32 {
        x.iter().sum()
    }

    fn sq_sum(&self, x: &[f32]) -> f32 {
        x.iter().map(|v| v * v).sum()
    }

    fn dot(&self, a: &[f32], b: &[f32]) -> f32 {
        a.iter().zip(b).map(|(&x, &y)| x * y).sum()
    }

    fn max(&self, x: &[f32]) -> f32 {
        x.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v))
    }

    fn min(&self, x: &[f32]) -> f32 {
        x.iter().fold(f32::INFINITY, |m, &v| m.min(v))
    }

    fn softmax_row(&self, row: &[f32], out: &mut [f32]) {
        let m = row.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
        let mut sum = 0.0;
        for (o, &v) in out.iter_mut().zip(row) {
            let e = (v - m).exp();
            *o = e;
            sum += e;
        }
        let inv = 1.0 / sum;
        for v in out.iter_mut() {
            *v *= inv;
        }
    }

    fn log_softmax_row(&self, row: &[f32], out: &mut [f32]) {
        let m = row.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
        let lse = m + row.iter().map(|&v| (v - m).exp()).sum::<f32>().ln();
        for (o, &v) in out.iter_mut().zip(row) {
            *o = v - lse;
        }
    }

    fn mean_var_row(&self, row: &[f32]) -> (f32, f32) {
        let d = row.len().max(1) as f32;
        let mean = row.iter().sum::<f32>() / d;
        let var = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / d;
        (mean, var)
    }
}

// ---------------------------------------------------------------------------
// SimdBackend
// ---------------------------------------------------------------------------

/// Runtime-dispatched vectorized kernels.
///
/// Reductions use a fixed 8-lane chunked accumulation with a pairwise
/// horizontal fold, identical whether the loop is lowered to vector or
/// scalar instructions — so reduction results are bitwise reproducible
/// across ISA levels. The GEMM is the exception: the AVX-512F and
/// AVX2+FMA micro-tiles use FMA (single rounding per multiply–add) in the
/// same per-element order, so they agree with each other bit for bit but
/// with a host that has no vector GEMM (and runs the scalar kernel) only
/// to rounding; [`ComputeBackend::simd_level`] records which level
/// produced an artifact.
#[derive(Debug, Default, Clone, Copy)]
pub struct SimdBackend;

impl ComputeBackend for SimdBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Simd
    }

    fn name(&self) -> &'static str {
        "simd"
    }

    fn simd_level(&self) -> &'static str {
        simd::level_name()
    }

    fn gemm_rows(
        &self,
        layout: Layout,
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        b: &[f32],
        c_rows: &mut [f32],
        row0: usize,
    ) {
        simd::gemm_rows(layout, m, k, n, a, b, c_rows, row0);
    }

    fn sum(&self, x: &[f32]) -> f32 {
        simd::sum(x)
    }

    fn sq_sum(&self, x: &[f32]) -> f32 {
        simd::sq_sum(x)
    }

    fn dot(&self, a: &[f32], b: &[f32]) -> f32 {
        simd::dot(a, b)
    }

    fn max(&self, x: &[f32]) -> f32 {
        simd::max(x)
    }

    fn min(&self, x: &[f32]) -> f32 {
        simd::min(x)
    }

    fn softmax_row(&self, row: &[f32], out: &mut [f32]) {
        simd::softmax_row(row, out);
    }

    fn log_softmax_row(&self, row: &[f32], out: &mut [f32]) {
        simd::log_softmax_row(row, out);
    }

    fn mean_var_row(&self, row: &[f32]) -> (f32, f32) {
        simd::mean_var_row(row)
    }
}

// ---------------------------------------------------------------------------
// Resolution
// ---------------------------------------------------------------------------

static SCALAR: ScalarBackend = ScalarBackend;
static SIMD: SimdBackend = SimdBackend;

static CONFIGURED: OnceLock<BackendKind> = OnceLock::new();

thread_local! {
    /// Scoped overrides installed by `with_backend` (innermost last).
    static OVERRIDE: RefCell<Vec<BackendKind>> = const { RefCell::new(Vec::new()) };
}

/// The backend `auto` resolves to on this host: SIMD when it has a vector
/// GEMM tile (AVX2+FMA or AVX-512F), scalar where the SIMD backend would
/// run the scalar GEMM and only the portable loops.
fn auto_kind() -> BackendKind {
    if simd::host_has_vector_gemm() {
        BackendKind::Simd
    } else {
        BackendKind::Scalar
    }
}

fn resolve_default() -> BackendKind {
    match std::env::var("REX_BACKEND") {
        Ok(raw) => match BackendKind::parse(&raw) {
            Ok(kind) => kind,
            Err(msg) => panic!("REX_BACKEND: {msg}"),
        },
        Err(_) => auto_kind(),
    }
}

/// Returns the process-wide backend kind, resolving (and caching) it on
/// first call: [`set_backend`] > `REX_BACKEND` > auto-detection.
pub fn kind() -> BackendKind {
    *CONFIGURED.get_or_init(resolve_default)
}

/// Pins the process-wide backend, overriding `REX_BACKEND`.
///
/// Must be called before the first dispatched op (CLI flag parsing is the
/// intended call site). Returns an error if the backend has already been
/// resolved to a different kind — compute must not silently switch
/// numerics mid-process.
///
/// # Errors
///
/// Returns a descriptive message when the backend was already resolved.
pub fn set_backend(kind: BackendKind) -> Result<(), String> {
    match CONFIGURED.set(kind) {
        Ok(()) => Ok(()),
        Err(_) if crate::backend::kind() == kind => Ok(()),
        Err(_) => Err(format!(
            "compute backend already resolved to {} (set --backend before any compute)",
            crate::backend::kind()
        )),
    }
}

/// Runs `f` with `kind` as the active backend for the calling thread
/// (drivers propagate it into their parallel chunk bodies by resolving the
/// backend before sharding). Nestable; the innermost scope wins. Used by
/// the backend-parity suite and kernel-bench to compare backends within
/// one process.
pub fn with_backend<R>(kind: BackendKind, f: impl FnOnce() -> R) -> R {
    struct PopGuard;
    impl Drop for PopGuard {
        fn drop(&mut self) {
            OVERRIDE.with(|o| {
                o.borrow_mut().pop();
            });
        }
    }
    OVERRIDE.with(|o| o.borrow_mut().push(kind));
    let _guard = PopGuard;
    f()
}

/// The active backend for the current thread: the innermost
/// [`with_backend`] override if one is installed, otherwise the
/// process-wide [`kind`]. Drivers call this **once** per entry point and
/// pass the reference into their chunk bodies.
pub fn active() -> &'static dyn ComputeBackend {
    let kind = OVERRIDE
        .with(|o| o.borrow().last().copied())
        .unwrap_or_else(kind);
    for_kind(kind)
}

/// The backend instance for an explicit kind.
pub fn for_kind(kind: BackendKind) -> &'static dyn ComputeBackend {
    match kind {
        BackendKind::Scalar => &SCALAR,
        BackendKind::Simd => &SIMD,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_known_names() {
        assert_eq!(BackendKind::parse("scalar").unwrap(), BackendKind::Scalar);
        assert_eq!(BackendKind::parse("SIMD").unwrap(), BackendKind::Simd);
        assert!(BackendKind::parse("auto").is_ok());
        assert!(BackendKind::parse("gpu").is_err());
    }

    #[test]
    fn with_backend_overrides_and_restores() {
        let outer = active().kind();
        with_backend(BackendKind::Scalar, || {
            assert_eq!(active().kind(), BackendKind::Scalar);
            with_backend(BackendKind::Simd, || {
                assert_eq!(active().kind(), BackendKind::Simd);
            });
            assert_eq!(active().kind(), BackendKind::Scalar);
        });
        assert_eq!(active().kind(), outer);
    }

    #[test]
    fn scalar_backend_matches_historical_folds() {
        let be = for_kind(BackendKind::Scalar);
        let xs: Vec<f32> = (0..100).map(|i| (i as f32 * 0.7).sin()).collect();
        assert_eq!(be.sum(&xs).to_bits(), xs.iter().sum::<f32>().to_bits());
        assert_eq!(
            be.max(&xs).to_bits(),
            xs.iter()
                .fold(f32::NEG_INFINITY, |m, &v| m.max(v))
                .to_bits()
        );
    }
}
