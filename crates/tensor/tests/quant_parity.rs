//! Parity suite for the quantized GEMM dispatch.
//!
//! Two contracts are enforced:
//!
//! * **Oracle agreement** — [`kernels::qgemm_nt`] on Q8_0 blocks must
//!   match a dequantize-then-naive-matmul oracle to rounding (both sides
//!   consume the *same* dequantized values, so the only divergence is
//!   summation order).
//! * **Bitwise invariance** — within a backend, results are bitwise
//!   identical at pool sizes 1/2/3/7 (both shard grids depend only on
//!   the shape). Across backends the usual contract applies: scalar's
//!   serial fold and SIMD's lane-grouped fold associate differently, so
//!   they agree to rounding.
//!
//! The shape grid deliberately hits all three `qgemm_nt` dispatch arms:
//! serial (below `PAR_FLOPS`), column-sharded GEMV (`m ≤ 64`, large
//! product), and row-sharded tall (`m > 64`, large product) — plus
//! ragged sizes that misalign with `QK`, the 8-row chunk, and the
//! 64-column chunk.

use rex_tensor::backend::{self, BackendKind};
use rex_tensor::dtype::{dequantize_q8_0, quantize_q8_0, QK};
use rex_tensor::{kernels, Prng};

/// Pool sizes for the bitwise-identity court: serial, even split, and
/// two ragged splits.
const THREADS: &[usize] = &[1, 2, 3, 7];

fn assert_bitwise(a: &[f32], b: &[f32], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            x.to_bits() == y.to_bits(),
            "{ctx}: index {i}: {x:?} vs {y:?} (bitwise mismatch)"
        );
    }
}

/// Shapes covering each dispatch arm of `qgemm_nt`:
/// serial / column-sharded GEMV / row-sharded tall.
const QGEMM_CASES: &[(usize, usize, usize)] = &[
    (3, 40, 5),      // serial: tiny, k not a multiple of QK
    (1, 1024, 1024), // GEMV column shard, n a multiple of the 64-col chunk
    (4, 700, 500),   // GEMV column shard, ragged k/n, m > 1 scatter
    (96, 128, 96),   // tall row shard, m not a multiple of the 8-row chunk
];

#[test]
fn qgemm_matches_dequant_oracle_and_is_invariant() {
    for (case, &(m, k, n)) in QGEMM_CASES.iter().enumerate() {
        let mut rng = Prng::new(0x9E0 + case as u64);
        let a: Vec<f32> = (0..m * k).map(|_| rng.normal()).collect();
        let b: Vec<f32> = (0..n * k).map(|_| rng.normal()).collect();

        // quantize row-by-row: qgemm's NT layout restarts the 32-block
        // grid at every row of Bq, so a ragged k must not let blocks
        // straddle row boundaries
        let bpr = k.div_ceil(QK);
        let mut scales = vec![0u16; n * bpr];
        let mut quants = vec![0i8; n * k];
        for j in 0..n {
            quantize_q8_0(
                &b[j * k..(j + 1) * k],
                &mut scales[j * bpr..(j + 1) * bpr],
                &mut quants[j * k..(j + 1) * k],
            );
        }

        let run = || {
            let mut c = vec![0.0f32; m * n];
            kernels::qgemm_nt(m, k, n, &a, &scales, &quants, &mut c);
            c
        };
        let ctx = format!("qgemm_nt {m}x{k}x{n}");

        // oracle: dequantize (row-by-row, matching the layout above),
        // then naive fixed-order matmul over Bᵀ
        let mut bd = vec![0.0f32; n * k];
        for j in 0..n {
            dequantize_q8_0(
                &scales[j * bpr..(j + 1) * bpr],
                &quants[j * k..(j + 1) * k],
                &mut bd[j * k..(j + 1) * k],
            );
        }
        let base = rex_pool::with_pool_size(1, run);
        let tol = 1e-5 * (k as f32).sqrt().max(1.0);
        for i in 0..m {
            for j in 0..n {
                let expect: f32 = (0..k).map(|c| a[i * k + c] * bd[j * k + c]).sum();
                let got = base[i * n + j];
                let bound = tol * (1.0 + got.abs().max(expect.abs()));
                assert!(
                    (got - expect).abs() <= bound,
                    "{ctx}: C[{i},{j}]: {got} vs oracle {expect}"
                );
            }
        }

        // bitwise at any pool size, within each backend
        let scalar1 =
            backend::with_backend(BackendKind::Scalar, || rex_pool::with_pool_size(1, run));
        for &t in &THREADS[1..] {
            let c_t = rex_pool::with_pool_size(t, run);
            assert_bitwise(&c_t, &base, &format!("{ctx} simd @{t}T"));
            let s_t =
                backend::with_backend(BackendKind::Scalar, || rex_pool::with_pool_size(t, run));
            assert_bitwise(&s_t, &scalar1, &format!("{ctx} scalar @{t}T"));
        }

        // across backends: to rounding (folds associate differently)
        for (i, (x, y)) in scalar1.iter().zip(&base).enumerate() {
            let bound = tol * (1.0 + x.abs().max(y.abs()));
            assert!(
                (x - y).abs() <= bound,
                "{ctx} scalar-vs-simd: index {i}: {x} vs {y}"
            );
        }
    }
}
