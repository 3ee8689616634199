//! The kernel rows of `BENCH_kernels.json`: each rex-tensor kernel
//! against the naive baseline it replaced, timed in the same reps, once
//! for every (backend, pool size) pair.
//!
//! | kernel | baseline |
//! |---|---|
//! | `matmul_256x256x256` | the seed's i-k-j loop with its zero-skip branch |
//! | `conv2d_fwd_32x3x32x32_k3` (16 filters, stride 1, pad 1) | the direct six-loop convolution |
//! | `conv2d_bwd_32x3x32x32_k3` | the direct six-loop gradient scatter |
//! | `matmul3_16x64x64x64` | `batch_slice` copies and the seed matmul per slice |

use std::hint::black_box;

use rex_tensor::backend::{self, with_backend, BackendKind};
use rex_tensor::conv::{conv2d_backward, conv2d_forward, Conv2dSaved, Window};
use rex_tensor::ops::{batch_slice, matmul3};
use rex_tensor::{reference, Prng, Tensor};

use crate::measure::{ratio, time_arms, Artifact, Sampling, Timing};

/// The conv rows' window: 3×3, stride 1, padding 1.
const WIN: Window = Window {
    kernel: 3,
    stride: 1,
    padding: 1,
};

/// Runs a kernel once and returns its outputs.
type Run<'a> = Box<dyn Fn() -> Vec<Vec<f32>> + 'a>;

struct Kernel<'a> {
    name: &'static str,
    optimized: Run<'a>,
    naive: Run<'a>,
}

/// Every kernel's inputs, built once from fixed seeds.
struct Fixtures {
    a: Tensor,
    b: Tensor,
    input: Tensor,
    weight: Tensor,
    bias: Tensor,
    saved: Conv2dSaved,
    d_out: Tensor,
    a3: Tensor,
    b3: Tensor,
}

impl Fixtures {
    fn build() -> Fixtures {
        let mut rng = Prng::new(7);
        let a = rng.normal_tensor(&[256, 256], 0.0, 1.0);
        let b = rng.normal_tensor(&[256, 256], 0.0, 1.0);
        let mut rng = Prng::new(11);
        let input = rng.normal_tensor(&[32, 3, 32, 32], 0.0, 1.0);
        let weight = rng.normal_tensor(&[16, 3, 3, 3], 0.0, 0.3);
        let bias = rng.normal_tensor(&[16], 0.0, 0.1);
        let (out, saved) = conv2d_forward(&input, &weight, None, WIN).unwrap();
        let d_out = Prng::new(13).normal_tensor(out.shape(), 0.0, 1.0);
        let mut rng = Prng::new(17);
        let a3 = rng.normal_tensor(&[16, 64, 64], 0.0, 1.0);
        let b3 = rng.normal_tensor(&[16, 64, 64], 0.0, 1.0);
        Fixtures {
            a,
            b,
            input,
            weight,
            bias,
            saved,
            d_out,
            a3,
            b3,
        }
    }

    fn kernels(&self) -> Vec<Kernel<'_>> {
        vec![
            Kernel {
                name: "matmul_256x256x256",
                optimized: Box::new(|| vec![self.a.matmul(&self.b).unwrap().into_vec()]),
                naive: Box::new(|| {
                    vec![reference::matmul_naive(
                        256,
                        256,
                        256,
                        self.a.data(),
                        self.b.data(),
                    )]
                }),
            },
            Kernel {
                name: "conv2d_fwd_32x3x32x32_k3",
                optimized: Box::new(|| {
                    let (out, _) =
                        conv2d_forward(&self.input, &self.weight, Some(&self.bias), WIN).unwrap();
                    vec![out.into_vec()]
                }),
                naive: Box::new(|| {
                    let out =
                        reference::conv2d_direct(&self.input, &self.weight, Some(&self.bias), WIN);
                    vec![out.unwrap().into_vec()]
                }),
            },
            Kernel {
                name: "conv2d_bwd_32x3x32x32_k3",
                optimized: Box::new(|| {
                    let (di, dw, _) =
                        conv2d_backward(&self.d_out, &self.weight, &self.saved).unwrap();
                    vec![di.into_vec(), dw.into_vec()]
                }),
                naive: Box::new(|| {
                    let (di, dw, _) = reference::conv2d_direct_backward(
                        &self.d_out,
                        &self.input,
                        &self.weight,
                        WIN,
                    )
                    .unwrap();
                    vec![di.into_vec(), dw.into_vec()]
                }),
            },
            Kernel {
                name: "matmul3_16x64x64x64",
                optimized: Box::new(|| vec![matmul3(&self.a3, &self.b3).unwrap().into_vec()]),
                naive: Box::new(|| {
                    let mut out = Vec::with_capacity(16 * 64 * 64);
                    for s in 0..16 {
                        let a = batch_slice(&self.a3, s, 64, 64);
                        let b = batch_slice(&self.b3, s, 64, 64);
                        out.extend(reference::matmul_naive(64, 64, 64, a.data(), b.data()));
                    }
                    vec![out]
                }),
            },
        ]
    }
}

/// One (kernel, backend, pool size) row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Kernel name.
    pub kernel: &'static str,
    /// Backend name (`scalar`, `simd`).
    pub backend: &'static str,
    /// Pool size.
    pub threads: usize,
    /// The optimized kernel's timing.
    pub optimized: Timing,
    /// The naive baseline's timing, sampled in the same reps.
    pub baseline: Timing,
    /// Largest element-wise |optimized − baseline| over the outputs.
    pub max_abs_diff: f64,
}

impl Row {
    /// Median-based speedup over the baseline: the typical ratio.
    pub fn speedup(&self) -> f64 {
        ratio(self.baseline.median_ms, self.optimized.median_ms)
    }

    /// Min-based speedup over the baseline: the capability ratio the
    /// floors keep.
    pub fn speedup_best(&self) -> f64 {
        ratio(self.baseline.min_ms, self.optimized.min_ms)
    }

    /// Writes the row's seven keys, each under `kernel.backend.tN.`.
    pub fn record(&self, art: &mut Artifact) {
        let key = format!("{}.{}.t{}", self.kernel, self.backend, self.threads);
        art.num(format!("{key}.ms"), self.optimized.median_ms);
        art.num(format!("{key}.min_ms"), self.optimized.min_ms);
        art.num(format!("{key}.baseline_ms"), self.baseline.median_ms);
        art.num(format!("{key}.baseline_min_ms"), self.baseline.min_ms);
        art.num(format!("{key}.speedup"), self.speedup());
        art.num(format!("{key}.speedup_best"), self.speedup_best());
        art.num(format!("{key}.max_abs_diff"), self.max_abs_diff);
    }
}

/// The pool sizes the rows cover: 1, 2, 4 and 8 up to
/// `min(8, 2·host_cores)`, so a small host does not publish
/// oversubscribed numbers; then the sizes skipped.
pub fn pool_sizes() -> (Vec<usize>, Vec<usize>) {
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    [1, 2, 4, 8]
        .iter()
        .partition(|&&t| t <= 8.min(2 * host_cores))
}

/// Times each kernel that `keep` accepts by name against its baseline,
/// under both backends at every pool size of [`pool_sizes`] (scoped
/// overrides: the process defaults stay as they are). Rows come kernel
/// by kernel, then backend, then pool size, so a kernel's rows are taken
/// in the same sequence whichever other kernels are kept.
pub fn measure(s: &Sampling, keep: impl Fn(&str) -> bool) -> Vec<Row> {
    let fixtures = Fixtures::build();
    let (threads, _) = pool_sizes();
    let mut rows = Vec::new();
    for kernel in fixtures.kernels().into_iter().filter(|k| keep(k.name)) {
        for kind in [BackendKind::Scalar, BackendKind::Simd] {
            for &t in &threads {
                let row = || measure_row(s, &kernel, kind, t);
                rows.push(with_backend(kind, || rex_pool::with_pool_size(t, row)));
            }
        }
    }
    rows
}

fn measure_row(s: &Sampling, kernel: &Kernel, kind: BackendKind, threads: usize) -> Row {
    let (got, want) = ((kernel.optimized)(), (kernel.naive)());
    let max_abs_diff = (got.iter().zip(&want))
        .flat_map(|(g, w)| g.iter().zip(w))
        .map(|(x, y)| f64::from((x - y).abs()))
        .fold(0.0, f64::max);
    let timings = time_arms(
        s,
        &mut [&mut || drop(black_box((kernel.optimized)())), &mut || {
            drop(black_box((kernel.naive)()))
        }],
    );
    Row {
        kernel: kernel.name,
        backend: backend::for_kind(kind).name(),
        threads,
        optimized: timings[0],
        baseline: timings[1],
        max_abs_diff,
    }
}
