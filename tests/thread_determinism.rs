//! Bitwise determinism of the parallel execution layer.
//!
//! The `rex-pool` contract is that chunk boundaries and combination
//! order depend only on problem size, never on thread count, so every
//! parallel op produces bit-identical results at any pool size. These
//! tests pin that contract end to end: kernels, conv, reductions, one
//! optimizer step of each family, and a full traced training run are
//! each executed under scoped pools of 1, 2, 3, and 7 threads and
//! compared for exact equality (JSONL traces byte-for-byte).

use rex::autograd::Param;
use rex::nn::Module;
use rex::optim::{Adam, Optimizer, Sgd};
use rex::schedules::ScheduleSpec;
use rex::telemetry::{JsonlSink, Recorder};
use rex::tensor::conv::{conv2d_backward, conv2d_forward, Window};
use rex::tensor::{Prng, Tensor};
use rex::train::tasks::ImageModel;
use rex::train::{OptimizerKind, TrainConfig};

/// Pool sizes every case is checked at; 1 is the serial reference.
const THREAD_COUNTS: [usize; 4] = [1, 2, 3, 7];

/// Runs `f` under each pool size and asserts every result equals the
/// 1-thread one.
fn assert_same_at_all_counts<T: PartialEq + std::fmt::Debug>(f: impl Fn() -> T) {
    let reference = rex_pool::with_pool_size(1, &f);
    for &t in &THREAD_COUNTS[1..] {
        let got = rex_pool::with_pool_size(t, &f);
        assert_eq!(got, reference, "result differs at {t} threads");
    }
}

#[test]
fn gemm_is_bitwise_identical_across_thread_counts() {
    // large enough to clear the kernel layer's parallel gate (m > 64,
    // m*k*n > 2^20)
    let (m, k, n) = (192, 160, 140);
    let mut rng = Prng::new(41);
    let a = rng.normal_tensor(&[m, k], 0.0, 1.0);
    let b = rng.normal_tensor(&[k, n], 0.0, 1.0);
    assert_same_at_all_counts(|| a.matmul(&b).unwrap().data().to_vec());
}

#[test]
fn batched_gemm_is_bitwise_identical_across_thread_counts() {
    let (bs, m, k, n) = (6, 48, 64, 64);
    let mut rng = Prng::new(43);
    let a = rng.normal_tensor(&[bs, m, k], 0.0, 1.0);
    let b = rng.normal_tensor(&[bs, k, n], 0.0, 1.0);
    assert_same_at_all_counts(|| rex::tensor::ops::matmul3(&a, &b).unwrap().data().to_vec());
}

#[test]
fn conv_forward_backward_are_bitwise_identical_across_thread_counts() {
    // batch and flops both above the conv parallel gates
    let mut rng = Prng::new(47);
    let input = rng.normal_tensor(&[16, 3, 24, 24], 0.0, 1.0);
    let weight = rng.normal_tensor(&[8, 3, 3, 3], 0.0, 0.5);
    let bias = rng.normal_tensor(&[8], 0.0, 0.1);
    let win = Window {
        kernel: 3,
        stride: 1,
        padding: 1,
    };
    assert_same_at_all_counts(|| {
        let (out, saved) = conv2d_forward(&input, &weight, Some(&bias), win).unwrap();
        let d_out = out.scale(0.37);
        let (di, dw, db) = conv2d_backward(&d_out, &weight, &saved).unwrap();
        (
            out.data().to_vec(),
            di.data().to_vec(),
            dw.data().to_vec(),
            db.data().to_vec(),
        )
    });
}

#[test]
fn reductions_are_bitwise_identical_across_thread_counts() {
    // above REDUCE_PAR_MIN (2^15), so the tree-reduction path engages
    let mut rng = Prng::new(53);
    let x = rng.normal_tensor(&[50_000], 0.0, 1.0);
    assert_same_at_all_counts(|| {
        (
            x.sum().to_bits(),
            x.sq_norm().to_bits(),
            x.max().to_bits(),
            x.min().to_bits(),
        )
    });
}

#[test]
fn elementwise_ops_are_bitwise_identical_across_thread_counts() {
    // above ELEM_PAR_MIN (2^16), so the chunked elementwise path engages
    let mut rng = Prng::new(59);
    let a = rng.normal_tensor(&[80_000], 0.0, 1.0);
    let b = rng.normal_tensor(&[80_000], 0.0, 1.0);
    assert_same_at_all_counts(|| {
        let c = a.add(&b).unwrap();
        let c = c.mul(&a).unwrap();
        let c = c.scale(1.25);
        let c = rex::tensor::ops::gelu(&c);
        c.data().to_vec()
    });
}

/// Builds a few parameters (sizes straddling typical layer shapes) with
/// deterministic values and gradients.
fn make_params(seed: u64) -> Vec<Param> {
    let mut rng = Prng::new(seed);
    [300usize, 47, 1000]
        .iter()
        .enumerate()
        .map(|(i, &len)| {
            let p = Param::new(format!("p{i}"), rng.normal_tensor(&[len], 0.0, 1.0));
            p.accumulate_grad(&rng.normal_tensor(&[len], 0.0, 0.5));
            p
        })
        .collect()
}

#[test]
fn sgd_step_is_bitwise_identical_across_thread_counts() {
    assert_same_at_all_counts(|| {
        let params = make_params(61);
        let mut opt = Sgd::new(params.clone(), 0.1)
            .with_momentum(0.9)
            .nesterov()
            .with_weight_decay(5e-4);
        opt.set_instrumented(true);
        opt.step();
        opt.step();
        let values: Vec<Vec<u32>> = params
            .iter()
            .map(|p| p.value().data().iter().map(|v| v.to_bits()).collect())
            .collect();
        (values, opt.last_update_norm().unwrap().to_bits())
    });
}

#[test]
fn adam_step_is_bitwise_identical_across_thread_counts() {
    assert_same_at_all_counts(|| {
        let params = make_params(67);
        let mut opt = Adam::adamw(params.clone(), 1e-3, 1e-2);
        opt.set_instrumented(true);
        opt.step();
        opt.step();
        let values: Vec<Vec<u32>> = params
            .iter()
            .map(|p| p.value().data().iter().map(|v| v.to_bits()).collect())
            .collect();
        (values, opt.last_update_norm().unwrap().to_bits())
    });
}

#[test]
fn model_forward_backward_is_bitwise_identical_across_thread_counts() {
    let data = rex::data::images::synth_cifar10(8, 4, 71);
    assert_same_at_all_counts(|| {
        let model = rex::nn::MicroResNet::rn20_analog(data.num_classes, 71);
        let x = Tensor::from_vec(
            data.train_images.data()[..8 * 3 * 32 * 32].to_vec(),
            &[8, 3, 32, 32],
        )
        .unwrap();
        let mut g = rex::autograd::Graph::new(true);
        let xid = g.constant(x);
        let out = model.forward(&mut g, xid).unwrap();
        let loss = g.cross_entropy(out, &data.train_labels[..8]).unwrap();
        g.backward(loss).unwrap();
        let grads: Vec<Vec<u32>> = model
            .params()
            .iter()
            .map(|p| p.grad().data().iter().map(|v| v.to_bits()).collect())
            .collect();
        grads
    });
}

#[test]
fn traced_training_run_is_byte_identical_across_thread_counts() {
    let data = rex::data::images::synth_cifar10(8, 4, 23);
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let run = |threads: usize| {
        let path = dir.join(format!("rex_thread_det_{pid}_{threads}.jsonl"));
        let err = rex_pool::with_pool_size(threads, || {
            let sink = JsonlSink::create(&path).unwrap();
            let mut rec = Recorder::new(Box::new(sink));
            let err = ImageModel::MicroResNet20
                .train(
                    &data,
                    TrainConfig {
                        batch_size: 8,
                        lr: 0.05,
                        ..TrainConfig::new(1, OptimizerKind::sgdm(), ScheduleSpec::Rex, 23)
                    },
                    &mut rec,
                )
                .unwrap();
            rec.flush();
            err
        });
        let bytes = std::fs::read(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        (err, bytes)
    };
    let (err1, trace1) = run(1);
    assert!(!trace1.is_empty(), "trace must contain step records");
    for threads in [2, 4] {
        let (err_t, trace_t) = run(threads);
        assert_eq!(err_t, err1, "final metric differs at {threads} threads");
        assert_eq!(
            trace_t, trace1,
            "JSONL trace bytes differ at {threads} threads"
        );
    }
}

/// The VAE setting through the shared loop: its sampled latents come from
/// the model's own stream, so the JSONL trace must still match byte for
/// byte at every pool size.
#[test]
fn vae_training_run_is_byte_identical_across_thread_counts() {
    use rex::train::settings::load_setting;

    let spec = load_setting("vae-mnist", 31).unwrap();
    let path = std::env::temp_dir().join(format!("rex_vae_det_{}.jsonl", std::process::id()));
    assert_same_at_all_counts(|| {
        let mut rec = Recorder::new(Box::new(JsonlSink::create(&path).unwrap()));
        let opt = OptimizerKind::adam();
        let loss = spec
            .run_ft(
                1,
                opt,
                ScheduleSpec::Rex,
                spec.default_lr(&opt),
                31,
                rex::tensor::DType::F32,
                rex::train::FtConfig::default(),
                &mut rec,
            )
            .unwrap();
        rec.flush();
        drop(rec);
        (loss.to_bits(), std::fs::read(&path).unwrap())
    });
    let _ = std::fs::remove_file(&path);
}

#[test]
fn profiled_run_computes_identical_bytes_at_any_thread_count() {
    // The span profiler observes the training loop but must never touch
    // it: with kernel-detail profiling armed, the JSONL trace bytes and
    // final metric must equal an unprofiled run's, at every pool size —
    // and the span tree it collects must have a thread-count-invariant
    // shape (timing varies; structure must not).
    use rex::telemetry::span::{self, Detail};

    let data = rex::data::images::synth_cifar10(8, 4, 29);
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let run = |threads: usize, detail: Option<Detail>| {
        let path = dir.join(format!("rex_prof_det_{pid}_{threads}.jsonl"));
        let (err, shape) = rex_pool::with_pool_size(threads, || {
            if let Some(d) = detail {
                span::enable(d);
            }
            let sink = JsonlSink::create(&path).unwrap();
            let mut rec = Recorder::new(Box::new(sink));
            let err = ImageModel::MicroResNet20
                .train(
                    &data,
                    TrainConfig {
                        batch_size: 8,
                        lr: 0.05,
                        ..TrainConfig::new(1, OptimizerKind::sgdm(), ScheduleSpec::Rex, 29)
                    },
                    &mut rec,
                )
                .unwrap();
            rec.flush();
            (err, span::take().shape())
        });
        let bytes = std::fs::read(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        (err, bytes, shape)
    };

    let (plain_err, plain_trace, plain_shape) = run(1, None);
    assert!(
        plain_shape.is_empty(),
        "unprofiled run must record no spans"
    );
    let (ref_err, ref_trace, ref_shape) = run(1, Some(Detail::Kernel));
    assert_eq!(ref_err, plain_err, "profiling changed the final metric");
    assert_eq!(ref_trace, plain_trace, "profiling changed the trace bytes");
    assert!(
        ref_shape.iter().any(|(name, _)| name == "gemm"),
        "kernel detail must record compute spans"
    );
    for &threads in &THREAD_COUNTS[1..] {
        let (err_t, trace_t, shape_t) = run(threads, Some(Detail::Kernel));
        assert_eq!(err_t, ref_err, "final metric differs at {threads} threads");
        assert_eq!(
            trace_t, ref_trace,
            "profiled trace bytes differ at {threads} threads"
        );
        assert_eq!(
            shape_t, ref_shape,
            "span-tree shape differs at {threads} threads"
        );
    }
}
