//! The learning-rate range test (Smith, 2018) — the standard procedure for
//! choosing the initial LR that every schedule in the paper then decays
//! from. The LR is swept exponentially from `lr_min` to `lr_max` over one
//! pass while recording the training loss; the suggested LR is the point
//! of steepest descent, a decade below the divergence point.

use rex_autograd::Graph;
use rex_data::batches;
use rex_nn::Module;
use rex_optim::{global_grad_norm, global_param_norm};
use rex_telemetry::{Event, Recorder, StepRecord};
use rex_tensor::{Prng, Tensor};

use crate::error::TrainError;
use crate::trainer::OptimizerKind;

/// One `(lr, loss)` observation of the sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RangePoint {
    /// Learning rate at this step.
    pub lr: f32,
    /// Smoothed training loss at this step.
    pub loss: f64,
}

/// Result of a range test.
#[derive(Debug, Clone, PartialEq)]
pub struct RangeTestResult {
    /// The full sweep curve.
    pub curve: Vec<RangePoint>,
    /// LR at the steepest loss descent (the classic suggestion).
    pub suggested_lr: f32,
    /// LR where the loss first exceeded 4× its minimum (divergence), if
    /// reached.
    pub diverged_at: Option<f32>,
}

/// Runs an LR range test for a classifier: sweeps the LR exponentially
/// from `lr_min` to `lr_max` over `steps` iterations (cycling through the
/// dataset as needed) and analyses the smoothed loss curve.
///
/// `rec` is rewound to an empty trace, then receives one [`StepRecord`]
/// per sweep step (LR, smoothed loss, gradient/parameter norms) plus the
/// suggested LR as the run metric; pass [`Recorder::disabled`] for none.
///
/// # Errors
///
/// Propagates tensor errors from the model (as [`TrainError::Tensor`])
/// and a trace that cannot be rewound; a [`TrainError::Config`] if
/// `steps == 0`.
///
/// # Panics
///
/// Panics if `lr_min <= 0`, `lr_max <= lr_min`, or the dataset is empty.
#[allow(clippy::too_many_arguments)]
pub fn lr_range_test(
    model: &dyn Module,
    images: &Tensor,
    labels: &[usize],
    optimizer: OptimizerKind,
    lr_min: f32,
    lr_max: f32,
    steps: usize,
    batch_size: usize,
    seed: u64,
    rec: &mut Recorder,
) -> Result<RangeTestResult, TrainError> {
    assert!(lr_min > 0.0 && lr_max > lr_min, "need 0 < lr_min < lr_max");
    assert!(!labels.is_empty(), "empty dataset");
    if steps == 0 {
        return Err(TrainError::Config(
            "range test needs at least one step".into(),
        ));
    }
    let mut opt = optimizer.build(model.params(), lr_min);
    let traced = rec.is_enabled();
    rec.rewind(0).map_err(TrainError::Trace)?;
    rec.emit(Event::RunStart {
        run: "range_test".to_owned(),
        schedule: "ExponentialSweep".to_owned(),
        optimizer: optimizer.name().to_owned(),
        seed,
        total_samples: (steps * batch_size) as u64,
    });
    let mut rng = Prng::new(seed);
    let ratio = (lr_max / lr_min).ln(); // f32
    let mut curve = Vec::with_capacity(steps);
    let mut smoothed = 0.0f64;
    let beta = 0.9f64;
    let mut best = f64::INFINITY;
    let mut diverged_at = None;

    let mut t = 0usize;
    'outer: loop {
        for batch in batches(images, labels, batch_size, Some(&mut rng)) {
            if t >= steps {
                break 'outer;
            }
            let lr = lr_min * ((t as f32 / steps as f32) * ratio).exp();
            opt.set_lr(lr);
            opt.zero_grad();
            let mut g = Graph::new(true);
            let x = g.constant(batch.images);
            let logits = model.forward(&mut g, x)?;
            let loss = g.cross_entropy(logits, &batch.labels)?;
            let raw = g.value(loss).item() as f64;
            g.backward(loss)?;
            let grad_norm = if traced {
                global_grad_norm(opt.params())
            } else {
                0.0
            };
            opt.step();

            smoothed = if t == 0 {
                raw
            } else {
                beta * smoothed + (1.0 - beta) * raw
            };
            let debiased = smoothed / (1.0 - beta.powi(t as i32 + 1));
            if traced {
                rec.emit(Event::Step(StepRecord {
                    step: t as u64,
                    epoch: 0,
                    batch_id: t as u64,
                    lr: lr as f64,
                    loss: debiased,
                    grad_norm: grad_norm as f64,
                    param_norm: global_param_norm(opt.params()) as f64,
                }));
            }
            curve.push(RangePoint { lr, loss: debiased });
            best = best.min(debiased);
            if diverged_at.is_none() && debiased > 4.0 * best && t > steps / 10 {
                diverged_at = Some(lr);
                break 'outer; // standard early stop on divergence
            }
            t += 1;
        }
    }

    // steepest descent of the smoothed curve, measured over a window of
    // several points (adjacent differences are too noisy) and skipping the
    // first tenth of the sweep where the EMA is still settling
    let window = (curve.len() / 20).max(3);
    let skip = curve.len() / 10;
    let mut suggested = curve.first().map(|p| p.lr).unwrap_or(lr_min);
    let mut steepest = 0.0f64;
    for i in skip..curve.len().saturating_sub(window) {
        let slope = curve[i].loss - curve[i + window].loss; // positive = descending
        if slope > steepest {
            steepest = slope;
            suggested = curve[i + window / 2].lr;
        }
    }
    rec.emit(Event::RunEnd {
        metric: suggested as f64,
    });
    rec.flush();
    Ok(RangeTestResult {
        curve,
        suggested_lr: suggested,
        diverged_at,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rex_data::images::synth_cifar10;
    use rex_nn::Mlp;

    fn flat(t: &Tensor) -> Tensor {
        let n = t.shape()[0];
        let d: usize = t.shape()[1..].iter().product();
        t.reshape(&[n, d]).unwrap()
    }

    #[test]
    fn sweep_covers_requested_range() {
        let data = synth_cifar10(6, 2, 0);
        let mut rng = Prng::new(1);
        let m = Mlp::new("m", &[3 * 12 * 12, 16, 10], &mut rng);
        let r = lr_range_test(
            &m,
            &flat(&data.train_images),
            &data.train_labels,
            OptimizerKind::sgdm(),
            1e-4,
            1.0,
            30,
            16,
            7,
            &mut Recorder::disabled(),
        )
        .unwrap();
        assert!(!r.curve.is_empty());
        assert!((r.curve[0].lr - 1e-4).abs() < 1e-6);
        // suggestion lies inside the sweep range
        assert!(r.suggested_lr >= 1e-4 && r.suggested_lr <= 1.0);
    }

    #[test]
    fn absurd_lr_max_triggers_divergence_detection() {
        let data = synth_cifar10(6, 2, 1);
        let mut rng = Prng::new(2);
        let m = Mlp::new("m", &[3 * 12 * 12, 16, 10], &mut rng);
        let r = lr_range_test(
            &m,
            &flat(&data.train_images),
            &data.train_labels,
            OptimizerKind::sgdm(),
            1e-3,
            1e4, // absurd: must blow up
            120,
            16,
            7,
            &mut Recorder::disabled(),
        )
        .unwrap();
        assert!(
            r.diverged_at.is_some(),
            "sweeping to lr 1e4 should diverge; curve end {:?}",
            r.curve.last()
        );
    }

    #[test]
    fn zero_steps_is_an_error() {
        let data = synth_cifar10(2, 1, 2);
        let mut rng = Prng::new(3);
        let m = Mlp::new("m", &[3 * 12 * 12, 4, 10], &mut rng);
        assert!(lr_range_test(
            &m,
            &flat(&data.train_images),
            &data.train_labels,
            OptimizerKind::sgdm(),
            1e-4,
            1.0,
            0,
            8,
            0,
            &mut Recorder::disabled(),
        )
        .is_err());
    }
}
