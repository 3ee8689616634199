//! Numeric-guard semantics under deterministic fault injection: abort
//! names the failure, skip drops the step without touching state,
//! rollback restores the last checkpoint exactly, and a repeating fault
//! cannot put rollback into an infinite loop.
//!
//! Every training run in this binary executes inside
//! [`rex_faults::with_plan`] (a no-fault plan for the clean baselines) so
//! concurrently scheduled tests cannot observe each other's injections.

use rex_core::ScheduleSpec;
use rex_data::images::synth_cifar10;
use rex_data::ClassificationDataset;
use rex_faults::FaultPlan;
use rex_nn::{Mlp, Module};
use rex_telemetry::{Event, MemorySink, Recorder};
use rex_tensor::{Prng, Tensor};
use rex_train::tasks::ClassifierTask;
use rex_train::{
    FtConfig, GuardPolicy, OptimizerKind, TrainConfig, TrainError, TrainResult, Trainer,
};

fn flatten(t: &Tensor) -> Tensor {
    let n = t.shape()[0];
    let d: usize = t.shape()[1..].iter().product();
    t.reshape(&[n, d]).unwrap()
}

fn model(seed: u64) -> Mlp {
    let mut rng = Prng::new(seed);
    Mlp::new("m", &[3 * 12 * 12, 8, 10], &mut rng)
}

fn config(epochs: usize, batch_size: usize, ft: FtConfig) -> TrainConfig {
    TrainConfig {
        epochs,
        batch_size,
        lr: 0.1,
        optimizer: OptimizerKind::sgdm(),
        schedule: ScheduleSpec::Linear,
        grad_clip: None,
        seed: 33,
        dtype: rex_tensor::DType::F32,
        ft,
    }
}

fn run(
    cfg: TrainConfig,
    data: &ClassificationDataset,
    m: &Mlp,
    rec: &mut Recorder,
) -> Result<TrainResult, TrainError> {
    let (train, test) = (flatten(&data.train_images), flatten(&data.test_images));
    let task = ClassifierTask::new(m, &train, &data.train_labels, &test, &data.test_labels);
    Trainer::new(cfg).run(&task, rec)
}

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("rex_guards_{name}_{}.state", std::process::id()))
}

#[test]
fn abort_names_the_step_and_offending_tensor() {
    let data = synth_cifar10(4, 2, 50);
    let m = model(51);
    let ft = FtConfig {
        guard: GuardPolicy::Abort,
        ..FtConfig::default()
    };
    let plan = FaultPlan::parse("nan-grad-at-step=1").unwrap();
    let err = rex_faults::with_plan(plan, || {
        run(config(1, 20, ft), &data, &m, &mut Recorder::disabled()).unwrap_err()
    });
    match &err {
        TrainError::NonFinite { step, what, .. } => {
            assert_eq!(*step, 1);
            assert!(what.starts_with("grad:m."), "tensor not named: {what}");
        }
        other => panic!("unexpected {other:?}"),
    }
    let msg = err.to_string();
    assert!(msg.contains("step 1"), "{msg}");
}

#[test]
fn abort_on_nan_loss_reports_the_loss() {
    let data = synth_cifar10(4, 2, 52);
    let m = model(53);
    let ft = FtConfig {
        guard: GuardPolicy::Abort,
        ..FtConfig::default()
    };
    let plan = FaultPlan::parse("nan-loss-at-step=0").unwrap();
    let err = rex_faults::with_plan(plan, || {
        run(config(1, 20, ft), &data, &m, &mut Recorder::disabled()).unwrap_err()
    });
    match err {
        TrainError::NonFinite { step, ref what, .. } => {
            assert_eq!(step, 0);
            assert_eq!(what, "loss");
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn skip_leaves_params_untouched_and_advances_budget() {
    // 20 train samples, batch 20 → exactly one step per epoch
    let data = synth_cifar10(2, 1, 54);
    let m = model(55);
    let before: Vec<Vec<f32>> = m
        .params()
        .iter()
        .map(|p| p.value().data().to_vec())
        .collect();
    let ft = FtConfig {
        guard: GuardPolicy::SkipStep,
        ..FtConfig::default()
    };
    // single-epoch run whose only step is skipped: nothing may move
    let plan = FaultPlan::parse("nan-loss-at-step=0:1").unwrap();
    let result = rex_faults::with_plan(plan, || {
        run(
            config(1, 20, ft.clone()),
            &data,
            &m,
            &mut Recorder::disabled(),
        )
        .unwrap()
    });
    let after: Vec<Vec<f32>> = m
        .params()
        .iter()
        .map(|p| p.value().data().to_vec())
        .collect();
    assert_eq!(before, after, "a skipped step must not update parameters");
    assert_eq!(result.history[0].train_loss, 0.0, "no batches accumulated");

    // two-epoch run: the skipped step still advances the budget clock, so
    // the surviving step sits at progress 20/40 → linear factor 0.5
    let m2 = model(55);
    let sink = MemorySink::unbounded();
    let handle = sink.handle();
    let mut rec = Recorder::new(Box::new(sink));
    let plan = FaultPlan::parse("nan-loss-at-step=0:1").unwrap();
    rex_faults::with_plan(plan, || {
        run(config(2, 20, ft), &data, &m2, &mut rec).unwrap();
    });
    let steps = handle.steps();
    assert_eq!(steps.len(), 1, "step 0 skipped, step 1 recorded");
    assert_eq!(steps[0].step, 1);
    assert_eq!(steps[0].epoch, 1);
    assert!(
        (steps[0].lr - 0.05).abs() < 1e-9,
        "budget did not advance past the skipped batch: lr {}",
        steps[0].lr
    );
    let trips: Vec<Event> = handle
        .events()
        .into_iter()
        .filter(|e| matches!(e, Event::GuardTrip { .. }))
        .collect();
    assert_eq!(trips.len(), 1);
    match &trips[0] {
        Event::GuardTrip {
            step, what, action, ..
        } => {
            assert_eq!(*step, 0);
            assert_eq!(what, "loss");
            assert_eq!(action, "skip");
        }
        _ => unreachable!(),
    }
}

#[test]
fn rollback_restores_the_checkpoint_and_matches_the_clean_run() {
    // 40 train samples, batch 10 → 4 steps/epoch × 2 epochs; checkpoints
    // at steps 2,4,6,8; a one-shot NaN at step 3 forces a rollback to the
    // step-2 snapshot, after which the run must land exactly where the
    // clean run does
    let data = synth_cifar10(4, 2, 56);
    let ft_clean = FtConfig {
        checkpoint_every: Some(2),
        checkpoint_path: Some(tmp("rollback_clean")),
        guard: GuardPolicy::Rollback,
        ..FtConfig::default()
    };
    let m_clean = model(57);
    let clean = rex_faults::with_plan(FaultPlan::default(), || {
        run(
            config(2, 10, ft_clean.clone()),
            &data,
            &m_clean,
            &mut Recorder::disabled(),
        )
        .unwrap()
    });

    let m_fault = model(57);
    let sink = MemorySink::unbounded();
    let handle = sink.handle();
    let mut rec = Recorder::new(Box::new(sink));
    let ft_fault = FtConfig {
        checkpoint_path: Some(tmp("rollback_fault")),
        ..ft_clean.clone()
    };
    let plan = FaultPlan::parse("nan-loss-at-step=3:1").unwrap();
    let faulted = rex_faults::with_plan(plan, || {
        run(config(2, 10, ft_fault), &data, &m_fault, &mut rec).unwrap()
    });

    assert_eq!(faulted.final_metric, clean.final_metric);
    assert_eq!(faulted.history, clean.history);
    // the rollback re-ran step 2, so its record appears twice
    let step2 = handle.steps().iter().filter(|r| r.step == 2).count();
    assert_eq!(step2, 2, "step 2 should be re-recorded after rollback");
    assert!(handle
        .events()
        .iter()
        .any(|e| matches!(e, Event::GuardTrip { action, .. } if action == "rollback")));
    for name in ["rollback_clean", "rollback_fault"] {
        let _ = std::fs::remove_file(tmp(name));
    }
}

#[test]
fn repeating_fault_after_rollback_aborts_instead_of_looping() {
    let data = synth_cifar10(4, 2, 58);
    let m = model(59);
    let ft = FtConfig {
        checkpoint_every: Some(2),
        checkpoint_path: Some(tmp("double_trip")),
        guard: GuardPolicy::Rollback,
        ..FtConfig::default()
    };
    // unlimited fire count: the NaN reappears after the rollback
    let plan = FaultPlan::parse("nan-loss-at-step=3").unwrap();
    let err = rex_faults::with_plan(plan, || {
        run(config(2, 10, ft), &data, &m, &mut Recorder::disabled()).unwrap_err()
    });
    let _ = std::fs::remove_file(tmp("double_trip"));
    match err {
        TrainError::NonFinite { step, ref what, .. } => {
            assert_eq!(step, 3);
            assert!(what.contains("again after rollback"), "{what}");
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn rollback_requires_checkpointing() {
    let data = synth_cifar10(2, 1, 60);
    let m = model(61);
    let ft = FtConfig {
        guard: GuardPolicy::Rollback,
        ..FtConfig::default()
    };
    let err = rex_faults::with_plan(FaultPlan::default(), || {
        run(config(1, 20, ft), &data, &m, &mut Recorder::disabled()).unwrap_err()
    });
    assert!(
        matches!(err, TrainError::Config(ref msg) if msg.contains("rollback")),
        "{err:?}"
    );
}

#[test]
fn resume_rejects_a_mismatched_run() {
    let data = synth_cifar10(4, 2, 62);
    let path = tmp("mismatch");
    let ft = FtConfig {
        checkpoint_every: Some(2),
        checkpoint_path: Some(path.clone()),
        halt_after_step: Some(2),
        ..FtConfig::default()
    };
    let m = model(63);
    let err = rex_faults::with_plan(FaultPlan::default(), || {
        run(config(2, 10, ft), &data, &m, &mut Recorder::disabled()).unwrap_err()
    });
    assert!(matches!(err, TrainError::Halted { step: 2 }), "{err:?}");

    // resuming with a different seed must be refused
    let mut cfg = config(
        2,
        10,
        FtConfig {
            resume_from: Some(path.clone()),
            ..FtConfig::default()
        },
    );
    cfg.seed = 44;
    let m2 = model(63);
    let err = rex_faults::with_plan(FaultPlan::default(), || {
        run(cfg, &data, &m2, &mut Recorder::disabled()).unwrap_err()
    });
    assert!(
        matches!(err, TrainError::Resume(ref msg) if msg.contains("seed")),
        "{err:?}"
    );
    let _ = std::fs::remove_file(path);
}

#[test]
fn stateful_schedules_refuse_checkpointing() {
    let data = synth_cifar10(2, 1, 64);
    let m = model(65);
    let mut cfg = config(
        1,
        20,
        FtConfig {
            checkpoint_every: Some(1),
            checkpoint_path: Some(tmp("plateau")),
            ..FtConfig::default()
        },
    );
    cfg.schedule = ScheduleSpec::DecayOnPlateau(1);
    let err = rex_faults::with_plan(FaultPlan::default(), || {
        run(cfg, &data, &m, &mut Recorder::disabled()).unwrap_err()
    });
    assert!(
        matches!(err, TrainError::Config(ref msg) if msg.contains("validation feedback")),
        "{err:?}"
    );
}
