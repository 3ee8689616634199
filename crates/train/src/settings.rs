//! Named experimental settings, shared by every front end.
//!
//! Historically the CLI owned the mapping from a setting name
//! (`rn20-cifar10`, `vae-mnist`, …) to a model, a synthetic dataset, a
//! maximum epoch count, and an LR scale. With the HTTP front door
//! (`rexctl serve`) that mapping must live in one place: a job submitted
//! over a socket has to run *exactly* the code a `rexctl train` invocation
//! runs, or the two can never produce byte-identical traces. This module
//! is that single place.
//!
//! The `digits-mlp` setting is the cheapest cell in the catalogue (a
//! 144-24-10 MLP on synthetic 12×12 digits, ~8 optimizer steps per
//! epoch) — the workhorse for load tests and serving benchmarks where
//! hundreds of concurrent budgeted jobs have to finish in seconds.

use rex_core::ScheduleSpec;
use rex_data::digits::synth_digits;
use rex_data::images::{synth_cifar10, synth_cifar100, synth_stl10};
use rex_data::ClassificationDataset;
use rex_nn::Mlp;
use rex_telemetry::Recorder;
use rex_tensor::{DType, Prng};

use crate::error::TrainError;
use crate::tasks::{ClassifierTask, ImageModel, VaeTask};
use crate::trainer::{FtConfig, OptimizerKind, TrainConfig, Trainer};
use crate::Budget;

/// A named experimental setting: everything needed to run one budgeted
/// cell except the budget, schedule, optimizer, and seed.
pub enum SettingSpec {
    /// An image-classification setting (ResNet/WRN/VGG analogue).
    Image {
        /// Display name (`"RN20-CIFAR10"`, …).
        name: &'static str,
        /// Architecture to build.
        model: ImageModel,
        /// Synthetic dataset (seeded deterministically from the run seed).
        data: ClassificationDataset,
        /// Literature-standard maximum epochs (budgets are % of this).
        max_epochs: usize,
        /// Multiplier on the optimizer's default LR (VGG's LRs are not a
        /// uniform scaling and are set in [`SettingSpec::default_lr`]).
        lr_scale: f32,
    },
    /// The VAE-MNIST analogue.
    Vae {
        /// Maximum epochs.
        max_epochs: usize,
    },
    /// A tiny digits MLP — the cheapest cell, for load tests and serving
    /// benchmarks.
    Digits {
        /// Maximum epochs.
        max_epochs: usize,
    },
}

/// Setting names accepted by [`load_setting`], in display order.
pub const SETTING_NAMES: &[&str] = &[
    "rn20-cifar10",
    "rn38-cifar10",
    "wrn-stl10",
    "vgg16-cifar100",
    "vae-mnist",
    "digits-mlp",
];

/// Resolves a setting name (case-insensitive) into a [`SettingSpec`],
/// synthesizing its dataset from `seed`.
///
/// # Errors
///
/// Returns a message naming the unknown setting.
pub fn load_setting(name: &str, seed: u64) -> Result<SettingSpec, String> {
    Ok(match name.to_ascii_lowercase().as_str() {
        "rn20-cifar10" => SettingSpec::Image {
            name: "RN20-CIFAR10",
            model: ImageModel::MicroResNet20,
            data: synth_cifar10(40, 15, seed ^ 0x7AB4),
            max_epochs: 24,
            lr_scale: 1.0,
        },
        "rn38-cifar10" => SettingSpec::Image {
            name: "RN38-CIFAR10",
            model: ImageModel::MicroResNet38,
            data: synth_cifar10(40, 15, seed ^ 0x7AB4),
            max_epochs: 24,
            lr_scale: 1.0,
        },
        "wrn-stl10" => SettingSpec::Image {
            name: "WRN-STL10",
            model: ImageModel::MicroWide(2),
            data: synth_stl10(25, 10, seed ^ 0x57110),
            max_epochs: 20,
            lr_scale: 1.0,
        },
        "vgg16-cifar100" => SettingSpec::Image {
            name: "VGG16-CIFAR100",
            model: ImageModel::MicroVgg(12),
            data: synth_cifar100(20, 30, 10, seed ^ 0xC1F100),
            max_epochs: 40,
            lr_scale: 1.0,
        },
        "vae-mnist" => SettingSpec::Vae { max_epochs: 200 },
        "digits-mlp" | "digits" => SettingSpec::Digits { max_epochs: 8 },
        other => return Err(format!("unknown setting {other:?} (see rexctl help)")),
    })
}

impl SettingSpec {
    /// Display name of the setting.
    pub fn name(&self) -> &'static str {
        match self {
            SettingSpec::Image { name, .. } => name,
            SettingSpec::Vae { .. } => "VAE-MNIST",
            SettingSpec::Digits { .. } => "DIGITS-MLP",
        }
    }

    /// Literature-standard maximum epochs; budgets are percentages of
    /// this.
    pub fn max_epochs(&self) -> usize {
        match self {
            SettingSpec::Image { max_epochs, .. }
            | SettingSpec::Vae { max_epochs }
            | SettingSpec::Digits { max_epochs } => *max_epochs,
        }
    }

    /// The headline metric's name (`"test error"` / `"test loss"`).
    pub fn metric_label(&self) -> &'static str {
        match self {
            SettingSpec::Image { .. } | SettingSpec::Digits { .. } => "test error",
            SettingSpec::Vae { .. } => "test loss",
        }
    }

    /// The default initial LR for this setting under `optimizer`: DESIGN.md
    /// §6's "LR (SGDM / Adam)" column, which `grid table4`…`table9` use.
    pub fn default_lr(&self, optimizer: &OptimizerKind) -> f32 {
        match self {
            // VGG has no batch norm: both LRs sit below the
            // plateau-locking range
            SettingSpec::Image {
                model: ImageModel::MicroVgg(_),
                ..
            } => match optimizer {
                OptimizerKind::Sgdm { .. } => 0.01,
                _ => 3e-3,
            },
            SettingSpec::Image { lr_scale, .. } => optimizer.default_lr() * lr_scale,
            SettingSpec::Vae { .. } => 1e-2,
            SettingSpec::Digits { .. } => 0.1,
        }
    }

    /// Runs one budgeted cell of this setting and returns its headline
    /// metric. This is the *only* cell runner: `rexctl train`, `rexctl
    /// sweep` and the HTTP job executor all call it, so a job produces the
    /// same trajectory — and, traced, the same trace bytes — no matter
    /// which front end submitted it. Every setting trains through
    /// [`Trainer::run`], so every fault-tolerance knob and `dtype` applies
    /// to all of them.
    ///
    /// # Errors
    ///
    /// Whatever [`Trainer::run`] surfaces.
    #[allow(clippy::too_many_arguments)]
    pub fn run_ft(
        &self,
        budget_pct: u32,
        optimizer: OptimizerKind,
        schedule: ScheduleSpec,
        lr: f32,
        seed: u64,
        dtype: DType,
        ft: FtConfig,
        rec: &mut Recorder,
    ) -> Result<f64, TrainError> {
        let cfg = TrainConfig {
            epochs: Budget::new(self.max_epochs(), budget_pct).epochs(),
            batch_size: 32,
            lr,
            optimizer,
            schedule,
            grad_clip: None,
            seed,
            dtype,
            ft,
        };
        match self {
            SettingSpec::Image { model, data, .. } => model.train(data, cfg, rec),
            SettingSpec::Vae { .. } => {
                let train = synth_digits(400, 12, seed ^ 0xD161);
                let test = synth_digits(150, 12, seed ^ 0xD162);
                let task = VaeTask::new(&train, &test, seed);
                let cfg = TrainConfig {
                    batch_size: 8,
                    ..cfg
                };
                Ok(Trainer::new(cfg).run(&task, rec)?.final_metric)
            }
            SettingSpec::Digits { .. } => {
                let train = synth_digits(120, 12, seed ^ 0xD1_6217);
                let test = synth_digits(40, 12, seed ^ 0xD1_6218);
                let model = Mlp::new("m", &[144, 24, 10], &mut Prng::new(seed));
                let task = ClassifierTask::new(
                    &model,
                    &train.images,
                    &train.labels,
                    &test.images,
                    &test.labels,
                );
                let cfg = TrainConfig {
                    batch_size: 16,
                    seed: seed ^ 0x7EA1,
                    ..cfg
                };
                Ok(Trainer::new(cfg).run(&task, rec)?.final_metric)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rex_telemetry::{MemorySink, Recorder};

    #[test]
    fn every_catalogued_name_loads() {
        for name in SETTING_NAMES {
            let spec = load_setting(name, 7).unwrap();
            assert!(spec.max_epochs() > 0);
            assert!(!spec.name().is_empty());
        }
        assert!(load_setting("warp-drive", 7).is_err());
    }

    /// DESIGN.md §6's "LR (SGDM / Adam)" column. `rn38-cifar10` takes
    /// RN20's row and `digits-mlp` (not a paper setting) 0.1 for both.
    #[test]
    fn default_lrs_match_design_table() {
        let table: [(&str, f32, f32); 6] = [
            ("rn20-cifar10", 0.1, 1e-2),
            ("rn38-cifar10", 0.1, 1e-2),
            ("wrn-stl10", 0.1, 1e-2),
            ("vgg16-cifar100", 0.01, 3e-3),
            // the one deferred exception: §6 gives SGDM 3e-3, the
            // catalogue keeps 1e-2 because perfbench's reference pins
            // the VAE's SGDM cell at it
            ("vae-mnist", 1e-2, 1e-2),
            ("digits-mlp", 0.1, 0.1),
        ];
        assert_eq!(
            table.map(|(name, ..)| name),
            SETTING_NAMES,
            "every catalogued setting, in catalogue order"
        );
        for (name, sgdm, adam) in table {
            let spec = load_setting(name, 0).unwrap();
            assert_eq!(spec.default_lr(&OptimizerKind::sgdm()), sgdm, "{name} SGDM");
            assert_eq!(spec.default_lr(&OptimizerKind::adam()), adam, "{name} Adam");
        }
    }

    #[test]
    fn digits_cell_trains_and_traces() {
        let spec = load_setting("digits-mlp", 11).unwrap();
        let sink = MemorySink::unbounded();
        let handle = sink.handle();
        let mut rec = Recorder::new(Box::new(sink));
        let err = spec
            .run_ft(
                25,
                OptimizerKind::sgdm(),
                ScheduleSpec::Rex,
                spec.default_lr(&OptimizerKind::sgdm()),
                11,
                DType::F32,
                FtConfig::default(),
                &mut rec,
            )
            .unwrap();
        assert!((0.0..=100.0).contains(&err), "{err}");
        // 25% of 8 epochs = 2 epochs × 8 batches (120 samples / 16,
        // partial final batch of 8) = 16 steps
        assert_eq!(handle.steps().len(), 16);
    }

    #[test]
    fn digits_cell_is_deterministic_across_runs() {
        let metric = |seed| {
            let spec = load_setting("digits", seed).unwrap();
            spec.run_ft(
                25,
                OptimizerKind::sgdm(),
                ScheduleSpec::Rex,
                0.1,
                seed,
                DType::F32,
                FtConfig::default(),
                &mut Recorder::disabled(),
            )
            .unwrap()
        };
        assert_eq!(metric(3).to_bits(), metric(3).to_bits());
    }

    #[test]
    fn stop_flag_halts_a_digits_run() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let spec = load_setting("digits-mlp", 5).unwrap();
        let flag = Arc::new(AtomicBool::new(true)); // pre-set: halts after step 1
        let err = spec
            .run_ft(
                100,
                OptimizerKind::sgdm(),
                ScheduleSpec::Rex,
                0.1,
                5,
                DType::F32,
                FtConfig {
                    stop_flag: Some(Arc::clone(&flag)),
                    ..FtConfig::default()
                },
                &mut Recorder::disabled(),
            )
            .unwrap_err();
        assert!(
            matches!(err, TrainError::Halted { step: 1 }),
            "expected Halted after the first completed step, got {err}"
        );
        flag.store(false, Ordering::Release);
    }
}
