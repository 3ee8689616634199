//! # rex — budgeted training with the REX schedule, in pure Rust
//!
//! A from-scratch reproduction of *"REX: Revisiting Budgeted Training with
//! an Improved Schedule"* (Chen, Wolfe & Kyrillidis, MLSys 2022), including
//! the complete substrate the paper's evaluation needs: a tensor engine,
//! reverse-mode autodiff, neural networks, optimizers, synthetic datasets,
//! and a budgeted-training harness.
//!
//! This facade crate re-exports the workspace's public API under one roof:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`schedules`] | `rex-core` | REX + every baseline schedule; the profile × sampling-rate framework |
//! | [`tensor`] | `rex-tensor` | `Tensor`, kernels, deterministic RNG |
//! | [`autograd`] | `rex-autograd` | tape `Graph`, `Param`, gradient checking |
//! | [`nn`] | `rex-nn` | layers, models (ResNet/VGG/VAE/detector/transformer), losses |
//! | [`optim`] | `rex-optim` | SGDM, Adam, AdamW, gradient clipping |
//! | [`data`] | `rex-data` | synthetic CIFAR/STL/ImageNet/MNIST/VOC/GLUE analogues |
//! | [`train`] | `rex-train` | budgets, the training loop, per-setting drivers |
//! | [`eval`] | `rex-eval` | statistics, Top-1/Top-3 ranking, mAP, tables |
//! | [`telemetry`] | `rex-telemetry` | step records, sinks, golden-trace diffing, metrics registry |
//! | [`serve`] | `rex-serve` | the HTTP job server behind `rexctl serve` / `rexd` |
//!
//! ## The REX schedule in three lines
//!
//! ```
//! use rex::schedules::ScheduleSpec;
//!
//! let mut schedule = ScheduleSpec::Rex.build();
//! let lr = 0.1 * schedule.factor(150, 1000) as f32; // iteration 150 of 1000
//! assert!(lr > 0.1 * (1.0 - 150.0 / 1000.0)); // REX holds LR above linear
//! ```
//!
//! ## Training under a budget
//!
//! ```no_run
//! use rex::data::images::synth_cifar10;
//! use rex::schedules::ScheduleSpec;
//! use rex::telemetry::Recorder;
//! use rex::train::tasks::ImageModel;
//! use rex::train::{Budget, OptimizerKind, TrainConfig};
//!
//! let data = synth_cifar10(40, 15, 0);
//! // 10% of a 24-epoch budget, REX schedule, SGD with momentum (batches
//! // of 32 at its default LR):
//! let budget = Budget::new(24, 10);
//! let cfg = TrainConfig::new(budget.epochs(), OptimizerKind::sgdm(), ScheduleSpec::Rex, 42);
//! let err = ImageModel::MicroResNet20.train(&data, cfg, &mut Recorder::disabled())?;
//! println!("test error at 10% budget: {err:.2}%");
//! # Ok::<(), rex::train::TrainError>(())
//! ```
//!
//! See `examples/` for runnable programs and DESIGN.md for the full
//! system inventory and experiment index.

#![warn(missing_docs)]

/// Learning-rate schedules: the paper's contribution (`rex-core`).
pub mod schedules {
    pub use rex_core::*;
}

/// Tensor engine and deterministic RNG (`rex-tensor`).
pub mod tensor {
    pub use rex_tensor::*;
}

/// Reverse-mode automatic differentiation (`rex-autograd`).
pub mod autograd {
    pub use rex_autograd::*;
}

/// Neural-network layers, models, and losses (`rex-nn`).
pub mod nn {
    pub use rex_nn::*;
}

/// Optimizers (`rex-optim`).
pub mod optim {
    pub use rex_optim::*;
}

/// Synthetic datasets (`rex-data`).
pub mod data {
    pub use rex_data::*;
}

/// Budgeted-training harness (`rex-train`).
pub mod train {
    pub use rex_train::*;
}

/// Evaluation: statistics, ranking, mAP, tables (`rex-eval`).
pub mod eval {
    pub use rex_eval::*;
}

/// Deterministic training telemetry and golden-trace diffing
/// (`rex-telemetry`).
pub mod telemetry {
    pub use rex_telemetry::*;
}

/// Deterministic fault injection and crash-consistent file writes
/// (`rex-faults`).
pub mod faults {
    pub use rex_faults::*;
}

/// Budgeted training as a service: the HTTP/1.1 job server behind
/// `rexctl serve` and `rexd` (`rex-serve`).
pub mod serve {
    pub use rex_serve::*;
}
