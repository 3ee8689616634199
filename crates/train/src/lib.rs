//! # rex-train — the budgeted-training harness
//!
//! Ties the whole stack together: datasets from [`rex_data`], models from
//! [`rex_nn`], optimizers from [`rex_optim`], and schedules from
//! [`rex_core`] meet in a training loop that implements the paper's
//! budgeted protocol:
//!
//! * a [`Budget`] is a percentage of a setting's maximum epochs (rounded
//!   up, as the paper's YOLO setting specifies);
//! * the schedule sees only the *budgeted* horizon — a 1 % run decays to
//!   ~0 within its 1 %;
//! * the LR (and momentum, for OneCycle) is updated **every iteration**
//!   from the schedule;
//! * decay-on-plateau receives per-epoch validation losses;
//! * results are averaged over independent trials, each with its own
//!   seed.
//!
//! One loop, [`Trainer::run`], implements that protocol for every
//! setting; what differs between settings — data, loss, evaluation, the
//! state a snapshot holds — is a [`Task`]. The paper's tasks
//! (classification, VAE, detection, transformer pre-training and
//! fine-tuning) live in [`tasks`].

#![warn(missing_docs)]

mod budget;
mod error;
pub mod lineage;
pub mod marker;
pub mod range_test;
pub mod settings;
pub mod snapshot;
pub mod tasks;
mod trainer;
pub mod trial;

pub use budget::Budget;
pub use error::TrainError;
pub use lineage::{Lineage, LoadReport};
pub use snapshot::TrainState;
pub use trainer::{
    classification_loss, evaluate_classifier, EpochStats, FtConfig, GuardPolicy, OptimizerKind,
    Task, TrainConfig, TrainResult, Trainer,
};
