//! # rex-data — deterministic synthetic datasets
//!
//! The REX paper evaluates on CIFAR-10/100, STL-10, ImageNet, MNIST, Pascal
//! VOC, and GLUE. None of those are available in this offline reproduction,
//! so this crate provides *procedural stand-ins* that exercise the same
//! training code paths (see DESIGN.md §2 for the substitution table):
//!
//! * [`images`] — class-conditional image generators
//!   ([`images::synth_cifar10`], [`images::synth_cifar100`],
//!   [`images::synth_stl10`], [`images::synth_imagenet`]) producing
//!   [`ClassificationDataset`]s;
//! * [`digits`] — glyph-like single-channel images for the VAE setting;
//! * [`scenes`] — multi-object detection scenes with grid-form targets;
//! * [`text`] — a synthetic "GLUE" suite of eight sequence-classification
//!   tasks plus a Markov-chain corpus for pre-training.
//!
//! Every generator takes an explicit seed and is bit-reproducible; dataset
//! *difficulty* (noise, jitter) is tuned so that learning-rate schedules
//! visibly matter — too-easy tasks saturate under any schedule and would
//! flatten the paper's comparisons.

#![warn(missing_docs)]

mod dataset;
pub mod digits;
pub mod images;
mod loader;
pub mod scenes;
pub mod text;

pub use dataset::ClassificationDataset;
pub use loader::{augment_hflip, augment_random_crop, batches, Batch};
