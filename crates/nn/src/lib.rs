//! # rex-nn — neural-network layers, models, and losses
//!
//! Everything the REX paper's evaluation trains, implemented from scratch on
//! top of [`rex_autograd`]:
//!
//! * **Layers** — [`Linear`], [`Conv2d`], [`BatchNorm`], [`LayerNorm`],
//!   [`Dropout`], [`Embedding`], [`MultiHeadAttention`], composable through
//!   the [`Module`] trait.
//! * **Models** — one per experimental setting of the paper (§4, Table 3):
//!   [`MicroResNet`] (RN20-CIFAR10 / RN50-ImageNet analogues),
//!   [`MicroWideResNet`] (WRN-STL10), [`MicroVgg`] (VGG16-CIFAR100),
//!   [`Vae`] (VAE-MNIST), [`TinyDetector`] (YOLO-VOC),
//!   [`TinyTransformer`] (BERT-GLUE), plus a plain [`Mlp`].
//! * **Losses** — cross-entropy (via the graph), [`losses::mse`],
//!   VAE ELBO ([`Vae::elbo`]), and the multi-term detection loss
//!   ([`TinyDetector::loss`]).
//!
//! All models follow the same convention: `forward(&self, g, x) -> NodeId`
//! builds onto a caller-supplied [`Graph`](rex_autograd::Graph) (training vs
//! eval mode is a property of the graph), and `params()` exposes every
//! trainable [`Param`](rex_autograd::Param) for the optimizer.

#![warn(missing_docs)]

mod attention;
pub mod bytes;
pub mod checkpoint;
mod layers;
pub mod losses;
mod models;
mod module;
mod sequential;

pub use attention::MultiHeadAttention;
pub use layers::{BatchNorm, Conv2d, Dropout, Embedding, GroupNorm, LayerNorm, Linear};
pub use models::detector::{DetectionTargets, TinyDetector};
pub use models::mlp::Mlp;
pub use models::resnet::{MicroResNet, MicroWideResNet};
pub use models::transformer::{TinyTransformer, TransformerConfig};
pub use models::vae::Vae;
pub use models::vgg::MicroVgg;
pub use module::{Activation, Module};
pub use sequential::Sequential;
