//! The paper's training tasks, one [`Task`] per setting family — image
//! and digit classification, the VAE, detection, GLUE fine-tuning, and
//! the masked-token pre-training every GLUE cell starts from. Each runs
//! through [`Trainer::run`], so every setting gets the same budget clock,
//! schedule, guards, snapshots and telemetry.

use std::cell::RefCell;

use rex_autograd::{Graph, NodeId, Param};
use rex_core::ScheduleSpec;
use rex_data::digits::DigitDataset;
use rex_data::scenes::SceneDataset;
use rex_data::text::{LmCorpus, TextTask};
use rex_data::{augment_hflip, Batch, ClassificationDataset};
use rex_eval::map::{mean_average_precision, GroundTruth, Prediction};
use rex_nn::{
    DetectionTargets, Linear, MicroResNet, MicroVgg, MicroWideResNet, Module, TinyDetector,
    TinyTransformer, TransformerConfig, Vae,
};
use rex_telemetry::Recorder;
use rex_tensor::{Prng, Tensor, TensorError};

use crate::error::TrainError;
use crate::trainer::{
    classification_loss, evaluate_classifier, OptimizerKind, Task, TrainConfig, Trainer,
};

/// Which image-classification architecture a setting uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImageModel {
    /// The RN20-CIFAR10 analogue.
    MicroResNet20,
    /// The RN38-CIFAR10 analogue (Table 2's second model).
    MicroResNet38,
    /// The RN50-ImageNet analogue (deeper/wider).
    MicroResNet50,
    /// The WRN-STL10 analogue with the given widen factor.
    MicroWide(usize),
    /// The VGG16-CIFAR100 analogue (needs the input size).
    MicroVgg(usize),
}

impl ImageModel {
    /// Builds the model for `num_classes` outputs with the given seed.
    pub fn build(&self, num_classes: usize, seed: u64) -> Box<dyn Module> {
        match *self {
            ImageModel::MicroResNet20 => Box::new(MicroResNet::rn20_analog(num_classes, seed)),
            ImageModel::MicroResNet38 => Box::new(MicroResNet::rn38_analog(num_classes, seed)),
            ImageModel::MicroResNet50 => Box::new(MicroResNet::rn50_analog(num_classes, seed)),
            ImageModel::MicroWide(widen) => {
                Box::new(MicroWideResNet::new(num_classes, widen, seed))
            }
            ImageModel::MicroVgg(input) => Box::new(MicroVgg::new(num_classes, input, seed)),
        }
    }

    /// Trains one image-classification cell of Tables 2, 4–6 and 8: this
    /// architecture built from `cfg.seed`, trained on `data` with flips
    /// under `cfg`. The trainer stream is seeded from `cfg.seed ^ 0x7EA1`,
    /// apart from the init stream. Returns the test error (%).
    ///
    /// # Errors
    ///
    /// Whatever [`Trainer::run`] surfaces.
    pub fn train(
        self,
        data: &ClassificationDataset,
        cfg: TrainConfig,
        rec: &mut Recorder,
    ) -> Result<f64, TrainError> {
        let model = self.build(data.num_classes, cfg.seed);
        let task = ClassifierTask::images(model.as_ref(), data);
        let cfg = TrainConfig {
            seed: cfg.seed ^ 0x7EA1,
            ..cfg
        };
        Ok(Trainer::new(cfg).run(&task, rec)?.final_metric)
    }
}

/// Classification under cross-entropy, scored by test error (%): the
/// image settings and the digits MLP.
pub struct ClassifierTask<'a> {
    model: &'a dyn Module,
    train_images: &'a Tensor,
    train_labels: &'a [usize],
    test_images: &'a Tensor,
    test_labels: &'a [usize],
    /// Random horizontal flips of `[B, C, H, W]` training batches.
    augment: bool,
}

impl<'a> ClassifierTask<'a> {
    /// Classification of the training rows, scored on the test rows,
    /// without augmentation.
    pub fn new(
        model: &'a dyn Module,
        train_images: &'a Tensor,
        train_labels: &'a [usize],
        test_images: &'a Tensor,
        test_labels: &'a [usize],
    ) -> Self {
        ClassifierTask {
            model,
            train_images,
            train_labels,
            test_images,
            test_labels,
            augment: false,
        }
    }

    /// An image setting's task: `data`, with random flips.
    pub fn images(model: &'a dyn Module, data: &'a ClassificationDataset) -> Self {
        ClassifierTask {
            augment: true,
            ..ClassifierTask::new(
                model,
                &data.train_images,
                &data.train_labels,
                &data.test_images,
                &data.test_labels,
            )
        }
    }
}

impl Task for ClassifierTask<'_> {
    type Batch = Batch;

    fn kind(&self) -> String {
        "classifier".to_owned()
    }

    fn train_len(&self) -> usize {
        self.train_labels.len()
    }

    fn batch(&self, rows: &[usize], rng: &mut Prng) -> Result<Batch, TensorError> {
        let mut images = self.train_images.gather_rows(rows);
        if self.augment && images.ndim() == 4 {
            images = augment_hflip(&images, rng);
        }
        Ok(Batch {
            images,
            labels: rows.iter().map(|&i| self.train_labels[i]).collect(),
        })
    }

    fn loss(&self, g: &mut Graph, batch: Batch) -> Result<NodeId, TensorError> {
        let x = g.constant(batch.images);
        let logits = self.model.forward(g, x)?;
        g.cross_entropy(logits, &batch.labels)
    }

    fn val_loss(&self, batch_size: usize) -> Result<f64, TensorError> {
        classification_loss(self.model, self.test_images, self.test_labels, batch_size)
    }

    fn metric(&self, batch_size: usize) -> Result<f64, TensorError> {
        evaluate_classifier(self.model, self.test_images, self.test_labels, batch_size)
    }

    fn params(&self) -> Vec<Param> {
        self.model.params()
    }

    fn buffers(&self) -> Vec<(String, &RefCell<Tensor>)> {
        self.model.buffers()
    }

    fn streams(&self) -> Vec<(String, &RefCell<Prng>)> {
        self.model.streams()
    }
}

/// The VAE-MNIST analogue (Table 7): a [`Vae`] on flattened digits,
/// scored by the test generalization loss (negative ELBO).
pub struct VaeTask<'a> {
    vae: Vae,
    train: &'a DigitDataset,
    test: &'a DigitDataset,
}

impl<'a> VaeTask<'a> {
    /// A fresh VAE (64 hidden units, 8 latents) initialised from `seed`.
    pub fn new(train: &'a DigitDataset, test: &'a DigitDataset, seed: u64) -> Self {
        VaeTask {
            vae: Vae::new(train.size * train.size, 64, 8, seed),
            train,
            test,
        }
    }

    /// The model being trained.
    pub fn vae(&self) -> &Vae {
        &self.vae
    }
}

impl Task for VaeTask<'_> {
    type Batch = Tensor;

    fn kind(&self) -> String {
        "vae".to_owned()
    }

    fn train_len(&self) -> usize {
        self.train.len()
    }

    fn stream(&self, seed: u64) -> Prng {
        Prng::new(seed ^ 0xE1B0)
    }

    fn batch(&self, rows: &[usize], _rng: &mut Prng) -> Result<Tensor, TensorError> {
        Ok(self.train.images.gather_rows(rows))
    }

    fn loss(&self, g: &mut Graph, batch: Tensor) -> Result<NodeId, TensorError> {
        self.vae.elbo(g, &batch)
    }

    fn val_loss(&self, _batch_size: usize) -> Result<f64, TensorError> {
        vae_loss(&self.vae, self.test)
    }

    fn metric(&self, _batch_size: usize) -> Result<f64, TensorError> {
        vae_loss(&self.vae, self.test)
    }

    fn params(&self) -> Vec<Param> {
        self.vae.params()
    }

    fn streams(&self) -> Vec<(String, &RefCell<Prng>)> {
        self.vae.streams()
    }
}

/// Deterministic (eval-mode) ELBO of a VAE over a digit set.
///
/// # Errors
///
/// Propagates [`TensorError`]s from the model.
pub fn vae_loss(vae: &Vae, data: &DigitDataset) -> Result<f64, TensorError> {
    let mut g = Graph::new(false);
    let loss = vae.elbo(&mut g, &data.images)?;
    Ok(g.value(loss).item() as f64)
}

/// The YOLO-VOC analogue (Table 9): a [`TinyDetector`] on synthetic
/// scenes, scored by test mAP@0.5 (%).
pub struct DetectionTask<'a> {
    det: TinyDetector,
    train: &'a SceneDataset,
    test: &'a SceneDataset,
}

/// One detection mini-batch: images and their grid targets.
pub struct SceneBatch {
    images: Tensor,
    targets: DetectionTargets,
}

impl<'a> DetectionTask<'a> {
    /// A fresh detector for `train`'s classes and image size, initialised
    /// from `seed`.
    pub fn new(train: &'a SceneDataset, test: &'a SceneDataset, seed: u64) -> Self {
        DetectionTask {
            det: TinyDetector::new(train.num_classes, train.images.shape()[2], seed),
            train,
            test,
        }
    }

    /// `cfg` with the paper's warm-up prepended: `warmup_epochs` more
    /// epochs over which the LR rises linearly from a tenth, excluded
    /// from the budget the schedule decays over.
    pub fn with_warmup(&self, cfg: TrainConfig, warmup_epochs: usize) -> TrainConfig {
        let warmup_samples = (warmup_epochs * self.train.len()) as u64;
        TrainConfig {
            epochs: cfg.epochs + warmup_epochs,
            schedule: ScheduleSpec::WithWarmup(Box::new(cfg.schedule), warmup_samples, 0.1),
            ..cfg
        }
    }
}

impl Task for DetectionTask<'_> {
    type Batch = SceneBatch;

    fn kind(&self) -> String {
        "detection".to_owned()
    }

    fn train_len(&self) -> usize {
        self.train.len()
    }

    fn stream(&self, seed: u64) -> Prng {
        Prng::new(seed ^ 0xDE7E)
    }

    fn batch(&self, rows: &[usize], _rng: &mut Prng) -> Result<SceneBatch, TensorError> {
        let cells = self.train.grid * self.train.grid;
        let mut classes = Vec::with_capacity(rows.len() * cells);
        for &i in rows {
            classes.extend_from_slice(&self.train.cell_classes[i * cells..(i + 1) * cells]);
        }
        Ok(SceneBatch {
            images: self.train.images.gather_rows(rows),
            targets: DetectionTargets::new(
                self.train.objectness.gather_rows(rows),
                self.train.boxes.gather_rows(rows),
                classes,
            )?,
        })
    }

    fn loss(&self, g: &mut Graph, batch: SceneBatch) -> Result<NodeId, TensorError> {
        let x = g.constant(batch.images);
        self.det.loss(g, x, &batch.targets)
    }

    fn val_loss(&self, _batch_size: usize) -> Result<f64, TensorError> {
        Ok(100.0 - detection_map(&self.det, self.test)?)
    }

    fn metric(&self, _batch_size: usize) -> Result<f64, TensorError> {
        detection_map(&self.det, self.test)
    }

    fn params(&self) -> Vec<Param> {
        self.det.params()
    }

    fn buffers(&self) -> Vec<(String, &RefCell<Tensor>)> {
        self.det.buffers()
    }

    fn streams(&self) -> Vec<(String, &RefCell<Prng>)> {
        self.det.streams()
    }
}

/// Evaluates a detector's mAP@0.5 (%) over a scene set.
///
/// # Errors
///
/// Propagates [`TensorError`]s from the model.
pub fn detection_map(det: &TinyDetector, test: &SceneDataset) -> Result<f64, TensorError> {
    let raw = det.decode(&test.images)?;
    let mut preds = Vec::new();
    for (image, dets) in raw.iter().enumerate() {
        for d in dets {
            if d.score > 0.05 {
                preds.push(Prediction {
                    image,
                    class: d.class,
                    score: d.score,
                    cxcywh: d.cxcywh,
                });
            }
        }
    }
    let mut gts = Vec::new();
    for (image, objs) in test.objects.iter().enumerate() {
        for o in objs {
            gts.push(GroundTruth {
                image,
                class: o.class,
                cxcywh: o.cxcywh,
            });
        }
    }
    Ok(mean_average_precision(&preds, &gts, test.num_classes, 0.5))
}

/// Masked-token pre-training of a [`TinyTransformer`] — the shared "BERT
/// checkpoint" every GLUE cell fine-tunes from — scored by the
/// reconstruction loss over the corpus.
struct PretrainTask<'a> {
    tf: TinyTransformer,
    corpus: &'a LmCorpus,
}

impl<'a> PretrainTask<'a> {
    /// A fresh transformer of shape `cfg`, initialised from `seed`.
    fn new(corpus: &'a LmCorpus, cfg: TransformerConfig, seed: u64) -> Self {
        PretrainTask {
            tf: TinyTransformer::new(cfg, seed),
            corpus,
        }
    }

    /// The (trained) transformer.
    fn into_model(self) -> TinyTransformer {
        self.tf
    }

    /// Tokens and targets of sequences `rows`.
    fn gather(&self, rows: impl Iterator<Item = usize>) -> (Vec<usize>, Vec<usize>) {
        let t = self.corpus.seq_len;
        let (mut inputs, mut targets) = (Vec::new(), Vec::new());
        for i in rows {
            inputs.extend_from_slice(&self.corpus.inputs[i * t..(i + 1) * t]);
            targets.extend_from_slice(&self.corpus.targets[i * t..(i + 1) * t]);
        }
        (inputs, targets)
    }
}

impl Task for PretrainTask<'_> {
    type Batch = (Vec<usize>, Vec<usize>);

    fn kind(&self) -> String {
        "pretrain".to_owned()
    }

    fn train_len(&self) -> usize {
        self.corpus.n
    }

    fn stream(&self, seed: u64) -> Prng {
        Prng::new(seed ^ 0x93A5)
    }

    fn batch(&self, rows: &[usize], _rng: &mut Prng) -> Result<Self::Batch, TensorError> {
        Ok(self.gather(rows.iter().copied()))
    }

    fn loss(&self, g: &mut Graph, (inputs, targets): Self::Batch) -> Result<NodeId, TensorError> {
        let logits = self
            .tf
            .lm_logits(g, &inputs, inputs.len() / self.corpus.seq_len)?;
        g.cross_entropy(logits, &targets)
    }

    fn val_loss(&self, batch_size: usize) -> Result<f64, TensorError> {
        let n = self.corpus.n;
        let mut total = 0.0f64;
        for start in (0..n).step_by(batch_size.max(1)) {
            let rows = start..(start + batch_size).min(n);
            let b = rows.len();
            let (inputs, targets) = self.gather(rows);
            let mut g = Graph::new(false);
            let logits = self.tf.lm_logits(&mut g, &inputs, b)?;
            let loss = g.cross_entropy(logits, &targets)?;
            total += g.value(loss).item() as f64 * b as f64;
        }
        Ok(total / n.max(1) as f64)
    }

    fn metric(&self, batch_size: usize) -> Result<f64, TensorError> {
        self.val_loss(batch_size)
    }

    fn params(&self) -> Vec<Param> {
        self.tf.params()
    }
}

/// Pre-trains a [`TinyTransformer`] on a masked-token corpus under AdamW
/// with gradient clipping at a constant LR.
///
/// # Errors
///
/// Propagates [`TrainError`]s from the trainer.
pub fn pretrain_transformer(
    corpus: &LmCorpus,
    cfg: TransformerConfig,
    epochs: usize,
    batch_size: usize,
    lr: f32,
    seed: u64,
) -> Result<TinyTransformer, TrainError> {
    let task = PretrainTask::new(corpus, cfg, seed);
    Trainer::new(TrainConfig {
        batch_size,
        lr,
        grad_clip: Some(1.0),
        ..TrainConfig::new(epochs, OptimizerKind::adamw(), ScheduleSpec::None, seed)
    })
    .run(&task, &mut Recorder::disabled())?;
    Ok(task.into_model())
}

/// Fine-tuning of a pre-trained transformer plus a fresh linear head on
/// one GLUE-analogue task (Tables 10–11), scored by test accuracy (%).
/// Train it under AdamW with `grad_clip: Some(1.0)`.
pub struct GlueTask<'a> {
    tf: TinyTransformer,
    head: Linear,
    task: &'a TextTask,
    /// The head-init stream, continued by the shuffles.
    stream: Prng,
}

impl<'a> GlueTask<'a> {
    /// A copy of `pretrained` with a head drawn from `seed`.
    pub fn new(pretrained: &TinyTransformer, task: &'a TextTask, seed: u64) -> Self {
        let tf = pretrained.clone_weights(seed);
        let mut stream = Prng::new(seed ^ 0x61E5);
        let head = Linear::new("task_head", tf.config().dim, task.num_classes, &mut stream);
        GlueTask {
            tf,
            head,
            task,
            stream,
        }
    }
}

impl Task for GlueTask<'_> {
    type Batch = (Vec<usize>, Vec<usize>);

    fn kind(&self) -> String {
        format!("glue:{}", self.task.name)
    }

    fn train_len(&self) -> usize {
        self.task.train_len()
    }

    /// Shuffles continue the stream the head was drawn from at
    /// construction, whatever the run seed.
    fn stream(&self, _seed: u64) -> Prng {
        self.stream.clone()
    }

    fn batch(&self, rows: &[usize], _rng: &mut Prng) -> Result<Self::Batch, TensorError> {
        let t = self.task.seq_len;
        let mut tokens = Vec::with_capacity(rows.len() * t);
        for &i in rows {
            tokens.extend_from_slice(&self.task.train_tokens[i * t..(i + 1) * t]);
        }
        let labels = rows.iter().map(|&i| self.task.train_labels[i]).collect();
        Ok((tokens, labels))
    }

    fn loss(&self, g: &mut Graph, (tokens, labels): Self::Batch) -> Result<NodeId, TensorError> {
        let logits = self.tf.classify(g, &tokens, labels.len(), &self.head)?;
        g.cross_entropy(logits, &labels)
    }

    fn val_loss(&self, _batch_size: usize) -> Result<f64, TensorError> {
        Ok(100.0 - glue_accuracy(&self.tf, &self.head, self.task)?)
    }

    fn metric(&self, _batch_size: usize) -> Result<f64, TensorError> {
        glue_accuracy(&self.tf, &self.head, self.task)
    }

    fn params(&self) -> Vec<Param> {
        let mut params = self.tf.encoder_params();
        params.extend(self.head.params());
        params
    }
}

/// Test accuracy (%) of a fine-tuned transformer + head on one task.
///
/// # Errors
///
/// Propagates [`TensorError`]s from the model.
pub fn glue_accuracy(
    tf: &TinyTransformer,
    head: &Linear,
    task: &TextTask,
) -> Result<f64, TensorError> {
    let t_len = task.seq_len;
    let n = task.test_len();
    let mut predictions = Vec::with_capacity(n);
    for chunk_start in (0..n).step_by(32) {
        let chunk_end = (chunk_start + 32).min(n);
        let b = chunk_end - chunk_start;
        let tokens = &task.test_tokens[chunk_start * t_len..chunk_end * t_len];
        let mut g = Graph::new(false);
        let logits = tf.classify(&mut g, tokens, b, head)?;
        predictions.extend(g.value(logits).argmax_rows()?);
    }
    Ok(rex_eval::stats::accuracy(&predictions, &task.test_labels))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rex_data::digits::synth_digits;
    use rex_data::images::synth_cifar10;
    use rex_data::scenes::synth_scenes;
    use rex_data::text::{glue_tasks, lm_corpus};

    fn cfg(epochs: usize, batch_size: usize, optimizer: OptimizerKind, lr: f32) -> TrainConfig {
        TrainConfig {
            batch_size,
            lr,
            ..TrainConfig::new(epochs, optimizer, ScheduleSpec::Rex, 1)
        }
    }

    #[test]
    fn image_cell_runs_and_returns_error() {
        let data = synth_cifar10(3, 2, 0);
        let err = ImageModel::MicroResNet20
            .train(
                &data,
                cfg(1, 16, OptimizerKind::sgdm(), 0.05),
                &mut Recorder::disabled(),
            )
            .unwrap();
        assert!((0.0..=100.0).contains(&err));
    }

    #[test]
    fn vae_cell_improves_over_untrained() {
        let train = synth_digits(64, 12, 0);
        let test = synth_digits(32, 12, 1);
        let untrained = vae_loss(VaeTask::new(&train, &test, 5).vae(), &test).unwrap();
        let task = VaeTask::new(&train, &test, 5);
        let config = TrainConfig {
            seed: 5,
            ..cfg(4, 16, OptimizerKind::adam(), 1e-3)
        };
        let trained = Trainer::new(config)
            .run(&task, &mut Recorder::disabled())
            .unwrap()
            .final_metric;
        assert!(trained < untrained, "{trained} !< {untrained}");
    }

    #[test]
    fn detection_cell_produces_valid_map() {
        let train = synth_scenes(16, 24, 0);
        let test = synth_scenes(8, 24, 1);
        let task = DetectionTask::new(&train, &test, 2);
        let config = TrainConfig {
            schedule: ScheduleSpec::Linear,
            seed: 2,
            ..cfg(1, 8, OptimizerKind::adam(), 1e-3)
        };
        let config = task.with_warmup(config, 1);
        assert_eq!(config.epochs, 2);
        let map = Trainer::new(config)
            .run(&task, &mut Recorder::disabled())
            .unwrap()
            .final_metric;
        assert!((0.0..=100.0).contains(&map));
    }

    #[test]
    fn glue_cell_beats_chance_after_finetune() {
        let tcfg = TransformerConfig {
            vocab: 32,
            dim: 16,
            heads: 2,
            depth: 1,
            seq_len: 12,
            ff_mult: 2,
        };
        let corpus = lm_corpus(64, 12, 32, 0);
        let tf = pretrain_transformer(&corpus, tcfg, 2, 16, 1e-3, 3).unwrap();
        let tasks = glue_tasks(128, 64, 12, 32, 4);
        let sst2 = tasks.iter().find(|t| t.name == "SST-2").unwrap();
        let task = GlueTask::new(&tf, sst2, 5);
        let acc = Trainer::new(TrainConfig {
            schedule: ScheduleSpec::Linear,
            grad_clip: Some(1.0),
            seed: 5,
            ..cfg(3, 8, OptimizerKind::adamw(), 3e-3)
        })
        .run(&task, &mut Recorder::disabled())
        .unwrap()
        .final_metric;
        assert!(acc > 55.0, "accuracy {acc} not above chance");
    }
}
