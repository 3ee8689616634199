use crate::error::TrainError;
use crate::lineage::Lineage;
use crate::snapshot::TrainState;
use rex_autograd::{Graph, NodeId, Param};
use rex_core::{Schedule, ScheduleSpec};
use rex_data::batches;
use rex_nn::{checkpoint, Module};
use rex_optim::{clip_grad_norm, global_grad_norm, global_param_norm, Adam, Optimizer, Sgd};
use rex_telemetry::span::span;
use rex_telemetry::{Event, Recorder, StepRecord};
use rex_tensor::{DType, Prng, Tensor, TensorError};
use std::cell::RefCell;
use std::path::PathBuf;
use std::time::Instant;

/// Which optimizer family to instantiate (the paper pairs every schedule
/// with both SGDM and Adam; the BERT setting uses AdamW).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OptimizerKind {
    /// SGD with momentum (default β = 0.9).
    Sgdm {
        /// Momentum coefficient.
        momentum: f32,
        /// L2 weight decay.
        weight_decay: f32,
    },
    /// Adam with optional coupled L2 decay.
    Adam {
        /// L2 weight decay (coupled).
        weight_decay: f32,
    },
    /// AdamW (decoupled decay).
    AdamW {
        /// Decoupled weight decay.
        weight_decay: f32,
    },
}

impl OptimizerKind {
    /// The paper's standard SGDM (β = 0.9, light decay).
    pub fn sgdm() -> Self {
        OptimizerKind::Sgdm {
            momentum: 0.9,
            weight_decay: 5e-4,
        }
    }

    /// The paper's standard Adam.
    pub fn adam() -> Self {
        OptimizerKind::Adam { weight_decay: 0.0 }
    }

    /// AdamW as used for BERT fine-tuning.
    pub fn adamw() -> Self {
        OptimizerKind::AdamW { weight_decay: 0.01 }
    }

    /// Display name matching the paper's table headers.
    pub fn name(&self) -> &'static str {
        match self {
            OptimizerKind::Sgdm { .. } => "SGDM",
            OptimizerKind::Adam { .. } => "Adam",
            OptimizerKind::AdamW { .. } => "AdamW",
        }
    }

    /// Instantiates the optimizer over `params` at the given initial LR.
    pub fn build(&self, params: Vec<Param>, lr: f32) -> Box<dyn Optimizer> {
        match *self {
            OptimizerKind::Sgdm {
                momentum,
                weight_decay,
            } => Box::new(
                Sgd::new(params, lr)
                    .with_momentum(momentum)
                    .with_weight_decay(weight_decay),
            ),
            OptimizerKind::Adam { weight_decay } => {
                let mut a = Adam::new(params, lr);
                if weight_decay > 0.0 {
                    a = a.with_weight_decay(weight_decay);
                }
                Box::new(a)
            }
            OptimizerKind::AdamW { weight_decay } => {
                Box::new(Adam::adamw(params, lr, weight_decay))
            }
        }
    }

    /// A sensible tuned default initial LR for this optimizer family on the
    /// micro-models (the starting point for ×3 tuning). These sit at the
    /// top of the stable range — the operating point per-schedule tuning
    /// selects in the paper, where decaying schedules can exploit a large
    /// initial step.
    pub fn default_lr(&self) -> f32 {
        match self {
            OptimizerKind::Sgdm { .. } => 0.1,
            OptimizerKind::Adam { .. } => 1e-2,
            OptimizerKind::AdamW { .. } => 3e-3,
        }
    }
}

/// What the trainer does when a numeric guard observes a non-finite loss
/// or gradient norm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GuardPolicy {
    /// Guards disabled (no extra norm computation when untraced).
    #[default]
    Off,
    /// Return [`TrainError::NonFinite`] naming the step and the offending
    /// tensor.
    Abort,
    /// Drop the step — no optimizer update, no loss accumulation — but
    /// advance the budget clock by the batch's samples and move on.
    SkipStep,
    /// Restore the last checkpoint (model, optimizer, RNG, progress) and
    /// re-run from there; a second trip at the same step aborts.
    Rollback,
}

impl GuardPolicy {
    /// Short action label used in telemetry and CLI flags.
    pub fn name(&self) -> &'static str {
        match self {
            GuardPolicy::Off => "off",
            GuardPolicy::Abort => "abort",
            GuardPolicy::SkipStep => "skip",
            GuardPolicy::Rollback => "rollback",
        }
    }

    /// Parses a CLI spelling (`off`, `abort`, `skip`, `rollback`).
    ///
    /// # Errors
    ///
    /// Returns a descriptive message for unknown spellings.
    pub fn parse(s: &str) -> Result<GuardPolicy, String> {
        match s {
            "off" => Ok(GuardPolicy::Off),
            "abort" => Ok(GuardPolicy::Abort),
            "skip" => Ok(GuardPolicy::SkipStep),
            "rollback" => Ok(GuardPolicy::Rollback),
            other => Err(format!(
                "unknown guard policy {other:?} (expected off|abort|skip|rollback)"
            )),
        }
    }
}

/// Fault-tolerance knobs: checkpointing, resume, numeric guards, and
/// deliberate halts. The default is everything off — zero overhead.
#[derive(Debug, Clone, Default)]
pub struct FtConfig {
    /// Write a [`TrainState`] snapshot every N optimizer steps.
    pub checkpoint_every: Option<u64>,
    /// Where snapshots are written (required with `checkpoint_every`).
    pub checkpoint_path: Option<PathBuf>,
    /// Resume from this snapshot instead of starting fresh.
    pub resume_from: Option<PathBuf>,
    /// Numeric-guard policy for non-finite losses/gradients.
    pub guard: GuardPolicy,
    /// Stop cleanly with [`TrainError::Halted`] after this step completes
    /// (its checkpoint included) — deterministic in-process "kill".
    pub halt_after_step: Option<u64>,
    /// Cooperative cancellation: checked once per optimizer step (after
    /// the step's checkpoint, like `halt_after_step`); when another
    /// thread sets it, the run stops with [`TrainError::Halted`]. The
    /// snapshot on disk (if checkpointing is on) resumes the run.
    pub stop_flag: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
    /// Retain this many snapshot generations instead of one file: with
    /// this set, `checkpoint_path` names a *directory* and every
    /// checkpoint writes a fresh `state.NNNNN.rexstate` generation
    /// through [`Lineage`] (rotating out the oldest). Resume from the
    /// directory falls back over damaged generations. Requires
    /// `checkpoint_every`; minimum 1.
    pub keep_checkpoints: Option<usize>,
    /// Also snapshot when the run halts (via `halt_after_step` or the
    /// stop flag) at a step that is not a checkpoint multiple. The
    /// halt-time snapshot emits *no* trace event — the trace stays
    /// byte-identical to an uninterrupted run's — it only moves the
    /// resume point forward so a drain loses no completed steps.
    pub checkpoint_on_halt: bool,
    /// Liveness heartbeat: when set, the last completed optimizer step is
    /// stored here every step. A supervisor can watch it to detect a run
    /// that stopped making progress (hung I/O, live-locked backend).
    pub heartbeat: Option<std::sync::Arc<std::sync::atomic::AtomicU64>>,
}

impl FtConfig {
    /// Whether the cooperative stop flag is set.
    fn stop_requested(&self) -> bool {
        self.stop_flag
            .as_ref()
            .is_some_and(|f| f.load(std::sync::atomic::Ordering::Acquire))
    }
}

/// Configuration of one training run.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Number of (budgeted) epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Initial learning rate η₀.
    pub lr: f32,
    /// Optimizer family.
    pub optimizer: OptimizerKind,
    /// Schedule specification (built fresh inside the run).
    pub schedule: ScheduleSpec,
    /// Gradient clipping threshold (global L2 norm), if any.
    pub grad_clip: Option<f32>,
    /// Run seed: reported in `run_start`, checked on resume, and turned
    /// into the shuffle/augmentation stream by [`Task::stream`].
    pub seed: u64,
    /// Parameter storage precision. `F32` is the legacy bit-exact path;
    /// `F16`/`Bf16` keep all arithmetic in f32 (master weights) but round
    /// stored parameters, optimizer state, and buffers to the narrow
    /// dtype after every step, halving checkpoint tensor sections.
    pub dtype: DType,
    /// Fault-tolerance settings (checkpoint/resume/guards); default off.
    pub ft: FtConfig,
}

impl TrainConfig {
    /// A config with common defaults: batches of 32, the optimizer's
    /// default LR, no clipping, f32 storage, fault tolerance off.
    pub fn new(epochs: usize, optimizer: OptimizerKind, schedule: ScheduleSpec, seed: u64) -> Self {
        TrainConfig {
            epochs,
            batch_size: 32,
            lr: optimizer.default_lr(),
            optimizer,
            schedule,
            grad_clip: None,
            seed,
            dtype: DType::F32,
            ft: FtConfig::default(),
        }
    }
}

/// Per-epoch diagnostics collected during a run.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochStats {
    /// Mean training loss over the epoch.
    pub train_loss: f64,
    /// Validation loss, when computed (plateau schedules).
    pub val_loss: Option<f64>,
    /// Learning rate at the epoch's last iteration.
    pub lr: f32,
}

/// Result of a training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainResult {
    /// Final evaluation metric (test error %, loss, …; task-defined).
    pub final_metric: f64,
    /// Per-epoch history.
    pub history: Vec<EpochStats>,
}

/// One training problem for [`Trainer::run`]: a training set served as
/// shuffled mini-batches, a loss, an evaluation, and the model state a
/// snapshot holds. The trainer owns everything else — budget clock,
/// schedule, optimizer, dtype rounding, guards, snapshots, telemetry and
/// spans — so every task gets all of it the same way.
pub trait Task {
    /// A gathered mini-batch.
    type Batch;

    /// Run label reported in `run_start` and checked on resume
    /// (`"classifier"`, `"vae"`, `"detection"`, `"glue:CoLA"`, …).
    fn kind(&self) -> String;

    /// Number of training samples; each epoch shuffles this many rows.
    fn train_len(&self) -> usize;

    /// The trainer's shuffle stream for a run seeded `seed`; image
    /// batches are flipped from it too. Default: `Prng::new(seed)`.
    fn stream(&self, seed: u64) -> Prng {
        Prng::new(seed)
    }

    /// Gathers the mini-batch of training rows `rows`, drawing any
    /// augmentation from `rng`.
    ///
    /// # Errors
    ///
    /// Propagates tensor errors from assembling the batch.
    fn batch(&self, rows: &[usize], rng: &mut Prng) -> Result<Self::Batch, TensorError>;

    /// Builds `batch`'s scalar training loss on `g`.
    ///
    /// # Errors
    ///
    /// Propagates the model's forward errors.
    fn loss(&self, g: &mut Graph, batch: Self::Batch) -> Result<NodeId, TensorError>;

    /// Validation loss for plateau schedules (lower is better), in eval
    /// mode; `batch_size` is the training batch size.
    ///
    /// # Errors
    ///
    /// Propagates the model's forward errors.
    fn val_loss(&self, batch_size: usize) -> Result<f64, TensorError>;

    /// The headline metric reported when the run ends, in eval mode.
    ///
    /// # Errors
    ///
    /// Propagates the model's forward errors.
    fn metric(&self, batch_size: usize) -> Result<f64, TensorError>;

    /// Trainable parameters, in a deterministic order.
    fn params(&self) -> Vec<Param>;

    /// Non-trainable state a snapshot holds ([`Module::buffers`]).
    fn buffers(&self) -> Vec<(String, &RefCell<Tensor>)> {
        Vec::new()
    }

    /// Private RNG streams a snapshot holds ([`Module::streams`]).
    fn streams(&self) -> Vec<(String, &RefCell<Prng>)> {
        Vec::new()
    }
}

/// The budget-aware training loop.
///
/// `Trainer` is model-agnostic: a [`Task`] supplies the data, loss and
/// evaluation. The schedule is stepped **per iteration** against the
/// budgeted sample horizon, exactly as the paper prescribes.
pub struct Trainer {
    config: TrainConfig,
    schedule: Box<dyn Schedule>,
}

impl std::fmt::Debug for Trainer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Trainer({:?}, schedule {})",
            self.config,
            self.schedule.name()
        )
    }
}

impl Trainer {
    /// Builds a trainer, instantiating a fresh schedule from the config.
    pub fn new(config: TrainConfig) -> Self {
        let schedule = config.schedule.build();
        Trainer { config, schedule }
    }

    /// The run configuration.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Trains `task` under the configured budget, returning its final
    /// metric and per-epoch history.
    ///
    /// Telemetry goes into `rec`: run/epoch boundaries, one
    /// [`StepRecord`] per optimizer step (applied LR, batch loss,
    /// pre-clip gradient norm, post-step parameter norm), validation
    /// passes, and the final metric. With a disabled recorder the norms
    /// are not even computed (unless a numeric guard needs them).
    ///
    /// With `cfg.ft.checkpoint_every` set, a full [`TrainState`] is
    /// written crash-consistently every N steps; `cfg.ft.resume_from`
    /// restores one and continues bit-for-bit — the finished trace is
    /// byte-identical to an uninterrupted run's.
    ///
    /// # Errors
    ///
    /// Propagates [`TensorError`]s from the task (as
    /// [`TrainError::Tensor`]), checkpoint/resume failures, guard aborts,
    /// and the deliberate [`TrainError::Halted`].
    pub fn run<T: Task>(
        &mut self,
        task: &T,
        rec: &mut Recorder,
    ) -> Result<TrainResult, TrainError> {
        let cfg = self.config.clone();
        let ft = &cfg.ft;
        self.validate_ft(ft)?;
        if !cfg.dtype.trainable() {
            return Err(TrainError::Config(format!(
                "{} is not a trainable dtype (expected f32 | f16 | bf16)",
                cfg.dtype
            )));
        }
        let mut opt = cfg.optimizer.build(task.params(), cfg.lr);
        opt.set_param_dtype(cfg.dtype);
        if cfg.dtype != DType::F32 {
            // project the fresh initialisation onto the storage grid; from
            // here the optimizer's per-step rounding keeps params there
            for p in opt.params() {
                cfg.dtype.round_slice(p.value_mut().data_mut());
            }
            round_buffers(cfg.dtype, task);
        }
        let traced = rec.is_enabled();
        opt.set_instrumented(traced);
        let guard_on = ft.guard != GuardPolicy::Off;
        // Budget accounting is sample-exact: schedule progress advances by
        // the number of samples actually consumed, so a partial final
        // mini-batch moves the clock by its true size rather than a full
        // step. (When the dataset size divides the batch size the
        // progress fractions — and therefore the LR trajectory — are
        // identical to per-step accounting.)
        let n = task.train_len();
        let total_samples = n as u64 * cfg.epochs as u64;
        let needs_val = cfg.schedule.needs_validation_feedback();
        let schedule_name = self.schedule.name();

        let mut live = Live {
            task,
            opt,
            rng: task.stream(cfg.seed),
            st: LoopSt::fresh(cfg.lr, cfg.epochs),
            kind: task.kind(),
            total_samples,
            mem_snap: None,
            rolled_back_at: None,
        };
        if let Some(resume_path) = &ft.resume_from {
            // a directory is a checkpoint lineage: resolve the newest
            // generation that validates, falling back over damaged ones
            let state = if resume_path.is_dir() {
                Lineage::resolve(resume_path).map(|(state, _, _)| state)
            } else {
                TrainState::load(resume_path)
            }
            .map_err(|source| TrainError::Checkpoint {
                action: "load",
                path: resume_path.clone(),
                source,
            })?;
            self.check_resume(&state, &cfg, &live.kind, total_samples)?;
            live.restore(&state, rec)?;
            rec.emit(Event::Resume { step: live.st.step });
        } else {
            rec.emit(Event::RunStart {
                run: live.kind.clone(),
                schedule: schedule_name.clone(),
                optimizer: cfg.optimizer.name().to_owned(),
                seed: cfg.seed,
                total_samples,
            });
        }

        let mut last_ckpt_step: Option<u64> = None;
        // profiling spans never touch the Recorder, so the deterministic
        // trace stays byte-identical with profiling on; the span *tree*
        // (names and nesting) is itself a pure function of the config
        let _job_span = span("job");
        'run: while (live.st.epoch as usize) < cfg.epochs {
            let _epoch_span = span("epoch");
            let order = if live.st.mid_epoch {
                // Rebuild the in-flight epoch's batch order by replaying
                // the saved pre-shuffle RNG state; the live stream already
                // sits past the shuffle (and every completed batch's
                // augmentation), exactly where the uninterrupted run was.
                // The Epoch event is in the trace prefix — not re-emitted.
                live.st.mid_epoch = false;
                Prng::from_state(live.st.rng_epoch_start).permutation(n)
            } else {
                let st = &mut live.st;
                st.rng_epoch_start = live.rng.state();
                st.batch_in_epoch = 0;
                st.epoch_loss = 0.0;
                st.epoch_batches = 0;
                rec.emit(Event::Epoch {
                    epoch: st.epoch,
                    samples: n as u64,
                    batches: n.div_ceil(cfg.batch_size) as u64,
                    shuffled: true,
                });
                live.rng.permutation(n)
            };
            let batches: Vec<&[usize]> = order.chunks(cfg.batch_size).collect();
            while let Some(&rows) = batches.get(live.st.batch_in_epoch as usize) {
                let _step_span = span("step");
                let samples = rows.len() as u64;
                let step_start = traced.then(Instant::now);
                let st = &mut live.st;
                let factor = self.schedule.factor(st.samples_done, total_samples) as f32;
                st.last_lr = cfg.lr * factor;
                live.opt.set_lr(st.last_lr);
                if let Some(m) = self.schedule.momentum(st.samples_done, total_samples) {
                    live.opt.set_momentum(m as f32);
                }
                live.opt.zero_grad();
                let data_span = span("data");
                let batch = task.batch(rows, &mut live.rng)?;
                drop(data_span);
                let fwd_span = span("forward");
                let mut g = Graph::new(true);
                let loss = task.loss(&mut g, batch)?;
                let mut batch_loss = g.value(loss).item() as f64;
                drop(fwd_span);
                if rex_faults::poison_loss(live.st.step) {
                    batch_loss = f64::NAN;
                }
                if guard_on && !batch_loss.is_finite() {
                    match live.trip_guard(ft, "loss".to_owned(), batch_loss, samples, rec)? {
                        GuardOutcome::SkipBatch => continue,
                        GuardOutcome::RestartFromSnapshot => continue 'run,
                    }
                }
                let bwd_span = span("backward");
                g.backward(loss)?;
                drop(bwd_span);
                if let Some(seed_idx) = rex_faults::poison_grad(live.st.step) {
                    let params = live.opt.params();
                    if !params.is_empty() {
                        params[seed_idx % params.len()].grad_mut().data_mut()[0] = f32::NAN;
                    }
                }
                let opt_span = span("optimizer");
                let grad_norm = if let Some(max_norm) = cfg.grad_clip {
                    clip_grad_norm(live.opt.params(), max_norm)
                } else if traced || guard_on {
                    global_grad_norm(live.opt.params())
                } else {
                    0.0
                };
                if guard_on && !grad_norm.is_finite() {
                    let what = offending_grad(live.opt.params());
                    match live.trip_guard(ft, what, grad_norm as f64, samples, rec)? {
                        GuardOutcome::SkipBatch => continue,
                        GuardOutcome::RestartFromSnapshot => continue 'run,
                    }
                }
                live.opt.step();
                if cfg.dtype != DType::F32 {
                    // batch-norm running stats were updated by the forward
                    // pass in full precision; round them like the params so
                    // a checkpoint serializes them losslessly
                    round_buffers(cfg.dtype, task);
                }
                drop(opt_span);
                let st = &mut live.st;
                st.epoch_loss += batch_loss;
                st.epoch_batches += 1;
                st.samples_done += samples;
                if traced {
                    rec.emit(Event::Step(StepRecord {
                        step: st.step,
                        epoch: st.epoch,
                        batch_id: st.batch_in_epoch,
                        lr: st.last_lr as f64,
                        loss: batch_loss,
                        grad_norm: grad_norm as f64,
                        param_norm: global_param_norm(live.opt.params()) as f64,
                        elapsed_ns: step_start
                            .map(|s| s.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64)
                            .unwrap_or(0),
                    }));
                }
                st.batch_in_epoch += 1;
                st.step += 1;
                let step = st.step;
                if let Some(hb) = &ft.heartbeat {
                    hb.store(step, std::sync::atomic::Ordering::Release);
                }

                if ft
                    .checkpoint_every
                    .is_some_and(|every| step.is_multiple_of(every))
                {
                    let _ckpt_span = span("checkpoint");
                    // cursor ordering: the checkpoint line joins the
                    // deterministic stream first, then the flush makes the
                    // whole prefix durable, then the snapshot records the
                    // cursor — a resume truncates the trace to exactly
                    // this prefix
                    rec.emit(Event::Checkpoint { step });
                    rec.flush();
                    let state = live.capture(&cfg, &schedule_name, rec.lines_emitted());
                    write_snapshot(ft, &state)?;
                    last_ckpt_step = Some(step);
                    if ft.guard == GuardPolicy::Rollback {
                        live.mem_snap = Some(state);
                    }
                }
                rex_faults::crash_point(step);
                if ft.halt_after_step == Some(step) || ft.stop_requested() {
                    if ft.checkpoint_on_halt
                        && ft.checkpoint_every.is_some()
                        && last_ckpt_step != Some(step)
                    {
                        // snapshot at the halt boundary with *no* trace
                        // event: the cursor covers exactly the flushed
                        // deterministic prefix, so the resumed trace is
                        // still byte-identical to an uninterrupted run's
                        rec.flush();
                        let state = live.capture(&cfg, &schedule_name, rec.lines_emitted());
                        write_snapshot(ft, &state)?;
                    }
                    rec.flush();
                    return Err(TrainError::Halted { step });
                }
            }
            let st = &mut live.st;
            let val_loss = if needs_val {
                let _val_span = span("validation");
                let vl = task.val_loss(cfg.batch_size)?;
                self.schedule.on_validation(vl);
                if traced {
                    rec.emit(Event::Validation {
                        epoch: st.epoch,
                        loss: vl,
                    });
                }
                Some(vl)
            } else {
                None
            };
            let mean_loss = st.epoch_loss / st.epoch_batches.max(1) as f64;
            if traced {
                rec.emit(Event::EpochEnd {
                    epoch: st.epoch,
                    mean_loss,
                    lr: st.last_lr as f64,
                });
            }
            st.history.push(EpochStats {
                train_loss: mean_loss,
                val_loss,
                lr: st.last_lr,
            });
            st.epoch += 1;
        }

        let final_metric = task.metric(cfg.batch_size)?;
        rec.emit(Event::RunEnd {
            metric: final_metric,
        });
        rec.flush();
        Ok(TrainResult {
            final_metric,
            history: live.st.history,
        })
    }

    fn validate_ft(&self, ft: &FtConfig) -> Result<(), TrainError> {
        if ft.checkpoint_every == Some(0) {
            return Err(TrainError::Config(
                "checkpoint interval must be at least 1 step".to_owned(),
            ));
        }
        if ft.checkpoint_every.is_some() && ft.checkpoint_path.is_none() {
            return Err(TrainError::Config(
                "checkpoint_every is set but checkpoint_path is not".to_owned(),
            ));
        }
        if ft.keep_checkpoints == Some(0) {
            return Err(TrainError::Config(
                "keep_checkpoints must be at least 1 generation".to_owned(),
            ));
        }
        if ft.keep_checkpoints.is_some() && ft.checkpoint_every.is_none() {
            return Err(TrainError::Config(
                "keep_checkpoints is set but checkpoint_every is not".to_owned(),
            ));
        }
        if (ft.checkpoint_every.is_some() || ft.resume_from.is_some()) && self.schedule.stateful() {
            return Err(TrainError::Config(format!(
                "schedule {:?} reacts to validation feedback, which a snapshot cannot \
                 capture; checkpoint/resume is unavailable for it",
                self.schedule.name()
            )));
        }
        if ft.guard == GuardPolicy::Rollback && ft.checkpoint_every.is_none() {
            return Err(TrainError::Config(
                "guard policy rollback requires checkpoint_every".to_owned(),
            ));
        }
        Ok(())
    }

    fn check_resume(
        &self,
        state: &TrainState,
        cfg: &TrainConfig,
        kind: &str,
        total_samples: u64,
    ) -> Result<(), TrainError> {
        let mismatch = |field: &str, run: String, ckpt: String| {
            Err(TrainError::Resume(format!(
                "{field} mismatch: run has {run}, checkpoint has {ckpt}"
            )))
        };
        if state.run != kind {
            return mismatch("run kind", kind.to_owned(), state.run.clone());
        }
        if state.schedule != self.schedule.name() {
            return mismatch("schedule", self.schedule.name(), state.schedule.clone());
        }
        if state.optimizer != cfg.optimizer.name() {
            return mismatch(
                "optimizer",
                cfg.optimizer.name().to_owned(),
                state.optimizer.clone(),
            );
        }
        if state.seed != cfg.seed {
            return mismatch("seed", cfg.seed.to_string(), state.seed.to_string());
        }
        if state.batch_size != cfg.batch_size as u64 {
            return mismatch(
                "batch size",
                cfg.batch_size.to_string(),
                state.batch_size.to_string(),
            );
        }
        if state.epochs != cfg.epochs as u64 {
            return mismatch("epochs", cfg.epochs.to_string(), state.epochs.to_string());
        }
        if state.lr.to_bits() != cfg.lr.to_bits() {
            return mismatch("initial lr", cfg.lr.to_string(), state.lr.to_string());
        }
        if state.dtype != cfg.dtype {
            return mismatch("dtype", cfg.dtype.to_string(), state.dtype.to_string());
        }
        if state.total_samples != total_samples {
            return mismatch(
                "dataset size (total samples)",
                total_samples.to_string(),
                state.total_samples.to_string(),
            );
        }
        Ok(())
    }
}

/// How the training loop continues after a guard trip that did not abort.
enum GuardOutcome {
    /// Skip this batch and continue the inner loop.
    SkipBatch,
    /// State was restored from the last checkpoint; restart the epoch
    /// loop (mid-epoch).
    RestartFromSnapshot,
}

/// Mutable position of the training loop — everything a snapshot captures
/// besides the model/optimizer tensors.
struct LoopSt {
    epoch: u64,
    batch_in_epoch: u64,
    step: u64,
    samples_done: u64,
    epoch_loss: f64,
    epoch_batches: u64,
    last_lr: f32,
    history: Vec<EpochStats>,
    /// RNG state immediately before the current epoch's shuffle.
    rng_epoch_start: [u64; 4],
    /// Entered the epoch loop with restored mid-epoch state: rebuild the
    /// batch order from `rng_epoch_start` instead of shuffling afresh.
    mid_epoch: bool,
}

impl LoopSt {
    fn fresh(lr: f32, epochs: usize) -> Self {
        LoopSt {
            epoch: 0,
            batch_in_epoch: 0,
            step: 0,
            samples_done: 0,
            epoch_loss: 0.0,
            epoch_batches: 0,
            last_lr: lr,
            history: Vec::with_capacity(epochs),
            rng_epoch_start: [0; 4],
            mid_epoch: false,
        }
    }
}

/// The objects one run mutates — what a snapshot photographs and a
/// resume or rollback restores.
struct Live<'t, T> {
    task: &'t T,
    opt: Box<dyn Optimizer>,
    /// The trainer's shuffle (and flip) stream.
    rng: Prng,
    st: LoopSt,
    /// The task's run label.
    kind: String,
    total_samples: u64,
    /// Rollback target: the last checkpoint, kept in memory alongside the
    /// on-disk file so restoring needs no I/O.
    mem_snap: Option<TrainState>,
    /// The step a rollback last restarted from; a second trip there aborts.
    rolled_back_at: Option<u64>,
}

impl<T: Task> Live<'_, T> {
    /// Photographs the live training objects into a [`TrainState`].
    fn capture(&self, cfg: &TrainConfig, schedule: &str, trace_events: u64) -> TrainState {
        let st = &self.st;
        TrainState {
            run: self.kind.clone(),
            schedule: schedule.to_owned(),
            optimizer: cfg.optimizer.name().to_owned(),
            seed: cfg.seed,
            total_samples: self.total_samples,
            batch_size: cfg.batch_size as u64,
            epochs: cfg.epochs as u64,
            lr: cfg.lr,
            dtype: cfg.dtype,
            backend: rex_tensor::backend::kind().to_string(),
            simd_level: rex_tensor::backend::active().simd_level().to_owned(),
            epoch: st.epoch,
            batch_in_epoch: st.batch_in_epoch,
            step: st.step,
            samples_done: st.samples_done,
            epoch_loss: st.epoch_loss,
            epoch_batches: st.epoch_batches,
            last_lr: st.last_lr,
            history: st.history.clone(),
            rng: self.rng.state(),
            rng_epoch_start: st.rng_epoch_start,
            trace_events,
            model: self
                .task
                .params()
                .iter()
                .map(|p| (p.name(), p.value().clone()))
                .collect(),
            buffers: self
                .task
                .buffers()
                .iter()
                .map(|(name, cell)| (name.clone(), cell.borrow().clone()))
                .collect(),
            optim: self.opt.export_state(),
            streams: self
                .task
                .streams()
                .iter()
                .map(|(name, cell)| (name.clone(), cell.borrow().state()))
                .collect(),
        }
    }

    /// Installs a snapshot into the live training objects (params,
    /// buffers, streams, optimizer internals, RNG stream, loop position,
    /// telemetry cursor). Shared by resume-from-file and in-memory
    /// rollback.
    fn restore(&mut self, state: &TrainState, rec: &mut Recorder) -> Result<(), TrainError> {
        checkpoint::restore_params(&state.model, &self.task.params())
            .map_err(TrainError::Resume)?;
        let live = self.task.buffers();
        if live.len() != state.buffers.len() {
            return Err(TrainError::Resume(format!(
                "model has {} buffers, checkpoint has {}",
                live.len(),
                state.buffers.len()
            )));
        }
        for (name, cell) in live {
            let saved = state
                .buffers
                .iter()
                .find(|(n, _)| *n == name)
                .ok_or_else(|| {
                    TrainError::Resume(format!("checkpoint is missing buffer {name:?}"))
                })?;
            if saved.1.shape() != cell.borrow().shape() {
                return Err(TrainError::Resume(format!(
                    "buffer {name:?} has shape {:?}, checkpoint has {:?}",
                    cell.borrow().shape(),
                    saved.1.shape()
                )));
            }
            *cell.borrow_mut() = saved.1.clone();
        }
        let live = self.task.streams();
        for (name, cell) in &live {
            let saved = state
                .streams
                .iter()
                .find(|(n, _)| n == name)
                .ok_or_else(|| {
                    TrainError::Resume(format!("checkpoint is missing RNG stream {name:?}"))
                })?;
            *cell.borrow_mut() = Prng::from_state(saved.1);
        }
        if live.len() != state.streams.len() {
            return Err(TrainError::Resume(format!(
                "model has {} RNG streams, checkpoint has {}",
                live.len(),
                state.streams.len()
            )));
        }
        self.opt
            .import_state(&state.optim)
            .map_err(TrainError::Resume)?;
        self.rng = Prng::from_state(state.rng);
        rec.set_lines_emitted(state.trace_events);
        self.st = LoopSt {
            epoch: state.epoch,
            batch_in_epoch: state.batch_in_epoch,
            step: state.step,
            samples_done: state.samples_done,
            epoch_loss: state.epoch_loss,
            epoch_batches: state.epoch_batches,
            last_lr: state.last_lr,
            history: state.history.clone(),
            rng_epoch_start: state.rng_epoch_start,
            mid_epoch: true,
        };
        Ok(())
    }

    /// Handles one numeric-guard trip. Returns how the loop should
    /// proceed, or the abort error.
    fn trip_guard(
        &mut self,
        ft: &FtConfig,
        what: String,
        value: f64,
        batch_samples: u64,
        rec: &mut Recorder,
    ) -> Result<GuardOutcome, TrainError> {
        let step = self.st.step;
        rec.emit(Event::GuardTrip {
            step,
            what: what.clone(),
            value,
            action: ft.guard.name().to_owned(),
        });
        match ft.guard {
            GuardPolicy::Off | GuardPolicy::Abort => {
                rec.flush();
                Err(TrainError::NonFinite { step, what, value })
            }
            GuardPolicy::SkipStep => {
                // the step is dropped but its samples still count toward
                // the budget clock — the schedule keeps decaying on real
                // time, and a repeatable injection does not loop forever
                self.st.samples_done += batch_samples;
                self.st.batch_in_epoch += 1;
                self.st.step += 1;
                Ok(GuardOutcome::SkipBatch)
            }
            GuardPolicy::Rollback => {
                if self.rolled_back_at == Some(step) {
                    rec.flush();
                    return Err(TrainError::NonFinite {
                        step,
                        what: format!("{what} (again after rollback)"),
                        value,
                    });
                }
                let Some(snap) = self.mem_snap.take() else {
                    rec.flush();
                    return Err(TrainError::Resume(
                        "rollback requested before any checkpoint was taken".to_owned(),
                    ));
                };
                self.rolled_back_at = Some(step);
                let restored = self.restore(&snap, rec);
                self.mem_snap = Some(snap);
                restored?;
                Ok(GuardOutcome::RestartFromSnapshot)
            }
        }
    }
}

/// Routes a captured snapshot to disk: a rotating [`Lineage`] generation
/// when `keep_checkpoints` is set, the single `checkpoint_path` file
/// otherwise.
fn write_snapshot(ft: &FtConfig, state: &TrainState) -> Result<(), TrainError> {
    let path = ft.checkpoint_path.as_ref().expect("validated upfront");
    let result = match ft.keep_checkpoints {
        Some(keep) => Lineage::new(path, keep).save(state).map(|_| ()),
        None => state.save(path),
    };
    result.map_err(|source| TrainError::Checkpoint {
        action: "save",
        path: path.clone(),
        source,
    })
}

/// Rounds non-trainable model state (batch-norm running statistics) to
/// the storage dtype in place. Pure per-element bit functions: identical
/// at every backend and thread count.
fn round_buffers<T: Task>(dtype: DType, task: &T) {
    for (_, cell) in task.buffers() {
        dtype.round_slice(cell.borrow_mut().data_mut());
    }
}

/// Names the first parameter whose gradient holds a non-finite value.
fn offending_grad(params: &[Param]) -> String {
    for p in params {
        if p.grad().data().iter().any(|v| !v.is_finite()) {
            return format!("grad:{}", p.name());
        }
    }
    "grad".to_owned()
}

/// Test-set classification error (%) in eval mode.
///
/// # Errors
///
/// Propagates model forward errors.
pub fn evaluate_classifier(
    model: &dyn Module,
    images: &Tensor,
    labels: &[usize],
    batch_size: usize,
) -> Result<f64, TensorError> {
    let mut predictions = Vec::with_capacity(labels.len());
    for batch in batches(images, labels, batch_size, None) {
        let mut g = Graph::new(false);
        let x = g.constant(batch.images);
        let logits = model.forward(&mut g, x)?;
        predictions.extend(g.value(logits).argmax_rows()?);
    }
    Ok(rex_eval::stats::error_rate(&predictions, labels))
}

/// Mean test cross-entropy in eval mode (validation feedback for plateau
/// schedules).
///
/// # Errors
///
/// Propagates model forward errors.
pub fn classification_loss(
    model: &dyn Module,
    images: &Tensor,
    labels: &[usize],
    batch_size: usize,
) -> Result<f64, TensorError> {
    let mut total = 0.0f64;
    let mut count = 0usize;
    for batch in batches(images, labels, batch_size, None) {
        let mut g = Graph::new(false);
        let x = g.constant(batch.images);
        let logits = model.forward(&mut g, x)?;
        let loss = g.cross_entropy(logits, &batch.labels)?;
        total += g.value(loss).item() as f64 * batch.labels.len() as f64;
        count += batch.labels.len();
    }
    Ok(total / count.max(1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tasks::ClassifierTask;
    use rex_data::images::synth_cifar10;
    use rex_nn::Mlp;
    use rex_telemetry::MemorySink;

    fn flatten_images(t: &Tensor) -> Tensor {
        let n = t.shape()[0];
        let d: usize = t.shape()[1..].iter().product();
        t.reshape(&[n, d]).unwrap()
    }

    /// A 432-`hidden`-10 MLP from `model_seed` trained under `cfg` on a
    /// flattened synthetic CIFAR set of `(train, test)` images per class
    /// generated from `data_seed`.
    fn train(
        cfg: TrainConfig,
        (per_class, data_seed): ((usize, usize), u64),
        (hidden, model_seed): (usize, u64),
        rec: &mut Recorder,
    ) -> TrainResult {
        let data = synth_cifar10(per_class.0, per_class.1, data_seed);
        let model = Mlp::new("m", &[3 * 12 * 12, hidden, 10], &mut Prng::new(model_seed));
        let (train, test) = (
            flatten_images(&data.train_images),
            flatten_images(&data.test_images),
        );
        let task =
            ClassifierTask::new(&model, &train, &data.train_labels, &test, &data.test_labels);
        Trainer::new(cfg).run(&task, rec).unwrap()
    }

    /// An SGDM config: `epochs` of batches of `batch_size` from `lr`.
    fn config(epochs: usize, batch_size: usize, lr: f32, schedule: ScheduleSpec) -> TrainConfig {
        TrainConfig {
            batch_size,
            lr,
            ..TrainConfig::new(epochs, OptimizerKind::sgdm(), schedule, 0)
        }
    }

    #[test]
    fn training_beats_chance_on_synthetic_data() {
        let cfg = TrainConfig {
            seed: 2,
            ..config(10, 16, 0.05, ScheduleSpec::Rex)
        };
        let result = train(cfg, ((8, 4), 0), (32, 1), &mut Recorder::disabled());
        // chance is 90% error on 10 classes
        assert!(
            result.final_metric < 85.0,
            "error {} not better than chance",
            result.final_metric
        );
        assert_eq!(result.history.len(), 10);
        // training loss should drop over the run
        assert!(result.history.last().unwrap().train_loss < result.history[0].train_loss);
    }

    #[test]
    fn schedule_decays_lr_within_budget() {
        let cfg = TrainConfig {
            seed: 5,
            ..config(4, 20, 0.1, ScheduleSpec::Linear)
        };
        let result = train(cfg, ((4, 2), 3), (8, 4), &mut Recorder::disabled());
        // the last epoch's final LR must be far below the initial LR:
        // the linear schedule decays over the budget, not the max epochs
        let last_lr = result.history.last().unwrap().lr;
        assert!(last_lr < 0.03, "linear schedule did not decay: {last_lr}");
    }

    #[test]
    fn plateau_schedule_triggers_validation_passes() {
        let plateau = TrainConfig {
            optimizer: OptimizerKind::adam(),
            seed: 8,
            ..config(3, 20, 0.05, ScheduleSpec::DecayOnPlateau(1))
        };
        let result = train(plateau, ((4, 2), 6), (8, 7), &mut Recorder::disabled());
        assert!(result.history.iter().all(|e| e.val_loss.is_some()));

        // non-plateau schedules skip the validation pass
        let cosine = TrainConfig {
            optimizer: OptimizerKind::adam(),
            seed: 8,
            ..config(1, 20, 0.05, ScheduleSpec::Cosine)
        };
        let r2 = train(cosine, ((4, 2), 6), (8, 7), &mut Recorder::disabled());
        assert!(r2.history.iter().all(|e| e.val_loss.is_none()));
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let cfg = TrainConfig {
                seed: 11,
                ..config(2, 20, 0.05, ScheduleSpec::Rex)
            };
            train(cfg, ((4, 2), 9), (8, 10), &mut Recorder::disabled()).final_metric
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn partial_final_batch_advances_budget_by_its_true_size() {
        // 10 samples, batch 4 → batches of 4, 4, 2. Sample-exact accounting
        // must place the three steps of a 1-epoch linear run at progress
        // 0/10, 4/10, 8/10 (LR factors 1.0, 0.6, 0.2); the old per-step
        // accounting would have used 0/3, 1/3, 2/3.
        let sink = MemorySink::unbounded();
        let handle = sink.handle();
        let mut rec = Recorder::new(Box::new(sink));
        let cfg = TrainConfig {
            seed: 14,
            ..config(1, 4, 0.1, ScheduleSpec::Linear)
        };
        train(cfg, ((1, 1), 12), (8, 13), &mut rec);
        let steps = handle.steps();
        assert_eq!(steps.len(), 3);
        let lrs: Vec<f64> = steps.iter().map(|r| r.lr).collect();
        for (got, want) in lrs.iter().zip([0.1, 0.06, 0.02]) {
            assert!((got - want).abs() < 1e-7, "lrs {lrs:?}");
        }
    }

    #[test]
    fn traced_run_emits_one_step_record_per_optimizer_step() {
        let sink = MemorySink::unbounded();
        let handle = sink.handle();
        let mut rec = Recorder::new(Box::new(sink));
        let cfg = || TrainConfig {
            optimizer: OptimizerKind::adam(),
            seed: 17,
            ..config(2, 16, 0.05, ScheduleSpec::Rex)
        };
        let result = train(cfg(), ((4, 2), 15), (8, 16), &mut rec);
        let events = handle.events();
        // 40 samples / batch 16 → 3 batches per epoch × 2 epochs
        let steps = handle.steps();
        assert_eq!(steps.len(), 6);
        for (i, r) in steps.iter().enumerate() {
            assert_eq!(r.step, i as u64);
            assert_eq!(r.epoch, i as u64 / 3);
            assert_eq!(r.batch_id, i as u64 % 3);
            assert!(r.lr > 0.0 && r.lr <= 0.05 + 1e-9);
            assert!(r.loss.is_finite());
            assert!(r.grad_norm > 0.0, "grad_norm not populated: {r:?}");
            assert!(r.param_norm > 0.0, "param_norm not populated: {r:?}");
        }
        // structural events frame the run
        assert_eq!(events.first().unwrap().kind(), "run_start");
        assert_eq!(events.last().unwrap().kind(), "run_end");
        match events.last().unwrap() {
            Event::RunEnd { metric } => assert_eq!(*metric, result.final_metric),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            events.iter().filter(|e| e.kind() == "epoch").count(),
            2,
            "one loader epoch event per epoch"
        );

        // tracing must not perturb the trajectory: an untraced same-seed
        // run reaches the identical final metric
        let r2 = train(cfg(), ((4, 2), 15), (8, 16), &mut Recorder::disabled());
        assert_eq!(r2.final_metric, result.final_metric);
    }

    #[test]
    fn optimizer_kind_names_and_defaults() {
        assert_eq!(OptimizerKind::sgdm().name(), "SGDM");
        assert_eq!(OptimizerKind::adam().name(), "Adam");
        assert_eq!(OptimizerKind::adamw().name(), "AdamW");
        assert!(OptimizerKind::sgdm().default_lr() > OptimizerKind::adam().default_lr());
    }
}
