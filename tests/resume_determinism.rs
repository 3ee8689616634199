//! Resume-determinism contract: `train k steps → halt → resume → finish`
//! must produce a JSONL trace **byte-identical** to the uninterrupted
//! run's, for every headline schedule × optimizer cell.
//!
//! Each cell trains the digits classifier for 16 optimizer steps with a
//! checkpoint every 5 steps, halts the interrupted run after step 6
//! (mid-epoch, one step past the last snapshot — so resume must both
//! truncate the over-written trace tail and replay a partially consumed
//! epoch shuffle), resumes from the snapshot, and compares the two trace
//! files with a plain byte comparison plus the final metric. Every run
//! opens its trace with `JsonlSink::open` and leaves the rewind to the
//! trainer, as the front ends do. The
//! `vgg16-cifar100` and `vae-mnist` settings run the same protocol: their
//! models draw dropout masks and latent noise from private RNG streams,
//! which the snapshot must carry too.

use std::path::PathBuf;

use rex::data::digits::synth_digits;
use rex::nn::Mlp;
use rex::schedules::ScheduleSpec;
use rex::telemetry::{JsonlSink, Recorder};
use rex::tensor::{DType, Prng};
use rex::train::settings::load_setting;
use rex::train::tasks::ClassifierTask;
use rex::train::{FtConfig, OptimizerKind, TrainConfig, TrainError, TrainResult, Trainer};

const SEED: u64 = 0xBEE5;
const EPOCHS: usize = 4; // 60 samples / batch 16 → 4 steps per epoch
const CHECKPOINT_EVERY: u64 = 5;
const HALT_AFTER: u64 = 6;

fn workdir(cell: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rex_resume_{cell}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One training run of the cell, tracing into `sink`.
fn run_cell(
    spec: &ScheduleSpec,
    opt: OptimizerKind,
    sink: JsonlSink,
    ft: FtConfig,
) -> Result<TrainResult, TrainError> {
    run_cell_dtype(spec, opt, sink, ft, DType::F32)
}

/// [`run_cell`] with an explicit parameter-storage dtype.
fn run_cell_dtype(
    spec: &ScheduleSpec,
    opt: OptimizerKind,
    sink: JsonlSink,
    ft: FtConfig,
    dtype: rex::tensor::DType,
) -> Result<TrainResult, TrainError> {
    let train = synth_digits(60, 12, 0xD1_617);
    let test = synth_digits(30, 12, 0xD1_618);
    let mut rng = Prng::new(SEED);
    let model = Mlp::new("m", &[144, 24, 10], &mut rng);
    let mut rec = Recorder::new(Box::new(sink));
    let result = Trainer::new(TrainConfig {
        epochs: EPOCHS,
        batch_size: 16,
        lr: opt.default_lr(),
        optimizer: opt,
        schedule: spec.clone(),
        grad_clip: None,
        seed: SEED,
        dtype,
        ft,
    })
    .run(
        &ClassifierTask::new(
            &model,
            &train.images,
            &train.labels,
            &test.images,
            &test.labels,
        ),
        &mut rec,
    );
    rec.flush();
    result
}

/// One run of a setting's cell through `SettingSpec::run_ft`, tracing
/// into `sink`; returns the final metric.
fn run_setting(
    setting: &str,
    budget: u32,
    opt: OptimizerKind,
    dtype: DType,
    sink: JsonlSink,
    ft: FtConfig,
) -> Result<f64, TrainError> {
    let spec = load_setting(setting, SEED).unwrap();
    let mut rec = Recorder::new(Box::new(sink));
    let lr = spec.default_lr(&opt);
    let result = spec.run_ft(
        budget,
        opt,
        ScheduleSpec::Rex,
        lr,
        SEED,
        dtype,
        ft,
        &mut rec,
    );
    rec.flush();
    result
}

/// Full run vs. halt-at-step-6 + resume: byte-identical traces, equal
/// final metrics.
fn check_cell(spec: &ScheduleSpec, opt: OptimizerKind, cell: &str) {
    check_cell_dtype(spec, opt, cell, DType::F32);
}

/// [`check_cell`] with an explicit parameter-storage dtype; returns the
/// size in bytes of the finished run's snapshot so dtype-size tests can
/// compare storage footprints.
fn check_cell_dtype(spec: &ScheduleSpec, opt: OptimizerKind, cell: &str, dtype: DType) -> u64 {
    check_resume(cell, |sink, ft| {
        run_cell_dtype(spec, opt, sink, ft, dtype).map(|r| r.final_metric)
    })
}

/// [`check_cell`] for a catalogued setting at `budget` percent.
fn check_setting(setting: &str, budget: u32, opt: OptimizerKind, dtype: DType, cell: &str) {
    check_resume(cell, |sink, ft| {
        run_setting(setting, budget, opt, dtype, sink, ft)
    });
}

/// The protocol itself, for any cell `run` trains: uninterrupted vs.
/// halted + resumed, compared byte for byte. Returns the finished run's
/// snapshot size in bytes.
fn check_resume(cell: &str, run: impl Fn(JsonlSink, FtConfig) -> Result<f64, TrainError>) -> u64 {
    let dir = workdir(cell);
    let full_trace = dir.join("full.jsonl");
    let cut_trace = dir.join("cut.jsonl");
    let full_ckpt = dir.join("full.state");
    let cut_ckpt = dir.join("cut.state");

    // uninterrupted baseline (checkpointing on, so the event streams match)
    let baseline = run(
        JsonlSink::open(&full_trace).unwrap(),
        FtConfig {
            checkpoint_every: Some(CHECKPOINT_EVERY),
            checkpoint_path: Some(full_ckpt.clone()),
            ..FtConfig::default()
        },
    )
    .expect("baseline run");

    // interrupted run: snapshot at step 5, halt after step 6
    let err = run(
        JsonlSink::open(&cut_trace).unwrap(),
        FtConfig {
            checkpoint_every: Some(CHECKPOINT_EVERY),
            checkpoint_path: Some(cut_ckpt.clone()),
            halt_after_step: Some(HALT_AFTER),
            ..FtConfig::default()
        },
    )
    .expect_err("interrupted run must halt");
    assert!(
        matches!(err, TrainError::Halted { step: HALT_AFTER }),
        "{err:?}"
    );

    // resume: the trainer cuts the trace to the snapshot's cursor
    let resumed = run(
        JsonlSink::open(&cut_trace).unwrap(),
        FtConfig {
            checkpoint_every: Some(CHECKPOINT_EVERY),
            checkpoint_path: Some(cut_ckpt.clone()),
            resume_from: Some(cut_ckpt),
            ..FtConfig::default()
        },
    )
    .expect("resumed run");

    assert_eq!(
        baseline.to_bits(),
        resumed.to_bits(),
        "{cell}: resumed run landed on a different metric"
    );
    let full = std::fs::read(&full_trace).unwrap();
    let cut = std::fs::read(&cut_trace).unwrap();
    assert!(!full.is_empty() && full.ends_with(b"\n"));
    assert_eq!(
        full, cut,
        "{cell}: resumed trace is not byte-identical to the uninterrupted run"
    );
    let ckpt_bytes = std::fs::metadata(&full_ckpt).unwrap().len();
    let _ = std::fs::remove_dir_all(dir);
    ckpt_bytes
}

#[test]
fn resume_is_byte_identical_rex_sgdm() {
    check_cell(&ScheduleSpec::Rex, OptimizerKind::sgdm(), "rex_sgdm");
}

#[test]
fn resume_is_byte_identical_rex_adam() {
    check_cell(&ScheduleSpec::Rex, OptimizerKind::adam(), "rex_adam");
}

#[test]
fn resume_is_byte_identical_linear_sgdm() {
    check_cell(&ScheduleSpec::Linear, OptimizerKind::sgdm(), "linear_sgdm");
}

#[test]
fn resume_is_byte_identical_linear_adam() {
    check_cell(&ScheduleSpec::Linear, OptimizerKind::adam(), "linear_adam");
}

#[test]
fn resume_is_byte_identical_cosine_sgdm() {
    check_cell(&ScheduleSpec::Cosine, OptimizerKind::sgdm(), "cosine_sgdm");
}

#[test]
fn resume_is_byte_identical_cosine_adam() {
    check_cell(&ScheduleSpec::Cosine, OptimizerKind::adam(), "cosine_adam");
}

/// The mixed-precision cells obey the same kill→resume→finish contract:
/// halved parameter storage changes the trajectory, never the
/// reproducibility. The f16 run's finished snapshot must also come in at
/// roughly half the f32 run's bytes — tensor sections (model, buffers,
/// optimizer master+stored pairs) dominate this model's snapshot, and
/// every stored tensor narrows from 4 to 2 bytes per element.
#[test]
fn resume_is_byte_identical_at_f16_and_checkpoint_halves() {
    let f32_bytes = check_cell_dtype(
        &ScheduleSpec::Rex,
        OptimizerKind::sgdm(),
        "rex_sgdm_f32ref",
        DType::F32,
    );
    let f16_bytes = check_cell_dtype(
        &ScheduleSpec::Rex,
        OptimizerKind::sgdm(),
        "rex_sgdm_f16",
        DType::F16,
    );
    let ratio = f32_bytes as f64 / f16_bytes as f64;
    assert!(
        (1.4..=2.1).contains(&ratio),
        "f16 snapshot is {f16_bytes} B vs f32 {f32_bytes} B \
         (ratio {ratio:.2}, expected ≈2 with header overhead)"
    );
}

#[test]
fn resume_is_byte_identical_at_bf16() {
    check_cell_dtype(
        &ScheduleSpec::Rex,
        OptimizerKind::adam(),
        "rex_adam_bf16",
        DType::Bf16,
    );
}

/// `MicroVgg`'s dropout masks come from the model's own stream; a resume
/// that restored everything but that stream drew different masks from
/// the halt onward.
#[test]
fn resume_is_byte_identical_with_vgg_dropout() {
    check_setting(
        "vgg16-cifar100",
        5,
        OptimizerKind::sgdm(),
        DType::F32,
        "vgg",
    );
}

/// The VAE's latent noise likewise comes from the model's own stream.
#[test]
fn resume_is_byte_identical_for_the_vae() {
    check_setting("vae-mnist", 1, OptimizerKind::sgdm(), DType::F32, "vae_f32");
}

#[test]
fn resume_is_byte_identical_for_the_vae_at_bf16() {
    check_setting(
        "vae-mnist",
        1,
        OptimizerKind::adam(),
        DType::Bf16,
        "vae_bf16",
    );
}

/// A snapshot without the streams section (as older files are) loads as
/// "no streams"; a model that has one refuses it by name instead of
/// resuming onto a fresh stream.
#[test]
fn snapshot_without_streams_is_refused_by_a_model_with_one() {
    use rex::nn::checkpoint::{load_state, save_state};

    let dir = workdir("no_streams");
    let trace = dir.join("trace.jsonl");
    let ckpt = dir.join("ckpt.state");
    let run = |sink, ft| run_setting("vae-mnist", 1, OptimizerKind::sgdm(), DType::F32, sink, ft);
    let err = run(
        JsonlSink::open(&trace).unwrap(),
        FtConfig {
            checkpoint_every: Some(CHECKPOINT_EVERY),
            checkpoint_path: Some(ckpt.clone()),
            halt_after_step: Some(HALT_AFTER),
            ..FtConfig::default()
        },
    )
    .expect_err("interrupted run must halt");
    assert!(matches!(err, TrainError::Halted { .. }), "{err:?}");

    let mut sections = load_state(&ckpt).unwrap();
    let before = sections.len();
    sections.retain(|(name, _)| name != "streams");
    assert_eq!(
        sections.len(),
        before - 1,
        "the VAE snapshot holds a stream"
    );
    save_state(&ckpt, &sections).unwrap();

    // the snapshot decodes as "no streams", so the model refuses it
    let err = run(
        JsonlSink::open(&trace).unwrap(),
        FtConfig {
            resume_from: Some(ckpt),
            ..FtConfig::default()
        },
    )
    .expect_err("resume without the VAE's stream must be refused");
    assert!(
        matches!(&err, TrainError::Resume(msg) if msg.contains("\"vae.eps\"")),
        "refusal must name the stream, got: {err}"
    );
    let _ = std::fs::remove_dir_all(dir);
}

/// A snapshot written at one dtype must refuse to resume at another —
/// the stored bits are not losslessly re-interpretable — and the error
/// must name both dtypes.
#[test]
fn dtype_mismatched_resume_is_refused() {
    let dir = workdir("dtype_mismatch");
    let trace = dir.join("trace.jsonl");
    let ckpt = dir.join("ckpt.state");

    let err = run_cell_dtype(
        &ScheduleSpec::Rex,
        OptimizerKind::sgdm(),
        JsonlSink::open(&trace).unwrap(),
        FtConfig {
            checkpoint_every: Some(CHECKPOINT_EVERY),
            checkpoint_path: Some(ckpt.clone()),
            halt_after_step: Some(HALT_AFTER),
            ..FtConfig::default()
        },
        DType::F16,
    )
    .expect_err("interrupted run must halt");
    assert!(matches!(err, TrainError::Halted { .. }), "{err:?}");

    let err = run_cell_dtype(
        &ScheduleSpec::Rex,
        OptimizerKind::sgdm(),
        JsonlSink::open(&trace).unwrap(),
        FtConfig {
            checkpoint_every: Some(CHECKPOINT_EVERY),
            checkpoint_path: Some(ckpt.clone()),
            resume_from: Some(ckpt),
            ..FtConfig::default()
        },
        DType::Bf16,
    )
    .expect_err("dtype-mismatched resume must be refused");
    let msg = err.to_string();
    assert!(
        msg.contains("dtype") && msg.contains("f16") && msg.contains("bf16"),
        "refusal must name the field and both dtypes, got: {msg}"
    );
    let _ = std::fs::remove_dir_all(dir);
}

/// Resuming the *final* snapshot of a finished run is a no-op that still
/// validates (exercises resume at an epoch boundary: step 15 is not a
/// checkpoint step, so the last snapshot sits at step 15 ∈ {5,10,15} —
/// mid-final-epoch) and the double-resume trace stays byte-identical.
#[test]
fn resuming_twice_converges_to_the_same_trace() {
    let dir = workdir("twice");
    let trace = dir.join("trace.jsonl");
    let ckpt = dir.join("ckpt.state");
    let baseline_trace = dir.join("baseline.jsonl");
    let baseline_ckpt = dir.join("baseline.state");

    run_cell(
        &ScheduleSpec::Rex,
        OptimizerKind::sgdm(),
        JsonlSink::open(&baseline_trace).unwrap(),
        FtConfig {
            checkpoint_every: Some(CHECKPOINT_EVERY),
            checkpoint_path: Some(baseline_ckpt),
            ..FtConfig::default()
        },
    )
    .expect("baseline");

    // halt at 6, resume, halt again at 11, resume again
    for halt in [Some(6), Some(11), None] {
        let resume_from = trace.exists().then(|| ckpt.clone());
        let result = run_cell(
            &ScheduleSpec::Rex,
            OptimizerKind::sgdm(),
            JsonlSink::open(&trace).unwrap(),
            FtConfig {
                checkpoint_every: Some(CHECKPOINT_EVERY),
                checkpoint_path: Some(ckpt.clone()),
                resume_from,
                halt_after_step: halt,
                ..FtConfig::default()
            },
        );
        match halt {
            Some(step) => {
                let err = result.expect_err("must halt");
                assert!(matches!(err, TrainError::Halted { step: s } if s == step));
            }
            None => {
                result.expect("final leg completes");
            }
        }
    }

    assert_eq!(
        std::fs::read(&baseline_trace).unwrap(),
        std::fs::read(&trace).unwrap(),
        "twice-resumed trace diverged from the uninterrupted run"
    );
    let _ = std::fs::remove_dir_all(dir);
}
