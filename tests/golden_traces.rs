//! Golden-trace regression tests: full training trajectories (every
//! optimizer step's LR, loss, and norms) pinned against committed JSONL
//! traces under `tests/golden/`.
//!
//! The grid covers the paper's four headline schedules (REX, linear,
//! cosine, step) at a small and a medium budget (10 % and 50 % of
//! 8 epochs) on the synthetic-digits classification task — small enough
//! to run in CI, large enough to exercise shuffling, a partial final
//! mini-batch, and multi-epoch schedule progress.
//!
//! One further golden per non-classifier task — VAE, detection (with its
//! warm-up) and GLUE fine-tuning (from a pre-trained transformer) — lives
//! under `tests/golden/tasks/`.
//!
//! Comparison uses [`rex::telemetry::golden::diff_traces`]: integers and
//! structure exactly, floats under the documented tolerances (LR nearly
//! exact, losses/norms at 0.5 % relative). On divergence the failure
//! message names the first divergent event, its optimizer step, and the
//! field.
//!
//! To regenerate the goldens after an intentional trajectory change:
//!
//! ```text
//! scripts/bless_traces.sh        # = REX_BLESS=1 cargo test --test golden_traces
//! ```

use std::path::{Path, PathBuf};

use rex::data::digits::synth_digits;
use rex::nn::Mlp;
use rex::schedules::ScheduleSpec;
use rex::telemetry::golden::{diff_traces, Tolerances};
use rex::telemetry::{encode_trace, parse_trace, Event, MemorySink, Recorder};
use rex::tensor::Prng;
use rex::train::tasks::ClassifierTask;
use rex::train::{Budget, FtConfig, OptimizerKind, TrainConfig, Trainer};

/// Maximum epochs of the golden setting; budgets are percentages of this.
const MAX_EPOCHS: usize = 8;
/// Seed for both the model init and the training run.
const SEED: u64 = 0x601D;

/// Runs one golden cell (digits classifier, Mlp 144-24-10, batch 16 over
/// 60 samples — a deliberate partial final batch of 12) and returns the
/// captured event trace.
fn run_trace(spec: &ScheduleSpec, budget_pct: u32) -> Vec<Event> {
    let train = synth_digits(60, 12, 0xD1_617);
    let test = synth_digits(30, 12, 0xD1_618);
    let mut rng = Prng::new(SEED);
    let model = Mlp::new("m", &[144, 24, 10], &mut rng);
    let sink = MemorySink::unbounded();
    let handle = sink.handle();
    let mut rec = Recorder::new(Box::new(sink));
    let mut trainer = Trainer::new(TrainConfig {
        epochs: Budget::new(MAX_EPOCHS, budget_pct).epochs(),
        batch_size: 16,
        lr: 0.1,
        optimizer: OptimizerKind::sgdm(),
        schedule: spec.clone(),
        grad_clip: None,
        seed: SEED ^ u64::from(budget_pct),
        dtype: rex::tensor::DType::F32,
        ft: FtConfig::default(),
    });
    let task = ClassifierTask::new(
        &model,
        &train.images,
        &train.labels,
        &test.images,
        &test.labels,
    );
    trainer
        .run(&task, &mut rec)
        .expect("golden cell must train");
    handle.events()
}

fn golden_path(name: &str, budget_pct: u32) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}_b{budget_pct}.jsonl"))
}

/// Compares one classifier cell against its golden file (see
/// [`check_golden`]).
fn check_cell(name: &str, spec: &ScheduleSpec, budget_pct: u32) {
    check_golden(
        &golden_path(name, budget_pct),
        &run_trace(spec, budget_pct),
        &format!("{name} @ {budget_pct}%"),
    );
}

/// Compares `events` against the golden file at `path`, or rewrites the
/// file when `REX_BLESS` is set.
fn check_golden(path: &Path, events: &[Event], label: &str) {
    if std::env::var_os("REX_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, encode_trace(events, false)).unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run scripts/bless_traces.sh",
            path.display()
        )
    });
    let golden = parse_trace(&text).expect("golden file must parse");
    if let Err(diff) = diff_traces(&golden, events, &Tolerances::default()) {
        panic!("{label}: {diff}");
    }
}

#[test]
fn golden_trace_rex() {
    for pct in [10, 50] {
        check_cell("rex", &ScheduleSpec::Rex, pct);
    }
}

#[test]
fn golden_trace_linear() {
    for pct in [10, 50] {
        check_cell("linear", &ScheduleSpec::Linear, pct);
    }
}

#[test]
fn golden_trace_cosine() {
    for pct in [10, 50] {
        check_cell("cosine", &ScheduleSpec::Cosine, pct);
    }
}

#[test]
fn golden_trace_step() {
    for pct in [10, 50] {
        check_cell("step", &ScheduleSpec::Step, pct);
    }
}

/// Two same-seed runs must serialise to byte-identical JSONL (timing is
/// excluded from the encoding), so traces are diffable with plain tools.
#[test]
fn same_seed_traces_are_byte_identical() {
    let a = encode_trace(&run_trace(&ScheduleSpec::Rex, 50), false);
    let b = encode_trace(&run_trace(&ScheduleSpec::Rex, 50), false);
    assert_eq!(a, b);
    assert!(a.ends_with('\n') && a.lines().count() > 4);
}

/// Forced-dispatch court: *both* compute backends must reproduce the
/// committed goldens (the trace tolerances — LR nearly exact, losses and
/// norms at 0.5 % relative — absorb the backends' reduction-order drift),
/// and within each backend the same-seed trace must be byte-identical at
/// every pool size. This is the end-to-end statement of the backend
/// contract: numerics are a property of the *backend*, never of the
/// thread count, and switching backends moves the trajectory by rounding
/// only.
#[test]
fn traces_pass_under_both_forced_backends_at_any_thread_count() {
    use rex::tensor::backend::{self, BackendKind};

    for kind in [BackendKind::Scalar, BackendKind::Simd] {
        let baseline = backend::with_backend(kind, || {
            rex_pool::with_pool_size(1, || {
                encode_trace(&run_trace(&ScheduleSpec::Rex, 10), false)
            })
        });
        // the committed golden still holds under this backend
        let events = parse_trace(&baseline).expect("trace must re-parse");
        let text = std::fs::read_to_string(golden_path("rex", 10)).expect("golden file");
        let golden = parse_trace(&text).expect("golden file must parse");
        if let Err(diff) = diff_traces(&golden, &events, &Tolerances::default()) {
            panic!("rex @ 10% under {kind:?}: {diff}");
        }
        // and the backend's trajectory is thread-count-invariant, byte for byte
        for threads in [2usize, 3, 7] {
            let run = backend::with_backend(kind, || {
                rex_pool::with_pool_size(threads, || {
                    encode_trace(&run_trace(&ScheduleSpec::Rex, 10), false)
                })
            });
            assert_eq!(
                run, baseline,
                "{kind:?} trace diverged between 1 and {threads} threads"
            );
        }
    }
}

/// Dtype court: the default `--dtype f32` path must be a no-op relative
/// to the pre-dtype trainer — every committed golden file reproduces
/// *byte-identically* under the scalar backend (the backend the goldens
/// were blessed under), at serial and ragged pool sizes, and passes the
/// trace tolerances under the SIMD backend (whose reduction order drifts
/// by rounding, per the backend contract). If the mixed-precision
/// machinery ever perturbed the f32 path — an extra round-trip through a
/// narrowing kernel, a reordered update — this is the test that names
/// the file.
#[test]
fn dtype_f32_default_keeps_all_goldens_byte_identical() {
    use rex::tensor::backend::{self, BackendKind};

    let cells: [(&str, ScheduleSpec); 4] = [
        ("rex", ScheduleSpec::Rex),
        ("linear", ScheduleSpec::Linear),
        ("cosine", ScheduleSpec::Cosine),
        ("step", ScheduleSpec::Step),
    ];
    let mut checked = 0;
    for (name, spec) in &cells {
        for pct in [10u32, 50] {
            let path = golden_path(name, pct);
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
            for threads in [1usize, 3] {
                let run = backend::with_backend(BackendKind::Scalar, || {
                    rex_pool::with_pool_size(threads, || encode_trace(&run_trace(spec, pct), false))
                });
                assert_eq!(
                    run, text,
                    "{name} @ {pct}%: scalar f32 trace is not byte-identical \
                     to the committed golden at {threads} thread(s)"
                );
            }
            let simd = backend::with_backend(BackendKind::Simd, || {
                rex_pool::with_pool_size(1, || run_trace(spec, pct))
            });
            let golden = parse_trace(&text).expect("golden file must parse");
            if let Err(diff) = diff_traces(&golden, &simd, &Tolerances::default()) {
                panic!("{name} @ {pct}% under simd: {diff}");
            }
            checked += 1;
        }
    }
    // the glob above must cover every committed golden — a new cell
    // added to tests/golden/ without a row here should fail loudly
    let committed = std::fs::read_dir(golden_path("rex", 10).parent().unwrap())
        .unwrap()
        .filter(|e| {
            e.as_ref()
                .is_ok_and(|e| e.path().extension().is_some_and(|x| x == "jsonl"))
        })
        .count();
    assert_eq!(
        checked, committed,
        "a committed golden file was not checked"
    );
}

/// Compares one non-classifier task's trace against its golden file under
/// `tests/golden/tasks/`, or rewrites the file when `REX_BLESS` is set.
/// These goldens live one directory down so the byte-identity court above
/// keeps counting only the classifier goldens.
fn check_task_golden(name: &str, events: &[Event]) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/tasks")
        .join(format!("{name}.jsonl"));
    check_golden(&path, events, name);
}

/// VAE on 64 digits: 2 epochs of 4 batches under Adam + REX.
#[test]
fn golden_trace_vae() {
    use rex::train::tasks::VaeTask;

    let train = synth_digits(64, 12, 0xD1_61A);
    let test = synth_digits(32, 12, 0xD1_61B);
    let sink = MemorySink::unbounded();
    let handle = sink.handle();
    let mut rec = Recorder::new(Box::new(sink));
    let cfg = TrainConfig {
        batch_size: 16,
        lr: 1e-3,
        ..TrainConfig::new(2, OptimizerKind::adam(), ScheduleSpec::Rex, SEED)
    };
    Trainer::new(cfg)
        .run(&VaeTask::new(&train, &test, SEED), &mut rec)
        .expect("vae golden cell must train");
    check_task_golden("vae_rex", &handle.events());
}

/// Detector on 16 scenes: one warm-up epoch plus one budgeted epoch of
/// 2 batches under Adam + linear.
#[test]
fn golden_trace_detection() {
    use rex::data::scenes::synth_scenes;
    use rex::train::tasks::DetectionTask;

    let train = synth_scenes(16, 24, 0x5CE0);
    let test = synth_scenes(8, 24, 0x5CE1);
    let sink = MemorySink::unbounded();
    let handle = sink.handle();
    let mut rec = Recorder::new(Box::new(sink));
    let task = DetectionTask::new(&train, &test, SEED);
    let cfg = TrainConfig {
        batch_size: 8,
        lr: 1e-3,
        ..TrainConfig::new(1, OptimizerKind::adam(), ScheduleSpec::Linear, SEED)
    };
    Trainer::new(task.with_warmup(cfg, 1))
        .run(&task, &mut rec)
        .expect("detection golden cell must train");
    check_task_golden("detection_linear", &handle.events());
}

/// GLUE CoLA analogue fine-tuned for 2 epochs of 3 batches from a
/// one-epoch pre-trained transformer, under AdamW + REX.
#[test]
fn golden_trace_glue() {
    use rex::data::text::{glue_tasks, lm_corpus};
    use rex::nn::TransformerConfig;
    use rex::train::tasks::{pretrain_transformer, GlueTask};

    let cfg = TransformerConfig {
        vocab: 32,
        dim: 16,
        heads: 2,
        depth: 1,
        seq_len: 12,
        ff_mult: 2,
    };
    let corpus = lm_corpus(32, 12, 32, 0x61E0);
    let tf = pretrain_transformer(&corpus, cfg, 1, 8, 1e-3, SEED).expect("pre-training");
    let tasks = glue_tasks(24, 12, 12, 32, 0x61E1);
    let sink = MemorySink::unbounded();
    let handle = sink.handle();
    let mut rec = Recorder::new(Box::new(sink));
    let cfg = TrainConfig {
        batch_size: 8,
        lr: 1e-3,
        grad_clip: Some(1.0),
        ..TrainConfig::new(2, OptimizerKind::adamw(), ScheduleSpec::Rex, SEED)
    };
    Trainer::new(cfg)
        .run(&GlueTask::new(&tf, &tasks[0], SEED), &mut rec)
        .expect("glue golden cell must train");
    check_task_golden("glue_rex", &handle.events());
}

/// The negative control: a one-step LR perturbation far smaller than any
/// loss-level noise must still be caught, and the report must point at
/// the exact step and field.
#[test]
fn injected_lr_perturbation_is_detected() {
    let golden = run_trace(&ScheduleSpec::Rex, 50);
    let mut tampered = golden.clone();
    let (idx, want_step) = tampered
        .iter()
        .enumerate()
        .filter_map(|(i, e)| e.as_step().map(|s| (i, s.step)))
        .nth(5)
        .expect("trace has at least six steps");
    if let Event::Step(rec) = &mut tampered[idx] {
        rec.lr *= 1.001; // 0.1% — invisible to loss tolerances, not to LR's
    }
    let diff = diff_traces(&golden, &tampered, &Tolerances::default())
        .expect_err("perturbed trace must diverge");
    assert_eq!(diff.index, idx);
    assert_eq!(diff.step, Some(want_step));
    assert_eq!(diff.field, "step.lr");

    // and the untampered trace still matches itself exactly
    assert!(diff_traces(&golden, &golden, &Tolerances::default()).is_ok());
}
