//! Subcommand implementations.

use rex_core::{all_paper_schedules, ScheduleSpec};
use rex_eval::table;
use rex_telemetry::{JsonlSink, Recorder};
use rex_train::marker::{self, CellKey};
use rex_train::range_test::lr_range_test_traced;
use rex_train::settings::{load_setting, SettingSpec};
use rex_train::{Budget, FtConfig, GuardPolicy, TrainState};
use std::path::{Path, PathBuf};

use crate::args::{parse_optimizer, parse_schedule, Flags};

/// Applies the optional `--threads <n>` flag to the worker pool. The flag
/// overrides `REX_NUM_THREADS`; it must come before the pool first runs a
/// task, which holds for flag parsing at subcommand entry.
fn threads_from_flags(flags: &Flags) -> Result<(), String> {
    match flags.get_or("threads", 0usize)? {
        0 if flags.get("threads").is_some() => Err("--threads must be an integer >= 1".to_string()),
        0 => Ok(()),
        n => rex_pool::set_num_threads(n).map_err(|e| format!("--threads {n}: {e}")),
    }
}

/// Applies the optional `--backend scalar|simd|auto` flag to the compute
/// dispatch. Like `--threads`, it overrides the `REX_BACKEND` environment
/// variable and must run before the first dispatched op, which holds for
/// flag parsing at subcommand entry.
fn backend_from_flags(flags: &Flags) -> Result<(), String> {
    match flags.get("backend") {
        None => Ok(()),
        Some(v) => {
            let kind =
                rex_tensor::BackendKind::parse(v).map_err(|e| format!("--backend {v:?}: {e}"))?;
            rex_tensor::backend::set_backend(kind).map_err(|e| format!("--backend: {e}"))
        }
    }
}

/// Parses the optional `--dtype f32|f16|bf16` flag: the parameter
/// storage precision (default f32, the legacy bit-exact path).
fn dtype_from_flags(flags: &Flags) -> Result<rex_tensor::DType, String> {
    match flags.get("dtype") {
        None => Ok(rex_tensor::DType::F32),
        Some(v) => match rex_tensor::DType::parse(v) {
            Some(d) if d.trainable() => Ok(d),
            Some(d) => Err(format!(
                "--dtype: {d} is not a trainable dtype (expected f32 | f16 | bf16)"
            )),
            None => Err(format!("--dtype {v:?}: expected f32 | f16 | bf16")),
        },
    }
}

/// Builds a recorder from the optional `--trace <path>` flag: a JSONL
/// writer when given, otherwise disabled.
fn recorder_from_flags(flags: &Flags) -> Result<Recorder, String> {
    match flags.get("trace") {
        Some(path) => {
            let sink = JsonlSink::create(Path::new(path))
                .map_err(|e| format!("cannot create trace file {path:?}: {e}"))?;
            Ok(Recorder::new(Box::new(sink)))
        }
        None => Ok(Recorder::disabled()),
    }
}

/// Parses the fault-tolerance flags of `rexctl train`:
/// `--checkpoint PATH --checkpoint-every N --keep-checkpoints N
/// --resume PATH --guard off|abort|skip|rollback --halt-after N`.
fn ft_from_flags(flags: &Flags) -> Result<FtConfig, String> {
    let checkpoint_path = flags.get("checkpoint").map(PathBuf::from);
    let checkpoint_every = match flags.get("checkpoint-every") {
        Some(v) => Some(
            v.parse::<u64>()
                .map_err(|_| format!("bad value for --checkpoint-every: {v:?}"))?,
        ),
        None => None,
    };
    if checkpoint_every.is_some() && checkpoint_path.is_none() {
        return Err("--checkpoint-every requires --checkpoint PATH".into());
    }
    if checkpoint_path.is_some() && checkpoint_every.is_none() {
        return Err("--checkpoint requires --checkpoint-every N".into());
    }
    let keep_checkpoints = match flags.get("keep-checkpoints") {
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n >= 1 => Some(n),
            _ => return Err(format!("--keep-checkpoints must be >= 1, got {v:?}")),
        },
        None => None,
    };
    if keep_checkpoints.is_some() && checkpoint_path.is_none() {
        return Err("--keep-checkpoints requires --checkpoint DIR --checkpoint-every N".into());
    }
    let guard = match flags.get("guard") {
        Some(v) => GuardPolicy::parse(v)?,
        None => GuardPolicy::Off,
    };
    let halt_after_step = match flags.get("halt-after") {
        Some(v) => Some(
            v.parse::<u64>()
                .map_err(|_| format!("bad value for --halt-after: {v:?}"))?,
        ),
        None => None,
    };
    Ok(FtConfig {
        checkpoint_every,
        checkpoint_path,
        resume_from: flags.get("resume").map(PathBuf::from),
        guard,
        halt_after_step,
        stop_flag: None,
        keep_checkpoints,
        checkpoint_on_halt: false,
        heartbeat: None,
    })
}

/// Resolves a `--resume DIR` checkpoint lineage to its newest valid
/// generation before the trace recorder needs the snapshot's line cursor.
/// Skipped generations are reported to stderr with their named reason;
/// `ft.resume_from` is rewritten to the resolved generation file.
fn resolve_resume(ft: &mut FtConfig) -> Result<(), String> {
    let Some(path) = &ft.resume_from else {
        return Ok(());
    };
    if !path.is_dir() {
        return Ok(());
    }
    let (_, resolved, report) = rex_train::Lineage::resolve(path)
        .map_err(|e| format!("cannot resume from lineage {}: {e}", path.display()))?;
    if report.fallbacks() > 0 {
        eprint!("{report}");
        eprintln!();
    }
    eprintln!("resuming from {}", resolved.display());
    ft.resume_from = Some(resolved);
    Ok(())
}

/// Applies the optional `--profile FILE [--profile-detail phase|kernel]`
/// flags: enables the thread-local span profiler and returns the output
/// path. The profiler is invisible to the Recorder, so traces stay
/// byte-identical with profiling on.
fn profile_from_flags(flags: &Flags) -> Result<Option<PathBuf>, String> {
    let Some(path) = flags.get("profile") else {
        if flags.get("profile-detail").is_some() {
            return Err("--profile-detail requires --profile FILE".into());
        }
        return Ok(None);
    };
    let detail = match flags.get("profile-detail") {
        None => rex_telemetry::span::Detail::Phase,
        Some(v) => {
            rex_telemetry::span::Detail::parse(v).map_err(|e| format!("--profile-detail: {e}"))?
        }
    };
    rex_telemetry::span::enable(detail);
    Ok(Some(PathBuf::from(path)))
}

/// Writes the collected span profile as Chrome trace JSON and prints its
/// phase table — the end-of-run self-profile.
fn finish_profile(path: &Path) -> Result<(), String> {
    let profile = rex_telemetry::span::take();
    std::fs::write(path, profile.to_chrome_trace())
        .map_err(|e| format!("cannot write profile {}: {e}", path.display()))?;
    print!("{}", profile.render_phase_table());
    eprintln!("profile written to {}", path.display());
    Ok(())
}

/// Builds the trace recorder for `train`. A resumed run re-opens the
/// existing trace and truncates it to the snapshot's line cursor, so the
/// finished file is byte-identical to an uninterrupted run's; a fresh run
/// creates (truncates) the file.
fn recorder_for_train(flags: &Flags, ft: &FtConfig) -> Result<Recorder, String> {
    let Some(path) = flags.get("trace") else {
        return Ok(Recorder::disabled());
    };
    let path = Path::new(path);
    let sink = match &ft.resume_from {
        Some(ckpt) => {
            let cursor = TrainState::trace_cursor(ckpt)
                .map_err(|e| format!("cannot read checkpoint {}: {e}", ckpt.display()))?;
            JsonlSink::resume(path, cursor)
                .map_err(|e| format!("cannot resume trace file {}: {e}", path.display()))?
        }
        None => JsonlSink::create(path)
            .map_err(|e| format!("cannot create trace file {}: {e}", path.display()))?,
    };
    Ok(Recorder::new(Box::new(sink)))
}

/// `rexctl schedules`
pub fn schedules() -> i32 {
    println!("Schedules evaluated in the paper (Tables 4-11):");
    for spec in std::iter::once(ScheduleSpec::None).chain(all_paper_schedules(2)) {
        let mut s = spec.build();
        println!(
            "  {:<18} factor at 0/50/100%: {:.3} / {:.3} / {:.3}",
            spec.name(),
            s.factor(0, 100),
            s.factor(50, 100),
            s.factor(100, 100)
        );
    }
    println!("\nExtensions (cited in the paper's related work):");
    for spec in [
        ScheduleSpec::CosineRestarts(3, 2.0),
        ScheduleSpec::Cyclical(3),
        ScheduleSpec::InverseSqrt(0.1),
        ScheduleSpec::RexBeta(0.25),
        ScheduleSpec::Delayed(Box::new(ScheduleSpec::Linear), 0.5),
    ] {
        let mut s = spec.build();
        println!(
            "  {:<18} factor at 0/50/100%: {:.3} / {:.3} / {:.3}",
            spec.name(),
            s.factor(0, 100),
            s.factor(50, 100),
            s.factor(100, 100)
        );
    }
    0
}

/// `rexctl curve --schedule rex [--points N] [--budget-steps T]`
pub fn curve(argv: &[String]) -> i32 {
    match curve_inner(argv) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    }
}

fn curve_inner(argv: &[String]) -> Result<(), String> {
    let flags = Flags::parse(argv)?;
    let spec = parse_schedule(flags.require("schedule")?)?;
    let points: u64 = flags.get_or("points", 50u64)?;
    let total: u64 = flags.get_or("budget-steps", 1000u64)?;
    let mut sched = spec.build();
    println!("progress,factor");
    for i in 0..=points {
        let t = i * total / points.max(1);
        println!(
            "{:.4},{:.6}",
            t as f64 / total as f64,
            sched.factor(t, total)
        );
    }
    Ok(())
}

/// `rexctl train --setting rn20-cifar10 --budget 10 --schedule rex`
pub fn train(argv: &[String]) -> i32 {
    match train_inner(argv) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    }
}

fn train_inner(argv: &[String]) -> Result<(), String> {
    let flags = Flags::parse(argv)?;
    threads_from_flags(&flags)?;
    backend_from_flags(&flags)?;
    let seed: u64 = flags.get_or("seed", 0u64)?;
    let setting = load_setting(flags.require("setting")?, seed)?;
    let budget_pct: u32 = flags.get_or("budget", 100u32)?;
    if !(1..=100).contains(&budget_pct) {
        return Err(format!(
            "--budget must be 1..=100 (percent), got {budget_pct}"
        ));
    }
    let spec = parse_schedule(flags.get("schedule").unwrap_or("rex"))?;
    let optimizer = parse_optimizer(flags.get("optimizer").unwrap_or("sgdm"))?;
    let dtype = dtype_from_flags(&flags)?;
    let mut ft = ft_from_flags(&flags)?;
    resolve_resume(&mut ft)?;
    let profile_path = profile_from_flags(&flags)?;
    let mut rec = recorder_for_train(&flags, &ft)?;

    let t0 = std::time::Instant::now();
    let budget = Budget::new(setting.max_epochs(), budget_pct);
    let lr: f32 = flags.get_or("lr", setting.default_lr(&optimizer))?;
    let metric = setting
        .run_ft(
            budget_pct,
            optimizer,
            spec.clone(),
            lr,
            seed,
            dtype,
            ft,
            &mut rec,
        )
        .map_err(|e| e.to_string())?;
    let metric_rendered = match setting.metric_label() {
        "test error" => format!("test error {metric:.2}%"),
        label => format!("{label} {metric:.2}"),
    };
    println!(
        "{} | {} | {} | budget {budget} | lr {lr} -> {metric_rendered}  ({:.1?})",
        setting.name(),
        optimizer.name(),
        spec.name(),
        t0.elapsed()
    );
    if let Some(path) = flags.get("trace") {
        eprintln!("trace written to {path}");
    }
    if let Some(path) = &profile_path {
        finish_profile(path)?;
    }
    Ok(())
}

/// `rexctl sweep --setting rn20-cifar10 --budgets 5,25,100`
/// (`--resume DIR` skips cells whose done-marker is already in DIR)
pub fn sweep(argv: &[String]) -> i32 {
    match sweep_inner(argv) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    }
}

fn sweep_inner(argv: &[String]) -> Result<(), String> {
    let flags = Flags::parse(argv)?;
    threads_from_flags(&flags)?;
    backend_from_flags(&flags)?;
    let seed: u64 = flags.get_or("seed", 0u64)?;
    let setting = load_setting(flags.require("setting")?, seed)?;
    let optimizer = parse_optimizer(flags.get("optimizer").unwrap_or("sgdm"))?;
    let dtype = dtype_from_flags(&flags)?;
    let budgets: Vec<u32> = flags
        .get("budgets")
        .unwrap_or("5,25,100")
        .split(',')
        .map(|s| s.trim().parse().map_err(|_| format!("bad budget {s:?}")))
        .collect::<Result<_, _>>()?;
    if let Some(&bad) = budgets.iter().find(|b| !(1..=100).contains(*b)) {
        return Err(format!("budgets must be 1..=100 (percent), got {bad}"));
    }
    let schedules: Vec<ScheduleSpec> = match flags.get("schedules") {
        Some(list) => list
            .split(',')
            .map(|s| parse_schedule(s.trim()))
            .collect::<Result<_, _>>()?,
        None => {
            let mut v = vec![ScheduleSpec::None];
            v.extend(all_paper_schedules(2));
            v
        }
    };

    let name = setting.name();
    let lr = setting.default_lr(&optimizer);
    let resume_dir = flags.get("resume").map(PathBuf::from);
    if let Some(dir) = &resume_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create resume dir {}: {e}", dir.display()))?;
    }
    // Cells run serially on this thread, so one thread-local profiler
    // aggregates spans across the whole grid.
    let profile_path = profile_from_flags(&flags)?;

    let mut headers = vec![format!("{name} ({})", optimizer.name())];
    headers.extend(budgets.iter().map(|b| format!("{b}%")));
    let mut rows = Vec::new();
    let mut col_values: Vec<Vec<f64>> = vec![Vec::new(); budgets.len()];
    for spec in &schedules {
        let mut row = vec![spec.name()];
        for (ci, &pct) in budgets.iter().enumerate() {
            let budget = Budget::new(setting.max_epochs(), pct);
            let key = CellKey {
                setting: name,
                grid: "sweep",
                scale: "fast",
                seed,
                dtype,
                optimizer,
                schedule: spec,
                budget_pct: pct,
                trial: 0,
            };
            let done = resume_dir.as_ref().map(|d| d.join(key.file_name("done")));
            let err = match done.as_deref().and_then(marker::read) {
                Some(err) => {
                    eprintln!("{} @ {budget}: {err:.2} (resumed)", spec.name());
                    err
                }
                None => {
                    let err = setting
                        .run_ft(
                            pct,
                            optimizer,
                            spec.clone(),
                            lr,
                            seed,
                            dtype,
                            FtConfig::default(),
                            &mut Recorder::disabled(),
                        )
                        .map_err(|e| e.to_string())?;
                    if let Some(path) = &done {
                        marker::write(path, err);
                    }
                    eprintln!("{} @ {budget}: {err:.2}", spec.name());
                    err
                }
            };
            col_values[ci].push(err);
            row.push(format!("{err:.2}"));
        }
        rows.push(row);
    }
    for (ci, values) in col_values.iter().enumerate() {
        table::mark_best_per_column(&mut rows, ci + 1, values, true);
    }
    println!("{}", table::markdown(&headers, &rows));
    if let Some(path) = &profile_path {
        finish_profile(path)?;
    }
    Ok(())
}

/// `rexctl serve --data-dir DIR [--addr HOST:PORT] ...` — the HTTP job
/// server, implemented in `rex-serve` (shared with the `rexd` binary).
/// `rexctl export`: convert a training snapshot into a REXGGUF model
/// file.
pub fn export(argv: &[String]) -> i32 {
    match export_inner(argv) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    }
}

fn export_inner(argv: &[String]) -> Result<(), String> {
    let flags = Flags::parse(argv)?;
    let from = PathBuf::from(flags.require("from")?);
    let out = PathBuf::from(flags.require("out")?);
    let v = flags.get("quant").unwrap_or("f16");
    let quant = rex_tensor::DType::parse(v)
        .ok_or_else(|| format!("--quant {v:?}: expected q8_0 | f16 | f32"))?;
    if quant == rex_tensor::DType::Bf16 {
        return Err("--quant bf16 is not an export format (use q8_0 | f16 | f32)".into());
    }

    let state = TrainState::load(&from)
        .map_err(|e| format!("cannot load checkpoint {}: {e}", from.display()))?;
    // Export parameters and the inference-critical buffers (batch-norm
    // running statistics); optimizer state stays behind.
    let mut entries = state.model.clone();
    entries.extend(state.buffers.iter().cloned());
    let f32_bytes: usize = entries
        .iter()
        .map(|(_, t)| std::mem::size_of_val(t.data()))
        .sum();
    let meta = vec![
        ("source".to_owned(), from.display().to_string()),
        ("run".to_owned(), state.run.clone()),
        ("quant".to_owned(), quant.name().to_owned()),
        ("train.dtype".to_owned(), state.dtype.name().to_owned()),
        ("train.step".to_owned(), state.step.to_string()),
        (
            "backend".to_owned(),
            rex_tensor::backend::kind().to_string(),
        ),
        (
            "simd_level".to_owned(),
            rex_tensor::backend::active().simd_level().to_owned(),
        ),
    ];
    let size = rex_nn::export::export_to_path(&out, &entries, quant, &meta)
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!(
        "exported {} tensors ({} params) as {} to {}",
        entries.len(),
        entries.iter().map(|(_, t)| t.data().len()).sum::<usize>(),
        quant,
        out.display()
    );
    println!(
        "{size} bytes on disk vs {f32_bytes} bytes of f32 payload ({:.2}x)",
        f32_bytes as f64 / size.max(1) as f64
    );
    Ok(())
}

pub fn serve(argv: &[String]) -> i32 {
    match rex_serve::cli::serve_cmd(argv) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", rex_serve::cli::USAGE);
            2
        }
    }
}

/// `rexctl range-test --setting rn20-cifar10`
pub fn range_test(argv: &[String]) -> i32 {
    match range_test_inner(argv) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    }
}

fn range_test_inner(argv: &[String]) -> Result<(), String> {
    let flags = Flags::parse(argv)?;
    threads_from_flags(&flags)?;
    backend_from_flags(&flags)?;
    let seed: u64 = flags.get_or("seed", 0u64)?;
    let setting = load_setting(flags.require("setting")?, seed)?;
    let optimizer = parse_optimizer(flags.get("optimizer").unwrap_or("sgdm"))?;
    let SettingSpec::Image {
        name, model, data, ..
    } = setting
    else {
        return Err("range-test supports image settings".into());
    };
    let built = model.build(data.num_classes, seed);
    let mut rec = recorder_from_flags(&flags)?;
    let result = lr_range_test_traced(
        built.as_ref(),
        &data.train_images,
        &data.train_labels,
        optimizer,
        1e-4,
        10.0,
        120,
        32,
        seed,
        &mut rec,
    )
    .map_err(|e| e.to_string())?;
    println!("{name} ({}) range test:", optimizer.name());
    println!("  suggested initial LR: {:.4}", result.suggested_lr);
    if let Some(d) = result.diverged_at {
        println!("  diverged at LR {d:.4}");
    }
    println!("  curve points: {}", result.curve.len());
    if let Some(path) = flags.get("trace") {
        eprintln!("trace written to {path}");
    }
    Ok(())
}
