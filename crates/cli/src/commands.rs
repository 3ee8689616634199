//! Subcommand implementations.

use rex_core::{all_paper_schedules, ScheduleSpec};
use rex_eval::table;
use rex_serve::cli::{apply_threads_and_backend, Flags};
use rex_telemetry::{JsonlSink, Recorder};
use rex_tensor::DType;
use rex_train::marker::{self, CellKey};
use rex_train::range_test::lr_range_test;
use rex_train::settings::{load_setting, SettingSpec};
use rex_train::{Budget, FtConfig, GuardPolicy, OptimizerKind};
use std::path::{Path, PathBuf};

/// The flags `rexctl curve` reads.
const CURVE_FLAGS: &[&str] = &["schedule", "points", "budget-steps"];

/// The flags `rexctl train` reads.
const TRAIN_FLAGS: &[&str] = &[
    "setting",
    "budget",
    "schedule",
    "optimizer",
    "lr",
    "seed",
    "dtype",
    "threads",
    "backend",
    "trace",
    "profile",
    "profile-detail",
    "checkpoint",
    "checkpoint-every",
    "keep-checkpoints",
    "resume",
    "guard",
    "halt-after",
];

/// The flags `rexctl sweep` reads.
const SWEEP_FLAGS: &[&str] = &[
    "setting",
    "budgets",
    "schedules",
    "optimizer",
    "seed",
    "dtype",
    "threads",
    "backend",
    "resume",
    "profile",
    "profile-detail",
];

/// The flags `rexctl range-test` reads.
const RANGE_TEST_FLAGS: &[&str] = &[
    "setting",
    "optimizer",
    "seed",
    "trace",
    "threads",
    "backend",
];

/// Parses the fault-tolerance flags of `rexctl train`:
/// `--checkpoint PATH --checkpoint-every N --keep-checkpoints N
/// --resume PATH --guard off|abort|skip|rollback --halt-after N`.
fn ft_from_flags(flags: &Flags) -> Result<FtConfig, String> {
    let checkpoint_path = flags.get("checkpoint").map(PathBuf::from);
    let checkpoint_every = flags.value("checkpoint-every")?;
    if checkpoint_every.is_some() && checkpoint_path.is_none() {
        return Err("--checkpoint-every requires --checkpoint PATH".into());
    }
    if checkpoint_path.is_some() && checkpoint_every.is_none() {
        return Err("--checkpoint requires --checkpoint-every N".into());
    }
    let keep_checkpoints = flags.parse_with("keep-checkpoints", |v| match v.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err("must be an integer >= 1".into()),
    })?;
    if keep_checkpoints.is_some() && checkpoint_path.is_none() {
        return Err("--keep-checkpoints requires --checkpoint DIR --checkpoint-every N".into());
    }
    Ok(FtConfig {
        checkpoint_every,
        checkpoint_path,
        resume_from: flags.get("resume").map(PathBuf::from),
        guard: (flags.parse_with("guard", GuardPolicy::parse)?).unwrap_or(GuardPolicy::Off),
        halt_after_step: flags.value("halt-after")?,
        stop_flag: None,
        keep_checkpoints,
        heartbeat: None,
    })
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
    let detail = flags.parse_with("profile-detail", rex_telemetry::span::Detail::parse)?;
    rex_telemetry::span::enable(detail.unwrap_or(rex_telemetry::span::Detail::Phase));
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

/// Builds the recorder of the optional `--trace FILE` flag: disabled
/// without it. The trace is opened without truncating it; the run itself
/// rewinds it (to nothing when fresh, to the snapshot's cursor when
/// resumed), so a resumed trace is byte-identical to an uninterrupted
/// run's.
fn recorder_from_flags(flags: &Flags) -> Result<Recorder, String> {
    let Some(path) = flags.get("trace") else {
        return Ok(Recorder::disabled());
    };
    let sink = JsonlSink::open(Path::new(path))
        .map_err(|e| format!("cannot open trace file {path}: {e}"))?;
    Ok(Recorder::new(Box::new(sink)))
}

/// `rexctl schedules`
pub fn schedules(argv: &[String]) -> Result<(), String> {
    Flags::parse(argv, &[], &[])?;
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
    Ok(())
}

/// `rexctl curve --schedule rex [--points N] [--budget-steps T]`
pub fn curve(argv: &[String]) -> Result<(), String> {
    let flags = Flags::parse(argv, CURVE_FLAGS, &[])?;
    let spec: ScheduleSpec = flags
        .value("schedule")?
        .ok_or("missing required --schedule")?;
    let points: u64 = flags.get_or("points", 50)?;
    let total: u64 = flags.get_or("budget-steps", 1000)?;
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
pub fn train(argv: &[String]) -> Result<(), String> {
    let flags = Flags::parse(argv, TRAIN_FLAGS, &[])?;
    apply_threads_and_backend(&flags)?;
    let seed: u64 = flags.get_or("seed", 0)?;
    let setting = load_setting(flags.require("setting")?, seed)?;
    let budget_pct = Budget::check_pct(flags.get_or("budget", 100)?)?;
    let spec = flags.get_or("schedule", ScheduleSpec::Rex)?;
    let optimizer =
        (flags.parse_with("optimizer", OptimizerKind::parse)?).unwrap_or_else(OptimizerKind::sgdm);
    let dtype = (flags.parse_with("dtype", DType::parse)?).unwrap_or(DType::F32);
    let ft = ft_from_flags(&flags)?;
    let profile_path = profile_from_flags(&flags)?;
    let mut rec = recorder_from_flags(&flags)?;

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
pub fn sweep(argv: &[String]) -> Result<(), String> {
    let flags = Flags::parse(argv, SWEEP_FLAGS, &[])?;
    apply_threads_and_backend(&flags)?;
    let seed: u64 = flags.get_or("seed", 0)?;
    let setting = load_setting(flags.require("setting")?, seed)?;
    let optimizer =
        (flags.parse_with("optimizer", OptimizerKind::parse)?).unwrap_or_else(OptimizerKind::sgdm);
    let dtype = (flags.parse_with("dtype", DType::parse)?).unwrap_or(DType::F32);
    let budgets: Vec<u32> = (flags.get("budgets").unwrap_or("5,25,100").split(','))
        .map(|s| {
            let pct = s.trim().parse().map_err(|_| format!("bad budget {s:?}"))?;
            Budget::check_pct(pct)
        })
        .collect::<Result<_, _>>()?;
    let schedules: Vec<ScheduleSpec> = match flags.get("schedules") {
        Some(list) => (list.split(','))
            .map(|s| s.trim().parse().map_err(|e| format!("--schedules: {e}")))
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

/// `rexctl range-test --setting rn20-cifar10`
pub fn range_test(argv: &[String]) -> Result<(), String> {
    let flags = Flags::parse(argv, RANGE_TEST_FLAGS, &[])?;
    apply_threads_and_backend(&flags)?;
    let seed: u64 = flags.get_or("seed", 0)?;
    let setting = load_setting(flags.require("setting")?, seed)?;
    let optimizer =
        (flags.parse_with("optimizer", OptimizerKind::parse)?).unwrap_or_else(OptimizerKind::sgdm);
    let SettingSpec::Image {
        name, model, data, ..
    } = setting
    else {
        return Err("range-test supports image settings".into());
    };
    let built = model.build(data.num_classes, seed);
    let mut rec = recorder_from_flags(&flags)?;
    let result = lr_range_test(
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
