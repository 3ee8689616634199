//! `kernel-bench` — self-contained perf harness for the rex-tensor
//! compute kernels (std-only: no criterion, works fully offline).
//!
//! Writes `BENCH_kernels.json` at the repository root (schema
//! `rex-kernel-bench/v5`, one flat object; DESIGN.md §9 lists its keys):
//!
//! * **kernel rows** — every kernel of [`rex_bench::kernel_matrix`]
//!   against its naive baseline, sampled in the same reps, once for each
//!   backend (scalar, simd) at each pool size of 1, 2, 4 and 8 threads up
//!   to `min(8, 2·host_cores)`. A row records both arms' median and min
//!   timings, the median-based `speedup`, the min-based `speedup_best`
//!   (what `bench-guard` holds to its floors) and the outputs' max |diff|.
//! * **grid** — wall clock of one small real
//!   [`rex_bench::run_schedule_grid`] training grid at 1 pool thread
//!   against 4: the harness-level speedup from running independent grid
//!   cells concurrently.
//!
//! The artifact is checked against the kernel floors of
//! [`rex_bench::floors`] before the binary exits.
//!
//! ```text
//! cargo run --release -p rex-bench --bin kernel-bench [-- --smoke] [--reps N] [--out PATH]
//! ```
//!
//! The default is 40 reps after 3 warm-up rounds: on a shared 2-vCPU host
//! the simd@1T matmul row's `speedup_best` spread 5.6–7.9× across runs
//! at 15 reps and 5.4–6.6× at 40. `--smoke` drops to 3 reps after 1
//! warm-up round for CI sanity.

use rex_bench::floors::Kind;
use rex_bench::kernel_matrix;
use rex_bench::measure::{ratio, time_arms, Artifact, Sampling};
use rex_bench::{exit_with, or_usage, parse_flags, run_schedule_grid, Cell, GridRun, ScaleKind};
use rex_core::ScheduleSpec;
use rex_data::images::synth_cifar10;
use rex_telemetry::Recorder;
use rex_tensor::backend;
use rex_tensor::DType;
use rex_train::tasks::ImageModel;
use rex_train::{Budget, OptimizerKind, TrainConfig};

/// Pool size for the parallel leg of the grid measurement.
const GRID_THREADS: usize = 4;

const USAGE: &str = "usage: kernel-bench [--smoke] [--reps N] [--out PATH]";

/// Times one small real training grid (2 schedules × 2 trials of a
/// micro-ResNet cell) at 1 pool thread and at [`GRID_THREADS`], the two
/// legs interleaved in each rep. Both legs run the identical cell list;
/// the determinism contract makes their records equal, so the only
/// variable is how many cells run at once.
fn bench_grid(s: &Sampling, art: &mut Artifact) -> f64 {
    let data = synth_cifar10(16, 8, 0xBE7C);
    let schedules = [ScheduleSpec::Rex, ScheduleSpec::Linear];
    let budgets = [Budget::new(if s.smoke { 1 } else { 2 }, 100)];
    let trials = 2;
    let run = || {
        let grid = GridRun {
            grid: "kernel-bench",
            setting: "GRID-BENCH",
            scale: ScaleKind::Smoke,
            seed: 0xBE7C,
            dtype: DType::F32,
            optimizer: OptimizerKind::sgdm(),
            trace: None,
            resume: None,
        };
        let train = |cell: &Cell, _: &mut Recorder| {
            let cfg = TrainConfig {
                batch_size: 8,
                lr: 0.05,
                ..TrainConfig::new(
                    cell.budget.epochs(),
                    cell.optimizer,
                    cell.schedule.clone(),
                    cell.seed,
                )
            };
            (ImageModel::MicroResNet20.train(&data, cfg, &mut Recorder::disabled())).unwrap()
        };
        std::hint::black_box(run_schedule_grid(
            &grid, &schedules, &budgets, trials, true, train,
        ));
    };
    let t = time_arms(
        s,
        &mut [&mut || rex_pool::with_pool_size(1, run), &mut || {
            rex_pool::with_pool_size(GRID_THREADS, run)
        }],
    );
    let (serial, parallel) = (t[0], t[1]);
    art.count("grid.cells", schedules.len() * budgets.len() * trials);
    art.count("grid.parallel_threads", GRID_THREADS);
    art.num("grid.serial_ms", serial.median_ms);
    art.num("grid.serial_min_ms", serial.min_ms);
    art.num("grid.parallel_ms", parallel.median_ms);
    art.num("grid.parallel_min_ms", parallel.min_ms);
    art.num("grid.speedup", ratio(serial.median_ms, parallel.median_ms));
    art.num("grid.speedup_best", ratio(serial.min_ms, parallel.min_ms));
    ratio(serial.median_ms, parallel.median_ms)
}

fn main() {
    let flags = parse_flags(USAGE, &["reps", "out"], &["smoke"]);
    let mut s = if flags.switch("smoke") {
        Sampling::smoke()
    } else {
        Sampling::full(40)
    };
    s.reps = or_usage(flags.get_or("reps", s.reps), USAGE);
    let be = backend::active();
    println!(
        "kernel-bench: reps={} warmup={} backend={} ({}){}",
        s.reps,
        s.warmup,
        be.name(),
        be.simd_level(),
        if s.smoke { " (smoke)" } else { "" }
    );
    let (_, skipped) = kernel_matrix::pool_sizes();
    if !skipped.is_empty() {
        println!("pool sizes above min(8, 2*host_cores) skipped: {skipped:?}");
    }

    let rows = kernel_matrix::measure(&s, |_| true);
    println!(
        "{:<26} {:<7} {:>3} {:>10} {:>12} {:>8} {:>8} {:>8} {:>10}",
        "kernel", "backend", "T", "ms", "baseline ms", "speedup", "best", "vs 1T", "max|diff|"
    );
    for r in &rows {
        let one = (rows.iter())
            .find(|o| o.kernel == r.kernel && o.backend == r.backend && o.threads == 1)
            .map_or(f64::NAN, |o| {
                ratio(o.optimized.median_ms, r.optimized.median_ms)
            });
        println!(
            "{:<26} {:<7} {:>3} {:>10.3} {:>12.3} {:>7.2}x {:>7.2}x {:>7.2}x {:>10.3e}",
            r.kernel,
            r.backend,
            r.threads,
            r.optimized.median_ms,
            r.baseline.median_ms,
            r.speedup(),
            r.speedup_best(),
            one,
            r.max_abs_diff
        );
    }

    let mut art = Artifact::new(Kind::Kernels, &s);
    rows.iter().for_each(|r| r.record(&mut art));
    let grid_speedup = bench_grid(&s, &mut art);
    println!(
        "\nschedule-grid harness: 1 thread vs {GRID_THREADS} threads -> {grid_speedup:.2}x (median)"
    );

    let default_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
    let path = flags.get("out").unwrap_or(default_path);
    let held = (art.write_checked(path))
        .unwrap_or_else(|e| exit_with(&format!("kernel-bench: writing {path}: {e}")));
    println!("wrote {path}");
    if !held {
        std::process::exit(1);
    }
}
