//! # rex-bench — experiment harness shared by the paper binaries
//!
//! The `grid <name>` binary regenerates the paper's schedule × budget
//! grids (Tables 4–9, Figure 3 and the ablations) from the rows of
//! [`grid::grids`]; `table2`, `fig2`, `fig4` and `table10_11` keep their
//! own loops, and `table1` and `fig1` aggregate the grids' CSVs (see
//! DESIGN.md §4 for the index). This library holds the pieces they
//! share: CLI parsing ([`Args`]), experiment scales ([`ScaleKind`]), the
//! schedule-grid runner ([`run_schedule_grid`]), and the markdown
//! emission helpers.
//!
//! Binaries accept:
//!
//! ```text
//! --scale smoke|fast|full   experiment size (default fast)
//! --out <dir>               directory for CSV records (default results/)
//! --trials <n>              override the trial count
//! --seed <s>                override the base seed
//! --trace <dir>             write one JSONL telemetry trace per cell
//! --resume <dir>            skip cells with a done-marker in <dir>
//! ```
//!
//! `--resume DIR` makes the grid crash-tolerant at cell granularity:
//! every finished cell writes a done-marker (its score, crash-consistent
//! via [`rex_train::marker`]) into DIR, and a rerun pointed at the same
//! DIR replays those scores instead of retraining. Markers and traces are
//! named by the cell's full key — grid, setting, scale, seed, dtype,
//! optimizer, schedule, budget and trial — so runs that differ in any of
//! them can share DIR. Cells are deterministic, so the resumed table is
//! identical to an uninterrupted run's.
//!
//! `smoke` finishes in seconds (CI sanity), `fast` reproduces the paper's
//! qualitative shape on a single CPU core in minutes, and `full` uses the
//! largest analogue sizes (hours on one core).

#![warn(missing_docs)]

use std::path::{Path, PathBuf};

use rex_core::ScheduleSpec;
use rex_eval::stats::Summary;
use rex_eval::store::Record;
use rex_eval::table;
use rex_telemetry::{JsonlSink, Recorder};
use rex_train::marker::{self, CellKey};
use rex_train::{Budget, OptimizerKind};

pub mod grid;

/// Experiment size selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleKind {
    /// Seconds: sanity only.
    Smoke,
    /// Minutes on one core: the recorded reproduction scale.
    Fast,
    /// The largest analogue sizes.
    Full,
}

impl ScaleKind {
    /// Parses `smoke|fast|full`.
    pub fn parse(s: &str) -> Option<ScaleKind> {
        match s {
            "smoke" => Some(ScaleKind::Smoke),
            "fast" => Some(ScaleKind::Fast),
            "full" => Some(ScaleKind::Full),
            _ => None,
        }
    }

    /// The name `parse` accepts.
    pub fn name(&self) -> &'static str {
        self.pick("smoke", "fast", "full")
    }

    /// Picks one of three values by scale.
    pub fn pick<T>(&self, smoke: T, fast: T, full: T) -> T {
        match self {
            ScaleKind::Smoke => smoke,
            ScaleKind::Fast => fast,
            ScaleKind::Full => full,
        }
    }
}

/// Parsed command-line arguments common to every experiment binary.
#[derive(Debug, Clone)]
pub struct Args {
    /// Selected experiment scale.
    pub scale: ScaleKind,
    /// Output directory for CSV records.
    pub out: PathBuf,
    /// Trial-count override.
    pub trials: Option<usize>,
    /// Base-seed override.
    pub seed: u64,
    /// Telemetry trace directory: when set, every grid cell writes a
    /// JSONL trace file there (one per setting/optimizer/schedule/
    /// budget/trial combination).
    pub trace: Option<PathBuf>,
    /// Worker-thread override (`--threads N`); `None` leaves the pool at
    /// its `REX_NUM_THREADS`/core-count default.
    pub threads: Option<usize>,
    /// Compute-backend override (`--backend scalar|simd|auto`); `None`
    /// leaves the `REX_BACKEND`/auto-detected default.
    pub backend: Option<rex_tensor::BackendKind>,
    /// Per-cell resume directory: finished cells leave done-markers here
    /// and are skipped (score replayed) on the next run.
    pub resume: Option<PathBuf>,
    /// Parameter storage precision (`--dtype f32|f16|bf16`); the default
    /// `f32` is the legacy bit-exact path that golden traces pin.
    pub dtype: rex_tensor::DType,
}

const USAGE: &str = "usage: <bin> [--scale smoke|fast|full] [--out DIR] [--trials N] [--seed S] [--trace DIR] [--threads N] [--backend scalar|simd|auto] [--dtype f32|f16|bf16] [--resume DIR]";

/// Prints `msg` and exits with status 2.
fn exit_with(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

impl Args {
    /// Parses `std::env::args`, exiting with usage on error.
    pub fn parse() -> Args {
        Args::parse_from(std::env::args().skip(1).collect())
    }

    /// Parses `argv` (the arguments after the program name), exiting with
    /// usage on error.
    pub fn parse_from(argv: Vec<String>) -> Args {
        let mut args = Args {
            scale: ScaleKind::Fast,
            out: PathBuf::from("results"),
            trials: None,
            seed: 0,
            trace: None,
            threads: None,
            backend: None,
            resume: None,
            dtype: rex_tensor::DType::F32,
        };
        let mut argv = argv.into_iter();
        while let Some(flag) = argv.next() {
            if flag == "--help" || flag == "-h" {
                eprintln!("{USAGE}");
                std::process::exit(0);
            }
            let mut value = || {
                argv.next()
                    .unwrap_or_else(|| exit_with(&format!("missing value for {flag}")))
            };
            match flag.as_str() {
                "--scale" => {
                    let v = value();
                    args.scale = ScaleKind::parse(&v).unwrap_or_else(|| {
                        exit_with(&format!("bad scale {v:?}; expected smoke|fast|full"))
                    });
                }
                "--out" => args.out = PathBuf::from(value()),
                "--trials" => {
                    let n = value().parse();
                    args.trials = Some(n.unwrap_or_else(|_| exit_with("bad trial count")));
                }
                "--seed" => args.seed = value().parse().unwrap_or_else(|_| exit_with("bad seed")),
                "--trace" => args.trace = Some(PathBuf::from(value())),
                "--resume" => args.resume = Some(PathBuf::from(value())),
                "--threads" => match value().parse() {
                    Ok(n) if n >= 1 => args.threads = Some(n),
                    _ => exit_with("bad thread count (want an integer >= 1)"),
                },
                "--backend" => {
                    let v = value();
                    let kind = rex_tensor::BackendKind::parse(&v)
                        .unwrap_or_else(|e| exit_with(&format!("--backend {v:?}: {e}")));
                    args.backend = Some(kind);
                }
                "--dtype" => {
                    let v = value();
                    args.dtype = rex_tensor::DType::parse(&v)
                        .filter(|d| d.trainable())
                        .unwrap_or_else(|| {
                            exit_with(&format!("bad dtype {v:?}; expected f32|f16|bf16"))
                        });
                }
                other => exit_with(&format!("unknown argument {other:?}")),
            }
        }
        if let Some(n) = args.threads {
            if let Err(e) = rex_pool::set_num_threads(n) {
                exit_with(&format!("--threads {n}: {e}"));
            }
        }
        if let Some(kind) = args.backend {
            if let Err(e) = rex_tensor::backend::set_backend(kind) {
                exit_with(&format!("--backend: {e}"));
            }
        }
        args
    }
}

/// The schedules a classification/VAE table compares, in the paper's row
/// order (including the bare-optimizer "None" row).
pub fn table_schedules(plateau_patience: u32) -> Vec<ScheduleSpec> {
    let mut v = vec![ScheduleSpec::None];
    v.extend(rex_core::all_paper_schedules(plateau_patience));
    v
}

/// One cell's inputs, passed to the grid runner's cell function.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Schedule under test.
    pub schedule: ScheduleSpec,
    /// Optimizer family.
    pub optimizer: OptimizerKind,
    /// The budget for this cell.
    pub budget: Budget,
    /// Trial index.
    pub trial: usize,
    /// Seed for this (cell, trial).
    pub seed: u64,
}

/// What every cell of one setting × optimizer grid shares: all fields
/// but the two directories are part of each cell's [`CellKey`].
#[derive(Debug, Clone, Copy)]
pub struct GridRun<'a> {
    /// Grid name (`table6`).
    pub grid: &'a str,
    /// Setting label (`VGG16-CIFAR100`), also the records' `setting`.
    pub setting: &'a str,
    /// Experiment scale.
    pub scale: ScaleKind,
    /// Base seed; each cell derives its own from it.
    pub seed: u64,
    /// Parameter storage precision.
    pub dtype: rex_tensor::DType,
    /// Optimizer family.
    pub optimizer: OptimizerKind,
    /// `--trace DIR`: one JSONL trace per cell.
    pub trace: Option<&'a Path>,
    /// `--resume DIR`: one done-marker per finished cell.
    pub resume: Option<&'a Path>,
}

impl GridRun<'_> {
    fn key<'c>(&'c self, cell: &'c Cell) -> CellKey<'c> {
        CellKey {
            setting: self.setting,
            grid: self.grid,
            scale: self.scale.name(),
            seed: self.seed,
            dtype: self.dtype,
            optimizer: cell.optimizer,
            schedule: &cell.schedule,
            budget_pct: cell.budget.pct(),
            trial: cell.trial,
        }
    }
}

/// The trace filename a grid cell writes under `--trace DIR`: its
/// [`CellKey::file_name`] with a `.jsonl` extension.
pub fn cell_trace_name(run: &GridRun, cell: &Cell) -> String {
    run.key(cell).file_name("jsonl")
}

/// The done-marker filename a finished grid cell leaves under
/// `--resume DIR`: its [`CellKey::file_name`] with a `.done` extension.
pub fn cell_done_name(run: &GridRun, cell: &Cell) -> String {
    run.key(cell).file_name("done")
}

/// Builds the telemetry recorder for one grid cell: a JSONL writer under
/// `run.trace` when tracing is on, otherwise disabled. Falls back to a
/// disabled recorder (with a stderr warning) if the file cannot be
/// created — telemetry must not abort an experiment run.
pub fn cell_recorder(run: &GridRun, cell: &Cell) -> Recorder {
    match run.trace {
        Some(dir) => {
            let path = dir.join(cell_trace_name(run, cell));
            match JsonlSink::create(&path) {
                Ok(sink) => Recorder::new(Box::new(sink)),
                Err(e) => {
                    eprintln!("warning: cannot create trace file {}: {e}", path.display());
                    Recorder::disabled()
                }
            }
        }
        None => Recorder::disabled(),
    }
}

/// Runs a full schedule × budget grid for one setting/optimizer pair and
/// returns flat records. `cell_fn` trains one cell — emitting telemetry
/// through the supplied recorder — and returns the metric. With
/// `run.trace` set, each cell's recorder writes a JSONL trace named by
/// [`cell_trace_name`]; otherwise the recorder is disabled (zero cost).
///
/// With `run.resume` set, each finished cell writes a crash-consistent
/// done-marker there ([`cell_done_name`]; the score as exact `f64` bits)
/// and a later run with the same directory replays marked cells instead
/// of retraining them — an interrupted grid loses at most the cells that
/// were in flight.
///
/// Cells are independent (each derives its own seed, recorder, and
/// model), so they run concurrently on the [`rex_pool`] worker pool, one
/// cell per task. Records are assembled afterwards in the canonical
/// schedule → budget → trial order, so the output is byte-identical to
/// the old serial loop regardless of thread count or completion order;
/// tensor ops inside a cell run inline on the worker (the pool never
/// nests), keeping every cell's trajectory bitwise independent of how
/// many cells run at once.
///
/// Progress is streamed to stderr so long runs are observable; lines may
/// interleave across cells when the pool has more than one thread.
pub fn run_schedule_grid(
    run: &GridRun,
    schedules: &[ScheduleSpec],
    budgets: &[Budget],
    trials: usize,
    lower_is_better: bool,
    cell_fn: impl Fn(&Cell, &mut Recorder) -> f64 + Sync,
) -> Vec<Record> {
    let setting = run.setting;
    if let Some(dir) = run.resume {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("warning: cannot create resume dir {}: {e}", dir.display());
        }
    }
    let mut cells = Vec::with_capacity(schedules.len() * budgets.len() * trials);
    for schedule in schedules {
        for budget in budgets {
            for trial in 0..trials {
                cells.push(Cell {
                    schedule: schedule.clone(),
                    optimizer: run.optimizer,
                    budget: *budget,
                    trial,
                    seed: run.seed
                        ^ (trial as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        ^ ((budget.pct() as u64) << 32),
                });
            }
        }
    }
    let mut scores = vec![0.0f64; cells.len()];
    let cells_ref = &cells;
    rex_pool::parallel_for_slices(&mut scores, 1, |idx, _, slot| {
        let cell = &cells_ref[idx];
        let done_path = run.resume.map(|d| d.join(cell_done_name(run, cell)));
        let t0 = std::time::Instant::now();
        let (score, took) = match done_path.as_deref().and_then(marker::read) {
            Some(score) => (score, "resumed".to_string()),
            None => {
                let mut rec = cell_recorder(run, cell);
                let score = cell_fn(cell, &mut rec);
                rec.flush();
                if let Some(path) = &done_path {
                    marker::write(path, score);
                }
                (score, format!("{:.1?}", t0.elapsed()))
            }
        };
        eprintln!(
            "[{setting}/{}] {} @ {}: trial {} -> {score:.2} ({took})",
            cell.optimizer.name(),
            cell.schedule.name(),
            cell.budget,
            cell.trial,
        );
        slot[0] = score;
    });
    cells
        .iter()
        .zip(scores)
        .map(|(cell, score)| Record {
            setting: setting.to_string(),
            optimizer: cell.optimizer.name().to_string(),
            schedule: cell.schedule.name(),
            budget_pct: cell.budget.pct(),
            trial: cell.trial as u32,
            score,
            lower_is_better,
        })
        .collect()
}

/// Reads the CSVs named in `names` from `dir` for an aggregate binary,
/// skipping (with a note on stderr) any that cannot be read. Exits with
/// status 1 when none can.
pub fn read_results(dir: &Path, names: &[&str]) -> Vec<Record> {
    let mut records = Vec::new();
    for name in names {
        let path = dir.join(name);
        match rex_eval::store::read_csv(&path) {
            Ok(mut r) => {
                eprintln!("loaded {} records from {}", r.len(), path.display());
                records.append(&mut r);
            }
            Err(e) => eprintln!("skipping {}: {e}", path.display()),
        }
    }
    if records.is_empty() {
        eprintln!(
            "no results found in {} — run the grids first",
            dir.display()
        );
        std::process::exit(1);
    }
    records
}

/// Prints a paper-style table (rows = schedules, columns = budgets) from
/// flat records, marking Top-1 bold and Top-3 italic per column.
pub fn print_budget_table(title: &str, records: &[Record], budgets: &[Budget]) {
    use std::collections::BTreeMap;
    println!("\n## {title}\n");
    let mut optimizers: Vec<String> = records.iter().map(|r| r.optimizer.clone()).collect();
    optimizers.sort();
    optimizers.dedup();
    for opt in optimizers {
        let recs: Vec<&Record> = records.iter().filter(|r| r.optimizer == opt).collect();
        let mut schedules: Vec<String> = Vec::new();
        for r in &recs {
            if !schedules.contains(&r.schedule) {
                schedules.push(r.schedule.clone());
            }
        }
        let lower = recs.first().map(|r| r.lower_is_better).unwrap_or(true);
        let mut headers = vec![opt.clone()];
        headers.extend(budgets.iter().map(|b| format!("{}%", b.pct())));
        let mut rows: Vec<Vec<String>> = Vec::new();
        let mut cols: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for sched in &schedules {
            let mut row = vec![sched.clone()];
            for (ci, b) in budgets.iter().enumerate() {
                let vals: Vec<f64> = recs
                    .iter()
                    .filter(|r| r.schedule == *sched && r.budget_pct == b.pct())
                    .map(|r| r.score)
                    .collect();
                let summary = Summary::of(&vals);
                cols.entry(ci + 1).or_default().push(summary.mean);
                row.push(format!("{summary}"));
            }
            rows.push(row);
        }
        for (ci, values) in cols {
            table::mark_best_per_column(&mut rows, ci, &values, lower);
        }
        println!("{}", table::markdown(&headers, &rows));
    }
}

/// Median, 99th percentile (inclusive nearest rank) and maximum of
/// `samples`; zeros when empty.
pub fn quantiles(mut samples: Vec<f64>) -> (f64, f64, f64) {
    samples.sort_by(f64::total_cmp);
    let max = samples.last().copied().unwrap_or(0.0);
    let rank = |p: usize| match samples.len() {
        0 => 0.0,
        n => samples[((p * (n - 1) + 50) / 100).min(n - 1)],
    };
    (rank(50), rank(99), max)
}

/// Rounds to 3 decimal places for a committed benchmark artifact.
pub fn r3(x: f64) -> f64 {
    (x * 1e3).round() / 1e3
}

/// Escapes `\` and `"` for a hand-written JSON string.
pub fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rex_train::marker::read as read_done_marker;

    /// A `TEST` grid run at smoke scale, SGDM, f32, untraced.
    fn test_run(seed: u64, resume: Option<&Path>) -> GridRun<'_> {
        GridRun {
            grid: "test",
            setting: "TEST",
            scale: ScaleKind::Smoke,
            seed,
            dtype: rex_tensor::DType::F32,
            optimizer: OptimizerKind::sgdm(),
            trace: None,
            resume,
        }
    }

    #[test]
    fn scale_parse_and_pick() {
        assert_eq!(ScaleKind::parse("smoke"), Some(ScaleKind::Smoke));
        assert_eq!(ScaleKind::parse("fast"), Some(ScaleKind::Fast));
        assert_eq!(ScaleKind::parse("huge"), None);
        assert_eq!(ScaleKind::Fast.pick(1, 2, 3), 2);
    }

    #[test]
    fn grid_runner_covers_all_cells() {
        let budgets = vec![Budget::new(100, 1), Budget::new(100, 100)];
        let schedules = vec![ScheduleSpec::Rex, ScheduleSpec::Linear];
        let records = run_schedule_grid(
            &test_run(0, None),
            &schedules,
            &budgets,
            2,
            true,
            |cell, rec| {
                assert!(!rec.is_enabled(), "no --trace => disabled recorder");
                cell.budget.pct() as f64 + cell.trial as f64
            },
        );
        assert_eq!(records.len(), 2 * 2 * 2);
        let trial_scores: Vec<f64> = records
            .iter()
            .filter(|r| r.schedule == "REX" && r.budget_pct == 1)
            .map(|r| r.score)
            .collect();
        assert_eq!(trial_scores, vec![1.0, 2.0]);
    }

    #[test]
    fn resume_dir_skips_finished_cells_and_replays_exact_scores() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let dir = std::env::temp_dir().join(format!("rex_bench_resume_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let budgets = vec![Budget::new(100, 10)];
        let schedules = vec![ScheduleSpec::Rex, ScheduleSpec::Linear];
        let runs = AtomicUsize::new(0);
        // 1/3 is not exactly representable: a decimal round-trip would drift
        let score = |cell: &Cell| (cell.trial as f64 + 1.0) / 3.0 + cell.seed as f64;
        let first = run_schedule_grid(
            &test_run(7, Some(&dir)),
            &schedules,
            &budgets,
            2,
            true,
            |cell, _| {
                runs.fetch_add(1, Ordering::Relaxed);
                score(cell)
            },
        );
        assert_eq!(runs.load(Ordering::Relaxed), 4);
        // simulate a crash that lost one cell's marker: that cell re-runs,
        // the other three replay their stored scores bit-for-bit
        let lost = dir.join(cell_done_name(
            &test_run(7, Some(&dir)),
            &Cell {
                schedule: ScheduleSpec::Linear,
                optimizer: OptimizerKind::sgdm(),
                budget: budgets[0],
                trial: 1,
                seed: 0,
            },
        ));
        std::fs::remove_file(&lost).expect("marker was written");
        let second = run_schedule_grid(
            &test_run(7, Some(&dir)),
            &schedules,
            &budgets,
            2,
            true,
            |cell, _| {
                runs.fetch_add(1, Ordering::Relaxed);
                score(cell)
            },
        );
        assert_eq!(runs.load(Ordering::Relaxed), 5, "exactly one cell re-ran");
        let key = |r: &Record| (r.schedule.clone(), r.budget_pct, r.trial, r.score.to_bits());
        assert_eq!(
            first.iter().map(key).collect::<Vec<_>>(),
            second.iter().map(key).collect::<Vec<_>>()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_done_marker_reruns_the_cell() {
        let dir = std::env::temp_dir().join(format!("rex_bench_corrupt_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let cell = Cell {
            schedule: ScheduleSpec::Rex,
            optimizer: OptimizerKind::sgdm(),
            budget: Budget::new(100, 10),
            trial: 0,
            seed: 0,
        };
        let marker = dir.join(cell_done_name(&test_run(0, Some(&dir)), &cell));
        std::fs::write(&marker, "not-hex\n").unwrap();
        let records = run_schedule_grid(
            &test_run(0, Some(&dir)),
            &[ScheduleSpec::Rex],
            &[Budget::new(100, 10)],
            1,
            true,
            |_, _| 42.0,
        );
        assert_eq!(records[0].score, 42.0, "corrupt marker must not be trusted");
        assert_eq!(
            read_done_marker(&marker),
            Some(42.0),
            "marker rewritten after the re-run"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_names_are_sanitised_and_unique_per_cell() {
        let cell = Cell {
            schedule: ScheduleSpec::Delayed(Box::new(ScheduleSpec::Linear), 0.5),
            optimizer: OptimizerKind::sgdm(),
            budget: Budget::new(100, 10),
            trial: 3,
            seed: 0,
        };
        let run = GridRun {
            setting: "RN20-CIFAR10",
            ..test_run(0, None)
        };
        let name = cell_trace_name(&run, &cell);
        assert!(name.ends_with("_b10_t3.jsonl"), "{name}");
        assert!(name.starts_with("rn20-cifar10_"), "{name}");
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || "-_.".contains(c)),
            "{name}"
        );
        let other = cell_trace_name(&run, &Cell { trial: 4, ..cell });
        assert_ne!(name, other);
    }

    #[test]
    fn grids_sharing_a_directory_get_distinct_trace_names() {
        let cell = Cell {
            schedule: ScheduleSpec::Rex,
            optimizer: OptimizerKind::sgdm(),
            budget: Budget::new(3, 100),
            trial: 0,
            seed: 0,
        };
        let table6 = GridRun {
            grid: "table6",
            setting: "VGG16-CIFAR100",
            ..test_run(0, None)
        };
        let fig3 = GridRun {
            grid: "fig3",
            ..table6
        };
        assert_ne!(
            cell_trace_name(&table6, &cell),
            cell_trace_name(&fig3, &cell)
        );
        assert_ne!(cell_done_name(&table6, &cell), cell_done_name(&fig3, &cell));
    }

    #[test]
    fn table_schedules_include_none_row() {
        let s = table_schedules(5);
        assert_eq!(s.len(), 8);
        assert_eq!(s[0].name(), "None");
        assert_eq!(s[7].name(), "REX");
    }
}
