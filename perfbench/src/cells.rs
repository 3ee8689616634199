//! The in-process workload, `small-cells`: budgeted cells run through
//! `rex_train::settings::{load_setting, SettingSpec::run_ft}`. Each round
//! runs 32 `digits-mlp` cells (f32/bf16 × sgdm/adam × budgets 25/50/100 %)
//! around one `vae-mnist` cell (1/5/1/10 %), which splits wall time about
//! evenly between the two training loops.
//!
//! A run sets up [`SETUP_REPS`] times (dataset synthesis plus the
//! reference cells), then runs whole rounds until `--seconds` have
//! passed. A digits configuration recurs every 3 rounds and a VAE one
//! every 16, so the determinism check has repeats.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use rex_autograd::Graph;
use rex_core::{Schedule, ScheduleSpec};
use rex_data::digits::synth_digits;
use rex_nn::Vae;
use rex_telemetry::span::{self, Detail};
use rex_telemetry::{parse_trace, JsonlSink, MemorySink, Recorder};
use rex_tensor::{DType, Prng};
use rex_train::settings::{load_setting, SettingSpec};
use rex_train::{Budget, FtConfig, OptimizerKind};

use crate::checks::Checks;
use crate::layers::{self, Extras, Spans};
use crate::{alloc, median, mix, percentile, Args, Outcome, REFERENCE_SEED, SETUP_REPS};

const SCHEDULES: [&str; 4] = ["rex", "linear", "cosine", "step"];

/// One budgeted cell.
#[derive(Clone)]
pub struct Cell {
    pub setting: &'static str,
    pub budget: u32,
    pub optimizer: &'static str,
    pub schedule: &'static str,
    pub dtype: DType,
    pub seed: u64,
}

pub fn optimizer(name: &str) -> OptimizerKind {
    match name {
        "adam" => OptimizerKind::adam(),
        _ => OptimizerKind::sgdm(),
    }
}

impl Cell {
    pub fn key(&self) -> String {
        format!(
            "{}/b{}/{}/{}/{}/s{}",
            self.setting,
            self.budget,
            self.optimizer,
            self.schedule,
            self.dtype.name(),
            self.seed
        )
    }

    fn schedule_spec(&self) -> Result<ScheduleSpec, String> {
        self.schedule
            .parse::<ScheduleSpec>()
            .map_err(|e| e.to_string())
    }

    /// Runs the cell through the shared cell runner.
    pub fn run(&self, spec: &SettingSpec, ft: FtConfig, rec: &mut Recorder) -> Result<f64, String> {
        let opt = optimizer(self.optimizer);
        let lr = spec.default_lr(&opt);
        spec.run_ft(
            self.budget,
            opt,
            self.schedule_spec()?,
            lr,
            self.seed,
            self.dtype,
            ft,
            rec,
        )
        .map_err(|e| e.to_string())
    }

    /// Optimizer steps the cell takes.
    pub fn steps(&self, spec: &SettingSpec) -> u64 {
        let epochs = Budget::new(spec.max_epochs(), self.budget).epochs() as u64;
        let (samples, batch) = match spec {
            SettingSpec::Image { data, .. } => (data.train_labels.len(), 32),
            SettingSpec::Vae { .. } => (VAE_TRAIN, VAE_BATCH),
            SettingSpec::Digits { .. } => (DIGITS_TRAIN, DIGITS_BATCH),
        };
        epochs * samples.div_ceil(batch) as u64
    }
}

// The digits and VAE cells' data and batch sizes, as `SettingSpec::run_ft`
// builds them; set-up checks the step counts they give against recorded
// steps. `vae_replica` repeats the VAE loop with spans around each call.
const DIGITS_TRAIN: usize = 120;
const DIGITS_TEST: usize = 40;
const DIGITS_BATCH: usize = 16;
const VAE_TRAIN: usize = 400;
const VAE_TEST: usize = 150;
const VAE_BATCH: usize = 8;

/// The VAE training loop of `run_ft`, rebuilt from public items with a
/// span around `Vae::elbo`, `Graph::backward` and `Optimizer::step`, so
/// the traced run can split a VAE step the way the classifier loop's own
/// spans split a classifier step. Returns the cell's test loss.
fn vae_replica(cell: &Cell, spec: &SettingSpec) -> Result<f64, String> {
    let train = synth_digits(VAE_TRAIN, 12, cell.seed ^ 0xD161);
    let test = synth_digits(VAE_TEST, 12, cell.seed ^ 0xD162);
    let epochs = Budget::new(spec.max_epochs(), cell.budget).epochs();
    let kind = optimizer(cell.optimizer);
    let lr = spec.default_lr(&kind);
    let vae = Vae::new(train.size * train.size, 64, 8, cell.seed);
    let mut opt = kind.build(vae.params(), lr);
    let mut rng = Prng::new(cell.seed ^ 0xE1B0);
    let total = (train.len() * epochs) as u64;
    let mut schedule = cell.schedule_spec()?.build();
    let labels = vec![0usize; train.len()];
    let mut done = 0u64;
    let err = |e: rex_tensor::TensorError| e.to_string();
    let _job = span::span("job");
    for _ in 0..epochs {
        let _epoch = span::span("epoch");
        for batch in rex_data::batches(&train.images, &labels, VAE_BATCH, Some(&mut rng)) {
            let _step = span::span("step");
            opt.set_lr(lr * schedule.factor(done, total) as f32);
            if let Some(m) = schedule.momentum(done, total) {
                opt.set_momentum(m as f32);
            }
            done += batch.labels.len() as u64;
            opt.zero_grad();
            let mut g = Graph::new(true);
            let loss = {
                let _s = span::span("forward");
                vae.elbo(&mut g, &batch.images).map_err(err)?
            };
            {
                let _s = span::span("backward");
                g.backward(loss).map_err(err)?;
            }
            let _s = span::span("optimizer");
            opt.step();
        }
    }
    rex_train::tasks::vae_loss(&vae, &test).map_err(err)
}

/// Digits cells per round: with one VAE cell of 1/5/1/10 % they split
/// wall time about evenly. The VAE cells are then 3 % of all cells, so
/// `job_ms_p95` falls inside the slowest digits cells (100 %, adam, bf16;
/// 8 % of them) rather than at the edge between two kinds of cell.
const DIGITS_PER_ROUND: usize = 32;

fn small_round(seed: u64, round: usize) -> Vec<Cell> {
    let combos: Vec<(DType, &'static str, u32)> = [DType::F32, DType::Bf16]
        .into_iter()
        .flat_map(|d| ["sgdm", "adam"].into_iter().map(move |o| (d, o)))
        .flat_map(|(d, o)| [25, 50, 100].into_iter().map(move |b| (d, o, b)))
        .collect();
    let mut cells: Vec<Cell> = (0..DIGITS_PER_ROUND)
        .map(|i| {
            let j = round * DIGITS_PER_ROUND + i;
            let (dtype, optimizer, budget) = combos[j % combos.len()];
            Cell {
                setting: "digits-mlp",
                budget,
                optimizer,
                schedule: SCHEDULES[j / (2 * combos.len()) % 4],
                dtype,
                seed: mix(seed, 100 + (j % (2 * combos.len())) as u64),
            }
        })
        .collect();
    let vae = Cell {
        setting: "vae-mnist",
        budget: [1, 5, 1, 10][round % 4],
        optimizer: ["sgdm", "adam"][round / 4 % 2],
        schedule: SCHEDULES[round / 2 % 4],
        dtype: DType::F32,
        seed: mix(seed, 200 + (round % 16) as u64),
    };
    cells.insert(DIGITS_PER_ROUND / 2, vae);
    cells
}

/// The reference cells every set-up runs: seed [`REFERENCE_SEED`],
/// checked against `reference.json`.
fn reference_cells() -> Vec<Cell> {
    let cell = |setting, budget, optimizer, dtype| Cell {
        setting,
        budget,
        optimizer,
        schedule: "rex",
        dtype,
        seed: REFERENCE_SEED,
    };
    vec![
        cell("digits-mlp", 100, "sgdm", DType::F32),
        cell("digits-mlp", 100, "adam", DType::Bf16),
        cell("digits-mlp", 50, "adam", DType::F32),
        cell("digits-mlp", 25, "sgdm", DType::Bf16),
        cell("vae-mnist", 10, "sgdm", DType::F32),
    ]
}

/// Settings keyed by name, datasets synthesized from `seed`.
struct Catalog(BTreeMap<&'static str, SettingSpec>);

impl Catalog {
    /// Loads `names`; returns the catalog and the synthesis time in ms.
    fn load(names: &[&'static str], seed: u64) -> Result<(Catalog, f64), String> {
        let t = Instant::now();
        let mut map = BTreeMap::new();
        for &name in names {
            map.insert(name, load_setting(name, seed)?);
        }
        Ok((Catalog(map), t.elapsed().as_secs_f64() * 1e3))
    }

    fn get(&self, name: &str) -> &SettingSpec {
        &self.0[name]
    }
}

/// Time to synthesize the digit sets the small settings build per cell.
fn digits_synth_ms(seed: u64) -> f64 {
    let t = Instant::now();
    for (n, salt) in [
        (DIGITS_TRAIN, 0xD1_6217),
        (DIGITS_TEST, 0xD1_6218),
        (VAE_TRAIN, 0xD161),
        (VAE_TEST, 0xD162),
    ] {
        std::hint::black_box(synth_digits(n, 12, seed ^ salt));
    }
    t.elapsed().as_secs_f64() * 1e3
}

/// One set-up: both catalogs plus the reference cells, checked. The
/// reference cells record into memory so their step counts confirm
/// [`Cell::steps`].
fn set_up(seed: u64, checks: &mut Checks) -> Result<(Catalog, Catalog, f64), String> {
    let names = ["digits-mlp", "vae-mnist"];
    let (work, synth_work) = Catalog::load(&names, mix(seed, 0xDA7A))?;
    let (reference, synth_ref) = Catalog::load(&names, REFERENCE_SEED)?;
    let synth_ms = synth_work + synth_ref + digits_synth_ms(seed);
    for cell in reference_cells() {
        let spec = reference.get(cell.setting);
        let sink = MemorySink::unbounded();
        let handle = sink.handle();
        let mut rec = Recorder::new(Box::new(sink));
        let key = cell.key();
        if let Some(metric) = checks.cell(&key, cell.run(spec, FtConfig::default(), &mut rec)) {
            checks.reference(&key, metric);
        }
        let recorded = handle.steps().len() as u64;
        checks.op(
            Ok(recorded == cell.steps(spec)),
            &format!(
                "{key}: {recorded} steps recorded, {} expected",
                cell.steps(spec)
            ),
        );
    }
    Ok((work, reference, synth_ms))
}

/// The traced run's durability probe: one reference cell with a
/// checkpoint every 5 steps and a JSONL trace, into the state dir.
fn durability(reference: &Catalog, dir: &Path, x: &mut Extras) -> Result<(), String> {
    let cell = reference_cells().remove(0);
    let spec = reference.get(cell.setting);
    let state = dir.join("probe.rexstate");
    let trace = dir.join("probe.jsonl");
    let ft = FtConfig {
        checkpoint_every: Some(5),
        checkpoint_path: Some(state.clone()),
        ..FtConfig::default()
    };
    let mut rec = Recorder::new(Box::new(
        JsonlSink::create(&trace).map_err(|e| e.to_string())?,
    ));
    span::enable(Detail::Phase);
    let run = cell.run(spec, ft, &mut rec);
    rec.flush();
    drop(rec);
    let mut spans = Spans::default();
    spans.add(cell.setting, &span::take());
    run?;
    x.ckpt_ms = spans.mean_ms("checkpoint");
    let snapshot = std::fs::metadata(&state).map_err(|e| e.to_string())?.len();
    x.snapshot_bytes = snapshot as f64;
    x.atomic_write_ms = layers::atomic_write_ms(dir, snapshot as usize)?;
    let text = std::fs::read_to_string(&trace).map_err(|e| e.to_string())?;
    let events = parse_trace(&text)?;
    (x.trace_bytes_per_step, x.emit_us_per_step) = layers::emit_replay(dir, &events)?;
    let _ = std::fs::remove_file(&state);
    let _ = std::fs::remove_file(&trace);
    Ok(())
}

pub fn run(args: &Args, started: Instant, checks: &mut Checks) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let mut synths = Vec::new();
    let mut rep_start = started;
    let mut catalogs = None;
    for _ in 0..SETUP_REPS {
        let (work, reference, synth_ms) = set_up(args.seed, checks)?;
        setups.push(rep_start.elapsed().as_secs_f64());
        synths.push(synth_ms);
        catalogs = Some((work, reference));
        rep_start = Instant::now();
    }
    let (work, reference) = catalogs.expect("SETUP_REPS > 0");

    let round = |r: usize| small_round(args.seed, r);
    let mut spans = Spans::default();
    let mut x = Extras::default();
    let mut cell_ms = Vec::new();
    let mut by_setting: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut steps = 0u64;
    let mut rounds = 0usize;
    let mut replicas = BTreeMap::new();
    let pool0 = rex_pool::stats();
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < args.seconds {
        for cell in round(rounds) {
            let spec = work.get(cell.setting);
            let replica = args.traced && cell.setting == "vae-mnist";
            if args.traced {
                span::enable(Detail::Kernel);
            }
            let t = Instant::now();
            let metric = if replica {
                vae_replica(&cell, spec)
            } else {
                cell.run(spec, FtConfig::default(), &mut Recorder::disabled())
            };
            let ms = t.elapsed().as_secs_f64() * 1e3;
            cell_ms.push(ms);
            by_setting.entry(cell.setting).or_default().push(ms);
            if args.traced {
                spans.add(cell.setting, &span::take());
            }
            if replica {
                let m = checks.cell(&format!("replica/{}", cell.key()), metric);
                replicas.insert(cell.key(), m);
            } else {
                checks.cell(&cell.key(), metric);
            }
            steps += cell.steps(spec);
        }
        rounds += 1;
    }
    let wall = t0.elapsed().as_secs_f64();
    let pool = rex_pool::stats();

    let mut out = Outcome::default();
    let steps_per_s = steps as f64 / wall;
    out.overhead_basis = steps_per_s;
    out.note("rounds", rounds);
    out.note("cells", cell_ms.len());
    out.note("steps", steps);
    out.note("timed_s", wall);
    out.note("setup_reps_s", format!("{setups:?}"));
    let total_ms: f64 = cell_ms.iter().sum();
    for (setting, times) in &by_setting {
        out.note(&format!("cell_ms_p50.{setting}"), median(times));
        out.note(
            &format!("time_share.{setting}"),
            times.iter().sum::<f64>() / total_ms,
        );
    }
    out.e2e("setup_s", median(&setups), "s");
    out.e2e("steps_per_s", steps_per_s, "steps/s");
    out.e2e("job_ms_p50", percentile(&cell_ms, 50.0), "ms");
    out.e2e("job_ms_p95", percentile(&cell_ms, 95.0), "ms");
    out.e2e("jobs_per_s", cell_ms.len() as f64 / wall, "jobs/s");
    out.e2e("peak_rss_mb", crate::sys::peak_rss_mib_self(), "MiB");

    if args.traced {
        // allocations: the first round again, unprofiled, through run_ft.
        // Its VAE cell must match the replica's bits, or the VAE figures
        // above describe a loop run_ft no longer runs.
        let (alloc_steps, allocs, bytes) = alloc::count(|| {
            let mut n = 0;
            for cell in round(0) {
                let spec = work.get(cell.setting);
                let metric = cell.run(spec, FtConfig::default(), &mut Recorder::disabled());
                let m = checks.cell(&cell.key(), metric);
                if cell.setting == "vae-mnist" {
                    let verdict = match replicas.get(&cell.key()) {
                        Some(r) => Ok(m.is_some() && m.map(f64::to_bits) == r.map(f64::to_bits)),
                        None => Err("no replica ran".to_owned()),
                    };
                    checks.op(
                        verdict,
                        &format!("vae replica of {} matches run_ft", cell.key()),
                    );
                }
                n += cell.steps(spec);
            }
            n
        });
        x.allocs = allocs;
        x.alloc_bytes = bytes;
        x.alloc_steps = alloc_steps;
        x.synth_ms = median(&synths);
        x.pool_tasks = (pool.jobs - pool0.jobs) as f64;
        x.pool_queue_wait_ns = (pool.queue_wait_ns - pool0.queue_wait_ns) as f64;
        x.pool_exec_ns = (pool.exec_ns - pool0.exec_ns) as f64;
        x.pool_utilization = x.pool_exec_ns / (wall * 1e9 * rex_pool::num_threads().max(1) as f64);
        x.pool_steps = steps;
        x.gen_late_ms_max = (wall - args.seconds) * 1e3;
        durability(&reference, &args.state_dir, &mut x)?;
        layers::report(&mut out, &spans, &x);
    }
    Ok(out)
}
