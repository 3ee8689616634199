//! `perfbench` — one run of one benchmark workload in a fresh process.
//!
//! ```text
//! perfbench --workload small-cells|rexd-open --seed N --seconds S
//!           --mode plain|traced --state-dir DIR --rexd PATH --reference FILE
//!           [--git-rev REV] [--src-digest HEX]
//! ```
//!
//! `plain` measures the end-to-end metrics with tracing off; `traced`
//! repeats the same workload and seed with the kernel-detail span
//! profiler and the counting allocator on, and reports the per-layer
//! metrics. `perfbench/run.py` builds this binary and `rexd`, runs one
//! or both modes and prints the result line; see `perfbench/NOTES.md`.
//! The last line of standard output is the run's JSON result.

mod alloc;
mod cells;
mod checks;
mod layers;
mod rexd;
mod sys;

use std::path::PathBuf;
use std::time::Instant;

use rex_telemetry::json::{escape, fmt_f64};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// The seed of the reference cells that every run checks against
/// `reference.json`, whatever its workload seed.
pub const REFERENCE_SEED: u64 = 20_220_401;

/// How many times a run sets up; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub state_dir: PathBuf,
    pub rexd: PathBuf,
    pub reference: PathBuf,
    pub git_rev: String,
    pub src_digest: String,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload small-cells|rexd-open --seed N --seconds S \
         --mode plain|traced --state-dir DIR --rexd PATH --reference FILE \
         [--git-rev REV] [--src-digest HEX]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        traced: false,
        state_dir: PathBuf::new(),
        rexd: PathBuf::new(),
        reference: PathBuf::new(),
        git_rev: "unknown".to_owned(),
        src_digest: "unknown".to_owned(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("missing value for {flag}")));
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => {
                args.seed = value
                    .parse()
                    .unwrap_or_else(|_| usage("--seed must be a non-negative integer"))
            }
            "--seconds" => {
                args.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
                    .unwrap_or_else(|| usage("--seconds must be a positive number"))
            }
            "--mode" => {
                args.traced = match value.as_str() {
                    "plain" => false,
                    "traced" => true,
                    _ => usage("--mode must be plain or traced"),
                }
            }
            "--state-dir" => args.state_dir = PathBuf::from(value),
            "--rexd" => args.rexd = PathBuf::from(value),
            "--reference" => args.reference = PathBuf::from(value),
            "--git-rev" => args.git_rev = value,
            "--src-digest" => args.src_digest = value,
            other => usage(&format!("unknown flag {other}")),
        }
    }
    if args.state_dir.as_os_str().is_empty() || args.reference.as_os_str().is_empty() {
        usage("--state-dir and --reference are required");
    }
    args
}

/// One named measurement.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run hands back: metrics for both modes (only one set
/// is measured per process) and the figure `trace.overhead_pct` compares.
#[derive(Default)]
pub struct Outcome {
    pub end_to_end: Vec<Metric>,
    pub layers: Vec<Metric>,
    /// `steps_per_s` (cell workloads) or `job_ms_p50` (rexd-open).
    pub overhead_basis: f64,
    /// Extra facts printed with the result (sample counts, rates).
    pub info: Vec<(String, String)>,
}

impl Outcome {
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.end_to_end.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layers.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.info.push((key.to_owned(), value.to_string()));
    }
}

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

/// Linearly interpolated percentile of `v` (0 when empty).
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = p / 100.0 * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// SplitMix64: derives independent sub-seeds from the workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                escape(&m.name),
                fmt_f64(if m.value.is_finite() { m.value } else { 0.0 }),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() {
    let started = Instant::now();
    let args = parse_args();
    if let Err(e) = std::fs::create_dir_all(&args.state_dir) {
        usage(&format!("cannot create {}: {e}", args.state_dir.display()));
    }
    let mut checks = checks::Checks::load(&args.reference);

    let outcome = match args.workload.as_str() {
        "small-cells" => cells::run(&args, started, &mut checks),
        "rexd-open" => rexd::run(&args, started, &mut checks),
        other => usage(&format!("unknown workload {other:?}")),
    };
    let mut outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    outcome.layer("train.bitexact_cells", checks.bitexact as f64, "count");

    let backend = rex_tensor::backend::active();
    let provenance = format!(
        "{{\"git_rev\": \"{}\", \"src_digest\": \"{}\", \"nproc\": {}, \"backend\": \"{}\", \
         \"simd_level\": \"{}\", \"pool_threads\": {}, \"workload\": \"{}\", \"seed\": {}, \
         \"mode\": \"{}\", \"state_fs\": \"{}\"}}",
        escape(&args.git_rev),
        escape(&args.src_digest),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        backend.name(),
        backend.simd_level(),
        rex_pool::num_threads(),
        escape(&args.workload),
        args.seed,
        if args.traced { "traced" } else { "plain" },
        sys::fs_type(&args.state_dir),
    );
    println!("provenance {provenance}");
    for (k, v) in &outcome.info {
        println!("info {k} = {v}");
    }
    for note in &checks.notes {
        println!("check {note}");
    }
    println!(
        "checks attempted={} failed={} failed_ratio={} share bitexact_cells={}/{}",
        checks.attempted,
        checks.failed,
        checks.failed as f64 / checks.attempted.max(1) as f64,
        checks.bitexact,
        checks.reference_checked
    );
    let shown = if args.traced {
        &outcome.layers
    } else {
        &outcome.end_to_end
    };
    for m in shown {
        println!("metric {:<36} {:>16} {}", m.name, fmt_f64(m.value), m.unit);
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}, \
         \"overhead_basis\": {}}}",
        checks.failed == 0,
        checks.attempted.max(1),
        checks.failed,
        metrics_json(shown),
        fmt_f64(outcome.overhead_basis),
    );
}
