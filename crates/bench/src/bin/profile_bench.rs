//! `profile-bench` — measures what the hierarchical span profiler costs
//! on a real training cell and writes `BENCH_profile.json` at the
//! repository root (schema `rex-profile-bench/v1`).
//!
//! The workload is the digits-mlp classifier cell at 100% budget (the
//! same cell `rexctl train --setting digits-mlp` runs), repeated with
//! the thread-local profiler off, at `Detail::Phase` (the `--profile`
//! default: job/epoch/step/phase spans), and at `Detail::Kernel`
//! (per-op compute spans added). The three arms are interleaved within
//! every rep, and overheads are ratios of *minimum* timings — external
//! interference can only inflate a sample, so min-of-reps tracks the
//! instrumentation cost rather than host weather.
//!
//! `scripts/bench_guard.sh --profile-only` enforces the acceptance
//! floor: phase-detail overhead must stay at or below 3% of step time,
//! in both the committed artifact and a fresh run.
//!
//! ```text
//! cargo run --release -p rex-bench --bin profile-bench [-- --smoke]
//!     [--reps N] [--out PATH]
//! ```

use std::time::Instant;

use rex_bench::json_escape;
use rex_core::ScheduleSpec;
use rex_telemetry::span::{self, Detail};
use rex_telemetry::Recorder;
use rex_train::settings::load_setting;
use rex_train::{FtConfig, GuardPolicy, OptimizerKind};

const SETTING: &str = "digits-mlp";
const BUDGET_PCT: u32 = 100;
const SEED: u64 = 7;

struct Config {
    reps: usize,
    warmup: usize,
    smoke: bool,
    out: String,
}

fn die(msg: &str) -> ! {
    eprintln!("profile-bench: {msg}");
    eprintln!("usage: profile-bench [--smoke] [--reps N] [--out PATH]");
    std::process::exit(2);
}

fn parse_args() -> Config {
    let mut cfg = Config {
        reps: 30,
        warmup: 3,
        smoke: false,
        out: "BENCH_profile.json".to_owned(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => {
                cfg.smoke = true;
                cfg.reps = 3;
                cfg.warmup = 1;
            }
            "--reps" => {
                cfg.reps = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--reps needs an integer"));
            }
            "--out" => {
                cfg.out = args.next().unwrap_or_else(|| die("--out needs a path"));
            }
            other => die(&format!("unknown flag {other:?}")),
        }
    }
    cfg
}

/// Runs the workload cell once and returns its wall time in nanoseconds.
fn run_cell() -> u64 {
    let setting = load_setting(SETTING, SEED).expect("load digits-mlp");
    let optimizer = OptimizerKind::sgdm();
    let lr = setting.default_lr(&optimizer);
    let ft = FtConfig {
        checkpoint_every: None,
        checkpoint_path: None,
        resume_from: None,
        guard: GuardPolicy::Off,
        halt_after_step: None,
        stop_flag: None,
        keep_checkpoints: None,
        checkpoint_on_halt: false,
        heartbeat: None,
    };
    let t0 = Instant::now();
    setting
        .run_ft(
            BUDGET_PCT,
            optimizer,
            ScheduleSpec::Rex,
            lr,
            SEED,
            rex_tensor::DType::F32,
            ft,
            &mut Recorder::disabled(),
        )
        .expect("train digits-mlp");
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn fmt_ms(ns: u64) -> String {
    format!("{:.4}", ns as f64 * 1e-6)
}

fn main() {
    let cfg = parse_args();
    let threads = rex_pool::num_threads();
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let be = rex_tensor::backend::active();
    println!(
        "profile-bench: reps={} warmup={} threads={} host_cores={} backend={} ({}){}",
        cfg.reps,
        cfg.warmup,
        threads,
        host_cores,
        be.name(),
        be.simd_level(),
        if cfg.smoke { " (smoke)" } else { "" }
    );

    for _ in 0..cfg.warmup {
        run_cell();
    }

    // Interleave the three arms inside each rep so host-speed drift over
    // the run cancels out of the min-of-reps ratios.
    let (mut off_ns, mut phase_ns, mut kernel_ns) = (u64::MAX, u64::MAX, u64::MAX);
    for _ in 0..cfg.reps.max(1) {
        span::enable(Detail::Off);
        off_ns = off_ns.min(run_cell());
        span::enable(Detail::Phase);
        phase_ns = phase_ns.min(run_cell());
        let _ = span::take();
        span::enable(Detail::Kernel);
        kernel_ns = kernel_ns.min(run_cell());
        let _ = span::take();
    }

    // One more phase-detail run to publish the self-profile itself.
    span::enable(Detail::Phase);
    run_cell();
    let profile = span::take();
    let rows = profile.phase_table();
    let steps = rows
        .iter()
        .find(|r| r.name == "step")
        .map_or(0, |r| r.calls);

    let overhead_pct = |on: u64, off: u64| (on as f64 - off as f64) * 100.0 / (off.max(1) as f64);
    let phase_pct = overhead_pct(phase_ns, off_ns);
    let kernel_pct = overhead_pct(kernel_ns, off_ns);
    let per_step_us = |on: u64, off: u64| (on as f64 - off as f64) * 1e-3 / (steps.max(1) as f64);

    println!("{:<14} {:>12} {:>10}", "profiler", "cell ms", "overhead");
    println!("{:<14} {:>12} {:>9}%", "off", fmt_ms(off_ns), "-");
    println!(
        "{:<14} {:>12} {:>9.2}%",
        "phase",
        fmt_ms(phase_ns),
        phase_pct
    );
    println!(
        "{:<14} {:>12} {:>9.2}%",
        "kernel",
        fmt_ms(kernel_ns),
        kernel_pct
    );
    print!("{}", profile.render_phase_table());

    let mut body = String::new();
    body.push_str("{\n");
    body.push_str("  \"schema\": \"rex-profile-bench/v1\",\n");
    body.push_str(&format!("  \"backend\": \"{}\",\n", be.name()));
    body.push_str(&format!("  \"simd_level\": \"{}\",\n", be.simd_level()));
    body.push_str(&format!("  \"threads\": {threads},\n"));
    body.push_str(&format!("  \"host_cores\": {host_cores},\n"));
    body.push_str(&format!("  \"reps\": {},\n", cfg.reps));
    body.push_str(&format!("  \"warmup\": {},\n", cfg.warmup));
    body.push_str(&format!("  \"smoke\": {},\n", cfg.smoke));
    body.push_str("  \"workload\": {\n");
    body.push_str(&format!("    \"setting\": \"{}\",\n", json_escape(SETTING)));
    body.push_str(&format!("    \"budget_pct\": {BUDGET_PCT},\n"));
    body.push_str(&format!("    \"seed\": {SEED},\n"));
    body.push_str(&format!("    \"steps\": {steps}\n"));
    body.push_str("  },\n");
    body.push_str(&format!("  \"off_ms_min\": {},\n", fmt_ms(off_ns)));
    body.push_str(&format!("  \"phase_ms_min\": {},\n", fmt_ms(phase_ns)));
    body.push_str(&format!("  \"kernel_ms_min\": {},\n", fmt_ms(kernel_ns)));
    body.push_str(&format!("  \"overhead_phase_pct\": {phase_pct:.3},\n"));
    body.push_str(&format!("  \"overhead_kernel_pct\": {kernel_pct:.3},\n"));
    body.push_str(&format!(
        "  \"per_step_overhead_phase_us\": {:.3},\n",
        per_step_us(phase_ns, off_ns)
    ));
    body.push_str(&format!(
        "  \"per_step_overhead_kernel_us\": {:.3},\n",
        per_step_us(kernel_ns, off_ns)
    ));
    body.push_str("  \"phases\": [\n");
    for (i, r) in rows.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"path\": \"{}\", \"calls\": {}, \"inclusive_ms\": {}, \
             \"exclusive_ms\": {}, \"pct_of_root\": {:.2}}}{}\n",
            json_escape(&r.path),
            r.calls,
            fmt_ms(r.inclusive_ns),
            fmt_ms(r.exclusive_ns),
            r.pct_of_root,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    body.push_str("  ]\n");
    body.push_str("}\n");
    std::fs::write(&cfg.out, body).unwrap_or_else(|e| {
        eprintln!("profile-bench: cannot write {}: {e}", cfg.out);
        std::process::exit(1);
    });
    println!("wrote {}", cfg.out);
}
