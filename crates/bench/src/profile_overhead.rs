//! The workload of `BENCH_profile.json`: what the hierarchical span
//! profiler costs on a real training cell.
//!
//! The cell is digits-mlp at 100 % budget (what `rexctl train --setting
//! digits-mlp` runs). It is timed in three arms, interleaved in every
//! rep: the thread-local profiler off, at `Detail::Phase` (the
//! `--profile` default: job/epoch/step/phase spans), and at
//! `Detail::Kernel` (per-op compute spans added). Overheads are ratios of
//! the arms' minimum timings.

use rex_core::ScheduleSpec;
use rex_telemetry::span::{self, Detail};
use rex_telemetry::{Profile, Recorder};
use rex_train::settings::load_setting;
use rex_train::{FtConfig, OptimizerKind};

use crate::floors::Kind;
use crate::measure::{time_arms, Artifact, Sampling};

const SETTING: &str = "digits-mlp";
const BUDGET_PCT: u32 = 100;
const SEED: u64 = 7;

/// Trains the workload cell once.
fn run_cell() {
    let setting = load_setting(SETTING, SEED).expect("load digits-mlp");
    let optimizer = OptimizerKind::sgdm();
    let lr = setting.default_lr(&optimizer);
    setting
        .run_ft(
            BUDGET_PCT,
            optimizer,
            ScheduleSpec::Rex,
            lr,
            SEED,
            rex_tensor::DType::F32,
            FtConfig::default(),
            &mut Recorder::disabled(),
        )
        .expect("train digits-mlp");
}

/// Times the cell with the profiler off, at phase detail and at kernel
/// detail, then profiles one more run at phase detail. Returns the
/// `BENCH_profile.json` artifact and that run's profile.
pub fn measure(s: &Sampling) -> (Artifact, Profile) {
    // each arm discards its spans before the next arm starts: dropping a
    // collector costs a free, building a profile would cost an allocation
    // per span
    let arm = |detail| {
        move || {
            span::enable(detail);
            run_cell();
            span::enable(Detail::Off);
        }
    };
    let (mut off, mut phase, mut kernel) =
        (arm(Detail::Off), arm(Detail::Phase), arm(Detail::Kernel));
    let t = time_arms(s, &mut [&mut off, &mut phase, &mut kernel]);
    let (off, phase, kernel) = (t[0], t[1], t[2]);

    span::enable(Detail::Phase);
    run_cell();
    let profile = span::take();
    let rows = profile.phase_table();
    let steps = rows
        .iter()
        .find(|r| r.name == "step")
        .map_or(0, |r| r.calls);

    let mut art = Artifact::new(Kind::Profile, s);
    art.text("workload.setting", SETTING);
    art.count("workload.budget_pct", BUDGET_PCT as usize);
    art.count("workload.seed", SEED as usize);
    art.count("workload.steps", steps as usize);
    for (name, t) in [("off", off), ("phase", phase), ("kernel", kernel)] {
        art.num(format!("{name}_ms"), t.median_ms);
        art.num(format!("{name}_ms_min"), t.min_ms);
    }
    for (name, on) in [("phase", phase), ("kernel", kernel)] {
        let extra_ms = on.min_ms - off.min_ms;
        art.num(
            format!("overhead_{name}_pct"),
            extra_ms * 100.0 / off.min_ms,
        );
        art.num(
            format!("per_step_overhead_{name}_us"),
            extra_ms * 1e3 / steps.max(1) as f64,
        );
    }
    for r in &rows {
        let key = format!("phase.{}", r.path);
        art.count(format!("{key}.calls"), r.calls as usize);
        art.num(format!("{key}.inclusive_ms"), r.inclusive_ns as f64 * 1e-6);
        art.num(format!("{key}.exclusive_ms"), r.exclusive_ns as f64 * 1e-6);
        art.num(format!("{key}.pct_of_root"), r.pct_of_root);
    }
    (art, profile)
}
