//! **Figure 2 — schedule shapes**: emits the learning-rate curves of the
//! paper's Figure 2 as CSV series (progress vs LR multiplier): the step,
//! linear, and REX profiles under each sampling rate, plus every schedule
//! at its usual sampling rate. Pure schedule evaluation — no training.

use std::fs;

use rex_bench::Args;
use rex_core::{SamplingRate, ScheduleSpec, Table2Profile};

const POINTS: u64 = 200;

fn curve(spec: &ScheduleSpec) -> Vec<f64> {
    let mut sched = spec.build();
    (0..=POINTS).map(|t| sched.factor(t, POINTS)).collect()
}

fn main() {
    let args = Args::parse(&["out"]);
    fs::create_dir_all(&args.out).expect("create out dir");

    let mut csv = String::from("series,progress,factor\n");
    // Panels 1-3: the three profiles under each sampling rate.
    for profile in Table2Profile::all() {
        for rate in SamplingRate::table2_rates() {
            let spec = ScheduleSpec::Sampled(profile, rate.clone());
            for (i, f) in curve(&spec).iter().enumerate() {
                csv.push_str(&format!(
                    "{} @ {},{:.4},{:.6}\n",
                    profile.label(),
                    rate.label(),
                    i as f64 / POINTS as f64,
                    f
                ));
            }
        }
    }
    // Panel 4: each schedule at its usual sampling rate.
    for spec in [
        ScheduleSpec::Step,
        ScheduleSpec::Linear,
        ScheduleSpec::Cosine,
        ScheduleSpec::ExpDecay,
        ScheduleSpec::OneCycle,
        ScheduleSpec::Rex,
    ] {
        for (i, f) in curve(&spec).iter().enumerate() {
            csv.push_str(&format!(
                "{},{:.4},{:.6}\n",
                spec.name(),
                i as f64 / POINTS as f64,
                f
            ));
        }
    }
    let path = args.out.join("fig2_schedule_shapes.csv");
    fs::write(&path, csv).expect("write CSV");

    // A small ASCII rendering of the usual-rate panel for the terminal.
    println!("## Figure 2 (right panel): schedules at their usual sampling rate\n");
    let specs = [
        ScheduleSpec::Step,
        ScheduleSpec::Linear,
        ScheduleSpec::Cosine,
        ScheduleSpec::Rex,
    ];
    for spec in &specs {
        let c = curve(spec);
        let bars: String = (0..50)
            .map(|col| {
                let f = c[(col * POINTS as usize / 50).min(c.len() - 1)];
                match (f * 4.0).round() as i32 {
                    4 => '█',
                    3 => '▓',
                    2 => '▒',
                    1 => '░',
                    _ => ' ',
                }
            })
            .collect();
        println!("{:>16} |{bars}|", spec.name());
    }
    println!("\ncurves written to {}", path.display());
}
