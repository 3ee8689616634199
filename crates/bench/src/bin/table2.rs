//! **Table 2 — profiles × sampling rates**: the paper's central framework
//! experiment. Three profiles (the step-approximating exponential, linear,
//! and REX) are each trained under seven sampling rates (50-75, 33-66,
//! 25-50-75, 10-10, 5-25, 1-100, every iteration) at three epoch scales,
//! on the RN20-CIFAR10 and RN38-CIFAR10 analogues with SGDM.
//!
//! The shape to reproduce: no profile wins at every sampling rate — the
//! step-approximation profile is best at coarse rates, linear/REX at fine
//! rates, and REX wins at the per-iteration rate.

use rex_bench::Args;
use rex_core::{SamplingRate, ScheduleSpec, Table2Profile};
use rex_data::images::synth_cifar10;
use rex_eval::store::{write_csv, Record};
use rex_eval::table;
use rex_telemetry::Recorder;
use rex_train::tasks::ImageModel;
use rex_train::OptimizerKind;
use rex_train::TrainConfig;

fn main() {
    let args = Args::parse(&[
        "scale", "out", "trials", "seed", "threads", "backend", "dtype",
    ]);
    let (epoch_scales, per_class, test_per_class, trials): (Vec<usize>, usize, usize, usize) =
        match args.scale {
            rex_bench::ScaleKind::Smoke => (vec![2], 6, 3, 1),
            rex_bench::ScaleKind::Fast => (vec![4, 10, 24], 30, 10, 1),
            rex_bench::ScaleKind::Full => (vec![15, 75, 300], 100, 30, 3),
        };
    let trials = args.trials.unwrap_or(trials);
    let data = synth_cifar10(per_class, test_per_class, args.seed ^ 0x7AB2);
    let models = [
        ("RN20-CIFAR10-SGDM", ImageModel::MicroResNet20),
        ("RN38-CIFAR10-SGDM", ImageModel::MicroResNet38),
    ];
    let rates = SamplingRate::table2_rates();
    let optimizer = OptimizerKind::sgdm();

    let mut records: Vec<Record> = Vec::new();
    for (setting, model) in models {
        for &epochs in &epoch_scales {
            for rate in &rates {
                for profile in Table2Profile::all() {
                    let mut scores = Vec::new();
                    for trial in 0..trials {
                        let seed = args.seed ^ (trial as u64 + 1) << 20 ^ (epochs as u64) << 8;
                        let t0 = std::time::Instant::now();
                        let err = model
                            .train(
                                &data,
                                TrainConfig {
                                    dtype: args.dtype,
                                    ..TrainConfig::new(
                                        epochs,
                                        optimizer,
                                        ScheduleSpec::Sampled(profile, rate.clone()),
                                        seed,
                                    )
                                },
                                &mut Recorder::disabled(),
                            )
                            .expect("training cell failed");
                        eprintln!(
                            "[{setting} {epochs}ep] {} @ {}: {:.2} ({:.1?})",
                            profile.label(),
                            rate.label(),
                            err,
                            t0.elapsed()
                        );
                        scores.push(err);
                        records.push(Record {
                            setting: setting.to_string(),
                            optimizer: "SGDM".into(),
                            schedule: format!("{} @ {}", profile.label(), rate.label()),
                            budget_pct: epochs as u32, // column key: epoch scale
                            trial: trial as u32,
                            score: err,
                            lower_is_better: true,
                        });
                    }
                }
            }
        }
    }

    // print one block per model: rows = sampling rates, columns = epoch
    // scales x 3 profiles (matching the paper's layout)
    for (setting, _) in models {
        println!("\n## Table 2: {setting} (test error %)\n");
        let mut headers = vec!["Sampling Rate".to_string()];
        for &epochs in &epoch_scales {
            for profile in Table2Profile::all() {
                headers.push(format!("{}ep {}", epochs, profile.label()));
            }
        }
        let mut rows = Vec::new();
        for rate in &rates {
            let mut row = vec![rate.label()];
            for &epochs in &epoch_scales {
                for profile in Table2Profile::all() {
                    let scores: Vec<f64> = records
                        .iter()
                        .filter(|r| {
                            r.setting == setting
                                && r.budget_pct == epochs as u32
                                && r.schedule == format!("{} @ {}", profile.label(), rate.label())
                        })
                        .map(|r| r.score)
                        .collect();
                    row.push(format!("{:.2}", rex_eval::stats::mean(&scores)));
                }
            }
            rows.push(row);
        }
        println!("{}", table::markdown(&headers, &rows));
    }

    let path = args.out.join("table2_profiles_sampling.csv");
    write_csv(&path, &records).expect("write CSV");
    eprintln!("records written to {}", path.display());
}
