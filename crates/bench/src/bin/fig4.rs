//! **Figure 4 — sensitivity to the initial learning rate**: error vs
//! initial LR (multiples of 3 around the default) for every schedule, on
//! RN20-CIFAR10-SGDM and RN38-CIFAR100-SGDM at 5 % and 25 % budgets.
//!
//! The shape to reproduce: no schedule recovers from a bad LR, but the
//! schedules keep their relative ordering across LRs, with REX at or below
//! the other curves for most of the range.

use rex_bench::{table_schedules, Args};
use rex_data::images::{synth_cifar10, synth_cifar100};
use rex_eval::store::{write_csv, Record};
use rex_eval::table;
use rex_telemetry::Recorder;
use rex_train::tasks::ImageModel;
use rex_train::trial::lr_grid;
use rex_train::{Budget, OptimizerKind, TrainConfig};

fn main() {
    let args = Args::parse(&["scale", "out", "seed", "threads", "backend", "dtype"]);
    let (max_epochs, per_class, test_per_class) =
        args.scale
            .pick((4usize, 8usize, 4usize), (24, 30, 10), (60, 100, 30));
    let budget_pcts: Vec<u32> = match args.scale {
        rex_bench::ScaleKind::Smoke => vec![25],
        _ => vec![5, 25],
    };
    let optimizer = OptimizerKind::sgdm();
    let grid = lr_grid(optimizer.default_lr());
    let schedules = table_schedules(2);

    let cifar10 = synth_cifar10(per_class, test_per_class, args.seed ^ 0xF400);
    let cifar100 = synth_cifar100(10, per_class, test_per_class, args.seed ^ 0xF401);

    let mut records: Vec<Record> = Vec::new();
    for (setting, model, data) in [
        ("RN20-CIFAR10-SGD", ImageModel::MicroResNet20, &cifar10),
        ("RN38-CIFAR100-SGD", ImageModel::MicroResNet38, &cifar100),
    ] {
        for &pct in &budget_pcts {
            let budget = Budget::new(max_epochs, pct);
            for sched in &schedules {
                for (li, &lr) in grid.iter().enumerate() {
                    let t0 = std::time::Instant::now();
                    let err = model
                        .train(
                            data,
                            TrainConfig {
                                lr,
                                dtype: args.dtype,
                                ..TrainConfig::new(
                                    budget.epochs(),
                                    optimizer,
                                    sched.clone(),
                                    args.seed ^ (li as u64) << 16 ^ (pct as u64) << 24,
                                )
                            },
                            &mut Recorder::disabled(),
                        )
                        .expect("training cell failed");
                    eprintln!(
                        "[{setting} {pct}%] {} lr={lr:.4}: {err:.2} ({:.1?})",
                        sched.name(),
                        t0.elapsed()
                    );
                    records.push(Record {
                        setting: format!("{setting}-{pct}%"),
                        optimizer: "SGDM".into(),
                        schedule: sched.name(),
                        budget_pct: pct,
                        trial: li as u32, // trial column reused as LR index
                        score: err,
                        lower_is_better: true,
                    });
                }
            }
        }
    }

    // one table per (setting, budget): rows = schedules, cols = LRs
    for (setting, _, _) in [
        ("RN20-CIFAR10-SGD", ImageModel::MicroResNet20, &cifar10),
        ("RN38-CIFAR100-SGD", ImageModel::MicroResNet38, &cifar100),
    ] {
        for &pct in &budget_pcts {
            let key = format!("{setting}-{pct}%");
            println!("\n## Figure 4: {setting} at {pct}% budget (error % vs initial LR)\n");
            let mut headers = vec!["Method".to_string()];
            headers.extend(grid.iter().map(|lr| format!("lr={lr:.4}")));
            let mut rows = Vec::new();
            for sched in &schedules {
                let mut row = vec![sched.name()];
                for li in 0..grid.len() {
                    let v = records
                        .iter()
                        .find(|r| {
                            r.setting == key && r.schedule == sched.name() && r.trial == li as u32
                        })
                        .map(|r| format!("{:.2}", r.score))
                        .unwrap_or_default();
                    row.push(v);
                }
                rows.push(row);
            }
            println!("{}", table::markdown(&headers, &rows));
        }
    }

    let path = args.out.join("fig4_lr_sensitivity.csv");
    write_csv(&path, &records).expect("write CSV");
    eprintln!("records written to {}", path.display());
}
