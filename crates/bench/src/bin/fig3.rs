//! **Figure 3 — REX vs linear vs delayed linear**: error against budget
//! for REX, the linear schedule, and delayed-linear variants (25/50/75 %)
//! on the VGG16-CIFAR100 and RN38-CIFAR100 analogues, under SGDM and Adam.
//!
//! The shape to reproduce: delaying the linear decay helps at large
//! budgets but not small ones, and REX tracks the best of both — the
//! observation motivating REX as a no-hyperparameter interpolation.

use rex_bench::{print_budget_table, run_schedule_grid, Args};
use rex_core::ScheduleSpec;
use rex_data::images::synth_cifar100;
use rex_eval::store::write_csv;
use rex_train::tasks::ImageModel;
use rex_train::{Budget, OptimizerKind, TrainConfig};

fn main() {
    let args = Args::parse();
    let (max_epochs, classes, per_class, test_per_class, trials) = args.scale.pick(
        (3usize, 5usize, 8usize, 4usize, 1usize),
        (40, 20, 30, 10, 1),
        (48, 100, 50, 10, 3),
    );
    let trials = args.trials.unwrap_or(trials);
    let budgets = match args.scale {
        rex_bench::ScaleKind::Smoke => vec![Budget::new(max_epochs, 100)],
        _ => Budget::paper_levels(max_epochs),
    };
    let data = synth_cifar100(classes, per_class, test_per_class, args.seed ^ 0xF163);
    let schedules = vec![
        ScheduleSpec::Rex,
        ScheduleSpec::Linear,
        ScheduleSpec::Delayed(Box::new(ScheduleSpec::Linear), 0.25),
        ScheduleSpec::Delayed(Box::new(ScheduleSpec::Linear), 0.50),
        ScheduleSpec::Delayed(Box::new(ScheduleSpec::Linear), 0.75),
        // reference line: the step schedule at full budget (the red dashed
        // line in the paper's plots) comes from the table6 run
        ScheduleSpec::Step,
    ];

    let mut records = Vec::new();
    for (setting, model, lr_scale) in [
        ("VGG16-CIFAR100", ImageModel::MicroVgg(12), 0.1f32),
        ("RN38-CIFAR100", ImageModel::MicroResNet38, 1.0),
    ] {
        for optimizer in [OptimizerKind::sgdm(), OptimizerKind::adam()] {
            records.extend(run_schedule_grid(
                setting,
                optimizer,
                &schedules,
                &budgets,
                trials,
                args.seed,
                true,
                args.trace.as_deref(),
                args.resume.as_deref(),
                |cell, rec| {
                    model
                        .train(
                            &data,
                            TrainConfig {
                                lr: cell.optimizer.default_lr() * lr_scale,
                                dtype: args.dtype,
                                ..TrainConfig::new(
                                    cell.budget.epochs(),
                                    cell.optimizer,
                                    cell.schedule.clone(),
                                    cell.seed,
                                )
                            },
                            rec,
                        )
                        .expect("training cell failed")
                },
            ));
        }
    }

    for setting in ["VGG16-CIFAR100", "RN38-CIFAR100"] {
        let subset: Vec<_> = records
            .iter()
            .filter(|r| r.setting == setting)
            .cloned()
            .collect();
        print_budget_table(
            &format!("Figure 3: {setting} — REX vs linear vs delayed linear (error %)"),
            &subset,
            &budgets,
        );
    }

    let path = args.out.join("fig3_delayed_linear.csv");
    write_csv(&path, &records).expect("write CSV");
    eprintln!("records written to {}", path.display());
}
