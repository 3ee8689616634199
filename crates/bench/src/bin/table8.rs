//! **Table 8 — RN50-ImageNet**: the low-budget-only grid (1 % and 5 %, as
//! in the paper, which limited this setting for computational reasons);
//! single run per cell (the paper reports single values here too).

use rex_bench::{print_budget_table, run_schedule_grid, Args};
use rex_core::ScheduleSpec;
use rex_data::images::synth_imagenet;
use rex_eval::store::write_csv;
use rex_train::tasks::ImageModel;
use rex_train::{Budget, OptimizerKind, TrainConfig};

fn main() {
    let args = Args::parse();
    let (max_epochs, classes, per_class, test_per_class) = args.scale.pick(
        (10usize, 4usize, 8usize, 4usize),
        (60, 20, 40, 10),
        (90, 50, 100, 20),
    );
    let trials = args.trials.unwrap_or(1);
    let budgets = vec![Budget::new(max_epochs, 1), Budget::new(max_epochs, 5)];
    let data = synth_imagenet(classes, per_class, test_per_class, args.seed ^ 0x13A6E);
    // Table 8 has no Decay-on-Plateau row (too few epochs to tune patience).
    let schedules = vec![
        ScheduleSpec::None,
        ScheduleSpec::Step,
        ScheduleSpec::Cosine,
        ScheduleSpec::OneCycle,
        ScheduleSpec::Linear,
        ScheduleSpec::ExpDecay,
        ScheduleSpec::Rex,
    ];

    let mut records = Vec::new();
    for optimizer in [OptimizerKind::sgdm(), OptimizerKind::adam()] {
        records.extend(run_schedule_grid(
            "RN50-IMAGENET",
            optimizer,
            &schedules,
            &budgets,
            trials,
            args.seed,
            true,
            args.trace.as_deref(),
            args.resume.as_deref(),
            |cell, rec| {
                ImageModel::MicroResNet50
                    .train(
                        &data,
                        TrainConfig {
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

    print_budget_table("Table 8: RN50-ImageNet (test error %)", &records, &budgets);
    let path = args.out.join("table8_rn50_imagenet.csv");
    write_csv(&path, &records).expect("write CSV");
    eprintln!("records written to {}", path.display());
}
