//! **Ablations** (reproduction extensions, not paper artifacts):
//!
//! 1. the generalised REX family `p(x) = (1−x)/(β + (1−β)(1−x))` swept over
//!    β — β = ½ is the paper's REX, β = 1 recovers linear; validates that
//!    the paper's fixed β is a reasonable point in the family;
//! 2. polynomial profiles `(1−x)^p` — the natural alternative family
//!    between linear and aggressive decay;
//! 3. delayed variants of the *cosine* schedule — checking the paper's
//!    delayed-decay observation (Figure 3) is not specific to linear.

use rex_bench::{print_budget_table, run_schedule_grid, Args};
use rex_core::ScheduleSpec;
use rex_data::images::synth_cifar10;
use rex_eval::store::write_csv;
use rex_train::tasks::ImageModel;
use rex_train::{Budget, OptimizerKind, TrainConfig};

fn main() {
    let args = Args::parse();
    let (max_epochs, per_class, test_per_class, trials) = args.scale.pick(
        (3usize, 6usize, 3usize, 1usize),
        (24, 40, 15, 1),
        (60, 100, 30, 3),
    );
    let trials = args.trials.unwrap_or(trials);
    let budgets = match args.scale {
        rex_bench::ScaleKind::Smoke => vec![Budget::new(max_epochs, 100)],
        _ => vec![
            Budget::new(max_epochs, 5),
            Budget::new(max_epochs, 25),
            Budget::new(max_epochs, 100),
        ],
    };
    let data = synth_cifar10(per_class, test_per_class, args.seed ^ 0xAB1A);

    let groups: Vec<(&str, Vec<ScheduleSpec>)> = vec![
        (
            "REX beta sweep",
            vec![
                ScheduleSpec::RexBeta(0.1),
                ScheduleSpec::RexBeta(0.3),
                ScheduleSpec::Rex, // beta = 0.5
                ScheduleSpec::RexBeta(0.7),
                ScheduleSpec::RexBeta(0.9),
                ScheduleSpec::RexBeta(1.0), // = linear
            ],
        ),
        (
            "Polynomial profiles",
            vec![
                ScheduleSpec::Polynomial(0.5),
                ScheduleSpec::Linear, // power 1
                ScheduleSpec::Polynomial(2.0),
                ScheduleSpec::Polynomial(4.0),
                ScheduleSpec::Rex,
            ],
        ),
        (
            "Delayed cosine",
            vec![
                ScheduleSpec::Cosine,
                ScheduleSpec::Delayed(Box::new(ScheduleSpec::Cosine), 0.25),
                ScheduleSpec::Delayed(Box::new(ScheduleSpec::Cosine), 0.50),
                ScheduleSpec::Rex,
            ],
        ),
    ];

    let mut all_records = Vec::new();
    for (title, schedules) in groups {
        let records = run_schedule_grid(
            "RN20-CIFAR10-ABLATION",
            OptimizerKind::sgdm(),
            &schedules,
            &budgets,
            trials,
            args.seed,
            true,
            args.trace.as_deref(),
            args.resume.as_deref(),
            |cell, rec| {
                ImageModel::MicroResNet20
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
        );
        print_budget_table(
            &format!("Ablation: {title} (test error %)"),
            &records,
            &budgets,
        );
        all_records.extend(records);
    }

    let path = args.out.join("ablations.csv");
    write_csv(&path, &all_records).expect("write CSV");
    eprintln!("records written to {}", path.display());
}
