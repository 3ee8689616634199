//! **Table 4 — RN20-CIFAR10**: schedule × budget grid for the ResNet-20 /
//! CIFAR-10 analogue, under SGDM and Adam.
//!
//! Reproduces the shape of the paper's Table 4: every schedule trained at
//! 1/5/10/25/50/100 % of the maximum epochs, metric = test error (%),
//! averaged over trials.

use rex_bench::{print_budget_table, run_schedule_grid, table_schedules, Args};
use rex_data::images::synth_cifar10;
use rex_eval::store::write_csv;
use rex_train::tasks::ImageModel;
use rex_train::{Budget, OptimizerKind, TrainConfig};

fn main() {
    let args = Args::parse();
    let (max_epochs, per_class, test_per_class, trials) = args.scale.pick(
        (4usize, 8usize, 4usize, 1usize),
        (24, 40, 15, 2),
        (60, 100, 30, 3),
    );
    let trials = args.trials.unwrap_or(trials);
    let budgets = match args.scale {
        rex_bench::ScaleKind::Smoke => {
            vec![Budget::new(max_epochs, 25), Budget::new(max_epochs, 100)]
        }
        _ => Budget::paper_levels(max_epochs),
    };
    let data = synth_cifar10(per_class, test_per_class, args.seed ^ 0x7AB4);
    // plateau patience scaled to the budget's epoch scale (paper tunes in
    // multiples of 5 on hundreds of epochs; 2 suits tens of epochs)
    let schedules = table_schedules(2);

    let mut records = Vec::new();
    for optimizer in [OptimizerKind::sgdm(), OptimizerKind::adam()] {
        records.extend(run_schedule_grid(
            "RN20-CIFAR10",
            optimizer,
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
        ));
    }

    print_budget_table("Table 4: RN20-CIFAR10 (test error %)", &records, &budgets);
    let path = args.out.join("table4_rn20_cifar10.csv");
    write_csv(&path, &records).expect("write CSV");
    eprintln!("records written to {}", path.display());
}
