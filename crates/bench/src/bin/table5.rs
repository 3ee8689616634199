//! **Table 5 — WRN-STL10**: schedule × budget grid for the Wide-ResNet /
//! STL-10 analogue (few samples, higher resolution), under SGDM and Adam.

use rex_bench::{print_budget_table, run_schedule_grid, table_schedules, Args};
use rex_data::images::synth_stl10;
use rex_eval::store::write_csv;
use rex_train::tasks::ImageModel;
use rex_train::{Budget, OptimizerKind, TrainConfig};

fn main() {
    let args = Args::parse();
    let (max_epochs, per_class, test_per_class, trials, widen) = args.scale.pick(
        (3usize, 6usize, 3usize, 1usize, 2usize),
        (20, 25, 10, 2, 2),
        (40, 50, 20, 3, 4),
    );
    let trials = args.trials.unwrap_or(trials);
    let budgets = match args.scale {
        rex_bench::ScaleKind::Smoke => vec![Budget::new(max_epochs, 100)],
        _ => Budget::paper_levels(max_epochs),
    };
    let data = synth_stl10(per_class, test_per_class, args.seed ^ 0x57110);
    let schedules = table_schedules(2);

    let mut records = Vec::new();
    for optimizer in [OptimizerKind::sgdm(), OptimizerKind::adam()] {
        records.extend(run_schedule_grid(
            "WRN-STL10",
            optimizer,
            &schedules,
            &budgets,
            trials,
            args.seed,
            true,
            args.trace.as_deref(),
            args.resume.as_deref(),
            |cell, rec| {
                ImageModel::MicroWide(widen)
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

    print_budget_table("Table 5: WRN-STL10 (test error %)", &records, &budgets);
    let path = args.out.join("table5_wrn_stl10.csv");
    write_csv(&path, &records).expect("write CSV");
    eprintln!("records written to {}", path.display());
}
