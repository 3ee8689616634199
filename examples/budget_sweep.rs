//! Budget sweep: the paper's core experiment in miniature — every schedule
//! at every budget on one setting, printed as a paper-style table.
//!
//! ```sh
//! cargo run --release --example budget_sweep
//! ```

use rex::data::images::synth_cifar10;
use rex::eval::table;
use rex::schedules::{all_paper_schedules, ScheduleSpec};
use rex::telemetry::Recorder;
use rex::train::tasks::ImageModel;
use rex::train::{Budget, OptimizerKind, TrainConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let data = synth_cifar10(30, 10, 3);
    let max_epochs = 12;
    let budgets: Vec<Budget> = [5u32, 25, 100]
        .into_iter()
        .map(|pct| Budget::new(max_epochs, pct))
        .collect();
    let mut schedules = vec![ScheduleSpec::None];
    schedules.extend(all_paper_schedules(2));

    println!("RN20-CIFAR10 analogue, SGDM, max {max_epochs} epochs\n");
    let mut headers = vec!["Method".to_string()];
    headers.extend(budgets.iter().map(|b| format!("{b}")));
    let mut rows = Vec::new();
    let mut col_values: Vec<Vec<f64>> = vec![Vec::new(); budgets.len()];
    for schedule in &schedules {
        let mut row = vec![schedule.name()];
        for (ci, budget) in budgets.iter().enumerate() {
            let err = ImageModel::MicroResNet20.train(
                &data,
                TrainConfig::new(budget.epochs(), OptimizerKind::sgdm(), schedule.clone(), 11),
                &mut Recorder::disabled(),
            )?;
            eprintln!("{} @ {budget}: {err:.2}", schedule.name());
            col_values[ci].push(err);
            row.push(format!("{err:.2}"));
        }
        rows.push(row);
    }
    for (ci, values) in col_values.iter().enumerate() {
        table::mark_best_per_column(&mut rows, ci + 1, values, true);
    }
    println!("{}", table::markdown(&headers, &rows));
    println!("(bold = best per budget, italics = top-3)");
    Ok(())
}
