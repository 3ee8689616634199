//! **Table 1 — Top-1/Top-3 summary**: aggregates every per-setting CSV in
//! the results directory into the paper's headline table — the percentage
//! of experiments where each schedule finished first (Top-1) or in the top
//! three (Top-3), split into low (< 25 %) and high (≥ 25 %) budgets.
//!
//! Run the grids (`grid table4` … `grid table9`) and `table10_11` first;
//! this binary only reads their CSVs. As in the paper, Decay-on-Plateau results
//! are folded into the Step Schedule row (best of the two per cell).

use rex_bench::{read_results, Args};
use rex_eval::ranking::{is_low_budget, top_shares, SettingResult};
use rex_eval::store::to_setting_results;
use rex_eval::table;

/// CSV files consumed, when present.
const INPUTS: &[&str] = &[
    "table4_rn20_cifar10.csv",
    "table5_wrn_stl10.csv",
    "table6_vgg16_cifar100.csv",
    "table7_vae_mnist.csv",
    "table8_rn50_imagenet.csv",
    "table9_yolo_voc.csv",
    "table10_11_bert_glue.csv",
];

fn main() {
    let args = Args::parse();
    let records = read_results(&args.out, INPUTS);
    let mut cells = to_setting_results(&records);
    fold_plateau_into_step(&mut cells);

    let total_cells = cells.len();
    println!("\n## Table 1: % of Top-1 / Top-3 finishes over {total_cells} experiment cells\n");
    type BudgetFilter = Box<dyn Fn(u32) -> bool>;
    let splits: [(&str, BudgetFilter); 3] = [
        ("Low budget (<25%)", Box::new(is_low_budget)),
        ("High budget (>=25%)", Box::new(|b| !is_low_budget(b))),
        ("Overall", Box::new(|_| true)),
    ];
    // column layout: Method | low T1 | low T3 | high T1 | high T3 | all T1 | all T3
    let headers: Vec<String> = [
        "Method",
        "Low Top-1",
        "Low Top-3",
        "High Top-1",
        "High Top-3",
        "Overall Top-1",
        "Overall Top-3",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();

    // preserve the paper's row order
    let row_order = [
        "None",
        "Exp decay",
        "OneCycle",
        "Linear Schedule",
        "Step Schedule",
        "Cosine Schedule",
        "REX",
    ];
    let mut rows = Vec::new();
    for method in row_order {
        let mut row = vec![method.to_string()];
        for (_, filter) in &splits {
            let shares = top_shares(&cells, filter);
            let s = shares.get(method).copied().unwrap_or_default();
            row.push(format!("{:.0}%", s.top1_pct));
            row.push(format!("{:.0}%", s.top3_pct));
        }
        rows.push(row);
    }
    println!("{}", table::markdown(&headers, &rows));
}

/// The paper aggregates Decay-on-Plateau into the Step Schedule row,
/// taking the better of the two per cell.
fn fold_plateau_into_step(cells: &mut [SettingResult]) {
    for cell in cells {
        let plateau = cell
            .scores
            .iter()
            .find(|(n, _)| n == "Decay on Plateau")
            .map(|(_, s)| *s);
        if let Some(p) = plateau {
            if let Some(step) = cell.scores.iter_mut().find(|(n, _)| n == "Step Schedule") {
                step.1 = if cell.lower_is_better {
                    step.1.min(p)
                } else {
                    step.1.max(p)
                };
            }
            cell.scores.retain(|(n, _)| n != "Decay on Plateau");
        }
    }
}
