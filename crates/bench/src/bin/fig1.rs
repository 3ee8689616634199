//! **Figure 1 — average rank vs budget**: aggregates the per-setting CSVs
//! into the paper's headline figure — for each optimizer, the average rank
//! (1 = best) of every schedule at each budget percentage.
//!
//! Run the grids first (`grid table4` … `grid table9`); this binary only
//! reads their CSVs.

use std::collections::BTreeMap;

use rex_bench::{read_results, Args};
use rex_eval::ranking::average_rank_by_budget;
use rex_eval::store::to_setting_results;
use rex_eval::table;

const INPUTS: &[&str] = &[
    "table4_rn20_cifar10.csv",
    "table5_wrn_stl10.csv",
    "table6_vgg16_cifar100.csv",
    "table7_vae_mnist.csv",
    "table8_rn50_imagenet.csv",
    "table9_yolo_voc.csv",
];

fn main() {
    let args = Args::parse();
    let records = read_results(&args.out, INPUTS);
    let cells = to_setting_results(&records);

    let mut csv = String::from("optimizer,budget_pct,schedule,avg_rank\n");
    for optimizer in ["SGDM", "Adam"] {
        let by_budget = average_rank_by_budget(&cells, optimizer);
        if by_budget.is_empty() {
            continue;
        }
        println!("\n## Figure 1 ({optimizer}): average rank vs budget (1 = best)\n");
        // collect schedule names from the first budget
        let mut schedules: Vec<String> = by_budget
            .values()
            .next()
            .map(|v| v.iter().map(|(n, _)| n.clone()).collect())
            .unwrap_or_default();
        schedules.sort();
        let mut headers = vec!["Method".to_string()];
        headers.extend(by_budget.keys().map(|b| format!("{b}%")));
        let mut rows = Vec::new();
        for sched in &schedules {
            let mut row = vec![sched.clone()];
            for (budget, series) in &by_budget {
                let rank_map: BTreeMap<&str, f64> =
                    series.iter().map(|(n, r)| (n.as_str(), *r)).collect();
                let rank = rank_map.get(sched.as_str()).copied();
                row.push(rank.map(|r| format!("{r:.2}")).unwrap_or_default());
                if let Some(r) = rank {
                    csv.push_str(&format!("{optimizer},{budget},{sched},{r:.4}\n"));
                }
            }
            rows.push(row);
        }
        println!("{}", table::markdown(&headers, &rows));
    }

    let path = args.out.join("fig1_average_rank.csv");
    std::fs::create_dir_all(&args.out).expect("create out dir");
    std::fs::write(&path, csv).expect("write CSV");
    eprintln!("series written to {}", path.display());
}
