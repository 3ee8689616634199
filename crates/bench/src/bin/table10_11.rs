//! **Tables 10 & 11 — BERT-GLUE**: fine-tune one pre-trained transformer
//! checkpoint on eight synthetic GLUE tasks at budgets of 1, 2, and 3
//! epochs under AdamW, exactly one run per cell (as in the paper). Prints
//! the per-task grid (Table 11) and the task-averaged scores (Table 10).

use std::collections::BTreeMap;

use rex_bench::Args;
use rex_core::ScheduleSpec;
use rex_data::text::{glue_tasks, lm_corpus};
use rex_eval::store::{write_csv, Record};
use rex_eval::table;
use rex_nn::TransformerConfig;
use rex_telemetry::Recorder;
use rex_train::tasks::{pretrain_transformer, GlueTask};
use rex_train::{OptimizerKind, TrainConfig, Trainer};

fn main() {
    let args = Args::parse();
    let (pretrain_epochs, corpus_size, train_per_task, test_per_task) = args.scale.pick(
        (1usize, 64usize, 32usize, 16usize),
        (6, 512, 768, 128),
        (20, 4096, 2048, 512),
    );
    let budget_epochs: Vec<usize> = match args.scale {
        rex_bench::ScaleKind::Smoke => vec![1],
        _ => vec![1, 2, 3],
    };
    let cfg = TransformerConfig::default();
    let lr = 3e-3;

    eprintln!("pre-training checkpoint ({pretrain_epochs} epochs over {corpus_size} sequences)...");
    let corpus = lm_corpus(corpus_size, cfg.seq_len, cfg.vocab, args.seed ^ 0xBE27);
    let checkpoint =
        pretrain_transformer(&corpus, cfg, pretrain_epochs, 16, 1e-3, args.seed ^ 0xBE28)
            .expect("pre-training failed");

    let tasks = glue_tasks(
        train_per_task,
        test_per_task,
        cfg.seq_len,
        cfg.vocab,
        args.seed ^ 0x61E5,
    );
    let schedules = vec![
        ScheduleSpec::None, // bare AdamW row
        ScheduleSpec::Step,
        ScheduleSpec::Cosine,
        ScheduleSpec::OneCycle,
        ScheduleSpec::Linear,
        ScheduleSpec::ExpDecay,
        ScheduleSpec::Rex,
    ];

    let mut records: Vec<Record> = Vec::new();
    for sched in &schedules {
        for task in &tasks {
            for &epochs in &budget_epochs {
                let t0 = std::time::Instant::now();
                let seed = args.seed ^ (epochs as u64) << 8;
                let cfg = TrainConfig {
                    batch_size: 8,
                    lr,
                    grad_clip: Some(1.0),
                    dtype: args.dtype,
                    ..TrainConfig::new(epochs, OptimizerKind::adamw(), sched.clone(), seed)
                };
                let acc = Trainer::new(cfg)
                    .run(
                        &GlueTask::new(&checkpoint, task, seed),
                        &mut Recorder::disabled(),
                    )
                    .expect("fine-tuning cell failed")
                    .final_metric;
                eprintln!(
                    "[GLUE/{}] {} {} ep -> {:.1} ({:.1?})",
                    task.name,
                    sched.name(),
                    epochs,
                    acc,
                    t0.elapsed()
                );
                records.push(Record {
                    setting: format!("GLUE-{}", task.name),
                    optimizer: "AdamW".into(),
                    schedule: sched.name(),
                    budget_pct: (epochs * 100 / budget_epochs.len().max(1)) as u32,
                    trial: 0,
                    score: acc,
                    lower_is_better: false,
                });
            }
        }
    }

    // Table 11: per-task, cells are "e1/e2/e3" scores.
    println!("\n## Table 11: BERT-GLUE per-task accuracy (1 ep / 2 ep / 3 ep)\n");
    let mut headers = vec!["Method".to_string()];
    headers.extend(tasks.iter().map(|t| t.name.to_string()));
    let mut rows = Vec::new();
    for sched in &schedules {
        let name = display_name(&sched.name());
        let mut row = vec![name];
        for task in &tasks {
            let scores: Vec<String> = budget_epochs
                .iter()
                .map(|&e| {
                    let pct = (e * 100 / budget_epochs.len().max(1)) as u32;
                    records
                        .iter()
                        .find(|r| {
                            r.setting == format!("GLUE-{}", task.name)
                                && r.schedule == sched.name()
                                && r.budget_pct == pct
                        })
                        .map(|r| format!("{:.1}", r.score))
                        .unwrap_or_default()
                })
                .collect();
            row.push(scores.join("/"));
        }
        rows.push(row);
    }
    println!("{}", table::markdown(&headers, &rows));

    // Table 10: average over tasks per budget.
    println!("\n## Table 10: BERT-GLUE average score (1 ep / 2 ep / 3 ep)\n");
    let mut rows10 = Vec::new();
    let mut means_per_budget: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for sched in &schedules {
        let mut cells = Vec::new();
        for (bi, &e) in budget_epochs.iter().enumerate() {
            let pct = (e * 100 / budget_epochs.len().max(1)) as u32;
            let scores: Vec<f64> = records
                .iter()
                .filter(|r| r.schedule == sched.name() && r.budget_pct == pct)
                .map(|r| r.score)
                .collect();
            let mean = rex_eval::stats::mean(&scores);
            means_per_budget.entry(bi).or_default().push(mean);
            cells.push(format!("{mean:.1}"));
        }
        rows10.push(vec![display_name(&sched.name()), cells.join("/")]);
    }
    println!(
        "{}",
        table::markdown(&["Method".to_string(), "Score".to_string()], &rows10)
    );

    let path = args.out.join("table10_11_bert_glue.csv");
    write_csv(&path, &records).expect("write CSV");
    eprintln!("records written to {}", path.display());
}

/// The paper labels the bare-optimizer row "AdamW".
fn display_name(schedule: &str) -> String {
    if schedule == "None" {
        "AdamW".to_string()
    } else {
        format!("+ {schedule}")
    }
}
