//! The paper's schedule × budget grids as rows of one table.
//!
//! Tables 4–9, Figure 3 and the ablations all follow the protocol of Li
//! et al.'s *Budgeted Training*: each setting × optimizer × schedule ×
//! budget × trial is one cell. A [`Grid`] row holds everything a grid
//! varies; [`Grid::run`] trains its cells, prints one markdown table per
//! block and writes the records as one CSV. The `grid <name>` binary runs
//! one row by name.

use rex_core::ScheduleSpec;
use rex_data::digits::synth_digits;
use rex_data::images::{synth_cifar10, synth_cifar100, synth_imagenet, synth_stl10};
use rex_data::scenes::synth_scenes;
use rex_eval::store::{write_csv, Record};
use rex_telemetry::Recorder;
use rex_train::tasks::{DetectionTask, ImageModel, VaeTask};
use rex_train::{Budget, OptimizerKind, TrainConfig, TrainError, Trainer};

use crate::{
    print_budget_table, report_cell, run_schedule_grid, table_schedules, Args, Cell, GridRun,
};

/// One paper grid.
pub struct Grid {
    /// Name on the command line (`grid table4`).
    pub name: &'static str,
    /// CSV file written under `--out`.
    pub csv: &'static str,
    /// At smoke, fast and full scale: max epochs, class count (0 where
    /// the data fixes it), train and test samples (per class for image
    /// sets) and trials.
    sizes: [[usize; 5]; 3],
    /// XORed into `--seed` to seed the data; a separately generated test
    /// split uses `salt + 1`.
    salt: u64,
    /// Budgets in % of max epochs at fast and full scale, then at smoke.
    budgets: [&'static [u32]; 2],
    optimizers: Vec<OptimizerKind>,
    batch_size: usize,
    lower_is_better: bool,
    /// Run and printed in order, one markdown table each.
    blocks: Vec<Block>,
}

/// One printed table: a setting's schedules under every optimizer.
struct Block {
    setting: &'static str,
    title: &'static str,
    net: Net,
    /// Initial LR under SGDM and under Adam.
    lr: [f32; 2],
    schedules: Vec<ScheduleSpec>,
}

/// What trains a block's cells, and on which data.
#[derive(Clone, Copy)]
enum Net {
    /// An image classifier (at smoke, fast and full scale) on a synthetic
    /// image set, scored by test error (%).
    Image([ImageModel; 3], Images),
    /// The VAE on synthetic 12×12 digits, scored by negative ELBO.
    Vae,
    /// The detector on synthetic 24×24 scenes, scored by mAP@0.5 (%),
    /// after `warmup` epochs outside the budget.
    Detection { warmup: usize },
}

#[derive(Clone, Copy)]
enum Images {
    Cifar10,
    Stl10,
    Cifar100,
    ImageNet,
}

/// Trains one cell of a block from its configuration, on data the
/// closure owns, and returns the score.
type CellTrainer = dyn Fn(TrainConfig, &mut Recorder) -> Result<f64, TrainError> + Sync;

/// `OptimizerKind::default_lr` for SGDM and Adam.
const DEFAULT_LR: [f32; 2] = [0.1, 1e-2];
const PAPER_BUDGETS: &[u32] = &[1, 5, 10, 25, 50, 100];

/// The fields most rows share: the paper's budgets (100 % at smoke
/// scale), SGDM and Adam, batches of 32, lower scores better.
fn base() -> Grid {
    Grid {
        name: "",
        csv: "",
        sizes: [[0; 5]; 3],
        salt: 0,
        budgets: [PAPER_BUDGETS, &[100]],
        optimizers: vec![OptimizerKind::sgdm(), OptimizerKind::adam()],
        batch_size: 32,
        lower_is_better: true,
        blocks: Vec::new(),
    }
}

/// A block at the optimizers' default LRs.
fn block(
    setting: &'static str,
    title: &'static str,
    net: Net,
    schedules: Vec<ScheduleSpec>,
) -> Block {
    Block {
        setting,
        title,
        net,
        lr: DEFAULT_LR,
        schedules,
    }
}

fn image(model: ImageModel, data: Images) -> Net {
    Net::Image([model; 3], data)
}

/// Every grid, in `run_experiments.sh` order. `sizes` lists max epochs,
/// class count, train and test samples, and trials at smoke, fast and
/// full scale.
#[rustfmt::skip] // a table, one row per grid
pub fn grids() -> Vec<Grid> {
    use ImageModel::{MicroResNet20, MicroResNet38, MicroResNet50, MicroVgg, MicroWide};
    use Images::{Cifar10, Cifar100, ImageNet, Stl10};
    use ScheduleSpec as S;
    let delayed = |inner, at| S::Delayed(Box::new(inner), at);
    let (beta, poly) = (S::RexBeta, S::Polynomial);
    // Figure 3's schedules; step at full budget is the paper's reference line
    let fig3 = || {
        let linear = |at| delayed(S::Linear, at);
        vec![S::Rex, S::Linear, linear(0.25), linear(0.50), linear(0.75), S::Step]
    };
    let ablation = |title, schedules| {
        block("RN20-CIFAR10-ABLATION", title, image(MicroResNet20, Cifar10), schedules)
    };
    vec![
        Grid {
            name: "table4", csv: "table4_rn20_cifar10.csv", salt: 0x7AB4,
            sizes: [[4, 0, 8, 4, 1], [24, 0, 40, 15, 2], [60, 0, 100, 30, 3]],
            budgets: [PAPER_BUDGETS, &[25, 100]],
            // plateau patience 2 suits tens of epochs (the paper tunes it in
            // multiples of 5 on hundreds)
            blocks: vec![block("RN20-CIFAR10", "Table 4: RN20-CIFAR10 (test error %)",
                image(MicroResNet20, Cifar10), table_schedules(2))],
            ..base()
        },
        Grid {
            name: "table5", csv: "table5_wrn_stl10.csv", salt: 0x57110,
            sizes: [[3, 0, 6, 3, 1], [20, 0, 25, 10, 2], [40, 0, 50, 20, 3]],
            // widen factor 2, and 4 at full scale
            blocks: vec![block("WRN-STL10", "Table 5: WRN-STL10 (test error %)",
                Net::Image([2, 2, 4].map(MicroWide), Stl10), table_schedules(2))],
            ..base()
        },
        Grid {
            name: "table6", csv: "table6_vgg16_cifar100.csv", salt: 0xC1F100,
            sizes: [[3, 5, 8, 4, 1], [40, 20, 30, 10, 2], [48, 100, 50, 10, 3]],
            // VGG has no batch norm: both LRs sit below the plateau-locking
            // range (DESIGN.md §6)
            blocks: vec![Block { lr: [0.01, 3e-3], ..block("VGG16-CIFAR100",
                "Table 6: VGG16-CIFAR100 (test error %)",
                image(MicroVgg(12), Cifar100), table_schedules(2)) }],
            ..base()
        },
        Grid {
            name: "table7", csv: "table7_vae_mnist.csv", salt: 0xD161,
            sizes: [[4, 0, 64, 32, 1], [200, 0, 400, 150, 2], [200, 0, 1500, 400, 3]],
            batch_size: 8,
            // the top of the stable range, as per-schedule tuning would select
            blocks: vec![Block { lr: [3e-3, 1e-2], ..block("VAE-MNIST",
                "Table 7: VAE-MNIST (generalization loss)", Net::Vae, table_schedules(3)) }],
            ..base()
        },
        // Tables 8 and 9 have no Decay-on-Plateau row, and each lists the
        // rest in its own order
        Grid {
            name: "table8", csv: "table8_rn50_imagenet.csv", salt: 0x13A6E,
            sizes: [[10, 4, 8, 4, 1], [60, 20, 40, 10, 1], [90, 50, 100, 20, 1]],
            budgets: [&[1, 5], &[1, 5]], // low budgets only, as in the paper
            blocks: vec![block("RN50-IMAGENET", "Table 8: RN50-ImageNet (test error %)",
                image(MicroResNet50, ImageNet),
                vec![S::None, S::Step, S::Cosine, S::OneCycle, S::Linear, S::ExpDecay, S::Rex])],
            ..base()
        },
        Grid {
            name: "table9", csv: "table9_yolo_voc.csv", salt: 0x70C0,
            sizes: [[4, 0, 32, 16, 1], [60, 0, 240, 100, 2], [50, 0, 800, 300, 3]],
            optimizers: vec![OptimizerKind::adam()], batch_size: 8, lower_is_better: false,
            blocks: vec![block("YOLO-VOC", "Table 9: YOLO-VOC (mAP %, higher is better)",
                Net::Detection { warmup: 2 },
                vec![S::None, S::Step, S::OneCycle, S::Cosine, S::Linear, S::ExpDecay, S::Rex])],
            ..base()
        },
        Grid {
            name: "fig3", csv: "fig3_delayed_linear.csv", salt: 0xF163,
            sizes: [[3, 5, 8, 4, 1], [40, 20, 30, 10, 1], [48, 100, 50, 10, 3]],
            blocks: vec![
                // a tenth of each default, rounded in f32
                Block { lr: [0.1 * 0.1, 1e-2 * 0.1], ..block("VGG16-CIFAR100",
                    "Figure 3: VGG16-CIFAR100 — REX vs linear vs delayed linear (error %)",
                    image(MicroVgg(12), Cifar100), fig3()) },
                block("RN38-CIFAR100",
                    "Figure 3: RN38-CIFAR100 — REX vs linear vs delayed linear (error %)",
                    image(MicroResNet38, Cifar100), fig3()),
            ],
            ..base()
        },
        Grid {
            name: "ablations", csv: "ablations.csv", salt: 0xAB1A,
            sizes: [[3, 0, 6, 3, 1], [24, 0, 40, 15, 1], [60, 0, 100, 30, 3]],
            budgets: [&[5, 25, 100], &[100]],
            optimizers: vec![OptimizerKind::sgdm()],
            // REX is beta 0.5; beta 1 and power 1 are linear
            blocks: vec![
                ablation("Ablation: REX beta sweep (test error %)",
                    vec![beta(0.1), beta(0.3), S::Rex, beta(0.7), beta(0.9), beta(1.0)]),
                ablation("Ablation: Polynomial profiles (test error %)",
                    vec![poly(0.5), S::Linear, poly(2.0), poly(4.0), S::Rex]),
                ablation("Ablation: Delayed cosine (test error %)",
                    vec![S::Cosine, delayed(S::Cosine, 0.25), delayed(S::Cosine, 0.50), S::Rex]),
            ],
            ..base()
        },
    ]
}

/// The grid called `name`, if any.
pub fn find(name: &str) -> Option<Grid> {
    grids().into_iter().find(|g| g.name == name)
}

impl Grid {
    /// Trains every cell, prints one markdown table per block on stdout
    /// and writes the records to `args.out`/[`Grid::csv`].
    ///
    /// A setting label names one net, data set and LR pair within a grid
    /// (the resume markers rely on it too), so a schedule that an earlier
    /// block of the same setting trained is not trained again: its
    /// records are reused, as the ablations' three REX rows are.
    ///
    /// # Errors
    ///
    /// The CSV write's I/O error.
    pub fn run(&self, args: &Args) -> std::io::Result<()> {
        let [epochs, _, _, _, trials] = self.sizes_at(args);
        let [pcts, smoke_pcts] = self.budgets;
        let budgets: Vec<Budget> = (args.scale.pick(smoke_pcts, pcts, pcts).iter())
            .map(|&pct| Budget::new(epochs, pct))
            .collect();
        let mut trained: Vec<Record> = Vec::new();
        let mut records = Vec::new();
        for (i, block) in self.blocks.iter().enumerate() {
            let earlier = &self.blocks[..i];
            let fresh: Vec<ScheduleSpec> = (block.schedules.iter())
                .filter(|s| {
                    !(earlier.iter()).any(|b| b.setting == block.setting && b.schedules.contains(s))
                })
                .cloned()
                .collect();
            let train = self.trainer(block.net, args);
            for &optimizer in &self.optimizers {
                let run = GridRun {
                    grid: self.name,
                    setting: block.setting,
                    scale: args.scale,
                    seed: args.seed,
                    dtype: args.dtype,
                    optimizer,
                    trace: args.trace.as_deref(),
                    resume: args.resume.as_deref(),
                };
                let cell_fn = |cell: &Cell, rec: &mut Recorder| {
                    let t0 = std::time::Instant::now();
                    let score =
                        train(self.config(block, args, cell), rec).expect("training cell failed");
                    report_cell(&run, cell, score, &format!("{:.1?}", t0.elapsed()));
                    score
                };
                trained.extend(run_schedule_grid(
                    &run,
                    &fresh,
                    &budgets,
                    args.trials.unwrap_or(trials),
                    self.lower_is_better,
                    cell_fn,
                ));
            }
            let block_records = (self.optimizers.iter())
                .flat_map(|o| block.schedules.iter().map(move |s| (o.name(), s.name())))
                .flat_map(|(optimizer, schedule)| {
                    trained.iter().filter(move |r| {
                        r.setting == block.setting
                            && r.optimizer == optimizer
                            && r.schedule == schedule
                    })
                })
                .cloned()
                .collect::<Vec<_>>();
            records.push(block_records);
        }
        for (block, records) in self.blocks.iter().zip(&records) {
            print_budget_table(block.title, records, &budgets);
        }
        let path = args.out.join(self.csv);
        write_csv(&path, &records.concat())?;
        eprintln!("records written to {}", path.display());
        Ok(())
    }

    fn sizes_at(&self, args: &Args) -> [usize; 5] {
        let [smoke, fast, full] = self.sizes;
        args.scale.pick(smoke, fast, full)
    }

    /// Synthesizes the data `net` trains on at `args`' scale and seed,
    /// and returns what trains one cell on it.
    fn trainer(&self, net: Net, args: &Args) -> Box<CellTrainer> {
        let [_, classes, train, test, _] = self.sizes_at(args);
        let (seed, test_seed) = (args.seed ^ self.salt, args.seed ^ (self.salt + 1));
        match net {
            Net::Image([smoke, fast, full], images) => {
                let data = match images {
                    Images::Cifar10 => synth_cifar10(train, test, seed),
                    Images::Stl10 => synth_stl10(train, test, seed),
                    Images::Cifar100 => synth_cifar100(classes, train, test, seed),
                    Images::ImageNet => synth_imagenet(classes, train, test, seed),
                };
                let model = args.scale.pick(smoke, fast, full);
                Box::new(move |cfg, rec| model.train(&data, cfg, rec))
            }
            Net::Vae => {
                let train = synth_digits(train, 12, seed);
                let test = synth_digits(test, 12, test_seed);
                Box::new(move |cfg, rec| {
                    let task = VaeTask::new(&train, &test, cfg.seed);
                    Ok(Trainer::new(cfg).run(&task, rec)?.final_metric)
                })
            }
            Net::Detection { warmup } => {
                let train = synth_scenes(train, 24, seed);
                let test = synth_scenes(test, 24, test_seed);
                Box::new(move |cfg, rec| {
                    let task = DetectionTask::new(&train, &test, cfg.seed);
                    let cfg = task.with_warmup(cfg, warmup);
                    Ok(Trainer::new(cfg).run(&task, rec)?.final_metric)
                })
            }
        }
    }

    /// One cell's training configuration.
    fn config(&self, block: &Block, args: &Args, cell: &Cell) -> TrainConfig {
        let [sgdm_lr, adam_lr] = block.lr;
        TrainConfig {
            batch_size: self.batch_size,
            lr: match cell.optimizer {
                OptimizerKind::Sgdm { .. } => sgdm_lr,
                _ => adam_lr,
            },
            dtype: args.dtype,
            ..TrainConfig::new(
                cell.budget.epochs(),
                cell.optimizer,
                cell.schedule.clone(),
                cell.seed,
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_csv_files_are_unique() {
        let grids = grids();
        let mut names: Vec<_> = grids.iter().map(|g| g.name).collect();
        let mut csvs: Vec<_> = grids.iter().map(|g| g.csv).collect();
        names.sort();
        names.dedup();
        csvs.sort();
        csvs.dedup();
        assert_eq!(names.len(), 8);
        assert_eq!(csvs.len(), 8);
        assert!(find("table7").is_some() && find("table3").is_none());
    }
}
