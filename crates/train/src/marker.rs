//! Done-markers: the score of a finished grid or sweep cell, kept on disk
//! so a rerun pointed at the same resume directory replays it instead of
//! training again.
//!
//! A marker is found by its [`CellKey`], which names everything that
//! changes the cell's score. A run that differs in any of those fields —
//! another grid, scale, seed or dtype — looks for another file and trains
//! its own cell. The same key names the cell's `--trace` file.
//!
//! `--threads` never changes a score and is not part of the key.
//! `--backend` is not either, although another backend reassociates a
//! cell's reductions (DESIGN.md §13): a directory resumed under another
//! backend holds scores from both.

use std::path::Path;

use rex_core::ScheduleSpec;
use rex_tensor::DType;

use crate::OptimizerKind;

/// Everything that changes one cell's score.
#[derive(Debug, Clone, Copy)]
pub struct CellKey<'a> {
    /// Setting label (`VGG16-CIFAR100`).
    pub setting: &'a str,
    /// The paper grid the cell belongs to (`table6`), or `sweep`.
    pub grid: &'a str,
    /// Experiment scale (`smoke|fast|full`); a sweep runs the settings
    /// catalogue, which holds the `fast` sizes.
    pub scale: &'a str,
    /// The run's base seed (`--seed`).
    pub seed: u64,
    /// Parameter storage precision (`--dtype`).
    pub dtype: DType,
    /// Optimizer family.
    pub optimizer: OptimizerKind,
    /// Schedule under test.
    pub schedule: &'a ScheduleSpec,
    /// Budget, in percent of the setting's maximum epochs.
    pub budget_pct: u32,
    /// Trial index.
    pub trial: usize,
}

impl CellKey<'_> {
    /// The file name of this cell's marker (`ext = "done"`) or trace
    /// (`"jsonl"`):
    /// `<setting>_<grid>_<scale>_s<seed>_<dtype>_<optimizer>_<schedule>_b<pct>_t<trial>.<ext>`,
    /// each name lowercased with every non-alphanumeric run collapsed to
    /// one `-`.
    pub fn file_name(&self, ext: &str) -> String {
        format!(
            "{}_{}_{}_s{}_{}_{}_{}_b{}_t{}.{ext}",
            slug(self.setting),
            slug(self.grid),
            slug(self.scale),
            self.seed,
            self.dtype.name(),
            slug(self.optimizer.name()),
            slug(&self.schedule.name()),
            self.budget_pct,
            self.trial
        )
    }
}

fn slug(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else if !out.ends_with('-') {
            out.push('-');
        }
    }
    out.trim_matches('-').to_string()
}

/// Reads a marker back: the score as big-endian `f64` bits in hex (exact,
/// no decimal round-trip), one line. `None` on any problem, so a missing
/// or corrupt marker just re-runs the cell.
pub fn read(path: &Path) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let bits = u64::from_str_radix(text.trim(), 16).ok()?;
    Some(f64::from_bits(bits))
}

/// Writes a marker crash-consistently through
/// [`rex_faults::atomic_write`], so it only ever exists with its full
/// contents. A failed write is a warning: the cell simply re-runs next
/// time.
pub fn write(path: &Path, score: f64) {
    let body = format!("{:016x}\n", score.to_bits());
    if let Err(e) = rex_faults::atomic_write("done", path, body.as_bytes()) {
        eprintln!("warning: cannot write done marker {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(schedule: &ScheduleSpec) -> CellKey<'_> {
        CellKey {
            setting: "VGG16-CIFAR100",
            grid: "table6",
            scale: "smoke",
            seed: 0,
            dtype: DType::F32,
            optimizer: OptimizerKind::sgdm(),
            schedule,
            budget_pct: 100,
            trial: 0,
        }
    }

    #[test]
    fn every_score_changing_field_changes_the_file_name() {
        let rex = ScheduleSpec::Rex;
        let base = key(&rex);
        assert_eq!(
            base.file_name("done"),
            "vgg16-cifar100_table6_smoke_s0_f32_sgdm_rex_b100_t0.done"
        );
        let linear = ScheduleSpec::Linear;
        let variants = [
            CellKey {
                setting: "RN38-CIFAR100",
                ..base
            },
            CellKey {
                grid: "fig3",
                ..base
            },
            CellKey {
                scale: "fast",
                ..base
            },
            CellKey { seed: 7, ..base },
            CellKey {
                dtype: DType::Bf16,
                ..base
            },
            CellKey {
                optimizer: OptimizerKind::adam(),
                ..base
            },
            CellKey {
                schedule: &linear,
                ..base
            },
            CellKey {
                budget_pct: 25,
                ..base
            },
            CellKey { trial: 1, ..base },
        ];
        let mut names: Vec<String> = variants.iter().map(|k| k.file_name("done")).collect();
        names.push(base.file_name("done"));
        names.sort();
        names.dedup();
        assert_eq!(names.len(), variants.len() + 1, "{names:?}");
    }

    #[test]
    fn markers_round_trip_exact_bits_and_reject_junk() {
        let dir = std::env::temp_dir().join(format!("rex_marker_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cell.done");
        write(&path, 1.0 / 3.0);
        assert_eq!(
            read(&path).map(f64::to_bits),
            Some((1.0f64 / 3.0).to_bits())
        );
        std::fs::write(&path, "not-hex\n").unwrap();
        assert_eq!(read(&path), None);
        assert_eq!(read(&dir.join("missing.done")), None);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
