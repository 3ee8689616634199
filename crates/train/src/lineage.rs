//! Generational checkpoint lineage — crash recovery that survives a
//! corrupt snapshot.
//!
//! A single snapshot file is crash-*safe* (the atomic-write protocol
//! guarantees the previous generation survives a kill) but not
//! corruption-proof: silent media damage to the one file on disk strands
//! the run. A [`Lineage`] keeps the last *N* generations as
//! `state.00017.rexstate` files in one directory, and resume walks the
//! generations newest-first, validating each one's container checksum and section
//! decode, falling back generation-by-generation until a valid snapshot
//! is found. Every skipped generation gets a named reason in the
//! [`LoadReport`] so operators can see *why* the run resumed where it
//! did.
//!
//! Resuming from an older generation is correct by the same argument as
//! ordinary resume: a snapshot captures the complete deterministic state
//! at a step boundary, so replaying from generation *k* produces the
//! same trace bytes an uninterrupted run produces — the fallback only
//! costs recomputed steps, never divergence.

use crate::snapshot::TrainState;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Why a generation was accepted or skipped during fallback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GenerationStatus {
    /// Checksum and every section decode verified.
    Valid,
    /// The file ends early (torn or cut short on disk).
    Truncated,
    /// Checksum mismatch or undecodable section content.
    Corrupt,
    /// The file could not be read at all (I/O error).
    Unreadable,
}

impl fmt::Display for GenerationStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            GenerationStatus::Valid => "valid",
            GenerationStatus::Truncated => "truncated",
            GenerationStatus::Corrupt => "corrupt",
            GenerationStatus::Unreadable => "unreadable",
        })
    }
}

/// One generation's validation outcome.
#[derive(Debug, Clone)]
pub struct GenerationReport {
    /// Optimizer step the generation was captured at.
    pub step: u64,
    /// The generation file.
    pub path: PathBuf,
    /// Named outcome of validating it.
    pub status: GenerationStatus,
    /// The underlying error text for skipped generations.
    pub detail: String,
}

/// The full fallback walk: every generation tried, newest first. The
/// last entry (when resolution succeeded) is the `Valid` one resumed
/// from.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Validation attempts in the order they were made.
    pub attempts: Vec<GenerationReport>,
}

impl LoadReport {
    /// Generations skipped before a valid one was found.
    pub fn fallbacks(&self) -> usize {
        self.attempts
            .iter()
            .filter(|a| a.status != GenerationStatus::Valid)
            .count()
    }
}

impl fmt::Display for LoadReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for a in &self.attempts {
            match a.status {
                GenerationStatus::Valid => {
                    write!(f, "generation {:05}: valid, resuming", a.step)?;
                }
                status => {
                    writeln!(
                        f,
                        "generation {:05}: {status} ({}), falling back",
                        a.step, a.detail
                    )?;
                }
            }
        }
        Ok(())
    }
}

/// A rotating directory of generational snapshots.
#[derive(Debug, Clone)]
pub struct Lineage {
    dir: PathBuf,
    keep: usize,
}

impl Lineage {
    /// A lineage rooted at `dir` retaining the newest `keep` generations
    /// (minimum 1).
    pub fn new(dir: impl Into<PathBuf>, keep: usize) -> Self {
        Lineage {
            dir: dir.into(),
            keep: keep.max(1),
        }
    }

    /// Writes `state` as a new generation crash-atomically and prunes
    /// generations beyond the retention count. Returns the generation
    /// file's path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (including injected ones) from the
    /// generation write; pruning failures are ignored (a leftover old
    /// generation is harmless).
    pub fn save(&self, state: &TrainState) -> io::Result<PathBuf> {
        let path = self.dir.join(generation_file(state.step));
        state.save(&path)?;
        if let Ok(gens) = generations(&self.dir) {
            for (_, old) in gens.iter().rev().skip(self.keep) {
                let _ = fs::remove_file(old);
            }
        }
        Ok(path)
    }

    /// Walks the generations newest-first, returning the newest snapshot
    /// that validates (checksum + full decode) together with its file
    /// path and the per-generation [`LoadReport`].
    ///
    /// # Errors
    ///
    /// `NotFound` when the directory holds no generations at all;
    /// `InvalidData` when every generation fails validation (the report's
    /// content is folded into the message).
    pub fn resolve(dir: &Path) -> io::Result<(TrainState, PathBuf, LoadReport)> {
        let mut report = LoadReport::default();
        let gens = generations(dir)?;
        if gens.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no checkpoint generations in {}", dir.display()),
            ));
        }
        for (step, path) in gens.into_iter().rev() {
            match TrainState::load(&path) {
                Ok(state) => {
                    report.attempts.push(GenerationReport {
                        step,
                        path: path.clone(),
                        status: GenerationStatus::Valid,
                        detail: String::new(),
                    });
                    return Ok((state, path, report));
                }
                Err(e) => {
                    let status = match e.kind() {
                        io::ErrorKind::UnexpectedEof => GenerationStatus::Truncated,
                        io::ErrorKind::InvalidData => GenerationStatus::Corrupt,
                        _ => GenerationStatus::Unreadable,
                    };
                    report.attempts.push(GenerationReport {
                        step,
                        path,
                        status,
                        detail: e.to_string(),
                    });
                }
            }
        }
        Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "every checkpoint generation in {} failed validation:\n{report}",
                dir.display()
            ),
        ))
    }
}

/// The generation files in `dir`, sorted by step ascending. Files not
/// matching `state.NNNNN.rexstate` (temp siblings, quarantined snapshots,
/// a pointer file an older version wrote) are ignored.
pub fn generations(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(step) = parse_generation(&name.to_string_lossy()) else {
            continue;
        };
        out.push((step, entry.path()));
    }
    out.sort();
    Ok(out)
}

fn generation_file(step: u64) -> String {
    format!("state.{step:05}.rexstate")
}

fn parse_generation(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("state.")?.strip_suffix(".rexstate")?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rex_optim::OptimizerState;
    use rex_tensor::{DType, Tensor};

    fn state_at(step: u64) -> TrainState {
        TrainState {
            run: "classifier".to_owned(),
            schedule: "REX".to_owned(),
            optimizer: "SGDM".to_owned(),
            seed: 7,
            total_samples: 640,
            batch_size: 16,
            epochs: 4,
            lr: 0.05,
            dtype: DType::F32,
            backend: "scalar".to_owned(),
            simd_level: "portable".to_owned(),
            epoch: 0,
            batch_in_epoch: step,
            step,
            samples_done: step * 16,
            epoch_loss: 1.0,
            epoch_batches: step,
            last_lr: 0.04,
            history: Vec::new(),
            rng: [step, 2, 3, 4],
            rng_epoch_start: [5, 6, 7, 8],
            trace_events: step + 1,
            model: vec![("w".to_owned(), Tensor::arange(0.0, 1.0, 4))],
            buffers: Vec::new(),
            optim: OptimizerState {
                kind: "sgd".to_owned(),
                scalars: vec![("t".to_owned(), step as f64)],
                tensors: Vec::new(),
            },
            streams: Vec::new(),
        }
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("rex_lineage_{name}_{}", std::process::id()))
    }

    #[test]
    fn save_rotates_and_prunes() {
        let dir = tmp("rotate");
        let _ = fs::remove_dir_all(&dir);
        let lineage = Lineage::new(&dir, 3);
        for step in [5, 10, 15, 20] {
            lineage.save(&state_at(step)).unwrap();
        }
        let gens = generations(&dir).unwrap();
        assert_eq!(
            gens.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            vec![10, 15, 20],
            "oldest generation pruned"
        );
        let (state, path, report) = Lineage::resolve(&dir).unwrap();
        assert_eq!(state.step, 20);
        assert!(path.ends_with("state.00020.rexstate"));
        assert_eq!(report.fallbacks(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn resolve_falls_back_over_damaged_generations() {
        let dir = tmp("fallback");
        let _ = fs::remove_dir_all(&dir);
        let lineage = Lineage::new(&dir, 3);
        for step in [5, 10, 15] {
            lineage.save(&state_at(step)).unwrap();
        }
        // newest truncated below the container header (UnexpectedEof),
        // second-newest bit-flipped (checksum mismatch)
        let newest = dir.join("state.00015.rexstate");
        let bytes = fs::read(&newest).unwrap();
        fs::write(&newest, &bytes[..10]).unwrap();
        let second = dir.join("state.00010.rexstate");
        let mut bytes = fs::read(&second).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&second, bytes).unwrap();

        let (state, path, report) = Lineage::resolve(&dir).unwrap();
        assert_eq!(state.step, 5);
        assert!(path.ends_with("state.00005.rexstate"));
        assert_eq!(report.fallbacks(), 2);
        assert_eq!(report.attempts[0].status, GenerationStatus::Truncated);
        assert_eq!(report.attempts[1].status, GenerationStatus::Corrupt);
        assert_eq!(report.attempts[2].status, GenerationStatus::Valid);
        assert_eq!(report.attempts[2].step, 5);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn resolve_errors_name_every_generation_when_all_fail() {
        let dir = tmp("all_bad");
        let _ = fs::remove_dir_all(&dir);
        let lineage = Lineage::new(&dir, 2);
        for step in [3, 6] {
            lineage.save(&state_at(step)).unwrap();
        }
        for name in ["state.00003.rexstate", "state.00006.rexstate"] {
            fs::write(dir.join(name), b"not a snapshot").unwrap();
        }
        let err = Lineage::resolve(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("00006"), "{err}");
        assert!(err.to_string().contains("00003"), "{err}");

        let empty = tmp("empty");
        let _ = fs::remove_dir_all(&empty);
        fs::create_dir_all(&empty).unwrap();
        assert_eq!(
            Lineage::resolve(&empty).unwrap_err().kind(),
            io::ErrorKind::NotFound
        );
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&empty);
    }

    #[test]
    fn generation_names_parse_strictly() {
        assert_eq!(parse_generation("state.00017.rexstate"), Some(17));
        assert_eq!(parse_generation("state.123456.rexstate"), Some(123_456));
        for bad in [
            "LATEST",
            "state.rexstate",
            "state..rexstate",
            "state.12x.rexstate",
            ".state.00017.rexstate.tmp.1.2",
            "ckpt.00017.rexstate",
        ] {
            assert_eq!(parse_generation(bad), None, "{bad}");
        }
    }
}
