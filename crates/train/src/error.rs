//! The training loop's error type.
//!
//! Fault-tolerant training distinguishes *model* failures
//! ([`TrainError::Tensor`]), *numeric* failures caught by the guards
//! ([`TrainError::NonFinite`]), and *infrastructure* failures around
//! checkpointing and resume — each actionable in a different way.

use rex_tensor::TensorError;
use std::path::PathBuf;

/// Any failure a training run can surface.
#[derive(Debug)]
pub enum TrainError {
    /// A shape/compute error from the model's forward or backward pass.
    Tensor(TensorError),
    /// A numeric guard tripped under [`GuardPolicy::Abort`], or tripped
    /// twice at the same step under [`GuardPolicy::Rollback`].
    ///
    /// [`GuardPolicy::Abort`]: crate::GuardPolicy::Abort
    /// [`GuardPolicy::Rollback`]: crate::GuardPolicy::Rollback
    NonFinite {
        /// Step at which the non-finite value was observed.
        step: u64,
        /// What was non-finite: `"loss"`, or `"grad:{param}"` naming the
        /// offending tensor.
        what: String,
        /// The observed value (NaN or ±∞).
        value: f64,
    },
    /// Saving or loading a checkpoint file failed.
    Checkpoint {
        /// `"save"` or `"load"`.
        action: &'static str,
        /// The checkpoint path involved.
        path: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// A loaded checkpoint is incompatible with the current run (wrong
    /// schedule, optimizer, seed, dataset size, …).
    Resume(String),
    /// The trace could not be rewound to where the run starts: it holds
    /// fewer lines than the snapshot's cursor, or a filesystem error. The
    /// message names the trace file.
    Trace(std::io::Error),
    /// The run configuration itself is unusable (a learning rate that is
    /// not finite and positive, zero checkpoint interval, stateful
    /// schedule, missing path, …).
    Config(String),
    /// The run stopped deliberately at `FtConfig::halt_after_step`; the
    /// checkpoint on disk resumes it. Not a failure — a scheduled pause.
    Halted {
        /// The last completed step.
        step: u64,
    },
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::Tensor(e) => write!(f, "tensor error: {e}"),
            TrainError::NonFinite { step, what, value } => {
                write!(f, "non-finite {what} ({value}) at step {step}")
            }
            TrainError::Checkpoint {
                action,
                path,
                source,
            } => {
                write!(
                    f,
                    "checkpoint {action} failed at {}: {source}",
                    path.display()
                )
            }
            TrainError::Resume(msg) => write!(f, "resume rejected: {msg}"),
            TrainError::Trace(e) => write!(f, "cannot rewind the trace: {e}"),
            TrainError::Config(msg) => write!(f, "invalid run config: {msg}"),
            TrainError::Halted { step } => write!(f, "halted after step {step} (resumable)"),
        }
    }
}

impl std::error::Error for TrainError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TrainError::Tensor(e) => Some(e),
            TrainError::Checkpoint { source, .. } | TrainError::Trace(source) => Some(source),
            _ => None,
        }
    }
}

impl From<TensorError> for TrainError {
    fn from(e: TensorError) -> Self {
        TrainError::Tensor(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_step_and_tensor() {
        let e = TrainError::NonFinite {
            step: 17,
            what: "grad:layer1.weight".to_owned(),
            value: f64::NAN,
        };
        let msg = e.to_string();
        assert!(msg.contains("step 17"), "{msg}");
        assert!(msg.contains("grad:layer1.weight"), "{msg}");
    }

    #[test]
    fn tensor_errors_convert_and_chain() {
        let te = TensorError::MatmulMismatch {
            lhs: vec![2, 3],
            rhs: vec![4, 5],
        };
        let e: TrainError = te.into();
        assert!(std::error::Error::source(&e).is_some());
        assert!(e.to_string().contains("tensor error"));
    }
}
