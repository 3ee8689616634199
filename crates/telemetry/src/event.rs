//! The telemetry event vocabulary and its JSONL serialization.

use crate::json::{self, Value};
use std::collections::BTreeMap;

/// One optimizer step, as observed by the training loop. Every field is a
/// pure function of the seed, so same-seed traces serialize
/// byte-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct StepRecord {
    /// Zero-based optimizer-step index within the run.
    pub step: u64,
    /// Zero-based epoch the step belongs to.
    pub epoch: u64,
    /// Zero-based batch index within the epoch.
    pub batch_id: u64,
    /// Learning rate applied for this step.
    pub lr: f64,
    /// Mini-batch training loss.
    pub loss: f64,
    /// Global gradient norm before clipping.
    pub grad_norm: f64,
    /// Global parameter norm after the update.
    pub param_norm: f64,
}

/// A single telemetry event.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A run began.
    RunStart {
        /// Human-readable run label (task / cell name).
        run: String,
        /// Schedule name driving the learning rate.
        schedule: String,
        /// Optimizer name.
        optimizer: String,
        /// Prng seed for the run.
        seed: u64,
        /// Total training samples across the budgeted horizon
        /// (`dataset len × budgeted epochs`).
        total_samples: u64,
    },
    /// An epoch began.
    Epoch {
        /// Zero-based epoch index.
        epoch: u64,
        /// Number of samples the loader will serve this epoch.
        samples: u64,
        /// Number of mini-batches this epoch.
        batches: u64,
        /// Whether the loader shuffled before batching.
        shuffled: bool,
    },
    /// One optimizer step.
    Step(StepRecord),
    /// A validation pass finished.
    Validation {
        /// Epoch after which validation ran.
        epoch: u64,
        /// Validation loss (or proxy metric) observed.
        loss: f64,
    },
    /// An epoch finished.
    EpochEnd {
        /// Zero-based epoch index.
        epoch: u64,
        /// Mean training loss across the epoch.
        mean_loss: f64,
        /// Learning rate in effect at the end of the epoch.
        lr: f64,
    },
    /// A full training-state snapshot was written.
    Checkpoint {
        /// Optimizer step count at the snapshot (steps completed).
        step: u64,
    },
    /// A numeric guard observed a non-finite loss or gradient. An
    /// operational event: it feeds `/metrics` but never a trace, so a
    /// guarded run's JSONL holds only its trajectory.
    GuardTrip {
        /// Optimizer step at which the guard fired.
        step: u64,
        /// What was non-finite: `"loss"` or `"grad:<param>"`.
        what: String,
        /// The offending value (serialized as null — JSON has no NaN).
        value: f64,
        /// Policy applied: `"abort"`, `"skip"`, or `"rollback"`.
        action: String,
    },
    /// A run finished.
    RunEnd {
        /// Final scalar metric for the run (accuracy, ELBO, mAP, ...).
        metric: f64,
    },
}

impl Event {
    /// Serializes the event as one JSON line (no trailing newline), or
    /// `None` for an operational event, which no trace holds.
    pub fn to_jsonl(&self) -> Option<String> {
        let line = match self {
            Event::RunStart {
                run,
                schedule,
                optimizer,
                seed,
                total_samples,
            } => format!(
                "{{\"ev\":\"run_start\",\"run\":\"{}\",\"schedule\":\"{}\",\"optimizer\":\"{}\",\"seed\":{seed},\"total_samples\":{total_samples}}}",
                json::escape(run),
                json::escape(schedule),
                json::escape(optimizer),
            ),
            Event::Epoch {
                epoch,
                samples,
                batches,
                shuffled,
            } => format!(
                "{{\"ev\":\"epoch\",\"epoch\":{epoch},\"samples\":{samples},\"batches\":{batches},\"shuffled\":{shuffled}}}"
            ),
            Event::Step(r) => format!(
                "{{\"ev\":\"step\",\"step\":{},\"epoch\":{},\"batch_id\":{},\"lr\":{},\"loss\":{},\"grad_norm\":{},\"param_norm\":{}}}",
                r.step,
                r.epoch,
                r.batch_id,
                json::fmt_f64(r.lr),
                json::fmt_f64(r.loss),
                json::fmt_f64(r.grad_norm),
                json::fmt_f64(r.param_norm),
            ),
            Event::Validation { epoch, loss } => format!(
                "{{\"ev\":\"validation\",\"epoch\":{epoch},\"loss\":{}}}",
                json::fmt_f64(*loss)
            ),
            Event::EpochEnd {
                epoch,
                mean_loss,
                lr,
            } => format!(
                "{{\"ev\":\"epoch_end\",\"epoch\":{epoch},\"mean_loss\":{},\"lr\":{}}}",
                json::fmt_f64(*mean_loss),
                json::fmt_f64(*lr)
            ),
            Event::Checkpoint { step } => format!("{{\"ev\":\"checkpoint\",\"step\":{step}}}"),
            Event::GuardTrip { .. } => return None,
            Event::RunEnd { metric } => format!(
                "{{\"ev\":\"run_end\",\"metric\":{}}}",
                json::fmt_f64(*metric)
            ),
        };
        Some(line)
    }

    /// True for events describing the *mechanics* of a run (guard trips)
    /// rather than its deterministic trajectory. Operational events are
    /// never encoded, so they cannot perturb byte-identity of same-seed or
    /// resumed traces.
    pub fn is_operational(&self) -> bool {
        matches!(self, Event::GuardTrip { .. })
    }

    /// Parses one JSON line back into an event.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field on malformed input.
    pub fn parse_jsonl(line: &str) -> Result<Event, String> {
        let map = json::parse_object(line)?;
        let kind = req_str(&map, "ev")?;
        match kind.as_str() {
            "run_start" => Ok(Event::RunStart {
                run: req_str(&map, "run")?,
                schedule: req_str(&map, "schedule")?,
                optimizer: req_str(&map, "optimizer")?,
                seed: req_u64(&map, "seed")?,
                total_samples: req_u64(&map, "total_samples")?,
            }),
            "epoch" => Ok(Event::Epoch {
                epoch: req_u64(&map, "epoch")?,
                samples: req_u64(&map, "samples")?,
                batches: req_u64(&map, "batches")?,
                shuffled: map
                    .get("shuffled")
                    .and_then(Value::as_bool)
                    .ok_or("epoch: missing bool field shuffled")?,
            }),
            "step" => Ok(Event::Step(StepRecord {
                step: req_u64(&map, "step")?,
                epoch: req_u64(&map, "epoch")?,
                batch_id: req_u64(&map, "batch_id")?,
                lr: req_f64(&map, "lr")?,
                loss: req_f64(&map, "loss")?,
                grad_norm: req_f64(&map, "grad_norm")?,
                param_norm: req_f64(&map, "param_norm")?,
            })),
            "validation" => Ok(Event::Validation {
                epoch: req_u64(&map, "epoch")?,
                loss: req_f64(&map, "loss")?,
            }),
            "epoch_end" => Ok(Event::EpochEnd {
                epoch: req_u64(&map, "epoch")?,
                mean_loss: req_f64(&map, "mean_loss")?,
                lr: req_f64(&map, "lr")?,
            }),
            "checkpoint" => Ok(Event::Checkpoint {
                step: req_u64(&map, "step")?,
            }),
            "run_end" => Ok(Event::RunEnd {
                metric: req_f64(&map, "metric")?,
            }),
            other => Err(format!("unknown event kind {other:?}")),
        }
    }

    /// Short kind tag, matching the `"ev"` discriminant in JSONL.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::RunStart { .. } => "run_start",
            Event::Epoch { .. } => "epoch",
            Event::Step(_) => "step",
            Event::Validation { .. } => "validation",
            Event::EpochEnd { .. } => "epoch_end",
            Event::Checkpoint { .. } => "checkpoint",
            Event::GuardTrip { .. } => "guard",
            Event::RunEnd { .. } => "run_end",
        }
    }

    /// The step record, if this is a step event.
    pub fn as_step(&self) -> Option<&StepRecord> {
        match self {
            Event::Step(r) => Some(r),
            _ => None,
        }
    }
}

fn req_str(map: &BTreeMap<String, Value>, key: &str) -> Result<String, String> {
    map.get(key)
        .and_then(Value::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("missing string field {key:?}"))
}

fn req_u64(map: &BTreeMap<String, Value>, key: &str) -> Result<u64, String> {
    map.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("missing integer field {key:?}"))
}

fn req_f64(map: &BTreeMap<String, Value>, key: &str) -> Result<f64, String> {
    map.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("missing number field {key:?}"))
}

/// Serializes a slice of events as a JSONL document (newline-terminated
/// lines; operational events dropped).
pub fn encode_trace(events: &[Event]) -> String {
    let mut out = String::new();
    for ev in events {
        if let Some(line) = ev.to_jsonl() {
            out.push_str(&line);
            out.push('\n');
        }
    }
    out
}

/// Parses a JSONL document (one event per non-empty line) back into events.
///
/// # Errors
///
/// Returns `line <n>: <cause>` for the first malformed line.
pub fn parse_trace(text: &str) -> Result<Vec<Event>, String> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let ev = Event::parse_jsonl(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        events.push(ev);
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Event> {
        vec![
            Event::RunStart {
                run: "digits".into(),
                schedule: "rex".into(),
                optimizer: "adamw".into(),
                seed: 7,
                total_samples: 480,
            },
            Event::Epoch {
                epoch: 0,
                samples: 60,
                batches: 4,
                shuffled: true,
            },
            Event::Step(StepRecord {
                step: 0,
                epoch: 0,
                batch_id: 0,
                lr: 0.003,
                loss: 2.302,
                grad_norm: 1.25,
                param_norm: 10.5,
            }),
            Event::Validation {
                epoch: 0,
                loss: 2.1,
            },
            Event::EpochEnd {
                epoch: 0,
                mean_loss: 2.25,
                lr: 0.0028,
            },
            Event::Checkpoint { step: 4 },
            Event::GuardTrip {
                step: 5,
                what: "grad:m.fc0.weight".into(),
                value: f64::NAN,
                action: "skip".into(),
            },
            Event::RunEnd { metric: 0.85 },
        ]
    }

    #[test]
    fn roundtrip_with_timing() {
        let events = sample_events();
        let parsed = parse_trace(&encode_trace(&events)).unwrap();
        let kept: Vec<Event> = events.into_iter().filter(|e| !e.is_operational()).collect();
        assert_eq!(parsed, kept);
        // a step line from an older writer may still carry a wall-clock
        // field; it parses to the same record and re-encodes without it
        let step = kept[2].to_jsonl().unwrap();
        let timed = format!("{},\"elapsed_ns\":42000}}", &step[..step.len() - 1]);
        let reparsed = Event::parse_jsonl(&timed).unwrap();
        assert_eq!(reparsed, kept[2]);
        assert_eq!(reparsed.to_jsonl().unwrap(), step);
    }

    #[test]
    fn timing_excluded_by_default() {
        let events = sample_events();
        let text = encode_trace(&events);
        assert!(!text.contains("elapsed_ns"), "{text}");
        // the operational guard trip is dropped; the checkpoint survives
        assert!(!text.contains("\"ev\":\"guard\""), "{text}");
        assert!(text.contains("\"ev\":\"checkpoint\""), "{text}");
        let dropped = events.iter().filter(|e| e.is_operational()).count();
        assert_eq!(dropped, 1);
        assert_eq!(text.lines().count(), events.len() - dropped);
    }

    #[test]
    fn non_finite_floats_become_null() {
        let ev = Event::Validation {
            epoch: 0,
            loss: f64::NAN,
        };
        let line = ev.to_jsonl().unwrap();
        assert!(line.contains("\"loss\":null"), "{line}");
        match Event::parse_jsonl(&line).unwrap() {
            Event::Validation { loss, .. } => assert!(loss.is_nan()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_errors_name_the_line() {
        let err = parse_trace("{\"ev\":\"step\"}\n").unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
        let err = parse_trace("{\"ev\":\"nope\"}\n").unwrap_err();
        assert!(err.contains("unknown event kind"), "{err}");
    }

    #[test]
    fn kind_tags_match_serialization() {
        for ev in sample_events() {
            let Some(line) = ev.to_jsonl() else { continue };
            assert!(
                line.starts_with(&format!("{{\"ev\":\"{}\"", ev.kind())),
                "{line}"
            );
        }
    }
}
