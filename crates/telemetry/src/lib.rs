//! # rex-telemetry — deterministic training telemetry
//!
//! A lightweight, zero-dependency event layer for the REX budgeted-training
//! stack. The paper's entire argument is trajectory-shaped — per-step
//! learning-rate curves and loss trajectories across profiles × sampling
//! rates × budgets — so final-metric assertions alone cannot catch a
//! mid-trajectory regression (a schedule knot off-by-one, optimizer state
//! drift, a loader reshuffle). This crate gives every training loop a
//! step-resolution record of what it did:
//!
//! * [`StepRecord`] — one optimizer step: step/epoch indices, applied
//!   learning rate, batch loss, gradient and parameter norms, and batch id.
//! * [`Event`] — the trace vocabulary: run/epoch boundaries, steps,
//!   validation passes and checkpoints, plus the operational guard trip
//!   that feeds `/metrics` but never a trace.
//! * [`Recorder`] — the handle threaded through trainers and range tests.
//!   A disabled recorder ([`Recorder::disabled`]) is a branch on a `None`
//!   sink, and the trainer skips the norms it would record.
//! * [`Sink`] — pluggable backends: [`MemorySink`] (an in-memory buffer for
//!   tests), [`JsonlSink`] (a JSON-lines writer for traces), and the
//!   [`RegistrySink`] / [`FanoutSink`] pair that feeds a
//!   [`MetricsRegistry`].
//! * [`golden`] — tolerance-checked trace diffing for golden-trace
//!   regression tests, with first-divergent-step diagnostics.
//! * [`span`] — the wall-clock profiler. Time lives only there: a trace
//!   holds no clock reading.
//!
//! # Determinism
//!
//! Traces are **byte-identical across same-seed runs**: every field of a
//! trace line derives from the seeded `Prng` streams, and operational
//! events are never encoded, so two runs of the same configuration
//! serialize identically.
//!
//! ```
//! use rex_telemetry::{Event, MemorySink, Recorder, StepRecord};
//!
//! let sink = MemorySink::unbounded();
//! let events = sink.handle();
//! let mut rec = Recorder::new(Box::new(sink));
//! rec.emit(Event::Step(StepRecord {
//!     step: 0,
//!     epoch: 0,
//!     batch_id: 0,
//!     lr: 0.1,
//!     loss: 2.3,
//!     grad_norm: 1.0,
//!     param_norm: 4.2,
//! }));
//! assert_eq!(events.len(), 1);
//! assert_eq!(rec.lines_emitted(), 1);
//! let line = events.events()[0].to_jsonl().unwrap();
//! assert_eq!(
//!     line,
//!     "{\"ev\":\"step\",\"step\":0,\"epoch\":0,\"batch_id\":0,\"lr\":0.1,\"loss\":2.3,\"grad_norm\":1,\"param_norm\":4.2}"
//! );
//! ```

#![warn(missing_docs)]

mod event;
pub mod golden;
pub mod hist;
pub mod json;
mod recorder;
pub mod registry;
mod sink;
pub mod span;

pub use event::{encode_trace, parse_trace, Event, StepRecord};
pub use hist::Histogram;
pub use recorder::Recorder;
pub use registry::{FanoutSink, MetricsRegistry, RegistrySink, TimerStat};
pub use sink::{JsonlSink, MemoryHandle, MemorySink, Sink};
pub use span::{Detail, PhaseRow, Profile, SpanCollector, SpanEvent, SpanGuard};
