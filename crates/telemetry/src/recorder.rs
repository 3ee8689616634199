//! The [`Recorder`] handle threaded through trainers and range tests.

use crate::event::Event;
use crate::sink::Sink;

/// Telemetry entry point held by a training loop.
///
/// A disabled recorder carries no sink; every emit path starts with an
/// inlined `None` check, so instrumented code pays a single predictable
/// branch when telemetry is off.
pub struct Recorder {
    sink: Option<Box<dyn Sink>>,
    /// Deterministic events in the trace so far — exactly the number of
    /// lines a JSONL encoding of the stream holds. Snapshotted at
    /// checkpoint time so resume can rewind the trace to the prefix the
    /// restored state has already produced.
    lines: u64,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.sink.is_some())
            .field("lines", &self.lines)
            .finish()
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::disabled()
    }
}

impl Recorder {
    /// A recorder that drops everything at negligible cost.
    pub fn disabled() -> Self {
        Recorder {
            sink: None,
            lines: 0,
        }
    }

    /// A recorder forwarding every event to `sink`.
    pub fn new(sink: Box<dyn Sink>) -> Self {
        Recorder {
            sink: Some(sink),
            lines: 0,
        }
    }

    /// Whether a sink is attached.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Sends one event to the sink (no-op when disabled).
    #[inline]
    pub fn emit(&mut self, event: Event) {
        if let Some(sink) = &mut self.sink {
            if !event.is_operational() {
                self.lines += 1;
            }
            sink.record(&event);
        }
    }

    /// Number of deterministic (non-operational) events emitted so far —
    /// the line count of a JSONL rendering of the stream.
    pub fn lines_emitted(&self) -> u64 {
        self.lines
    }

    /// Cuts the trace back to its first `lines` deterministic events and
    /// counts on from there, so later checkpoints carry absolute trace
    /// cursors: a fresh run rewinds to 0, a resumed one to its snapshot's
    /// cursor.
    ///
    /// # Errors
    ///
    /// The sink's: its trace holds fewer than `lines` events, or a
    /// filesystem error.
    pub fn rewind(&mut self, lines: u64) -> std::io::Result<()> {
        if let Some(sink) = &mut self.sink {
            sink.rewind(lines)?;
        }
        self.lines = lines;
        Ok(())
    }

    /// Flushes the sink's buffered output.
    pub fn flush(&mut self) {
        if let Some(sink) = &mut self.sink {
            sink.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::MemorySink;

    #[test]
    fn disabled_recorder_drops_everything() {
        let mut rec = Recorder::disabled();
        assert!(!rec.is_enabled());
        rec.emit(Event::RunEnd { metric: 1.0 });
        rec.flush();
        assert_eq!(rec.lines_emitted(), 0);
    }

    #[test]
    fn lines_emitted_counts_only_deterministic_events() {
        let mut rec = Recorder::new(Box::new(MemorySink::unbounded()));
        rec.emit(Event::RunEnd { metric: 1.0 });
        rec.emit(Event::Checkpoint { step: 1 });
        rec.emit(Event::GuardTrip {
            step: 1,
            what: "loss".into(),
            value: f64::NAN,
            action: "skip".into(),
        });
        assert_eq!(rec.lines_emitted(), 2);
        rec.rewind(40).unwrap();
        rec.emit(Event::RunEnd { metric: 1.0 });
        assert_eq!(rec.lines_emitted(), 41);

        // a disabled recorder counts nothing
        let mut off = Recorder::disabled();
        off.emit(Event::RunEnd { metric: 1.0 });
        assert_eq!(off.lines_emitted(), 0);
    }
}
