//! The [`Recorder`] handle threaded through trainers, optimizers, and
//! loaders.

use crate::event::Event;
use crate::sink::Sink;
use std::collections::BTreeMap;
use std::time::Instant;

/// Telemetry entry point held by a training loop.
///
/// A disabled recorder carries no sink; every emit path starts with an
/// inlined `None` check, so instrumented code pays a single predictable
/// branch when telemetry is off.
pub struct Recorder {
    sink: Option<Box<dyn Sink>>,
    counters: BTreeMap<String, u64>,
    /// Deterministic events emitted so far — exactly the number of lines a
    /// timing-off JSONL encoding of the stream would hold. Snapshotted at
    /// checkpoint time so resume can truncate a trace file to the prefix
    /// the restored state has already produced.
    lines: u64,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.sink.is_some())
            .field("counters", &self.counters)
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
            counters: BTreeMap::new(),
            lines: 0,
        }
    }

    /// A recorder forwarding every event to `sink`.
    pub fn new(sink: Box<dyn Sink>) -> Self {
        Recorder {
            sink: Some(sink),
            counters: BTreeMap::new(),
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
    /// the line count of a timing-off JSONL rendering of the stream.
    pub fn lines_emitted(&self) -> u64 {
        self.lines
    }

    /// Overrides the deterministic-event count; called on resume so later
    /// checkpoints carry absolute trace cursors.
    pub fn set_lines_emitted(&mut self, lines: u64) {
        self.lines = lines;
    }

    /// Increments the named monotone counter by `delta` and emits its new
    /// cumulative value.
    pub fn counter(&mut self, name: &str, delta: u64) {
        if self.sink.is_none() {
            return;
        }
        let value = self
            .counters
            .entry(name.to_owned())
            .and_modify(|v| *v += delta)
            .or_insert(delta);
        let value = *value;
        self.emit(Event::Counter {
            name: name.to_owned(),
            value,
        });
    }

    /// Current cumulative value of a counter (0 if never incremented).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Emits a point-in-time measurement.
    #[inline]
    pub fn gauge(&mut self, name: &str, value: f64) {
        if self.sink.is_some() {
            self.emit(Event::Gauge {
                name: name.to_owned(),
                value,
            });
        }
    }

    /// Times `f` and emits a [`Event::Timer`] with the elapsed wall-clock
    /// nanoseconds. When disabled, `f` runs without any clock reads.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        if self.sink.is_none() {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let elapsed_ns = start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        self.emit(Event::Timer {
            name: name.to_owned(),
            elapsed_ns,
        });
        out
    }

    /// Starts a scoped timer; the elapsed time is read when the guard is
    /// passed back to [`Recorder::stop`].
    pub fn start_timer(&self, name: &str) -> TimerGuard {
        TimerGuard {
            name: name.to_owned(),
            start: if self.is_enabled() {
                Some(Instant::now())
            } else {
                None
            },
        }
    }

    /// Stops a timer started with [`Recorder::start_timer`] and emits its
    /// event.
    pub fn stop(&mut self, guard: TimerGuard) {
        if let Some(start) = guard.start {
            let elapsed_ns = start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
            self.emit(Event::Timer {
                name: guard.name,
                elapsed_ns,
            });
        }
    }

    /// Flushes the sink's buffered output.
    pub fn flush(&mut self) {
        if let Some(sink) = &mut self.sink {
            sink.flush();
        }
    }
}

/// Handle for a scoped wall-clock timer; see [`Recorder::start_timer`].
#[derive(Debug)]
pub struct TimerGuard {
    name: String,
    start: Option<Instant>,
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
        rec.counter("c", 5);
        rec.gauge("g", 1.0);
        assert_eq!(rec.counter_value("c"), 0);
        let ran = rec.time("t", || 42);
        assert_eq!(ran, 42);
    }

    #[test]
    fn counters_accumulate() {
        let sink = MemorySink::unbounded();
        let handle = sink.handle();
        let mut rec = Recorder::new(Box::new(sink));
        rec.counter("steps", 1);
        rec.counter("steps", 1);
        rec.counter("steps", 3);
        assert_eq!(rec.counter_value("steps"), 5);
        let values: Vec<u64> = handle
            .events()
            .iter()
            .filter_map(|ev| match ev {
                Event::Counter { value, .. } => Some(*value),
                _ => None,
            })
            .collect();
        assert_eq!(values, vec![1, 2, 5]);
    }

    #[test]
    fn lines_emitted_counts_only_deterministic_events() {
        let mut rec = Recorder::new(Box::new(MemorySink::unbounded()));
        rec.emit(Event::RunEnd { metric: 1.0 });
        rec.emit(Event::Checkpoint { step: 1 });
        rec.emit(Event::Timer {
            name: "t".into(),
            elapsed_ns: 1,
        });
        rec.emit(Event::Resume { step: 1 });
        rec.emit(Event::GuardTrip {
            step: 1,
            what: "loss".into(),
            value: f64::NAN,
            action: "skip".into(),
        });
        assert_eq!(rec.lines_emitted(), 2);
        rec.set_lines_emitted(40);
        rec.emit(Event::RunEnd { metric: 1.0 });
        assert_eq!(rec.lines_emitted(), 41);

        // a disabled recorder counts nothing
        let mut off = Recorder::disabled();
        off.emit(Event::RunEnd { metric: 1.0 });
        assert_eq!(off.lines_emitted(), 0);
    }

    #[test]
    fn timers_emit_events() {
        let sink = MemorySink::unbounded();
        let handle = sink.handle();
        let mut rec = Recorder::new(Box::new(sink));
        let out = rec.time("closure", || 7u32);
        assert_eq!(out, 7);
        let guard = rec.start_timer("scoped");
        rec.stop(guard);
        let names: Vec<String> = handle
            .events()
            .iter()
            .filter_map(|ev| match ev {
                Event::Timer { name, .. } => Some(name.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(names, vec!["closure".to_owned(), "scoped".to_owned()]);
    }
}
