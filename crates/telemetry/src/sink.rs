//! Pluggable telemetry backends.

use crate::event::Event;
use std::cell::RefCell;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::rc::Rc;

/// A telemetry backend that consumes [`Event`]s from a [`Recorder`].
///
/// [`Recorder`]: crate::Recorder
pub trait Sink {
    /// Consume one event.
    fn record(&mut self, event: &Event);
    /// Flush any buffered output (default: no-op).
    fn flush(&mut self) {}
}

/// Shared, cloneable view into a [`MemorySink`]'s buffer.
///
/// The sink itself is moved into the [`Recorder`], so tests keep a handle
/// to read events back while the recorder is live.
///
/// [`Recorder`]: crate::Recorder
#[derive(Debug, Clone)]
pub struct MemoryHandle {
    buf: Rc<RefCell<Vec<Event>>>,
}

impl MemoryHandle {
    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.buf.borrow().len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.buf.borrow().is_empty()
    }

    /// Snapshot of the buffered events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.buf.borrow().clone()
    }

    /// Snapshot of the buffered step records, oldest first.
    pub fn steps(&self) -> Vec<crate::StepRecord> {
        self.buf
            .borrow()
            .iter()
            .filter_map(|ev| ev.as_step().cloned())
            .collect()
    }
}

/// In-memory sink for tests and interactive inspection: keeps every
/// event it receives.
#[derive(Debug)]
pub struct MemorySink {
    buf: Rc<RefCell<Vec<Event>>>,
}

impl MemorySink {
    /// An empty buffer that keeps everything.
    pub fn unbounded() -> Self {
        MemorySink { buf: Rc::default() }
    }

    /// A shared handle onto this sink's buffer, usable after the sink is
    /// boxed into a recorder.
    pub fn handle(&self) -> MemoryHandle {
        MemoryHandle {
            buf: Rc::clone(&self.buf),
        }
    }
}

impl Sink for MemorySink {
    fn record(&mut self, event: &Event) {
        self.buf.borrow_mut().push(event.clone());
    }
}

/// JSON-lines writer sink, one deterministic event per line (operational
/// events are skipped), so same-seed runs produce byte-identical files.
pub struct JsonlSink {
    writer: BufWriter<Box<dyn Write>>,
    /// The underlying file when writing to one, kept so `flush` can fsync:
    /// the trace is the resume contract's source of truth, so its flushed
    /// prefix must actually be durable.
    file: Option<File>,
    /// Whether a line was written since the last fsync: a flush with
    /// nothing new skips it.
    unsynced: bool,
}

impl std::fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink")
            .field("file", &self.file.is_some())
            .finish_non_exhaustive()
    }
}

impl JsonlSink {
    /// Creates (truncating) the file at `path`, building parent directories
    /// as needed.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from directory or file creation.
    pub fn create(path: &Path) -> io::Result<Self> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = File::create(path)?;
        let handle = file.try_clone().ok();
        let mut sink = Self::from_writer(Box::new(file));
        sink.file = handle;
        Ok(sink)
    }

    /// Re-opens an existing trace for a resumed run: keeps exactly the
    /// first `keep_lines` lines (the prefix the restored training state
    /// had already emitted — [`Recorder::lines_emitted`] at checkpoint
    /// time), atomically rewrites the file to that prefix, and appends
    /// from there. The finished resumed trace is byte-identical to an
    /// uninterrupted run's.
    ///
    /// [`Recorder::lines_emitted`]: crate::Recorder::lines_emitted
    ///
    /// A kill mid-append can leave a torn final line (no trailing
    /// newline); only `\n`-terminated lines count as complete, and a torn
    /// trailing fragment past the cursor is truncated away with a logged
    /// warning rather than silently promoted to a complete line.
    ///
    /// # Errors
    ///
    /// Fails with `InvalidData` when the file holds fewer than
    /// `keep_lines` complete lines (the trace and checkpoint are from
    /// different runs, or the trace was not flushed at checkpoint time);
    /// propagates filesystem errors.
    pub fn resume(path: &Path, keep_lines: u64) -> io::Result<Self> {
        let text = std::fs::read_to_string(path)?;
        let mut kept = String::with_capacity(text.len());
        let mut count = 0u64;
        // an unterminated tail is a torn append from a mid-write kill,
        // whether it falls before or after the cursor
        let torn = !text.is_empty() && !text.ends_with('\n');
        for line in text.split_inclusive('\n') {
            if count == keep_lines || !line.ends_with('\n') {
                break;
            }
            kept.push_str(line);
            count += 1;
        }
        if torn {
            eprintln!(
                "rex-telemetry: dropping torn trailing line of {} (interrupted append)",
                path.display()
            );
        }
        if count < keep_lines {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "trace {} holds {count} complete lines but the checkpoint cursor is \
                     {keep_lines}; it does not belong to this checkpoint",
                    path.display()
                ),
            ));
        }
        rex_faults::atomic_write("trace", path, kept.as_bytes())?;
        let file = std::fs::OpenOptions::new().append(true).open(path)?;
        let handle = file.try_clone().ok();
        let mut sink = Self::from_writer(Box::new(file));
        sink.file = handle;
        Ok(sink)
    }

    /// Wraps an arbitrary writer.
    pub fn from_writer(writer: Box<dyn Write>) -> Self {
        JsonlSink {
            writer: BufWriter::new(writer),
            file: None,
            unsynced: false,
        }
    }

    /// Makes the flushed prefix durable: resume truncates the trace to the
    /// checkpoint's line cursor, which must exist on disk even if the
    /// process is killed right after checkpointing. fsyncs only when a
    /// line was written since the last fsync, and says whether it did.
    fn fsync_new_lines(&mut self) -> bool {
        let Some(file) = self.file.as_ref().filter(|_| self.unsynced) else {
            return false;
        };
        rex_faults::fsync_file(file);
        self.unsynced = false;
        true
    }
}

impl Sink for JsonlSink {
    fn record(&mut self, event: &Event) {
        if let Some(line) = event.to_jsonl() {
            if self.file.is_some() {
                // a `kill-on-write=trace:N:mid` plan dies here with half
                // the line on disk — the torn trailing line a real
                // mid-append kill leaves behind
                rex_faults::append_crash_point("trace", self.file.as_ref(), line.as_bytes());
            }
            // Telemetry must not abort training on a full disk; drop the
            // line and keep going.
            let _ = writeln!(self.writer, "{line}");
            self.unsynced = true;
        }
    }

    fn flush(&mut self) {
        let _ = self.writer.flush();
        self.fsync_new_lines();
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        Sink::flush(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::StepRecord;

    fn step(i: u64) -> Event {
        Event::Step(StepRecord {
            step: i,
            epoch: 0,
            batch_id: i,
            lr: 0.1,
            loss: 1.0,
            grad_norm: 0.5,
            param_norm: 2.0,
        })
    }

    #[test]
    fn unbounded_keeps_everything() {
        let mut sink = MemorySink::unbounded();
        let handle = sink.handle();
        assert!(handle.is_empty());
        for i in 0..100 {
            sink.record(&step(i));
        }
        assert_eq!(handle.len(), 100);
        assert_eq!(handle.steps()[99].step, 99);
    }

    #[test]
    fn jsonl_resume_truncates_to_cursor_and_appends() {
        let path =
            std::env::temp_dir().join(format!("rex_sink_resume_{}.jsonl", std::process::id()));
        {
            let mut sink = JsonlSink::create(&path).unwrap();
            for i in 0..5 {
                sink.record(&step(i));
            }
        }
        // resume keeping 3 lines, then append two fresh ones
        {
            let mut sink = JsonlSink::resume(&path, 3).unwrap();
            sink.record(&step(3));
            sink.record(&Event::RunEnd { metric: 0.5 });
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 5);
        let events = crate::parse_trace(&text).unwrap();
        assert_eq!(events[3].as_step().unwrap().step, 3);
        assert_eq!(events[4], Event::RunEnd { metric: 0.5 });

        // a cursor beyond the file length is a hard error
        let err = JsonlSink::resume(&path, 99).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn jsonl_resume_truncates_a_torn_trailing_line() {
        let path = std::env::temp_dir().join(format!("rex_sink_torn_{}.jsonl", std::process::id()));
        {
            let mut sink = JsonlSink::create(&path).unwrap();
            for i in 0..3 {
                sink.record(&step(i));
            }
        }
        // model a kill mid-append: a trailing fragment with no newline
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            f.write_all(b"{\"type\":\"step\",\"st").unwrap();
        }
        // the torn fragment is dropped; the 3 complete lines resume fine
        {
            let mut sink = JsonlSink::resume(&path, 3).unwrap();
            sink.record(&step(3));
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.ends_with('\n'));
        let events = crate::parse_trace(&text).unwrap();
        assert_eq!(events.len(), 4);
        assert_eq!(events[3].as_step().unwrap().step, 3);

        // a torn fragment must never be promoted to a complete line: a
        // cursor that would need it is a hard mismatch, not silent reuse
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            f.write_all(b"{\"type\":\"step\",\"st").unwrap();
        }
        let err = JsonlSink::resume(&path, 5).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("4 complete lines"), "{err}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn jsonl_flush_fsyncs_only_new_lines() {
        let path =
            std::env::temp_dir().join(format!("rex_sink_fsync_{}.jsonl", std::process::id()));
        let mut sink = JsonlSink::create(&path).unwrap();
        assert!(!sink.fsync_new_lines(), "nothing written yet");
        sink.record(&step(0));
        sink.flush();
        assert_eq!(std::fs::read_to_string(&path).unwrap().lines().count(), 1);
        // a second flush (the recorder's, or the drop's) has nothing new
        assert!(!sink.fsync_new_lines(), "fsynced twice for one line");
        sink.record(&step(1));
        let _ = sink.writer.flush();
        assert!(sink.fsync_new_lines(), "a new line must be fsynced");
        assert!(!sink.fsync_new_lines());
        drop(sink);
        assert_eq!(std::fs::read_to_string(&path).unwrap().lines().count(), 2);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let buf: Rc<RefCell<Vec<u8>>> = Rc::default();

        struct Shared(Rc<RefCell<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, data: &[u8]) -> io::Result<usize> {
                self.0.borrow_mut().extend_from_slice(data);
                Ok(data.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let mut sink = JsonlSink::from_writer(Box::new(Shared(Rc::clone(&buf))));
        sink.record(&step(0));
        sink.record(&Event::GuardTrip {
            step: 1,
            what: "loss".into(),
            value: f64::NAN,
            action: "skip".into(),
        });
        sink.record(&Event::RunEnd { metric: 0.5 });
        sink.flush();

        let text = String::from_utf8(buf.borrow().clone()).unwrap();
        let events = crate::parse_trace(&text).unwrap();
        // the guard trip is operational: no line
        assert_eq!(events, vec![step(0), Event::RunEnd { metric: 0.5 }]);
    }
}
