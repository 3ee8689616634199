//! Pluggable telemetry backends.

use crate::event::Event;
use std::cell::RefCell;
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::rc::Rc;

/// A telemetry backend that consumes [`Event`]s from a [`Recorder`].
///
/// [`Recorder`]: crate::Recorder
pub trait Sink {
    /// Consume one event.
    fn record(&mut self, event: &Event);
    /// Flush any buffered output (default: no-op).
    fn flush(&mut self) {}
    /// Cut the stored trace back to its first `lines` events before a run
    /// records into it (default: no-op, for sinks that store no trace).
    ///
    /// # Errors
    ///
    /// The trace holds fewer than `lines` events, or a filesystem error.
    fn rewind(&mut self, _lines: u64) -> io::Result<()> {
        Ok(())
    }
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
    /// The trace file behind the writer, with its path: `flush` fsyncs it
    /// (the trace is the resume contract's source of truth, so its flushed
    /// prefix must actually be durable) and `rewind` cuts it.
    file: Option<(PathBuf, File)>,
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
    /// Opens the trace at `path` for appending without truncating it,
    /// creating the file and its parent directories as needed. The run
    /// recording into it rewinds it: to nothing when fresh, to its
    /// snapshot's cursor when resumed.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from directory or file creation.
    pub fn open(path: &Path) -> io::Result<Self> {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)?;
        }
        let file = OpenOptions::new().append(true).create(true).open(path)?;
        let handle = file.try_clone()?;
        let mut sink = Self::from_writer(Box::new(file));
        sink.file = Some((path.to_owned(), handle));
        Ok(sink)
    }

    /// [`open`](Self::open), emptying the file.
    ///
    /// # Errors
    ///
    /// As [`open`](Self::open).
    pub fn create(path: &Path) -> io::Result<Self> {
        let mut sink = Self::open(path)?;
        sink.rewind(0)?;
        Ok(sink)
    }

    /// Wraps an arbitrary writer, which [`Sink::rewind`] leaves as it is.
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
        let Some((_, file)) = self.file.as_ref().filter(|_| self.unsynced) else {
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
            if let Some((_, file)) = &self.file {
                // a `kill-on-write=trace:N:mid` plan dies here with half
                // the line on disk — the torn trailing line a real
                // mid-append kill leaves behind
                rex_faults::append_crash_point("trace", Some(file), line.as_bytes());
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

    /// Rewinding to 0 (a fresh run) empties the file in place. Any other
    /// cursor (a resumed run) drops a torn trailing line with a warning,
    /// refuses a file with fewer complete lines, and rewrites the kept
    /// prefix through `atomic_write`. Every error names the file.
    fn rewind(&mut self, lines: u64) -> io::Result<()> {
        let Some((path, file)) = &self.file else {
            return Ok(());
        };
        let path = path.clone();
        let named =
            |e: io::Error| io::Error::new(e.kind(), format!("trace {}: {e}", path.display()));
        self.writer.flush().map_err(named)?;
        if lines == 0 {
            return file.set_len(0).map_err(named);
        }
        let text = std::fs::read_to_string(&path).map_err(named)?;
        // an unterminated tail is a torn append from a mid-write kill,
        // whether it falls before or after the cursor
        if !text.is_empty() && !text.ends_with('\n') {
            eprintln!(
                "rex-telemetry: dropping torn trailing line of {} (interrupted append)",
                path.display()
            );
        }
        let complete: Vec<&str> = (text.split_inclusive('\n'))
            .filter(|line| line.ends_with('\n'))
            .collect();
        let kept = usize::try_from(lines).ok().and_then(|n| complete.get(..n));
        let Some(kept) = kept else {
            return Err(named(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "holds {} complete lines but the checkpoint cursor is {lines}; \
                     it does not belong to this checkpoint",
                    complete.len()
                ),
            )));
        };
        rex_faults::atomic_write("trace", &path, kept.concat().as_bytes()).map_err(named)?;
        *self = Self::open(&path).map_err(named)?;
        Ok(())
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

    /// A temp trace holding `n` complete step lines.
    fn trace_of(tag: &str, n: u64) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("rex_sink_{tag}_{}.jsonl", std::process::id()));
        let mut sink = JsonlSink::create(&path).unwrap();
        for i in 0..n {
            sink.record(&step(i));
        }
        path
    }

    /// Appends a torn fragment, as a kill mid-append leaves one.
    fn tear(path: &Path) {
        use std::io::Write as _;
        let mut f = OpenOptions::new().append(true).open(path).unwrap();
        f.write_all(b"{\"type\":\"step\",\"st").unwrap();
    }

    #[test]
    fn jsonl_rewind_keeps_the_cursor_prefix_and_appends() {
        let path = trace_of("rewind", 5);
        {
            let mut sink = JsonlSink::open(&path).unwrap();
            sink.rewind(3).unwrap();
            sink.record(&step(3));
            sink.record(&Event::RunEnd { metric: 0.5 });
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 5);
        let events = crate::parse_trace(&text).unwrap();
        assert_eq!(events[3].as_step().unwrap().step, 3);
        assert_eq!(events[4], Event::RunEnd { metric: 0.5 });
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn jsonl_rewind_drops_a_torn_trailing_line() {
        let path = trace_of("torn", 3);
        tear(&path);
        // the torn fragment is dropped; the 3 complete lines resume fine
        {
            let mut sink = JsonlSink::open(&path).unwrap();
            sink.rewind(3).unwrap();
            sink.record(&step(3));
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.ends_with('\n'));
        let events = crate::parse_trace(&text).unwrap();
        assert_eq!(events.len(), 4);
        assert_eq!(events[3].as_step().unwrap().step, 3);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn jsonl_rewind_refuses_a_cursor_past_the_last_complete_line() {
        let path = trace_of("short", 4);
        // a torn fragment must never be promoted to a complete line: a
        // cursor that would need it is a hard mismatch, not silent reuse
        tear(&path);
        for cursor in [5, 99] {
            let err = JsonlSink::open(&path).unwrap().rewind(cursor).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            let msg = err.to_string();
            assert!(msg.contains("4 complete lines"), "{msg}");
            assert!(msg.contains(&path.display().to_string()), "{msg}");
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn jsonl_fresh_run_over_an_existing_trace_starts_empty() {
        let path = trace_of("fresh", 4);
        tear(&path);
        {
            let mut sink = JsonlSink::open(&path).unwrap();
            sink.rewind(0).unwrap();
            sink.record(&step(0));
        }
        let events = crate::parse_trace(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(events, vec![step(0)]);
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
