//! A thread-safe, process-wide metrics registry with Prometheus text
//! rendering.
//!
//! The [`Recorder`] threaded through training loops is deliberately
//! single-threaded (one recorder per run, sinks may hold `Rc`s). A server
//! hosting many concurrent runs needs the opposite: one shared place that
//! every worker thread and every HTTP handler can update, and that a
//! `/metrics` endpoint can render at any instant. [`MetricsRegistry`] is
//! that place — monotone counters, point-in-time gauges, and log-bucketed
//! duration [`Histogram`]s behind a single mutex, rendered in the
//! Prometheus text exposition format (`_bucket`/`_sum`/`_count` series,
//! so p50/p90/p99 are derivable by any Prometheus client).
//!
//! [`RegistrySink`] bridges the two worlds: it is a [`Sink`] that folds a
//! run's event stream into counters of a shared registry (steps, finished
//! runs, guard trips), so a per-job recorder can feed both its JSONL trace
//! and the server's `/metrics` via [`FanoutSink`].
//!
//! [`Recorder`]: crate::Recorder

use crate::event::Event;
use crate::hist::Histogram;
use crate::json;
use crate::sink::Sink;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// Running summary of an observed duration series.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TimerStat {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observations, in nanoseconds.
    pub sum_ns: u64,
    /// Smallest observation, in nanoseconds.
    pub min_ns: u64,
    /// Largest observation, in nanoseconds.
    pub max_ns: u64,
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    timers: BTreeMap<String, Histogram>,
}

/// Thread-safe counters, gauges, and timer histograms.
///
/// Metric names should be valid Prometheus identifiers
/// (`[a-zA-Z_][a-zA-Z0-9_]*`); [`MetricsRegistry::render_prometheus`]
/// sanitizes other characters to `_`. By convention counters end in
/// `_total`.
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry").finish_non_exhaustive()
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// A shared, clonable registry handle.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Adds `delta` to the named monotone counter.
    pub fn counter_inc(&self, name: &str, delta: u64) {
        let mut inner = self.lock();
        *inner.counters.entry(name.to_owned()).or_insert(0) += delta;
    }

    /// Current value of a counter (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// Sets the named gauge to `value`.
    pub fn gauge_set(&self, name: &str, value: f64) {
        self.lock().gauges.insert(name.to_owned(), value);
    }

    /// Current value of a gauge (0 if never set).
    pub fn gauge(&self, name: &str) -> f64 {
        self.lock().gauges.get(name).copied().unwrap_or(0.0)
    }

    /// Records one duration observation under `name`.
    pub fn timer_observe_ns(&self, name: &str, elapsed_ns: u64) {
        let mut inner = self.lock();
        inner
            .timers
            .entry(name.to_owned())
            .or_default()
            .observe_ns(elapsed_ns);
    }

    /// Summary of a timer series, if it has any observations.
    pub fn timer(&self, name: &str) -> Option<TimerStat> {
        self.lock().timers.get(name).map(Histogram::stat)
    }

    /// Estimated `q`-quantile of a timer series, in seconds.
    pub fn timer_quantile_seconds(&self, name: &str, q: f64) -> Option<f64> {
        self.lock()
            .timers
            .get(name)
            .map(|h| h.quantile_ns(q) as f64 * 1e-9)
    }

    /// Snapshot of every counter, sorted by name.
    pub fn counters(&self) -> Vec<(String, u64)> {
        self.lock()
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    /// Renders the registry in the Prometheus text exposition format:
    /// counters and gauges as single samples, timers as histograms with
    /// cumulative `_bucket{le="..."}` series plus `_sum` / `_count`
    /// (seconds). Output is deterministic (sorted by metric name).
    pub fn render_prometheus(&self) -> String {
        let inner = self.lock();
        let mut out = String::with_capacity(512);
        for (name, value) in &inner.counters {
            let name = sanitize(name);
            out.push_str(&format!("# TYPE {name} counter\n{name} {value}\n"));
        }
        for (name, value) in &inner.gauges {
            let name = sanitize(name);
            out.push_str(&format!(
                "# TYPE {name} gauge\n{name} {}\n",
                json::fmt_f64(*value)
            ));
        }
        for (name, hist) in &inner.timers {
            let name = sanitize(name);
            out.push_str(&format!("# TYPE {name}_seconds histogram\n"));
            for (bound, cum) in hist.cumulative_buckets() {
                let le = if bound.is_infinite() {
                    "+Inf".to_owned()
                } else {
                    json::fmt_f64(bound)
                };
                out.push_str(&format!("{name}_seconds_bucket{{le=\"{le}\"}} {cum}\n"));
            }
            let stat = hist.stat();
            out.push_str(&format!(
                "{name}_seconds_sum {}\n{name}_seconds_count {}\n",
                json::fmt_f64(stat.sum_ns as f64 * 1e-9),
                stat.count,
            ));
        }
        out
    }
}

/// Replaces any character outside `[a-zA-Z0-9_]` with `_` (and prefixes
/// `_` when the name would start with a digit), yielding a valid
/// Prometheus metric name.
fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        if c.is_ascii_alphanumeric() || c == '_' {
            if i == 0 && c.is_ascii_digit() {
                out.push('_');
            }
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// A [`Sink`] that folds a run's event stream into a shared
/// [`MetricsRegistry`]:
///
/// * every [`Event::Step`] increments `rex_train_steps_total`;
/// * [`Event::RunEnd`] increments `rex_train_runs_total`;
/// * guard trips increment `rex_train_guard_trips_total`.
#[derive(Debug)]
pub struct RegistrySink {
    registry: Arc<MetricsRegistry>,
}

impl RegistrySink {
    /// A sink feeding `registry`.
    pub fn new(registry: Arc<MetricsRegistry>) -> Self {
        RegistrySink { registry }
    }
}

impl Sink for RegistrySink {
    fn record(&mut self, event: &Event) {
        match event {
            Event::Step(_) => self.registry.counter_inc("rex_train_steps_total", 1),
            Event::RunEnd { .. } => self.registry.counter_inc("rex_train_runs_total", 1),
            Event::GuardTrip { .. } => {
                self.registry.counter_inc("rex_train_guard_trips_total", 1);
            }
            _ => {}
        }
    }
}

/// Broadcasts every event to several sinks in order — e.g. a job's JSONL
/// trace plus a server-wide [`RegistrySink`].
pub struct FanoutSink {
    sinks: Vec<Box<dyn Sink>>,
}

impl std::fmt::Debug for FanoutSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FanoutSink")
            .field("sinks", &self.sinks.len())
            .finish()
    }
}

impl FanoutSink {
    /// A fanout over `sinks` (events are delivered in vector order).
    pub fn new(sinks: Vec<Box<dyn Sink>>) -> Self {
        FanoutSink { sinks }
    }
}

impl Sink for FanoutSink {
    fn record(&mut self, event: &Event) {
        for sink in &mut self.sinks {
            sink.record(event);
        }
    }

    fn flush(&mut self) {
        for sink in &mut self.sinks {
            sink.flush();
        }
    }

    fn rewind(&mut self, lines: u64) -> std::io::Result<()> {
        (self.sinks.iter_mut()).try_for_each(|sink| sink.rewind(lines))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::StepRecord;
    use crate::sink::MemorySink;

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
    fn counters_gauges_timers_accumulate() {
        let reg = MetricsRegistry::new();
        reg.counter_inc("rex_jobs_submitted_total", 2);
        reg.counter_inc("rex_jobs_submitted_total", 3);
        assert_eq!(reg.counter("rex_jobs_submitted_total"), 5);
        assert_eq!(reg.counter("missing"), 0);

        reg.gauge_set("rex_queue_depth", 4.0);
        assert_eq!(reg.gauge("rex_queue_depth"), 4.0);

        reg.timer_observe_ns("rex_job_duration", 100);
        reg.timer_observe_ns("rex_job_duration", 40);
        reg.timer_observe_ns("rex_job_duration", 160);
        let stat = reg.timer("rex_job_duration").unwrap();
        assert_eq!(stat.count, 3);
        assert_eq!(stat.sum_ns, 300);
        assert_eq!(stat.min_ns, 40);
        assert_eq!(stat.max_ns, 160);
        assert!(reg.timer("missing").is_none());
    }

    #[test]
    fn prometheus_rendering_is_deterministic_and_typed() {
        let reg = MetricsRegistry::new();
        reg.counter_inc("b_total", 1);
        reg.counter_inc("a_total", 2);
        reg.gauge_set("depth", 1.5);
        reg.timer_observe_ns("lat", 2_000_000_000);
        let text = reg.render_prometheus();
        assert_eq!(text, reg.render_prometheus(), "rendering must be stable");
        let lines: Vec<&str> = text.lines().collect();
        // counters sorted, then gauges, then timers
        assert_eq!(lines[0], "# TYPE a_total counter");
        assert_eq!(lines[1], "a_total 2");
        assert_eq!(lines[2], "# TYPE b_total counter");
        assert_eq!(lines[3], "b_total 1");
        assert!(text.contains("# TYPE depth gauge\ndepth 1.5\n"));
        assert!(text.contains("# TYPE lat_seconds histogram\n"));
        assert!(text.contains("lat_seconds_bucket{le=\"+Inf\"} 1\n"));
        assert!(text.contains("lat_seconds_count 1\n"));
        assert!(text.contains("lat_seconds_sum 2\n"));
        // the retired min/max summary gauges stay out
        assert!(!text.contains("lat_min_seconds"));
    }

    #[test]
    fn histogram_rendering_exposes_buckets_and_quantiles() {
        let reg = MetricsRegistry::new();
        // 9 fast (2 µs) + 1 slow (1 s) observation
        for _ in 0..9 {
            reg.timer_observe_ns("lat", 2_000);
        }
        reg.timer_observe_ns("lat", 1_000_000_000);
        let text = reg.render_prometheus();
        // cumulative bucket series: the 2 µs bucket holds 9, +Inf all 10
        assert!(text.contains("lat_seconds_bucket{le=\"0.000002048\"} 9\n"));
        assert!(text.contains("lat_seconds_bucket{le=\"+Inf\"} 10\n"));
        assert!(text.contains("lat_seconds_count 10\n"));
        // p50/p99 derivable from the same data via the registry API
        let p50 = reg.timer_quantile_seconds("lat", 0.50).unwrap();
        let p99 = reg.timer_quantile_seconds("lat", 0.99).unwrap();
        assert!(p50 < 0.001, "p50 = {p50}");
        assert!(p99 > 0.1, "p99 = {p99}");
    }

    #[test]
    fn metric_names_are_sanitized() {
        let reg = MetricsRegistry::new();
        reg.counter_inc("train/steps.total", 1);
        reg.gauge_set("1weird", 0.0);
        let text = reg.render_prometheus();
        assert!(text.contains("train_steps_total 1"));
        assert!(text.contains("_1weird 0"));
    }

    #[test]
    fn registry_sink_folds_events() {
        let reg = MetricsRegistry::shared();
        let mut sink = RegistrySink::new(Arc::clone(&reg));
        sink.record(&step(0));
        sink.record(&step(1));
        sink.record(&Event::Checkpoint { step: 2 });
        sink.record(&Event::RunEnd { metric: 1.0 });
        sink.record(&Event::GuardTrip {
            step: 3,
            what: "loss".into(),
            value: f64::NAN,
            action: "skip".into(),
        });
        assert_eq!(reg.counter("rex_train_steps_total"), 2);
        assert_eq!(reg.counter("rex_train_runs_total"), 1);
        assert_eq!(reg.counter("rex_train_guard_trips_total"), 1);
        assert_eq!(reg.counters().len(), 3, "{:?}", reg.counters());
    }

    #[test]
    fn registry_is_shareable_across_threads() {
        let reg = MetricsRegistry::shared();
        let mut handles = Vec::new();
        for _ in 0..4 {
            let reg = Arc::clone(&reg);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    reg.counter_inc("spins_total", 1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(reg.counter("spins_total"), 4000);
    }

    #[test]
    fn fanout_delivers_to_every_sink() {
        let a = MemorySink::unbounded();
        let ha = a.handle();
        let b = MemorySink::unbounded();
        let hb = b.handle();
        let mut tee = FanoutSink::new(vec![Box::new(a), Box::new(b)]);
        tee.record(&step(0));
        tee.record(&Event::RunEnd { metric: 0.0 });
        tee.flush();
        assert_eq!(ha.len(), 2);
        assert_eq!(hb.len(), 2);
    }
}
