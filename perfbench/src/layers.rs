//! Per-layer metrics of the traced run, named after the crates.
//!
//! Span profiles are folded per setting into path-keyed rows as each
//! cell finishes, so a long traced run keeps no event stream in memory.
//! Every per-step figure counts only spans nested under a `step` span.
//! A layer the workload never runs reports 0; `NOTES.md` says which.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use rex_telemetry::{Event, JsonlSink, Profile, Recorder};

use crate::{median, Outcome};

/// The settings `train.step_ms.*` names: those the workloads run, fixed
/// like every metric name in `BENCHMARK.json`.
pub const SETTINGS: [&str; 2] = ["vae-mnist", "digits-mlp"];

#[derive(Default, Clone, Copy)]
struct Row {
    calls: u64,
    inclusive_ns: u64,
    exclusive_ns: u64,
}

/// Phase-table rows summed over many profiles, per setting.
#[derive(Default)]
pub struct Spans {
    by_setting: BTreeMap<String, BTreeMap<String, Row>>,
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

impl Spans {
    pub fn add(&mut self, setting: &str, profile: &Profile) {
        let rows = self.by_setting.entry(setting.to_owned()).or_default();
        for r in profile.phase_table() {
            let row = rows.entry(r.path).or_default();
            row.calls += r.calls;
            row.inclusive_ns += r.inclusive_ns;
            row.exclusive_ns += r.exclusive_ns;
        }
    }

    fn rows(&self) -> impl Iterator<Item = (&str, &Row)> {
        self.by_setting
            .values()
            .flat_map(|rows| rows.iter().map(|(p, r)| (p.as_str(), r)))
    }

    /// Optimizer steps recorded (calls of `step` spans).
    pub fn steps(&self) -> u64 {
        self.rows()
            .filter(|(p, _)| name(p) == "step")
            .map(|(_, r)| r.calls)
            .sum()
    }

    /// Mean inclusive time of spans called `span`, over every setting.
    pub fn mean_ms(&self, span: &str) -> f64 {
        let (calls, ns) = self
            .rows()
            .filter(|(p, _)| name(p) == span)
            .fold((0, 0), |(c, n), (_, r)| (c + r.calls, n + r.inclusive_ns));
        if calls == 0 {
            0.0
        } else {
            ms(ns) / calls as f64
        }
    }

    fn step_ms(&self, setting: &str) -> f64 {
        let Some(rows) = self.by_setting.get(setting) else {
            return 0.0;
        };
        let (calls, ns) = rows
            .iter()
            .filter(|(p, _)| name(p) == "step")
            .fold((0, 0), |(c, n), (_, r)| (c + r.calls, n + r.inclusive_ns));
        if calls == 0 {
            0.0
        } else {
            ms(ns) / calls as f64
        }
    }
}

fn name(path: &str) -> &str {
    path.rsplit('/').next().unwrap_or(path)
}

fn under_step(path: &str) -> bool {
    path.split('/').any(|c| c == "step")
}

/// A `gemm` span nested in another GEMM span is already counted.
fn outermost_gemm(path: &str) -> bool {
    let mut parts = path.split('/').rev();
    let own = parts.next().unwrap_or("");
    matches!(own, "gemm" | "gemm_batch")
        && !parts.any(|c| matches!(c, "gemm" | "gemm_batch" | "qgemm"))
}

/// Measurements that do not come from span profiles.
#[derive(Default)]
pub struct Extras {
    /// Allocations and bytes while counting, and the steps they cover.
    pub allocs: u64,
    pub alloc_bytes: u64,
    pub alloc_steps: u64,
    pub synth_ms: f64,
    pub ckpt_ms: f64,
    pub snapshot_bytes: f64,
    pub atomic_write_ms: f64,
    pub trace_bytes_per_step: f64,
    pub emit_us_per_step: f64,
    pub serve_submit_ms_p50: f64,
    pub serve_post_ms_p50: f64,
    pub serve_get_ms_p50: f64,
    pub serve_run_ms_mean: f64,
    pub serve_queue_wait_ms_p95: f64,
    pub serve_requests_per_job: f64,
    pub serve_rejected: f64,
    /// `rex_pool::stats()` deltas over the steps in `pool_steps`.
    pub pool_tasks: f64,
    pub pool_queue_wait_ns: f64,
    pub pool_exec_ns: f64,
    pub pool_utilization: f64,
    pub pool_steps: u64,
    pub gen_late_ms_max: f64,
}

/// Adds every per-layer metric to `out`, in a fixed order.
pub fn report(out: &mut Outcome, spans: &Spans, x: &Extras) {
    let steps = spans.steps().max(1) as f64;
    let (mut gemm, mut gemm_calls) = (0u64, 0u64);
    let (mut fwd, mut bwd, mut opt, mut data) = (0u64, 0u64, 0u64, 0u64);
    let (mut job_calls, mut job_self) = (0u64, 0u64);
    for (path, r) in spans.rows() {
        if path == "job" {
            job_calls += r.calls;
            job_self += r.exclusive_ns;
        }
        if !under_step(path) {
            continue;
        }
        if outermost_gemm(path) {
            gemm += r.inclusive_ns;
            gemm_calls += r.calls;
        }
        match name(path) {
            "forward" => fwd += r.exclusive_ns,
            "backward" => bwd += r.exclusive_ns,
            "optimizer" => opt += r.inclusive_ns,
            "data" => data += r.inclusive_ns,
            _ => {}
        }
    }
    let per_step = |ns: u64| ms(ns) / steps;
    out.layer("tensor.gemm_ms_per_step", per_step(gemm), "ms");
    out.layer(
        "tensor.gemm_calls_per_step",
        gemm_calls as f64 / steps,
        "count",
    );
    out.layer("autograd.fwd_self_ms_per_step", per_step(fwd), "ms");
    out.layer("autograd.bwd_self_ms_per_step", per_step(bwd), "ms");
    let alloc_steps = x.alloc_steps.max(1) as f64;
    out.layer(
        "autograd.allocs_per_step",
        x.allocs as f64 / alloc_steps,
        "count",
    );
    out.layer(
        "autograd.alloc_bytes_per_step",
        x.alloc_bytes as f64 / alloc_steps,
        "bytes",
    );
    out.layer("optim.ms_per_step", per_step(opt), "ms");
    out.layer("data.ms_per_step", per_step(data), "ms");
    out.layer("data.synth_ms", x.synth_ms, "ms");
    for setting in SETTINGS {
        out.layer(
            &format!("train.step_ms.{setting}"),
            spans.step_ms(setting),
            "ms",
        );
    }
    out.layer(
        "train.eval_ms_per_cell",
        if job_calls == 0 {
            0.0
        } else {
            ms(job_self) / job_calls as f64
        },
        "ms",
    );
    out.layer("train.ckpt_ms", x.ckpt_ms, "ms");
    out.layer("train.snapshot_bytes", x.snapshot_bytes, "bytes");
    out.layer("faults.atomic_write_ms", x.atomic_write_ms, "ms");
    out.layer(
        "telemetry.trace_bytes_per_step",
        x.trace_bytes_per_step,
        "bytes",
    );
    out.layer("telemetry.emit_us_per_step", x.emit_us_per_step, "us");
    out.layer("serve.submit_ms_p50", x.serve_submit_ms_p50, "ms");
    out.layer("serve.post_ms_p50", x.serve_post_ms_p50, "ms");
    out.layer("serve.get_ms_p50", x.serve_get_ms_p50, "ms");
    out.layer("serve.run_ms_mean", x.serve_run_ms_mean, "ms");
    out.layer("serve.queue_wait_ms_p95", x.serve_queue_wait_ms_p95, "ms");
    out.layer("serve.requests_per_job", x.serve_requests_per_job, "count");
    out.layer("serve.rejected", x.serve_rejected, "count");
    let pool_steps = x.pool_steps.max(1) as f64;
    out.layer("pool.tasks_per_step", x.pool_tasks / pool_steps, "count");
    out.layer(
        "pool.queue_wait_ms_per_step",
        x.pool_queue_wait_ns / 1e6 / pool_steps,
        "ms",
    );
    out.layer(
        "pool.exec_ms_per_step",
        x.pool_exec_ns / 1e6 / pool_steps,
        "ms",
    );
    out.layer("pool.utilization", x.pool_utilization, "share");
    out.layer("gen.late_ms_max", x.gen_late_ms_max, "ms");
}

/// Median time of one `rex_faults::atomic_write` of `bytes` bytes into
/// `dir`, over 15 writes.
pub fn atomic_write_ms(dir: &Path, bytes: usize) -> Result<f64, String> {
    let payload = vec![0xA5u8; bytes.max(1)];
    let path = dir.join("atomic-write-probe.bin");
    let mut times = Vec::new();
    for _ in 0..15 {
        let t = Instant::now();
        rex_faults::atomic_write("bench", &path, &payload).map_err(|e| e.to_string())?;
        times.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let _ = std::fs::remove_file(&path);
    Ok(median(&times))
}

/// Replays a trace's events through `Recorder::emit` + `flush` into a
/// fresh `JsonlSink` in `dir`; returns (bytes written per step, median µs
/// of emit + flush per step over 5 replays).
pub fn emit_replay(dir: &Path, events: &[Event]) -> Result<(f64, f64), String> {
    let steps = events
        .iter()
        .filter(|e| e.as_step().is_some())
        .count()
        .max(1) as f64;
    let path = dir.join("emit-replay.jsonl");
    let mut times = Vec::new();
    for _ in 0..5 {
        let sink = JsonlSink::create(&path).map_err(|e| e.to_string())?;
        let mut rec = Recorder::new(Box::new(sink));
        let batch = events.to_vec();
        let t = Instant::now();
        for e in batch {
            rec.emit(e);
        }
        rec.flush();
        times.push(t.elapsed().as_secs_f64() * 1e6 / steps);
    }
    let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len() as f64;
    let _ = std::fs::remove_file(&path);
    Ok((bytes / steps, median(&times)))
}
