//! The `rexd-open` workload: the real `rexd` binary with one worker, its
//! default checkpoint cadence (every 5 steps) and per-job JSONL traces,
//! driven over HTTP from one process with two keep-alive connections.
//!
//! * Set-up (repeated [`SETUP_REPS`] times, each on a fresh daemon and
//!   data dir): start `rexd`, wait for `/readyz`, run the reference jobs
//!   one after another.
//! * Phase 1: a seeded Poisson open loop of `digits-mlp` jobs at
//!   [`OPEN_RATE`] jobs/s. Each job's latency runs from its due time to the
//!   first status poll that sees it terminal. A 429/503 is a failure and is
//!   not retried.
//! * Phase 2: a closed loop of two clients, each submitting its next job
//!   when the last one is terminal, to measure capacity.
//! * Afterwards a sample of the jobs is re-run in-process through
//!   `SettingSpec::run_ft` and must match rexd's metric bit for bit; their
//!   rexd traces must hold the steps `steps_per_s` counts for them.
//!
//! A transport error fails the request it hit and is not retried: a
//! resent POST could admit a job twice.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use rex_serve::client::{read_response, HttpResponse};
use rex_telemetry::json::{parse_object, Value};
use rex_telemetry::span::{self, Detail};
use rex_telemetry::{parse_trace, Profile, Recorder};
use rex_tensor::DType;
use rex_train::settings::load_setting;
use rex_train::FtConfig;

use crate::cells::Cell;
use crate::checks::Checks;
use crate::layers::{self, Extras, Spans};
use crate::{alloc, median, mix, percentile, Args, Outcome, REFERENCE_SEED, SETUP_REPS};

/// Phase-1 arrival rate, about a third of the daemon's capacity (phase
/// 2's `jobs_per_s`, ~22/s) at the commit that introduced the benchmark,
/// on a 2-vCPU KVM host with its data dir on ext4. Fixed, so later commits
/// are offered the same load.
const OPEN_RATE: f64 = 7.5;
/// Phase 2 runs this long; phase 1 offers jobs for the rest of
/// `--seconds`, and at least [`MIN_OPEN_JOBS`] of them.
const CLOSED_S: f64 = 6.0;
const MIN_OPEN_JOBS: usize = 200;
/// Pause between status polls.
const POLL_GAP: Duration = Duration::from_millis(1);
/// Phase-1 jobs re-run in-process.
const RERUN_SAMPLE: usize = 8;
const IO_TIMEOUT: Duration = Duration::from_secs(20);

const SCHEDULES: [&str; 4] = ["rex", "linear", "cosine", "step"];
const BUDGETS: [u32; 4] = [12, 25, 50, 100];

/// A generated job: everything rexd sees of it.
#[derive(Clone)]
struct Spec {
    budget: u32,
    dtype: DType,
    schedule: &'static str,
    seed: u64,
}

impl Spec {
    fn generate(seed: u64, i: usize) -> Spec {
        let r = mix(seed, 0x10B5 + i as u64);
        Spec {
            budget: BUDGETS[(r % 4) as usize],
            dtype: if (r >> 8).is_multiple_of(2) {
                DType::F32
            } else {
                DType::Bf16
            },
            schedule: SCHEDULES[((r >> 16) % 4) as usize],
            // JSON numbers are f64: keep seeds exact
            seed: r >> 32,
        }
    }

    /// A phase-2 job. Each client's budgets cycle through [`BUDGETS`], so
    /// every run's closed loop trains the same mix of job sizes and
    /// `steps_per_s` does not follow the luck of the draw.
    fn closed(seed: u64, i: usize) -> Spec {
        Spec {
            budget: BUDGETS[i / 2 % 4],
            ..Spec::generate(seed, i)
        }
    }

    fn body(&self) -> String {
        format!(
            "{{\"setting\":\"digits-mlp\",\"budget\":{},\"schedule\":\"{}\",\
             \"optimizer\":\"sgdm\",\"seed\":{},\"dtype\":\"{}\"}}",
            self.budget,
            self.schedule,
            self.seed,
            self.dtype.name()
        )
    }

    fn cell(&self) -> Cell {
        Cell {
            setting: "digits-mlp",
            budget: self.budget,
            optimizer: "sgdm",
            schedule: self.schedule,
            dtype: self.dtype,
            seed: self.seed,
        }
    }
}

/// One keep-alive HTTP/1.1 connection to the daemon.
struct Conn {
    addr: SocketAddr,
    stream: Option<BufReader<TcpStream>>,
    requests: u64,
}

impl Conn {
    fn new(addr: SocketAddr) -> Conn {
        Conn {
            addr,
            stream: None,
            requests: 0,
        }
    }

    fn send(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> std::io::Result<HttpResponse> {
        self.requests += 1;
        if self.stream.is_none() {
            let s = TcpStream::connect_timeout(&self.addr, IO_TIMEOUT)?;
            s.set_read_timeout(Some(IO_TIMEOUT))?;
            s.set_write_timeout(Some(IO_TIMEOUT))?;
            s.set_nodelay(true)?;
            self.stream = Some(BufReader::new(s));
        }
        let reader = self.stream.as_mut().expect("connected above");
        let mut req = format!("{method} {path} HTTP/1.1\r\nHost: {}\r\n", self.addr);
        match body {
            Some(b) => req.push_str(&format!(
                "Content-Type: application/json\r\nContent-Length: {}\r\n\r\n{b}",
                b.len()
            )),
            None => req.push_str("\r\n"),
        }
        reader.get_mut().write_all(req.as_bytes())?;
        read_response(reader)
    }

    /// Sends one request. After a transport error the connection is
    /// dropped, and the next request opens a fresh one.
    fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<HttpResponse, String> {
        self.send(method, path, body).map_err(|e| {
            self.stream = None;
            format!("{method} {path}: {e}")
        })
    }

    /// Submits a job; `Ok(id)` on 202.
    fn submit(&mut self, spec: &Spec) -> Result<String, String> {
        let r = self.request("POST", "/v1/jobs", Some(&spec.body()))?;
        if r.status != 202 {
            return Err(format!("submit: HTTP {} {}", r.status, r.text().trim()));
        }
        match parse_object(&r.text())?.remove("id") {
            Some(Value::Str(id)) => Ok(id),
            _ => Err("submit: no job id".to_owned()),
        }
    }

    /// The job's state, and its metric once done.
    fn status(&mut self, id: &str) -> Result<(String, Option<f64>), String> {
        let r = self.request("GET", &format!("/v1/jobs/{id}"), None)?;
        if r.status != 200 {
            return Err(format!("status {id}: HTTP {}", r.status));
        }
        let obj = parse_object(&r.text())?;
        let state = match obj.get("state") {
            Some(Value::Str(s)) => s.clone(),
            _ => return Err(format!("status {id}: no state")),
        };
        Ok((state, obj.get("metric").and_then(Value::as_f64)))
    }

    /// Polls until the job is terminal; returns its metric (`Err` unless
    /// it finished `done`).
    fn wait(&mut self, id: &str) -> Result<f64, String> {
        loop {
            match self.status(id)? {
                (s, Some(m)) if s == "done" => return Ok(m),
                (s, _) if s == "failed" || s == "canceled" || s == "done" => {
                    return Err(format!("job {id} ended {s}"))
                }
                _ => std::thread::sleep(POLL_GAP),
            }
        }
    }
}

/// A running daemon; dropping it kills it and waits for it to exit.
struct Daemon {
    child: Child,
    // Held open: the daemon's stdout must stay writable.
    _stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
    data_dir: PathBuf,
}

impl Daemon {
    fn start(rexd: &Path, data_dir: &Path, traced: bool) -> Result<Daemon, String> {
        let mut cmd = Command::new(rexd);
        cmd.arg("--data-dir").arg(data_dir);
        if traced {
            cmd.args(["--profile", "on", "--access-log"])
                .arg(data_dir.join("access.log"));
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", rexd.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("rexd listening on http://")
            .and_then(|a| a.parse().ok());
        let mut daemon = Daemon {
            child,
            _stdout: stdout,
            addr: "127.0.0.1:0".parse().expect("literal address"),
            data_dir: data_dir.to_owned(),
        };
        daemon.addr = match (read, addr) {
            (Ok(_), Some(a)) => a,
            _ => return Err(format!("rexd did not report its address: {line:?}")),
        };
        let mut conn = Conn::new(daemon.addr);
        let deadline = Instant::now() + Duration::from_secs(10);
        while !matches!(conn.request("GET", "/readyz", None), Ok(r) if r.status == 200) {
            if Instant::now() > deadline {
                return Err("rexd never became ready".to_owned());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Ok(daemon)
    }

    fn job_dir(&self, id: &str) -> PathBuf {
        self.data_dir.join("jobs").join(id)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The reference jobs every set-up runs: seed [`REFERENCE_SEED`].
fn reference_specs() -> Vec<Spec> {
    [
        (12, DType::F32),
        (25, DType::Bf16),
        (50, DType::F32),
        (100, DType::Bf16),
        (100, DType::F32),
        (25, DType::F32),
    ]
    .into_iter()
    .map(|(budget, dtype)| Spec {
        budget,
        dtype,
        schedule: "rex",
        seed: REFERENCE_SEED,
    })
    .collect()
}

fn set_up(args: &Args, rep: usize, checks: &mut Checks) -> Result<Daemon, String> {
    let daemon = Daemon::start(
        &args.rexd,
        &args.state_dir.join(format!("rexd-{rep}")),
        args.traced,
    )?;
    let mut conn = Conn::new(daemon.addr);
    for spec in reference_specs() {
        let key = spec.cell().key();
        let metric = conn.submit(&spec).and_then(|id| conn.wait(&id));
        if let Some(m) = checks.cell(&key, metric) {
            checks.reference(&key, m);
        }
    }
    Ok(daemon)
}

/// A phase-1 job that was admitted.
struct Admitted {
    index: usize,
    id: String,
    due: Instant,
}

/// A job that finished: spec index, id, latency or run time (ms), metric.
struct Finished {
    index: usize,
    id: String,
    ms: f64,
    metric: Result<f64, String>,
}

struct OpenLoop {
    finished: Vec<Finished>,
    refused: Vec<String>,
    submit_ms: Vec<f64>,
    late_ms_max: f64,
}

/// Phase 1: the generator thread submits each job at its due time on one
/// connection; this thread polls the oldest outstanding job on the other.
fn open_loop(addr: SocketAddr, specs: &[Spec], due_s: &[f64]) -> OpenLoop {
    let (tx, rx) = mpsc::channel::<Admitted>();
    let start = Instant::now();
    let mut out = OpenLoop {
        finished: Vec::new(),
        refused: Vec::new(),
        submit_ms: Vec::new(),
        late_ms_max: 0.0,
    };
    std::thread::scope(|s| {
        let generator = s.spawn(move || {
            let mut conn = Conn::new(addr);
            let (mut refused, mut submit_ms, mut late_max) = (Vec::new(), Vec::new(), 0f64);
            for (index, spec) in specs.iter().enumerate() {
                let due = start + Duration::from_secs_f64(due_s[index]);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let sent = Instant::now();
                late_max = late_max.max(sent.duration_since(due).as_secs_f64() * 1e3);
                match conn.submit(spec) {
                    Ok(id) => {
                        submit_ms.push(sent.elapsed().as_secs_f64() * 1e3);
                        let _ = tx.send(Admitted { index, id, due });
                    }
                    Err(e) => refused.push(format!("job {index}: {e}")),
                }
            }
            (refused, submit_ms, late_max)
        });
        let mut conn = Conn::new(addr);
        let mut outstanding: Vec<Admitted> = Vec::new();
        let mut open = true;
        while open || !outstanding.is_empty() {
            loop {
                match rx.try_recv() {
                    Ok(a) => outstanding.push(a),
                    Err(mpsc::TryRecvError::Empty) => break,
                    Err(mpsc::TryRecvError::Disconnected) => {
                        open = false;
                        break;
                    }
                }
            }
            // One worker runs jobs in admission order, so only the oldest
            // outstanding job can be the next to finish: poll just that one.
            while let Some(head) = outstanding.first() {
                let status = conn.status(&head.id);
                let seen = Instant::now();
                let metric = match status {
                    Ok((s, Some(m))) if s == "done" => Ok(m),
                    Ok((s, _)) if s == "queued" || s == "running" => break,
                    Ok((s, _)) => Err(format!("ended {s}")),
                    Err(e) => Err(e),
                };
                let a = outstanding.remove(0);
                out.finished.push(Finished {
                    index: a.index,
                    ms: seen.duration_since(a.due).as_secs_f64() * 1e3,
                    id: a.id,
                    metric,
                });
            }
            std::thread::sleep(POLL_GAP);
        }
        let (refused, submit_ms, late_max) = generator.join().expect("generator thread panicked");
        out.refused = refused;
        out.submit_ms = submit_ms;
        out.late_ms_max = late_max;
    });
    out.finished.sort_by_key(|f| f.index);
    out
}

struct ClosedLoop {
    finished: Vec<Finished>,
    refused: Vec<String>,
    wall_s: f64,
    requests: u64,
}

/// Phase 2: two clients, each submitting its next job once the last is
/// terminal, until `seconds` have passed.
fn closed_loop(addr: SocketAddr, seed: u64, offset: usize, seconds: f64) -> ClosedLoop {
    let start = Instant::now();
    let results: Vec<(Vec<Finished>, Vec<String>, f64, u64)> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..2)
            .map(|c| {
                s.spawn(move || {
                    let mut conn = Conn::new(addr);
                    let (mut done, mut refused, mut last) = (Vec::new(), Vec::new(), 0f64);
                    let mut index = offset + c;
                    while start.elapsed().as_secs_f64() < seconds {
                        let spec = Spec::closed(seed, index);
                        let t = Instant::now();
                        match conn.submit(&spec) {
                            Ok(id) => {
                                let metric = conn.wait(&id);
                                last = start.elapsed().as_secs_f64();
                                done.push(Finished {
                                    index,
                                    id,
                                    ms: t.elapsed().as_secs_f64() * 1e3,
                                    metric,
                                });
                            }
                            Err(e) => refused.push(format!("job {index}: {e}")),
                        }
                        index += 2;
                    }
                    (done, refused, last, conn.requests)
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut out = ClosedLoop {
        finished: Vec::new(),
        refused: Vec::new(),
        wall_s: 0.0,
        requests: 0,
    };
    for (done, refused, last, requests) in results {
        out.finished.extend(done);
        out.refused.extend(refused);
        out.wall_s = out.wall_s.max(last);
        out.requests += requests;
    }
    out.finished.sort_by_key(|f| f.index);
    out
}

/// Prometheus text → value of an unlabelled series.
fn scrape(text: &str, series: &str) -> f64 {
    text.lines()
        .find_map(|l| {
            l.strip_prefix(series)?
                .strip_prefix(' ')?
                .trim()
                .parse()
                .ok()
        })
        .unwrap_or(0.0)
}

fn metrics_text(addr: SocketAddr) -> Result<String, String> {
    let r = Conn::new(addr).request("GET", "/metrics", None)?;
    Ok(r.text())
}

/// Server-side durations (ms) of `method` requests on paths starting
/// with `prefix`, from the access log.
fn access_ms(log: &str, method: &str, prefix: &str) -> Vec<f64> {
    log.lines()
        .filter(|l| l.contains(&format!(" method={method} ")))
        .filter(|l| {
            l.split(' ').any(|f| {
                f.strip_prefix("path=")
                    .is_some_and(|p| p.starts_with(prefix))
            })
        })
        .filter_map(|l| {
            l.split(' ')
                .find_map(|f| f.strip_prefix("dur_us=")?.parse::<f64>().ok())
        })
        .map(|us| us / 1e3)
        .collect()
}

pub fn run(args: &Args, started: Instant, checks: &mut Checks) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let mut synths = Vec::new();
    let mut rep_start = started;
    let mut daemon = None;
    for rep in 0..SETUP_REPS {
        // stops the previous rep's daemon before the next one starts
        drop(daemon.take());
        let t = Instant::now();
        load_setting("digits-mlp", args.seed).map_err(|e| e.to_string())?;
        std::hint::black_box(rex_data::digits::synth_digits(120, 12, args.seed));
        std::hint::black_box(rex_data::digits::synth_digits(40, 12, args.seed));
        synths.push(t.elapsed().as_secs_f64() * 1e3);
        daemon = Some(set_up(args, rep, checks)?);
        setups.push(rep_start.elapsed().as_secs_f64());
        rep_start = Instant::now();
    }
    let daemon = daemon.expect("SETUP_REPS > 0");
    let digits = load_setting("digits-mlp", args.seed)?;
    let steps_of = |spec: &Spec| spec.cell().steps(&digits);

    // Phase 1: Poisson arrivals from the workload seed.
    let open_jobs = MIN_OPEN_JOBS.max((OPEN_RATE * (args.seconds - CLOSED_S)).round() as usize);
    let specs: Vec<Spec> = (0..open_jobs)
        .map(|i| Spec::generate(args.seed, i))
        .collect();
    let mut t = 0.0;
    let due_s: Vec<f64> = (0..open_jobs)
        .map(|i| {
            let u = ((mix(args.seed, 0xA7 + i as u64) >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
            t += -u.ln() / OPEN_RATE;
            t
        })
        .collect();
    let metrics_before = if args.traced {
        metrics_text(daemon.addr)?
    } else {
        String::new()
    };
    let open = open_loop(daemon.addr, &specs, &due_s);
    let closed = closed_loop(daemon.addr, args.seed, open_jobs, CLOSED_S);
    let metrics_after = if args.traced {
        metrics_text(daemon.addr)?
    } else {
        String::new()
    };

    for e in open.refused.iter().chain(&closed.refused) {
        checks.op(Err(e.clone()), "submit refused");
    }
    let mut latencies = Vec::new();
    let mut sample = Vec::new();
    for f in &open.finished {
        let spec = &specs[f.index];
        if checks.cell(&spec.cell().key(), f.metric.clone()).is_some() {
            latencies.push(f.ms);
            if f.index % (open_jobs / RERUN_SAMPLE).max(1) == 0 {
                sample.push((spec.clone(), f.metric.clone(), daemon.job_dir(&f.id)));
            }
        }
    }
    sample.truncate(RERUN_SAMPLE);
    let mut closed_steps = 0;
    for f in &closed.finished {
        let spec = Spec::closed(args.seed, f.index);
        if checks.cell(&spec.cell().key(), f.metric.clone()).is_some() {
            closed_steps += steps_of(&spec);
        }
    }

    let mut out = Outcome::default();
    let mut x = Extras::default();
    let job_p50 = percentile(&latencies, 50.0);
    out.overhead_basis = job_p50;
    out.note(
        "open_jobs",
        format!(
            "{} offered at {OPEN_RATE}/s, {} timed",
            open_jobs,
            latencies.len()
        ),
    );
    out.note("open_s", due_s.last().copied().unwrap_or(0.0));
    out.note("closed_jobs", closed.finished.len());
    out.note("closed_s", closed.wall_s);
    out.note("gen.late_ms_max", open.late_ms_max);
    let pcts: Vec<String> = [10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0]
        .iter()
        .map(|&p| format!("p{p}={:.1}", percentile(&latencies, p)))
        .collect();
    out.note("job_ms", pcts.join(" "));
    out.note("setup_reps_s", format!("{setups:?}"));
    out.e2e("setup_s", median(&setups), "s");
    out.e2e(
        "steps_per_s",
        closed_steps as f64 / closed.wall_s.max(1e-9),
        "steps/s",
    );
    out.e2e("job_ms_p50", job_p50, "ms");
    out.e2e("job_ms_p95", percentile(&latencies, 95.0), "ms");
    out.e2e(
        "jobs_per_s",
        closed.finished.len() as f64 / closed.wall_s.max(1e-9),
        "jobs/s",
    );

    if args.traced {
        let mut served = Spans::default();
        let (mut ckpt_bytes, mut trace_bytes, mut steps, mut waits) =
            (Vec::new(), 0u64, 0u64, Vec::new());
        let mut longest: Option<(u64, PathBuf)> = None;
        for f in open.finished.iter().filter(|f| f.metric.is_ok()) {
            let dir = daemon.job_dir(&f.id);
            let spec = &specs[f.index];
            let text =
                std::fs::read_to_string(dir.join("profile.json")).map_err(|e| e.to_string())?;
            let profile = Profile::parse_chrome_trace(&text)?;
            let run_ms = profile
                .phase_table()
                .iter()
                .find(|r| r.path == "job")
                .map_or(0.0, |r| r.inclusive_ns as f64 / 1e6);
            waits.push(f.ms - run_ms);
            served.add("digits-mlp", &profile);
            let meta = |p: &str| {
                std::fs::metadata(dir.join(p))
                    .map(|m| m.len())
                    .map_err(|e| e.to_string())
            };
            ckpt_bytes.push(meta("ckpt.state")? as f64);
            trace_bytes += meta("trace.jsonl")?;
            steps += steps_of(spec);
            if longest.as_ref().is_none_or(|(s, _)| steps_of(spec) > *s) {
                longest = Some((steps_of(spec), dir.join("trace.jsonl")));
            }
        }
        x.ckpt_ms = served.mean_ms("checkpoint");
        x.snapshot_bytes = median(&ckpt_bytes);
        x.atomic_write_ms = layers::atomic_write_ms(&args.state_dir, x.snapshot_bytes as usize)?;
        x.trace_bytes_per_step = trace_bytes as f64 / steps.max(1) as f64;
        if let Some((_, path)) = longest {
            let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
            x.emit_us_per_step = layers::emit_replay(&args.state_dir, &parse_trace(&text)?)?.1;
        }
        x.serve_submit_ms_p50 = median(&open.submit_ms);
        let log = std::fs::read_to_string(daemon.data_dir.join("access.log"))
            .map_err(|e| e.to_string())?;
        x.serve_post_ms_p50 = median(&access_ms(&log, "POST", "/v1/jobs"));
        x.serve_get_ms_p50 = median(&access_ms(&log, "GET", "/v1/jobs/"));
        let delta = |series: &str| scrape(&metrics_after, series) - scrape(&metrics_before, series);
        x.serve_run_ms_mean = delta("rex_job_duration_seconds_sum") * 1e3
            / delta("rex_job_duration_seconds_count").max(1.0);
        x.serve_queue_wait_ms_p95 = percentile(&waits, 95.0);
        x.serve_requests_per_job = closed.requests as f64 / closed.finished.len().max(1) as f64;
        x.serve_rejected = (open.refused.len() + closed.refused.len()) as f64;
        let served_steps = (steps + closed_steps) as f64;
        x.pool_tasks = delta("rex_pool_tasks_total");
        x.pool_queue_wait_ns = delta("rex_pool_queue_wait_seconds_total") * 1e9;
        x.pool_exec_ns = delta("rex_pool_exec_seconds_total") * 1e9;
        // rexd's pool runs at its default size, nproc, as this process's does
        x.pool_utilization = x.pool_exec_ns
            / ((due_s.last().copied().unwrap_or(0.0) + closed.wall_s)
                * 1e9
                * rex_pool::num_threads() as f64);
        x.pool_steps = served_steps as u64;
        x.gen_late_ms_max = open.late_ms_max;
        x.synth_ms = median(&synths);
    }
    drop(daemon);
    out.e2e("peak_rss_mb", crate::sys::peak_rss_mib_children(), "MiB");

    // The sampled jobs' rexd traces hold the steps `steps_per_s` counts.
    for (spec, _, dir) in &sample {
        let expected = steps_of(spec);
        let recorded = std::fs::read_to_string(dir.join("trace.jsonl"))
            .map_err(|e| e.to_string())
            .and_then(|text| parse_trace(&text))
            .map(|events| events.iter().filter(|e| e.as_step().is_some()).count() as u64);
        checks.op(
            recorded.map(|n| n == expected),
            &format!("rexd trace of {} holds {expected} steps", spec.cell().key()),
        );
    }

    // "Same cell, same bytes": the sample re-run in-process must match.
    // The traced run counts allocations on this unprofiled pass, then
    // runs the sample again under the profiler.
    let (rerun_steps, allocs, bytes) = alloc::count(|| {
        let mut steps = 0;
        for (spec, served, _) in &sample {
            let cell = spec.cell();
            let local = load_setting("digits-mlp", spec.seed).and_then(|setting| {
                cell.run(&setting, FtConfig::default(), &mut Recorder::disabled())
            });
            steps += steps_of(spec);
            let verdict = match (local, served) {
                (Ok(l), Ok(s)) => Ok(l.to_bits() == s.to_bits()),
                (Err(e), _) => Err(e),
                (_, Err(e)) => Err(e.clone()),
            };
            checks.op(
                verdict,
                &format!("in-process re-run of {} matches rexd", cell.key()),
            );
        }
        steps
    });
    if args.traced {
        let mut spans = Spans::default();
        for (spec, _, _) in &sample {
            let setting = load_setting("digits-mlp", spec.seed)?;
            span::enable(Detail::Kernel);
            let run = spec
                .cell()
                .run(&setting, FtConfig::default(), &mut Recorder::disabled());
            spans.add("digits-mlp", &span::take());
            run?;
        }
        x.allocs = allocs;
        x.alloc_bytes = bytes;
        x.alloc_steps = rerun_steps;
        layers::report(&mut out, &spans, &x);
    }
    Ok(out)
}
