//! The HTTP server: listener, connection handlers, and the worker pool
//! that drains the job queue.
//!
//! Architecture: one acceptor thread takes connections off a
//! `TcpListener` and hands each to a short-lived handler thread; handler
//! threads parse requests with the [`crate::http`] codec and touch only
//! the shared [`Ledger`]/[`BoundedQueue`]/[`MetricsRegistry`]; `workers`
//! long-lived worker threads block on the queue and run jobs to terminal
//! states. Training never happens on a connection thread, so a slow or
//! dead client cannot stall a run, and admission control (the bounded
//! queue) is the only thing standing between a submission burst and the
//! trainer.

use std::collections::BTreeMap;
use std::io::{BufReader, Read, Seek, SeekFrom, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use rex_telemetry::MetricsRegistry;

use crate::http::{self, ChunkedWriter, Request};
use crate::jobs::{backoff_ms, run_job, JobSpec, JobState, Ledger, RunCtx, RunOutcome};
use crate::queue::BoundedQueue;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Root of the server's durable state (`jobs/<id>/…`).
    pub data_dir: PathBuf,
    /// Admission bound of the job queue.
    pub queue_depth: usize,
    /// Number of job-executing worker threads.
    pub workers: usize,
    /// Socket read timeout for request parsing, milliseconds.
    pub read_timeout_ms: u64,
    /// `Retry-After` value advertised on 429 responses, seconds.
    pub retry_after_secs: u64,
    /// Checkpoint cadence for jobs that do not specify one; 0 disables.
    pub default_checkpoint_every: u64,
    /// Access-log destination; `None` disables request logging.
    pub access_log: Option<PathBuf>,
    /// When set, each job's worker collects a phase-span profile and
    /// writes `jobs/<id>/profile.json` (Chrome trace-event JSON).
    pub profile: bool,
    /// Hung-job watchdog: a running job making no step progress for this
    /// many seconds is halted and retried as a transient failure. 0
    /// disables the watchdog.
    pub watchdog_secs: u64,
    /// Retry budget for jobs whose spec does not set `max_retries`.
    pub default_max_retries: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            data_dir: PathBuf::from("serve-data"),
            queue_depth: 16,
            workers: 1,
            read_timeout_ms: 5_000,
            retry_after_secs: 1,
            default_checkpoint_every: 5,
            access_log: None,
            profile: false,
            watchdog_secs: 0,
            default_max_retries: crate::jobs::DEFAULT_MAX_RETRIES,
        }
    }
}

/// What the supervisor watches about one running job: the step heartbeat
/// published by the trainer, and when it last advanced.
struct WatchEntry {
    heartbeat: Arc<AtomicU64>,
    last_step: u64,
    since: Instant,
    cancel: Arc<AtomicBool>,
    watchdog_fired: Arc<AtomicBool>,
}

struct Shared {
    cfg: ServeConfig,
    queue: BoundedQueue<String>,
    ledger: Ledger,
    metrics: Arc<MetricsRegistry>,
    stop: AtomicBool,
    /// Graceful drain in progress: admission answers 503, running jobs
    /// are handed back to `Queued` at their next step boundary.
    draining: Arc<AtomicBool>,
    /// Jobs currently on a worker, keyed by id — the watchdog's view.
    running: Mutex<BTreeMap<String, WatchEntry>>,
    /// Transiently failed jobs waiting out their backoff, re-queued by
    /// the supervisor when due.
    retry_at: Mutex<Vec<(Instant, String)>>,
    /// Open access-log sink (append mode), when enabled.
    access_log: Option<Mutex<std::fs::File>>,
    /// Server start time, for `/healthz` uptime and utilization gauges.
    started: Instant,
    /// Connection counter feeding request ids (`c<N>-r<M>`).
    conn_seq: AtomicU64,
}

/// A running server: listener, acceptor, and worker threads.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    supervisor: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Opens the ledger, re-enqueues every non-terminal job found on
    /// disk, binds the listener, and spawns the acceptor and workers.
    ///
    /// # Errors
    ///
    /// Propagates bind and ledger-recovery failures.
    pub fn start(cfg: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let ledger = Ledger::open(&cfg.data_dir)?;
        let metrics = MetricsRegistry::shared();
        let queue = BoundedQueue::new(cfg.queue_depth);

        let recovered = ledger.recoverable()?;
        for id in &recovered {
            // recovery must not be bounced by the admission bound
            queue.push_unbounded(id.clone());
            metrics.counter_inc("rex_jobs_resumed_total", 1);
        }
        let access_log = match &cfg.access_log {
            Some(path) => Some(Mutex::new(
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)?,
            )),
            None => None,
        };

        let shared = Arc::new(Shared {
            cfg,
            queue,
            ledger,
            metrics,
            stop: AtomicBool::new(false),
            draining: Arc::new(AtomicBool::new(false)),
            running: Mutex::new(BTreeMap::new()),
            retry_at: Mutex::new(Vec::new()),
            access_log,
            started: Instant::now(),
            conn_seq: AtomicU64::new(0),
        });

        let mut workers = Vec::new();
        for _ in 0..shared.cfg.workers.max(1) {
            let shared = Arc::clone(&shared);
            workers.push(std::thread::spawn(move || worker_loop(&shared)));
        }
        let supervisor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || supervisor_loop(&shared))
        };

        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if shared.stop.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let shared = Arc::clone(&shared);
                    std::thread::spawn(move || handle_conn(&shared, stream));
                }
            })
        };

        Ok(Server {
            addr,
            shared,
            acceptor: Some(acceptor),
            workers,
            supervisor: Some(supervisor),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful stop: refuse new work, cancel running jobs cooperatively,
    /// and join the acceptor and workers.
    pub fn shutdown(mut self) {
        self.shared.stop.store(true, Ordering::Release);
        self.shared.queue.shutdown();
        self.shared.ledger.cancel_all();
        // unblock the acceptor's blocking accept with a throwaway conn
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        if let Some(supervisor) = self.supervisor.take() {
            let _ = supervisor.join();
        }
    }

    /// Graceful drain (the SIGTERM path): stop admitting (submissions get
    /// 503 + Retry-After, `/readyz` flips to 503), park queued jobs where
    /// they are (their manifests stay `Queued`, so the next daemon life
    /// re-enqueues them), halt running jobs at their next step boundary —
    /// the trainer writes a final checkpoint, and the job goes back to
    /// `Queued`, not `Canceled` — then take the listener down. Every
    /// manifest is flushed before this returns.
    pub fn drain(mut self) {
        self.shared.draining.store(true, Ordering::Release);
        // Empty the in-memory queue first so no worker picks up new work;
        // the jobs stay Queued on disk.
        while self.shared.queue.remove(|_| true).is_some() {}
        self.shared.queue.shutdown();
        // Now halt what is actually running, and wait for the workers to
        // hand those jobs back.
        self.shared.ledger.halt_running();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Only now stop answering: readiness said "draining" throughout.
        self.shared.stop.store(true, Ordering::Release);
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        if let Some(supervisor) = self.supervisor.take() {
            let _ = supervisor.join();
        }
    }
}

/// The supervisor: re-queues retries whose backoff has elapsed, and fires
/// the hung-job watchdog. One thread, ~100 ms resolution.
fn supervisor_loop(shared: &Shared) {
    let watchdog = Duration::from_secs(shared.cfg.watchdog_secs);
    while !shared.stop.load(Ordering::Acquire) {
        std::thread::sleep(Duration::from_millis(100));
        let draining = shared.draining.load(Ordering::Acquire);

        // Backoffs: push due jobs back into the queue. During a drain the
        // schedule is frozen — the jobs are already Queued on disk and the
        // next daemon life re-enqueues them.
        if !draining {
            let now = Instant::now();
            let due: Vec<String> = {
                let mut retry_at = shared.retry_at.lock().unwrap();
                let mut due = Vec::new();
                retry_at.retain(|(at, id)| {
                    if *at <= now {
                        due.push(id.clone());
                        false
                    } else {
                        true
                    }
                });
                due
            };
            for id in due {
                // bypass the admission bound: the job was already admitted
                shared.queue.push_unbounded(id);
                shared
                    .metrics
                    .gauge_set("rex_queue_depth", shared.queue.len() as f64);
            }
        }

        // Watchdog: a running job whose step counter has not moved for
        // watchdog_secs gets halted; run_job classifies it as transient.
        if !watchdog.is_zero() {
            let now = Instant::now();
            let mut running = shared.running.lock().unwrap();
            for (id, entry) in running.iter_mut() {
                let step = entry.heartbeat.load(Ordering::Acquire);
                if step != entry.last_step {
                    entry.last_step = step;
                    entry.since = now;
                } else if now.duration_since(entry.since) >= watchdog
                    && !entry.watchdog_fired.load(Ordering::Acquire)
                {
                    eprintln!(
                        "rexd: watchdog: {id} made no step progress in {}s, halting for retry",
                        shared.cfg.watchdog_secs
                    );
                    entry.watchdog_fired.store(true, Ordering::Release);
                    entry.cancel.store(true, Ordering::Release);
                    shared.metrics.counter_inc("rex_jobs_watchdog_total", 1);
                }
            }
        }
    }
}

/// Books a transient failure: within budget the job is re-queued after a
/// deterministic full-jitter backoff; over budget it fails for good.
fn supervise_retry(shared: &Shared, id: &str, reason: &str) {
    let Some(record) = shared.ledger.get(id) else {
        return;
    };
    let attempt = record.retries + 1;
    if attempt > record.spec.max_retries {
        let _ = shared.ledger.set_state(
            id,
            JobState::Failed,
            None,
            Some(format!(
                "giving up after {} retries: {reason}",
                record.retries
            )),
        );
        shared.metrics.counter_inc("rex_jobs_failed_total", 1);
        return;
    }
    let pause = backoff_ms(id, attempt);
    eprintln!(
        "rexd: {id} failed transiently ({reason}); retry {attempt}/{} in {pause}ms",
        record.spec.max_retries
    );
    if shared.ledger.record_retry(id, pause).is_err() {
        // the manifest itself is unwritable — nothing durable to lean on
        shared.metrics.counter_inc("rex_jobs_failed_total", 1);
        return;
    }
    shared.metrics.counter_inc("rex_jobs_retried_total", 1);
    if shared.stop.load(Ordering::Acquire) || shared.draining.load(Ordering::Acquire) {
        return; // stays Queued on disk; the next daemon life retries it
    }
    shared
        .retry_at
        .lock()
        .unwrap()
        .push((Instant::now() + Duration::from_millis(pause), id.to_owned()));
}

fn worker_loop(shared: &Shared) {
    while let Some(id) = shared.queue.pop() {
        shared
            .metrics
            .gauge_set("rex_queue_depth", shared.queue.len() as f64);
        let started = Instant::now();
        // Profiling is per worker thread: the whole job (trainer loop and
        // kernel dispatch) runs on this thread, so the thread-local span
        // collector sees the full tree. Spans never touch the Recorder,
        // so the job's JSONL trace stays byte-identical either way.
        if shared.cfg.profile {
            rex_telemetry::span::enable(rex_telemetry::span::Detail::Phase);
        }
        let heartbeat = Arc::new(AtomicU64::new(0));
        if let Some(record) = shared.ledger.get(&id) {
            shared.running.lock().unwrap().insert(
                id.clone(),
                WatchEntry {
                    heartbeat: Arc::clone(&heartbeat),
                    last_step: 0,
                    since: Instant::now(),
                    cancel: Arc::clone(&record.cancel),
                    watchdog_fired: Arc::clone(&record.watchdog_fired),
                },
            );
        }
        let ctx = RunCtx {
            draining: Some(Arc::clone(&shared.draining)),
            heartbeat: Some(heartbeat),
        };
        let result = run_job(&shared.ledger, &shared.metrics, &id, &ctx);
        shared.running.lock().unwrap().remove(&id);
        match result {
            Ok(RunOutcome::Retry(reason)) => supervise_retry(shared, &id, &reason),
            // An IO failure on the manifest itself must not kill the
            // worker; retry it like any other transient fault.
            Err(e) => supervise_retry(shared, &id, &format!("job infrastructure error: {e}")),
            Ok(_) => {}
        }
        if shared.cfg.profile {
            let profile = rex_telemetry::span::take();
            let path = shared.ledger.job_dir(&id).join("profile.json");
            let _ = std::fs::write(&path, profile.to_chrome_trace());
        }
        shared.metrics.timer_observe_ns(
            "rex_job_duration",
            u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
        );
    }
}

/// A byte-counting [`Write`] wrapper around the connection stream.
///
/// Buffers the response head until the status line is complete, then
/// injects an `X-Request-Id` header right after it — so every handler
/// gets the header and the access log gets the status code without
/// threading either through each route branch.
struct Metered<'a> {
    inner: &'a mut TcpStream,
    request_id: &'a str,
    /// Bytes written on the wire (including the injected header).
    bytes: u64,
    /// Status code parsed off the status line; 0 until one is written.
    status: u16,
    head: Vec<u8>,
    head_done: bool,
}

impl<'a> Metered<'a> {
    fn new(inner: &'a mut TcpStream, request_id: &'a str) -> Metered<'a> {
        Metered {
            inner,
            request_id,
            bytes: 0,
            status: 0,
            head: Vec::new(),
            head_done: false,
        }
    }
}

impl Write for Metered<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.head_done {
            let n = self.inner.write(buf)?;
            self.bytes += n as u64;
            return Ok(n);
        }
        self.head.extend_from_slice(buf);
        if let Some(pos) = self.head.windows(2).position(|w| w == b"\r\n") {
            // "HTTP/1.1 NNN ..." — the three digits after the version
            self.status = std::str::from_utf8(&self.head[..pos])
                .ok()
                .and_then(|line| line.split(' ').nth(1))
                .and_then(|code| code.parse().ok())
                .unwrap_or(0);
            let mut out = Vec::with_capacity(self.head.len() + 32);
            out.extend_from_slice(&self.head[..pos + 2]);
            out.extend_from_slice(format!("X-Request-Id: {}\r\n", self.request_id).as_bytes());
            out.extend_from_slice(&self.head[pos + 2..]);
            self.inner.write_all(&out)?;
            self.bytes += out.len() as u64;
            self.head_done = true;
            self.head.clear();
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

fn handle_conn(shared: &Shared, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(
        shared.cfg.read_timeout_ms.max(1),
    )));
    // A write deadline too: a stalled peer must not pin a handler thread
    // (or a drain) forever.
    let _ = stream.set_write_timeout(Some(Duration::from_millis(
        shared.cfg.read_timeout_ms.max(1),
    )));
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut writer = stream;
    let conn = shared.conn_seq.fetch_add(1, Ordering::Relaxed) + 1;
    let mut reqno: u64 = 0;
    loop {
        let req = match http::read_request(&mut reader) {
            Ok(req) => req,
            Err(e) => {
                // Not a parseable request: no request id, no access-log
                // line — just the protocol error response.
                if let Some((status, _)) = e.status() {
                    shared.metrics.counter_inc("rex_http_errors_total", 1);
                    let body = format!(
                        "{{\"error\":\"{}\"}}\n",
                        rex_telemetry::json::escape(&e.to_string())
                    );
                    let _ = http::write_response(
                        &mut writer,
                        status,
                        "application/json",
                        &[("Connection", "close")],
                        body.as_bytes(),
                    );
                }
                return;
            }
        };
        shared.metrics.counter_inc("rex_http_requests_total", 1);
        reqno += 1;
        let request_id = format!("c{conn}-r{reqno}");
        let close = req.wants_close();
        let started = Instant::now();
        let mut metered = Metered::new(&mut writer, &request_id);
        let routed = route(shared, &req, &mut metered, &request_id);
        let (status, bytes) = (metered.status, metered.bytes);
        // Job id for the log line: the id submit_job allocated, or the id
        // embedded in a job-scoped path.
        let job = match &routed {
            Ok(Some(id)) => Some(id.clone()),
            _ => {
                let mut segments = req.path().split('/').filter(|s| !s.is_empty());
                (segments.next() == Some("v1") && segments.next() == Some("jobs"))
                    .then(|| segments.next().map(str::to_owned))
                    .flatten()
            }
        };
        if let Some(log) = &shared.access_log {
            let ts_ms = SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map_or(0, |d| d.as_millis());
            let line = format!(
                "ts_ms={ts_ms} req={request_id} method={} path={} status={status} \
                 bytes={bytes} dur_us={} job={}\n",
                req.method,
                req.path(),
                started.elapsed().as_micros(),
                job.as_deref().unwrap_or("-"),
            );
            if let Ok(mut file) = log.lock() {
                let _ = file.write_all(line.as_bytes());
            }
        }
        if routed.is_err() {
            return; // peer went away mid-response
        }
        if close {
            return;
        }
    }
}

/// JSON-body convenience around [`http::write_response`].
fn respond<W: Write>(
    w: &mut W,
    status: u16,
    extra: &[(&str, &str)],
    body: &str,
) -> std::io::Result<()> {
    http::write_response(w, status, "application/json", extra, body.as_bytes())
}

fn error_body(message: &str) -> String {
    format!(
        "{{\"error\":\"{}\"}}\n",
        rex_telemetry::json::escape(message)
    )
}

/// Dispatches one request. Returns the job id allocated by a submission
/// (for the access log); every other route returns `Ok(None)`.
fn route<W: Write>(
    shared: &Shared,
    req: &Request,
    w: &mut W,
    request_id: &str,
) -> std::io::Result<Option<String>> {
    let path = req.path().to_owned();
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    let method = req.method.as_str();
    let status = match (method, segments.as_slice()) {
        ("GET", ["healthz"]) => {
            let counts = shared.ledger.counts();
            let body = format!(
                "{{\"status\":\"ok\",\"queue_depth\":{},\"jobs_running\":{},\
                 \"uptime_seconds\":{}}}\n",
                shared.queue.len(),
                counts.running,
                shared.started.elapsed().as_secs(),
            );
            return respond(w, 200, &[], &body).map(|()| None);
        }
        ("GET", ["readyz"]) => {
            // Readiness is about admission: a draining (or stopping)
            // server is still alive but will not take new jobs.
            if shared.draining.load(Ordering::Acquire) || shared.stop.load(Ordering::Acquire) {
                let retry_after = shared.cfg.retry_after_secs.to_string();
                return respond(
                    w,
                    503,
                    &[("Retry-After", retry_after.as_str())],
                    "{\"status\":\"draining\"}\n",
                )
                .map(|()| None);
            }
            return respond(w, 200, &[], "{\"status\":\"ready\"}\n").map(|()| None);
        }
        ("POST", ["v1", "jobs"]) => return submit_job(shared, req, w, request_id),
        ("GET", ["v1", "jobs"]) => {
            let mut body = String::new();
            for record in shared.ledger.list() {
                body.push_str(&record.to_json());
                body.push('\n');
            }
            return http::write_response(w, 200, "application/x-ndjson", &[], body.as_bytes())
                .map(|()| None);
        }
        ("GET", ["v1", "jobs", id]) => match shared.ledger.get(id) {
            Some(record) => {
                let mut body = record.to_json();
                body.push('\n');
                return respond(w, 200, &[], &body).map(|()| None);
            }
            None => 404,
        },
        ("DELETE", ["v1", "jobs", id]) => return cancel_job(shared, id, w).map(|()| None),
        ("GET", ["v1", "jobs", id, "trace"]) => return stream_trace(shared, id, w).map(|()| None),
        ("GET", ["metrics"]) => {
            let counts = shared.ledger.counts();
            let m = &shared.metrics;
            m.gauge_set("rex_queue_depth", shared.queue.len() as f64);
            m.gauge_set("rex_jobs_running", counts.running as f64);
            m.gauge_set("rex_jobs_queued", counts.queued as f64);
            // Compute-pool instrumentation, sampled at scrape time.
            let pool = rex_pool::stats();
            m.gauge_set("rex_pool_tasks_total", pool.jobs as f64);
            m.gauge_set("rex_pool_chunks_total", pool.chunks as f64);
            m.gauge_set(
                "rex_pool_queue_wait_seconds_total",
                pool.queue_wait_ns as f64 / 1e9,
            );
            m.gauge_set("rex_pool_exec_seconds_total", pool.exec_ns as f64 / 1e9);
            let capacity_ns =
                shared.started.elapsed().as_nanos() as f64 * rex_pool::num_threads().max(1) as f64;
            m.gauge_set(
                "rex_pool_worker_utilization",
                (pool.worker_busy_ns + pool.submitter_busy_ns) as f64 / capacity_ns.max(1.0),
            );
            let body = shared.metrics.render_prometheus();
            return http::write_response(w, 200, "text/plain; version=0.0.4", &[], body.as_bytes())
                .map(|()| None);
        }
        (_, ["healthz" | "readyz" | "metrics"]) | (_, ["v1", "jobs", ..]) => 405,
        _ => 404,
    };
    shared.metrics.counter_inc("rex_http_errors_total", 1);
    let message = match status {
        405 => format!("method {method} not allowed on {path}"),
        _ => format!("no such resource {path}"),
    };
    respond(w, status, &[], &error_body(&message)).map(|()| None)
}

fn submit_job<W: Write>(
    shared: &Shared,
    req: &Request,
    w: &mut W,
    request_id: &str,
) -> std::io::Result<Option<String>> {
    if shared.stop.load(Ordering::Acquire) || shared.draining.load(Ordering::Acquire) {
        // Not backpressure (429) but planned unavailability: tell the
        // client when to come back instead of resetting the connection.
        shared.metrics.counter_inc("rex_http_errors_total", 1);
        let retry_after = shared.cfg.retry_after_secs.to_string();
        return respond(
            w,
            503,
            &[("Retry-After", retry_after.as_str())],
            &error_body("server is draining"),
        )
        .map(|()| None);
    }
    let body = match std::str::from_utf8(&req.body) {
        Ok(s) => s,
        Err(_) => {
            shared.metrics.counter_inc("rex_http_errors_total", 1);
            return respond(w, 400, &[], &error_body("body is not UTF-8")).map(|()| None);
        }
    };
    let spec = match JobSpec::parse(
        body,
        shared.cfg.default_checkpoint_every,
        shared.cfg.default_max_retries,
    ) {
        Ok(spec) => spec,
        Err(e) => {
            shared.metrics.counter_inc("rex_http_errors_total", 1);
            return respond(w, 400, &[], &error_body(&e)).map(|()| None);
        }
    };

    let retry_after = shared.cfg.retry_after_secs.to_string();
    let reject = |shared: &Shared, w: &mut W| -> std::io::Result<Option<String>> {
        shared.metrics.counter_inc("rex_jobs_rejected_total", 1);
        shared.metrics.counter_inc("rex_http_errors_total", 1);
        respond(
            w,
            429,
            &[("Retry-After", retry_after.as_str())],
            &format!(
                "{{\"error\":\"queue full\",\"queue_depth\":{}}}\n",
                shared.cfg.queue_depth
            ),
        )
        .map(|()| None)
    };

    // optimistic pre-check so a saturated queue doesn't cost ledger IO
    if shared.queue.len() >= shared.queue.capacity() {
        return reject(shared, w);
    }
    let record = shared.ledger.create(spec, Some(request_id.to_owned()));
    // persist before enqueueing: a crash between the two re-enqueues the
    // job at startup instead of losing it
    if let Err(e) = shared.ledger.commit(&record) {
        shared.ledger.discard(&record.id);
        shared.metrics.counter_inc("rex_http_errors_total", 1);
        return respond(
            w,
            500,
            &[],
            &error_body(&format!("ledger write failed: {e}")),
        )
        .map(|()| None);
    }
    if shared.queue.try_push(record.id.clone()).is_err() {
        shared.ledger.discard(&record.id);
        return reject(shared, w);
    }
    shared.metrics.counter_inc("rex_jobs_submitted_total", 1);
    shared
        .metrics
        .gauge_set("rex_queue_depth", shared.queue.len() as f64);
    respond(
        w,
        202,
        &[],
        &format!("{{\"id\":\"{}\",\"state\":\"queued\"}}\n", record.id),
    )
    .map(|()| Some(record.id))
}

fn cancel_job<W: Write>(shared: &Shared, id: &str, w: &mut W) -> std::io::Result<()> {
    let Some(record) = shared.ledger.get(id) else {
        shared.metrics.counter_inc("rex_http_errors_total", 1);
        return respond(w, 404, &[], &error_body(&format!("no such job {id}")));
    };
    if record.state.is_terminal() {
        // Idempotent: canceling a job that can no longer run is success,
        // so retried DELETEs (lost response, impatient client) are safe.
        return respond(
            w,
            200,
            &[],
            &format!("{{\"state\":\"{}\"}}\n", record.state.name()),
        );
    }
    // set the flags first: if a worker pops the job in this window, it
    // observes them before training starts
    record.user_cancel.store(true, Ordering::Release);
    record.cancel.store(true, Ordering::Release);
    if record.state == JobState::Queued && shared.queue.remove(|qid| qid == id).is_some() {
        shared
            .ledger
            .set_state(id, JobState::Canceled, None, None)?;
        shared.metrics.counter_inc("rex_jobs_canceled_total", 1);
        shared
            .metrics
            .gauge_set("rex_queue_depth", shared.queue.len() as f64);
        return respond(w, 200, &[], "{\"state\":\"canceled\"}\n");
    }
    respond(w, 202, &[], "{\"state\":\"canceling\"}\n")
}

/// Streams a job's JSONL trace as a chunked response, following the file
/// while the job is live — `curl` sees step lines appear as the trainer
/// emits them.
fn stream_trace<W: Write>(shared: &Shared, id: &str, w: &mut W) -> std::io::Result<()> {
    if shared.ledger.get(id).is_none() {
        shared.metrics.counter_inc("rex_http_errors_total", 1);
        return respond(w, 404, &[], &error_body(&format!("no such job {id}")));
    }
    let path = shared.ledger.trace_path(id);
    http::write_chunked_head(w, 200, "application/x-ndjson")?;
    let mut chunks = ChunkedWriter::new(w);
    let mut offset: u64 = 0;
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        let terminal = shared.ledger.get(id).is_none_or(|r| r.state.is_terminal());
        let mut drained = true;
        if let Ok(mut file) = std::fs::File::open(&path) {
            file.seek(SeekFrom::Start(offset))?;
            loop {
                let n = file.read(&mut buf)?;
                if n == 0 {
                    break;
                }
                offset += n as u64;
                chunks.write_chunk(&buf[..n])?;
                drained = false;
            }
        }
        if terminal && drained {
            return chunks.finish();
        }
        if shared.stop.load(Ordering::Acquire) {
            return chunks.finish();
        }
        if drained {
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}
