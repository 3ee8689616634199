//! `serve-bench` — load benchmark for the `rex-serve` job server
//! (std-only: no criterion, works fully offline).
//!
//! Starts an in-process [`rex_serve::Server`] on an ephemeral port, fires
//! hundreds of short-budget `digits-mlp` jobs at it from concurrent client
//! threads (each request a fresh `Connection: close` socket, exactly how
//! an external client would arrive), and polls every job to a terminal
//! state. It then writes `BENCH_serve.json` at the repository root
//! (schema `rex-serve-bench/v2`) recording:
//!
//! * **accept latency** — first submit attempt to the `202 Accepted`
//!   response, p50/p99/max. Includes any 429-backpressure retries, so
//!   the number reflects what a client actually waits at the door.
//! * **complete latency** — first submit attempt to the job first being
//!   observed terminal, p50/p99/max.
//! * **retry behaviour** — total 429 rejections absorbed plus a
//!   `retries_histogram` bucketing jobs by how many rejections each one
//!   ate before admission. Rejected submits back off exponentially with
//!   full jitter (deterministic [`Prng`] per job), ceilinged by the
//!   server's advertised `Retry-After` — clients respect the server's
//!   own pacing hint instead of re-stampeding on a fixed timer.
//! * **provenance** — the active compute `backend` and `simd_level`, so
//!   a committed artifact records which numerics produced it.
//! * **integrity** — `dropped` (submitted ids the ledger never finished)
//!   and `duplicated` (ids handed out twice) must both be 0; the process
//!   exits non-zero otherwise. `scripts/bench_guard.sh` re-checks the
//!   committed artifact.
//!
//! ```text
//! cargo run --release -p rex-bench --bin serve-bench [-- --smoke]
//!     [--jobs N] [--clients N] [--workers N] [--queue-depth N] [--out PATH]
//! ```
//!
//! `--smoke` drops to 24 jobs / 4 clients for CI sanity. Every job is
//! `digits-mlp` at `budget: 1` (one epoch, 8 steps) with checkpointing
//! off, so the bench measures the serving layer — admission, queueing,
//! dispatch, status plumbing — not the training kernels.

use std::collections::BTreeSet;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rex_bench::{quantiles, r3};
use rex_serve::client::request;
use rex_serve::{ServeConfig, Server};
use rex_telemetry::json::{fmt_f64, parse_object, Value};
use rex_tensor::{backend, Prng};

/// Per-request client timeout; generous because a saturated queue can
/// stall accepts behind running jobs.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);

/// Floor of the first backoff pause after a 429 rejection, milliseconds.
const RETRY_BASE_MS: u64 = 5;

/// Hard ceiling on any single backoff pause, milliseconds — guards
/// against a nonsensical `Retry-After` keeping the bench asleep.
const RETRY_CAP_MS: u64 = 2_000;

/// Pause between status-poll sweeps.
const POLL_PAUSE: Duration = Duration::from_millis(5);

struct Config {
    jobs: usize,
    clients: usize,
    workers: usize,
    queue_depth: usize,
    smoke: bool,
    out: Option<String>,
}

fn die(msg: &str) -> ! {
    eprintln!("serve-bench: {msg}");
    eprintln!(
        "usage: serve-bench [--smoke] [--jobs N] [--clients N] [--workers N] \
         [--queue-depth N] [--out PATH]"
    );
    std::process::exit(2);
}

fn parse_args() -> Config {
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut cfg = Config {
        jobs: 200,
        clients: 12,
        workers: host_cores.clamp(1, 4),
        queue_depth: 32,
        smoke: false,
        out: None,
    };
    let mut args = std::env::args().skip(1);
    let mut jobs_set = false;
    let mut clients_set = false;
    while let Some(arg) = args.next() {
        let mut num = |name: &str| -> usize {
            args.next()
                .and_then(|v| v.parse().ok())
                .filter(|&n| n > 0)
                .unwrap_or_else(|| die(&format!("{name} needs a positive integer")))
        };
        match arg.as_str() {
            "--smoke" => cfg.smoke = true,
            "--jobs" => {
                cfg.jobs = num("--jobs");
                jobs_set = true;
            }
            "--clients" => {
                cfg.clients = num("--clients");
                clients_set = true;
            }
            "--workers" => cfg.workers = num("--workers"),
            "--queue-depth" => cfg.queue_depth = num("--queue-depth"),
            "--out" => {
                cfg.out = Some(args.next().unwrap_or_else(|| die("--out needs a path")));
            }
            other => die(&format!("unknown flag {other:?}")),
        }
    }
    if cfg.smoke {
        if !jobs_set {
            cfg.jobs = 24;
        }
        if !clients_set {
            cfg.clients = 4;
        }
    }
    cfg
}

struct Submitted {
    id: String,
    started: Instant,
    accept_ms: f64,
    retries: u64,
}

/// Submits one job, retrying on 429 until accepted. Returns the job id,
/// the accept latency, and how many rejections were absorbed.
///
/// Rejected submits honor the server's `Retry-After` header: the pause
/// grows exponentially from [`RETRY_BASE_MS`] up to the advertised value
/// (seconds, converted to ms, capped at [`RETRY_CAP_MS`]), and the actual
/// sleep is drawn uniformly from `[1, ceiling]` ("full jitter") off a
/// [`Prng`] seeded from the job index — deterministic, and decorrelated
/// across clients so they do not re-stampede the door in lockstep.
fn submit_one(addr: SocketAddr, seed: u64) -> Submitted {
    let body = format!(
        "{{\"setting\":\"digits-mlp\",\"budget\":1,\"seed\":{seed},\"checkpoint_every\":0}}"
    );
    let started = Instant::now();
    let mut retries = 0u64;
    let mut jitter = Prng::new(0x0B0F_F5E5 ^ seed);
    loop {
        let resp = request(addr, "POST", "/v1/jobs", Some(&body), REQUEST_TIMEOUT)
            .unwrap_or_else(|e| die(&format!("submit failed: {e}")));
        match resp.status {
            202 => {
                let fields = parse_object(resp.text().trim())
                    .unwrap_or_else(|e| die(&format!("bad 202 body: {e}")));
                let Some(Value::Str(id)) = fields.get("id") else {
                    die("202 body lacks an id");
                };
                return Submitted {
                    id: id.clone(),
                    started,
                    accept_ms: started.elapsed().as_secs_f64() * 1e3,
                    retries,
                };
            }
            429 => {
                retries += 1;
                let advertised_ms = resp
                    .header("retry-after")
                    .and_then(|v| v.trim().parse::<u64>().ok())
                    .map_or(1_000, |s| s.saturating_mul(1_000))
                    .clamp(RETRY_BASE_MS, RETRY_CAP_MS);
                let ceiling = (RETRY_BASE_MS << (retries - 1).min(8)).min(advertised_ms);
                let pause_ms = 1 + jitter.below(ceiling as usize) as u64;
                std::thread::sleep(Duration::from_millis(pause_ms));
            }
            other => die(&format!("submit got unexpected status {other}")),
        }
    }
}

/// Polls `id` until its state is terminal; returns (state, complete_ms).
fn await_terminal(addr: SocketAddr, sub: &Submitted) -> (String, f64) {
    loop {
        let resp = request(
            addr,
            "GET",
            &format!("/v1/jobs/{}", sub.id),
            None,
            REQUEST_TIMEOUT,
        )
        .unwrap_or_else(|e| die(&format!("poll failed: {e}")));
        if resp.status != 200 {
            die(&format!("poll of {} got status {}", sub.id, resp.status));
        }
        let fields =
            parse_object(resp.text().trim()).unwrap_or_else(|e| die(&format!("bad job body: {e}")));
        let Some(Value::Str(state)) = fields.get("state") else {
            die("job body lacks a state");
        };
        if matches!(state.as_str(), "done" | "failed" | "canceled") {
            return (state.clone(), sub.started.elapsed().as_secs_f64() * 1e3);
        }
        std::thread::sleep(POLL_PAUSE);
    }
}

/// Histogram bucket labels: jobs grouped by how many 429 rejections each
/// absorbed before its submit was accepted.
const HIST_BUCKETS: [&str; 6] = ["0", "1", "2", "3", "4-7", "8+"];

/// Buckets one job's retry count into [`HIST_BUCKETS`].
fn hist_bucket(retries: u64) -> usize {
    match retries {
        0..=3 => retries as usize,
        4..=7 => 4,
        _ => 5,
    }
}

fn write_json(path: &str, cfg: &Config, report: &Report) -> std::io::Result<()> {
    let be = backend::active();
    let mut body = String::new();
    body.push_str("{\n");
    body.push_str("  \"schema\": \"rex-serve-bench/v2\",\n");
    body.push_str(&format!("  \"backend\": \"{}\",\n", be.name()));
    body.push_str(&format!("  \"simd_level\": \"{}\",\n", be.simd_level()));
    body.push_str(&format!("  \"jobs\": {},\n", cfg.jobs));
    body.push_str(&format!("  \"clients\": {},\n", cfg.clients));
    body.push_str(&format!("  \"workers\": {},\n", cfg.workers));
    body.push_str(&format!("  \"queue_depth\": {},\n", cfg.queue_depth));
    body.push_str(&format!("  \"smoke\": {},\n", cfg.smoke));
    body.push_str(&format!("  \"done\": {},\n", report.done));
    body.push_str(&format!("  \"failed\": {},\n", report.failed));
    body.push_str(&format!("  \"dropped\": {},\n", report.dropped));
    body.push_str(&format!("  \"duplicated\": {},\n", report.duplicated));
    body.push_str(&format!("  \"retries_429\": {},\n", report.retries));
    let hist = HIST_BUCKETS
        .iter()
        .zip(report.retries_hist)
        .map(|(label, count)| format!("\"{label}\": {count}"))
        .collect::<Vec<_>>()
        .join(", ");
    body.push_str(&format!("  \"retries_histogram\": {{{hist}}},\n"));
    body.push_str(&format!(
        "  \"accept_ms\": {{\"p50\": {}, \"p99\": {}, \"max\": {}}},\n",
        fmt_f64(r3(report.accept.0)),
        fmt_f64(r3(report.accept.1)),
        fmt_f64(r3(report.accept.2))
    ));
    body.push_str(&format!(
        "  \"complete_ms\": {{\"p50\": {}, \"p99\": {}, \"max\": {}}},\n",
        fmt_f64(r3(report.complete.0)),
        fmt_f64(r3(report.complete.1)),
        fmt_f64(r3(report.complete.2))
    ));
    body.push_str(&format!("  \"wall_s\": {},\n", fmt_f64(r3(report.wall_s))));
    body.push_str(&format!(
        "  \"throughput_jobs_per_s\": {}\n",
        fmt_f64(r3(report.throughput))
    ));
    body.push_str("}\n");
    std::fs::write(path, body)
}

struct Report {
    done: usize,
    failed: usize,
    dropped: usize,
    duplicated: usize,
    retries: u64,
    retries_hist: [usize; 6],
    accept: (f64, f64, f64),
    complete: (f64, f64, f64),
    wall_s: f64,
    throughput: f64,
}

fn main() {
    let cfg = parse_args();
    let data_dir = std::env::temp_dir().join(format!("rex-serve-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);

    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        data_dir: data_dir.clone(),
        queue_depth: cfg.queue_depth,
        workers: cfg.workers,
        default_checkpoint_every: 0,
        ..ServeConfig::default()
    })
    .unwrap_or_else(|e| die(&format!("server failed to start: {e}")));
    let addr = server.addr();
    println!(
        "serve-bench: jobs={} clients={} workers={} queue_depth={} addr={addr}{}",
        cfg.jobs,
        cfg.clients,
        cfg.workers,
        cfg.queue_depth,
        if cfg.smoke { " (smoke)" } else { "" }
    );

    let wall_start = Instant::now();

    // phase 1 — every client fires submits as fast as the door admits
    // them (no polling in between), so the offered load outruns the
    // workers and genuinely saturates the queue: the recorded 429
    // retries and accept latencies are the backpressure behaviour under
    // load, not a drip-feed. Each job's seed is its global index, so the
    // workload is deterministic regardless of submission interleaving.
    let next = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let total = cfg.jobs;
    let handles: Vec<_> = (0..cfg.clients)
        .map(|_| {
            let next = Arc::clone(&next);
            std::thread::spawn(move || {
                let mut mine = Vec::new();
                loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if i >= total {
                        return mine;
                    }
                    mine.push(submit_one(addr, i as u64));
                }
            })
        })
        .collect();

    let mut accepted = Vec::with_capacity(total);
    for handle in handles {
        accepted.extend(handle.join().expect("client thread panicked"));
    }

    // phase 2 — poll every accepted job to a terminal state; complete
    // latency is measured from each job's first submit attempt, so it
    // includes the queue wait the saturation built up
    let submitted: Vec<_> = accepted
        .into_iter()
        .map(|sub| {
            let (state, complete_ms) = await_terminal(addr, &sub);
            (sub, state, complete_ms)
        })
        .collect();
    let wall_s = wall_start.elapsed().as_secs_f64();

    // integrity: every submitted id unique, every id terminal in the ledger
    let mut ids = BTreeSet::new();
    let duplicated = submitted
        .iter()
        .filter(|(sub, _, _)| !ids.insert(sub.id.clone()))
        .count();
    let listing = request(addr, "GET", "/v1/jobs", None, REQUEST_TIMEOUT)
        .unwrap_or_else(|e| die(&format!("listing failed: {e}")));
    let mut ledger_done = BTreeSet::new();
    for line in listing.text().lines().filter(|l| !l.trim().is_empty()) {
        let fields = parse_object(line).unwrap_or_else(|e| die(&format!("bad listing line: {e}")));
        if let (Some(Value::Str(id)), Some(Value::Str(state))) =
            (fields.get("id"), fields.get("state"))
        {
            if state == "done" {
                ledger_done.insert(id.clone());
            }
        }
    }
    let dropped = ids.iter().filter(|id| !ledger_done.contains(*id)).count();
    let done = submitted.iter().filter(|(_, s, _)| s == "done").count();
    let failed = submitted.iter().filter(|(_, s, _)| s == "failed").count();
    let retries: u64 = submitted.iter().map(|(sub, _, _)| sub.retries).sum();
    let mut retries_hist = [0usize; 6];
    for (sub, _, _) in &submitted {
        retries_hist[hist_bucket(sub.retries)] += 1;
    }

    server.shutdown();
    let _ = std::fs::remove_dir_all(&data_dir);

    let accept = quantiles(submitted.iter().map(|(s, _, _)| s.accept_ms).collect());
    let complete = quantiles(submitted.iter().map(|(_, _, ms)| *ms).collect());
    let report = Report {
        done,
        failed,
        dropped,
        duplicated,
        retries,
        retries_hist,
        accept,
        complete,
        wall_s,
        throughput: total as f64 / wall_s.max(1e-9),
    };

    println!(
        "accept   p50 {:>8.2} ms   p99 {:>8.2} ms   max {:>8.2} ms   (429 retries: {retries})",
        accept.0, accept.1, accept.2
    );
    let hist_line = HIST_BUCKETS
        .iter()
        .zip(retries_hist)
        .map(|(label, count)| format!("{label}:{count}"))
        .collect::<Vec<_>>()
        .join("  ");
    println!("retries histogram (jobs by 429s absorbed)   {hist_line}");
    println!(
        "complete p50 {:>8.2} ms   p99 {:>8.2} ms   max {:>8.2} ms",
        complete.0, complete.1, complete.2
    );
    println!(
        "{done}/{total} done, {failed} failed, {dropped} dropped, {duplicated} duplicated, \
         {:.1} jobs/s over {wall_s:.1} s",
        report.throughput
    );

    let default_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    let path = cfg.out.as_deref().unwrap_or(default_path);
    match write_json(path, &cfg, &report) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => {
            eprintln!("serve-bench: failed to write {path}: {e}");
            std::process::exit(1);
        }
    }
    if done != total || dropped != 0 || duplicated != 0 {
        eprintln!("serve-bench: INTEGRITY FAILURE (see counts above)");
        std::process::exit(1);
    }
}
