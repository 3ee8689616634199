//! Black-box integration tests: a real `rexd` subprocess on an ephemeral
//! port, driven over TCP by the hand-rolled client. Pins the job
//! lifecycle, queue saturation → 429 + `Retry-After`, cancel of queued
//! and running jobs, live trace streaming, protocol error responses
//! (400/404/405/408/409), and `/metrics` consistency with the job
//! ledger.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use rex_serve::client::{request, HttpResponse};
use rex_telemetry::json::{parse_object, Value};

const TIMEOUT: Duration = Duration::from_secs(10);

struct Daemon {
    child: Child,
    addr: SocketAddr,
    data_dir: PathBuf,
    /// Leave the data dir behind on drop (restart-on-same-dir tests).
    keep_data: bool,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if !self.keep_data {
            let _ = std::fs::remove_dir_all(&self.data_dir);
        }
    }
}

/// Starts `rexd` on an ephemeral port with a fresh data dir, parsing the
/// bound address off its startup line.
fn start_daemon(tag: &str, extra_args: &[&str], env: &[(&str, &str)]) -> Daemon {
    let data_dir = std::env::temp_dir().join(format!("rex_e2e_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    start_daemon_at(&data_dir, false, extra_args, env)
}

/// Starts `rexd` on an existing (possibly job-laden) data dir, which is
/// preserved across the daemon's drop so another life can pick it up.
fn start_daemon_at(
    data_dir: &Path,
    keep_data: bool,
    extra_args: &[&str],
    env: &[(&str, &str)],
) -> Daemon {
    let data_dir = data_dir.to_owned();
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_rexd"));
    cmd.arg("--data-dir")
        .arg(&data_dir)
        .args(["--addr", "127.0.0.1:0"])
        .args(extra_args)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    for (key, value) in env {
        cmd.env(key, value);
    }
    let mut child = cmd.spawn().expect("spawn rexd");
    let stdout = child.stdout.take().expect("rexd stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("rexd startup line");
    let addr: SocketAddr = line
        .trim()
        .strip_prefix("rexd listening on http://")
        .unwrap_or_else(|| panic!("unexpected startup line {line:?}"))
        .parse()
        .expect("parse rexd address");
    Daemon {
        child,
        addr,
        data_dir,
        keep_data,
    }
}

fn get(daemon: &Daemon, path: &str) -> HttpResponse {
    request(daemon.addr, "GET", path, None, TIMEOUT).expect("GET")
}

fn post(daemon: &Daemon, path: &str, body: &str) -> HttpResponse {
    request(daemon.addr, "POST", path, Some(body), TIMEOUT).expect("POST")
}

fn delete(daemon: &Daemon, path: &str) -> HttpResponse {
    request(daemon.addr, "DELETE", path, None, TIMEOUT).expect("DELETE")
}

fn json_of(resp: &HttpResponse) -> BTreeMap<String, Value> {
    parse_object(&resp.text()).unwrap_or_else(|e| panic!("bad JSON {:?}: {e}", resp.text()))
}

fn submit(daemon: &Daemon, body: &str) -> String {
    let resp = post(daemon, "/v1/jobs", body);
    assert_eq!(resp.status, 202, "{}", resp.text());
    json_of(&resp)["id"].as_str().expect("job id").to_owned()
}

/// Polls a job until it reaches a terminal state.
fn wait_terminal(daemon: &Daemon, id: &str, within: Duration) -> BTreeMap<String, Value> {
    let deadline = Instant::now() + within;
    loop {
        let resp = get(daemon, &format!("/v1/jobs/{id}"));
        assert_eq!(resp.status, 200, "{}", resp.text());
        let record = json_of(&resp);
        let state = record["state"].as_str().unwrap().to_owned();
        if ["done", "failed", "canceled"].contains(&state.as_str()) {
            return record;
        }
        assert!(
            Instant::now() < deadline,
            "job {id} stuck in {state} past {within:?}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

fn wait_state(daemon: &Daemon, id: &str, state: &str, within: Duration) {
    let deadline = Instant::now() + within;
    loop {
        let record = json_of(&get(daemon, &format!("/v1/jobs/{id}")));
        if record["state"].as_str() == Some(state) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "job {id} never reached {state} (at {:?})",
            record["state"]
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Parses a Prometheus text body into name → value (labels unused here).
fn prometheus_values(body: &str) -> BTreeMap<String, f64> {
    body.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            Some((name.to_owned(), value.parse().ok()?))
        })
        .collect()
}

const QUICK_JOB: &str =
    r#"{"setting":"digits-mlp","budget":25,"schedule":"rex","optimizer":"sgdm","seed":7}"#;
/// A job slowed to ~50ms per step by a `slow-io-on-write` fault on every
/// checkpoint write (checkpoint_every 1 → one write per step), so tests
/// can observe and cancel it mid-run.
const SLOW_JOB: &str = r#"{"setting":"digits-mlp","budget":100,"schedule":"rex","optimizer":"sgdm","seed":7,"checkpoint_every":1}"#;
const SLOW_FAULT: (&str, &str) = ("REX_FAULTS", "slow-io-on-write=state:0:50");

#[test]
fn job_lifecycle_end_to_end() {
    let daemon = start_daemon("lifecycle", &[], &[]);

    let health = get(&daemon, "/healthz");
    assert_eq!(health.status, 200);
    let health = json_of(&health);
    assert_eq!(health["status"].as_str(), Some("ok"));
    assert_eq!(health["queue_depth"].as_u64(), Some(0));
    assert_eq!(health["jobs_running"].as_u64(), Some(0));
    assert!(health["uptime_seconds"].as_u64().is_some());

    let id = submit(&daemon, QUICK_JOB);
    assert_eq!(id, "job-000001");
    let record = wait_terminal(&daemon, &id, Duration::from_secs(60));
    assert_eq!(record["state"].as_str(), Some("done"), "{record:?}");
    let metric = record["metric"].as_f64().expect("metric");
    assert!((0.0..=100.0).contains(&metric), "{metric}");
    // spec round-trips through the record
    assert_eq!(record["setting"].as_str(), Some("digits-mlp"));
    assert_eq!(record["budget"].as_u64(), Some(25));
    assert_eq!(record["seed"].as_u64(), Some(7));

    // the listing shows the same record as one JSONL line
    let listing = get(&daemon, "/v1/jobs");
    assert_eq!(listing.status, 200);
    let listing_text = listing.text();
    let lines: Vec<&str> = listing_text.lines().map(str::trim).collect();
    assert_eq!(lines.len(), 1);
    let listed = parse_object(lines[0]).unwrap();
    assert_eq!(listed["id"].as_str(), Some(id.as_str()));
    assert_eq!(listed["state"].as_str(), Some("done"));

    // the streamed trace equals the on-disk trace byte for byte
    let streamed = get(&daemon, &format!("/v1/jobs/{id}/trace"));
    assert_eq!(streamed.status, 200);
    let on_disk =
        std::fs::read(daemon.data_dir.join("jobs").join(&id).join("trace.jsonl")).unwrap();
    assert_eq!(streamed.body, on_disk);
    // 25% of 8 epochs = 2 epochs × 8 steps; trace ends with run_end
    let text = streamed.text();
    assert_eq!(text.matches("\"ev\":\"step\"").count(), 16);
    assert!(text.lines().last().unwrap().contains("run_end"));
}

#[test]
fn saturated_queue_answers_429_with_retry_after() {
    let daemon = start_daemon(
        "backpressure",
        &[
            "--queue-depth",
            "1",
            "--workers",
            "1",
            "--retry-after-secs",
            "7",
        ],
        &[SLOW_FAULT],
    );

    // one running (slow), one queued (fills the depth-1 queue)
    let running = submit(&daemon, SLOW_JOB);
    wait_state(&daemon, &running, "running", Duration::from_secs(20));
    let queued = submit(&daemon, SLOW_JOB);

    let rejected = post(&daemon, "/v1/jobs", SLOW_JOB);
    assert_eq!(rejected.status, 429, "{}", rejected.text());
    assert_eq!(rejected.header("retry-after"), Some("7"));
    let body = json_of(&rejected);
    assert_eq!(body["error"].as_str(), Some("queue full"));

    // a rejected submission leaves no ledger entry behind
    assert_eq!(get(&daemon, "/v1/jobs").text().lines().count(), 2);

    // backpressure is transient: cancel the queued job, the slot frees up
    assert_eq!(delete(&daemon, &format!("/v1/jobs/{queued}")).status, 200);
    let resub = post(&daemon, "/v1/jobs", SLOW_JOB);
    assert_eq!(resub.status, 202, "{}", resub.text());

    let metrics = prometheus_values(&get(&daemon, "/metrics").text());
    assert_eq!(metrics["rex_jobs_rejected_total"], 1.0);
    assert_eq!(metrics["rex_jobs_submitted_total"], 3.0);
}

#[test]
fn cancel_queued_and_running_jobs() {
    let daemon = start_daemon("cancel", &["--workers", "1"], &[SLOW_FAULT]);

    let running = submit(&daemon, SLOW_JOB);
    let queued = submit(&daemon, SLOW_JOB);
    wait_state(&daemon, &running, "running", Duration::from_secs(20));

    // queued: canceled synchronously, before ever running
    let resp = delete(&daemon, &format!("/v1/jobs/{queued}"));
    assert_eq!(resp.status, 200);
    assert_eq!(json_of(&resp)["state"].as_str(), Some("canceled"));
    assert_eq!(
        json_of(&get(&daemon, &format!("/v1/jobs/{queued}")))["state"].as_str(),
        Some("canceled")
    );

    // running: cooperative — 202 now, canceled at the next step boundary
    let resp = delete(&daemon, &format!("/v1/jobs/{running}"));
    assert_eq!(resp.status, 202);
    assert_eq!(json_of(&resp)["state"].as_str(), Some("canceling"));
    let record = wait_terminal(&daemon, &running, Duration::from_secs(30));
    assert_eq!(record["state"].as_str(), Some("canceled"), "{record:?}");
    // it stopped early: the trace has fewer than the full 64 steps
    let trace = get(&daemon, &format!("/v1/jobs/{running}/trace")).text();
    let steps = trace.matches("\"ev\":\"step\"").count();
    assert!(
        (1..64).contains(&steps),
        "expected a partial run, got {steps} steps"
    );

    // canceling a terminal job is idempotent success, not a conflict —
    // a client retrying a DELETE whose response was lost must not error
    let resp = delete(&daemon, &format!("/v1/jobs/{running}"));
    assert_eq!(resp.status, 200);
    assert_eq!(json_of(&resp)["state"].as_str(), Some("canceled"));
}

#[test]
fn protocol_errors_map_to_statuses() {
    let daemon = start_daemon("protocol", &["--read-timeout-ms", "150"], &[]);

    // 400: bad JSON, unknown setting, out-of-range budget
    for body in [
        "not json at all",
        r#"{"setting":"warp-drive","budget":10}"#,
        r#"{"setting":"digits-mlp","budget":0}"#,
        r#"{"setting":"digits-mlp"}"#,
    ] {
        let resp = post(&daemon, "/v1/jobs", body);
        assert_eq!(resp.status, 400, "body {body:?} -> {}", resp.text());
    }

    // 404: unknown routes and unknown job ids
    assert_eq!(get(&daemon, "/nope").status, 404);
    assert_eq!(get(&daemon, "/v1/jobs/job-999999").status, 404);
    assert_eq!(delete(&daemon, "/v1/jobs/job-999999").status, 404);
    assert_eq!(get(&daemon, "/v1/jobs/job-999999/trace").status, 404);

    // 405: wrong method on a known route
    assert_eq!(delete(&daemon, "/metrics").status, 405);
    assert_eq!(post(&daemon, "/healthz", "{}").status, 405);

    // 408: a client that stalls mid-request is timed out
    let mut slow = TcpStream::connect(daemon.addr).unwrap();
    slow.write_all(b"POST /v1/jobs HT").unwrap();
    slow.flush().unwrap();
    slow.set_read_timeout(Some(TIMEOUT)).unwrap();
    let resp = rex_serve::client::read_response(&mut BufReader::new(slow)).unwrap();
    assert_eq!(resp.status, 408);
}

#[test]
fn metrics_agree_with_the_ledger() {
    let daemon = start_daemon("metrics", &["--workers", "2"], &[]);

    let ids: Vec<String> = (0..3)
        .map(|seed| {
            submit(
                &daemon,
                &format!(r#"{{"setting":"digits-mlp","budget":25,"seed":{seed}}}"#),
            )
        })
        .collect();
    for id in &ids {
        let record = wait_terminal(&daemon, id, Duration::from_secs(60));
        assert_eq!(record["state"].as_str(), Some("done"), "{record:?}");
    }

    let metrics = prometheus_values(&get(&daemon, "/metrics").text());
    assert_eq!(metrics["rex_jobs_submitted_total"], 3.0);
    assert_eq!(metrics["rex_jobs_completed_total"], 3.0);
    assert_eq!(
        metrics.get("rex_jobs_failed_total").copied().unwrap_or(0.0),
        0.0
    );
    assert_eq!(metrics["rex_queue_depth"], 0.0);
    assert_eq!(metrics["rex_jobs_running"], 0.0);
    // the trainer folded per-step telemetry into the registry:
    // 3 jobs × 16 steps
    assert_eq!(metrics["rex_train_steps_total"], 48.0);
    assert_eq!(metrics["rex_train_runs_total"], 3.0);
    // one duration observation per finished job
    assert_eq!(metrics["rex_job_duration_seconds_count"], 3.0);

    // ledger agrees with both the metrics and the per-job records
    let listing = get(&daemon, "/v1/jobs").text();
    let done = listing
        .lines()
        .filter(|l| parse_object(l).unwrap()["state"].as_str() == Some("done"))
        .count();
    assert_eq!(done, 3);
}

/// Observability surfaces: request ids on every response and in the job
/// manifest, access-log lines correlating requests with jobs, and the
/// per-job span profile written when the server runs with `--profile on`.
#[test]
fn access_log_request_ids_and_job_profiles() {
    // outside the daemon's data dir, which Drop removes before we read it
    let log_path =
        std::env::temp_dir().join(format!("rex_e2e_obs_access_{}.log", std::process::id()));
    let _ = std::fs::remove_file(&log_path);
    let daemon = start_daemon(
        "obs",
        &[
            "--access-log",
            log_path.to_str().unwrap(),
            "--profile",
            "on",
        ],
        &[],
    );

    let resp = post(&daemon, "/v1/jobs", QUICK_JOB);
    assert_eq!(resp.status, 202, "{}", resp.text());
    let req_id = resp.header("x-request-id").expect("request id").to_owned();
    let id = json_of(&resp)["id"].as_str().expect("job id").to_owned();
    wait_terminal(&daemon, &id, Duration::from_secs(60));

    // the submitting request's id landed in the job manifest
    let record = json_of(&get(&daemon, &format!("/v1/jobs/{id}")));
    assert_eq!(record["request_id"].as_str(), Some(req_id.as_str()));

    // every response carries an id, even error responses
    assert!(get(&daemon, "/healthz").header("x-request-id").is_some());
    assert!(get(&daemon, "/no/such/path")
        .header("x-request-id")
        .is_some());

    // the worker wrote a Chrome-trace profile next to the job's trace
    let profile = daemon.data_dir.join("jobs").join(&id).join("profile.json");
    let profile_text = std::fs::read_to_string(&profile).expect("profile.json");
    assert!(
        profile_text.starts_with("{\"traceEvents\":["),
        "{profile_text:?}"
    );
    assert!(profile_text.contains("\"name\":\"job\""));
    // ...and the profiled run's trace is still byte-identical to the
    // unprofiled run of the same spec (spans never touch the Recorder)
    let plain = start_daemon("obs_plain", &[], &[]);
    let plain_id = submit(&plain, QUICK_JOB);
    wait_terminal(&plain, &plain_id, Duration::from_secs(60));
    let profiled_trace =
        std::fs::read(daemon.data_dir.join("jobs").join(&id).join("trace.jsonl")).unwrap();
    let plain_trace = std::fs::read(
        plain
            .data_dir
            .join("jobs")
            .join(&plain_id)
            .join("trace.jsonl"),
    )
    .unwrap();
    assert_eq!(profiled_trace, plain_trace);

    // the access log has one line per request, keyed by request id
    drop(daemon); // flush + stop before reading the log
    let log = std::fs::read_to_string(&log_path).expect("access log");
    let submit_line = log
        .lines()
        .find(|l| l.contains(&format!("req={req_id} ")))
        .unwrap_or_else(|| panic!("no access-log line for {req_id}: {log}"));
    assert!(submit_line.contains("method=POST"), "{submit_line}");
    assert!(submit_line.contains("path=/v1/jobs"), "{submit_line}");
    assert!(submit_line.contains("status=202"), "{submit_line}");
    assert!(submit_line.contains(&format!("job={id}")), "{submit_line}");
    assert!(log.lines().all(|l| l.contains("dur_us=")), "{log}");
    let _ = std::fs::remove_file(&log_path);
}

/// Live streaming: a trace reader attached while the job runs sees the
/// full trace without waiting for completion polling, and the stream
/// terminates once the job is done.
#[test]
fn trace_streams_while_the_job_runs() {
    let daemon = start_daemon("stream", &[], &[SLOW_FAULT]);
    let id = submit(&daemon, SLOW_JOB);
    wait_state(&daemon, &id, "running", Duration::from_secs(20));

    // attach mid-run; request() blocks until the chunked stream finishes
    let streamed = get(&daemon, &format!("/v1/jobs/{id}/trace"));
    assert_eq!(streamed.status, 200);
    let record = json_of(&get(&daemon, &format!("/v1/jobs/{id}")));
    assert_eq!(record["state"].as_str(), Some("done"));
    let text = streamed.text();
    assert_eq!(text.matches("\"ev\":\"step\"").count(), 64);
    assert!(text.lines().last().unwrap().contains("run_end"));
}

/// Path sanity for `CARGO_BIN_EXE_rexd` usage elsewhere.
#[test]
fn rexd_help_prints_usage() {
    let out = Command::new(env!("CARGO_BIN_EXE_rexd"))
        .arg("--help")
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("rexctl serve"));
    // missing --data-dir is a usage error, exit code 2
    let out = Command::new(env!("CARGO_BIN_EXE_rexd")).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}

/// A bad command line — `--threads 0` as on every other binary, an
/// undeclared flag, a flag without its value, a bad value — exits 2
/// with the flag's name on stderr's first line, before binding.
#[test]
fn rexd_refuses_bad_command_lines() {
    let dir = std::env::temp_dir().join(format!("rex_e2e_refused_{}", std::process::id()));
    let d = dir.to_str().unwrap();
    let cases: [(&[&str], &str); 4] = [
        (&["--data-dir", d, "--threads", "0"], "--threads"),
        (&["--data-dir", d, "--warp", "9"], "--warp"),
        (&["--data-dir", d, "--workers"], "--workers"),
        (&["--data-dir", d, "--profile", "maybe"], "--profile"),
    ];
    for (args, flag) in cases {
        let mut child = Command::new(env!("CARGO_BIN_EXE_rexd"))
            .args(["--addr", "127.0.0.1:0"])
            .args(args)
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        // a daemon that accepted the line would serve until killed
        let deadline = Instant::now() + TIMEOUT;
        let status = loop {
            if let Some(status) = child.try_wait().unwrap() {
                break status;
            }
            if Instant::now() > deadline {
                let _ = child.kill();
                let _ = child.wait();
                let _ = std::fs::remove_dir_all(&dir);
                panic!("rexd {args:?} started instead of refusing");
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        let mut stderr = String::new();
        let _ = std::io::Read::read_to_string(&mut child.stderr.take().unwrap(), &mut stderr);
        assert_eq!(status.code(), Some(2), "{args:?}: {stderr}");
        let first = stderr.lines().next().unwrap_or_default();
        assert!(first.contains(flag), "{args:?}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Keep `Path` in the imports honest (helper for future tests reading
/// job dirs directly).
#[allow(dead_code)]
fn job_dir(daemon: &Daemon, id: &str) -> PathBuf {
    Path::new(&daemon.data_dir).join("jobs").join(id)
}

/// A small checkpointed job for the supervision tests: budget 25 of
/// digits-mlp is 16 steps, one checkpoint write per step.
const SUPERVISED_JOB: &str = r#"{"setting":"digits-mlp","budget":25,"schedule":"rex","optimizer":"sgdm","seed":7,"checkpoint_every":1}"#;

/// A transient failure (injected I/O error on the third checkpoint write)
/// is retried with backoff instead of failing the job: the second attempt
/// resumes from the surviving checkpoint and completes, with the retry
/// count surfaced in the manifest and on the wire.
#[test]
fn transient_io_failure_is_retried_and_the_job_completes() {
    let daemon = start_daemon(
        "retry",
        &["--workers", "1"],
        &[("REX_FAULTS", "io-err-on-write=state:3")],
    );
    let id = submit(&daemon, SUPERVISED_JOB);
    let record = wait_terminal(&daemon, &id, Duration::from_secs(60));
    assert_eq!(record["state"].as_str(), Some("done"), "{record:?}");
    assert_eq!(record["retries"].as_u64(), Some(1), "{record:?}");
    assert_eq!(record["max_retries"].as_u64(), Some(3), "{record:?}");
    let metrics = prometheus_values(&get(&daemon, "/metrics").text());
    assert_eq!(metrics["rex_jobs_retried_total"], 1.0);
    assert_eq!(
        metrics.get("rex_jobs_failed_total").copied().unwrap_or(0.0),
        0.0
    );
}

/// The watchdog halts a job whose step counter stops moving (here: a 4 s
/// stall injected into one checkpoint write, against a 1 s watchdog) and
/// the supervisor retries it; the retry resumes and completes.
#[test]
fn watchdog_halts_a_stalled_job_and_the_retry_completes() {
    let daemon = start_daemon(
        "watchdog",
        &["--workers", "1", "--watchdog-secs", "1"],
        &[("REX_FAULTS", "slow-io-on-write=state:4:4000")],
    );
    let id = submit(&daemon, SUPERVISED_JOB);
    let record = wait_terminal(&daemon, &id, Duration::from_secs(60));
    assert_eq!(record["state"].as_str(), Some("done"), "{record:?}");
    assert_eq!(record["retries"].as_u64(), Some(1), "{record:?}");
    let metrics = prometheus_values(&get(&daemon, "/metrics").text());
    assert_eq!(metrics["rex_jobs_watchdog_total"], 1.0);
    assert_eq!(metrics["rex_jobs_retried_total"], 1.0);
}

/// SIGTERM drains gracefully: admission answers 503 + Retry-After (not a
/// connection reset), `/readyz` flips to 503 while `/healthz` stays 200,
/// the running job checkpoints and returns to `Queued` on disk, the
/// process exits 0, and a later daemon life on the same data dir resumes
/// the job to a trace byte-identical to a never-drained run's.
#[test]
fn sigterm_drains_and_a_restart_resumes_with_identical_trace() {
    let data_dir = std::env::temp_dir().join(format!("rex_e2e_drain_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    let mut daemon = start_daemon_at(
        &data_dir,
        true,
        &["--workers", "1"],
        // 500 ms per checkpoint write: a wide-open drain window
        &[("REX_FAULTS", "slow-io-on-write=state:0:500")],
    );
    assert_eq!(get(&daemon, "/readyz").status, 200);

    let id = submit(&daemon, SUPERVISED_JOB);
    wait_state(&daemon, &id, "running", Duration::from_secs(20));

    let pid = daemon.child.id().to_string();
    assert!(Command::new("kill")
        .args(["-TERM", &pid])
        .status()
        .unwrap()
        .success());
    // Inside the drain window (the current step's 500 ms write must
    // finish before the trainer can halt), admission is 503 with a
    // Retry-After, and readiness — unlike liveness — reports draining.
    std::thread::sleep(Duration::from_millis(150));
    let rejected = post(&daemon, "/v1/jobs", SUPERVISED_JOB);
    assert_eq!(rejected.status, 503, "{}", rejected.text());
    assert!(rejected.header("retry-after").is_some());
    let ready = get(&daemon, "/readyz");
    assert_eq!(ready.status, 503);
    assert!(ready.header("retry-after").is_some());
    assert_eq!(get(&daemon, "/healthz").status, 200);

    let status = daemon.child.wait().unwrap();
    assert_eq!(status.code(), Some(0), "drain must exit cleanly");
    drop(daemon);

    // the drained job is parked Queued on disk, not canceled
    let manifest =
        std::fs::read_to_string(data_dir.join("jobs").join(&id).join("job.json")).unwrap();
    assert!(manifest.contains("\"state\":\"queued\""), "{manifest}");

    // a second life resumes it to completion (no fault this time)...
    let daemon2 = start_daemon_at(&data_dir, true, &["--workers", "1"], &[]);
    let record = wait_terminal(&daemon2, &id, Duration::from_secs(60));
    assert_eq!(record["state"].as_str(), Some("done"), "{record:?}");
    let resumed_trace = std::fs::read(data_dir.join("jobs").join(&id).join("trace.jsonl")).unwrap();
    drop(daemon2);

    // ...byte-identical to the same spec run without any drain
    let clean = start_daemon("drain_clean", &[], &[]);
    let clean_id = submit(&clean, SUPERVISED_JOB);
    wait_terminal(&clean, &clean_id, Duration::from_secs(60));
    let clean_trace = std::fs::read(
        clean
            .data_dir
            .join("jobs")
            .join(&clean_id)
            .join("trace.jsonl"),
    )
    .unwrap();
    assert_eq!(resumed_trace, clean_trace);
    let _ = std::fs::remove_dir_all(&data_dir);
}
