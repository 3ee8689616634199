//! Workspace-level serving e2e: the two contracts that tie the HTTP
//! front door to the rest of the stack.
//!
//! 1. **Front-end equivalence** — a job run over HTTP produces a
//!    `trace.jsonl` byte-identical to the trace of the equivalent
//!    `rexctl train` invocation (same setting/budget/schedule/seed and,
//!    because checkpoint events are deterministic trace lines, the same
//!    checkpoint cadence).
//! 2. **Eviction and resume** — a `rex-faults` `kill-on-write` brings the
//!    whole server down mid-job (exit 86); a restart on the same data
//!    dir re-enqueues the job, resumes it from its last `REXSTATE1`
//!    checkpoint, and finishes with the same trace bytes an
//!    uninterrupted run produces.
//!
//! These run as root-package tests (the tier-1 `cargo test` surface), so
//! they locate the `rexctl`/`rexd` binaries themselves and build them on
//! demand — `cargo test --test serve_e2e` works from a cold target dir.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use rex::faults::KILL_EXIT_CODE;
use rex::serve::client::{request, HttpResponse};
use rex::telemetry::json::{parse_object, Value};

const TIMEOUT: Duration = Duration::from_secs(10);

/// The profile directory this test binary runs from
/// (`target/{debug,release}`), which is also where `cargo build` puts
/// the workspace binaries.
fn profile_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("current_exe");
    // target/<profile>/deps/<test-bin> -> target/<profile>
    exe.parent()
        .and_then(Path::parent)
        .expect("profile dir")
        .to_owned()
}

/// Builds (once) and returns the path of a workspace binary.
fn bin_path(name: &str) -> PathBuf {
    static BUILD: OnceLock<()> = OnceLock::new();
    let profile = profile_dir();
    BUILD.get_or_init(|| {
        let mut cmd = Command::new(env!("CARGO"));
        cmd.args([
            "build",
            "--offline",
            "-p",
            "rex-cli",
            "-p",
            "rex-serve",
            "--bins",
        ]);
        if profile.file_name().is_some_and(|n| n == "release") {
            cmd.arg("--release");
        }
        let status = cmd
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .status()
            .expect("cargo build for serve e2e");
        assert!(status.success(), "building rexctl/rexd failed");
    });
    let path = profile.join(format!("{name}{}", std::env::consts::EXE_SUFFIX));
    assert!(path.is_file(), "missing binary {}", path.display());
    path
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rex_serve_e2e_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

struct Daemon {
    child: Child,
    addr: SocketAddr,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Starts `rexd` on an ephemeral port against `data_dir`, optionally
/// with a fault plan in its environment.
fn start_daemon(data_dir: &Path, faults: Option<&str>) -> Daemon {
    let mut cmd = Command::new(bin_path("rexd"));
    cmd.arg("--data-dir")
        .arg(data_dir)
        .args(["--addr", "127.0.0.1:0", "--workers", "1"])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    match faults {
        Some(plan) => cmd.env("REX_FAULTS", plan),
        None => cmd.env_remove("REX_FAULTS"),
    };
    let mut child = cmd.spawn().expect("spawn rexd");
    let stdout = child.stdout.take().expect("rexd stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("rexd startup line");
    let addr = line
        .trim()
        .strip_prefix("rexd listening on http://")
        .unwrap_or_else(|| panic!("unexpected startup line {line:?}"))
        .parse()
        .expect("parse rexd address");
    Daemon { child, addr }
}

fn get(addr: SocketAddr, path: &str) -> HttpResponse {
    request(addr, "GET", path, None, TIMEOUT).expect("GET")
}

fn json_of(resp: &HttpResponse) -> BTreeMap<String, Value> {
    parse_object(&resp.text()).unwrap_or_else(|e| panic!("bad JSON {:?}: {e}", resp.text()))
}

fn submit(addr: SocketAddr, body: &str) -> String {
    let resp = request(addr, "POST", "/v1/jobs", Some(body), TIMEOUT).expect("POST");
    assert_eq!(resp.status, 202, "{}", resp.text());
    json_of(&resp)["id"].as_str().expect("job id").to_owned()
}

fn wait_done(addr: SocketAddr, id: &str, within: Duration) -> BTreeMap<String, Value> {
    let deadline = Instant::now() + within;
    loop {
        let record = json_of(&get(addr, &format!("/v1/jobs/{id}")));
        let state = record["state"].as_str().unwrap().to_owned();
        if state == "done" {
            return record;
        }
        assert!(
            !["failed", "canceled"].contains(&state.as_str()),
            "job {id} ended {state}: {record:?}"
        );
        assert!(
            Instant::now() < deadline,
            "job {id} stuck in {state} past {within:?}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Runs `rexctl train` on `setting` with a trace and checkpoint cadence
/// matching the server's, returning the trace bytes.
fn cli_reference_trace(
    dir: &Path,
    setting: &str,
    budget: u32,
    seed: u64,
    checkpoint_every: u64,
) -> Vec<u8> {
    let trace = dir.join("cli_trace.jsonl");
    let ckpt = dir.join("cli_ckpt.state");
    let out = Command::new(bin_path("rexctl"))
        .args([
            "train",
            "--setting",
            setting,
            "--budget",
            &budget.to_string(),
            "--schedule",
            "rex",
            "--optimizer",
            "sgdm",
            "--seed",
            &seed.to_string(),
            "--checkpoint-every",
            &checkpoint_every.to_string(),
        ])
        .arg("--trace")
        .arg(&trace)
        .arg("--checkpoint")
        .arg(&ckpt)
        .env_remove("REX_FAULTS")
        .output()
        .expect("rexctl train");
    assert!(
        out.status.success(),
        "rexctl train failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::read(&trace).expect("CLI trace file")
}

/// Front-end equivalence: the server's on-disk trace, the trace it
/// streams over HTTP, and the CLI's trace are all byte-identical — for
/// the digits classifier and for the VAE.
#[test]
fn http_job_trace_matches_cli_trace_byte_for_byte() {
    for (setting, budget) in [("digits-mlp", 50u32), ("vae-mnist", 1)] {
        let dir = fresh_dir(&format!("parity_{setting}"));
        let (seed, checkpoint_every) = (9u64, 5u64);

        let server_trace;
        let streamed;
        {
            let daemon = start_daemon(&dir, None);
            let id = submit(
                daemon.addr,
                &format!(
                    r#"{{"setting":"{setting}","budget":{budget},"schedule":"rex","optimizer":"sgdm","seed":{seed},"checkpoint_every":{checkpoint_every}}}"#
                ),
            );
            wait_done(daemon.addr, &id, Duration::from_secs(60));
            streamed = get(daemon.addr, &format!("/v1/jobs/{id}/trace")).body;
            server_trace = std::fs::read(dir.join("jobs").join(&id).join("trace.jsonl")).unwrap();
        }

        let cli_trace = cli_reference_trace(&dir, setting, budget, seed, checkpoint_every);
        assert!(!cli_trace.is_empty());
        assert_eq!(
            streamed, server_trace,
            "{setting}: streamed trace differs from the server's on-disk trace"
        );
        assert_eq!(
            server_trace, cli_trace,
            "{setting}: HTTP-submitted job and CLI run produced different trace bytes"
        );
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Eviction and resume: a fault-injected kill takes the server down on
/// its second checkpoint write (exit 86, mid-job); a restart on the same
/// data dir resumes the job from the checkpoint and the finished trace
/// is byte-identical to an uninterrupted CLI run's.
#[test]
fn killed_server_resumes_job_with_identical_trace() {
    let dir = fresh_dir("resume");
    let (budget, seed, checkpoint_every) = (100u32, 4u64, 5u64);
    let job = format!(
        r#"{{"setting":"digits-mlp","budget":{budget},"schedule":"rex","optimizer":"sgdm","seed":{seed},"checkpoint_every":{checkpoint_every}}}"#
    );

    // phase 1: server dies on the 2nd "state" (checkpoint) write — after
    // the write lands, so the checkpoint at step 10 is durable
    let id;
    {
        let mut daemon = start_daemon(&dir, Some("kill-on-write=state:2:post"));
        id = submit(daemon.addr, &job);
        let status = daemon.child.wait().expect("wait for injected kill");
        assert_eq!(
            status.code(),
            Some(KILL_EXIT_CODE),
            "server should die with the injected-kill exit code"
        );
    }
    // the job is frozen mid-run: manifest says running, checkpoint exists
    let manifest = std::fs::read_to_string(dir.join("jobs").join(&id).join("job.json")).unwrap();
    assert_eq!(
        parse_object(&manifest).unwrap()["state"].as_str(),
        Some("running")
    );
    assert!(dir.join("jobs").join(&id).join("ckpt.state").is_file());

    // phase 2: restart re-enqueues and resumes from the checkpoint
    let final_trace;
    {
        let daemon = start_daemon(&dir, None);
        let record = wait_done(daemon.addr, &id, Duration::from_secs(60));
        assert_eq!(record["resumes"].as_u64(), Some(1), "{record:?}");
        assert!(record["metric"].as_f64().is_some());
        final_trace = std::fs::read(dir.join("jobs").join(&id).join("trace.jsonl")).unwrap();
    }

    let cli_trace = cli_reference_trace(&dir, "digits-mlp", budget, seed, checkpoint_every);
    assert_eq!(
        final_trace, cli_trace,
        "kill + restart + resume changed the trace bytes"
    );
    let _ = std::fs::remove_dir_all(dir);
}

/// The backpressure contract is visible end-to-end from a cold start: a
/// depth-1 queue with a busy worker answers 429 with `Retry-After`.
#[test]
fn backpressure_is_observable_from_a_fresh_client() {
    let dir = fresh_dir("backpressure");
    let mut cmd = Command::new(bin_path("rexd"));
    cmd.arg("--data-dir")
        .arg(&dir)
        .args([
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "1",
            "--queue-depth",
            "1",
        ])
        .env("REX_FAULTS", "slow-io-on-write=state:0:50")
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    let mut child = cmd.spawn().expect("spawn rexd");
    let stdout = child.stdout.take().unwrap();
    let mut line = String::new();
    BufReader::new(stdout).read_line(&mut line).unwrap();
    let addr: SocketAddr = line
        .trim()
        .strip_prefix("rexd listening on http://")
        .unwrap()
        .parse()
        .unwrap();
    let daemon = Daemon { child, addr };

    let slow =
        r#"{"setting":"digits-mlp","budget":100,"schedule":"rex","seed":1,"checkpoint_every":1}"#;
    let first = submit(daemon.addr, slow);
    // wait until the worker picks it up, freeing the queue slot
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let state = json_of(&get(daemon.addr, &format!("/v1/jobs/{first}")))["state"]
            .as_str()
            .unwrap()
            .to_owned();
        if state == "running" {
            break;
        }
        assert!(Instant::now() < deadline, "job never started running");
        std::thread::sleep(Duration::from_millis(10));
    }
    submit(daemon.addr, slow); // fills the depth-1 queue
    let rejected = request(daemon.addr, "POST", "/v1/jobs", Some(slow), TIMEOUT).unwrap();
    assert_eq!(rejected.status, 429, "{}", rejected.text());
    assert!(rejected.header("retry-after").is_some());
    drop(daemon);
    let _ = std::fs::remove_dir_all(dir);
}

/// Sanity: the test can reach a daemon through a raw socket too (guards
/// against the client accidentally depending on server quirks).
#[test]
fn healthz_over_a_raw_socket() {
    let dir = fresh_dir("raw");
    let daemon = start_daemon(&dir, None);
    use std::io::Write;
    let mut stream = TcpStream::connect(daemon.addr).unwrap();
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
        .unwrap();
    let resp = rex::serve::client::read_response(&mut BufReader::new(stream)).unwrap();
    assert_eq!(resp.status, 200);
    let body = resp.text();
    assert!(body.contains("\"status\":\"ok\""), "{body}");
    assert!(body.contains("\"queue_depth\":"), "{body}");
    assert!(
        resp.header("x-request-id").is_some(),
        "raw-socket responses must carry a request id too"
    );
    drop(daemon);
    let _ = std::fs::remove_dir_all(dir);
}
