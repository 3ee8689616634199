//! `chaos-bench` — deterministic chaos soak for the supervised `rexd`
//! recovery stack (std-only: no criterion, works fully offline).
//!
//! Drives a real `rexd` subprocess through a seeded storm of daemon
//! lives generated by [`rex_faults::ChaosPlan`]: every storm round the
//! daemon runs under a `REX_FAULTS` plan that slows its checkpoint
//! writes, fails or silently corrupts one of them, and then kills the
//! whole process (exit 86) — either at a step boundary or immediately
//! after the poisoned write lands. Each restart on the same `--data-dir`
//! must recover the ledger, quarantine any poisoned checkpoint, and
//! resume every unfinished job from its last durable `REXSTATE1`
//! snapshot. A trailing fault-free round lets the workload drain.
//!
//! The soak then checks the recovery invariants the server advertises:
//!
//! * **no job lost** — every acknowledged submission finishes `done`;
//! * **no job duplicated** — every id handed out exactly once;
//! * **byte-identical traces** — each job's `trace.jsonl` equals the
//!   trace of a fault-free in-process run of the same spec (same seed,
//!   budget, and checkpoint cadence), so kill/corrupt/retry storms are
//!   invisible in the recorded trajectory;
//! * **bounded retries** — no job burned more than the configured
//!   retry budget.
//!
//! It writes `BENCH_chaos.json` at the repository root (schema
//! `rex-chaos-bench/v2`, one flat object) recording the fault mix,
//! observed kills and recoveries, restart-recovery latency quantiles
//! (daemon spawn to the `rexd listening` line, ledger scan included),
//! retry totals, and the invariant counters. The chaos floors of
//! [`rex_bench::floors`] hold those invariants: any broken floor exits
//! non-zero (keeping the data dir for debugging), and `bench-guard`
//! re-checks the committed artifact.
//!
//! ```text
//! cargo run --release -p rex-bench --bin chaos-bench [-- --smoke]
//!     [--seed N] [--jobs N] [--storm-rounds N] [--workers N] [--out PATH]
//! ```
//!
//! `--smoke` drops to 12 jobs / 4 storm rounds for CI sanity; the
//! committed artifact must come from a full run (>= 50 jobs, >= 20
//! scheduled faults).

use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use rex_bench::floors::Kind;
use rex_bench::measure::{quantiles, Artifact, Sampling};
use rex_bench::{exit_with, or_usage, parse_flags};
use rex_faults::{ChaosKind, ChaosPlan, KILL_EXIT_CODE};
use rex_serve::client::request;
use rex_telemetry::json::{parse_object, Value};
use rex_telemetry::{JsonlSink, Recorder};
use rex_tensor::DType;
use rex_train::settings::load_setting;
use rex_train::{FtConfig, OptimizerKind};

/// Per-request client timeout; short because a dead daemon should fail
/// fast, not stall the soak.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(5);

/// Training budget (percent) per job: 25% of digits-mlp's epochs, 16
/// optimizer steps — long enough to span several checkpoint writes.
const BUDGET: u32 = 25;

/// Checkpoint cadence per job, in steps. Dense on purpose: more `state`
/// writes per round give the fault ordinals more surface to hit.
const CHECKPOINT_EVERY: u64 = 2;

/// Per-job retry budget handed to the daemon (`--max-retries`). Roomy:
/// a job can eat an injected I/O error every round and still finish.
const MAX_RETRIES: u64 = 10;

struct Config {
    seed: u64,
    jobs: usize,
    storm_rounds: usize,
    workers: usize,
    smoke: bool,
    out: Option<String>,
}

const USAGE: &str = "usage: chaos-bench [--smoke] [--seed N] [--jobs N] [--storm-rounds N] \
                     [--workers N] [--out PATH]";

/// The run's configuration, from the command line.
fn config_from_args() -> Config {
    let valued = ["seed", "jobs", "storm-rounds", "workers", "out"];
    let flags = parse_flags(USAGE, &valued, &["smoke"]);
    let smoke = flags.switch("smoke");
    let num = |key: &str, default: u64| or_usage(flags.get_or(key, default), USAGE);
    Config {
        seed: num("seed", 7),
        jobs: num("jobs", if smoke { 12 } else { 60 }).max(1) as usize,
        storm_rounds: num("storm-rounds", if smoke { 4 } else { 10 }).max(1) as usize,
        workers: num("workers", 2).max(1) as usize,
        smoke,
        out: flags.get("out").map(str::to_owned),
    }
}

/// The directory holding this binary's build profile — where the
/// workspace's other binaries land too.
fn profile_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("current_exe");
    let mut dir = exe.parent().expect("exe dir").to_path_buf();
    if dir.file_name().is_some_and(|n| n == "deps") {
        dir.pop();
    }
    dir
}

/// Finds `rexd`, building it (offline) if the target dir lacks it.
fn rexd_path() -> PathBuf {
    let dir = profile_dir();
    let path = dir.join(format!("rexd{}", std::env::consts::EXE_SUFFIX));
    if path.is_file() {
        return path;
    }
    let mut cmd = Command::new(env!("CARGO"));
    cmd.args(["build", "--offline", "-p", "rex-serve", "--bins"]);
    if dir.file_name().is_some_and(|n| n == "release") {
        cmd.arg("--release");
    }
    let status = cmd
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .status()
        .unwrap_or_else(|e| exit_with(&format!("cargo build for rexd failed to spawn: {e}")));
    if !status.success() {
        exit_with("building rexd failed");
    }
    if !path.is_file() {
        exit_with(&format!("built rexd but {} is missing", path.display()));
    }
    path
}

struct Daemon {
    child: Child,
    addr: SocketAddr,
    startup: Duration,
}

/// Spawns one daemon life against `data_dir`, with `faults` as its
/// `REX_FAULTS` plan (empty = clean). Blocks until the listening line
/// appears; the elapsed spawn-to-listening time covers binding plus the
/// recovery scan that re-enqueues every unfinished job.
fn start_daemon(
    rexd: &Path,
    data_dir: &Path,
    queue_depth: usize,
    workers: usize,
    faults: &str,
) -> Daemon {
    let started = Instant::now();
    let mut cmd = Command::new(rexd);
    cmd.arg("--data-dir")
        .arg(data_dir)
        .args(["--addr", "127.0.0.1:0"])
        .args(["--workers", &workers.to_string()])
        .args(["--queue-depth", &queue_depth.to_string()])
        .args(["--checkpoint-every", &CHECKPOINT_EVERY.to_string()])
        .args(["--max-retries", &MAX_RETRIES.to_string()])
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    if faults.is_empty() {
        cmd.env_remove("REX_FAULTS");
    } else {
        cmd.env("REX_FAULTS", faults);
    }
    let mut child = cmd
        .spawn()
        .unwrap_or_else(|e| exit_with(&format!("spawn rexd: {e}")));
    let stdout = child.stdout.take().expect("rexd stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .unwrap_or_else(|e| exit_with(&format!("rexd startup line: {e}")));
    let addr = line
        .trim()
        .strip_prefix("rexd listening on http://")
        .unwrap_or_else(|| exit_with(&format!("unexpected startup line {line:?}")))
        .parse()
        .unwrap_or_else(|e| exit_with(&format!("parse rexd address: {e}")));
    Daemon {
        child,
        addr,
        startup: started.elapsed(),
    }
}

fn job_body(seed: u64) -> String {
    format!(
        "{{\"setting\":\"digits-mlp\",\"budget\":{BUDGET},\"schedule\":\"rex\",\
         \"optimizer\":\"sgdm\",\"seed\":{seed},\"checkpoint_every\":{CHECKPOINT_EVERY}}}"
    )
}

/// Submits the job for `seed`; `Ok(None)` means the daemon went away
/// mid-request (expected during a storm round — the seed is retried on
/// the next life).
fn try_submit(addr: SocketAddr, seed: u64) -> Result<Option<String>, String> {
    let resp = match request(
        addr,
        "POST",
        "/v1/jobs",
        Some(&job_body(seed)),
        REQUEST_TIMEOUT,
    ) {
        Ok(resp) => resp,
        Err(_) => return Ok(None), // daemon died under us
    };
    match resp.status {
        202 => {
            let fields =
                parse_object(resp.text().trim()).map_err(|e| format!("bad 202 body: {e}"))?;
            match fields.get("id") {
                Some(Value::Str(id)) => Ok(Some(id.clone())),
                _ => Err("202 body lacks an id".to_owned()),
            }
        }
        429 | 503 => {
            // backpressure or drain; brief pause, report "not accepted"
            std::thread::sleep(Duration::from_millis(20));
            Ok(None)
        }
        other => Err(format!("submit got unexpected status {other}")),
    }
}

/// One poll of the listing: `Some(true)` when every ledger job is
/// `done` and the ledger covers all of `expected`; `None` when the
/// daemon is unreachable.
fn all_done(addr: SocketAddr, expected: &BTreeSet<String>) -> Option<bool> {
    let resp = request(addr, "GET", "/v1/jobs", None, REQUEST_TIMEOUT).ok()?;
    if resp.status != 200 {
        return Some(false);
    }
    let mut seen = BTreeSet::new();
    for line in resp.text().lines().filter(|l| !l.trim().is_empty()) {
        let fields = parse_object(line).ok()?;
        match (fields.get("id"), fields.get("state")) {
            (Some(Value::Str(id)), Some(Value::Str(state))) => {
                if state != "done" {
                    return Some(false);
                }
                seen.insert(id.clone());
            }
            _ => return Some(false),
        }
    }
    Some(expected.iter().all(|id| seen.contains(id)))
}

/// A job manifest as recovered from disk after the final daemon life.
struct DiskJob {
    id: String,
    state: String,
    seed: u64,
    retries: u64,
    resumes: u64,
}

/// Reads every `jobs/<id>/job.json` manifest under `data_dir`.
fn scan_manifests(data_dir: &Path) -> Vec<DiskJob> {
    let mut out = Vec::new();
    let jobs_dir = data_dir.join("jobs");
    let entries = match std::fs::read_dir(&jobs_dir) {
        Ok(entries) => entries,
        Err(e) => exit_with(&format!("reading {}: {e}", jobs_dir.display())),
    };
    for entry in entries.flatten() {
        let manifest = entry.path().join("job.json");
        let Ok(text) = std::fs::read_to_string(&manifest) else {
            continue;
        };
        let fields = parse_object(text.trim())
            .unwrap_or_else(|e| exit_with(&format!("bad manifest {}: {e}", manifest.display())));
        let str_of = |key: &str| -> String {
            fields
                .get(key)
                .and_then(Value::as_str)
                .unwrap_or_else(|| {
                    exit_with(&format!("manifest {} lacks {key}", manifest.display()))
                })
                .to_owned()
        };
        let num_of = |key: &str| fields.get(key).and_then(Value::as_u64).unwrap_or(0);
        out.push(DiskJob {
            id: str_of("id"),
            state: str_of("state"),
            seed: num_of("seed"),
            retries: num_of("retries"),
            resumes: num_of("resumes"),
        });
    }
    out
}

/// Counts quarantined (`*.state.poisoned`) checkpoints left on disk by
/// the corruption rounds.
fn count_quarantined(data_dir: &Path) -> usize {
    let jobs_dir = data_dir.join("jobs");
    let Ok(entries) = std::fs::read_dir(&jobs_dir) else {
        return 0;
    };
    entries
        .flatten()
        .filter_map(|entry| std::fs::read_dir(entry.path()).ok())
        .flatten()
        .flatten()
        .filter(|f| f.file_name().to_string_lossy().ends_with(".state.poisoned"))
        .count()
}

/// Runs the fault-free twin of one job spec in-process (same budget,
/// seed, and checkpoint cadence as the submitted jobs) and returns its
/// trace bytes. The server contract says HTTP jobs trace through the
/// same single cell runner, so a chaos-storm survivor must match this
/// byte for byte.
fn twin_trace(scratch: &Path, seed: u64) -> Vec<u8> {
    let trace_path = scratch.join(format!("twin_{seed}.jsonl"));
    let ckpt_path = scratch.join(format!("twin_{seed}.state"));
    let sink = JsonlSink::create(&trace_path)
        .unwrap_or_else(|e| exit_with(&format!("twin trace sink: {e}")));
    let mut rec = Recorder::new(Box::new(sink));
    let setting = load_setting("digits-mlp", seed).unwrap_or_else(|e| exit_with(&e));
    let optimizer = OptimizerKind::sgdm();
    let lr = setting.default_lr(&optimizer);
    let schedule = "rex"
        .parse()
        .unwrap_or_else(|e| exit_with(&format!("schedule: {e}")));
    let ft = FtConfig {
        checkpoint_every: Some(CHECKPOINT_EVERY),
        checkpoint_path: Some(ckpt_path.clone()),
        ..FtConfig::default()
    };
    setting
        .run_ft(
            BUDGET,
            optimizer,
            schedule,
            lr,
            seed,
            DType::F32,
            ft,
            &mut rec,
        )
        .unwrap_or_else(|e| exit_with(&format!("twin run (seed {seed}): {e}")));
    rec.flush();
    drop(rec);
    let bytes =
        std::fs::read(&trace_path).unwrap_or_else(|e| exit_with(&format!("twin trace: {e}")));
    let _ = std::fs::remove_file(&trace_path);
    let _ = std::fs::remove_file(&ckpt_path);
    bytes
}

#[allow(clippy::too_many_lines)]
fn main() {
    let cfg = config_from_args();
    // The daemon children get per-round fault plans; the bench process
    // itself (and its in-process twin runs) must stay fault-free.
    std::env::remove_var("REX_FAULTS");

    let plan = ChaosPlan::generate(cfg.seed, cfg.storm_rounds);
    let rexd = rexd_path();
    let data_dir = std::env::temp_dir().join(format!("rex-chaos-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    std::fs::create_dir_all(&data_dir).unwrap_or_else(|e| exit_with(&format!("data dir: {e}")));
    let queue_depth = cfg.jobs + 8;

    println!(
        "chaos-bench: seed={} jobs={} storm_rounds={} workers={} faults={}{}",
        cfg.seed,
        cfg.jobs,
        cfg.storm_rounds,
        cfg.workers,
        plan.total_faults(),
        if cfg.smoke { " (smoke)" } else { "" }
    );

    let wall_start = Instant::now();
    let mut submitted: Vec<String> = Vec::with_capacity(cfg.jobs);
    let mut next_seed = 0u64;
    let mut kills_observed = 0usize;
    let mut recovery_ms: Vec<f64> = Vec::new();
    let mut drained = false;

    for (round_idx, round) in plan.rounds.iter().enumerate() {
        let spec = round.spec();
        let daemon = start_daemon(&rexd, &data_dir, queue_depth, cfg.workers, &spec);
        if round_idx > 0 {
            recovery_ms.push(daemon.startup.as_secs_f64() * 1e3);
        }
        let mut child = daemon.child;
        let addr = daemon.addr;

        // push any seeds not yet acknowledged; a mid-storm death just
        // defers the rest to the next life
        while (next_seed as usize) < cfg.jobs {
            match try_submit(addr, next_seed) {
                Ok(Some(id)) => {
                    submitted.push(id);
                    next_seed += 1;
                }
                Ok(None) => break,
                Err(e) => exit_with(&e),
            }
        }

        let storm = !spec.is_empty();
        let expected: BTreeSet<String> = submitted.iter().cloned().collect();
        let all_in = next_seed as usize == cfg.jobs;
        if storm {
            // wait for the scheduled kill; bail out early if the round's
            // ordinals can no longer fire (workload already drained)
            let deadline = Instant::now() + Duration::from_secs(60);
            let mut last_poll = Instant::now();
            let exit = loop {
                if let Some(status) = child.try_wait().expect("try_wait rexd") {
                    break Some(status);
                }
                if Instant::now() > deadline {
                    break None;
                }
                if all_in && last_poll.elapsed() > Duration::from_millis(500) {
                    last_poll = Instant::now();
                    if all_done(addr, &expected) == Some(true) {
                        break None;
                    }
                }
                std::thread::sleep(Duration::from_millis(20));
            };
            match exit {
                Some(status) => {
                    if status.code() == Some(KILL_EXIT_CODE) {
                        kills_observed += 1;
                    }
                    println!(
                        "round {round_idx:>2}: [{spec}] daemon exit {:?} after {} acks",
                        status.code(),
                        submitted.len()
                    );
                }
                None => {
                    // fault never fired this life (or the workload is
                    // already done) — end the round ourselves
                    let _ = child.kill();
                    let _ = child.wait();
                    println!(
                        "round {round_idx:>2}: [{spec}] no kill fired; round ended by harness"
                    );
                }
            }
        } else {
            // the clean drain round: poll until every ledger job is done
            let deadline = Instant::now() + Duration::from_secs(if cfg.smoke { 120 } else { 600 });
            loop {
                if all_in && all_done(addr, &expected) == Some(true) {
                    drained = true;
                    break;
                }
                if Instant::now() > deadline {
                    break;
                }
                if !all_in {
                    // daemon refused mid-round submissions? retry here
                    while (next_seed as usize) < cfg.jobs {
                        match try_submit(addr, next_seed) {
                            Ok(Some(id)) => {
                                submitted.push(id);
                                next_seed += 1;
                            }
                            Ok(None) => break,
                            Err(e) => exit_with(&e),
                        }
                    }
                }
                std::thread::sleep(Duration::from_millis(50));
            }
            println!(
                "round {round_idx:>2}: [clean] drained={drained} ({} jobs acknowledged)",
                submitted.len()
            );
            let _ = child.kill();
            let _ = child.wait();
        }
    }

    // ---- invariants, from the durable state the daemons left behind ----
    let manifests = scan_manifests(&data_dir);
    let mut ids = BTreeSet::new();
    let duplicated = submitted
        .iter()
        .filter(|id| !ids.insert((*id).clone()))
        .count();
    let by_id: BTreeMap<&str, &DiskJob> = manifests.iter().map(|j| (j.id.as_str(), j)).collect();
    let lost = ids
        .iter()
        .filter(|id| !matches!(by_id.get(id.as_str()), Some(j) if j.state == "done"))
        .count();
    let orphans = manifests.iter().filter(|j| !ids.contains(&j.id)).count();
    let completed = manifests.iter().filter(|j| j.state == "done").count();
    let failed = manifests.iter().filter(|j| j.state != "done").count();
    let retries_total: u64 = manifests.iter().map(|j| j.retries).sum();
    let max_retries_seen = manifests.iter().map(|j| j.retries).max().unwrap_or(0);
    let resumes_total: u64 = manifests.iter().map(|j| j.resumes).sum();
    let quarantined = count_quarantined(&data_dir);

    // ---- twin traces: every survivor must match its fault-free twin ----
    let scratch = data_dir.join("twins");
    std::fs::create_dir_all(&scratch).unwrap_or_else(|e| exit_with(&format!("twin scratch: {e}")));
    let mut twins: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut traces_checked = 0usize;
    let mut mismatches = 0usize;
    for job in manifests.iter().filter(|j| j.state == "done") {
        let twin = twins
            .entry(job.seed)
            .or_insert_with(|| twin_trace(&scratch, job.seed));
        let trace_path = data_dir.join("jobs").join(&job.id).join("trace.jsonl");
        let actual = std::fs::read(&trace_path)
            .unwrap_or_else(|e| exit_with(&format!("trace {}: {e}", trace_path.display())));
        traces_checked += 1;
        if &actual != twin {
            mismatches += 1;
            eprintln!(
                "chaos-bench: trace mismatch for job {} (seed {}): {} vs twin {} bytes",
                job.id,
                job.seed,
                actual.len(),
                twin.len()
            );
        }
    }
    let wall_s = wall_start.elapsed().as_secs_f64();

    let recoveries = recovery_ms.len();
    let recovery = quantiles(recovery_ms);
    println!(
        "kills {kills_observed} / {} scheduled   recoveries {recoveries}   \
         recovery p50 {:.1} ms p99 {:.1} ms",
        plan.count(ChaosKind::Kill),
        recovery.0,
        recovery.1
    );
    println!(
        "jobs done {completed} failed {failed} lost {lost} duplicated {duplicated} \
         orphans {orphans}   retries {retries_total} (max/job {max_retries_seen})   \
         resumes {resumes_total}   quarantined {quarantined}"
    );
    println!(
        "traces {traces_checked} checked, {} identical to fault-free twins   wall {:.1}s",
        traces_checked - mismatches,
        wall_s
    );

    let mut art = Artifact::new(Kind::Chaos, &Sampling::once(cfg.smoke));
    art.count("seed", cfg.seed as usize);
    art.count("jobs", cfg.jobs);
    art.count("workers", cfg.workers);
    art.count("storm_rounds", cfg.storm_rounds);
    art.count("rounds", plan.rounds.len());
    let kinds = [
        ("kill", ChaosKind::Kill),
        ("io_err", ChaosKind::IoErr),
        ("corrupt", ChaosKind::Corrupt),
        ("slow_io", ChaosKind::SlowIo),
    ];
    for (name, kind) in kinds {
        art.count(format!("faults.{name}"), plan.count(kind));
    }
    art.count("faults.total", plan.total_faults());
    art.count("kills_observed", kills_observed);
    art.count("recoveries", recoveries);
    art.num("recovery_ms.p50", recovery.0);
    art.num("recovery_ms.p99", recovery.1);
    art.num("recovery_ms.max", recovery.2);
    art.flag("drained", drained);
    art.count("completed", completed);
    art.count("failed", failed);
    art.count("lost", lost);
    art.count("duplicated", duplicated);
    art.count("orphans", orphans);
    art.count("retries_total", retries_total as usize);
    art.count("max_retries_seen", max_retries_seen as usize);
    art.count("retry_budget", MAX_RETRIES as usize);
    art.count("resumes_total", resumes_total as usize);
    art.count("quarantined", quarantined);
    art.count("traces_checked", traces_checked);
    art.flag("traces_identical", mismatches == 0);
    art.num("wall_s", wall_s);

    let default_out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_chaos.json");
    let out = cfg.out.as_deref().unwrap_or(default_out);
    let held =
        (art.write_checked(out)).unwrap_or_else(|e| exit_with(&format!("writing {out}: {e}")));
    println!("wrote {out}");
    if held {
        let _ = std::fs::remove_dir_all(&data_dir);
        println!("chaos-bench: all recovery invariants held");
    } else {
        eprintln!("chaos-bench: state kept at {}", data_dir.display());
        std::process::exit(1);
    }
}
