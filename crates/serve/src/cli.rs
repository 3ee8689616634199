//! The `rexctl serve` / `rexd` entry point: flag parsing and foreground
//! server lifecycle. Lives here (not in `rex-cli`) so the daemon binary
//! and the subcommand share one implementation without a dependency
//! cycle.

use std::collections::BTreeMap;
use std::path::PathBuf;

use crate::server::{ServeConfig, Server};

/// Usage text for the serve front end.
pub const USAGE: &str = "\
usage: rexctl serve --data-dir DIR [--addr HOST:PORT] [--queue-depth N]
                    [--workers N] [--checkpoint-every STEPS]
                    [--read-timeout-ms MS] [--retry-after-secs S]
                    [--max-retries N] [--watchdog-secs S]
                    [--threads N] [--backend scalar|simd|auto]
                    [--access-log FILE] [--profile on|off]

Runs the budgeted-training job server in the foreground. Durable job
state (manifests, traces, REXSTATE1 checkpoints) lives under --data-dir;
restarting on the same directory re-enqueues unfinished jobs, which
resume from their last checkpoint. --addr defaults to 127.0.0.1:0 (an
ephemeral port, printed on startup).

Supervision: transiently failed jobs (checkpoint/trace I/O, hung runs)
are re-queued with deterministic full-jitter exponential backoff, up to
--max-retries attempts per job (jobs may override via the max_retries
spec field); --watchdog-secs S halts and retries any running job that
makes no step progress for S seconds (0, the default, disables it).
SIGTERM drains gracefully: submissions get 503 + Retry-After, /readyz
flips to 503, running jobs checkpoint at their next step boundary and
return to the queue on disk, then the process exits 0; a later start on
the same --data-dir picks every job back up.

Observability: --access-log appends one key=value line per request
(request id, method, path, status, bytes, duration, job id);
--profile on collects a phase-span profile per job and writes it to
jobs/<id>/profile.json as Chrome trace-event JSON (load in Perfetto).";

fn parse_flags(argv: &[String]) -> Result<BTreeMap<String, String>, String> {
    let mut map = BTreeMap::new();
    let mut i = 0;
    while i < argv.len() {
        let key = argv[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got {:?}", argv[i]))?;
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("missing value for --{key}"))?;
        map.insert(key.to_string(), value.clone());
        i += 2;
    }
    Ok(map)
}

/// Builds a [`ServeConfig`] from `--flag value` arguments.
///
/// # Errors
///
/// A usage message naming the offending flag.
pub fn config_from_args(argv: &[String]) -> Result<ServeConfig, String> {
    let flags = parse_flags(argv)?;
    let known = [
        "addr",
        "data-dir",
        "queue-depth",
        "workers",
        "checkpoint-every",
        "read-timeout-ms",
        "retry-after-secs",
        "max-retries",
        "watchdog-secs",
        "threads",
        "backend",
        "access-log",
        "profile",
    ];
    if let Some(k) = flags.keys().find(|k| !known.contains(&k.as_str())) {
        return Err(format!("unknown flag --{k}"));
    }

    if let Some(threads) = flags.get("threads") {
        let n: usize = threads
            .parse()
            .map_err(|_| format!("--threads must be an integer >= 1, got {threads:?}"))?;
        rex_pool::set_num_threads(n).map_err(|e| format!("--threads {n}: {e}"))?;
    }
    if let Some(backend) = flags.get("backend") {
        let kind = rex_tensor::BackendKind::parse(backend)
            .map_err(|e| format!("--backend {backend:?}: {e}"))?;
        rex_tensor::backend::set_backend(kind).map_err(|e| format!("--backend: {e}"))?;
    }

    let defaults = ServeConfig::default();
    let num = |key: &str, default: u64| -> Result<u64, String> {
        match flags.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key} must be a non-negative integer, got {v:?}")),
        }
    };
    let switch = |key: &str| -> Result<bool, String> {
        match flags.get(key).map(String::as_str) {
            None | Some("off" | "false" | "0") => Ok(false),
            Some("on" | "true" | "1") => Ok(true),
            Some(v) => Err(format!("--{key} must be on|off, got {v:?}")),
        }
    };
    let cfg = ServeConfig {
        addr: flags
            .get("addr")
            .cloned()
            .unwrap_or_else(|| defaults.addr.clone()),
        data_dir: PathBuf::from(flags.get("data-dir").ok_or("missing required --data-dir")?),
        queue_depth: num("queue-depth", defaults.queue_depth as u64)?.max(1) as usize,
        workers: num("workers", defaults.workers as u64)?.max(1) as usize,
        read_timeout_ms: num("read-timeout-ms", defaults.read_timeout_ms)?,
        retry_after_secs: num("retry-after-secs", defaults.retry_after_secs)?,
        default_checkpoint_every: num("checkpoint-every", defaults.default_checkpoint_every)?,
        access_log: flags.get("access-log").map(PathBuf::from),
        profile: switch("profile")?,
        watchdog_secs: num("watchdog-secs", defaults.watchdog_secs)?,
        default_max_retries: num("max-retries", defaults.default_max_retries)?,
    };
    Ok(cfg)
}

/// Set by the SIGTERM handler; polled by the foreground loop.
static TERM_REQUESTED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

extern "C" fn on_sigterm(_signum: i32) {
    TERM_REQUESTED.store(true, std::sync::atomic::Ordering::Release);
}

#[cfg(unix)]
fn install_sigterm_handler() {
    // Hand-declared to stay zero-dependency; SIGTERM is 15 on every
    // platform we build for.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_sigterm as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_sigterm_handler() {}

/// Runs the server in the foreground until killed or drained. Prints the
/// bound address on stdout (`rexd listening on http://ADDR`) so harnesses
/// started on port 0 can find it. On SIGTERM the server drains: it stops
/// admitting (503 + Retry-After), checkpoints running jobs at their next
/// step boundary, parks them `Queued` on disk, and returns `Ok` so the
/// process exits 0.
///
/// # Errors
///
/// Flag errors and bind/recovery failures, as a printable message.
pub fn serve_cmd(argv: &[String]) -> Result<(), String> {
    let cfg = config_from_args(argv)?;
    install_sigterm_handler();
    let server = Server::start(cfg).map_err(|e| format!("serve: {e}"))?;
    println!("rexd listening on http://{}", server.addr());
    use std::io::Write;
    let _ = std::io::stdout().flush();
    loop {
        if TERM_REQUESTED.load(std::sync::atomic::Ordering::Acquire) {
            eprintln!("rexd: SIGTERM received, draining");
            server.drain();
            eprintln!("rexd: drained, exiting");
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn config_defaults_and_overrides() {
        let cfg = config_from_args(&sv(&["--data-dir", "/tmp/x"])).unwrap();
        assert_eq!(cfg.addr, "127.0.0.1:0");
        assert_eq!(cfg.queue_depth, 16);
        assert_eq!(cfg.workers, 1);
        assert_eq!(cfg.access_log, None);
        assert!(!cfg.profile);

        let cfg = config_from_args(&sv(&[
            "--data-dir",
            "/tmp/x",
            "--access-log",
            "/tmp/x/access.log",
            "--profile",
            "on",
        ]))
        .unwrap();
        assert_eq!(cfg.access_log, Some(PathBuf::from("/tmp/x/access.log")));
        assert!(cfg.profile);

        let cfg = config_from_args(&sv(&[
            "--data-dir",
            "/tmp/x",
            "--queue-depth",
            "3",
            "--workers",
            "2",
            "--checkpoint-every",
            "1",
        ]))
        .unwrap();
        assert_eq!(cfg.queue_depth, 3);
        assert_eq!(cfg.workers, 2);
        assert_eq!(cfg.default_checkpoint_every, 1);
    }

    #[test]
    fn config_rejects_bad_flags() {
        assert!(config_from_args(&sv(&[])).is_err()); // missing --data-dir
        assert!(config_from_args(&sv(&["--data-dir", "/tmp/x", "--warp", "9"])).is_err());
        assert!(config_from_args(&sv(&["--data-dir", "/tmp/x", "--workers", "two"])).is_err());
        assert!(config_from_args(&sv(&["--data-dir", "/tmp/x", "--profile", "maybe"])).is_err());
        assert!(config_from_args(&sv(&["--data-dir"])).is_err());
    }
}
