//! The command line of every binary in the workspace, and the
//! `rexctl serve` / `rexd` entry point.
//!
//! [`Flags`] is the one flag parser: a command declares the `--key value`
//! flags and the bare switches it reads, and the parser refuses anything
//! else — an undeclared or repeated flag, a flag without its value, a
//! stray argument — with a message naming it, which every binary turns
//! into exit status 2.
//! [`apply_threads_and_backend`] applies `--threads` and `--backend`. This
//! lives in rex-serve (not in `rex-cli`) because rexctl, rexd and the
//! rex-bench binaries all depend on it, and the daemon and the subcommand
//! share one implementation without a dependency cycle.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::path::PathBuf;
use std::str::FromStr;

use rex_tensor::BackendKind;

use crate::server::{ServeConfig, Server};

/// A command's flags, parsed against the ones it declares.
#[derive(Debug, Default)]
pub struct Flags {
    values: BTreeMap<String, String>,
    switches: Vec<String>,
}

impl Flags {
    /// Parses `argv` (the arguments after the command's name): each
    /// `--key` in `valued` takes the next argument as its value, each in
    /// `switches` takes none. A value never starts with `--`, so a
    /// forgotten value is named as such instead of shifting every later
    /// flag.
    ///
    /// # Errors
    ///
    /// A message naming the first flag the command does not declare, a
    /// flag given twice, a flag missing its value, or an argument that is
    /// not a flag.
    pub fn parse(argv: &[String], valued: &[&str], switches: &[&str]) -> Result<Flags, String> {
        let mut flags = Flags::default();
        let mut args = argv.iter();
        while let Some(arg) = args.next() {
            let Some(key) = arg.strip_prefix("--") else {
                return Err(format!("unexpected argument {arg:?}"));
            };
            if flags.values.contains_key(key) || flags.switch(key) {
                return Err(format!("repeated flag --{key}"));
            }
            if switches.contains(&key) {
                flags.switches.push(key.to_owned());
            } else if valued.contains(&key) {
                let value = (args.next())
                    .filter(|v| !v.starts_with("--"))
                    .ok_or_else(|| format!("missing value for --{key}"))?;
                flags.values.insert(key.to_owned(), value.clone());
            } else {
                return Err(format!("unknown flag --{key}"));
            }
        }
        Ok(flags)
    }

    /// The raw value of `--key`.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// The raw value of `--key`, which the command requires.
    ///
    /// # Errors
    ///
    /// Names the missing flag.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .ok_or_else(|| format!("missing required --{key}"))
    }

    /// Whether the switch `--key` was given.
    pub fn switch(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key)
    }

    /// The value of `--key` run through its vocabulary's `parse`; `None`
    /// when the flag is absent.
    ///
    /// # Errors
    ///
    /// `parse`'s message, prefixed with the flag and its value.
    pub fn parse_with<T>(
        &self,
        key: &str,
        parse: impl FnOnce(&str) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        (self.get(key))
            .map(|v| parse(v).map_err(|e| format!("--{key} {v:?}: {e}")))
            .transpose()
    }

    /// The value of `--key` parsed as a `T`; `None` when absent.
    ///
    /// # Errors
    ///
    /// As [`Flags::parse_with`].
    pub fn value<T: FromStr>(&self, key: &str) -> Result<Option<T>, String>
    where
        T::Err: Display,
    {
        self.parse_with(key, |v| v.parse().map_err(|e: T::Err| e.to_string()))
    }

    /// The value of `--key` parsed as a `T`, or `default` when absent.
    ///
    /// # Errors
    ///
    /// As [`Flags::parse_with`].
    pub fn get_or<T: FromStr>(&self, key: &str, default: T) -> Result<T, String>
    where
        T::Err: Display,
    {
        Ok(self.value(key)?.unwrap_or(default))
    }
}

/// Applies `--threads N` (N ≥ 1) to the worker pool and `--backend
/// scalar|simd|auto` to the compute dispatch, when given. Each overrides
/// its environment variable (`REX_NUM_THREADS`, `REX_BACKEND`) and must
/// run before the first parallel task or dispatched op, which holds when
/// a command calls this right after parsing its flags.
///
/// # Errors
///
/// A bad value, or a pool or backend that was already resolved.
pub fn apply_threads_and_backend(flags: &Flags) -> Result<(), String> {
    if let Some(n) = flags.parse_with("threads", rex_pool::parse_threads)? {
        rex_pool::set_num_threads(n).map_err(|e| format!("--threads {n}: {e}"))?;
    }
    if let Some(kind) = flags.parse_with("backend", BackendKind::parse)? {
        rex_tensor::backend::set_backend(kind).map_err(|e| format!("--backend: {e}"))?;
    }
    Ok(())
}

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

/// The flags `rexctl serve` and `rexd` read.
const SERVE_FLAGS: [&str; 13] = [
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

/// Builds a [`ServeConfig`] from `--flag value` arguments, applying
/// `--threads` and `--backend` on the way.
///
/// # Errors
///
/// A usage message naming the offending flag.
pub fn config_from_args(argv: &[String]) -> Result<ServeConfig, String> {
    let flags = Flags::parse(argv, &SERVE_FLAGS, &[])?;
    apply_threads_and_backend(&flags)?;
    let on_off = |v: &str| match v {
        "off" | "false" | "0" => Ok(false),
        "on" | "true" | "1" => Ok(true),
        _ => Err("expected on|off".to_owned()),
    };
    let d = ServeConfig::default();
    Ok(ServeConfig {
        addr: flags.get("addr").unwrap_or(&d.addr).to_owned(),
        data_dir: PathBuf::from(flags.require("data-dir")?),
        queue_depth: flags.get_or("queue-depth", d.queue_depth)?.max(1),
        workers: flags.get_or("workers", d.workers)?.max(1),
        read_timeout_ms: flags.get_or("read-timeout-ms", d.read_timeout_ms)?,
        retry_after_secs: flags.get_or("retry-after-secs", d.retry_after_secs)?,
        default_checkpoint_every: flags.get_or("checkpoint-every", d.default_checkpoint_every)?,
        access_log: flags.get("access-log").map(PathBuf::from),
        profile: flags.parse_with("profile", on_off)?.unwrap_or(d.profile),
        watchdog_secs: flags.get_or("watchdog-secs", d.watchdog_secs)?,
        default_max_retries: flags.get_or("max-retries", d.default_max_retries)?,
    })
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
        // a pool needs a thread, as on every other command line
        let err = config_from_args(&sv(&["--data-dir", "/tmp/x", "--threads", "0"])).unwrap_err();
        assert!(err.starts_with("--threads \"0\""), "{err}");
    }

    #[test]
    fn parse_flag_pairs() {
        let f = Flags::parse(
            &sv(&["--budget", "10", "--schedule", "rex"]),
            &["budget", "schedule", "missing"],
            &[],
        )
        .unwrap();
        assert_eq!(f.get("budget"), Some("10"));
        assert_eq!(f.get_or("budget", 0u32).unwrap(), 10);
        assert_eq!(f.get_or("missing", 7u32).unwrap(), 7);
        assert_eq!(f.value::<u32>("missing").unwrap(), None);
        assert!(f.require("schedule").is_ok());
        assert_eq!(
            f.require("missing").unwrap_err(),
            "missing required --missing"
        );
        let err = f.get_or("schedule", 0u32).unwrap_err();
        assert!(err.starts_with("--schedule \"rex\": "), "{err}");
    }

    #[test]
    fn switches_take_no_value() {
        let argv = sv(&["--smoke", "--reps", "3"]);
        let f = Flags::parse(&argv, &["reps", "out"], &["smoke"]).unwrap();
        assert!(f.switch("smoke"));
        assert_eq!(f.get_or("reps", 40usize).unwrap(), 3);
        assert_eq!(f.get("out"), None);
        let f = Flags::parse(&sv(&["--reps", "3"]), &["reps"], &["smoke"]).unwrap();
        assert!(!f.switch("smoke"));
    }

    #[test]
    fn malformed_flags_rejected() {
        let refused = [
            (&["--budget"][..], "missing value for --budget"),
            (&["--budget", "--smoke"], "missing value for --budget"),
            (&["--budgte", "50"], "unknown flag --budgte"),
            (&["--smoke", "1"], "unexpected argument \"1\""),
            (&["budget", "10"], "unexpected argument \"budget\""),
            (
                &["--budget", "10", "extra"],
                "unexpected argument \"extra\"",
            ),
            (
                &["--budget", "5", "--budget", "50"],
                "repeated flag --budget",
            ),
            (
                &["--smoke", "--budget", "5", "--smoke"],
                "repeated flag --smoke",
            ),
        ];
        for (argv, want) in refused {
            let err = Flags::parse(&sv(argv), &["budget"], &["smoke"]).unwrap_err();
            assert_eq!(err, want, "{argv:?}");
        }
    }

    #[test]
    fn schedule_vocabulary() {
        use rex_core::ScheduleSpec;
        let schedule = |v: &str| {
            let f = Flags::parse(&sv(&["--schedule", v]), &["schedule"], &[]).unwrap();
            f.get_or("schedule", ScheduleSpec::None)
        };
        assert_eq!(schedule("REX").unwrap(), ScheduleSpec::Rex);
        assert_eq!(schedule("step").unwrap(), ScheduleSpec::Step);
        assert!(matches!(
            schedule("rex-beta=0.3").unwrap(),
            ScheduleSpec::RexBeta(b) if (b - 0.3).abs() < 1e-12
        ));
        assert!(matches!(
            schedule("delayed-linear=0.5").unwrap(),
            ScheduleSpec::Delayed(_, d) if (d - 0.5).abs() < 1e-12
        ));
        assert!(schedule("warp-drive")
            .unwrap_err()
            .contains("unknown schedule"));
    }
}
