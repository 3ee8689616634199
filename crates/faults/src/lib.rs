//! Deterministic fault injection and crash-safe file I/O.
//!
//! Two jobs, deliberately in one zero-dependency crate because they meet
//! at the same choke point (every durable write in the workspace goes
//! through [`atomic_write`]):
//!
//! 1. **Crash consistency.** [`atomic_write`] writes a sibling temp file,
//!    fsyncs it, atomically renames it over the target, and fsyncs the
//!    parent directory. A kill at any instant leaves the old file or the
//!    new file on disk — never a torn mixture.
//! 2. **Fault injection.** A [`FaultPlan`] — parsed from the `REX_FAULTS`
//!    environment variable or installed for a scope with [`with_plan`] —
//!    describes a deterministic failure: kill the process at optimizer
//!    step *N*, fail the *N*-th labelled write with an I/O error, kill
//!    before/half-way-through/after a labelled write, or poison a loss or
//!    gradient with NaN at a chosen step. The training loop and the write
//!    helper consult the plan at fixed points, so the same plan against
//!    the same seed reproduces the same failure bit-for-bit.
//!
//! # Fault spec grammar
//!
//! `REX_FAULTS` is a comma-separated list of clauses:
//!
//! ```text
//! kill-at-step=N                 exit(86) after optimizer step N completes
//! nan-loss-at-step=N[:K]        poison the batch loss at step N (at most K times; default unlimited)
//! nan-grad-at-step=N[:P[:K]]    poison parameter P's gradient at step N
//! io-err-on-write=LABEL:N       fail the N-th (1-based) write with label LABEL
//! kill-on-write=LABEL:N:STAGE   exit(86) around the N-th labelled write;
//!                               STAGE is pre (before the temp file exists),
//!                               mid (half the temp file written), or
//!                               post (after the atomic rename)
//! slow-io-on-write=LABEL:N:MS   sleep MS milliseconds before the N-th
//!                               labelled write begins (N=0: before every
//!                               write with that label) — a deterministic
//!                               stand-in for a slow disk, so timeout and
//!                               slow-backend tests need no real clock luck
//! corrupt-on-write=LABEL:N:KIND deterministically damage the N-th labelled
//!                               write *after* it lands: KIND is bit (flip
//!                               one bit in the middle of the file) or
//!                               truncate (cut the file to half its bytes).
//!                               Models silent media corruption of an
//!                               otherwise-successful durable write, so
//!                               checkpoint-lineage fallback can be tested
//!                               without hand-editing files
//! ```
//!
//! Injection is intentionally *not* random: faults are addressed by step
//! or write ordinal so a test can state exactly what failure it proves
//! recovery from.

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};

/// Exit code used by injected kills, distinct from panic (101) and from
/// ordinary error exits so tests can tell an injected crash from a bug.
pub const KILL_EXIT_CODE: i32 = 86;

/// When, relative to the durable-write protocol, a `kill-on-write` fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteStage {
    /// Before the temp file is created: the old target must survive.
    Pre,
    /// After half the temp file's bytes are written: the old target must
    /// survive and the orphaned temp file must be harmless.
    Mid,
    /// After the atomic rename: the new target must be complete.
    Post,
}

/// How a `corrupt-on-write` fault damages the bytes that landed on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptKind {
    /// Flip one bit in the middle of the file (checksum mismatch).
    BitFlip,
    /// Cut the file to half its length (decode hits unexpected EOF).
    Truncate,
}

/// A deterministic fault plan. All fields default to "no fault".
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Kill the process once this optimizer step has completed.
    pub kill_at_step: Option<u64>,
    /// Poison the batch loss with NaN at this step; `.1` caps how many
    /// times it fires (`u32::MAX` = every visit to the step id).
    pub nan_loss_at_step: Option<(u64, u32)>,
    /// Poison parameter `.1`'s gradient with NaN at step `.0`, at most
    /// `.2` times.
    pub nan_grad_at_step: Option<(u64, usize, u32)>,
    /// Fail the `.1`-th (1-based) write carrying label `.0`.
    pub io_err_on_write: Option<(String, u64)>,
    /// Kill around the `.2` stage of the `.1`-th write labelled `.0`.
    pub kill_on_write: Option<(String, u64, WriteStage)>,
    /// Sleep `.2` milliseconds before the `.1`-th write labelled `.0`
    /// starts (ordinal 0 delays every write with the label).
    pub slow_io_on_write: Option<(String, u64, u64)>,
    /// Damage the `.1`-th write labelled `.0` after it has atomically
    /// landed, per `.2` — the write itself reports success.
    pub corrupt_on_write: Option<(String, u64, CorruptKind)>,
}

impl FaultPlan {
    /// Parses the `REX_FAULTS` clause grammar (see the crate docs).
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed clause.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for clause in spec.split(',').map(str::trim).filter(|c| !c.is_empty()) {
            let (key, value) = clause
                .split_once('=')
                .ok_or_else(|| format!("fault clause {clause:?} is missing '='"))?;
            match key {
                "kill-at-step" => plan.kill_at_step = Some(parse_num(value, clause)?),
                "nan-loss-at-step" => {
                    let mut parts = value.split(':');
                    let step = parse_num(parts.next().unwrap_or(""), clause)?;
                    let times = match parts.next() {
                        Some(k) => parse_num(k, clause)? as u32,
                        None => u32::MAX,
                    };
                    check_done(parts.next(), clause)?;
                    plan.nan_loss_at_step = Some((step, times));
                }
                "nan-grad-at-step" => {
                    let mut parts = value.split(':');
                    let step = parse_num(parts.next().unwrap_or(""), clause)?;
                    let param = match parts.next() {
                        Some(p) => parse_num(p, clause)? as usize,
                        None => 0,
                    };
                    let times = match parts.next() {
                        Some(k) => parse_num(k, clause)? as u32,
                        None => u32::MAX,
                    };
                    check_done(parts.next(), clause)?;
                    plan.nan_grad_at_step = Some((step, param, times));
                }
                "io-err-on-write" => {
                    let (label, nth) = value
                        .rsplit_once(':')
                        .ok_or_else(|| format!("fault clause {clause:?} needs LABEL:N"))?;
                    plan.io_err_on_write = Some((label.to_owned(), parse_num(nth, clause)?));
                }
                "kill-on-write" => {
                    let mut parts = value.split(':');
                    let label = parts
                        .next()
                        .filter(|l| !l.is_empty())
                        .ok_or_else(|| format!("fault clause {clause:?} needs LABEL:N:STAGE"))?;
                    let nth = parse_num(parts.next().unwrap_or(""), clause)?;
                    let stage = match parts.next() {
                        Some("pre") => WriteStage::Pre,
                        Some("mid") => WriteStage::Mid,
                        Some("post") => WriteStage::Post,
                        other => {
                            return Err(format!(
                                "fault clause {clause:?}: stage {other:?} is not pre|mid|post"
                            ))
                        }
                    };
                    check_done(parts.next(), clause)?;
                    plan.kill_on_write = Some((label.to_owned(), nth, stage));
                }
                "slow-io-on-write" => {
                    let mut parts = value.split(':');
                    let label = parts
                        .next()
                        .filter(|l| !l.is_empty())
                        .ok_or_else(|| format!("fault clause {clause:?} needs LABEL:N:MS"))?;
                    let nth = parse_num(parts.next().unwrap_or(""), clause)?;
                    let ms = parse_num(
                        parts
                            .next()
                            .ok_or_else(|| format!("fault clause {clause:?} needs LABEL:N:MS"))?,
                        clause,
                    )?;
                    check_done(parts.next(), clause)?;
                    plan.slow_io_on_write = Some((label.to_owned(), nth, ms));
                }
                "corrupt-on-write" => {
                    let mut parts = value.split(':');
                    let label = parts
                        .next()
                        .filter(|l| !l.is_empty())
                        .ok_or_else(|| format!("fault clause {clause:?} needs LABEL:N:KIND"))?;
                    let nth = parse_num(parts.next().unwrap_or(""), clause)?;
                    let kind = match parts.next() {
                        Some("bit") => CorruptKind::BitFlip,
                        Some("truncate") => CorruptKind::Truncate,
                        other => {
                            return Err(format!(
                                "fault clause {clause:?}: kind {other:?} is not bit|truncate"
                            ))
                        }
                    };
                    check_done(parts.next(), clause)?;
                    plan.corrupt_on_write = Some((label.to_owned(), nth, kind));
                }
                other => return Err(format!("unknown fault kind {other:?}")),
            }
        }
        Ok(plan)
    }
}

fn parse_num(s: &str, clause: &str) -> Result<u64, String> {
    s.parse::<u64>()
        .map_err(|_| format!("fault clause {clause:?}: {s:?} is not an integer"))
}

fn check_done(rest: Option<&str>, clause: &str) -> Result<(), String> {
    match rest {
        None => Ok(()),
        Some(extra) => Err(format!("fault clause {clause:?}: trailing {extra:?}")),
    }
}

/// Mutable injection bookkeeping: per-label write ordinals plus
/// fire-counters for the NaN faults.
#[derive(Default)]
struct Counters {
    writes: BTreeMap<String, u64>,
    nan_loss_fired: u32,
    nan_grad_fired: u32,
}

struct Registry {
    scoped: Option<FaultPlan>,
    counters: Counters,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        Mutex::new(Registry {
            scoped: None,
            counters: Counters::default(),
        })
    })
}

fn env_plan() -> &'static FaultPlan {
    static ENV_PLAN: OnceLock<FaultPlan> = OnceLock::new();
    ENV_PLAN.get_or_init(|| match std::env::var("REX_FAULTS") {
        Ok(spec) if !spec.trim().is_empty() => FaultPlan::parse(&spec)
            .unwrap_or_else(|e| panic!("REX_FAULTS={spec:?} does not parse: {e}")),
        _ => FaultPlan::default(),
    })
}

fn lock() -> std::sync::MutexGuard<'static, Registry> {
    registry().lock().unwrap_or_else(|e| e.into_inner())
}

/// Serialises scoped-plan users (fault tests) so concurrent tests cannot
/// see each other's plans.
fn scope_lock() -> &'static Mutex<()> {
    static SCOPE: OnceLock<Mutex<()>> = OnceLock::new();
    SCOPE.get_or_init(|| Mutex::new(()))
}

/// Runs `f` with `plan` installed as the active fault plan, resetting all
/// injection counters on entry and removing the plan on exit (even on
/// panic). Callers are serialised by a global lock, so concurrently
/// running fault tests cannot observe each other's plans.
pub fn with_plan<T>(plan: FaultPlan, f: impl FnOnce() -> T) -> T {
    let _serial = scope_lock().lock().unwrap_or_else(|e| e.into_inner());
    struct Reset;
    impl Drop for Reset {
        fn drop(&mut self) {
            let mut reg = lock();
            reg.scoped = None;
            reg.counters = Counters::default();
        }
    }
    {
        let mut reg = lock();
        reg.scoped = Some(plan);
        reg.counters = Counters::default();
    }
    let _reset = Reset;
    f()
}

fn active_plan() -> FaultPlan {
    let reg = lock();
    match &reg.scoped {
        Some(p) => p.clone(),
        None => env_plan().clone(),
    }
}

/// Called by the training loop after optimizer step `completed_step`
/// finishes (checkpointing included): kills the process when the plan
/// says so. A no-op without a matching plan.
pub fn crash_point(completed_step: u64) {
    if active_plan().kill_at_step == Some(completed_step) {
        eprintln!("rex-faults: injected kill after step {completed_step}");
        let _ = io::stderr().flush();
        std::process::exit(KILL_EXIT_CODE);
    }
}

/// A crash point for *append* streams — buffered line-oriented writers
/// like the JSONL trace, whose per-line appends never go through
/// [`atomic_write`]. Bumps `label`'s write ordinal (appends and atomic
/// rewrites of the same label share one counter) and evaluates
/// `kill-on-write`: `pre` dies before any byte of this append lands,
/// `mid` flushes the first *half* of `bytes` straight to `file` — a torn
/// trailing line with no newline — and dies, `post` flushes the full
/// line plus its newline and dies. A no-op without a matching plan;
/// the other write faults (I/O error, slow-io, corruption) do not apply
/// to appends, whose callers drop write errors by design.
pub fn append_crash_point(label: &str, file: Option<&File>, bytes: &[u8]) {
    let ordinal = bump_write(label);
    let plan = active_plan();
    let Some((l, n, stage)) = plan.kill_on_write.clone() else {
        return;
    };
    if l != label || n != ordinal {
        return;
    }
    if let Some(mut f) = file {
        let half = bytes.len() / 2;
        let landed: &[u8] = match stage {
            WriteStage::Pre => &[],
            WriteStage::Mid => &bytes[..half],
            WriteStage::Post => bytes,
        };
        let _ = f.write_all(landed);
        if stage == WriteStage::Post {
            let _ = f.write_all(b"\n");
        }
        let _ = f.sync_all();
    }
    injected_kill(label, ordinal, stage);
}

/// Whether the batch loss of optimizer step `step` should be poisoned
/// with NaN. Honours the plan's fire-count cap.
pub fn poison_loss(step: u64) -> bool {
    let plan = active_plan();
    let Some((at, times)) = plan.nan_loss_at_step else {
        return false;
    };
    if at != step {
        return false;
    }
    let mut reg = lock();
    if reg.counters.nan_loss_fired >= times {
        return false;
    }
    reg.counters.nan_loss_fired += 1;
    true
}

/// Which parameter's gradient (by index) to poison with NaN at optimizer
/// step `step`, if any. Honours the plan's fire-count cap.
pub fn poison_grad(step: u64) -> Option<usize> {
    let plan = active_plan();
    let (at, param, times) = plan.nan_grad_at_step?;
    if at != step {
        return None;
    }
    let mut reg = lock();
    if reg.counters.nan_grad_fired >= times {
        return None;
    }
    reg.counters.nan_grad_fired += 1;
    Some(param)
}

fn bump_write(label: &str) -> u64 {
    let mut reg = lock();
    let n = reg.counters.writes.entry(label.to_owned()).or_insert(0);
    *n += 1;
    *n
}

fn injected_kill(label: &str, nth: u64, stage: WriteStage) -> ! {
    eprintln!("rex-faults: injected kill at {stage:?} of write {label}:{nth}");
    let _ = io::stderr().flush();
    std::process::exit(KILL_EXIT_CODE);
}

/// Writes `bytes` to `path` crash-consistently: temp file in the same
/// directory, fsync, atomic rename over the target, fsync of the parent
/// directory. A crash at any instant leaves the previous file (if any) or
/// the complete new one.
///
/// `label` names the write stream for fault injection (`"state"` for
/// training-state snapshots, `"trace"` for telemetry rewrites, …); the
/// active [`FaultPlan`] may fail or kill the N-th write of a given label.
///
/// # Errors
///
/// Propagates filesystem errors (and injected ones).
pub fn atomic_write(label: &str, path: &Path, bytes: &[u8]) -> io::Result<()> {
    let ordinal = bump_write(label);
    let plan = active_plan();
    if let Some((l, n, ms)) = &plan.slow_io_on_write {
        if l == label && (*n == 0 || *n == ordinal) {
            std::thread::sleep(std::time::Duration::from_millis(*ms));
        }
    }
    if let Some((l, n)) = &plan.io_err_on_write {
        if l == label && *n == ordinal {
            return Err(io::Error::other(format!(
                "injected I/O error on write {label}:{ordinal}"
            )));
        }
    }
    let kill = plan
        .kill_on_write
        .as_ref()
        .filter(|(l, n, _)| l == label && *n == ordinal)
        .map(|(_, _, stage)| *stage);
    if kill == Some(WriteStage::Pre) {
        injected_kill(label, ordinal, WriteStage::Pre);
    }
    let corrupt = plan
        .corrupt_on_write
        .as_ref()
        .filter(|(l, n, _)| l == label && *n == ordinal)
        .map(|(_, _, kind)| *kind);

    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        fs::create_dir_all(parent)?;
    }
    let tmp = temp_sibling(path);
    let result = write_temp_and_rename(&tmp, path, bytes, kill, corrupt);
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// Damages the landed target in place: the atomic-write protocol completed
/// (the caller saw success), then the media silently went bad.
fn apply_corruption(path: &Path, kind: CorruptKind) {
    let Ok(bytes) = fs::read(path) else { return };
    if bytes.is_empty() {
        return;
    }
    match kind {
        CorruptKind::BitFlip => {
            let mut damaged = bytes;
            let mid = damaged.len() / 2;
            damaged[mid] ^= 0x40;
            let _ = fs::write(path, damaged);
        }
        CorruptKind::Truncate => {
            let keep = bytes.len() / 2;
            let _ = fs::write(path, &bytes[..keep]);
        }
    }
    eprintln!(
        "rex-faults: injected {kind:?} corruption of {}",
        path.display()
    );
}

fn write_temp_and_rename(
    tmp: &Path,
    path: &Path,
    bytes: &[u8],
    kill: Option<WriteStage>,
    corrupt: Option<CorruptKind>,
) -> io::Result<()> {
    let mut f = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(true)
        .open(tmp)?;
    if kill == Some(WriteStage::Mid) {
        // model a crash half-way through the payload: flush what a real
        // interrupted writer could plausibly have gotten to disk, then die
        f.write_all(&bytes[..bytes.len() / 2])?;
        let _ = f.sync_all();
        injected_kill("", 0, WriteStage::Mid);
    }
    f.write_all(bytes)?;
    f.sync_all()?;
    drop(f);
    fs::rename(tmp, path)?;
    fsync_dir(path);
    if let Some(kind) = corrupt {
        // corruption lands before a post-kill fires, so a plan pairing the
        // two models "the last checkpoint before the crash was poisoned"
        apply_corruption(path, kind);
    }
    if kill == Some(WriteStage::Post) {
        injected_kill("", 0, WriteStage::Post);
    }
    Ok(())
}

/// Best-effort fsync of `path`'s parent directory so the rename itself is
/// durable. Ignored on filesystems that refuse directory handles.
fn fsync_dir(path: &Path) {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        if let Ok(dir) = File::open(parent) {
            let _ = dir.sync_all();
        }
    }
}

/// Unique temp sibling: same directory (required for an atomic rename),
/// dot-prefixed, pid- and ordinal-tagged so concurrent writers never
/// collide.
fn temp_sibling(path: &Path) -> PathBuf {
    static SEQ: AtomicU32 = AtomicU32::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let file = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "out".to_owned());
    path.with_file_name(format!(".{file}.tmp.{}.{seq}", std::process::id()))
}

/// Best-effort fsync of an open file, for sinks that append in place and
/// want their final flush durable.
pub fn fsync_file(file: &File) {
    let _ = file.sync_all();
}

/// The four fault families a [`ChaosPlan`] schedules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ChaosKind {
    /// Process death: `kill-at-step` or a `kill-on-write` stage.
    Kill,
    /// An injected I/O error failing a labelled write.
    IoErr,
    /// Silent on-disk corruption of a landed write.
    Corrupt,
    /// A deterministic slow-disk delay on labelled writes.
    SlowIo,
}

/// One restart-to-restart window of a chaos soak: the `REX_FAULTS` clauses
/// the daemon under test runs with until the plan's kill brings it down
/// (or, for the final round, until the workload drains cleanly).
#[derive(Debug, Clone)]
pub struct ChaosRound {
    /// The scheduled faults: the family plus the literal clause text.
    pub faults: Vec<(ChaosKind, String)>,
}

impl ChaosRound {
    /// The round's clauses joined into a `REX_FAULTS` value (empty for a
    /// fault-free round).
    pub fn spec(&self) -> String {
        self.faults
            .iter()
            .map(|(_, clause)| clause.as_str())
            .collect::<Vec<_>>()
            .join(",")
    }

    /// How many scheduled faults belong to `kind`.
    pub fn count(&self, kind: ChaosKind) -> usize {
        self.faults.iter().filter(|(k, _)| *k == kind).count()
    }
}

/// A seeded, fully deterministic storm schedule for a multi-job soak.
///
/// Every storm round carries a process kill (so the round terminates with
/// a daemon death) plus a deterministic mix of I/O errors, slow-disk
/// delays, and — on alternating rounds — an on-disk corruption of the very
/// checkpoint written last before the kill (`corrupt-on-write` and
/// `kill-on-write=…:post` aimed at the same ordinal), which forces the
/// poisoned-checkpoint recovery path on restart. The final round is always
/// fault-free so the workload can drain.
#[derive(Debug, Clone)]
pub struct ChaosPlan {
    /// The seed the schedule was derived from.
    pub seed: u64,
    /// Storm rounds followed by one trailing fault-free round.
    pub rounds: Vec<ChaosRound>,
}

/// splitmix64: tiny, seedable, and good enough to decorrelate fault
/// ordinals — the plan must be reproducible from its seed alone.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[lo, hi]`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }
}

impl ChaosPlan {
    /// Builds the deterministic schedule: `storm_rounds` fault rounds and
    /// a trailing clean round. Same seed and count, same plan — always.
    pub fn generate(seed: u64, storm_rounds: usize) -> ChaosPlan {
        let mut rng = Mix(seed ^ 0xC4A0_5C4A_05C4_A05C);
        let mut rounds = Vec::with_capacity(storm_rounds + 1);
        for round in 0..storm_rounds {
            let mut faults = Vec::new();
            if round % 2 == 0 {
                // step-boundary kill with an I/O error earlier in the round
                let kill_step = rng.range(4, 12);
                let io_ordinal = rng.range(1, 5);
                faults.push((ChaosKind::Kill, format!("kill-at-step={kill_step}")));
                faults.push((
                    ChaosKind::IoErr,
                    format!("io-err-on-write=state:{io_ordinal}"),
                ));
            } else {
                // poison the final checkpoint: corrupt the N-th state
                // write, then die immediately after it lands
                let ordinal = rng.range(6, 14);
                let kind = if rng.next().is_multiple_of(2) {
                    "bit"
                } else {
                    "truncate"
                };
                faults.push((
                    ChaosKind::Corrupt,
                    format!("corrupt-on-write=state:{ordinal}:{kind}"),
                ));
                faults.push((
                    ChaosKind::Kill,
                    format!("kill-on-write=state:{ordinal}:post"),
                ));
            }
            let lag_ms = rng.range(2, 8);
            faults.push((
                ChaosKind::SlowIo,
                format!("slow-io-on-write=state:0:{lag_ms}"),
            ));
            rounds.push(ChaosRound { faults });
        }
        rounds.push(ChaosRound { faults: Vec::new() });
        ChaosPlan { seed, rounds }
    }

    /// Total scheduled faults of `kind` across all rounds.
    pub fn count(&self, kind: ChaosKind) -> usize {
        self.rounds.iter().map(|r| r.count(kind)).sum()
    }

    /// Total scheduled faults across all rounds.
    pub fn total_faults(&self) -> usize {
        self.rounds.iter().map(|r| r.faults.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("rex_faults_{name}_{}", std::process::id()))
    }

    #[test]
    fn parse_full_grammar() {
        let plan = FaultPlan::parse(
            "kill-at-step=12, nan-loss-at-step=3:1, nan-grad-at-step=5:2:1, \
             io-err-on-write=state:2, kill-on-write=ckpt:1:mid",
        )
        .unwrap();
        assert_eq!(plan.kill_at_step, Some(12));
        assert_eq!(plan.nan_loss_at_step, Some((3, 1)));
        assert_eq!(plan.nan_grad_at_step, Some((5, 2, 1)));
        assert_eq!(plan.io_err_on_write, Some(("state".to_owned(), 2)));
        assert_eq!(
            plan.kill_on_write,
            Some(("ckpt".to_owned(), 1, WriteStage::Mid))
        );
    }

    #[test]
    fn parse_slow_io_grammar() {
        let plan = FaultPlan::parse("slow-io-on-write=trace:3:250").unwrap();
        assert_eq!(plan.slow_io_on_write, Some(("trace".to_owned(), 3, 250)));
        let every = FaultPlan::parse("slow-io-on-write=state:0:10").unwrap();
        assert_eq!(every.slow_io_on_write, Some(("state".to_owned(), 0, 10)));
        for bad in [
            "slow-io-on-write=state",
            "slow-io-on-write=state:1",
            "slow-io-on-write=:1:5",
            "slow-io-on-write=state:1:5:9",
            "slow-io-on-write=state:x:5",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn slow_io_delays_the_addressed_write_only() {
        let path = tmp("slow");
        let plan = FaultPlan::parse("slow-io-on-write=lag:2:60").unwrap();
        with_plan(plan, || {
            let t0 = std::time::Instant::now();
            atomic_write("lag", &path, b"one").unwrap();
            let first = t0.elapsed();
            assert!(first < std::time::Duration::from_millis(50), "{first:?}");

            let t1 = std::time::Instant::now();
            atomic_write("lag", &path, b"two").unwrap();
            let second = t1.elapsed();
            assert!(second >= std::time::Duration::from_millis(60), "{second:?}");
            // other labels are never delayed
            let t2 = std::time::Instant::now();
            atomic_write("fast", &path, b"three").unwrap();
            assert!(t2.elapsed() < std::time::Duration::from_millis(50));
        });
        assert_eq!(fs::read(&path).unwrap(), b"three");
        let _ = fs::remove_file(path);
    }

    #[test]
    fn slow_io_ordinal_zero_delays_every_labelled_write() {
        let path = tmp("slow_all");
        let plan = FaultPlan::parse("slow-io-on-write=lag:0:25").unwrap();
        with_plan(plan, || {
            for _ in 0..2 {
                let t = std::time::Instant::now();
                atomic_write("lag", &path, b"x").unwrap();
                assert!(t.elapsed() >= std::time::Duration::from_millis(25));
            }
        });
        let _ = fs::remove_file(path);
    }

    #[test]
    fn parse_defaults_and_errors() {
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::default());
        assert_eq!(
            FaultPlan::parse("nan-loss-at-step=7")
                .unwrap()
                .nan_loss_at_step,
            Some((7, u32::MAX))
        );
        assert_eq!(
            FaultPlan::parse("nan-grad-at-step=4")
                .unwrap()
                .nan_grad_at_step,
            Some((4, 0, u32::MAX))
        );
        for bad in [
            "kill-at-step",
            "kill-at-step=x",
            "explode=1",
            "kill-on-write=state:1:sideways",
            "nan-loss-at-step=1:2:3",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn atomic_write_replaces_and_creates() {
        let path = tmp("aw");
        atomic_write("test", &path, b"first").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"first");
        atomic_write("test", &path, b"second, longer").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second, longer");
        let _ = fs::remove_file(path);
    }

    #[test]
    fn injected_io_error_fires_on_the_right_ordinal_and_preserves_target() {
        let path = tmp("ioerr");
        let plan = FaultPlan::parse("io-err-on-write=flaky:2").unwrap();
        with_plan(plan, || {
            atomic_write("flaky", &path, b"one").unwrap();
            let err = atomic_write("flaky", &path, b"two").unwrap_err();
            assert!(err.to_string().contains("injected"), "{err}");
            // the failed write must not have touched the target
            assert_eq!(fs::read(&path).unwrap(), b"one");
            // other labels are unaffected, and the 3rd flaky write succeeds
            atomic_write("steady", &path, b"three").unwrap();
            atomic_write("flaky", &path, b"four").unwrap();
            assert_eq!(fs::read(&path).unwrap(), b"four");
        });
        let _ = fs::remove_file(path);
    }

    #[test]
    fn nan_faults_respect_step_and_fire_cap() {
        let plan = FaultPlan::parse("nan-loss-at-step=3:2,nan-grad-at-step=4:1:1").unwrap();
        with_plan(plan, || {
            assert!(!poison_loss(2));
            assert!(poison_loss(3));
            assert!(poison_loss(3));
            assert!(!poison_loss(3), "fire cap of 2 exhausted");
            assert_eq!(poison_grad(4), Some(1));
            assert_eq!(poison_grad(4), None, "fire cap of 1 exhausted");
        });
        // outside the scope no plan is active
        assert!(!poison_loss(3));
        assert_eq!(poison_grad(4), None);
    }

    #[test]
    fn parse_corrupt_grammar() {
        let plan = FaultPlan::parse("corrupt-on-write=state:3:bit").unwrap();
        assert_eq!(
            plan.corrupt_on_write,
            Some(("state".to_owned(), 3, CorruptKind::BitFlip))
        );
        let plan = FaultPlan::parse("corrupt-on-write=ckpt:1:truncate").unwrap();
        assert_eq!(
            plan.corrupt_on_write,
            Some(("ckpt".to_owned(), 1, CorruptKind::Truncate))
        );
        for bad in [
            "corrupt-on-write=state",
            "corrupt-on-write=state:1",
            "corrupt-on-write=:1:bit",
            "corrupt-on-write=state:1:shred",
            "corrupt-on-write=state:1:bit:9",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn corrupt_on_write_damages_only_the_addressed_ordinal() {
        let path = tmp("corrupt");
        let payload = vec![0u8; 64];
        let plan = FaultPlan::parse("corrupt-on-write=media:2:bit").unwrap();
        with_plan(plan, || {
            atomic_write("media", &path, &payload).unwrap();
            assert_eq!(fs::read(&path).unwrap(), payload, "ordinal 1 untouched");
            atomic_write("media", &path, &payload).unwrap();
            let damaged = fs::read(&path).unwrap();
            assert_eq!(damaged.len(), 64);
            assert_eq!(damaged[32], 0x40, "one bit flipped mid-file");
            // other labels and later ordinals are unaffected
            atomic_write("media", &path, &payload).unwrap();
            assert_eq!(fs::read(&path).unwrap(), payload);
        });
        let _ = fs::remove_file(&path);

        let path = tmp("corrupt_trunc");
        let plan = FaultPlan::parse("corrupt-on-write=media:1:truncate").unwrap();
        with_plan(plan, || {
            atomic_write("media", &path, &payload).unwrap();
            assert_eq!(fs::read(&path).unwrap().len(), 32, "cut to half");
        });
        let _ = fs::remove_file(path);
    }

    #[test]
    fn chaos_plan_is_deterministic_and_covers_all_kinds() {
        let a = ChaosPlan::generate(42, 8);
        let b = ChaosPlan::generate(42, 8);
        assert_eq!(a.rounds.len(), 9, "8 storm rounds + 1 clean round");
        for (ra, rb) in a.rounds.iter().zip(&b.rounds) {
            assert_eq!(ra.faults, rb.faults, "same seed, same schedule");
        }
        let c = ChaosPlan::generate(43, 8);
        assert!(
            a.rounds
                .iter()
                .zip(&c.rounds)
                .any(|(x, y)| x.faults != y.faults),
            "different seeds diverge"
        );
        for kind in [
            ChaosKind::Kill,
            ChaosKind::IoErr,
            ChaosKind::Corrupt,
            ChaosKind::SlowIo,
        ] {
            assert!(a.count(kind) > 0, "{kind:?} never scheduled");
        }
        assert_eq!(a.count(ChaosKind::Kill), 8, "every storm round kills");
        assert!(a.total_faults() >= 20);
        assert!(a.rounds.last().unwrap().faults.is_empty(), "clean drain");
        // every clause the generator emits must parse
        for round in &a.rounds {
            FaultPlan::parse(&round.spec()).unwrap();
        }
    }

    #[test]
    fn no_temp_litter_after_successful_writes() {
        let dir = tmp("litter_dir");
        fs::create_dir_all(&dir).unwrap();
        atomic_write("test", &dir.join("a"), b"x").unwrap();
        atomic_write("test", &dir.join("a"), b"y").unwrap();
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        let _ = fs::remove_dir_all(dir);
    }
}
