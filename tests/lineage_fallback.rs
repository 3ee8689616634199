//! Workspace-level checkpoint-lineage e2e: corruption of the newest
//! generation must not strand a run.
//!
//! A `rexctl train --keep-checkpoints` run killed mid-flight leaves a
//! directory of generational `REXSTATE1` snapshots. These tests damage
//! the newest generation — bit-flips in the
//! header, body, and trailing-checksum regions, plus truncations that
//! leave a decodable-length and an undecodable-length stub — then
//! resume from the directory and assert:
//!
//! 1. the resume *names* the damage: stderr carries the `LoadReport`
//!    line (`generation NNNNN: corrupt|truncated (..), falling back`)
//!    and the generation actually resumed from;
//! 2. the finished trace is byte-identical to an uninterrupted run's —
//!    the crash, the damage, and the generation fallback are all
//!    invisible in the recorded trajectory.
//!
//! The matrix runs at 1 and 4 worker threads: trace bytes are compared
//! against a baseline produced at the same thread count, so the
//! fallback guarantee is checked under both serial and parallel
//! kernels.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

use rex::faults::KILL_EXIT_CODE;

/// The profile directory this test binary runs from
/// (`target/{debug,release}`), which is also where `cargo build` puts
/// the workspace binaries.
fn profile_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("current_exe");
    exe.parent()
        .and_then(Path::parent)
        .expect("profile dir")
        .to_owned()
}

/// Builds (once) and returns the path of `rexctl`.
fn rexctl() -> PathBuf {
    static BUILD: OnceLock<()> = OnceLock::new();
    let profile = profile_dir();
    BUILD.get_or_init(|| {
        let mut cmd = Command::new(env!("CARGO"));
        cmd.args(["build", "--offline", "-p", "rex-cli", "--bins"]);
        if profile.file_name().is_some_and(|n| n == "release") {
            cmd.arg("--release");
        }
        let status = cmd
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .status()
            .expect("cargo build for lineage e2e");
        assert!(status.success(), "building rexctl failed");
    });
    let path = profile.join(format!("rexctl{}", std::env::consts::EXE_SUFFIX));
    assert!(path.is_file(), "missing binary {}", path.display());
    path
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rex_lineage_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Shared run shape: 64 steps (digits-mlp at budget 100), a checkpoint
/// generation every 5 steps, 3 generations retained, killed at step 42
/// so generations 30/35/40 survive the crash.
const BUDGET: &str = "100";
const SEED: &str = "11";
const EVERY: &str = "5";
const KEEP: &str = "3";
const KILL_AT: &str = "kill-at-step=42";

fn train_cmd(lineage: &Path, trace: &Path, threads: usize, resume: bool) -> Command {
    let mut cmd = Command::new(rexctl());
    cmd.args([
        "train",
        "--setting",
        "digits-mlp",
        "--budget",
        BUDGET,
        "--schedule",
        "rex",
        "--optimizer",
        "sgdm",
        "--seed",
        SEED,
        "--checkpoint-every",
        EVERY,
        "--keep-checkpoints",
        KEEP,
        "--threads",
        &threads.to_string(),
    ]);
    cmd.arg("--checkpoint").arg(lineage);
    cmd.arg("--trace").arg(trace);
    if resume {
        cmd.arg("--resume").arg(lineage);
    }
    cmd.env_remove("REX_FAULTS");
    cmd
}

/// An uninterrupted run's trace bytes at `threads` workers.
fn baseline_trace(dir: &Path, threads: usize) -> Vec<u8> {
    let lineage = dir.join("baseline_ckpts");
    let trace = dir.join("baseline_trace.jsonl");
    let out = train_cmd(&lineage, &trace, threads, false)
        .output()
        .expect("baseline run");
    assert!(
        out.status.success(),
        "baseline run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::read(&trace).expect("baseline trace")
}

/// The generation files in `dir`, sorted by step ascending.
fn generations(dir: &Path) -> Vec<PathBuf> {
    let mut gens: Vec<(u64, PathBuf)> = std::fs::read_dir(dir)
        .expect("lineage dir")
        .flatten()
        .filter_map(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            let step: u64 = name
                .strip_prefix("state.")?
                .strip_suffix(".rexstate")?
                .parse()
                .ok()?;
            Some((step, e.path()))
        })
        .collect();
    gens.sort();
    gens.into_iter().map(|(_, p)| p).collect()
}

/// One way of damaging a snapshot file, and the `LoadReport` status the
/// resume must name for it.
struct Damage {
    tag: &'static str,
    expect: &'static str,
    apply: fn(&Path),
}

fn flip_at(path: &Path, pick: fn(usize) -> usize) {
    let mut bytes = std::fs::read(path).expect("snapshot bytes");
    let idx = pick(bytes.len());
    bytes[idx] ^= 0x01;
    std::fs::write(path, bytes).expect("rewrite snapshot");
}

fn truncate_to(path: &Path, pick: fn(usize) -> usize) {
    let bytes = std::fs::read(path).expect("snapshot bytes");
    let keep = pick(bytes.len());
    std::fs::write(path, &bytes[..keep]).expect("truncate snapshot");
}

/// The damage matrix: bit-flips in each region of the container, plus a
/// mid-body truncation (long enough to attempt a decode — fails the
/// trailing checksum, so it reads as corruption) and a stub truncation
/// below the minimum decodable length (named truncation).
const DAMAGES: [Damage; 5] = [
    Damage {
        tag: "bitflip_header",
        expect: "corrupt",
        apply: |p| flip_at(p, |_| 2),
    },
    Damage {
        tag: "bitflip_body",
        expect: "corrupt",
        apply: |p| flip_at(p, |len| len / 2),
    },
    Damage {
        tag: "bitflip_checksum",
        expect: "corrupt",
        apply: |p| flip_at(p, |len| len - 2),
    },
    Damage {
        tag: "truncate_body",
        expect: "corrupt",
        apply: |p| truncate_to(p, |len| len / 2),
    },
    Damage {
        tag: "truncate_stub",
        expect: "truncated",
        apply: |p| truncate_to(p, |_| 10),
    },
];

/// Crash a lineage run, damage the newest generation, resume, and check
/// both the named fallback and the final trace bytes.
fn fallback_case(dir: &Path, baseline: &[u8], damage: &Damage, threads: usize) {
    let lineage = dir.join(format!("{}_ckpts", damage.tag));
    let trace = dir.join(format!("{}_trace.jsonl", damage.tag));

    // phase 1: the run dies at step 42, after generation 40 landed
    let out = train_cmd(&lineage, &trace, threads, false)
        .env("REX_FAULTS", KILL_AT)
        .output()
        .expect("interrupted run");
    assert_eq!(
        out.status.code(),
        Some(KILL_EXIT_CODE),
        "[{}] expected the injected kill, got: {}",
        damage.tag,
        String::from_utf8_lossy(&out.stderr)
    );
    let gens = generations(&lineage);
    assert!(
        gens.len() >= 2,
        "[{}] need at least 2 generations to fall back, found {gens:?}",
        damage.tag
    );
    let newest = gens.last().unwrap();
    let survivor = &gens[gens.len() - 2];
    (damage.apply)(newest);

    // phase 2: resume must skip the damaged generation by name and land
    // on the next one back
    let out = train_cmd(&lineage, &trace, threads, true)
        .output()
        .expect("resumed run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "[{}] resume failed: {stderr}",
        damage.tag
    );
    let expected = format!(
        "generation {}: {} (",
        newest
            .file_name()
            .unwrap()
            .to_string_lossy()
            .strip_prefix("state.")
            .unwrap()
            .strip_suffix(".rexstate")
            .unwrap(),
        damage.expect
    );
    assert!(
        stderr.contains(&expected) && stderr.contains("falling back"),
        "[{}] stderr does not name the fallback ({expected:?}): {stderr}",
        damage.tag
    );
    assert!(
        stderr.contains(&format!("resuming from {}", survivor.display())),
        "[{}] stderr does not name the surviving generation: {stderr}",
        damage.tag
    );

    // phase 3: crash + damage + fallback left no mark on the trajectory
    let resumed = std::fs::read(&trace).expect("resumed trace");
    assert_eq!(
        resumed, baseline,
        "[{}] resumed trace differs from the uninterrupted baseline",
        damage.tag
    );
}

/// A mid-append kill (`kill-on-write=trace:N:mid`) leaves the trace with
/// a torn trailing line — half a JSONL record, no newline. The resume
/// must drop the fragment with a logged warning (not fail), fall back to
/// the checkpoint cursor, and still finish byte-identical to an
/// uninterrupted run.
#[test]
fn torn_trace_trailing_line_is_dropped_on_resume() {
    let dir = fresh_dir("torn");
    let baseline = baseline_trace(&dir, 1);
    let lineage = dir.join("torn_ckpts");
    let trace = dir.join("torn_trace.jsonl");

    // phase 1: die halfway through appending the 40th trace line
    let out = train_cmd(&lineage, &trace, 1, false)
        .env("REX_FAULTS", "kill-on-write=trace:40:mid")
        .output()
        .expect("interrupted run");
    assert_eq!(
        out.status.code(),
        Some(KILL_EXIT_CODE),
        "expected the injected kill, got: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let torn = std::fs::read_to_string(&trace).expect("torn trace");
    assert!(
        !torn.is_empty() && !torn.ends_with('\n'),
        "mid-append kill should leave an unterminated trailing fragment"
    );

    // phase 2: resume tolerates the fragment and names it
    let out = train_cmd(&lineage, &trace, 1, true)
        .output()
        .expect("resumed run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "resume failed: {stderr}");
    assert!(
        stderr.contains("dropping torn trailing line"),
        "resume did not log the torn line: {stderr}"
    );
    let resumed = std::fs::read(&trace).expect("resumed trace");
    assert_eq!(
        resumed, baseline,
        "torn-line recovery changed the trace bytes"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_newest_generation_falls_back_single_threaded() {
    let dir = fresh_dir("t1");
    let baseline = baseline_trace(&dir, 1);
    assert!(!baseline.is_empty());
    for damage in &DAMAGES {
        fallback_case(&dir, &baseline, damage, 1);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_newest_generation_falls_back_multi_threaded() {
    let dir = fresh_dir("t4");
    let baseline = baseline_trace(&dir, 4);
    assert!(!baseline.is_empty());
    for damage in &DAMAGES {
        fallback_case(&dir, &baseline, damage, 4);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
