//! `grid <name>` end to end: the CSV pins, resume keys and `--dtype`;
//! and every rex-bench binary's refusal of the flags it does not read.
//!
//! The pins are each CSV's byte length and fnv1a64 at `--scale smoke`,
//! seed 0, taken from the per-table binaries the grid table replaced.
//! They run under `--backend scalar`, whose numerics do not depend on the
//! host's SIMD level. Tier-1 checks the two cheapest rows; the rest are
//! `#[ignore]`d and run in release by `scripts/verify.sh`.

use std::path::{Path, PathBuf};
use std::process::Command;

use rex_nn::checkpoint::fnv1a64;

/// (grid, CSV byte length, CSV fnv1a64).
const PINS: [(&str, usize, u64); 8] = [
    ("table4", 1472, 0x94cd4fa49b9c6461),
    ("table5", 802, 0x1559016027403dc6),
    ("table6", 792, 0x2d20a68b51f7255f),
    ("table7", 950, 0x378ad2a512c109ed),
    ("table8", 1269, 0x975af1a4088a0939),
    ("table9", 455, 0xbda35eecc2f8657e),
    ("fig3", 1342, 0x03c03ba539a1c876),
    ("ablations", 911, 0x4216a64d3ec0abea),
];

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rex_grid_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `grid <name> --scale smoke <extra> --out <out>`; returns the CSV
/// bytes and stderr.
fn grid(name: &str, out: &Path, extra: &[&str]) -> (Vec<u8>, String) {
    let csv = rex_bench::grid::find(name).unwrap().csv;
    let run = Command::new(env!("CARGO_BIN_EXE_grid"))
        .args([name, "--scale", "smoke", "--out"])
        .arg(out)
        .args(extra)
        .env_remove("REX_FAULTS")
        .output()
        .expect("grid must spawn");
    let stderr = String::from_utf8_lossy(&run.stderr).into_owned();
    assert!(
        run.status.success(),
        "grid {name} {extra:?} failed: {stderr}"
    );
    (std::fs::read(out.join(csv)).unwrap(), stderr)
}

fn resumed(stderr: &str) -> usize {
    stderr.lines().filter(|l| l.ends_with("(resumed)")).count()
}

fn check_pins(names: &[&str]) {
    let dir = scratch(&format!("pins_{}", names.join("_")));
    for &(name, len, hash) in PINS.iter().filter(|p| names.contains(&p.0)) {
        let (csv, _) = grid(name, &dir, &["--backend", "scalar"]);
        assert_eq!(
            (csv.len(), fnv1a64(&csv)),
            (len, hash),
            "grid {name}: CSV no longer matches its pin:\n{}",
            String::from_utf8_lossy(&csv)
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn table7_and_table9_match_their_pins() {
    check_pins(&["table7", "table9"]);
}

#[test]
#[ignore = "about 15 s in release; scripts/verify.sh runs it"]
fn every_grid_matches_its_pin() {
    check_pins(&PINS.map(|p| p.0));
}

/// fig3's VGG16-CIFAR100 block shares table6's setting label, optimizers,
/// schedules and budgets, but not its data or Adam LR: its cells must
/// not replay table6's markers.
#[test]
fn fig3_does_not_replay_table6_markers() {
    let dir = scratch("fig3_after_table6");
    let resume = dir.join("resume");
    let resume = ["--resume", resume.to_str().unwrap()];
    grid("table6", &dir, &resume);
    let (fresh, _) = grid("fig3", &dir.join("fresh"), &[]);
    let (after, stderr) = grid("fig3", &dir, &resume);
    assert_eq!(resumed(&stderr), 0, "{stderr}");
    assert_eq!(after, fresh);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The ablations' three blocks all list REX under one setting: each REX
/// cell trains once and fills all three rows (one budget and one trial at
/// smoke scale).
#[test]
fn ablations_train_each_rex_cell_once() {
    let dir = scratch("ablations_rex");
    let (csv, stderr) = grid("ablations", &dir, &[]);
    let trained = stderr.lines().filter(|l| l.contains("] REX @ ")).count();
    assert_eq!(trained, 1, "{stderr}");
    let rows = String::from_utf8_lossy(&csv)
        .lines()
        .filter(|l| l.contains(",REX,"))
        .count();
    assert_eq!(rows, 3);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A rerun with another seed trains its own cells; the same seed replays
/// all of them.
#[test]
fn another_seed_does_not_replay_markers() {
    let dir = scratch("table7_seeds");
    let resume = dir.join("resume");
    let with = |seed: &'static str| ["--seed", seed, "--resume", resume.to_str().unwrap()];
    let (fresh, _) = grid("table7", &dir.join("fresh"), &["--seed", "7"]);
    grid("table7", &dir, &with("0"));
    let (after, stderr) = grid("table7", &dir, &with("7"));
    assert_eq!(resumed(&stderr), 0, "{stderr}");
    assert_eq!(after, fresh);
    let (replayed, stderr) = grid("table7", &dir, &with("7"));
    assert_eq!(resumed(&stderr), 16, "{stderr}");
    assert_eq!(replayed, fresh);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--dtype bf16` reaches the VAE cells: the cells stay the same and
/// their scores move.
#[test]
fn bf16_changes_table7_scores() {
    let dir = scratch("table7_bf16");
    let (f32_csv, _) = grid("table7", &dir.join("f32"), &["--backend", "scalar"]);
    let (bf16_csv, _) = grid(
        "table7",
        &dir.join("bf16"),
        &["--backend", "scalar", "--dtype", "bf16"],
    );
    let rows = |csv: &[u8]| -> Vec<(String, String)> {
        String::from_utf8_lossy(csv)
            .lines()
            .map(|l| {
                let (cell, score) = l.rsplit_once(',').unwrap().0.rsplit_once(',').unwrap();
                (cell.to_owned(), score.to_owned())
            })
            .collect()
    };
    let (f32_rows, bf16_rows) = (rows(&f32_csv), rows(&bf16_csv));
    assert_eq!(f32_rows.len(), 17, "a header and 16 cells");
    let cells = |rows: &[(String, String)]| rows.iter().map(|r| r.0.clone()).collect::<Vec<_>>();
    assert_eq!(cells(&f32_rows), cells(&bf16_rows));
    let moved = f32_rows
        .iter()
        .zip(&bf16_rows)
        .filter(|(a, b)| a.1 != b.1)
        .count();
    assert_eq!(moved, 16, "every VAE score should move under bf16");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every paper and benchmark binary refuses a flag it does not read (or
/// a bad value of one it does) with exit 2 and the flag's name on the
/// first line of stderr, before it does any work.
#[test]
fn binaries_refuse_flags_they_do_not_read() {
    let dir = scratch("refused");
    let d = dir.to_str().unwrap();
    let cases: [(&str, &[&str], &str); 14] = [
        (
            env!("CARGO_BIN_EXE_fig2"),
            &["--out", d, "--resume", d],
            "--resume",
        ),
        (
            env!("CARGO_BIN_EXE_fig2"),
            &["--out", d, "--scale", "full"],
            "--scale",
        ),
        (
            env!("CARGO_BIN_EXE_table1"),
            &["--out", d, "--trace", d],
            "--trace",
        ),
        (
            env!("CARGO_BIN_EXE_fig1"),
            &["--out", d, "--seed", "1"],
            "--seed",
        ),
        (
            env!("CARGO_BIN_EXE_table2"),
            &["--out", d, "--resume", d],
            "--resume",
        ),
        (
            env!("CARGO_BIN_EXE_table10_11"),
            &["--out", d, "--trials", "2"],
            "--trials",
        ),
        (
            env!("CARGO_BIN_EXE_fig4"),
            &["--out", d, "--trace", d],
            "--trace",
        ),
        (
            env!("CARGO_BIN_EXE_grid"),
            &["table7", "--out", d, "--budget", "5"],
            "--budget",
        ),
        (
            env!("CARGO_BIN_EXE_grid"),
            &["table7", "--out", d, "--threads", "0"],
            "--threads",
        ),
        (
            env!("CARGO_BIN_EXE_kernel-bench"),
            &["--smoke", "--threads", "2"],
            "--threads",
        ),
        (
            env!("CARGO_BIN_EXE_profile-bench"),
            &["--smoke", "--jobs", "2"],
            "--jobs",
        ),
        (
            env!("CARGO_BIN_EXE_serve-bench"),
            &["--smoke", "--reps", "2"],
            "--reps",
        ),
        (
            env!("CARGO_BIN_EXE_chaos-bench"),
            &["--smoke", "--clients", "2"],
            "--clients",
        ),
        (env!("CARGO_BIN_EXE_bench-guard"), &["--smoke"], "--smoke"),
    ];
    for (bin, args, flag) in cases {
        let out = Command::new(bin)
            .args(args)
            .output()
            .expect("binary must spawn");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        let first = stderr.lines().next().unwrap_or_default();
        assert!(first.contains(flag), "{bin} {args:?}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
