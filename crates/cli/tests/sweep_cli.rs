//! `rexctl sweep` runs every catalogued setting through the same cell
//! runner as `rexctl train`, so a sweep cell reports exactly the metric
//! the equivalent `train` invocation prints.

use std::process::{Command, Output};

fn rexctl(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rexctl"))
        .args(args)
        .env_remove("REX_FAULTS")
        .output()
        .expect("rexctl must spawn")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

#[test]
fn vae_sweep_succeeds() {
    let out = rexctl(&[
        "sweep",
        "--setting",
        "vae-mnist",
        "--budgets",
        "1",
        "--schedules",
        "rex,linear",
        "--seed",
        "2",
    ]);
    assert!(out.status.success(), "sweep failed: {}", text(&out.stderr));
    let table = text(&out.stdout);
    assert!(
        table.contains("VAE-MNIST") && table.contains("| REX") && table.contains("| Linear"),
        "{table}"
    );
}

#[test]
fn digits_sweep_cell_matches_train() {
    let out = rexctl(&[
        "sweep",
        "--setting",
        "digits-mlp",
        "--budgets",
        "25",
        "--schedules",
        "rex",
        "--seed",
        "3",
    ]);
    assert!(out.status.success(), "sweep failed: {}", text(&out.stderr));
    // one progress line per cell on stderr: "REX @ 25% (2 ep): 57.50"
    let progress = text(&out.stderr);
    let swept = progress
        .lines()
        .find_map(|l| l.strip_prefix("REX @ 25% (2 ep): "))
        .unwrap_or_else(|| panic!("no sweep cell line in {progress:?}"))
        .to_owned();

    let out = rexctl(&[
        "train",
        "--setting",
        "digits-mlp",
        "--budget",
        "25",
        "--schedule",
        "rex",
        "--seed",
        "3",
    ]);
    assert!(out.status.success(), "train failed: {}", text(&out.stderr));
    let line = text(&out.stdout);
    assert!(
        line.contains(&format!("-> test error {swept}%")),
        "sweep cell printed {swept}, train printed {line:?}"
    );
}
