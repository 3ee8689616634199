//! `rexctl sweep` runs every catalogued setting through the same cell
//! runner as `rexctl train`, so a sweep cell reports exactly the metric
//! the equivalent `train` invocation prints. Every subcommand refuses the
//! flags it does not read.

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

/// A resumed sweep with another seed trains its own cell instead of
/// replaying the first seed's marker; the same seed replays it.
#[test]
fn sweep_resume_does_not_replay_another_seed() {
    let dir = std::env::temp_dir().join(format!("rex_sweep_resume_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let resume = dir.to_str().unwrap();
    let cell = |seed: &str, resume: Option<&str>| {
        let mut args = vec![
            "sweep",
            "--setting",
            "digits-mlp",
            "--budgets",
            "25",
            "--schedules",
            "rex",
            "--seed",
            seed,
        ];
        args.extend(resume.map(|dir| ["--resume", dir]).into_iter().flatten());
        let out = rexctl(&args);
        assert!(out.status.success(), "sweep failed: {}", text(&out.stderr));
        text(&out.stderr)
            .lines()
            .find_map(|l| l.strip_prefix("REX @ 25% (2 ep): "))
            .unwrap_or_else(|| panic!("no sweep cell line in {:?}", text(&out.stderr)))
            .to_owned()
    };
    let fresh = cell("2", None);
    cell("1", Some(resume));
    assert_eq!(
        cell("2", Some(resume)),
        fresh,
        "seed 2 must train, not resume"
    );
    assert_eq!(cell("2", Some(resume)), format!("{fresh} (resumed)"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Each subcommand refuses a flag it does not read (or a bad value of one
/// it does) with exit 2 and the flag's name on the first line of stderr,
/// before it trains anything or writes a file.
#[test]
fn subcommands_refuse_flags_they_do_not_read() {
    let trace = std::env::temp_dir().join(format!("rex_refused_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&trace);
    let t = trace.to_str().unwrap();
    let sweep = [
        "sweep",
        "--setting",
        "digits-mlp",
        "--budgets",
        "1",
        "--schedules",
        "rex",
    ];
    let cases: [(&[&str], &str); 9] = [
        (
            &["train", "--setting", "digits-mlp", "--budgte", "50"],
            "--budgte",
        ),
        (&[&sweep[..], &["--trace", t]].concat(), "--trace"),
        (
            &[
                "range-test",
                "--setting",
                "rn20-cifar10",
                "--checkpoint-every",
                "5",
            ],
            "--checkpoint-every",
        ),
        (
            &["train", "--setting", "digits-mlp", "--threads", "0"],
            "--threads",
        ),
        (
            &["train", "--setting", "digits-mlp", "--budget", "101"],
            "budget",
        ),
        (&[&sweep[..], &["--dtype", "f64"]].concat(), "--dtype"),
        (&["curve", "--schedule", "rex", "--seed", "1"], "--seed"),
        (&["schedules", "--threads", "2"], "--threads"),
        (&["trace", "summary", t, "--top", "3"], "--top"),
    ];
    for (args, flag) in cases {
        let out = rexctl(args);
        let stderr = text(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        let first = stderr.lines().next().unwrap_or_default();
        assert!(first.contains(flag), "{args:?}: {stderr}");
    }
    assert!(!trace.exists(), "a refused sweep wrote {t}");
}
