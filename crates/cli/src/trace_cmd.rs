//! `rexctl trace` — offline analysis of JSONL training traces and
//! Chrome-trace span profiles.
//!
//! ```text
//! rexctl trace summary FILE            step counts + lr/loss sparklines
//! rexctl trace diff EXPECTED ACTUAL    first divergent event, or silence
//! rexctl trace profile FILE [--top K]  hottest spans of a span profile
//! ```

use std::path::Path;

use rex_telemetry::golden::{diff_traces, Tolerances};
use rex_telemetry::span::Profile;
use rex_telemetry::{parse_trace, Event};

use rex_serve::cli::Flags;

/// Usage text for `rexctl trace`.
pub const USAGE: &str = "\
usage: rexctl trace summary FILE
       rexctl trace diff EXPECTED ACTUAL
       rexctl trace profile FILE [--top K]

summary  Render a JSONL training trace as a run header, event counts,
         and lr/loss sparklines over optimizer steps.
diff     Compare two JSONL traces with the golden-trace comparator
         (exact structure, per-field float tolerances).
         Prints nothing and exits 0 when the traces match; otherwise
         names the first divergent event/step and exits 1.
profile  Show the hottest spans of a Chrome trace-event profile, as
         written by --profile or a server running with --profile on.";

/// Dispatches `rexctl trace SUBCOMMAND ...`.
pub fn trace(argv: &[String]) -> i32 {
    let result = match argv.first().map(String::as_str) {
        Some("summary") => summary(&argv[1..]),
        Some("diff") => diff(&argv[1..]),
        Some("profile") => profile(&argv[1..]),
        Some("help") | None => {
            eprintln!("{USAGE}");
            return 2;
        }
        Some(other) => Err(format!("unknown trace subcommand {other:?}")),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{USAGE}");
            2
        }
    }
}

/// Splits leading non-flag arguments (file paths) from the trailing
/// `--key value` flags, of which the subcommand reads `valued`.
fn positionals<'a>(
    argv: &'a [String],
    expect: &str,
    valued: &[&str],
) -> Result<(Vec<&'a str>, Flags), String> {
    let split = argv
        .iter()
        .position(|a| a.starts_with("--"))
        .unwrap_or(argv.len());
    let flags = Flags::parse(&argv[split..], valued, &[])?;
    if split == 0 {
        return Err(format!("expected {expect}"));
    }
    Ok((argv[..split].iter().map(String::as_str).collect(), flags))
}

fn read_events(path: &str) -> Result<Vec<Event>, String> {
    let text = std::fs::read_to_string(Path::new(path))
        .map_err(|e| format!("cannot read trace {path}: {e}"))?;
    parse_trace(&text).map_err(|e| format!("{path}: {e}"))
}

/// `rexctl trace summary FILE`
fn summary(argv: &[String]) -> Result<i32, String> {
    let (files, _) = positionals(argv, "a trace file", &[])?;
    let [path] = files.as_slice() else {
        return Err(format!("summary takes one trace file, got {}", files.len()));
    };
    let events = read_events(path)?;

    let mut lr = Vec::new();
    let mut loss = Vec::new();
    let (mut epochs, mut validations, mut checkpoints) = (0u64, 0u64, 0u64);
    let mut metric = None;
    println!("trace: {path}");
    for ev in &events {
        match ev {
            Event::RunStart {
                run,
                schedule,
                optimizer,
                seed,
                total_samples,
            } => println!(
                "run {run} | schedule {schedule} | optimizer {optimizer} | seed {seed} | \
                 {total_samples} samples budgeted"
            ),
            Event::Epoch { .. } => epochs += 1,
            Event::Step(r) => {
                lr.push(r.lr);
                loss.push(r.loss);
            }
            Event::Validation { .. } => validations += 1,
            Event::RunEnd { metric: m } => metric = Some(*m),
            _ => checkpoints += 1,
        }
    }
    println!(
        "{} events | {} epochs | {} steps | {} validations | {} other",
        events.len(),
        epochs,
        lr.len(),
        validations,
        checkpoints
    );
    print_sparkline("lr", &lr);
    print_sparkline("loss", &loss);
    if let Some(m) = metric {
        println!("final metric: {m}");
    }
    Ok(0)
}

/// Prints `label  first .. last` plus a sparkline over the series.
fn print_sparkline(label: &str, values: &[f64]) {
    let Some((first, last)) = values.first().zip(values.last()) else {
        return;
    };
    println!("{label:<5} {first:.6} .. {last:.6}");
    println!("      {}", sparkline(values, 60));
}

/// Renders `values` as a fixed-width block-character sparkline,
/// mean-pooled into at most `width` columns.
fn sparkline(values: &[f64], width: usize) -> String {
    const BLOCKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    if finite.is_empty() {
        return String::new();
    }
    let cols = width.min(finite.len()).max(1);
    let pooled: Vec<f64> = (0..cols)
        .map(|c| {
            let lo = c * finite.len() / cols;
            let hi = ((c + 1) * finite.len() / cols).max(lo + 1);
            finite[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
        })
        .collect();
    let min = pooled.iter().copied().fold(f64::INFINITY, f64::min);
    let max = pooled.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    pooled
        .iter()
        .map(|v| {
            let t = if max > min {
                (v - min) / (max - min)
            } else {
                0.5
            };
            BLOCKS[((t * 7.0).round() as usize).min(7)]
        })
        .collect()
}

/// `rexctl trace diff EXPECTED ACTUAL`
fn diff(argv: &[String]) -> Result<i32, String> {
    let (files, _) = positionals(argv, "two trace files", &[])?;
    let [expected_path, actual_path] = files.as_slice() else {
        return Err(format!("diff takes two trace files, got {}", files.len()));
    };
    let expected = read_events(expected_path)?;
    let actual = read_events(actual_path)?;
    match diff_traces(&expected, &actual, &Tolerances::default()) {
        Ok(()) => {
            println!("traces match ({} events)", expected.len());
            Ok(0)
        }
        Err(d) => {
            println!("{d}");
            Ok(1)
        }
    }
}

/// `rexctl trace profile FILE [--top K]`
fn profile(argv: &[String]) -> Result<i32, String> {
    let (files, flags) = positionals(argv, "a profile file", &["top"])?;
    let [path] = files.as_slice() else {
        return Err(format!(
            "profile takes one Chrome-trace file, got {}",
            files.len()
        ));
    };
    let top: usize = flags.get_or("top", 10)?;
    let text = std::fs::read_to_string(Path::new(path))
        .map_err(|e| format!("cannot read profile {path}: {e}"))?;
    let prof = Profile::parse_chrome_trace(&text)?;
    let rows = prof.top_spans(top.max(1));
    if rows.is_empty() {
        println!("profile: no spans recorded");
        return Ok(0);
    }
    println!("profile: {path}");
    let path_w = rows
        .iter()
        .map(|r| r.path.len())
        .chain(["span".len()])
        .max()
        .unwrap();
    println!(
        "{:<path_w$}  {:>8}  {:>12}  {:>12}  {:>7}",
        "span", "calls", "excl(ms)", "incl(ms)", "%root"
    );
    for r in &rows {
        println!(
            "{:<path_w$}  {:>8}  {:>12.3}  {:>12.3}  {:>7.1}",
            r.path,
            r.calls,
            r.exclusive_ns as f64 * 1e-6,
            r.inclusive_ns as f64 * 1e-6,
            r.pct_of_root,
        );
    }
    Ok(0)
}
