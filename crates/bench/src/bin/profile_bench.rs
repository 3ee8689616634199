//! `profile-bench` — measures what the hierarchical span profiler costs
//! on a real training cell ([`rex_bench::profile_overhead`]) and writes
//! `BENCH_profile.json` at the repository root (schema
//! `rex-profile-bench/v2`, one flat object).
//!
//! The artifact is checked against the profiler floors of
//! [`rex_bench::floors`] before the binary exits, and `bench-guard`
//! re-measures them: phase-detail overhead must stay at or below 3 % of
//! the cell's time, in the committed artifact and in a fresh run.
//!
//! ```text
//! cargo run --release -p rex-bench --bin profile-bench [-- --smoke] [--reps N] [--out PATH]
//! ```

use rex_bench::measure::Sampling;
use rex_bench::profile_overhead;
use rex_bench::{exit_with, or_usage, parse_flags};
use rex_telemetry::json::Value;

const USAGE: &str = "usage: profile-bench [--smoke] [--reps N] [--out PATH]";

fn main() {
    let flags = parse_flags(USAGE, &["reps", "out"], &["smoke"]);
    let mut s = if flags.switch("smoke") {
        Sampling::smoke()
    } else {
        Sampling::full(30)
    };
    s.reps = or_usage(flags.get_or("reps", s.reps), USAGE);
    let be = rex_tensor::backend::active();
    println!(
        "profile-bench: reps={} warmup={} threads={} backend={} ({}){}",
        s.reps,
        s.warmup,
        rex_pool::num_threads(),
        be.name(),
        be.simd_level(),
        if s.smoke { " (smoke)" } else { "" }
    );

    let (art, profile) = profile_overhead::measure(&s);
    let fields = art.fields();
    let num = |key: &str| fields.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN);
    println!("{:<14} {:>12} {:>10}", "profiler", "cell ms", "overhead");
    println!("{:<14} {:>12.4} {:>9}%", "off", num("off_ms_min"), "-");
    for arm in ["phase", "kernel"] {
        let (ms, pct) = (
            num(&format!("{arm}_ms_min")),
            num(&format!("overhead_{arm}_pct")),
        );
        println!("{arm:<14} {ms:>12.4} {pct:>9.2}%");
    }
    print!("{}", profile.render_phase_table());

    let default_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_profile.json");
    let path = flags.get("out").unwrap_or(default_path);
    let held = (art.write_checked(path))
        .unwrap_or_else(|e| exit_with(&format!("profile-bench: writing {path}: {e}")));
    println!("wrote {path}");
    if !held {
        std::process::exit(1);
    }
}
