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
use rex_telemetry::json::Value;

fn die(msg: &str) -> ! {
    eprintln!("profile-bench: {msg}");
    eprintln!("usage: profile-bench [--smoke] [--reps N] [--out PATH]");
    std::process::exit(2);
}

fn main() {
    let (mut s, mut out) = (Sampling::full(30), None);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => s = Sampling::smoke(),
            "--reps" => {
                s.reps = (args.next().and_then(|v| v.parse().ok()))
                    .unwrap_or_else(|| die("--reps needs an integer"));
            }
            "--out" => out = Some(args.next().unwrap_or_else(|| die("--out needs a path"))),
            other => die(&format!("unknown flag {other:?}")),
        }
    }
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
    let path = out.as_deref().unwrap_or(default_path);
    let held = (art.write_checked(path)).unwrap_or_else(|e| die(&format!("writing {path}: {e}")));
    println!("wrote {path}");
    if !held {
        std::process::exit(1);
    }
}
