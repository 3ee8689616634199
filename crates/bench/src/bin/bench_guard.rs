//! `bench-guard` — holds every committed `BENCH_*.json` to the floors of
//! [`rex_bench::floors`], so a regression fails verification.
//!
//! Each committed artifact is read back with
//! [`rex_telemetry::json::parse_object`] and checked against every floor
//! of its kind. The kernel and profiler artifacts are then re-measured in
//! this process, the same way their producers measure them, at the
//! committed artifact's own reps and warm-up (of the kernels, those a
//! floor compares with its committed value, at every backend and pool
//! size), and the re-measurement is checked too. A re-measurement that breaks a floor earns
//! one more before the guard gives up: a real regression fails both, a
//! scheduler-noise dip on a shared host rarely does.
//!
//! ```text
//! cargo run --release -p rex-bench --bin bench-guard
//! ```
//!
//! Exits 1 when any floor stays broken.

use std::path::Path;

use rex_bench::floors::{self, Kind, Rule};
use rex_bench::kernel_matrix;
use rex_bench::measure::{Artifact, Fields, Sampling};
use rex_bench::profile_overhead;
use rex_telemetry::json::Value;

/// Re-measures what the floors on `kind` compare against, if anything.
fn remeasure(kind: Kind, s: &Sampling) -> Option<Artifact> {
    match kind {
        Kind::Kernels => {
            let mut art = Artifact::new(kind, s);
            // the kernels a floor compares with its committed value
            let fresh = |name: &str| {
                floors::floors_on(kind).any(|f| {
                    matches!(f.rule, Rule::Fresh(_)) && f.key.split('.').next() == Some(name)
                })
            };
            for row in kernel_matrix::measure(s, fresh) {
                row.record(&mut art);
            }
            Some(art)
        }
        Kind::Profile => Some(profile_overhead::measure(s).0),
        Kind::Serve | Kind::Chaos => None,
    }
}

/// Checks one committed artifact and its re-measurement; returns whether
/// every floor held.
fn guard(kind: Kind, root: &Path) -> bool {
    let file = kind.file();
    let committed = match floors::load(kind, root) {
        Ok(fields) => fields,
        Err(e) => {
            eprintln!("bench-guard: {e}");
            return false;
        }
    };
    let broken = floors::check(kind, &committed, true, None);
    for b in &broken {
        eprintln!("bench-guard: {file}: committed: floor broken: {b}");
    }
    if !broken.is_empty() {
        return false;
    }
    println!(
        "bench-guard: {file}: committed artifact holds its {} floors",
        floors::floors_on(kind)
            .filter(|f| !matches!(f.rule, Rule::Fresh(_)))
            .count()
    );
    let count = |key: &str| committed.get(key).and_then(Value::as_u64).unwrap_or(0) as usize;
    let s = Sampling {
        reps: count("reps"),
        warmup: count("warmup"),
        smoke: false,
    };
    for attempt in 1..=2 {
        let Some(fresh) = remeasure(kind, &s) else {
            return true;
        };
        let fresh = fresh.fields();
        report_fresh(kind, &committed, &fresh);
        let broken = floors::check(kind, &fresh, true, Some(&committed));
        for b in &broken {
            eprintln!("bench-guard: {file}: re-measured: floor broken: {b}");
        }
        if broken.is_empty() {
            return true;
        }
        if attempt == 1 {
            eprintln!("bench-guard: {file}: re-measuring once to rule out scheduler interference");
        }
    }
    false
}

/// Prints the re-measured value of every key a floor on `kind` reads
/// next to its committed value.
fn report_fresh(kind: Kind, committed: &Fields, fresh: &Fields) {
    let num = |fields: &Fields, key: &str| fields.get(key).and_then(Value::as_f64);
    let mut keys: Vec<&str> = floors::floors_on(kind).map(|f| f.key).collect();
    keys.dedup();
    for key in keys {
        if let (Some(was), Some(now)) = (num(committed, key), num(fresh, key)) {
            println!(
                "bench-guard: {}: {key}: committed {was:.3}, re-measured {now:.3}",
                kind.file()
            );
        }
    }
}

fn main() {
    rex_bench::parse_flags("usage: bench-guard (takes no arguments)", &[], &[]);
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let held = Kind::ALL.map(|kind| guard(kind, &root));
    if held.contains(&false) {
        std::process::exit(1);
    }
    println!("bench-guard: OK");
}
