//! The floors every committed benchmark number is held to, in one table.
//!
//! Each producer (`kernel-bench`, `profile-bench`, `serve-bench`,
//! `chaos-bench`) checks its fresh artifact against the floors of its
//! [`Kind`] before it exits; `bench-guard` checks the committed artifacts
//! and re-measures the kernel and profiler floors. A floor marked
//! full-run-only (a full run's size, or a measured ratio that three smoke
//! reps cannot resolve) is skipped for a `--smoke` artifact, and a
//! [`Rule::Fresh`] floor applies only when a re-measurement is compared
//! with the committed artifact.

use rex_telemetry::json::{parse_object, Value};

use crate::measure::Fields;

/// Which artifact a floor applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `BENCH_kernels.json`, from `kernel-bench`.
    Kernels,
    /// `BENCH_profile.json`, from `profile-bench`.
    Profile,
    /// `BENCH_serve.json`, from `serve-bench`.
    Serve,
    /// `BENCH_chaos.json`, from `chaos-bench`.
    Chaos,
}

impl Kind {
    /// Every artifact kind.
    pub const ALL: [Kind; 4] = [Kind::Kernels, Kind::Profile, Kind::Serve, Kind::Chaos];

    /// The committed file's name at the repository root.
    pub fn file(self) -> &'static str {
        match self {
            Kind::Kernels => "BENCH_kernels.json",
            Kind::Profile => "BENCH_profile.json",
            Kind::Serve => "BENCH_serve.json",
            Kind::Chaos => "BENCH_chaos.json",
        }
    }

    /// The `schema` value the artifact carries.
    pub fn schema(self) -> &'static str {
        match self {
            Kind::Kernels => "rex-kernel-bench/v5",
            Kind::Profile => "rex-profile-bench/v2",
            Kind::Serve => "rex-serve-bench/v3",
            Kind::Chaos => "rex-chaos-bench/v2",
        }
    }
}

/// What a floor requires of the value at its key.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rule {
    /// A number at least this.
    Min(f64),
    /// A number at most this.
    Max(f64),
    /// A number at least the number at another key.
    MinKey(&'static str),
    /// A number at most the number at another key.
    MaxKey(&'static str),
    /// This boolean.
    Flag(bool),
    /// A non-empty string.
    Named,
    /// `0 < KEY.p50 <= KEY.p99 <= KEY.max`.
    Quantiles,
    /// The numbers at the keys under `KEY.` sum to the number at another
    /// key.
    SumIs(&'static str),
    /// A re-measurement at least this fraction of the committed value.
    Fresh(f64),
}

/// One floor of the table.
#[derive(Debug, Clone, Copy)]
pub struct Floor {
    /// The artifact it applies to; `None` for every artifact.
    pub kind: Option<Kind>,
    /// The key it reads.
    pub key: &'static str,
    /// What it requires.
    pub rule: Rule,
    /// Skipped for a `--smoke` artifact.
    pub full_run_only: bool,
}

const fn floor(kind: Option<Kind>, key: &'static str, rule: Rule) -> Floor {
    Floor {
        kind,
        key,
        rule,
        full_run_only: false,
    }
}

const fn full(kind: Option<Kind>, key: &'static str, rule: Rule) -> Floor {
    Floor {
        full_run_only: true,
        ..floor(kind, key, rule)
    }
}

const EVERY: Option<Kind> = None;
const KERNELS: Option<Kind> = Some(Kind::Kernels);
const PROFILE: Option<Kind> = Some(Kind::Profile);
const SERVE: Option<Kind> = Some(Kind::Serve);
const CHAOS: Option<Kind> = Some(Kind::Chaos);

/// Every floor.
#[rustfmt::skip] // a table, one floor per row
pub const FLOORS: &[Floor] = &[
    // every artifact: a full run that names the numerics it measured
    full(EVERY, "smoke", Rule::Flag(false)),
    floor(EVERY, "backend", Rule::Named),
    floor(EVERY, "simd_level", Rule::Named),
    // kernels: min-of-reps ratios against the baseline timed in the same
    // reps; 0.9 leaves room for a noisy host, not for a regression
    floor(KERNELS, "matmul_256x256x256.simd.t1.speedup_best", Rule::Fresh(0.9)),
    // profiler: phase-detail spans cost at most 3 % of a training cell
    full(PROFILE, "overhead_phase_pct", Rule::Max(3.0)),
    floor(PROFILE, "workload.steps", Rule::Min(1.0)),
    floor(PROFILE, "phase.job.calls", Rule::Min(1.0)),
    floor(PROFILE, "phase.job/epoch/step.calls", Rule::Min(1.0)),
    // serve: every job admitted once and finished, latencies in order
    full(SERVE, "jobs", Rule::Min(200.0)),
    floor(SERVE, "done", Rule::MinKey("jobs")),
    floor(SERVE, "done", Rule::MaxKey("jobs")),
    floor(SERVE, "dropped", Rule::Max(0.0)),
    floor(SERVE, "duplicated", Rule::Max(0.0)),
    floor(SERVE, "retries_histogram", Rule::SumIs("jobs")),
    floor(SERVE, "accept_ms", Rule::Quantiles),
    floor(SERVE, "complete_ms", Rule::Quantiles),
    // chaos: a storm of every fault kind that loses, repeats and perturbs
    // nothing
    full(CHAOS, "jobs", Rule::Min(50.0)),
    full(CHAOS, "faults.total", Rule::Min(20.0)),
    floor(CHAOS, "faults.kill", Rule::Min(1.0)),
    floor(CHAOS, "faults.io_err", Rule::Min(1.0)),
    floor(CHAOS, "faults.corrupt", Rule::Min(1.0)),
    floor(CHAOS, "faults.slow_io", Rule::Min(1.0)),
    floor(CHAOS, "drained", Rule::Flag(true)),
    floor(CHAOS, "lost", Rule::Max(0.0)),
    floor(CHAOS, "duplicated", Rule::Max(0.0)),
    floor(CHAOS, "failed", Rule::Max(0.0)),
    floor(CHAOS, "completed", Rule::MinKey("jobs")),
    floor(CHAOS, "traces_identical", Rule::Flag(true)),
    floor(CHAOS, "traces_checked", Rule::MinKey("jobs")),
    floor(CHAOS, "retry_budget", Rule::Min(1.0)),
    floor(CHAOS, "max_retries_seen", Rule::MaxKey("retry_budget")),
    floor(CHAOS, "kills_observed", Rule::Min(1.0)),
    floor(CHAOS, "recoveries", Rule::Min(1.0)),
    floor(CHAOS, "recovery_ms", Rule::Quantiles),
];

/// The floors on `kind`, in table order.
pub fn floors_on(kind: Kind) -> impl Iterator<Item = &'static Floor> {
    FLOORS
        .iter()
        .filter(move |f| f.kind.is_none_or(|k| k == kind))
}

/// Reads a committed artifact of `kind` from `dir` and checks its schema.
///
/// # Errors
///
/// The read or parse error, or the schema mismatch, naming the file.
pub fn load(kind: Kind, dir: &std::path::Path) -> Result<Fields, String> {
    let path = dir.join(kind.file());
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let fields = parse_object(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    match fields.get("schema").and_then(Value::as_str) {
        Some(s) if s == kind.schema() => Ok(fields),
        other => Err(format!(
            "{}: schema {other:?}, expected {:?}",
            path.display(),
            kind.schema()
        )),
    }
}

/// Checks `fields`, an artifact of `kind`, against the floors on `kind`.
/// `full_run` enables the full-run-only floors; `committed`, when
/// `fields` is a re-measurement, enables the [`Rule::Fresh`] floors.
/// Returns one line per broken floor, naming its key.
pub fn check(
    kind: Kind,
    fields: &Fields,
    full_run: bool,
    committed: Option<&Fields>,
) -> Vec<String> {
    floors_on(kind)
        .filter(|f| full_run || !f.full_run_only)
        .filter_map(|f| (holds(f, fields, committed).err()).map(|why| format!("{}: {why}", f.key)))
        .collect()
}

fn num(fields: &Fields, key: &str) -> Result<f64, String> {
    fields
        .get(key)
        .and_then(Value::as_f64)
        .filter(|v| !v.is_nan())
        .ok_or_else(|| format!("no number at {key}"))
}

/// `Ok` when `f` holds on `fields` (or does not apply), else why not.
fn holds(f: &Floor, fields: &Fields, committed: Option<&Fields>) -> Result<(), String> {
    let key = f.key;
    let ensure = |ok: bool, why: String| if ok { Ok(()) } else { Err(why) };
    match f.rule {
        Rule::Min(min) => {
            let v = num(fields, key)?;
            ensure(v >= min, format!("{v} is below {min}"))
        }
        Rule::Max(max) => {
            let v = num(fields, key)?;
            ensure(v <= max, format!("{v} is above {max}"))
        }
        Rule::MinKey(other) => {
            let (v, min) = (num(fields, key)?, num(fields, other)?);
            ensure(v >= min, format!("{v} is below {other} = {min}"))
        }
        Rule::MaxKey(other) => {
            let (v, max) = (num(fields, key)?, num(fields, other)?);
            ensure(v <= max, format!("{v} is above {other} = {max}"))
        }
        Rule::Flag(want) => {
            let got = fields.get(key).and_then(Value::as_bool);
            ensure(got == Some(want), format!("{got:?}, expected {want}"))
        }
        Rule::Named => {
            let got = fields.get(key).and_then(Value::as_str);
            ensure(
                got.is_some_and(|s| !s.is_empty()),
                "not recorded".to_owned(),
            )
        }
        Rule::Quantiles => {
            let q = |name: &str| num(fields, &format!("{key}.{name}"));
            let (p50, p99, max) = (q("p50")?, q("p99")?, q("max")?);
            ensure(
                0.0 < p50 && p50 <= p99 && p99 <= max,
                format!("expected 0 < p50 <= p99 <= max, got {p50}, {p99}, {max}"),
            )
        }
        Rule::SumIs(other) => {
            let prefix = format!("{key}.");
            let parts: Vec<f64> = (fields.iter())
                .filter(|(k, _)| k.starts_with(&prefix))
                .filter_map(|(_, v)| v.as_f64())
                .collect();
            let (sum, want) = (parts.iter().sum::<f64>(), num(fields, other)?);
            ensure(
                !parts.is_empty() && sum == want,
                format!(
                    "{} keys sum to {sum}, expected {other} = {want}",
                    parts.len()
                ),
            )
        }
        Rule::Fresh(frac) => match committed {
            None => Ok(()),
            Some(c) => {
                let (now, was) = (num(fields, key)?, num(c, key)?);
                ensure(
                    now >= frac * was,
                    format!("re-measured {now}, below {frac} x committed {was}"),
                )
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed(kind: Kind) -> Fields {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        load(kind, &root).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The committed artifacts hold every static floor as they stand.
    #[test]
    fn committed_artifacts_pass_their_floors() {
        for kind in Kind::ALL {
            let fields = committed(kind);
            assert_eq!(
                check(kind, &fields, true, None),
                Vec::<String>::new(),
                "{}",
                kind.file()
            );
        }
    }

    /// The kernel artifact holds one timing per (kernel, backend,
    /// threads) row: every row that has a median has its minimum, its
    /// baseline's and both ratios, and nothing else is timed.
    #[test]
    fn kernel_artifact_rows_are_complete() {
        let fields = committed(Kind::Kernels);
        let rows: Vec<&str> = (fields.keys())
            .filter_map(|k| k.strip_suffix(".ms"))
            .filter(|row| row.matches('.').count() == 2)
            .collect();
        assert!(rows.len() >= 12, "{rows:?}");
        for row in &rows {
            for field in [
                "min_ms",
                "baseline_ms",
                "baseline_min_ms",
                "speedup",
                "speedup_best",
                "max_abs_diff",
            ] {
                assert!(
                    fields.contains_key(&format!("{row}.{field}")),
                    "{row}.{field}"
                );
            }
        }
        for key in fields
            .keys()
            .filter(|k| k.ends_with("_ms") && !k.starts_with("grid."))
        {
            let row = key.rsplit_once('.').unwrap().0;
            assert!(rows.contains(&row), "{key} is a timing outside the rows");
        }
    }

    /// One case per rule kind: a value moved past its floor breaks it, and
    /// the report names the key.
    #[test]
    fn a_value_past_its_floor_fails_and_names_the_key() {
        let matmul = "matmul_256x256x256.simd.t1.speedup_best";
        let slower = 0.85 * committed(Kind::Kernels)[matmul].as_f64().unwrap();
        // the floor (kind, key, rule), then the key suffix moved and its
        // new value
        #[rustfmt::skip] // a table, one case per row
        let cases = [
            (Kind::Profile, "workload.steps", Rule::Min(1.0), "", Value::Num(0.0)),
            (Kind::Profile, "overhead_phase_pct", Rule::Max(3.0), "", Value::Num(3.5)),
            (Kind::Chaos, "traces_checked", Rule::MinKey("jobs"), "", Value::Num(3.0)),
            (Kind::Chaos, "max_retries_seen", Rule::MaxKey("retry_budget"), "", Value::Num(11.0)),
            (Kind::Chaos, "traces_identical", Rule::Flag(true), "", Value::Bool(false)),
            (Kind::Serve, "simd_level", Rule::Named, "", Value::Str(String::new())),
            (Kind::Serve, "complete_ms", Rule::Quantiles, ".p50", Value::Num(1e9)),
            (Kind::Serve, "retries_histogram", Rule::SumIs("jobs"), ".0", Value::Num(0.0)),
            (Kind::Kernels, matmul, Rule::Fresh(0.9), "", Value::Num(slower)),
        ];
        for (kind, key, rule, suffix, value) in cases.clone() {
            assert!(
                floors_on(kind).any(|f| f.key == key && f.rule == rule),
                "{key}"
            );
            let base = committed(kind);
            let mut fields = base.clone();
            fields.insert(format!("{key}{suffix}"), value);
            let fresh = matches!(rule, Rule::Fresh(_)).then_some(&base);
            let errors = check(kind, &fields, true, fresh);
            assert!(
                errors.len() == 1 && errors[0].starts_with(&format!("{key}: ")),
                "{rule:?}: {errors:?}"
            );
        }
        let kind_of = std::mem::discriminant::<Rule>;
        for f in FLOORS {
            let covered = cases.iter().any(|c| kind_of(&c.2) == kind_of(&f.rule));
            assert!(covered, "no case for {:?}", f.rule);
        }
    }

    #[test]
    fn smoke_artifacts_skip_full_run_floors_and_missing_keys_fail() {
        let mut fields = committed(Kind::Serve);
        fields.insert("smoke".to_owned(), Value::Bool(true));
        fields.insert("jobs".to_owned(), Value::Num(24.0));
        fields.insert("done".to_owned(), Value::Num(24.0));
        fields.insert("retries_histogram.8+".to_owned(), Value::Num(0.0));
        fields.insert("retries_histogram.0".to_owned(), Value::Num(24.0));
        for k in ["1", "2", "3", "4-7"] {
            fields.remove(&format!("retries_histogram.{k}"));
        }
        assert_eq!(
            check(Kind::Serve, &fields, false, None),
            Vec::<String>::new()
        );
        let full = check(Kind::Serve, &fields, true, None);
        assert!(
            full.len() == 2 && full[0].starts_with("smoke: ") && full[1].starts_with("jobs: "),
            "{full:?}"
        );
        fields.remove("dropped");
        assert_eq!(
            check(Kind::Serve, &fields, false, None),
            ["dropped: no number at dropped"]
        );
    }
}
