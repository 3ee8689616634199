//! One measurement layer for the committed `BENCH_*.json` artifacts: a
//! timing routine, a provenance stamp and a flat-object writer.
//!
//! [`time_arms`] warms every arm up, then runs each arm once in turn in
//! every rep, so host-speed drift over the run lands on all arms alike.
//! It reports each arm's median (the typical cost) and minimum (the
//! capability estimate: interference on a shared host only ever inflates
//! a sample, so min-of-reps ratios track the code, not the weather).
//!
//! [`Artifact`] stamps the provenance every artifact carries (backend,
//! SIMD level, pool threads, host cores, reps, warm-up, smoke) and writes
//! one flat object through [`rex_telemetry::json::write_object`], with
//! dotted keys such as `matmul_256x256x256.simd.t1.speedup_best`, so
//! [`rex_telemetry::json::parse_object`] reads every artifact back.

use std::collections::BTreeMap;
use std::time::Instant;

use rex_telemetry::json::{self, Value};

use crate::floors::{self, Kind};

/// A parsed artifact: flat key → value.
pub type Fields = BTreeMap<String, Value>;

/// How many times each arm runs: `warmup` discarded rounds, then `reps`
/// timed ones. `smoke` marks a run too small for the floors that need
/// full reps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sampling {
    /// Timed rounds.
    pub reps: usize,
    /// Discarded rounds before the first timed one.
    pub warmup: usize,
    /// A CI-sized run.
    pub smoke: bool,
}

impl Sampling {
    /// `reps` timed rounds after three warm-up rounds.
    pub fn full(reps: usize) -> Sampling {
        Sampling {
            reps,
            warmup: 3,
            smoke: false,
        }
    }

    /// Three timed rounds after one warm-up round.
    pub fn smoke() -> Sampling {
        Sampling {
            reps: 3,
            warmup: 1,
            smoke: true,
        }
    }

    /// One run with no warm-up: a load test or a soak.
    pub fn once(smoke: bool) -> Sampling {
        Sampling {
            reps: 1,
            warmup: 0,
            smoke,
        }
    }
}

/// One arm's wall time over the timed rounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Median, milliseconds.
    pub median_ms: f64,
    /// Minimum, milliseconds.
    pub min_ms: f64,
}

/// `num / den`, or infinity when `den` is not positive.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        f64::INFINITY
    }
}

/// Times `arms`: `s.warmup` untimed rounds, then `s.reps` rounds (at
/// least one) in which every arm runs once, in order. Returns each arm's
/// [`Timing`] in the order given.
pub fn time_arms(s: &Sampling, arms: &mut [&mut dyn FnMut()]) -> Vec<Timing> {
    for _ in 0..s.warmup {
        arms.iter_mut().for_each(|arm| arm());
    }
    let mut samples = vec![Vec::with_capacity(s.reps.max(1)); arms.len()];
    for _ in 0..s.reps.max(1) {
        for (arm, times) in arms.iter_mut().zip(&mut samples) {
            let t0 = Instant::now();
            arm();
            times.push(t0.elapsed().as_secs_f64() * 1e3);
        }
    }
    samples
        .into_iter()
        .map(|mut v| {
            v.sort_by(f64::total_cmp);
            Timing {
                median_ms: v[v.len() / 2],
                min_ms: v[0],
            }
        })
        .collect()
}

/// Median, 99th percentile (inclusive nearest rank) and maximum of
/// `samples`; zeros when empty.
pub fn quantiles(mut samples: Vec<f64>) -> (f64, f64, f64) {
    samples.sort_by(f64::total_cmp);
    let max = samples.last().copied().unwrap_or(0.0);
    let rank = |p: usize| match samples.len() {
        0 => 0.0,
        n => samples[((p * (n - 1) + 50) / 100).min(n - 1)],
    };
    (rank(50), rank(99), max)
}

/// One benchmark artifact, built key by key in the order it is written.
#[derive(Debug, Clone)]
pub struct Artifact {
    kind: Kind,
    smoke: bool,
    fields: Vec<(String, Value)>,
}

impl Artifact {
    /// An artifact of `kind` stamped with its schema and the provenance
    /// of this process: the active backend and SIMD level, the pool's
    /// thread count, the host's cores, and `s`.
    pub fn new(kind: Kind, s: &Sampling) -> Artifact {
        let be = rex_tensor::backend::active();
        let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut art = Artifact {
            kind,
            smoke: s.smoke,
            fields: Vec::new(),
        };
        art.text("schema", kind.schema());
        art.text("backend", be.name());
        art.text("simd_level", be.simd_level());
        art.count("threads", rex_pool::num_threads());
        art.count("host_cores", host_cores);
        art.count("reps", s.reps);
        art.count("warmup", s.warmup);
        art.flag("smoke", s.smoke);
        art
    }

    fn set(&mut self, key: String, value: Value) {
        assert!(
            self.fields.iter().all(|(k, _)| *k != key),
            "artifact key {key:?} set twice"
        );
        self.fields.push((key, value));
    }

    /// A measured number, kept to six significant digits.
    pub fn num(&mut self, key: impl Into<String>, v: f64) {
        let rounded = format!("{v:.5e}").parse().unwrap_or(v);
        self.set(key.into(), Value::Num(rounded));
    }

    /// An exact count.
    pub fn count(&mut self, key: impl Into<String>, n: usize) {
        self.set(key.into(), Value::Num(n as f64));
    }

    /// A string.
    pub fn text(&mut self, key: impl Into<String>, s: &str) {
        self.set(key.into(), Value::Str(s.to_owned()));
    }

    /// A boolean.
    pub fn flag(&mut self, key: impl Into<String>, b: bool) {
        self.set(key.into(), Value::Bool(b));
    }

    /// The artifact as JSON text.
    pub fn render(&self) -> String {
        json::write_object(&self.fields)
    }

    /// The artifact as [`parse_object`](json::parse_object) reads it back
    /// from disk.
    pub fn fields(&self) -> Fields {
        json::parse_object(&self.render()).expect("a written artifact parses back")
    }

    /// Writes the artifact to `path`, then checks it against the floors
    /// of its kind (the full-run-only ones unless it is a smoke run) and
    /// names each broken floor on stderr. Returns whether all held.
    ///
    /// # Errors
    ///
    /// The write's I/O error.
    pub fn write_checked(&self, path: &str) -> std::io::Result<bool> {
        std::fs::write(path, self.render())?;
        let broken = floors::check(self.kind, &self.fields(), !self.smoke, None);
        for b in &broken {
            eprintln!("{path}: floor broken: {b}");
        }
        Ok(broken.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_arm_runs_warmup_plus_reps_times_in_turn() {
        let order = std::cell::RefCell::new(Vec::new());
        let s = Sampling {
            reps: 3,
            warmup: 2,
            smoke: false,
        };
        let timings = time_arms(
            &s,
            &mut [&mut || order.borrow_mut().push('a'), &mut || {
                order.borrow_mut().push('b')
            }],
        );
        assert_eq!(order.borrow().iter().collect::<String>(), "ababababab");
        assert_eq!(timings.len(), 2);
        assert!(timings.iter().all(|t| t.min_ms <= t.median_ms));
    }

    #[test]
    fn artifacts_stamp_provenance_and_parse_back() {
        let mut art = Artifact::new(Kind::Serve, &Sampling::smoke());
        art.num("x.ms", 1.0 / 3.0);
        art.count("jobs", 6_291_456);
        let fields = art.fields();
        assert_eq!(fields["schema"].as_str(), Some(Kind::Serve.schema()));
        assert_eq!(fields["reps"].as_u64(), Some(3));
        assert_eq!(fields["smoke"].as_bool(), Some(true));
        assert!(fields["backend"].as_str().is_some_and(|b| !b.is_empty()));
        assert_eq!(fields["x.ms"].as_f64(), Some(0.333333));
        assert_eq!(fields["jobs"].as_u64(), Some(6_291_456));
    }

    #[test]
    #[should_panic(expected = "set twice")]
    fn a_key_is_set_once() {
        let mut art = Artifact::new(Kind::Serve, &Sampling::smoke());
        art.count("reps", 1);
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        assert_eq!(quantiles(vec![]), (0.0, 0.0, 0.0));
        let q = quantiles((1..=100).map(f64::from).rev().collect());
        assert_eq!(q, (51.0, 99.0, 100.0));
    }
}
