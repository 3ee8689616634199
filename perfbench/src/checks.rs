//! Output checks. Every operation the benchmark attempts (a cell, a job,
//! a re-run comparison) is counted here, and every error, refusal or
//! mismatch counts as failed:
//!
//! * a cell whose configuration repeats within a run must return the same
//!   metric bits, as the determinism contract requires;
//! * a reference cell (seed [`crate::REFERENCE_SEED`]) must land within a
//!   stated tolerance of `reference.json`; exact matches are counted as
//!   `train.bitexact_cells`. A failed reference check prints the value
//!   measured, which is what goes into the file when the arithmetic is
//!   meant to change.

use std::collections::BTreeMap;
use std::path::Path;

use rex_telemetry::json::parse_object;

/// Allowed distance from a reference value: test error is a percentage
/// of a 40–300-sample test set, so one flipped prediction moves it by up
/// to 2.5 points; the VAE's test loss is continuous.
fn tolerance(key: &str, reference: f64) -> f64 {
    if key.starts_with("vae-mnist") {
        0.02 * reference.abs()
    } else {
        5.0
    }
}

pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    pub bitexact: u64,
    pub reference_checked: u64,
    seen: BTreeMap<String, u64>,
    reference: BTreeMap<String, f64>,
}

impl Checks {
    /// Loads the reference values. A missing or unreadable file fails
    /// every reference check.
    pub fn load(path: &Path) -> Checks {
        let mut checks = Checks {
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
            bitexact: 0,
            reference_checked: 0,
            seen: BTreeMap::new(),
            reference: BTreeMap::new(),
        };
        match std::fs::read_to_string(path).map_err(|e| e.to_string()) {
            Ok(text) => match parse_object(&text) {
                Ok(obj) => {
                    for (k, v) in obj {
                        if let Some(x) = v.as_f64() {
                            checks.reference.insert(k, x);
                        }
                    }
                }
                Err(e) => checks
                    .notes
                    .push(format!("reference file unparseable: {e}")),
            },
            Err(e) => checks.notes.push(format!("reference file: {e}")),
        }
        checks
    }

    /// Counts one operation; `Err` or `ok == false` counts it as failed.
    pub fn op(&mut self, ok: Result<bool, String>, what: &str) {
        self.attempted += 1;
        match ok {
            Ok(true) => {}
            Ok(false) => {
                self.failed += 1;
                self.notes.push(format!("mismatch: {what}"));
            }
            Err(e) => {
                self.failed += 1;
                self.notes.push(format!("error: {what}: {e}"));
            }
        }
    }

    /// Counts one cell or job that produced `metric` under configuration
    /// `key`, checking it against earlier runs of the same key.
    pub fn cell(&mut self, key: &str, metric: Result<f64, String>) -> Option<f64> {
        let verdict = metric.clone().map(|m| {
            let bits = m.to_bits();
            m.is_finite() && *self.seen.entry(key.to_owned()).or_insert(bits) == bits
        });
        self.op(verdict, key);
        metric.ok()
    }

    /// Checks a reference cell's metric against `reference.json`.
    pub fn reference(&mut self, key: &str, metric: f64) {
        self.reference_checked += 1;
        let verdict = match self.reference.get(key) {
            None => Err("no reference value".to_owned()),
            Some(&r) => {
                if r.to_bits() == metric.to_bits() {
                    self.bitexact += 1;
                }
                Ok((metric - r).abs() <= tolerance(key, r))
            }
        };
        self.op(verdict, &format!("reference {key} = {metric}"));
    }
}
