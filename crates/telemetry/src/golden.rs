//! Tolerance-checked trace diffing for golden-trace regression tests.
//!
//! Integer fields (steps, epochs, seeds, sample counts) and strings must
//! match exactly; float fields are compared under per-field [`Tolerance`]s
//! so golden files survive benign numeric churn (e.g. a re-ordered but
//! mathematically identical reduction) while catching real trajectory
//! drift.

use crate::event::{Event, StepRecord};

/// Combined relative + absolute tolerance: `|a−b| ≤ abs + rel·max(|a|,|b|)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerance {
    /// Relative component.
    pub rel: f64,
    /// Absolute component.
    pub abs: f64,
}

impl Tolerance {
    /// An exact-match tolerance (still treats NaN == NaN).
    pub const EXACT: Tolerance = Tolerance { rel: 0.0, abs: 0.0 };

    /// A pure relative tolerance.
    pub fn rel(rel: f64) -> Self {
        Tolerance { rel, abs: 0.0 }
    }

    /// Whether `a` and `b` agree under this tolerance. Non-finite values
    /// must match bit-class (NaN↔NaN, +∞↔+∞).
    pub fn close(&self, a: f64, b: f64) -> bool {
        if a == b {
            return true;
        }
        if !a.is_finite() || !b.is_finite() {
            return (a.is_nan() && b.is_nan()) || a == b;
        }
        (a - b).abs() <= self.abs + self.rel * a.abs().max(b.abs())
    }
}

/// Per-field tolerances for a whole-trace diff.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerances {
    /// Applied learning rates (tightest — schedules are closed-form).
    pub lr: Tolerance,
    /// Train/validation losses.
    pub loss: Tolerance,
    /// Gradient/parameter norms.
    pub norm: Tolerance,
    /// Final run metric.
    pub metric: Tolerance,
}

impl Default for Tolerances {
    fn default() -> Self {
        Tolerances {
            lr: Tolerance {
                rel: 1e-6,
                abs: 1e-12,
            },
            loss: Tolerance {
                rel: 5e-3,
                abs: 1e-6,
            },
            norm: Tolerance {
                rel: 5e-3,
                abs: 1e-6,
            },
            metric: Tolerance {
                rel: 5e-3,
                abs: 1e-6,
            },
        }
    }
}

/// The first divergence found between two traces.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceDiff {
    /// Index of the diverging event in the expected trace.
    pub index: usize,
    /// Optimizer step the divergence belongs to, when the event is (or
    /// follows) a step record.
    pub step: Option<u64>,
    /// Dotted field path, e.g. `step.lr` or `len`.
    pub field: String,
    /// Expected value rendered as text.
    pub expected: String,
    /// Actual value rendered as text.
    pub actual: String,
}

impl std::fmt::Display for TraceDiff {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "trace diverges at event {}{}: {} — expected {}, got {}",
            self.index,
            self.step
                .map(|s| format!(" (optimizer step {s})"))
                .unwrap_or_default(),
            self.field,
            self.expected,
            self.actual
        )
    }
}

/// Compares two event traces under per-field tolerances.
///
/// Structure (event count, kinds, integer indices, strings) must match
/// exactly; float fields use `tol`.
///
/// # Errors
///
/// Returns the first [`TraceDiff`] found, with the optimizer step of the
/// most recent step record for diagnostics.
pub fn diff_traces(
    expected: &[Event],
    actual: &[Event],
    tol: &Tolerances,
) -> Result<(), TraceDiff> {
    let mut last_step: Option<u64> = None;
    let n = expected.len().min(actual.len());
    for i in 0..n {
        if let Event::Step(r) = &expected[i] {
            last_step = Some(r.step);
        }
        diff_event(i, last_step, &expected[i], &actual[i], tol)?;
    }
    if expected.len() != actual.len() {
        return Err(TraceDiff {
            index: n,
            step: last_step,
            field: "len".into(),
            expected: format!("{} events", expected.len()),
            actual: format!("{} events", actual.len()),
        });
    }
    Ok(())
}

fn diff_event(
    index: usize,
    step: Option<u64>,
    expected: &Event,
    actual: &Event,
    tol: &Tolerances,
) -> Result<(), TraceDiff> {
    let fail = |field: &str, exp: String, act: String| {
        Err(TraceDiff {
            index,
            step,
            field: field.to_owned(),
            expected: exp,
            actual: act,
        })
    };
    let exact_u64 = |field: &str, a: u64, b: u64| {
        if a == b {
            Ok(())
        } else {
            fail(field, a.to_string(), b.to_string())
        }
    };
    let exact_str = |field: &str, a: &str, b: &str| {
        if a == b {
            Ok(())
        } else {
            fail(field, format!("{a:?}"), format!("{b:?}"))
        }
    };
    let close = |field: &str, t: Tolerance, a: f64, b: f64| {
        if t.close(a, b) {
            Ok(())
        } else {
            fail(field, format!("{a}"), format!("{b}"))
        }
    };

    match (expected, actual) {
        (
            Event::RunStart {
                run: r1,
                schedule: s1,
                optimizer: o1,
                seed: d1,
                total_samples: t1,
            },
            Event::RunStart {
                run: r2,
                schedule: s2,
                optimizer: o2,
                seed: d2,
                total_samples: t2,
            },
        ) => {
            exact_str("run_start.run", r1, r2)?;
            exact_str("run_start.schedule", s1, s2)?;
            exact_str("run_start.optimizer", o1, o2)?;
            exact_u64("run_start.seed", *d1, *d2)?;
            exact_u64("run_start.total_samples", *t1, *t2)
        }
        (
            Event::Epoch {
                epoch: e1,
                samples: n1,
                batches: b1,
                shuffled: f1,
            },
            Event::Epoch {
                epoch: e2,
                samples: n2,
                batches: b2,
                shuffled: f2,
            },
        ) => {
            exact_u64("epoch.epoch", *e1, *e2)?;
            exact_u64("epoch.samples", *n1, *n2)?;
            exact_u64("epoch.batches", *b1, *b2)?;
            if f1 != f2 {
                return fail("epoch.shuffled", f1.to_string(), f2.to_string());
            }
            Ok(())
        }
        (Event::Step(a), Event::Step(b)) => diff_step(index, a, b, tol),
        (
            Event::Validation {
                epoch: e1,
                loss: l1,
            },
            Event::Validation {
                epoch: e2,
                loss: l2,
            },
        ) => {
            exact_u64("validation.epoch", *e1, *e2)?;
            close("validation.loss", tol.loss, *l1, *l2)
        }
        (
            Event::EpochEnd {
                epoch: e1,
                mean_loss: m1,
                lr: l1,
            },
            Event::EpochEnd {
                epoch: e2,
                mean_loss: m2,
                lr: l2,
            },
        ) => {
            exact_u64("epoch_end.epoch", *e1, *e2)?;
            close("epoch_end.mean_loss", tol.loss, *m1, *m2)?;
            close("epoch_end.lr", tol.lr, *l1, *l2)
        }
        (Event::RunEnd { metric: m1 }, Event::RunEnd { metric: m2 }) => {
            close("run_end.metric", tol.metric, *m1, *m2)
        }
        (Event::Checkpoint { step: s1 }, Event::Checkpoint { step: s2 }) => {
            exact_u64("checkpoint.step", *s1, *s2)
        }
        (
            Event::GuardTrip {
                step: s1,
                what: w1,
                action: a1,
                ..
            },
            Event::GuardTrip {
                step: s2,
                what: w2,
                action: a2,
                ..
            },
        ) => {
            // the offending value is often NaN, which never compares equal;
            // the (step, what, action) triple identifies the trip
            exact_u64("guard.step", *s1, *s2)?;
            exact_str("guard.what", w1, w2)?;
            exact_str("guard.action", a1, a2)
        }
        (e, a) => fail("kind", e.kind().to_owned(), a.kind().to_owned()),
    }
}

fn diff_step(
    index: usize,
    expected: &StepRecord,
    actual: &StepRecord,
    tol: &Tolerances,
) -> Result<(), TraceDiff> {
    let step = Some(expected.step);
    let fail = |field: &str, exp: String, act: String| {
        Err(TraceDiff {
            index,
            step,
            field: field.to_owned(),
            expected: exp,
            actual: act,
        })
    };
    if expected.step != actual.step {
        return fail(
            "step.step",
            expected.step.to_string(),
            actual.step.to_string(),
        );
    }
    if expected.epoch != actual.epoch {
        return fail(
            "step.epoch",
            expected.epoch.to_string(),
            actual.epoch.to_string(),
        );
    }
    if expected.batch_id != actual.batch_id {
        return fail(
            "step.batch_id",
            expected.batch_id.to_string(),
            actual.batch_id.to_string(),
        );
    }
    for (field, t, a, b) in [
        ("step.lr", tol.lr, expected.lr, actual.lr),
        ("step.loss", tol.loss, expected.loss, actual.loss),
        (
            "step.grad_norm",
            tol.norm,
            expected.grad_norm,
            actual.grad_norm,
        ),
        (
            "step.param_norm",
            tol.norm,
            expected.param_norm,
            actual.param_norm,
        ),
    ] {
        if !t.close(a, b) {
            return fail(field, format!("{a}"), format!("{b}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(i: u64, lr: f64, loss: f64) -> Event {
        Event::Step(StepRecord {
            step: i,
            epoch: 0,
            batch_id: i,
            lr,
            loss,
            grad_norm: 1.0,
            param_norm: 2.0,
        })
    }

    fn trace() -> Vec<Event> {
        vec![
            Event::RunStart {
                run: "digits".into(),
                schedule: "rex".into(),
                optimizer: "adamw".into(),
                seed: 1,
                total_samples: 120,
            },
            step(0, 0.003, 2.3),
            step(1, 0.002, 2.1),
            Event::RunEnd { metric: 0.8 },
        ]
    }

    #[test]
    fn identical_traces_pass() {
        let t = trace();
        diff_traces(&t, &t, &Tolerances::default()).unwrap();
    }

    #[test]
    fn within_tolerance_passes() {
        let expected = trace();
        let mut actual = trace();
        if let Event::Step(r) = &mut actual[2] {
            r.loss *= 1.0 + 1e-4; // inside the 5e-3 loss tolerance
        }
        diff_traces(&expected, &actual, &Tolerances::default()).unwrap();
    }

    #[test]
    fn lr_perturbation_reports_first_divergent_step() {
        let expected = trace();
        let mut actual = trace();
        if let Event::Step(r) = &mut actual[2] {
            r.lr *= 1.01;
        }
        let diff = diff_traces(&expected, &actual, &Tolerances::default()).unwrap_err();
        assert_eq!(diff.index, 2);
        assert_eq!(diff.step, Some(1));
        assert_eq!(diff.field, "step.lr");
        let msg = diff.to_string();
        assert!(msg.contains("optimizer step 1"), "{msg}");
    }

    #[test]
    fn length_mismatch_is_reported() {
        let expected = trace();
        let actual = &expected[..3];
        let diff = diff_traces(&expected, actual, &Tolerances::default()).unwrap_err();
        assert_eq!(diff.field, "len");
        assert_eq!(diff.index, 3);
    }

    #[test]
    fn kind_mismatch_is_reported() {
        let expected = trace();
        let mut actual = trace();
        actual[3] = Event::Validation {
            epoch: 0,
            loss: 1.0,
        };
        let diff = diff_traces(&expected, &actual, &Tolerances::default()).unwrap_err();
        assert_eq!(diff.field, "kind");
    }

    #[test]
    fn tolerance_close_semantics() {
        let t = Tolerance {
            rel: 1e-3,
            abs: 0.0,
        };
        assert!(t.close(1.0, 1.0005));
        assert!(!t.close(1.0, 1.002));
        assert!(Tolerance::EXACT.close(f64::NAN, f64::NAN));
        assert!(!Tolerance::EXACT.close(f64::NAN, 1.0));
        assert!(Tolerance::EXACT.close(f64::INFINITY, f64::INFINITY));
        assert!(!Tolerance::EXACT.close(f64::INFINITY, f64::NEG_INFINITY));
        assert!(Tolerance::rel(1e-6).close(2.0, 2.0));
    }
}
