//! Schedule combinators: [`DelayedDecay`] (hold, then decay — Figure 3 of
//! the paper) and [`Warmup`] (linear ramp-in, used by the YOLO setting).

use crate::schedule::{progress, Schedule};

/// Holds the initial learning rate for the first `delay` fraction of the
/// budget, then runs the inner schedule over the remaining fraction.
///
/// This is the paper's "Linear Delayed X %" family (Figure 3): delaying the
/// onset of linear decay improves high-budget performance but costs an extra
/// hyperparameter — the observation that motivates REX, which interpolates
/// between the linear and delayed-linear schedules with no extra knob.
///
/// ```
/// use rex_core::{profile::Linear, DelayedDecay, SampledProfile, SamplingRate, Schedule};
///
/// let inner = SampledProfile::new(Linear, SamplingRate::EveryIteration);
/// let mut d = DelayedDecay::new(inner, 0.5);
/// assert_eq!(d.factor(25, 100), 1.0);              // still held
/// assert!((d.factor(75, 100) - 0.5).abs() < 1e-9); // halfway down the decay
/// ```
#[derive(Debug, Clone)]
pub struct DelayedDecay<S> {
    inner: S,
    delay: f64,
}

impl<S: Schedule> DelayedDecay<S> {
    /// Wraps `inner`, delaying its onset until `delay ∈ [0, 1)` of the
    /// budget has elapsed.
    ///
    /// # Panics
    ///
    /// Panics if `delay` is outside `[0, 1)`.
    pub fn new(inner: S, delay: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&delay),
            "delay fraction must be in [0,1), got {delay}"
        );
        DelayedDecay { inner, delay }
    }

    /// The delay fraction.
    pub fn delay(&self) -> f64 {
        self.delay
    }
}

impl<S: Schedule> Schedule for DelayedDecay<S> {
    fn factor(&mut self, t: u64, total: u64) -> f64 {
        let x = progress(t, total);
        if x < self.delay {
            return 1.0;
        }
        // Rescale the post-delay region onto [0, 1] for the inner schedule.
        let rescaled = (x - self.delay) / (1.0 - self.delay);
        // Use a fixed-resolution virtual clock so the inner schedule sees
        // consistent (t, total) pairs.
        const VIRT: u64 = 1_000_000;
        self.inner
            .factor((rescaled * VIRT as f64).round() as u64, VIRT)
    }

    fn on_validation(&mut self, loss: f64) {
        self.inner.on_validation(loss);
    }

    fn stateful(&self) -> bool {
        self.inner.stateful()
    }

    fn name(&self) -> String {
        format!(
            "{} Delayed {}%",
            self.inner.name(),
            (self.delay * 100.0).round() as u32
        )
    }
}

/// Linear warmup from `start_factor` to 1 over `warmup_steps` iterations,
/// after which the inner schedule takes over on the *remaining* steps.
///
/// The paper's YOLO-VOC setting warms up for 2 epochs from 1e-5 to 1e-4 and
/// explicitly excludes the warmup from the training budget, as this
/// wrapper does: the inner schedule sees `t − warmup_steps` of
/// `total − warmup_steps`.
#[derive(Debug, Clone)]
pub struct Warmup<S> {
    inner: S,
    warmup_steps: u64,
    start_factor: f64,
}

impl<S: Schedule> Warmup<S> {
    /// Wraps `inner` with a linear warmup.
    ///
    /// The warmup does not count toward the budget, so the caller must
    /// give the schedule a `total` strictly greater than `warmup_steps`;
    /// otherwise the inner schedule sees a zero-length budget and holds its
    /// end-of-training value.
    ///
    /// # Panics
    ///
    /// Panics if `start_factor` is negative or exceeds 1.
    pub fn new(inner: S, warmup_steps: u64, start_factor: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&start_factor),
            "warmup start factor must be in [0,1], got {start_factor}"
        );
        Warmup {
            inner,
            warmup_steps,
            start_factor,
        }
    }

    /// Number of warmup iterations.
    pub fn warmup_steps(&self) -> u64 {
        self.warmup_steps
    }
}

impl<S: Schedule> Schedule for Warmup<S> {
    fn factor(&mut self, t: u64, total: u64) -> f64 {
        if t < self.warmup_steps {
            let frac = (t as f64 + 1.0) / self.warmup_steps as f64;
            return self.start_factor + (1.0 - self.start_factor) * frac.min(1.0);
        }
        let t2 = t - self.warmup_steps;
        let total2 = total.saturating_sub(self.warmup_steps);
        debug_assert!(
            total2 > 0,
            "warmup ({}) consumed the whole budget ({total})",
            self.warmup_steps
        );
        self.inner.factor(t2, total2)
    }

    fn momentum(&mut self, t: u64, total: u64) -> Option<f64> {
        if t < self.warmup_steps {
            None
        } else {
            self.inner.momentum(
                t - self.warmup_steps,
                total.saturating_sub(self.warmup_steps),
            )
        }
    }

    fn on_validation(&mut self, loss: f64) {
        self.inner.on_validation(loss);
    }

    fn stateful(&self) -> bool {
        self.inner.stateful()
    }

    fn name(&self) -> String {
        format!("{} (+warmup)", self.inner.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{Linear, ReflectedExponential};
    use crate::sampling::SamplingRate;
    use crate::schedule::SampledProfile;

    fn linear() -> SampledProfile<Linear> {
        SampledProfile::new(Linear, SamplingRate::EveryIteration)
    }

    #[test]
    fn statefulness_propagates_through_wrappers() {
        assert!(!linear().stateful());
        assert!(!DelayedDecay::new(linear(), 0.25).stateful());
        assert!(!Warmup::new(linear(), 10, 0.1).stateful());
        let plateau = crate::DecayOnPlateau::new(2, 0.1);
        assert!(plateau.stateful());
        assert!(DelayedDecay::new(plateau, 0.25).stateful());
        let boxed: Box<dyn Schedule> = Box::new(crate::DecayOnPlateau::new(2, 0.1));
        assert!(boxed.stateful());
    }

    #[test]
    fn delayed_holds_then_decays_to_zero() {
        let mut d = DelayedDecay::new(linear(), 0.25);
        assert_eq!(d.factor(0, 1000), 1.0);
        assert_eq!(d.factor(249, 1000), 1.0);
        assert!((d.factor(250, 1000) - 1.0).abs() < 1e-6);
        assert!((d.factor(625, 1000) - 0.5).abs() < 1e-6);
        assert!(d.factor(1000, 1000).abs() < 1e-6);
    }

    #[test]
    fn delayed_zero_is_inner() {
        let mut d = DelayedDecay::new(linear(), 0.0);
        let mut l = linear();
        for t in [0u64, 10, 50, 99] {
            assert!((d.factor(t, 100) - l.factor(t, 100)).abs() < 1e-5);
        }
    }

    #[test]
    #[should_panic(expected = "delay")]
    fn delayed_rejects_one() {
        let _ = DelayedDecay::new(linear(), 1.0);
    }

    #[test]
    fn delayed_name_mentions_percentage() {
        let d = DelayedDecay::new(linear(), 0.5);
        assert_eq!(d.name(), "Linear Delayed 50%");
    }

    #[test]
    fn rex_between_linear_and_delayed_linear() {
        // The paper's framing: REX interpolates between linear and delayed
        // linear. Check REX lies between Linear and Linear-Delayed-50% over
        // the interior.
        let mut rex = SampledProfile::new(
            ReflectedExponential::default(),
            SamplingRate::EveryIteration,
        );
        let mut lin = linear();
        let mut del = DelayedDecay::new(linear(), 0.5);
        for t in 1..99u64 {
            let r = rex.factor(t, 100);
            let l = lin.factor(t, 100);
            let d = del.factor(t, 100);
            assert!(
                r >= l - 1e-9 && r <= d + 1e-2,
                "t={t}: linear {l} <= rex {r} <= delayed {d} violated"
            );
        }
    }

    #[test]
    fn warmup_ramps_then_defers() {
        let mut w = Warmup::new(linear(), 10, 0.1);
        // During warmup the factor rises toward 1.
        let first = w.factor(0, 110);
        let last_warm = w.factor(9, 110);
        assert!(first < last_warm);
        assert!((last_warm - 1.0).abs() < 1e-9);
        // After warmup, inner schedule starts fresh on remaining budget.
        assert!((w.factor(10, 110) - 1.0).abs() < 1e-9);
        assert!((w.factor(60, 110) - 0.5).abs() < 1e-9);
        assert!(w.factor(110, 110).abs() < 1e-9);
    }

    #[test]
    fn warmup_factor_never_exceeds_one() {
        let mut w = Warmup::new(linear(), 5, 0.0);
        for t in 0..100u64 {
            assert!(w.factor(t, 100) <= 1.0 + 1e-12);
        }
    }
}
