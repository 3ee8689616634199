//! The [`Schedule`] trait — the runtime interface every learning-rate
//! schedule presents to the training loop — plus the two fundamental
//! implementations: [`SampledProfile`] (any profile × any sampling rate)
//! and [`StepSchedule`] (the literal multiplicative-drop schedule).

use crate::profile::Profile;
use crate::sampling::SamplingRate;

/// A budget-aware learning-rate schedule.
///
/// The trainer calls [`Schedule::factor`] once per iteration with the
/// current step `t ∈ [0, total)` and the *budgeted* total step count; the
/// returned multiplier scales the tuned initial learning rate. Schedules are
/// aware only of the budget they were given — a 1 % budget run decays over
/// 1 % of the full horizon, exactly as in the paper.
///
/// `factor` takes `&mut self` because some schedules are stateful
/// ([`crate::DecayOnPlateau`] reacts to validation losses via
/// [`Schedule::on_validation`]); pure schedules simply ignore the
/// mutability.
pub trait Schedule: Send {
    /// LR multiplier for iteration `t` out of `total`.
    ///
    /// `t ≥ total` is treated as end-of-training (progress 1).
    fn factor(&mut self, t: u64, total: u64) -> f64;

    /// Momentum override for iteration `t`, if this schedule also drives
    /// momentum (only [`crate::OneCycle`] does, per the paper).
    fn momentum(&mut self, _t: u64, _total: u64) -> Option<f64> {
        None
    }

    /// Feedback hook: the trainer reports each validation loss here.
    /// Only [`crate::DecayOnPlateau`] reacts; the default is a no-op.
    fn on_validation(&mut self, _loss: f64) {}

    /// Whether the schedule carries mutable state that a checkpoint cannot
    /// capture. Pure schedules (every profile × sampling-rate combination)
    /// are functions of `(t, total)` alone and resume exactly; stateful
    /// ones ([`crate::DecayOnPlateau`]) return `true` and the trainer
    /// refuses to checkpoint or resume them.
    fn stateful(&self) -> bool {
        false
    }

    /// Short name used in result tables (e.g. `"REX"`, `"Step Schedule"`).
    fn name(&self) -> String;
}

/// Normalised progress with end-of-training clamping.
pub(crate) fn progress(t: u64, total: u64) -> f64 {
    if total == 0 {
        return 1.0;
    }
    (t as f64 / total as f64).clamp(0.0, 1.0)
}

/// A profile paired with a sampling rate — the paper's schedule
/// decomposition made executable.
///
/// On each query the progress `t/T` is quantised by the sampling rate to
/// the most recent sample point, and the profile is evaluated there:
/// sample-and-hold semantics.
///
/// ```
/// use rex_core::{profile::Exponential, SampledProfile, SamplingRate, Schedule};
///
/// // The paper's "approximated step profile" sampled at 50-75:
/// let mut s = SampledProfile::new(
///     Exponential::step_approximation(),
///     SamplingRate::fifty_seventy_five(),
/// );
/// assert!((s.factor(0, 100) - 1.0).abs() < 1e-9);
/// assert!((s.factor(50, 100) - 0.1).abs() < 1e-9); // first drop
/// ```
#[derive(Debug, Clone)]
pub struct SampledProfile<P> {
    profile: P,
    sampling: SamplingRate,
}

impl<P: Profile> SampledProfile<P> {
    /// Pairs `profile` with `sampling`.
    pub fn new(profile: P, sampling: SamplingRate) -> Self {
        SampledProfile { profile, sampling }
    }

    /// The underlying profile.
    pub fn profile(&self) -> &P {
        &self.profile
    }

    /// The sampling rate.
    pub fn sampling(&self) -> &SamplingRate {
        &self.sampling
    }
}

impl<P: Profile> Schedule for SampledProfile<P> {
    fn factor(&mut self, t: u64, total: u64) -> f64 {
        self.profile.at(self.sampling.quantize(progress(t, total)))
    }

    fn name(&self) -> String {
        match self.sampling {
            SamplingRate::EveryIteration => self.profile.name(),
            _ => format!("{} @ {}", self.profile.name(), self.sampling.label()),
        }
    }
}

/// The classic **step schedule**: multiply the LR by `gamma` each time
/// progress passes a knot. With knots `[0.5, 0.75]` and γ = 0.1 this is the
/// "50–75" schedule used for the paper's Step Schedule baseline (the direct
/// analogue of the 30-60-90 ImageNet recipe, rescaled to the budget).
///
/// Unlike [`SampledProfile`] with an exponential profile — which only
/// *approximates* these drops — `StepSchedule` reproduces them exactly:
/// after the k-th knot the factor is `gamma^k`.
#[derive(Debug, Clone)]
pub struct StepSchedule {
    knots: Vec<f64>,
    gamma: f64,
}

impl StepSchedule {
    /// Step schedule dropping by `gamma` at each fractional knot.
    ///
    /// # Panics
    ///
    /// Panics if `gamma` is not in `(0, 1)` or any knot is outside `(0, 1]`.
    pub fn new(knots: &[f64], gamma: f64) -> Self {
        assert!(
            gamma > 0.0 && gamma < 1.0,
            "step gamma must be in (0,1), got {gamma}"
        );
        let mut ks = knots.to_vec();
        for &k in &ks {
            assert!(k > 0.0 && k <= 1.0, "step knot {k} outside (0,1]");
        }
        ks.sort_by(|a, b| a.partial_cmp(b).expect("finite knots"));
        StepSchedule { knots: ks, gamma }
    }

    /// The paper's baseline: drop ×0.1 at 50 % and 75 % of the budget.
    pub fn fifty_seventy_five() -> Self {
        StepSchedule::new(&[0.5, 0.75], 0.1)
    }
}

impl Schedule for StepSchedule {
    fn factor(&mut self, t: u64, total: u64) -> f64 {
        let x = progress(t, total);
        let drops = self.knots.iter().filter(|&&k| x >= k).count() as i32;
        self.gamma.powi(drops)
    }

    fn name(&self) -> String {
        "Step Schedule".to_owned()
    }
}

impl Schedule for Box<dyn Schedule> {
    fn factor(&mut self, t: u64, total: u64) -> f64 {
        (**self).factor(t, total)
    }

    fn momentum(&mut self, t: u64, total: u64) -> Option<f64> {
        (**self).momentum(t, total)
    }

    fn on_validation(&mut self, loss: f64) {
        (**self).on_validation(loss)
    }

    fn stateful(&self) -> bool {
        (**self).stateful()
    }

    fn name(&self) -> String {
        (**self).name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{Linear, ReflectedExponential};

    #[test]
    fn sampled_linear_every_iteration_is_smooth() {
        let mut s = SampledProfile::new(Linear, SamplingRate::EveryIteration);
        assert!((s.factor(0, 100) - 1.0).abs() < 1e-12);
        assert!((s.factor(50, 100) - 0.5).abs() < 1e-12);
        assert!((s.factor(100, 100)).abs() < 1e-12);
    }

    #[test]
    fn sampled_profile_holds_between_knots() {
        let mut s = SampledProfile::new(Linear, SamplingRate::fifty_seventy_five());
        assert_eq!(s.factor(0, 100), 1.0);
        assert_eq!(s.factor(49, 100), 1.0);
        assert!((s.factor(50, 100) - 0.5).abs() < 1e-12);
        assert!((s.factor(74, 100) - 0.5).abs() < 1e-12);
        assert!((s.factor(75, 100) - 0.25).abs() < 1e-12);
        assert!((s.factor(99, 100) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn step_schedule_exact_drops() {
        let mut s = StepSchedule::fifty_seventy_five();
        assert_eq!(s.factor(0, 1000), 1.0);
        assert_eq!(s.factor(499, 1000), 1.0);
        assert!((s.factor(500, 1000) - 0.1).abs() < 1e-12);
        assert!((s.factor(750, 1000) - 0.01).abs() < 1e-12);
        assert!((s.factor(999, 1000) - 0.01).abs() < 1e-12);
    }

    #[test]
    fn step_schedule_rescales_with_budget() {
        // The same schedule object applied to a 10x smaller budget drops at
        // the same *fractions* — the paper's budget-aware adaptation.
        let mut s = StepSchedule::fifty_seventy_five();
        assert!((s.factor(50, 100) - 0.1).abs() < 1e-12);
        assert!((s.factor(5, 10) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn zero_total_treated_as_end() {
        let mut s = SampledProfile::new(Linear, SamplingRate::EveryIteration);
        assert_eq!(s.factor(0, 0), 0.0);
    }

    #[test]
    fn t_beyond_total_clamps() {
        let mut s = SampledProfile::new(
            ReflectedExponential::default(),
            SamplingRate::EveryIteration,
        );
        assert_eq!(s.factor(500, 100), s.factor(100, 100));
    }

    #[test]
    fn names_are_informative() {
        let s = SampledProfile::new(
            ReflectedExponential::default(),
            SamplingRate::EveryIteration,
        );
        assert_eq!(s.name(), "REX");
        let s2 = SampledProfile::new(Linear, SamplingRate::fifty_seventy_five());
        assert_eq!(s2.name(), "Linear @ 50-75");
        assert_eq!(StepSchedule::fifty_seventy_five().name(), "Step Schedule");
    }

    #[test]
    #[should_panic(expected = "gamma")]
    fn step_gamma_validated() {
        let _ = StepSchedule::new(&[0.5], 1.5);
    }

    #[test]
    fn boxed_schedule_delegates() {
        let mut b: Box<dyn Schedule> = Box::new(StepSchedule::fifty_seventy_five());
        assert_eq!(b.factor(0, 10), 1.0);
        assert_eq!(b.name(), "Step Schedule");
        assert_eq!(b.momentum(0, 10), None);
    }
}
