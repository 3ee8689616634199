//! Learning-rate **profiles**: continuous curves `p : [0,1] → ℝ₊` giving the
//! LR multiplier as a function of training progress.
//!
//! The profile is one half of the paper's schedule decomposition; the other
//! half is the [sampling rate](crate::sampling). Profiles here are pure and
//! stateless, so the same profile value can be queried from any sampling
//! pattern — the property Table 2 of the paper exploits.

/// A continuous learning-rate profile.
///
/// `at(x)` returns the LR *multiplier* at normalised progress
/// `x = t/T ∈ [0, 1]`. Implementations must be pure functions of `x`
/// (state such as plateau detection lives in
/// [`Schedule`](crate::Schedule) implementations instead), and should
/// satisfy `at(0) ≈ 1` so the initial learning rate is respected.
///
/// Inputs outside `[0, 1]` are clamped by all built-in profiles.
pub trait Profile: Send + Sync {
    /// Multiplier at progress `x ∈ [0, 1]`.
    fn at(&self, x: f64) -> f64;

    /// Short human-readable name used in tables and CSV output.
    fn name(&self) -> String;
}

pub(crate) fn clamp01(x: f64) -> f64 {
    x.clamp(0.0, 1.0)
}

/// The **Reflected Exponential (REX)** profile — the paper's proposal:
///
/// ```text
/// p(x) = (1 − x) / (β + (1 − β)·(1 − x))      with β = 1/2
/// ```
///
/// At β = ½ this is exactly Eq. (REX) of the paper:
/// `p(x) = (1−x) / (1/2 + 1/2·(1−x))`. The curve holds the LR high early
/// (like a *delayed* linear schedule) and decays aggressively near the end
/// ("the reflection of the exponential decay") — an interpolation between a
/// linear schedule and a delayed linear schedule requiring no extra
/// hyperparameter.
///
/// The `beta` generalisation is an extension of this reproduction used for
/// ablations; `ReflectedExponential::default()` is the paper's schedule.
///
/// ```
/// use rex_core::profile::{Profile, ReflectedExponential};
///
/// let rex = ReflectedExponential::default();
/// assert!((rex.at(0.0) - 1.0).abs() < 1e-12);
/// assert!(rex.at(1.0).abs() < 1e-12);
/// // REX stays above linear for all interior x:
/// assert!(rex.at(0.5) > 0.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReflectedExponential {
    beta: f64,
}

impl Default for ReflectedExponential {
    fn default() -> Self {
        ReflectedExponential { beta: 0.5 }
    }
}

impl ReflectedExponential {
    /// The paper's REX profile (β = ½).
    pub fn new() -> Self {
        Self::default()
    }

    /// Generalised REX with interpolation parameter `beta ∈ (0, 1]`.
    ///
    /// β → 1 recovers the linear profile; smaller β holds the LR high for
    /// longer before the terminal drop.
    ///
    /// # Panics
    ///
    /// Panics if `beta` is not in `(0, 1]`.
    pub fn with_beta(beta: f64) -> Self {
        assert!(
            beta > 0.0 && beta <= 1.0,
            "REX beta must lie in (0,1], got {beta}"
        );
        ReflectedExponential { beta }
    }

    /// The interpolation parameter β.
    pub fn beta(&self) -> f64 {
        self.beta
    }
}

impl Profile for ReflectedExponential {
    fn at(&self, x: f64) -> f64 {
        let x = clamp01(x);
        let rem = 1.0 - x;
        rem / (self.beta + (1.0 - self.beta) * rem)
    }

    fn name(&self) -> String {
        if (self.beta - 0.5).abs() < 1e-12 {
            "REX".to_owned()
        } else {
            format!("REX(beta={})", self.beta)
        }
    }
}

/// The linear profile `p(x) = 1 − x`, previously suggested as the best
/// budget-aware schedule (Li et al., "Budgeted Training", 2020).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Linear;

impl Profile for Linear {
    fn at(&self, x: f64) -> f64 {
        1.0 - clamp01(x)
    }

    fn name(&self) -> String {
        "Linear".to_owned()
    }
}

/// The cosine profile `p(x) = (1 + cos(πx)) / 2` (Loshchilov & Hutter,
/// SGDR — without restarts, as evaluated in the paper).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Cosine;

impl Profile for Cosine {
    fn at(&self, x: f64) -> f64 {
        0.5 * (1.0 + (std::f64::consts::PI * clamp01(x)).cos())
    }

    fn name(&self) -> String {
        "Cosine".to_owned()
    }
}

/// The exponential profile `p(x) = e^{γx}`.
///
/// Two instances matter for the paper:
/// * `Exponential::paper_decay()` — γ = −3, the "Exp decay" baseline the
///   paper found to perform best among exponential schedules;
/// * `Exponential::step_approximation()` — γ = ln(0.01), the "tuned
///   exponentially decaying profile" whose 50–75 knot sampling approximates
///   the classic step schedule (Table 2's "Step" profile: p(0.5) = 0.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    gamma: f64,
}

impl Exponential {
    /// The paper's exponential-decay baseline (γ = −3).
    pub fn paper_decay() -> Self {
        Exponential { gamma: -3.0 }
    }

    /// The profile whose knot sampling approximates the 50–75 step schedule:
    /// γ = ln(0.01) ≈ −4.605, so `p(1/2) = 0.1` and `p(1) = 0.01`.
    pub fn step_approximation() -> Self {
        Exponential {
            gamma: (0.01f64).ln(),
        }
    }

    /// The decay exponent γ.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }
}

impl Default for Exponential {
    fn default() -> Self {
        Self::paper_decay()
    }
}

impl Profile for Exponential {
    fn at(&self, x: f64) -> f64 {
        (self.gamma * clamp01(x)).exp()
    }

    fn name(&self) -> String {
        format!("Exp(gamma={:.3})", self.gamma)
    }
}

/// The constant profile `p(x) = 1` — i.e. no schedule ("None" rows of the
/// paper's tables).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Constant;

impl Profile for Constant {
    fn at(&self, _x: f64) -> f64 {
        1.0
    }

    fn name(&self) -> String {
        "None".to_owned()
    }
}

/// The polynomial profile `p(x) = (1 − x)^power` — an extension beyond the
/// paper used in ablations (power = 1 recovers [`Linear`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Polynomial {
    power: f64,
}

impl Polynomial {
    /// Polynomial profile with the given exponent.
    ///
    /// # Panics
    ///
    /// Panics if `power` is not strictly positive.
    pub fn new(power: f64) -> Self {
        assert!(
            power > 0.0,
            "polynomial power must be positive, got {power}"
        );
        Polynomial { power }
    }

    /// The exponent.
    pub fn power(&self) -> f64 {
        self.power
    }
}

impl Profile for Polynomial {
    fn at(&self, x: f64) -> f64 {
        (1.0 - clamp01(x)).powf(self.power)
    }

    fn name(&self) -> String {
        format!("Poly(p={})", self.power)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_endpoints(p: &dyn Profile, end: f64) {
        assert!((p.at(0.0) - 1.0).abs() < 1e-9, "{} at(0) != 1", p.name());
        assert!(
            (p.at(1.0) - end).abs() < 1e-9,
            "{} at(1) != {end}",
            p.name()
        );
    }

    #[test]
    fn rex_matches_paper_formula() {
        let rex = ReflectedExponential::default();
        for i in 0..=100 {
            let x = i as f64 / 100.0;
            let expected = (1.0 - x) / (0.5 + 0.5 * (1.0 - x));
            assert!((rex.at(x) - expected).abs() < 1e-12, "x={x}");
        }
    }

    #[test]
    fn rex_endpoints() {
        check_endpoints(&ReflectedExponential::default(), 0.0);
    }

    #[test]
    fn rex_dominates_linear_in_interior() {
        let rex = ReflectedExponential::default();
        let lin = Linear;
        for i in 1..100 {
            let x = i as f64 / 100.0;
            assert!(
                rex.at(x) > lin.at(x),
                "REX should hold LR above linear at x={x}"
            );
        }
    }

    #[test]
    fn rex_beta_one_is_linear() {
        let rex = ReflectedExponential::with_beta(1.0);
        for i in 0..=20 {
            let x = i as f64 / 20.0;
            assert!((rex.at(x) - (1.0 - x)).abs() < 1e-12);
        }
    }

    #[test]
    fn rex_smaller_beta_holds_higher() {
        let low = ReflectedExponential::with_beta(0.1);
        let high = ReflectedExponential::with_beta(0.9);
        assert!(low.at(0.5) > high.at(0.5));
    }

    #[test]
    #[should_panic(expected = "beta")]
    fn rex_invalid_beta_panics() {
        let _ = ReflectedExponential::with_beta(0.0);
    }

    #[test]
    fn linear_endpoints_and_midpoint() {
        check_endpoints(&Linear, 0.0);
        assert!((Linear.at(0.5) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cosine_endpoints_and_midpoint() {
        check_endpoints(&Cosine, 0.0);
        assert!((Cosine.at(0.5) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn exponential_paper_gamma() {
        let e = Exponential::paper_decay();
        check_endpoints(&e, (-3.0f64).exp());
        assert_eq!(e.gamma(), -3.0);
    }

    #[test]
    fn step_approximation_hits_tenth_at_half() {
        let e = Exponential::step_approximation();
        assert!((e.at(0.5) - 0.1).abs() < 1e-9);
        assert!((e.at(1.0) - 0.01).abs() < 1e-9);
    }

    #[test]
    fn constant_is_flat() {
        for i in 0..=10 {
            assert_eq!(Constant.at(i as f64 / 10.0), 1.0);
        }
    }

    #[test]
    fn polynomial_power_one_is_linear() {
        let p = Polynomial::new(1.0);
        for i in 0..=10 {
            let x = i as f64 / 10.0;
            assert!((p.at(x) - Linear.at(x)).abs() < 1e-12);
        }
    }

    #[test]
    fn profiles_clamp_out_of_range_progress() {
        let rex = ReflectedExponential::default();
        assert_eq!(rex.at(-0.5), rex.at(0.0));
        assert_eq!(rex.at(1.5), rex.at(1.0));
    }

    #[test]
    fn all_profiles_monotone_nonincreasing() {
        let profiles: Vec<Box<dyn Profile>> = vec![
            Box::new(ReflectedExponential::default()),
            Box::new(Linear),
            Box::new(Cosine),
            Box::new(Exponential::paper_decay()),
            Box::new(Constant),
            Box::new(Polynomial::new(2.0)),
        ];
        for p in &profiles {
            let mut prev = f64::INFINITY;
            for i in 0..=1000 {
                let v = p.at(i as f64 / 1000.0);
                assert!(
                    v <= prev + 1e-12,
                    "{} increased at step {i}: {v} > {prev}",
                    p.name()
                );
                prev = v;
            }
        }
    }
}
