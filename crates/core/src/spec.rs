//! [`ScheduleSpec`] — a cloneable, comparable description of a schedule
//! that can be instantiated fresh for every trial of an experiment grid.

use crate::extra::{CosineRestarts, Cyclical, InverseSqrt};
use crate::onecycle::OneCycle;
use crate::plateau::DecayOnPlateau;
use crate::profile::{Constant, Cosine, Exponential, Linear, Polynomial, ReflectedExponential};
use crate::sampling::SamplingRate;
use crate::schedule::{SampledProfile, Schedule, StepSchedule};
use crate::wrappers::{DelayedDecay, Warmup};

/// A declarative schedule description.
///
/// Experiment grids iterate over `ScheduleSpec`s and call
/// [`ScheduleSpec::build`] once per trial, guaranteeing stateful schedules
/// (plateau) start fresh. The spec is also the canonical source of the
/// display [`name`](ScheduleSpec::name) used in result tables.
///
/// ```
/// use rex_core::ScheduleSpec;
///
/// let mut rex = ScheduleSpec::Rex.build();
/// let mut lin = ScheduleSpec::Linear.build();
/// assert!(rex.factor(500, 1000) > lin.factor(500, 1000));
/// ```
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ScheduleSpec {
    /// No schedule: constant learning rate.
    None,
    /// REX sampled every iteration — the paper's proposal.
    Rex,
    /// Generalised REX with explicit β (reproduction extension).
    RexBeta(f64),
    /// Linear decay to zero, sampled every iteration.
    Linear,
    /// Cosine decay, sampled every iteration.
    Cosine,
    /// Exponential decay `e^{γ t/T}` with the paper's γ = −3.
    ExpDecay,
    /// Step schedule: ×0.1 at 50 % and 75 % of the budget.
    Step,
    /// OneCycle with the paper's recommended settings.
    OneCycle,
    /// Decay-on-plateau with the given patience (validation reports).
    DecayOnPlateau(u32),
    /// Polynomial profile `(1−x)^p`, every-iteration sampling (extension).
    Polynomial(f64),
    /// SGDR cosine annealing with the given number of warm restarts and
    /// cycle-length multiplier (extension; cited in the paper's §2).
    CosineRestarts(u32, f64),
    /// Triangular cyclical LR with the given cycle count (extension).
    Cyclical(u32),
    /// Inverse-square-root decay with warmup fraction (extension).
    InverseSqrt(f64),
    /// Any base spec held constant until `delay` fraction, then decayed
    /// over the remainder (Figure 3's "Delayed X%" variants).
    Delayed(Box<ScheduleSpec>, f64),
    /// Any base spec preceded by a linear warmup of `steps` iterations
    /// starting at `start_factor`; warmup is excluded from the budget.
    WithWarmup(Box<ScheduleSpec>, u64, f64),
    /// An arbitrary profile/sampling combination from Table 2's grid:
    /// `(profile, sampling)` where profile is one of the three Table 2
    /// profiles.
    Sampled(Table2Profile, SamplingRate),
}

/// The three profiles compared across sampling rates in the paper's
/// Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Table2Profile {
    /// The "tuned exponentially decaying profile" approximating the step
    /// schedule (`p(1/2) = 0.1`).
    StepApprox,
    /// The linear profile.
    Linear,
    /// The REX profile.
    Rex,
}

impl Table2Profile {
    /// Label used in Table 2 column headers.
    pub fn label(&self) -> &'static str {
        match self {
            Table2Profile::StepApprox => "Step",
            Table2Profile::Linear => "Linear",
            Table2Profile::Rex => "REX",
        }
    }

    /// All three Table 2 profiles, in the paper's column order.
    pub fn all() -> [Table2Profile; 3] {
        [
            Table2Profile::StepApprox,
            Table2Profile::Linear,
            Table2Profile::Rex,
        ]
    }
}

impl ScheduleSpec {
    /// Instantiates a fresh schedule.
    pub fn build(&self) -> Box<dyn Schedule> {
        match self {
            ScheduleSpec::None => {
                Box::new(SampledProfile::new(Constant, SamplingRate::EveryIteration))
            }
            ScheduleSpec::Rex => Box::new(SampledProfile::new(
                ReflectedExponential::default(),
                SamplingRate::EveryIteration,
            )),
            ScheduleSpec::RexBeta(beta) => Box::new(SampledProfile::new(
                ReflectedExponential::with_beta(*beta),
                SamplingRate::EveryIteration,
            )),
            ScheduleSpec::Linear => {
                Box::new(SampledProfile::new(Linear, SamplingRate::EveryIteration))
            }
            ScheduleSpec::Cosine => {
                Box::new(SampledProfile::new(Cosine, SamplingRate::EveryIteration))
            }
            ScheduleSpec::ExpDecay => Box::new(SampledProfile::new(
                Exponential::paper_decay(),
                SamplingRate::EveryIteration,
            )),
            ScheduleSpec::Step => Box::new(StepSchedule::fifty_seventy_five()),
            ScheduleSpec::OneCycle => Box::new(OneCycle),
            ScheduleSpec::DecayOnPlateau(patience) => Box::new(DecayOnPlateau::new(*patience, 0.1)),
            ScheduleSpec::Polynomial(p) => Box::new(SampledProfile::new(
                Polynomial::new(*p),
                SamplingRate::EveryIteration,
            )),
            ScheduleSpec::CosineRestarts(cycles, t_mult) => {
                Box::new(CosineRestarts::new(*cycles, *t_mult, 0.0))
            }
            ScheduleSpec::Cyclical(cycles) => Box::new(Cyclical::triangular(*cycles, 0.0)),
            ScheduleSpec::InverseSqrt(warmup) => Box::new(InverseSqrt::new(*warmup)),
            ScheduleSpec::Delayed(inner, delay) => {
                Box::new(DelayedDecay::new(inner.build(), *delay))
            }
            ScheduleSpec::WithWarmup(inner, steps, start) => {
                Box::new(Warmup::new(inner.build(), *steps, *start))
            }
            ScheduleSpec::Sampled(profile, rate) => match profile {
                Table2Profile::StepApprox => Box::new(SampledProfile::new(
                    Exponential::step_approximation(),
                    rate.clone(),
                )),
                Table2Profile::Linear => Box::new(SampledProfile::new(Linear, rate.clone())),
                Table2Profile::Rex => Box::new(SampledProfile::new(
                    ReflectedExponential::default(),
                    rate.clone(),
                )),
            },
        }
    }

    /// Whether the built schedule consumes validation-loss feedback
    /// ([`Schedule::on_validation`]); the trainer only pays for a per-epoch
    /// validation pass when this is true.
    pub fn needs_validation_feedback(&self) -> bool {
        match self {
            ScheduleSpec::DecayOnPlateau(_) => true,
            ScheduleSpec::Delayed(inner, _) | ScheduleSpec::WithWarmup(inner, ..) => {
                inner.needs_validation_feedback()
            }
            _ => false,
        }
    }

    /// Display name, matching the paper's table row labels.
    pub fn name(&self) -> String {
        match self {
            ScheduleSpec::None => "None".to_owned(),
            ScheduleSpec::Rex => "REX".to_owned(),
            ScheduleSpec::RexBeta(b) => format!("REX(beta={b})"),
            ScheduleSpec::Linear => "Linear Schedule".to_owned(),
            ScheduleSpec::Cosine => "Cosine Schedule".to_owned(),
            ScheduleSpec::ExpDecay => "Exp decay".to_owned(),
            ScheduleSpec::Step => "Step Schedule".to_owned(),
            ScheduleSpec::OneCycle => "OneCycle".to_owned(),
            ScheduleSpec::DecayOnPlateau(_) => "Decay on Plateau".to_owned(),
            ScheduleSpec::Polynomial(p) => format!("Poly(p={p})"),
            ScheduleSpec::CosineRestarts(c, _) => format!("SGDR(x{c})"),
            ScheduleSpec::Cyclical(c) => format!("Triangular(x{c})"),
            ScheduleSpec::InverseSqrt(_) => "InverseSqrt".to_owned(),
            ScheduleSpec::Delayed(inner, delay) => format!(
                "{} Delayed {}%",
                inner.name(),
                (delay * 100.0).round() as u32
            ),
            ScheduleSpec::WithWarmup(inner, ..) => inner.name(),
            ScheduleSpec::Sampled(profile, rate) => {
                format!("{} @ {}", profile.label(), rate.label())
            }
        }
    }
}

/// The seven schedules benchmarked throughout the paper's Tables 4–11, in
/// the paper's row order. `plateau_patience` is in validation reports
/// (epochs); the paper tunes it in multiples of 5.
pub fn all_paper_schedules(plateau_patience: u32) -> Vec<ScheduleSpec> {
    vec![
        ScheduleSpec::Step,
        ScheduleSpec::Cosine,
        ScheduleSpec::OneCycle,
        ScheduleSpec::Linear,
        ScheduleSpec::DecayOnPlateau(plateau_patience),
        ScheduleSpec::ExpDecay,
        ScheduleSpec::Rex,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_produces_named_schedules() {
        for spec in all_paper_schedules(5) {
            let sched = spec.build();
            assert!(!sched.name().is_empty());
        }
    }

    #[test]
    fn fresh_builds_are_independent() {
        let spec = ScheduleSpec::DecayOnPlateau(1);
        let mut a = spec.build();
        let b = spec.build();
        a.on_validation(1.0);
        a.on_validation(1.0);
        drop(b);
        let mut b = spec.build();
        assert!(a.factor(0, 10) < 1.0);
        assert_eq!(b.factor(0, 10), 1.0);
    }

    #[test]
    fn paper_schedule_list_is_complete() {
        let names: Vec<String> = all_paper_schedules(5).iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            vec![
                "Step Schedule",
                "Cosine Schedule",
                "OneCycle",
                "Linear Schedule",
                "Decay on Plateau",
                "Exp decay",
                "REX"
            ]
        );
    }

    #[test]
    fn delayed_spec_builds_delayed_schedule() {
        let spec = ScheduleSpec::Delayed(Box::new(ScheduleSpec::Linear), 0.5);
        let mut s = spec.build();
        assert_eq!(s.factor(25, 100), 1.0);
        assert_eq!(spec.name(), "Linear Schedule Delayed 50%");
    }

    #[test]
    fn warmup_spec_excludes_warmup_from_budget() {
        let spec = ScheduleSpec::WithWarmup(Box::new(ScheduleSpec::Linear), 10, 0.1);
        let mut s = spec.build();
        // halfway through the post-warmup region
        assert!((s.factor(10 + 45, 10 + 90) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn sampled_spec_matches_table2_grid() {
        for p in Table2Profile::all() {
            for r in SamplingRate::table2_rates() {
                let mut s = ScheduleSpec::Sampled(p, r.clone()).build();
                let start = s.factor(0, 100);
                assert!(
                    (start - 1.0).abs() < 1e-9,
                    "{}@{} should start at 1, got {start}",
                    p.label(),
                    r.label()
                );
            }
        }
    }

    #[test]
    fn rexbeta_one_equals_linear() {
        let mut r = ScheduleSpec::RexBeta(1.0).build();
        let mut l = ScheduleSpec::Linear.build();
        for t in [0u64, 25, 50, 75, 99] {
            assert!((r.factor(t, 100) - l.factor(t, 100)).abs() < 1e-12);
        }
    }
}

/// Error returned when parsing a schedule name fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseScheduleError {
    input: String,
}

impl std::fmt::Display for ParseScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown schedule {:?}; expected one of: none, rex, rex-beta=<B>, linear, \
             cosine, step, exp, onecycle, plateau, poly=<P>, sgdr, triangular, \
             inverse-sqrt, delayed-linear=<F>",
            self.input
        )
    }
}

impl std::error::Error for ParseScheduleError {}

impl std::str::FromStr for ScheduleSpec {
    type Err = ParseScheduleError;

    /// Parses the textual schedule vocabulary used by `rexctl` and config
    /// files. Case-insensitive; parameterised forms use `name=value`.
    ///
    /// ```
    /// use rex_core::ScheduleSpec;
    ///
    /// let s: ScheduleSpec = "REX".parse()?;
    /// assert_eq!(s, ScheduleSpec::Rex);
    /// let d: ScheduleSpec = "delayed-linear=0.5".parse()?;
    /// assert_eq!(d.name(), "Linear Schedule Delayed 50%");
    /// # Ok::<(), rex_core::ParseScheduleError>(())
    /// ```
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let lower = s.trim().to_ascii_lowercase();
        let err = || ParseScheduleError {
            input: s.to_string(),
        };
        if let Some(v) = lower.strip_prefix("rex-beta=") {
            let beta: f64 = v.parse().map_err(|_| err())?;
            if !(beta > 0.0 && beta <= 1.0) {
                return Err(err());
            }
            return Ok(ScheduleSpec::RexBeta(beta));
        }
        if let Some(v) = lower.strip_prefix("delayed-linear=") {
            let frac: f64 = v.parse().map_err(|_| err())?;
            if !(0.0..1.0).contains(&frac) {
                return Err(err());
            }
            return Ok(ScheduleSpec::Delayed(Box::new(ScheduleSpec::Linear), frac));
        }
        if let Some(v) = lower.strip_prefix("poly=") {
            let p: f64 = v.parse().map_err(|_| err())?;
            if p <= 0.0 {
                return Err(err());
            }
            return Ok(ScheduleSpec::Polynomial(p));
        }
        Ok(match lower.as_str() {
            "none" | "constant" => ScheduleSpec::None,
            "rex" => ScheduleSpec::Rex,
            "linear" => ScheduleSpec::Linear,
            "cosine" => ScheduleSpec::Cosine,
            "step" => ScheduleSpec::Step,
            "exp" | "exp-decay" | "exponential" => ScheduleSpec::ExpDecay,
            "onecycle" | "one-cycle" => ScheduleSpec::OneCycle,
            "plateau" | "decay-on-plateau" => ScheduleSpec::DecayOnPlateau(2),
            "sgdr" | "cosine-restarts" => ScheduleSpec::CosineRestarts(3, 2.0),
            "triangular" | "cyclical" => ScheduleSpec::Cyclical(3),
            "inverse-sqrt" | "invsqrt" => ScheduleSpec::InverseSqrt(0.1),
            _ => return Err(err()),
        })
    }
}

#[cfg(test)]
mod parse_tests {
    use super::*;

    #[test]
    fn parses_every_vocabulary_entry() {
        for (input, expected_name) in [
            ("none", "None"),
            ("REX", "REX"),
            ("linear", "Linear Schedule"),
            ("Cosine", "Cosine Schedule"),
            ("step", "Step Schedule"),
            ("exp", "Exp decay"),
            ("onecycle", "OneCycle"),
            ("plateau", "Decay on Plateau"),
            ("sgdr", "SGDR(x3)"),
            ("triangular", "Triangular(x3)"),
            ("inverse-sqrt", "InverseSqrt"),
        ] {
            let spec: ScheduleSpec = input.parse().unwrap_or_else(|e| panic!("{input}: {e}"));
            assert_eq!(spec.name(), expected_name, "{input}");
        }
    }

    #[test]
    fn parses_parameterised_forms() {
        assert!(matches!(
            "rex-beta=0.25".parse::<ScheduleSpec>().unwrap(),
            ScheduleSpec::RexBeta(b) if (b - 0.25).abs() < 1e-12
        ));
        assert!(matches!(
            "poly=2".parse::<ScheduleSpec>().unwrap(),
            ScheduleSpec::Polynomial(p) if (p - 2.0).abs() < 1e-12
        ));
    }

    #[test]
    fn rejects_garbage_and_bad_parameters() {
        assert!("warp".parse::<ScheduleSpec>().is_err());
        assert!("rex-beta=0".parse::<ScheduleSpec>().is_err());
        assert!("rex-beta=abc".parse::<ScheduleSpec>().is_err());
        assert!("delayed-linear=1.5".parse::<ScheduleSpec>().is_err());
        assert!("poly=-1".parse::<ScheduleSpec>().is_err());
        let msg = "warp".parse::<ScheduleSpec>().unwrap_err().to_string();
        assert!(msg.contains("warp") && msg.contains("rex"), "{msg}");
    }

    #[test]
    fn whitespace_tolerated() {
        assert_eq!(" rex ".parse::<ScheduleSpec>().unwrap(), ScheduleSpec::Rex);
    }
}
