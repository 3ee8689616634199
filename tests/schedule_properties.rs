//! Property-style tests of the schedule framework: the invariants every
//! profile, sampling rate, and wrapper must satisfy for the paper's
//! experiments to be meaningful.
//!
//! Originally proptest generators; now deterministic sweeps over dense
//! progress grids so the suite builds fully offline.

use rex::schedules::{
    all_paper_schedules, DecayOnPlateau, OneCycle, Profile, ReflectedExponential, SamplingRate,
    Schedule, ScheduleSpec, Table2Profile,
};

/// Dense grid over [0, 1] including both endpoints.
fn progress_grid() -> impl Iterator<Item = f64> {
    (0..=200).map(|i| i as f64 / 200.0)
}

/// REX matches the paper's closed form everywhere.
#[test]
fn rex_closed_form() {
    let rex = ReflectedExponential::default();
    for x in progress_grid() {
        let expected = (1.0 - x) / (0.5 + 0.5 * (1.0 - x));
        assert!((rex.at(x) - expected).abs() < 1e-12, "at x={x}");
    }
}

/// REX dominates linear on (0,1) and both map [0,1] onto [0,1].
#[test]
fn rex_between_linear_and_one() {
    let rex = ReflectedExponential::default();
    for x in progress_grid().filter(|x| (0.001..=0.999).contains(x)) {
        let v = rex.at(x);
        assert!(v > 1.0 - x, "REX must hold LR above linear at {x}");
        assert!(v < 1.0, "at x={x}");
    }
}

/// The generalised REX family is monotone in beta: smaller beta holds
/// the learning rate higher.
#[test]
fn rex_beta_monotonicity() {
    let betas = [0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95];
    for (i, &b1) in betas.iter().enumerate() {
        for &b2 in &betas[i + 1..] {
            let lo = ReflectedExponential::with_beta(b1);
            let hi = ReflectedExponential::with_beta(b2);
            for x in progress_grid().filter(|x| (0.01..=0.99).contains(x)) {
                assert!(
                    lo.at(x) >= hi.at(x) - 1e-12,
                    "beta {b1} vs {b2} at x={x}: {} < {}",
                    lo.at(x),
                    hi.at(x)
                );
            }
        }
    }
}

/// Quantisation never moves progress forward (no peeking down the
/// decay), for every sampling rate in the paper's Table 2.
#[test]
fn sampling_never_peeks_ahead() {
    for rate_idx in 0..7 {
        let rate = SamplingRate::table2_rates().swap_remove(rate_idx);
        for x in progress_grid() {
            assert!(rate.quantize(x) <= x + 1e-12, "rate {rate_idx} at x={x}");
        }
    }
}

/// Sampling quantisation is idempotent.
#[test]
fn sampling_idempotent() {
    for rate_idx in 0..7 {
        let rate = SamplingRate::table2_rates().swap_remove(rate_idx);
        for x in progress_grid() {
            let q = rate.quantize(x);
            assert!(
                (rate.quantize(q) - q).abs() < 1e-12,
                "rate {rate_idx} at x={x}"
            );
        }
    }
}

/// Every sampled profile (all of Table 2's grid) yields factors in
/// [0, 1] that start at 1.
#[test]
fn sampled_profiles_bounded() {
    for rate_idx in 0..7 {
        for profile_idx in 0..3 {
            let rate = SamplingRate::table2_rates().swap_remove(rate_idx);
            let profile = Table2Profile::all()[profile_idx];
            let mut s = ScheduleSpec::Sampled(profile, rate).build();
            for t in (0..1000).step_by(13) {
                let f = s.factor(t, 1000);
                assert!(
                    (0.0..=1.0 + 1e-12).contains(&f),
                    "rate {rate_idx} profile {profile_idx} t={t}: factor {f} out of range"
                );
            }
            assert!((s.factor(0, 1000) - 1.0).abs() < 1e-9);
        }
    }
}

/// Every paper schedule produces finite, non-negative factors over an
/// arbitrary budget, and OneCycle momentum stays within its band.
#[test]
fn paper_schedules_well_behaved() {
    for total in [1u64, 7, 100, 999, 5000] {
        for t in (0..5000).step_by(97) {
            for spec in all_paper_schedules(3) {
                let mut s = spec.build();
                let f = s.factor(t, total);
                assert!(f.is_finite() && f >= 0.0, "{}: factor {f}", s.name());
                assert!(f <= 1.0 + 1e-9, "{}: factor {f} above initial LR", s.name());
                if let Some(m) = s.momentum(t, total) {
                    assert!((0.0..1.0).contains(&m), "{}: momentum {m}", s.name());
                }
            }
        }
    }
}

/// Budget invariance: a schedule's factor depends only on the progress
/// fraction, so scaling (t, total) together leaves it unchanged —
/// the property that makes budget adaptation automatic.
#[test]
fn factor_depends_only_on_progress() {
    for total in [10u64, 100, 1234, 10_000] {
        for i in 0..=50 {
            let frac = i as f64 / 50.0;
            for spec in [
                ScheduleSpec::Rex,
                ScheduleSpec::Linear,
                ScheduleSpec::Cosine,
                ScheduleSpec::Step,
            ] {
                let mut s = spec.build();
                // scale (t, total) by exactly 10x so the progress fraction
                // is bit-identical — the schedule must then agree exactly
                let t1 = (frac * total as f64) as u64;
                let f1 = s.factor(t1, total);
                let f2 = s.factor(t1 * 10, total * 10);
                assert!(
                    (f1 - f2).abs() < 1e-9,
                    "{}: {f1} vs {f2} at frac {frac}",
                    s.name()
                );
            }
        }
    }
}

/// Delayed wrapper: identity before the delay, decayed after,
/// continuous at the boundary.
#[test]
fn delayed_wrapper_contract() {
    for delay in [0.05f64, 0.25, 0.5, 0.75, 0.95] {
        let total = 1000u64;
        for t in (0..total).step_by(7) {
            let spec = ScheduleSpec::Delayed(Box::new(ScheduleSpec::Linear), delay);
            let mut s = spec.build();
            let x = t as f64 / total as f64;
            let f = s.factor(t, total);
            if x < delay - 1e-9 {
                assert!(
                    (f - 1.0).abs() < 1e-9,
                    "held region must stay at 1, got {f} at x={x}"
                );
            } else {
                let expected = 1.0 - (x - delay) / (1.0 - delay);
                assert!(
                    (f - expected).abs() < 0.01,
                    "decay region: {f} vs {expected}"
                );
            }
        }
    }
}

/// Warmup wrapper: factors rise monotonically during warmup and never
/// exceed 1.
#[test]
fn warmup_monotone_rise() {
    for steps in [2u64, 3, 10, 37, 99] {
        let spec = ScheduleSpec::WithWarmup(Box::new(ScheduleSpec::Linear), steps, 0.1);
        let mut s = spec.build();
        let total = steps + 200;
        let mut prev = 0.0;
        for t in 0..steps {
            let f = s.factor(t, total);
            assert!(f >= prev - 1e-12, "warmup dipped at t={t} (steps={steps})");
            assert!(f <= 1.0 + 1e-12);
            prev = f;
        }
    }
}

#[test]
fn plateau_spec_requests_validation_feedback() {
    assert!(ScheduleSpec::DecayOnPlateau(5).needs_validation_feedback());
    assert!(!ScheduleSpec::Rex.needs_validation_feedback());
    // wrappers propagate the requirement
    let wrapped = ScheduleSpec::WithWarmup(Box::new(ScheduleSpec::DecayOnPlateau(5)), 10, 0.1);
    assert!(wrapped.needs_validation_feedback());
}

/// REX pinned against the paper's closed form
/// η_t = η₀ · (1 − t/T) / (1/2 + 1/2·(1 − t/T)) at canonical progress
/// fractions, including the last step before exhaustion (t/T = 1 − 1/T).
#[test]
fn rex_closed_form_pinned_values() {
    let total = 100u64;
    let mut rex = ScheduleSpec::Rex.build();
    for (t, want) in [
        (0u64, 1.0),
        (25, 6.0 / 7.0),
        (50, 2.0 / 3.0),
        (75, 2.0 / 5.0),
        (99, 2.0 / 101.0), // t/T = 1 − 1/T
    ] {
        let got = rex.factor(t, total);
        assert!(
            (got - want).abs() < 1e-12,
            "REX at t={t}/{total}: got {got}, want {want}"
        );
    }
}

/// OneCycle's two phases are strictly monotone: the LR factor rises over
/// the first half of the budget and falls over the second, while the
/// momentum does exactly the opposite.
#[test]
fn onecycle_phases_are_monotone() {
    let total = 1000u64;
    let mut oc = OneCycle;
    for t in 1..=total {
        let prev_f = oc.factor(t - 1, total);
        let f = oc.factor(t, total);
        let prev_m = oc.momentum(t - 1, total).unwrap();
        let m = oc.momentum(t, total).unwrap();
        if t <= total / 2 {
            assert!(f > prev_f, "LR must rise during warmup, t={t}");
            assert!(m < prev_m, "momentum must fall during warmup, t={t}");
        } else {
            assert!(f < prev_f, "LR must fall during cooldown, t={t}");
            assert!(m > prev_m, "momentum must rise during cooldown, t={t}");
        }
    }
}

/// OneCycle peaks exactly mid-budget at the full initial LR, starts and
/// ends at the 0.1 floor, and its momentum mirrors the LR within the
/// recommended [0.85, 0.95] band.
#[test]
fn onecycle_peak_floor_and_momentum_band() {
    let total = 1000u64;
    let mut oc = OneCycle;
    assert!((oc.factor(total / 2, total) - 1.0).abs() < 1e-12, "peak");
    assert!((oc.factor(0, total) - 0.1).abs() < 1e-12, "start floor");
    assert!((oc.factor(total, total) - 0.1).abs() < 1e-12, "end floor");
    for t in (0..=total).step_by(7) {
        let f = oc.factor(t, total);
        let m = oc.momentum(t, total).unwrap();
        assert!((0.1..=1.0 + 1e-12).contains(&f), "factor {f} at t={t}");
        assert!((0.85..=0.95).contains(&m), "momentum {m} at t={t}");
        // exact mirror: both are affine images of the same triangle wave
        let tri = (f - 0.1) / 0.9;
        let want_m = 0.95 - 0.1 * tri;
        assert!(
            (m - want_m).abs() < 1e-12,
            "momentum not mirroring at t={t}"
        );
    }
}

/// Plateau patience contract: the decay fires only after `patience`
/// consecutive stale validations, any real improvement resets the stale
/// counter, and the factor is γ^decays independent of progress.
#[test]
fn plateau_patience_and_decay_factor() {
    let mut s = DecayOnPlateau::new(3, 0.1);
    s.on_validation(2.0);
    // two stale reports: not enough
    s.on_validation(2.0);
    s.on_validation(2.0);
    assert_eq!(s.decay_count(), 0);
    // improvement resets the window
    s.on_validation(1.0);
    s.on_validation(1.0);
    s.on_validation(1.0);
    assert_eq!(s.decay_count(), 0);
    // third consecutive stale report after the reset triggers the decay
    s.on_validation(1.0);
    assert_eq!(s.decay_count(), 1);
    // factor is progress-independent
    let f_early = s.factor(0, 100);
    let f_late = s.factor(99, 100);
    assert!((f_early - 0.1).abs() < 1e-12 && (f_early - f_late).abs() < 1e-12);
}

/// Plateau cooldown contract: a decay resets the stale counter, so the
/// next decay needs a full fresh patience window — decays can never fire
/// on consecutive validations when patience > 1.
#[test]
fn plateau_cooldown_between_decays() {
    let mut s = DecayOnPlateau::new(2, 0.5);
    s.on_validation(1.0);
    let mut decay_gaps = Vec::new();
    let mut last_decay_at = None;
    for i in 0..9 {
        let before = s.decay_count();
        s.on_validation(1.0); // never improves
        if s.decay_count() > before {
            if let Some(prev) = last_decay_at {
                decay_gaps.push(i - prev);
            }
            last_decay_at = Some(i);
        }
    }
    assert_eq!(s.decay_count(), 4, "9 stale reports, patience 2");
    assert!(
        decay_gaps.iter().all(|&g| g >= 2),
        "decays fired without a full patience window between them: {decay_gaps:?}"
    );
    assert!((s.factor(0, 1) - 0.5f64.powi(4)).abs() < 1e-12);
}

#[test]
fn schedule_names_are_unique_within_a_table() {
    let mut names: Vec<String> = all_paper_schedules(5).iter().map(|s| s.name()).collect();
    let before = names.len();
    names.sort();
    names.dedup();
    assert_eq!(
        names.len(),
        before,
        "duplicate schedule names would corrupt tables"
    );
}
