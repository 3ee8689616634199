//! The OneCycle schedule (Smith, 2018), driving both LR and momentum.

use crate::schedule::{progress, Schedule};

/// The **OneCycle** schedule: the LR ramps linearly from `η_max·0.1` to
/// `η_max` over the first half of the budget and back down over the second
/// half, while the momentum moves inversely between `β_max` and `β_min`.
///
/// Following the paper's fair-comparison protocol, the recommended defaults
/// are fixed — `η_min = 0.1·η_max`, `β_max = 0.95`, `β_min = 0.85` — so the
/// peak LR (`η_max`, supplied by the tuner as the initial LR) is the only
/// hyperparameter.
///
/// ```
/// use rex_core::{OneCycle, Schedule};
///
/// let mut oc = OneCycle;
/// assert!((oc.factor(0, 100) - 0.1).abs() < 0.05);      // starts low
/// assert!((oc.factor(50, 100) - 1.0).abs() < 0.05);     // peaks mid-budget
/// assert!(oc.factor(99, 100) < 0.15);                   // ends low
/// assert_eq!(oc.momentum(50, 100), Some(0.85));         // momentum dips at peak
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OneCycle;

/// The LR floor, `η_min / η_max`.
const LR_MIN_FACTOR: f64 = 0.1;
/// The momentum at the LR floor.
const BETA_MAX: f64 = 0.95;
/// The momentum at the LR peak.
const BETA_MIN: f64 = 0.85;

/// Rises 0 -> 1 over progress [0, 1/2] and falls back over [1/2, 1].
fn triangle(x: f64) -> f64 {
    if x < 0.5 {
        2.0 * x
    } else {
        2.0 * (1.0 - x)
    }
}

impl Schedule for OneCycle {
    fn factor(&mut self, t: u64, total: u64) -> f64 {
        let tri = triangle(progress(t, total));
        LR_MIN_FACTOR + (1.0 - LR_MIN_FACTOR) * tri
    }

    fn momentum(&mut self, t: u64, total: u64) -> Option<f64> {
        let tri = triangle(progress(t, total));
        // momentum is the mirror image: high when LR is low
        Some(BETA_MAX - (BETA_MAX - BETA_MIN) * tri)
    }

    fn name(&self) -> String {
        "OneCycle".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symmetric_triangle() {
        let mut oc = OneCycle;
        let up = oc.factor(25, 100);
        let down = oc.factor(75, 100);
        assert!((up - down).abs() < 1e-9);
    }

    #[test]
    fn peak_at_half() {
        let mut oc = OneCycle;
        assert!((oc.factor(50, 100) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ends_at_floor() {
        let mut oc = OneCycle;
        assert!((oc.factor(100, 100) - 0.1).abs() < 1e-9);
        assert!((oc.factor(0, 100) - 0.1).abs() < 1e-9);
    }

    #[test]
    fn momentum_mirrors_lr() {
        let mut oc = OneCycle;
        assert_eq!(oc.momentum(0, 100), Some(0.95));
        assert_eq!(oc.momentum(50, 100), Some(0.85));
        assert_eq!(oc.momentum(100, 100), Some(0.95));
    }

    #[test]
    fn momentum_always_in_range() {
        let mut oc = OneCycle;
        for t in 0..=200u64 {
            let m = oc.momentum(t, 200).unwrap();
            assert!((0.85..=0.95).contains(&m));
        }
    }
}
