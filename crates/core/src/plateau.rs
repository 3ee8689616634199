//! Decay-on-plateau: the practical, feedback-driven variant of the step
//! schedule.

use crate::schedule::Schedule;

/// The least drop in validation loss that counts as an improvement.
const MIN_DELTA: f64 = 1e-4;

/// **Decay on Plateau** — drops the LR by `gamma` whenever the validation
/// loss has failed to improve for `patience` consecutive reports.
///
/// This is the paper's practical step-schedule variant: the trainer calls
/// [`Schedule::on_validation`] after each validation pass (typically once
/// per epoch), and the multiplier returned by [`Schedule::factor`] reflects
/// the number of decays triggered so far. The paper tunes the patience in
/// multiples of 5 epochs.
///
/// ```
/// use rex_core::{DecayOnPlateau, Schedule};
///
/// let mut s = DecayOnPlateau::new(2, 0.1);
/// s.on_validation(1.0); // best so far
/// s.on_validation(1.1); // no improvement (1)
/// s.on_validation(1.2); // no improvement (2) -> decay
/// assert!((s.factor(0, 100) - 0.1).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DecayOnPlateau {
    patience: u32,
    gamma: f64,
    best: f64,
    stale: u32,
    decays: u32,
}

impl DecayOnPlateau {
    /// Plateau schedule with the given patience (validation reports without
    /// improvement before decaying) and decay factor.
    ///
    /// # Panics
    ///
    /// Panics if `patience == 0` or `gamma` is not in `(0, 1)`.
    pub fn new(patience: u32, gamma: f64) -> Self {
        assert!(patience > 0, "patience must be positive");
        assert!(
            gamma > 0.0 && gamma < 1.0,
            "plateau gamma must be in (0,1), got {gamma}"
        );
        DecayOnPlateau {
            patience,
            gamma,
            best: f64::INFINITY,
            stale: 0,
            decays: 0,
        }
    }

    /// Number of decays triggered so far.
    pub fn decay_count(&self) -> u32 {
        self.decays
    }

    /// The configured patience.
    pub fn patience(&self) -> u32 {
        self.patience
    }
}

impl Schedule for DecayOnPlateau {
    fn factor(&mut self, _t: u64, _total: u64) -> f64 {
        self.gamma.powi(self.decays as i32)
    }

    fn on_validation(&mut self, loss: f64) {
        if loss < self.best - MIN_DELTA {
            self.best = loss;
            self.stale = 0;
        } else {
            self.stale += 1;
            if self.stale >= self.patience {
                self.decays += 1;
                self.stale = 0;
            }
        }
    }

    fn stateful(&self) -> bool {
        // the decay counter reacts to validation losses, which a resumed
        // run cannot replay; checkpoints are refused for this schedule
        true
    }

    fn name(&self) -> String {
        "Decay on Plateau".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_decay_while_improving() {
        let mut s = DecayOnPlateau::new(3, 0.1);
        for i in 0..10 {
            s.on_validation(10.0 - i as f64);
        }
        assert_eq!(s.decay_count(), 0);
        assert_eq!(s.factor(0, 1), 1.0);
    }

    #[test]
    fn decays_after_patience_exceeded() {
        let mut s = DecayOnPlateau::new(3, 0.1);
        s.on_validation(1.0);
        s.on_validation(1.0);
        s.on_validation(1.0);
        assert_eq!(s.decay_count(), 0);
        s.on_validation(1.0); // third stale report
        assert_eq!(s.decay_count(), 1);
        assert!((s.factor(5, 10) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn stale_counter_resets_after_decay() {
        let mut s = DecayOnPlateau::new(2, 0.5);
        s.on_validation(1.0);
        s.on_validation(1.0);
        s.on_validation(1.0); // decay #1
        assert_eq!(s.decay_count(), 1);
        s.on_validation(1.0);
        s.on_validation(1.0); // decay #2
        assert_eq!(s.decay_count(), 2);
        assert!((s.factor(0, 1) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn improvement_resets_staleness() {
        let mut s = DecayOnPlateau::new(2, 0.1);
        s.on_validation(1.0);
        s.on_validation(1.0); // stale 1
        s.on_validation(0.5); // improvement
        s.on_validation(0.5); // stale 1
        assert_eq!(s.decay_count(), 0);
    }

    #[test]
    fn tiny_improvement_below_min_delta_is_stale() {
        let mut s = DecayOnPlateau::new(1, 0.1);
        s.on_validation(1.0);
        s.on_validation(0.99995); // within MIN_DELTA -> stale -> decay
        assert_eq!(s.decay_count(), 1);
        s.on_validation(0.9998); // past MIN_DELTA -> improvement
        assert_eq!(s.decay_count(), 1);
    }
}
