/// A training budget: a percentage of a setting's maximum epoch count.
///
/// The paper evaluates every setting at 1 %, 5 %, 10 %, 25 %, 50 %, and
/// 100 % of its literature-standard maximum epochs, rounding the epoch
/// count **up** (so the 1 % budget of a 50-epoch setting is 1 epoch, and no
/// budget is ever zero).
///
/// ```
/// use rex_train::Budget;
///
/// let b = Budget::new(50, 1);
/// assert_eq!(b.epochs(), 1);
/// assert_eq!(Budget::new(300, 25).epochs(), 75);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    max_epochs: usize,
    pct: u32,
}

impl Budget {
    /// Budget of `pct` percent of `max_epochs`.
    ///
    /// # Panics
    ///
    /// Panics if `max_epochs == 0` or `pct` is 0 or above 100.
    pub fn new(max_epochs: usize, pct: u32) -> Self {
        assert!(max_epochs > 0, "max epochs must be positive");
        let pct = Budget::check_pct(pct.into()).unwrap_or_else(|e| panic!("{e}"));
        Budget { max_epochs, pct }
    }

    /// Checks a budget percent: 1..=100. The one check behind `--budget`,
    /// `--budgets`, and a job spec's and a job manifest's `budget`.
    ///
    /// # Errors
    ///
    /// Names the range and the refused value.
    pub fn check_pct(pct: u64) -> Result<u32, String> {
        (u32::try_from(pct).ok())
            .filter(|p| (1..=100).contains(p))
            .ok_or_else(|| format!("budget must be 1..=100 (percent), got {pct}"))
    }

    /// The budgeted epoch count (rounded up, never zero).
    pub fn epochs(&self) -> usize {
        (self.max_epochs * self.pct as usize).div_ceil(100)
    }

    /// The percentage.
    pub fn pct(&self) -> u32 {
        self.pct
    }

    /// The setting's maximum epochs.
    pub fn max_epochs(&self) -> usize {
        self.max_epochs
    }
}

impl std::fmt::Display for Budget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}% ({} ep)", self.pct, self.epochs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_up_and_never_zero() {
        assert_eq!(Budget::new(50, 1).epochs(), 1);
        assert_eq!(Budget::new(300, 1).epochs(), 3);
        assert_eq!(Budget::new(3, 1).epochs(), 1);
        assert_eq!(Budget::new(200, 5).epochs(), 10);
    }

    #[test]
    fn full_budget_is_max() {
        assert_eq!(Budget::new(90, 100).epochs(), 90);
    }

    #[test]
    #[should_panic(expected = "budget must be")]
    fn rejects_zero_pct() {
        let _ = Budget::new(100, 0);
    }

    #[test]
    fn displays_pct_and_epochs() {
        assert_eq!(format!("{}", Budget::new(300, 25)), "25% (75 ep)");
    }
}
