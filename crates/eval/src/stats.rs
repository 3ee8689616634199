//! Basic statistics over trial results.

/// Mean of a slice (0 for empty input).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Sample standard deviation (n−1 denominator); 0 for fewer than two
/// samples. This matches the `±` columns of the paper's tables, which are
/// computed over three trials.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (xs.len() - 1) as f64).sqrt()
}

/// A `mean ± std` pair with its sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Mean over trials.
    pub mean: f64,
    /// Sample standard deviation over trials.
    pub std: f64,
    /// Number of trials.
    pub n: usize,
}

impl Summary {
    /// Summarises a set of trial results.
    pub fn of(xs: &[f64]) -> Summary {
        Summary {
            mean: mean(xs),
            std: std_dev(xs),
            n: xs.len(),
        }
    }
}

impl std::fmt::Display for Summary {
    /// Formats as the paper does: `12.86 ± .27`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.n > 1 {
            write!(f, "{:.2} ± {:.2}", self.mean, self.std)
        } else {
            write!(f, "{:.2}", self.mean)
        }
    }
}

/// Classification error (%) of predictions vs labels.
///
/// # Panics
///
/// Panics if lengths differ or the input is empty.
pub fn error_rate(predictions: &[usize], labels: &[usize]) -> f64 {
    assert_eq!(predictions.len(), labels.len(), "length mismatch");
    assert!(!labels.is_empty(), "empty evaluation set");
    let wrong = predictions
        .iter()
        .zip(labels)
        .filter(|(p, l)| p != l)
        .count();
    100.0 * wrong as f64 / labels.len() as f64
}

/// Accuracy (%) — `100 − error_rate`, provided for the GLUE-style tables
/// which report scores where higher is better.
///
/// # Panics
///
/// As [`error_rate`].
pub fn accuracy(predictions: &[usize], labels: &[usize]) -> f64 {
    100.0 - error_rate(predictions, labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std_known_values() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        // sample std of this classic set is ~2.138
        assert!((std_dev(&xs) - 2.13809).abs() < 1e-4);
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(std_dev(&[]), 0.0);
        assert_eq!(std_dev(&[3.0]), 0.0);
    }

    #[test]
    fn summary_formats_like_paper() {
        let s = Summary::of(&[12.5, 13.0, 12.7]);
        let txt = format!("{s}");
        assert!(txt.contains("±"), "{txt}");
        let single = Summary::of(&[12.5]);
        assert_eq!(format!("{single}"), "12.50");
    }

    #[test]
    fn error_and_accuracy() {
        let pred = [0usize, 1, 2, 2];
        let gold = [0usize, 1, 1, 2];
        assert!((error_rate(&pred, &gold) - 25.0).abs() < 1e-12);
        assert!((accuracy(&pred, &gold) - 75.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn error_rate_length_checked() {
        let _ = error_rate(&[0], &[0, 1]);
    }
}
