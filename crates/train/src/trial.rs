//! Learning-rate tuning.

/// The paper's LR grid: the base LR times multiples of 3
/// (`…, 1/9, 1/3, 1, 3, 9, …` — here two steps each way).
pub fn lr_grid(base_lr: f32) -> Vec<f32> {
    vec![
        base_lr / 9.0,
        base_lr / 3.0,
        base_lr,
        base_lr * 3.0,
        base_lr * 9.0,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lr_grid_spans_two_multiples_of_three_each_way() {
        let g = lr_grid(0.9);
        assert_eq!(g.len(), 5);
        assert!((g[0] - 0.1).abs() < 1e-6);
        assert!((g[4] - 8.1).abs() < 1e-6);
    }
}
