//! Loss helpers composed from graph primitives.
//!
//! Cross-entropy and BCE-with-logits live directly on [`Graph`]; this
//! module adds the composite losses the models need.

use rex_autograd::{Graph, NodeId};
use rex_tensor::{Tensor, TensorError};

/// Mean squared error between a prediction node and a constant target,
/// averaged over all elements.
///
/// # Errors
///
/// Returns [`TensorError::BroadcastMismatch`] if shapes differ.
pub fn mse(g: &mut Graph, pred: NodeId, target: &Tensor) -> Result<NodeId, TensorError> {
    let t = g.constant(target.clone());
    let diff = g.sub(pred, t)?;
    let sq = g.mul(diff, diff)?;
    g.mean_all(sq)
}

/// KL divergence of a diagonal Gaussian `N(mu, exp(logvar))` from the
/// standard normal, summed over latent dims and averaged over the batch:
///
/// ```text
/// KL = -1/2 · Σ_d (1 + logvar − mu² − exp(logvar))
/// ```
///
/// `mu`/`logvar` are `[N, L]` nodes.
///
/// # Errors
///
/// Propagates shape mismatches from the underlying ops.
pub fn gaussian_kl(g: &mut Graph, mu: NodeId, logvar: NodeId) -> Result<NodeId, TensorError> {
    let n = g.value(mu).shape()[0] as f32;
    let mu2 = g.mul(mu, mu)?;
    let var = g.exp(logvar);
    let one_plus = g.add_scalar(logvar, 1.0);
    let t1 = g.sub(one_plus, mu2)?;
    let t2 = g.sub(t1, var)?;
    let summed = g.sum_all(t2)?;
    Ok(g.scale(summed, -0.5 / n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mse_known_value() {
        let mut g = Graph::new(true);
        let p = g.constant(Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap());
        let t = Tensor::from_vec(vec![0.0, 4.0], &[2]).unwrap();
        let loss = mse(&mut g, p, &t).unwrap();
        assert!((g.value(loss).item() - (1.0 + 4.0) / 2.0).abs() < 1e-6);
    }

    #[test]
    fn kl_zero_for_standard_normal() {
        let mut g = Graph::new(true);
        let mu = g.constant(Tensor::zeros(&[3, 4]));
        let logvar = g.constant(Tensor::zeros(&[3, 4]));
        let kl = gaussian_kl(&mut g, mu, logvar).unwrap();
        assert!(g.value(kl).item().abs() < 1e-6);
    }

    #[test]
    fn kl_positive_otherwise() {
        let mut g = Graph::new(true);
        let mu = g.constant(Tensor::full(&[2, 2], 1.0));
        let logvar = g.constant(Tensor::full(&[2, 2], 0.5));
        let kl = gaussian_kl(&mut g, mu, logvar).unwrap();
        assert!(g.value(kl).item() > 0.0);
    }
}
