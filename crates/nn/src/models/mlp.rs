//! A plain multi-layer perceptron — the quickstart model and the baseline
//! used by many unit/property tests.

use rex_autograd::{Graph, NodeId, Param};
use rex_tensor::{Prng, TensorError};

use crate::layers::Linear;
use crate::module::Module;

/// A fully-connected network with a ReLU between layers.
///
/// ```
/// use rex_nn::{Mlp, Module};
/// use rex_autograd::Graph;
/// use rex_tensor::{Prng, Tensor};
///
/// let mut rng = Prng::new(0);
/// let mlp = Mlp::new("mlp", &[4, 16, 3], &mut rng);
/// let mut g = Graph::new(false);
/// let x = g.constant(Tensor::zeros(&[2, 4]));
/// let logits = mlp.forward(&mut g, x)?;
/// assert_eq!(g.value(logits).shape(), &[2, 3]);
/// # Ok::<(), rex_tensor::TensorError>(())
/// ```
#[derive(Debug)]
pub struct Mlp {
    layers: Vec<Linear>,
}

impl Mlp {
    /// Builds an MLP with the given layer sizes (`[in, hidden…, out]`) and
    /// ReLU activations.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two sizes are given.
    pub fn new(name: &str, sizes: &[usize], rng: &mut Prng) -> Self {
        assert!(
            sizes.len() >= 2,
            "MLP needs at least input and output sizes"
        );
        let layers = sizes
            .windows(2)
            .enumerate()
            .map(|(i, w)| Linear::new(&format!("{name}.fc{i}"), w[0], w[1], rng))
            .collect();
        Mlp { layers }
    }

    /// Number of linear layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }
}

impl Module for Mlp {
    fn forward(&self, g: &mut Graph, x: NodeId) -> Result<NodeId, TensorError> {
        let mut h = x;
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.forward(g, h)?;
            if i + 1 < self.layers.len() {
                h = g.relu(h);
            }
        }
        Ok(h)
    }

    fn params(&self) -> Vec<Param> {
        self.layers.iter().flat_map(Linear::params).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rex_tensor::Tensor;

    #[test]
    fn depth_and_param_count() {
        let mut rng = Prng::new(1);
        let mlp = Mlp::new("m", &[4, 8, 2], &mut rng);
        assert_eq!(mlp.depth(), 2);
        assert_eq!(mlp.num_parameters(), 4 * 8 + 8 + 8 * 2 + 2);
    }

    #[test]
    fn can_overfit_tiny_dataset() {
        // Sanity: a couple of manual SGD steps reduce the loss.
        let mut rng = Prng::new(2);
        let mlp = Mlp::new("m", &[2, 16, 2], &mut rng);
        let x = Tensor::from_vec(vec![0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0, 0.0], &[4, 2]).unwrap();
        let targets = [0usize, 0, 1, 1];
        let mut losses = Vec::new();
        for _ in 0..60 {
            for p in mlp.params() {
                p.zero_grad();
            }
            let mut g = Graph::new(true);
            let xn = g.constant(x.clone());
            let logits = mlp.forward(&mut g, xn).unwrap();
            let loss = g.cross_entropy(logits, &targets).unwrap();
            losses.push(g.value(loss).item());
            g.backward(loss).unwrap();
            for p in mlp.params() {
                let grad = p.grad();
                p.value_mut().axpy(-0.5, &grad);
            }
        }
        assert!(
            losses.last().unwrap() < &(losses[0] * 0.5),
            "loss did not halve: {:?} -> {:?}",
            losses[0],
            losses.last().unwrap()
        );
    }
}
