//! [`Sequential`] — chain arbitrary modules, optionally interleaved with
//! pointwise activations, into one [`Module`].

use rex_autograd::{Graph, NodeId, Param};
use rex_tensor::TensorError;

use crate::module::{Activation, Module};

enum Stage {
    Layer(Box<dyn Module>),
    Activation(Activation),
}

/// An ordered chain of modules and activations.
///
/// ```
/// use rex_nn::{Activation, Linear, Module, Sequential};
/// use rex_autograd::Graph;
/// use rex_tensor::{Prng, Tensor};
///
/// let mut rng = Prng::new(0);
/// let net = Sequential::new()
///     .layer(Linear::new("fc1", 4, 8, &mut rng))
///     .activation(Activation::Relu)
///     .layer(Linear::new("fc2", 8, 2, &mut rng));
/// let mut g = Graph::new(false);
/// let x = g.constant(Tensor::zeros(&[3, 4]));
/// let y = net.forward(&mut g, x)?;
/// assert_eq!(g.value(y).shape(), &[3, 2]);
/// # Ok::<(), rex_tensor::TensorError>(())
/// ```
#[derive(Default)]
pub struct Sequential {
    stages: Vec<Stage>,
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Sequential({} stages)", self.stages.len())
    }
}

impl Sequential {
    /// An empty chain (the identity module).
    pub fn new() -> Self {
        Sequential { stages: Vec::new() }
    }

    /// Appends a module.
    #[must_use]
    pub fn layer(mut self, module: impl Module + 'static) -> Self {
        self.stages.push(Stage::Layer(Box::new(module)));
        self
    }

    /// Appends a pointwise activation.
    #[must_use]
    pub fn activation(mut self, activation: Activation) -> Self {
        self.stages.push(Stage::Activation(activation));
        self
    }

    /// Number of stages (layers + activations).
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// Whether the chain is empty.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }
}

impl Module for Sequential {
    fn forward(&self, g: &mut Graph, x: NodeId) -> Result<NodeId, TensorError> {
        let mut h = x;
        for stage in &self.stages {
            h = match stage {
                Stage::Layer(m) => m.forward(g, h)?,
                Stage::Activation(a) => a.apply(g, h),
            };
        }
        Ok(h)
    }

    fn params(&self) -> Vec<Param> {
        self.stages
            .iter()
            .flat_map(|s| match s {
                Stage::Layer(m) => m.params(),
                Stage::Activation(_) => Vec::new(),
            })
            .collect()
    }

    fn buffers(&self) -> Vec<(String, &std::cell::RefCell<rex_tensor::Tensor>)> {
        self.stages
            .iter()
            .flat_map(|s| match s {
                Stage::Layer(m) => m.buffers(),
                Stage::Activation(_) => Vec::new(),
            })
            .collect()
    }

    fn streams(&self) -> Vec<(String, &std::cell::RefCell<rex_tensor::Prng>)> {
        self.stages
            .iter()
            .flat_map(|s| match s {
                Stage::Layer(m) => m.streams(),
                Stage::Activation(_) => Vec::new(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{BatchNorm, Linear};
    use rex_tensor::{Prng, Tensor};

    #[test]
    fn empty_chain_is_identity() {
        let net = Sequential::new();
        assert!(net.is_empty());
        let mut g = Graph::new(false);
        let x = g.constant(Tensor::ones(&[2, 2]));
        let y = net.forward(&mut g, x).unwrap();
        assert_eq!(y, x);
        assert!(net.params().is_empty());
    }

    #[test]
    fn collects_params_in_order() {
        let mut rng = Prng::new(1);
        let net = Sequential::new()
            .layer(Linear::new("a", 4, 4, &mut rng))
            .activation(Activation::Relu)
            .layer(BatchNorm::new("bn", 4))
            .layer(Linear::new("b", 4, 2, &mut rng));
        assert_eq!(net.len(), 4);
        let names: Vec<String> = net.params().iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            vec!["a.weight", "a.bias", "bn.gamma", "bn.beta", "b.weight", "b.bias"]
        );
    }

    #[test]
    fn trains_like_a_hand_rolled_mlp() {
        let mut rng = Prng::new(2);
        let net = Sequential::new()
            .layer(Linear::new("a", 2, 16, &mut rng))
            .activation(Activation::Tanh)
            .layer(Linear::new("b", 16, 2, &mut rng));
        let x = Tensor::from_vec(vec![0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0, 0.0], &[4, 2]).unwrap();
        let targets = [0usize, 0, 1, 1];
        let mut first = 0.0;
        let mut last = 0.0;
        for step in 0..40 {
            for p in net.params() {
                p.zero_grad();
            }
            let mut g = Graph::new(true);
            let xn = g.constant(x.clone());
            let logits = net.forward(&mut g, xn).unwrap();
            let loss = g.cross_entropy(logits, &targets).unwrap();
            let lv = g.value(loss).item();
            if step == 0 {
                first = lv;
            }
            last = lv;
            g.backward(loss).unwrap();
            for p in net.params() {
                let grad = p.grad();
                p.value_mut().axpy(-0.5, &grad);
            }
        }
        assert!(last < first * 0.5, "{first} -> {last}");
    }
}
