use rex_autograd::{Graph, NodeId, Param};
use rex_tensor::{Prng, Tensor, TensorError};
use std::cell::RefCell;

/// A differentiable component: builds its forward computation onto a
/// caller-supplied [`Graph`] and exposes its trainable parameters.
///
/// Training/eval mode is a property of the graph
/// ([`Graph::training`]), not the module — so a model is immutable during
/// both phases apart from interior-mutable bookkeeping (batch-norm running
/// statistics, dropout RNG state).
pub trait Module {
    /// Appends this module's forward computation for input node `x`.
    ///
    /// # Errors
    ///
    /// Returns a [`TensorError`] when `x`'s shape is incompatible with the
    /// module's configuration.
    fn forward(&self, g: &mut Graph, x: NodeId) -> Result<NodeId, TensorError>;

    /// All trainable parameters, in a deterministic order.
    fn params(&self) -> Vec<Param>;

    /// Non-trainable state tensors as `(name, cell)` pairs, in a
    /// deterministic order — batch-norm running statistics and the like.
    /// They receive no gradients but shape eval-mode inference, so
    /// training-state snapshots must save and restore them alongside the
    /// parameters. Composite modules concatenate their children's
    /// buffers. Default: none.
    fn buffers(&self) -> Vec<(String, &RefCell<Tensor>)> {
        Vec::new()
    }

    /// Private random streams as `(name, cell)` pairs, in a deterministic
    /// order — dropout masks and the like. Training draws from them, so
    /// training-state snapshots must save and restore their positions for
    /// a resumed run to draw what the uninterrupted run would have.
    /// Composite modules concatenate their children's streams. Default:
    /// none.
    fn streams(&self) -> Vec<(String, &RefCell<Prng>)> {
        Vec::new()
    }

    /// Total number of trainable scalars.
    fn num_parameters(&self) -> usize {
        self.params().iter().map(Param::len).sum()
    }
}

/// A pointwise nonlinearity, selectable per layer.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum Activation {
    /// Rectified linear unit.
    Relu,
    /// Leaky ReLU with the given negative slope.
    LeakyRelu(f32),
    /// GELU (tanh approximation) — used in the transformer.
    Gelu,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
    /// Identity (no activation).
    Identity,
}

impl Activation {
    /// Applies the activation to node `x`.
    pub fn apply(self, g: &mut Graph, x: NodeId) -> NodeId {
        match self {
            Activation::Relu => g.relu(x),
            Activation::LeakyRelu(a) => g.leaky_relu(x, a),
            Activation::Gelu => g.gelu(x),
            Activation::Tanh => g.tanh(x),
            Activation::Sigmoid => g.sigmoid(x),
            Activation::Identity => x,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rex_tensor::Tensor;

    #[test]
    fn activations_apply_expected_functions() {
        let mut g = Graph::new(false);
        let x = g.constant(Tensor::from_vec(vec![-1.0, 0.0, 2.0], &[3]).unwrap());
        let r = Activation::Relu.apply(&mut g, x);
        assert_eq!(g.value(r).data(), &[0.0, 0.0, 2.0]);
        let l = Activation::LeakyRelu(0.5).apply(&mut g, x);
        assert_eq!(g.value(l).data(), &[-0.5, 0.0, 2.0]);
        let i = Activation::Identity.apply(&mut g, x);
        assert_eq!(i, x);
    }
}
