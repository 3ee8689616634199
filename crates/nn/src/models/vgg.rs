//! Micro-VGG: the plain (residual-free) CNN analogue of VGG-16 used by the
//! paper's VGG16-CIFAR100 setting.

use rex_autograd::{Graph, NodeId, Param};
use rex_tensor::conv::Window;
use rex_tensor::{Prng, TensorError};

use crate::layers::{Conv2d, Dropout, Linear};
use crate::module::Module;

/// A VGG-style stack: three stages of `conv-relu-conv-relu-maxpool` (no
/// residual connections, no batch norm — matching the plain-CNN code path
/// the paper's VGG-16 setting exercises) followed by a two-layer classifier
/// with dropout.
#[derive(Debug)]
pub struct MicroVgg {
    convs: Vec<Conv2d>,
    fc1: Linear,
    dropout: Dropout,
    fc2: Linear,
    /// Spatial size expected at input (square images).
    input_size: usize,
    /// Flattened feature count entering the classifier.
    flat_features: usize,
}

impl MicroVgg {
    /// Builds the standard micro-VGG for square `input_size`×`input_size`
    /// RGB images.
    ///
    /// # Panics
    ///
    /// Panics if `input_size < 8` (three 2× poolings must leave at least
    /// one pixel).
    pub fn new(num_classes: usize, input_size: usize, seed: u64) -> Self {
        assert!(
            input_size >= 8,
            "input size {input_size} must be at least 8"
        );
        let mut rng = Prng::new(seed);
        let widths = [3usize, 8, 16, 32];
        let mut convs = Vec::new();
        for stage in 0..3 {
            let (ci, co) = (widths[stage], widths[stage + 1]);
            convs.push(Conv2d::new(
                &format!("vgg.s{stage}c0"),
                ci,
                co,
                Window::same(3),
                &mut rng,
            ));
            convs.push(Conv2d::new(
                &format!("vgg.s{stage}c1"),
                co,
                co,
                Window::same(3),
                &mut rng,
            ));
        }
        let final_channels = widths[3];
        let pool = Window {
            kernel: 2,
            stride: 2,
            padding: 0,
        };
        let mut spatial = input_size;
        for _ in 0..3 {
            spatial = pool.out_size(spatial).expect("input size >= 8");
        }
        let flat = final_channels * spatial * spatial;
        MicroVgg {
            convs,
            fc1: Linear::new("vgg.fc1", flat, 64, &mut rng),
            dropout: Dropout::new(0.5, seed ^ 0xD80F_0FF5),
            fc2: Linear::new("vgg.fc2", 64, num_classes, &mut rng),
            input_size,
            flat_features: flat,
        }
    }

    /// The expected square input resolution.
    pub fn input_size(&self) -> usize {
        self.input_size
    }
}

impl Module for MicroVgg {
    fn forward(&self, g: &mut Graph, x: NodeId) -> Result<NodeId, TensorError> {
        let pool = Window {
            kernel: 2,
            stride: 2,
            padding: 0,
        };
        let mut h = x;
        for (i, conv) in self.convs.iter().enumerate() {
            h = conv.forward(g, h)?;
            h = g.relu(h);
            if i % 2 == 1 {
                h = g.maxpool2d(h, pool)?;
            }
        }
        let shape = g.value(h).shape().to_vec();
        let n = shape[0];
        let hflat = g.reshape(h, &[n, self.flat_features])?;
        let mut c = self.fc1.forward(g, hflat)?;
        c = g.relu(c);
        c = self.dropout.forward(g, c)?;
        self.fc2.forward(g, c)
    }

    fn params(&self) -> Vec<Param> {
        let mut ps: Vec<Param> = self.convs.iter().flat_map(Conv2d::params).collect();
        ps.extend(self.fc1.params());
        ps.extend(self.fc2.params());
        ps
    }

    fn streams(&self) -> Vec<(String, &std::cell::RefCell<Prng>)> {
        self.dropout
            .streams()
            .into_iter()
            .map(|(name, cell)| (format!("vgg.{name}"), cell))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rex_tensor::Tensor;

    #[test]
    fn forward_shape_cifar_like() {
        let m = MicroVgg::new(100, 16, 0);
        let mut g = Graph::new(false);
        let x = g.constant(Tensor::zeros(&[2, 3, 16, 16]));
        let y = m.forward(&mut g, x).unwrap();
        assert_eq!(g.value(y).shape(), &[2, 100]);
    }

    #[test]
    #[should_panic(expected = "at least 8")]
    fn rejects_bad_input_size() {
        let _ = MicroVgg::new(10, 4, 0);
    }

    #[test]
    fn forward_works_for_non_multiple_of_eight() {
        let m = MicroVgg::new(10, 12, 0);
        let mut g = Graph::new(false);
        let x = g.constant(Tensor::zeros(&[2, 3, 12, 12]));
        let y = m.forward(&mut g, x).unwrap();
        assert_eq!(g.value(y).shape(), &[2, 10]);
    }

    #[test]
    fn has_six_conv_layers() {
        let m = MicroVgg::new(10, 16, 0);
        // 6 convs * 2 params + 2 fcs * 2 params
        assert_eq!(m.params().len(), 16);
    }

    #[test]
    fn dropout_only_active_in_training() {
        let m = MicroVgg::new(10, 16, 7);
        let mut rng = Prng::new(9);
        let x = rng.normal_tensor(&[1, 3, 16, 16], 0.0, 1.0);
        let run = |training: bool| {
            let mut g = Graph::new(training);
            let xn = g.constant(x.clone());
            let y = m.forward(&mut g, xn).unwrap();
            g.value(y).clone()
        };
        // eval is deterministic
        assert_eq!(run(false), run(false));
        // train differs from eval (dropout mask)
        assert_ne!(run(true), run(false));
    }
}
