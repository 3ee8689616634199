//! Micro residual networks — the CPU-scale analogues of ResNet-20,
//! ResNet-50, and Wide-ResNet-16-8 used by the paper's image-classification
//! settings (see DESIGN.md §2 for the substitution rationale).

use rex_autograd::{Graph, NodeId, Param};
use rex_tensor::conv::Window;
use rex_tensor::{Prng, TensorError};

use crate::layers::{BatchNorm, Conv2d, Linear};
use crate::module::Module;

/// One pre-activation-free basic residual block:
/// `relu(bn2(conv2(relu(bn1(conv1 x)))) + shortcut(x))`.
#[derive(Debug)]
struct BasicBlock {
    conv1: Conv2d,
    bn1: BatchNorm,
    conv2: Conv2d,
    bn2: BatchNorm,
    /// 1×1 strided projection when shape changes, else identity.
    shortcut: Option<(Conv2d, BatchNorm)>,
}

impl BasicBlock {
    fn new(name: &str, in_ch: usize, out_ch: usize, stride: usize, rng: &mut Prng) -> Self {
        let w1 = Window {
            kernel: 3,
            stride,
            padding: 1,
        };
        let w2 = Window::same(3);
        let shortcut = if stride != 1 || in_ch != out_ch {
            let wp = Window {
                kernel: 1,
                stride,
                padding: 0,
            };
            Some((
                Conv2d::without_bias(&format!("{name}.proj"), in_ch, out_ch, wp, rng),
                BatchNorm::new(&format!("{name}.proj_bn"), out_ch),
            ))
        } else {
            None
        };
        BasicBlock {
            conv1: Conv2d::without_bias(&format!("{name}.conv1"), in_ch, out_ch, w1, rng),
            bn1: BatchNorm::new(&format!("{name}.bn1"), out_ch),
            conv2: Conv2d::without_bias(&format!("{name}.conv2"), out_ch, out_ch, w2, rng),
            bn2: BatchNorm::new(&format!("{name}.bn2"), out_ch),
            shortcut,
        }
    }
}

impl Module for BasicBlock {
    fn forward(&self, g: &mut Graph, x: NodeId) -> Result<NodeId, TensorError> {
        let mut h = self.conv1.forward(g, x)?;
        h = self.bn1.forward(g, h)?;
        h = g.relu(h);
        h = self.conv2.forward(g, h)?;
        h = self.bn2.forward(g, h)?;
        let skip = match &self.shortcut {
            Some((conv, bn)) => {
                let p = conv.forward(g, x)?;
                bn.forward(g, p)?
            }
            None => x,
        };
        let sum = g.add(h, skip)?;
        Ok(g.relu(sum))
    }

    fn params(&self) -> Vec<Param> {
        let mut ps = self.conv1.params();
        ps.extend(self.bn1.params());
        ps.extend(self.conv2.params());
        ps.extend(self.bn2.params());
        if let Some((conv, bn)) = &self.shortcut {
            ps.extend(conv.params());
            ps.extend(bn.params());
        }
        ps
    }

    fn buffers(&self) -> Vec<(String, &std::cell::RefCell<rex_tensor::Tensor>)> {
        let mut bs = self.bn1.buffers();
        bs.extend(self.bn2.buffers());
        if let Some((_, bn)) = &self.shortcut {
            bs.extend(bn.buffers());
        }
        bs
    }
}

/// A three-stage residual classifier: stem conv → stages of
/// `BasicBlock`s at widths `w, 2w, 4w` (stride 2 between stages) →
/// global average pool → linear head.
///
/// `MicroResNet::rn20_analog` stands in for ResNet-20/CIFAR-10 and
/// `MicroResNet::rn50_analog` for ResNet-50/ImageNet in the reproduction's
/// scaled-down experiments.
#[derive(Debug)]
pub struct MicroResNet {
    stem: Conv2d,
    stem_bn: BatchNorm,
    blocks: Vec<BasicBlock>,
    head: Linear,
}

impl MicroResNet {
    /// Fully-configurable constructor.
    ///
    /// # Panics
    ///
    /// Panics if `base_width == 0` or any stage has zero blocks.
    pub fn new(
        name: &str,
        in_channels: usize,
        base_width: usize,
        blocks_per_stage: [usize; 3],
        num_classes: usize,
        rng: &mut Prng,
    ) -> Self {
        assert!(base_width > 0, "base width must be positive");
        assert!(
            blocks_per_stage.iter().all(|&b| b > 0),
            "every stage needs at least one block"
        );
        let stem = Conv2d::without_bias(
            &format!("{name}.stem"),
            in_channels,
            base_width,
            Window::same(3),
            rng,
        );
        let stem_bn = BatchNorm::new(&format!("{name}.stem_bn"), base_width);
        let mut blocks = Vec::new();
        let mut in_ch = base_width;
        for (stage, &n) in blocks_per_stage.iter().enumerate() {
            let out_ch = base_width << stage;
            for b in 0..n {
                let stride = if stage > 0 && b == 0 { 2 } else { 1 };
                blocks.push(BasicBlock::new(
                    &format!("{name}.s{stage}b{b}"),
                    in_ch,
                    out_ch,
                    stride,
                    rng,
                ));
                in_ch = out_ch;
            }
        }
        let head = Linear::new(&format!("{name}.head"), in_ch, num_classes, rng);
        MicroResNet {
            stem,
            stem_bn,
            blocks,
            head,
        }
    }

    /// The RN20-CIFAR10 analogue: width 8, one block per stage.
    pub fn rn20_analog(num_classes: usize, seed: u64) -> Self {
        let mut rng = Prng::new(seed);
        MicroResNet::new("rn20", 3, 8, [1, 1, 1], num_classes, &mut rng)
    }

    /// The RN38-CIFAR10 analogue (deeper than the RN20 analogue at the
    /// same width) — the second model of the paper's Table 2.
    pub fn rn38_analog(num_classes: usize, seed: u64) -> Self {
        let mut rng = Prng::new(seed);
        MicroResNet::new("rn38", 3, 8, [2, 2, 2], num_classes, &mut rng)
    }

    /// A deeper/wider variant standing in for ResNet-50 on the synthetic
    /// ImageNet analogue.
    pub fn rn50_analog(num_classes: usize, seed: u64) -> Self {
        let mut rng = Prng::new(seed);
        MicroResNet::new("rn50", 3, 12, [2, 2, 2], num_classes, &mut rng)
    }

    /// Number of residual blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }
}

impl Module for MicroResNet {
    fn forward(&self, g: &mut Graph, x: NodeId) -> Result<NodeId, TensorError> {
        let mut h = self.stem.forward(g, x)?;
        h = self.stem_bn.forward(g, h)?;
        h = g.relu(h);
        for block in &self.blocks {
            h = block.forward(g, h)?;
        }
        let pooled = g.global_avgpool(h)?;
        self.head.forward(g, pooled)
    }

    fn params(&self) -> Vec<Param> {
        let mut ps = self.stem.params();
        ps.extend(self.stem_bn.params());
        for b in &self.blocks {
            ps.extend(b.params());
        }
        ps.extend(self.head.params());
        ps
    }

    fn buffers(&self) -> Vec<(String, &std::cell::RefCell<rex_tensor::Tensor>)> {
        let mut bs = self.stem_bn.buffers();
        for b in &self.blocks {
            bs.extend(b.buffers());
        }
        bs
    }
}

/// Wide residual variant: a [`MicroResNet`] whose base width is multiplied
/// by a widen factor — the WRN-16-8/STL-10 analogue.
#[derive(Debug)]
pub struct MicroWideResNet {
    inner: MicroResNet,
    widen: usize,
}

impl MicroWideResNet {
    /// Builds a wide micro ResNet (base width × `widen`, one block per
    /// stage).
    ///
    /// # Panics
    ///
    /// Panics if `widen == 0`.
    pub fn new(num_classes: usize, widen: usize, seed: u64) -> Self {
        assert!(widen > 0, "widen factor must be positive");
        let mut rng = Prng::new(seed);
        MicroWideResNet {
            inner: MicroResNet::new("wrn", 3, 4 * widen, [1, 1, 1], num_classes, &mut rng),
            widen,
        }
    }

    /// The widen factor.
    pub fn widen_factor(&self) -> usize {
        self.widen
    }
}

impl Module for MicroWideResNet {
    fn forward(&self, g: &mut Graph, x: NodeId) -> Result<NodeId, TensorError> {
        self.inner.forward(g, x)
    }

    fn params(&self) -> Vec<Param> {
        self.inner.params()
    }

    fn buffers(&self) -> Vec<(String, &std::cell::RefCell<rex_tensor::Tensor>)> {
        self.inner.buffers()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rex_tensor::Tensor;

    #[test]
    fn rn20_forward_shape() {
        let m = MicroResNet::rn20_analog(10, 0);
        let mut g = Graph::new(false);
        let x = g.constant(Tensor::zeros(&[2, 3, 16, 16]));
        let y = m.forward(&mut g, x).unwrap();
        assert_eq!(g.value(y).shape(), &[2, 10]);
    }

    #[test]
    fn strided_stages_halve_resolution_twice() {
        let m = MicroResNet::rn20_analog(10, 0);
        assert_eq!(m.num_blocks(), 3);
        // 16x16 input -> 16 -> 8 -> 4; pooled head accepts any spatial size.
        let mut g = Graph::new(false);
        let x = g.constant(Tensor::zeros(&[1, 3, 16, 16]));
        assert!(m.forward(&mut g, x).is_ok());
    }

    #[test]
    fn wide_variant_has_more_parameters() {
        let narrow = MicroWideResNet::new(10, 1, 0);
        let wide = MicroWideResNet::new(10, 4, 0);
        assert!(wide.num_parameters() > 4 * narrow.num_parameters());
        assert_eq!(wide.widen_factor(), 4);
    }

    #[test]
    fn one_sgd_step_reduces_loss_on_fixed_batch() {
        let mut rng = Prng::new(3);
        let m = MicroResNet::rn20_analog(4, 1);
        let x = rng.normal_tensor(&[8, 3, 8, 8], 0.0, 1.0);
        let targets: Vec<usize> = (0..8).map(|i| i % 4).collect();
        let mut first = 0.0;
        let mut last = 0.0;
        for step in 0..8 {
            for p in m.params() {
                p.zero_grad();
            }
            let mut g = Graph::new(true);
            let xn = g.constant(x.clone());
            let logits = m.forward(&mut g, xn).unwrap();
            let loss = g.cross_entropy(logits, &targets).unwrap();
            let lv = g.value(loss).item();
            if step == 0 {
                first = lv;
            }
            last = lv;
            g.backward(loss).unwrap();
            for p in m.params() {
                let grad = p.grad();
                p.value_mut().axpy(-0.1, &grad);
            }
        }
        assert!(last < first, "loss should drop: {first} -> {last}");
    }
}
