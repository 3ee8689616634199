//! Core trainable layers.

use std::cell::RefCell;

use rex_autograd::{Graph, NodeId, Param};
use rex_tensor::conv::Window;
use rex_tensor::{Prng, Tensor, TensorError};

use crate::module::Module;

/// A fully-connected layer: `y = x W + b` with `x: [N, in]`,
/// `W: [in, out]`.
///
/// Weights are Kaiming-normal initialised (fan-in), biases zero.
#[derive(Debug)]
pub struct Linear {
    weight: Param,
    bias: Option<Param>,
}

impl Linear {
    /// New layer with bias.
    pub fn new(name: &str, in_features: usize, out_features: usize, rng: &mut Prng) -> Self {
        Linear {
            weight: Param::new(
                format!("{name}.weight"),
                rng.kaiming_tensor(&[in_features, out_features], in_features),
            ),
            bias: Some(Param::new(
                format!("{name}.bias"),
                Tensor::zeros(&[out_features]),
            )),
        }
    }

    /// New layer without bias (e.g. before a norm layer).
    pub fn without_bias(
        name: &str,
        in_features: usize,
        out_features: usize,
        rng: &mut Prng,
    ) -> Self {
        Linear {
            weight: Param::new(
                format!("{name}.weight"),
                rng.kaiming_tensor(&[in_features, out_features], in_features),
            ),
            bias: None,
        }
    }

    /// New layer with Xavier-uniform init (for attention/tanh stacks).
    pub fn xavier(name: &str, in_features: usize, out_features: usize, rng: &mut Prng) -> Self {
        Linear {
            weight: Param::new(
                format!("{name}.weight"),
                rng.xavier_tensor(&[in_features, out_features], in_features, out_features),
            ),
            bias: Some(Param::new(
                format!("{name}.bias"),
                Tensor::zeros(&[out_features]),
            )),
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.weight.value().shape()[0]
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.weight.value().shape()[1]
    }
}

impl Module for Linear {
    fn forward(&self, g: &mut Graph, x: NodeId) -> Result<NodeId, TensorError> {
        let w = g.param(&self.weight);
        let y = g.matmul(x, w)?;
        match &self.bias {
            Some(b) => {
                let bn = g.param(b);
                g.add(y, bn)
            }
            None => Ok(y),
        }
    }

    fn params(&self) -> Vec<Param> {
        let mut ps = vec![self.weight.clone()];
        if let Some(b) = &self.bias {
            ps.push(b.clone());
        }
        ps
    }
}

/// A 2-D convolution layer (`[N,C,H,W] → [N,O,OH,OW]`).
#[derive(Debug)]
pub struct Conv2d {
    weight: Param,
    bias: Option<Param>,
    win: Window,
}

impl Conv2d {
    /// New conv layer with bias; Kaiming init over `C·K·K` fan-in.
    pub fn new(
        name: &str,
        in_channels: usize,
        out_channels: usize,
        win: Window,
        rng: &mut Prng,
    ) -> Self {
        let fan_in = in_channels * win.kernel * win.kernel;
        Conv2d {
            weight: Param::new(
                format!("{name}.weight"),
                rng.kaiming_tensor(&[out_channels, in_channels, win.kernel, win.kernel], fan_in),
            ),
            bias: Some(Param::new(
                format!("{name}.bias"),
                Tensor::zeros(&[out_channels]),
            )),
            win,
        }
    }

    /// New conv layer without bias (standard before batch norm).
    pub fn without_bias(
        name: &str,
        in_channels: usize,
        out_channels: usize,
        win: Window,
        rng: &mut Prng,
    ) -> Self {
        let mut c = Conv2d::new(name, in_channels, out_channels, win, rng);
        c.bias = None;
        c
    }

    /// The layer's window geometry.
    pub fn window(&self) -> Window {
        self.win
    }
}

impl Module for Conv2d {
    fn forward(&self, g: &mut Graph, x: NodeId) -> Result<NodeId, TensorError> {
        let w = g.param(&self.weight);
        let b = self.bias.as_ref().map(|b| g.param(b));
        g.conv2d(x, w, b, self.win)
    }

    fn params(&self) -> Vec<Param> {
        let mut ps = vec![self.weight.clone()];
        if let Some(b) = &self.bias {
            ps.push(b.clone());
        }
        ps
    }
}

/// Batch normalisation over the channel axis of `[N,C]` or `[N,C,H,W]`
/// inputs, with running statistics for evaluation mode.
///
/// In training mode ([`Graph::training`] is true) batch statistics are used
/// and the running estimates updated in place (momentum 0.1, PyTorch
/// convention); in eval mode the running estimates are used.
#[derive(Debug)]
pub struct BatchNorm {
    gamma: Param,
    beta: Param,
    running_mean: RefCell<Tensor>,
    running_var: RefCell<Tensor>,
    momentum: f32,
    eps: f32,
}

impl BatchNorm {
    /// New batch norm over `channels`.
    pub fn new(name: &str, channels: usize) -> Self {
        BatchNorm {
            gamma: Param::new(format!("{name}.gamma"), Tensor::ones(&[channels])),
            beta: Param::new(format!("{name}.beta"), Tensor::zeros(&[channels])),
            running_mean: RefCell::new(Tensor::zeros(&[channels])),
            running_var: RefCell::new(Tensor::ones(&[channels])),
            momentum: 0.1,
            eps: 1e-5,
        }
    }

    /// Snapshot of the running mean (for tests/diagnostics).
    pub fn running_mean(&self) -> Tensor {
        self.running_mean.borrow().clone()
    }

    /// Snapshot of the running variance.
    pub fn running_var(&self) -> Tensor {
        self.running_var.borrow().clone()
    }
}

impl Module for BatchNorm {
    fn forward(&self, g: &mut Graph, x: NodeId) -> Result<NodeId, TensorError> {
        let gamma = g.param(&self.gamma);
        let beta = g.param(&self.beta);
        if g.training() {
            let (y, mean, var) = g.batch_norm_train(x, gamma, beta, self.eps)?;
            let mut rm = self.running_mean.borrow_mut();
            let mut rv = self.running_var.borrow_mut();
            for i in 0..rm.len() {
                rm.data_mut()[i] =
                    (1.0 - self.momentum) * rm.data()[i] + self.momentum * mean.data()[i];
                rv.data_mut()[i] =
                    (1.0 - self.momentum) * rv.data()[i] + self.momentum * var.data()[i];
            }
            Ok(y)
        } else {
            g.batch_norm_eval(
                x,
                gamma,
                beta,
                &self.running_mean.borrow(),
                &self.running_var.borrow(),
                self.eps,
            )
        }
    }

    fn params(&self) -> Vec<Param> {
        vec![self.gamma.clone(), self.beta.clone()]
    }

    fn buffers(&self) -> Vec<(String, &RefCell<Tensor>)> {
        let gamma = self.gamma.name();
        let base = gamma.strip_suffix(".gamma").unwrap_or(&gamma);
        vec![
            (format!("{base}.running_mean"), &self.running_mean),
            (format!("{base}.running_var"), &self.running_var),
        ]
    }
}

/// Layer normalisation over the last axis, with learnable affine.
#[derive(Debug)]
pub struct LayerNorm {
    gamma: Param,
    beta: Param,
    eps: f32,
}

impl LayerNorm {
    /// New layer norm over a last axis of size `dim`.
    pub fn new(name: &str, dim: usize) -> Self {
        LayerNorm {
            gamma: Param::new(format!("{name}.gamma"), Tensor::ones(&[dim])),
            beta: Param::new(format!("{name}.beta"), Tensor::zeros(&[dim])),
            eps: 1e-5,
        }
    }
}

impl Module for LayerNorm {
    fn forward(&self, g: &mut Graph, x: NodeId) -> Result<NodeId, TensorError> {
        let gamma = g.param(&self.gamma);
        let beta = g.param(&self.beta);
        g.layer_norm(x, gamma, beta, self.eps)
    }

    fn params(&self) -> Vec<Param> {
        vec![self.gamma.clone(), self.beta.clone()]
    }
}

/// Inverted dropout: in training mode, zeroes each element with probability
/// `p` and scales survivors by `1/(1−p)`; identity in eval mode.
#[derive(Debug)]
pub struct Dropout {
    p: f32,
    rng: RefCell<Prng>,
}

impl Dropout {
    /// New dropout with drop probability `p` and its own RNG stream.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1)`.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "dropout p must be in [0,1), got {p}"
        );
        Dropout {
            p,
            rng: RefCell::new(Prng::new(seed)),
        }
    }
}

impl Module for Dropout {
    fn forward(&self, g: &mut Graph, x: NodeId) -> Result<NodeId, TensorError> {
        if !g.training() || self.p == 0.0 {
            return Ok(x);
        }
        let shape = g.value(x).shape().to_vec();
        let keep = 1.0 - self.p;
        let inv = 1.0 / keep;
        let mut rng = self.rng.borrow_mut();
        let mask_data: Vec<f32> = (0..shape.iter().product())
            .map(|_| if rng.bernoulli(keep) { inv } else { 0.0 })
            .collect();
        drop(rng);
        let mask = g.constant(Tensor::from_vec(mask_data, &shape)?);
        g.mul(x, mask)
    }

    fn params(&self) -> Vec<Param> {
        Vec::new()
    }

    fn streams(&self) -> Vec<(String, &RefCell<Prng>)> {
        vec![("dropout".to_owned(), &self.rng)]
    }
}

/// Token embedding table `[vocab, dim]`, Xavier-initialised.
///
/// Unlike the other layers, the forward pass takes token *indices* rather
/// than a graph node; use [`Embedding::lookup`].
#[derive(Debug)]
pub struct Embedding {
    weight: Param,
}

impl Embedding {
    /// New embedding table.
    pub fn new(name: &str, vocab: usize, dim: usize, rng: &mut Prng) -> Self {
        Embedding {
            weight: Param::new(
                format!("{name}.weight"),
                rng.normal_tensor(&[vocab, dim], 0.0, 0.02),
            ),
        }
    }

    /// Looks up `indices`, producing `[len, dim]`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::AxisOutOfRange`] for out-of-vocabulary
    /// indices.
    pub fn lookup(&self, g: &mut Graph, indices: &[usize]) -> Result<NodeId, TensorError> {
        let w = g.param(&self.weight);
        g.embedding(w, indices)
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.weight.value().shape()[1]
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.weight.value().shape()[0]
    }

    /// All trainable parameters.
    pub fn params(&self) -> Vec<Param> {
        vec![self.weight.clone()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_shapes_and_params() {
        let mut rng = Prng::new(1);
        let l = Linear::new("fc", 4, 3, &mut rng);
        assert_eq!(l.in_features(), 4);
        assert_eq!(l.out_features(), 3);
        assert_eq!(l.num_parameters(), 4 * 3 + 3);
        let mut g = Graph::new(false);
        let x = g.constant(Tensor::ones(&[2, 4]));
        let y = l.forward(&mut g, x).unwrap();
        assert_eq!(g.value(y).shape(), &[2, 3]);
    }

    #[test]
    fn conv_layer_preserves_spatial_with_same_padding() {
        let mut rng = Prng::new(2);
        let c = Conv2d::new("conv", 3, 8, Window::same(3), &mut rng);
        let mut g = Graph::new(false);
        let x = g.constant(Tensor::zeros(&[2, 3, 8, 8]));
        let y = c.forward(&mut g, x).unwrap();
        assert_eq!(g.value(y).shape(), &[2, 8, 8, 8]);
    }

    #[test]
    fn batch_norm_exposes_named_buffer_cells() {
        let bn = BatchNorm::new("stem.bn", 2);
        let bufs = bn.buffers();
        let names: Vec<&str> = bufs.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["stem.bn.running_mean", "stem.bn.running_var"]);
        // writing through the cell is visible to the layer (restore path)
        *bufs[0].1.borrow_mut() = Tensor::from_vec(vec![3.0, 4.0], &[2]).unwrap();
        assert_eq!(bn.running_mean().data(), &[3.0, 4.0]);
        // layers without non-trainable state report none
        let mut rng = Prng::new(3);
        assert!(Linear::new("l", 2, 2, &mut rng).buffers().is_empty());
    }

    #[test]
    fn batch_norm_updates_running_stats_in_training_only() {
        let bn = BatchNorm::new("bn", 2);
        let x = Tensor::from_vec(vec![10.0, 0.0, 12.0, 0.0, 14.0, 0.0], &[3, 2]).unwrap();
        let before = bn.running_mean();
        {
            let mut g = Graph::new(false);
            let xn = g.constant(x.clone());
            bn.forward(&mut g, xn).unwrap();
        }
        assert_eq!(bn.running_mean(), before, "eval must not touch stats");
        {
            let mut g = Graph::new(true);
            let xn = g.constant(x);
            bn.forward(&mut g, xn).unwrap();
        }
        // channel 0 batch mean is 12 -> running mean = 0.9*0 + 0.1*12 = 1.2
        assert!((bn.running_mean().data()[0] - 1.2).abs() < 1e-5);
    }

    #[test]
    fn dropout_identity_in_eval_and_scaling_in_train() {
        let d = Dropout::new(0.5, 99);
        let x = Tensor::ones(&[1000]);
        let mut ge = Graph::new(false);
        let xe = ge.constant(x.clone());
        let ye = d.forward(&mut ge, xe).unwrap();
        assert_eq!(ye, xe);

        let mut gt = Graph::new(true);
        let xt = gt.constant(x);
        let yt = d.forward(&mut gt, xt).unwrap();
        let out = gt.value(yt);
        // survivors are scaled to 2.0; overall mean stays ~1
        let mean = out.mean();
        assert!((mean - 1.0).abs() < 0.15, "dropout mean {mean}");
        assert!(out
            .data()
            .iter()
            .all(|&v| v == 0.0 || (v - 2.0).abs() < 1e-6));
    }

    #[test]
    fn embedding_lookup_shape() {
        let mut rng = Prng::new(3);
        let e = Embedding::new("tok", 10, 4, &mut rng);
        let mut g = Graph::new(false);
        let out = e.lookup(&mut g, &[1, 2, 3, 4, 5, 6]).unwrap();
        assert_eq!(g.value(out).shape(), &[6, 4]);
        assert!(e.lookup(&mut g, &[10]).is_err());
    }

    #[test]
    fn layer_norm_output_rows_standardised() {
        let ln = LayerNorm::new("ln", 4);
        let mut g = Graph::new(true);
        let x = g.constant(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 4]).unwrap());
        let y = ln.forward(&mut g, x).unwrap();
        let v = g.value(y);
        let mean: f32 = v.data().iter().sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-5);
    }
}

/// Group normalisation (Wu & He): channels are split into groups and
/// normalised over (channels-in-group × H × W) per sample, with a
/// per-channel learnable affine. Batch-size independent — the norm of
/// choice when batches are tiny, which budgeted training often forces.
///
/// Implemented as a composition of the graph's layer-norm (with constant
/// affine) over a grouped reshape, followed by the per-channel affine via
/// broadcasting.
#[derive(Debug)]
pub struct GroupNorm {
    gamma: Param,
    beta: Param,
    groups: usize,
    channels: usize,
    eps: f32,
}

impl GroupNorm {
    /// New group norm over `channels` split into `groups`.
    ///
    /// # Panics
    ///
    /// Panics if `groups` is zero or does not divide `channels`.
    pub fn new(name: &str, channels: usize, groups: usize) -> Self {
        assert!(
            groups > 0 && channels.is_multiple_of(groups),
            "channels {channels} must be divisible by groups {groups}"
        );
        GroupNorm {
            gamma: Param::new(format!("{name}.gamma"), Tensor::ones(&[channels, 1, 1])),
            beta: Param::new(format!("{name}.beta"), Tensor::zeros(&[channels, 1, 1])),
            groups,
            channels,
            eps: 1e-5,
        }
    }

    /// Number of groups.
    pub fn groups(&self) -> usize {
        self.groups
    }
}

impl Module for GroupNorm {
    fn forward(&self, g: &mut Graph, x: NodeId) -> Result<NodeId, TensorError> {
        let shape = g.value(x).shape().to_vec();
        if shape.len() != 4 || shape[1] != self.channels {
            return Err(TensorError::RankMismatch {
                expected: "4-D [N,C,H,W] input matching configured channels",
                got: shape,
            });
        }
        let (n, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        let group_size = c / self.groups * h * w;
        // normalise each (sample, group) row with a constant affine
        let rows = g.reshape(x, &[n * self.groups, group_size])?;
        let ones = g.constant(Tensor::ones(&[group_size]));
        let zeros = g.constant(Tensor::zeros(&[group_size]));
        let normed = g.layer_norm(rows, ones, zeros, self.eps)?;
        let back = g.reshape(normed, &[n, c, h, w])?;
        // per-channel affine via broadcasting [C,1,1] over [N,C,H,W]
        let gamma = g.param(&self.gamma);
        let beta = g.param(&self.beta);
        let scaled = g.mul(back, gamma)?;
        g.add(scaled, beta)
    }

    fn params(&self) -> Vec<Param> {
        vec![self.gamma.clone(), self.beta.clone()]
    }
}

#[cfg(test)]
mod group_norm_tests {
    use super::*;
    use rex_autograd::gradcheck::check_gradients;

    #[test]
    fn normalises_per_group() {
        let gn = GroupNorm::new("gn", 4, 2);
        assert_eq!(gn.groups(), 2);
        let mut rng = Prng::new(1);
        let x = rng.normal_tensor(&[2, 4, 3, 3], 2.0, 3.0);
        let mut g = Graph::new(true);
        let xn = g.constant(x);
        let y = gn.forward(&mut g, xn).unwrap();
        let v = g.value(y);
        // each (sample, group) block should have ~zero mean
        for s in 0..2 {
            for grp in 0..2 {
                let mut sum = 0.0f32;
                for ch in (grp * 2)..(grp * 2 + 2) {
                    for p in 0..9 {
                        sum += v.data()[((s * 4 + ch) * 9) + p];
                    }
                }
                assert!((sum / 18.0).abs() < 1e-4, "group mean {}", sum / 18.0);
            }
        }
    }

    #[test]
    fn rejects_mismatched_channels() {
        let gn = GroupNorm::new("gn", 4, 2);
        let mut g = Graph::new(true);
        let x = g.constant(Tensor::zeros(&[1, 6, 2, 2]));
        assert!(gn.forward(&mut g, x).is_err());
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn rejects_indivisible_groups() {
        let _ = GroupNorm::new("gn", 5, 2);
    }

    #[test]
    fn gradcheck_through_group_norm() {
        let gn = GroupNorm::new("gn", 2, 1);
        let mut rng = Prng::new(2);
        let x = Param::new("x", rng.normal_tensor(&[2, 2, 2, 2], 0.0, 1.0));
        let mut params = vec![x.clone()];
        params.extend(gn.params());
        check_gradients(
            &params,
            |g| {
                let xn = g.param(&x);
                let y = gn.forward(g, xn)?;
                let t = g.tanh(y);
                let sq = g.mul(t, t)?;
                g.mean_all(sq)
            },
            1e-2,
            5e-2,
        )
        .unwrap();
    }
}
