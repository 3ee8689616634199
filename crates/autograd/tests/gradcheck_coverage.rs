//! Targeted gradient-check coverage for the composite paths the unit
//! suites exercise only indirectly:
//!
//! * multi-head attention — the longest op chain in the repo (three
//!   projections, head split/merge permutes, batched matmuls, scaled
//!   softmax, output projection);
//! * checkpoint round-trips — restored parameters must reproduce the
//!   original gradients exactly;
//! * conv2d backward through the im2col transform at the window
//!   geometries the models actually use beyond the "same" default:
//!   strided, 1×1, and over-padded.

use rex_autograd::gradcheck::check_gradients;
use rex_autograd::{Graph, NodeId, Param};
use rex_nn::{checkpoint, Module, MultiHeadAttention};
use rex_tensor::conv::Window;
use rex_tensor::{DType, Prng, Tensor, TensorError};

fn param(rng: &mut Prng, name: &str, shape: &[usize], std: f32) -> Param {
    Param::new(name, rng.normal_tensor(shape, 0.0, std))
}

/// mean(tanh(x)²): bounded values keep finite differences accurate.
fn to_loss(g: &mut Graph, x: NodeId) -> Result<NodeId, TensorError> {
    let t = g.tanh(x);
    let sq = g.mul(t, t)?;
    g.mean_all(sq)
}

#[test]
fn gradcheck_multi_head_attention() {
    let mut rng = Prng::new(31);
    let attn = MultiHeadAttention::new("attn", 4, 2, &mut rng);
    let x = rng.normal_tensor(&[2, 3, 4], 0.0, 1.0);
    check_gradients(
        &attn.params(),
        |g| {
            let xn = g.constant(x.clone());
            let y = attn.forward(g, xn)?;
            to_loss(g, y)
        },
        1e-2,
        2e-2,
    )
    .unwrap();
}

#[test]
fn gradcheck_single_head_attention_degenerate_case() {
    // heads == dim: every head attends over scalars, exercising the
    // Dh == 1 corner of the split/merge reshapes
    let mut rng = Prng::new(32);
    let attn = MultiHeadAttention::new("attn1", 3, 3, &mut rng);
    let x = rng.normal_tensor(&[1, 4, 3], 0.0, 1.0);
    check_gradients(
        &attn.params(),
        |g| {
            let xn = g.constant(x.clone());
            let y = attn.forward(g, xn)?;
            to_loss(g, y)
        },
        1e-2,
        2e-2,
    )
    .unwrap();
}

#[test]
fn gradients_survive_checkpoint_roundtrip() {
    let mut rng = Prng::new(33);
    let attn = MultiHeadAttention::new("ck", 4, 2, &mut rng);
    let params = attn.params();
    let x = rng.normal_tensor(&[2, 3, 4], 0.0, 1.0);

    let grads_of = |ps: &[Param]| -> Vec<Vec<f32>> {
        for p in ps {
            p.zero_grad();
        }
        let mut g = Graph::new(true);
        let xn = g.constant(x.clone());
        let y = attn.forward(&mut g, xn).unwrap();
        let loss = to_loss(&mut g, y).unwrap();
        g.backward(loss).unwrap();
        ps.iter().map(|p| p.grad().data().to_vec()).collect()
    };

    let values_before: Vec<Vec<f32>> = params.iter().map(|p| p.value().data().to_vec()).collect();
    let grads_before = grads_of(&params);

    let entries: Vec<(String, Tensor)> = params
        .iter()
        .map(|p| (p.name(), p.value().clone()))
        .collect();
    let bytes = checkpoint::encode_entries_dtype(&entries, DType::F32);
    // clobber every value, then restore from the encoded entries
    for p in &params {
        let shape = p.value().shape().to_vec();
        let junk = Tensor::from_vec(vec![0.123f32; p.len()], &shape).unwrap();
        *p.value_mut() = junk;
    }
    let restored = checkpoint::decode_entries_dtype(&bytes, DType::F32).unwrap();
    checkpoint::restore_params(&restored, &params).unwrap();

    // the f32 payload round-trips bit-exactly, so values AND the gradients
    // recomputed from them must be identical — and still pass gradcheck
    for (p, before) in params.iter().zip(&values_before) {
        assert_eq!(p.value().data(), &before[..], "{} values drifted", p.name());
    }
    assert_eq!(grads_of(&params), grads_before, "gradients drifted");
    check_gradients(
        &params,
        |g| {
            let xn = g.constant(x.clone());
            let y = attn.forward(g, xn)?;
            to_loss(g, y)
        },
        1e-2,
        2e-2,
    )
    .unwrap();
}

/// conv2d through im2col with a stride-2, no-padding window — output
/// windows do not tile the input, so col2im must scatter-add correctly.
#[test]
fn gradcheck_conv2d_strided_no_padding() {
    let mut rng = Prng::new(34);
    let x = param(&mut rng, "x", &[2, 2, 5, 5], 1.0);
    let w = param(&mut rng, "w", &[3, 2, 3, 3], 0.5);
    let b = param(&mut rng, "b", &[3], 0.5);
    let win = Window {
        kernel: 3,
        stride: 2,
        padding: 0,
    };
    check_gradients(
        &[x.clone(), w.clone(), b.clone()],
        |g| {
            let xn = g.param(&x);
            let wn = g.param(&w);
            let bn = g.param(&b);
            let c = g.conv2d(xn, wn, Some(bn), win)?;
            to_loss(g, c)
        },
        1e-2,
        3e-2,
    )
    .unwrap();
}

/// 1×1 convolution — im2col degenerates to a pure channel mixing matmul
/// (the ResNet shortcut-projection case), with no bias.
#[test]
fn gradcheck_conv2d_1x1_projection() {
    let mut rng = Prng::new(35);
    let x = param(&mut rng, "x", &[2, 3, 4, 4], 1.0);
    let w = param(&mut rng, "w", &[4, 3, 1, 1], 0.5);
    let win = Window {
        kernel: 1,
        stride: 1,
        padding: 0,
    };
    check_gradients(
        &[x.clone(), w.clone()],
        |g| {
            let xn = g.param(&x);
            let wn = g.param(&w);
            let c = g.conv2d(xn, wn, None, win)?;
            to_loss(g, c)
        },
        1e-2,
        3e-2,
    )
    .unwrap();
}

/// Padding larger than kernel/2 — every border window reaches into the
/// zero halo, so the col2im scatter must drop out-of-range taps instead
/// of wrapping.
#[test]
fn gradcheck_conv2d_overpadded_strided() {
    let mut rng = Prng::new(36);
    let x = param(&mut rng, "x", &[1, 2, 4, 4], 1.0);
    let w = param(&mut rng, "w", &[2, 2, 3, 3], 0.5);
    let b = param(&mut rng, "b", &[2], 0.5);
    let win = Window {
        kernel: 3,
        stride: 2,
        padding: 2,
    };
    check_gradients(
        &[x.clone(), w.clone(), b.clone()],
        |g| {
            let xn = g.param(&x);
            let wn = g.param(&w);
            let bn = g.param(&b);
            let c = g.conv2d(xn, wn, Some(bn), win)?;
            to_loss(g, c)
        },
        1e-2,
        3e-2,
    )
    .unwrap();
}
