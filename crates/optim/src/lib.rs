//! # rex-optim — optimizers for the REX reproduction
//!
//! The two optimizer families the paper evaluates everywhere —
//! [`Sgd`] (with momentum) and [`Adam`]/AdamW — plus gradient-clipping
//! utilities.
//!
//! All optimizers expose **mutable learning rate and momentum**
//! ([`Optimizer::set_lr`], [`Optimizer::set_momentum`]) because in budgeted
//! training the schedule drives them every iteration (and OneCycle drives
//! the momentum too, per the paper's §4.1).
//!
//! ```
//! use rex_optim::{Optimizer, Sgd};
//! use rex_autograd::{Graph, Param};
//! use rex_tensor::Tensor;
//!
//! let w = Param::new("w", Tensor::from_vec(vec![1.0], &[1])?);
//! let mut opt = Sgd::new(vec![w.clone()], 0.1).with_momentum(0.9);
//! // one step of d(w^2)/dw = 2w
//! let mut g = Graph::new(true);
//! let wn = g.param(&w);
//! let sq = g.mul(wn, wn)?;
//! let loss = g.sum_all(sq)?;
//! g.backward(loss)?;
//! opt.step();
//! assert!((w.value().data()[0] - 0.8).abs() < 1e-6);
//! # Ok::<(), rex_tensor::TensorError>(())
//! ```

#![warn(missing_docs)]

use rex_autograd::Param;
use rex_tensor::{DType, Tensor};

/// Common interface of all optimizers.
///
/// An optimizer owns clones of the parameter handles it updates; `step`
/// consumes the gradients accumulated by the last backward pass and
/// `zero_grad` clears them for the next iteration.
pub trait Optimizer {
    /// Applies one update using the currently-accumulated gradients.
    fn step(&mut self);

    /// Clears all parameter gradients.
    fn zero_grad(&self);

    /// Sets the learning rate (called by the schedule every iteration).
    fn set_lr(&mut self, lr: f32);

    /// Current learning rate.
    fn lr(&self) -> f32;

    /// Sets the momentum / β₁ coefficient, if the optimizer has one.
    /// OneCycle uses this to cycle momentum inversely to the LR.
    fn set_momentum(&mut self, _momentum: f32) {}

    /// Current momentum / β₁ coefficient, if any.
    fn momentum(&self) -> Option<f32> {
        None
    }

    /// Sets the parameter *storage* dtype for mixed-precision training.
    ///
    /// All within-step arithmetic stays f32 (the widened stored value is
    /// the master weight), but at the end of every step the parameter
    /// values **and** the optimizer's moment buffers are rounded through
    /// `dtype` (round-to-nearest-even), so the live state is exactly what
    /// a `dtype`-tagged checkpoint serializes — which is what makes
    /// kill→resume→finish bit-identical under f16/bf16 storage. `F32` (the
    /// default) skips rounding entirely, keeping the legacy path
    /// byte-identical. The default trait impl ignores the call.
    fn set_param_dtype(&mut self, _dtype: DType) {}

    /// The parameter storage dtype last set via
    /// [`Optimizer::set_param_dtype`] (`F32` when never set).
    fn param_dtype(&self) -> DType {
        DType::F32
    }

    /// The parameters being optimized.
    fn params(&self) -> &[Param];

    /// Snapshots the optimizer's internal state (velocity / moment
    /// buffers, step counters) for a full training-state checkpoint.
    fn export_state(&self) -> OptimizerState;

    /// Restores internal state captured by [`Optimizer::export_state`].
    /// After a successful import the optimizer continues bit-identically
    /// to one that never stopped.
    ///
    /// # Errors
    ///
    /// Describes the first kind/name/shape mismatch; the optimizer is
    /// left unchanged on error.
    fn import_state(&mut self, state: &OptimizerState) -> Result<(), String>;
}

/// Serializable snapshot of an optimizer's internal state: a kind tag
/// (`"sgd"` / `"adam"`), named scalars (Adam's step count `t`), and named
/// tensors keyed by slot and parameter name (`velocity:w`, `m:w`, `v:w`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OptimizerState {
    /// Optimizer family tag; imports reject a mismatching kind.
    pub kind: String,
    /// Named scalar state (e.g. `("t", steps)` for Adam).
    pub scalars: Vec<(String, f64)>,
    /// Named tensor state, one entry per `slot:param` pair.
    pub tensors: Vec<(String, Tensor)>,
}

impl OptimizerState {
    fn scalar(&self, name: &str) -> Result<f64, String> {
        self.scalars
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("optimizer state has no scalar {name:?}"))
    }

    fn tensor(&self, name: &str, like: &Tensor) -> Result<Tensor, String> {
        let t = self
            .tensors
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, t)| t)
            .ok_or_else(|| format!("optimizer state has no tensor {name:?}"))?;
        if t.shape() != like.shape() {
            return Err(format!(
                "optimizer state tensor {name:?} has shape {:?}, expected {:?}",
                t.shape(),
                like.shape()
            ));
        }
        Ok(t.clone())
    }

    fn check_kind(&self, expected: &str) -> Result<(), String> {
        if self.kind == expected {
            Ok(())
        } else {
            Err(format!(
                "optimizer state is {:?}, expected {expected:?}",
                self.kind
            ))
        }
    }
}

/// Global L2 norm of all accumulated gradients.
pub fn global_grad_norm(params: &[Param]) -> f32 {
    params
        .iter()
        .map(|p| p.grad().sq_norm())
        .sum::<f32>()
        .sqrt()
}

/// Global L2 norm of all parameter values.
pub fn global_param_norm(params: &[Param]) -> f32 {
    params
        .iter()
        .map(|p| p.value().sq_norm())
        .sum::<f32>()
        .sqrt()
}

/// Stochastic gradient descent with optional classical momentum and L2
/// weight decay — "SGDM" throughout the paper's tables.
#[derive(Debug)]
pub struct Sgd {
    params: Vec<Param>,
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    velocity: Vec<Tensor>,
    dtype: DType,
}

impl Sgd {
    /// Plain SGD over `params` with the given learning rate.
    pub fn new(params: Vec<Param>, lr: f32) -> Self {
        let velocity = params
            .iter()
            .map(|p| Tensor::zeros_like(&p.value()))
            .collect();
        Sgd {
            params,
            lr,
            momentum: 0.0,
            velocity,
            weight_decay: 0.0,
            dtype: DType::F32,
        }
    }

    /// Enables classical momentum (the paper's default β = 0.9).
    pub fn with_momentum(mut self, momentum: f32) -> Self {
        self.momentum = momentum;
        self
    }

    /// Enables L2 weight decay (added to the gradient).
    pub fn with_weight_decay(mut self, weight_decay: f32) -> Self {
        self.weight_decay = weight_decay;
        self
    }
}

/// Per-parameter SGD work unit: disjoint `&mut` windows onto the value
/// and velocity storage plus an owned gradient clone, so each parameter
/// updates as an independent task on the thread pool.
struct SgdTask<'a> {
    value: &'a mut [f32],
    velocity: &'a mut [f32],
    grad: Tensor,
}

impl Optimizer for Sgd {
    fn step(&mut self) {
        let (lr, momentum, weight_decay, dtype) =
            (self.lr, self.momentum, self.weight_decay, self.dtype);
        // Gradients are cloned out before the value guards are taken:
        // `Param` keeps value and grad behind one `RefCell`, so `grad()`
        // must not run while a `value_mut()` borrow is live. The guards
        // stay on this thread (Param is not Send); only the raw `&mut`
        // windows travel to the pool.
        let grads: Vec<Tensor> = self.params.iter().map(|p| p.grad()).collect();
        let mut guards: Vec<_> = self.params.iter().map(|p| p.value_mut()).collect();
        let mut tasks: Vec<SgdTask<'_>> = guards
            .iter_mut()
            .zip(self.velocity.iter_mut())
            .zip(grads)
            .map(|((value, velocity), grad)| SgdTask {
                value: value.data_mut(),
                velocity: velocity.data_mut(),
                grad,
            })
            .collect();
        // One parameter per chunk: every float op below matches the serial
        // history exactly, so `step` is bitwise identical at any thread
        // count.
        rex_pool::parallel_for_slices(&mut tasks, 1, |_, _, task| {
            let t = &mut task[0];
            if weight_decay != 0.0 {
                // grad += wd * value
                for (g, &w) in t.grad.data_mut().iter_mut().zip(t.value.iter()) {
                    *g += weight_decay * w;
                }
            }
            if momentum != 0.0 {
                // v = momentum*v + grad; the step follows v
                for (vi, gi) in t.velocity.iter_mut().zip(t.grad.data()) {
                    *vi = momentum * *vi + gi;
                }
                t.grad.data_mut().copy_from_slice(t.velocity);
            }
            // value += -lr * grad_eff
            for (w, &g) in t.value.iter_mut().zip(t.grad.data()) {
                *w += -lr * g;
            }
            // mixed precision: round the stored value and velocity through
            // the storage dtype (per element, so still partition-invariant)
            if dtype != DType::F32 {
                dtype.round_slice(t.value);
                dtype.round_slice(t.velocity);
            }
        });
    }

    fn zero_grad(&self) {
        for p in &self.params {
            p.zero_grad();
        }
    }

    fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn lr(&self) -> f32 {
        self.lr
    }

    fn set_momentum(&mut self, momentum: f32) {
        self.momentum = momentum;
    }

    fn momentum(&self) -> Option<f32> {
        Some(self.momentum)
    }

    fn set_param_dtype(&mut self, dtype: DType) {
        self.dtype = dtype;
    }

    fn param_dtype(&self) -> DType {
        self.dtype
    }

    fn params(&self) -> &[Param] {
        &self.params
    }

    fn export_state(&self) -> OptimizerState {
        OptimizerState {
            kind: "sgd".to_owned(),
            scalars: Vec::new(),
            tensors: self
                .params
                .iter()
                .zip(&self.velocity)
                .map(|(p, v)| (format!("velocity:{}", p.name()), v.clone()))
                .collect(),
        }
    }

    fn import_state(&mut self, state: &OptimizerState) -> Result<(), String> {
        state.check_kind("sgd")?;
        let velocity = self
            .params
            .iter()
            .zip(&self.velocity)
            .map(|(p, old)| state.tensor(&format!("velocity:{}", p.name()), old))
            .collect::<Result<Vec<_>, _>>()?;
        self.velocity = velocity;
        Ok(())
    }
}

/// Adam / AdamW. `Adam::new` gives the coupled-L2 variant used for the
/// vision settings; [`Adam::adamw`] gives decoupled weight decay for the
/// BERT-GLUE fine-tuning setting (as in the paper).
#[derive(Debug)]
pub struct Adam {
    params: Vec<Param>,
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    decoupled: bool,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
    t: u64,
    dtype: DType,
}

impl Adam {
    /// Adam with the standard defaults (β₁ = 0.9, β₂ = 0.999, ε = 1e-8).
    pub fn new(params: Vec<Param>, lr: f32) -> Self {
        let m = params
            .iter()
            .map(|p| Tensor::zeros_like(&p.value()))
            .collect();
        let v = params
            .iter()
            .map(|p| Tensor::zeros_like(&p.value()))
            .collect();
        Adam {
            params,
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            decoupled: false,
            m,
            v,
            t: 0,
            dtype: DType::F32,
        }
    }

    /// AdamW: Adam with decoupled weight decay (Loshchilov & Hutter).
    pub fn adamw(params: Vec<Param>, lr: f32, weight_decay: f32) -> Self {
        let mut a = Adam::new(params, lr);
        a.weight_decay = weight_decay;
        a.decoupled = true;
        a
    }

    /// Sets coupled L2 weight decay (added to the gradient, plain Adam).
    pub fn with_weight_decay(mut self, weight_decay: f32) -> Self {
        self.weight_decay = weight_decay;
        self.decoupled = false;
        self
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }
}

/// Per-parameter Adam work unit (see [`SgdTask`] for the borrow story).
struct AdamTask<'a> {
    value: &'a mut [f32],
    m: &'a mut [f32],
    v: &'a mut [f32],
    grad: Tensor,
}

impl Optimizer for Adam {
    fn step(&mut self) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let (lr, beta1, beta2, eps, weight_decay, decoupled, dtype) = (
            self.lr,
            self.beta1,
            self.beta2,
            self.eps,
            self.weight_decay,
            self.decoupled,
            self.dtype,
        );
        let grads: Vec<Tensor> = self.params.iter().map(|p| p.grad()).collect();
        let mut guards: Vec<_> = self.params.iter().map(|p| p.value_mut()).collect();
        let mut tasks: Vec<AdamTask<'_>> = guards
            .iter_mut()
            .zip(self.m.iter_mut())
            .zip(self.v.iter_mut())
            .zip(grads)
            .map(|(((value, m), v), grad)| AdamTask {
                value: value.data_mut(),
                m: m.data_mut(),
                v: v.data_mut(),
                grad,
            })
            .collect();
        // One parameter per chunk; every per-element float op matches the
        // serial loop exactly, so the update is bitwise identical at any
        // thread count.
        rex_pool::parallel_for_slices(&mut tasks, 1, |_, _, task| {
            let t = &mut task[0];
            if weight_decay != 0.0 && !decoupled {
                // grad += wd * value (coupled L2)
                for (g, &w) in t.grad.data_mut().iter_mut().zip(t.value.iter()) {
                    *g += weight_decay * w;
                }
            }
            for ((mi, vi), gi) in t.m.iter_mut().zip(t.v.iter_mut()).zip(t.grad.data()) {
                *mi = beta1 * *mi + (1.0 - beta1) * gi;
                *vi = beta2 * *vi + (1.0 - beta2) * gi * gi;
            }
            if weight_decay != 0.0 && decoupled {
                let decay = lr * weight_decay;
                for w in t.value.iter_mut() {
                    *w -= decay * *w;
                }
            }
            for ((w, mi), vi) in t.value.iter_mut().zip(t.m.iter()).zip(t.v.iter()) {
                let m_hat = mi / bc1;
                let v_hat = vi / bc2;
                *w -= lr * m_hat / (v_hat.sqrt() + eps);
            }
            // mixed precision: round the stored value and both moment
            // buffers through the storage dtype (per element, so still
            // partition-invariant)
            if dtype != DType::F32 {
                dtype.round_slice(t.value);
                dtype.round_slice(t.m);
                dtype.round_slice(t.v);
            }
        });
    }

    fn zero_grad(&self) {
        for p in &self.params {
            p.zero_grad();
        }
    }

    fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn lr(&self) -> f32 {
        self.lr
    }

    fn set_momentum(&mut self, momentum: f32) {
        self.beta1 = momentum;
    }

    fn momentum(&self) -> Option<f32> {
        Some(self.beta1)
    }

    fn set_param_dtype(&mut self, dtype: DType) {
        self.dtype = dtype;
    }

    fn param_dtype(&self) -> DType {
        self.dtype
    }

    fn params(&self) -> &[Param] {
        &self.params
    }

    fn export_state(&self) -> OptimizerState {
        let mut tensors = Vec::with_capacity(2 * self.params.len());
        for (p, m) in self.params.iter().zip(&self.m) {
            tensors.push((format!("m:{}", p.name()), m.clone()));
        }
        for (p, v) in self.params.iter().zip(&self.v) {
            tensors.push((format!("v:{}", p.name()), v.clone()));
        }
        OptimizerState {
            kind: "adam".to_owned(),
            // t ≤ 2^53 always holds for step counts, so f64 is exact
            scalars: vec![("t".to_owned(), self.t as f64)],
            tensors,
        }
    }

    fn import_state(&mut self, state: &OptimizerState) -> Result<(), String> {
        state.check_kind("adam")?;
        let t = state.scalar("t")?;
        let m = self
            .params
            .iter()
            .zip(&self.m)
            .map(|(p, old)| state.tensor(&format!("m:{}", p.name()), old))
            .collect::<Result<Vec<_>, _>>()?;
        let v = self
            .params
            .iter()
            .zip(&self.v)
            .map(|(p, old)| state.tensor(&format!("v:{}", p.name()), old))
            .collect::<Result<Vec<_>, _>>()?;
        self.m = m;
        self.v = v;
        self.t = t as u64;
        Ok(())
    }
}

/// Rescales all gradients so their global L2 norm is at most `max_norm`;
/// returns the pre-clipping norm. Used by the transformer fine-tuning path.
pub fn clip_grad_norm(params: &[Param], max_norm: f32) -> f32 {
    let total: f32 = params.iter().map(|p| p.grad().sq_norm()).sum();
    let norm = total.sqrt();
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        for p in params {
            let mut g = p.grad_mut();
            for v in g.data_mut() {
                *v *= scale;
            }
        }
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;
    use rex_autograd::Graph;

    fn quadratic_step(w: &Param, opt: &mut dyn Optimizer) -> f32 {
        opt.zero_grad();
        let mut g = Graph::new(true);
        let wn = g.param(w);
        let sq = g.mul(wn, wn).unwrap();
        let loss = g.sum_all(sq).unwrap();
        let lv = g.value(loss).item();
        g.backward(loss).unwrap();
        opt.step();
        lv
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let w = Param::new("w", Tensor::from_vec(vec![5.0, -3.0], &[2]).unwrap());
        let mut opt = Sgd::new(vec![w.clone()], 0.1);
        let mut last = f32::INFINITY;
        for _ in 0..50 {
            last = quadratic_step(&w, &mut opt);
        }
        assert!(last < 1e-3, "SGD failed to converge: {last}");
    }

    #[test]
    fn sgd_momentum_accelerates() {
        let run = |mom: f32, steps: usize| {
            let w = Param::new("w", Tensor::from_vec(vec![5.0], &[1]).unwrap());
            let mut opt = Sgd::new(vec![w.clone()], 0.02).with_momentum(mom);
            let mut last = 0.0;
            for _ in 0..steps {
                last = quadratic_step(&w, &mut opt);
            }
            last
        };
        assert!(run(0.9, 30) < run(0.0, 30));
    }

    #[test]
    fn weight_decay_shrinks_weights_without_gradient() {
        let w = Param::new("w", Tensor::from_vec(vec![1.0], &[1]).unwrap());
        let mut opt = Sgd::new(vec![w.clone()], 0.1).with_weight_decay(0.5);
        // No backward: grad is zero, decay still pulls toward zero.
        opt.step();
        assert!((w.value().data()[0] - (1.0 - 0.1 * 0.5)).abs() < 1e-6);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let w = Param::new("w", Tensor::from_vec(vec![5.0, -3.0], &[2]).unwrap());
        let mut opt = Adam::new(vec![w.clone()], 0.3);
        let mut last = f32::INFINITY;
        for _ in 0..100 {
            last = quadratic_step(&w, &mut opt);
        }
        assert!(last < 1e-2, "Adam failed to converge: {last}");
    }

    #[test]
    fn adam_first_step_size_is_lr() {
        // Bias correction makes the very first Adam step ≈ lr * sign(grad).
        let w = Param::new("w", Tensor::from_vec(vec![5.0], &[1]).unwrap());
        let mut opt = Adam::new(vec![w.clone()], 0.1);
        quadratic_step(&w, &mut opt);
        assert!((w.value().data()[0] - 4.9).abs() < 1e-3);
    }

    #[test]
    fn adamw_decay_is_decoupled() {
        // With zero gradient, AdamW still decays the weight by lr*wd*w.
        let w = Param::new("w", Tensor::from_vec(vec![2.0], &[1]).unwrap());
        let mut opt = Adam::adamw(vec![w.clone()], 0.1, 0.1);
        opt.step(); // grad = 0
        assert!((w.value().data()[0] - 2.0 * (1.0 - 0.01)).abs() < 1e-5);
    }

    #[test]
    fn set_lr_and_momentum_take_effect() {
        let w = Param::new("w", Tensor::from_vec(vec![1.0], &[1]).unwrap());
        let mut opt = Sgd::new(vec![w.clone()], 0.1).with_momentum(0.9);
        opt.set_lr(0.5);
        assert_eq!(opt.lr(), 0.5);
        opt.set_momentum(0.5);
        assert_eq!(opt.momentum(), Some(0.5));

        let mut adam = Adam::new(vec![w], 0.1);
        adam.set_momentum(0.8);
        assert_eq!(adam.momentum(), Some(0.8));
    }

    #[test]
    fn clip_grad_norm_rescales() {
        let w = Param::new("w", Tensor::zeros(&[2]));
        w.accumulate_grad(&Tensor::from_vec(vec![3.0, 4.0], &[2]).unwrap());
        let norm = clip_grad_norm(std::slice::from_ref(&w), 1.0);
        assert!((norm - 5.0).abs() < 1e-6);
        let g = w.grad();
        assert!((g.sq_norm().sqrt() - 1.0).abs() < 1e-5);
        // below the threshold nothing changes
        let norm2 = clip_grad_norm(std::slice::from_ref(&w), 10.0);
        assert!((norm2 - 1.0).abs() < 1e-5);
        assert!((w.grad().sq_norm().sqrt() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn global_norm_helpers() {
        let a = Param::new("a", Tensor::from_vec(vec![3.0], &[1]).unwrap());
        let b = Param::new("b", Tensor::from_vec(vec![4.0], &[1]).unwrap());
        a.accumulate_grad(&Tensor::from_vec(vec![1.0], &[1]).unwrap());
        b.accumulate_grad(&Tensor::from_vec(vec![2.0], &[1]).unwrap());
        let params = [a, b];
        assert!((global_param_norm(&params) - 5.0).abs() < 1e-6);
        assert!((global_grad_norm(&params) - 5.0f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn sgd_state_roundtrip_resumes_bit_identically() {
        let run_ref = || {
            let w = Param::new("w", Tensor::from_vec(vec![5.0, -3.0], &[2]).unwrap());
            let mut opt = Sgd::new(vec![w.clone()], 0.1)
                .with_momentum(0.9)
                .with_weight_decay(0.01);
            for _ in 0..8 {
                quadratic_step(&w, &mut opt);
            }
            let out = w.value().data().to_vec();
            out
        };

        // interrupted variant: export after 4 steps, import into a fresh
        // optimizer over the same values, finish the remaining 4
        let w = Param::new("w", Tensor::from_vec(vec![5.0, -3.0], &[2]).unwrap());
        let mut opt = Sgd::new(vec![w.clone()], 0.1)
            .with_momentum(0.9)
            .with_weight_decay(0.01);
        for _ in 0..4 {
            quadratic_step(&w, &mut opt);
        }
        let state = opt.export_state();
        assert_eq!(state.kind, "sgd");
        let mut opt2 = Sgd::new(vec![w.clone()], 0.1)
            .with_momentum(0.9)
            .with_weight_decay(0.01);
        opt2.import_state(&state).unwrap();
        for _ in 0..4 {
            quadratic_step(&w, &mut opt2);
        }
        assert_eq!(w.value().data(), &run_ref()[..]);
    }

    #[test]
    fn adam_state_roundtrip_resumes_bit_identically() {
        // the bias-correction exponent depends on t, so a resume that
        // dropped the step counter would diverge immediately
        let run_ref = || {
            let w = Param::new("w", Tensor::from_vec(vec![5.0, -3.0], &[2]).unwrap());
            let mut opt = Adam::adamw(vec![w.clone()], 0.1, 0.01);
            for _ in 0..8 {
                quadratic_step(&w, &mut opt);
            }
            let out = w.value().data().to_vec();
            out
        };

        let w = Param::new("w", Tensor::from_vec(vec![5.0, -3.0], &[2]).unwrap());
        let mut opt = Adam::adamw(vec![w.clone()], 0.1, 0.01);
        for _ in 0..4 {
            quadratic_step(&w, &mut opt);
        }
        let state = opt.export_state();
        assert_eq!(state.kind, "adam");
        assert_eq!(state.scalars, vec![("t".to_owned(), 4.0)]);
        let mut opt2 = Adam::adamw(vec![w.clone()], 0.1, 0.01);
        opt2.import_state(&state).unwrap();
        assert_eq!(opt2.steps(), 4);
        for _ in 0..4 {
            quadratic_step(&w, &mut opt2);
        }
        assert_eq!(w.value().data(), &run_ref()[..]);
    }

    #[test]
    fn import_rejects_kind_and_shape_mismatches() {
        let w = Param::new("w", Tensor::from_vec(vec![1.0], &[1]).unwrap());
        let sgd = Sgd::new(vec![w.clone()], 0.1);
        let mut adam = Adam::new(vec![w.clone()], 0.1);
        let err = adam.import_state(&sgd.export_state()).unwrap_err();
        assert!(err.contains("expected \"adam\""), "{err}");

        let wide = Param::new("w", Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap());
        let mut sgd_wide = Sgd::new(vec![wide], 0.1);
        let err = sgd_wide.import_state(&sgd.export_state()).unwrap_err();
        assert!(err.contains("shape"), "{err}");

        let other = Param::new("other", Tensor::from_vec(vec![1.0], &[1]).unwrap());
        let mut sgd_other = Sgd::new(vec![other], 0.1);
        let err = sgd_other.import_state(&sgd.export_state()).unwrap_err();
        assert!(err.contains("no tensor"), "{err}");
    }

    #[test]
    fn zero_grad_clears_all() {
        let w = Param::new("w", Tensor::zeros(&[2]));
        w.accumulate_grad(&Tensor::ones(&[2]));
        let opt = Sgd::new(vec![w.clone()], 0.1);
        opt.zero_grad();
        assert_eq!(w.grad().data(), &[0.0, 0.0]);
    }
}
