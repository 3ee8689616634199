//! Variational autoencoder — the image-generation setting (VAE-MNIST
//! analogue). The paper reports the generalization *loss* (negative ELBO),
//! which is exactly what [`Vae::elbo`] produces.

use std::cell::RefCell;

use rex_autograd::{Graph, NodeId, Param};
use rex_tensor::{Prng, Tensor, TensorError};

use crate::layers::Linear;
use crate::losses::gaussian_kl;
use crate::module::Module;

/// A dense VAE with a diagonal-Gaussian latent and Bernoulli likelihood:
///
/// * encoder `x → relu → (μ, log σ²)`
/// * reparameterised latent `z = μ + σ·ε`, `ε ~ N(0, I)`
/// * decoder `z → relu → logits`, reconstruction scored with
///   numerically-stable BCE-with-logits
/// * loss = per-sample reconstruction (summed over pixels) + KL.
#[derive(Debug)]
pub struct Vae {
    enc: Linear,
    mu_head: Linear,
    logvar_head: Linear,
    dec1: Linear,
    dec2: Linear,
    rng: RefCell<Prng>,
    input_dim: usize,
    latent_dim: usize,
}

impl Vae {
    /// New VAE for flattened inputs of `input_dim` pixels in `[0, 1]`.
    pub fn new(input_dim: usize, hidden: usize, latent: usize, seed: u64) -> Self {
        let mut rng = Prng::new(seed);
        Vae {
            enc: Linear::new("vae.enc", input_dim, hidden, &mut rng),
            mu_head: Linear::new("vae.mu", hidden, latent, &mut rng),
            logvar_head: Linear::new("vae.logvar", hidden, latent, &mut rng),
            dec1: Linear::new("vae.dec1", latent, hidden, &mut rng),
            dec2: Linear::new("vae.dec2", hidden, input_dim, &mut rng),
            rng: RefCell::new(Prng::new(seed ^ 0x5EED_BEEF)),
            input_dim,
            latent_dim: latent,
        }
    }

    /// The reparameterisation-noise stream as a `(name, cell)` pair — what
    /// a training-state snapshot saves so a resumed run samples the same
    /// latents (see [`Module::streams`]).
    pub fn streams(&self) -> Vec<(String, &RefCell<Prng>)> {
        vec![("vae.eps".to_owned(), &self.rng)]
    }

    /// Latent dimensionality.
    pub fn latent_dim(&self) -> usize {
        self.latent_dim
    }

    /// Input dimensionality (flattened pixels).
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Builds the negative ELBO for a batch `x: [N, D]` of pixels in
    /// `[0, 1]` and returns the scalar loss node.
    ///
    /// In training mode the latent is sampled via the reparameterisation
    /// trick; in eval mode `z = μ` (the standard deterministic evaluation),
    /// making validation losses noise-free.
    ///
    /// # Errors
    ///
    /// Returns a [`TensorError`] if `x` is not `[N, input_dim]`.
    pub fn elbo(&self, g: &mut Graph, x: &Tensor) -> Result<NodeId, TensorError> {
        if x.ndim() != 2 || x.shape()[1] != self.input_dim {
            return Err(TensorError::RankMismatch {
                expected: "2-D [N, input_dim] batch",
                got: x.shape().to_vec(),
            });
        }
        let n = x.shape()[0];
        let xn = g.constant(x.clone());
        let h = self.enc.forward(g, xn)?;
        let h = g.relu(h);
        let mu = self.mu_head.forward(g, h)?;
        let logvar = self.logvar_head.forward(g, h)?;

        let z = if g.training() {
            let eps = self
                .rng
                .borrow_mut()
                .normal_tensor(&[n, self.latent_dim], 0.0, 1.0);
            let epsn = g.constant(eps);
            let half_logvar = g.scale(logvar, 0.5);
            let sigma = g.exp(half_logvar);
            let noise = g.mul(sigma, epsn)?;
            g.add(mu, noise)?
        } else {
            mu
        };

        let d = self.dec1.forward(g, z)?;
        let d = g.relu(d);
        let logits = self.dec2.forward(g, d)?;

        // BCE-with-logits is a mean over all N*D elements; scale by D to get
        // the per-sample pixel *sum* the VAE literature (and the paper's
        // Table 7) reports.
        let bce_mean = g.bce_with_logits(logits, x)?;
        let recon = g.scale(bce_mean, self.input_dim as f32);
        let kl = gaussian_kl(g, mu, logvar)?;
        g.add(recon, kl)
    }

    /// Deterministic reconstruction (eval path): encode to `μ`, decode, and
    /// squash through a sigmoid. Used by the image-generation example.
    ///
    /// # Errors
    ///
    /// Returns a [`TensorError`] if `x` is not `[N, input_dim]`.
    pub fn reconstruct(&self, x: &Tensor) -> Result<Tensor, TensorError> {
        let mut g = Graph::new(false);
        let xn = g.constant(x.clone());
        let h = self.enc.forward(&mut g, xn)?;
        let h = g.relu(h);
        let mu = self.mu_head.forward(&mut g, h)?;
        let d = self.dec1.forward(&mut g, mu)?;
        let d = g.relu(d);
        let logits = self.dec2.forward(&mut g, d)?;
        let out = g.sigmoid(logits);
        Ok(g.value(out).clone())
    }

    /// Decodes latent samples `z: [N, latent]` into pixel probabilities —
    /// generation from the prior.
    ///
    /// # Errors
    ///
    /// Returns a [`TensorError`] if `z` is not `[N, latent_dim]`.
    pub fn generate(&self, z: &Tensor) -> Result<Tensor, TensorError> {
        if z.ndim() != 2 || z.shape()[1] != self.latent_dim {
            return Err(TensorError::RankMismatch {
                expected: "2-D [N, latent_dim] batch",
                got: z.shape().to_vec(),
            });
        }
        let mut g = Graph::new(false);
        let zn = g.constant(z.clone());
        let d = self.dec1.forward(&mut g, zn)?;
        let d = g.relu(d);
        let logits = self.dec2.forward(&mut g, d)?;
        let out = g.sigmoid(logits);
        Ok(g.value(out).clone())
    }

    /// All trainable parameters.
    pub fn params(&self) -> Vec<Param> {
        let mut ps = self.enc.params();
        ps.extend(self.mu_head.params());
        ps.extend(self.logvar_head.params());
        ps.extend(self.dec1.params());
        ps.extend(self.dec2.params());
        ps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elbo_is_finite_scalar() {
        let vae = Vae::new(16, 32, 4, 0);
        let mut rng = Prng::new(1);
        let x = rng.uniform_tensor(&[3, 16], 0.0, 1.0);
        let mut g = Graph::new(true);
        let loss = vae.elbo(&mut g, &x).unwrap();
        let v = g.value(loss).item();
        assert!(v.is_finite() && v > 0.0, "loss {v}");
    }

    #[test]
    fn eval_elbo_deterministic_train_stochastic() {
        let vae = Vae::new(16, 32, 4, 0);
        let mut rng = Prng::new(2);
        let x = rng.uniform_tensor(&[2, 16], 0.0, 1.0);
        let eval_loss = |vae: &Vae| {
            let mut g = Graph::new(false);
            let l = vae.elbo(&mut g, &x).unwrap();
            g.value(l).item()
        };
        assert_eq!(eval_loss(&vae), eval_loss(&vae));
        let train_loss = |vae: &Vae| {
            let mut g = Graph::new(true);
            let l = vae.elbo(&mut g, &x).unwrap();
            g.value(l).item()
        };
        // reparameterisation noise makes consecutive train losses differ
        assert_ne!(train_loss(&vae), train_loss(&vae));
    }

    #[test]
    fn training_reduces_elbo() {
        let vae = Vae::new(16, 32, 4, 3);
        let mut rng = Prng::new(4);
        // a fixed "dataset" of two patterns
        let x = Tensor::from_vec(
            (0..32)
                .map(|i| if (i / 4) % 2 == 0 { 1.0 } else { 0.0 })
                .collect(),
            &[2, 16],
        )
        .unwrap();
        let _ = &mut rng;
        let mut first = 0.0;
        let mut last = 0.0;
        for step in 0..40 {
            for p in vae.params() {
                p.zero_grad();
            }
            let mut g = Graph::new(true);
            let loss = vae.elbo(&mut g, &x).unwrap();
            let lv = g.value(loss).item();
            if step == 0 {
                first = lv;
            }
            last = lv;
            g.backward(loss).unwrap();
            for p in vae.params() {
                let grad = p.grad();
                p.value_mut().axpy(-0.02, &grad);
            }
        }
        assert!(last < first, "ELBO should drop: {first} -> {last}");
    }

    #[test]
    fn reconstruct_and_generate_shapes() {
        let vae = Vae::new(16, 8, 4, 0);
        let mut rng = Prng::new(5);
        let x = rng.uniform_tensor(&[3, 16], 0.0, 1.0);
        let r = vae.reconstruct(&x).unwrap();
        assert_eq!(r.shape(), &[3, 16]);
        assert!(r.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
        let z = rng.normal_tensor(&[2, 4], 0.0, 1.0);
        assert_eq!(vae.generate(&z).unwrap().shape(), &[2, 16]);
        assert!(vae.generate(&x).is_err());
    }

    #[test]
    fn param_count_matches_architecture() {
        let vae = Vae::new(10, 6, 2, 0);
        let count: usize = vae.params().iter().map(|p| p.len()).sum();
        let expected = (10 * 6 + 6) + 2 * (6 * 2 + 2) + (2 * 6 + 6) + (6 * 10 + 10);
        assert_eq!(count, expected);
    }
}
