//! A multi-layer perceptron: a stack of [`Dense`] layers with a shared
//! forward/backward interface, used for the encoder, decoder and classifier
//! networks of Algorithm 1.

use rand::rngs::StdRng;

use crate::activation::Activation;
use crate::layer::{Dense, DenseGrads, SparseRow};
use crate::matrix::Matrix;
use crate::optimizer::Optimizer;

/// The batch input of an MLP: dense or sparse rows.
#[derive(Debug, Clone, Copy)]
pub enum Input<'a> {
    /// A dense `n × in_dim` batch.
    Dense(&'a Matrix),
    /// Sparse rows (only supported as the input of the *first* layer).
    Sparse(&'a [SparseRow]),
}

impl Input<'_> {
    /// Batch size of the input.
    pub fn batch_size(&self) -> usize {
        match self {
            Input::Dense(m) => m.rows(),
            Input::Sparse(rows) => rows.len(),
        }
    }
}

/// Per-layer activated outputs of one forward pass, consumed by
/// [`Mlp::backward`].
#[derive(Debug, Clone)]
pub struct MlpCache {
    outputs: Vec<Matrix>,
}

impl MlpCache {
    /// The final layer's activated output.
    pub fn output(&self) -> &Matrix {
        // Invariant: `forward_cached` always pushes at least one output.
        self.outputs.last().expect("cache of a forward pass is never empty") // lint:allow(no-panic)
    }
}

/// A stack of fully-connected layers.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Dense>,
}

impl Mlp {
    /// Builds an MLP with the given layer widths: `dims[0]` is the input
    /// dimension, each subsequent entry a layer output. Hidden layers use
    /// `hidden`, the final layer uses `output`.
    ///
    /// # Panics
    ///
    /// Panics if `dims.len() < 2` or any dimension is zero.
    pub fn new(dims: &[usize], hidden: Activation, output: Activation, rng: &mut StdRng) -> Self {
        assert!(dims.len() >= 2, "an MLP needs at least input and output dims");
        let mut layers = Vec::with_capacity(dims.len() - 1);
        for i in 0..dims.len() - 1 {
            let act = if i == dims.len() - 2 { output } else { hidden };
            layers.push(Dense::new(dims[i], dims[i + 1], act, rng));
        }
        Mlp { layers }
    }

    /// Reconstructs an MLP from explicit layers (model deserialization).
    ///
    /// # Errors
    ///
    /// Returns a message if the layer list is empty or consecutive layers'
    /// dimensions do not chain.
    pub fn from_layers(layers: Vec<Dense>) -> Result<Self, String> {
        if layers.is_empty() {
            return Err("an MLP needs at least one layer".into());
        }
        for w in layers.windows(2) {
            if w[0].out_dim() != w[1].in_dim() {
                return Err(format!(
                    "layer dimensions do not chain: {} -> {}",
                    w[0].out_dim(),
                    w[1].in_dim()
                ));
            }
        }
        Ok(Mlp { layers })
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        // Invariant: the constructor rejects an empty layer stack.
        self.layers.first().expect("non-empty").in_dim() // lint:allow(no-panic)
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        // Invariant: the constructor rejects an empty layer stack.
        self.layers.last().expect("non-empty").out_dim() // lint:allow(no-panic)
    }

    /// Total trainable parameters.
    pub fn n_params(&self) -> usize {
        self.layers.iter().map(Dense::n_params).sum()
    }

    /// The layer widths, input first.
    pub fn dims(&self) -> Vec<usize> {
        let mut v = vec![self.in_dim()];
        v.extend(self.layers.iter().map(Dense::out_dim));
        v
    }

    /// Forward pass returning only the final output.
    pub fn forward(&self, input: Input<'_>) -> Matrix {
        let mut cache = self.forward_cached(input);
        // Invariant: `forward_cached` always pushes at least one output.
        cache.outputs.pop().expect("non-empty") // lint:allow(no-panic)
    }

    /// Forward pass retaining every layer's output for backprop.
    ///
    /// # Panics
    ///
    /// Panics on a dimension mismatch between `input` and the first layer.
    pub fn forward_cached(&self, input: Input<'_>) -> MlpCache {
        let mut outputs = Vec::with_capacity(self.layers.len());
        let first = match input {
            Input::Dense(x) => self.layers[0].forward(x),
            Input::Sparse(rows) => self.layers[0].forward_sparse(rows),
        };
        outputs.push(first);
        for layer in &self.layers[1..] {
            // Invariant: the first layer's output was pushed above.
            let next = layer.forward(outputs.last().expect("non-empty")); // lint:allow(no-panic)
            outputs.push(next);
        }
        MlpCache { outputs }
    }

    /// Backward pass: computes all gradients, applies them with `opt` scaled
    /// by `lr_scale`, and returns the gradient w.r.t. the input (or `None`
    /// when the input was sparse).
    ///
    /// `input` and `cache` must come from the matching
    /// [`Mlp::forward_cached`] call.
    pub fn backward(
        &mut self,
        input: Input<'_>,
        cache: &MlpCache,
        d_out: &Matrix,
        opt: &Optimizer,
        lr_scale: f32,
    ) -> Option<Matrix> {
        let (grads, d_input) = self.compute_grads(input, cache, d_out);
        for (layer, g) in self.layers.iter_mut().zip(grads.iter()) {
            layer.apply_grads(g, opt, lr_scale);
        }
        d_input
    }

    /// Computes gradients without applying them (used when two loss paths
    /// must be accumulated before stepping, as in Algorithm 1's encoder).
    pub fn compute_grads(
        &self,
        input: Input<'_>,
        cache: &MlpCache,
        d_out: &Matrix,
    ) -> (Vec<DenseGrads>, Option<Matrix>) {
        assert_eq!(cache.outputs.len(), self.layers.len(), "cache/layer count mismatch");
        let mut grads: Vec<Option<DenseGrads>> = (0..self.layers.len()).map(|_| None).collect();
        // The pass copies the gradient once: each layer scales what it is
        // handed in place and returns the next layer's gradient.
        let mut d = d_out.clone();
        for i in (1..self.layers.len()).rev() {
            let x = &cache.outputs[i - 1];
            let out = &cache.outputs[i];
            let (g, dx) = self.layers[i].backward(x, out, d);
            grads[i] = Some(g);
            d = dx;
        }
        let out0 = &cache.outputs[0];
        let d_input = match input {
            Input::Dense(x) => {
                let (g, dx) = self.layers[0].backward(x, out0, d);
                grads[0] = Some(g);
                Some(dx)
            }
            Input::Sparse(rows) => {
                let g = self.layers[0].backward_sparse(rows, out0, d);
                grads[0] = Some(g);
                None
            }
        };
        // Invariant: the backward loop above fills every slot exactly once.
        // lint:allow(no-panic)
        (grads.into_iter().map(|g| g.expect("all layers visited")).collect(), d_input)
    }

    /// Applies precomputed gradients (companion of [`Mlp::compute_grads`]).
    ///
    /// # Panics
    ///
    /// Panics if `grads.len()` differs from the layer count.
    pub fn apply_grads(&mut self, grads: &[DenseGrads], opt: &Optimizer, lr_scale: f32) {
        self.apply_grads_decayed(grads, opt, lr_scale, 0.0);
    }

    /// Like [`Mlp::apply_grads`] with L2 weight decay on every layer.
    ///
    /// # Panics
    ///
    /// Panics if `grads.len()` differs from the layer count.
    pub fn apply_grads_decayed(
        &mut self,
        grads: &[DenseGrads],
        opt: &Optimizer,
        lr_scale: f32,
        weight_decay: f32,
    ) {
        assert_eq!(grads.len(), self.layers.len(), "gradient/layer count mismatch");
        for (layer, g) in self.layers.iter_mut().zip(grads.iter()) {
            layer.apply_grads_decayed(g, opt, lr_scale, weight_decay);
        }
    }

    /// Immutable access to the layers (tests, serialization).
    pub fn layers(&self) -> &[Dense] {
        &self.layers
    }

    /// Mutable access to the layers (finite-difference tests).
    pub fn layers_mut(&mut self) -> &mut [Dense] {
        &mut self.layers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::{mse_grad, mse_loss};
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(3)
    }

    #[test]
    fn dims_and_params() {
        let mut r = rng();
        let mlp = Mlp::new(&[8, 4, 2], Activation::Relu, Activation::Sigmoid, &mut r);
        assert_eq!(mlp.dims(), vec![8, 4, 2]);
        assert_eq!(mlp.in_dim(), 8);
        assert_eq!(mlp.out_dim(), 2);
        assert_eq!(mlp.n_params(), 8 * 4 + 4 + 4 * 2 + 2);
        assert_eq!(mlp.layers().len(), 2);
    }

    #[test]
    fn forward_cached_output_matches_forward() {
        let mut r = rng();
        let mlp = Mlp::new(&[5, 3, 2], Activation::Tanh, Activation::Identity, &mut r);
        let x = Matrix::from_vec(2, 5, (0..10).map(|i| i as f32 / 10.0).collect());
        let cache = mlp.forward_cached(Input::Dense(&x));
        let direct = mlp.forward(Input::Dense(&x));
        assert_eq!(cache.output().as_slice(), direct.as_slice());
    }

    #[test]
    fn learns_xor() {
        let mut r = rng();
        let mut mlp = Mlp::new(&[2, 8, 1], Activation::Tanh, Activation::Sigmoid, &mut r);
        let x = Matrix::from_vec(4, 2, vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0]);
        let y = Matrix::from_vec(4, 1, vec![0.0, 1.0, 1.0, 0.0]);
        let opt = Optimizer::Adam { lr: 0.05, beta1: 0.9, beta2: 0.999, eps: 1e-8 };
        for _ in 0..800 {
            let cache = mlp.forward_cached(Input::Dense(&x));
            let d = mse_grad(cache.output(), &y);
            mlp.backward(Input::Dense(&x), &cache, &d, &opt, 1.0);
        }
        let out = mlp.forward(Input::Dense(&x));
        let loss = mse_loss(&out, &y);
        assert!(loss < 0.05, "xor loss {loss}");
    }

    #[test]
    fn sparse_input_training_works() {
        let mut r = rng();
        let mut mlp = Mlp::new(&[4, 6, 1], Activation::Relu, Activation::Sigmoid, &mut r);
        // y = 1 iff dimension 0 present.
        let rows: Vec<SparseRow> =
            vec![vec![(0, 1.0)], vec![(1, 1.0)], vec![(0, 1.0), (2, 1.0)], vec![(3, 1.0)]];
        let y = Matrix::from_vec(4, 1, vec![1.0, 0.0, 1.0, 0.0]);
        let opt = Optimizer::Adam { lr: 0.05, beta1: 0.9, beta2: 0.999, eps: 1e-8 };
        for _ in 0..500 {
            let cache = mlp.forward_cached(Input::Sparse(&rows));
            let d = mse_grad(cache.output(), &y);
            let d_in = mlp.backward(Input::Sparse(&rows), &cache, &d, &opt, 1.0);
            assert!(d_in.is_none(), "sparse input produces no input gradient");
        }
        let out = mlp.forward(Input::Sparse(&rows));
        assert!(out.get(0, 0) > 0.8 && out.get(2, 0) > 0.8);
        assert!(out.get(1, 0) < 0.2 && out.get(3, 0) < 0.2);
    }

    /// End-to-end finite-difference check through a 2-layer net.
    #[test]
    fn full_network_gradients_match_finite_differences() {
        let mut r = rng();
        let mut mlp = Mlp::new(&[3, 4, 2], Activation::Tanh, Activation::Sigmoid, &mut r);
        let x = Matrix::from_vec(2, 3, vec![0.2, -0.5, 0.8, -0.1, 0.4, 0.6]);
        let y = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        let cache = mlp.forward_cached(Input::Dense(&x));
        let d_out = mse_grad(cache.output(), &y);
        let (grads, _) = mlp.compute_grads(Input::Dense(&x), &cache, &d_out);
        let loss = |mlp: &Mlp| mse_loss(&mlp.forward(Input::Dense(&x)), &y);
        let eps = 1e-3;
        for li in 0..2 {
            let n = mlp.layers()[li].weights().as_slice().len();
            for wi in (0..n).step_by(3) {
                let orig = mlp.layers()[li].weights().as_slice()[wi];
                mlp.layers_mut()[li].weights_mut().as_mut_slice()[wi] = orig + eps;
                let lp = loss(&mlp);
                mlp.layers_mut()[li].weights_mut().as_mut_slice()[wi] = orig - eps;
                let lm = loss(&mlp);
                mlp.layers_mut()[li].weights_mut().as_mut_slice()[wi] = orig;
                let num = (lp - lm) / (2.0 * eps);
                let ana = grads[li].dw_slice()[wi];
                assert!((num - ana).abs() < 2e-2, "layer {li} w[{wi}]: {num} vs {ana}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least input and output")]
    fn rejects_single_dim() {
        let mut r = rng();
        let _ = Mlp::new(&[4], Activation::Relu, Activation::Relu, &mut r);
    }
}
