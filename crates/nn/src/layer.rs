//! Fully-connected layers with dense and sparse-input paths.
//!
//! JOCs are highly sparse, so the first encoder layer accepts sparse rows
//! (`(dimension, value)` pairs): both its forward pass and its weight
//! gradient then cost O(nnz · out) instead of O(in · out), which is what
//! makes training on wide STDs tractable on one core.

use rand::prelude::*;
use rand::rngs::StdRng;

use crate::activation::Activation;
use crate::matrix::Matrix;
use crate::optimizer::{Optimizer, ParamState};

/// One sparse input row: sorted-or-not `(dimension, value)` pairs.
pub type SparseRow = Vec<(usize, f32)>;

/// A fully-connected layer `A = act(X·W + b)`.
#[derive(Debug, Clone)]
pub struct Dense {
    w: Matrix, // in × out
    b: Vec<f32>,
    activation: Activation,
    w_state: ParamState,
    b_state: ParamState,
}

/// Gradients of one dense layer for one batch.
#[derive(Debug, Clone)]
pub struct DenseGrads {
    dw: Matrix,
    db: Vec<f32>,
}

impl DenseGrads {
    /// The weight gradient, row-major (`in × out`).
    pub fn dw_slice(&self) -> &[f32] {
        self.dw.as_slice()
    }

    /// Accumulates `other * scale` into this gradient.
    ///
    /// # Panics
    ///
    /// Panics on a shape mismatch.
    pub fn add_scaled(&mut self, other: &DenseGrads, scale: f32) {
        self.dw.add_scaled(&other.dw, scale);
        assert_eq!(self.db.len(), other.db.len(), "bias gradient length mismatch");
        for (a, &b) in self.db.iter_mut().zip(other.db.iter()) {
            *a += scale * b;
        }
    }
}

impl Dense {
    /// Creates a layer with Xavier/Glorot-uniform weights and zero biases.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(in_dim: usize, out_dim: usize, activation: Activation, rng: &mut StdRng) -> Self {
        assert!(in_dim > 0 && out_dim > 0, "layer dimensions must be positive");
        let limit = (6.0 / (in_dim + out_dim) as f32).sqrt();
        let data = (0..in_dim * out_dim).map(|_| rng.gen_range(-limit..limit)).collect();
        Dense {
            w: Matrix::from_vec(in_dim, out_dim, data),
            b: vec![0.0; out_dim],
            activation,
            w_state: ParamState::default(),
            b_state: ParamState::default(),
        }
    }

    /// Reconstructs a layer from explicit weights, biases and activation
    /// (model deserialization). Optimizer state starts fresh.
    ///
    /// # Errors
    ///
    /// Returns a message if `b.len()` does not match the weight columns.
    pub fn from_parts(w: Matrix, b: Vec<f32>, activation: Activation) -> Result<Self, String> {
        if b.len() != w.cols() {
            return Err(format!("bias length {} != output dim {}", b.len(), w.cols()));
        }
        Ok(Dense {
            w,
            b,
            activation,
            w_state: ParamState::default(),
            b_state: ParamState::default(),
        })
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.w.rows()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.w.cols()
    }

    /// The layer's activation.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Number of trainable parameters.
    pub fn n_params(&self) -> usize {
        self.w.rows() * self.w.cols() + self.b.len()
    }

    /// Forward pass on a dense batch (`n × in` → `n × out`).
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != in_dim`.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut z = x.matmul(&self.w);
        z.add_row_vector(&self.b);
        z.map_inplace(|v| self.activation.apply(v));
        z
    }

    /// Forward pass on sparse rows.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or an index exceeds `in_dim`.
    pub fn forward_sparse(&self, rows: &[SparseRow]) -> Matrix {
        assert!(!rows.is_empty(), "empty batch");
        let out_dim = self.out_dim();
        let mut z = Matrix::zeros(rows.len(), out_dim);
        for (i, row) in rows.iter().enumerate() {
            let zrow = z.row_mut(i);
            zrow.copy_from_slice(&self.b);
            for &(d, v) in row {
                assert!(d < self.w.rows(), "sparse index {d} exceeds input dim {}", self.w.rows());
                let wrow = self.w.row(d);
                for (o, &w) in zrow.iter_mut().zip(wrow.iter()) {
                    *o += v * w;
                }
            }
        }
        z.map_inplace(|v| self.activation.apply(v));
        z
    }

    /// Backward pass on a dense batch.
    ///
    /// Given the layer input `x`, the activated output `out` (from
    /// [`Dense::forward`]) and the gradient `d_out` w.r.t. that output,
    /// returns the parameter gradients and the gradient w.r.t. `x`.
    /// `d_out` is consumed: it is scaled into the pre-activation gradient
    /// in place.
    pub fn backward(&self, x: &Matrix, out: &Matrix, d_out: Matrix) -> (DenseGrads, Matrix) {
        let dz = self.dz(out, d_out);
        let dw = x.matmul_transpose_self(&dz);
        let db = dz.column_sums();
        let dx = dz.matmul_transpose_other(&self.w);
        (DenseGrads { dw, db }, dx)
    }

    /// Backward pass for a sparse input batch, consuming `d_out` as
    /// [`Dense::backward`] does. No input gradient is produced (the input
    /// layer has nothing upstream).
    pub fn backward_sparse(&self, rows: &[SparseRow], out: &Matrix, d_out: Matrix) -> DenseGrads {
        let dz = self.dz(out, d_out);
        let mut dw = Matrix::zeros(self.w.rows(), self.w.cols());
        for (i, row) in rows.iter().enumerate() {
            let dzrow = dz.row(i);
            for &(d, v) in row {
                let target = dw.row_mut(d);
                for (t, &g) in target.iter_mut().zip(dzrow.iter()) {
                    *t += v * g;
                }
            }
        }
        let db = dz.column_sums();
        DenseGrads { dw, db }
    }

    /// Scales `d_out` in place by the activation derivative at `out`.
    fn dz(&self, out: &Matrix, mut d_out: Matrix) -> Matrix {
        assert_eq!((out.rows(), out.cols()), (d_out.rows(), d_out.cols()), "shape mismatch");
        for (g, &o) in d_out.as_mut_slice().iter_mut().zip(out.as_slice().iter()) {
            *g *= self.activation.derivative_from_output(o);
        }
        d_out
    }

    /// Applies one optimizer update with the given gradients, scaled by
    /// `lr_scale` (the paper's α·β path uses `lr_scale = α`).
    pub fn apply_grads(&mut self, grads: &DenseGrads, opt: &Optimizer, lr_scale: f32) {
        self.apply_grads_decayed(grads, opt, lr_scale, 0.0);
    }

    /// Like [`Dense::apply_grads`] with L2 weight decay: the effective
    /// weight gradient is `dW + weight_decay · W` (biases are not decayed).
    pub fn apply_grads_decayed(
        &mut self,
        grads: &DenseGrads,
        opt: &Optimizer,
        lr_scale: f32,
        weight_decay: f32,
    ) {
        // lint:allow(float-eq) -- exact-zero fast path: decay disabled by configuration
        if weight_decay == 0.0 {
            self.w_state.apply(opt, self.w.as_mut_slice(), grads.dw.as_slice(), lr_scale);
        } else {
            let mut decayed = grads.dw.clone();
            decayed.add_scaled(&self.w, weight_decay);
            self.w_state.apply(opt, self.w.as_mut_slice(), decayed.as_slice(), lr_scale);
        }
        self.b_state.apply(opt, &mut self.b, &grads.db, lr_scale);
    }

    /// Read access to the weights (for tests/serialization).
    pub fn weights(&self) -> &Matrix {
        &self.w
    }

    /// Mutable access to the weights (finite-difference tests).
    pub fn weights_mut(&mut self) -> &mut Matrix {
        &mut self.w
    }

    /// Read access to the biases.
    pub fn biases(&self) -> &[f32] {
        &self.b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(1)
    }

    fn dense_from_sparse(rows: &[SparseRow], dim: usize) -> Matrix {
        let mut m = Matrix::zeros(rows.len(), dim);
        for (i, row) in rows.iter().enumerate() {
            for &(d, v) in row {
                m.set(i, d, v);
            }
        }
        m
    }

    #[test]
    fn sparse_and_dense_forward_agree() {
        let mut r = rng();
        let layer = Dense::new(6, 4, Activation::Relu, &mut r);
        let rows: Vec<SparseRow> = vec![vec![(0, 1.5), (3, -2.0)], vec![(5, 0.7)], vec![]];
        let dense = dense_from_sparse(&rows, 6);
        let a = layer.forward(&dense);
        let b = layer.forward_sparse(&rows);
        for (x, y) in a.as_slice().iter().zip(b.as_slice().iter()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn sparse_and_dense_weight_grads_agree() {
        let mut r = rng();
        let layer = Dense::new(5, 3, Activation::Tanh, &mut r);
        let rows: Vec<SparseRow> = vec![vec![(1, 2.0), (4, -1.0)], vec![(0, 0.5)]];
        let dense = dense_from_sparse(&rows, 5);
        let out = layer.forward(&dense);
        let d_out = Matrix::from_vec(2, 3, vec![0.1, -0.2, 0.3, 0.4, 0.0, -0.1]);
        let (g_dense, _) = layer.backward(&dense, &out, d_out.clone());
        let g_sparse = layer.backward_sparse(&rows, &out, d_out);
        for (x, y) in g_dense.dw.as_slice().iter().zip(g_sparse.dw.as_slice().iter()) {
            assert!((x - y).abs() < 1e-5);
        }
        for (x, y) in g_dense.db.iter().zip(g_sparse.db.iter()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    /// Finite-difference check of dW, db and dX through a single layer with a
    /// scalar loss `L = Σ out`.
    #[test]
    fn backward_matches_finite_differences() {
        let mut r = rng();
        let mut layer = Dense::new(4, 3, Activation::Sigmoid, &mut r);
        let x = Matrix::from_vec(2, 4, vec![0.5, -1.0, 0.3, 0.8, -0.2, 0.1, 0.9, -0.7]);
        let loss = |layer: &Dense, x: &Matrix| -> f32 { layer.forward(x).as_slice().iter().sum() };
        let out = layer.forward(&x);
        let d_out = Matrix::from_vec(2, 3, vec![1.0; 6]); // dL/dout = 1
        let (grads, dx) = layer.backward(&x, &out, d_out);
        let eps = 1e-3;
        // dW
        for i in 0..12 {
            let orig = layer.w.as_slice()[i];
            layer.weights_mut().as_mut_slice()[i] = orig + eps;
            let lp = loss(&layer, &x);
            layer.weights_mut().as_mut_slice()[i] = orig - eps;
            let lm = loss(&layer, &x);
            layer.weights_mut().as_mut_slice()[i] = orig;
            let num = (lp - lm) / (2.0 * eps);
            assert!((num - grads.dw.as_slice()[i]).abs() < 1e-2, "dW[{i}]");
        }
        // dX
        for i in 0..8 {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let num = (loss(&layer, &xp) - loss(&layer, &xm)) / (2.0 * eps);
            assert!((num - dx.as_slice()[i]).abs() < 1e-2, "dX[{i}]");
        }
    }

    #[test]
    fn sgd_update_reduces_simple_loss() {
        let mut r = rng();
        let mut layer = Dense::new(3, 1, Activation::Identity, &mut r);
        let x = Matrix::from_vec(
            4,
            3,
            vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0],
        );
        let target = Matrix::from_vec(4, 1, vec![1.0, 2.0, 3.0, 6.0]);
        let opt = Optimizer::Sgd { lr: 0.1 };
        let mut last = f32::INFINITY;
        for _ in 0..200 {
            let out = layer.forward(&x);
            let loss = crate::loss::mse_loss(&out, &target);
            let d_out = crate::loss::mse_grad(&out, &target);
            let (grads, _) = layer.backward(&x, &out, d_out);
            layer.apply_grads(&grads, &opt, 1.0);
            last = loss;
        }
        assert!(last < 1e-3, "final loss {last}");
    }

    #[test]
    fn xavier_init_is_bounded_and_seeded() {
        let mut r1 = StdRng::seed_from_u64(7);
        let mut r2 = StdRng::seed_from_u64(7);
        let a = Dense::new(10, 10, Activation::Relu, &mut r1);
        let b = Dense::new(10, 10, Activation::Relu, &mut r2);
        assert_eq!(a.weights().as_slice(), b.weights().as_slice());
        let limit = (6.0f32 / 20.0).sqrt();
        assert!(a.weights().as_slice().iter().all(|w| w.abs() <= limit));
        assert!(a.biases().iter().all(|&b| b == 0.0));
        assert_eq!(a.n_params(), 110);
    }

    #[test]
    #[should_panic(expected = "exceeds input dim")]
    fn sparse_index_out_of_range_panics() {
        let mut r = rng();
        let layer = Dense::new(3, 2, Activation::Relu, &mut r);
        let _ = layer.forward_sparse(&[vec![(5, 1.0)]]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dim_layer_rejected() {
        let mut r = rng();
        let _ = Dense::new(0, 2, Activation::Relu, &mut r);
    }
}
