//! # seeker-nn
//!
//! A minimal neural-network substrate written for the FriendSeeker
//! reproduction: dense matrices, fully-connected layers with a sparse-input
//! fast path, SGD/momentum/Adam optimizers, the paper's **supervised
//! autoencoder** (Algorithm 1) and skip-gram embeddings (substrate for the
//! walk2friends / user-graph-embedding baselines).
//!
//! ```
//! use seeker_nn::{SupervisedAutoencoder, SupervisedAutoencoderConfig};
//!
//! // Friends light up dim 0, strangers dim 2.
//! let xs = vec![vec![(0usize, 1.0f32)], vec![(2, 1.0)], vec![(0, 2.0)], vec![(2, 2.0)]];
//! let ys = vec![1.0, 0.0, 1.0, 0.0];
//! let mut cfg = SupervisedAutoencoderConfig::new(4, 2);
//! cfg.epochs = 5;
//! let mut model = SupervisedAutoencoder::new(cfg);
//! let report = model.fit(&xs, &ys);
//! assert_eq!(report.epochs.len(), 5);
//! assert_eq!(model.encode(&xs).cols(), 2);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod activation;
mod autoencoder;
/// Dense user/location embedding tables.
pub mod embedding;
mod layer;
mod loss;
mod matrix;
mod mlp;
mod optimizer;
#[cfg(test)]
mod proptests;

/// Supported activation functions.
pub use activation::Activation;
/// The supervised autoencoder of §IV-B.
pub use autoencoder::{
    EpochLosses, SupervisedAutoencoder, SupervisedAutoencoderConfig, TrainReport,
};
/// Fully-connected layer primitives.
pub use layer::{Dense, DenseGrads, SparseRow};
/// Reconstruction + classification loss terms.
pub use loss::{bce_grad, bce_loss, mse_grad, mse_loss};
/// Row-major f64 matrix with the GEMM kernels.
pub use matrix::Matrix;
/// Multi-layer perceptron built from dense layers.
pub use mlp::{Input, Mlp, MlpCache};
/// SGD/momentum/Adam parameter updates.
pub use optimizer::{Optimizer, ParamState};
