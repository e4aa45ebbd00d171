//! Compact binary persistence for trained networks.
//!
//! A trained attack is expensive (minutes of CPU); persisting the encoder
//! and classifier lets an operator train once and re-run inference later.
//! The format is deliberately simple: a magic header, layer count, then per
//! layer `(in, out, activation, weights, biases)` in little-endian `f32`.
//! No dependency on a serde format crate is needed.

use std::fmt;

use rand::SeedableRng;

use crate::activation::Activation;
use crate::layer::Dense;
use crate::matrix::Matrix;
use crate::mlp::Mlp;

/// Magic bytes identifying a persisted MLP (version 1).
const MAGIC: &[u8; 8] = b"SEEKNN01";

/// The smallest encoded layer: two dims, a tag, one weight and one bias.
const MIN_LAYER_BYTES: usize = 4 + 4 + 1 + 4 + 4;

/// Errors from decoding a persisted model.
#[derive(Debug)]
#[non_exhaustive]
pub enum PersistError {
    /// The buffer does not start with the expected magic/version.
    BadMagic,
    /// The buffer ended before the declared payload.
    Truncated,
    /// A structural field is invalid (zero dims, unknown activation, …).
    Invalid(String),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::BadMagic => write!(f, "not a persisted seeker-nn model"),
            PersistError::Truncated => write!(f, "persisted model is truncated"),
            PersistError::Invalid(m) => write!(f, "invalid persisted model: {m}"),
        }
    }
}

impl std::error::Error for PersistError {}

fn activation_tag(a: Activation) -> u8 {
    match a {
        Activation::Relu => 0,
        Activation::Sigmoid => 1,
        Activation::Tanh => 2,
        Activation::Identity => 3,
    }
}

fn activation_from_tag(t: u8) -> Result<Activation, PersistError> {
    Ok(match t {
        0 => Activation::Relu,
        1 => Activation::Sigmoid,
        2 => Activation::Tanh,
        3 => Activation::Identity,
        other => return Err(PersistError::Invalid(format!("unknown activation tag {other}"))),
    })
}

/// Serializes an MLP into a self-contained byte buffer.
pub fn mlp_to_bytes(mlp: &Mlp) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(mlp.layers().len() as u32).to_le_bytes());
    for layer in mlp.layers() {
        out.extend_from_slice(&(layer.in_dim() as u32).to_le_bytes());
        out.extend_from_slice(&(layer.out_dim() as u32).to_le_bytes());
        out.push(activation_tag(layer.activation()));
        for &w in layer.weights().as_slice() {
            out.extend_from_slice(&w.to_le_bytes());
        }
        for &b in layer.biases() {
            out.extend_from_slice(&b.to_le_bytes());
        }
    }
    out
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        let end = self.pos.checked_add(n).ok_or(PersistError::Truncated)?;
        let s = self.buf.get(self.pos..end).ok_or(PersistError::Truncated)?;
        self.pos = end;
        Ok(s)
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn u32(&mut self) -> Result<u32, PersistError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1)?[0])
    }

    fn f32s(&mut self, n: usize) -> Result<Vec<f32>, PersistError> {
        let b = self.take(n.checked_mul(4).ok_or(PersistError::Truncated)?)?;
        Ok(b.chunks_exact(4).map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect())
    }
}

/// Deserializes an MLP from bytes produced by [`mlp_to_bytes`].
///
/// # Errors
///
/// Returns a [`PersistError`] for wrong magic, truncation or invalid
/// structure.
pub fn mlp_from_bytes(bytes: &[u8]) -> Result<Mlp, PersistError> {
    let mut c = Cursor { buf: bytes, pos: 0 };
    if c.take(8)? != MAGIC {
        return Err(PersistError::BadMagic);
    }
    let n_layers = c.u32()? as usize;
    if n_layers == 0 {
        return Err(PersistError::Invalid("zero layers".into()));
    }
    // A corrupt count must fail as truncation before `with_capacity` can
    // request an absurd allocation.
    if c.remaining() < n_layers.saturating_mul(MIN_LAYER_BYTES) {
        return Err(PersistError::Truncated);
    }
    let mut layers = Vec::with_capacity(n_layers);
    for _ in 0..n_layers {
        let in_dim = c.u32()? as usize;
        let out_dim = c.u32()? as usize;
        if in_dim == 0 || out_dim == 0 {
            return Err(PersistError::Invalid("zero layer dimension".into()));
        }
        let act = activation_from_tag(c.u8()?)?;
        let w = c.f32s(in_dim.checked_mul(out_dim).ok_or(PersistError::Truncated)?)?;
        let b = c.f32s(out_dim)?;
        layers.push(
            Dense::from_parts(Matrix::from_vec(in_dim, out_dim, w), b, act)
                .map_err(PersistError::Invalid)?,
        );
    }
    if c.pos != bytes.len() {
        return Err(PersistError::Invalid("trailing bytes after payload".into()));
    }
    Mlp::from_layers(layers).map_err(PersistError::Invalid)
}

/// Round-trips a freshly initialized network through bytes — used by the
/// tests and as a template for callers persisting to disk.
#[doc(hidden)]
pub fn roundtrip_for_test(seed: u64) -> (Mlp, Mlp) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mlp = Mlp::new(&[6, 4, 2], Activation::Relu, Activation::Sigmoid, &mut rng);
    let bytes = mlp_to_bytes(&mlp);
    let back = mlp_from_bytes(&bytes).expect("roundtrip"); // lint:allow(no-panic) -- test-support helper
    (mlp, back)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mlp::Input;

    #[test]
    fn roundtrip_preserves_structure_and_outputs() {
        let (a, b) = roundtrip_for_test(5);
        assert_eq!(a.dims(), b.dims());
        let x = Matrix::from_vec(3, 6, (0..18).map(|i| i as f32 / 18.0).collect());
        let ya = a.forward(Input::Dense(&x));
        let yb = b.forward(Input::Dense(&x));
        assert_eq!(ya.as_slice(), yb.as_slice());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = mlp_to_bytes(&roundtrip_for_test(1).0);
        bytes[0] = b'X';
        assert!(matches!(mlp_from_bytes(&bytes), Err(PersistError::BadMagic)));
    }

    #[test]
    fn truncation_rejected() {
        let bytes = mlp_to_bytes(&roundtrip_for_test(2).0);
        for cut in [4usize, 12, bytes.len() - 3] {
            assert!(
                matches!(mlp_from_bytes(&bytes[..cut]), Err(PersistError::Truncated)),
                "cut at {cut} must be detected"
            );
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = mlp_to_bytes(&roundtrip_for_test(3).0);
        bytes.push(0);
        assert!(matches!(mlp_from_bytes(&bytes), Err(PersistError::Invalid(_))));
    }

    #[test]
    fn unknown_activation_rejected() {
        let mut bytes = mlp_to_bytes(&roundtrip_for_test(4).0);
        // The first activation tag sits after magic(8) + count(4) + in(4) + out(4).
        bytes[20] = 99;
        assert!(matches!(mlp_from_bytes(&bytes), Err(PersistError::Invalid(_))));
    }

    #[test]
    fn huge_layer_count_is_truncation() {
        // `u32::MAX` layers in a 12-byte blob: no allocation may trust it.
        let mut blob = MAGIC.to_vec();
        blob.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(mlp_from_bytes(&blob), Err(PersistError::Truncated)));
    }

    #[test]
    fn overflowing_layer_size_is_truncation() {
        // One 2^31 x 2^31 layer: its weight byte count overflows `usize`.
        // A tag and eight payload bytes pad it past the minimum-layer guard.
        let mut blob = MAGIC.to_vec();
        for v in [1u32, 1 << 31, 1 << 31] {
            blob.extend_from_slice(&v.to_le_bytes());
        }
        blob.extend_from_slice(&[0; 9]);
        assert!(matches!(mlp_from_bytes(&blob), Err(PersistError::Truncated)));
    }

    #[test]
    fn errors_display_nonempty() {
        assert!(!PersistError::BadMagic.to_string().is_empty());
        assert!(!PersistError::Truncated.to_string().is_empty());
        assert!(!PersistError::Invalid("x".into()).to_string().is_empty());
    }
}
