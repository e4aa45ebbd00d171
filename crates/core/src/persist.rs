//! Persistence of a trained attack, and the one binary codec every
//! persisted and wire byte of the workspace goes through.
//!
//! **The codec.** [`Writer`](crate::persist::Writer) and
//! [`Reader`](crate::persist::Reader) are the only code that knows binary
//! layout: little-endian fixed-width integers and floats (an `f64` travels
//! as its IEEE-754 bits), `u32`-length-prefixed blobs, and `u32`-counted
//! tables of the two shared records, the 16-byte check-in `(user u32, poi
//! u32, time i64)` and the 24-byte POI `(lat, lon, radius_m)` as `f64`s,
//! whose ids are their table positions. A decoded count reaches an
//! allocation only through
//! [`Reader::count`](crate::persist::Reader::count), which refuses a count
//! the remaining input cannot hold, so a corrupt or hostile length never
//! allocates more than the bytes that arrived. Every decode failure is one
//! [`DecodeError`](crate::persist::DecodeError), which
//! [`AttackError`](crate::AttackError) converts to
//! [`AttackError::Persist`](crate::AttackError::Persist). The serving
//! layer's wire frames and `SEEKSRV1` snapshots are written and read with
//! the same pair.
//!
//! **The attack blob.** A trained attack consists of (1) the
//! spatial-temporal division, which is a deterministic function of the
//! training POI table, the spatial parameter and the covered time range,
//! so those *inputs* are persisted and the division rebuilt on load; (2)
//! the three networks of the supervised autoencoder, each a nested
//! `SEEKNN01` blob; (3) the calibrated `C` threshold; (4) the `C'` scaler
//! + SVM and the early-stopped iteration budget. Only the default MLP-head
//! classifier variant is persistable (the KNN and random-forest ablation
//! variants memorize training rows and are cheap to refit).
//!
//! Format: magic `SEEKAT02`, the fields in the order
//! [`save`](crate::persist::save) writes them, then a 16-byte integrity
//! footer: the protected length (`u64` LE, everything before the footer)
//! followed by the FNV-1a hash (`u64` LE) of those bytes.
//! [`load`](crate::persist::load) still reads footer-less legacy
//! `SEEKAT01` blobs; [`save`](crate::persist::save) only emits `SEEKAT02`.
//! The footer is what lets snapshots travel over sockets: truncation, bit
//! corruption and trailing garbage all surface as typed
//! [`AttackError::Persist`](crate::AttackError::Persist) errors instead of
//! being accepted silently (or worse, parsed into a plausible model). The
//! same [`append_footer`](crate::persist::append_footer)/
//! [`verify_footer`](crate::persist::verify_footer) pair seals the serving
//! layer's snapshot envelope.

use std::fmt;

use seeker_ml::{Kernel, StandardScaler, Svm, SvmConfig};
use seeker_nn::{
    Activation, Dense, Matrix, Mlp, SupervisedAutoencoder, SupervisedAutoencoderConfig,
};
use seeker_spatial::{Joc, SpatialParam, SpatialTemporalDivision};
use seeker_trace::{CheckIn, GeoPoint, Poi, PoiId, Timestamp, UserId};

use crate::attack::TrainedAttack;
use crate::config::{ClassifierKind, FriendSeekerConfig};
use crate::error::{AttackError, Result};
use crate::phase1::Phase1Model;
use crate::phase2::Phase2Model;

const MAGIC: &[u8; 8] = b"SEEKAT02";
const LEGACY_MAGIC: &[u8; 8] = b"SEEKAT01";
/// Magic of a nested network blob (version 1).
const NET_MAGIC: &[u8; 8] = b"SEEKNN01";
/// The smallest encoded network layer: two dims, a tag, one weight and
/// one bias.
const MIN_LAYER_BYTES: usize = 4 + 4 + 1 + 4 + 4;
/// Bytes of one check-in record.
const CHECKIN_BYTES: usize = 16;
/// Bytes of one POI record.
const POI_BYTES: usize = 24;

/// Size in bytes of the integrity footer: protected length + FNV-1a hash.
pub const FOOTER_LEN: usize = 16;

/// Why bytes could not be decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum DecodeError {
    /// The input ends before the value being read, or a count claims more
    /// items than the remaining input can hold.
    Truncated,
    /// Input remains after the last value.
    TrailingBytes,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "input is truncated"),
            DecodeError::TrailingBytes => write!(f, "trailing bytes after the last field"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Little-endian encoder: the write half of the codec.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Raw bytes, no length prefix (magics).
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// One byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// A `u32`.
    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    /// A `u64`.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// An `i64`.
    pub fn i64(&mut self, v: i64) {
        self.bytes(&v.to_le_bytes());
    }

    /// An `f32`, as its IEEE-754 bits.
    pub fn f32(&mut self, v: f32) {
        self.bytes(&v.to_le_bytes());
    }

    /// An `f64`, as its IEEE-754 bits.
    pub fn f64(&mut self, v: f64) {
        self.bytes(&v.to_le_bytes());
    }

    /// A table length, as the `u32` [`Reader::count`] reads.
    pub fn count(&mut self, n: usize) {
        self.u32(n as u32);
    }

    /// A `u32`-length-prefixed blob.
    pub fn blob(&mut self, b: &[u8]) {
        self.count(b.len());
        self.bytes(b);
    }

    /// A counted table of 16-byte check-in records.
    pub fn checkins(&mut self, checkins: &[CheckIn]) {
        self.count(checkins.len());
        for c in checkins {
            self.u32(c.user.raw());
            self.u32(c.poi.raw());
            self.i64(c.time.as_secs());
        }
    }

    /// A counted table of 24-byte POI records; a POI's id is its position.
    pub fn pois(&mut self, pois: &[Poi]) {
        self.count(pois.len());
        for p in pois {
            self.f64(p.center.lat);
            self.f64(p.center.lon);
            self.f64(p.radius_m);
        }
    }
}

/// Little-endian decoder over a byte slice: the read half of the codec.
///
/// Every getter fails with [`DecodeError::Truncated`] when the input ends
/// before its value (or, for [`Reader::count`] and the tables, before the
/// items a count claims).
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

/// What a [`Reader`] getter returns.
type Decoded<T> = std::result::Result<T, DecodeError>;

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// The next `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Decoded<&'a [u8]> {
        let end = self.pos.checked_add(n).ok_or(DecodeError::Truncated)?;
        let b = self.buf.get(self.pos..end).ok_or(DecodeError::Truncated)?;
        self.pos = end;
        Ok(b)
    }

    fn array<const N: usize>(&mut self) -> Decoded<[u8; N]> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.bytes(N)?);
        Ok(a)
    }

    /// One byte.
    pub fn u8(&mut self) -> Decoded<u8> {
        Ok(u8::from_le_bytes(self.array()?))
    }

    /// A `u32`.
    pub fn u32(&mut self) -> Decoded<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// A `u64`.
    pub fn u64(&mut self) -> Decoded<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// An `i64`.
    pub fn i64(&mut self) -> Decoded<i64> {
        Ok(i64::from_le_bytes(self.array()?))
    }

    /// An `f32`.
    pub fn f32(&mut self) -> Decoded<f32> {
        Ok(f32::from_le_bytes(self.array()?))
    }

    /// An `f64`.
    pub fn f64(&mut self) -> Decoded<f64> {
        Ok(f64::from_le_bytes(self.array()?))
    }

    /// `n` consecutive `f32`s, read before the vector is sized.
    fn f32s(&mut self, n: usize) -> Decoded<Vec<f32>> {
        let mut floats = Reader::new(self.bytes(n.checked_mul(4).ok_or(DecodeError::Truncated)?)?);
        (0..n).map(|_| floats.f32()).collect()
    }

    /// A `u32` count of items of `item_bytes` bytes each, refused unless
    /// the remaining input can hold that many items. The only way a
    /// decoded count may reach an allocation.
    pub fn count(&mut self, item_bytes: usize) -> Decoded<usize> {
        let n = self.u32()? as usize;
        match n.checked_mul(item_bytes) {
            Some(need) if need <= self.buf.len() - self.pos => Ok(n),
            _ => Err(DecodeError::Truncated),
        }
    }

    /// A `u32`-length-prefixed blob.
    pub fn blob(&mut self) -> Decoded<&'a [u8]> {
        let n = self.count(1)?;
        self.bytes(n)
    }

    /// A counted table of check-in records.
    pub fn checkins(&mut self) -> Decoded<Vec<CheckIn>> {
        let n = self.count(CHECKIN_BYTES)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let user = UserId::new(self.u32()?);
            let poi = PoiId::new(self.u32()?);
            out.push(CheckIn::new(user, poi, Timestamp::from_secs(self.i64()?)));
        }
        Ok(out)
    }

    /// A counted table of POI records, ids assigned by position.
    pub fn pois(&mut self) -> Decoded<Vec<Poi>> {
        let n = self.count(POI_BYTES)?;
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let center = GeoPoint::new(self.f64()?, self.f64()?);
            out.push(Poi::new(PoiId::new(i as u32), center, self.f64()?));
        }
        Ok(out)
    }

    /// Ends decoding; [`DecodeError::TrailingBytes`] if input remains.
    pub fn finish(self) -> Decoded<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(DecodeError::TrailingBytes)
        }
    }
}

/// 64-bit FNV-1a hash of `bytes`.
///
/// FNV-1a is not cryptographic — the footer guards against transport
/// faults (truncation, bit flips, concatenation), not adversaries. It is
/// dependency-free, byte-order-independent and fast enough to hash
/// megabyte snapshots without showing up in profiles.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Appends the 16-byte integrity footer over everything currently in
/// `buf`: the protected length (`u64` LE) then [`fnv1a`] of those bytes.
pub fn append_footer(buf: &mut Vec<u8>) {
    let mut footer = Writer::new();
    footer.u64(buf.len() as u64);
    footer.u64(fnv1a(buf));
    buf.extend_from_slice(&footer.into_bytes());
}

/// Verifies the trailing integrity footer and returns the protected
/// payload (everything before the footer).
///
/// # Errors
///
/// Returns [`AttackError::Persist`] if the input is shorter than a footer,
/// the recorded length disagrees with the actual payload length (truncation
/// or trailing bytes), or the checksum does not match (corruption).
pub fn verify_footer(bytes: &[u8]) -> Result<&[u8]> {
    if bytes.len() < FOOTER_LEN {
        return Err(AttackError::Persist("input shorter than the integrity footer".into()));
    }
    let (payload, footer) = bytes.split_at(bytes.len() - FOOTER_LEN);
    let mut footer = Reader::new(footer);
    let (recorded_len, recorded_hash) = (footer.u64()?, footer.u64()?);
    if recorded_len != payload.len() as u64 {
        return Err(AttackError::Persist(format!(
            "length mismatch: footer records {recorded_len} bytes, payload has {}",
            payload.len()
        )));
    }
    let actual = fnv1a(payload);
    if recorded_hash != actual {
        return Err(AttackError::Persist(format!(
            "checksum mismatch: footer records {recorded_hash:#018x}, payload hashes to {actual:#018x}"
        )));
    }
    Ok(payload)
}

/// Serializes a trained attack.
///
/// `pois` must be the POI table of the training dataset (the division is
/// rebuilt from it on load; [`seeker_trace::Dataset::pois`] of the training
/// world is the right argument).
///
/// # Errors
///
/// Returns [`AttackError::Config`] if the attack uses a non-persistable
/// classifier variant, or if `pois` is inconsistent with the division.
pub fn save(attack: &TrainedAttack, pois: &[Poi]) -> Result<Vec<u8>> {
    if !matches!(attack.config().classifier, ClassifierKind::MlpHead) {
        return Err(AttackError::Config(
            "only the MLP-head classifier variant is persistable".into(),
        ));
    }
    // Consistency guard: rebuilding the division from `pois` must reproduce
    // the persisted model's input layout.
    let division = attack.phase1().division();
    let rebuilt = SpatialTemporalDivision::from_components(
        pois,
        spatial_param(attack.config()),
        division.slots().origin(),
        division.slots().end(),
        attack.config().tau_days,
    )
    .map_err(AttackError::Trace)?;
    if rebuilt.n_cells() != division.n_cells() {
        return Err(AttackError::Config(format!(
            "poi table does not reproduce the division ({} cells vs {})",
            rebuilt.n_cells(),
            division.n_cells()
        )));
    }

    let mut w = Writer::new();
    w.bytes(MAGIC);
    let cfg = attack.config();
    w.f64(cfg.tau_days);
    w.u32(cfg.k_hop as u32);
    w.u32(cfg.max_iterations as u32);
    w.f64(cfg.convergence_threshold);
    match spatial_param(cfg) {
        SpatialParam::Adaptive { sigma } => {
            w.u8(0);
            w.u32(sigma as u32);
        }
        SpatialParam::Uniform { depth } => {
            w.u8(1);
            w.u32(depth as u32);
        }
    }
    // `TimeSlots` records its exact span, so rebuilding from `(origin, end,
    // tau)` reproduces the slot count and the out-of-range boundary.
    w.i64(division.slots().origin().as_secs());
    w.i64(division.slots().end().as_secs());
    w.pois(pois);

    // Phase 1.
    w.f64(attack.phase1().threshold());
    let ae = attack.phase1().autoencoder();
    w.f64(ae.config().alpha as f64);
    for mlp in [ae.encoder(), ae.decoder(), ae.classifier()] {
        w.blob(&network_bytes(mlp));
    }

    // Phase 2.
    let (means, stds) = attack.phase2().scaler().to_parts();
    w.count(means.len());
    for &v in means.iter().chain(stds) {
        w.f32(v);
    }
    let (kernel, svs, coeffs, bias) = attack.phase2().svm().to_parts();
    match kernel {
        Kernel::Linear => {
            w.u8(0);
            w.f32(0.0);
        }
        Kernel::Rbf { gamma } => {
            w.u8(1);
            w.f32(gamma);
        }
    }
    w.u32(attack.phase2().svm().dim() as u32);
    w.count(svs.len());
    w.f32(bias);
    for (sv, &c) in svs.iter().zip(coeffs.iter()) {
        w.f32(c);
        for &x in sv {
            w.f32(x);
        }
    }
    w.u32(attack.phase2().n_iterations() as u32);
    let mut out = w.into_bytes();
    append_footer(&mut out);
    Ok(out)
}

/// Deserializes a trained attack saved by [`save`].
///
/// Current `SEEKAT02` blobs are checksum- and length-validated through
/// [`verify_footer`] before a single field is parsed; legacy `SEEKAT01`
/// blobs (no footer) are still accepted, protected only by the structural
/// field checks.
///
/// # Errors
///
/// Returns [`AttackError::Persist`] for wrong magic, truncation, trailing
/// bytes or checksum mismatch, and [`AttackError::Data`] for structural
/// inconsistencies inside a well-framed payload.
pub fn load(bytes: &[u8]) -> Result<TrainedAttack> {
    let payload = if bytes.starts_with(MAGIC) {
        verify_footer(bytes)?
    } else if bytes.starts_with(LEGACY_MAGIC) {
        bytes
    } else {
        return Err(AttackError::Persist("not a persisted FriendSeeker attack".into()));
    };
    let mut r = Reader::new(payload);
    r.bytes(MAGIC.len())?;
    let tau_days = r.f64()?;
    let k_hop = r.u32()? as usize;
    let max_iterations = r.u32()? as usize;
    let convergence_threshold = r.f64()?;
    let spatial = match r.u8()? {
        0 => SpatialParam::Adaptive { sigma: r.u32()? as usize },
        1 => SpatialParam::Uniform { depth: r.u32()? as usize },
        other => return Err(AttackError::Data(format!("unknown spatial tag {other}"))),
    };
    let t_lo = Timestamp::from_secs(r.i64()?);
    let t_hi = Timestamp::from_secs(r.i64()?);
    let pois = r.pois()?;
    let division = SpatialTemporalDivision::from_components(&pois, spatial, t_lo, t_hi, tau_days)
        .map_err(|e| AttackError::Data(e.to_string()))?;

    let threshold = r.f64()?;
    let alpha = r.f64()? as f32;
    let encoder = read_network(r.blob()?)?;
    let decoder = read_network(r.blob()?)?;
    let classifier_head = read_network(r.blob()?)?;
    if encoder.in_dim() != division.n_cells() * Joc::CHANNELS {
        return Err(AttackError::Data(format!(
            "encoder input {} does not match the division's {} cells",
            encoder.in_dim(),
            division.n_cells()
        )));
    }
    let mut ae_cfg = SupervisedAutoencoderConfig::new(encoder.in_dim(), encoder.out_dim());
    ae_cfg.alpha = alpha;
    let feature_dim = ae_cfg.bottleneck;
    let autoencoder = SupervisedAutoencoder::from_parts(ae_cfg, encoder, decoder, classifier_head)
        .map_err(AttackError::Data)?;
    let phase1 = Phase1Model::from_parts(division, autoencoder, threshold);

    let scaler_dim = r.count(8)?;
    let means = r.f32s(scaler_dim)?;
    let stds = r.f32s(scaler_dim)?;
    let scaler = StandardScaler::from_parts(means, stds).map_err(AttackError::Data)?;
    let kernel = match r.u8()? {
        0 => {
            r.f32()?;
            Kernel::Linear
        }
        1 => Kernel::Rbf { gamma: r.f32()? },
        other => return Err(AttackError::Data(format!("unknown kernel tag {other}"))),
    };
    let svm_dim = r.u32()? as usize;
    let n_sv = r.count(svm_dim.saturating_add(1).saturating_mul(4))?;
    let bias = r.f32()?;
    let mut coeffs = Vec::with_capacity(n_sv);
    let mut svs = Vec::with_capacity(n_sv);
    for _ in 0..n_sv {
        coeffs.push(r.f32()?);
        svs.push(r.f32s(svm_dim)?);
    }
    let svm = Svm::from_parts(kernel, svs, coeffs, bias, svm_dim).map_err(AttackError::Data)?;
    let n_iterations = r.u32()? as usize;
    r.finish()?;
    // The selected kernel (γ included) is persisted with the SVM; the SMO
    // fitting hyper-parameters are training-time-only, so defaults suffice.
    let svm_config = SvmConfig { kernel, ..SvmConfig::default() };
    let phase2 = Phase2Model::from_parts(scaler, svm, svm_config, n_iterations);

    let cfg = FriendSeekerConfig {
        tau_days,
        k_hop,
        max_iterations,
        convergence_threshold,
        feature_dim,
        sigma: match spatial {
            SpatialParam::Adaptive { sigma } => sigma,
            SpatialParam::Uniform { .. } => FriendSeekerConfig::default().sigma,
        },
        uniform_grid_depth: match spatial {
            SpatialParam::Adaptive { .. } => None,
            SpatialParam::Uniform { depth } => Some(depth),
        },
        ..FriendSeekerConfig::default()
    };
    Ok(TrainedAttack::from_parts(cfg, phase1, phase2))
}

fn spatial_param(cfg: &FriendSeekerConfig) -> SpatialParam {
    match cfg.uniform_grid_depth {
        None => SpatialParam::Adaptive { sigma: cfg.sigma },
        Some(depth) => SpatialParam::Uniform { depth },
    }
}

/// A network as a `SEEKNN01` blob: magic, layer count, then per layer
/// `(in, out, activation tag, weights row-major, biases)`.
fn network_bytes(mlp: &Mlp) -> Vec<u8> {
    let mut w = Writer::new();
    w.bytes(NET_MAGIC);
    w.count(mlp.layers().len());
    for layer in mlp.layers() {
        w.u32(layer.in_dim() as u32);
        w.u32(layer.out_dim() as u32);
        w.u8(match layer.activation() {
            Activation::Relu => 0,
            Activation::Sigmoid => 1,
            Activation::Tanh => 2,
            Activation::Identity => 3,
        });
        for &v in layer.weights().as_slice().iter().chain(layer.biases()) {
            w.f32(v);
        }
    }
    w.into_bytes()
}

/// Parses a `SEEKNN01` blob written by [`network_bytes`]: truncation and
/// trailing bytes fail as [`AttackError::Persist`], a wrong magic or an
/// impossible layer as [`AttackError::Data`].
fn read_network(blob: &[u8]) -> Result<Mlp> {
    let mut r = Reader::new(blob);
    if r.bytes(NET_MAGIC.len())? != NET_MAGIC {
        return Err(AttackError::Data("not a persisted network".into()));
    }
    let n_layers = r.count(MIN_LAYER_BYTES)?;
    if n_layers == 0 {
        return Err(AttackError::Data("network has zero layers".into()));
    }
    let mut layers = Vec::with_capacity(n_layers);
    for _ in 0..n_layers {
        let (in_dim, out_dim) = (r.u32()? as usize, r.u32()? as usize);
        if in_dim == 0 || out_dim == 0 {
            return Err(AttackError::Data("zero network layer dimension".into()));
        }
        let activation = match r.u8()? {
            0 => Activation::Relu,
            1 => Activation::Sigmoid,
            2 => Activation::Tanh,
            3 => Activation::Identity,
            other => return Err(AttackError::Data(format!("unknown activation tag {other}"))),
        };
        let weights = r.f32s(in_dim.checked_mul(out_dim).ok_or(DecodeError::Truncated)?)?;
        let biases = r.f32s(out_dim)?;
        let w = Matrix::from_vec(in_dim, out_dim, weights);
        layers.push(Dense::from_parts(w, biases, activation).map_err(AttackError::Data)?);
    }
    r.finish()?;
    Mlp::from_layers(layers).map_err(AttackError::Data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairs;
    use crate::FriendSeeker;
    use seeker_trace::synth::{generate, SyntheticConfig};
    use seeker_trace::{Dataset, UserId};
    use std::sync::OnceLock;

    fn fixture() -> &'static (Dataset, Dataset, TrainedAttack, Vec<u8>) {
        static CELL: OnceLock<(Dataset, Dataset, TrainedAttack, Vec<u8>)> = OnceLock::new();
        CELL.get_or_init(|| {
            let full = generate(&SyntheticConfig::small(181)).unwrap().dataset;
            let (train_idx, target_idx) = seeker_ml::train_test_split(full.n_users(), 0.3, 3);
            let to_users =
                |idx: &[usize]| idx.iter().map(|&i| UserId::new(i as u32)).collect::<Vec<_>>();
            let train = full.induced_subset(&to_users(&train_idx), "train").unwrap();
            let target = full.induced_subset(&to_users(&target_idx), "target").unwrap();
            let attack =
                FriendSeeker::new(crate::FriendSeekerConfig::fast()).train(&train).unwrap();
            let bytes = save(&attack, train.pois()).unwrap();
            (train, target, attack, bytes)
        })
    }

    #[test]
    fn roundtrip_reproduces_predictions_exactly() {
        let (_, target, attack, bytes) = fixture();
        let loaded = load(bytes).unwrap();
        let lp = pairs::labeled_pairs(target, 1.0, 5);
        let a = attack.infer_pairs(target, lp.pairs.clone());
        let b = loaded.infer_pairs(target, lp.pairs);
        assert_eq!(a.predictions(), b.predictions(), "loaded attack must agree bit-for-bit");
        assert_eq!(a.trace.graphs.len(), b.trace.graphs.len());
    }

    #[test]
    fn loaded_config_matches_inference_relevant_fields() {
        let (_, _, attack, bytes) = fixture();
        let loaded = load(bytes).unwrap();
        assert_eq!(loaded.config().k_hop, attack.config().k_hop);
        assert_eq!(loaded.config().tau_days, attack.config().tau_days);
        assert_eq!(loaded.config().sigma, attack.config().sigma);
        assert_eq!(loaded.phase1().threshold(), attack.phase1().threshold());
        assert_eq!(loaded.phase2().n_iterations(), attack.phase2().n_iterations());
        assert_eq!(loaded.phase1().division().n_cells(), attack.phase1().division().n_cells());
    }

    #[test]
    fn loaded_attack_has_no_fabricated_train_trace() {
        // Regression: a loaded attack used to fabricate a trace holding a
        // 0-vertex graph, so `train_trace().final_graph()` silently returned
        // a graph from the wrong universe.
        let (_, _, attack, bytes) = fixture();
        assert!(attack.train_trace().is_some(), "fresh training keeps its trace");
        let loaded = load(bytes).unwrap();
        assert!(loaded.train_trace().is_none(), "persistence does not carry the trace");
        // The selected kernel survives the roundtrip on the reported config.
        assert_eq!(
            loaded.phase2().svm_config().kernel,
            attack.phase2().svm_config().kernel,
            "persisted kernel must match the trained selection"
        );
    }

    #[test]
    fn corrupted_payloads_are_rejected() {
        let (_, _, _, bytes) = fixture();
        // Magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(load(&bad).is_err());
        // Truncation at several depths.
        for cut in [4usize, 40, bytes.len() / 2, bytes.len() - 2] {
            assert!(load(&bytes[..cut]).is_err(), "cut {cut} must fail");
        }
        // Trailing garbage.
        let mut long = bytes.clone();
        long.push(7);
        assert!(load(&long).is_err());
    }

    #[test]
    fn legacy_seekat01_blobs_still_load() {
        let (_, target, attack, bytes) = fixture();
        // A legacy blob is the v2 payload without its footer, under the old
        // magic (the field layout never changed).
        let mut legacy = bytes[..bytes.len() - FOOTER_LEN].to_vec();
        legacy[..8].copy_from_slice(LEGACY_MAGIC);
        let loaded = load(&legacy).unwrap();
        let lp = pairs::labeled_pairs(target, 1.0, 5);
        let a = attack.infer_pairs(target, lp.pairs.clone());
        let b = loaded.infer_pairs(target, lp.pairs);
        assert_eq!(a.predictions(), b.predictions(), "legacy read path must agree");
    }

    #[test]
    fn framing_errors_are_typed_persist() {
        let (_, _, _, bytes) = fixture();
        // Wrong magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(load(&bad), Err(AttackError::Persist(_))));
        // Too short for a footer.
        assert!(matches!(load(&bytes[..4]), Err(AttackError::Persist(_))));
        // Truncation breaks the footer length check.
        assert!(matches!(load(&bytes[..bytes.len() - 1]), Err(AttackError::Persist(_))));
        // Trailing garbage likewise.
        let mut long = bytes.clone();
        long.push(7);
        assert!(matches!(load(&long), Err(AttackError::Persist(_))));
        // A flipped payload byte fails the checksum.
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        assert!(matches!(load(&flipped), Err(AttackError::Persist(_))));
    }

    #[test]
    fn footer_helpers_roundtrip_and_reject() {
        let mut buf = b"snapshot payload".to_vec();
        append_footer(&mut buf);
        assert_eq!(verify_footer(&buf).unwrap(), b"snapshot payload");
        // Every single-byte truncation of the sealed buffer is rejected.
        for cut in 0..buf.len() {
            assert!(verify_footer(&buf[..cut]).is_err(), "cut {cut}");
        }
        // Every single-bit flip is rejected.
        let mut flipped = buf.clone();
        for i in 0..flipped.len() {
            flipped[i] ^= 1;
            assert!(verify_footer(&flipped).is_err(), "flip at {i}");
            flipped[i] ^= 1;
        }
        // Trailing garbage is rejected.
        let mut long = buf.clone();
        long.push(0);
        assert!(verify_footer(&long).is_err());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 64, ..proptest::prelude::ProptestConfig::default()
        })]

        /// Byte-flip fuzz over the full blob: any corrupted byte (payload or
        /// footer) must surface as a typed error — never a panic, never a
        /// silently-loaded model.
        #[test]
        fn byte_flips_are_rejected(pos in 0usize..1 << 24, mask in 0u8..255) {
            let (_, _, _, bytes) = fixture();
            let mut bad = bytes.clone();
            let i = pos % bad.len();
            // `mask + 1` keeps the flip non-zero (0 would be a no-op).
            bad[i] ^= mask.wrapping_add(1);
            proptest::prop_assert!(matches!(
                load(&bad),
                Err(AttackError::Persist(_) | AttackError::Data(_))
            ));
        }

        /// Truncation fuzz: every strict prefix must be rejected.
        #[test]
        fn truncations_are_rejected(cut in 0usize..1 << 24) {
            let (_, _, _, bytes) = fixture();
            let cut = cut % bytes.len();
            proptest::prop_assert!(matches!(
                load(&bytes[..cut]),
                Err(AttackError::Persist(_))
            ));
        }
    }

    /// Header fields that would make the division builder panic, or build a
    /// division the encoder does not fit, fail as `Data` once the blob is
    /// re-sealed (the checksum no longer catches them).
    #[test]
    fn impossible_headers_are_data() {
        let (_, _, _, bytes) = fixture();
        let payload = &bytes[..bytes.len() - FOOTER_LEN];
        // Offsets: magic 8, tau 8, k 16, iterations 20, threshold 24, spatial
        // tag 32 and value 33, t_lo 37, t_hi 45, POI count 53, first POI 57.
        let edits: [(usize, &[u8]); 8] = [
            (8, &(-1.0f64).to_le_bytes()),
            (8, &f64::NAN.to_le_bytes()),
            (8, &14.0f64.to_le_bytes()),
            (33, &0u32.to_le_bytes()),
            (32, &[1, 9, 0, 0, 0]),
            (37, &i64::MIN.to_le_bytes()),
            (45, &i64::MAX.to_le_bytes()),
            (57, &f64::NAN.to_le_bytes()),
        ];
        for (at, field) in edits {
            let mut blob = payload.to_vec();
            blob[at..at + field.len()].copy_from_slice(field);
            append_footer(&mut blob);
            assert!(matches!(load(&blob), Err(AttackError::Data(_))), "field at {at}");
        }
    }

    #[test]
    fn knn_variant_refuses_to_persist() {
        let (train, _, _, _) = fixture();
        let mut cfg = crate::FriendSeekerConfig::fast();
        cfg.classifier = crate::ClassifierKind::Knn { k: 5 };
        let attack = FriendSeeker::new(cfg).train(train).unwrap();
        assert!(matches!(save(&attack, train.pois()), Err(AttackError::Config(_))));
    }

    #[test]
    fn wrong_poi_table_is_rejected_at_save() {
        let (train, _, attack, _) = fixture();
        // A truncated POI table cannot reproduce the division.
        let half = &train.pois()[..train.pois().len() / 2];
        assert!(save(attack, half).is_err());
    }

    #[test]
    fn codec_roundtrips_every_field_and_bounds_counts() {
        let checkin = CheckIn::new(UserId::new(7), PoiId::new(2), Timestamp::from_secs(-5));
        let poi = Poi::new(PoiId::new(0), GeoPoint::new(1.5, -2.25), 30.0);
        let mut w = Writer::new();
        w.u8(9);
        w.u32(0xdead_beef);
        w.u64(u64::MAX - 1);
        w.i64(-3);
        w.f32(0.5);
        w.f64(f64::MIN_POSITIVE);
        w.blob(b"abc");
        w.checkins(&[checkin]);
        w.pois(&[poi]);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 1 + 4 + 8 + 8 + 4 + 8 + (4 + 3) + (4 + 16) + (4 + 24));
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8(), Ok(9));
        assert_eq!(r.u32(), Ok(0xdead_beef));
        assert_eq!(r.u64(), Ok(u64::MAX - 1));
        assert_eq!(r.i64(), Ok(-3));
        assert_eq!(r.f32(), Ok(0.5));
        assert_eq!(r.f64(), Ok(f64::MIN_POSITIVE));
        assert_eq!(r.blob(), Ok(&b"abc"[..]));
        assert_eq!(r.checkins(), Ok(vec![checkin]));
        let pois = r.pois().unwrap();
        assert_eq!((pois[0].id, pois[0].center, pois[0].radius_m), (poi.id, poi.center, 30.0));
        assert_eq!(r.u8(), Err(DecodeError::Truncated));
        assert_eq!(r.finish(), Ok(()));
        // Trailing input is refused by `finish`.
        assert_eq!(Reader::new(&[0]).finish(), Err(DecodeError::TrailingBytes));
        // A count the remaining input cannot hold fails before any item is
        // read, however small the item; an exact fit passes.
        let mut w = Writer::new();
        w.count(3);
        w.bytes(&[0; 6]);
        let bytes = w.into_bytes();
        assert_eq!(Reader::new(&bytes).count(2), Ok(3));
        assert_eq!(Reader::new(&bytes).count(3), Err(DecodeError::Truncated));
        assert_eq!(
            Reader::new(&u32::MAX.to_le_bytes()).count(usize::MAX),
            Err(DecodeError::Truncated)
        );
        assert!(!DecodeError::Truncated.to_string().is_empty());
        assert!(!DecodeError::TrailingBytes.to_string().is_empty());
    }

    /// A 2 → 2 → 1 network with exactly representable weights.
    fn explicit_mlp() -> Mlp {
        let hidden = Dense::from_parts(
            Matrix::from_vec(2, 2, vec![0.5, -1.0, 2.0, 0.25]),
            vec![0.0, 1.5],
            Activation::Relu,
        )
        .unwrap();
        let out = Dense::from_parts(
            Matrix::from_vec(2, 1, vec![1.0, -2.0]),
            vec![0.125],
            Activation::Sigmoid,
        )
        .unwrap();
        Mlp::from_layers(vec![hidden, out]).unwrap()
    }

    /// Exact bytes of a network blob: magic, layer count, then per layer
    /// `(in, out, activation tag, weights, biases)`.
    #[test]
    fn network_blob_bytes_are_pinned() {
        let mlp = explicit_mlp();
        let bytes = network_bytes(&mlp);
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            "5345454b4e4e3031\
             02000000\
             020000000200000000\
             0000003f000080bf000000400000803e\
             000000000000c03f\
             020000000100000001\
             0000803f000000c0\
             0000003e"
        );
        let back = read_network(&bytes).unwrap();
        assert_eq!(back.dims(), mlp.dims());
        for (a, b) in back.layers().iter().zip(mlp.layers()) {
            assert_eq!(a.weights().as_slice(), b.weights().as_slice());
            assert_eq!(a.biases(), b.biases());
            assert_eq!(a.activation(), b.activation());
        }
    }

    #[test]
    fn network_roundtrip_preserves_structure_and_outputs() {
        let (_, _, attack, _) = fixture();
        let a = attack.phase1().autoencoder().encoder();
        let b = read_network(&network_bytes(a)).unwrap();
        assert_eq!(a.dims(), b.dims());
        let n = a.in_dim();
        let x = Matrix::from_vec(3, n, (0..3 * n).map(|i| (i % 17) as f32 / 17.0).collect());
        let ya = a.forward(seeker_nn::Input::Dense(&x));
        let yb = b.forward(seeker_nn::Input::Dense(&x));
        assert_eq!(ya.as_slice(), yb.as_slice());
    }

    #[test]
    fn network_bad_magic_is_data() {
        let mut bytes = network_bytes(&explicit_mlp());
        bytes[0] = b'X';
        assert!(matches!(read_network(&bytes), Err(AttackError::Data(_))));
    }

    #[test]
    fn network_truncation_is_persist() {
        let bytes = network_bytes(&explicit_mlp());
        for cut in [4usize, 12, bytes.len() - 3] {
            assert!(
                matches!(read_network(&bytes[..cut]), Err(AttackError::Persist(_))),
                "cut at {cut} must be detected"
            );
        }
    }

    #[test]
    fn network_trailing_garbage_is_persist() {
        let mut bytes = network_bytes(&explicit_mlp());
        bytes.push(0);
        assert!(matches!(read_network(&bytes), Err(AttackError::Persist(_))));
    }

    #[test]
    fn network_unknown_activation_is_data() {
        let mut bytes = network_bytes(&explicit_mlp());
        // The first activation tag sits after magic(8) + count(4) + in(4) + out(4).
        bytes[20] = 99;
        assert!(matches!(read_network(&bytes), Err(AttackError::Data(_))));
    }

    #[test]
    fn network_huge_layer_count_is_truncation() {
        // `u32::MAX` layers in a 12-byte blob: no allocation may trust it.
        let mut blob = NET_MAGIC.to_vec();
        blob.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(read_network(&blob), Err(AttackError::Persist(_))));
    }

    #[test]
    fn network_overflowing_layer_size_is_truncation() {
        // One 2^31 x 2^31 layer: its weight byte count overflows `usize`.
        // A tag and eight payload bytes pad it past the minimum-layer guard.
        let mut blob = NET_MAGIC.to_vec();
        for v in [1u32, 1 << 31, 1 << 31] {
            blob.extend_from_slice(&v.to_le_bytes());
        }
        blob.extend_from_slice(&[0; 9]);
        assert!(matches!(read_network(&blob), Err(AttackError::Persist(_))));
    }
}
