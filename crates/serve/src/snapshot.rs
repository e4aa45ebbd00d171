//! Session snapshot/restore: one self-validating blob holding the trained
//! attack and the current target dataset.
//!
//! Layout (`SEEKSRV1`): the magic, the `SEEKAT02` attack blob produced by
//! [`friendseeker::persist::save`] (checksummed on its own) as a
//! length-prefixed blob, the training POI table, the dataset name as a
//! UTF-8 blob, the user count, the target POI table, the check-in table and
//! the friendship table (`(lo, hi)` `u32` pairs). Everything is written and
//! read with [`friendseeker::persist::Writer`]/[`friendseeker::persist::Reader`],
//! and the whole envelope is sealed with the same length + FNV-1a footer
//! ([`friendseeker::persist::append_footer`]). The parser returns
//! [`friendseeker::Result`], so truncation, bit flips, trailing bytes and
//! structural violations anywhere in the snapshot surface as typed
//! [`friendseeker::AttackError::Persist`] errors (wrapped once in
//! [`ServeError::Attack`]) before any state is replaced.
//!
//! Restore rebuilds the dataset via [`seeker_trace::Dataset::from_parts`]
//! and reopens the session with [`friendseeker::IncrementalAttack::new`] —
//! a cold rebuild, which the append==rebuild contract guarantees is
//! bit-identical to the session state that was snapshotted.

use friendseeker::persist::{append_footer, verify_footer, Reader, Writer};
use friendseeker::{AttackError, IncrementalAttack, IncrementalOptions, TrainedAttack};
use seeker_trace::{Dataset, Poi, UserId, UserPair};

use crate::error::Result;

/// Envelope magic: serve snapshot, version 1.
const MAGIC: &[u8; 8] = b"SEEKSRV1";

/// Serializes the session: the trained attack (through
/// [`friendseeker::persist::save`], which needs the *training* world's POI
/// table to rebuild the division on load) plus the full current target
/// dataset.
///
/// # Errors
///
/// Propagates [`AttackError`] from the attack persistence layer (e.g. a
/// non-persistable classifier variant).
pub fn save_session(engine: &IncrementalAttack, train_pois: &[Poi]) -> Result<Vec<u8>> {
    let _span = seeker_obs::span!("serve.snapshot.save");
    let ds = engine.dataset();
    let mut w = Writer::new();
    w.bytes(MAGIC);
    w.blob(&friendseeker::persist::save(engine.attack(), train_pois)?);
    w.pois(train_pois);
    w.blob(ds.name().as_bytes());
    w.u32(ds.n_users() as u32);
    w.pois(ds.pois());
    w.checkins(ds.checkins());
    w.count(ds.n_links());
    for f in ds.friendships() {
        w.u32(f.lo().raw());
        w.u32(f.hi().raw());
    }
    let mut out = w.into_bytes();
    append_footer(&mut out);
    seeker_obs::gauge!("serve.snapshot.bytes", out.len());
    Ok(out)
}

/// Reopens a session from a snapshot blob. Returns the engine and the
/// training POI table (needed to snapshot the restored session again).
///
/// # Errors
///
/// [`AttackError::Persist`]-typed errors on any framing, checksum, or
/// structural violation; nothing is partially applied.
pub fn restore_session(
    blob: &[u8],
    opts: IncrementalOptions,
) -> Result<(IncrementalAttack, Vec<Poi>)> {
    let _span = seeker_obs::span!("serve.snapshot.restore");
    let (attack, train_pois, dataset) = parse(blob)?;
    let engine = IncrementalAttack::new(attack, dataset, opts)?;
    Ok((engine, train_pois))
}

/// Splits a sealed snapshot into the attack, the training POI table and
/// the target dataset.
fn parse(blob: &[u8]) -> friendseeker::Result<(TrainedAttack, Vec<Poi>, Dataset)> {
    let mut r = Reader::new(verify_footer(blob)?);
    if r.bytes(MAGIC.len())? != MAGIC {
        return Err(AttackError::Persist("not a serve session snapshot".into()));
    }
    let attack = friendseeker::persist::load(r.blob()?)?;
    let train_pois = r.pois()?;
    let name = String::from_utf8(r.blob()?.to_vec())
        .map_err(|_| AttackError::Persist("dataset name is not UTF-8".into()))?;
    let n_users = r.u32()? as usize;
    let pois = r.pois()?;
    let checkins = r.checkins()?;
    let n_friendships = r.count(8)?;
    let mut friendships = Vec::with_capacity(n_friendships);
    for _ in 0..n_friendships {
        let (lo, hi) = (UserId::new(r.u32()?), UserId::new(r.u32()?));
        if lo == hi || lo.index() >= n_users || hi.index() >= n_users {
            return Err(AttackError::Persist(
                "snapshot friendship references an invalid pair".into(),
            ));
        }
        friendships.push(UserPair::new(lo, hi));
    }
    r.finish()?;
    let dataset = Dataset::from_parts(name, n_users, pois, checkins, friendships)
        .map_err(|e| AttackError::Persist(format!("snapshot dataset is inconsistent: {e}")))?;
    Ok((attack, train_pois, dataset))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ServeError;
    use friendseeker::{FriendSeeker, FriendSeekerConfig};
    use seeker_trace::synth::{generate, SyntheticConfig};

    fn fixture() -> &'static (IncrementalAttack, Vec<Poi>) {
        use std::sync::OnceLock;
        static CELL: OnceLock<(IncrementalAttack, Vec<Poi>)> = OnceLock::new();
        CELL.get_or_init(|| {
            let train = generate(&SyntheticConfig::small(91)).unwrap().dataset;
            let target = generate(&SyntheticConfig::small(92)).unwrap().dataset;
            let trained = FriendSeeker::new(FriendSeekerConfig::fast()).train(&train).unwrap();
            let pois = train.pois().to_vec();
            let engine =
                IncrementalAttack::new(trained, target, IncrementalOptions::default()).unwrap();
            (engine, pois)
        })
    }

    #[test]
    fn snapshot_roundtrips_the_session() {
        let (engine, train_pois) = fixture();
        let blob = save_session(engine, train_pois).unwrap();
        let (restored, pois2) = restore_session(&blob, IncrementalOptions::default()).unwrap();
        assert_eq!(pois2.len(), train_pois.len());
        assert_eq!(restored.dataset().n_checkins(), engine.dataset().n_checkins());
        assert_eq!(restored.dataset().n_users(), engine.dataset().n_users());
        assert_eq!(restored.dataset().name(), engine.dataset().name());
        // The restored session must answer exactly like the original: the
        // cold rebuild is bit-identical by the append==rebuild contract.
        let (ga, gb) = (engine.result().final_graph(), restored.result().final_graph());
        let ea: Vec<UserPair> = ga.edges().collect();
        let eb: Vec<UserPair> = gb.edges().collect();
        assert_eq!(ea, eb);
    }

    #[test]
    fn corrupt_snapshots_are_rejected_with_typed_errors() {
        let (engine, train_pois) = fixture();
        let blob = save_session(engine, train_pois).unwrap();
        // Every truncation fails closed.
        for cut in [0, 7, 8, blob.len() / 2, blob.len() - 1] {
            match restore_session(&blob[..cut], IncrementalOptions::default()) {
                Err(ServeError::Attack(AttackError::Persist(_))) => {}
                Err(other) => panic!("cut {cut}: wrong error type: {other}"),
                Ok(_) => panic!("cut {cut}: truncated snapshot restored"),
            }
        }
        // Bit flips anywhere fail closed (footer checksum).
        let mut bad = blob.clone();
        for pos in [0usize, 9, blob.len() / 3, blob.len() - 9] {
            bad[pos] ^= 0x40;
            assert!(restore_session(&bad, IncrementalOptions::default()).is_err(), "flip at {pos}");
            bad[pos] ^= 0x40;
        }
        // Trailing bytes fail closed.
        let mut long = blob.clone();
        long.push(0);
        assert!(restore_session(&long, IncrementalOptions::default()).is_err());
        // A foreign magic (e.g. a bare attack blob) is refused.
        let foreign = friendseeker::persist::save(engine.attack(), train_pois).unwrap();
        assert!(restore_session(&foreign, IncrementalOptions::default()).is_err());
    }
}
