//! Decode fuzz over every binary format the service reads from outside.
//!
//! Wire frames: `Request::decode` and `Response::decode` fed arbitrary
//! bytes, arbitrary bodies behind each valid tag, and damaged encodings of
//! valid frames must give `ServeError::Protocol` or a value whose encoding
//! decodes and re-encodes to the same bytes (bytes, not values: a decoded
//! `f64` may be NaN).
//!
//! Blobs: a valid `SEEKSRV1` session snapshot and a valid `SEEKAT02` model
//! blob are damaged (one byte flipped, or the payload cut short) and then
//! re-sealed with `append_footer`, so the parser, not the checksum, has to
//! catch the damage. `restore_session` must give `ServeError::Attack(_)` or
//! a session, and `persist::load` `AttackError::{Persist, Data}` or a
//! model. No input may panic.

use friendseeker::persist::{append_footer, load, save, FOOTER_LEN};
use friendseeker::{AttackError, FriendSeeker, FriendSeekerConfig, IncrementalAttack};
use friendseeker::{IncrementalOptions, TrainedAttack};
use proptest::collection::vec;
use proptest::prelude::*;
use seeker_serve::snapshot::{restore_session, save_session};
use seeker_serve::{Request, Response, ServeError, ServeStats};
use seeker_trace::synth::{generate, SyntheticConfig};
use seeker_trace::{CheckIn, PoiId, Timestamp, UserId};
use std::sync::OnceLock;

const REQUEST_TAGS: [u8; 8] = [0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08];
const RESPONSE_TAGS: [u8; 9] = [0x80, 0x81, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87, 0xFF];

fn requests() -> Vec<Request> {
    vec![
        Request::Ping,
        Request::Ingest(vec![
            CheckIn::new(UserId::new(3), PoiId::new(9), Timestamp::from_secs(1234)),
            CheckIn::new(UserId::new(0), PoiId::new(258), Timestamp::from_secs(-7)),
        ]),
        Request::QueryPair { a: 1, b: 2 },
        Request::QueryTopK { k: 10 },
        Request::Snapshot,
        Request::Restore(vec![1, 2, 3]),
        Request::Stats,
        Request::Shutdown,
    ]
}

fn responses() -> Vec<Response> {
    vec![
        Response::Pong,
        Response::IngestOk { accepted: 42 },
        Response::Pair { friend: true, probability: Some(0.75) },
        Response::Pair { friend: false, probability: None },
        Response::TopK(vec![(0, 1, 0.9), (2, 5, -0.5)]),
        Response::Snapshot(vec![9, 8]),
        Response::RestoreOk,
        Response::Stats(ServeStats { n_users: 1, n_edges: 4, ..ServeStats::default() }),
        Response::ShutdownOk,
        Response::Error { code: 1, message: "too late".into() },
    ]
}

fn check_request(bytes: &[u8]) -> Result<(), TestCaseError> {
    match Request::decode(bytes) {
        Err(ServeError::Protocol(_)) => {}
        Err(other) => prop_assert!(false, "{bytes:02x?}: not a protocol error: {other}"),
        Ok(request) => {
            let once = request.encode();
            let again = Request::decode(&once).map(|r| r.encode());
            prop_assert!(again.as_ref().ok() == Some(&once), "{bytes:02x?} re-encodes unstably");
        }
    }
    Ok(())
}

fn check_response(bytes: &[u8]) -> Result<(), TestCaseError> {
    match Response::decode(bytes) {
        Err(ServeError::Protocol(_)) => {}
        Err(other) => prop_assert!(false, "{bytes:02x?}: not a protocol error: {other}"),
        Ok(response) => {
            let once = response.encode();
            let again = Response::decode(&once).map(|r| r.encode());
            prop_assert!(again.as_ref().ok() == Some(&once), "{bytes:02x?} re-encodes unstably");
        }
    }
    Ok(())
}

/// Flips `mask + 1` into one byte of `bytes` (at `at`, wrapped), then cuts
/// the result to `cut` bytes when `cut` is shorter.
fn damage(mut bytes: Vec<u8>, at: usize, mask: u8, cut: usize) -> Vec<u8> {
    if !bytes.is_empty() {
        let i = at % bytes.len();
        bytes[i] ^= mask.wrapping_add(1);
    }
    bytes.truncate(cut);
    bytes
}

/// The trained attack and its `SEEKAT02` blob, plus a `SEEKSRV1` snapshot of
/// a 40-user session (small, so that each restore is quick) and the offset
/// where the envelope's own fields start, after the nested attack blob.
struct Blobs {
    model: Vec<u8>,
    snapshot: Vec<u8>,
    envelope_start: usize,
}

fn blobs() -> &'static Blobs {
    static CELL: OnceLock<Blobs> = OnceLock::new();
    CELL.get_or_init(|| {
        let train = generate(&SyntheticConfig::small(91)).unwrap().dataset;
        let world = generate(&SyntheticConfig::small(92)).unwrap().dataset;
        let users: Vec<UserId> = world.users().take(40).collect();
        let target = world.induced_subset(&users, "fuzz").unwrap();
        let trained: TrainedAttack =
            FriendSeeker::new(FriendSeekerConfig::fast()).train(&train).unwrap();
        let model = save(&trained, train.pois()).unwrap();
        let engine =
            IncrementalAttack::new(trained, target, IncrementalOptions::default()).unwrap();
        let snapshot = save_session(&engine, train.pois()).unwrap();
        // Magic, then the attack blob's `u32` length and bytes.
        let envelope_start = 8 + 4 + model.len();
        Blobs { model, snapshot, envelope_start }
    })
}

/// A damaged copy of the payload of `sealed`, sealed again.
fn reseal(sealed: &[u8], at: usize, mask: u8, cut: usize) -> Vec<u8> {
    let payload = sealed[..sealed.len() - FOOTER_LEN].to_vec();
    let mut out = damage(payload, at, mask, cut);
    append_footer(&mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_decode_to_typed_errors_or_stable_frames(bytes in vec(any::<u8>(), 0..48)) {
        check_request(&bytes)?;
        check_response(&bytes)?;
    }

    #[test]
    fn arbitrary_bodies_behind_valid_tags(
        tag in 0usize..9,
        count in 0u32..4,
        counted in any::<bool>(),
        body in vec(any::<u8>(), 0..72),
    ) {
        // Half the bodies open with a small count, so counted variants
        // also reach their items.
        let mut tail = if counted { count.to_le_bytes().to_vec() } else { Vec::new() };
        tail.extend_from_slice(&body);
        let mut request = vec![REQUEST_TAGS[tag % REQUEST_TAGS.len()]];
        request.extend_from_slice(&tail);
        check_request(&request)?;
        let mut response = vec![RESPONSE_TAGS[tag]];
        response.extend_from_slice(&tail);
        check_response(&response)?;
    }

    #[test]
    fn damaged_valid_frames(
        which in 0usize..10,
        at in any::<usize>(),
        mask in 0u8..255,
        cut in 0usize..48,
        grow in vec(any::<u8>(), 0..3),
    ) {
        let requests = requests();
        let mut bytes = damage(requests[which % requests.len()].encode(), at, mask, cut);
        bytes.extend_from_slice(&grow);
        check_request(&bytes)?;
        let mut bytes = damage(responses()[which].encode(), at, mask, cut);
        bytes.extend_from_slice(&grow);
        check_response(&bytes)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One byte flipped anywhere, in the header or in the tail (where the
    /// scaler and SVM live), or the payload cut short.
    #[test]
    fn damaged_model_blobs_fail_typed_or_load(
        region in 0u8..4,
        at in any::<usize>(),
        mask in 0u8..255,
    ) {
        let model = &blobs().model;
        let payload_len = model.len() - FOOTER_LEN;
        let (at, cut) = match region {
            0 => (at, usize::MAX),
            1 => (at % 256, usize::MAX),
            2 => (payload_len - 1 - at % 4096, usize::MAX),
            _ => (0, at % payload_len),
        };
        let mask = if region == 3 { u8::MAX } else { mask };
        let blob = reseal(model, at, mask, cut);
        match load(&blob) {
            Ok(_) | Err(AttackError::Persist(_) | AttackError::Data(_)) => {}
            Err(other) => prop_assert!(false, "wrong error type: {other}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// One byte flipped anywhere, or in the envelope's own fields (POI
    /// tables, name, user count, check-ins, friendships), or the payload cut
    /// short.
    #[test]
    fn damaged_snapshots_fail_typed_or_restore(
        region in 0u8..3,
        at in any::<usize>(),
        mask in 0u8..255,
    ) {
        let b = blobs();
        let payload_len = b.snapshot.len() - FOOTER_LEN;
        let (at, cut) = match region {
            0 => (at, usize::MAX),
            1 => (b.envelope_start + at % (payload_len - b.envelope_start), usize::MAX),
            _ => (0, at % payload_len),
        };
        let mask = if region == 2 { u8::MAX } else { mask };
        let blob = reseal(&b.snapshot, at, mask, cut);
        match restore_session(&blob, IncrementalOptions::default()) {
            Ok(_) | Err(ServeError::Attack(_)) => {}
            Err(other) => prop_assert!(false, "wrong error type: {other}"),
        }
    }
}
