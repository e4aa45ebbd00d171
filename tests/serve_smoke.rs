//! End-to-end lifecycle of the `seeker-serve` TCP service on an ephemeral
//! port: ingest → query → snapshot → diverge → restore → re-query equality
//! → clean shutdown, after which a request on a second connection is
//! answered `ERR_INTERNAL`. Both `cargo test --workspace` steps of CI run
//! it, at `SEEKER_THREADS=1` and `4`.

use friendseeker::{FriendSeeker, FriendSeekerConfig, IncrementalAttack, IncrementalOptions};
use seeker_serve::protocol::{ERR_INGEST, ERR_INTERNAL};
use seeker_serve::{Client, ServeConfig, ServeError, Server};
use seeker_trace::synth::{generate, SyntheticConfig};
use seeker_trace::{CheckIn, PoiId, Timestamp, UserId};

#[test]
fn full_lifecycle_over_tcp() {
    let train = generate(&SyntheticConfig::small(87)).unwrap().dataset;
    let target = generate(&SyntheticConfig::small(88)).unwrap().dataset;
    let trained = FriendSeeker::new(FriendSeekerConfig::fast()).train(&train).unwrap();
    let train_pois = train.pois().to_vec();

    // Open the session on 80% of the target; serve the rest over the wire.
    // Check-ins outside the trained observation span cannot be streamed
    // (ingest rejects them by contract), so they go into the initial set.
    let slots = trained.phase1().division().slots().clone();
    let (in_span, out_of_span): (Vec<CheckIn>, Vec<CheckIn>) =
        target.checkins().iter().partition(|c| slots.slot_of(c.time).is_some());
    let cut = in_span.len() * 8 / 10;
    let mut head = out_of_span;
    head.extend_from_slice(&in_span[..cut]);
    let n_initial = head.len();
    let initial = target.with_checkins(head).unwrap();
    let tail: Vec<CheckIn> = in_span[cut..].to_vec();
    let engine =
        IncrementalAttack::new(trained.clone(), initial, IncrementalOptions::default()).unwrap();

    let server = Server::start(engine, train_pois, ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client.ping().unwrap();

    let stats0 = client.stats().unwrap();
    assert_eq!(stats0.n_users, target.n_users() as u64);
    assert_eq!(stats0.n_checkins, n_initial as u64);
    assert_eq!(stats0.ingested_batches, 0);

    // Stream the tail in two batches; acceptance counts every check-in.
    let mid = tail.len() / 2;
    assert_eq!(client.ingest(tail[..mid].to_vec()).unwrap(), mid as u32);
    assert_eq!(client.ingest(tail[mid..].to_vec()).unwrap(), (tail.len() - mid) as u32);

    // Reads flush staged writes: the very next stats call sees the full
    // world, and the session's answer matches a from-scratch inference.
    let stats1 = client.stats().unwrap();
    assert_eq!(stats1.n_checkins, target.n_checkins() as u64);
    assert_eq!(stats1.ingested_batches, 2);
    assert_eq!(stats1.ingested_checkins, tail.len() as u64);
    let reference = trained.infer(&target).unwrap();
    assert_eq!(stats1.n_edges, reference.final_graph().n_edges() as u64);

    // An out-of-span batch is rejected atomically with the typed code and
    // leaves the dataset untouched.
    let rejected = seeker_obs::counter_value("serve.ingest.rejected");
    let late = CheckIn::new(
        UserId::new(0),
        PoiId::new(0),
        Timestamp::from_secs(slots.end().as_secs() + 1),
    );
    match client.ingest(vec![late]) {
        Err(ServeError::Remote { code, message }) => {
            assert_eq!(code, ERR_INGEST);
            assert!(message.contains("observation span"), "unexpected message: {message}");
        }
        other => panic!("out-of-span ingest must fail remotely, got {other:?}"),
    }
    assert_eq!(seeker_obs::counter_value("serve.ingest.rejected"), rejected + 1);
    assert_eq!(client.stats().unwrap().n_checkins, target.n_checkins() as u64);

    // Record the full query surface, snapshot it, then diverge the session
    // with synthetic co-visits.
    let verdict = client.query_pair(0, 1).unwrap();
    let top = client.top_k(10).unwrap();
    assert!(top.len() <= 10);
    assert!(top.windows(2).all(|w| w[0].2 >= w[1].2), "top-k must be sorted by probability");
    let blob = client.snapshot().unwrap();
    assert!(!blob.is_empty());

    let origin = slots.origin();
    let co_visits: Vec<CheckIn> =
        (0..6).map(|i| CheckIn::new(UserId::new(i % 2), PoiId::new(0), origin)).collect();
    client.ingest(co_visits).unwrap();
    let diverged_stats = client.stats().unwrap();
    assert_eq!(diverged_stats.n_checkins, target.n_checkins() as u64 + 6);

    // A corrupt blob is refused and the diverged session survives.
    let mut bad = blob.clone();
    let n = bad.len();
    bad[n / 2] ^= 0x10;
    assert!(client.restore(bad).is_err());
    assert_eq!(client.stats().unwrap().n_checkins, target.n_checkins() as u64 + 6);

    // Restoring the good blob rewinds every answer to the snapshot point.
    client.restore(blob).unwrap();
    let stats2 = client.stats().unwrap();
    assert_eq!(stats2.n_checkins, target.n_checkins() as u64);
    assert_eq!(stats2.n_edges, stats1.n_edges);
    assert_eq!(client.query_pair(0, 1).unwrap(), verdict);
    assert_eq!(client.top_k(10).unwrap(), top);

    // A second connection sees the same session.
    let mut other = Client::connect(server.addr()).unwrap();
    assert_eq!(other.query_pair(0, 1).unwrap(), verdict);

    // Bad queries are remote errors, not hangs or disconnects.
    assert!(matches!(client.query_pair(0, 0), Err(ServeError::Remote { .. })));
    assert!(matches!(client.query_pair(0, u32::MAX), Err(ServeError::Remote { .. })));

    // Clean shutdown: acknowledged, and the server threads exit. A request
    // that arrives after it is answered, not dropped: once the engine
    // thread is gone, the connection answers ERR_INTERNAL itself.
    client.shutdown().unwrap();
    let after = other.query_pair(0, 1);
    assert!(
        matches!(after, Err(ServeError::Remote { code: ERR_INTERNAL, .. })),
        "a request after shutdown must be answered ERR_INTERNAL, got {after:?}"
    );
    server.join();
}
