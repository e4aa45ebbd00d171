//! Serving benchmark: sustained ingest and query latency of the
//! `seeker-serve` TCP service, written to `results/BENCH_serve.json`.
//!
//! Per world size (default 1k and 10k users; `--smoke` runs 1k only) the
//! harness opens an incremental session on most of the world, starts a
//! loopback server, and measures over a real socket:
//!
//! - **sustained ingest**: the tail of the world streamed as fixed-size
//!   client batches, timed end to end through a final read barrier (a
//!   `stats` call flushes staged check-ins by contract), reported as
//!   check-ins/second — this is the price of the delta pipeline, not of a
//!   full rebuild per batch;
//! - **query latency**: client-observed `query_pair` round-trip times
//!   (p50/p99 microseconds and queries/second), each query landing on the
//!   post-ingest state;
//! - **snapshot**: blob size and save time for the full session.
//!
//! The attack is trained once by `harness::train_scale`, as `bench_scale`
//! trains it — the division is frozen at training time, so the targets
//! must fall inside the trained bounding box. Gate mode: when
//! `SEEKER_BENCH_GATE` is a float (MiB), the process exits non-zero if
//! peak RSS exceeds it (`harness::rss_gate`).

#![deny(missing_docs, dead_code)]

use std::time::Instant;

use friendseeker::{IncrementalAttack, IncrementalOptions};
use seeker_bench::harness::{rss_gate, train_scale};
use seeker_bench::report;
use seeker_obs::json::JsonValue;
use seeker_serve::{Client, ServeConfig, Server};
use seeker_trace::stream::StreamingWorld;
use seeker_trace::synth::SyntheticConfig;
use seeker_trace::CheckIn;

/// Measured world sizes.
const SIZES: [usize; 2] = [1_000, 10_000];
/// Check-ins per ingest frame on the wire.
const FRAME_CHECKINS: usize = 1_000;
/// Cap on the streamed tail (the rest of the world opens the session).
const MAX_STREAMED: usize = 20_000;
/// `query_pair` round-trips measured per size.
const N_QUERIES: usize = 400;

fn percentile(sorted: &[u64], p: usize) -> u64 {
    sorted[(sorted.len() - 1) * p / 100]
}

fn run_size(
    attack: &friendseeker::TrainedAttack,
    train_pois: &[seeker_trace::Poi],
    cfg: &SyntheticConfig,
) -> JsonValue {
    let target = StreamingWorld::build(cfg)
        .expect("target world")
        .materialize()
        .expect("target world")
        .dataset;
    // The session can only stream check-ins inside the trained observation
    // span; anything else belongs in the initial dataset.
    let slots = attack.phase1().division().slots();
    let (in_span, out_of_span): (Vec<CheckIn>, Vec<CheckIn>) =
        target.checkins().iter().partition(|c| slots.slot_of(c.time).is_some());
    let streamed = (in_span.len() / 20).min(MAX_STREAMED);
    let cut = in_span.len() - streamed;
    let mut head = out_of_span;
    head.extend_from_slice(&in_span[..cut]);
    let initial = target.with_checkins(head).expect("initial world");
    let tail = &in_span[cut..];

    let t0 = Instant::now();
    let engine = IncrementalAttack::new(attack.clone(), initial, IncrementalOptions::default())
        .expect("open session");
    let open_ms = t0.elapsed().as_secs_f64() * 1e3;

    let server =
        Server::start(engine, train_pois.to_vec(), ServeConfig::default()).expect("start server");
    let mut client = Client::connect(server.addr()).expect("connect");

    // Sustained ingest: stream the tail, then one stats round-trip as the
    // read barrier that flushes whatever is still staged.
    let frames: Vec<&[CheckIn]> = tail.chunks(FRAME_CHECKINS).collect();
    let t0 = Instant::now();
    for frame in &frames {
        client.ingest(frame.to_vec()).expect("ingest frame");
    }
    let stats = client.stats().expect("stats barrier");
    let ingest_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(stats.n_checkins as usize, target.n_checkins(), "ingest lost check-ins");
    let ingest_checkins_per_s =
        if ingest_ms > 0.0 { tail.len() as f64 / (ingest_ms / 1e3) } else { f64::NAN };

    // Query latency: client-observed round-trips over a deterministic pair
    // sweep (every query is post-ingest state, no cache warmup excluded).
    let n_users = target.n_users() as u32;
    let mut lat_us: Vec<u64> = Vec::with_capacity(N_QUERIES);
    let t_q = Instant::now();
    for i in 0..N_QUERIES {
        let a = (i as u32 * 7919) % n_users;
        let b = (a + 1 + (i as u32 % 13)) % n_users;
        let (a, b) = if a == b { (a, (a + 1) % n_users) } else { (a, b) };
        let t0 = Instant::now();
        client.query_pair(a.min(b), a.max(b)).expect("query");
        lat_us.push(t0.elapsed().as_micros() as u64);
    }
    let query_wall_s = t_q.elapsed().as_secs_f64();
    lat_us.sort_unstable();
    let queries_per_s = if query_wall_s > 0.0 { N_QUERIES as f64 / query_wall_s } else { f64::NAN };

    let t0 = Instant::now();
    let blob = client.snapshot().expect("snapshot");
    let snapshot_ms = t0.elapsed().as_secs_f64() * 1e3;

    let (query_p50_us, query_p99_us) = (percentile(&lat_us, 50), percentile(&lat_us, 99));
    eprintln!(
        "  {} users: open {open_ms:.0} ms; ingest {} check-ins in {} frames at \
         {ingest_checkins_per_s:.0}/s; query p50 {query_p50_us} us / p99 {query_p99_us} us \
         ({queries_per_s:.0}/s); snapshot {} bytes in {snapshot_ms:.1} ms",
        target.n_users(),
        tail.len(),
        frames.len(),
        blob.len(),
    );

    client.shutdown().expect("shutdown");
    server.join();
    let tenths = |v: f64| JsonValue::rounded(v, 1);
    JsonValue::object([
        ("users", target.n_users().into()),
        ("checkins_total", target.n_checkins().into()),
        ("checkins_streamed", tail.len().into()),
        ("ingest_frames", frames.len().into()),
        ("open_ms", tenths(open_ms)),
        ("ingest_ms", tenths(ingest_ms)),
        ("ingest_checkins_per_s", tenths(ingest_checkins_per_s)),
        ("query_p50_us", query_p50_us.into()),
        ("query_p99_us", query_p99_us.into()),
        ("queries_per_s", tenths(queries_per_s)),
        ("snapshot_ms", tenths(snapshot_ms)),
        ("snapshot_bytes", blob.len().into()),
        ("edges_predicted", stats.n_edges.into()),
    ])
}

fn main() {
    let _obs = seeker_obs::init_cli_sinks();
    let seed = seeker_bench::seed_from_env();
    let smoke = std::env::args().any(|a| a == "--smoke");
    let sizes: Vec<usize> = if smoke { vec![SIZES[0]] } else { SIZES.to_vec() };
    eprintln!("bench_serve: seed {seed}, sizes {sizes:?}{}", if smoke { " (smoke)" } else { "" });

    let (train, attack, train_ms) = train_scale(seed, SIZES[SIZES.len() - 1]);
    let train_pois = train.pois().to_vec();
    eprintln!("  trained on {} users in {train_ms:.0} ms", train.n_users());

    let records = sizes
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            run_size(&attack, &train_pois, &SyntheticConfig::scale(n, seed + 1 + i as u64))
        })
        .collect();
    let doc = JsonValue::object([
        ("bench", "seeker-serve ingest/query/snapshot over loopback TCP".into()),
        ("seed", seed.into()),
        ("smoke", smoke.into()),
        ("train_users", train.n_users().into()),
        ("train_ms", JsonValue::rounded(train_ms, 1)),
        ("frame_checkins", FRAME_CHECKINS.into()),
        ("n_queries", N_QUERIES.into()),
        ("sizes", JsonValue::Array(records)),
    ]);
    report::save("BENCH_serve.json", &doc.to_pretty_string()).expect("write BENCH_serve.json");
    rss_gate("bench_serve");
    seeker_obs::flush();
}
