//! Serving benchmark: what one small flush of the `seeker-serve` TCP
//! service costs at each world size, written to `results/BENCH_serve.json`.
//!
//! Per world size (1k, 10k and 100k users; `--smoke` runs 1k only) the
//! harness opens an incremental session on the world less a held-out
//! stream, starts a loopback server, and measures over a real socket:
//!
//! - **flush**: [`N_FRAMES`] frames of [`FRAME_CHECKINS`] check-ins, each
//!   followed by a `query_pair` that makes it visible (a read flushes the
//!   staged check-ins), as perfbench's serve-ingest-3k workload sends them.
//!   The record holds the client-observed median (frame sent to read
//!   answered) and the engine's median flush (`incremental.ingest`) with
//!   the median of each of its layers: `incremental.append`,
//!   `spatial.cell_index.apply`, `incremental.universe`,
//!   `incremental.phase1` and refinement (`phase2.infer`);
//! - **query latency**: client-observed `query_pair` round-trip times
//!   (p50/p99 microseconds and queries/second) on the post-ingest state;
//! - **snapshot**: blob size and save time for the full session.
//!
//! The 1k size, which the smoke run measures, is also checked: the served
//! session must answer every classified pair of a cold
//! `TrainedAttack::infer` over the grown dataset with the same verdict and
//! the same probability bits, count the same candidate pairs and edges, and
//! snapshot a dataset equal to the rebuilt one. A mismatch exits non-zero.
//!
//! The attack is trained once by `harness::train_scale`, as `bench_scale`
//! trains it — the division is frozen at training time, so the targets
//! must fall inside the trained bounding box. Gate mode: when
//! `SEEKER_BENCH_GATE` is a float (MiB), the process exits non-zero if
//! peak RSS exceeds it (`harness::rss_gate`).

#![deny(missing_docs, dead_code)]

use std::collections::BTreeMap;
use std::time::Instant;

use friendseeker::{IncrementalAttack, IncrementalOptions, TrainedAttack};
use seeker_bench::harness::{rss_gate, train_scale};
use seeker_bench::report;
use seeker_obs::json::JsonValue;
use seeker_serve::{Client, ServeConfig, Server};
use seeker_trace::stream::StreamingWorld;
use seeker_trace::synth::SyntheticConfig;
use seeker_trace::{CheckIn, Dataset, Poi};

/// Measured world sizes.
const SIZES: [usize; 3] = [1_000, 10_000, 100_000];
/// Check-ins per ingest frame on the wire, as in serve-ingest-3k.
const FRAME_CHECKINS: usize = 20;
/// Frames streamed per size, each flushed by its own read.
const N_FRAMES: usize = 100;
/// `query_pair` round-trips measured per size.
const N_QUERIES: usize = 400;
/// The spans a flush is split into: the whole flush, then its layers.
const FLUSH_SPANS: [(&str, &str); 6] = [
    ("flush", "incremental.ingest"),
    ("append", "incremental.append"),
    ("cell_index_apply", "spatial.cell_index.apply"),
    ("universe", "incremental.universe"),
    ("phase1", "incremental.phase1"),
    ("refine", "phase2.infer"),
];

fn percentile(sorted: &[u64], p: usize) -> u64 {
    sorted[(sorted.len() - 1) * p / 100]
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Total nanoseconds recorded per span name so far.
fn span_nanos() -> BTreeMap<&'static str, u64> {
    seeker_obs::span_stats().into_iter().map(|s| (s.name, s.total_nanos)).collect()
}

/// The world split into the session's initial dataset and the held-out
/// stream: `N_FRAMES · FRAME_CHECKINS` in-span check-ins taken at an even
/// stride across the world, so the frames touch users all over it, and
/// sent in time order.
fn split(attack: &TrainedAttack, target: &Dataset) -> (Dataset, Vec<CheckIn>) {
    let slots = attack.phase1().division().slots();
    let in_span = target.checkins().iter().filter(|c| slots.slot_of(c.time).is_some()).count();
    let stride = (in_span / (N_FRAMES * FRAME_CHECKINS)).max(2);
    let (mut head, mut stream) = (Vec::new(), Vec::new());
    let mut seen = 0usize;
    for c in target.checkins() {
        let streamed = slots.slot_of(c.time).is_some() && {
            seen += 1;
            seen % stride == 0 && stream.len() < N_FRAMES * FRAME_CHECKINS
        };
        if streamed {
            stream.push(*c);
        } else {
            head.push(*c);
        }
    }
    stream.sort_by_key(|c| (c.time, c.poi, c.user));
    (target.with_checkins(head).expect("initial world"), stream)
}

/// Checks the served session against a cold inference over `grown`:
/// stats, every classified pair's verdict and probability bits, and the
/// snapshot's dataset. Returns the mismatches found.
fn check_against_cold(
    client: &mut Client,
    attack: &TrainedAttack,
    grown: &Dataset,
    train_pois: &[Poi],
) -> Vec<String> {
    let reference = attack.infer(grown).expect("cold inference");
    let graph = reference.final_graph();
    let proba = attack.phase1().predict_proba(grown, &reference.pairs);
    let mut wrong = Vec::new();
    let stats = client.stats().expect("stats");
    let counts = (stats.n_checkins, stats.n_candidate_pairs, stats.n_edges);
    let expected =
        (grown.n_checkins() as u64, reference.pairs.len() as u64, graph.n_edges() as u64);
    if counts != expected {
        wrong.push(format!("stats (check-ins, pairs, edges) {counts:?}, cold {expected:?}"));
    }
    for (&pair, &p) in reference.pairs.iter().zip(&proba) {
        let v = client.query_pair(pair.lo().raw(), pair.hi().raw()).expect("query");
        let cold = (graph.has_edge(pair), Some(p.to_bits()));
        if (v.friend, v.probability.map(f64::to_bits)) != cold {
            wrong.push(format!("{pair}: served {v:?}, cold ({}, {p})", cold.0));
        }
    }
    let blob = client.snapshot().expect("snapshot");
    let (restored, pois) =
        seeker_serve::snapshot::restore_session(&blob, IncrementalOptions::default())
            .expect("restore");
    if restored.dataset() != grown || pois != train_pois {
        wrong.push("the snapshot's dataset differs from the rebuilt one".into());
    }
    wrong
}

fn run_size(
    attack: &TrainedAttack,
    train_pois: &[Poi],
    cfg: &SyntheticConfig,
    check: bool,
) -> JsonValue {
    let target = StreamingWorld::build(cfg)
        .expect("target world")
        .materialize()
        .expect("target world")
        .dataset;
    let (initial, stream) = split(attack, &target);
    let frames: Vec<&[CheckIn]> = stream.chunks_exact(FRAME_CHECKINS).collect();

    let t0 = Instant::now();
    let engine =
        IncrementalAttack::new(attack.clone(), initial.clone(), IncrementalOptions::default())
            .expect("open session");
    let open_ms = t0.elapsed().as_secs_f64() * 1e3;

    let server =
        Server::start(engine, train_pois.to_vec(), ServeConfig::default()).expect("start server");
    let mut client = Client::connect(server.addr()).expect("connect");

    // Each frame, then a read of one of its users, which flushes it.
    let n_users = target.n_users() as u32;
    let mut visible_ms = Vec::with_capacity(frames.len());
    let mut layers: Vec<Vec<f64>> = vec![Vec::with_capacity(frames.len()); FLUSH_SPANS.len()];
    let t_stream = Instant::now();
    for (i, frame) in frames.iter().enumerate() {
        let before = span_nanos();
        let t0 = Instant::now();
        client.ingest(frame.to_vec()).expect("ingest frame");
        let user = frame[0].user.raw();
        client.query_pair(user, (user + 1 + i as u32) % n_users).expect("read after frame");
        visible_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let after = span_nanos();
        for ((_, span), ms) in FLUSH_SPANS.iter().zip(&mut layers) {
            let nanos =
                after.get(span).copied().unwrap_or(0) - before.get(span).copied().unwrap_or(0);
            ms.push(nanos as f64 / 1e6);
        }
    }
    let stream_ms = t_stream.elapsed().as_secs_f64() * 1e3;
    let checkins_per_s = stream.len() as f64 / (stream_ms / 1e3);

    // Query latency: client-observed round-trips over a deterministic pair
    // sweep (every query is post-ingest state, no cache warmup excluded).
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
    let stats = client.stats().expect("stats");

    let wrong = if check {
        let mut grown = initial.checkins().to_vec();
        grown.extend_from_slice(&stream);
        let grown = initial.with_checkins(grown).expect("grown world");
        check_against_cold(&mut client, attack, &grown, train_pois)
    } else {
        Vec::new()
    };

    let flush: Vec<f64> = layers.into_iter().map(median).collect();
    let (query_p50_us, query_p99_us) = (percentile(&lat_us, 50), percentile(&lat_us, 99));
    eprintln!(
        "  {} users: open {open_ms:.0} ms; {} frames of {FRAME_CHECKINS}: visible p50 {:.1} ms, \
         flush p50 {:.1} ms (append {:.2}, cell index {:.2}, universe {:.2}, phase 1 {:.2}, \
         refine {:.1}); query p50 {query_p50_us} us / p99 {query_p99_us} us \
         ({queries_per_s:.0}/s); snapshot {} bytes in {snapshot_ms:.1} ms",
        target.n_users(),
        frames.len(),
        median(visible_ms.clone()),
        flush[0],
        flush[1],
        flush[2],
        flush[3],
        flush[4],
        flush[5],
        blob.len(),
    );

    client.shutdown().expect("shutdown");
    server.join();
    if !wrong.is_empty() {
        for w in wrong.iter().take(20) {
            eprintln!("  mismatch: {w}");
        }
        eprintln!("bench_serve: {} mismatches against a cold inference", wrong.len());
        std::process::exit(1);
    }
    let tenths = |v: f64| JsonValue::rounded(v, 1);
    let split = FLUSH_SPANS.iter().zip(&flush);
    let split = split.map(|(&(key, _), &ms)| (key.to_string(), JsonValue::rounded(ms, 3)));
    let mut record = vec![
        ("users", target.n_users().into()),
        ("checkins_total", target.n_checkins().into()),
        ("checkins_streamed", stream.len().into()),
        ("frames", frames.len().into()),
        ("open_ms", tenths(open_ms)),
        ("visible_p50_ms", JsonValue::rounded(median(visible_ms), 3)),
        ("flush_p50_ms", JsonValue::Object(split.collect())),
        ("ingest_checkins_per_s", tenths(checkins_per_s)),
        ("query_p50_us", query_p50_us.into()),
        ("query_p99_us", query_p99_us.into()),
        ("queries_per_s", tenths(queries_per_s)),
        ("snapshot_ms", tenths(snapshot_ms)),
        ("snapshot_bytes", blob.len().into()),
        ("edges_predicted", stats.n_edges.into()),
    ];
    if check {
        record.push(("matches_cold_infer", true.into()));
    }
    JsonValue::Object(record.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
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
            let cfg = SyntheticConfig::scale(n, seed + 1 + i as u64);
            run_size(&attack, &train_pois, &cfg, i == 0)
        })
        .collect();
    let doc = JsonValue::object([
        ("bench", "seeker-serve flush/query/snapshot over loopback TCP".into()),
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
