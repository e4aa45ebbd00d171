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
//! The attack is trained once with the `scale()` preset on a widened
//! region, exactly as `bench_scale` does — the division is frozen at
//! training time, so the targets must fall inside the trained bounding
//! box. Gate mode: when `SEEKER_BENCH_GATE` is a float (MiB), the process
//! exits non-zero if peak RSS exceeds it.

#![deny(missing_docs, dead_code)]

use std::fmt::Write as _;
use std::time::Instant;

use friendseeker::{FriendSeeker, FriendSeekerConfig, IncrementalAttack, IncrementalOptions};
use seeker_bench::report::results_dir;
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

/// One size's measurements.
struct SizeReport {
    users: usize,
    checkins_total: usize,
    checkins_streamed: usize,
    ingest_frames: usize,
    open_ms: f64,
    ingest_ms: f64,
    ingest_checkins_per_s: f64,
    query_p50_us: u64,
    query_p99_us: u64,
    queries_per_s: f64,
    snapshot_ms: f64,
    snapshot_bytes: usize,
    n_edges: u64,
}

fn percentile(sorted: &[u64], p: usize) -> u64 {
    sorted[(sorted.len() - 1) * p / 100]
}

fn run_size(
    attack: &friendseeker::TrainedAttack,
    train_pois: &[seeker_trace::Poi],
    cfg: &SyntheticConfig,
) -> SizeReport {
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

    let report = SizeReport {
        users: target.n_users(),
        checkins_total: target.n_checkins(),
        checkins_streamed: tail.len(),
        ingest_frames: frames.len(),
        open_ms,
        ingest_ms,
        ingest_checkins_per_s,
        query_p50_us: percentile(&lat_us, 50),
        query_p99_us: percentile(&lat_us, 99),
        queries_per_s,
        snapshot_ms,
        snapshot_bytes: blob.len(),
        n_edges: stats.n_edges,
    };
    eprintln!(
        "  {} users: open {open_ms:.0} ms; ingest {} check-ins in {} frames at {:.0}/s; \
         query p50 {} us / p99 {} us ({:.0}/s); snapshot {} bytes in {snapshot_ms:.1} ms",
        report.users,
        report.checkins_streamed,
        report.ingest_frames,
        report.ingest_checkins_per_s,
        report.query_p50_us,
        report.query_p99_us,
        report.queries_per_s,
        report.snapshot_bytes,
    );

    client.shutdown().expect("shutdown");
    server.join();
    report
}

fn main() {
    let _obs = seeker_obs::init_cli_sinks();
    let seed = seeker_bench::seed_from_env();
    let smoke = std::env::args().any(|a| a == "--smoke");
    let gate_mib: Option<f64> =
        seeker_obs::env::raw("SEEKER_BENCH_GATE").and_then(|g| g.parse().ok());
    let sizes: Vec<usize> = if smoke { vec![SIZES[0]] } else { SIZES.to_vec() };
    eprintln!("bench_serve: seed {seed}, sizes {sizes:?}{}", if smoke { " (smoke)" } else { "" });

    // Train exactly as bench_scale does: scale() preset, region widened to
    // the largest target so the frozen division covers every check-in.
    let largest = SIZES[SIZES.len() - 1];
    let mut train_cfg = SyntheticConfig::scale(1_000, seed);
    train_cfg.region_extent_km = SyntheticConfig::scale(largest, seed).region_extent_km;
    train_cfg.n_cities = 24;
    let t0 = Instant::now();
    let train = StreamingWorld::build(&train_cfg)
        .expect("train world")
        .materialize()
        .expect("train world")
        .dataset;
    let attack =
        FriendSeeker::new(FriendSeekerConfig::scale()).train(&train).expect("scale training");
    let train_ms = t0.elapsed().as_secs_f64() * 1e3;
    let train_pois = train.pois().to_vec();
    eprintln!("  trained on {} users in {train_ms:.0} ms", train.n_users());

    let mut reports: Vec<SizeReport> = Vec::new();
    for (i, &n) in sizes.iter().enumerate() {
        let cfg = SyntheticConfig::scale(n, seed + 1 + i as u64);
        reports.push(run_size(&attack, &train_pois, &cfg));
    }

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ =
        writeln!(json, "  \"bench\": \"seeker-serve ingest/query/snapshot over loopback TCP\",");
    let _ = writeln!(json, "  \"seed\": {seed},");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  \"train_users\": {},", train.n_users());
    let _ = writeln!(json, "  \"train_ms\": {train_ms:.1},");
    let _ = writeln!(json, "  \"frame_checkins\": {FRAME_CHECKINS},");
    let _ = writeln!(json, "  \"n_queries\": {N_QUERIES},");
    let _ = writeln!(json, "  \"sizes\": [");
    for (i, r) in reports.iter().enumerate() {
        let comma = if i + 1 < reports.len() { "," } else { "" };
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"users\": {},", r.users);
        let _ = writeln!(json, "      \"checkins_total\": {},", r.checkins_total);
        let _ = writeln!(json, "      \"checkins_streamed\": {},", r.checkins_streamed);
        let _ = writeln!(json, "      \"ingest_frames\": {},", r.ingest_frames);
        let _ = writeln!(json, "      \"open_ms\": {:.1},", r.open_ms);
        let _ = writeln!(json, "      \"ingest_ms\": {:.1},", r.ingest_ms);
        let _ = writeln!(json, "      \"ingest_checkins_per_s\": {:.1},", r.ingest_checkins_per_s);
        let _ = writeln!(json, "      \"query_p50_us\": {},", r.query_p50_us);
        let _ = writeln!(json, "      \"query_p99_us\": {},", r.query_p99_us);
        let _ = writeln!(json, "      \"queries_per_s\": {:.1},", r.queries_per_s);
        let _ = writeln!(json, "      \"snapshot_ms\": {:.1},", r.snapshot_ms);
        let _ = writeln!(json, "      \"snapshot_bytes\": {},", r.snapshot_bytes);
        let _ = writeln!(json, "      \"edges_predicted\": {}", r.n_edges);
        let _ = writeln!(json, "    }}{comma}");
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");

    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join("BENCH_serve.json");
    std::fs::write(&path, json).expect("write BENCH_serve.json");
    eprintln!("saved {}", path.display());

    if let Some(limit_mib) = gate_mib {
        let peak = seeker_obs::peak_rss_bytes().map_or(f64::NAN, |b| b as f64 / (1024.0 * 1024.0));
        if !(peak <= limit_mib) {
            eprintln!("bench_serve: GATE FAILED — peak RSS {peak:.0} MiB > {limit_mib:.0} MiB");
            seeker_obs::flush();
            std::process::exit(1);
        }
        eprintln!("bench_serve: gate ok — peak RSS {peak:.0} MiB <= {limit_mib:.0} MiB");
    }
    seeker_obs::flush();
}
