//! The 1k → 1M scale harness: wall time and peak memory per pipeline stage
//! on streaming-generated worlds, written to `results/BENCH_scale.json`.
//!
//! Per size (default 1k / 10k / 100k users; `--smoke` runs 1k only) the
//! harness times each stage of the sharded pipeline — streaming world
//! emission, dataset materialization, sharded candidate enumeration, and
//! sharded two-phase inference — and records the process peak RSS
//! (`seeker_obs::peak_rss_bytes`, the `VmHWM` high-water mark) after each
//! stage. The attack is trained **once**, on a 1000-user world whose region
//! is widened to cover every target's terrain: the spatial division is
//! frozen at training time, so a target check-in outside the trained
//! bounding box would silently fall out of the universe.
//!
//! Peak RSS is process-cumulative (the kernel high-water mark never
//! decreases), so sizes run ascending and the marginal growth between sizes
//! is the attributable cost of the larger world.
//!
//! The never-co-located residue gate is asserted *sound* here: on every
//! world of ≥ 10 000 users the zero-JOC fallback
//! (`attack.candidates.fallback_full`) must NOT engage — the scale preset
//! trains classifier `C` against enough zero-JOC negatives to reject the
//! residue, and this harness is the regression net for that property.
//!
//! The 1M point is extrapolated from the measured sizes by a log-log fit
//! unless `SEEKER_BENCH_1M=1` opts into measuring it. Gate mode: when
//! `SEEKER_BENCH_GATE` is set to a float (MiB), the process exits non-zero
//! if the final peak RSS exceeds it (`harness::rss_gate`).

#![deny(missing_docs, dead_code)]

use std::time::Instant;

use friendseeker::{candidate_universe_sharded, TrainedAttack};
use seeker_bench::harness::{peak_mib, rss_gate, train_scale};
use seeker_bench::report;
use seeker_obs::json::JsonValue;
use seeker_trace::stream::StreamingWorld;
use seeker_trace::synth::SyntheticConfig;
use seeker_trace::Dataset;

/// Measured world sizes (ascending — see the peak-RSS note above).
const SIZES: [usize; 3] = [1_000, 10_000, 100_000];
/// The extrapolated (or measured, with `SEEKER_BENCH_1M=1`) headline size.
const ONE_MILLION: usize = 1_000_000;

/// Shard count policy: chunks of ~500 users' worth of work, at least 4.
fn shard_policy(n_users: usize) -> usize {
    (n_users / 500).max(4)
}

/// Runs one size and returns its JSON record with its `(users, total wall
/// ms)` and `(users, final peak RSS bytes)` points for the 1M projection.
fn run_size(
    attack: &TrainedAttack,
    cfg: &SyntheticConfig,
    n_shards: usize,
) -> (JsonValue, (f64, f64), (f64, f64)) {
    // Stage 1: the O(users) skeleton (no check-in is materialized yet).
    let t0 = Instant::now();
    let world = StreamingWorld::build(cfg).expect("world skeleton");
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Stage 2: one full streaming pass, counting only — this is the memory
    // floor of consuming the world without a dataset.
    let t0 = Instant::now();
    let mut checkins = 0usize;
    world.for_each_checkin(|_, _, _| checkins += 1);
    let stream_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Stage 3: the attack needs random trajectory access, so materialize.
    let t0 = Instant::now();
    let target: Dataset = world.materialize().expect("materialize").dataset;
    let materialize_ms = t0.elapsed().as_secs_f64() * 1e3;
    drop(world);
    let peak_after_world_bytes = seeker_obs::peak_rss_bytes().unwrap_or(0);

    // Stage 4: sharded candidate enumeration.
    let t0 = Instant::now();
    let universe = candidate_universe_sharded(attack.phase1(), &target, n_shards)
        .expect("universe fits the platform");
    let candidates_ms = t0.elapsed().as_secs_f64() * 1e3;
    let peak_after_candidates_bytes = seeker_obs::peak_rss_bytes().unwrap_or(0);
    if target.n_users() >= 10_000 {
        assert!(
            !universe.residue_predicted_friend,
            "degenerate pruning gate: zero-JOC p={:.4} >= threshold on a {}-user world — \
             the scale-trained classifier must reject the never-co-located residue",
            universe.residue_probability,
            target.n_users()
        );
    }

    // Stage 5: sharded two-phase inference over the candidate universe
    // (enumeration is timed separately above, so call phase 2 directly).
    let t0 = Instant::now();
    let trace = attack.phase2().infer_sharded(
        attack.config(),
        attack.phase1(),
        &target,
        &universe.pairs,
        n_shards,
    );
    let infer_ms = t0.elapsed().as_secs_f64() * 1e3;
    let peak_after_infer_bytes = seeker_obs::peak_rss_bytes().unwrap_or(0);
    seeker_obs::gauge!("attack.scale.peak_bytes", peak_after_infer_bytes as f64);

    eprintln!(
        "  {} users / {checkins} check-ins / {n_shards} shards: build {build_ms:.0} ms, \
         stream {stream_ms:.0} ms, materialize {materialize_ms:.0} ms, candidates \
         {candidates_ms:.0} ms, infer {infer_ms:.0} ms; {} of {} pairs retained \
         ({:.4} %), {} edges, {} iteration(s); peak RSS {:.0} MiB",
        target.n_users(),
        universe.pairs.len(),
        universe.n_total,
        100.0 * universe.retained_fraction(),
        trace.final_graph().n_edges(),
        trace.n_iterations(),
        peak_mib()
    );

    let ms = |v: f64| JsonValue::rounded(v, 3);
    let record = JsonValue::object([
        ("users", target.n_users().into()),
        ("checkins", checkins.into()),
        ("n_shards", n_shards.into()),
        (
            "stages_ms",
            JsonValue::object([
                ("world_build", ms(build_ms)),
                ("stream_count", ms(stream_ms)),
                ("materialize", ms(materialize_ms)),
                ("candidates", ms(candidates_ms)),
                ("infer", ms(infer_ms)),
            ]),
        ),
        (
            "peak_rss_bytes",
            JsonValue::object([
                ("after_world", peak_after_world_bytes.into()),
                ("after_candidates", peak_after_candidates_bytes.into()),
                ("after_infer", peak_after_infer_bytes.into()),
            ]),
        ),
        (
            "universe",
            JsonValue::object([
                ("all_pairs", universe.n_total.into()),
                ("candidates", universe.pairs.len().into()),
                ("retained_fraction", JsonValue::rounded(universe.retained_fraction(), 8)),
                ("fallback_full", universe.residue_predicted_friend.into()),
            ]),
        ),
        ("edges_predicted", trace.final_graph().n_edges().into()),
        ("iterations", trace.n_iterations().into()),
    ]);
    let users = target.n_users() as f64;
    let wall_ms = build_ms + stream_ms + materialize_ms + candidates_ms + infer_ms;
    (record, (users, wall_ms), (users, peak_after_infer_bytes as f64))
}

/// Log-log slope through the two largest measured points, evaluated at `x`.
fn extrapolate(points: &[(f64, f64)], x: f64) -> Option<f64> {
    let [.., (x1, y1), (x2, y2)] = points else { return None };
    if *y1 <= 0.0 || *y2 <= 0.0 || x1 == x2 {
        return None;
    }
    let slope = (y2 / y1).ln() / (x2 / x1).ln();
    Some(y2 * (x / x2).powf(slope))
}

fn main() {
    let _obs = seeker_obs::init_cli_sinks();
    let seed = seeker_bench::seed_from_env();
    let smoke = std::env::args().any(|a| a == "--smoke");
    let measure_1m = seeker_obs::env::flag("SEEKER_BENCH_1M");
    let sizes: Vec<usize> = if smoke { vec![SIZES[0]] } else { SIZES.to_vec() };
    eprintln!(
        "bench_scale: seed {seed}, sizes {sizes:?}{}{}",
        if measure_1m { " + measured 1M" } else { " + extrapolated 1M" },
        if smoke { " (smoke)" } else { "" }
    );

    // The training geometry is held fixed across smoke and full runs (the
    // full sweep's largest size, or 1M when measured): smoke mode must
    // train the exact model the full run would, so a calibration
    // regression that would break the ≥ 10k pruning gate fails the CI
    // smoke too.
    let largest = if measure_1m { ONE_MILLION } else { SIZES[SIZES.len() - 1] };
    let (train, attack, train_ms) = train_scale(seed, largest);
    eprintln!(
        "  trained on {} users in {train_ms:.0} ms (zero-JOC p={:.4}, threshold {:.4})",
        train.n_users(),
        attack.phase1().zero_joc_proba(),
        attack.phase1().threshold()
    );
    // Model-level form of the ≥ 10k pruning gate, checked up front (and in
    // smoke mode, where no ≥ 10k world runs): candidate pruning is sound
    // iff the zero-JOC probability calibrates below the threshold.
    assert!(
        attack.phase1().zero_joc_proba() < attack.phase1().threshold(),
        "degenerate pruning gate: the scale() preset no longer rejects the residue"
    );

    let mut records = Vec::new();
    let (mut wall, mut mem) = (Vec::new(), Vec::new());
    let mut measured: Vec<(usize, u64)> =
        sizes.iter().enumerate().map(|(i, &n)| (n, seed + 1 + i as u64)).collect();
    if measure_1m {
        measured.push((ONE_MILLION, seed + 99));
    }
    for (n, size_seed) in measured {
        let (record, wall_point, mem_point) =
            run_size(&attack, &SyntheticConfig::scale(n, size_seed), shard_policy(n));
        records.push(record);
        wall.push(wall_point);
        mem.push(mem_point);
    }

    // 1M projection from the measured curve (total wall and peak RSS).
    let one_million = ONE_MILLION as f64;
    let (wall_1m, peak_1m) = match (extrapolate(&wall, one_million), extrapolate(&mem, one_million))
    {
        (Some(w), Some(m)) if !measure_1m => (JsonValue::rounded(w, 1), JsonValue::rounded(m, 0)),
        _ => (JsonValue::Null, JsonValue::Null),
    };
    let doc = JsonValue::object([
        ("bench", "streaming + sharded pipeline scale harness".into()),
        ("seed", seed.into()),
        ("smoke", smoke.into()),
        ("train_users", train.n_users().into()),
        ("train_ms", JsonValue::rounded(train_ms, 1)),
        ("shard_policy", "max(4, users / 500)".into()),
        ("sizes", JsonValue::Array(records)),
        (
            "one_million",
            JsonValue::object([
                ("users", ONE_MILLION.into()),
                ("measured", measure_1m.into()),
                ("extrapolated_wall_ms", wall_1m),
                ("extrapolated_peak_bytes", peak_1m),
                ("basis", "log-log slope through the two largest measured sizes".into()),
            ]),
        ),
    ]);
    report::save("BENCH_scale.json", &doc.to_pretty_string()).expect("write BENCH_scale.json");
    rss_gate("bench_scale");
    seeker_obs::flush();
}
