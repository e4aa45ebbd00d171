//! The two workloads. Each runs set-up `Scale::setups` times (keeping the
//! last), measures for the requested time, then checks its outputs against
//! an independently computed reference.

use std::net::SocketAddr;
use std::time::Instant;

use friendseeker::{
    candidate_universe_sharded, IncrementalAttack, IncrementalOptions, TrainedAttack,
};
use rand::Rng;
use seeker_serve::{Client, ServeConfig, Server};
use seeker_trace::{CheckIn, Dataset, Poi, UserId, UserPair};

use crate::checks;
use crate::corpus::{self, Scale, LARGE_WORLD_SEED, SMALL_WORLD_SEED};
use crate::layers::{exact_repeat, timed, ObsDelta, ObsMark, EXACT_COUNTERS};
use crate::report::Metrics;
use crate::stats::{max, median, quantile};

/// A workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold sharded inference over a 10k-user world, repeated.
    Batch,
    /// Check-in frames written into a 3k session, each made visible by a
    /// read on a second connection.
    Ingest,
}

/// Every workload, by its `--workload` name.
pub const WORKLOADS: [(&str, Workload); 2] =
    [("batch-10k", Workload::Batch), ("serve-ingest-3k", Workload::Ingest)];

impl Workload {
    /// The workload named `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        WORKLOADS.iter().find(|(n, _)| *n == name).map(|&(_, w)| w)
    }
}

/// Inputs of one measured pass.
#[derive(Debug, Clone)]
pub struct PassConfig {
    /// World sizes and rates.
    pub scale: Scale,
    /// The run seed.
    pub seed: u64,
    /// Measurement time.
    pub seconds: f64,
    /// Whether spans are recorded (the per-layer pass).
    pub traced: bool,
    /// Check against a deliberately corrupted reference (self-test only).
    pub corrupt_reference: bool,
}

/// What one pass measured and checked.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// End-to-end and per-layer values.
    pub metrics: Metrics,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed, refused or answered wrongly.
    pub failed: u64,
    /// Every failed check, described.
    pub problems: Vec<String>,
    /// Human-readable context (sizes, counts), for stderr.
    pub notes: Vec<String>,
    /// Work counters ([`EXACT_COUNTERS`]) per repeated stage — each set-up,
    /// inference or ingested frame — which two runs with the same seed
    /// must reproduce exactly.
    pub exact: Vec<(String, Vec<u64>)>,
}

/// Runs one pass of `workload`.
pub fn run_pass(workload: Workload, cfg: &PassConfig) -> Pass {
    let mut pass = match workload {
        Workload::Batch => batch(cfg),
        Workload::Ingest => ingest(cfg),
    };
    let peak = seeker_obs::peak_rss_bytes().map_or(f64::NAN, |b| b as f64 / (1024.0 * 1024.0));
    pass.metrics.set("peak_rss_mib", peak);
    pass.metrics.set("par.workers", seeker_par::max_threads() as f64);
    pass
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

/// Timings of the repeated set-up.
#[derive(Debug, Default)]
struct SetupLog {
    total_s: Vec<f64>,
    world_ms: Vec<f64>,
    train_ms: Vec<f64>,
    fit_ms: Vec<f64>,
    open_ms: Vec<f64>,
    engine_query_us: Vec<f64>,
    exact: Vec<Vec<u64>>,
}

impl SetupLog {
    fn record(&self, pass: &mut Pass) {
        pass.exact
            .extend(self.exact.iter().enumerate().map(|(i, c)| (format!("set-up {i}"), c.clone())));
        let m = &mut pass.metrics;
        m.set("setup_s", median(&self.total_s));
        m.set("setup.world_ms", median(&self.world_ms));
        m.set("setup.train_ms", median(&self.train_ms));
        m.set("nn.autoencoder.fit_ms", median(&self.fit_ms));
        if !self.open_ms.is_empty() {
            m.set("setup.open_ms", median(&self.open_ms));
        }
        if !self.engine_query_us.is_empty() {
            m.set("serve.query_engine_us", median(&self.engine_query_us));
        }
        if let Err(e) = exact_repeat("set-up", &self.exact) {
            pass.problems.push(e);
        }
    }
}

/// Runs `make` `n` times, retiring each result before the next is made, and
/// keeps the last. Only `make` is timed.
fn set_up<T>(
    n: usize,
    mut make: impl FnMut(&mut SetupLog) -> T,
    mut retire: impl FnMut(T),
) -> (T, SetupLog) {
    let mut log = SetupLog::default();
    let mut last = None;
    for _ in 0..n.max(1) {
        if let Some(prev) = last.take() {
            retire(prev);
        }
        let mark = ObsMark::now();
        let t0 = Instant::now();
        let made = make(&mut log);
        log.total_s.push(t0.elapsed().as_secs_f64());
        let d = mark.delta();
        log.fit_ms.push(d.span_ms("nn.autoencoder.fit"));
        log.exact.push(d.counters_of(&EXACT_COUNTERS));
        last = Some(made);
    }
    (last.expect("at least one set-up ran"), log)
}

/// What every workload sets up: the trained attack and its target.
struct Common {
    attack: TrainedAttack,
    train_pois: Vec<Poi>,
    target: Dataset,
}

fn common(scale: &Scale, users: usize, world_seed: u64, seed: u64, log: &mut SetupLog) -> Common {
    let (train_world, train_world_ms) = timed(|| corpus::training_world(scale));
    let (attack, train_ms) = timed(|| corpus::train(&train_world));
    let (target, target_ms) = timed(|| corpus::target_world(users, world_seed, seed));
    log.world_ms.push(train_world_ms + target_ms);
    log.train_ms.push(train_ms);
    Common { attack, train_pois: train_world.pois().to_vec(), target }
}

/// A seeded mix of pairs: half drawn from `candidates` (co-located pairs),
/// half uniform over all users (almost all never co-located).
fn pair_mix(
    rng: &mut impl Rng,
    n_users: usize,
    candidates: &[UserPair],
    n: usize,
) -> Vec<UserPair> {
    (0..n)
        .map(|i| {
            if i % 2 == 0 && !candidates.is_empty() {
                candidates[rng.gen_range(0..candidates.len())]
            } else {
                let a = rng.gen_range(0..n_users as u32);
                let b = (a + rng.gen_range(1..n_users as u32)) % n_users as u32;
                UserPair::new(UserId::new(a), UserId::new(b))
            }
        })
        .collect()
}

/// Median per-call time of `IncrementalAttack::query_pair`, called directly
/// (no transport), in microseconds.
fn engine_query_us(engine: &IncrementalAttack, pairs: &[UserPair]) -> f64 {
    let per_call: Vec<f64> = pairs
        .chunks(100)
        .map(|chunk| {
            let t0 = Instant::now();
            for p in chunk {
                let _ = std::hint::black_box(engine.query_pair(p.lo(), p.hi()));
            }
            t0.elapsed().as_secs_f64() * 1e6 / chunk.len() as f64
        })
        .collect();
    median(&per_call)
}

/// Opens the session and starts the server; times the engine's own query
/// path first when the pass is traced.
fn open_and_serve(c: &Common, initial: Dataset, cfg: &PassConfig, log: &mut SetupLog) -> Server {
    let (engine, open_ms) =
        timed(|| IncrementalAttack::new(c.attack.clone(), initial, IncrementalOptions::default()));
    let engine = engine.unwrap_or_else(|e| panic!("opening the session failed: {e}"));
    log.open_ms.push(open_ms);
    if cfg.traced {
        let mut rng = corpus::rng(cfg.seed, 7);
        let pairs = pair_mix(&mut rng, engine.dataset().n_users(), &engine.result().pairs, 20_000);
        log.engine_query_us.push(engine_query_us(&engine, &pairs));
    }
    Server::start(engine, c.train_pois.clone(), ServeConfig::default())
        .unwrap_or_else(|e| panic!("starting the server failed: {e}"))
}

fn stop(addr: SocketAddr, server: Server) {
    if let Ok(mut client) = Client::connect(addr) {
        let _ = client.shutdown();
    }
    server.join();
}

/// Per-layer values of the engine's work recorded over a window.
fn engine_layers(m: &mut Metrics, d: &ObsDelta) {
    m.set("phase1.joc_ms", d.span_ms("phase1.joc"));
    m.set("core.features_ms", d.span_ms("core.features.build"));
    m.set("phase2.infer_ms", d.span_ms("phase2.infer"));
    m.set("phase2.self_ms", d.self_ms("phase2.infer") + d.self_ms("phase2.infer.iter"));
    m.set("phase2.iterations", d.span_count("phase2.infer.iter") as f64);
    for name in [
        "core.pairs_evaluated",
        "graph.khop.extractions",
        "ml.svm.kernel_evals",
        "phase2.refine.dirty_pairs",
        "incremental.ingest.dirty_pairs",
        "attack.candidates.pairs",
        "par.items",
        "par.chunks",
    ] {
        m.set(name, d.counter(name) as f64);
    }
}

// ---------------------------------------------------------------------------
// batch-10k
// ---------------------------------------------------------------------------

/// One timed cold inference, its answer already checked and dropped: a run
/// keeps no inference's output, so its peak RSS does not grow with the
/// number of inferences that fit in the window.
struct Inference {
    total_ms: f64,
    candidates_ms: f64,
    phase2_ms: f64,
    n_pairs: usize,
    obs: ObsDelta,
}

fn batch(cfg: &PassConfig) -> Pass {
    let scale = &cfg.scale;
    let (c, log) = set_up(
        scale.setups,
        |log| common(scale, scale.large_users, LARGE_WORLD_SEED, cfg.seed, log),
        drop,
    );
    let mut pass = Pass::default();
    log.record(&mut pass);

    // Reference: the unsharded pipeline on the same target, computed before
    // the timed window (it also warms the caches the timed inferences use).
    let reference = match c.attack.infer(&c.target) {
        Ok(r) => r,
        Err(e) => {
            pass.problems.push(format!("reference inference failed: {e}"));
            return pass;
        }
    };
    let ref_graph = if cfg.corrupt_reference {
        checks::corrupted(reference.final_graph())
    } else {
        reference.final_graph().clone()
    };
    let ref_iterations = reference.trace.n_iterations();

    let mut infer = |i: usize| -> Option<Inference> {
        let mark = ObsMark::now();
        let t0 = Instant::now();
        let (universe, candidates_ms) =
            timed(|| candidate_universe_sharded(c.attack.phase1(), &c.target, scale.shards));
        let universe = universe.ok()?;
        let (trace, phase2_ms) = timed(|| {
            c.attack.phase2().infer_sharded(
                c.attack.config(),
                c.attack.phase1(),
                &c.target,
                &universe.pairs,
                scale.shards,
            )
        });
        let total_ms = t0.elapsed().as_secs_f64() * 1e3;
        let obs = mark.delta();
        let label = format!("inference {i}");
        let mut wrong = checks::same_result(
            &label,
            trace.final_graph(),
            trace.n_iterations(),
            &ref_graph,
            ref_iterations,
        );
        if universe.pairs != reference.pairs {
            wrong.push(format!("{label}: candidate universe differs from the reference"));
        }
        if !wrong.is_empty() {
            pass.failed += 1;
            pass.problems.extend(wrong);
        }
        Some(Inference { total_ms, candidates_ms, phase2_ms, n_pairs: universe.pairs.len(), obs })
    };
    let t0 = Instant::now();
    let mut runs: Vec<Inference> = Vec::new();
    let mut attempted = 0;
    while runs.len() < scale.min_repeats || t0.elapsed().as_secs_f64() < cfg.seconds {
        attempted += 1;
        match infer(runs.len()) {
            Some(run) => runs.push(run),
            None => {
                pass.failed += 1;
                pass.problems.push("candidate enumeration failed".into());
                break;
            }
        }
    }
    pass.attempted += attempted;

    let exact: Vec<Vec<u64>> = runs.iter().map(|r| r.obs.counters_of(&EXACT_COUNTERS)).collect();
    if let Err(e) = exact_repeat("batch inference", &exact) {
        pass.problems.push(e);
    }
    pass.exact.extend(exact.into_iter().enumerate().map(|(i, c)| (format!("inference {i}"), c)));

    let per = |f: &dyn Fn(&Inference) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    let totals: Vec<f64> = runs.iter().map(|r| r.total_ms).collect();
    let n_pairs = runs.first().map_or(0, |r| r.n_pairs) as f64;
    let m = &mut pass.metrics;
    m.set("latency_p50_ms", median(&totals));
    m.set("latency_tail_ms", max(&totals));
    m.set("throughput_per_s", n_pairs / (median(&totals) / 1e3));
    if let Some(first) = runs.first() {
        // Counters repeat exactly from inference to inference (checked
        // above), so the first inference's counts are every inference's.
        engine_layers(m, &first.obs);
    }
    m.set("spatial.candidates_ms", per(&|r| r.candidates_ms));
    m.set("phase1.joc_ms", per(&|r| r.obs.span_ms("phase1.joc")));
    m.set("core.features_ms", per(&|r| r.obs.span_ms("core.features.build")));
    m.set("phase2.infer_ms", per(&|r| r.phase2_ms));
    m.set(
        "phase2.self_ms",
        per(&|r| r.obs.self_ms("phase2.infer") + r.obs.self_ms("phase2.infer.iter")),
    );
    m.set("phase2.iterations", ref_iterations as f64);
    pass.notes.push(format!(
        "{} inferences over {} users: {} candidate pairs, {} edges, {} iterations",
        runs.len(),
        c.target.n_users(),
        n_pairs,
        ref_graph.n_edges(),
        ref_iterations
    ));
    let shown: Vec<String> = totals.iter().map(|t| format!("{t:.0}")).collect();
    pass.notes.push(format!("inference wall times (ms): {}", shown.join(" ")));
    pass
}

// ---------------------------------------------------------------------------
// serve-ingest-3k
// ---------------------------------------------------------------------------

/// Whether `ch` is among the fifth of check-ins held out of the ingest
/// session: a SplitMix64 hash of its POI and timestamp.
fn held_out(ch: &CheckIn) -> bool {
    let mut z = (u64::from(ch.poi.raw()) << 40) ^ ch.time.as_secs() as u64;
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)).is_multiple_of(5)
}

/// Stride, in frames, between consecutive frames of one ingest run.
const FRAME_STRIDE: usize = 16;

struct IngestSession {
    common: Common,
    addr: SocketAddr,
    server: Server,
    /// Check-ins the session was opened on.
    initial: Vec<CheckIn>,
    /// Check-ins to stream, frame after frame.
    stream: Vec<CheckIn>,
}

fn ingest(cfg: &PassConfig) -> Pass {
    let scale = &cfg.scale;
    let (s, log) = set_up(
        scale.setups,
        |log| {
            let c = common(scale, scale.small_users, SMALL_WORLD_SEED, cfg.seed, log);
            // The session can only take check-ins inside the trained
            // observation span; a fixed fifth of those is held out and
            // streamed as frames. Every run streams the same frames in the
            // same order: frame costs differ along the stream (a seeded
            // choice of frames moved the median by a fifth), so the frames go
            // out strided across the whole stream, each run taking as many
            // as its time allows.
            let slots = c.attack.phase1().division().slots();
            // The choice hashes what relabeling leaves alone (place and
            // time), so every run holds out the same check-ins.
            let mut initial = Vec::new();
            let mut held = Vec::new();
            for ch in c.target.checkins() {
                if slots.slot_of(ch.time).is_some() && held_out(ch) {
                    held.push(*ch);
                } else {
                    initial.push(*ch);
                }
            }
            held.sort_by_key(|ch| (ch.time, ch.poi, ch.user));
            let frames: Vec<&[CheckIn]> = held.chunks_exact(scale.frame_checkins).collect();
            let stream: Vec<CheckIn> = (0..FRAME_STRIDE)
                .flat_map(|k| frames.iter().skip(k).step_by(FRAME_STRIDE))
                .flat_map(|f| f.iter().copied())
                .collect();
            let opened = c
                .target
                .with_checkins(initial.clone())
                .unwrap_or_else(|e| panic!("initial dataset is invalid: {e}"));
            let server = open_and_serve(&c, opened, cfg, log);
            IngestSession { addr: server.addr(), server, common: c, initial, stream }
        },
        |old| stop(old.addr, old.server),
    );
    let mut pass = Pass::default();
    log.record(&mut pass);

    // One writer in a closed loop: a frame on one connection, then a read
    // on the other, which makes the frame visible (reads flush staged
    // check-ins); the next frame goes out when the read returns.
    let mark = ObsMark::now();
    let clients = Client::connect(s.addr).and_then(|w| Ok((w, Client::connect(s.addr)?)));
    let (mut writer, mut reader) = match clients {
        Ok(pair) => pair,
        Err(e) => {
            pass.problems.push(format!("connecting to the server failed: {e}"));
            stop(s.addr, s.server);
            return pass;
        }
    };
    let n_users = s.common.target.n_users();
    let mut rng = corpus::rng(cfg.seed, 2);
    let (mut ack_ms, mut visible_ms, mut sent) = (Vec::new(), Vec::new(), 0usize);
    let mut per_frame: Vec<Vec<u64>> = Vec::new();
    let t_start = Instant::now();
    for frame in s.stream.chunks(scale.frame_checkins) {
        if per_frame.len() >= scale.min_repeats && t_start.elapsed().as_secs_f64() >= cfg.seconds {
            break;
        }
        let frame_mark = ObsMark::now();
        let t0 = Instant::now();
        pass.attempted += 2;
        sent += frame.len();
        match writer.ingest(frame.to_vec()) {
            Ok(n) if n as usize == frame.len() => ack_ms.push(t0.elapsed().as_secs_f64() * 1e3),
            other => {
                pass.failed += 1;
                pass.problems
                    .push(format!("ingest of frame {} failed: {other:?}", per_frame.len()));
            }
        }
        let user = frame[0].user.raw();
        let other = (user + rng.gen_range(1..n_users as u32)) % n_users as u32;
        match reader.query_pair(user, other) {
            Ok(_) => visible_ms.push(t0.elapsed().as_secs_f64() * 1e3),
            Err(e) => {
                pass.failed += 1;
                pass.problems.push(format!("read after frame {} failed: {e}", per_frame.len()));
            }
        }
        per_frame.push(frame_mark.delta().counters_of(&EXACT_COUNTERS));
    }
    let window_s = t_start.elapsed().as_secs_f64();
    let d = mark.delta();
    let barrier = reader.stats();
    drop((writer, reader));
    pass.exact.extend(per_frame.into_iter().enumerate().map(|(i, c)| (format!("frame {i}"), c)));

    // Reference: a cold inference over the fully appended dataset.
    let mut appended = s.initial.clone();
    appended.extend_from_slice(&s.stream[..sent]);
    pass.attempted += 1;
    let reference =
        s.common.target.with_checkins(appended).map_err(|e| e.to_string()).and_then(|full| {
            let r = s.common.attack.infer(&full).map_err(|e| e.to_string())?;
            Ok((full, r))
        });
    match (barrier, reference) {
        (Ok(stats), Ok((full, reference))) => {
            let ref_graph = if cfg.corrupt_reference {
                checks::corrupted(reference.final_graph())
            } else {
                reference.final_graph().clone()
            };
            let wrong = checks::same_stats(
                &stats,
                full.n_users(),
                full.n_checkins(),
                reference.pairs.len(),
                &ref_graph,
            );
            pass.failed += wrong.len() as u64;
            pass.problems.extend(wrong);
            // Re-query every reference edge and a seeded sample of non-edges.
            let mut rng = corpus::rng(cfg.seed, 3);
            let mut pairs: Vec<UserPair> = ref_graph.edges().collect();
            let non_edges: Vec<UserPair> =
                reference.pairs.iter().copied().filter(|p| !ref_graph.has_edge(*p)).collect();
            pairs.extend(
                pair_mix(&mut rng, full.n_users(), &non_edges, 2_000)
                    .into_iter()
                    .filter(|p| !ref_graph.has_edge(*p)),
            );
            let (answers, errors, rtt_us) = requery(s.addr, &pairs);
            pass.attempted += pairs.len() as u64;
            // The re-query is a closed loop of reads with nothing staged:
            // the read path alone, set against the engine's own query time.
            if let Some(engine_us) = pass.metrics.get("serve.query_engine_us") {
                pass.metrics.set("serve.query_transport_us", median(&rtt_us) - engine_us);
            }
            let wrong = checks::wrong_verdicts(&answers, &ref_graph);
            pass.failed += (wrong + errors) as u64;
            if wrong + errors > 0 {
                pass.problems.push(format!(
                    "re-query after ingest: {wrong} wrong verdicts, {errors} errors of {}",
                    pairs.len()
                ));
            }
            let universe = stats.n_candidate_pairs.max(1) as f64;
            let iterations = d.span_count("phase2.infer.iter").max(1) as f64;
            pass.metrics.set(
                "phase2.warm_dirty_frac",
                d.counter("phase2.refine.dirty_pairs") as f64 / (universe * iterations),
            );
        }
        (Err(e), _) => {
            pass.failed += 1;
            pass.problems.push(format!("stats barrier failed: {e}"));
        }
        (_, Err(e)) => pass.problems.push(format!("reference inference failed: {e}")),
    }
    stop(s.addr, s.server);

    let flushes = d.counter("serve.ingest.flushes") as f64;
    let ingest_ms = d.span_ms("incremental.ingest");
    let m = &mut pass.metrics;
    m.set("latency_p50_ms", median(&visible_ms));
    m.set("latency_tail_ms", quantile(&visible_ms, 0.9));
    m.set("throughput_per_s", sent as f64 / window_s);
    m.set("serve.ack_p50_ms", median(&ack_ms));
    engine_layers(m, &d);
    m.set("incremental.ingest_ms", ingest_ms);
    m.set("spatial.cell_index.apply_ms", d.span_ms("spatial.cell_index.apply"));
    m.set("serve.flushes", flushes);
    if flushes > 0.0 {
        m.set("incremental.ingest_ms_per_flush", ingest_ms / flushes);
        m.set(
            "incremental.dirty_pairs_per_flush",
            d.counter("incremental.ingest.dirty_pairs") as f64 / flushes,
        );
        m.set("serve.checkins_per_flush", sent as f64 / flushes);
    }
    m.set("serve.engine_busy_frac", ingest_ms / (window_s * 1e3));
    pass.notes.push(format!(
        "made {sent} check-ins visible in {} frames over {window_s:.2} s in a {n_users}-user \
         session opened on {} check-ins; {flushes} flushes",
        visible_ms.len(),
        s.initial.len(),
    ));
    pass
}

/// Closed-loop `query_pair` over `pairs` on a fresh connection; returns the
/// answers, how many calls failed, and each answered call's round trip in
/// microseconds.
fn requery(addr: SocketAddr, pairs: &[UserPair]) -> (Vec<(UserPair, bool)>, usize, Vec<f64>) {
    let Ok(mut client) = Client::connect(addr) else {
        return (Vec::new(), pairs.len(), Vec::new());
    };
    let mut answers = Vec::with_capacity(pairs.len());
    let mut rtt_us = Vec::with_capacity(pairs.len());
    for &p in pairs {
        let t0 = Instant::now();
        if let Ok(v) = client.query_pair(p.lo().raw(), p.hi().raw()) {
            rtt_us.push(t0.elapsed().as_secs_f64() * 1e6);
            answers.push((p, v.friend));
        }
    }
    let errors = pairs.len() - answers.len();
    (answers, errors, rtt_us)
}
