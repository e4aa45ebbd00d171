//! Serial-vs-parallel benchmark for the `seeker-par` persistent pool.
//!
//! Times every pipeline stage wired into the pool — batched feature
//! encoding (`FeatureStore::build`), phase-1 graph prediction, batch SVM
//! prediction, the full refinement loop, and a dense blocked GEMM — once
//! with 1 worker and once with the ambient worker count (`SEEKER_THREADS`
//! or the core count), and checks the outputs are identical before
//! reporting. Results go to `results/BENCH_par.json`.
//!
//! Methodology: `WARMUP` untimed repetitions bring the pool, allocator,
//! and caches to steady state, then `REPS` timed repetitions are reduced
//! to their minimum (least-noise location statistic) and median
//! (robustness check — a median far above the minimum flags an unquiet
//! machine). Each stage records the dispatch geometry actually used: item
//! count, declared cost class, and the `seeker_par::plan` worker/chunk
//! decision at the benchmark's worker count.
//!
//! Gate mode: when `SEEKER_BENCH_GATE` is set to a float, the process
//! exits nonzero if any stage's min-time speedup falls below it. CI runs
//! this with `SEEKER_THREADS=4 SEEKER_BENCH_GATE=0.9` as a regression
//! tripwire: even on a saturated single-core runner the persistent pool
//! must stay within 10% of serial.

#![deny(missing_docs, dead_code)]

use friendseeker::features::FeatureStore;
use seeker_bench::datasets::{world, Preset};
use seeker_bench::harness::{bench_gate, default_config, eval_pairs, time_stats};
use seeker_bench::report;
use seeker_nn::Matrix;
use seeker_obs::json::JsonValue;
use seeker_par::{max_threads, plan, with_threads, Cost};

/// Untimed repetitions before measurement begins.
const WARMUP: usize = 2;
/// Timed repetitions per stage; the minimum and median are reported.
const REPS: usize = 5;

fn main() {
    let _obs = seeker_obs::init_cli_sinks();
    let seed = seeker_bench::seed_from_env();
    let threads = max_threads();
    let effective_cores =
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let gate = bench_gate();
    eprintln!(
        "bench_par: 1 vs {threads} worker(s) on {effective_cores} core(s), \
         seed {seed}, warmup {WARMUP}, reps {REPS}"
    );

    let w = world(Preset::Gowalla, seed);
    let cfg = default_config();
    let trained =
        friendseeker::FriendSeeker::new(cfg).train(&w.train).expect("experiment training");
    let (ep, _) = eval_pairs(&w.target);

    // Each stage records the items handed to its dominant pool dispatch,
    // that dispatch's declared cost class, and the worker/chunk decision
    // the pool makes for it at the benchmarked worker count.
    let mut records = Vec::new();
    let mut speedups: Vec<(&str, f64)> = Vec::new();
    let mut bench = |name: &'static str, items: usize, cost: Cost, f: &dyn Fn() -> u64| {
        let (serial_min_ms, serial_median_ms, a) = time_stats(WARMUP, REPS, || with_threads(1, f));
        let (parallel_min_ms, parallel_median_ms, b) =
            time_stats(WARMUP, REPS, || with_threads(threads, f));
        assert_eq!(a, b, "{name}: serial and parallel outputs diverge");
        eprintln!(
            "  {name}: serial {serial_min_ms:.1}/{serial_median_ms:.1} ms, \
             parallel {parallel_min_ms:.1}/{parallel_median_ms:.1} ms (min/median)"
        );
        let speedup_min = serial_min_ms / parallel_min_ms.max(1e-9);
        speedups.push((name, speedup_min));
        let p = with_threads(threads, || plan(items, cost));
        let thousandths = |v: f64| JsonValue::rounded(v, 3);
        records.push(JsonValue::object([
            ("stage", name.into()),
            ("items", items.into()),
            ("cost", cost.name().into()),
            ("workers", p.workers.into()),
            ("chunk", p.chunk.into()),
            ("serial_min_ms", thousandths(serial_min_ms)),
            ("serial_median_ms", thousandths(serial_median_ms)),
            ("parallel_min_ms", thousandths(parallel_min_ms)),
            ("parallel_median_ms", thousandths(parallel_median_ms)),
            ("speedup_min", thousandths(speedup_min)),
            ("speedup_median", thousandths(serial_median_ms / parallel_median_ms.max(1e-9))),
        ]));
    };

    // Stage outputs are reduced to a checksum-ish u64 so the closure stays
    // cheap to compare while still catching any serial/parallel divergence.
    bench("feature_store_build", ep.len(), Cost::Heavy, &|| {
        let store = FeatureStore::build(trained.phase1(), &w.target, &ep);
        ep.iter()
            .flat_map(|&p| store.get(p).expect("pair in store"))
            .map(|f| f.to_bits() as u64)
            .sum()
    });
    bench("phase1_predict_graph", ep.len(), Cost::Heavy, &|| {
        trained.phase1().predict_graph(&w.target, &ep).n_edges() as u64
    });
    bench("svm_batch_predict", ep.len(), Cost::Medium, &|| {
        let store = FeatureStore::build(trained.phase1(), &w.target, &ep);
        let g = trained.phase1().predict_graph(&w.target, &ep);
        let k = trained.config().k_hop;
        let x: Vec<Vec<f32>> = ep
            .iter()
            .map(|&p| friendseeker::features::composite_feature(&g, p, k, &store))
            .collect();
        let scaled = trained.phase2().scaler().transform(&x);
        trained.phase2().svm().predict(&scaled).iter().filter(|&&p| p).count() as u64
    });
    bench("infer_full_refinement", ep.len(), Cost::Heavy, &|| {
        let r = trained.infer_pairs(&w.target, ep.clone());
        r.predictions().iter().filter(|&&p| p).count() as u64 + r.trace.graphs.len() as u64
    });

    // Dense blocked GEMM (square f32 matmul). Band parallelism dispatches
    // over row bands of 64, so `items` is the band count.
    const GEMM_N: usize = 256;
    let gemm_a = Matrix::from_vec(
        GEMM_N,
        GEMM_N,
        (0..GEMM_N * GEMM_N).map(|i| ((i * 2_654_435_761) % 1000) as f32 * 1e-3).collect(),
    );
    let gemm_b = Matrix::from_vec(
        GEMM_N,
        GEMM_N,
        (0..GEMM_N * GEMM_N).map(|i| ((i * 2_246_822_519) % 1000) as f32 * 1e-3 - 0.5).collect(),
    );
    bench("nn_dense_matmul", GEMM_N.div_ceil(64), Cost::Heavy, &|| {
        let c = gemm_a.matmul(&gemm_b);
        c.as_slice().iter().map(|f| f.to_bits() as u64).sum()
    });

    let doc = JsonValue::object([
        ("bench", "seeker-par serial vs parallel".into()),
        ("preset", Preset::Gowalla.name().into()),
        ("seed", seed.into()),
        ("threads", threads.into()),
        ("effective_cores", effective_cores.into()),
        ("warmup", WARMUP.into()),
        ("reps", REPS.into()),
        ("stages", JsonValue::Array(records)),
    ]);
    report::save("BENCH_par.json", &doc.to_pretty_string()).expect("write BENCH_par.json");
    seeker_obs::flush();

    if let Some(gate) = gate {
        let (worst, speedup) =
            speedups.iter().min_by(|a, b| a.1.total_cmp(&b.1)).expect("at least one stage");
        if *speedup < gate {
            eprintln!(
                "bench_par GATE FAILED: stage `{worst}` speedup {speedup:.3} < {gate} \
                 (parallel dispatch is costing wall-clock)"
            );
            std::process::exit(1);
        }
        eprintln!("bench_par gate passed: worst stage speedup {speedup:.3} >= {gate}");
    }
}
