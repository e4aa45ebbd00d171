//! Candidate-generation and incremental-refinement benchmark.
//!
//! Two measurements on a synthetic world, written to
//! `results/BENCH_candidates.json`:
//!
//! 1. **Candidate-universe reduction** — how far the STD cell index shrinks
//!    the quadratic pair universe (pairs sharing ≥ 1 cell vs `n·(n−1)/2`),
//!    plus the zero-JOC residue gate's verdict.
//! 2. **Per-iteration refine speedup** — the cost of bringing the composite
//!    features up to date after a converged-regime diff (1 changed edge, the
//!    steady state implied by the < 1 % convergence threshold): dirty-pair
//!    refresh via `reachable_rows`, the rule phase 2 rescores by, vs full
//!    recompute. The refreshed matrix is asserted bit-identical to the full
//!    recompute before any timing is reported.
//!
//! The refinement state for measurement 2 is the target's ground-truth
//! friendship graph. Refinement iterates on *predicted* social graphs, but
//! real social graphs — the paper's setting — are sparse (mean degree ≈ 5
//! here), and the attack's accuracy contract means a converged prediction is
//! sparse too. The tiny-world phase-1 calibration over-predicts, producing
//! an unrealistically dense G⁰ in which one changed edge reaches about half
//! of the pairs within the path-length budget; we still *count* the dirty
//! pairs in that dense regime and record the number as an honest worst case
//! (`dense_g0_dirty_pairs`).
//!
//! The end-to-end `infer` vs `infer_full` wall clock is a secondary,
//! expensive statistic (it dilutes the per-iteration win with the shared
//! first full pass and phase-1 work); opt in with `SEEKER_BENCH_E2E=1`.

#![deny(missing_docs, dead_code)]

use friendseeker::features::{composite_feature, FeatureStore};
use friendseeker::pairs::all_pairs;
use seeker_bench::harness::time_stats;
use seeker_bench::report;
use seeker_graph::{reachable_rows, PairIndex, SocialGraph, REACH_WORK_PER_PAIR};
use seeker_obs::json::JsonValue;
use seeker_trace::synth::{generate, SyntheticConfig};

/// Timing repetitions; the minimum is reported (least-noise statistic).
const REPS: usize = 3;

fn main() {
    let _obs = seeker_obs::init_cli_sinks();
    let seed = seeker_bench::seed_from_env();
    eprintln!("bench_candidates: seed {seed}");

    let train = generate(&SyntheticConfig::small(seed)).expect("train world").dataset;
    // A larger target than the unit-test worlds: candidate pruning and
    // dirty-pair locality only have room to pay off when the k-hop ball
    // does not swallow the whole graph.
    let mut target_cfg = SyntheticConfig::small(seed + 1);
    target_cfg.n_users = 240;
    target_cfg.n_pois = 960;
    let target = generate(&target_cfg).expect("target world").dataset;

    let cfg = friendseeker::FriendSeekerConfig::fast();
    let k = cfg.k_hop;
    let trained = friendseeker::FriendSeeker::new(cfg).train(&train).expect("training");

    // -- 1. Candidate-universe reduction --------------------------------
    let universe =
        friendseeker::candidate_universe(trained.phase1(), &target).expect("universe fits");
    let n_total = universe.n_total;
    let n_candidates = universe.pairs.len() as u64;
    assert!(
        n_candidates < n_total,
        "candidate universe ({n_candidates}) must be smaller than all pairs ({n_total})"
    );
    eprintln!(
        "  candidates: {n_candidates} of {n_total} pairs ({:.1} % retained), \
         residue {} @ zero-JOC p={:.4} (fallback: {})",
        100.0 * universe.retained_fraction(),
        universe.n_residue,
        universe.residue_probability,
        universe.residue_predicted_friend
    );

    // -- 2. Per-iteration refresh: dirty-pair vs full recompute ---------
    let pairs = all_pairs(&target).expect("universe fits");
    let store = FeatureStore::build(trained.phase1(), &target, &pairs);
    let index = PairIndex::new(&pairs);
    let graph = SocialGraph::from_edges(target.n_users(), target.friendships());
    // Converged-regime diff: toggle one edge (< 1 % of edges by far).
    let mut next = graph.clone();
    let toggle = *pairs.first().expect("non-empty universe");
    if !next.add_edge(toggle) {
        next.remove_edge(toggle);
    }

    let (full_ms, _, full_feats) = time_stats(0, REPS, || {
        seeker_par::par_map(&pairs, |&p| composite_feature(&next, p, k, &store))
    });

    // The refresh is timed alone: the features of `graph` it starts from
    // are built once, outside the clock.
    let mut incr_feats = seeker_par::par_map(&pairs, |&p| composite_feature(&graph, p, k, &store));
    let (incr_refresh_ms, _, (dirty, fresh)) = time_stats(0, REPS, || {
        let dirty = reachable_rows(&graph, &next, &index, k, &[], REACH_WORK_PER_PAIR).rows;
        let fresh = seeker_par::par_map(&dirty, |&i| composite_feature(&next, pairs[i], k, &store));
        (dirty, fresh)
    });
    let n_dirty = dirty.len();
    for (&i, f) in dirty.iter().zip(fresh) {
        incr_feats[i] = f;
    }
    assert_eq!(full_feats, incr_feats, "dirty-pair refresh diverged from full recompute");
    let refresh_speedup = full_ms / incr_refresh_ms.max(1e-9);
    eprintln!(
        "  per-iteration refresh: full {full_ms:.1} ms vs dirty {incr_refresh_ms:.1} ms \
         ({n_dirty} of {} pairs dirty, {refresh_speedup:.1}x)",
        pairs.len()
    );

    // Worst case for the record: the same 1-edge diff against the dense
    // over-predicted G⁰, where the edge's budget reaches about half the pairs.
    let g0 = trained.phase1().predict_graph(&target, &pairs);
    let mut g0_next = g0.clone();
    if !g0_next.add_edge(toggle) {
        g0_next.remove_edge(toggle);
    }
    let dense_dirty = reachable_rows(&g0, &g0_next, &index, k, &[], REACH_WORK_PER_PAIR).rows.len();
    eprintln!("  dense-G0 worst case: {dense_dirty} of {} pairs dirty", pairs.len());

    // -- 3. End-to-end infer vs infer_full (secondary, opt-in) ----------
    let run_e2e = seeker_obs::env::flag("SEEKER_BENCH_E2E");
    let e2e = if run_e2e {
        let (e2e_fast_ms, _, fast) = time_stats(0, REPS, || trained.infer(&target).expect("infer"));
        let (e2e_full_ms, _, full) =
            time_stats(0, REPS, || trained.infer_full(&target).expect("infer_full"));
        assert_eq!(
            fast.final_graph(),
            full.final_graph(),
            "candidate + incremental inference diverged from the full reference"
        );
        eprintln!("  end-to-end: infer {e2e_fast_ms:.1} ms vs infer_full {e2e_full_ms:.1} ms");
        JsonValue::object([
            ("infer_ms", JsonValue::rounded(e2e_fast_ms, 3)),
            ("infer_full_ms", JsonValue::rounded(e2e_full_ms, 3)),
        ])
    } else {
        eprintln!("  end-to-end: skipped (set SEEKER_BENCH_E2E=1 to run)");
        JsonValue::Null
    };

    let doc = JsonValue::object([
        ("bench", "candidate generation + incremental refinement".into()),
        ("seed", seed.into()),
        ("target_users", target.n_users().into()),
        ("reps", REPS.into()),
        (
            "universe",
            JsonValue::object([
                ("all_pairs", n_total.into()),
                ("candidates", n_candidates.into()),
                ("residue", universe.n_residue.into()),
                ("retained_fraction", JsonValue::rounded(universe.retained_fraction(), 4)),
                ("zero_joc_probability", JsonValue::rounded(universe.residue_probability, 6)),
                ("fallback_full", universe.residue_predicted_friend.into()),
            ]),
        ),
        (
            "per_iteration_refresh",
            JsonValue::object([
                ("diff_edges", 1u64.into()),
                ("dirty_pairs", n_dirty.into()),
                ("total_pairs", pairs.len().into()),
                ("dense_g0_dirty_pairs", dense_dirty.into()),
                ("full_ms", JsonValue::rounded(full_ms, 3)),
                ("incremental_ms", JsonValue::rounded(incr_refresh_ms, 3)),
                ("speedup", JsonValue::rounded(refresh_speedup, 3)),
            ]),
        ),
        ("end_to_end", e2e),
    ]);
    report::save("BENCH_candidates.json", &doc.to_pretty_string())
        .expect("write BENCH_candidates.json");
    seeker_obs::flush();
}
