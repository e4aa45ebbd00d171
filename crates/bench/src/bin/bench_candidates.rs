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

use std::fmt::Write as _;
use std::time::Instant;

use friendseeker::features::{composite_feature, FeatureStore};
use friendseeker::pairs::all_pairs;
use seeker_bench::report::results_dir;
use seeker_graph::{reachable_rows, PairIndex, SocialGraph, REACH_WORK_PER_PAIR};
use seeker_trace::synth::{generate, SyntheticConfig};

/// Timing repetitions; the minimum is reported (least-noise statistic).
const REPS: usize = 3;

fn time_min<R>(mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let r = f();
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
        out = Some(r);
    }
    (best, out.expect("REPS >= 1"))
}

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

    let (full_ms, full_feats) =
        time_min(|| seeker_par::par_map(&pairs, |&p| composite_feature(&next, p, k, &store)));

    let (incr_ms, incr_feats) = time_min(|| {
        let mut feats = seeker_par::par_map(&pairs, |&p| composite_feature(&graph, p, k, &store));
        let t0 = Instant::now();
        let dirty = reachable_rows(&graph, &next, &index, k, &[], REACH_WORK_PER_PAIR).rows;
        let fresh = seeker_par::par_map(&dirty, |&i| composite_feature(&next, pairs[i], k, &store));
        for (&i, f) in dirty.iter().zip(fresh) {
            feats[i] = f;
        }
        (t0.elapsed().as_secs_f64() * 1e3, dirty.len(), feats)
    });
    let (incr_refresh_ms, n_dirty, incr_feats) = incr_feats;
    let _ = incr_ms; // outer timing includes the baseline build; use the inner clock
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
        let (e2e_fast_ms, fast) = time_min(|| trained.infer(&target).expect("infer"));
        let (e2e_full_ms, full) = time_min(|| trained.infer_full(&target).expect("infer_full"));
        assert_eq!(
            fast.final_graph(),
            full.final_graph(),
            "candidate + incremental inference diverged from the full reference"
        );
        eprintln!("  end-to-end: infer {e2e_fast_ms:.1} ms vs infer_full {e2e_full_ms:.1} ms");
        Some((e2e_fast_ms, e2e_full_ms))
    } else {
        eprintln!("  end-to-end: skipped (set SEEKER_BENCH_E2E=1 to run)");
        None
    };

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"candidate generation + incremental refinement\",");
    let _ = writeln!(json, "  \"seed\": {seed},");
    let _ = writeln!(json, "  \"target_users\": {},", target.n_users());
    let _ = writeln!(json, "  \"reps\": {REPS},");
    let _ = writeln!(json, "  \"universe\": {{");
    let _ = writeln!(json, "    \"all_pairs\": {n_total},");
    let _ = writeln!(json, "    \"candidates\": {n_candidates},");
    let _ = writeln!(json, "    \"residue\": {},", universe.n_residue);
    let _ = writeln!(json, "    \"retained_fraction\": {:.4},", universe.retained_fraction());
    let _ = writeln!(json, "    \"zero_joc_probability\": {:.6},", universe.residue_probability);
    let _ = writeln!(json, "    \"fallback_full\": {}", universe.residue_predicted_friend);
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"per_iteration_refresh\": {{");
    let _ = writeln!(json, "    \"diff_edges\": 1,");
    let _ = writeln!(json, "    \"dirty_pairs\": {n_dirty},");
    let _ = writeln!(json, "    \"total_pairs\": {},", pairs.len());
    let _ = writeln!(json, "    \"dense_g0_dirty_pairs\": {dense_dirty},");
    let _ = writeln!(json, "    \"full_ms\": {full_ms:.3},");
    let _ = writeln!(json, "    \"incremental_ms\": {incr_refresh_ms:.3},");
    let _ = writeln!(json, "    \"speedup\": {refresh_speedup:.3}");
    let _ = writeln!(json, "  }},");
    match e2e {
        Some((fast_ms, full_ms)) => {
            let _ = writeln!(json, "  \"end_to_end\": {{");
            let _ = writeln!(json, "    \"infer_ms\": {fast_ms:.3},");
            let _ = writeln!(json, "    \"infer_full_ms\": {full_ms:.3}");
            let _ = writeln!(json, "  }}");
        }
        None => {
            let _ = writeln!(json, "  \"end_to_end\": null");
        }
    }
    let _ = writeln!(json, "}}");

    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join("BENCH_candidates.json");
    std::fs::write(&path, json).expect("write BENCH_candidates.json");
    eprintln!("saved {}", path.display());
    seeker_obs::flush();
}
