//! Pins the work of a cold `Phase2Model::infer` under the block scorer,
//! against numbers this test derives on its own: every iteration extracts
//! each row it rescores exactly once (`graph.khop.extractions`), visits the
//! paths `KHopSubgraph::extract` finds for that row on that iteration's
//! graph (`graph.khop.paths`), and counts one kernel evaluation per real
//! support vector per row (`ml.svm.kernel_evals`).
//!
//! The rows an iteration rescores are rebuilt here from the trace: every
//! row on the cold first iteration, then the `reachable_rows` of the edge
//! diff between the two graphs scored before. Of those extractions, the
//! ones whose `b` endpoint has the smaller two-hop sum
//! (`Σ_{x ∈ N(b)} deg x`) on the scored graph walk their longer paths from
//! `b` (`graph.khop.mirrored`).
//!
//! Counters are global atomics, so this lives in its own integration-test
//! binary (its own process) where no other test bumps them, under an
//! installed `TestSink`.

use friendseeker::{candidate_universe, FriendSeeker, FriendSeekerConfig};
use seeker_graph::{reachable_rows, KHopSubgraph, PairIndex, SocialGraph, REACH_WORK_PER_PAIR};
use seeker_obs::{counter_value, TestSink};
use seeker_trace::synth::{generate, SyntheticConfig};
use seeker_trace::UserId;

#[test]
fn cold_inference_extracts_and_scores_each_dirty_row_once() {
    let (_sink, _guard) = TestSink::install();

    // The 250-user model of the warm-refinement gate, which refines for at
    // least two iterations, on a 1,000-user target.
    let mut world = SyntheticConfig::scale(250, 7);
    world.region_extent_km = SyntheticConfig::scale(10_000, 7).region_extent_km;
    world.n_cities = 24;
    let train = generate(&world).unwrap().dataset;
    let attack = FriendSeeker::new(FriendSeekerConfig::scale()).train(&train).unwrap();
    let (cfg, phase1, phase2) = (attack.config(), attack.phase1(), attack.phase2());
    let target = generate(&SyntheticConfig::scale(1000, 1000)).unwrap().dataset;
    let pairs = candidate_universe(phase1, &target).unwrap().pairs;

    let names = [
        "phase2.refine.dirty_pairs",
        "graph.khop.extractions",
        "graph.khop.paths",
        "graph.khop.mirrored",
    ];
    let before = names.map(counter_value);
    let evals_before = counter_value("ml.svm.kernel_evals");
    let trace = phase2.infer(cfg, phase1, &target, &pairs);
    let [dirty, extractions, paths, mirrored] = {
        let after = names.map(counter_value);
        [0, 1, 2, 3].map(|i| after[i] - before[i])
    };
    let evals = counter_value("ml.svm.kernel_evals") - evals_before;
    assert!(trace.n_iterations() >= 2, "fixture must refine for at least 2 iterations");

    let index = PairIndex::new(&pairs);
    let scored = &trace.graphs[..trace.n_iterations()];
    let two_hop_sum =
        |g: &SocialGraph, u: UserId| -> usize { g.neighbors(u).iter().map(|&v| g.degree(v)).sum() };
    let (mut rows_scored, mut paths_expected, mut mirrored_expected) = (0u64, 0u64, 0u64);
    for (t, graph) in scored.iter().enumerate() {
        let rows: Vec<usize> = if t == 0 {
            (0..pairs.len()).collect()
        } else {
            let mut rows =
                reachable_rows(&scored[t - 1], graph, &index, cfg.k_hop, &[], REACH_WORK_PER_PAIR)
                    .rows;
            rows.sort_unstable();
            rows.dedup();
            rows
        };
        assert!(t == 0 || rows.len() < pairs.len(), "iteration {t} rescored every row");
        rows_scored += rows.len() as u64;
        paths_expected += rows
            .iter()
            .map(|&i| KHopSubgraph::extract(graph, pairs[i], cfg.k_hop).n_paths() as u64)
            .sum::<u64>();
        mirrored_expected += rows
            .iter()
            .filter(|&&i| {
                cfg.k_hop >= 3
                    && two_hop_sum(graph, pairs[i].hi()) < two_hop_sum(graph, pairs[i].lo())
            })
            .count() as u64;
    }
    assert_eq!(dirty, rows_scored, "rows rescored (phase2.refine.dirty_pairs)");
    assert_eq!(extractions, rows_scored, "k-hop extractions, one per rescored row");
    assert_eq!(paths, paths_expected, "k-hop paths of the rescored rows");
    assert!(paths > 0, "the fixture's rows must have paths");
    assert_eq!(mirrored, mirrored_expected, "extractions walked from b (graph.khop.mirrored)");
    assert!(
        0 < mirrored && mirrored < extractions,
        "{mirrored} of {extractions} extractions walked from b: the fixture must walk from both ends"
    );
    let n_sv = phase2.svm().n_support_vectors() as u64;
    assert_eq!(evals, rows_scored * n_sv, "kernel evaluations, one per row and support vector");
}
