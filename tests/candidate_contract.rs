//! Candidate-mode / incremental-refinement exactness contract.
//!
//! The quadratic reference path — full pair universe, full per-iteration
//! feature recompute (`TrainedAttack::infer_full`, the refinement driver's
//! reference mode) — and the optimized default path — co-occurrence candidates plus
//! dirty-pair refresh (`TrainedAttack::infer`) — must produce **bit
//! identical** output on a fixed seed: the same final `SocialGraph`, the
//! same graph sequence, and the same change ratios to the last bit.
//!
//! Incremental vs full refinement over the *same* pair list is exact by
//! construction (the dirty-radius argument in DESIGN.md §8.2); candidate
//! pruning is additionally guarded by the zero-JOC fallback, so the
//! universes also agree whenever pruning would be unsound.

use friendseeker::pairs::{all_pairs, labeled_pairs};
use friendseeker::{FriendSeeker, FriendSeekerConfig, TrainedAttack};
use seeker_trace::synth::{generate, SyntheticConfig};
use seeker_trace::Dataset;
use std::sync::OnceLock;

fn fixture() -> &'static (Dataset, TrainedAttack) {
    static CELL: OnceLock<(Dataset, TrainedAttack)> = OnceLock::new();
    CELL.get_or_init(|| {
        let train = generate(&SyntheticConfig::small(61)).unwrap().dataset;
        let target = generate(&SyntheticConfig::small(62)).unwrap().dataset;
        let attack = FriendSeeker::new(FriendSeekerConfig::fast()).train(&train).unwrap();
        (target, attack)
    })
}

fn assert_traces_identical(
    a: &friendseeker::InferenceResult,
    b: &friendseeker::InferenceResult,
    what: &str,
) {
    assert_eq!(a.trace.converged, b.trace.converged, "{what}: convergence flag");
    assert_eq!(a.trace.graphs.len(), b.trace.graphs.len(), "{what}: iteration count");
    for (i, (ga, gb)) in a.trace.graphs.iter().zip(b.trace.graphs.iter()).enumerate() {
        assert_eq!(ga, gb, "{what}: graph {i} differs");
    }
    let ra: Vec<u64> = a.trace.change_ratios.iter().map(|r| r.to_bits()).collect();
    let rb: Vec<u64> = b.trace.change_ratios.iter().map(|r| r.to_bits()).collect();
    assert_eq!(ra, rb, "{what}: change ratios must be bit-identical");
}

/// The headline contract: default `infer` (candidates + incremental)
/// against `infer_full` (all pairs + full recompute per iteration).
#[test]
fn candidate_incremental_infer_matches_full_reference() {
    let (target, attack) = fixture();
    let fast = attack.infer(target).unwrap();
    let full = attack.infer_full(target).unwrap();
    assert_traces_identical(&fast, &full, "infer vs infer_full");
    assert_eq!(fast.final_graph(), full.final_graph());
    // The universe split is recorded and accounts for every pair.
    let u = fast.candidates.as_ref().expect("candidate mode records its split");
    assert_eq!(u.pairs.len() as u64 + u.n_residue, u.n_total);
    let n = target.n_users() as u64;
    assert_eq!(u.n_total, n * (n - 1) / 2);
}

/// Incremental vs full refinement over the *same* explicit pair list —
/// the part of the contract that is exact by the dirty-radius theorem,
/// independent of candidate pruning.
#[test]
fn incremental_refine_matches_full_on_explicit_pairs() {
    let (target, attack) = fixture();
    for seed in [777u64, 4242] {
        let pairs = labeled_pairs(target, 1.0, seed).pairs;
        let fast = attack.infer_pairs(target, pairs.clone());
        let full = attack.infer_pairs_full(target, pairs);
        assert_traces_identical(&fast, &full, "infer_pairs vs infer_pairs_full");
    }
}

/// Same exactness over the full quadratic universe.
#[test]
fn incremental_refine_matches_full_on_quadratic_universe() {
    let (target, attack) = fixture();
    let pairs = all_pairs(target).unwrap();
    let fast = attack.infer_pairs(target, pairs.clone());
    let full = attack.infer_pairs_full(target, pairs);
    assert_traces_identical(&fast, &full, "quadratic infer_pairs vs infer_pairs_full");
}
