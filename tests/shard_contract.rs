//! Shard-by-shard exactness contract.
//!
//! The sharded paths — ownership-rule candidate enumeration over the
//! [`seeker_spatial::CellIndex`], the sharded candidate universe, and the
//! chunked phase-2 scoring of `TrainedAttack::infer_sharded` — must be
//! **bit identical** to their unsharded references on a fixed seed, for
//! every shard count and thread count. Sharding is a memory-layout
//! decision, never a numerics decision.
//!
//! Shard counts cover the degenerate (1), small/odd (2, 7), and
//! more-shards-than-occupied-cells (64 on the small worlds) regimes; thread
//! counts are varied in-process via `seeker_par::with_threads` (the
//! `SEEKER_THREADS` env var is read once per process, so env round-trips
//! cannot exercise both settings in one test binary).

use friendseeker::candidates::{candidate_universe, candidate_universe_sharded};
use friendseeker::{FriendSeeker, FriendSeekerConfig, TrainedAttack};
use seeker_spatial::{CellIndex, SpatialTemporalDivision};
use seeker_trace::synth::{generate, SyntheticConfig};
use seeker_trace::Dataset;
use std::sync::OnceLock;

const SHARD_COUNTS: [usize; 4] = [1, 2, 7, 64];
const THREAD_COUNTS: [usize; 2] = [1, 4];

/// The 240-user fixture: the candidate contract's worlds, but trained with
/// explicit zero-JOC negatives so the residue fallback **disengages** —
/// otherwise `infer` and `infer_sharded` would both take the identical
/// full-universe fallback and the headline comparison below would be
/// vacuous. With pruning active, the two paths genuinely diverge in
/// construction (monolithic vs chunked) and must still agree bit for bit.
fn small_fixture() -> &'static (Dataset, TrainedAttack) {
    static CELL: OnceLock<(Dataset, TrainedAttack)> = OnceLock::new();
    CELL.get_or_init(|| {
        let train = generate(&SyntheticConfig::small(61)).unwrap().dataset;
        let target = generate(&SyntheticConfig::small(62)).unwrap().dataset;
        let mut cfg = FriendSeekerConfig::fast();
        cfg.zero_joc_negatives = 64;
        let attack = FriendSeeker::new(cfg).train(&train).unwrap();
        let p1 = attack.phase1();
        assert!(
            p1.zero_joc_proba() < p1.threshold(),
            "fixture must keep pruning sound or the inference contract is vacuous"
        );
        (target, attack)
    })
}

/// A 1000-user world from the scale preset — the first size past the old
/// 240-user ceiling.
fn thousand_user_world() -> &'static Dataset {
    static CELL: OnceLock<Dataset> = OnceLock::new();
    CELL.get_or_init(|| generate(&SyntheticConfig::scale(1000, 8201)).unwrap().dataset)
}

fn assert_index_shards_exact(ds: &Dataset, division: &SpatialTemporalDivision) {
    let full_index = CellIndex::build(ds, division);
    let reference_pairs = full_index.candidate_pairs();
    for &n_shards in &SHARD_COUNTS {
        for &threads in &THREAD_COUNTS {
            seeker_par::with_threads(threads, || {
                // Ownership-rule enumeration equals the per-cell reference.
                assert_eq!(
                    full_index.candidate_pairs_sharded(n_shards),
                    reference_pairs,
                    "{n_shards} shards / {threads} threads: sharded candidates"
                );
            });
        }
    }
}

#[test]
fn index_and_joc_shards_exact_on_240_user_world() {
    let (target, _) = small_fixture();
    let division = SpatialTemporalDivision::build(target, 40, 7.0).unwrap();
    assert_index_shards_exact(target, &division);
}

#[test]
fn index_and_joc_shards_exact_on_1k_user_world() {
    let target = thousand_user_world();
    let division = SpatialTemporalDivision::build(target, 40, 7.0).unwrap();
    assert_index_shards_exact(target, &division);
}

#[test]
fn sharded_candidate_universe_matches_reference_on_both_worlds() {
    let (small_target, attack) = small_fixture();
    let big_target = thousand_user_world();
    for target in [small_target, big_target] {
        let reference = candidate_universe(attack.phase1(), target).unwrap();
        for &n_shards in &SHARD_COUNTS {
            for &threads in &THREAD_COUNTS {
                seeker_par::with_threads(threads, || {
                    let sharded =
                        candidate_universe_sharded(attack.phase1(), target, n_shards).unwrap();
                    let what = format!(
                        "{} users / {n_shards} shards / {threads} threads",
                        target.n_users()
                    );
                    assert_eq!(sharded.pairs, reference.pairs, "{what}: pairs");
                    assert_eq!(sharded.n_total, reference.n_total, "{what}: n_total");
                    assert_eq!(sharded.n_residue, reference.n_residue, "{what}: residue");
                    assert_eq!(
                        sharded.residue_probability.to_bits(),
                        reference.residue_probability.to_bits(),
                        "{what}: residue probability"
                    );
                });
            }
        }
    }
}

fn assert_traces_identical(
    a: &friendseeker::InferenceResult,
    b: &friendseeker::InferenceResult,
    what: &str,
) {
    assert_eq!(a.pairs, b.pairs, "{what}: pair universe");
    assert_eq!(a.trace.converged, b.trace.converged, "{what}: convergence flag");
    assert_eq!(a.trace.graphs.len(), b.trace.graphs.len(), "{what}: iteration count");
    for (i, (ga, gb)) in a.trace.graphs.iter().zip(b.trace.graphs.iter()).enumerate() {
        assert_eq!(ga, gb, "{what}: graph {i} differs");
    }
    let ra: Vec<u64> = a.trace.change_ratios.iter().map(|r| r.to_bits()).collect();
    let rb: Vec<u64> = b.trace.change_ratios.iter().map(|r| r.to_bits()).collect();
    assert_eq!(ra, rb, "{what}: change ratios must be bit-identical");
}

/// The headline contract: the end-to-end sharded attack — sharded candidate
/// enumeration, then chunked scoring of per-chunk composite features that
/// all read one presence store over the universe — against the default
/// `infer`.
#[test]
fn sharded_inference_matches_reference_on_240_user_world() {
    let (target, attack) = small_fixture();
    let reference = attack.infer(target).unwrap();
    for &n_shards in &SHARD_COUNTS {
        for &threads in &THREAD_COUNTS {
            seeker_par::with_threads(threads, || {
                let sharded = attack.infer_sharded(target, n_shards).unwrap();
                assert_traces_identical(
                    &sharded,
                    &reference,
                    &format!("{n_shards} shards / {threads} threads"),
                );
            });
        }
    }
}

/// Same phase-2 contract past the old ceiling: a 1000-user target. The
/// spatial and candidate layers above cover the full shard × thread matrix
/// on this world end to end; the refinement loop is pinned here over a
/// balanced labeled-pair sample (the full 499 500-pair universe would take
/// CPU-hours per shard count without telling us anything the sample
/// doesn't — chunking is a partition of whatever pair list is given).
#[test]
fn sharded_refinement_matches_reference_on_1k_user_world() {
    let (_, attack) = small_fixture();
    let target = thousand_user_world();
    let pairs = friendseeker::pairs::labeled_pairs(target, 1.0, 4242).pairs;
    let cfg = attack.config();
    let reference = attack.phase2().infer(cfg, attack.phase1(), target, &pairs);
    for &n_shards in &SHARD_COUNTS {
        for &threads in &THREAD_COUNTS {
            seeker_par::with_threads(threads, || {
                let sharded =
                    attack.phase2().infer_sharded(cfg, attack.phase1(), target, &pairs, n_shards);
                let what = format!("1k world / {n_shards} shards / {threads} threads");
                assert_eq!(sharded.converged, reference.converged, "{what}: convergence");
                assert_eq!(sharded.graphs, reference.graphs, "{what}: graph sequence");
                let ra: Vec<u64> = reference.change_ratios.iter().map(|r| r.to_bits()).collect();
                let rs: Vec<u64> = sharded.change_ratios.iter().map(|r| r.to_bits()).collect();
                assert_eq!(rs, ra, "{what}: change ratios");
            });
        }
    }
}
