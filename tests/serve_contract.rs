//! The append==rebuild contract behind `seeker-serve`.
//!
//! An [`friendseeker::IncrementalAttack`] session that opens on a prefix of
//! a world and ingests the remainder in any number of batches must end
//! **bit-identical** — same pairs, same graph sequence, same change ratios
//! to the last f64 bit — to running [`friendseeker::TrainedAttack::infer`]
//! once on the fully rebuilt dataset. The property must hold regardless of
//! thread count (delta refresh fans out over `seeker-par`) and regardless
//! of the sharded candidate enumeration (`IncrementalOptions::n_shards`),
//! because both are memory/scheduling decisions, never numeric ones.

use friendseeker::{
    FriendSeeker, FriendSeekerConfig, IncrementalAttack, IncrementalOptions, InferenceResult,
    TrainedAttack,
};
use proptest::prelude::*;
use seeker_trace::synth::{generate, SyntheticConfig};
use seeker_trace::{CheckIn, Dataset, UserPair};
use std::sync::OnceLock;

const THREAD_COUNTS: [usize; 2] = [1, 4];
const SHARD_COUNTS: [Option<usize>; 2] = [Some(1), Some(7)];

/// Trained attack + target world, shared across cases (deterministic).
fn fixture() -> &'static (TrainedAttack, Dataset) {
    static CELL: OnceLock<(TrainedAttack, Dataset)> = OnceLock::new();
    CELL.get_or_init(|| {
        let train = generate(&SyntheticConfig::small(83)).unwrap().dataset;
        let target = generate(&SyntheticConfig::small(84)).unwrap().dataset;
        let trained = FriendSeeker::new(FriendSeekerConfig::fast()).train(&train).unwrap();
        (trained, target)
    })
}

fn assert_bit_identical(a: &InferenceResult, b: &InferenceResult) {
    assert_eq!(a.pairs, b.pairs, "classified pair universes diverged");
    assert_eq!(a.trace.graphs.len(), b.trace.graphs.len(), "iteration counts diverged");
    for (i, (ga, gb)) in a.trace.graphs.iter().zip(&b.trace.graphs).enumerate() {
        let ea: Vec<UserPair> = ga.edges().collect();
        let eb: Vec<UserPair> = gb.edges().collect();
        assert_eq!(ea, eb, "graph {i} diverged");
    }
    assert_eq!(a.trace.converged, b.trace.converged);
    assert_eq!(a.trace.change_ratios.len(), b.trace.change_ratios.len());
    for (ra, rb) in a.trace.change_ratios.iter().zip(&b.trace.change_ratios) {
        assert_eq!(ra.to_bits(), rb.to_bits(), "change ratio diverged in the last bit");
    }
}

/// Splits `tail` into `n_batches` contiguous batches with pseudo-random cut
/// points derived from `salt` (deterministic, no RNG state needed).
fn split_batches(tail: &[CheckIn], n_batches: usize, salt: u64) -> Vec<Vec<CheckIn>> {
    let mut cuts: Vec<usize> = (0..n_batches - 1)
        .map(|i| {
            let h = salt
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(i as u64)
                .wrapping_mul(0xbf58_476d_1ce4_e5b9);
            (h % (tail.len() as u64 + 1)) as usize
        })
        .collect();
    cuts.push(0);
    cuts.push(tail.len());
    cuts.sort_unstable();
    cuts.windows(2).map(|w| tail[w[0]..w[1]].to_vec()).collect()
}

fn run_case(initial_fraction_pct: usize, n_batches: usize, salt: u64) {
    let (trained, target) = fixture();
    // Ingest rejects check-ins outside the *training* observation span
    // (the reference `infer` treats them as feature no-ops), so the target
    // worlds' out-of-span check-ins belong in the initial dataset; only
    // in-span ones are streamable.
    let slots = trained.phase1().division().slots();
    let (in_span, out_of_span): (Vec<CheckIn>, Vec<CheckIn>) =
        target.checkins().iter().partition(|c| slots.slot_of(c.time).is_some());
    let cut = in_span.len() * initial_fraction_pct / 100;
    let mut head = out_of_span;
    head.extend_from_slice(&in_span[..cut]);
    let initial = target.with_checkins(head).unwrap();
    let tail = in_span[cut..].to_vec();
    let batches = split_batches(&tail, n_batches, salt);
    assert_eq!(batches.iter().map(Vec::len).sum::<usize>(), tail.len());

    let reference = trained.infer(target).unwrap();
    for &threads in &THREAD_COUNTS {
        for &n_shards in &SHARD_COUNTS {
            seeker_par::with_threads(threads, || {
                let opts = IncrementalOptions { n_shards };
                let mut session =
                    IncrementalAttack::new(trained.clone(), initial.clone(), opts).unwrap();
                for batch in &batches {
                    session.ingest(batch).unwrap();
                }
                assert_bit_identical(session.result(), &reference);
            });
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The headline property: any batch split, any thread count, any shard
    /// count — one bit-identical answer.
    #[test]
    fn append_equals_rebuild_bitwise(
        initial_pct in 40usize..90,
        n_batches in 1usize..9,
        salt in 0u64..u64::MAX,
    ) {
        run_case(initial_pct, n_batches, salt);
    }
}

/// Degenerate splits that the hashing above may not hit: everything in one
/// batch, and a session opened on an (almost) empty prefix.
#[test]
fn degenerate_splits_match_rebuild() {
    run_case(85, 1, 0);
    run_case(5, 8, 17);
}
