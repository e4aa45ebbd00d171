//! Gates the work warm refinement does for small ingested frames: the
//! rows it rescores (`phase2.refine.dirty_pairs`) per universe row per
//! iteration.
//!
//! A warm run resumes each iteration from the same iteration of the
//! previous run, so it rescores what the frame touched, a few percent of
//! the universe here. A resume that diffs against the previous run's
//! *last* scored graph instead pays the whole `G⁰ → Gᶠ` refinement churn
//! again on every frame, and reads 0.45 on the first frame.
//!
//! Over ten consecutive frames the rows rescored are those whose paths of
//! length ≤ k a change can reach (a path-length budget over BFS depths):
//! 11,614 rows, 0.017 per row per iteration. The rule before it marked
//! every pair with both endpoints near some change and read 32,737 rows,
//! 0.047.
//!
//! Counters are global atomics, so this lives in its own integration-test
//! binary (its own process) where no other test bumps them, under an
//! installed `TestSink`.

use friendseeker::{FriendSeeker, FriendSeekerConfig, IncrementalAttack, IncrementalOptions};
use seeker_obs::{counter_value, TestSink};
use seeker_trace::synth::{generate, SyntheticConfig};
use seeker_trace::CheckIn;

/// Rescored rows per universe row per iteration, for one frame.
const MAX_DIRTY_FRACTION: f64 = 0.2;

/// Consecutive 20-check-in frames in the second measurement; the first is
/// the frame the one-frame bound reads.
const FRAMES: usize = 10;

/// Rescored rows per universe row per iteration, over all [`FRAMES`].
const MAX_FRAMES_DIRTY_FRACTION: f64 = 0.03;

#[test]
fn one_frame_rescores_a_small_share_of_the_universe() {
    let (_sink, _guard) = TestSink::install();

    // A 250-user training world spread over the region of a 10k-user world,
    // so the frozen division covers the target; this model refines for two
    // iterations.
    let mut world = SyntheticConfig::scale(250, 7);
    world.region_extent_km = SyntheticConfig::scale(10_000, 7).region_extent_km;
    world.n_cities = 24;
    let train = generate(&world).unwrap().dataset;
    let attack = FriendSeeker::new(FriendSeekerConfig::scale()).train(&train).unwrap();
    assert!(attack.phase2().n_iterations() >= 2, "fixture must refine for at least 2 iterations");

    // Every fifth in-span check-in is withheld from the session; the frame
    // is 20 of them, consecutive in time, from the middle of the stream.
    let target = generate(&SyntheticConfig::scale(3000, 1000)).unwrap().dataset;
    let slots = attack.phase1().division().slots();
    let (mut kept, mut withheld): (Vec<CheckIn>, Vec<CheckIn>) = (Vec::new(), Vec::new());
    for (i, c) in target.checkins().iter().enumerate() {
        if i % 5 == 0 && slots.slot_of(c.time).is_some() {
            withheld.push(*c);
        } else {
            kept.push(*c);
        }
    }
    withheld.sort_by_key(|c| c.time);
    let mid = withheld.len() / 2;
    let initial = target.with_checkins(kept).unwrap();
    let mut session =
        IncrementalAttack::new(attack, initial, IncrementalOptions::default()).unwrap();

    let (mut total_dirty, mut total_rows) = (0u64, 0usize);
    for (i, frame) in withheld[mid..mid + FRAMES * 20].chunks(20).enumerate() {
        let before = counter_value("phase2.refine.dirty_pairs");
        session.ingest(frame).unwrap();
        let dirty = counter_value("phase2.refine.dirty_pairs") - before;
        let universe = session.result().pairs.len();
        let iterations = session.result().trace.n_iterations();
        if i == 0 {
            assert!(iterations >= 2, "the frame's run must refine for at least 2 iterations");
            let fraction = dirty as f64 / (universe * iterations) as f64;
            assert!(
                fraction < MAX_DIRTY_FRACTION,
                "one {}-check-in frame rescored {dirty} rows over {iterations} iterations of a \
                 {universe}-pair universe: {fraction:.3} per row per iteration, bound \
                 {MAX_DIRTY_FRACTION}",
                frame.len()
            );
        }
        total_dirty += dirty;
        total_rows += universe * iterations;
    }
    let fraction = total_dirty as f64 / total_rows as f64;
    assert!(
        fraction < MAX_FRAMES_DIRTY_FRACTION,
        "{FRAMES} frames rescored {total_dirty} rows of {total_rows} universe rows over their \
         iterations: {fraction:.4} per row per iteration, bound {MAX_FRAMES_DIRTY_FRACTION}"
    );
}
