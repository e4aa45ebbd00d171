//! Gates the work warm refinement does for small ingested frames: the
//! rows it rescores (`phase2.refine.dirty_pairs`) per universe row per
//! iteration. On the same session it gates presence encoding: every
//! inference encodes each pair it classifies exactly once.
//!
//! A warm run resumes each iteration from the same iteration of the
//! previous run, so it rescores what the frame touched, a few percent of
//! the universe here. A resume that diffs against the previous run's
//! *last* scored graph instead pays the whole `G⁰ → Gᶠ` refinement churn
//! again on every frame, and reads 0.45 on the first frame.
//!
//! Over ten consecutive frames the rows rescored are those whose paths of
//! length ≤ k one change can reach (a path-length budget spent per changed
//! edge and per dirty user): 8,037 rows of 691,790, 0.0116 per row per
//! iteration. Multi-source depths, which also mark a pair whose endpoints
//! sit near two different changes, read 11,614 rows (0.0168), and the
//! two-ball rule before them, every pair with both endpoints near some
//! change, 32,737 (0.047).
//!
//! Encoding is counted by JOC builds (`spatial.joc.builds`) and encoded
//! pairs (`core.pairs_evaluated`). Opening the session builds one JOC per
//! classified pair, each frame one JOC and one evaluated pair per pair it
//! re-encodes (`incremental.ingest.dirty_pairs`), and a cold
//! `Phase2Model::infer` or `infer_sharded` adds exactly the pair count to
//! both. `G⁰` is classified
//! from the encoded rows, and chunked scoring reads the same store. When
//! `G⁰` and each scoring chunk encoded their own rows, a session open and
//! each frame built twice these JOCs, and sharded inference ~2.75 times.
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
const MAX_FRAMES_DIRTY_FRACTION: f64 = 0.014;

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
    let joc_builds = || counter_value("spatial.joc.builds");
    let builds_before = joc_builds();
    let mut session =
        IncrementalAttack::new(attack, initial, IncrementalOptions::default()).unwrap();
    let classified = session.result().pairs.len() as u64;
    assert_eq!(joc_builds() - builds_before, classified, "JOCs built to open the session");

    let (mut total_dirty, mut total_rows) = (0u64, 0usize);
    for (i, frame) in withheld[mid..mid + FRAMES * 20].chunks(20).enumerate() {
        let before = counter_value("phase2.refine.dirty_pairs");
        let (encoded_before, builds_before, evaluated_before) = (
            counter_value("incremental.ingest.dirty_pairs"),
            joc_builds(),
            counter_value("core.pairs_evaluated"),
        );
        session.ingest(frame).unwrap();
        let dirty = counter_value("phase2.refine.dirty_pairs") - before;
        let encoded = counter_value("incremental.ingest.dirty_pairs") - encoded_before;
        assert!(encoded > 0, "frame {i} re-encoded no pair");
        assert_eq!(joc_builds() - builds_before, encoded, "JOCs built by frame {i}");
        let evaluated = counter_value("core.pairs_evaluated") - evaluated_before;
        assert_eq!(evaluated, encoded, "pairs counted as evaluated by frame {i}");
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

    // Cold inferences over the session's final universe, unsharded and in
    // chunks, each encode every pair once and equal the session's result.
    let attack = session.attack();
    let (cfg, phase1, phase2) = (attack.config(), attack.phase1(), attack.phase2());
    let (target, pairs) = (session.dataset(), &session.result().pairs);
    let n_pairs = pairs.len() as u64;
    for shards in [None, Some(1), Some(7)] {
        let (evaluated_before, builds_before) =
            (counter_value("core.pairs_evaluated"), joc_builds());
        let trace = match shards {
            None => phase2.infer(cfg, phase1, target, pairs),
            Some(n) => phase2.infer_sharded(cfg, phase1, target, pairs, n),
        };
        let evaluated = counter_value("core.pairs_evaluated") - evaluated_before;
        assert_eq!(evaluated, n_pairs, "pairs encoded by a cold inference, {shards:?} shards");
        assert_eq!(joc_builds() - builds_before, n_pairs, "JOCs built, {shards:?} shards");
        let session_graphs = &session.result().trace.graphs;
        assert_eq!(&trace.graphs, session_graphs, "cold inference, {shards:?} shards");
    }
}
