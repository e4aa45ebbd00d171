//! `G⁰` from encoded rows, for every classifier `C`.
//!
//! Every inference path encodes each pair's presence row once and
//! classifies `G⁰` from those rows through
//! `Phase1Model::predict_proba_encoded`, which serves all three
//! [`ClassifierKind`]s. For each kind, on a small world, the `G⁰` of
//! `infer`, of `infer_sharded` (1 and 7 shards) and of a freshly opened
//! `IncrementalAttack` must equal `Phase1Model::predict` evaluated one pair
//! at a time, and their traces must equal `infer_pairs_full`'s bit for bit.

use friendseeker::{
    ClassifierKind, FriendSeeker, FriendSeekerConfig, IncrementalAttack, IncrementalOptions,
    InferenceResult,
};
use seeker_trace::synth::{generate, SyntheticConfig};

fn assert_g0_and_trace_exact(kind: ClassifierKind) {
    let train = generate(&SyntheticConfig::small(61)).unwrap().dataset;
    let target = generate(&SyntheticConfig::small(62)).unwrap().dataset;
    let mut cfg = FriendSeekerConfig::fast();
    cfg.classifier = kind;
    cfg.zero_joc_negatives = 64;
    let attack = FriendSeeker::new(cfg).train(&train).unwrap();

    let reference = attack.infer(&target).unwrap();
    let full = attack.infer_pairs_full(&target, reference.pairs.clone());
    let session =
        IncrementalAttack::new(attack.clone(), target.clone(), IncrementalOptions::default())
            .unwrap();
    let runs: [(&str, InferenceResult); 4] = [
        ("infer", reference),
        ("1 shard", attack.infer_sharded(&target, 1).unwrap()),
        ("7 shards", attack.infer_sharded(&target, 7).unwrap()),
        ("session", session.result().clone()),
    ];

    let phase1 = attack.phase1();
    let one_at_a_time: Vec<bool> =
        full.pairs.iter().map(|&p| phase1.predict(&target, &[p])[0]).collect();
    assert!(
        one_at_a_time.contains(&true) && one_at_a_time.contains(&false),
        "{kind:?}: G⁰ must hold some but not all pairs"
    );
    let bits = |r: &InferenceResult| -> Vec<u64> {
        r.trace.change_ratios.iter().map(|c| c.to_bits()).collect()
    };
    for (what, run) in runs.iter().chain([("full", full.clone())].iter()) {
        assert_eq!(run.pairs, full.pairs, "{kind:?} {what}: classified pairs");
        let g0 = &run.trace.graphs[0];
        let g0_preds: Vec<bool> = run.pairs.iter().map(|&p| g0.has_edge(p)).collect();
        assert_eq!(g0_preds, one_at_a_time, "{kind:?} {what}: G⁰");
        assert_eq!(g0.n_edges(), one_at_a_time.iter().filter(|&&f| f).count());
        assert_eq!(run.trace.graphs, full.trace.graphs, "{kind:?} {what}: graphs");
        assert_eq!(bits(run), bits(&full), "{kind:?} {what}: change ratios");
        assert_eq!(run.trace.converged, full.trace.converged, "{kind:?} {what}: convergence");
    }
}

#[test]
fn mlp_head_g0_and_trace_are_exact_on_every_path() {
    assert_g0_and_trace_exact(ClassifierKind::MlpHead);
}

#[test]
fn knn_g0_and_trace_are_exact_on_every_path() {
    assert_g0_and_trace_exact(ClassifierKind::Knn { k: 5 });
}

#[test]
fn random_forest_g0_and_trace_are_exact_on_every_path() {
    assert_g0_and_trace_exact(ClassifierKind::RandomForest { n_trees: 16 });
}
