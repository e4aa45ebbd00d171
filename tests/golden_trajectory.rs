//! Golden-trajectory regression test: runs the full attack on a small,
//! fixed-seed synthetic world and asserts the *entire* refinement
//! trajectory — per-iteration edge counts and change ratios, captured via
//! the `seeker-obs` [`TestSink`] — against a checked-in golden file.
//!
//! Any change to trace synthesis, spatial division, the autoencoder, the
//! SVM, or the refinement loop that alters numeric behaviour shows up here
//! as a diff of the golden file, not as a silent metric drift.
//!
//! To regenerate after an intentional pipeline change:
//!
//! ```text
//! SEEKER_BLESS=1 cargo test --test golden_trajectory
//! ```
//!
//! This file intentionally holds a single `#[test]`: global `seeker-obs`
//! counters are process-wide, and being alone in the binary keeps the
//! counter deltas exact.

use std::fmt::Write as _;
use std::path::PathBuf;

use friendseeker::{pairs, FriendSeeker, FriendSeekerConfig};
use seeker_obs::{add_sink, JsonSink, TestSink};
use seeker_trace::synth::{generate, SyntheticConfig};

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/trajectory_small.txt")
}

fn obs_json_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results/OBS_run.json")
}

#[test]
fn refinement_trajectory_matches_golden() {
    let (sink, _guard) = TestSink::install();
    let json = JsonSink::new(obs_json_path());
    let _json_guard = add_sink(json);

    // Counters are global and monotonic; deltas across the run are exact
    // because this test is alone in its process (see module docs).
    let pairs_before = seeker_obs::counter_value("core.pairs_evaluated");
    let joc_cells_before = seeker_obs::counter_value("spatial.joc.cells");
    let churn_before = seeker_obs::counter_value("phase2.edge_churn");
    let kernel_before = seeker_obs::counter_value("ml.svm.kernel_evals");

    let train = generate(&SyntheticConfig::small(61)).unwrap().dataset;
    let target = generate(&SyntheticConfig::small(62)).unwrap().dataset;
    let trained = FriendSeeker::new(FriendSeekerConfig::fast()).train(&train).unwrap();
    let lp = pairs::labeled_pairs(&target, 1.0, 777);
    let n_candidates = lp.pairs.len();
    let infer_pairs_before = seeker_obs::counter_value("core.pairs_evaluated");
    let result = trained.infer_pairs(&target, lp.pairs);
    let infer_pairs_delta = seeker_obs::counter_value("core.pairs_evaluated") - infer_pairs_before;

    // The trajectory as observed through the sink ...
    let g0_edges = sink.int_gauges("phase2.infer.g0.edges");
    let edges = sink.int_gauges("phase2.infer.iter.edges");
    let ratios = sink.float_gauges("phase2.infer.iter.change_ratio");

    // ... must agree with the trace the attack itself reports.
    assert_eq!(g0_edges.len(), 1, "exactly one G0 gauge per inference");
    assert_eq!(edges.len(), ratios.len(), "one change ratio per iteration");
    assert_eq!(edges.len(), result.trace.n_iterations());
    assert_eq!(g0_edges[0], result.trace.graphs[0].n_edges() as i64);
    assert_eq!(
        *edges.last().expect("at least one refinement iteration"),
        result.final_graph().n_edges() as i64
    );
    for (got, want) in ratios.iter().zip(result.trace.change_ratios.iter()) {
        assert_eq!(got, want, "sink and trace disagree on a change ratio");
    }
    assert_eq!(sink.span_closes("phase2.infer.iter"), edges.len());
    assert_eq!(sink.span_closes("attack.infer"), 1);

    // Exact counter deltas: the encoder is the one site that counts pairs,
    // and inference encodes every candidate pair once (training adds its
    // own pairs), so assert the precise recorded values via the golden file
    // and the structural invariants here.
    let pairs_delta = seeker_obs::counter_value("core.pairs_evaluated") - pairs_before;
    let joc_cells_delta = seeker_obs::counter_value("spatial.joc.cells") - joc_cells_before;
    let churn_delta = seeker_obs::counter_value("phase2.edge_churn") - churn_before;
    assert_eq!(infer_pairs_delta, n_candidates as u64, "inference encodes each candidate once");
    assert!(seeker_obs::counter_value("ml.svm.kernel_evals") > kernel_before);
    assert!(joc_cells_delta > 0, "JOC construction recorded no cells");

    let mut doc = String::new();
    doc.push_str("# Golden refinement trajectory.\n");
    doc.push_str("# World: small(61) train, small(62) target; config fast();\n");
    doc.push_str("# candidates labeled_pairs(ratio=1.0, seed=777).\n");
    doc.push_str("# Regenerate: SEEKER_BLESS=1 cargo test --test golden_trajectory\n");
    let _ = writeln!(doc, "candidates={n_candidates}");
    let _ = writeln!(doc, "g0 edges={}", g0_edges[0]);
    for (i, (e, r)) in edges.iter().zip(ratios.iter()).enumerate() {
        let _ = writeln!(doc, "iter {} edges={e} change_ratio={r:?}", i + 1);
    }
    let _ = writeln!(doc, "converged={}", result.trace.converged);
    let _ = writeln!(doc, "counter core.pairs_evaluated={pairs_delta}");
    let _ = writeln!(doc, "counter spatial.joc.cells={joc_cells_delta}");
    let _ = writeln!(doc, "counter phase2.edge_churn={churn_delta}");

    // Emit results/OBS_run.json (consumed by the check_obs_json CI gate)
    // before comparing, so even a failing comparison leaves the artifact.
    seeker_obs::flush();

    let path = golden_path();
    if std::env::var("SEEKER_BLESS").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &doc).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("cannot read {} ({e}); run with SEEKER_BLESS=1", path.display())
    });
    assert_eq!(
        doc,
        golden,
        "refinement trajectory drifted from {}; if the change is intentional, \
         regenerate with SEEKER_BLESS=1 cargo test --test golden_trajectory",
        path.display()
    );
}
