//! Pins the exact `ml.svm.kernel_evals` accounting of the batch decision
//! paths: one hoisted counter add per batch or row block (`rows × n_sv`,
//! real support vectors, not padded lanes), one add of `n_sv` per
//! `decision_one`/`predict_one` call, and `diag + misses × n` for a fit.
//!
//! Counters are global atomics, so this lives in its own integration-test
//! binary (its own process) where no other test bumps the counter, and the
//! assertions run inside a single `#[test]` under an installed `TestSink`
//! (whose guard also serializes any obs-state access).

use seeker_ml::{Kernel, Svm, SvmConfig};
use seeker_obs::{counter_value, TestSink};

#[test]
fn kernel_eval_counts_are_exact_and_hoisted() {
    let (_sink, _guard) = TestSink::install();

    // Deterministic two-blob training set, no RNG needed.
    let mut xs: Vec<Vec<f32>> = Vec::new();
    let mut ys: Vec<bool> = Vec::new();
    for i in 0..40 {
        let t = (i as f32) * 0.1;
        xs.push(vec![2.0 + t.sin() * 0.5, t.cos() * 0.5]);
        ys.push(true);
        xs.push(vec![-2.0 + t.cos() * 0.5, t.sin() * 0.5]);
        ys.push(false);
    }
    let n = xs.len() as u64;

    let before_fit = counter_value("ml.svm.kernel_evals");
    let cfg = SvmConfig { kernel: Kernel::Rbf { gamma: 0.5 }, ..Default::default() };
    let svm = Svm::fit(&cfg, &xs, &ys);
    let after_fit = counter_value("ml.svm.kernel_evals");
    let misses = counter_value("ml.svm.row_cache.misses");
    assert_eq!(
        after_fit - before_fit,
        n + misses * n,
        "fit must count the diagonal pass plus n evals per cache miss"
    );
    assert_eq!(
        counter_value("ml.svm.row_cache.evictions"),
        0,
        "default capacity must not evict at this problem size"
    );

    let ns = svm.n_support_vectors() as u64;
    assert!(ns > 0, "fixture must produce support vectors");

    // Batch decision: exactly one add of rows * n_sv, regardless of worker
    // count or chunking.
    let rows = &xs[..13];
    let before = counter_value("ml.svm.kernel_evals");
    let _ = svm.decision(rows);
    assert_eq!(counter_value("ml.svm.kernel_evals") - before, 13 * ns);

    // Batch predict routes through the same hoisted add.
    let before = counter_value("ml.svm.kernel_evals");
    let _ = svm.predict(&xs[..7]);
    assert_eq!(counter_value("ml.svm.kernel_evals") - before, 7 * ns);

    // The single-row paths still count per call.
    let before = counter_value("ml.svm.kernel_evals");
    let _ = svm.decision_one(&xs[0]);
    let _ = svm.predict_one(&xs[1]);
    assert_eq!(counter_value("ml.svm.kernel_evals") - before, 2 * ns);

    // An empty batch counts zero.
    let before = counter_value("ml.svm.kernel_evals");
    let _ = svm.decision(&[]);
    let _ = svm.decision_rows(&[]);
    assert_eq!(counter_value("ml.svm.kernel_evals") - before, 0);

    // 11 support vectors fill one lane tile of 8 and 3 lanes of a second,
    // zero-padded one: every entry point counts the 11, not 16 lanes.
    let odd = Svm::from_parts(cfg.kernel, xs[..11].to_vec(), vec![0.5; 11], 0.1, 2).unwrap();
    assert_eq!(odd.n_support_vectors(), 11);
    let flat: Vec<f32> = xs[..5].concat();
    let before = counter_value("ml.svm.kernel_evals");
    let _ = odd.decision_rows(&flat);
    assert_eq!(counter_value("ml.svm.kernel_evals") - before, 5 * 11);
    let before = counter_value("ml.svm.kernel_evals");
    let _ = odd.decision(&xs[..13]);
    let _ = odd.decision_one(&xs[0]);
    assert_eq!(counter_value("ml.svm.kernel_evals") - before, 14 * 11);
}
