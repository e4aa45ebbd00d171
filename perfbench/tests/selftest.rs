//! Self-test of the benchmark at tiny world sizes: every workload prints
//! exactly the declared metrics with their units, its output checks pass on
//! good answers and fail against a corrupted reference, and its work
//! counters repeat exactly across two runs with the same seed.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.
//! One test function: the observability level and counters are process
//! state, so the passes must not run concurrently.

use perfbench::corpus::Scale;
use perfbench::layers::set_tracing;
use perfbench::report::{Outcome, END_TO_END, PER_LAYER};
use perfbench::workloads::{run_pass, Pass, PassConfig, WORKLOADS};

fn config(seed: u64, traced: bool, corrupt_reference: bool) -> PassConfig {
    PassConfig { scale: Scale::tiny(), seed, seconds: 1.0, traced, corrupt_reference }
}

fn pass(workload: &str, cfg: &PassConfig) -> Pass {
    let w = WORKLOADS.iter().find(|(n, _)| *n == workload).map(|&(_, w)| w).unwrap();
    let _guard = set_tracing(cfg.traced);
    let p = run_pass(w, cfg);
    set_tracing(false);
    p
}

/// The result line of `p` restricted to `catalogue` parses back to exactly
/// the declared names, each with its declared unit and a finite value.
fn assert_prints(workload: &str, p: &Pass, catalogue: &[(&'static str, &'static str)]) {
    let line = Outcome {
        correct: true,
        attempted: p.attempted,
        failed: p.failed,
        metrics: p.metrics.select(catalogue),
    }
    .to_json();
    for (name, unit) in catalogue {
        let needle = format!("\"{name}\": {{\"value\": ");
        let at =
            line.find(&needle).unwrap_or_else(|| panic!("{workload}: {name} missing in {line}"));
        let rest = &line[at + needle.len()..];
        let value = &rest[..rest.find(',').unwrap()];
        assert!(value.parse::<f64>().is_ok(), "{workload}: {name} = {value}");
        assert!(rest.contains(&format!("\"unit\": \"{unit}\"")), "{workload}: {name} unit");
    }
    assert_eq!(line.matches("\"value\"").count(), catalogue.len(), "{workload}: extra metrics");
}

#[test]
fn every_workload_measures_checks_and_repeats() {
    for (workload, _) in WORKLOADS {
        let first = pass(workload, &config(5, false, false));
        assert!(first.problems.is_empty(), "{workload}: {:?}", first.problems);
        assert_eq!(first.failed, 0, "{workload}");
        assert!(first.attempted > 0, "{workload}");
        assert_prints(workload, &first, &END_TO_END);
        for (name, _) in END_TO_END {
            let v = first.metrics.get(name).unwrap();
            assert!(v.is_finite() && v > 0.0, "{workload}: {name} = {v}");
        }

        // Work counters of every stage both runs reached repeat exactly.
        let second = pass(workload, &config(5, false, false));
        let mut compared = 0;
        for (stage, counts) in &first.exact {
            if let Some((_, again)) = second.exact.iter().find(|(s, _)| s == stage) {
                assert_eq!(counts, again, "{workload}: {stage} counters differ between runs");
                compared += 1;
            }
        }
        assert!(compared >= 2, "{workload}: only {compared} stages compared");

        let traced = pass(workload, &config(5, true, false));
        assert!(traced.problems.is_empty(), "{workload}: {:?}", traced.problems);
        assert_prints(workload, &traced, &PER_LAYER);

        let corrupt = pass(workload, &config(5, false, true));
        assert!(corrupt.failed > 0, "{workload}: a corrupted reference went unnoticed");
        assert!(!corrupt.problems.is_empty(), "{workload}: no check failed");
    }
}
