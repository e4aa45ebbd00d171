//! The repository benchmark: two seeded workloads run against the public
//! APIs of `friendseeker`, `seeker-serve` and the crates beneath them.
//!
//! `--trace 0` measures the end-to-end metrics with span recording off.
//! `--trace 1` makes two passes of half the time each, spans off then on,
//! prints the per-layer metrics of the second, and reports how much tracing
//! moved each end-to-end metric. See `README.md` beside this crate for the workloads, the metric
//! table and which layer metric should move which end-to-end metric.

pub mod checks;
pub mod corpus;
pub mod fingerprint;
pub mod layers;
pub mod report;
pub mod stats;
pub mod workloads;

use report::{Metrics, Outcome, END_TO_END, PER_LAYER};
use workloads::{run_pass, Pass, PassConfig, Workload};

/// Runs `workload` once as the command line asks and returns the result
/// line's contents plus the human-readable notes for stderr.
pub fn run(workload: Workload, cfg: &PassConfig) -> (Outcome, Vec<String>) {
    layers::set_tracing(false);
    if !cfg.traced {
        let untraced = run_pass(workload, cfg);
        return (outcome(&[&untraced], untraced.metrics.select(&END_TO_END)), notes(&untraced));
    }
    // The traced run makes two passes; each measures half the time, so the
    // run takes about as long as an untraced one.
    let half = PassConfig { seconds: cfg.seconds / 2.0, ..cfg.clone() };
    let untraced = run_pass(workload, &PassConfig { traced: false, ..half.clone() });
    let traced = {
        let _sink = layers::set_tracing(true);
        run_pass(workload, &half)
    };
    layers::set_tracing(false);
    let mut metrics = traced.metrics.clone();
    if let Some(tail) = untraced.metrics.get("latency_tail_ms") {
        metrics.set("latency_tail_ms", tail);
    }
    let mut lines = notes(&traced);
    lines.push(String::from("tracing overhead (traced - untraced):"));
    for (slot, unit) in PER_LAYER {
        let Some(name) = slot.strip_prefix("overhead.") else { continue };
        let u = untraced.metrics.get(name).unwrap_or(f64::NAN);
        let t = traced.metrics.get(name).unwrap_or(f64::NAN);
        metrics.set(slot, t - u);
        lines.push(format!("  {name:<18} {u:>14.4} -> {t:>14.4} {unit:<4} ({:+.4})", t - u));
    }
    (outcome(&[&untraced, &traced], metrics.select(&PER_LAYER)), lines)
}

fn outcome(passes: &[&Pass], metrics: Metrics) -> Outcome {
    Outcome {
        correct: passes.iter().all(|p| p.problems.is_empty() && p.failed == 0),
        attempted: passes.iter().map(|p| p.attempted).sum(),
        failed: passes.iter().map(|p| p.failed).sum(),
        metrics,
    }
}

fn notes(pass: &Pass) -> Vec<String> {
    let mut lines = pass.notes.clone();
    lines.extend(pass.problems.iter().map(|p| format!("CHECK FAILED: {p}")));
    lines
}
