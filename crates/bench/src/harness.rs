//! Shared run helpers: train-and-evaluate wrappers for FriendSeeker and the
//! baseline suite, over a common evaluation pair sample; and what the
//! `bench_*` binaries share: the scale-preset training, the min-of-N timer
//! and the `SEEKER_BENCH_GATE` peak-RSS gate.

use std::time::Instant;

use friendseeker::{pairs, FriendSeeker, FriendSeekerConfig, InferenceResult, TrainedAttack};
use seeker_baselines::{
    ColocationBaseline, ColocationConfig, DistanceBaseline, DistanceConfig, FriendshipInference,
    UserGraphConfig, UserGraphEmbedding, Walk2Friends, Walk2FriendsConfig,
};
use seeker_ml::BinaryMetrics;
use seeker_trace::stream::StreamingWorld;
use seeker_trace::synth::SyntheticConfig;
use seeker_trace::{Dataset, UserPair};

/// Seed used for evaluation-pair sampling throughout the harness, kept fixed
/// so every method sees the identical pair sample.
pub const EVAL_SEED: u64 = 0xe0a1;

/// A balanced evaluation sample on the target: all friend pairs + equally
/// many non-friends.
pub fn eval_pairs(target: &Dataset) -> (Vec<UserPair>, Vec<bool>) {
    let lp = pairs::labeled_pairs(target, 1.0, EVAL_SEED);
    (lp.pairs, lp.labels)
}

/// Outcome of one FriendSeeker run.
pub struct SeekerRun {
    /// Final metrics on the evaluation pairs.
    pub metrics: BinaryMetrics,
    /// Metrics of every refinement iteration (`G⁰` first).
    pub per_iteration: Vec<BinaryMetrics>,
    /// The raw inference result (graphs, predictions).
    pub result: InferenceResult,
}

/// Trains FriendSeeker on `train` and evaluates on `target` over the shared
/// evaluation sample.
///
/// # Panics
///
/// Panics if training fails (experiment configurations are pre-validated).
pub fn run_friendseeker(cfg: &FriendSeekerConfig, train: &Dataset, target: &Dataset) -> SeekerRun {
    let trained = FriendSeeker::new(cfg.clone()).train(train).expect("experiment training"); // lint:allow(no-panic) -- experiment harness: abort on misconfiguration
    let (ep, _) = eval_pairs(target);
    let result = trained.infer_pairs(target, ep);
    let metrics = result.evaluate(target);
    let per_iteration = result.evaluate_iterations(target);
    SeekerRun { metrics, per_iteration, result }
}

/// The default experiment configuration (paper parameters, spatial scale
/// adapted; see DESIGN.md).
pub fn default_config() -> FriendSeekerConfig {
    FriendSeekerConfig { sigma: 150, epochs: 15, ..FriendSeekerConfig::default() }
}

/// The four baselines of §IV-A, trained/calibrated on `train`.
pub fn baseline_suite(train: &Dataset) -> Vec<Box<dyn FriendshipInference>> {
    vec![
        Box::new(ColocationBaseline::fit(&ColocationConfig::default(), train)),
        Box::new(DistanceBaseline::fit(&DistanceConfig::default(), train)),
        Box::new(Walk2Friends::fit(&Walk2FriendsConfig::default(), train)),
        Box::new(UserGraphEmbedding::fit(&UserGraphConfig::default(), train)),
    ]
}

/// Trains the attack with the `scale()` preset on a 1000-user world whose
/// region is widened to a `largest`-user world's extent, its 24 cities
/// spread so the division's bounding box reaches every target's terrain.
/// The division is frozen at training time: a target check-in outside it
/// would silently fall out of the candidate universe. Returns the training
/// world, the attack, and the wall time of building and training in ms.
///
/// # Panics
///
/// Panics if the world cannot be built or training fails.
pub fn train_scale(seed: u64, largest: usize) -> (Dataset, TrainedAttack, f64) {
    let mut cfg = SyntheticConfig::scale(1_000, seed);
    cfg.region_extent_km = SyntheticConfig::scale(largest, seed).region_extent_km;
    cfg.n_cities = 24;
    let t0 = Instant::now();
    let train = StreamingWorld::build(&cfg)
        .and_then(|world| world.materialize())
        .expect("scale training world") // lint:allow(no-panic) -- bench harness: abort on a broken preset
        .dataset;
    let attack =
        FriendSeeker::new(FriendSeekerConfig::scale()).train(&train).expect("scale training"); // lint:allow(no-panic) -- bench harness: abort on a broken preset
    (train, attack, t0.elapsed().as_secs_f64() * 1e3)
}

/// Runs `f` `warmup` times untimed, then `reps` times (at least once)
/// timed, and returns the minimum and median wall times in ms with the last
/// run's output.
pub fn time_stats<R>(warmup: usize, reps: usize, mut f: impl FnMut() -> R) -> (f64, f64, R) {
    for _ in 0..warmup {
        let _ = f();
    }
    let mut timed = || {
        let t0 = Instant::now();
        let out = f();
        (t0.elapsed().as_secs_f64() * 1e3, out)
    };
    let (first_ms, mut out) = timed();
    let mut times = vec![first_ms];
    for _ in 1..reps {
        let (ms, next) = timed();
        times.push(ms);
        out = next;
    }
    times.sort_by(f64::total_cmp);
    (times[0], times[times.len() / 2], out)
}

/// The `SEEKER_BENCH_GATE` threshold, when it is set to a float.
pub fn bench_gate() -> Option<f64> {
    seeker_obs::env::raw("SEEKER_BENCH_GATE").and_then(|g| g.parse().ok())
}

/// The process peak RSS in MiB, NaN where the platform gives no reading.
pub fn peak_mib() -> f64 {
    seeker_obs::peak_rss_bytes().map_or(f64::NAN, |b| b as f64 / (1024.0 * 1024.0))
}

/// The memory gate: when `SEEKER_BENCH_GATE` is set, flushes the obs sinks
/// and exits the process with status 1 unless the peak RSS is readable and
/// at most that many MiB.
pub fn rss_gate(bench: &str) {
    let Some(limit_mib) = bench_gate() else { return };
    let peak = peak_mib();
    if !(peak <= limit_mib) {
        // lint:allow(no-print) -- the gate's verdict is the binary's stderr
        eprintln!("{bench}: GATE FAILED — peak RSS {peak:.0} MiB > {limit_mib:.0} MiB");
        seeker_obs::flush();
        std::process::exit(1);
    }
    // lint:allow(no-print) -- the gate's verdict is the binary's stderr
    eprintln!("{bench}: gate ok — peak RSS {peak:.0} MiB <= {limit_mib:.0} MiB");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::{world, Preset};

    #[test]
    fn eval_pairs_are_balanced() {
        let w = world(Preset::Gowalla, 3);
        let (pairs, labels) = eval_pairs(&w.target);
        let pos = labels.iter().filter(|&&y| y).count();
        assert_eq!(pos, w.target.n_links());
        assert!(pairs.len() >= 2 * pos - 1);
    }

    #[test]
    fn baseline_suite_has_four_named_methods() {
        let w = world(Preset::Gowalla, 4);
        let suite = baseline_suite(&w.train);
        let names: Vec<_> = suite.iter().map(|m| m.name()).collect();
        assert_eq!(names, vec!["co-location", "distance", "walk2friends", "user-graph embedding"]);
    }

    #[test]
    fn time_stats_runs_warmup_plus_reps_and_keeps_the_last_output() {
        let mut calls = 0;
        let (min_ms, median_ms, last) = time_stats(2, 5, || {
            calls += 1;
            calls
        });
        assert_eq!((calls, last), (7, 7));
        assert!(0.0 <= min_ms && min_ms <= median_ms);
        let (_, _, once) = time_stats(0, 0, || 42);
        assert_eq!(once, 42);
    }
}
