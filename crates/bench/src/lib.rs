//! # seeker-bench
//!
//! The experiment harness of the FriendSeeker reproduction: synthetic
//! experiment worlds, shared run helpers, result tables, and one experiment
//! module per table/figure of the paper (see DESIGN.md §4 for the index).
//!
//! Run everything with `cargo run -p seeker-bench --release --bin all_experiments`,
//! or a single artefact with e.g. `--bin fig11`. Results are printed and
//! saved under `results/`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

/// Shared synthetic worlds the experiment binaries run on.
pub mod datasets;
/// One module per figure/table of the paper's evaluation.
pub mod experiments;
/// Experiment orchestration: sweeps, repetitions, timing.
pub mod harness;
/// Markdown tables and the one writer of every file under `results/`.
pub mod report;

/// The default seed used by the experiment binaries.
pub const DEFAULT_SEED: u64 = 20230701;

/// Reads the experiment seed from the `SEEKER_SEED` env var (through the
/// cached `seeker_obs::env` registry), falling back to [`DEFAULT_SEED`].
pub fn seed_from_env() -> u64 {
    seeker_obs::env::raw("SEEKER_SEED").and_then(|s| s.parse().ok()).unwrap_or(DEFAULT_SEED)
}
