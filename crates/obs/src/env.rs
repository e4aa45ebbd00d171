//! The `SEEKER_*` configuration registry: every environment variable the
//! workspace reads, declared once with its type, default and consumer, and
//! read **once per process** through an [`std::sync::OnceLock`]-cached
//! snapshot.
//!
//! Before this module, nine `SEEKER_*` reads were scattered across four
//! crates with inconsistent caching: `SEEKER_THREADS` was read once, the
//! phase-2 escape hatches were re-read on every call.
//! Centralizing the reads makes the caching uniform (configuration is
//! immutable process state, not a live knob), gives `seeker-lint` a single
//! machine-readable spec to cross-check `docs/CONFIGURATION.md` against, and
//! lets the `env-read` lint rule ban raw `std::env::var` everywhere else in
//! library code.
//!
//! This crate sits at the bottom of the layer DAG, so every other crate can
//! reach the registry without new edges. Parsing stays at the call sites
//! (each consumer documents and tests its own parse rules); the registry
//! owns only the *read* and the spec table.

use std::sync::OnceLock;

/// The declared specification of one `SEEKER_*` variable. The table of
/// these ([`VARS`]) is the source of truth `docs/CONFIGURATION.md` is
/// generated from.
#[derive(Debug, Clone, Copy)]
pub struct VarSpec {
    /// The environment variable name (`SEEKER_…`).
    pub name: &'static str,
    /// The accepted value shape, human-readable (`usize`, `off|summary|trace`).
    pub kind: &'static str,
    /// What an unset variable means.
    pub default: &'static str,
    /// The crate that consumes the value.
    pub consumer: &'static str,
    /// One-line description for the generated configuration table.
    pub description: &'static str,
}

/// Every environment variable the workspace reads, in alphabetical order.
/// Adding a read without a row here fails the `seeker-lint` configuration
/// cross-check (and the raw read itself trips the `env-read` rule).
pub const VARS: &[VarSpec] = &[
    VarSpec {
        name: "SEEKER_BENCH_1M",
        kind: "1",
        default: "extrapolate the 1M-user point instead of measuring it",
        consumer: "seeker-bench",
        description: "Opt into actually measuring the 1M-user row of `bench_scale`.",
    },
    VarSpec {
        name: "SEEKER_BENCH_E2E",
        kind: "1",
        default: "skip the end-to-end infer comparison",
        consumer: "seeker-bench",
        description: "Opt into the slow end-to-end `infer` vs `infer_full` timing in `bench_candidates`.",
    },
    VarSpec {
        name: "SEEKER_BENCH_GATE",
        kind: "f64",
        default: "report only, never fail",
        consumer: "seeker-bench",
        description: "Regression threshold: minimum speedup for `bench_par`, peak-RSS ceiling (MiB) for `bench_scale` and `bench_serve`.",
    },
    VarSpec {
        name: "SEEKER_LOG",
        kind: "off|summary|trace",
        default: "summary",
        consumer: "seeker-obs",
        description: "Observability level; invalid values fall back to `summary` with a warning.",
    },
    VarSpec {
        name: "SEEKER_OBS_JSON",
        kind: "path",
        default: "no JSON sink",
        consumer: "seeker-obs",
        description: "When set to a non-empty path, CLI entrypoints also write the OBS JSON document there.",
    },
    VarSpec {
        name: "SEEKER_SEED",
        kind: "u64",
        default: "20230701",
        consumer: "seeker-bench",
        description: "The experiment seed used by the experiment binaries.",
    },
    VarSpec {
        name: "SEEKER_THREADS",
        kind: "usize",
        default: "available parallelism",
        consumer: "seeker-par",
        description: "Worker count of the persistent pool; `1` forces fully serial execution.",
    },
];

/// The process-wide snapshot of every registered variable, index-aligned
/// with [`VARS`] and captured on first access.
fn snapshot() -> &'static [Option<String>] {
    static SNAP: OnceLock<Vec<Option<String>>> = OnceLock::new();
    SNAP.get_or_init(|| {
        // The one sanctioned raw environment read in the workspace: the
        // registry itself. lint:allow(env-read)
        VARS.iter().map(|v| std::env::var(v.name).ok()).collect()
    })
}

/// The raw value of registered variable `name` as of the first registry
/// access, `None` when it was unset (or is not a registered name — adding
/// the spec row is part of adding a variable).
pub fn raw(name: &str) -> Option<&'static str> {
    let idx = VARS.iter().position(|v| v.name == name)?;
    snapshot()[idx].as_deref()
}

/// Whether registered boolean opt-in `name` is set to `1` or `true`.
pub fn flag(name: &str) -> bool {
    matches!(raw(name), Some("1") | Some("true"))
}

/// Renders the configuration table `docs/CONFIGURATION.md` is generated
/// from (`cargo run -p seeker-lint -- --bless-config` writes it; the
/// default lint mode cross-checks it).
pub fn markdown_table() -> String {
    let mut out = String::from("| Variable | Values | Default | Consumer | Description |\n");
    out.push_str("|---|---|---|---|---|\n");
    for v in VARS {
        out.push_str(&format!(
            "| `{}` | `{}` | {} | `{}` | {} |\n",
            v.name, v.kind, v.default, v.consumer, v.description
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vars_are_sorted_unique_and_prefixed() {
        for pair in VARS.windows(2) {
            assert!(pair[0].name < pair[1].name, "{} before {}", pair[0].name, pair[1].name);
        }
        for v in VARS {
            assert!(v.name.starts_with("SEEKER_"), "{}", v.name);
            assert!(!v.description.is_empty() && !v.kind.is_empty());
        }
    }

    #[test]
    fn unknown_names_read_as_unset() {
        assert_eq!(raw("SEEKER_NOT_A_REGISTERED_KNOB"), None);
        assert!(!flag("SEEKER_NOT_A_REGISTERED_KNOB"));
    }

    #[test]
    fn raw_is_stable_across_calls() {
        // The snapshot is cached: two reads of the same name are the same
        // `&'static str` (or both None), regardless of the environment.
        assert_eq!(raw("SEEKER_LOG"), raw("SEEKER_LOG"));
    }

    #[test]
    fn markdown_table_has_one_row_per_var() {
        let table = markdown_table();
        for v in VARS {
            assert!(table.contains(v.name), "missing {}", v.name);
        }
        assert_eq!(table.lines().count(), VARS.len() + 2);
    }
}
