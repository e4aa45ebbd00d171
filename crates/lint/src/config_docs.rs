//! The generated `docs/CONFIGURATION.md` cross-check.
//!
//! Every `SEEKER_*` environment knob lives in the `seeker_obs::env`
//! registry ([`seeker_obs::env::VARS`]) — the `env-read` lexical rule bans
//! raw `std::env::var` reads in library code, so the registry *is* the
//! complete configuration surface. This pass keeps the human-facing table
//! in `docs/CONFIGURATION.md` generated from that single source of truth.
//! The doc is a lock of [`crate::lockfile`], compared as a whole: the full
//! gate fails when it drifts from the registry, and `--bless-config`
//! regenerates it.

use crate::lockfile::Rendered;

/// Renders the full generated document (prose header + registry table).
#[must_use]
pub fn render_config_doc() -> String {
    let mut doc = String::from(
        "# Configuration\n\n\
         Every runtime knob of the workspace is a `SEEKER_*` environment variable,\n\
         declared once in the `seeker_obs::env` registry and read exactly once per\n\
         process (values are cached in a `OnceLock` snapshot; changes after the\n\
         first read are not observed). Raw `std::env::var` reads in library code\n\
         are banned by the `env-read` lint rule, so this table is the complete\n\
         configuration surface.\n\n\
         **Generated file** — edit `crates/obs/src/env.rs` and run\n\
         `cargo run -p seeker-lint -- --bless-config`; CI fails on drift.\n\n",
    );
    doc.push_str(&seeker_obs::env::markdown_table());
    doc
}

/// Renders `docs/CONFIGURATION.md`, one row per line.
pub(crate) fn render_lock() -> Rendered {
    Rendered::one("", render_config_doc().lines().map(|line| (line.to_string(), None)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lockfile::{Drift, DriftKind, Lock};
    use crate::scratch::{bless, check, Scratch};
    use std::fs;
    use std::path::PathBuf;

    #[test]
    fn bless_then_check_roundtrip_and_drift() {
        let root = Scratch::new();
        let check_config = || check(Lock::Config, &root).1;
        // Missing doc is drift.
        assert!(matches!(check_config().as_slice(), [Drift { kind: DriftKind::Missing, .. }]));
        // Bless → clean.
        let written = bless(Lock::Config, &root);
        assert_eq!(written, vec![PathBuf::from("docs/CONFIGURATION.md")]);
        let path = root.join("docs/CONFIGURATION.md");
        assert_eq!(fs::read_to_string(&path).expect("read"), render_config_doc());
        assert!(check_config().is_empty());
        // Any edit is drift.
        let doc = fs::read_to_string(&path).expect("read");
        fs::write(&path, doc.replace("SEEKER_THREADS", "SEEKER_TREADS")).expect("write");
        assert!(matches!(check_config().as_slice(), [Drift { kind: DriftKind::Changed(_), .. }]));
    }

    #[test]
    fn the_doc_has_one_row_per_registry_var() {
        let doc = render_config_doc();
        for var in seeker_obs::env::VARS {
            assert!(doc.contains(var.name), "{} missing from the doc", var.name);
        }
    }
}
