//! Panic-reachability analysis over the workspace call graph, gated by the
//! blessed lock `api/panics.lock` (a lock of [`crate::lockfile`]).
//!
//! A function is a **direct panic source** when its body contains a
//! panic-family macro (`panic!`, `todo!`, `unimplemented!`,
//! `unreachable!`), an `.unwrap()`/`.expect(…)` call, or a slice index by
//! integer literal. Panickiness then propagates *backwards* along call
//! edges: a caller of a panicky function is panicky, and an
//! [`crate::callgraph::CallTarget::Ambiguous`] edge propagates from **any**
//! candidate — the analysis is a conservative over-approximation, so the
//! lock can only shrink through genuine fixes, never through resolution
//! accidents.
//!
//! The lock pins which `pub` functions are panicky (sorted ids, one per
//! line). `--check-panics` fails on *any* difference — a new panic path
//! must be either fixed, sanctioned with `// lint:allow(panic-reach)` on the
//! function's signature line, or deliberately re-blessed; a fixed path must
//! be re-blessed too, so the lock never goes stale. Functions carrying
//! `lint:allow(panic-reach)` are treated as non-panicking (propagation stops
//! there), documenting at the definition site that the panic is a contract
//! violation by the caller.

use crate::callgraph::CallGraph;
use crate::lockfile::Rendered;
use crate::walk::Index;

/// One panicky `pub` function, with the evidence chain.
#[derive(Debug, Clone)]
pub struct PanicEntry {
    /// The function's call-graph id.
    pub id: String,
    /// Witness: ids from this function to a direct panic source (inclusive
    /// on both ends; a direct source is a one-element chain).
    pub chain: Vec<String>,
    /// Human-readable description of the final panic site.
    pub site: String,
}

/// Computes the panicky `pub` functions of a call graph, sorted by id.
#[must_use]
pub fn panic_entries(graph: &CallGraph) -> Vec<PanicEntry> {
    let n = graph.nodes.len();
    // Reverse adjacency: callee → callers.
    let mut callers: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (from, edge) in graph.edges() {
        for &to in CallGraph::targets_of(edge) {
            callers[to].push(from);
        }
    }
    // `via[i]` records the callee that made node i panicky, for witnesses.
    let mut via: Vec<Option<usize>> = vec![None; n];
    let mut panicky = vec![false; n];
    let mut queue: Vec<usize> = Vec::new();
    for (i, node) in graph.nodes.iter().enumerate() {
        if !node.allow_panic && !node.panics.is_empty() {
            panicky[i] = true;
            queue.push(i);
        }
    }
    while let Some(j) = queue.pop() {
        for &caller in &callers[j] {
            if !panicky[caller] && !graph.nodes[caller].allow_panic {
                panicky[caller] = true;
                via[caller] = Some(j);
                queue.push(caller);
            }
        }
    }

    let mut entries: Vec<PanicEntry> = graph
        .nodes
        .iter()
        .enumerate()
        .filter(|&(i, node)| panicky[i] && node.is_pub)
        .map(|(i, node)| {
            let mut chain = vec![node.id.clone()];
            let mut cursor = i;
            while let Some(next) = via[cursor] {
                chain.push(graph.nodes[next].id.clone());
                cursor = next;
            }
            let site = graph.nodes[cursor].panics.first().map_or_else(
                || "panic site".to_string(),
                |p| format!("{} at {}:{}", p.what, graph.nodes[cursor].file.display(), p.line),
            );
            PanicEntry { id: node.id.clone(), chain, site }
        })
        .collect();
    entries.sort_by(|a, b| a.id.cmp(&b.id));
    entries.dedup_by(|a, b| a.id == b.id);
    entries
}

/// Renders `api/panics.lock`: one row per panicky `pub` function, witnessed
/// by its chain to the panic site.
pub(crate) fn render_lock(index: &Index<'_>) -> Rendered {
    let entries = panic_entries(index.graph());
    let rows =
        entries.into_iter().map(|e| (e.id, Some(format!("{}: {}", e.chain.join(" → "), e.site))));
    Rendered::one(
        "Panic-reachability lock — `pub` functions that transitively reach a\n\
         panic site (blessed output of `cargo run -p seeker-lint -- --bless-panics`).\n\
         `--check-panics` fails when the computed set differs from this file.",
        rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lockfile::{Drift, DriftKind, Lock};
    use crate::scratch::{bless, check, graph, workspace};
    use std::fs;

    #[test]
    fn transitive_panic_reaches_the_pub_entry() {
        let root = workspace(
            "//! A.\n#![deny(missing_docs)]\n\nfn deep(x: Option<u32>) -> u32 { x.unwrap() }\nfn middle(x: Option<u32>) -> u32 { deep(x) }\n\n/// E.\npub fn entry(x: Option<u32>) -> u32 { middle(x) }\n\n/// Safe.\npub fn safe() -> u32 { 7 }\n",
        );
        let entries = panic_entries(&graph(&root));
        let ids: Vec<&str> = entries.iter().map(|e| e.id.as_str()).collect();
        assert_eq!(ids, vec!["alpha::entry"]);
        assert_eq!(entries[0].chain, vec!["alpha::entry", "alpha::middle", "alpha::deep"]);
        assert!(entries[0].site.contains("unwrap"), "site: {}", entries[0].site);
    }

    #[test]
    fn allow_comment_stops_propagation() {
        let root = workspace(
            "//! A.\n#![deny(missing_docs)]\n\n// Caller guarantees non-empty input. lint:allow(panic-reach)\nfn checked(x: Option<u32>) -> u32 { x.unwrap() }\n\n/// E.\npub fn entry(x: Option<u32>) -> u32 { checked(x) }\n",
        );
        assert!(panic_entries(&graph(&root)).is_empty());
    }

    #[test]
    fn bless_then_check_roundtrip_and_drift() {
        let root = workspace(
            "//! A.\n#![deny(missing_docs)]\n\n/// E.\npub fn entry(x: Option<u32>) -> u32 { x.unwrap() }\n",
        );
        let check_panics = || check(Lock::Panics, &root).1;
        let bless_panics = || bless(Lock::Panics, &root);
        // Missing lock is drift.
        let drifts = check_panics();
        assert!(matches!(drifts.as_slice(), [Drift { kind: DriftKind::Missing, .. }]));
        // Bless → clean.
        bless_panics();
        assert!(check_panics().is_empty());
        // New panic path → Added drift.
        let lib = root.join("crates/alpha/src/lib.rs");
        let mut source = fs::read_to_string(&lib).expect("read");
        source.push_str("\n/// F.\npub fn fresh(v: &[u32]) -> u32 { v[0] }\n");
        fs::write(&lib, source).expect("write");
        let drifts = check_panics();
        assert_eq!(drifts.len(), 1);
        assert!(
            matches!(&drifts[0], Drift { kind: DriftKind::Added(_), key, .. } if key == "alpha::fresh")
        );
        // Re-bless, then fix the original panic → Removed drift.
        bless_panics();
        let fixed = fs::read_to_string(&lib).expect("read").replace("x.unwrap()", "x.unwrap_or(0)");
        fs::write(&lib, fixed).expect("write");
        let drifts = check_panics();
        assert_eq!(drifts.len(), 1);
        assert!(
            matches!(&drifts[0], Drift { kind: DriftKind::Removed, key, .. } if key == "alpha::entry")
        );
    }
}
