//! Hot-path allocation analysis over the workspace call graph.
//!
//! The FriendSeeker pipeline's wall time is dominated by a handful of
//! pair-quadratic functions (the candidate generator, the phase-2
//! refinement scorer, the SVM decision function, the `seeker-par` mapping
//! kernels).
//! The [`HOT_PATHS`] table declares those roots by id suffix; the analysis
//! marks everything they transitively call — following
//! [`crate::callgraph::CallTarget::Ambiguous`] edges through **every**
//! candidate, a conservative over-approximation — and flags allocations
//! that happen *inside loop bodies* of a hot function:
//! `Vec::new`/`Box::new`/`String::from` calls, `.to_vec()`/`.clone()`/
//! `.collect()`/`.to_string()`/`.to_owned()` method calls, and `format!`.
//!
//! An allocation the author has measured and accepted is sanctioned with
//! `// lint:allow(hot-alloc)` on the same or preceding line; everything
//! else fails the `--hotpath` gate. Allocations hidden inside iterator
//! closures that the loop detector cannot see (`.map(|x| x.clone())` on a
//! single chained expression) are a documented false-negative class.

use crate::callgraph::CallGraph;
use crate::rules::Rule;
use crate::Finding;

/// Declared hot roots, matched against node ids by `::`-suffix: an entry
/// `X::y` matches `seeker_foo::mod::X::y` and `X::y` alike. Keep this table
/// in sync with the "Hot paths" section of `docs/LINTING.md`.
pub const HOT_PATHS: &[&str] = &[
    // Candidate generation (pair-quadratic fan-out).
    "CellIndex::candidate_pairs",
    "cell_index::candidate_pairs",
    // Phase-2 refinement: the driver's per-iteration dirty rows and scoring.
    "dirty_rows",
    "Scorer::rescore",
    "path_count_profile",
    // Feature extraction per pair, and the k-hop path walker under it.
    "Phase1Model::features",
    "Phase1Model::predict_proba",
    "social_proximity_feature",
    "composite_feature",
    "PathWalker::visit_khop_paths",
    "PathWalker::visit_khop_rows",
    "PathWalker::visit_paths_of_length",
    // SVM scoring per pair.
    "Svm::decision_one",
    "Svm::predict_one",
    "Svm::decision",
    "Svm::decision_rows",
    "Svm::predict",
    "Kernel::eval",
    // The parallel mapping kernels everything above fans out through.
    "seeker_par::par_map",
    "seeker_par::par_map_indexed",
    "seeker_par::par_map_chunked",
];

/// Whether a node id matches a [`HOT_PATHS`] entry (exact or `::`-suffix).
#[must_use]
pub fn is_hot_root(id: &str) -> bool {
    HOT_PATHS.iter().any(|p| id == *p || id.ends_with(&format!("::{p}")))
}

/// Computes the hot-path allocation findings for a call graph, ordered by
/// file then line: one per unsanctioned allocation inside a loop body of a
/// hot function, naming the function and the root that made it hot.
#[must_use]
pub fn hot_findings(graph: &CallGraph) -> Vec<Finding> {
    let n = graph.nodes.len();
    // `hot_via[i]` is the declared root id that made node i hot.
    let mut hot_via: Vec<Option<usize>> = vec![None; n];
    let mut queue: Vec<usize> = Vec::new();
    for (i, node) in graph.nodes.iter().enumerate() {
        if is_hot_root(&node.id) {
            hot_via[i] = Some(i);
            queue.push(i);
        }
    }
    // Forward closure: everything a hot function may call is hot.
    while let Some(i) = queue.pop() {
        let root = hot_via[i].unwrap_or(i);
        for edge in &graph.nodes[i].calls {
            for &to in CallGraph::targets_of(edge) {
                if hot_via[to].is_none() {
                    hot_via[to] = Some(root);
                    queue.push(to);
                }
            }
        }
    }

    let mut findings: Vec<Finding> = Vec::new();
    for (i, node) in graph.nodes.iter().enumerate() {
        let Some(root) = hot_via[i] else { continue };
        for alloc in node.loop_allocs.iter().filter(|alloc| !alloc.allowed) {
            findings.push(Finding {
                file: node.file.clone(),
                line: alloc.line,
                tag: Rule::HotAlloc.id(),
                message: format!(
                    "{} in loop body of {} (hot via {})",
                    alloc.what, node.id, graph.nodes[root].id
                ),
            });
        }
    }
    findings.sort_by(|a, b| a.file.cmp(&b.file).then(a.line.cmp(&b.line)));
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch::{graph, workspace};

    #[test]
    fn allocation_in_hot_loop_is_flagged_transitively() {
        let root = workspace(
            "//! A.\n#![deny(missing_docs)]\n\nfn helper(v: &[u32]) -> Vec<String> {\n    let mut out = Vec::new();\n    for x in v {\n        out.push(format!(\"{x}\"));\n    }\n    out\n}\n\n/// Hot root by suffix.\npub fn path_count_profile(v: &[u32]) -> Vec<String> { helper(v) }\n",
        );
        let findings = hot_findings(&graph(&root));
        assert_eq!(findings.len(), 1, "findings: {findings:?}");
        assert_eq!(
            findings[0].message,
            "format! in loop body of alpha::helper (hot via alpha::path_count_profile)"
        );
    }

    #[test]
    fn cold_functions_and_sanctioned_sites_are_silent() {
        let root = workspace(
            "//! A.\n#![deny(missing_docs)]\n\n/// Cold: allocates freely.\npub fn cold(v: &[u32]) -> Vec<String> {\n    let mut out = Vec::new();\n    for x in v {\n        out.push(format!(\"{x}\"));\n    }\n    out\n}\n\n/// Hot, but sanctioned.\npub fn path_count_profile(v: &[u32]) -> Vec<Vec<u32>> {\n    let mut out = Vec::new();\n    for _ in v {\n        // Amortized by the arena below. lint:allow(hot-alloc)\n        out.push(v.to_vec());\n    }\n    out\n}\n",
        );
        let findings = hot_findings(&graph(&root));
        assert!(findings.is_empty(), "findings: {findings:?}");
    }

    #[test]
    fn hot_root_suffix_matching() {
        assert!(is_hot_root("seeker_ml::svm::Svm::decision_one"));
        assert!(is_hot_root("seeker_par::par_map"));
        assert!(!is_hot_root("seeker_ml::svm::Svm::fit"));
        assert!(!is_hot_root("alpha::my_par_map"));
    }
}
