//! Crate-layering enforcement: the workspace's dependency DAG is *declared*
//! here and validated against reality, so layering violations fail CI
//! instead of accreting.
//!
//! The intended architecture (see `DESIGN.md` and `docs/LINTING.md`):
//!
//! ```text
//!             cli   bench   (binaries / harness — may use everything)
//!               \   /
//!         core (friendseeker)   baselines   obfuscation
//!               |                    |           |
//!     trace  spatial  graph  nn  ml  (substrate layer)
//!               |
//!         par  obs              (foundation: par uses only obs,
//!                                obs depends on nothing; substrate
//!                                crates may use both)
//! ```
//!
//! Two sources of truth are checked against the declared DAG:
//!
//! 1. every `seeker-*`/`friendseeker` entry in a crate's `[dependencies]`
//!    table (dev-dependencies are exempt — tests may cross layers);
//! 2. every `seeker_*`/`friendseeker` path mention in the crate's non-test
//!    library sources (catches a dependency smuggled in through an existing
//!    transitive edge).
//!
//! The declared DAG itself is validated to be acyclic, and every workspace
//! crate must appear in it — adding a crate without declaring its layer is
//! itself a violation.

use crate::rules::FileClass;
use crate::tokens::TokenKind;
use crate::walk::Index;
use crate::Finding;

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// The declared dependency DAG: `(crate, allowed direct seeker deps)`.
///
/// Order is layer order (foundations first) for readability; validation
/// does not depend on it.
pub const LAYER_DAG: &[(&str, &[&str])] = &[
    ("seeker-obs", &[]),
    ("seeker-par", &["seeker-obs"]),
    ("seeker-trace", &["seeker-obs"]),
    ("seeker-spatial", &["seeker-obs", "seeker-trace", "seeker-par"]),
    ("seeker-graph", &["seeker-obs", "seeker-trace"]),
    ("seeker-nn", &["seeker-obs", "seeker-par"]),
    ("seeker-ml", &["seeker-obs", "seeker-par"]),
    (
        "friendseeker",
        &[
            "seeker-obs",
            "seeker-par",
            "seeker-trace",
            "seeker-spatial",
            "seeker-graph",
            "seeker-nn",
            "seeker-ml",
        ],
    ),
    (
        "seeker-baselines",
        &["seeker-obs", "seeker-trace", "seeker-spatial", "seeker-graph", "seeker-nn", "seeker-ml"],
    ),
    ("seeker-obfuscation", &["seeker-obs", "seeker-trace", "seeker-spatial"]),
    (
        "seeker-cli",
        &[
            "seeker-obs",
            "seeker-trace",
            "seeker-graph",
            "seeker-ml",
            "friendseeker",
            "seeker-obfuscation",
        ],
    ),
    // The serve I/O plane deliberately does NOT depend on seeker-par: its
    // connection threads must stay off the pool the engine's refinement
    // fans out over (see the seeker-serve crate docs).
    ("seeker-serve", &["seeker-obs", "seeker-trace", "friendseeker"]),
    (
        "seeker-bench",
        &[
            "seeker-obs",
            "seeker-par",
            "seeker-trace",
            "seeker-spatial",
            "seeker-graph",
            "seeker-nn",
            "seeker-ml",
            "friendseeker",
            "seeker-baselines",
            "seeker-obfuscation",
            "seeker-serve",
        ],
    ),
    // The lint binary fans per-file lex/parse out over the pool — the only
    // production crate it may touch (dogfooding seeker-par on coarse units).
    ("seeker-lint", &["seeker-par", "seeker-obs"]),
    (
        "friendseeker-repro",
        &[
            "seeker-obs",
            "seeker-par",
            "seeker-trace",
            "seeker-spatial",
            "seeker-graph",
            "seeker-nn",
            "seeker-ml",
            "friendseeker",
            "seeker-baselines",
            "seeker-obfuscation",
            "seeker-serve",
        ],
    ),
];

/// A layering finding about `file` at `line` (0: the whole file).
fn finding(file: &Path, line: usize, message: String) -> Finding {
    Finding { file: file.to_path_buf(), line, tag: "layering", message }
}

/// Validates the index's crates against [`LAYER_DAG`]: the DAG itself, each
/// crate's membership, its `[dependencies]` table, and its non-test
/// sources, which one scan per crate reads for both the path mentions the
/// DAG forbids and the identifiers the `unused-dep` rule needs. Findings
/// are ordered by file then line.
#[must_use]
pub fn check_layering(index: &Index<'_>) -> Vec<Finding> {
    let mut findings = Vec::new();
    let dag: BTreeMap<&str, BTreeSet<&str>> =
        LAYER_DAG.iter().map(|(name, deps)| (*name, deps.iter().copied().collect())).collect();

    if let Some(cycle) = find_cycle(LAYER_DAG) {
        let message = format!("declared layer DAG contains a cycle through `{cycle}`");
        findings.push(finding(Path::new("crates/lint/src/layers.rs"), 0, message));
    }

    let by_lib_name: BTreeMap<&str, &str> =
        index.crates.iter().map(|c| (c.lib_name.as_str(), c.name.as_str())).collect();
    for (k, info) in index.crates.iter().enumerate() {
        let layer = dag.get(info.name.as_str());
        let mut idents: BTreeSet<&str> = BTreeSet::new();
        let mut mentions = Vec::new();
        let files = index.files.iter().filter(|f| f.krate == Some(k));
        for file in files.filter(|f| f.class != FileClass::TestCode) {
            let stream = &file.stream;
            let mut reported: BTreeSet<&str> = BTreeSet::new();
            for (i, t) in stream.code_iter() {
                if t.kind != TokenKind::Ident || file.is_test(t.line) {
                    continue;
                }
                idents.insert(t.text);
                let (Some(allowed), Some(&dep_name)) = (layer, by_lib_name.get(t.text)) else {
                    continue;
                };
                // Only path-position mentions of another crate count: `use
                // seeker_x…` or `seeker_x::…`, not a doc link to the crate
                // itself or a variable named like a crate.
                let is_path = stream.code(i + 1).is_some_and(|n| n.is_punct("::"))
                    || (i > 0 && stream.code(i - 1).is_some_and(|p| p.is_ident("use")));
                if dep_name != info.name
                    && is_path
                    && !allowed.contains(dep_name)
                    && reported.insert(t.text)
                {
                    let message = format!(
                        "`{}` must not use `{dep_name}` (allowed: {})",
                        info.name,
                        format_allowed(allowed),
                    );
                    mentions.push(finding(file.path, t.line, message));
                }
            }
        }

        // A declared but unreferenced dependency is dead weight whether or
        // not the crate is layered. A `# lint:allow(unused-dep)` comment on
        // the entry's line or the line above sanctions a deliberate keep
        // (e.g. a dependency used only behind a feature the lint cannot see).
        let deps = manifest_dependencies(&info.manifest_text);
        let manifest_lines: Vec<&str> = info.manifest_text.lines().collect();
        for (line_no, dep) in &deps {
            let lib = dep.replace('-', "_");
            let sanctioned = manifest_lines[line_no.saturating_sub(2)..*line_no]
                .iter()
                .any(|l| l.contains("lint:allow(unused-dep)"));
            if !idents.contains(lib.as_str()) && !sanctioned {
                let message = format!(
                    "[unused-dep] `{dep}` is declared in [dependencies] but `{lib}` never \
                     appears in `{}`'s non-test sources (remove it, or sanction with \
                     `# lint:allow(unused-dep)`)",
                    info.name
                );
                findings.push(finding(&info.manifest, *line_no, message));
            }
        }

        let Some(allowed_deps) = layer else {
            let message = format!(
                "crate `{}` is not declared in the layering DAG (add it to LAYER_DAG in crates/lint/src/layers.rs)",
                info.name
            );
            findings.push(finding(&info.manifest, 0, message));
            continue;
        };
        // External (vendored) dependencies are not layered.
        for (line_no, dep) in deps {
            if dag.contains_key(dep.as_str()) && !allowed_deps.contains(dep.as_str()) {
                let message = format!(
                    "`{}` must not depend on `{dep}` (allowed: {})",
                    info.name,
                    format_allowed(allowed_deps),
                );
                findings.push(finding(&info.manifest, line_no, message));
            }
        }
        findings.extend(mentions);
    }
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    findings
}

/// Extracts `(line, package-name)` pairs from a manifest's `[dependencies]`
/// section (dev/build dependency sections are skipped).
fn manifest_dependencies(manifest: &str) -> Vec<(usize, String)> {
    let mut deps = Vec::new();
    let mut in_deps = false;
    for (idx, line) in manifest.lines().enumerate() {
        let t = line.trim();
        if t.starts_with('[') {
            in_deps = t == "[dependencies]";
            continue;
        }
        if !in_deps || t.is_empty() || t.starts_with('#') {
            continue;
        }
        // `name.workspace = true`, `name = { … }`, `name = "1.0"`.
        let name: String =
            t.chars().take_while(|c| c.is_ascii_alphanumeric() || *c == '-' || *c == '_').collect();
        if !name.is_empty() {
            deps.push((idx + 1, name));
        }
    }
    deps
}

fn format_allowed(allowed: &BTreeSet<&str>) -> String {
    if allowed.is_empty() {
        "none".to_string()
    } else {
        allowed.iter().copied().collect::<Vec<_>>().join(", ")
    }
}

/// Returns a crate on a cycle in `dag`, if any (DFS three-colour marking).
fn find_cycle(dag: &[(&str, &[&str])]) -> Option<String> {
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        White,
        Grey,
        Black,
    }
    let index: BTreeMap<&str, usize> =
        dag.iter().enumerate().map(|(i, (name, _))| (*name, i)).collect();
    let mut marks = vec![Mark::White; dag.len()];

    fn visit(
        node: usize,
        dag: &[(&str, &[&str])],
        index: &BTreeMap<&str, usize>,
        marks: &mut [Mark],
    ) -> Option<usize> {
        marks[node] = Mark::Grey;
        for dep in dag[node].1 {
            let Some(&next) = index.get(dep) else { continue };
            match marks[next] {
                Mark::Grey => return Some(next),
                Mark::White => {
                    if let Some(hit) = visit(next, dag, index, marks) {
                        return Some(hit);
                    }
                }
                Mark::Black => {}
            }
        }
        marks[node] = Mark::Black;
        None
    }

    for start in 0..dag.len() {
        if marks[start] == Mark::White {
            if let Some(hit) = visit(start, dag, &index, &mut marks) {
                return Some(dag[hit].0.to_string());
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_declared_dag_is_acyclic() {
        assert!(find_cycle(LAYER_DAG).is_none());
    }

    #[test]
    fn cycles_are_detected() {
        let cyclic: &[(&str, &[&str])] = &[("a", &["b"]), ("b", &["c"]), ("c", &["a"]), ("d", &[])];
        assert!(find_cycle(cyclic).is_some());
    }

    #[test]
    fn manifest_dependency_parsing() {
        let manifest = "[package]\nname = \"x\"\n\n[dependencies]\nseeker-obs.workspace = true\nrand = { path = \"../rand\" }\n# comment\n\n[dev-dependencies]\nproptest.workspace = true\n";
        let deps = manifest_dependencies(manifest);
        let names: Vec<&str> = deps.iter().map(|(_, n)| n.as_str()).collect();
        assert_eq!(names, vec!["seeker-obs", "rand"]);
        assert_eq!(deps[0].0, 5);
    }

    #[test]
    fn every_workspace_crate_is_declared() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("workspace root");
        let declared: BTreeSet<&str> = LAYER_DAG.iter().map(|(n, _)| *n).collect();
        let workspace = crate::walk::Workspace::read(root).expect("walk");
        for info in Index::new(&workspace).crates {
            assert!(
                declared.contains(info.name.as_str()),
                "crate `{}` missing from LAYER_DAG",
                info.name
            );
        }
    }
}
