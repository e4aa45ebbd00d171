//! The atomics-ordering audit: every `Ordering::Relaxed` site in non-test
//! library code must carry an adjacent `// ordering:` comment justifying
//! why relaxed memory ordering is sufficient — the default posture is
//! `Acquire`/`Release` or stronger, which always pass.
//!
//! Relaxed atomics are the workspace's sharpest correctness edge: they are
//! almost always *right* here (counters, uniqueness tokens, lock-protected
//! hints) and the one case where they are wrong is invisible in review.
//! The audit makes the reasoning part of the site: `// ordering: <why
//! relaxed is enough>` on the same line or the contiguous comment block
//! above. The full `Ordering::*` inventory is also collected so
//! `--atomics` can print the workspace's memory-ordering surface at a
//! glance.
//!
//! Known blind spot (shared with the no-panic lexer rule): a site that
//! imports the variant directly (`use Ordering::Relaxed;` then bare
//! `Relaxed`) is not matched. The workspace convention is to write
//! `Ordering::Relaxed` in full, which the `undocumented-pub`-style review
//! culture upholds.

use crate::rules::Rule;
use crate::walk::{Index, SourceFile};
use crate::Finding;

use std::path::PathBuf;

/// The memory-ordering variants (`std::sync::atomic::Ordering`).
const ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// One `Ordering::<variant>` mention in non-test library code.
#[derive(Debug, Clone)]
pub struct AtomicSite {
    /// Source file, relative to the workspace root.
    pub file: PathBuf,
    /// 1-based line of the `Ordering::<variant>` token.
    pub line: usize,
    /// The variant name (`Relaxed`, `Acquire`, …).
    pub ordering: &'static str,
    /// Whether an adjacent `// ordering:` justification comment was found.
    pub justified: bool,
}

/// Collects every `Ordering::<variant>` site in non-test library code and
/// the unjustified-`Relaxed` findings among them, both ordered by file then
/// line.
#[must_use]
pub fn atomic_sites(index: &Index<'_>) -> (Vec<AtomicSite>, Vec<Finding>) {
    let mut sites = Vec::new();
    let mut findings = Vec::new();
    for file in index.library_files() {
        collect_file(file, &mut sites, &mut findings);
    }
    sites.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    (sites, findings)
}

/// Scans one file's token stream for `Ordering::<variant>` mentions.
fn collect_file(file: &SourceFile<'_>, sites: &mut Vec<AtomicSite>, findings: &mut Vec<Finding>) {
    let stream = &file.stream;
    let lines: Vec<&str> = file.source.lines().collect();
    for (i, t) in stream.code_iter() {
        if !t.is_ident("Ordering") || file.is_test(t.line) {
            continue;
        }
        if !stream.code(i + 1).is_some_and(|u| u.is_punct("::")) {
            continue;
        }
        let Some(variant) = stream.code(i + 2) else { continue };
        let Some(&ordering) = ORDERINGS.iter().find(|&&o| variant.is_ident(o)) else {
            continue;
        };
        let justified = has_ordering_comment(&lines, t.line);
        let path = file.path.to_path_buf();
        sites.push(AtomicSite { file: path.clone(), line: t.line, ordering, justified });
        if ordering == "Relaxed" && !justified && !file.allowed(Rule::AtomicOrdering, t.line) {
            findings.push(Finding {
                file: path,
                line: t.line,
                tag: Rule::AtomicOrdering.id(),
                message: "`Ordering::Relaxed` without an adjacent `// ordering:` justification \
                          — explain why relaxed is sufficient, use Acquire/Release, or \
                          `lint:allow(atomic-ordering)` with a reason"
                    .to_string(),
            });
        }
    }
}

/// Looks for an `// ordering:` comment adjacent to `line` (1-based): a
/// trailing comment on the line itself, or anywhere in the contiguous run
/// of comment lines directly above it.
fn has_ordering_comment(lines: &[&str], line: usize) -> bool {
    let marks = |text: &str| text.contains("// ordering:");
    if lines.get(line - 1).is_some_and(|l| marks(l)) {
        return true;
    }
    let mut i = line - 1; // 0-based index of the line above
    while i > 0 {
        let above = lines[i - 1].trim_start();
        if !above.starts_with("//") {
            return false;
        }
        if marks(above) {
            return true;
        }
        i -= 1;
    }
    false
}

/// Renders the inventory as a per-file report (for `--atomics`).
#[must_use]
pub fn render_inventory(sites: &[AtomicSite]) -> String {
    let mut out = String::from("atomics inventory (non-test library code):\n");
    for s in sites {
        out.push_str(&format!(
            "  {}:{}: Ordering::{}{}\n",
            s.file.display(),
            s.line,
            s.ordering,
            if s.ordering == "Relaxed" && s.justified { " (justified)" } else { "" }
        ));
    }
    out.push_str(&format!("  {} site(s) total\n", sites.len()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch::workspace;
    use crate::walk::Workspace;
    use std::path::Path;

    fn atomic_sites_at(root: &Path) -> (Vec<AtomicSite>, Vec<Finding>) {
        atomic_sites(&Index::new(&Workspace::read(root).expect("walk")))
    }

    const HEADER: &str = "//! A.\n#![deny(missing_docs)]\nuse std::sync::atomic::{AtomicU64, Ordering};\nstatic N: AtomicU64 = AtomicU64::new(0);\n";

    #[test]
    fn bare_relaxed_is_a_violation() {
        let root = workspace(&format!(
            "{HEADER}/// Bump.\npub fn bump() {{ N.fetch_add(1, Ordering::Relaxed); }}\n"
        ));
        let (sites, violations) = atomic_sites_at(&root);
        assert_eq!(sites.len(), 1);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].to_string().contains("atomic-ordering"));
    }

    #[test]
    fn justified_relaxed_passes() {
        let root = workspace(&format!(
            "{HEADER}/// Bump.\npub fn bump() {{\n    // ordering: monotonic counter, no ordering dependency.\n    N.fetch_add(1, Ordering::Relaxed);\n}}\n"
        ));
        let (sites, violations) = atomic_sites_at(&root);
        assert_eq!(sites.len(), 1);
        assert!(sites[0].justified);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn same_line_justification_passes() {
        let root = workspace(&format!(
            "{HEADER}/// Bump.\npub fn bump() {{ N.fetch_add(1, Ordering::Relaxed); // ordering: counter\n}}\n"
        ));
        let (_, violations) = atomic_sites_at(&root);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn stronger_orderings_pass_without_comment() {
        let root = workspace(&format!(
            "{HEADER}/// Get.\npub fn get() -> u64 {{ N.load(Ordering::Acquire) }}\n/// Set.\npub fn set(v: u64) {{ N.store(v, Ordering::SeqCst); }}\n"
        ));
        let (sites, violations) = atomic_sites_at(&root);
        assert_eq!(sites.len(), 2);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn test_region_relaxed_is_exempt() {
        let root = workspace(&format!(
            "{HEADER}#[cfg(test)]\nmod tests {{\n    #[test]\n    fn t() {{ super::N.load(super::Ordering::Relaxed); }}\n}}\n"
        ));
        let (sites, violations) = atomic_sites_at(&root);
        assert!(sites.is_empty());
        assert!(violations.is_empty());
    }

    #[test]
    fn allow_comment_escapes_the_gate_but_stays_in_inventory() {
        let root = workspace(&format!(
            "{HEADER}/// Bump.\npub fn bump() {{\n    // lint:allow(atomic-ordering) -- measured: fence cost dominates here\n    N.fetch_add(1, Ordering::Relaxed);\n}}\n"
        ));
        let (sites, violations) = atomic_sites_at(&root);
        assert_eq!(sites.len(), 1);
        assert!(!sites[0].justified);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn inventory_renders_every_site() {
        let root = workspace(&format!(
            "{HEADER}/// Get.\npub fn get() -> u64 {{ N.load(Ordering::Acquire) }}\n"
        ));
        let (sites, _) = atomic_sites_at(&root);
        let report = render_inventory(&sites);
        assert!(report.contains("Ordering::Acquire"));
        assert!(report.contains("1 site(s) total"));
    }
}
