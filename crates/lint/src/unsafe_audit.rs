//! The unsafe ledger: every `unsafe` construct in library code must sit
//! under a `// SAFETY:` comment **and** be recorded in the blessed lock
//! `api/unsafe.lock` (a lock of [`crate::lockfile`]) — one row per construct
//! with its crate-qualified item path, construct kind, span-normalized body
//! hash, and one-line obligation (the first `SAFETY:` line).
//!
//! `--check-unsafe` (and the default full gate) fails on *both* directions
//! of drift — a new or changed `unsafe` construct must be consciously
//! blessed, and a removed one must be re-blessed away so the ledger shrinks
//! with the unsafe surface. A missing `SAFETY:` comment is a hard violation
//! regardless of lock state: the ledger records *reviewed* obligations, it
//! cannot substitute for writing one down.
//!
//! The body hash is computed over the construct's **code tokens only**
//! (whitespace and comments excluded, FNV-1a 64-bit), so reformatting never
//! churns the ledger but any semantic edit inside an `unsafe` region —
//! however small — forces a conscious re-bless of its entry.

use crate::lockfile::Rendered;
use crate::rules::Rule;
use crate::syntax::Item;
use crate::tokens::{TokenKind, TokenStream};
use crate::walk::{Index, SourceFile};
use crate::Finding;

use std::collections::BTreeMap;
use std::path::PathBuf;

/// The syntactic class of an `unsafe` construct.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnsafeKind {
    /// An `unsafe { … }` block expression.
    Block,
    /// An `unsafe fn` (or an `unsafe` trait-method signature).
    Fn,
    /// An `unsafe impl … { … }` block.
    Impl,
    /// An `unsafe trait … { … }` declaration.
    Trait,
    /// Anything else (`unsafe extern { … }`, future syntax).
    Other,
}

impl UnsafeKind {
    /// The stable lowercase name used in the lockfile.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            UnsafeKind::Block => "block",
            UnsafeKind::Fn => "fn",
            UnsafeKind::Impl => "impl",
            UnsafeKind::Trait => "trait",
            UnsafeKind::Other => "other",
        }
    }
}

/// One `unsafe` construct found in library code.
#[derive(Debug, Clone)]
pub struct UnsafeSite {
    /// Stable ledger id: `crate::module::item#ordinal` (ordinal counts the
    /// unsafe constructs inside one item, in source order).
    pub id: String,
    /// The construct kind.
    pub kind: UnsafeKind,
    /// Source file, relative to the workspace root.
    pub file: PathBuf,
    /// 1-based line of the `unsafe` keyword.
    pub line: usize,
    /// FNV-1a 64 hash over the construct's code-token texts.
    pub hash: u64,
    /// The one-line obligation: the text after `SAFETY:` on the first
    /// matching comment line, `None` when no SAFETY comment was found.
    pub obligation: Option<String>,
}

/// FNV-1a 64-bit over `bytes` folded into `hash` (stable across platforms
/// and toolchains, unlike `DefaultHasher`).
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Collects every `unsafe` construct in non-test library code, sorted by
/// id, plus the missing-`SAFETY:` findings, sorted by file then line.
#[must_use]
pub fn unsafe_sites(index: &Index<'_>) -> (Vec<UnsafeSite>, Vec<Finding>) {
    let mut sites = Vec::new();
    let mut findings = Vec::new();
    for file in index.library_files() {
        let Some(info) = index.crate_of(file) else { continue };
        collect_file(&info.name, file, &mut sites, &mut findings);
    }
    sites.sort_by(|a, b| a.id.cmp(&b.id));
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    (sites, findings)
}

/// Scans one file's token stream for `unsafe` constructs.
fn collect_file(
    crate_name: &str,
    file: &SourceFile<'_>,
    sites: &mut Vec<UnsafeSite>,
    findings: &mut Vec<Finding>,
) {
    let stream = &file.stream;
    let lines: Vec<&str> = file.source.lines().collect();
    let mut per_item_ordinal: BTreeMap<String, usize> = BTreeMap::new();

    for (i, t) in stream.code_iter() {
        if !t.is_ident("unsafe") || file.is_test(t.line) {
            continue;
        }
        let kind = match stream.code(i + 1) {
            Some(n) if n.is_punct("{") => UnsafeKind::Block,
            Some(n) if n.is_ident("fn") => UnsafeKind::Fn,
            Some(n) if n.is_ident("impl") => UnsafeKind::Impl,
            Some(n) if n.is_ident("trait") => UnsafeKind::Trait,
            _ => UnsafeKind::Other,
        };
        let end = construct_end(stream, i);
        let mut hash = FNV_OFFSET;
        for j in i..end {
            if let Some(u) = stream.code(j) {
                hash = fnv1a(hash, u.text.as_bytes());
                hash = fnv1a(hash, &[0x1F]);
            }
        }
        let names = file.module.iter().cloned().chain(enclosing_chain(&file.tree.items, i));
        let mut id =
            std::iter::once(crate_name.to_string()).chain(names).collect::<Vec<_>>().join("::");
        let ordinal = per_item_ordinal.entry(id.clone()).or_insert(0);
        id.push('#');
        id.push_str(&ordinal.to_string());
        *ordinal += 1;

        let obligation = safety_obligation(&lines, t.line);
        if obligation.is_none() && !file.allowed(Rule::UnsafeLedger, t.line) {
            findings.push(Finding {
                file: file.path.to_path_buf(),
                line: t.line,
                tag: Rule::UnsafeLedger.id(),
                message: format!(
                    "`unsafe` {} without a `// SAFETY:` comment on the preceding lines — \
                     write the obligation down (or `lint:allow(unsafe-ledger)` with a reason)",
                    kind.as_str()
                ),
            });
        }
        sites.push(UnsafeSite {
            id,
            kind,
            file: file.path.to_path_buf(),
            line: t.line,
            hash,
            obligation,
        });
    }
}

/// One past the last code-token index of the `unsafe` construct starting at
/// code index `i`: the matching `}` of the construct's brace group, or the
/// terminating `;` for a body-less `unsafe fn` signature.
fn construct_end(stream: &TokenStream<'_>, i: usize) -> usize {
    // Find the first `{` at bracket depth 0 after `unsafe` (the block's own
    // `{` when the next token already opens one).
    let mut j = i + 1;
    let mut depth = 0isize;
    while let Some(t) = stream.code(j) {
        if t.kind == TokenKind::Punct {
            match t.text {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => break,
                ";" if depth == 0 => return j + 1,
                // A closing brace of the *enclosing* body: malformed input,
                // stop before it.
                "}" if depth == 0 => return j,
                _ => {}
            }
        }
        j += 1;
    }
    // Match the brace group.
    let mut brace = 0isize;
    while let Some(t) = stream.code(j) {
        if t.is_punct("{") {
            brace += 1;
        } else if t.is_punct("}") {
            brace -= 1;
            if brace == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    j
}

/// The chain of named-item names (modules, impls, traits, fns) enclosing
/// code-token index `i`, outermost first.
fn enclosing_chain(items: &[Item], i: usize) -> Vec<String> {
    for item in items {
        if item.code_start <= i && i < item.code_end {
            let mut chain = Vec::new();
            if !item.name.is_empty() {
                chain.push(item.name.clone());
            }
            chain.extend(enclosing_chain(&item.children, i));
            return chain;
        }
    }
    Vec::new()
}

/// Looks for a `SAFETY:` comment adjacent to `line` (1-based): on the line
/// itself, or on the contiguous run of comment/attribute lines directly
/// above it. Returns the text after the first `SAFETY:` marker, trimmed
/// (empty string when the marker has no same-line text).
fn safety_obligation(lines: &[&str], line: usize) -> Option<String> {
    let extract = |text: &str| -> Option<String> {
        let idx = text.find("SAFETY:")?;
        Some(text[idx + "SAFETY:".len()..].trim().to_string())
    };
    // Same line (trailing comment).
    if let Some(l) = lines.get(line - 1) {
        if let Some(comment_start) = l.find("//") {
            if let Some(o) = extract(&l[comment_start..]) {
                return Some(o);
            }
        }
    }
    // Contiguous comment / attribute lines above. The obligation is the
    // *first* SAFETY line of the block, so scan the block top-down.
    let mut first = line - 1; // 0-based index one past the block's top
    while first > 0 {
        let trimmed = lines[first - 1].trim_start();
        if trimmed.starts_with("//") || trimmed.starts_with("#[") || trimmed.starts_with("#![") {
            first -= 1;
        } else {
            break;
        }
    }
    for l in &lines[first..line - 1] {
        let trimmed = l.trim_start();
        if trimmed.starts_with("//") {
            if let Some(o) = extract(trimmed) {
                return Some(o);
            }
        }
    }
    None
}

/// Renders `api/unsafe.lock`, each row witnessed by its `file:line`; the
/// missing-`SAFETY:` violations are the rendering's findings.
pub(crate) fn render_lock(index: &Index<'_>) -> Rendered {
    let (sites, findings) = unsafe_sites(index);
    let rows = sites.into_iter().map(|site| {
        let obligation = site.obligation.unwrap_or_default();
        let row = format!("{}\t{}\t{:016x}\t{obligation}", site.id, site.kind.as_str(), site.hash);
        (row, Some(format!("{}:{}", site.file.display(), site.line)))
    });
    let header = "Unsafe ledger — every `unsafe` construct in library code, generated by\n\
        `cargo run -p seeker-lint -- --bless-unsafe`.\n\
        One tab-separated row per construct: id, kind, span-normalized body hash,\n\
        one-line SAFETY obligation. CI fails on any drift in either direction.";
    Rendered { findings, ..Rendered::one(header, rows) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lockfile::{Drift, DriftKind, Lock};
    use crate::scratch::{bless, check, workspace};
    use crate::walk::Workspace;
    use std::fs;
    use std::path::Path;

    fn unsafe_sites_at(root: &Path) -> (Vec<UnsafeSite>, Vec<Finding>) {
        unsafe_sites(&Index::new(&Workspace::read(root).expect("walk")))
    }

    const ANNOTATED: &str = "//! A.\n#![deny(missing_docs)]\n\n/// Reads one byte.\npub fn peek(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees p is valid for reads.\n    unsafe { *p }\n}\n";

    #[test]
    fn annotated_unsafe_block_is_recorded_without_violation() {
        let root = workspace(ANNOTATED);
        let (sites, violations) = unsafe_sites_at(&root);
        assert!(violations.is_empty(), "{violations:?}");
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].id, "alpha::peek#0");
        assert_eq!(sites[0].kind, UnsafeKind::Block);
        assert_eq!(sites[0].obligation.as_deref(), Some("caller guarantees p is valid for reads."));
    }

    #[test]
    fn missing_safety_comment_is_a_violation() {
        let root = workspace(
            "//! A.\n#![deny(missing_docs)]\n\n/// Reads one byte.\npub fn peek(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n",
        );
        let (sites, violations) = unsafe_sites_at(&root);
        assert_eq!(sites.len(), 1);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].message.contains("SAFETY"), "{}", violations[0].message);
    }

    #[test]
    fn test_region_unsafe_is_exempt() {
        let root = workspace(
            "//! A.\n#![deny(missing_docs)]\n\n#[cfg(test)]\nmod tests {\n    fn f(p: *const u8) -> u8 { unsafe { *p } }\n}\n",
        );
        let (sites, violations) = unsafe_sites_at(&root);
        assert!(sites.is_empty());
        assert!(violations.is_empty());
    }

    #[test]
    fn bless_then_check_roundtrip_added_changed_and_stale_drift() {
        let root = workspace(ANNOTATED);
        let check_unsafe = || check(Lock::Unsafe, &root);
        let bless_unsafe = || bless(Lock::Unsafe, &root);
        let rows = || {
            fs::read_to_string(root.join("api/unsafe.lock"))
                .expect("read")
                .lines()
                .filter(|l| !l.starts_with('#'))
                .count()
        };
        // Missing lock is drift.
        let (_, drift) = check_unsafe();
        assert!(matches!(drift.as_slice(), [Drift { kind: DriftKind::Missing, .. }]));
        // Bless → clean.
        let written = bless_unsafe();
        assert_eq!(written, vec![PathBuf::from("api/unsafe.lock")]);
        assert_eq!(rows(), 1);
        let (violations, drift) = check_unsafe();
        assert!(violations.is_empty() && drift.is_empty(), "{drift:?}");
        // Editing the unsafe body is Changed drift.
        let lib = root.join("crates/alpha/src/lib.rs");
        fs::write(&lib, ANNOTATED.replace("*p", "*p.offset(0)")).expect("write");
        let (_, drift) = check_unsafe();
        assert!(
            matches!(drift.as_slice(), [Drift { kind: DriftKind::Changed(what), .. }] if what == "body hash"),
            "{drift:?}"
        );
        // A second unsafe construct is Added drift.
        fs::write(
            &lib,
            format!("{ANNOTATED}\n/// W.\npub fn poke(p: *mut u8) {{\n    // SAFETY: caller guarantees p is valid for writes.\n    unsafe {{ *p = 0 }}\n}}\n"),
        )
        .expect("write");
        let (_, drift) = check_unsafe();
        assert!(
            matches!(drift.as_slice(), [Drift { kind: DriftKind::Added(_), key, .. }] if key == "alpha::poke#0"),
            "{drift:?}"
        );
        // Removing every unsafe construct leaves a stale entry.
        fs::write(
            &lib,
            "//! A.\n#![deny(missing_docs)]\n\n/// Safe now.\npub fn peek() -> u8 { 0 }\n",
        )
        .expect("write");
        let (_, drift) = check_unsafe();
        assert!(
            matches!(drift.as_slice(), [Drift { kind: DriftKind::Removed, key, .. }] if key == "alpha::peek#0")
        );
        // Re-bless shrinks the ledger back to clean.
        bless_unsafe();
        assert_eq!(rows(), 0);
        assert!(check_unsafe().1.is_empty());
    }

    #[test]
    fn reformatting_does_not_change_the_hash() {
        let root = workspace(ANNOTATED);
        let (a, _) = unsafe_sites_at(&root);
        let reformatted = ANNOTATED.replace("unsafe { *p }", "unsafe {\n        *p\n    }");
        fs::write(root.join("crates/alpha/src/lib.rs"), reformatted).expect("write");
        let (b, _) = unsafe_sites_at(&root);
        assert_eq!(a[0].hash, b[0].hash, "whitespace must not churn the ledger");
    }

    #[test]
    fn unsafe_fn_and_impl_kinds_are_classified() {
        let root = workspace(
            "//! A.\n#![deny(missing_docs)]\n\n/// Raw slot.\npub struct Slot(u8);\n\n// SAFETY: Slot is a plain byte, no shared mutation.\nunsafe impl Sync for Slot {}\n\n/// Unchecked read.\n///\n// SAFETY: caller upholds the index bound.\npub unsafe fn get(s: &[u8], i: usize) -> u8 {\n    // SAFETY: forwarded from the caller contract.\n    unsafe { *s.get_unchecked(i) }\n}\n",
        );
        let (sites, violations) = unsafe_sites_at(&root);
        assert!(violations.is_empty(), "{violations:?}");
        let kinds: Vec<(&str, UnsafeKind)> =
            sites.iter().map(|s| (s.id.as_str(), s.kind)).collect();
        assert_eq!(
            kinds,
            vec![
                ("alpha::Slot#0", UnsafeKind::Impl),
                ("alpha::get#0", UnsafeKind::Fn),
                ("alpha::get#1", UnsafeKind::Block),
            ],
        );
    }
}
