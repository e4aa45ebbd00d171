//! Dead-`pub` reporting: cross-references the public-API surface (the same
//! extraction that feeds `api/*.api`) against identifier mentions across
//! the whole workspace — sources, tests, benches, examples — and lists
//! `pub` items that nothing outside their defining file refers to.
//!
//! The report, `results/DEADPUB.md`, is also the lock: a whole-document
//! lock of [`crate::lockfile`] that `--bless-deadpub` writes and
//! `--check-deadpub` compares with what the sources give, failing on any
//! difference. New dead surface cannot land silently, and a cleanup
//! re-blesses too, so the report never lags the tree. Token-level mention
//! counting cannot see macro expansion or downstream consumers of a
//! published library, so every entry is a *candidate* corpse — "demote to
//! `pub(crate)` or delete" is a judgment call, and the report says which
//! of the two looks right (internal mentions exist → demote; none anywhere
//! → delete).

use crate::api_lock::extract_workspace_api;
use crate::lexer::lex;
use crate::lockfile::Rendered;
use crate::tokens::{Token, TokenKind};
use crate::walk::Index;

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One unreferenced `pub` item.
#[derive(Debug, Clone)]
pub struct DeadPub {
    /// The owning crate (package name).
    pub crate_name: String,
    /// The defining file, as recorded in the API snapshot.
    pub file: String,
    /// The item's signature line from the snapshot.
    pub signature: String,
    /// The item's name (the identifier mention counting keyed on).
    pub name: String,
    /// Mentions in the item's own file (besides the definition itself:
    /// `0` means not even self-referenced — likely deletable; `> 0` means
    /// internally used — a `pub(crate)` candidate).
    pub own_file_mentions: usize,
}

/// Extracts the item name from an API-snapshot signature (the identifier
/// after the item keyword), or `None` for signatures that have no
/// standalone name (e.g. `impl` headers, tuple fields).
fn signature_name(signature: &str) -> Option<String> {
    let mut words = signature.split_whitespace().peekable();
    while let Some(word) = words.next() {
        let keyword = matches!(
            word,
            "fn" | "struct"
                | "enum"
                | "union"
                | "trait"
                | "type"
                | "const"
                | "static"
                | "mod"
                | "macro"
        );
        if !keyword {
            continue;
        }
        let name = words.peek()?;
        let name: String = name.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
        if name.is_empty() || name == "r" {
            return None;
        }
        return Some(name);
    }
    // Field signatures: `pub total: u64`.
    let field = signature.strip_prefix("pub ")?;
    let name: String = field.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
    if name.is_empty() || field[name.len()..].trim_start().starts_with(':') {
        if name.is_empty() {
            return None;
        }
        return Some(name);
    }
    None
}

/// Computes the dead-`pub` candidates of the indexed workspace.
///
/// # Errors
///
/// Propagates I/O errors from traversal or from reading the `.rs` files the
/// index does not hold.
pub fn dead_pub_items(index: &Index<'_>) -> io::Result<Vec<DeadPub>> {
    // The API snapshots give (crate, file, signature) for every pub item.
    let api = extract_workspace_api(index);

    // Count identifier mentions per (name, file) across every Rust source
    // in the workspace — src, tests, benches, examples — excluding
    // generated/vendored trees. The index holds the sources' tokens; only
    // the files outside it are read and lexed here.
    let mut files: Vec<PathBuf> = Vec::new();
    collect_rs_files(index.root, Path::new(""), &mut files)?;
    let indexed: BTreeMap<&Path, &[Token<'_>]> =
        index.files.iter().map(|f| (f.path, f.stream.all())).collect();
    let mut mentions: BTreeMap<String, BTreeMap<PathBuf, usize>> = BTreeMap::new();
    let mut count = |rel: &Path, tokens: &[Token<'_>]| {
        for t in tokens.iter().filter(|t| t.kind == TokenKind::Ident) {
            let by_file = mentions.entry(t.text.to_string()).or_default();
            *by_file.entry(rel.to_path_buf()).or_insert(0) += 1;
        }
    };
    for rel in &files {
        match indexed.get(rel.as_path()) {
            Some(tokens) => count(rel, tokens),
            None => count(rel, &lex(&fs::read_to_string(index.root.join(rel))?)),
        }
    }

    let mut out = Vec::new();
    let mut seen: BTreeSet<(String, String)> = BTreeSet::new();
    for (info, rows) in &api {
        let crate_name = &info.name;
        for row in rows {
            let Some((file, signature)) = row.split_once(": ") else { continue };
            let Some(name) = signature_name(signature) else { continue };
            if !seen.insert((crate_name.clone(), name.clone())) {
                continue;
            }
            let def_file = info.dir.join(file);
            let by_file = mentions.get(&name);
            let own =
                by_file.and_then(|m| m.get(&def_file)).copied().unwrap_or(0).saturating_sub(1); // the definition itself
            let elsewhere: usize = by_file
                .map(|m| m.iter().filter(|(f, _)| **f != def_file).map(|(_, c)| c).sum())
                .unwrap_or(0);
            if elsewhere == 0 {
                out.push(DeadPub {
                    crate_name: crate_name.clone(),
                    file: file.to_string(),
                    signature: signature.to_string(),
                    name,
                    own_file_mentions: own,
                });
            }
        }
    }
    Ok(out)
}

/// Recursively collects workspace `.rs` files (relative paths), skipping
/// vendored/generated trees.
fn collect_rs_files(root: &Path, rel: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let dir = root.join(rel);
    let mut entries: Vec<_> = fs::read_dir(&dir)?.collect::<io::Result<_>>()?;
    entries.sort_by_key(std::fs::DirEntry::file_name);
    for entry in entries {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let child = rel.join(name.as_ref());
        if entry.file_type()?.is_dir() {
            if matches!(name.as_ref(), "target" | "vendor" | "fixtures" | ".git" | "results") {
                continue;
            }
            collect_rs_files(root, &child, out)?;
        } else if name.ends_with(".rs") {
            out.push(child);
        }
    }
    Ok(())
}

/// Renders `results/DEADPUB.md`, the report its lock pins whole.
pub(crate) fn render_lock(index: &Index<'_>) -> io::Result<Rendered> {
    let items = dead_pub_items(index)?;
    let mut doc = String::from(
        "# Dead-`pub` report\n\n\
         Generated by `cargo run -p seeker-lint -- --bless-deadpub`, and locked:\n\
         `--check-deadpub` fails when this file differs from what the sources\n\
         give. Each entry is a `pub` item no identifier outside its defining\n\
         file mentions (token-level count over src/tests/benches/examples;\n\
         macros and external consumers are invisible, so review before acting).\n\
         *Internal mentions* counts uses within the defining file itself — `> 0`\n\
         suggests demoting to `pub(crate)`, `0` suggests deleting.\n\n",
    );
    if items.is_empty() {
        doc.push_str("No candidates — every `pub` item is referenced somewhere.\n");
    } else {
        doc.push_str("| Crate | File | Item | Internal mentions |\n");
        doc.push_str("|---|---|---|---|\n");
        for item in &items {
            doc.push_str(&format!(
                "| `{}` | `{}` | `{}` | {} |\n",
                item.crate_name, item.file, item.signature, item.own_file_mentions
            ));
        }
    }
    Ok(Rendered::one("", doc.lines().map(|line| (line.to_string(), None))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lockfile::Lock;
    use crate::scratch::{bless, check, workspace};
    use crate::walk::Workspace;

    #[test]
    fn signature_names_are_extracted() {
        assert_eq!(signature_name("pub fn add(a: u32, b: u32) -> u32"), Some("add".to_string()));
        assert_eq!(signature_name("pub struct S"), Some("S".to_string()));
        assert_eq!(signature_name("pub const LIMIT: usize"), Some("LIMIT".to_string()));
        assert_eq!(signature_name("pub total: u64"), Some("total".to_string()));
        assert_eq!(signature_name("pub unsafe fn f()"), Some("f".to_string()));
    }

    #[test]
    fn unreferenced_pub_is_reported_and_referenced_is_not() {
        let root = workspace(
            "//! A.\n#![deny(missing_docs)]\n\n/// Used internally only.\npub fn semi(x: u32) -> u32 { x }\n\n/// Truly dead.\npub fn corpse() {}\n\n/// Live: calls semi.\npub fn live(x: u32) -> u32 { semi(x) }\n",
        );
        fs::create_dir_all(root.join("tests")).expect("mkdir");
        fs::write(root.join("tests/it.rs"), "#[test]\nfn t() { alpha::live(1); }\n")
            .expect("write");
        let workspace = Workspace::read(&root).expect("walk");
        let index = Index::new(&workspace);
        let items = dead_pub_items(&index).expect("deadpub");
        let names: Vec<&str> = items.iter().map(|i| i.name.as_str()).collect();
        assert_eq!(names, vec!["semi", "corpse"]);
        // `semi` is used in its own file → pub(crate) candidate; `corpse`
        // is untouched → delete candidate.
        assert!(items[0].own_file_mentions > 0);
        assert_eq!(items[1].own_file_mentions, 0);
        // Report lifecycle: missing report → bless → clean → growth fails,
        // shrinkage fails until re-blessed.
        let check_deadpub = || check(Lock::DeadPub, &root).1;
        assert_eq!(check_deadpub().len(), 1, "missing report must fail");
        let written = bless(Lock::DeadPub, &root);
        assert_eq!(written, vec![PathBuf::from("results/DEADPUB.md")]);
        let report = fs::read_to_string(root.join("results/DEADPUB.md")).expect("read");
        assert!(report.contains("| `alpha` | `src/lib.rs` | `pub fn corpse()` | 0 |"), "{report}");
        assert!(check_deadpub().is_empty());
        // A new dead pub item is a candidate the report lacks.
        let lib = root.join("crates/alpha/src/lib.rs");
        let source = fs::read_to_string(&lib).expect("read");
        fs::write(&lib, format!("{source}\n/// Also dead.\npub fn corpse2() {{}}\n"))
            .expect("write");
        let failures = check_deadpub();
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].to_string().contains("results/DEADPUB.md"), "{failures:?}");
        // Removing dead surface is drift too, until re-blessed.
        fs::write(
            &lib,
            "//! A.\n#![deny(missing_docs)]\n\n/// Live: used by tests.\npub fn live(x: u32) -> u32 { x }\n",
        )
        .expect("write");
        assert_eq!(check_deadpub().len(), 1, "a candidate that goes is drift");
        bless(Lock::DeadPub, &root);
        assert!(check_deadpub().is_empty());
    }
}
