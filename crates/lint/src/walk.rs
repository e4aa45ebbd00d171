//! The workspace index every pass reads.
//!
//! One walk reads each crate's manifest and each in-scope source
//! ([`Workspace::read`]); [`Index::new`] then lexes and parses every file
//! once, in parallel over the `seeker-par` pool, and records what the passes
//! ask of a file: its class, crate and module path, its token stream and
//! item tree, its test-only lines and its `lint:allow` sites. The call graph
//! is built the first time a pass asks for it ([`Index::graph`]). The passes
//! are functions of the index: none of them walks, reads or lexes.

use crate::callgraph::{build_call_graph, CallGraph};
use crate::lexer::lex;
use crate::rules::{FileClass, Rule};
use crate::syntax::{parse_stream, test_attr_end, ItemKind, ItemTree};
use crate::tokens::{TokenKind, TokenStream};

use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// One workspace package, as discovered from its manifest.
#[derive(Debug, Clone)]
pub(crate) struct CrateInfo {
    /// The package name from `[package] name = "…"` (e.g. `seeker-obs`).
    pub(crate) name: String,
    /// The crate directory relative to the workspace root (empty for the
    /// root package, `crates/<x>` for members).
    pub(crate) dir: PathBuf,
    /// The manifest path relative to the workspace root.
    pub(crate) manifest: PathBuf,
    /// The manifest's text.
    pub(crate) manifest_text: String,
    /// The library target name as it appears in `use` paths (dashes
    /// replaced by underscores).
    pub(crate) lib_name: String,
}

/// A source file as the walk read it.
#[derive(Debug)]
struct RawFile {
    path: PathBuf,
    src_dir: PathBuf,
    krate: Option<usize>,
    source: String,
}

/// The workspace as one walk reads it: its packages and the text of every
/// in-scope source. Tokens borrow the text, so the [`Index`] borrows this.
///
/// Scope: the `src/` trees of the root package and of every `crates/*`
/// member. Vendored stand-in crates (`vendor/`), build output (`target/`),
/// integration `tests/`, `benches/`, `examples/` and lint test `fixtures/`
/// are out of scope: third-party, test-only or generated.
#[derive(Debug)]
pub struct Workspace {
    root: PathBuf,
    crates: Vec<CrateInfo>,
    files: Vec<RawFile>,
}

impl Workspace {
    /// Walks the workspace rooted at `root` once, reading every manifest
    /// and in-scope source. Packages (the root one, if its manifest has a
    /// `[package]` section, then each `crates/*` member with a `src/` tree)
    /// and files are sorted by path.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from directory traversal or file reads.
    pub fn read(root: &Path) -> io::Result<Workspace> {
        // The empty path stands for the root package: `dir.join("src")` is
        // `src` and `dir.join("Cargo.toml")` the root manifest.
        let mut dirs = vec![PathBuf::new()];
        let crates_dir = root.join("crates");
        if crates_dir.is_dir() {
            let mut entries: Vec<PathBuf> =
                fs::read_dir(&crates_dir)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
            entries.sort();
            dirs.extend(entries.iter().map(|e| e.strip_prefix(root).unwrap_or(e).to_path_buf()));
        }
        let mut workspace = Workspace::at(root);
        for dir in dirs {
            let src_dir = dir.join("src");
            if !root.join(&src_dir).is_dir() {
                continue;
            }
            let manifest = dir.join("Cargo.toml");
            let mut krate = None;
            if root.join(&manifest).is_file() {
                let manifest_text = fs::read_to_string(root.join(&manifest))?;
                if let Some(name) = package_name(&manifest_text) {
                    krate = Some(workspace.crates.len());
                    let lib_name = name.replace('-', "_");
                    workspace.crates.push(CrateInfo {
                        name,
                        dir,
                        manifest,
                        manifest_text,
                        lib_name,
                    });
                }
            }
            let mut paths = Vec::new();
            collect_rs_files(&root.join(&src_dir), &mut paths)?;
            paths.sort();
            for path in paths {
                let source = fs::read_to_string(&path)?;
                let path = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
                workspace.files.push(RawFile { path, src_dir: src_dir.clone(), krate, source });
            }
        }
        Ok(workspace)
    }

    /// A workspace at `root` with nothing read: the index over it holds no
    /// crate and no file. The configuration doc's lock, which renders from
    /// the env registry alone, runs on it.
    #[must_use]
    pub fn at(root: &Path) -> Workspace {
        Workspace { root: root.to_path_buf(), crates: Vec::new(), files: Vec::new() }
    }
}

/// Extracts `name = "…"` from a manifest's `[package]` section.
fn package_name(manifest: &str) -> Option<String> {
    let mut in_package = false;
    for line in manifest.lines() {
        let t = line.trim();
        if t.starts_with('[') {
            in_package = t == "[package]";
            continue;
        }
        if !in_package {
            continue;
        }
        if let Some(rest) = t.strip_prefix("name") {
            let rest = rest.trim_start();
            if let Some(value) = rest.strip_prefix('=') {
                return Some(value.trim().trim_matches('"').to_string());
            }
        }
    }
    None
}

/// Recursively collects `.rs` files under `dir` (skipping `fixtures/`).
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name == "fixtures" {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// The workspace index: every in-scope file lexed and parsed once, and the
/// call graph once asked for.
#[derive(Debug)]
pub struct Index<'w> {
    /// The workspace root.
    pub(crate) root: &'w Path,
    /// The workspace packages, sorted by directory.
    pub(crate) crates: &'w [CrateInfo],
    /// Every in-scope source file, in walk order.
    pub(crate) files: Vec<SourceFile<'w>>,
    graph: OnceLock<CallGraph>,
}

impl<'w> Index<'w> {
    /// Lexes and parses every file of `workspace`, fanned out over the pool
    /// on file-sized units, and classifies each one.
    #[must_use]
    pub fn new(workspace: &'w Workspace) -> Index<'w> {
        let raws = &workspace.files;
        let mut files =
            seeker_par::par_map_indexed_cost(raws.len(), seeker_par::Cost::Heavy, |i| {
                let raw = &raws[i];
                let mut file =
                    SourceFile::new(&raw.path, classify(&raw.path, &raw.src_dir), &raw.source);
                file.krate = raw.krate;
                file.module = module_path(&raw.path, &raw.src_dir);
                file
            });
        // A file declared under a test-only `mod x;` is test code.
        let declared: BTreeSet<PathBuf> = files.iter().flat_map(SourceFile::test_modules).collect();
        for file in &mut files {
            if declared.contains(file.path) {
                file.class = FileClass::TestCode;
            }
        }
        Index { root: &workspace.root, crates: &workspace.crates, files, graph: OnceLock::new() }
    }

    /// The workspace call graph, built on the first call.
    pub fn graph(&self) -> &CallGraph {
        self.graph.get_or_init(|| build_call_graph(self))
    }

    /// The library files (neither binary roots nor test code), in walk
    /// order.
    pub(crate) fn library_files(&self) -> impl Iterator<Item = &SourceFile<'w>> {
        self.files.iter().filter(|f| matches!(f.class, FileClass::Library | FileClass::LibraryRoot))
    }

    /// The package a file belongs to, if any.
    pub(crate) fn crate_of(&self, file: &SourceFile<'_>) -> Option<&'w CrateInfo> {
        file.krate.map(|k| &self.crates[k])
    }
}

/// One source file of the index, lexed and parsed once.
#[derive(Debug)]
pub(crate) struct SourceFile<'w> {
    /// Path relative to the workspace root (used in reports).
    pub(crate) path: &'w Path,
    /// How the file participates in the gate.
    pub(crate) class: FileClass,
    /// Index into the index's packages of the owning one, if any.
    pub(crate) krate: Option<usize>,
    /// The module path inside the crate (`src/pool.rs` → `["pool"]`,
    /// `src/lib.rs` → empty, `src/a/mod.rs` → `["a"]`).
    pub(crate) module: Vec<String>,
    /// The source text.
    pub(crate) source: &'w str,
    /// The lossless token stream.
    pub(crate) stream: TokenStream<'w>,
    /// The item tree.
    pub(crate) tree: ItemTree,
    test_lines: BTreeSet<usize>,
    allows: Vec<(usize, Rule)>,
}

impl<'w> SourceFile<'w> {
    /// Lexes and parses one source, as a file of class `class` that belongs
    /// to no crate.
    pub(crate) fn new(path: &'w Path, class: FileClass, source: &'w str) -> SourceFile<'w> {
        let stream = TokenStream::new(lex(source));
        let tree = parse_stream(&stream, source.len());
        let test_lines = test_lines(&stream);
        let allows = allow_sites(&stream);
        SourceFile {
            path,
            class,
            krate: None,
            module: Vec::new(),
            source,
            stream,
            tree,
            test_lines,
            allows,
        }
    }

    /// Whether `line` is test-only: inside an item or block under `cfg(P)`
    /// where `P` requires `test` — `P` is `test`, or an `all(…)` with a
    /// conjunct that requires it.
    pub(crate) fn is_test(&self, line: usize) -> bool {
        self.test_lines.contains(&line)
    }

    /// Whether a `// lint:allow(<rule>)` comment on `line` or the line
    /// above sanctions `rule` there.
    pub(crate) fn allowed(&self, rule: Rule, line: usize) -> bool {
        self.allows.iter().any(|&(l, r)| r == rule && (l == line || l + 1 == line))
    }

    /// The files that this file's test-only top-level `mod x;` declarations
    /// name (`x.rs` and `x/mod.rs` beside it, or under its own directory
    /// when it is not a `lib.rs`/`main.rs`/`mod.rs`).
    fn test_modules(&self) -> Vec<PathBuf> {
        let parent = self.path.parent().unwrap_or(Path::new(""));
        let stem = self.path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
        let base = if matches!(stem, "lib" | "main" | "mod") {
            parent.to_path_buf()
        } else {
            parent.join(stem)
        };
        let declared =
            self.tree.items.iter().filter(|item| {
                item.kind == ItemKind::Mod && item.body_code.is_none() && item.cfg_test
            });
        declared
            .flat_map(|item| {
                [base.join(format!("{}.rs", item.name)), base.join(&item.name).join("mod.rs")]
            })
            .collect()
    }
}

/// Derives a file's [`FileClass`] from its path under `src_dir`.
fn classify(file: &Path, src_dir: &Path) -> FileClass {
    let in_bin_dir = file.parent().and_then(Path::file_name).is_some_and(|n| n == "bin");
    if file == src_dir.join("lib.rs") {
        FileClass::LibraryRoot
    } else if file == src_dir.join("main.rs") || in_bin_dir {
        FileClass::BinaryRoot
    } else {
        FileClass::Library
    }
}

/// The module path of `file` under `src_dir`: its path components without
/// the `.rs` extension and without `lib`/`main`/`mod`.
fn module_path(file: &Path, src_dir: &Path) -> Vec<String> {
    let rel = file.strip_prefix(src_dir).unwrap_or(file);
    let segments = rel.components().map(|c| c.as_os_str().to_string_lossy());
    let segments = segments.map(|s| s.trim_end_matches(".rs").to_string());
    segments.filter(|s| !matches!(s.as_str(), "lib" | "main" | "mod")).collect()
}

/// The 1-based lines of every item or block under a test-only `cfg`
/// attribute: from the attribute to the close of the brace group it
/// attributes (or to the `;` that ends the item first).
fn test_lines(stream: &TokenStream<'_>) -> BTreeSet<usize> {
    let mut result = BTreeSet::new();
    let mut i = 0usize;
    while i < stream.code_len() {
        let Some(end_attr) = test_attr_end(stream, i) else {
            i += 1;
            continue;
        };
        let start_line = stream.code(i).map_or(1, |t| t.line);
        let mut depth = 0usize;
        let mut opened = false;
        let mut j = end_attr;
        while let Some(t) = stream.code(j) {
            match t.text {
                "{" if t.kind == TokenKind::Punct => {
                    depth += 1;
                    opened = true;
                }
                "}" if t.kind == TokenKind::Punct => {
                    depth = depth.saturating_sub(1);
                    if opened && depth == 0 {
                        break;
                    }
                }
                ";" if !opened => break,
                _ => {}
            }
            j += 1;
        }
        let end_line =
            stream.code(j.min(stream.code_len().saturating_sub(1))).map_or(start_line, |t| t.line);
        result.extend(start_line..=end_line);
        i = j + 1;
    }
    result
}

/// Collects `(line, rule)` pairs from `// lint:allow(rule, …)` comments
/// (line or block).
fn allow_sites(stream: &TokenStream<'_>) -> Vec<(usize, Rule)> {
    let mut allows = Vec::new();
    for token in stream.all() {
        if !matches!(token.kind, TokenKind::LineComment | TokenKind::BlockComment) {
            continue;
        }
        let Some(pos) = token.text.find("lint:allow(") else { continue };
        let rest = &token.text[pos + "lint:allow(".len()..];
        let Some(end) = rest.find(')') else { continue };
        for id in rest[..end].split(',') {
            if let Some(rule) = Rule::from_id(id.trim()) {
                allows.push((token.line, rule));
            }
        }
    }
    allows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch::{write, Scratch};

    /// `(path, class)` of every file the index holds for `root`.
    fn classes(root: &Path) -> Vec<(String, FileClass)> {
        let workspace = Workspace::read(root).expect("walk");
        let index = Index::new(&workspace);
        index.files.iter().map(|f| (f.path.to_string_lossy().into_owned(), f.class)).collect()
    }

    #[test]
    fn classifies_roots_bins_and_modules() {
        let root = Scratch::new();
        write(&root, "crates/alpha/src/lib.rs", "//! A.\n#![deny(missing_docs)]\n");
        write(&root, "crates/alpha/src/util.rs", "fn x() {}\n");
        write(&root, "crates/beta/src/main.rs", "fn main() {}\n");
        write(&root, "crates/beta/src/bin/extra.rs", "fn main() {}\n");
        write(&root, "src/lib.rs", "//! Root.\n#![deny(missing_docs)]\n");
        let files = classes(&root);
        let class_of = |suffix: &str| {
            files.iter().find(|(p, _)| p.ends_with(suffix)).map(|&(_, c)| c).expect("file found")
        };
        assert_eq!(class_of("alpha/src/lib.rs"), FileClass::LibraryRoot);
        assert_eq!(class_of("alpha/src/util.rs"), FileClass::Library);
        assert_eq!(class_of("beta/src/main.rs"), FileClass::BinaryRoot);
        assert_eq!(class_of("bin/extra.rs"), FileClass::BinaryRoot);
        assert_eq!(class_of("src/lib.rs"), FileClass::LibraryRoot);
    }

    #[test]
    fn file_level_test_modules_are_test_code() {
        let root = Scratch::new();
        write(
            &root,
            "crates/gamma/src/lib.rs",
            "//! G.\n#![deny(missing_docs)]\n#[cfg(test)]\nmod proptests;\n",
        );
        write(&root, "crates/gamma/src/proptests.rs", "fn helper() { Some(1).unwrap(); }\n");
        let files = classes(&root);
        let prop = files.iter().find(|(p, _)| p.ends_with("proptests.rs")).expect("listed");
        assert_eq!(prop.1, FileClass::TestCode);
    }

    #[test]
    fn skips_fixture_directories() {
        let root = Scratch::new();
        write(&root, "crates/delta/src/lib.rs", "//! D.\n#![deny(missing_docs)]\n");
        write(&root, "crates/delta/src/fixtures/bad.rs", "fn f() { panic!() }\n");
        assert!(classes(&root).iter().all(|(p, _)| !p.contains("fixtures")));
    }
}
