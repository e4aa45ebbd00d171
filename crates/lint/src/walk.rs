//! Workspace traversal: finds the `.rs` sources in scope for the lint pass
//! and classifies each one so [`crate::rules`] knows which rules apply.

use crate::rules::FileClass;

use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// A source file scheduled for linting.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Path relative to the workspace root (used in reports).
    pub path: PathBuf,
    /// How the file participates in the lint pass.
    pub class: FileClass,
}

/// One workspace package, as discovered from its manifest.
#[derive(Debug, Clone)]
pub struct CrateInfo {
    /// The package name from `[package] name = "…"` (e.g. `seeker-obs`).
    pub name: String,
    /// The crate directory relative to the workspace root (empty for the
    /// root package, `crates/<x>` for members).
    pub dir: PathBuf,
    /// The manifest path relative to the workspace root.
    pub manifest: PathBuf,
    /// The library target name as it appears in `use` paths (dashes
    /// replaced by underscores).
    pub lib_name: String,
}

/// Enumerates the workspace packages (the root package, if its manifest has
/// a `[package]` section, plus every `crates/*` member), sorted by
/// directory. Only packages with a `src/` tree are returned.
///
/// # Errors
///
/// Propagates I/O errors from directory traversal or manifest reads.
pub fn workspace_crates(root: &Path) -> io::Result<Vec<CrateInfo>> {
    // The empty path stands for the root package: joining it is a no-op, so
    // `dir.join("src")` is `src` and `dir.join("Cargo.toml")` is the root
    // manifest.
    let mut dirs = vec![PathBuf::new()];
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut entries: Vec<PathBuf> = fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        entries.sort();
        for entry in entries {
            let rel = entry.strip_prefix(root).unwrap_or(&entry).to_path_buf();
            dirs.push(rel);
        }
    }
    let mut crates = Vec::new();
    for dir in dirs {
        let manifest_path = root.join(&dir).join("Cargo.toml");
        if !manifest_path.is_file() || !root.join(&dir).join("src").is_dir() {
            continue;
        }
        let manifest = fs::read_to_string(&manifest_path)?;
        let Some(name) = package_name(&manifest) else { continue };
        let lib_name = name.replace('-', "_");
        crates.push(CrateInfo { name, manifest: dir.join("Cargo.toml"), dir, lib_name });
    }
    Ok(crates)
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

/// Walks the workspace rooted at `root` and returns every `.rs` file in
/// scope, classified. Scope: `src/` and `crates/*/src/`. Vendored stand-in
/// crates (`vendor/`), build output (`target/`), integration `tests/`,
/// `benches/`, `examples/`, and lint test fixtures are all excluded — they
/// are either third-party, test-only, or generated.
///
/// # Errors
///
/// Propagates I/O errors from directory traversal or file reads.
pub fn workspace_sources(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut src_dirs = vec![root.join("src")];
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut entries: Vec<PathBuf> =
            fs::read_dir(&crates_dir)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
        entries.sort();
        for entry in entries {
            let src = entry.join("src");
            if src.is_dir() {
                src_dirs.push(src);
            }
        }
    }

    let mut files = Vec::new();
    for dir in src_dirs {
        if !dir.is_dir() {
            continue;
        }
        let mut rs_files = Vec::new();
        collect_rs_files(&dir, &mut rs_files)?;
        rs_files.sort();
        let test_modules = file_level_test_modules(&rs_files)?;
        for file in rs_files {
            let rel = file.strip_prefix(root).unwrap_or(&file).to_path_buf();
            let class = classify(&file, &dir, &test_modules);
            files.push(SourceFile { path: rel, class });
        }
    }
    Ok(files)
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

/// Finds files pulled in as file-level `#[cfg(test)]` modules, e.g. a
/// `mod proptests;` declaration directly under a `#[cfg(test)]` attribute:
/// those whole files are test code.
fn file_level_test_modules(rs_files: &[PathBuf]) -> io::Result<BTreeSet<PathBuf>> {
    let mut test_files = BTreeSet::new();
    for file in rs_files {
        let source = fs::read_to_string(file)?;
        let lines: Vec<&str> = source.lines().collect();
        for (idx, line) in lines.iter().enumerate() {
            let t = line.trim();
            if !(t.starts_with("#[cfg(") && t.contains("test")) {
                continue;
            }
            // Attribute may be followed by more attributes before the item.
            let mut j = idx + 1;
            while j < lines.len() && lines[j].trim_start().starts_with("#[") {
                j += 1;
            }
            let Some(item) = lines.get(j).map(|l| l.trim()) else { continue };
            let Some(rest) = item.strip_prefix("mod ").or_else(|| item.strip_prefix("pub mod "))
            else {
                continue;
            };
            let Some(mod_name) = rest.strip_suffix(';') else { continue };
            let mod_name = mod_name.trim();
            let parent = file.parent().unwrap_or(Path::new(""));
            let base = file_module_base(file, parent);
            for candidate in
                [base.join(format!("{mod_name}.rs")), base.join(mod_name).join("mod.rs")]
            {
                if candidate.is_file() {
                    test_files.insert(candidate);
                }
            }
        }
    }
    Ok(test_files)
}

/// The directory in which a file's submodules live (`src/` for `lib.rs` and
/// `main.rs`, `src/foo/` for `src/foo.rs` or `src/foo/mod.rs`).
fn file_module_base(file: &Path, parent: &Path) -> PathBuf {
    let stem = file.file_stem().and_then(|s| s.to_str()).unwrap_or("");
    if matches!(stem, "lib" | "main" | "mod") {
        parent.to_path_buf()
    } else {
        parent.join(stem)
    }
}

/// Derives a file's [`FileClass`] from its path.
fn classify(file: &Path, src_dir: &Path, test_modules: &BTreeSet<PathBuf>) -> FileClass {
    if test_modules.contains(file) {
        return FileClass::TestCode;
    }
    let name = file.file_name().and_then(|n| n.to_str()).unwrap_or("");
    let in_bin_dir = file
        .parent()
        .and_then(|p| p.file_name())
        .and_then(|n| n.to_str())
        .is_some_and(|n| n == "bin");
    if file == src_dir.join("lib.rs") {
        FileClass::LibraryRoot
    } else if name == "main.rs" && file.parent() == Some(src_dir) {
        FileClass::BinaryRoot
    } else if in_bin_dir {
        FileClass::BinaryRoot
    } else {
        FileClass::Library
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch::{write, Scratch};

    #[test]
    fn classifies_roots_bins_and_modules() {
        let root = Scratch::new();
        write(&root, "crates/alpha/src/lib.rs", "//! A.\n#![deny(missing_docs)]\n");
        write(&root, "crates/alpha/src/util.rs", "fn x() {}\n");
        write(&root, "crates/beta/src/main.rs", "fn main() {}\n");
        write(&root, "crates/beta/src/bin/extra.rs", "fn main() {}\n");
        write(&root, "src/lib.rs", "//! Root.\n#![deny(missing_docs)]\n");
        let files = workspace_sources(&root).expect("walk");
        let class_of = |suffix: &str| {
            files
                .iter()
                .find(|f| f.path.to_string_lossy().ends_with(suffix))
                .map(|f| f.class)
                .expect("file found")
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
        let files = workspace_sources(&root).expect("walk");
        let prop = files
            .iter()
            .find(|f| f.path.to_string_lossy().ends_with("proptests.rs"))
            .expect("proptests listed");
        assert_eq!(prop.class, FileClass::TestCode);
    }

    #[test]
    fn skips_fixture_directories() {
        let root = Scratch::new();
        write(&root, "crates/delta/src/lib.rs", "//! D.\n#![deny(missing_docs)]\n");
        write(&root, "crates/delta/src/fixtures/bad.rs", "fn f() { panic!() }\n");
        let files = workspace_sources(&root).expect("walk");
        assert!(files.iter().all(|f| !f.path.to_string_lossy().contains("fixtures")));
    }
}
