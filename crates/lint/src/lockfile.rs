//! The lock engine: the one place that knows the lockfile format and the
//! bless/check lifecycle of the gate's five locks.
//!
//! A lock file is `#` header lines, then one row per line; a row's key is its
//! text before the first tab. A pass renders the files its lock should hold,
//! each new row with the witness a human needs. [`check`](crate::lockfile::check)
//! compares them with the files on disk under the lock's rule: exact locks
//! report added, removed and changed rows, the document any difference. A missing file is drift, and so is a file of
//! a multi-file lock that nothing renders any more, which
//! [`bless`](crate::lockfile::bless) deletes as it writes the rendering.

use crate::walk::Index;
use crate::{api_lock, config_docs, deadpub, panics, unsafe_audit, Finding};

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One bless/check lock of the gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lock {
    /// The public-API snapshots.
    Api,
    /// The panic-reachability lock.
    Panics,
    /// The unsafe ledger.
    Unsafe,
    /// The generated configuration doc.
    Config,
    /// The dead-`pub` report.
    DeadPub,
}

/// How a lock's files are compared with their rendering: row by row (a
/// changed row names the differing fields after its key), or as one whole
/// document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rule {
    Exact(&'static [&'static str]),
    Document,
}

impl Lock {
    /// The lock `--check-<name>` and `--bless-<name>` name.
    #[must_use]
    pub fn named(name: &str) -> Option<Lock> {
        let all = [Lock::Api, Lock::Panics, Lock::Unsafe, Lock::Config, Lock::DeadPub];
        all.into_iter().find(|lock| lock.spec().0 == name)
    }

    /// The flag name, the drift tag, the file (`dir/*.ext` for one file per
    /// crate), what a row pins, and the comparison rule.
    fn spec(self) -> (&'static str, &'static str, &'static str, &'static str, Rule) {
        use Rule::{Document, Exact};
        let fields = &["kind", "body hash", "obligation"];
        match self {
            Lock::Api => ("api", "[api-lock]", "api/*.api", "public item", Exact(&[])),
            Lock::Panics => {
                ("panics", "[panic-reach]", "api/panics.lock", "panic path", Exact(&[]))
            }
            Lock::Unsafe => {
                ("unsafe", "[unsafe-ledger]", "api/unsafe.lock", "unsafe site", Exact(fields))
            }
            Lock::Config => ("config", "[config-doc]", "docs/CONFIGURATION.md", "line", Document),
            Lock::DeadPub => ("deadpub", "[deadpub-lock]", "results/DEADPUB.md", "line", Document),
        }
    }

    /// The path of the file `stem` names, relative to the workspace root.
    fn path(self, stem: &str) -> PathBuf {
        PathBuf::from(self.spec().2.replace('*', stem))
    }

    /// Renders the files the workspace should have.
    fn rendering(self, index: &Index<'_>) -> io::Result<Rendered> {
        Ok(match self {
            Lock::Api => api_lock::render_lock(index),
            Lock::Panics => panics::render_lock(index),
            Lock::Unsafe => unsafe_audit::render_lock(index),
            Lock::Config => config_docs::render_lock(),
            Lock::DeadPub => deadpub::render_lock(index)?,
        })
    }
}

/// A pass's rendering: its lock's files, and the findings its analysis made
/// on the way (the unsafe ledger's missing `SAFETY:` comments), which
/// [`check`] reports beside the drift.
pub(crate) struct Rendered {
    pub(crate) files: Vec<LockFile>,
    pub(crate) findings: Vec<Finding>,
}

/// One rendered file: the stem that replaces the `*` of a multi-file lock's
/// path, the header prose, and the rows, each with its witness.
pub(crate) struct LockFile {
    pub(crate) stem: String,
    pub(crate) header: String,
    pub(crate) rows: Vec<(String, Option<String>)>,
}

impl Rendered {
    /// The rendering of a one-file lock.
    pub(crate) fn one(header: &str, rows: impl Iterator<Item = (String, Option<String>)>) -> Self {
        let file =
            LockFile { stem: String::new(), header: header.to_string(), rows: rows.collect() };
        Rendered { files: vec![file], findings: Vec::new() }
    }
}

impl LockFile {
    /// The file's text, as bless writes it.
    fn text(&self) -> String {
        let header = self.header.lines().map(|line| format!("# {line}\n"));
        header.chain(self.rows.iter().map(|(row, _)| format!("{row}\n"))).collect()
    }
}

/// One difference between a lock's files and their rendering.
#[derive(Debug, Clone)]
pub struct Drift {
    pub(crate) lock: Lock,
    /// The lock file, relative to the workspace root.
    pub(crate) path: PathBuf,
    /// The row's key; the file's path for a whole-file drift.
    pub(crate) key: String,
    pub(crate) kind: DriftKind,
}

/// What kind of difference a [`Drift`] is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum DriftKind {
    /// The lock file does not exist.
    Missing,
    /// A rendered row the lock lacks, with its witness.
    Added(Option<String>),
    /// A locked row, or a whole file of a multi-file lock, that nothing
    /// renders any more.
    Removed,
    /// A row (or a document) whose locked text differs: what differs.
    Changed(String),
}

impl fmt::Display for Drift {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Drift { lock, path, key, kind } = self;
        let (name, tag, _, row, _) = lock.spec();
        write!(f, "{}: {tag} ", path.display())?;
        match kind {
            DriftKind::Missing => write!(f, "missing snapshot ({key} missing)")?,
            DriftKind::Added(None) => write!(f, "new {row}: {key}")?,
            DriftKind::Added(Some(witness)) => write!(f, "new {row}: {key} ({witness})")?,
            DriftKind::Removed => write!(f, "stale lock entry: {key}")?,
            DriftKind::Changed(what) => write!(f, "{key} drifted ({what})")?,
        }
        write!(f, " — review, then `cargo run -p seeker-lint -- --bless-{name}`")
    }
}

/// Compares `lock`'s files with what the indexed workspace renders.
/// Returns the findings the rendering made and the drift; both empty means
/// the lock holds.
///
/// # Errors
///
/// Propagates I/O errors from the analysis and from reading the lock,
/// except a missing file, which is drift.
pub fn check(lock: Lock, index: &Index<'_>) -> io::Result<(Vec<Finding>, Vec<Drift>)> {
    let (.., rule) = lock.spec();
    let root = index.root;
    let rendered = lock.rendering(index)?;
    let mut drift = Vec::new();
    let mut push = |path: &Path, key: Option<&str>, kind| {
        let key = key.map_or_else(|| path.display().to_string(), str::to_string);
        drift.push(Drift { lock, path: path.to_path_buf(), key, kind });
    };
    for file in &rendered.files {
        let (path, text) = (lock.path(&file.stem), file.text());
        let locked = match fs::read_to_string(root.join(&path)) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                push(&path, None, DriftKind::Missing);
                continue;
            }
            locked => locked?,
        };
        if rule == Rule::Document {
            if locked != text {
                push(&path, None, DriftKind::Changed("stale against its generator".to_string()));
            }
            continue;
        }
        let (now, then) = (rows(&text), rows(&locked));
        for (key, row) in &now {
            let kind = match (rule, then.get(key)) {
                (_, None) => {
                    let witness = file.rows.iter().find(|(row, _)| key_of(row) == *key);
                    Some(DriftKind::Added(witness.and_then(|(_, w)| w.clone())))
                }
                (Rule::Exact(fields), Some(old)) if old != row => {
                    Some(DriftKind::Changed(changed_fields(fields, old, row)))
                }
                _ => None,
            };
            if let Some(kind) = kind {
                push(&path, Some(key), kind);
            }
        }
        for key in then.keys().filter(|key| !now.contains_key(*key)) {
            push(&path, Some(key), DriftKind::Removed);
        }
    }
    for path in orphans(lock, root, &rendered)? {
        push(&path, None, DriftKind::Removed);
    }
    Ok((rendered.findings, drift))
}

/// Writes `lock`'s files from what the indexed workspace renders and
/// deletes the files of a multi-file lock that nothing renders any more.
/// Returns the written paths, relative to the workspace root.
///
/// # Errors
///
/// Propagates I/O errors from the analysis, the writes and the deletions.
pub fn bless(lock: Lock, index: &Index<'_>) -> io::Result<Vec<PathBuf>> {
    let root = index.root;
    let rendered = lock.rendering(index)?;
    for orphan in orphans(lock, root, &rendered)? {
        fs::remove_file(root.join(orphan))?;
    }
    let mut written = Vec::new();
    for file in &rendered.files {
        let path = lock.path(&file.stem);
        if let Some(parent) = root.join(&path).parent() {
            fs::create_dir_all(parent)?;
        }
        fs::write(root.join(&path), file.text())?;
        written.push(path);
    }
    Ok(written)
}

/// A lock text's rows by key: the lines that are neither empty nor `#`
/// header lines, trailing whitespace trimmed.
fn rows(text: &str) -> BTreeMap<&str, &str> {
    let rows =
        text.lines().map(str::trim_end).filter(|row| !row.is_empty() && !row.starts_with('#'));
    rows.map(|row| (key_of(row), row)).collect()
}

/// A row's key: its text before the first tab.
fn key_of(row: &str) -> &str {
    row.split('\t').next().unwrap_or(row)
}

/// The names of the fields that differ between two rows with one key.
fn changed_fields(columns: &[&str], old: &str, new: &str) -> String {
    let (old, new): (Vec<&str>, Vec<&str>) = (old.split('\t').collect(), new.split('\t').collect());
    let differs = |i: &usize| old.get(i + 1) != new.get(i + 1);
    let changed: Vec<&str> = (0..columns.len()).filter(differs).map(|i| columns[i]).collect();
    changed.join(", ")
}

/// The files of a multi-file lock that the rendering does not produce,
/// sorted; none for a one-file lock.
fn orphans(lock: Lock, root: &Path, rendered: &Rendered) -> io::Result<Vec<PathBuf>> {
    let Some((dir, suffix)) = lock.spec().2.split_once("/*") else { return Ok(Vec::new()) };
    let entries = match fs::read_dir(root.join(dir)) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        entries => entries?,
    };
    let mut out = Vec::new();
    for entry in entries {
        let name = entry?.file_name().to_string_lossy().into_owned();
        let stem = name.strip_suffix(suffix);
        if stem.is_some_and(|stem| rendered.files.iter().all(|file| file.stem != stem)) {
            out.push(Path::new(dir).join(name));
        }
    }
    out.sort();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch::{bless, check, workspace, write};
    use crate::walk::Workspace;

    const LIB: &str = "//! A.\n\n/// One.\npub fn one() -> u32 { 1 }\n";

    #[test]
    fn an_orphaned_snapshot_is_removed_drift_and_bless_deletes_it() {
        let root = workspace(LIB);
        let api = Lock::Api;
        assert_eq!(bless(api, &root), vec![PathBuf::from("api/alpha.api")]);
        assert!(check(api, &root).1.is_empty());
        write(
            &root,
            "api/ghost.api",
            "# Public-API snapshot of `ghost`.\nsrc/lib.rs: pub fn boo()\n",
        );
        let (_, drift) = check(api, &root);
        assert!(
            matches!(
                drift.as_slice(),
                [Drift { kind: DriftKind::Removed, key, path, .. }]
                    if key == "api/ghost.api" && path == Path::new("api/ghost.api")
            ),
            "{drift:?}"
        );
        bless(api, &root);
        assert!(!root.join("api/ghost.api").exists());
        assert!(root.join("api/alpha.api").is_file());
        assert!(check(api, &root).1.is_empty());
    }

    /// The report is the lock: one that lists a candidate the tree no
    /// longer has, or misses one the tree has, is drift.
    #[test]
    fn a_deadpub_count_below_its_lock_is_drift() {
        let dead = "//! A.\n\n/// Dead.\npub fn corpse() {}\n";
        let both = format!("{dead}\n/// Dead too.\npub fn corpse2() {{}}\n");
        let report_drift = |root: &Path| {
            let (_, drift) = check(Lock::DeadPub, root);
            matches!(
                drift.as_slice(),
                [Drift { kind: DriftKind::Changed(_), key, .. }] if key == "results/DEADPUB.md"
            )
        };
        let root = workspace(&both);
        bless(Lock::DeadPub, &root);
        write(&root, "crates/alpha/src/lib.rs", dead);
        assert!(report_drift(&root), "a report listing a gone candidate");
        bless(Lock::DeadPub, &root);
        assert!(check(Lock::DeadPub, &root).1.is_empty());
        write(&root, "crates/alpha/src/lib.rs", &both);
        assert!(report_drift(&root), "a report missing a candidate");
        bless(Lock::DeadPub, &root);
        assert!(check(Lock::DeadPub, &root).1.is_empty());
    }

    #[test]
    fn an_unreadable_lock_is_an_error_not_drift() {
        let root = workspace(LIB);
        fs::create_dir_all(root.join("docs/CONFIGURATION.md")).expect("mkdir");
        let workspace = Workspace::read(&root).expect("walk");
        assert!(super::check(Lock::Config, &Index::new(&workspace)).is_err());
    }

    #[test]
    fn every_drift_line_names_its_file_tag_key_and_bless_command() {
        let kinds = [
            DriftKind::Missing,
            DriftKind::Added(None),
            DriftKind::Added(Some("a → b: panic! at x.rs:1".to_string())),
            DriftKind::Removed,
            DriftKind::Changed("body hash".to_string()),
        ];
        for lock in [Lock::Api, Lock::Panics, Lock::Unsafe, Lock::Config, Lock::DeadPub] {
            let (name, tag, ..) = lock.spec();
            for kind in &kinds {
                let drift = Drift {
                    lock,
                    path: PathBuf::from("api/x.lock"),
                    key: "k#0".into(),
                    kind: kind.clone(),
                };
                let line = drift.to_string();
                assert!(line.starts_with(&format!("api/x.lock: {tag} ")), "{line}");
                assert!(line.contains("k#0"), "{line}");
                assert!(line.ends_with(&format!("--bless-{name}`")), "{line}");
            }
        }
    }
}
