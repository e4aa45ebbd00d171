//! `seeker-lint` — the FriendSeeker workspace's custom static-analysis pass.
//!
//! The repository enforces repo-specific correctness rules that `rustc` and
//! Clippy cannot express (see `docs/LINTING.md`). Every pass reads one
//! workspace index ([`walk`]): one walk reads each manifest and in-scope
//! source, each file is lexed into a lossless token stream by a small
//! hand-rolled [`lexer`] and parsed into an item tree ([`syntax`]) once, in
//! parallel, and the [`callgraph`] is built at most once, when a pass first
//! asks for it. Every pass reports through one [`Finding`] type, printed
//! `file:line: [tag] message`.
//!
//! Test code is exempt from every pass under one rule: code is test-only
//! when it sits under `cfg(P)` and `P` requires `test` (`P` is `test`, or an
//! `all(…)` with a conjunct that requires it); `not(test)`, `any(test, …)`
//! and `cfg_attr(test, …)` guard production code.
//!
//! **Lexical rules** ([`rules`]), per source file:
//!
//! - [`no-panic`](rules::Rule::NoPanic): no `unwrap()`/`expect()`/`panic!`/
//!   `todo!`/`unimplemented!` in non-test library code;
//! - [`float-cast`](rules::Rule::FloatCast): no bare `as <integer>` casts in
//!   feature/metric code without an explicit rounding step;
//! - [`float-eq`](rules::Rule::FloatEq): no `==`/`!=` against float
//!   literals;
//! - [`undocumented-pub`](rules::Rule::UndocumentedPub): every public item
//!   in a crate-root `lib.rs` carries a doc comment;
//! - [`deny-header`](rules::Rule::DenyHeader): every crate root declares the
//!   mandatory `#![deny(...)]` lints;
//! - [`thread-spawn`](rules::Rule::ThreadSpawn): no raw `thread::spawn`/
//!   `thread::scope` in library code — parallelism goes through the
//!   `seeker-par` pool;
//! - [`no-print`](rules::Rule::NoPrint): no raw print macros in library
//!   code — output goes through the `seeker-obs` sinks;
//! - [`no-hash-iter`](rules::Rule::NoHashIter): no `HashMap`/`HashSet` in
//!   library code — hash iteration order is nondeterministic and silently
//!   breaks the refinement loop's reproducibility contracts;
//! - [`no-system-time`](rules::Rule::NoSystemTime): no `SystemTime`/
//!   `Instant::now` outside the observability layer and the bench harness;
//! - [`no-unseeded-rng`](rules::Rule::NoUnseededRng): no RNG construction
//!   without an explicit seed.
//!
//! Individual sites opt out with a `// lint:allow(<rule>)` comment on the
//! same or the preceding line; the comment doubles as in-tree documentation
//! of *why* the site is exempt.
//!
//! **Crate-layering enforcement** ([`layers`]): the workspace dependency DAG
//! is declared once ([`layers::LAYER_DAG`]) and validated against every
//! `Cargo.toml` `[dependencies]` table and every `use seeker_*` statement.
//!
//! **Semantic passes** over the [`callgraph`] — panic reachability
//! ([`panics`]), hot-path allocations ([`hotpath`]), lock order ([`locks`]) —
//! and over atomics ([`atomics`]) and `unsafe` ([`unsafe_audit`]).
//!
//! **Lockfiles** ([`lockfile`]): the public API ([`api_lock`]), the panic
//! set, the unsafe ledger, `docs/CONFIGURATION.md` ([`config_docs`]) and the
//! dead-`pub` report `results/DEADPUB.md` ([`deadpub`]) are checked-in files
//! that one engine checks (`--check-<lock>`) and regenerates
//! (`--bless-<lock>`).

#![deny(missing_docs)]

/// Public-API extraction for the `api/<crate>.api` snapshots.
pub mod api_lock;
/// The atomics-ordering audit.
pub mod atomics;
/// The workspace function call graph.
pub mod callgraph;
/// The generated `docs/CONFIGURATION.md`.
pub mod config_docs;
/// The dead-`pub` report, locked whole.
pub mod deadpub;
/// Hot-path allocation analysis (call-graph pass).
pub mod hotpath;
/// The crate-layering DAG and its validation pass.
pub mod layers;
/// The hand-rolled lossless Rust lexer.
pub mod lexer;
/// The lock engine: format, comparison rules, bless and check.
pub mod lockfile;
/// Lock-order and condvar-protocol analysis (call-graph pass).
pub mod locks;
/// Panic-reachability analysis (call-graph pass).
pub mod panics;
/// The rule matchers and per-file driver.
pub mod rules;
/// The item-tree parser over the lossless token stream.
pub mod syntax;
/// The token model the lexer produces.
pub mod tokens;
/// The unsafe ledger and its `SAFETY:`-comment check.
pub mod unsafe_audit;
/// The workspace index every pass reads.
pub mod walk;

/// Atomics-audit entry points.
pub use atomics::{atomic_sites, render_inventory, AtomicSite};
/// Call-graph core types.
pub use callgraph::{CallGraph, CallTarget};
/// Configuration-doc entry point.
pub use config_docs::render_config_doc;
/// Dead-`pub` report entry points.
pub use deadpub::{dead_pub_items, DeadPub};
/// Hot-path analysis entry points.
pub use hotpath::{hot_findings, HOT_PATHS};
/// Layering-pass entry points.
pub use layers::{check_layering, LAYER_DAG};
/// The lexer entry point.
pub use lexer::lex;
/// Lock-order analysis entry points.
pub use locks::{acquire_closure, lock_order, render_lock_graph, LockEdge, LockOrderReport};
/// Panic-reachability entry point.
pub use panics::panic_entries;
/// Core rule types and the rules-pass entry points.
pub use rules::{lint_source, lint_workspace, FileClass, Rule};
/// Item-tree parser entry points.
pub use syntax::{parse_stream, Item, ItemKind, ItemTree};
/// Token types.
pub use tokens::{Token, TokenKind, TokenStream};
/// Unsafe-ledger entry points.
pub use unsafe_audit::{unsafe_sites, UnsafeKind, UnsafeSite};
/// The workspace index.
pub use walk::{Index, Workspace};

use std::fmt;
use std::path::PathBuf;

/// One finding of any pass, printed as `file:line: [tag] message`, or
/// `file: [tag] message` when it concerns the whole file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The file, relative to the workspace root.
    pub file: PathBuf,
    /// 1-based line; 0 when the finding concerns the whole file.
    pub line: usize,
    /// The rule id, or the pass for findings no rule names (`layering`).
    pub tag: &'static str,
    /// What is wrong and how to fix it.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:", self.file.display())?;
        if self.line != 0 {
            write!(f, "{}:", self.line)?;
        }
        write!(f, " [{}] {}", self.tag, self.message)
    }
}

/// Scratch workspaces for the unit tests: each call gets a directory of its
/// own, removed when the returned guard drops.
#[cfg(test)]
pub(crate) mod scratch {
    use std::fs;
    use std::ops::Deref;
    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A fresh directory under the system temp dir, removed on drop.
    pub(crate) struct Scratch(PathBuf);

    impl Scratch {
        /// Creates a directory no other call in this process shares.
        pub(crate) fn new() -> Scratch {
            static NEXT: AtomicUsize = AtomicUsize::new(0);
            let n = NEXT.fetch_add(1, Ordering::Relaxed);
            let dir = std::env::temp_dir().join(format!("seeker-lint-{}-{n}", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            fs::create_dir_all(&dir).expect("scratch dir");
            Scratch(dir)
        }
    }

    impl Deref for Scratch {
        type Target = Path;
        fn deref(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    /// Writes `content` to `rel` under `root`, creating parent directories.
    pub(crate) fn write(root: &Path, rel: &str, content: &str) {
        let path = root.join(rel);
        fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        fs::write(path, content).expect("write");
    }

    /// The call graph of the workspace at `root`.
    pub(crate) fn graph(root: &Path) -> crate::CallGraph {
        let workspace = crate::Workspace::read(root).expect("walk");
        crate::Index::new(&workspace).graph().clone()
    }

    /// Checks `lock` against the workspace at `root`, as read now.
    pub(crate) fn check(
        lock: crate::lockfile::Lock,
        root: &Path,
    ) -> (Vec<crate::Finding>, Vec<crate::lockfile::Drift>) {
        let workspace = crate::Workspace::read(root).expect("walk");
        crate::lockfile::check(lock, &crate::Index::new(&workspace)).expect("check")
    }

    /// Blesses `lock` from the workspace at `root`, as read now.
    pub(crate) fn bless(lock: crate::lockfile::Lock, root: &Path) -> Vec<PathBuf> {
        let workspace = crate::Workspace::read(root).expect("walk");
        crate::lockfile::bless(lock, &crate::Index::new(&workspace)).expect("bless")
    }

    /// A workspace of one crate, `alpha`, whose `src/lib.rs` is `lib`.
    pub(crate) fn workspace(lib: &str) -> Scratch {
        let root = Scratch::new();
        write(&root, "Cargo.toml", "[workspace]\nmembers = [\"crates/*\"]\n");
        write(
            &root,
            "crates/alpha/Cargo.toml",
            "[package]\nname = \"alpha\"\nversion = \"0.0.0\"\n",
        );
        write(&root, "crates/alpha/src/lib.rs", lib);
        root
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::Path;

    #[test]
    fn lints_a_synthetic_workspace_end_to_end() {
        let root = scratch::Scratch::new();
        let write = |rel: &str, content: &str| {
            let path = root.join(rel);
            fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
            fs::write(path, content).expect("write");
        };
        write(
            "crates/good/src/lib.rs",
            "//! Good crate.\n#![deny(missing_docs)]\n\n/// Adds.\npub fn add(a: u32, b: u32) -> u32 { a + b }\n",
        );
        write(
            "crates/bad/src/lib.rs",
            "//! Bad crate.\n\npub fn boom(x: Option<u32>) -> u32 { x.unwrap() }\n",
        );
        let workspace = Workspace::read(&root).expect("walk");
        let violations = lint_workspace(&Index::new(&workspace));
        let ids: Vec<&str> = violations.iter().map(|v| v.tag).collect();
        assert_eq!(ids, vec!["deny-header", "no-panic", "undocumented-pub"]);
        assert!(violations.iter().all(|v| v.file.starts_with("crates/bad")));
    }

    fn real_workspace_root() -> &'static Path {
        // Walking up from this crate's manifest dir reaches the actual
        // workspace root.
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("workspace root")
    }

    #[test]
    fn the_real_workspace_is_clean() {
        // The crate's own CI gate, exercised as a unit test.
        let workspace = Workspace::read(real_workspace_root()).expect("walk");
        let violations = lint_workspace(&Index::new(&workspace));
        assert!(
            violations.is_empty(),
            "workspace has lint violations:\n{}",
            violations.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n")
        );
    }

    #[test]
    fn the_real_workspace_layering_is_clean() {
        let workspace = Workspace::read(real_workspace_root()).expect("walk");
        let violations = check_layering(&Index::new(&workspace));
        assert!(
            violations.is_empty(),
            "workspace has layering violations:\n{}",
            violations.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n")
        );
    }

    #[test]
    fn the_real_workspace_api_snapshots_are_current() {
        let (_, drifts) = scratch::check(lockfile::Lock::Api, real_workspace_root());
        assert!(
            drifts.is_empty(),
            "public-API snapshots drifted (run `cargo run -p seeker-lint -- --bless-api`):\n{}",
            drifts.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n")
        );
    }
}
