//! Integration tests for the semantic passes as CI gates: the compiled
//! binary's bless→drift lifecycle for the panic, unsafe, configuration-doc
//! and dead-`pub` locks, the `--hotpath` allocation gate, the `unused-dep`
//! layering rule, and cross-crate call resolution with pinned `Resolved` vs
//! `Ambiguous` edges.

use seeker_lint::{CallTarget, Index, Workspace};

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Builds a throwaway workspace from `(relative path, content)` pairs,
/// returning its root. A workspace manifest is always written.
fn workspace(tag: &str, files: &[(&str, &str)]) -> PathBuf {
    let root = std::env::temp_dir().join(format!("seeker-lint-sem-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    write(&root, "Cargo.toml", "[workspace]\nmembers = [\"crates/*\"]\n");
    for (rel, content) in files {
        write(&root, rel, content);
    }
    root
}

fn write(root: &Path, rel: &str, content: &str) {
    let path = root.join(rel);
    fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
    fs::write(path, content).expect("write fixture");
}

fn package(name: &str) -> String {
    format!("[package]\nname = \"{name}\"\nversion = \"0.0.0\"\n")
}

fn run(args: &[&str], root: &Path) -> (bool, String, String) {
    let bin = env!("CARGO_BIN_EXE_seeker-lint");
    let out = Command::new(bin).args(args).arg(root).output().expect("run seeker-lint");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn panics_lock_blesses_then_detects_added_and_stale_drift() {
    let root = workspace(
        "panics",
        &[
            ("crates/app/Cargo.toml", &package("app")),
            (
                "crates/app/src/lib.rs",
                "//! A.\n\nfn inner(x: Option<u32>) -> u32 { x.unwrap() }\n\n/// E.\npub fn entry(x: Option<u32>) -> u32 { inner(x) }\n\n/// Safe.\npub fn safe() -> u32 { 7 }\n",
            ),
        ],
    );

    // No lock yet: the gate must fail loudly, not pass vacuously.
    let (ok, stdout, _) = run(&["--check-panics"], &root);
    assert!(!ok, "expected failure before blessing");
    assert!(stdout.contains("panics.lock missing"), "stdout: {stdout}");

    // Bless: the transitive panic path is pinned, the check goes green.
    let (ok, _, stderr) = run(&["--bless-panics"], &root);
    assert!(ok, "bless failed: {stderr}");
    let lock = fs::read_to_string(root.join("api/panics.lock")).expect("read lock");
    assert!(lock.contains("app::entry"), "lock must pin the transitive path: {lock}");
    assert!(!lock.contains("app::safe"), "non-panicking fn must stay out: {lock}");
    let (ok, stdout, _) = run(&["--check-panics"], &root);
    assert!(ok, "expected clean check after blessing:\n{stdout}");

    // A new panic path without re-blessing is drift.
    let lib = root.join("crates/app/src/lib.rs");
    let mut source = fs::read_to_string(&lib).expect("read lib");
    source.push_str("\n/// F.\npub fn fresh(v: &[u32]) -> u32 { v[0] }\n");
    fs::write(&lib, &source).expect("write lib");
    let (ok, stdout, _) = run(&["--check-panics"], &root);
    assert!(!ok, "expected drift after adding a panic path");
    assert!(stdout.contains("new panic path: app::fresh"), "stdout: {stdout}");

    // Re-bless, then FIX the original panic: the stale entry is drift too —
    // the lock must shrink along with the panic set, not accrete.
    let (ok, _, stderr) = run(&["--bless-panics"], &root);
    assert!(ok, "re-bless failed: {stderr}");
    let fixed = source.replace("x.unwrap()", "x.unwrap_or(0)");
    fs::write(&lib, fixed).expect("write lib");
    let (ok, stdout, _) = run(&["--check-panics"], &root);
    assert!(!ok, "expected drift after fixing a blessed panic");
    assert!(stdout.contains("stale lock entry"), "stdout: {stdout}");
    assert!(stdout.contains("app::entry"), "stdout: {stdout}");

    let _ = fs::remove_dir_all(&root);
}

#[test]
fn hotpath_gate_flags_loop_allocations_and_honors_sanctions() {
    // `path_count_profile` matches the HOT_PATHS table by suffix, so the
    // allocation inside the helper it calls must be flagged transitively.
    let dirty = workspace(
        "hot-dirty",
        &[
            ("crates/hot/Cargo.toml", &package("hot")),
            (
                "crates/hot/src/lib.rs",
                "//! H.\n\nfn helper(v: &[u32]) -> Vec<String> {\n    let mut out = Vec::new();\n    for x in v {\n        out.push(format!(\"{x}\"));\n    }\n    out\n}\n\n/// Hot root.\npub fn path_count_profile(v: &[u32]) -> Vec<String> { helper(v) }\n",
            ),
        ],
    );
    let (ok, stdout, _) = run(&["--hotpath"], &dirty);
    assert!(!ok, "expected hotpath failure:\n{stdout}");
    assert!(stdout.contains("[hot-alloc]"), "stdout: {stdout}");
    assert!(stdout.contains("format!"), "stdout: {stdout}");
    assert!(stdout.contains("hot via hot::path_count_profile"), "stdout: {stdout}");
    let _ = fs::remove_dir_all(&dirty);

    // The same allocation under a sanction comment — and any allocation in
    // a cold function — must pass.
    let clean = workspace(
        "hot-clean",
        &[
            ("crates/hot/Cargo.toml", &package("hot")),
            (
                "crates/hot/src/lib.rs",
                "//! H.\n\n/// Cold: allocates freely.\npub fn cold(v: &[u32]) -> Vec<String> {\n    let mut out = Vec::new();\n    for x in v {\n        out.push(format!(\"{x}\"));\n    }\n    out\n}\n\n/// Hot root, sanctioned.\npub fn path_count_profile(v: &[u32]) -> Vec<String> {\n    let mut out = Vec::new();\n    for x in v {\n        // Bounded by the profile width. lint:allow(hot-alloc)\n        out.push(format!(\"{x}\"));\n    }\n    out\n}\n",
            ),
        ],
    );
    let (ok, stdout, _) = run(&["--hotpath"], &clean);
    assert!(ok, "expected clean hotpath:\n{stdout}");
    let _ = fs::remove_dir_all(&clean);
}

#[test]
fn unused_dependency_is_flagged_in_layering_and_allowed_by_comment() {
    let helper_files: [(&str, &str); 2] = [
        ("crates/helper/Cargo.toml", &package("helper-lib")),
        ("crates/helper/src/lib.rs", "//! Helper.\n\n/// Id.\npub fn id(x: u32) -> u32 { x }\n"),
    ];

    // Declared but never mentioned: flagged.
    let mut files = helper_files.to_vec();
    let consumer_manifest = format!(
        "{}\n[dependencies]\nhelper-lib = {{ path = \"../helper\" }}\n",
        package("consumer")
    );
    files.push(("crates/consumer/Cargo.toml", &consumer_manifest));
    files.push(("crates/consumer/src/lib.rs", "//! C.\n\n/// One.\npub fn one() -> u32 { 1 }\n"));
    let root = workspace("unused-dep", &files);
    let (ok, stdout, _) = run(&["--layering"], &root);
    assert!(!ok, "expected layering failure");
    assert!(stdout.contains("[unused-dep]"), "stdout: {stdout}");
    assert!(stdout.contains("`helper-lib`"), "stdout: {stdout}");
    let _ = fs::remove_dir_all(&root);

    // Actually used: silent.
    let mut files = helper_files.to_vec();
    files.push(("crates/consumer/Cargo.toml", &consumer_manifest));
    files.push((
        "crates/consumer/src/lib.rs",
        "//! C.\n\n/// One.\npub fn one() -> u32 { helper_lib::id(1) }\n",
    ));
    let root = workspace("used-dep", &files);
    let (_, stdout, _) = run(&["--layering"], &root);
    assert!(!stdout.contains("[unused-dep]"), "stdout: {stdout}");
    let _ = fs::remove_dir_all(&root);

    // Declared, unused, but sanctioned on the manifest line above: silent.
    let mut files = helper_files.to_vec();
    let sanctioned = format!(
        "{}\n[dependencies]\n# Wired in the next milestone. # lint:allow(unused-dep)\nhelper-lib = {{ path = \"../helper\" }}\n",
        package("consumer")
    );
    files.push(("crates/consumer/Cargo.toml", &sanctioned));
    files.push(("crates/consumer/src/lib.rs", "//! C.\n\n/// One.\npub fn one() -> u32 { 1 }\n"));
    let root = workspace("allowed-dep", &files);
    let (_, stdout, _) = run(&["--layering"], &root);
    assert!(!stdout.contains("[unused-dep]"), "stdout: {stdout}");
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn cross_crate_calls_pin_resolved_and_ambiguous_edges() {
    // Two crates: `base` defines a free fn, an associated fn, and two types
    // sharing a method name; `front` calls across the crate boundary via a
    // use-alias, a Type::fn path, and an unqualified method.
    let root = workspace(
        "xcrate",
        &[
            ("crates/base/Cargo.toml", &package("base")),
            (
                "crates/base/src/lib.rs",
                "//! B.\n\n/// Free.\npub fn free_helper(x: u32) -> u32 { x }\n\n/// S.\npub struct S;\nimpl S {\n    /// New.\n    pub fn make() -> S { S }\n    /// Shared name.\n    pub fn poll(&self) -> u32 { 1 }\n}\n\n/// T.\npub struct T;\nimpl T {\n    /// Shared name.\n    pub fn poll(&self) -> u32 { 2 }\n}\n",
            ),
            ("crates/front/Cargo.toml", &package("front")),
            (
                "crates/front/src/lib.rs",
                "//! F.\nuse base::free_helper as fh;\nuse base::S;\n\n/// Aliased cross-crate free call.\npub fn a(x: u32) -> u32 { fh(x) }\n\n/// Type::fn cross-crate call.\npub fn b() -> S { S::make() }\n\n/// Method call with two candidate impls.\npub fn c(s: &S) -> u32 { s.poll() }\n",
            ),
        ],
    );
    let workspace = Workspace::read(&root).expect("walk");
    let index = Index::new(&workspace);
    let graph = index.graph();

    let idx = |id: &str| graph.find(id).unwrap_or_else(|| panic!("missing node {id}"));
    let target_of = |caller: &str| {
        let node = &graph.nodes[idx(caller)];
        assert_eq!(node.calls.len(), 1, "expected one edge from {caller}: {:?}", node.calls);
        node.calls[0].target.clone()
    };

    // The use-alias and the Type::fn path each resolve to exactly one node.
    assert_eq!(target_of("front::a"), CallTarget::Resolved(idx("base::free_helper")));
    assert_eq!(target_of("front::b"), CallTarget::Resolved(idx("base::S::make")));

    // `.poll()` matches impls on both S and T: the resolver must keep both
    // candidates (conservative over-approximation), never drop the edge.
    match target_of("front::c") {
        CallTarget::Ambiguous(mut hits) => {
            hits.sort_unstable();
            let mut expected = vec![idx("base::S::poll"), idx("base::T::poll")];
            expected.sort_unstable();
            assert_eq!(hits, expected);
        }
        other => panic!("expected Ambiguous, got {other:?}"),
    }

    let _ = fs::remove_dir_all(&root);
}

/// Runs the binary and returns its exit code and stdout.
fn run_code(args: &[&str], root: &Path) -> (Option<i32>, String) {
    let bin = env!("CARGO_BIN_EXE_seeker-lint");
    let out = Command::new(bin).args(args).arg(root).output().expect("run seeker-lint");
    (out.status.code(), String::from_utf8_lossy(&out.stdout).into_owned())
}

/// Replaces `from` (which must occur) with `to` in the file `rel` under `root`.
fn replace_in(root: &Path, rel: &str, from: &str, to: &str) {
    let path = root.join(rel);
    let text = fs::read_to_string(&path).expect("read");
    assert!(text.contains(from), "{rel} lacks {from:?}");
    fs::write(&path, text.replace(from, to)).expect("write");
}

#[test]
fn unsafe_config_and_deadpub_locks_bless_then_detect_drift() {
    const PEEK: &str = "//! A.\n\n/// Reads one byte.\npub fn peek(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees p is valid for reads.\n    unsafe { *p }\n}\n";
    const DEAD: &str = "//! A.\n\n/// Nothing mentions this.\npub fn corpse() {}\n";
    const LIB: &str = "crates/alpha/src/lib.rs";
    type Edit = fn(&Path);
    // (lock, tag, lib.rs of crate `alpha`, plant drift, then drop the
    // original item so the planted one stands in for it, without re-bless)
    let cases: [(&str, &str, &str, Edit, Option<Edit>); 3] = [
        (
            "unsafe",
            "[unsafe-ledger]",
            PEEK,
            |root| replace_in(root, LIB, "*p }", "*p.add(1) }"),
            None,
        ),
        (
            "config",
            "[config-doc]",
            PEEK,
            |root| replace_in(root, "docs/CONFIGURATION.md", "SEEKER_THREADS", "SEEKER_TREADS"),
            None,
        ),
        (
            "deadpub",
            "[deadpub-lock]",
            DEAD,
            |root| replace_in(root, LIB, "{}\n", "{}\n\n/// Also dead.\npub fn corpse2() {}\n"),
            Some(|root| replace_in(root, LIB, "pub fn corpse() {}", "")),
        ),
    ];
    for (lock, tag, lib, plant, swap) in cases {
        let root = workspace(
            &format!("lock-{lock}"),
            &[("crates/alpha/Cargo.toml", &package("alpha")), (LIB, lib)],
        );
        let check = format!("--check-{lock}");
        let (code, stdout) = run_code(&[&check], &root);
        assert_eq!(code, Some(1), "{check} before blessing:\n{stdout}");
        assert!(stdout.contains(tag), "{check} stdout lacks {tag}:\n{stdout}");

        let (code, stdout) = run_code(&[&format!("--bless-{lock}")], &root);
        assert_eq!(code, Some(0), "--bless-{lock}:\n{stdout}");
        let (code, stdout) = run_code(&[&check], &root);
        assert_eq!(code, Some(0), "{check} after blessing:\n{stdout}");

        plant(&root);
        let (code, stdout) = run_code(&[&check], &root);
        assert_eq!(code, Some(1), "{check} after planting drift:\n{stdout}");
        assert!(stdout.contains(tag), "{check} stdout lacks {tag}:\n{stdout}");

        if let Some(swap) = swap {
            // One candidate for another: the count holds, the report drifts.
            swap(&root);
            let (code, stdout) = run_code(&[&check], &root);
            assert_eq!(code, Some(1), "{check} after swapping a candidate:\n{stdout}");
        }
        let _ = fs::remove_dir_all(&root);
    }
}

/// `--check-deadpub` reads the committed report itself: one that differs
/// from what the tree renders fails, whatever else it agrees with.
#[test]
fn a_deadpub_report_that_differs_from_the_tree_fails_the_check() {
    const LIB: &str = "crates/alpha/src/lib.rs";
    let root = workspace(
        "deadpub-report",
        &[
            ("crates/alpha/Cargo.toml", &package("alpha")),
            (LIB, "//! A.\n\n/// Nothing mentions this.\npub fn corpse() {}\n"),
        ],
    );
    let (code, stdout) = run_code(&["--bless-deadpub"], &root);
    assert_eq!(code, Some(0), "--bless-deadpub:\n{stdout}");
    let (code, stdout) = run_code(&["--check-deadpub"], &root);
    assert_eq!(code, Some(0), "--check-deadpub after blessing:\n{stdout}");

    // A hand-written report that misses the tree's one candidate.
    write(
        &root,
        "results/DEADPUB.md",
        "# Dead-`pub` report\n\nNo candidates — every `pub` item is referenced somewhere.\n",
    );
    let (code, stdout) = run_code(&["--check-deadpub"], &root);
    assert_eq!(code, Some(1), "--check-deadpub over a stale report:\n{stdout}");
    assert!(stdout.contains("results/DEADPUB.md: [deadpub-lock]"), "{stdout}");
    let _ = fs::remove_dir_all(&root);
}
