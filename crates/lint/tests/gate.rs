//! Integration tests for the lint gate: plants the fixture sources in a
//! synthetic workspace, runs the pass (library API and compiled binary),
//! and asserts the seeded violations — and only those — are reported.

use seeker_lint::{lint_workspace, Finding, Index, Rule, Workspace};

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The rule a rules-pass finding names.
fn rule_of(finding: &Finding) -> Rule {
    Rule::from_id(finding.tag).expect("a rule id")
}

/// Lints the workspace at `root` with the rules pass.
fn lint(root: &Path) -> Vec<Finding> {
    let workspace = Workspace::read(root).expect("walk");
    lint_workspace(&Index::new(&workspace))
}

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("read fixture {}: {e}", path.display()))
}

/// Builds a throwaway workspace containing the seeded fixture files and a
/// clean crate, returning its root.
fn seeded_workspace(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("seeker-lint-gate-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    let write = |rel: &str, content: &str| {
        let path = root.join(rel);
        fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        fs::write(path, content).expect("write fixture");
    };
    write("Cargo.toml", "[workspace]\nmembers = [\"crates/*\"]\n");
    // Per-crate manifests so the layering and API-lockfile passes (which
    // enumerate packages) see the synthetic crates too.
    for krate in ["dirty", "headless", "clean"] {
        write(
            &format!("crates/{krate}/Cargo.toml"),
            &format!("[package]\nname = \"{krate}\"\nversion = \"0.0.0\"\n"),
        );
    }
    write(
        "crates/dirty/src/lib.rs",
        &format!(
            "//! Dirty fixture crate.\n#![deny(missing_docs)]\nmod seeded;\nmod features;\n{}",
            ""
        ),
    );
    write("crates/dirty/src/seeded.rs", &fixture("seeded_violations.rs"));
    write("crates/dirty/src/features.rs", &fixture("seeded_features.rs"));
    write("crates/headless/src/lib.rs", &fixture("seeded_lib_root.rs"));
    write(
        "crates/clean/src/lib.rs",
        "//! Clean fixture crate.\n#![deny(missing_docs)]\n\n/// Doubles.\npub fn double(x: u32) -> u32 { x * 2 }\n",
    );
    root
}

#[test]
fn seeded_workspace_reports_exactly_the_planted_violations() {
    let root = seeded_workspace("api");
    let violations = lint(&root);
    let got: Vec<(String, usize, Rule)> = violations
        .iter()
        .map(|v| (v.file.to_string_lossy().replace('\\', "/"), v.line, rule_of(v)))
        .collect();
    let expected = vec![
        ("crates/dirty/src/features.rs".to_string(), 5, Rule::FloatCast),
        ("crates/dirty/src/seeded.rs".to_string(), 7, Rule::NoPanic),
        ("crates/dirty/src/seeded.rs".to_string(), 11, Rule::NoPanic),
        ("crates/dirty/src/seeded.rs".to_string(), 15, Rule::NoPanic),
        ("crates/dirty/src/seeded.rs".to_string(), 19, Rule::FloatEq),
        ("crates/dirty/src/seeded.rs".to_string(), 36, Rule::ThreadSpawn),
        ("crates/headless/src/lib.rs".to_string(), 1, Rule::DenyHeader),
        ("crates/headless/src/lib.rs".to_string(), 9, Rule::UndocumentedPub),
    ];
    assert_eq!(
        got,
        expected,
        "full report:\n{}",
        violations.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n")
    );
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn determinism_rules_report_exactly_the_planted_violations() {
    let root =
        std::env::temp_dir().join(format!("seeker-lint-gate-determinism-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    let write = |rel: &str, content: &str| {
        let path = root.join(rel);
        fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        fs::write(path, content).expect("write fixture");
    };
    write("Cargo.toml", "[workspace]\nmembers = [\"crates/*\"]\n");
    write(
        "crates/clockwork/src/lib.rs",
        "//! Determinism fixture crate.\n#![deny(missing_docs)]\nmod determinism;\n",
    );
    write("crates/clockwork/src/determinism.rs", &fixture("seeded_determinism.rs"));
    let violations = lint(&root);
    let got: Vec<(usize, Rule)> = violations
        .iter()
        .filter(|v| v.file.to_string_lossy().ends_with("determinism.rs"))
        .map(|v| (v.line, rule_of(v)))
        .collect();
    let expected = vec![
        (6, Rule::NoHashIter),
        (9, Rule::NoSystemTime),
        (14, Rule::NoSystemTime),
        (18, Rule::NoUnseededRng),
    ];
    assert_eq!(
        got,
        expected,
        "full report:\n{}",
        violations.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n")
    );
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn layering_pass_flags_synthetic_crates_as_undeclared() {
    // A synthetic workspace's crates are not in the real LAYER_DAG, so the
    // layering pass must flag each one rather than silently skipping it.
    let bin = env!("CARGO_BIN_EXE_seeker-lint");
    let root = seeded_workspace("layering");
    let out = Command::new(bin).arg("--layering").arg(&root).output().expect("run seeker-lint");
    assert!(!out.status.success(), "expected layering failure");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("[layering]"), "stdout: {stdout}");
    assert!(stdout.contains("not declared in the layering DAG"), "stdout: {stdout}");
    for krate in ["dirty", "headless", "clean"] {
        assert!(stdout.contains(&format!("`{krate}`")), "missing {krate} in: {stdout}");
    }
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn api_lockfile_blesses_then_detects_drift() {
    let bin = env!("CARGO_BIN_EXE_seeker-lint");
    let root = seeded_workspace("apilock");

    // Unblessed workspace: --check-api reports the missing snapshots.
    let out = Command::new(bin).arg("--check-api").arg(&root).output().expect("run seeker-lint");
    assert!(!out.status.success(), "expected drift before blessing");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("[api-lock]"), "stdout: {stdout}");
    assert!(stdout.contains("missing snapshot"), "stdout: {stdout}");

    // Bless, then the check passes.
    let out = Command::new(bin).arg("--bless-api").arg(&root).output().expect("run seeker-lint");
    assert!(out.status.success(), "bless failed: {}", String::from_utf8_lossy(&out.stderr));
    assert!(root.join("api/clean.api").is_file(), "snapshot file written");
    let snapshot = fs::read_to_string(root.join("api/clean.api")).expect("read snapshot");
    assert!(snapshot.contains("pub fn double(x: u32) -> u32"), "snapshot: {snapshot}");
    let out = Command::new(bin).arg("--check-api").arg(&root).output().expect("run seeker-lint");
    assert!(
        out.status.success(),
        "expected clean check after blessing:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );

    // A public-API change without re-blessing is drift.
    let lib = root.join("crates/clean/src/lib.rs");
    let mut source = fs::read_to_string(&lib).expect("read clean lib");
    source.push_str("\n/// Triples.\npub fn triple(x: u32) -> u32 { x * 3 }\n");
    fs::write(&lib, source).expect("write clean lib");
    let out = Command::new(bin).arg("--check-api").arg(&root).output().expect("run seeker-lint");
    assert!(!out.status.success(), "expected drift after API change");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("[api-lock]"), "stdout: {stdout}");
    assert!(stdout.contains("pub fn triple(x: u32) -> u32"), "stdout: {stdout}");
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn binary_exits_nonzero_on_violations_and_zero_on_clean_tree() {
    let bin = env!("CARGO_BIN_EXE_seeker-lint");

    let dirty = seeded_workspace("bin");
    let out = Command::new(bin).arg(&dirty).output().expect("run seeker-lint");
    assert!(!out.status.success(), "expected failure on seeded workspace");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("[no-panic]"), "stdout: {stdout}");
    assert!(stdout.contains("seeded.rs:7"), "stdout: {stdout}");
    let _ = fs::remove_dir_all(&dirty);

    // The real workspace (two levels above this crate) must be clean.
    let real_root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root");
    let out = Command::new(bin).arg(real_root).output().expect("run seeker-lint");
    assert!(out.status.success(), "workspace not clean:\n{}", String::from_utf8_lossy(&out.stdout));

    // A mistyped root must not report "clean": that would disarm the gate.
    let out = Command::new(bin).arg("/no/such/workspace").output().expect("run seeker-lint");
    assert_eq!(out.status.code(), Some(2), "expected exit 2 on a nonexistent root");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("not a workspace root"), "stderr: {stderr}");
}
