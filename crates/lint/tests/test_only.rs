//! The one test-only rule. Code is test-only when it sits under `cfg(P)`
//! and `P` requires `test`: `P` is `test`, or an `all(…)` with a conjunct
//! that requires it. `not(test)`, `any(test, …)` and `cfg_attr(test, …)`
//! guard code that production builds compile, so the rules pass, the panic
//! lock and the classification of a file declared by `mod x;` all see it.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Writes a one-crate workspace (`alpha`) from `(path in the crate, text)`
/// pairs and returns its root.
fn workspace(tag: &str, files: &[(&str, &str)]) -> PathBuf {
    let root =
        std::env::temp_dir().join(format!("seeker-lint-test-only-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    let manifest = "[package]\nname = \"alpha\"\nversion = \"0.0.0\"\n";
    let all = [
        ("Cargo.toml", "[workspace]\nmembers = [\"crates/*\"]\n"),
        ("crates/alpha/Cargo.toml", manifest),
    ];
    for (rel, content) in all.into_iter().chain(files.iter().map(|&(rel, text)| (rel, text))) {
        let rel =
            if rel.starts_with("src/") { format!("crates/alpha/{rel}") } else { rel.to_string() };
        let path = root.join(rel);
        fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        fs::write(path, content).expect("write");
    }
    root
}

/// Runs the binary with `flag` over `root`; returns the `file:line: [rule]`
/// head of every stdout line that reports a finding.
fn finding_heads(flag: &str, root: &Path) -> Vec<String> {
    let bin = env!("CARGO_BIN_EXE_seeker-lint");
    let out = Command::new(bin).arg(flag).arg(root).output().expect("run seeker-lint");
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout.lines().filter_map(|line| line.find("] ").map(|end| line[..=end].to_string())).collect()
}

#[test]
fn rules_lint_code_under_cfgs_that_do_not_require_test() {
    let lib = "//! A.\n#![deny(missing_docs)]\n\n\
        #[cfg(not(test))]\nmod live {\n    fn f(x: Option<u8>) -> u8 { x.unwrap() }\n}\n\n\
        #[cfg(any(test, feature = \"x\"))]\nmod either {\n    fn f(x: Option<u8>) -> u8 { x.unwrap() }\n}\n\n\
        #[cfg_attr(test, inline)]\nfn tagged(x: Option<u8>) -> u8 { x.expect(\"x\") }\n\n\
        #[cfg(all(unix, not(test)))]\nmod unix_live {\n    fn f(x: Option<u8>) -> u8 { x.unwrap() }\n}\n\n\
        #[cfg(all(unix, all(test)))]\nmod both {\n    fn f(x: Option<u8>) -> u8 { x.unwrap() }\n}\n\n\
        #[cfg(test)]\nmod tests {\n    fn f(x: Option<u8>) -> u8 { x.unwrap() }\n}\n";
    let root = workspace("rules", &[("src/lib.rs", lib)]);
    assert_eq!(
        finding_heads("--rules", &root),
        [
            "crates/alpha/src/lib.rs:6: [no-panic]",
            "crates/alpha/src/lib.rs:11: [no-panic]",
            "crates/alpha/src/lib.rs:15: [no-panic]",
            "crates/alpha/src/lib.rs:19: [no-panic]",
        ]
    );
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn the_panic_lock_keeps_functions_under_cfgs_that_do_not_require_test() {
    let lib = "//! A.\n\n\
        /// Tagged for tests, compiled everywhere.\n#[cfg_attr(test, inline)]\npub fn tagged(x: Option<u8>) -> u8 { x.expect(\"x\") }\n\n\
        /// Compiled outside tests.\n#[cfg(not(test))]\npub fn live(x: Option<u8>) -> u8 { x.unwrap() }\n\n\
        /// Compiled in tests or with a feature.\n#[cfg(any(test, feature = \"x\"))]\npub fn either(x: Option<u8>) -> u8 { x.unwrap() }\n\n\
        /// Plain.\npub fn plain(x: Option<u8>) -> u8 { x.unwrap() }\n\n\
        /// Test-only.\n#[cfg(all(test, unix))]\npub fn only_in_tests(x: Option<u8>) -> u8 { x.unwrap() }\n";
    let root = workspace("panics", &[("src/lib.rs", lib)]);
    let bin = env!("CARGO_BIN_EXE_seeker-lint");
    let out = Command::new(bin).arg("--bless-panics").arg(&root).output().expect("run seeker-lint");
    assert!(out.status.success(), "bless failed: {}", String::from_utf8_lossy(&out.stderr));
    let lock = fs::read_to_string(root.join("api/panics.lock")).expect("read lock");
    let rows: Vec<&str> = lock.lines().filter(|l| !l.starts_with('#')).collect();
    assert_eq!(rows, ["alpha::either", "alpha::live", "alpha::plain", "alpha::tagged"]);
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn a_file_is_test_code_only_when_its_mod_declaration_requires_test() {
    let body = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
    let lib = "//! A.\n#![deny(missing_docs)]\n\
        #[cfg(not(test))]\nmod live;\n\
        #[cfg(any(test, feature = \"x\"))]\nmod either;\n\
        #[cfg_attr(test, allow(dead_code))]\nmod tagged;\n\
        #[cfg(all(test, unix))]\nmod both;\n\
        #[cfg(test)]\nmod tests;\n";
    let root = workspace(
        "classes",
        &[
            ("src/lib.rs", lib),
            ("src/live.rs", body),
            ("src/either.rs", body),
            ("src/tagged.rs", body),
            ("src/both.rs", body),
            ("src/tests.rs", body),
        ],
    );
    assert_eq!(
        finding_heads("--rules", &root),
        [
            "crates/alpha/src/either.rs:1: [no-panic]",
            "crates/alpha/src/live.rs:1: [no-panic]",
            "crates/alpha/src/tagged.rs:1: [no-panic]",
        ]
    );
    let _ = fs::remove_dir_all(&root);
}
