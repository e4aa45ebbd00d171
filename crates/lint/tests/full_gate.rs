//! Golden full-gate report: the compiled binary runs over a seeded
//! workspace that trips every pass (a lexical rule, an undeclared crate
//! with an unused dependency, a missing API snapshot, an `unsafe` block
//! without `SAFETY:`, an unjustified `Relaxed`, a missing configuration doc
//! and panic lock, a loop allocation under a hot root, and a lock cycle, a
//! bare `Condvar::wait` and a lock held across `par_map`). The flagless
//! gate's stdout, stderr and exit code, the `--atomics` and `--lock-order`
//! inventories, and the locks and report the bless flags then write are
//! pinned byte for byte in `tests/golden/full_gate.txt`.
//!
//! Regenerate after an intentional change:
//! SEEKER_BLESS=1 cargo test -p seeker-lint --test full_gate

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

const LIB: &str = r#"//! Seeded crate: one finding for every pass of the gate.
#![deny(missing_docs)]

mod hot;
mod sync;

/// The hot root.
pub use hot::path_count_profile;
/// The lock users.
pub use sync::{ab, ba, bump, held, read, wait_once};

/// Reads the first value.
pub fn first(v: Option<u32>) -> u32 {
    v.unwrap()
}

/// Reads one byte.
pub fn peek(p: *const u8) -> u8 {
    unsafe { *p }
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_is_exempt() {
        let v = Some(1u32);
        assert_eq!(v.unwrap(), 1);
        assert!(unsafe { *(&2u8 as *const u8) } == 2);
    }
}
"#;

const HOT: &str = r#"//! A declared hot root that allocates in its loop.

/// Formats each value.
pub fn path_count_profile(v: &[u32]) -> Vec<String> {
    let mut out = Vec::new();
    for x in v {
        out.push(format!("{x}"));
    }
    out
}
"#;

const SYNC: &str = r#"//! Locks taken in both orders, a bare wait, a lock held across the pool,
//! and an unjustified relaxed counter.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

static A: Mutex<u32> = Mutex::new(0);
static B: Mutex<u32> = Mutex::new(0);
static CV: Condvar = Condvar::new();
static N: AtomicU64 = AtomicU64::new(0);

/// Takes A, then B.
pub fn ab() {
    let a = A.lock().unwrap_or_else(|e| e.into_inner());
    let b = B.lock().unwrap_or_else(|e| e.into_inner());
    drop(b);
    drop(a);
}

/// Takes B, then A.
pub fn ba() {
    let b = B.lock().unwrap_or_else(|e| e.into_inner());
    let a = A.lock().unwrap_or_else(|e| e.into_inner());
    drop(a);
    drop(b);
}

/// Waits once, outside any predicate loop.
pub fn wait_once() {
    let g = A.lock().unwrap_or_else(|e| e.into_inner());
    let _g = CV.wait(g).unwrap_or_else(|e| e.into_inner());
}

/// Holds A across a pool dispatch.
pub fn held(items: &[u32]) -> Vec<u32> {
    let g = A.lock().unwrap_or_else(|e| e.into_inner());
    let out = seeker_par::par_map(items, |x| *x + *g);
    drop(g);
    out
}

/// Bumps the counter.
pub fn bump() -> u64 {
    N.fetch_add(1, Ordering::Relaxed)
}

/// Reads the counter.
pub fn read() -> u64 {
    // ordering: a monotonic counter publishes nothing else.
    N.load(Ordering::Relaxed) + N.load(Ordering::SeqCst)
}
"#;

/// Writes the seeded workspace and returns its root.
fn seeded_workspace() -> PathBuf {
    let root = std::env::temp_dir().join(format!("seeker-lint-full-gate-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    let files = [
        ("Cargo.toml", "[workspace]\nmembers = [\"crates/*\"]\n"),
        (
            "crates/seeded/Cargo.toml",
            "[package]\nname = \"seeded\"\nversion = \"0.0.0\"\n\n[dependencies]\nrand = \"0.8\"\n",
        ),
        ("crates/seeded/src/lib.rs", LIB),
        ("crates/seeded/src/hot.rs", HOT),
        ("crates/seeded/src/sync.rs", SYNC),
    ];
    for (rel, content) in files {
        let path = root.join(rel);
        fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        fs::write(path, content).expect("write");
    }
    root
}

/// Runs the binary with `args` over `root` and appends its exit code,
/// stdout and stderr to `doc`.
fn run(doc: &mut String, args: &[&str], root: &Path) {
    let bin = env!("CARGO_BIN_EXE_seeker-lint");
    let out = Command::new(bin).args(args).arg(root).output().expect("run seeker-lint");
    let shown = std::iter::once("seeker-lint").chain(args.iter().copied()).collect::<Vec<_>>();
    let _ = writeln!(doc, "$ {} ROOT (exit {:?})", shown.join(" "), out.status.code());
    let _ = writeln!(doc, "-- stdout");
    doc.push_str(&String::from_utf8_lossy(&out.stdout));
    let _ = writeln!(doc, "-- stderr");
    doc.push_str(&String::from_utf8_lossy(&out.stderr));
}

#[test]
fn full_gate_report_matches_golden() {
    let root = seeded_workspace();
    let mut doc = String::from(
        "# Golden full-gate report of seeker-lint over a seeded workspace\n\
         # (crates/lint/tests/full_gate.rs). ROOT stands for the workspace root.\n\
         # Regenerate: SEEKER_BLESS=1 cargo test -p seeker-lint --test full_gate\n",
    );
    run(&mut doc, &[], &root);
    run(&mut doc, &["--atomics"], &root);
    run(&mut doc, &["--lock-order"], &root);
    for lock in ["api", "panics", "unsafe", "deadpub"] {
        run(&mut doc, &[&format!("--bless-{lock}")], &root);
    }
    for rel in ["api/seeded.api", "api/panics.lock", "api/unsafe.lock", "results/DEADPUB.md"] {
        let _ = writeln!(doc, "== {rel}");
        doc.push_str(&fs::read_to_string(root.join(rel)).expect("read a blessed file"));
    }
    let doc = doc.replace(&root.display().to_string(), "ROOT");
    let _ = fs::remove_dir_all(&root);

    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/full_gate.txt");
    if std::env::var("SEEKER_BLESS").is_ok_and(|v| v == "1") {
        fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        fs::write(&path, &doc).expect("write golden");
        return;
    }
    let golden = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("cannot read {} ({e}); run with SEEKER_BLESS=1", path.display())
    });
    assert_eq!(
        doc,
        golden,
        "the full-gate report drifted from {}; if the change is intentional, regenerate with \
         SEEKER_BLESS=1 cargo test -p seeker-lint --test full_gate",
        path.display()
    );
}
