//! The run fingerprint: what a result was measured on.

use std::fs;
use std::path::Path;

/// One line naming the seed, the machine's parallelism, the `seeker-par`
/// worker count, the build profile, and the code measured: the git commit
/// when the checkout has one, and always a digest of the sources.
pub fn line(workload: &str, seed: u64, seconds: f64, traced: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    format!(
        "perfbench: workload {workload} seed {seed} seconds {seconds} trace {} nproc {nproc} \
         par_workers {} profile {profile} commit {} sources {:016x}",
        u8::from(traced),
        seeker_par::max_threads(),
        git_commit(Path::new(".")).unwrap_or_else(|| "none".into()),
        source_digest(Path::new("."))
    )
}

/// The commit `HEAD` names, read from `.git` without running git (the
/// checkout a benchmark runs in need not be a repository).
fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let Some(reference) = head.trim().strip_prefix("ref: ") else {
        return Some(head.trim().to_string());
    };
    if let Ok(id) = fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
}

/// FNV-1a over the path and bytes of every Rust source and manifest under
/// `crates/`, `vendor/` and `perfbench/`, in path order.
fn source_digest(root: &Path) -> u64 {
    let mut files = Vec::new();
    for dir in ["crates", "vendor", "perfbench"] {
        collect(&root.join(dir), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in &files {
        eat(f.to_string_lossy().as_bytes());
        eat(&fs::read(f).unwrap_or_default());
    }
    h
}

fn collect(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                collect(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
            out.push(path);
        }
    }
}
