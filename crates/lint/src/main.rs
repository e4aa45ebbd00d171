//! Command-line entry point for the workspace static-analysis gate.
//!
//! Usage: `cargo run -p seeker-lint [-- [FLAGS] [<workspace-root>]]`.
//!
//! With no flags the full gate runs: all lexical rules, the crate-layering
//! pass (including the unused-dependency check), the public-API lockfile
//! check, the unsafe ledger check, the atomics-ordering audit, the
//! generated-configuration-doc check, the panic-reachability lock check,
//! the hot-path allocation analysis and the lock-order/condvar analysis.
//! A flag runs one pass alone or switches to regenerating a lock:
//!
//! - `--rules`, `--layering`, `--hotpath`: that pass only;
//! - `--lock-order`, `--atomics`: that pass only, also printing the lock
//!   graph or the ordering inventory;
//! - `--check-<lock>`: that lock's check only, for `api`, `panics`,
//!   `unsafe`, `config` and `deadpub` (the dead-`pub` report
//!   `results/DEADPUB.md`, which the full gate leaves out);
//! - `--bless-<lock>`: regenerate that lock's files and exit.
//!
//! With no root argument the workspace root is discovered by walking up from
//! the current directory to the first `Cargo.toml` containing a
//! `[workspace]` section. Exits 0 when clean, 1 on violations/drift, 2 on
//! usage or I/O errors, so CI can gate on it.

#![deny(missing_docs)]

use seeker_lint::lockfile::{self, Lock};
use seeker_lint::{
    atomic_sites, check_layering, hot_findings, lint_workspace, lock_order, render_inventory,
    render_lock_graph, Index, Workspace,
};

use std::env;
use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// One check pass.
#[derive(Clone, Copy)]
enum Pass {
    /// Lexical rules.
    Rules,
    /// Crate layering.
    Layering,
    /// Atomics-ordering audit.
    Atomics,
    /// Hot-path allocations.
    Hotpath,
    /// Lock order and condvar protocol.
    LockOrder,
    /// A lock's check.
    Check(Lock),
}

/// The full gate's passes, in order; the dead-`pub` lock stays outside.
const FULL_GATE: [Pass; 9] = [
    Pass::Rules,
    Pass::Layering,
    Pass::Check(Lock::Api),
    Pass::Check(Lock::Unsafe),
    Pass::Atomics,
    Pass::Check(Lock::Config),
    Pass::Check(Lock::Panics),
    Pass::Hotpath,
    Pass::LockOrder,
];

/// What a flag asks for instead of the full gate.
enum Mode {
    /// One check pass, alone.
    Only(Pass),
    /// Regenerate a lock's files.
    Bless(Lock),
}

impl Mode {
    /// The mode a flag selects, or `None` for an unknown flag.
    fn of(flag: &str) -> Option<Mode> {
        let pass = match flag {
            "--rules" => Pass::Rules,
            "--layering" => Pass::Layering,
            "--atomics" => Pass::Atomics,
            "--hotpath" => Pass::Hotpath,
            "--lock-order" => Pass::LockOrder,
            _ => match flag.strip_prefix("--bless-") {
                Some(name) => return Lock::named(name).map(Mode::Bless),
                None => Pass::Check(Lock::named(flag.strip_prefix("--check-")?)?),
            },
        };
        Some(Mode::Only(pass))
    }
}

fn main() -> ExitCode {
    let mut mode = None;
    let mut root_arg: Option<PathBuf> = None;
    for arg in env::args().skip(1) {
        if !arg.starts_with("--") {
            root_arg = Some(PathBuf::from(arg));
            continue;
        }
        let Some(chosen) = Mode::of(&arg) else {
            eprintln!("seeker-lint: unknown flag {arg}");
            eprintln!(
                "usage: seeker-lint [--rules | --layering | --hotpath | --lock-order | --atomics | \
                 --check-<lock> | --bless-<lock>] [root], \
                 <lock> one of api, panics, unsafe, config, deadpub"
            );
            return ExitCode::from(2);
        };
        mode = Some(chosen);
    }
    let root = match root_arg.or_else(discover_workspace_root) {
        Some(path) => path,
        None => {
            eprintln!("seeker-lint: no workspace Cargo.toml found above the current directory");
            return ExitCode::from(2);
        }
    };
    // A mistyped root would otherwise lint zero files and report "clean",
    // silently disarming the CI gate.
    if !root.join("Cargo.toml").is_file() {
        eprintln!("seeker-lint: {} is not a workspace root (no Cargo.toml)", root.display());
        return ExitCode::from(2);
    }
    // One walk reads every source the passes need. The configuration doc
    // renders from the env registry alone, so its lock reads none.
    let workspace = match mode {
        Some(Mode::Only(Pass::Check(Lock::Config)) | Mode::Bless(Lock::Config)) => {
            Workspace::at(&root)
        }
        _ => match Workspace::read(&root) {
            Ok(workspace) => workspace,
            Err(err) => return io_error("reading", &root, &err),
        },
    };
    let index = Index::new(&workspace);
    let (passes, alone) = match mode {
        None => (FULL_GATE.to_vec(), false),
        Some(Mode::Only(pass)) => (vec![pass], true),
        Some(Mode::Bless(lock)) => {
            return match lockfile::bless(lock, &index) {
                Ok(written) => {
                    for path in &written {
                        println!("seeker-lint: blessed {}", path.display());
                    }
                    ExitCode::SUCCESS
                }
                Err(err) => io_error("blessing", &root, &err),
            };
        }
    };

    let mut reported = 0usize;
    for pass in passes {
        match run(pass, &index, alone) {
            Ok(lines) => {
                for line in &lines {
                    println!("{line}");
                }
                reported += lines.len();
            }
            Err(err) => return io_error("checking", &root, &err),
        }
    }
    if reported == 0 {
        println!("seeker-lint: clean ({})", root.display());
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "seeker-lint: {reported} violation(s) — fix each, sanction a site with \
             `// lint:allow(<tag>)` where its rule allows, or review and re-bless a lock"
        );
        ExitCode::FAILURE
    }
}

/// Runs one check pass over the index and returns its report lines. Run
/// `alone`, the atomics and lock-order passes also print their inventories.
fn run(pass: Pass, index: &Index<'_>, alone: bool) -> io::Result<Vec<String>> {
    Ok(match pass {
        Pass::Rules => lines(&lint_workspace(index)),
        Pass::Layering => lines(&check_layering(index)),
        Pass::Atomics => {
            let (sites, findings) = atomic_sites(index);
            if alone {
                print!("{}", render_inventory(&sites));
            }
            lines(&findings)
        }
        Pass::Hotpath => lines(&hot_findings(index.graph())),
        Pass::LockOrder => {
            let report = lock_order(index);
            if alone {
                print!("{}", render_lock_graph(&report));
            }
            lines(&report.findings)
        }
        Pass::Check(lock) => {
            let (findings, drift) = lockfile::check(lock, index)?;
            let mut out = lines(&findings);
            out.extend(lines(&drift));
            out
        }
    })
}

/// Renders findings as report lines.
fn lines<T: ToString>(items: &[T]) -> Vec<String> {
    items.iter().map(ToString::to_string).collect()
}

/// Reports an I/O failure uniformly and returns the usage exit code.
fn io_error(what: &str, root: &Path, err: &io::Error) -> ExitCode {
    eprintln!("seeker-lint: I/O error {what} {}: {err}", root.display());
    ExitCode::from(2)
}

/// Walks up from the current directory to the first `Cargo.toml` declaring a
/// `[workspace]` section.
fn discover_workspace_root() -> Option<PathBuf> {
    let mut dir = env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(contents) = std::fs::read_to_string(&manifest) {
            if contents.lines().any(|l| l.trim() == "[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}
