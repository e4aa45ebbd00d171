//! The individual lint rules and the per-file analysis driver.
//!
//! Since the v2 rewrite every rule runs on the lossless token stream from
//! [`crate::lexer`] instead of masked-line substring matching: an identifier
//! token is matched whole (`expect` can no longer collide with
//! `expect_err`), string/comment content is structurally invisible, and
//! multi-line constructs (a call split across lines by rustfmt) match the
//! same as single-line ones.

use crate::tokens::{TokenKind, TokenStream};
use crate::walk::{Index, SourceFile};
use crate::Finding;

use std::fmt;
use std::path::Path;

/// Identifier of a lint rule, usable in `// lint:allow(<rule>)` comments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// `unwrap()`/`expect()`/`panic!`/`todo!`/`unimplemented!` in non-test
    /// library code.
    NoPanic,
    /// Unjustified `as <integer>` casts in feature/metric code.
    FloatCast,
    /// `==`/`!=` against a floating-point literal.
    FloatEq,
    /// Public item in a crate-root `lib.rs` without a doc comment.
    UndocumentedPub,
    /// Crate root missing its mandatory `#![deny(...)]` header.
    DenyHeader,
    /// Raw `std::thread::spawn`/`scope` in library code outside the
    /// sanctioned `seeker-par` pool.
    ThreadSpawn,
    /// Raw `println!`/`eprintln!` (and the non-`ln` forms) in library code
    /// outside the sanctioned `seeker-obs` sinks.
    NoPrint,
    /// `HashMap`/`HashSet` in library code: their iteration order is
    /// nondeterministic, which silently breaks the refinement loop's
    /// reproducibility contract (golden trajectory, serial==parallel).
    NoHashIter,
    /// `SystemTime`/`Instant::now` in library code outside `seeker-obs` and
    /// the bench harness: wall-clock-dependent branches make runs
    /// irreproducible.
    NoSystemTime,
    /// RNG construction without an explicit seed (`thread_rng`,
    /// `from_entropy`, `OsRng`, `rand::random`): every random draw in the
    /// pipeline must be replayable from a recorded seed.
    NoUnseededRng,
    /// Raw `std::env::var`/`var_os` in library code outside the
    /// `seeker_obs::env` registry: configuration is read once per process
    /// through the registry, never scattered per call site.
    EnvRead,
    /// Semantic (call-graph) rule: a `pub` function transitively reaches a
    /// panic site. Enforced by [`crate::panics`], not the lexical driver;
    /// listed here so `lint:allow(panic-reach)` parses.
    PanicReach,
    /// Semantic (call-graph) rule: an allocation inside a loop body on a
    /// declared hot path. Enforced by [`crate::hotpath`], not the lexical
    /// driver; listed here so `lint:allow(hot-alloc)` parses.
    HotAlloc,
    /// Manifest rule: a `[dependencies]` entry never mentioned in the
    /// crate's non-test sources. Enforced by [`crate::layers`], not the
    /// lexical driver; listed here so `lint:allow(unused-dep)` parses.
    UnusedDep,
    /// Semantic rule: an `unsafe` construct without a `SAFETY:` comment or
    /// out of sync with `api/unsafe.lock`. Enforced by
    /// [`crate::unsafe_audit`]; listed here so `lint:allow(unsafe-ledger)`
    /// parses.
    UnsafeLedger,
    /// Semantic (call-graph) rule: a lock-acquisition-order cycle, a
    /// condvar wait outside a predicate loop, or a lock held across a
    /// `par_map`-family dispatch. Enforced by [`crate::locks`]; listed here
    /// so `lint:allow(lock-order)` parses.
    LockOrder,
    /// Semantic rule: an atomic operation using `Ordering::Relaxed` without
    /// an adjacent `// ordering:` justification comment. Enforced by
    /// [`crate::atomics`]; listed here so `lint:allow(atomic-ordering)`
    /// parses.
    AtomicOrdering,
}

/// All lexical rules, in report order. The semantic rules
/// ([`Rule::PanicReach`], [`Rule::HotAlloc`], [`Rule::UnusedDep`]) are
/// driven by their own passes and deliberately absent.
pub const ALL_RULES: &[Rule] = &[
    Rule::NoPanic,
    Rule::FloatCast,
    Rule::FloatEq,
    Rule::UndocumentedPub,
    Rule::DenyHeader,
    Rule::ThreadSpawn,
    Rule::NoPrint,
    Rule::NoHashIter,
    Rule::NoSystemTime,
    Rule::NoUnseededRng,
    Rule::EnvRead,
];

impl Rule {
    /// The stable string id used in reports and allow comments.
    #[must_use]
    pub fn id(self) -> &'static str {
        match self {
            Rule::NoPanic => "no-panic",
            Rule::FloatCast => "float-cast",
            Rule::FloatEq => "float-eq",
            Rule::UndocumentedPub => "undocumented-pub",
            Rule::DenyHeader => "deny-header",
            Rule::ThreadSpawn => "thread-spawn",
            Rule::NoPrint => "no-print",
            Rule::NoHashIter => "no-hash-iter",
            Rule::NoSystemTime => "no-system-time",
            Rule::NoUnseededRng => "no-unseeded-rng",
            Rule::EnvRead => "env-read",
            Rule::PanicReach => "panic-reach",
            Rule::HotAlloc => "hot-alloc",
            Rule::UnusedDep => "unused-dep",
            Rule::UnsafeLedger => "unsafe-ledger",
            Rule::LockOrder => "lock-order",
            Rule::AtomicOrdering => "atomic-ordering",
        }
    }

    /// Parses a rule id as written in an allow comment.
    #[must_use]
    pub fn from_id(id: &str) -> Option<Rule> {
        const SEMANTIC: &[Rule] = &[
            Rule::PanicReach,
            Rule::HotAlloc,
            Rule::UnusedDep,
            Rule::UnsafeLedger,
            Rule::LockOrder,
            Rule::AtomicOrdering,
        ];
        ALL_RULES.iter().chain(SEMANTIC).copied().find(|r| r.id() == id)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// How a file participates in the gate (derived from its path and its
/// declaring `mod` by [`crate::walk`], or set explicitly in tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// `crates/*/src/lib.rs` or the workspace-root `src/lib.rs`.
    LibraryRoot,
    /// `crates/*/src/main.rs` or `crates/*/src/bin/*.rs`.
    BinaryRoot,
    /// Any other library source under a `src/` tree.
    Library,
    /// Test-only code: a file declared by a test-only `mod x;`. Exempt from
    /// every rule.
    TestCode,
}

/// Lints every crate root must `#![deny(...)]`.
const REQUIRED_DENY: &[&str] = &["missing_docs"];

/// Lints the experiment stub binaries (`crates/bench/src/bin/*.rs`) must
/// deny as well.
const BENCH_BIN_REQUIRED_DENY: &[&str] = &["dead_code"];

/// File names marking the feature/metric code where `float-cast` applies.
const FLOAT_CAST_FILES: &[&str] = &["features.rs", "metrics.rs"];

/// Path prefixes exempt from `no-system-time`: the observability layer
/// measures wall time by design, and the bench harness times experiments.
const TIME_EXEMPT_PATHS: &[&str] = &["crates/obs/", "crates/bench/"];

const INT_TYPES: &[&str] =
    &["u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize"];

const ROUNDING_METHODS: &[&str] = &["round", "floor", "ceil", "trunc"];

const PRINT_MACROS: &[&str] = &["println", "eprintln", "print", "eprint"];

/// RNG constructors that draw entropy from the environment instead of an
/// explicit seed. `StdRng::seed_from_u64(seed)` is the sanctioned pattern.
const UNSEEDED_RNG_FNS: &[&str] = &["thread_rng", "from_entropy", "from_os_rng"];

/// Lints every file of the index and returns the findings, ordered by file
/// then line.
#[must_use]
pub fn lint_workspace(index: &Index<'_>) -> Vec<Finding> {
    // Matching fans out over the pool on file-sized units; the final sort
    // makes serial and parallel runs report identically.
    let mut findings: Vec<Finding> =
        seeker_par::par_map_cost(&index.files, seeker_par::Cost::Heavy, lint_file)
            .into_iter()
            .flatten()
            .collect();
    findings.sort_by(|a, b| a.file.cmp(&b.file).then(a.line.cmp(&b.line)));
    findings
}

/// Lints one source as a file of class `class` at `path`; `path` also
/// scopes the path-dependent rules.
#[must_use]
pub fn lint_source(path: &Path, class: FileClass, source: &str) -> Vec<Finding> {
    lint_file(&SourceFile::new(path, class, source))
}

/// Lints one indexed file: its class selects the rules, its path scopes the
/// path-dependent ones.
fn lint_file(file: &SourceFile<'_>) -> Vec<Finding> {
    if file.class == FileClass::TestCode {
        return Vec::new();
    }
    let stream = &file.stream;
    let mut out = Vec::new();
    let mut push = |rule: Rule, line: usize, message: String| {
        if !file.allowed(rule, line) && !file.is_test(line) {
            out.push(Finding { file: file.path.to_path_buf(), line, tag: rule.id(), message });
        }
    };

    let path = file.path.to_string_lossy().replace('\\', "/");
    let is_library = matches!(file.class, FileClass::Library | FileClass::LibraryRoot);
    if is_library {
        no_panic(stream, &mut push);
        thread_spawn(stream, &mut push);
        no_print(stream, &mut push);
        float_eq(stream, &mut push);
        no_hash_iter(stream, &mut push);
        no_unseeded_rng(stream, &mut push);
        env_read(stream, &mut push);
        if !TIME_EXEMPT_PATHS.iter().any(|p| path.starts_with(p)) {
            no_system_time(stream, &mut push);
        }
    }
    let name = file.path.file_name().and_then(|n| n.to_str()).unwrap_or("");
    if FLOAT_CAST_FILES.contains(&name) {
        float_cast(stream, &mut push);
    }
    if file.class == FileClass::LibraryRoot {
        undocumented_pub(file, &mut push);
    }
    if matches!(file.class, FileClass::LibraryRoot | FileClass::BinaryRoot) {
        deny_header(&path, stream, &mut push);
    }
    out.sort_by(|a, b| a.line.cmp(&b.line).then_with(|| a.tag.cmp(b.tag)));
    out
}

fn no_panic(stream: &TokenStream<'_>, push: &mut impl FnMut(Rule, usize, String)) {
    for (i, t) in stream.code_iter() {
        let next_is =
            |off: usize, text: &str| stream.code(i + off).is_some_and(|t| t.is_punct(text));
        let prev_dot = i > 0 && stream.code(i - 1).is_some_and(|t| t.is_punct("."));
        if t.kind != TokenKind::Ident {
            continue;
        }
        let what = match t.text {
            "unwrap" if prev_dot && next_is(1, "(") && next_is(2, ")") => "call to `unwrap()`",
            "expect" if prev_dot && next_is(1, "(") => "call to `expect()`",
            "panic" if next_is(1, "!") => "`panic!` invocation",
            "todo" if next_is(1, "!") => "`todo!` invocation",
            "unimplemented" if next_is(1, "!") => "`unimplemented!` invocation",
            _ => continue,
        };
        push(
            Rule::NoPanic,
            t.line,
            format!(
                "{what} in library code (return a typed error or add `// lint:allow(no-panic)`)"
            ),
        );
    }
}

fn thread_spawn(stream: &TokenStream<'_>, push: &mut impl FnMut(Rule, usize, String)) {
    for (i, t) in stream.code_iter() {
        if !t.is_ident("thread") || !stream.code(i + 1).is_some_and(|t| t.is_punct("::")) {
            continue;
        }
        let Some(method) = stream.code(i + 2) else { continue };
        if matches!(method.text, "spawn" | "scope")
            && method.kind == TokenKind::Ident
            && stream.code(i + 3).is_some_and(|t| t.is_punct("("))
        {
            push(
                Rule::ThreadSpawn,
                t.line,
                format!("raw `thread::{}` in library code (use the `seeker_par` pool, or add `// lint:allow(thread-spawn)` with a justification)", method.text),
            );
        }
    }
}

fn no_print(stream: &TokenStream<'_>, push: &mut impl FnMut(Rule, usize, String)) {
    for (i, t) in stream.code_iter() {
        if t.kind == TokenKind::Ident
            && PRINT_MACROS.contains(&t.text)
            && stream.code(i + 1).is_some_and(|t| t.is_punct("!"))
        {
            push(
                Rule::NoPrint,
                t.line,
                format!("raw `{}!` in library code (route through `seeker_obs::info!` / a sink, or add `// lint:allow(no-print)` with a justification)", t.text),
            );
        }
    }
}

fn float_eq(stream: &TokenStream<'_>, push: &mut impl FnMut(Rule, usize, String)) {
    for (i, t) in stream.code_iter() {
        if !(t.is_punct("==") || t.is_punct("!=")) {
            continue;
        }
        let prev_float = i > 0 && stream.code(i - 1).is_some_and(|t| t.kind == TokenKind::Float);
        let next_float = match stream.code(i + 1) {
            Some(n) if n.kind == TokenKind::Float => true,
            Some(n) if n.is_punct("-") => {
                stream.code(i + 2).is_some_and(|t| t.kind == TokenKind::Float)
            }
            _ => false,
        };
        if prev_float || next_float {
            push(
                Rule::FloatEq,
                t.line,
                "`==`/`!=` against a floating-point literal (compare with an epsilon or add `// lint:allow(float-eq)`)".to_string(),
            );
        }
    }
}

fn float_cast(stream: &TokenStream<'_>, push: &mut impl FnMut(Rule, usize, String)) {
    for (i, t) in stream.code_iter() {
        if !t.is_ident("as") {
            continue;
        }
        let Some(ty) = stream.code(i + 1) else { continue };
        if ty.kind != TokenKind::Ident || !INT_TYPES.contains(&ty.text) {
            continue;
        }
        // Exempt `x.round() as usize`-style casts: the four tokens before
        // `as` are `. <rounding> ( )`.
        let rounded = i >= 4
            && stream.code(i - 1).is_some_and(|t| t.is_punct(")"))
            && stream.code(i - 2).is_some_and(|t| t.is_punct("("))
            && stream
                .code(i - 3)
                .is_some_and(|t| t.kind == TokenKind::Ident && ROUNDING_METHODS.contains(&t.text))
            && stream.code(i - 4).is_some_and(|t| t.is_punct("."));
        if !rounded {
            push(
                Rule::FloatCast,
                t.line,
                format!(
                    "`as {}` cast in feature/metric code without explicit rounding \
                     (use `.round()`/`.floor()`/`.ceil()` first, a checked conversion, \
                     or add `// lint:allow(float-cast)`)",
                    ty.text
                ),
            );
        }
    }
}

fn no_hash_iter(stream: &TokenStream<'_>, push: &mut impl FnMut(Rule, usize, String)) {
    for (_, t) in stream.code_iter() {
        if t.kind == TokenKind::Ident && matches!(t.text, "HashMap" | "HashSet") {
            push(
                Rule::NoHashIter,
                t.line,
                format!(
                    "`{}` in library code: hash iteration order is nondeterministic and breaks \
                     the reproducibility contract (use `BTreeMap`/`BTreeSet`, a sorted index, \
                     or add `// lint:allow(no-hash-iter)` justifying why it is never iterated)",
                    t.text
                ),
            );
        }
    }
}

/// Flags raw environment reads (`env::var`, `env::var_os`, and the
/// iterating `env::vars`/`vars_os` forms) in library code. Configuration is
/// read once per process through the `seeker_obs::env` registry; a
/// scattered read re-samples mutable process state per call and hides the
/// knob from `docs/CONFIGURATION.md`. A `use std::env::var;` alias would
/// evade the triple-token match, so the import form is flagged too.
fn env_read(stream: &TokenStream<'_>, push: &mut impl FnMut(Rule, usize, String)) {
    const READERS: &[&str] = &["var", "var_os", "vars", "vars_os"];
    for (i, t) in stream.code_iter() {
        if !t.is_ident("env") {
            continue;
        }
        let path_read = stream.code(i + 1).is_some_and(|u| u.is_punct("::"))
            && stream
                .code(i + 2)
                .is_some_and(|u| u.kind == TokenKind::Ident && READERS.contains(&u.text));
        if path_read {
            let what = stream.code(i + 2).map_or("var", |u| u.text);
            push(
                Rule::EnvRead,
                t.line,
                format!(
                    "raw `env::{what}` in library code: read configuration through the \
                     `seeker_obs::env` registry (cached once per process, spec-checked \
                     against docs/CONFIGURATION.md), or add `// lint:allow(env-read)`"
                ),
            );
        }
    }
}

fn no_system_time(stream: &TokenStream<'_>, push: &mut impl FnMut(Rule, usize, String)) {
    for (i, t) in stream.code_iter() {
        if t.is_ident("SystemTime") {
            push(
                Rule::NoSystemTime,
                t.line,
                "`SystemTime` in library code: wall-clock reads make runs irreproducible (thread a timestamp in, or add `// lint:allow(no-system-time)`)".to_string(),
            );
        } else if t.is_ident("Instant")
            && stream.code(i + 1).is_some_and(|t| t.is_punct("::"))
            && stream.code(i + 2).is_some_and(|t| t.is_ident("now"))
        {
            push(
                Rule::NoSystemTime,
                t.line,
                "`Instant::now` in library code outside `seeker-obs`: timing belongs in the observability layer (use a span, or add `// lint:allow(no-system-time)`)".to_string(),
            );
        }
    }
}

fn no_unseeded_rng(stream: &TokenStream<'_>, push: &mut impl FnMut(Rule, usize, String)) {
    for (i, t) in stream.code_iter() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        if UNSEEDED_RNG_FNS.contains(&t.text) && stream.code(i + 1).is_some_and(|t| t.is_punct("("))
        {
            push(
                Rule::NoUnseededRng,
                t.line,
                format!("`{}()` constructs an unseeded RNG: every draw must replay from a recorded seed (use `StdRng::seed_from_u64`, or add `// lint:allow(no-unseeded-rng)`)", t.text),
            );
        } else if t.text == "OsRng" {
            push(
                Rule::NoUnseededRng,
                t.line,
                "`OsRng` draws OS entropy: every draw must replay from a recorded seed (use `StdRng::seed_from_u64`, or add `// lint:allow(no-unseeded-rng)`)".to_string(),
            );
        } else if t.text == "random"
            && i > 0
            && stream.code(i - 1).is_some_and(|t| t.is_punct("::"))
            && stream.code(i.wrapping_sub(2)).is_some_and(|t| t.is_ident("rand"))
        {
            push(
                Rule::NoUnseededRng,
                t.line,
                "`rand::random` is thread-RNG sugar: every draw must replay from a recorded seed (use `StdRng::seed_from_u64`, or add `// lint:allow(no-unseeded-rng)`)".to_string(),
            );
        }
    }
}

/// Item keywords that can follow `pub` at the top level of a crate root.
const PUB_ITEM_KEYWORDS: &[&str] = &[
    "fn", "struct", "enum", "trait", "use", "mod", "type", "const", "static", "unsafe", "async",
    "extern", "union", "macro",
];

fn undocumented_pub(file: &SourceFile<'_>, push: &mut impl FnMut(Rule, usize, String)) {
    let stream = &file.stream;
    let mut depth = 0usize;
    for (i, t) in stream.code_iter() {
        if t.kind == TokenKind::Punct {
            match t.text {
                "{" => depth += 1,
                "}" => depth = depth.saturating_sub(1),
                _ => {}
            }
            continue;
        }
        if depth != 0 || !t.is_ident("pub") || file.is_test(t.line) {
            continue;
        }
        let Some(next) = stream.code(i + 1) else { continue };
        // `pub(crate)` / `pub(super)` visibility is not public API.
        if next.is_punct("(") {
            continue;
        }
        if !(next.kind == TokenKind::Ident && PUB_ITEM_KEYWORDS.contains(&next.text)) {
            continue;
        }
        if !has_doc_before(stream, i) {
            let item = item_signature_preview(stream, i);
            push(
                Rule::UndocumentedPub,
                t.line,
                format!("public item `{item}` in crate root has no doc comment"),
            );
        }
    }
}

/// Whether the item whose first code token is at code position `i` is
/// preceded by a doc comment (walking back over attributes).
fn has_doc_before(stream: &TokenStream<'_>, i: usize) -> bool {
    // Work on the full (lossless) token list so comments are visible.
    let Some(full_idx) = stream.code_index(i) else { return false };
    let all = stream.all();
    let mut j = full_idx;
    while j > 0 {
        j -= 1;
        let t = &all[j];
        match t.kind {
            TokenKind::Whitespace => continue,
            TokenKind::LineComment => {
                if t.text.starts_with("///") {
                    return true;
                }
                // An ordinary comment between doc and item: keep walking.
                continue;
            }
            TokenKind::BlockComment => {
                if t.text.starts_with("/**") {
                    return true;
                }
                continue;
            }
            _ => {}
        }
        // Attribute: tokens `… ]` — walk back to the matching `#[` and
        // check for `#[doc…]`.
        if t.is_punct("]") {
            let mut depth = 1usize;
            let mut saw_doc = false;
            while j > 0 && depth > 0 {
                j -= 1;
                let u = &all[j];
                if u.is_punct("]") {
                    depth += 1;
                } else if u.is_punct("[") {
                    depth -= 1;
                } else if u.is_ident("doc") {
                    saw_doc = true;
                }
            }
            // Skip the `#` (and a possible `!`) introducing the attribute.
            while j > 0 && (all[j - 1].is_punct("#") || all[j - 1].is_punct("!")) {
                j -= 1;
            }
            if saw_doc {
                return true;
            }
            continue;
        }
        return false;
    }
    false
}

/// A short preview of the item starting at code position `i` (up to the
/// body/terminator), for violation messages.
fn item_signature_preview(stream: &TokenStream<'_>, i: usize) -> String {
    let mut parts = Vec::new();
    let mut j = i;
    while let Some(t) = stream.code(j) {
        if (t.is_punct("{") || t.is_punct(";") || t.is_punct("=")) && j > i {
            break;
        }
        parts.push(t.text);
        if parts.len() >= 12 {
            break;
        }
        j += 1;
    }
    parts.join(" ")
}

fn deny_header(path: &str, stream: &TokenStream<'_>, push: &mut impl FnMut(Rule, usize, String)) {
    // Collect every lint named in an inner `#![deny(...)]` / `#![forbid(...)]`.
    let mut denied: Vec<&str> = Vec::new();
    for (i, t) in stream.code_iter() {
        if !t.is_punct("#")
            || !stream.code(i + 1).is_some_and(|t| t.is_punct("!"))
            || !stream.code(i + 2).is_some_and(|t| t.is_punct("["))
        {
            continue;
        }
        let Some(head) = stream.code(i + 3) else { continue };
        if !(head.is_ident("deny") || head.is_ident("forbid")) {
            continue;
        }
        let mut j = i + 4;
        while let Some(u) = stream.code(j) {
            if u.is_punct("]") {
                break;
            }
            if u.kind == TokenKind::Ident {
                denied.push(u.text);
            }
            j += 1;
        }
    }
    let mut required = REQUIRED_DENY.to_vec();
    if path.contains("crates/bench/src/bin/") {
        required.extend(BENCH_BIN_REQUIRED_DENY);
    }
    for need in required {
        if !denied.contains(&need) {
            push(
                Rule::DenyHeader,
                1,
                format!("crate root is missing the mandatory `#![deny({need})]` header"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(class: FileClass, src: &str) -> Vec<Finding> {
        lint_source(Path::new("crates/x/src/code.rs"), class, src)
    }

    fn rules_of(v: &[Finding]) -> Vec<Rule> {
        v.iter().map(|v| Rule::from_id(v.tag).expect("a rule id")).collect()
    }

    #[test]
    fn flags_panic_constructs_in_library_code() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\nfn g() { panic!(\"boom\") }\nfn h() { todo!() }\n";
        let v = lint(FileClass::Library, src);
        assert_eq!(rules_of(&v), vec![Rule::NoPanic, Rule::NoPanic, Rule::NoPanic]);
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn expect_matches_only_the_panicking_method() {
        let v = lint(FileClass::Library, "fn f(r: Result<u8, u8>) { r.expect_err(\"e\"); }\n");
        assert!(v.is_empty());
        let v = lint(FileClass::Library, "fn f(r: Result<u8, u8>) { r.expect(\"e\"); }\n");
        assert_eq!(rules_of(&v), vec![Rule::NoPanic]);
    }

    #[test]
    fn multiline_calls_match_like_single_line_ones() {
        // rustfmt can split `.unwrap()` across lines; the token matcher does
        // not care (the old line matcher missed this).
        let src = "fn f(x: Option<u32>) -> u32 {\n    x.unwrap(\n    )\n}\n";
        let v = lint(FileClass::Library, src);
        assert_eq!(rules_of(&v), vec![Rule::NoPanic]);
    }

    #[test]
    fn unwrap_or_variants_are_fine() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap_or(3).min(x.unwrap_or_default()) }\n";
        assert!(lint(FileClass::Library, src).is_empty());
    }

    #[test]
    fn allow_comment_suppresses_on_same_or_next_line() {
        let same = "fn f(x: Option<u32>) -> u32 { x.unwrap() } // lint:allow(no-panic)\n";
        assert!(lint(FileClass::Library, same).is_empty());
        let above = "// lint:allow(no-panic)\nfn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert!(lint(FileClass::Library, above).is_empty());
        let wrong_rule = "// lint:allow(float-eq)\nfn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert_eq!(lint(FileClass::Library, wrong_rule).len(), 1);
    }

    #[test]
    fn panics_in_strings_and_comments_are_ignored() {
        let src = "// this mentions panic!(\"x\") and .unwrap()\nfn f() -> &'static str { \"panic!(no) .unwrap()\" }\n";
        assert!(lint(FileClass::Library, src).is_empty());
        let raw = "fn f() -> &'static str { r#\"panic!(\"inner\") .unwrap()\"# }\n";
        assert!(lint(FileClass::Library, raw).is_empty());
    }

    #[test]
    fn cfg_test_blocks_are_exempt() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1).unwrap(); assert!(1.0 == 1.0); }\n}\n";
        assert!(lint(FileClass::Library, src).is_empty());
    }

    #[test]
    fn code_after_cfg_test_block_is_still_linted() {
        let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1).unwrap(); }\n}\nfn late(x: Option<u8>) -> u8 { x.unwrap() }\n";
        let v = lint(FileClass::Library, src);
        assert_eq!(rules_of(&v), vec![Rule::NoPanic]);
        assert_eq!(v[0].line, 6);
    }

    #[test]
    fn float_eq_flags_literal_comparisons() {
        let v = lint(FileClass::Library, "fn f(x: f64) -> bool { x == 0.0 }\n");
        assert_eq!(rules_of(&v), vec![Rule::FloatEq]);
        let v = lint(FileClass::Library, "fn f(x: f32) -> bool { 1.5f32 != x }\n");
        assert_eq!(rules_of(&v), vec![Rule::FloatEq]);
        let v = lint(FileClass::Library, "fn f(x: f64) -> bool { x == -2.5 }\n");
        assert_eq!(rules_of(&v), vec![Rule::FloatEq]);
    }

    #[test]
    fn float_eq_ignores_integers_ranges_and_order_comparisons() {
        assert!(lint(FileClass::Library, "fn f(x: u32) -> bool { x == 10 }\n").is_empty());
        assert!(
            lint(FileClass::Library, "fn f(x: f64) -> bool { x <= 1.0 && x >= 0.0 }\n").is_empty()
        );
        assert!(
            lint(FileClass::Library, "fn f(v: &[u8]) -> bool { v[1..4] == v[0..3] }\n").is_empty()
        );
    }

    #[test]
    fn float_cast_scoped_to_feature_and_metric_files() {
        let src = "fn f(x: f64) -> usize { x as usize }\n";
        let in_scope =
            lint_source(Path::new("crates/core/src/features.rs"), FileClass::Library, src);
        assert_eq!(rules_of(&in_scope), vec![Rule::FloatCast]);
        let out_of_scope =
            lint_source(Path::new("crates/core/src/attack.rs"), FileClass::Library, src);
        assert!(out_of_scope.is_empty());
    }

    #[test]
    fn float_cast_accepts_explicit_rounding() {
        let src = "fn f(x: f64) -> usize { x.round() as usize }\nfn g(x: f64) -> u32 { x.floor() as u32 }\n";
        let v = lint_source(Path::new("crates/ml/src/metrics.rs"), FileClass::Library, src);
        assert!(v.is_empty());
    }

    #[test]
    fn undocumented_pub_in_crate_root() {
        let src = "//! Crate docs.\n#![deny(missing_docs)]\n\n/// Documented.\npub fn ok() {}\n\npub fn bad() {}\n\n/// Re-export.\npub use std::fmt;\n\npub use std::io;\n";
        let v = lint(FileClass::LibraryRoot, src);
        assert_eq!(rules_of(&v), vec![Rule::UndocumentedPub, Rule::UndocumentedPub]);
        assert_eq!(v[0].line, 7);
        assert_eq!(v[1].line, 12);
    }

    #[test]
    fn doc_comment_above_attributes_counts() {
        let src = "//! Crate docs.\n#![deny(missing_docs)]\n\n/// Documented.\n#[derive(Debug, Clone)]\npub struct S;\n";
        assert!(lint(FileClass::LibraryRoot, src).is_empty());
        let multi = "//! Docs.\n#![deny(missing_docs)]\n\n/// Documented.\n#[derive(\n    Debug,\n    Clone,\n)]\npub struct S;\n";
        assert!(lint(FileClass::LibraryRoot, multi).is_empty());
    }

    #[test]
    fn pub_crate_items_are_not_public_api() {
        let src = "//! Docs.\n#![deny(missing_docs)]\npub(crate) fn helper() {}\n";
        assert!(lint(FileClass::LibraryRoot, src).is_empty());
    }

    #[test]
    fn deny_header_required_in_crate_roots() {
        let v = lint(FileClass::LibraryRoot, "//! Docs.\n");
        assert_eq!(rules_of(&v), vec![Rule::DenyHeader]);
        let ok = lint(FileClass::LibraryRoot, "//! Docs.\n#![deny(missing_docs)]\n");
        assert!(ok.is_empty());
        let forbid = lint(FileClass::LibraryRoot, "//! Docs.\n#![forbid(missing_docs)]\n");
        assert!(forbid.is_empty());
        let combined =
            lint(FileClass::LibraryRoot, "//! Docs.\n#![deny(dead_code, missing_docs)]\n");
        assert!(combined.is_empty());
    }

    #[test]
    fn bench_bins_also_need_dead_code_denied() {
        let path = Path::new("crates/bench/src/bin/fig1.rs");
        let missing = lint_source(
            path,
            FileClass::BinaryRoot,
            "//! Fig 1.\n#![deny(missing_docs)]\nfn main() {}\n",
        );
        assert_eq!(rules_of(&missing), vec![Rule::DenyHeader]);
        let ok = lint_source(
            path,
            FileClass::BinaryRoot,
            "//! Fig 1.\n#![deny(missing_docs, dead_code)]\nfn main() {}\n",
        );
        assert!(ok.is_empty());
    }

    #[test]
    fn thread_spawn_flagged_in_library_code_only() {
        let spawn = "fn f() { std::thread::spawn(|| {}); }\n";
        assert_eq!(rules_of(&lint(FileClass::Library, spawn)), vec![Rule::ThreadSpawn]);
        let scope = "fn f() { std::thread::scope(|s| { let _ = s; }); }\n";
        assert_eq!(rules_of(&lint(FileClass::Library, scope)), vec![Rule::ThreadSpawn]);
        let allowed =
            "fn f() {\n    // lint:allow(thread-spawn) -- sanctioned pool\n    std::thread::scope(|s| { let _ = s; });\n}\n";
        assert!(lint(FileClass::Library, allowed).is_empty());
        assert!(!rules_of(&lint(FileClass::BinaryRoot, spawn)).contains(&Rule::ThreadSpawn));
    }

    #[test]
    fn print_macros_flagged_in_library_code_only() {
        let src = "fn f() { println!(\"x\"); }\nfn g() { eprintln!(\"y\"); }\n";
        let v = lint(FileClass::Library, src);
        assert_eq!(rules_of(&v), vec![Rule::NoPrint, Rule::NoPrint]);
        assert!(v[0].message.contains("println!"));
        assert!(v[1].message.contains("eprintln!"));
        let eprint = lint(FileClass::Library, "fn f() { eprint!(\"z\"); }\n");
        assert!(eprint[0].message.contains("`eprint!`"));
        assert!(!rules_of(&lint(FileClass::BinaryRoot, src)).contains(&Rule::NoPrint));
        let allowed =
            "fn f() {\n    // lint:allow(no-print) -- sink output\n    eprintln!(\"e\");\n}\n";
        assert!(lint(FileClass::Library, allowed).is_empty());
        let masked = "// println!(\"doc\")\nfn f() -> &'static str { \"println!(no)\" }\n";
        assert!(lint(FileClass::Library, masked).is_empty());
    }

    #[test]
    fn hash_containers_flagged_in_library_code() {
        let src =
            "use std::collections::HashMap;\nfn f(m: &HashMap<u32, u32>) -> usize { m.len() }\n";
        let v = lint(FileClass::Library, src);
        assert_eq!(rules_of(&v), vec![Rule::NoHashIter, Rule::NoHashIter]);
        let set = "fn f(s: &std::collections::HashSet<u32>) -> usize { s.len() }\n";
        assert_eq!(rules_of(&lint(FileClass::Library, set)), vec![Rule::NoHashIter]);
        // BTree containers are the sanctioned replacement.
        let btree =
            "use std::collections::BTreeMap;\nfn f(m: &BTreeMap<u32, u32>) -> usize { m.len() }\n";
        assert!(lint(FileClass::Library, btree).is_empty());
        // A justified allow sanctions a lookup-only map.
        let allowed = "// lint:allow(no-hash-iter) -- lookup-only, never iterated\nuse std::collections::HashMap;\n";
        assert!(lint(FileClass::Library, allowed).is_empty());
        // Mentions in comments/strings are invisible.
        let comment = "// HashMap would be wrong here\nfn f() {}\n";
        assert!(lint(FileClass::Library, comment).is_empty());
    }

    #[test]
    fn system_time_flagged_outside_exempt_paths() {
        let src = "use std::time::Instant;\nfn f() { let t = Instant::now(); let _ = t; }\n";
        let v = lint(FileClass::Library, src);
        assert_eq!(rules_of(&v), vec![Rule::NoSystemTime]);
        assert_eq!(v[0].line, 2);
        let st = "fn f() -> std::time::SystemTime { std::time::SystemTime::now() }\n";
        assert_eq!(
            rules_of(&lint(FileClass::Library, st)),
            vec![Rule::NoSystemTime, Rule::NoSystemTime]
        );
        // The observability layer is exempt by path.
        let obs = lint_source(Path::new("crates/obs/src/lib.rs"), FileClass::Library, src);
        assert!(obs.is_empty());
        let bench = lint_source(Path::new("crates/bench/src/harness.rs"), FileClass::Library, src);
        assert!(bench.is_empty());
        // `Instant` mentioned without `::now` (e.g. a struct field type) is fine.
        let field = "struct S { start: std::time::Instant }\n";
        assert!(lint(FileClass::Library, field).is_empty());
    }

    #[test]
    fn unseeded_rng_construction_flagged() {
        let v = lint(
            FileClass::Library,
            "fn f() { let mut rng = rand::thread_rng(); let _ = &mut rng; }\n",
        );
        assert_eq!(rules_of(&v), vec![Rule::NoUnseededRng]);
        let v =
            lint(FileClass::Library, "fn f() { let rng = StdRng::from_entropy(); let _ = rng; }\n");
        assert_eq!(rules_of(&v), vec![Rule::NoUnseededRng]);
        let v = lint(FileClass::Library, "fn f() -> f64 { rand::random() }\n");
        assert_eq!(rules_of(&v), vec![Rule::NoUnseededRng]);
        let v = lint(FileClass::Library, "fn f() { let rng = OsRng; let _ = rng; }\n");
        assert_eq!(rules_of(&v), vec![Rule::NoUnseededRng]);
        // The sanctioned seeded construction passes.
        let seeded = "fn f(seed: u64) { let rng = StdRng::seed_from_u64(seed); let _ = rng; }\n";
        assert!(lint(FileClass::Library, seeded).is_empty());
        // A method merely named `random` on some struct is not flagged.
        let method = "fn f(x: &Sampler) -> f64 { x.random() }\n";
        assert!(lint(FileClass::Library, method).is_empty());
    }

    #[test]
    fn test_code_is_fully_exempt() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert!(lint(FileClass::TestCode, src).is_empty());
    }
}
