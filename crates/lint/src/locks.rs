//! Lock-order and condvar-protocol analysis (call-graph pass).
//!
//! The workspace has a small, fixed set of `Mutex`es (the `seeker-par`
//! pool state and the `seeker-obs` registries), which makes a *complete*
//! acquisition-order graph tractable: the pass indexes every lock
//! acquisition in non-test library code, propagates held-lock sets along
//! the workspace call graph, and flags
//!
//! 1. **cycles** in the lock-acquisition-order graph (including
//!    self-loops: re-acquiring a non-reentrant `std::sync::Mutex` on the
//!    same thread is a guaranteed deadlock);
//! 2. **`Condvar::wait`/`wait_while` outside a predicate loop** — a bare
//!    `wait` is vulnerable to spurious wakeups and lost notifications;
//! 3. **locks held across `par_map`-family dispatches** — a caller that
//!    enters the pool while holding a lock serializes every worker behind
//!    it at best, and deadlocks at worst if a worker needs the same lock.
//!
//! ## Model
//!
//! A lock's identity is `(crate, name)` where `name` is the receiver or
//! argument tail identifier at the acquisition site (`self.state.lock()`
//! → `state`, `lock_ignore_poison(counter_registry())` →
//! `counter_registry`). Guard lifetimes are tracked linearly: a let-bound
//! or reassigned guard is held until the first `drop(<var>)` or the close
//! of its enclosing block, an unbound temporary until the end of its
//! statement. Held sets at call sites follow the call graph through
//! `Resolved` *and* `Ambiguous` edges (conservative), using each callee's
//! transitive acquire-closure.
//!
//! Deliberate over-approximations (can only add edges, never hide one):
//! the whole acquire→release *line* range counts as held, and binding a
//! guard's derived value (`let x = lock(m).take()`) extends the hold to
//! the block close. Known blind spots: `RwLock` read/write guards are not
//! indexed, IO locks (`stderr.lock()`) are deliberately excluded, and
//! macro-expanded acquisitions (`counter!`) are invisible — see
//! `docs/LINTING.md`. Escape hatch: `// lint:allow(lock-order)` on the
//! acquisition (or dispatch) line removes that site from the graph.

use crate::callgraph::{self, CallGraph};
use crate::rules::Rule;
use crate::syntax::{Item, ItemKind};
use crate::tokens::{TokenKind, TokenStream};
use crate::walk::Index;
use crate::Finding;

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

/// Lock-free `lock()`-named receivers that are IO handle locks, not
/// mutexes.
const IO_RECEIVERS: &[&str] = &["stderr", "stdout", "stdin"];

/// Free functions that acquire the mutex passed as their first argument.
const HELPER_FNS: &[&str] = &["lock", "lock_ignore_poison"];

/// Methods that acquire a fixed, known lock of their receiver type.
const HELPER_METHODS: &[(&str, &str)] = &[("events_lock", "events")];

/// Pool dispatch entry points a held lock must never cross.
const PAR_FAMILY: &[&str] =
    &["par_map", "par_map_cost", "par_map_indexed", "par_map_indexed_cost", "par_map_chunked"];

/// One directed acquired-before edge of the lock-order graph.
#[derive(Debug, Clone)]
pub struct LockEdge {
    /// The lock already held.
    pub from: String,
    /// The lock acquired under it.
    pub to: String,
    /// Example site establishing the edge (file, 1-based line).
    pub file: PathBuf,
    /// 1-based line of the example site.
    pub line: usize,
}

/// The lock-order analysis result: the graph plus the findings.
#[derive(Debug, Clone, Default)]
pub struct LockOrderReport {
    /// Every lock acquired anywhere in non-test library code, sorted.
    pub locks: Vec<String>,
    /// The acquired-before edges, deduplicated, sorted by (from, to).
    pub edges: Vec<LockEdge>,
    /// Cycles, bare waits, and held-across-dispatch findings.
    pub findings: Vec<Finding>,
}

/// One acquisition inside a function body.
struct Acquire {
    /// Index into the lock name table.
    lock: usize,
    /// Code-token index of the acquisition.
    idx: usize,
    /// 1-based source line of the acquisition.
    line: usize,
    /// Code-token index one past the release point.
    release_idx: usize,
    /// 1-based source line of the release point.
    release_line: usize,
    /// Whether `lint:allow(lock-order)` sanctions the site.
    allowed: bool,
}

/// Runs the lock-order and condvar-protocol analysis over the index and its
/// call graph.
#[must_use]
pub fn lock_order(index: &Index<'_>) -> LockOrderReport {
    let graph = index.graph();
    let mut lock_names: Vec<String> = Vec::new();
    let intern = |name: String, names: &mut Vec<String>| -> usize {
        names.iter().position(|n| n == &name).unwrap_or_else(|| {
            names.push(name);
            names.len() - 1
        })
    };

    // Per-call-graph-node direct acquire sets, and per-call-site held sets.
    let mut direct: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); graph.nodes.len()];
    // (caller node, call index within the node, held locks).
    let mut held_at: Vec<(usize, usize, BTreeSet<usize>)> = Vec::new();
    let mut edge_sites: BTreeMap<(usize, usize), (PathBuf, usize)> = BTreeMap::new();
    let mut findings: Vec<Finding> = Vec::new();
    let finding = |file: &PathBuf, line: usize, message: String| Finding {
        file: file.clone(),
        line,
        tag: Rule::LockOrder.id(),
        message,
    };

    for file in index.library_files() {
        let Some(info) = index.crate_of(file) else { continue };
        let stream = &file.stream;
        let path = file.path.to_path_buf();
        let allowed = |line: usize| file.allowed(Rule::LockOrder, line);

        let mut fns: Vec<&Item> = Vec::new();
        collect_fns(&file.tree.items, &mut fns);
        for item in fns {
            let Some((bs, be)) = item.body_code else { continue };
            if file.is_test(item.line) {
                continue;
            }
            // Lock-helper bodies acquire through their parameter; indexing
            // them would invent a junk lock named after the parameter.
            if HELPER_FNS.contains(&item.name.as_str())
                || HELPER_METHODS.iter().any(|(m, _)| *m == item.name)
            {
                continue;
            }
            let acquires = scan_acquires(stream, bs, be, &info.name, &mut |name| {
                intern(name, &mut lock_names)
            });
            let acquires: Vec<Acquire> = acquires
                .into_iter()
                .filter(|a| !file.is_test(a.line))
                .map(|mut a| {
                    a.allowed = allowed(a.line);
                    a
                })
                .collect();

            // (2) Condvar waits must sit inside a loop.
            let loops = callgraph::loop_ranges(stream, bs, be);
            for (idx, line) in condvar_waits(stream, bs, be) {
                if file.is_test(line) || allowed(line) {
                    continue;
                }
                if !loops.iter().any(|&(lo, hi)| lo <= idx && idx < hi) {
                    findings.push(finding(
                        &path,
                        line,
                        "`Condvar::wait` outside a predicate loop — spurious wakeups make a bare \
                         wait incorrect; use `while !cond { wait }` or `wait_while`"
                            .to_string(),
                    ));
                }
            }

            // Intra-body acquired-before edges: anything acquired while a
            // prior acquire is still held.
            for a in acquires.iter().filter(|a| !a.allowed) {
                for b in &acquires {
                    if b.idx > a.idx && b.idx < a.release_idx && !b.allowed {
                        edge_sites
                            .entry((a.lock, b.lock))
                            .or_insert_with(|| (path.clone(), b.line));
                    }
                }
            }

            // Map this body to its call-graph node for the
            // inter-procedural part.
            let Some(node_idx) =
                graph.nodes.iter().position(|n| n.file == path && n.line == item.line)
            else {
                continue;
            };
            for a in &acquires {
                if !a.allowed {
                    direct[node_idx].insert(a.lock);
                }
            }
            for (call_idx, edge) in graph.nodes[node_idx].calls.iter().enumerate() {
                let held: BTreeSet<usize> = acquires
                    .iter()
                    .filter(|a| !a.allowed && a.line <= edge.line && edge.line <= a.release_line)
                    .map(|a| a.lock)
                    .collect();
                if held.is_empty() || allowed(edge.line) {
                    continue;
                }
                // (3) Dispatch-under-lock check works on the callee text,
                // so it also catches external `seeker_par::*` calls.
                let tail = edge.callee.rsplit("::").next().unwrap_or(&edge.callee);
                if PAR_FAMILY.contains(&tail) {
                    for &l in &held {
                        let message = format!(
                            "lock `{}` held across `{}` — release it before dispatching to the pool",
                            lock_names[l], edge.callee
                        );
                        findings.push(finding(&path, edge.line, message));
                    }
                }
                held_at.push((node_idx, call_idx, held));
            }
        }
    }

    // Inter-procedural edges: held locks → everything the callee may
    // transitively acquire.
    let adjacency: Vec<Vec<usize>> = graph
        .nodes
        .iter()
        .map(|n| n.calls.iter().flat_map(|e| CallGraph::targets_of(e).to_vec()).collect())
        .collect();
    let closure = acquire_closure(&direct, &adjacency);
    for (node_idx, call_idx, held) in &held_at {
        let edge = &graph.nodes[*node_idx].calls[*call_idx];
        for &target in CallGraph::targets_of(edge) {
            for &to in &closure[target] {
                for &from in held {
                    edge_sites
                        .entry((from, to))
                        .or_insert_with(|| (graph.nodes[*node_idx].file.clone(), edge.line));
                }
            }
        }
    }

    // (1) Cycle detection over the lock graph via transitive closure.
    let n = lock_names.len();
    let mut reach = vec![vec![false; n]; n];
    for &(from, to) in edge_sites.keys() {
        reach[from][to] = true;
    }
    for k in 0..n {
        for i in 0..n {
            for j in 0..n {
                reach[i][j] = reach[i][j] || (reach[i][k] && reach[k][j]);
            }
        }
    }
    let mut in_cycle_component: Vec<Option<usize>> = vec![None; n];
    let mut component_count = 0usize;
    for i in 0..n {
        if reach[i][i] && in_cycle_component[i].is_none() {
            for (j, slot) in in_cycle_component.iter_mut().enumerate() {
                if reach[i][j] && reach[j][i] {
                    *slot = Some(component_count);
                }
            }
            component_count += 1;
        }
    }
    for c in 0..component_count {
        let locks: Vec<String> = (0..n)
            .filter(|&i| in_cycle_component[i] == Some(c))
            .map(|i| lock_names[i].clone())
            .collect();
        let (file, line) = edge_sites
            .iter()
            .find(|((from, to), _)| {
                in_cycle_component[*from] == Some(c) && in_cycle_component[*to] == Some(c)
            })
            .map(|(_, site)| site.clone())
            .unwrap_or_default();
        let message = format!(
            "acquisition-order cycle between {{{}}} — two threads interleaving these orders \
             deadlock; impose one global order",
            locks.join(", ")
        );
        findings.push(finding(&file, line, message));
    }

    let mut locks = lock_names.clone();
    locks.sort();
    let mut edges: Vec<LockEdge> = edge_sites
        .iter()
        .map(|(&(from, to), (file, line))| LockEdge {
            from: lock_names[from].clone(),
            to: lock_names[to].clone(),
            file: file.clone(),
            line: *line,
        })
        .collect();
    edges.sort_by(|a, b| (&a.from, &a.to).cmp(&(&b.from, &b.to)));
    findings.sort_by_key(|f| f.line);
    LockOrderReport { locks, edges, findings }
}

/// The transitive acquire-closure: `closure[i]` is everything function `i`
/// may acquire directly or through any chain of calls (`adjacency[i]` =
/// callee indices, `Resolved` and `Ambiguous` alike).
///
/// Pure and monotone in both arguments: inserting a call edge or a direct
/// acquisition can only grow the result (property-tested below).
#[must_use]
pub fn acquire_closure(
    direct: &[BTreeSet<usize>],
    adjacency: &[Vec<usize>],
) -> Vec<BTreeSet<usize>> {
    let mut closure = direct.to_vec();
    loop {
        let mut changed = false;
        for i in 0..closure.len() {
            for &callee in adjacency.get(i).map_or(&[][..], Vec::as_slice) {
                if callee == i || callee >= closure.len() {
                    continue;
                }
                let add: Vec<usize> =
                    closure[callee].iter().copied().filter(|l| !closure[i].contains(l)).collect();
                if !add.is_empty() {
                    closure[i].extend(add);
                    changed = true;
                }
            }
        }
        if !changed {
            return closure;
        }
    }
}

/// Collects every `fn` item of the tree (any nesting) into `out`.
fn collect_fns<'a>(items: &'a [Item], out: &mut Vec<&'a Item>) {
    for item in items {
        if item.kind == ItemKind::Fn {
            out.push(item);
        }
        collect_fns(&item.children, out);
    }
}

/// Scans `[bs, be)` for lock acquisitions.
fn scan_acquires(
    stream: &TokenStream<'_>,
    bs: usize,
    be: usize,
    crate_name: &str,
    intern: &mut impl FnMut(String) -> usize,
) -> Vec<Acquire> {
    let mut acquires = Vec::new();
    for i in bs..be {
        let Some(t) = stream.code(i) else { break };
        let lock_name = if t.is_punct(".") {
            let Some(m) = stream.code(i + 1) else { continue };
            if !stream.code(i + 2).is_some_and(|u| u.is_punct("(")) {
                continue;
            }
            if m.is_ident("lock") && stream.code(i + 3).is_some_and(|u| u.is_punct(")")) {
                match receiver_tail(stream, i) {
                    Some(name) if !IO_RECEIVERS.contains(&name) => name.to_string(),
                    _ => continue,
                }
            } else if let Some((_, fixed)) =
                HELPER_METHODS.iter().find(|(h, _)| m.kind == TokenKind::Ident && m.text == *h)
            {
                (*fixed).to_string()
            } else {
                continue;
            }
        } else if t.kind == TokenKind::Ident
            && HELPER_FNS.contains(&t.text)
            && stream.code(i + 1).is_some_and(|u| u.is_punct("("))
            && !(i > 0 && stream.code(i - 1).is_some_and(|u| u.is_punct(".") || u.is_ident("fn")))
        {
            match first_arg_tail(stream, i + 1, be) {
                Some(name) => name,
                None => continue,
            }
        } else {
            continue;
        };
        let lock = intern(format!("{crate_name}::{lock_name}"));
        let (release_idx, release_line) = release_point(stream, bs, be, i);
        acquires.push(Acquire {
            lock,
            idx: i,
            line: t.line,
            release_idx,
            release_line,
            allowed: false,
        });
    }
    acquires
}

/// The identifier directly before the `.` at code index `dot` (skipping one
/// balanced `(...)` call suffix, so `test_mutex().lock()` names
/// `test_mutex`).
fn receiver_tail<'a>(stream: &TokenStream<'a>, dot: usize) -> Option<&'a str> {
    let mut j = dot.checked_sub(1)?;
    if stream.code(j).is_some_and(|u| u.is_punct(")")) {
        let mut depth = 1isize;
        while depth > 0 {
            j = j.checked_sub(1)?;
            match stream.code(j).map_or("", |u| u.text) {
                ")" => depth += 1,
                "(" => depth -= 1,
                _ => {}
            }
        }
        j = j.checked_sub(1)?;
    }
    let t = stream.code(j)?;
    (t.kind == TokenKind::Ident).then_some(t.text)
}

/// The last identifier of a helper call's first argument (`lock(&self.state)`
/// → `state`, `lock_ignore_poison(counter_registry())` → `counter_registry`).
fn first_arg_tail(stream: &TokenStream<'_>, open: usize, be: usize) -> Option<String> {
    let mut depth = 0isize;
    let mut last_ident: Option<&str> = None;
    for j in open..be {
        let t = stream.code(j)?;
        match t.text {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            "," if depth == 1 => break,
            _ => {
                // Depth 1 only: identifiers inside nested groups
                // (`lock(&slots[c])`) are index/argument expressions, not
                // the lock's name.
                if depth == 1 && t.kind == TokenKind::Ident && t.text != "self" {
                    last_ident = Some(t.text);
                }
            }
        }
    }
    last_ident.map(str::to_string)
}

/// Where the guard acquired at code index `i` is released: a let-bound or
/// reassigned guard at the first `drop(<var>)` after the acquisition or the
/// close of the enclosing block, an unbound temporary at the end of its
/// statement. Returns `(one past the release token, its line)`.
fn release_point(stream: &TokenStream<'_>, bs: usize, be: usize, i: usize) -> (usize, usize) {
    let line_of = |idx: usize| stream.code(idx.min(be.saturating_sub(1))).map_or(0, |t| t.line);
    // Find the statement start: the token after the previous `;`, `{` or
    // `}` (any depth change ends the previous statement for this purpose).
    let mut start = i;
    while start > bs {
        if stream.code(start - 1).is_some_and(|t| matches!(t.text, ";" | "{" | "}")) {
            break;
        }
        start -= 1;
    }
    // `let [mut] IDENT =` or `IDENT =` at the statement start binds the
    // guard (or a value derived from it — held-over-approximation).
    let mut s = start;
    if stream.code(s).is_some_and(|t| t.is_ident("let")) {
        s += 1;
    }
    if stream.code(s).is_some_and(|t| t.is_ident("mut")) {
        s += 1;
    }
    let bound = match (stream.code(s), stream.code(s + 1)) {
        (Some(var), Some(eq)) if var.kind == TokenKind::Ident && eq.is_punct("=") && s < i => {
            Some(var.text)
        }
        _ => None,
    };
    if let Some(var) = bound {
        // Released at `drop(var)` or at the close of the enclosing block.
        let mut depth = 0isize;
        for j in i..be {
            let Some(t) = stream.code(j) else { break };
            match t.text {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth < 0 {
                        return (j, line_of(j));
                    }
                }
                "drop"
                    if t.kind == TokenKind::Ident
                        && stream.code(j + 1).is_some_and(|u| u.is_punct("("))
                        && stream.code(j + 2).is_some_and(|u| u.is_ident(var))
                        && stream.code(j + 3).is_some_and(|u| u.is_punct(")")) =>
                {
                    return (j + 4, line_of(j));
                }
                _ => {}
            }
        }
        (be, line_of(be))
    } else {
        // Temporary: dropped at the end of the statement (conservatively,
        // the next `;` or same-depth `,`).
        let mut depth = 0isize;
        for j in i..be {
            let Some(t) = stream.code(j) else { break };
            match t.text {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth -= 1;
                    if depth < 0 {
                        return (j, line_of(j));
                    }
                }
                ";" if depth == 0 => return (j, line_of(j)),
                "," if depth == 0 => return (j, line_of(j)),
                _ => {}
            }
        }
        (be, line_of(be))
    }
}

/// `(code index, line)` of every `.wait(`/`.wait_while(` call in `[bs, be)`.
fn condvar_waits(stream: &TokenStream<'_>, bs: usize, be: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for i in bs..be {
        let Some(t) = stream.code(i) else { break };
        if t.is_punct(".")
            && stream.code(i + 1).is_some_and(|u| u.is_ident("wait") || u.is_ident("wait_while"))
            && stream.code(i + 2).is_some_and(|u| u.is_punct("("))
        {
            out.push((i, t.line));
        }
    }
    out
}

/// Renders the lock-order graph and findings (for `--lock-order`).
#[must_use]
pub fn render_lock_graph(report: &LockOrderReport) -> String {
    let mut out = String::from("lock-order graph (non-test library code):\n");
    out.push_str(&format!("  locks ({}):\n", report.locks.len()));
    for l in &report.locks {
        out.push_str(&format!("    {l}\n"));
    }
    if report.edges.is_empty() {
        out.push_str("  acquired-before edges: (none)\n");
    } else {
        out.push_str(&format!("  acquired-before edges ({}):\n", report.edges.len()));
        for e in &report.edges {
            out.push_str(&format!(
                "    {} -> {}  [{}:{}]\n",
                e.from,
                e.to,
                e.file.display(),
                e.line
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch::workspace;
    use crate::walk::Workspace;
    use proptest::prelude::*;

    fn run(lib: &str) -> LockOrderReport {
        let root = workspace(lib);
        let workspace = Workspace::read(&root).expect("walk");
        lock_order(&Index::new(&workspace))
    }

    fn messages(report: &LockOrderReport) -> Vec<&str> {
        report.findings.iter().map(|f| f.message.as_str()).collect()
    }

    const HEADER: &str = "//! A.\n#![deny(missing_docs)]\nuse std::sync::{Condvar, Mutex};\nstatic A: Mutex<u32> = Mutex::new(0);\nstatic B: Mutex<u32> = Mutex::new(0);\n";

    #[test]
    fn two_lock_cycle_is_detected() {
        let report = run(&format!(
            "{HEADER}/// ab.\npub fn ab() {{\n    let a = A.lock().expect(\"a\");\n    let b = B.lock().expect(\"b\");\n    drop(b);\n    drop(a);\n}}\n/// ba.\npub fn ba() {{\n    let b = B.lock().expect(\"b\");\n    let a = A.lock().expect(\"a\");\n    drop(a);\n    drop(b);\n}}\n"
        ));
        assert_eq!(report.locks, vec!["alpha::A", "alpha::B"]);
        assert_eq!(report.edges.len(), 2, "{report:?}");
        assert_eq!(
            messages(&report),
            ["acquisition-order cycle between {alpha::A, alpha::B} — two threads interleaving \
              these orders deadlock; impose one global order"],
            "{:?}",
            report.findings
        );
    }

    #[test]
    fn consistent_order_has_edges_but_no_cycle() {
        let report = run(&format!(
            "{HEADER}/// ab.\npub fn ab() {{\n    let a = A.lock().expect(\"a\");\n    let b = B.lock().expect(\"b\");\n    drop(b);\n    drop(a);\n}}\n/// ab2.\npub fn ab2() {{\n    let a = A.lock().expect(\"a\");\n    let b = B.lock().expect(\"b\");\n    drop(b);\n    drop(a);\n}}\n"
        ));
        assert_eq!(report.edges.len(), 1);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
    }

    #[test]
    fn drop_releases_the_guard_before_the_next_acquire() {
        // A released via drop() before B is taken: no edge, no cycle even
        // with the reverse order elsewhere.
        let report = run(&format!(
            "{HEADER}/// ab.\npub fn ab() {{\n    let a = A.lock().expect(\"a\");\n    drop(a);\n    let b = B.lock().expect(\"b\");\n    drop(b);\n}}\n/// ba.\npub fn ba() {{\n    let b = B.lock().expect(\"b\");\n    drop(b);\n    let a = A.lock().expect(\"a\");\n    drop(a);\n}}\n"
        ));
        assert!(report.edges.is_empty(), "{:?}", report.edges);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
    }

    #[test]
    fn interprocedural_cycle_through_the_call_graph() {
        let report = run(&format!(
            "{HEADER}/// outer.\npub fn outer() {{\n    let a = A.lock().expect(\"a\");\n    inner();\n    drop(a);\n}}\n/// inner.\npub fn inner() {{\n    let b = B.lock().expect(\"b\");\n    drop(b);\n}}\n/// other.\npub fn other() {{\n    let b = B.lock().expect(\"b\");\n    leaf();\n    drop(b);\n}}\n/// leaf.\npub fn leaf() {{\n    let a = A.lock().expect(\"a\");\n    drop(a);\n}}\n"
        ));
        assert!(
            messages(&report).iter().any(|m| m.starts_with("acquisition-order cycle between")),
            "{:?}",
            report.findings
        );
    }

    #[test]
    fn wait_outside_a_loop_is_flagged_and_predicate_loop_passes() {
        let report = run(&format!(
            "{HEADER}static CV: Condvar = Condvar::new();\n/// bad.\npub fn bad() {{\n    let g = A.lock().expect(\"a\");\n    let _g = CV.wait(g).expect(\"wait\");\n}}\n/// good.\npub fn good() {{\n    let mut g = A.lock().expect(\"a\");\n    while *g == 0 {{\n        g = CV.wait(g).expect(\"wait\");\n    }}\n    drop(g);\n}}\n"
        ));
        let waits: Vec<usize> = report
            .findings
            .iter()
            .filter(|f| f.message.starts_with("`Condvar::wait` outside a predicate loop"))
            .map(|f| f.line)
            .collect();
        assert_eq!(waits.len(), 1, "{:?}", report.findings);
    }

    #[test]
    fn lock_held_across_par_map_is_flagged() {
        let report = run(&format!(
            "{HEADER}/// held.\npub fn held(items: &[u32]) -> Vec<u32> {{\n    let g = A.lock().expect(\"a\");\n    let out = seeker_par::par_map(items, |x| *x + *g);\n    drop(g);\n    out\n}}\n"
        ));
        assert_eq!(
            messages(&report),
            ["lock `alpha::A` held across `seeker_par::par_map` — release it before dispatching \
              to the pool"],
            "{:?}",
            report.findings
        );
    }

    #[test]
    fn allow_comment_removes_the_site_from_the_graph() {
        let report = run(&format!(
            "{HEADER}/// ab.\npub fn ab() {{\n    let a = A.lock().expect(\"a\");\n    // lint:allow(lock-order) -- init-order proven by OnceLock\n    let b = B.lock().expect(\"b\");\n    drop(b);\n    drop(a);\n}}\n/// ba.\npub fn ba() {{\n    let b = B.lock().expect(\"b\");\n    let a = A.lock().expect(\"a\");\n    drop(a);\n    drop(b);\n}}\n"
        ));
        assert_eq!(report.edges.len(), 1, "{:?}", report.edges);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
    }

    #[test]
    fn io_lock_receivers_are_not_indexed() {
        let report = run(&format!(
            "{HEADER}/// w.\npub fn w() {{\n    let stderr = std::io::stderr();\n    let _h = stderr.lock();\n}}\n"
        ));
        assert!(report.locks.is_empty(), "{:?}", report.locks);
    }

    #[test]
    fn helper_fn_acquisitions_are_indexed_by_argument() {
        let report = run(&format!(
            "{HEADER}/// Registry-style helper call sites name the lock by the\n/// argument tail.\npub fn bump() {{\n    let mut reg = lock_ignore_poison(registry());\n    *reg += 1;\n}}\n/// The registry.\nfn registry() -> &'static Mutex<u32> {{\n    &A\n}}\n"
        ));
        assert_eq!(report.locks, vec!["alpha::registry"]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Inserting one call-graph edge can only grow every function's
        /// acquire-closure — the fixpoint is monotone, so the conservative
        /// analysis can never lose a held-lock fact as the graph grows.
        #[test]
        fn acquire_closure_is_monotone_under_edge_insertion(
            n in 1usize..8,
            locks in proptest::collection::vec(0usize..6, 0..16),
            lock_owner in proptest::collection::vec(0usize..8, 0..16),
            edge_from in proptest::collection::vec(0usize..8, 0..12),
            edge_to in proptest::collection::vec(0usize..8, 0..12),
            extra_from in 0usize..8,
            extra_to in 0usize..8,
        ) {
            let mut direct = vec![BTreeSet::new(); n];
            for (l, o) in locks.iter().zip(&lock_owner) {
                direct[o % n].insert(*l);
            }
            let mut adjacency = vec![Vec::new(); n];
            for (f, t) in edge_from.iter().zip(&edge_to) {
                adjacency[f % n].push(t % n);
            }
            let before = acquire_closure(&direct, &adjacency);
            adjacency[extra_from % n].push(extra_to % n);
            let after = acquire_closure(&direct, &adjacency);
            for i in 0..n {
                prop_assert!(
                    before[i].is_subset(&after[i]),
                    "closure shrank at node {} after adding an edge",
                    i
                );
            }
        }
    }
}
