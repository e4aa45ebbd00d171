//! A workspace-wide function call graph built on the item trees from
//! [`crate::syntax`].
//!
//! Nodes are the functions of every *library* source file (binary roots and
//! test code are excluded); edges come from three syntactic call forms:
//!
//! 1. **path calls** — `seg::seg::name(…)`, resolved through `use`-alias
//!    substitution, `crate`/`self`/`super` normalization, and workspace
//!    crate names;
//! 2. **bare calls** — `name(…)`, resolved against the free functions of
//!    the calling crate (same file first, then crate-wide);
//! 3. **method calls** — `recv.name(…)`, resolved by *name* against every
//!    `impl`/`trait` block in the workspace (no type inference).
//!
//! Resolution is honest about its limits: a call that matches more than one
//! candidate becomes [`CallTarget::Ambiguous`] with *all* candidates —
//! never dropped, never arbitrarily picked — so analyses over the graph
//! ([`crate::panics`], [`crate::hotpath`]) are conservative
//! over-approximations. A call whose path leaves the workspace (`std::…`,
//! vendored crates, or a name nothing in the workspace defines) is
//! [`CallTarget::External`].
//!
//! Known over-approximations (documented in `docs/LINTING.md`): calls
//! inside nested functions and closures are attributed to the enclosing
//! named function; tokens inside macro invocation arguments are scanned as
//! ordinary code; method resolution ignores the receiver type entirely.

use crate::rules::Rule;
use crate::syntax::{Item, ItemKind, Vis, STMT_KEYWORDS};
use crate::tokens::{TokenKind, TokenStream};
use crate::walk::{Index, SourceFile};

use std::collections::BTreeMap;
use std::path::PathBuf;

/// Where a call edge leads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallTarget {
    /// Exactly one workspace function matched: the node index.
    Resolved(usize),
    /// More than one candidate matched (method-name collisions, duplicate
    /// free-function names). All candidate node indices, sorted.
    Ambiguous(Vec<usize>),
    /// The call leaves the workspace (std, vendored deps) or names nothing
    /// the graph indexes (closures, macro-generated functions).
    External,
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallEdge {
    /// The callee as written (`seeker_par::par_map`, `.clone`, `helper`).
    pub callee: String,
    /// 1-based source line of the call site.
    pub line: usize,
    /// Resolution result.
    pub target: CallTarget,
}

/// Why a function counts as a direct panic source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PanicKind {
    /// `panic!`, `todo!`, `unimplemented!` or `unreachable!`.
    Macro,
    /// `.unwrap()` or `.expect(…)`.
    Unwrap,
    /// Indexing with an integer literal (`xs[0]`).
    SliceIndex,
}

/// A direct panic site inside a function body.
#[derive(Debug, Clone)]
pub struct PanicSite {
    /// What panics.
    pub kind: PanicKind,
    /// The offending token text (`panic`, `unwrap`, `[0]`).
    pub what: String,
    /// 1-based source line.
    pub line: usize,
}

/// An allocation inside a loop body (candidate hot-path finding).
#[derive(Debug, Clone)]
pub struct LoopAlloc {
    /// The allocating construct as written (`Vec::new`, `.clone`,
    /// `format!`).
    pub what: String,
    /// 1-based source line.
    pub line: usize,
    /// Whether a `lint:allow(hot-alloc)` comment sanctions the site.
    pub allowed: bool,
}

/// One function node of the workspace call graph.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Stable id: `lib_name::module::[Type::]name`.
    pub id: String,
    /// The owning crate's library name (underscored).
    pub crate_name: String,
    /// Source file, relative to the workspace root.
    pub file: PathBuf,
    /// 1-based line of the function item.
    pub line: usize,
    /// The bare function name.
    pub name: String,
    /// For associated functions: the `impl`/`trait` self-type name.
    pub self_type: Option<String>,
    /// Whether the function itself is declared `pub` (ancestor visibility
    /// is not tracked — a deliberate over-approximation, so the panic lock
    /// can only gain entries, not silently lose them).
    pub is_pub: bool,
    /// Whether a `lint:allow(panic-reach)` comment on the signature line
    /// exempts this function from panic propagation.
    pub allow_panic: bool,
    /// Outgoing call edges, in source order.
    pub calls: Vec<CallEdge>,
    /// Direct panic sites in the body.
    pub panics: Vec<PanicSite>,
    /// Allocations inside loop bodies.
    pub loop_allocs: Vec<LoopAlloc>,
}

/// The workspace call graph.
#[derive(Debug, Clone, Default)]
pub struct CallGraph {
    /// All function nodes, in (file, line) order.
    pub nodes: Vec<FnNode>,
}

impl CallGraph {
    /// Node index by exact id.
    #[must_use]
    pub fn find(&self, id: &str) -> Option<usize> {
        self.nodes.iter().position(|n| n.id == id)
    }

    /// Iterates `(caller index, edge)` over every edge in the graph.
    pub fn edges(&self) -> impl Iterator<Item = (usize, &CallEdge)> {
        self.nodes.iter().enumerate().flat_map(|(i, n)| n.calls.iter().map(move |e| (i, e)))
    }

    /// The callee node indices an edge may lead to (empty for external).
    #[must_use]
    pub fn targets_of(edge: &CallEdge) -> &[usize] {
        match &edge.target {
            CallTarget::Resolved(i) => std::slice::from_ref(i),
            CallTarget::Ambiguous(is) => is,
            CallTarget::External => &[],
        }
    }
}

/// A function as collected before resolution.
struct ProtoNode {
    node: FnNode,
    raw_calls: Vec<RawCall>,
    file_index: usize,
}

/// A call site before resolution.
struct RawCall {
    /// Path segments for path/bare calls; the method name alone for method
    /// calls.
    path: Vec<String>,
    method: bool,
    line: usize,
}

/// Per-file context needed during resolution.
struct FileCtx {
    crate_lib: String,
    module_path: Vec<String>,
    /// alias → full path substitution from the file's `use` items.
    imports: BTreeMap<String, Vec<String>>,
}

/// Builds the call graph over the library files of the index; the index
/// keeps the one graph a process builds ([`Index::graph`]).
pub(crate) fn build_call_graph(index: &Index<'_>) -> CallGraph {
    let files: Vec<&SourceFile<'_>> = index.library_files().collect();
    // Body scanning is per-file independent: fan out over the pool (coarse
    // file-sized units, same shape as the rule driver).
    let parsed: Vec<(FileCtx, Vec<ProtoNode>)> =
        seeker_par::par_map_indexed_cost(files.len(), seeker_par::Cost::Heavy, |i| {
            collect_file(index, files[i], i)
        });

    let mut protos: Vec<ProtoNode> = Vec::new();
    let mut contexts: Vec<FileCtx> = Vec::new();
    for (ctx, file_protos) in parsed {
        contexts.push(ctx);
        protos.extend(file_protos);
    }
    protos.sort_by(|a, b| a.node.file.cmp(&b.node.file).then(a.node.line.cmp(&b.node.line)));

    let lib_names = index.crates.iter().map(|c| c.lib_name.clone()).collect();
    let resolver = Resolver::index(&protos, lib_names);
    let mut nodes: Vec<FnNode> = Vec::with_capacity(protos.len());
    for proto in &protos {
        let ctx = &contexts[proto.file_index];
        let mut node = proto.node.clone();
        node.calls = proto
            .raw_calls
            .iter()
            .map(|raw| resolver.resolve(raw, ctx, proto.node.self_type.as_deref()))
            .collect();
        nodes.push(node);
    }
    CallGraph { nodes }
}

/// Extracts one file's proto-nodes (no resolution yet).
fn collect_file(
    index: &Index<'_>,
    file: &SourceFile<'_>,
    file_index: usize,
) -> (FileCtx, Vec<ProtoNode>) {
    let crate_lib = index.crate_of(file).map_or("unknown", |c| c.lib_name.as_str()).to_string();
    let mut imports = BTreeMap::new();
    for item in file.tree.walk() {
        if matches!(item.kind, ItemKind::Use | ItemKind::ExternCrate) {
            for (alias, segs) in &item.imports {
                if alias != "*" {
                    imports.insert(alias.clone(), segs.clone());
                }
            }
        }
    }

    let mut protos = Vec::new();
    let mut scope = file.module.clone();
    collect_items(&file.tree.items, file, &crate_lib, &mut scope, None, file_index, &mut protos);
    (FileCtx { crate_lib, module_path: file.module.clone(), imports }, protos)
}

/// Recursively turns `fn` items into proto-nodes.
fn collect_items(
    items: &[Item],
    file: &SourceFile<'_>,
    crate_lib: &str,
    scope: &mut Vec<String>,
    self_type: Option<&str>,
    file_index: usize,
    out: &mut Vec<ProtoNode>,
) {
    for item in items {
        if item.cfg_test || file.is_test(item.line) {
            continue;
        }
        match item.kind {
            ItemKind::Fn => {
                let mut segs: Vec<&str> = scope.iter().map(String::as_str).collect();
                if let Some(t) = self_type {
                    segs.push(t);
                }
                segs.push(&item.name);
                let id = std::iter::once(crate_lib)
                    .chain(segs.iter().copied())
                    .collect::<Vec<_>>()
                    .join("::");
                let allow_panic = file.allowed(Rule::PanicReach, item.line);
                let (raw_calls, panics, loop_allocs) = match item.body_code {
                    Some((bs, be)) => scan_body(file, bs, be),
                    None => (Vec::new(), Vec::new(), Vec::new()),
                };
                out.push(ProtoNode {
                    node: FnNode {
                        id,
                        crate_name: crate_lib.to_string(),
                        file: file.path.to_path_buf(),
                        line: item.line,
                        name: item.name.clone(),
                        self_type: self_type.map(str::to_string),
                        is_pub: item.vis == Vis::Pub,
                        allow_panic,
                        calls: Vec::new(),
                        panics,
                        loop_allocs,
                    },
                    raw_calls,
                    file_index,
                });
            }
            ItemKind::Mod => {
                scope.push(item.name.clone());
                collect_items(&item.children, file, crate_lib, scope, None, file_index, out);
                scope.pop();
            }
            ItemKind::Impl | ItemKind::Trait => {
                let self_type = Some(item.name.as_str());
                collect_items(&item.children, file, crate_lib, scope, self_type, file_index, out);
            }
            _ => {}
        }
    }
}

/// Macro names whose invocation is a direct panic source.
const PANIC_MACROS: &[&str] = &["panic", "todo", "unimplemented", "unreachable"];

/// `.method()` names that allocate.
const ALLOC_METHODS: &[&str] = &["to_vec", "clone", "collect", "to_string", "to_owned"];

/// `Type::fn` pairs that allocate.
const ALLOC_PATHS: &[(&str, &str)] = &[("Vec", "new"), ("Box", "new"), ("String", "from")];

/// Scans one function body's code-token range for calls, panic sites and
/// loop allocations, in a single pass.
fn scan_body(
    file: &SourceFile<'_>,
    start: usize,
    end: usize,
) -> (Vec<RawCall>, Vec<PanicSite>, Vec<LoopAlloc>) {
    let stream = &file.stream;
    let mut calls = Vec::new();
    let mut panics = Vec::new();
    let mut allocs = Vec::new();
    let loops = loop_ranges(stream, start, end);
    let in_loop = |i: usize| loops.iter().any(|&(s, e)| i >= s && i < e);
    let alloc_allowed = |line: usize| file.allowed(Rule::HotAlloc, line);

    let mut i = start;
    while i < end {
        let Some(t) = stream.code(i) else { break };
        if t.kind != TokenKind::Ident && !(t.kind == TokenKind::Punct && t.text == ".") {
            i += 1;
            continue;
        }

        // Method call / method-form panic & alloc sources: `.name`.
        if t.is_punct(".") {
            if let Some(name_tok) = stream.code(i + 1) {
                if name_tok.kind == TokenKind::Ident {
                    let name = name_tok.text;
                    // Optional turbofish before the argument list.
                    let mut after = i + 2;
                    if stream.code(after).is_some_and(|t| t.is_punct("::")) {
                        after = skip_turbofish(stream, after + 1, end);
                    }
                    let has_args = stream.code(after).is_some_and(|t| t.is_punct("("));
                    if has_args {
                        if name == "unwrap" || name == "expect" {
                            panics.push(PanicSite {
                                kind: PanicKind::Unwrap,
                                what: name.to_string(),
                                line: name_tok.line,
                            });
                        }
                        calls.push(RawCall {
                            path: vec![name.to_string()],
                            method: true,
                            line: name_tok.line,
                        });
                        if ALLOC_METHODS.contains(&name) && in_loop(i) {
                            allocs.push(LoopAlloc {
                                what: format!(".{name}"),
                                line: name_tok.line,
                                allowed: alloc_allowed(name_tok.line),
                            });
                        }
                        i = after + 1;
                        continue;
                    }
                }
            }
            i += 1;
            continue;
        }

        // Identifier: macro invocation, path call, bare call, or index base.
        let word = t.text;
        if stream.code(i + 1).is_some_and(|n| n.is_punct("!")) {
            if PANIC_MACROS.contains(&word) {
                panics.push(PanicSite {
                    kind: PanicKind::Macro,
                    what: word.to_string(),
                    line: t.line,
                });
            }
            if word == "format" && in_loop(i) {
                allocs.push(LoopAlloc {
                    what: "format!".to_string(),
                    line: t.line,
                    allowed: alloc_allowed(t.line),
                });
            }
            i += 2;
            continue;
        }

        // A path: Ident (:: Ident)* — possibly ending in a call.
        if STMT_KEYWORDS.contains(&word) {
            i += 1;
            continue;
        }
        let mut segs = vec![word.to_string()];
        let mut j = i + 1;
        while stream.code(j).is_some_and(|t| t.is_punct("::"))
            && stream.code(j + 1).is_some_and(|t| t.kind == TokenKind::Ident)
        {
            segs.push(stream.code(j + 1).map_or("", |t| t.text).to_string());
            j += 2;
        }
        // Optional turbofish: `::<…>` between the path and the arg list.
        let mut after = j;
        if stream.code(after).is_some_and(|t| t.is_punct("::"))
            && stream.code(after + 1).is_some_and(|t| t.is_punct("<"))
        {
            after = skip_turbofish(stream, after + 1, end);
        }
        if stream.code(after).is_some_and(|t| t.is_punct("(")) {
            // Skip definitions re-encountered mid-body (closures have no
            // name; nested `fn` items were consumed by the parser but their
            // bodies are still in our token range — their calls are
            // attributed here by design).
            let prev_is_fn = i > start && stream.code(i - 1).is_some_and(|p| p.is_ident("fn"));
            if !prev_is_fn {
                if segs.len() == 2 {
                    if let Some(&(ty, f)) =
                        ALLOC_PATHS.iter().find(|&&(ty, f)| segs[0] == ty && segs[1] == f)
                    {
                        if in_loop(i) {
                            allocs.push(LoopAlloc {
                                what: format!("{ty}::{f}"),
                                line: t.line,
                                allowed: alloc_allowed(t.line),
                            });
                        }
                    }
                }
                calls.push(RawCall { path: segs, method: false, line: t.line });
            }
            i = after + 1;
            continue;
        }

        // Slice index by literal: `base[0]` where base ends in Ident/`)`/`]`.
        if stream.code(j).is_some_and(|t| t.is_punct("["))
            && stream.code(j + 1).is_some_and(|t| t.kind == TokenKind::Int)
            && stream.code(j + 2).is_some_and(|t| t.is_punct("]"))
        {
            let lit = stream.code(j + 1).map_or("", |t| t.text);
            panics.push(PanicSite {
                kind: PanicKind::SliceIndex,
                what: format!("[{lit}]"),
                line: t.line,
            });
            i = j + 3;
            continue;
        }
        i = j.max(i + 1);
    }
    (calls, panics, allocs)
}

/// Skips a turbofish starting at the `<` (code index `lt`); returns the
/// index one past the matching `>`.
fn skip_turbofish(stream: &TokenStream<'_>, lt: usize, end: usize) -> usize {
    let mut depth = 0isize;
    let mut j = lt;
    while j < end {
        match stream.code(j).map_or("", |t| t.text) {
            "<" => depth += 1,
            "<<" => depth += 2,
            ">" => depth -= 1,
            ">>" => depth -= 2,
            "(" | "{" | ";" => return lt, // not a turbofish after all
            _ => {}
        }
        j += 1;
        if depth <= 0 {
            break;
        }
    }
    j
}

/// The code-token index ranges of all loop bodies (for/while/loop) inside
/// `[start, end)`, outermost and nested alike.
pub(crate) fn loop_ranges(
    stream: &TokenStream<'_>,
    start: usize,
    end: usize,
) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut i = start;
    while i < end {
        let Some(t) = stream.code(i) else { break };
        if t.kind == TokenKind::Ident && matches!(t.text, "for" | "while" | "loop") {
            // Find the body `{` at zero paren/bracket depth (the loop
            // header may contain parenthesised expressions).
            let mut depth = 0isize;
            let mut j = i + 1;
            while j < end {
                match stream.code(j).map_or("", |t| t.text) {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "{" if depth == 0 => break,
                    // A `;` before the `{` means this `for`/`while` wasn't
                    // a loop header after all (e.g. `for` inside a type).
                    ";" if depth == 0 => {
                        j = end;
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
            if j < end {
                let close = match_brace(stream, j, end);
                ranges.push((j + 1, close));
            }
        }
        i += 1;
    }
    ranges
}

/// Brace matching over code tokens: index of the `}` matching the `{` at
/// `open`.
pub(crate) fn match_brace(stream: &TokenStream<'_>, open: usize, end: usize) -> usize {
    let mut depth = 1usize;
    let mut j = open + 1;
    while j < end {
        match stream.code(j).map_or("", |t| t.text) {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
        j += 1;
    }
    end.saturating_sub(1)
}

/// Resolution indices over the proto-nodes.
struct Resolver<'p> {
    protos: &'p [ProtoNode],
    /// Exact id → node index.
    by_id: BTreeMap<&'p str, usize>,
    /// Method name → node indices of every associated fn with that name.
    by_method: BTreeMap<&'p str, Vec<usize>>,
    /// `(crate, name)` → free-function node indices.
    free_by_name: BTreeMap<(&'p str, &'p str), Vec<usize>>,
    /// `(Type, name)` → associated-fn node indices (across all crates).
    by_typefn: BTreeMap<(&'p str, &'p str), Vec<usize>>,
    /// Workspace library names.
    lib_names: Vec<String>,
}

impl<'p> Resolver<'p> {
    fn index(protos: &'p [ProtoNode], lib_names: Vec<String>) -> Self {
        let mut by_id = BTreeMap::new();
        let mut by_method: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut free_by_name: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        let mut by_typefn: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        for (i, p) in protos.iter().enumerate() {
            by_id.insert(p.node.id.as_str(), i);
            match &p.node.self_type {
                Some(ty) => {
                    by_method.entry(p.node.name.as_str()).or_default().push(i);
                    by_typefn.entry((ty.as_str(), p.node.name.as_str())).or_default().push(i);
                }
                None => {
                    free_by_name
                        .entry((p.node.crate_name.as_str(), p.node.name.as_str()))
                        .or_default()
                        .push(i);
                }
            }
        }
        Self { protos, by_id, by_method, free_by_name, by_typefn, lib_names }
    }

    fn resolve(&self, raw: &RawCall, ctx: &FileCtx, self_type: Option<&str>) -> CallEdge {
        let callee =
            if raw.method { format!(".{}", raw.path.join("::")) } else { raw.path.join("::") };
        let target = if raw.method {
            self.resolve_method(&raw.path[0])
        } else {
            self.resolve_path(&raw.path, ctx, self_type)
        };
        CallEdge { callee, line: raw.line, target }
    }

    fn resolve_method(&self, name: &str) -> CallTarget {
        match self.by_method.get(name).map(Vec::as_slice) {
            Some([one]) => CallTarget::Resolved(*one),
            Some(many) if !many.is_empty() => CallTarget::Ambiguous(many.to_vec()),
            _ => CallTarget::External,
        }
    }

    fn resolve_path(&self, path: &[String], ctx: &FileCtx, self_type: Option<&str>) -> CallTarget {
        // Substitute a `use` alias for the first segment.
        let mut segs: Vec<String> = path.to_vec();
        if let Some(full) = ctx.imports.get(&segs[0]) {
            let mut widened = full.clone();
            widened.extend(segs[1..].iter().cloned());
            segs = widened;
        }
        // Normalize `crate`/`self`/`super` and `Self`.
        match segs[0].as_str() {
            "crate" => {
                segs[0] = ctx.crate_lib.clone();
            }
            "self" => {
                let mut abs = vec![ctx.crate_lib.clone()];
                abs.extend(ctx.module_path.iter().cloned());
                abs.extend(segs[1..].iter().cloned());
                segs = abs;
            }
            "super" => {
                let mut parent = ctx.module_path.clone();
                parent.pop();
                let mut abs = vec![ctx.crate_lib.clone()];
                abs.extend(parent);
                abs.extend(segs[1..].iter().cloned());
                segs = abs;
            }
            "Self" => {
                if let Some(ty) = self_type {
                    segs[0] = ty.to_string();
                }
            }
            _ => {}
        }

        // Bare call: free fn in the calling crate.
        if segs.len() == 1 {
            return self.free_in_crate(&ctx.crate_lib, &segs[0]);
        }

        // `Type::fn` where Type is a workspace impl self-type.
        if segs.len() == 2 && !self.lib_names.contains(&segs[0]) {
            if let Some(hits) = self.by_typefn.get(&(segs[0].as_str(), segs[1].as_str())) {
                return narrowed(hits);
            }
            // Not a known type: maybe a module-qualified free fn of the
            // calling crate (`helpers::go()`).
            let mut abs = vec![ctx.crate_lib.clone()];
            abs.extend(segs.iter().cloned());
            if let Some(&i) = self.by_id.get(abs.join("::").as_str()) {
                return CallTarget::Resolved(i);
            }
            return CallTarget::External;
        }

        // Fully qualified path starting with a workspace crate name.
        if self.lib_names.contains(&segs[0]) {
            let id = segs.join("::");
            if let Some(&i) = self.by_id.get(id.as_str()) {
                return CallTarget::Resolved(i);
            }
            // `lib::Type::fn` / `lib::module::Type::fn`: fall back to the
            // `(Type, fn)` index restricted to that crate.
            if segs.len() >= 2 {
                let (ty, name) = (&segs[segs.len() - 2], &segs[segs.len() - 1]);
                if let Some(hits) = self.by_typefn.get(&(ty.as_str(), name.as_str())) {
                    let in_crate: Vec<usize> = hits
                        .iter()
                        .copied()
                        .filter(|&i| self.protos[i].node.crate_name == segs[0])
                        .collect();
                    if !in_crate.is_empty() {
                        return narrowed(&in_crate);
                    }
                }
                // Last resort: a free fn of that crate with the final name
                // (module path may differ from the file layout, e.g.
                // re-exports).
                return self.free_in_crate(&segs[0], &segs[segs.len() - 1]);
            }
            return CallTarget::External;
        }
        CallTarget::External
    }

    fn free_in_crate(&self, crate_lib: &str, name: &str) -> CallTarget {
        match self.free_by_name.get(&(crate_lib, name)).map(Vec::as_slice) {
            Some([one]) => CallTarget::Resolved(*one),
            Some(many) if !many.is_empty() => CallTarget::Ambiguous(many.to_vec()),
            _ => CallTarget::External,
        }
    }
}

/// Collapses a candidate list to `Resolved` when it has exactly one entry.
fn narrowed(hits: &[usize]) -> CallTarget {
    match hits {
        [one] => CallTarget::Resolved(*one),
        many => CallTarget::Ambiguous(many.to_vec()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch::{graph, workspace, write};

    fn graph_of(files: &[(&str, &str)]) -> CallGraph {
        let root = workspace("");
        for (rel, content) in files {
            write(&root, rel, content);
        }
        graph(&root)
    }

    #[test]
    fn free_and_method_calls_resolve() {
        let graph = graph_of(&[(
            "crates/alpha/src/lib.rs",
            "//! A.\n#![deny(missing_docs)]\n\nfn helper(x: u32) -> u32 { x }\n\n/// S.\npub struct S;\n\nimpl S {\n    fn m(&self) -> u32 { helper(1) }\n}\n\n/// E.\npub fn entry(s: &S) -> u32 { s.m() }\n",
        )]);
        let ids: Vec<&str> = graph.nodes.iter().map(|n| n.id.as_str()).collect();
        assert_eq!(ids, vec!["alpha::helper", "alpha::S::m", "alpha::entry"]);
        let m = graph.find("alpha::S::m").expect("m");
        let helper = graph.find("alpha::helper").expect("helper");
        assert_eq!(graph.nodes[m].calls[0].target, CallTarget::Resolved(helper));
        let entry = graph.find("alpha::entry").expect("entry");
        assert_eq!(graph.nodes[entry].calls[0].target, CallTarget::Resolved(m));
    }

    #[test]
    fn duplicate_method_names_are_ambiguous_not_dropped() {
        let graph = graph_of(&[(
            "crates/alpha/src/lib.rs",
            "//! A.\n#![deny(missing_docs)]\n\n/// S.\npub struct S;\n/// T.\npub struct T;\nimpl S { fn go(&self) {} }\nimpl T { fn go(&self) {} }\n\n/// E.\npub fn entry(s: &S) { s.go() }\n",
        )]);
        let entry = graph.find("alpha::entry").expect("entry");
        let target = &graph.nodes[entry].calls[0].target;
        match target {
            CallTarget::Ambiguous(hits) => assert_eq!(hits.len(), 2),
            other => panic!("expected ambiguous, got {other:?}"),
        }
    }

    #[test]
    fn panic_sites_and_loop_allocs_are_recorded() {
        let graph = graph_of(&[(
            "crates/alpha/src/lib.rs",
            "//! A.\n#![deny(missing_docs)]\n\nfn risky(v: &[u32]) -> u32 {\n    let first = v[0];\n    let mut out = Vec::new();\n    for x in v {\n        out.push(x.to_string());\n    }\n    first\n}\n",
        )]);
        let risky = graph.find("alpha::risky").expect("risky");
        let node = &graph.nodes[risky];
        assert_eq!(node.panics.len(), 1);
        assert_eq!(node.panics[0].kind, PanicKind::SliceIndex);
        // The Vec::new is OUTSIDE the loop; only .to_string is inside.
        assert_eq!(node.loop_allocs.len(), 1);
        assert_eq!(node.loop_allocs[0].what, ".to_string");
    }

    #[test]
    fn external_and_std_calls_stay_external() {
        let graph = graph_of(&[(
            "crates/alpha/src/lib.rs",
            "//! A.\n#![deny(missing_docs)]\n\n/// E.\npub fn entry() -> u32 { std::cmp::max(1, 2) }\n",
        )]);
        let entry = graph.find("alpha::entry").expect("entry");
        assert_eq!(graph.nodes[entry].calls[0].target, CallTarget::External);
    }

    #[test]
    fn use_alias_resolves_cross_module_calls() {
        let graph = graph_of(&[
            (
                "crates/alpha/src/lib.rs",
                "//! A.\n#![deny(missing_docs)]\nmod inner;\nuse crate::inner::deep;\n\n/// E.\npub fn entry() -> u32 { deep(1) }\n",
            ),
            ("crates/alpha/src/inner.rs", "pub(crate) fn deep(x: u32) -> u32 { x }\n"),
        ]);
        let entry = graph.find("alpha::entry").expect("entry");
        let deep = graph.find("alpha::inner::deep").expect("deep");
        assert_eq!(graph.nodes[entry].calls[0].target, CallTarget::Resolved(deep));
    }

    #[test]
    fn cfg_test_functions_are_excluded() {
        let graph = graph_of(&[(
            "crates/alpha/src/lib.rs",
            "//! A.\n#![deny(missing_docs)]\n\n/// L.\npub fn live() {}\n\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\n",
        )]);
        assert!(graph.find("alpha::live").is_some());
        assert!(graph.nodes.iter().all(|n| !n.id.contains("helper")));
    }
}
