//! A hand-rolled, std-only item-tree parser on top of the lossless token
//! stream from [`crate::lexer`].
//!
//! The parser brace-matches the token stream of one source file into a tree
//! of spanned [`Item`]s — `mod`, `fn`, `impl`, `trait`, `struct`, `enum`,
//! `use`, and the rest — with nesting, visibility, and test-only
//! attribution. The test-only rule lives here too, and the index's
//! test-only lines use it: code is test-only under `cfg(P)` when `P`
//! requires `test`. It is *not* a full Rust parser: it recovers the item
//! skeleton (who contains whom, where bodies start and end, what is public)
//! that the call-graph ([`crate::callgraph`]) and the semantic passes
//! ([`crate::panics`], [`crate::hotpath`]) need, and nothing more.
//!
//! ## Lossless invariant
//!
//! Every top-level item's byte span starts exactly where the previous
//! item's span ended (leading whitespace, doc comments and attributes are
//! part of the item they precede), the first span starts at byte 0, and the
//! bytes after the last item form the [`ItemTree::trailing_start`] tail.
//! Concatenating the item span texts plus the trailing tail reproduces the
//! file byte-for-byte — pinned by `tests/syntax_props.rs` over random
//! snippet assemblies and over every source file of the real workspace.
//! The same chaining applies one level down inside each braced body.
//!
//! The parser never fails: unrecognised constructs become
//! [`ItemKind::Other`] items and malformed input degrades to coarser spans,
//! but progress and the tiling invariant hold for arbitrary byte soup.

use crate::tokens::{TokenKind, TokenStream};

/// The syntactic class of an [`Item`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    /// `mod name;` or `mod name { … }` (the braced form has children).
    Mod,
    /// A function, free or associated (`fn`, `pub fn`, `const fn`, …).
    Fn,
    /// A `struct` definition (unit, tuple or braced).
    Struct,
    /// An `enum` definition.
    Enum,
    /// A `union` definition.
    Union,
    /// A `trait` definition; default-method children are parsed.
    Trait,
    /// An `impl` block; associated-`fn` children are parsed.
    Impl,
    /// A `use` declaration; its flattened imports are in [`Item::imports`].
    Use,
    /// A `type` alias.
    TypeAlias,
    /// A `const` item.
    Const,
    /// A `static` item.
    Static,
    /// A `macro_rules!` or 2018 `macro` definition.
    MacroDef,
    /// An item-position macro invocation (`foo! { … }`).
    MacroInvocation,
    /// `extern crate name;`.
    ExternCrate,
    /// Anything the parser does not model (foreign `extern` blocks,
    /// stray tokens); kept so spans still tile the file.
    Other,
}

/// Item visibility, as far as the passes care.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Vis {
    /// `pub`: part of the crate's public API.
    Pub,
    /// `pub(crate)`, `pub(super)`, `pub(in …)`: restricted.
    Restricted,
    /// No visibility keyword.
    Private,
}

/// One parsed item with its exact byte span and (for containers) children.
#[derive(Debug, Clone)]
pub struct Item {
    /// The syntactic class.
    pub kind: ItemKind,
    /// The item's name: the `fn`/`struct`/`mod`/… identifier, the
    /// self-type name for `impl` blocks, or empty when the construct has
    /// no name (e.g. [`ItemKind::Use`], [`ItemKind::Other`]).
    pub name: String,
    /// The declared visibility.
    pub vis: Vis,
    /// Whether this item (or an ancestor) carries a `cfg(P)` attribute
    /// whose `P` requires `test` — test-only code the semantic passes skip.
    pub cfg_test: bool,
    /// 1-based line of the item's declaration: the first code token after
    /// its attributes (where the visibility or item keyword sits), so
    /// line-anchored escapes (`lint:allow` on the same or preceding line)
    /// address the signature, not an attribute above it.
    pub line: usize,
    /// Byte span start: equals the previous sibling's `span_end` (0 for the
    /// first item), so leading trivia belongs to the item it precedes.
    pub span_start: usize,
    /// Byte span end: one past the item's last byte (closing brace or `;`).
    pub span_end: usize,
    /// Code-token index range of the item in the file's [`TokenStream`]
    /// (attributes included), `[start, end)`.
    pub code_start: usize,
    /// One past the item's last code token.
    pub code_end: usize,
    /// For braced items, the code-token range strictly inside the braces.
    pub body_code: Option<(usize, usize)>,
    /// Parsed children, for `mod { }`, `trait { }` and `impl { }` bodies.
    pub children: Vec<Item>,
    /// For [`ItemKind::Impl`] blocks of the form `impl Trait for Type`:
    /// the trait name.
    pub trait_of: Option<String>,
    /// For [`ItemKind::Use`] / [`ItemKind::ExternCrate`]: the flattened
    /// `(alias, path segments)` imports. A glob import has alias `"*"`.
    pub imports: Vec<(String, Vec<String>)>,
}

/// The parse result for one file: the top-level items plus the trailing
/// trivia tail, together tiling the source exactly.
#[derive(Debug, Clone)]
pub struct ItemTree {
    /// Top-level items in source order.
    pub items: Vec<Item>,
    /// Byte offset where the post-last-item trailing trivia begins
    /// (equals `source_len` when the file ends exactly at an item).
    pub trailing_start: usize,
    /// Total length of the source in bytes.
    pub source_len: usize,
}

impl ItemTree {
    /// Depth-first iteration over all items (pre-order).
    pub fn walk(&self) -> impl Iterator<Item = &Item> {
        let mut stack: Vec<&Item> = self.items.iter().rev().collect();
        std::iter::from_fn(move || {
            let item = stack.pop()?;
            stack.extend(item.children.iter().rev());
            Some(item)
        })
    }
}

/// Parses one lexed source file into its item tree.
#[must_use]
pub fn parse_stream(stream: &TokenStream<'_>, source_len: usize) -> ItemTree {
    let parser = Parser { stream };
    let mut items = parser.parse_items(0, stream.code_len(), false);
    let trailing_start = assign_spans(stream, &mut items, 0);
    ItemTree { items, trailing_start, source_len }
}

/// Chains byte spans over `items` starting at `prev_end`; returns the byte
/// offset one past the last item (i.e. where trailing trivia begins).
fn assign_spans(stream: &TokenStream<'_>, items: &mut [Item], prev_end: usize) -> usize {
    let mut prev = prev_end;
    for item in items.iter_mut() {
        item.span_start = prev;
        let last = item.code_end.saturating_sub(1);
        item.span_end = stream.code(last).map_or(prev, |t| t.end()).max(prev);
        prev = item.span_end;
        if let Some((body_start, _)) = item.body_code {
            // Children tile the body interior: the first child starts just
            // after the opening brace.
            let open_end =
                stream.code(body_start.saturating_sub(1)).map_or(item.span_start, |t| t.end());
            assign_spans(stream, &mut item.children, open_end);
        }
    }
    prev
}

/// The workspace's one test-only rule. If code position `i` starts an outer
/// attribute `#[cfg(P)]` whose predicate `P` requires `test` — `P` is
/// `test`, or an `all(…)` with a conjunct that requires it — returns the
/// code position just past its closing `]`. `not(test)`, `any(test, …)` and
/// `cfg_attr(test, …)` guard code that production builds compile: not
/// test-only.
pub(crate) fn test_attr_end(stream: &TokenStream<'_>, i: usize) -> Option<usize> {
    let is = |k: usize, text: &str| stream.code(k).is_some_and(|t| t.text == text);
    if !(is(i, "#") && is(i + 1, "[") && stream.code(i + 2)?.is_ident("cfg") && is(i + 3, "(")) {
        return None;
    }
    let mut depth = 0usize;
    for close in i + 3..stream.code_len() {
        match stream.code(close)?.text {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    let test_only = requires_test(stream, i + 4, close) && is(close + 1, "]");
                    return test_only.then_some(close + 2);
                }
            }
            _ => {}
        }
    }
    None
}

/// Whether the `cfg` predicate in code positions `[start, end)` requires
/// `test`: it is `test`, or `all(…)` with a conjunct that does.
fn requires_test(stream: &TokenStream<'_>, start: usize, end: usize) -> bool {
    let text = |k: usize| stream.code(k).map_or("", |t| t.text);
    if end == start + 1 {
        return stream.code(start).is_some_and(|t| t.is_ident("test"));
    }
    let is_all = stream.code(start).is_some_and(|t| t.is_ident("all"));
    if !(is_all && text(start + 1) == "(" && end > start + 2 && text(end - 1) == ")") {
        return false;
    }
    let (mut depth, mut from) = (0usize, start + 2);
    for k in start + 2..end - 1 {
        match text(k) {
            "(" => depth += 1,
            ")" => depth = depth.saturating_sub(1),
            "," if depth == 0 => {
                if requires_test(stream, from, k) {
                    return true;
                }
                from = k + 1;
            }
            _ => {}
        }
    }
    requires_test(stream, from, end - 1)
}

/// Item keywords the dispatcher recognises directly.
const MODIFIERS: &[&str] = &["unsafe", "async", "default"];

/// Identifiers that look like calls but are control-flow keywords.
pub(crate) const STMT_KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "in", "as",
    "let", "move", "ref", "mut", "where", "dyn", "impl", "fn", "await",
];

struct Parser<'s, 'a> {
    stream: &'s TokenStream<'a>,
}

impl Parser<'_, '_> {
    fn text(&self, i: usize) -> &str {
        self.stream.code(i).map_or("", |t| t.text)
    }

    fn is_punct(&self, i: usize, p: &str) -> bool {
        self.stream.code(i).is_some_and(|t| t.is_punct(p))
    }

    fn is_ident(&self, i: usize, id: &str) -> bool {
        self.stream.code(i).is_some_and(|t| t.is_ident(id))
    }

    fn line_of(&self, i: usize) -> usize {
        self.stream.code(i).map_or(1, |t| t.line)
    }

    /// Finds the code index of the `}`/`]`/`)` matching the opener at
    /// `open` (which must be an opening delimiter). Returns `end` when
    /// unmatched, so callers still terminate.
    fn match_delim(&self, open: usize, end: usize) -> usize {
        let (o, c) = match self.text(open) {
            "{" => ("{", "}"),
            "[" => ("[", "]"),
            "(" => ("(", ")"),
            _ => return open,
        };
        let mut depth = 1usize;
        let mut j = open + 1;
        while j < end {
            if self.is_punct(j, o) {
                depth += 1;
            } else if self.is_punct(j, c) {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            j += 1;
        }
        end.saturating_sub(1)
    }

    /// Parses the items in code-token range `[start, end)`.
    fn parse_items(&self, start: usize, end: usize, inherited_test: bool) -> Vec<Item> {
        let mut items = Vec::new();
        let mut i = start;
        while i < end {
            let (item, next) = self.parse_item(i, end, inherited_test);
            debug_assert!(next > i, "item parser failed to advance");
            items.push(item);
            i = next.max(i + 1);
        }
        items
    }

    /// Parses a single item starting at code index `i`; returns it plus the
    /// code index to resume from.
    fn parse_item(&self, i: usize, end: usize, inherited_test: bool) -> (Item, usize) {
        let code_start = i;
        let mut cfg_test = inherited_test;
        let mut j = i;

        // Attributes: `#[…]` (outer) and `#![…]` (inner, file headers).
        while j < end && self.is_punct(j, "#") {
            let open = if self.is_punct(j + 1, "!") { j + 2 } else { j + 1 };
            if !self.is_punct(open, "[") {
                break;
            }
            let close = self.match_delim(open, end);
            if test_attr_end(self.stream, j).is_some() {
                cfg_test = true;
            }
            j = close + 1;
        }
        let line = self.line_of(j.min(end.saturating_sub(1)).max(i));

        // Visibility.
        let mut vis = Vis::Private;
        if self.is_ident(j, "pub") {
            vis = Vis::Pub;
            j += 1;
            if self.is_punct(j, "(") {
                vis = Vis::Restricted;
                j = self.match_delim(j, end) + 1;
            }
        }

        // Leading modifiers (`unsafe fn`, `async fn`, `const fn`,
        // `extern "C" fn`, `default fn`).
        loop {
            if MODIFIERS.contains(&self.text(j)) {
                j += 1;
            } else if self.is_ident(j, "const") && self.is_ident(j + 1, "fn") {
                j += 1;
            } else if self.is_ident(j, "extern")
                && self.stream.code(j + 1).is_some_and(|t| t.kind == TokenKind::Str)
                && self.is_ident(j + 2, "fn")
            {
                j += 2;
            } else {
                break;
            }
        }

        let make =
            |kind: ItemKind, name: String, code_end: usize, body: Option<(usize, usize)>| Item {
                kind,
                name,
                vis,
                cfg_test,
                line,
                span_start: 0,
                span_end: 0,
                code_start,
                code_end,
                body_code: body,
                children: Vec::new(),
                trait_of: None,
                imports: Vec::new(),
            };

        match self.text(j) {
            "mod" => {
                let name = self.ident_after(j);
                let (body, code_end) = self.scan_to_body_or_semi(j, end);
                let mut item = make(ItemKind::Mod, name, code_end, body);
                if let Some((bs, be)) = body {
                    item.children = self.parse_items(bs, be, cfg_test);
                }
                (item, code_end)
            }
            "fn" => {
                let name = self.ident_after(j);
                let (body, code_end) = self.scan_to_body_or_semi(j, end);
                (make(ItemKind::Fn, name, code_end, body), code_end)
            }
            "struct" => {
                let name = self.ident_after(j);
                let (body, code_end) = self.scan_to_body_or_semi(j, end);
                (make(ItemKind::Struct, name, code_end, body), code_end)
            }
            "enum" => {
                let name = self.ident_after(j);
                let (body, code_end) = self.scan_to_body_or_semi(j, end);
                (make(ItemKind::Enum, name, code_end, body), code_end)
            }
            "union" if self.stream.code(j + 1).is_some_and(|t| t.kind == TokenKind::Ident) => {
                let name = self.ident_after(j);
                let (body, code_end) = self.scan_to_body_or_semi(j, end);
                (make(ItemKind::Union, name, code_end, body), code_end)
            }
            "trait" => {
                let name = self.ident_after(j);
                let (body, code_end) = self.scan_to_body_or_semi(j, end);
                let mut item = make(ItemKind::Trait, name, code_end, body);
                if let Some((bs, be)) = body {
                    item.children = self.parse_items(bs, be, cfg_test);
                }
                (item, code_end)
            }
            "impl" => {
                let (name, trait_of, _) = self.impl_head(j + 1, end);
                let (body, code_end) = self.scan_to_body_or_semi(j, end);
                let mut item = make(ItemKind::Impl, name, code_end, body);
                item.trait_of = trait_of;
                if let Some((bs, be)) = body {
                    item.children = self.parse_items(bs, be, cfg_test);
                }
                (item, code_end)
            }
            "use" => {
                let code_end = self.scan_to_semi(j, end);
                let mut item = make(ItemKind::Use, String::new(), code_end, None);
                item.imports = self.parse_use_tree(j + 1, code_end);
                (item, code_end)
            }
            "type" => {
                let name = self.ident_after(j);
                let code_end = self.scan_to_semi(j, end);
                (make(ItemKind::TypeAlias, name, code_end, None), code_end)
            }
            "const" => {
                let name = self.ident_after(j);
                let code_end = self.scan_to_semi(j, end);
                (make(ItemKind::Const, name, code_end, None), code_end)
            }
            "static" => {
                // `static mut NAME` / `static NAME`.
                let after = if self.is_ident(j + 1, "mut") { j + 1 } else { j };
                let name = self.ident_after(after);
                let code_end = self.scan_to_semi(j, end);
                (make(ItemKind::Static, name, code_end, None), code_end)
            }
            "macro_rules" if self.is_punct(j + 1, "!") => {
                let name = self.ident_after(j + 1);
                let code_end = self.skip_macro_body(j + 2, end);
                (make(ItemKind::MacroDef, name, code_end, None), code_end)
            }
            "macro" => {
                let name = self.ident_after(j);
                let (body, code_end) = self.scan_to_body_or_semi(j, end);
                (make(ItemKind::MacroDef, name, code_end, body), code_end)
            }
            "extern" if self.is_ident(j + 1, "crate") => {
                let name = self.ident_after(j + 1);
                let code_end = self.scan_to_semi(j, end);
                let mut item = make(ItemKind::ExternCrate, name.clone(), code_end, None);
                let alias = if self.is_ident(j + 3, "as") { self.ident_after(j + 3) } else { name };
                let target = item.name.clone();
                item.imports = vec![(alias, vec![target])];
                (item, code_end)
            }
            "extern" => {
                // Foreign block `extern "C" { … }`.
                let (body, code_end) = self.scan_to_body_or_semi(j, end);
                (make(ItemKind::Other, String::new(), code_end, body), code_end)
            }
            _ => {
                // Item-position macro invocation (possibly path-qualified,
                // e.g. `seeker_obs::declare! { … }`), or something
                // unmodelled.
                if self.stream.code(j).is_some_and(|t| t.kind == TokenKind::Ident) {
                    let mut k = j;
                    while self.is_punct(k + 1, "::")
                        && self.stream.code(k + 2).is_some_and(|t| t.kind == TokenKind::Ident)
                    {
                        k += 2;
                    }
                    if self.is_punct(k + 1, "!") {
                        let name = self.text(k).to_string();
                        let code_end = self.skip_macro_body(k + 1, end);
                        return (make(ItemKind::MacroInvocation, name, code_end, None), code_end);
                    }
                }
                // Unknown leading token: consume a delimiter group whole,
                // otherwise a single token, so spans still tile.
                let code_end = if matches!(self.text(j), "{" | "(" | "[") {
                    self.match_delim(j, end) + 1
                } else {
                    j + 1
                };
                (make(ItemKind::Other, String::new(), code_end, None), code_end)
            }
        }
    }

    /// The first identifier after code index `i` (skipping one non-ident
    /// token at most — used right after a keyword).
    fn ident_after(&self, i: usize) -> String {
        for k in (i + 1)..(i + 3) {
            if let Some(t) = self.stream.code(k) {
                if t.kind == TokenKind::Ident {
                    return t.text.to_string();
                }
            }
        }
        String::new()
    }

    /// Scans from the item keyword at `kw` to the item terminator: a `{`
    /// body (consumed whole; its interior range is returned) or a `;`, at
    /// zero paren/bracket/angle depth. Returns `(body_range, resume_index)`.
    fn scan_to_body_or_semi(&self, kw: usize, end: usize) -> (Option<(usize, usize)>, usize) {
        let mut j = kw;
        let mut paren = 0isize;
        let mut angle = 0isize;
        while j < end {
            let t = self.text(j);
            match t {
                "(" | "[" => paren += 1,
                ")" | "]" => paren -= 1,
                "<" => angle += 1,
                "<<" => angle += 2,
                ">" if angle > 0 => angle -= 1,
                ">>" if angle > 0 => angle -= 2,
                "{" if paren == 0 && angle <= 0 => {
                    let close = self.match_delim(j, end);
                    return (Some((j + 1, close)), close + 1);
                }
                ";" if paren == 0 && angle <= 0 => return (None, j + 1),
                // An `=` ends any angle context opened by a generic default
                // (`struct S<T = u8> = …` cannot occur, but expressions
                // after `=` may contain `<` comparisons).
                "=" if paren == 0 => angle = 0,
                _ => {}
            }
            j += 1;
        }
        (None, end)
    }

    /// Scans to the `;` terminating a non-braced item (brace/paren groups
    /// on the way — e.g. `use a::{b, c};`, `const X: [u8; 2] = [0, 1];` —
    /// are consumed whole). Returns the resume index (one past the `;`).
    fn scan_to_semi(&self, from: usize, end: usize) -> usize {
        let mut j = from;
        while j < end {
            match self.text(j) {
                "{" | "(" | "[" => j = self.match_delim(j, end) + 1,
                ";" => return j + 1,
                _ => j += 1,
            }
        }
        end
    }

    /// Skips a macro body starting at the `!` (or the first delimiter):
    /// a `{…}` group, or a `(…)`/`[…]` group plus its trailing `;`.
    fn skip_macro_body(&self, from: usize, end: usize) -> usize {
        let mut j = from;
        // Skip `!` and an optional macro name (macro_rules! name).
        while j < end && !matches!(self.text(j), "{" | "(" | "[" | ";") {
            j += 1;
        }
        if j >= end {
            return end;
        }
        if self.text(j) == ";" {
            return j + 1;
        }
        let brace = self.text(j) == "{";
        let close = self.match_delim(j, end);
        let mut resume = close + 1;
        if !brace && self.is_punct(resume, ";") {
            resume += 1;
        }
        resume
    }

    /// Parses the head of an `impl` block (between the `impl` keyword and
    /// its body): returns `(self type name, trait name, head end)`.
    fn impl_head(&self, from: usize, end: usize) -> (String, Option<String>, usize) {
        let mut j = from;
        // Skip the generic parameter list.
        if self.is_punct(j, "<") {
            let mut angle = 0isize;
            while j < end {
                match self.text(j) {
                    "<" => angle += 1,
                    "<<" => angle += 2,
                    ">" => angle -= 1,
                    ">>" => angle -= 2,
                    _ => {}
                }
                j += 1;
                if angle <= 0 {
                    break;
                }
            }
        }
        // Collect the last identifier at angle depth 0 in each of the
        // pre-`for` and post-`for` regions.
        let mut before_for: Option<String> = None;
        let mut after_for: Option<String> = None;
        let mut saw_for = false;
        let mut angle = 0isize;
        while j < end {
            let t = self.text(j);
            match t {
                "{" | "where" if angle <= 0 => break,
                ";" => break,
                "<" => angle += 1,
                "<<" => angle += 2,
                ">" => angle -= 1,
                ">>" => angle -= 2,
                "for" if angle <= 0 => saw_for = true,
                _ => {
                    if angle <= 0
                        && self.stream.code(j).is_some_and(|tok| tok.kind == TokenKind::Ident)
                        && !STMT_KEYWORDS.contains(&t)
                    {
                        if saw_for {
                            after_for = Some(t.to_string());
                        } else {
                            before_for = Some(t.to_string());
                        }
                    }
                }
            }
            j += 1;
        }
        if saw_for {
            (after_for.unwrap_or_default(), before_for, j)
        } else {
            (before_for.unwrap_or_default(), None, j)
        }
    }

    /// Flattens the use tree in code range `[from, end)` into
    /// `(alias, path)` pairs. `use a::b::{c, d as e, f::*};` yields
    /// `(c, [a,b,c])`, `(e, [a,b,d])`, `(*, [a,b,f])`.
    fn parse_use_tree(&self, from: usize, end: usize) -> Vec<(String, Vec<String>)> {
        let mut out = Vec::new();
        self.use_subtree(from, end, &[], &mut out);
        out
    }

    fn use_subtree(
        &self,
        from: usize,
        end: usize,
        prefix: &[String],
        out: &mut Vec<(String, Vec<String>)>,
    ) {
        let mut path: Vec<String> = prefix.to_vec();
        let mut alias: Option<String> = None;
        let mut j = from;
        let flush =
            |path: &mut Vec<String>, alias: &mut Option<String>, out: &mut Vec<_>, prefix_len| {
                if path.len() > prefix_len {
                    let name =
                        alias.take().unwrap_or_else(|| path.last().cloned().unwrap_or_default());
                    out.push((name, path.clone()));
                }
                path.truncate(prefix_len);
                *alias = None;
            };
        while j < end {
            let Some(t) = self.stream.code(j) else { break };
            match (t.kind, t.text) {
                (TokenKind::Ident, "as") => {
                    alias = Some(self.ident_after(j));
                    j += 2;
                    continue;
                }
                (TokenKind::Ident, id) => {
                    path.push(id.to_string());
                }
                (TokenKind::Punct, "*") => {
                    out.push(("*".to_string(), path.clone()));
                    path.truncate(prefix.len());
                }
                (TokenKind::Punct, "{") => {
                    let close = self.match_delim(j, end);
                    // Each comma-separated subtree shares the current path.
                    let mut seg_start = j + 1;
                    let mut depth = 0usize;
                    for k in (j + 1)..close {
                        match self.text(k) {
                            "{" => depth += 1,
                            "}" => depth = depth.saturating_sub(1),
                            "," if depth == 0 => {
                                self.use_subtree(seg_start, k, &path, out);
                                seg_start = k + 1;
                            }
                            _ => {}
                        }
                    }
                    self.use_subtree(seg_start, close, &path, out);
                    path.truncate(prefix.len());
                    j = close + 1;
                    continue;
                }
                (TokenKind::Punct, ",") => {
                    flush(&mut path, &mut alias, out, prefix.len());
                }
                (TokenKind::Punct, ";") => break,
                _ => {}
            }
            j += 1;
        }
        flush(&mut path, &mut alias, out, prefix.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_source(source: &str) -> ItemTree {
        parse_stream(&TokenStream::new(lex(source)), source.len())
    }

    fn names(items: &[Item]) -> Vec<(&ItemKind, &str)> {
        items.iter().map(|i| (&i.kind, i.name.as_str())).collect()
    }

    #[test]
    fn parses_top_level_items_with_tiling_spans() {
        let src = "//! Doc.\n#![deny(missing_docs)]\n\nuse std::fmt;\n\n/// F.\npub fn f(x: u32) -> u32 { x + 1 }\n\nstruct S { a: u8 }\n\nenum E { A, B }\n";
        let tree = parse_source(src);
        assert_eq!(
            names(&tree.items),
            vec![
                (&ItemKind::Use, ""),
                (&ItemKind::Fn, "f"),
                (&ItemKind::Struct, "S"),
                (&ItemKind::Enum, "E"),
            ]
        );
        // Tiling: spans chain from 0 and the tail completes the file.
        let mut prev = 0;
        for item in &tree.items {
            assert_eq!(item.span_start, prev);
            assert!(item.span_end >= item.span_start);
            prev = item.span_end;
        }
        assert_eq!(tree.trailing_start, prev);
        let rebuilt: String = tree
            .items
            .iter()
            .map(|i| &src[i.span_start..i.span_end])
            .chain(std::iter::once(&src[tree.trailing_start..]))
            .collect();
        assert_eq!(rebuilt, src);
    }

    #[test]
    fn nesting_mod_impl_trait() {
        let src = "mod outer {\n    pub mod inner {\n        pub fn leaf() {}\n    }\n}\nimpl Foo {\n    pub fn method(&self) {}\n    fn private(&self) {}\n}\ntrait T {\n    fn required(&self);\n    fn provided(&self) { self.required() }\n}\n";
        let tree = parse_source(src);
        assert_eq!(tree.items.len(), 3);
        let outer = &tree.items[0];
        assert_eq!(outer.kind, ItemKind::Mod);
        assert_eq!(outer.children[0].name, "inner");
        assert_eq!(outer.children[0].children[0].name, "leaf");
        let imp = &tree.items[1];
        assert_eq!(imp.kind, ItemKind::Impl);
        assert_eq!(imp.name, "Foo");
        assert_eq!(
            names(&imp.children),
            vec![(&ItemKind::Fn, "method"), (&ItemKind::Fn, "private")]
        );
        assert_eq!(imp.children[0].vis, Vis::Pub);
        assert_eq!(imp.children[1].vis, Vis::Private);
        let tr = &tree.items[2];
        assert_eq!(tr.kind, ItemKind::Trait);
        assert_eq!(
            names(&tr.children),
            vec![(&ItemKind::Fn, "required"), (&ItemKind::Fn, "provided")]
        );
        assert!(tr.children[0].body_code.is_none(), "required method has no body");
        assert!(tr.children[1].body_code.is_some(), "provided method has a body");
    }

    #[test]
    fn impl_trait_for_type() {
        let src = "impl fmt::Display for Svm {\n    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result { Ok(()) }\n}\nimpl<'a, T: Clone> Wrapper<'a, T> {\n    fn get(&self) -> &T { &self.0 }\n}\n";
        let tree = parse_source(src);
        assert_eq!(tree.items[0].name, "Svm");
        assert_eq!(tree.items[0].trait_of.as_deref(), Some("Display"));
        assert_eq!(tree.items[1].name, "Wrapper");
        assert_eq!(tree.items[1].trait_of, None);
    }

    #[test]
    fn cfg_test_attribution_is_inherited() {
        let src = "#[cfg(test)]\nmod tests {\n    fn helper() {}\n    #[test]\n    fn case() {}\n}\nfn live() {}\n";
        let tree = parse_source(src);
        assert!(tree.items[0].cfg_test);
        assert!(tree.items[0].children.iter().all(|c| c.cfg_test));
        assert!(!tree.items[1].cfg_test);
    }

    #[test]
    fn use_imports_flatten_groups_aliases_and_globs() {
        let src = "use a::b::{c, d as e, f::g, h::*};\nuse crate::rules::Rule;\nuse std::fmt;\n";
        let tree = parse_source(src);
        let imports = &tree.items[0].imports;
        let find = |n: &str| imports.iter().find(|(a, _)| a == n).map(|(_, p)| p.join("::"));
        assert_eq!(find("c").as_deref(), Some("a::b::c"));
        assert_eq!(find("e").as_deref(), Some("a::b::d"));
        assert_eq!(find("g").as_deref(), Some("a::b::f::g"));
        assert_eq!(find("*").as_deref(), Some("a::b::h"));
        assert_eq!(
            tree.items[1].imports,
            vec![("Rule".to_string(), vec!["crate".into(), "rules".into(), "Rule".into()])]
        );
        assert_eq!(
            tree.items[2].imports,
            vec![("fmt".to_string(), vec!["std".into(), "fmt".into()])]
        );
    }

    #[test]
    fn fn_signatures_with_generics_and_where_clauses() {
        let src = "pub fn refresh<F>(graph: &G, compute: &F) -> Vec<usize>\nwhere\n    F: Fn(&G, P) -> Vec<f32> + Sync,\n{\n    Vec::new()\n}\nfn cmp(a: usize, b: usize) -> bool { a < b }\n";
        let tree = parse_source(src);
        assert_eq!(names(&tree.items), vec![(&ItemKind::Fn, "refresh"), (&ItemKind::Fn, "cmp")]);
        assert!(tree.items[0].body_code.is_some());
        assert!(tree.items[1].body_code.is_some());
    }

    #[test]
    fn macros_consts_statics_and_type_aliases() {
        let src = "macro_rules! my_macro { () => {}; }\nseeker_obs::declare! { counters }\npub const LIMIT: usize = 10;\nstatic mut STATE: u8 = 0;\npub type Pairs = Vec<(u32, u32)>;\nextern crate alloc;\n";
        let tree = parse_source(src);
        let kinds: Vec<&ItemKind> = tree.items.iter().map(|i| &i.kind).collect();
        assert_eq!(
            kinds,
            vec![
                &ItemKind::MacroDef,
                &ItemKind::MacroInvocation,
                &ItemKind::Const,
                &ItemKind::Static,
                &ItemKind::TypeAlias,
                &ItemKind::ExternCrate,
            ]
        );
        assert_eq!(tree.items[2].name, "LIMIT");
        assert_eq!(tree.items[3].name, "STATE");
        assert_eq!(tree.items[4].name, "Pairs");
    }

    #[test]
    fn byte_soup_still_tiles() {
        let src = "fn broken( { ] } ) \"unterminated\npub pub pub";
        let tree = parse_source(src);
        let mut prev = 0;
        for item in &tree.items {
            assert_eq!(item.span_start, prev);
            prev = item.span_end;
        }
        assert!(tree.trailing_start <= src.len());
    }

    #[test]
    fn walk_visits_depth_first() {
        let src = "mod a { fn x() {} mod b { fn y() {} } }\nfn z() {}\n";
        let tree = parse_source(src);
        let visited: Vec<&str> = tree.walk().map(|i| i.name.as_str()).collect();
        assert_eq!(visited, vec!["a", "x", "b", "y", "z"]);
    }
}
