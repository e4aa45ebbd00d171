//! Property tests for the item-tree parser's lossless invariant: for any
//! input — well-formed items assembled from snippets, outright byte soup,
//! or every real source file of this workspace — the parsed top-level item
//! spans chain contiguously from byte 0, the trailing tail completes the
//! file, and concatenating the span texts rebuilds the input exactly.
//! Child items obey the same chaining one level down inside braced bodies.

use proptest::collection::vec;
use proptest::prelude::*;
use seeker_lint::{lex, parse_stream, Item, ItemTree, TokenStream};

use std::fs;
use std::path::Path;

/// Item-position constructs covering every [`seeker_lint::ItemKind`], plus
/// degenerate fragments the parser must absorb without losing bytes.
const SNIPPETS: &[&str] = &[
    "fn f() { x.unwrap() }",
    "pub fn g<T: Clone>(t: T) -> Vec<T> { vec![t] }",
    "pub(crate) const fn three() -> u32 { 3 }",
    "extern \"C\" fn cb(x: u32) {}",
    "struct Unit;",
    "pub struct Tup(u32, f64);",
    "struct Braced { a: u32, b: Vec<String> }",
    "enum E { A, B(u8), C { x: i32 } }",
    "union U { a: u32, b: f32 }",
    "mod empty {}",
    "mod nested { mod deeper { fn h() {} } }",
    "mod decl;",
    "trait T { fn req(&self); fn def(&self) -> u8 { 0 } }",
    "impl Foo { pub fn new() -> Foo { Foo } }",
    "impl Display for Foo { fn fmt(&self) -> String { String::new() } }",
    "impl<T: Ord> Wrapper<T> { fn get(&self) -> &T { &self.0 } }",
    "use std::collections::{BTreeMap, BTreeSet as Set};",
    "use crate::module::*;",
    "extern crate alloc;",
    "type Pair = (u32, u32);",
    "pub type Result<T> = std::result::Result<T, Error>;",
    "const N: usize = 4;",
    "static GREETING: &str = \"hi\";",
    "macro_rules! m { () => {}; ($x:expr) => { $x }; }",
    "seeker_obs::declare! { counters }",
    "#[derive(Debug, Clone)]\nstruct WithAttr { f: u8 }",
    "#[cfg(test)]\nmod tests { fn t() { assert!(true); } }",
    "/// Doc comment with code: `panic!()`.\nfn documented() {}",
    "#![allow(dead_code)]",
    "fn generics_soup<const K: usize>(a: [u8; K]) -> impl Iterator<Item = u8> { a.into_iter() }",
    "let not_an_item = 1;",
    "} stray close",
    "fn unterminated() {",
    "\"unterminated string",
    "r#\"raw \" body\"#",
    "/* unclosed comment",
];

fn parse_source(source: &str) -> ItemTree {
    parse_stream(&TokenStream::new(lex(source)), source.len())
}

const SEPARATORS: &[&str] = &["\n", "\n\n", " ", "", "\t\n"];

/// Recursively checks the chaining invariant for one item level: spans are
/// contiguous from `start`, each child's span nests inside its parent, and
/// every item's span is non-degenerate (`start <= end`).
fn assert_chained(items: &[Item], start: usize, end: usize) -> Result<(), TestCaseError> {
    let mut cursor = start;
    for item in items {
        prop_assert_eq!(
            item.span_start,
            cursor,
            "gap or overlap before {:?} `{}`",
            item.kind,
            item.name
        );
        prop_assert!(item.span_end >= item.span_start, "negative span on `{}`", item.name);
        prop_assert!(item.span_end <= end, "child `{}` escapes its parent span", item.name);
        if !item.children.is_empty() {
            // Children tile a sub-range of the parent body: contiguous among
            // themselves, strictly inside the parent's span.
            let first = item.children[0].span_start;
            prop_assert!(first >= item.span_start, "child starts before parent `{}`", item.name);
            assert_chained(&item.children, first, item.span_end)?;
        }
        cursor = item.span_end;
    }
    Ok(())
}

/// Checks the full lossless contract for one source file.
fn assert_lossless(source: &str) -> Result<(), TestCaseError> {
    let tree = parse_source(source);
    prop_assert_eq!(tree.source_len, source.len());
    // Top level: items chain from byte 0 and the trailing tail completes
    // the file.
    let last_end = tree.items.last().map_or(0, |it| it.span_end);
    prop_assert_eq!(tree.trailing_start, last_end, "trailing tail must start at the last span");
    prop_assert!(tree.trailing_start <= source.len());
    assert_chained(&tree.items, 0, source.len())?;
    // The reconstruction itself: span texts plus the tail rebuild the file.
    let mut rebuilt = String::new();
    for item in &tree.items {
        rebuilt.push_str(&source[item.span_start..item.span_end]);
    }
    rebuilt.push_str(&source[tree.trailing_start..]);
    prop_assert!(rebuilt == source, "span concatenation must rebuild the source");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn snippet_assemblies_parse_losslessly(
        parts in vec((0usize..SNIPPETS.len(), 0usize..SEPARATORS.len()), 0..16),
    ) {
        let mut source = String::new();
        for &(snippet, sep) in &parts {
            source.push_str(SNIPPETS[snippet]);
            source.push_str(SEPARATORS[sep]);
        }
        assert_lossless(&source)?;
    }

    #[test]
    fn unicode_soup_parses_losslessly(codes in vec(any::<u32>(), 0..120)) {
        let source: String = codes
            .iter()
            .map(|&c| char::from_u32(c % 0xD800).unwrap_or('\u{FFFD}'))
            .collect();
        assert_lossless(&source)?;
    }

    #[test]
    fn ascii_soup_parses_losslessly(bytes in vec(any::<u8>(), 0..160)) {
        // Dense ASCII soup maximizes brace/keyword boundary abuse: stray
        // closers, half-open generics, quote and hash runs.
        let source: String = bytes.iter().map(|&b| char::from(b % 0x80)).collect();
        assert_lossless(&source)?;
    }
}

/// The invariant must hold on real code, not just generated soup: every
/// source file of this workspace round-trips through the parser.
#[test]
fn every_workspace_source_file_parses_losslessly() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().and_then(Path::parent).unwrap();
    let mut stack = vec![root.join("crates"), root.join("tests")];
    let mut checked = 0usize;
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<_> =
            fs::read_dir(&dir).expect("read_dir").map(|e| e.expect("entry").path()).collect();
        entries.sort();
        for path in entries {
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n == "target") {
                    continue;
                }
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let source = fs::read_to_string(&path).expect("read source");
                assert_lossless(&source)
                    .unwrap_or_else(|e| panic!("{} violates losslessness: {e:?}", path.display()));
                checked += 1;
            }
        }
    }
    assert!(checked > 50, "expected to sweep the whole workspace, saw {checked} files");
}
