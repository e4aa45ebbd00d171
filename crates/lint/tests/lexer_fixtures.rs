//! Lexer regression tests over the fixture corpus, plus every finding the
//! rules report on it, pinned in `tests/golden/fixture_findings.txt`. The
//! corpus deliberately contains the lexer's edge cases — raw strings with
//! hashes, nested block comments, `'\''` literals, `\`-newline continuations
//! — so a lexer regression shows up as either a losslessness failure or a
//! moved finding.

use seeker_lint::lex;
use seeker_lint::rules::{lint_source, FileClass};
use seeker_lint::tokens::TokenKind;

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

const CORPUS: &[&str] = &[
    "lexer_edges.rs",
    "seeded_violations.rs",
    "seeded_features.rs",
    "seeded_lib_root.rs",
    "seeded_determinism.rs",
];

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("read fixture {}: {e}", path.display()))
}

#[test]
fn corpus_lexes_losslessly() {
    for name in CORPUS {
        let source = fixture(name);
        let tokens = lex(&source);
        let rebuilt: String = tokens.iter().map(|t| t.text).collect();
        assert_eq!(rebuilt, source, "{name}: token concatenation must rebuild the source");
        // Spans are contiguous and line numbers match the newline count.
        let mut expected_start = 0usize;
        for t in &tokens {
            assert_eq!(t.start, expected_start, "{name}: gap before {t:?}");
            expected_start = t.end();
            let line = 1 + source[..t.start].matches('\n').count();
            assert_eq!(t.line, line, "{name}: wrong line for {t:?}");
        }
        assert_eq!(expected_start, source.len(), "{name}: trailing gap");
    }
}

#[test]
fn lexer_edges_tokens_are_classified_correctly() {
    let source = fixture("lexer_edges.rs");
    let tokens = lex(&source);
    let texts: Vec<(TokenKind, &str)> = tokens.iter().map(|t| (t.kind, t.text)).collect();

    // Nested block comment is one token, rule-bait safely inside.
    assert!(texts
        .iter()
        .any(|(k, x)| *k == TokenKind::BlockComment && x.contains("deeper .unwrap()")));
    // Raw strings with zero, one and two hashes each stay one token.
    assert!(texts.iter().any(|(k, x)| *k == TokenKind::RawStr && x.contains("unimplemented!")));
    assert!(texts.iter().any(|(k, x)| *k == TokenKind::RawStr && x.contains(r##"two "# hashes"##)));
    assert!(texts
        .iter()
        .any(|(k, x)| *k == TokenKind::RawStr && x.starts_with("br#") && x.contains("panic!")));
    // The `\`-newline continuation stays inside one Str token.
    assert!(texts
        .iter()
        .any(|(k, x)| *k == TokenKind::Str && x.contains("continuation") && x.contains('\n')));
    // Char literals, including the escaped quote, and byte chars.
    assert!(texts.iter().any(|(k, x)| *k == TokenKind::Char && *x == "'\"'"));
    assert!(texts.iter().any(|(k, x)| *k == TokenKind::Char && *x == r"'\''"));
    assert!(texts.iter().any(|(k, x)| *k == TokenKind::Char && *x == "b'x'"));
    // Lifetimes and labels are not char literals.
    assert!(texts.iter().any(|(k, x)| *k == TokenKind::Lifetime && *x == "'a"));
    assert!(texts.iter().any(|(k, x)| *k == TokenKind::Lifetime && *x == "'outer"));
    // Raw identifiers are idents, not raw strings.
    assert!(texts.iter().any(|(k, x)| *k == TokenKind::Ident && *x == "r#type"));
    // `1..4` splits into Int/Punct/Int; `1.5_f64` and `2e3` are floats.
    assert!(texts.iter().any(|(k, x)| *k == TokenKind::Punct && *x == ".."));
    assert!(texts.iter().any(|(k, x)| *k == TokenKind::Float && *x == "1.5_f64"));
    assert!(texts.iter().any(|(k, x)| *k == TokenKind::Float && *x == "2e3"));
    assert!(texts.iter().any(|(k, x)| *k == TokenKind::Int && *x == "0x_1f"));
    // Unicode identifier survives as a single token.
    assert!(texts.iter().any(|(k, x)| *k == TokenKind::Ident && *x == "größe"));
}

#[test]
fn lexer_edges_fixture_is_rule_clean() {
    // Everything suspicious in the file lives inside comments or literals,
    // so the rules must report nothing.
    let source = fixture("lexer_edges.rs");
    let violations = lint_source(Path::new("crates/x/src/edges.rs"), FileClass::Library, &source);
    assert!(
        violations.is_empty(),
        "expected no violations:\n{}",
        violations.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n")
    );
}

/// Renders every finding the rules report on each corpus fixture, planted
/// as plain library code.
fn corpus_findings() -> String {
    let mut doc = String::from(
        "# Every finding seeker-lint's rules report on each fixture of the corpus,\n\
         # planted as crates/x/src/planted.rs (FileClass::Library).\n\
         # Regenerate: SEEKER_BLESS=1 cargo test -p seeker-lint --test lexer_fixtures\n",
    );
    for name in CORPUS {
        let _ = writeln!(doc, "== {name}");
        let source = fixture(name);
        for v in lint_source(Path::new("crates/x/src/planted.rs"), FileClass::Library, &source) {
            let _ = writeln!(doc, "{v}");
        }
    }
    doc
}

#[test]
fn corpus_findings_match_the_pinned_list() {
    let doc = corpus_findings();
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/fixture_findings.txt");
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
        "the corpus findings drifted from {}; if the change is intentional, regenerate with \
         SEEKER_BLESS=1 cargo test -p seeker-lint --test lexer_fixtures",
        path.display()
    );
}
