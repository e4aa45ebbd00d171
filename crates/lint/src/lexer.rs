//! A small hand-rolled, std-only Rust lexer.
//!
//! Produces the lossless [`Token`] stream described in [`crate::tokens`]:
//! every input byte belongs to exactly one token and the concatenation of
//! token texts reproduces the source (the lossless-lexing property is
//! enforced by a `debug_assert!` here and by a proptest in
//! `tests/lexer_props.rs`). The lexer understands:
//!
//! - line comments and **nested** block comments (`/* /* */ */`);
//! - plain and byte strings with escapes (`"a\"b"`, `b"\x00"`), including
//!   `\`-newline line continuations;
//! - raw (byte-)strings with any number of hashes (`r#"…"#`, `br##"…"##`);
//! - raw identifiers (`r#type`) — *not* misread as raw strings;
//! - char/byte literals vs lifetimes (`'\''`, `b'x'`, `'a`, `'static`);
//! - numeric literals with underscores, base prefixes, exponents and type
//!   suffixes (`1_000u64`, `0xFF`, `2.5e-3`, `1f64`), distinguishing
//!   `1.5` (float) from `1..2` (range) and `1.max(2)` (method call);
//! - multi-character operators as single punctuation tokens (`::`, `==`,
//!   `..=`, `->`, `<<=`).
//!
//! Unrecognised bytes are preserved as [`TokenKind::Unknown`] tokens so the
//! lexer never fails and never desynchronises on malformed input.

use crate::tokens::{Token, TokenKind};

/// Multi-character operators, longest first so the longest match wins.
const OPERATORS: &[&str] = &[
    "<<=", ">>=", "...", "..=", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "+=", "-=", "*=",
    "/=", "%=", "^=", "&=", "|=", "::", "->", "=>", "..",
];

/// Lexes `source` into a lossless token list.
///
/// Concatenating `token.text` over the result reproduces `source` exactly;
/// `token.line` is the 1-based line of the token's first byte.
#[must_use]
pub fn lex(source: &str) -> Vec<Token<'_>> {
    let mut lexer = Lexer { source, bytes: source.as_bytes(), pos: 0, line: 1 };
    let mut tokens = Vec::new();
    while let Some(token) = lexer.next_token() {
        tokens.push(token);
    }
    debug_assert!(
        tokens.iter().map(|t| t.text.len()).sum::<usize>() == source.len(),
        "lexer lost bytes"
    );
    tokens
}

struct Lexer<'a> {
    source: &'a str,
    bytes: &'a [u8],
    pos: usize,
    line: usize,
}

impl<'a> Lexer<'a> {
    fn next_token(&mut self) -> Option<Token<'a>> {
        if self.pos >= self.bytes.len() {
            return None;
        }
        let start = self.pos;
        let line = self.line;
        let kind = self.scan();
        debug_assert!(self.pos > start, "lexer failed to advance");
        let text = &self.source[start..self.pos];
        self.line += text.bytes().filter(|&b| b == b'\n').count();
        Some(Token { kind, text, start, line })
    }

    /// Consumes one token's worth of bytes and returns its kind.
    fn scan(&mut self) -> TokenKind {
        let b = self.bytes[self.pos];
        match b {
            b' ' | b'\t' | b'\n' | b'\r' => self.scan_whitespace(),
            b'/' if self.peek(1) == Some(b'/') => self.scan_line_comment(),
            b'/' if self.peek(1) == Some(b'*') => self.scan_block_comment(),
            b'"' => self.scan_string(),
            b'\'' => self.scan_char_or_lifetime(),
            b'r' | b'b' => self.scan_prefixed_or_ident(),
            _ if is_ident_start(b) => self.scan_ident(),
            _ if b.is_ascii_digit() => self.scan_number(),
            _ if b < 0x80 => self.scan_punct(),
            _ => self.scan_unknown_char(),
        }
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.bytes.get(self.pos + ahead).copied()
    }

    fn scan_whitespace(&mut self) -> TokenKind {
        while matches!(self.peek(0), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
        TokenKind::Whitespace
    }

    fn scan_line_comment(&mut self) -> TokenKind {
        while let Some(b) = self.peek(0) {
            if b == b'\n' {
                break;
            }
            self.pos += 1;
        }
        TokenKind::LineComment
    }

    fn scan_block_comment(&mut self) -> TokenKind {
        let mut depth = 0usize;
        while self.pos < self.bytes.len() {
            if self.peek(0) == Some(b'/') && self.peek(1) == Some(b'*') {
                depth += 1;
                self.pos += 2;
            } else if self.peek(0) == Some(b'*') && self.peek(1) == Some(b'/') {
                depth = depth.saturating_sub(1);
                self.pos += 2;
                if depth == 0 {
                    break;
                }
            } else {
                self.pos += 1;
            }
        }
        TokenKind::BlockComment
    }

    /// Scans a plain (possibly byte-) string starting at the opening `"`.
    /// The caller has already consumed any `b` prefix.
    fn scan_string(&mut self) -> TokenKind {
        self.pos += 1; // opening quote
        while let Some(b) = self.peek(0) {
            match b {
                b'\\' if self.pos + 1 < self.bytes.len() => self.pos += 2,
                b'"' => {
                    self.pos += 1;
                    return TokenKind::Str;
                }
                _ => self.pos += 1,
            }
        }
        TokenKind::Str // unterminated: rest of file
    }

    /// Scans a raw string whose opening `r`/`br` prefix has been consumed and
    /// whose hashes start at the current position.
    fn scan_raw_string(&mut self) -> TokenKind {
        let mut hashes = 0usize;
        while self.peek(0) == Some(b'#') {
            hashes += 1;
            self.pos += 1;
        }
        debug_assert_eq!(self.peek(0), Some(b'"'), "caller guarantees a raw string");
        self.pos += 1;
        while let Some(b) = self.peek(0) {
            self.pos += 1;
            if b == b'"' && self.count_hashes() >= hashes {
                self.pos += hashes;
                return TokenKind::RawStr;
            }
        }
        TokenKind::RawStr // unterminated: rest of file
    }

    fn count_hashes(&self) -> usize {
        let mut n = 0;
        while self.peek(n) == Some(b'#') {
            n += 1;
        }
        n
    }

    /// Disambiguates char literals from lifetimes/labels at a `'`.
    fn scan_char_or_lifetime(&mut self) -> TokenKind {
        // 'x' / '\n' / '\'' / '"' … are char literals; 'a / 'static / 'outer:
        // are lifetimes or labels. Rule (mirrors rustc): an escaped body is
        // always a char; an ident-like body is a char only when followed by a
        // closing quote.
        if self.peek(1) == Some(b'\\') {
            // Escaped char: consume the escaped character unconditionally
            // (handles '\''), then scan to the closing quote.
            self.pos += 3.min(self.bytes.len() - self.pos);
            while let Some(b) = self.peek(0) {
                self.pos += 1;
                if b == b'\'' {
                    break;
                }
            }
            return TokenKind::Char;
        }
        match (self.peek(1), self.peek(2)) {
            // Non-ident single char closed by a quote: '"', '+', ' ' …
            (Some(c), Some(b'\'')) if !is_ident_start(c) || self.peek(3) != Some(b'\'') => {
                // The guard rejects `'a''` ambiguity conservatively; for
                // ident-like chars the simple 3-byte form 'x' applies.
                self.pos += 3;
                TokenKind::Char
            }
            (Some(c), _) if is_ident_start(c) || c >= 0x80 => {
                // Lifetime or label: consume ident chars after the quote.
                self.pos += 1;
                self.scan_ident();
                TokenKind::Lifetime
            }
            _ => {
                // Lone quote (malformed): emit as punctuation, stay lossless.
                self.pos += 1;
                TokenKind::Punct
            }
        }
    }

    /// Handles tokens starting with `r` or `b`: raw strings (`r"`, `r#"`),
    /// byte strings (`b"`, `br"`, `br#"`), byte chars (`b'x'`), raw
    /// identifiers (`r#type`) and plain identifiers (`radius`, `bias`).
    fn scan_prefixed_or_ident(&mut self) -> TokenKind {
        let b0 = self.bytes[self.pos];
        let rest = &self.bytes[self.pos + 1..];
        let raw_after = |skip: usize| -> bool {
            // After the prefix, a raw string is `#*"`.
            let mut i = skip;
            while rest.get(i) == Some(&b'#') {
                i += 1;
            }
            rest.get(i) == Some(&b'"') && (i > skip || rest.get(skip) == Some(&b'"'))
        };
        match b0 {
            b'r' => {
                if rest.first() == Some(&b'"') || (rest.first() == Some(&b'#') && raw_after(0)) {
                    self.pos += 1;
                    return self.scan_raw_string();
                }
                if rest.first() == Some(&b'#') && rest.get(1).copied().is_some_and(is_ident_start) {
                    // Raw identifier r#type: consume r# then the ident.
                    self.pos += 2;
                    return self.scan_ident();
                }
            }
            b'b' => {
                if rest.first() == Some(&b'"') {
                    self.pos += 1;
                    return self.scan_string();
                }
                if rest.first() == Some(&b'\'') {
                    self.pos += 1;
                    self.scan_char_or_lifetime();
                    return TokenKind::Char;
                }
                if rest.first() == Some(&b'r')
                    && (rest.get(1) == Some(&b'"') || (rest.get(1) == Some(&b'#') && raw_after(1)))
                {
                    self.pos += 2;
                    return self.scan_raw_string();
                }
            }
            _ => unreachable!("caller dispatches only r/b"),
        }
        self.scan_ident()
    }

    fn scan_ident(&mut self) -> TokenKind {
        while let Some(b) = self.peek(0) {
            if is_ident_continue(b) {
                self.pos += 1;
            } else if b >= 0x80 {
                // Non-ASCII identifier character (the repo's sources use a
                // few Greek letters in identifiers-adjacent positions);
                // consume the whole UTF-8 char to stay on a char boundary.
                self.pos += utf8_len(b);
            } else {
                break;
            }
        }
        TokenKind::Ident
    }

    fn scan_number(&mut self) -> TokenKind {
        let mut float = false;
        if self.peek(0) == Some(b'0')
            && matches!(self.peek(1), Some(b'x' | b'X' | b'o' | b'O' | b'b' | b'B'))
        {
            self.pos += 2;
            while matches!(self.peek(0), Some(b) if b.is_ascii_alphanumeric() || b == b'_') {
                self.pos += 1;
            }
            return TokenKind::Int;
        }
        self.eat_digits();
        if self.peek(0) == Some(b'.') {
            match self.peek(1) {
                // `1.5`: fraction digits follow.
                Some(d) if d.is_ascii_digit() => {
                    float = true;
                    self.pos += 1;
                    self.eat_digits();
                }
                // `1..2` is a range and `1.max()` a method call — the dot is
                // not part of the number. A bare trailing `1.` is a float.
                Some(b'.') => {}
                Some(c) if is_ident_start(c) => {}
                _ => {
                    float = true;
                    self.pos += 1;
                }
            }
        }
        if float && matches!(self.peek(0), Some(b'e' | b'E')) {
            let sign = usize::from(matches!(self.peek(1), Some(b'+' | b'-')));
            if self.peek(1 + sign).is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1 + sign;
                self.eat_digits();
            }
        }
        // Type suffix: `u64`, `f32`, `usize` … (also makes `1f64` a float).
        let suffix_start = self.pos;
        while matches!(self.peek(0), Some(b) if is_ident_continue(b)) {
            self.pos += 1;
        }
        let suffix = &self.source[suffix_start..self.pos];
        if suffix.starts_with('f') || (!float && suffix.starts_with('e')) {
            // `1f64` is a float; `1e5`-style suffixes on an integer part
            // (exponent without a dot) are floats too.
            float = suffix.starts_with('f') || suffix[1..].bytes().all(|b| b.is_ascii_digit());
        }
        if float {
            TokenKind::Float
        } else {
            TokenKind::Int
        }
    }

    fn eat_digits(&mut self) {
        while matches!(self.peek(0), Some(b) if b.is_ascii_digit() || b == b'_') {
            self.pos += 1;
        }
    }

    fn scan_punct(&mut self) -> TokenKind {
        let rest = &self.source[self.pos..];
        for op in OPERATORS {
            if rest.starts_with(op) {
                self.pos += op.len();
                return TokenKind::Punct;
            }
        }
        self.pos += 1;
        TokenKind::Punct
    }

    fn scan_unknown_char(&mut self) -> TokenKind {
        self.pos += utf8_len(self.bytes[self.pos]);
        TokenKind::Unknown
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Length in bytes of the UTF-8 character starting with `lead` (1 for
/// continuation/invalid bytes so the lexer always advances).
fn utf8_len(lead: u8) -> usize {
    match lead {
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        0xF0..=0xF7 => 4,
        _ => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::lex;
    use crate::tokens::TokenKind;

    fn kinds(src: &str) -> Vec<(TokenKind, &str)> {
        lex(src).iter().filter(|t| t.kind.is_code()).map(|t| (t.kind, t.text)).collect()
    }

    fn lossless(src: &str) {
        let joined: String = lex(src).iter().map(|t| t.text).collect();
        assert_eq!(joined, src, "lexing must be lossless");
    }

    #[test]
    fn idents_keywords_and_puncts() {
        let toks = kinds("pub fn f(x: u32) -> u32 { x == 1 }");
        assert_eq!(toks[0], (TokenKind::Ident, "pub"));
        assert_eq!(toks[1], (TokenKind::Ident, "fn"));
        assert!(toks.contains(&(TokenKind::Punct, "->")));
        assert!(toks.contains(&(TokenKind::Punct, "==")));
        lossless("pub fn f(x: u32) -> u32 { x == 1 }");
    }

    #[test]
    fn comments_line_block_nested() {
        let src = "a // line panic!()\nb /* blk /* nested .unwrap() */ end */ c";
        let toks = kinds(src);
        assert_eq!(
            toks,
            vec![(TokenKind::Ident, "a"), (TokenKind::Ident, "b"), (TokenKind::Ident, "c")]
        );
        let all = lex(src);
        assert!(all.iter().any(|t| t.kind == TokenKind::LineComment));
        assert!(all.iter().any(|t| t.kind == TokenKind::BlockComment && t.text.contains("nested")));
        lossless(src);
    }

    #[test]
    fn unterminated_block_comment_extends_to_eof() {
        let src = "x /* open /* deep */ still open";
        let toks = kinds(src);
        assert_eq!(toks, vec![(TokenKind::Ident, "x")]);
        lossless(src);
    }

    #[test]
    fn strings_with_escapes_and_continuations() {
        lossless("let s = \"a\\\"b.unwrap()\"; t");
        let toks = kinds("let s = \"a\\\"b.unwrap()\"; t");
        assert!(toks.iter().any(|(k, x)| *k == TokenKind::Str && x.contains("unwrap")));
        assert!(toks.iter().any(|(_, x)| *x == "t"));
        // `\`-newline continuation stays inside the string token.
        let src = "let s = \"two \\\n  lines\";\nfn f() {}";
        let all = lex(src);
        let f = all.iter().find(|t| t.is_ident("fn")).expect("fn token");
        assert_eq!(f.line, 3);
        lossless(src);
    }

    #[test]
    fn raw_strings_with_hashes() {
        let src = r####"let s = r#"panic!( " inner "#; let u = r##"two "# hashes"##;"####;
        let toks = kinds(src);
        let raws: Vec<&str> =
            toks.iter().filter(|(k, _)| *k == TokenKind::RawStr).map(|(_, x)| *x).collect();
        assert_eq!(raws.len(), 2, "{toks:?}");
        assert!(raws[0].contains("panic"));
        assert!(raws[1].contains("\"#"));
        lossless(src);
    }

    #[test]
    fn raw_byte_strings_and_byte_literals() {
        lossless(r#"let a = br"raw"; let b = b"bytes\x00"; let c = b'x';"#);
        let toks = kinds(r#"let a = br"raw"; let b = b"bytes\x00"; let c = b'x';"#);
        assert!(toks.iter().any(|(k, x)| *k == TokenKind::RawStr && x.contains("raw")));
        assert!(toks.iter().any(|(k, x)| *k == TokenKind::Str && x.contains("bytes")));
        assert!(toks.iter().any(|(k, x)| *k == TokenKind::Char && *x == "b'x'"));
    }

    #[test]
    fn raw_identifiers_are_idents_not_strings() {
        let toks = kinds("let r#type = 1; r#fn");
        assert!(toks.contains(&(TokenKind::Ident, "r#type")));
        assert!(toks.contains(&(TokenKind::Ident, "r#fn")));
        lossless("let r#type = 1; r#fn");
    }

    #[test]
    fn chars_vs_lifetimes() {
        let src = "fn f<'a>(x: &'a str) { let c = '\\''; let d = '\"'; let e = 'x'; 'outer: loop { break 'outer; } }";
        let toks = kinds(src);
        assert!(toks.contains(&(TokenKind::Lifetime, "'a")));
        assert!(toks.contains(&(TokenKind::Char, "'\\''")));
        assert!(toks.contains(&(TokenKind::Char, "'\"'")));
        assert!(toks.contains(&(TokenKind::Char, "'x'")));
        assert!(toks.contains(&(TokenKind::Lifetime, "'outer")));
        lossless(src);
    }

    #[test]
    fn numbers_ints_floats_ranges_methods() {
        let toks = kinds("let a = 1_000u64; let b = 0xFF; let c = 2.5e-3; let d = 1..4; let e = 1.max(2); let f = 1f64; let g = 1.;");
        assert!(toks.contains(&(TokenKind::Int, "1_000u64")));
        assert!(toks.contains(&(TokenKind::Int, "0xFF")));
        assert!(toks.contains(&(TokenKind::Float, "2.5e-3")));
        assert!(toks.contains(&(TokenKind::Punct, "..")));
        assert!(toks.contains(&(TokenKind::Int, "1")));
        assert!(toks.contains(&(TokenKind::Ident, "max")));
        assert!(toks.contains(&(TokenKind::Float, "1f64")));
        assert!(toks.contains(&(TokenKind::Float, "1.")));
    }

    #[test]
    fn line_numbers_match_newline_counts() {
        let src = "a\nb\n  c /* x\ny */ d\n\"s\ntr\" e";
        for t in lex(src) {
            let expect = 1 + src[..t.start].bytes().filter(|&b| b == b'\n').count();
            assert_eq!(t.line, expect, "token {t}");
        }
    }

    #[test]
    fn non_ascii_text_stays_lossless() {
        let src = "// §III-C σ-capacity ⊕\nlet σ_like = 1; \"π ≈ 3.14\"";
        lossless(src);
    }
}
