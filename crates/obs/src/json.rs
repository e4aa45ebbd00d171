//! Minimal JSON tree with an emitter and a recursive-descent parser.
//!
//! `seeker-obs` is zero-dependency by design, so every JSON file the
//! workspace writes goes through this hand-rolled module instead of a serde
//! stack: the [`JsonSink`] payload (`results/OBS_run.json`), the bench
//! results (`results/BENCH_*.json`) and the GeoJSON export. The
//! `check_obs_json` CI validator parses with it too. It covers everything a
//! well-formed document can contain; it is not meant as a general-purpose
//! streaming parser.
//!
//! Objects preserve insertion order (a `Vec` of pairs, not a map), so the
//! emitted document is stable across runs.
//!
//! [`JsonSink`]: crate::JsonSink

use std::fmt::Write as _;

/// 2^53: every integer of smaller magnitude is exact in an `f64`.
const MAX_EXACT_INT: f64 = 9_007_199_254_740_992.0;

/// A parsed or constructed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`; non-finite values emit as `null`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object as an ordered list of key/value pairs.
    Object(Vec<(String, JsonValue)>),
}

impl From<&str> for JsonValue {
    fn from(v: &str) -> Self {
        JsonValue::String(v.to_string())
    }
}

impl From<String> for JsonValue {
    fn from(v: String) -> Self {
        JsonValue::String(v)
    }
}

impl From<bool> for JsonValue {
    fn from(v: bool) -> Self {
        JsonValue::Bool(v)
    }
}

impl From<u64> for JsonValue {
    fn from(v: u64) -> Self {
        // lint:allow(float-cast) -- JSON numbers are f64; counters and span
        // totals stay exact up to 2^53, far beyond any run this emits.
        JsonValue::Number(v as f64)
    }
}

impl From<usize> for JsonValue {
    fn from(v: usize) -> Self {
        JsonValue::Number(v as f64)
    }
}

impl From<f64> for JsonValue {
    fn from(v: f64) -> Self {
        JsonValue::Number(v)
    }
}

impl JsonValue {
    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn object<const N: usize>(pairs: [(&str, JsonValue); N]) -> JsonValue {
        JsonValue::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// `v` rounded to `decimals` places, exactly as `format!("{v:.decimals$}")`
    /// rounds it; the emitter then drops the trailing zeros.
    pub fn rounded(v: f64, decimals: usize) -> JsonValue {
        JsonValue::Number(format!("{v:.decimals$}").parse().unwrap_or(v))
    }

    /// The pairs if this is an object.
    pub fn as_object(&self) -> Option<&Vec<(String, JsonValue)>> {
        match self {
            JsonValue::Object(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// The elements if this is an array.
    pub fn as_array(&self) -> Option<&Vec<JsonValue>> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The text if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The number if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// Looks up `key` if this is an object (first match wins).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.as_object()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Renders the value as compact single-line JSON.
    pub fn to_compact_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Renders the value as indented multi-line JSON (two spaces).
    pub fn to_pretty_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Number(n) => {
                if n.is_finite() && *n == n.trunc() && n.abs() < MAX_EXACT_INT {
                    // Counts print as integers (`1000`, not `1000.0`).
                    let _ = write!(out, "{}", *n as i64);
                } else if n.is_finite() {
                    // `{:?}` is the shortest representation that round-trips,
                    // and it is valid JSON for every finite f64.
                    let _ = write!(out, "{n:?}");
                } else {
                    out.push_str("null");
                }
            }
            JsonValue::String(s) => write_escaped(out, s),
            JsonValue::Array(items) => {
                write_seq(out, indent, depth, '[', ']', items, |out, item, depth| {
                    item.write(out, indent, depth);
                });
            }
            JsonValue::Object(pairs) => {
                write_seq(out, indent, depth, '{', '}', pairs, |out, (k, v), depth| {
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth);
                });
            }
        }
    }
}

fn write_seq<T>(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    items: &[T],
    mut write_item: impl FnMut(&mut String, &T, usize),
) {
    out.push(open);
    if items.is_empty() {
        out.push(close);
        return;
    }
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', width * (depth + 1)));
        }
        write_item(out, item, depth + 1);
    }
    if let Some(width) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', width * depth));
    }
    out.push(close);
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses a JSON document. Errors carry a byte offset and a short reason.
///
/// # Errors
///
/// Returns a message like `"offset 12: expected ':' after object key"` when
/// the input is not a single well-formed JSON value.
pub fn parse(input: &str) -> Result<JsonValue, String> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0 };
    p.skip_ws();
    let value = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("offset {}: {msg}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", byte as char)))
        }
    }

    fn parse_value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'n') => self.parse_literal("null", JsonValue::Null),
            Some(b't') => self.parse_literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.parse_literal("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::String(self.parse_string()?)),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn parse_literal(&mut self, lit: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn parse_number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number bytes"))?;
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| self.err(&format!("invalid number {text:?}")))
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000C}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            // Surrogate pairs are not needed for sink output;
                            // lone surrogates map to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one whole UTF-8 scalar, not one byte.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    let c = rest.chars().next().ok_or_else(|| self.err("unterminated string"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<JsonValue, String> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<JsonValue, String> {
        self.expect_byte(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_compact_and_pretty() {
        let value = JsonValue::object([
            ("name", JsonValue::from("quote \" slash \\ tab \t")),
            ("count", JsonValue::from(42u64)),
            ("ratio", JsonValue::from(0.1f64)),
            ("flag", JsonValue::from(true)),
            ("none", JsonValue::Null),
            ("items", JsonValue::Array(vec![JsonValue::from(1.0f64), JsonValue::from("x")])),
            ("empty_obj", JsonValue::Object(Vec::new())),
            ("empty_arr", JsonValue::Array(Vec::new())),
        ]);
        for text in [value.to_compact_string(), value.to_pretty_string()] {
            assert_eq!(parse(&text).expect("round trip"), value, "{text}");
        }
    }

    #[test]
    fn accessors_navigate_the_tree() {
        let doc = parse(r#"{"a": [1, 2.5], "b": {"c": "deep"}}"#).expect("parses");
        let a = doc.get("a").and_then(JsonValue::as_array).expect("array a");
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[1].as_f64(), Some(2.5));
        assert_eq!(doc.get("b").and_then(|b| b.get("c")).and_then(JsonValue::as_str), Some("deep"));
        assert!(doc.get("missing").is_none());
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let doc = parse(r#""line\nbreak A café ü""#).expect("parses");
        assert_eq!(doc.as_str(), Some("line\nbreak A café ü"));
    }

    #[test]
    fn integral_numbers_print_without_a_fraction() {
        let doc = JsonValue::Array(vec![
            JsonValue::from(1000usize),
            JsonValue::from(-3.0),
            JsonValue::from(0.5),
            JsonValue::from(2f64.powi(53)),
            JsonValue::rounded(111.1604, 3),
            JsonValue::rounded(2.0, 7),
            JsonValue::rounded(0.000_002_914, 8),
        ]);
        assert_eq!(doc.to_compact_string(), "[1000,-3,0.5,9007199254740992.0,111.16,2,2.91e-6]");
        assert_eq!(parse(&doc.to_compact_string()).expect("parses"), doc);
    }

    #[test]
    fn non_finite_numbers_emit_null() {
        assert_eq!(JsonValue::Number(f64::NAN).to_compact_string(), "null");
        assert_eq!(JsonValue::Number(f64::INFINITY).to_compact_string(), "null");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "tru", "1 2", "\"unterminated", "{\"a\":}"] {
            let err = parse(bad).expect_err(bad);
            assert!(err.starts_with("offset "), "{err}");
        }
    }

    #[test]
    fn negative_and_exponent_numbers_parse() {
        assert_eq!(parse("-3.5e2").expect("parses").as_f64(), Some(-350.0));
        assert_eq!(parse("0").expect("parses").as_f64(), Some(0.0));
    }
}
