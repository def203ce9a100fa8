//! Minimal JSON reader and writer for the wire protocol and the bench
//! reports.
//!
//! The workspace is offline and the vendored `serde` shim has no
//! (de)serializer, so the server parses incoming frames with this
//! hand-rolled reader, and the benches build their `BENCH_PR*.json`
//! reports as [`Json`] values and print them with its
//! [`Display`](fmt::Display) impl: `{}` compact, `{:#}` two-space
//! pretty. It supports exactly the subset both use: objects, arrays,
//! finite numbers, strings (every escape, `\uXXXX` and surrogate pairs
//! included), booleans and `null`, nested at most 32 levels deep (the
//! reader recurses once per level, so an unbounded nest of `[` would
//! overflow the stack). Every value the reader returns prints back to
//! text that reads as the same value.
//!
//! Objects are `BTreeMap`s, so the writer prints keys sorted. Server
//! replies therefore stay plain `format!` plus [`escape`]: their field
//! order and fixed decimals are fixed by construction, and
//! byte-identical replies are part of the determinism contract the
//! replay tests assert.

use std::collections::BTreeMap;
use std::fmt;

/// Deepest object/array nesting [`Json::parse`] accepts. Protocol frames
/// are flat objects (depth 1); anything deeper than this is refused as
/// a syntax error instead of recursing without bound.
const MAX_DEPTH: usize = 32;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// An object.
    Object(BTreeMap<String, Json>),
    /// An array.
    Array(Vec<Json>),
    /// A number (all JSON numbers read as `f64`). The reader only
    /// returns finite numbers; the writer prints a non-finite one as
    /// `null`, since JSON text cannot carry it.
    Number(f64),
    /// A string.
    String(String),
    /// A boolean.
    Bool(bool),
    /// `null`.
    Null,
}

impl Json {
    /// Parse a complete JSON document.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first syntax error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing content at byte {pos}"));
        }
        Ok(value)
    }

    /// An object of `fields`; a repeated key keeps its last value.
    pub fn object<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Object(
            fields
                .into_iter()
                .map(|(key, value)| (key.to_string(), value))
                .collect(),
        )
    }

    /// The string at `key` of an object, if present and a string.
    pub fn str_at(&self, key: &str) -> Option<&str> {
        match self.at(key)? {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The number at `key` of an object, if present and numeric.
    pub fn number_at(&self, key: &str) -> Option<f64> {
        match self.at(key)? {
            Json::Number(x) => Some(*x),
            _ => None,
        }
    }

    /// The member at `key` of an object.
    pub fn at(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(map) => map.get(key),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && (bytes[*pos] as char).is_ascii_whitespace() {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {pos}", c as char))
    }
}

/// Parse one value whose enclosing containers are `depth` levels deep.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b'{' | b'[')) && depth >= MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"));
    }
    match bytes.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Object(map));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos, depth + 1)?;
                map.insert(key, value);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Object(map));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Array(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => Ok(Json::String(parse_string(bytes, pos)?)),
        Some(b't') if bytes[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if bytes[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if bytes[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < bytes.len()
                && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            let s = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
            match s.parse::<f64>() {
                // An overflowing literal reads as ±inf, which no JSON
                // text can carry back: refuse it.
                Ok(x) if x.is_finite() => Ok(Json::Number(x)),
                _ => Err(format!("invalid number '{s}' at byte {start}")),
            }
        }
        None => Err("unexpected end of input".to_string()),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        // Copy the run up to the next quote or escape as UTF-8: both
        // delimiters are ASCII, so they never split a multi-byte char.
        let run = *pos;
        while bytes.get(*pos).is_some_and(|&b| b != b'"' && b != b'\\') {
            *pos += 1;
        }
        out.push_str(std::str::from_utf8(&bytes[run..*pos]).map_err(|e| e.to_string())?);
        match bytes.get(*pos) {
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(_) => {
                // The run stopped at a backslash.
                let esc = *bytes.get(*pos + 1).ok_or("unterminated escape")?;
                *pos += 2;
                out.push(match esc {
                    b'n' => '\n',
                    b't' => '\t',
                    b'r' => '\r',
                    b'"' => '"',
                    b'\\' => '\\',
                    b'/' => '/',
                    b'u' => parse_unicode_escape(bytes, pos)?,
                    other => return Err(format!("unsupported escape '\\{}'", other as char)),
                });
            }
            None => return Err("unterminated string".to_string()),
        }
    }
}

/// Decode the code point of a `\uXXXX` escape whose four hex digits
/// start at `pos`, combining a UTF-16 surrogate pair written as two
/// escapes. A lone surrogate is an error.
fn parse_unicode_escape(bytes: &[u8], pos: &mut usize) -> Result<char, String> {
    let high = parse_hex4(bytes, pos)?;
    let code = match high {
        0xD800..=0xDBFF => {
            if !bytes[*pos..].starts_with(b"\\u") {
                return Err(format!("unpaired surrogate before byte {pos}"));
            }
            *pos += 2;
            let low = parse_hex4(bytes, pos)?;
            if !(0xDC00..=0xDFFF).contains(&low) {
                return Err(format!("unpaired surrogate before byte {pos}"));
            }
            0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00)
        }
        0xDC00..=0xDFFF => return Err(format!("unpaired surrogate before byte {pos}")),
        scalar => scalar,
    };
    char::from_u32(code).ok_or_else(|| format!("invalid code point before byte {pos}"))
}

/// Read four hex digits at `pos`.
fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, String> {
    let digits = bytes
        .get(*pos..*pos + 4)
        .and_then(|d| std::str::from_utf8(d).ok())
        .filter(|d| d.bytes().all(|b| b.is_ascii_hexdigit()))
        .ok_or_else(|| format!("expected four hex digits at byte {pos}"))?;
    *pos += 4;
    u32::from_str_radix(digits, 16).map_err(|e| e.to_string())
}

/// Integers convert exactly up to 2^53; larger ones round to the
/// nearest `f64`, as every JSON number is read back as one.
impl From<u64> for Json {
    fn from(x: u64) -> Self {
        Json::Number(x as f64)
    }
}

impl From<u32> for Json {
    fn from(x: u32) -> Self {
        Json::Number(f64::from(x))
    }
}

/// Exact up to 2^53, like `From<u64>`.
impl From<usize> for Json {
    fn from(x: usize) -> Self {
        Json::Number(x as f64)
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Self {
        Json::Number(x)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::String(s.to_string())
    }
}

/// JSON text: compact with `{}`, two-space indented with `{:#}`.
/// Finite numbers print in Rust's shortest round-trip form, so
/// `Json::parse(&v.to_string())` returns `v` for every value the reader
/// produces.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_value(self, f, f.alternate(), 0)
    }
}

/// Write `value`, whose container sits `depth` levels deep.
fn write_value(
    value: &Json,
    f: &mut fmt::Formatter<'_>,
    pretty: bool,
    depth: usize,
) -> fmt::Result {
    let (open, close, members): (_, _, Vec<(Option<&str>, &Json)>) = match value {
        Json::Object(map) => (
            '{',
            '}',
            map.iter().map(|(k, v)| (Some(k.as_str()), v)).collect(),
        ),
        Json::Array(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
        Json::Number(x) if x.is_finite() => return write!(f, "{x}"),
        Json::Number(_) | Json::Null => return f.write_str("null"),
        Json::String(s) => return write!(f, "\"{}\"", escape(s)),
        Json::Bool(b) => return write!(f, "{b}"),
    };
    let newline = |depth: usize| {
        if pretty {
            format!("\n{}", "  ".repeat(depth))
        } else {
            String::new()
        }
    };
    write!(f, "{open}")?;
    for (i, (key, member)) in members.iter().enumerate() {
        write!(f, "{}{}", if i > 0 { "," } else { "" }, newline(depth + 1))?;
        if let Some(key) = key {
            write!(f, "\"{}\":{}", escape(key), if pretty { " " } else { "" })?;
        }
        write_value(member, f, pretty, depth + 1)?;
    }
    if !members.is_empty() {
        f.write_str(&newline(depth))?;
    }
    write!(f, "{close}")
}

/// Escape a string for embedding inside a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_protocol_shaped_frames() {
        let j = Json::parse(
            r#"{"op":"submit","id":"r-1","tenant":1,"deadline_secs":30.5,"warm":true,"x":null}"#,
        )
        .expect("parse");
        assert_eq!(j.str_at("op"), Some("submit"));
        assert_eq!(j.str_at("id"), Some("r-1"));
        assert_eq!(j.number_at("tenant"), Some(1.0));
        assert_eq!(j.number_at("deadline_secs"), Some(30.5));
        assert_eq!(j.at("warm"), Some(&Json::Bool(true)));
        assert_eq!(j.at("x"), Some(&Json::Null));
        assert_eq!(j.str_at("missing"), None);
    }

    #[test]
    fn rejects_malformed_input() {
        let too_deep = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        for bad in [
            "",
            "{",
            "{} extra",
            "{\"a\":}",
            "[1,",
            "\"unterminated",
            &too_deep,
            "\"\\ud83e\"",
            "\"\\ud83e\\u0041\"",
            "\"\\udd80\"",
            "\"\\u12\"",
            "\"\\u12g4\"",
            "1e999",
            "-1e999",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn writes_sorted_compact_and_pretty_text() {
        let v = Json::object([
            ("s", "q\"\n".into()),
            (
                "n",
                Json::Array(vec![16u64.into(), 0.1.into(), f64::NAN.into()]),
            ),
            ("e", Json::object([])),
            ("t", true.into()),
        ]);
        assert_eq!(
            v.to_string(),
            r#"{"e":{},"n":[16,0.1,null],"s":"q\"\n","t":true}"#
        );
        assert_eq!(
            format!("{v:#}"),
            r#"{
  "e": {},
  "n": [
    16,
    0.1,
    null
  ],
  "s": "q\"\n",
  "t": true
}"#
        );
    }

    #[test]
    fn escape_round_trips_through_the_parser() {
        for original in [
            "line\nwith \"quotes\" and \\slashes\\",
            "é-1 naïve 日本 \"ü\"\n🦀",
            "a\u{1}b\u{1f}",
        ] {
            let wire = format!("{{\"s\":\"{}\"}}", escape(original));
            let parsed = Json::parse(&wire).expect("escaped text parses");
            assert_eq!(parsed.str_at("s"), Some(original));
        }
        // Escapes another writer may use: a BMP character and a
        // surrogate pair.
        let parsed = Json::parse(r#"{"s":"\u00e9\ud83e\udd80"}"#).expect("\\u escapes parse");
        assert_eq!(parsed.str_at("s"), Some("é🦀"));
    }
}
