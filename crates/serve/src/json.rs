//! Minimal line-JSON reader and string escaping for the wire protocol.
//!
//! The workspace is offline and the vendored `serde` shim has no
//! deserializer, so the server parses incoming frames with this
//! hand-rolled reader. It supports exactly the subset the protocol
//! uses: one object per line built from objects, arrays, numbers,
//! strings (every escape, `\uXXXX` and surrogate pairs included),
//! booleans and `null`, nested at most 32 levels deep (the reader
//! recurses once per level, so an unbounded nest of `[` would overflow
//! the stack). Replies are *written* with plain
//! `format!` plus [`escape`] so their field order is fixed by
//! construction — byte-identical replies are part of the determinism
//! contract the replay tests assert.

use std::collections::BTreeMap;

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
    /// A number (all JSON numbers read as `f64`).
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
            s.parse::<f64>()
                .map(Json::Number)
                .map_err(|_| format!("invalid number '{s}' at byte {start}"))
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
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
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
