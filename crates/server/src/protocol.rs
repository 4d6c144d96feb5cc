//! The wire format: one JSON object per line, flat, three value types.
//!
//! The front door speaks line-delimited JSON-RPC-style frames — one
//! object per `\n`-terminated line, string keys, values restricted to
//! strings, unsigned integers, and booleans. That subset covers every
//! frame the protocol needs (queries, acks, errors, stats) while keeping
//! the parser small enough to audit for the property the fuzz suite
//! pins: **no input byte sequence panics it**. The registry is offline,
//! so the codec is hand-rolled here rather than pulled from serde; the
//! golden suite (`tests/proto.rs`) pins the exact bytes both directions.
//!
//! Escapes follow JSON: `\" \\ \/ \b \f \n \r \t \uXXXX`, including
//! UTF-16 surrogate pairs for astral characters. Encoding escapes the
//! two mandatory characters (`"`, `\`) plus control characters; all
//! other text passes through as UTF-8.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A frame value: the protocol needs no nesting, no floats, no null.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Value {
    /// A JSON string.
    Str(String),
    /// A non-negative JSON integer (the protocol has no negative fields).
    UInt(u64),
    /// A JSON boolean.
    Bool(bool),
}

/// A parsed or under-construction frame: an ordered field list.
///
/// Encoding writes fields in insertion order (goldens depend on stable
/// key order); lookup is linear — frames have at most a handful of keys.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Frame {
    fields: Vec<(String, Value)>,
}

impl Frame {
    /// An empty frame.
    pub fn new() -> Frame {
        Frame::default()
    }

    /// Appends a string field (builder-style).
    pub fn str(mut self, key: &str, value: impl Into<String>) -> Frame {
        self.fields
            .push((key.to_string(), Value::Str(value.into())));
        self
    }

    /// Appends an unsigned-integer field (builder-style).
    pub fn uint(mut self, key: &str, value: u64) -> Frame {
        self.fields.push((key.to_string(), Value::UInt(value)));
        self
    }

    /// Appends a boolean field (builder-style).
    pub fn bool(mut self, key: &str, value: bool) -> Frame {
        self.fields.push((key.to_string(), Value::Bool(value)));
        self
    }

    /// The value under `key`, if present (first occurrence wins, matching
    /// the parser's duplicate-key rejection — parsed frames never hold
    /// duplicates).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The string under `key`, if present with that type.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        match self.get(key) {
            Some(Value::Str(s)) => Some(s),
            _ => None,
        }
    }

    /// The unsigned integer under `key`, if present with that type.
    pub fn get_uint(&self, key: &str) -> Option<u64> {
        match self.get(key) {
            Some(Value::UInt(n)) => Some(*n),
            _ => None,
        }
    }

    /// The boolean under `key`, if present with that type.
    pub fn get_bool(&self, key: &str) -> Option<bool> {
        match self.get(key) {
            Some(Value::Bool(b)) => Some(*b),
            _ => None,
        }
    }

    /// Serializes the frame as one JSON line (no trailing newline).
    pub fn encode(&self) -> String {
        let mut out = String::with_capacity(32);
        out.push('{');
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            encode_str(&mut out, k);
            out.push(':');
            match v {
                Value::Str(s) => encode_str(&mut out, s),
                Value::UInt(n) => {
                    let _ = write!(out, "{n}");
                }
                Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            }
        }
        out.push('}');
        out
    }

    /// Parses one frame from one line. Strict about shape (a single flat
    /// object, no duplicate keys, only the three value types) but total:
    /// any input — malformed escapes, truncation, nesting, raw control
    /// bytes — yields `Err`, never a panic. The fuzz suite holds the
    /// codec to that.
    pub fn parse(line: &str) -> Result<Frame, String> {
        let mut p = Parser {
            bytes: line.as_bytes(),
            pos: 0,
            src: line,
        };
        p.skip_ws();
        p.expect(b'{')?;
        let mut fields = Vec::new();
        let mut seen = BTreeMap::new();
        p.skip_ws();
        if p.peek() == Some(b'}') {
            p.pos += 1;
        } else {
            loop {
                p.skip_ws();
                let key = p.parse_string()?;
                if seen.insert(key.clone(), ()).is_some() {
                    return Err(format!("duplicate key {key:?}"));
                }
                p.skip_ws();
                p.expect(b':')?;
                p.skip_ws();
                let value = p.parse_value()?;
                fields.push((key, value));
                p.skip_ws();
                match p.next() {
                    Some(b',') => continue,
                    Some(b'}') => break,
                    other => return Err(unexpected(other, "',' or '}'")),
                }
            }
        }
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes after frame at offset {}", p.pos));
        }
        Ok(Frame { fields })
    }
}

/// Writes `s` as a JSON string literal into `out`. Runs of bytes that
/// need no escape are copied whole; every byte that does is ASCII, so
/// each run ends on a character boundary.
fn encode_str(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            0x08 => out.push_str("\\b"),
            0x0C => out.push_str("\\f"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

fn unexpected(got: Option<u8>, want: &str) -> String {
    match got {
        Some(b) => format!("expected {want}, got {:?}", b as char),
        None => format!("expected {want}, got end of input"),
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    src: &'a str,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        match self.next() {
            Some(b) if b == want => Ok(()),
            other => Err(unexpected(other, &format!("'{}'", want as char))),
        }
    }

    fn parse_value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b'0'..=b'9') => self.parse_uint(),
            Some(b't') => self.parse_lit("true", Value::Bool(true)),
            Some(b'f') => self.parse_lit("false", Value::Bool(false)),
            other => Err(unexpected(other, "a string, unsigned integer, or boolean")),
        }
    }

    fn parse_lit(&mut self, lit: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn parse_uint(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let digits = &self.src[start..self.pos];
        // Reject redundant leading zeros (strict JSON) so every integer
        // has one canonical encoding.
        if digits.len() > 1 && digits.starts_with('0') {
            return Err(format!("leading zero in integer {digits:?}"));
        }
        digits
            .parse::<u64>()
            .map(Value::UInt)
            .map_err(|_| format!("integer out of range: {digits:?}"))
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes up to the next quote/escape.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            // The slice is valid UTF-8 by construction (src is a &str and
            // we only stop on ASCII boundaries).
            out.push_str(&self.src[start..self.pos]);
            match self.next() {
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.next() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{08}'),
                    Some(b'f') => out.push('\u{0C}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hi = self.parse_hex4()?;
                        let c = if (0xD800..0xDC00).contains(&hi) {
                            // High surrogate: require the paired low half.
                            if self.next() != Some(b'\\') || self.next() != Some(b'u') {
                                return Err("unpaired surrogate".to_string());
                            }
                            let lo = self.parse_hex4()?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err("invalid low surrogate".to_string());
                            }
                            let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                            char::from_u32(cp).ok_or("bad surrogate pair")?
                        } else if (0xDC00..0xE000).contains(&hi) {
                            return Err("unpaired low surrogate".to_string());
                        } else {
                            char::from_u32(hi).ok_or("bad \\u escape")?
                        };
                        out.push(c);
                    }
                    other => return Err(unexpected(other, "an escape character")),
                },
                Some(b) if b < 0x20 => return Err(format!("raw control byte {b:#04x} in string")),
                other => return Err(unexpected(other, "'\"'")),
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, String> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self.next().ok_or("truncated \\u escape")?;
            let d = (b as char).to_digit(16).ok_or("bad hex digit")?;
            v = (v << 4) | d;
        }
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_the_three_value_types() {
        let f = Frame::new()
            .str("op", "query")
            .uint("id", 42)
            .bool("ok", true);
        let line = f.encode();
        assert_eq!(line, r#"{"op":"query","id":42,"ok":true}"#);
        assert_eq!(Frame::parse(&line).unwrap(), f);
    }

    #[test]
    fn escapes_round_trip() {
        let wild = "quote \" backslash \\ newline \n tab \t bell \u{07} astral \u{1F600} ok";
        let f = Frame::new().str("s", wild);
        let parsed = Frame::parse(&f.encode()).unwrap();
        assert_eq!(parsed.get_str("s"), Some(wild));
        // Escaped input parses too, including a surrogate pair.
        let f = Frame::parse(r#"{"s":"aéb😀c\/d"}"#).unwrap();
        assert_eq!(f.get_str("s"), Some("aéb\u{1F600}c/d"));
    }

    /// The char-at-a-time encoder `encode_str` replaced, kept as its
    /// reference.
    fn encode_str_by_char(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                '\u{08}' => out.push_str("\\b"),
                '\u{0C}' => out.push_str("\\f"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    #[test]
    fn run_copying_encoder_matches_the_char_by_char_one() {
        let mut cases = vec![
            String::new(),
            "é\"ü\n日本\u{1F600}\\".to_string(),
            "\u{1F600}\u{01}é".to_string(),
            "<r><a>ß</a></r>\t\u{7f}\u{80}\u{7ff}\u{800}\u{ffff}".to_string(),
        ];
        for b in 0x00..=0x7fu8 {
            let c = b as char;
            cases.push(c.to_string());
            cases.push(format!("a{c}b"));
            cases.push(format!("é{c}\u{1F600}{c}{c}日"));
        }
        for s in &cases {
            let (mut got, mut want) = (String::new(), String::new());
            encode_str(&mut got, s);
            encode_str_by_char(&mut want, s);
            assert_eq!(got, want, "{s:?}");
        }
    }

    #[test]
    fn rejects_malformed_frames() {
        for bad in [
            "",
            "null",
            "[1]",
            "{",
            "{}extra",
            r#"{"a":1"#,
            r#"{"a":-1}"#,
            r#"{"a":1.5}"#,
            r#"{"a":01}"#,
            r#"{"a":{}}"#,
            r#"{"a":null}"#,
            r#"{"a":1,"a":2}"#,
            r#"{"a":"\x"}"#,
            r#"{"a":"\ud800"}"#,
            r#"{"a":"\udc00x"}"#,
            r#"{"a":18446744073709551616}"#, // u64::MAX + 1
            "{\"a\":\"raw\u{01}ctl\"}",
        ] {
            assert!(Frame::parse(bad).is_err(), "accepted: {bad:?}");
        }
        // Empty object is fine (the server rejects it at the op level).
        assert!(Frame::parse("{}").unwrap().get("op").is_none());
    }
}
