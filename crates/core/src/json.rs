//! A minimal JSON value: hand-written recursive-descent parser plus a
//! compact writer, the workspace's one JSON codec. Its users:
//!
//! - the JSONL trace ([`JsonlObserver`](crate::JsonlObserver), behind
//!   `tvp place --trace-out`);
//! - the `hotpaths` bench report (`BENCH_hotpaths.json`) and the
//!   per-size rows its child processes print;
//! - the daemon's job API and its on-disk job records, which reach it
//!   as `tvp_serve::json`.
//!
//! The build environment has no crates.io access, so this plays the role
//! serde_json would for these small payloads. Objects preserve
//! insertion order (they are vectors of pairs); duplicate keys keep the
//! first occurrence on lookup. A non-negative integer literal (no sign,
//! fraction or exponent) that fits in a `u64` stays exact as
//! [`Value::UInt`], so seeds above 2^53 survive a parse and a write;
//! every other number is an `f64`.

use std::fmt::Write as _;

/// One JSON value.
#[derive(Clone, PartialEq, Debug)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A JSON number other than a [`UInt`](Value::UInt) literal.
    Num(f64),
    /// A non-negative integer literal that fits in a `u64`, kept exact.
    UInt(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in insertion order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message with a byte offset on malformed
    /// input, unbalanced nesting deeper than 64 levels, or trailing
    /// content.
    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing content at byte {}", p.pos));
        }
        Ok(value)
    }

    /// Object field lookup (first occurrence). `None` for non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number (an exact integer
    /// rounds to the nearest `f64`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            Value::UInt(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if it is one:
    /// exact for a [`UInt`](Value::UInt), and for a [`Num`](Value::Num)
    /// only up to 2^53, where every integer is still exact.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt(n) => Some(*n),
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes the value as compact JSON. Non-finite numbers render
    /// as `null` (JSON has no NaN/Inf).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Num(n) => {
                if !n.is_finite() {
                    out.push_str("null");
                } else if n.fract() == 0.0 && n.abs() < 2f64.powi(53) {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Value::UInt(n) => {
                let _ = write!(out, "{n}");
            }
            Value::Str(s) => write_escaped(out, s),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Value::Obj(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, key);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Convenience constructor for object literals.
pub fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Convenience constructor for string values.
pub fn s(text: impl Into<String>) -> Value {
    Value::Str(text.into())
}

fn write_escaped(out: &mut String, text: &str) {
    out.push('"');
    for c in text.chars() {
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

const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.bytes.get(self.pos) {
            None => Err(self.err("unexpected end of input")),
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(&b) => Err(self.err(&format!("unexpected byte `{}`", b as char))),
        }
    }

    fn literal(&mut self, text: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{text}`")))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).ok();
        if let Some(n) = text
            .filter(|t| t.bytes().all(|b| b.is_ascii_digit()))
            .and_then(|t| t.parse::<u64>().ok())
        {
            return Ok(Value::UInt(n));
        }
        text.and_then(|t| t.parse::<f64>().ok())
            .filter(|n| n.is_finite())
            .map(Value::Num)
            .ok_or_else(|| self.err("malformed number"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self.bytes.get(self.pos).copied();
                    self.pos += 1;
                    match escape {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("malformed \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs: read the low half when the
                            // high half announces one.
                            let code = if (0xd800..0xdc00).contains(&hex) {
                                if self.bytes.get(self.pos..self.pos + 2) != Some(b"\\u") {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 2;
                                let low = self
                                    .bytes
                                    .get(self.pos..self.pos + 4)
                                    .and_then(|h| std::str::from_utf8(h).ok())
                                    .and_then(|h| u32::from_str_radix(h, 16).ok())
                                    .ok_or_else(|| self.err("malformed \\u escape"))?;
                                self.pos += 4;
                                0x10000 + ((hex - 0xd800) << 10) + (low - 0xdc00)
                            } else {
                                hex
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid \\u code point"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(&b) if b < 0x20 => return Err(self.err("raw control byte in string")),
                Some(_) => {
                    // Consume one UTF-8 scalar (input is &str, so bytes
                    // are valid UTF-8 by construction).
                    let rest = &self.bytes[self.pos..];
                    let len = match rest[0] {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    if let Ok(chunk) = std::str::from_utf8(&rest[..len.min(rest.len())]) {
                        out.push_str(chunk);
                    }
                    self.pos += len.min(rest.len());
                }
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, String> {
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Value::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_reserializes_a_nested_document() {
        let text = r#"{"name":"t1","cells":1000,"alpha":1.5e-5,"tags":["a","b"],"deep":{"ok":true,"none":null}}"#;
        let v = Value::parse(text).unwrap();
        assert_eq!(v.get("name").and_then(Value::as_str), Some("t1"));
        assert_eq!(v.get("cells").and_then(Value::as_u64), Some(1000));
        assert_eq!(v.get("alpha").and_then(Value::as_f64), Some(1.5e-5));
        assert_eq!(
            v.get("tags").and_then(Value::as_arr).map(<[Value]>::len),
            Some(2)
        );
        assert_eq!(
            v.get("deep")
                .and_then(|d| d.get("ok"))
                .and_then(Value::as_bool),
            Some(true)
        );
        // Round trip: parse(to_json(v)) == v.
        assert_eq!(Value::parse(&v.to_json()).unwrap(), v);
    }

    #[test]
    fn escapes_round_trip() {
        let v = Value::Str("a\"b\\c\nd\te\u{1}é✓".to_string());
        let round = Value::parse(&v.to_json()).unwrap();
        assert_eq!(round, v);
        // Unicode escapes, including a surrogate pair, decode correctly.
        let v = Value::parse(r#""é✓😀""#).unwrap();
        assert_eq!(v.as_str(), Some("é✓😀"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "1 2",
            "\"unterminated",
            "{\"a\":1}x",
            "nan",
            "1e999",
        ] {
            assert!(Value::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn rejects_pathological_nesting_without_overflowing() {
        let deep = "[".repeat(100_000) + &"]".repeat(100_000);
        assert!(Value::parse(&deep).is_err());
    }

    #[test]
    fn integer_literals_stay_exact_through_parse_and_write() {
        for text in ["9007199254740993", "18446744073709551615"] {
            let v = Value::parse(text).unwrap();
            assert_eq!(v.as_u64(), text.parse().ok(), "{text}");
            assert_eq!(v.to_json(), text);
            assert_eq!(v.as_f64(), text.parse().ok());
        }
        // Past u64, signed, or with a fraction or an exponent: an f64.
        for text in ["18446744073709551616", "-1", "1e300", "2.5"] {
            let v = Value::parse(text).unwrap();
            assert!(matches!(v, Value::Num(_)), "{text}");
            assert_eq!(v.as_u64(), None, "{text}");
        }
        // Integers below 2^53 write the same bytes either way.
        assert_eq!(Value::parse("1000").unwrap().to_json(), "1000");
        assert_eq!(Value::Num(1000.0).to_json(), "1000");
    }

    #[test]
    fn non_finite_numbers_serialize_as_null() {
        assert_eq!(Value::Num(f64::NAN).to_json(), "null");
        assert_eq!(Value::Num(1.0).to_json(), "1");
        assert_eq!(Value::Num(1.25).to_json(), "1.25");
    }
}
