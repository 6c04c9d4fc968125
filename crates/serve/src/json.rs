//! Minimal JSON support for the service, implemented on `std` alone.
//!
//! The service's request/response surface is tiny — objects of strings and
//! string arrays in, flat objects out — so this module implements exactly
//! RFC 8259 parsing (all value kinds, escape sequences including `\uXXXX`
//! with surrogate pairs, a recursion depth cap) plus string escaping for
//! output. Numbers are kept as `f64`, which is sufficient here: nothing in
//! the protocol carries integers wider than 2^53.

use std::collections::BTreeMap;
use std::fmt;

/// Nesting cap: a request nested deeper than this is rejected rather than
/// risking parser stack exhaustion on adversarial input.
const MAX_DEPTH: usize = 32;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Json>),
    Object(BTreeMap<String, Json>),
}

impl Json {
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_number(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(map) => map.get(key),
            _ => None,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    pub at: usize,
    pub what: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.what, self.at)
    }
}

impl std::error::Error for ParseError {}

pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, what: &'static str) -> ParseError {
        ParseError { at: self.pos, what }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8, what: &'static str) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn literal(&mut self, word: &str, what: &'static str) -> Result<(), ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", "expected null").map(|_| Json::Null),
            Some(b't') => self
                .literal("true", "expected true")
                .map(|_| Json::Bool(true)),
            Some(b'f') => self
                .literal("false", "expected false")
                .map(|_| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::String),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.expect(b'[', "expected [")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected , or ]")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.expect(b'{', "expected {")?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':', "expected :")?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(map));
                }
                _ => return Err(self.err("expected , or }")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Number)
            .map_err(|_| ParseError {
                at: start,
                what: "bad number",
            })
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"', "expected string")?;
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let ch = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: a low surrogate must follow.
                                self.literal("\\u", "expected low surrogate")?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("bad low surrogate"));
                                }
                                let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(code).ok_or_else(|| self.err("bad codepoint"))?
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("bad codepoint"))?
                            };
                            out.push(ch);
                            continue; // hex4 already advanced pos
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    // Copy the whole run of plain bytes at once. The run
                    // ends at an ASCII byte or at the end of the input,
                    // both character boundaries of the `&str` body.
                    let start = self.pos;
                    while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    /// Four hex digits; leaves `pos` just past them.
    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(b @ b'0'..=b'9') => (b - b'0') as u32,
                Some(b @ b'a'..=b'f') => (b - b'a' + 10) as u32,
                Some(b @ b'A'..=b'F') => (b - b'A' + 10) as u32,
                _ => return Err(self.err("bad \\u escape")),
            };
            code = (code << 4) | d;
            self.pos += 1;
        }
        Ok(code)
    }
}

/// Escape a string for embedding in JSON output (no surrounding quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// `"key":"escaped-value"` or `"key":null`.
pub fn str_field(key: &str, value: Option<&str>) -> String {
    match value {
        Some(v) => format!("\"{}\":\"{}\"", escape(key), escape(v)),
        None => format!("\"{}\":null", escape(key)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_request_shapes() {
        let v = parse(r#"{"values": ["4111", "x y", ""], "limit": 3}"#).unwrap();
        let values = v.get("values").unwrap().as_array().unwrap();
        assert_eq!(values.len(), 3);
        assert_eq!(values[0].as_str(), Some("4111"));
        assert_eq!(v.get("limit"), Some(&Json::Number(3.0)));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parses_escapes_and_surrogates() {
        let v = parse(r#""a\n\t\"\\ \u00e9 \ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("a\n\t\"\\ é 😀"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "\"unterminated",
            "{\"a\" 1}",
            "nul",
            "01x",
            "{\"a\":1} extra",
            "\"\\ud800\"",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
        // Depth bomb.
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let original = "line\nquote\" back\\slash\ttab\u{1}";
        let parsed = parse(&format!("\"{}\"", escape(original))).unwrap();
        assert_eq!(parsed.as_str(), Some(original));
    }

    #[test]
    fn a_one_mib_string_parses_in_linear_time() {
        // Plain runs of ASCII and multi-byte text between escapes. A
        // quadratic parse of this body takes tens of seconds; a linear one
        // takes milliseconds even unoptimized.
        let chunk = "4111 1111 1111 1111 — ünïcødé ✓ ";
        let mut original = String::new();
        while original.len() < 1 << 20 {
            original.push_str(chunk);
            original.push('\n');
        }
        let body = format!("\"{}\"", escape(&original));
        let start = std::time::Instant::now();
        let parsed = parse(&body).unwrap();
        let took = start.elapsed();
        assert_eq!(parsed.as_str(), Some(original.as_str()));
        assert!(took.as_millis() < 500, "1 MiB string took {took:?}");
    }
}
