//! A minimal JSON reader used by the trace decoder and the Chrome-export
//! tests.
//!
//! The workspace has no serialization dependency: trace records are
//! written with fixed field order by [`crate::TraceEvent::write_json`] and
//! parsed here. The grammar supported is the full JSON value grammar;
//! every number is kept as an `f64` ([`JsonValue::Num`]), and
//! [`JsonValue::u64_field`] reads back only the integers an `f64` holds
//! exactly, those below 2^53 (trace records only ever contain integers,
//! strings and booleans, all far below that).

use opa_common::{Error, Result};

/// 2^53: every integer below it is an exact `f64`, not every one above.
const EXACT_INTEGER_LIMIT: f64 = 9_007_199_254_740_992.0;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number. Integral values round-trip exactly through `f64`
    /// below 2^53, far beyond any trace field in practice.
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in source order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses `text` as a single JSON value (trailing whitespace
    /// allowed, trailing garbage rejected).
    pub fn parse(text: &str) -> Result<JsonValue> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(Error::job(format!(
                "trailing characters at byte {} in JSON input",
                p.pos
            )));
        }
        Ok(v)
    }

    /// Looks up `key` in an object value.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Fetches a required string field from an object.
    pub fn str_field(&self, key: &str) -> Result<&str> {
        match self.get(key) {
            Some(JsonValue::Str(s)) => Ok(s),
            Some(_) => Err(Error::job(format!("field '{key}' is not a string"))),
            None => Err(Error::job(format!("missing field '{key}'"))),
        }
    }

    /// Fetches a required non-negative integer field from an object. A
    /// value of 2^53 or more is an error: from there on `f64` no longer
    /// holds every integer, so `2^53 + 1` would read as `2^53` and `1e300`
    /// would saturate to `u64::MAX`.
    pub fn u64_field(&self, key: &str) -> Result<u64> {
        match self.get(key) {
            Some(JsonValue::Num(n)) if *n >= 0.0 && n.fract() == 0.0 => {
                if *n < EXACT_INTEGER_LIMIT {
                    Ok(*n as u64)
                } else {
                    Err(Error::job(format!(
                        "field '{key}' is 2^53 or more, beyond the integers read exactly"
                    )))
                }
            }
            Some(_) => Err(Error::job(format!(
                "field '{key}' is not a non-negative integer"
            ))),
            None => Err(Error::job(format!("missing field '{key}'"))),
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::job(format!(
                "expected '{}' at byte {} in JSON input",
                b as char, self.pos
            )))
        }
    }

    fn value(&mut self) -> Result<JsonValue> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(Error::job(format!(
                "unexpected character at byte {} in JSON input",
                self.pos
            ))),
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(Error::job(format!(
                "invalid literal at byte {} in JSON input",
                self.pos
            )))
        }
    }

    fn object(&mut self) -> Result<JsonValue> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                _ => {
                    return Err(Error::job(format!(
                        "expected ',' or '}}' at byte {} in JSON input",
                        self.pos
                    )))
                }
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => {
                    return Err(Error::job(format!(
                        "expected ',' or ']' at byte {} in JSON input",
                        self.pos
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
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
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| Error::job("truncated \\u escape".to_string()))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error::job("bad \\u escape".to_string()))?,
                                16,
                            )
                            .map_err(|_| Error::job("bad \\u escape".to_string()))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error::job("bad \\u escape".to_string()))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(Error::job("bad escape in JSON string".to_string())),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so
                    // boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest)
                        .map_err(|_| Error::job("invalid UTF-8 in JSON string".to_string()))?;
                    let ch = s.chars().next().unwrap();
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
                None => return Err(Error::job("unterminated JSON string".to_string())),
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| Error::job(format!("invalid number '{text}' in JSON input")))
    }
}

/// Escapes `s` for embedding inside a JSON string literal (quotes not
/// included).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
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
    fn parses_nested_values() {
        let v = JsonValue::parse(r#"{"a":1,"b":[true,null,"x\ny"],"c":{"d":-2.5},"e":"A"}"#)
            .expect("parse");
        assert_eq!(v.u64_field("a").unwrap(), 1);
        assert_eq!(
            v.get("b"),
            Some(&JsonValue::Arr(vec![
                JsonValue::Bool(true),
                JsonValue::Null,
                JsonValue::Str("x\ny".into()),
            ]))
        );
        assert_eq!(v.get("c").unwrap().get("d"), Some(&JsonValue::Num(-2.5)));
        assert_eq!(v.str_field("e").unwrap(), "A");
    }

    #[test]
    fn rejects_trailing_garbage_and_bad_fields() {
        assert!(JsonValue::parse("{} x").is_err());
        assert!(JsonValue::parse("{").is_err());
        let v = JsonValue::parse(r#"{"a":-1,"b":1.5,"c":"s"}"#).unwrap();
        assert!(v.u64_field("a").is_err());
        assert!(v.u64_field("b").is_err());
        assert!(v.u64_field("missing").is_err());
        assert!(v.str_field("a").is_err());
        // From 2^53 on `f64` skips integers: 2^53 + 1 parses as 2^53.
        let v = JsonValue::parse(
            r#"{"max":9007199254740991,"p53":9007199254740992,"p53p1":9007199254740993,"wide":18446744073709551616,"huge":1e300,"inf":1e400}"#,
        )
        .unwrap();
        assert_eq!(v.u64_field("max").unwrap(), (1 << 53) - 1);
        for key in ["p53", "p53p1", "wide", "huge", "inf"] {
            let err = v.u64_field(key).unwrap_err().to_string();
            assert!(err.contains(&format!("field '{key}'")), "{err}");
        }
    }

    #[test]
    fn escape_roundtrips_through_parse() {
        let nasty = "line\nquote\" slash\\ tab\t ctrl\u{1} unicode ü";
        let wrapped = format!("{{\"k\":\"{}\"}}", escape(nasty));
        let v = JsonValue::parse(&wrapped).expect("parse");
        assert_eq!(v.str_field("k").unwrap(), nasty);
    }
}
