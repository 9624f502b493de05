//! One tiny JSON writer and the matching reader.
//!
//! The writer is a push API over a `String` that tracks where commas
//! go; the reader parses what the writer emits (objects, arrays,
//! strings, numbers, booleans, null) into a [`Value`] tree for
//! `compare` and the `BENCHMARK.json` agreement test. Neither is a
//! general-purpose JSON library.

use std::collections::BTreeMap;

/// Builds one JSON document. Containers are opened and closed
/// explicitly; separators are the writer's business.
#[derive(Debug, Default)]
pub struct Writer {
    out: String,
    /// One entry per open container: whether it already holds an item.
    has_item: Vec<bool>,
    /// A key was just written; the next value follows it directly.
    after_key: bool,
}

impl Writer {
    pub fn new() -> Self {
        Self::default()
    }

    fn separate(&mut self) {
        if self.after_key {
            self.after_key = false;
            return;
        }
        if let Some(has) = self.has_item.last_mut() {
            if *has {
                self.out.push(',');
            }
            *has = true;
        }
    }

    fn push_string(&mut self, s: &str) {
        self.out.push('"');
        for c in s.chars() {
            match c {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                '\r' => self.out.push_str("\\r"),
                '\t' => self.out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    self.out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
    }

    pub fn begin_object(&mut self) -> &mut Self {
        self.separate();
        self.out.push('{');
        self.has_item.push(false);
        self
    }

    pub fn end_object(&mut self) -> &mut Self {
        self.has_item
            .pop()
            .expect("end_object without begin_object");
        self.out.push('}');
        self
    }

    pub fn begin_array(&mut self) -> &mut Self {
        self.separate();
        self.out.push('[');
        self.has_item.push(false);
        self
    }

    pub fn end_array(&mut self) -> &mut Self {
        self.has_item.pop().expect("end_array without begin_array");
        self.out.push(']');
        self
    }

    /// Writes an object key; the next call writes its value.
    pub fn key(&mut self, k: &str) -> &mut Self {
        self.separate();
        self.push_string(k);
        self.out.push(':');
        self.after_key = true;
        self
    }

    pub fn string(&mut self, s: &str) -> &mut Self {
        self.separate();
        self.push_string(s);
        self
    }

    /// A number with every digit `f64` round-trips through; non-finite
    /// values have no JSON form and become `null`.
    pub fn number(&mut self, v: f64) -> &mut Self {
        if !v.is_finite() {
            return self.null();
        }
        self.separate();
        self.out.push_str(&format!("{v}"));
        self
    }

    pub fn integer(&mut self, v: u64) -> &mut Self {
        self.separate();
        self.out.push_str(&v.to_string());
        self
    }

    pub fn null(&mut self) -> &mut Self {
        self.separate();
        self.out.push_str("null");
        self
    }

    pub fn boolean(&mut self, v: bool) -> &mut Self {
        self.separate();
        self.out.push_str(if v { "true" } else { "false" });
        self
    }

    pub fn finish(self) -> String {
        assert!(self.has_item.is_empty(), "unclosed JSON container");
        self.out
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Value>),
    Object(BTreeMap<String, Value>),
}

impl Value {
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.get(key),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    #[cfg(test)]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }
}

/// Parses one JSON document, rejecting trailing content.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing content at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, lit: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(format!("expected `{lit}` at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => Err("unexpected end of input".into()),
            Some(b'{') => {
                self.pos += 1;
                let mut map = BTreeMap::new();
                loop {
                    self.skip_ws();
                    if self.bytes.get(self.pos) == Some(&b'}') {
                        self.pos += 1;
                        return Ok(Value::Object(map));
                    }
                    if !map.is_empty() {
                        self.expect(",")?;
                        self.skip_ws();
                    }
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(":")?;
                    map.insert(key, self.value()?);
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                loop {
                    self.skip_ws();
                    if self.bytes.get(self.pos) == Some(&b']') {
                        self.pos += 1;
                        return Ok(Value::Array(items));
                    }
                    if !items.is_empty() {
                        self.expect(",")?;
                    }
                    items.push(self.value()?);
                }
            }
            Some(b'"') => self.string().map(Value::String),
            Some(b't') => self.expect("true").map(|()| Value::Bool(true)),
            Some(b'f') => self.expect("false").map(|()| Value::Bool(false)),
            Some(b'n') => self.expect("null").map(|()| Value::Null),
            Some(_) => {
                let start = self.pos;
                while self.bytes.get(self.pos).is_some_and(|b| {
                    b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E')
                }) {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
                text.parse::<f64>()
                    .map(Value::Number)
                    .map_err(|_| format!("bad number `{text}` at byte {start}"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect("\"")?;
        let mut out = Vec::new();
        loop {
            let b = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| "unterminated string".to_string())?;
            self.pos += 1;
            match b {
                b'"' => return String::from_utf8(out).map_err(|_| "bad utf-8".to_string()),
                b'\\' => {
                    let e = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match e {
                        b'"' | b'\\' | b'/' => out.push(e),
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| "bad \\u escape".to_string())?;
                            self.pos += 4;
                            out.extend_from_slice(hex.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        other => return Err(format!("unknown escape \\{}", other as char)),
                    }
                }
                other => out.push(other),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_places_commas_and_escapes() {
        let mut w = Writer::new();
        w.begin_object();
        w.key("name").string("a \"quoted\"\nline\\");
        w.key("n").integer(3);
        w.key("ok").boolean(true);
        w.key("values").begin_array();
        w.number(1.5).number(0.1 + 0.2).number(f64::NAN);
        w.begin_object().key("k").number(-2.0).end_object();
        w.end_array();
        w.key("empty").begin_object().end_object();
        w.end_object();
        assert_eq!(
            w.finish(),
            "{\"name\":\"a \\\"quoted\\\"\\nline\\\\\",\"n\":3,\"ok\":true,\
             \"values\":[1.5,0.30000000000000004,null,{\"k\":-2}],\"empty\":{}}"
        );
    }

    #[test]
    fn reader_round_trips_what_the_writer_emits() {
        let mut w = Writer::new();
        w.begin_object();
        w.key("metrics").begin_object();
        w.key("ops_per_s").begin_object();
        w.key("value").number(123456.789012345);
        w.key("unit").string("1/s");
        w.end_object().end_object();
        w.key("tags")
            .begin_array()
            .string("a\tb")
            .boolean(false)
            .end_array();
        w.end_object();
        let text = w.finish();
        let v = parse(&text).expect("parses");
        let m = v
            .get("metrics")
            .and_then(|m| m.get("ops_per_s"))
            .expect("metric");
        assert_eq!(
            m.get("value").and_then(Value::as_f64),
            Some(123456.789012345)
        );
        assert_eq!(m.get("unit").and_then(Value::as_str), Some("1/s"));
        let tags = v.get("tags").and_then(Value::as_array).expect("tags");
        assert_eq!(tags[0].as_str(), Some("a\tb"));
        assert_eq!(tags[1], Value::Bool(false));
    }

    #[test]
    fn reader_rejects_malformed_documents() {
        assert!(parse("{\"a\":1,}").is_err());
        assert!(parse("[1 2]").is_err());
        assert!(parse("{\"a\":1} x").is_err());
        assert!(parse("\"open").is_err());
        assert!(parse(" [ 1 , 2.5e3 , null ] ").is_ok());
    }
}
