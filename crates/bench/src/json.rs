//! The one JSON emitter behind every artifact `repro` writes, and the
//! minimal reader `repro check-bench` diffs those artifacts with.
//!
//! A document is built as a [`Json`] tree and rendered once: strings are
//! escaped, integers print exactly, and a non-finite float — which has
//! no JSON form — becomes `null`. [`parse`] reads any RFC 8259 document
//! back as a [`Value`] tree; it keeps structure, not number text, which
//! is all a schema check needs.

use std::fmt::Write as _;

/// One JSON value.
#[derive(Debug, Clone)]
pub enum Json {
    Bool(bool),
    /// Printed digit for digit (counts above 2⁵³ survive).
    Int(u64),
    /// Shortest text that round-trips the `f64`.
    Num(f64),
    /// Rounded to a fixed number of decimals, for timings whose trailing
    /// digits are noise.
    Fixed(f64, usize),
    Str(String),
    Arr(Vec<Json>),
    /// Fields in insertion order.
    Obj(Vec<(&'static str, Json)>),
}

/// An object from `(key, value)` pairs.
pub fn obj<const N: usize>(fields: [(&'static str, Json); N]) -> Json {
    Json::Obj(fields.into())
}

/// `v` rounded to `decimals` places.
pub fn fixed(v: f64, decimals: usize) -> Json {
    Json::Fixed(v, decimals)
}

macro_rules! json_from {
    ($($t:ty => |$v:ident| $e:expr),* $(,)?) => {$(
        impl From<$t> for Json {
            fn from($v: $t) -> Json {
                $e
            }
        }
    )*};
}
json_from! {
    bool => |v| Json::Bool(v),
    u32 => |v| Json::Int(u64::from(v)),
    u64 => |v| Json::Int(v),
    usize => |v| Json::Int(v as u64),
    f64 => |v| Json::Num(v),
    &str => |v| Json::Str(v.to_string()),
    String => |v| Json::Str(v),
    Vec<Json> => |v| Json::Arr(v),
}

impl Json {
    /// The document as text, newline-terminated. A container holding
    /// only scalars stays on one line; any other puts one child per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn is_container(&self) -> bool {
        matches!(self, Json::Arr(_) | Json::Obj(_))
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Num(v) | Json::Fixed(v, _) if !v.is_finite() => out.push_str("null"),
            // `{:?}` is the shortest round-trip form and, unlike `{}`,
            // switches to an exponent for very small and large values.
            Json::Num(v) => {
                let _ = write!(out, "{v:?}");
            }
            Json::Fixed(v, decimals) => {
                let _ = write!(out, "{v:.decimals$}");
            }
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                write_container(out, indent, '[', ']', items.iter().map(|v| (None, v)))
            }
            Json::Obj(fields) => write_container(
                out,
                indent,
                '{',
                '}',
                fields.iter().map(|(k, v)| (Some(*k), v)),
            ),
        }
    }
}

fn write_container<'a>(
    out: &mut String,
    indent: usize,
    open: char,
    close: char,
    children: impl ExactSizeIterator<Item = (Option<&'static str>, &'a Json)> + Clone,
) {
    if children.len() == 0 {
        out.push(open);
        out.push(close);
        return;
    }
    let multiline = children.clone().any(|(_, v)| v.is_container());
    out.push(open);
    for (i, (key, value)) in children.enumerate() {
        if i > 0 {
            out.push(',');
        }
        if multiline {
            let _ = write!(out, "\n{:width$}", "", width = indent + 2);
        } else if i > 0 || key.is_some() {
            out.push(' ');
        }
        if let Some(key) = key {
            write_string(out, key);
            out.push_str(": ");
        }
        value.write(out, indent + 2);
    }
    if multiline {
        let _ = write!(out, "\n{:indent$}", "");
    } else if open == '{' {
        out.push(' ');
    }
    out.push(close);
}

fn write_string(out: &mut String, s: &str) {
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

/// A parsed JSON value.
#[derive(Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    /// Fields in document order.
    Obj(Vec<(String, Value)>),
}

/// Parses one JSON document: a value with optional whitespace around it
/// and nothing else. Errors name the byte offset.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { text, pos: 0 };
    let value = p.value()?;
    p.ws();
    if p.pos < text.len() {
        return Err(p.error("trailing characters"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.ws();
        let literal = |p: &mut Self, word: &str, value: Value| {
            if p.text[p.pos..].starts_with(word) {
                p.pos += word.len();
                Ok(value)
            } else {
                Err(p.error("invalid literal"))
            }
        };
        match self.peek() {
            None => Err(self.error("unexpected end of input")),
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => literal(self, "true", Value::Bool(true)),
            Some(b'f') => literal(self, "false", Value::Bool(false)),
            Some(b'n') => literal(self, "null", Value::Null),
            Some(_) => self.number(),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.pos += 1;
        let mut fields = Vec::new();
        self.ws();
        if self.eat(b'}') {
            return Ok(Value::Obj(fields));
        }
        loop {
            self.ws();
            if self.peek() != Some(b'"') {
                return Err(self.error("expected a string key"));
            }
            let key = self.string()?;
            self.ws();
            self.expect(b':')?;
            fields.push((key, self.value()?));
            self.ws();
            if !self.eat(b',') {
                self.expect(b'}')?;
                return Ok(Value::Obj(fields));
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.pos += 1;
        let mut items = Vec::new();
        self.ws();
        if self.eat(b']') {
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.ws();
            if !self.eat(b',') {
                self.expect(b']')?;
                return Ok(Value::Arr(items));
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.pos += 1;
        let mut out = String::new();
        loop {
            // A run of plain characters ends at an ASCII byte, so it is
            // sliced on a char boundary.
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.error("control character in string")),
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    /// The character a backslash escape stands for, the backslash taken.
    fn escape(&mut self) -> Result<char, String> {
        let Some(b) = self.peek() else {
            return Err(self.error("unterminated string"));
        };
        self.pos += 1;
        Ok(match b {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let mut code = self.hex4()?;
                if (0xD800..0xDC00).contains(&code) {
                    // A high surrogate takes the escaped low one after it.
                    if !(self.eat(b'\\') && self.eat(b'u')) {
                        return Err(self.error("unpaired surrogate"));
                    }
                    let low = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&low) {
                        return Err(self.error("unpaired surrogate"));
                    }
                    code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                }
                char::from_u32(code).ok_or_else(|| self.error("unpaired surrogate"))?
            }
            _ => return Err(self.error("invalid escape")),
        })
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|d| d.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| self.error("expected four hex digits"))?;
        self.pos += 4;
        Ok(u32::from_str_radix(digits, 16).expect("four hex digits"))
    }

    fn digits(&mut self) -> bool {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos > start
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        self.eat(b'-');
        let int = self.eat(b'0') || self.digits();
        let frac = !self.eat(b'.') || self.digits();
        let exp = !(self.eat(b'e') || self.eat(b'E')) || {
            let _ = self.eat(b'+') || self.eat(b'-');
            self.digits()
        };
        if !(int && frac && exp) {
            return Err(self.error("invalid number"));
        }
        let text = &self.text[start..self.pos];
        Ok(Value::Num(
            text.parse().expect("JSON number syntax is f64 syntax"),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reader_reads_what_the_emitter_writes() {
        let doc = obj([
            ("name", "tab\there \"q\" \\ \u{1} é".into()),
            ("big", (u64::MAX - 1).into()),
            (
                "floats",
                vec![(-0.0).into(), f64::NAN.into(), 1e-300.into()].into(),
            ),
            ("rows", vec![obj([("ok", true.into())])].into()),
            ("empty", Json::Arr(Vec::new())),
        ]);
        let s = |v: &str| Value::Str(v.to_string());
        assert_eq!(
            parse(&doc.render()),
            Ok(Value::Obj(vec![
                ("name".into(), s("tab\there \"q\" \\ \u{1} é")),
                ("big".into(), Value::Num(18446744073709551614.0)),
                (
                    "floats".into(),
                    Value::Arr(vec![Value::Num(-0.0), Value::Null, Value::Num(1e-300)])
                ),
                (
                    "rows".into(),
                    Value::Arr(vec![Value::Obj(vec![("ok".into(), Value::Bool(true))])])
                ),
                ("empty".into(), Value::Arr(Vec::new())),
            ]))
        );
        assert_eq!(
            parse(r#" ["\u00e9\ud83d\ude00\/", false, {}, -1.5E+2] "#),
            Ok(Value::Arr(vec![
                s("é😀/"),
                Value::Bool(false),
                Value::Obj(Vec::new()),
                Value::Num(-150.0),
            ]))
        );
    }

    #[test]
    fn the_reader_refuses_what_is_not_json() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "{1: 2}",
            "01",
            "1.",
            "-",
            "1e",
            ".5",
            "tru",
            "nul",
            "\"open",
            "\"\\x\"",
            "\"\\ud83d\"",
            "\"a\nb\"",
            "{} {}",
            "[1 2]",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn a_nested_document_renders_to_this_exact_text() {
        let doc = obj([
            ("name", "a \"quoted\" back\\slash".into()),
            ("big", (u64::MAX - 1).into()),
            (
                "floats",
                vec![(-0.0).into(), f64::NAN.into(), f64::INFINITY.into()].into(),
            ),
            ("rounded", fixed(2.0 / 3.0, 4)),
            ("lost", fixed(f64::NEG_INFINITY, 2)),
            (
                "rows",
                vec![
                    obj([("n", 1usize.into()), ("ok", true.into())]),
                    obj([("n", 2usize.into()), ("ok", false.into())]),
                ]
                .into(),
            ),
            ("empty", Json::Arr(Vec::new())),
        ]);
        assert_eq!(
            doc.render(),
            r#"{
  "name": "a \"quoted\" back\\slash",
  "big": 18446744073709551614,
  "floats": [-0.0, null, null],
  "rounded": 0.6667,
  "lost": null,
  "rows": [
    { "n": 1, "ok": true },
    { "n": 2, "ok": false }
  ],
  "empty": []
}
"#
        );
    }
}
