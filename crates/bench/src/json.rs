//! The one JSON emitter behind every artifact `repro` writes.
//!
//! A document is built as a [`Json`] tree and rendered once: strings are
//! escaped, integers print exactly, and a non-finite float — which has
//! no JSON form — becomes `null`. Write-only on purpose:
//! `scripts/check_bench_schema.py` is the reader.

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

#[cfg(test)]
mod tests {
    use super::*;

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
