//! JSON output for the benchmark: its result line, its report file, its
//! span files and `BENCHMARK.json`.
//!
//! The value tree and the reader are `opa-trace`'s (suite mode reads back
//! the result lines of its own child processes with it); that crate only
//! ever writes fixed-shape trace records, so the general writer lives
//! here. Object keys keep insertion order so emitted files diff cleanly.

pub use opa_trace::json::JsonValue as Json;
use std::fmt::Write as _;

/// Constructors, accessors and rendering for [`Json`].
pub trait JsonExt: Sized {
    fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Self;
    fn str(s: impl Into<String>) -> Self;
    fn as_f64(&self) -> Option<f64>;
    fn as_bool(&self) -> Option<bool>;
    fn as_str(&self) -> Option<&str>;
    fn fields(&self) -> &[(String, Json)];
    /// Compact single-line rendering.
    fn render(&self) -> String;
    /// Indented multi-line rendering, newline-terminated.
    fn render_pretty(&self) -> String;
}

impl JsonExt for Json {
    fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn fields(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(fields) => fields,
            _ => &[],
        }
    }

    fn render(&self) -> String {
        let mut out = String::new();
        write(self, &mut out, None, 0);
        out
    }

    fn render_pretty(&self) -> String {
        let mut out = String::new();
        write(self, &mut out, Some(2), 0);
        out.push('\n');
        out
    }
}

fn write(value: &Json, out: &mut String, indent: Option<usize>, depth: usize) {
    let newline = |out: &mut String, depth: usize| {
        if let Some(w) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', w * depth));
        }
    };
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) => write_num(out, *n),
        Json::Str(s) => write_str(out, s),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(out, depth + 1);
                write(item, out, indent, depth + 1);
            }
            if !items.is_empty() {
                newline(out, depth);
            }
            out.push(']');
        }
        Json::Obj(fields) => {
            // A leaf object (no nested containers) stays on one line
            // even when pretty-printing: metric tables read as rows.
            let leaf = fields
                .iter()
                .all(|(_, v)| !matches!(v, Json::Arr(_) | Json::Obj(_)));
            let inner = if leaf { None } else { indent };
            out.push('{');
            for (i, (k, v)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                    if inner.is_none() {
                        out.push(' ');
                    }
                }
                if let Some(w) = inner {
                    out.push('\n');
                    out.extend(std::iter::repeat_n(' ', w * (depth + 1)));
                }
                write_str(out, k);
                out.push_str(": ");
                write(v, out, inner, depth + 1);
            }
            if inner.is_some() && !fields.is_empty() {
                newline(out, depth);
            }
            out.push('}');
        }
    }
}

/// Numbers print with every digit `f64` holds (Rust's shortest
/// round-trip form); whole values print as integers. JSON has no NaN or
/// infinity, so those become `null` — a reader treats that as missing.
fn write_num(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    out.push_str(&opa_trace::json::escape(s));
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_keep_every_digit_and_integers_stay_integers() {
        assert_eq!(Json::Num(1.2034).render(), "1.2034");
        assert_eq!(Json::Num(0.1 + 0.2).render(), "0.30000000000000004");
        assert_eq!(Json::Num(1000.0).render(), "1000");
        assert_eq!(Json::Num(-3.0).render(), "-3");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(
            Json::str("a\"b\\c\nd\u{1}").render(),
            "\"a\\\"b\\\\c\\nd\\u0001\""
        );
    }

    #[test]
    fn compact_line_round_trips_through_the_reader() {
        let doc = Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Num(12.0)),
            ("failed", Json::Num(0.0)),
            (
                "metrics",
                Json::obj([(
                    "setup_s",
                    Json::obj([("value", Json::Num(0.8127)), ("unit", Json::str("s"))]),
                )]),
            ),
        ]);
        let line = doc.render();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        assert_eq!(Json::parse(&line).unwrap(), doc);
    }

    #[test]
    fn pretty_rendering_round_trips_and_keeps_leaf_objects_on_one_line() {
        let doc = Json::obj([
            ("paths", Json::Arr(vec![Json::str("opa_perf")])),
            (
                "workloads",
                Json::Arr(vec![Json::obj([
                    ("name", Json::str("a")),
                    ("why", Json::str("b")),
                ])]),
            ),
            ("empty", Json::Arr(vec![])),
        ]);
        let text = doc.render_pretty();
        assert!(text.contains("    {\"name\": \"a\", \"why\": \"b\"}\n"));
        assert!(text.ends_with("}\n"));
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn accessors() {
        let doc =
            Json::parse("{\"a\": {\"value\": 2.5, \"unit\": \"ms\"}, \"ok\": false}").unwrap();
        let a = doc.get("a").unwrap();
        assert_eq!(a.get("value").and_then(Json::as_f64), Some(2.5));
        assert_eq!(a.get("unit").and_then(Json::as_str), Some("ms"));
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(doc.get("missing"), None);
        assert_eq!(doc.fields().len(), 2);
    }
}
