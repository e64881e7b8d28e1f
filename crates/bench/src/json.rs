//! The one writer of every `BENCH_*.json`: an ordered [`Json`] value and
//! its renderer. No bench module writes JSON punctuation by hand; each
//! builds a `Json` and calls [`Json::render`] once.
//!
//! Objects keep insertion order and a float keeps the decimals its field
//! was given ([`Json::Fixed`]), so a run renders byte for byte the same
//! way every time. A non-finite float has no JSON form and renders as
//! `null`.
//!
//! # Layout
//!
//! One rule: a container goes one entry per line if it holds an array of
//! containers, at any depth, and on one line otherwise; the root always
//! goes one entry per line. Entries are indented two spaces per level,
//! and a one-line container separates its entries with `", "`. So a row
//! of scalars (an `exec` header, a [`Summary`], a sweep point) stays on
//! one line a diff can show whole, and a list of rows has one row per
//! line.

use dex::prelude::Summary;
use std::fmt::Write as _;

/// A JSON value whose objects keep their insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(u64),
    /// A float and the number of decimals it renders with
    /// (`{:.decimals$}`).
    Fixed(f64, usize),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs, in order.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An array of anything that converts to `Json`.
    pub fn arr<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }

    /// A 64-bit digest as a string, `0x` and 16 hex digits.
    pub fn hex(x: u64) -> Json {
        Json::Str(format!("{x:#018x}"))
    }

    /// Append `key: value` to an object.
    ///
    /// # Panics
    /// If `self` is not an object.
    pub fn push(&mut self, key: impl Into<String>, value: impl Into<Json>) {
        match self {
            Json::Obj(pairs) => pairs.push((key.into(), value.into())),
            other => panic!("push onto a non-object {other:?}"),
        }
    }

    /// The document: the root one entry per line, then a newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0, true);
        out.push('\n');
        out
    }

    /// Does this value hold an array of containers, at any depth?
    fn spreads(&self) -> bool {
        match self {
            Json::Arr(items) => items
                .iter()
                .any(|v| matches!(v, Json::Arr(_) | Json::Obj(_))),
            Json::Obj(pairs) => pairs.iter().any(|(_, v)| v.spreads()),
            _ => false,
        }
    }

    fn write(&self, out: &mut String, indent: usize, spread: bool) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(x) => {
                let _ = write!(out, "{x}");
            }
            Json::Fixed(x, d) if x.is_finite() => {
                let _ = write!(out, "{x:.d$}");
            }
            Json::Fixed(..) => out.push_str("null"),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => write_entries(out, indent, spread, ('[', ']'), items, |out, v| {
                v.write(out, indent + 2, v.spreads());
            }),
            Json::Obj(pairs) => {
                write_entries(out, indent, spread, ('{', '}'), pairs, |out, (k, v)| {
                    write_str(k, out);
                    out.push_str(": ");
                    v.write(out, indent + 2, v.spreads());
                })
            }
        }
    }
}

/// A container's entries between its brackets: on one line, or one per
/// line indented `indent + 2` with the closing bracket at `indent`.
fn write_entries<T>(
    out: &mut String,
    indent: usize,
    spread: bool,
    (open, close): (char, char),
    entries: &[T],
    entry: impl Fn(&mut String, &T),
) {
    out.push(open);
    for (i, e) in entries.iter().enumerate() {
        if spread {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.extend(std::iter::repeat_n(' ', indent + 2));
        } else if i > 0 {
            out.push_str(", ");
        }
        entry(out, e);
    }
    if spread {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', indent));
    }
    out.push(close);
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

macro_rules! int_from {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(x: $t) -> Json {
                Json::Int(x as u64)
            }
        }
    )*};
}
int_from!(u32, u64, usize);

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(x: Option<T>) -> Json {
        x.map_or(Json::Null, Into::into)
    }
}

/// One [`Summary`] as the object every `BENCH_*.json` uses.
impl From<&Summary> for Json {
    fn from(s: &Summary) -> Json {
        Json::obj([
            ("count", s.count.into()),
            ("mean", Json::Fixed(s.mean, 4)),
            ("p50", s.p50.into()),
            ("p95", s.p95.into()),
            ("p99", s.p99.into()),
            ("p999", s.p999.into()),
            ("max", s.max.into()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_escape_quote_backslash_and_control_characters() {
        let s = Json::from("a\"b\\c\nd\te\u{1}Φ(Z(23))");
        assert_eq!(
            Json::obj([("s", s)]).render(),
            "{\n  \"s\": \"a\\\"b\\\\c\\nd\\te\\u0001Φ(Z(23))\"\n}\n"
        );
    }

    #[test]
    fn floats_keep_their_decimals_and_non_finite_is_null() {
        let row = Json::obj([
            ("a", Json::Fixed(0.5, 4)),
            ("b", Json::Fixed(2.0 / 3.0, 6)),
            ("c", Json::Fixed(1234.56, 0)),
            ("d", Json::Fixed(f64::NAN, 2)),
            ("e", Json::Fixed(f64::INFINITY, 1)),
            ("f", None::<u64>.into()),
            ("g", 7u64.into()),
        ]);
        let mut root = Json::obj::<&str>([]);
        root.push("row", row);
        assert_eq!(
            root.render(),
            "{\n  \"row\": {\"a\": 0.5000, \"b\": 0.666667, \"c\": 1235, \"d\": null, \
             \"e\": null, \"f\": null, \"g\": 7}\n}\n"
        );
    }

    #[test]
    fn only_arrays_of_containers_spread_and_the_root_always_does() {
        let scalars = Json::obj([("n", 1u64.into()), ("xs", Json::arr([1u64, 2]))]);
        let rows = Json::obj([(
            "rows",
            Json::arr([Json::obj([("k", 1u64.into())]), Json::arr([2u64])]),
        )]);
        let root = Json::obj([("scalars", scalars), ("wrapped", rows)]);
        assert_eq!(
            root.render(),
            "{\n  \"scalars\": {\"n\": 1, \"xs\": [1, 2]},\n  \"wrapped\": {\n    \"rows\": [\n      \
             {\"k\": 1},\n      [2]\n    ]\n  }\n}\n"
        );
        assert_eq!(Json::obj::<&str>([]).render(), "{\n}\n");
    }

    #[test]
    fn exec_header_is_one_line_at_two_spaces() {
        let root = Json::obj([
            ("config", Json::obj([("smoke", true.into())])),
            ("exec", crate::exec_header()),
            ("rows", Json::arr([Json::arr([1u64])])),
        ]);
        let text = root.render();
        let exec: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("  \"exec\": {"))
            .collect();
        assert_eq!(exec.len(), 1, "{text}");
        assert!(exec[0].ends_with("},") && exec[0].contains("\"pool_mode\": \""));
    }
}
