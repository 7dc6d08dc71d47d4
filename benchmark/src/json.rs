//! The little JSON the harness writes (result line, ledger, span file).
//! It never reads JSON: children report to the parent in `key value`
//! lines.

use std::fmt::Write;

pub enum Json {
    Bool(bool),
    U(u64),
    F(f64),
    S(String),
    A(Vec<Json>),
    O(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
        Json::O(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    pub fn floats(values: &[f64]) -> Json {
        Json::A(values.iter().map(|&v| Json::F(v)).collect())
    }

    /// One line, no trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U(n) => {
                let _ = write!(out, "{n}");
            }
            // `{}` on an f64 prints the shortest text that reads back
            // to the same value: every digit measured, none invented.
            Json::F(x) if x.is_finite() => {
                let _ = write!(out, "{x}");
            }
            Json::F(_) => out.push_str("null"),
            Json::S(s) => out.push_str(&string(s)),
            Json::A(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::O(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&string(k));
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_values_and_escapes() {
        let v = Json::obj([
            ("ok", Json::Bool(true)),
            ("n", Json::U(7)),
            ("x", Json::F(1.25)),
            ("nan", Json::F(f64::NAN)),
            ("s", Json::S("a\"b\\c\nd\u{1}".to_string())),
            ("a", Json::floats(&[0.5, 2.0])),
        ]);
        assert_eq!(
            v.render(),
            "{\"ok\": true, \"n\": 7, \"x\": 1.25, \"nan\": null, \
             \"s\": \"a\\\"b\\\\c\\nd\\u0001\", \"a\": [0.5, 2]}"
        );
    }
}
