//! Minimal JSON emission shared by the benchmark binaries.
//!
//! The repo vendors no serde, so the `BENCH_*.json` perf-trajectory records are emitted
//! through this small ordered-object builder instead of each binary hand-rolling string
//! pushes. Field order is insertion order, so the records stay diffable run over run.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (emitted without a decimal point).
    Int(i64),
    /// A float rendered with a fixed number of decimals (keeps records diffable).
    Num {
        /// The value; non-finite values render as `null`.
        value: f64,
        /// Decimal places.
        decimals: usize,
    },
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// A nested object.
    Object(JsonObject),
}

impl From<bool> for JsonValue {
    fn from(v: bool) -> Self {
        JsonValue::Bool(v)
    }
}

impl From<i64> for JsonValue {
    fn from(v: i64) -> Self {
        JsonValue::Int(v)
    }
}

impl From<u64> for JsonValue {
    fn from(v: u64) -> Self {
        JsonValue::Int(v as i64)
    }
}

impl From<usize> for JsonValue {
    fn from(v: usize) -> Self {
        JsonValue::Int(v as i64)
    }
}

impl From<&str> for JsonValue {
    fn from(v: &str) -> Self {
        JsonValue::Str(v.to_string())
    }
}

impl From<String> for JsonValue {
    fn from(v: String) -> Self {
        JsonValue::Str(v)
    }
}

impl From<JsonObject> for JsonValue {
    fn from(v: JsonObject) -> Self {
        JsonValue::Object(v)
    }
}

impl From<Vec<JsonValue>> for JsonValue {
    fn from(v: Vec<JsonValue>) -> Self {
        JsonValue::Array(v)
    }
}

impl JsonValue {
    /// A float with the given number of decimals.
    pub fn num(value: f64, decimals: usize) -> Self {
        JsonValue::Num { value, decimals }
    }

    fn render_into(&self, out: &mut String, indent: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            JsonValue::Int(i) => {
                let _ = write!(out, "{i}");
            }
            JsonValue::Num { value, decimals } => {
                if value.is_finite() {
                    let _ = write!(out, "{value:.decimals$}");
                } else {
                    out.push_str("null");
                }
            }
            JsonValue::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\t' => out.push_str("\\t"),
                        '\r' => out.push_str("\\r"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            JsonValue::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    push_indent(out, indent + 1);
                    item.render_into(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                push_indent(out, indent);
                out.push(']');
            }
            JsonValue::Object(obj) => obj.render_into(out, indent),
        }
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

/// An insertion-ordered JSON object builder.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JsonObject {
    entries: Vec<(String, JsonValue)>,
}

impl JsonObject {
    /// An empty object.
    pub fn new() -> Self {
        JsonObject::default()
    }

    /// Append a field (builder style).
    pub fn field(mut self, name: impl Into<String>, value: impl Into<JsonValue>) -> Self {
        self.entries.push((name.into(), value.into()));
        self
    }

    /// Append a fixed-decimals float field.
    pub fn num(self, name: impl Into<String>, value: f64, decimals: usize) -> Self {
        self.field(name, JsonValue::num(value, decimals))
    }

    /// Append a field that is `null` when the option is empty.
    pub fn opt(self, name: impl Into<String>, value: Option<impl Into<JsonValue>>) -> Self {
        match value {
            Some(v) => self.field(name, v),
            None => self.field(name, JsonValue::Null),
        }
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the object has no fields.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn render_into(&self, out: &mut String, indent: usize) {
        if self.entries.is_empty() {
            out.push_str("{}");
            return;
        }
        out.push_str("{\n");
        for (i, (name, value)) in self.entries.iter().enumerate() {
            push_indent(out, indent + 1);
            JsonValue::Str(name.clone()).render_into(out, indent + 1);
            out.push_str(": ");
            value.render_into(out, indent + 1);
            if i + 1 < self.entries.len() {
                out.push(',');
            }
            out.push('\n');
        }
        push_indent(out, indent);
        out.push('}');
    }

    /// Render as a pretty-printed JSON document (trailing newline included).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out.push('\n');
        out
    }

    /// Write the document to `path` and print the conventional `wrote <path>` line.
    ///
    /// # Panics
    /// Panics when the file cannot be written — benchmark records are the product of the
    /// run, so losing one silently is worse than aborting.
    pub fn write_file(&self, path: &str) {
        std::fs::write(path, self.render()).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("wrote {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_ordered_scalars() {
        let doc = JsonObject::new()
            .field("benchmark", "demo")
            .field("cores", 8usize)
            .num("rate", 1234.5678, 1)
            .opt("missing", None::<u64>)
            .opt("present", Some(3u64))
            .field("ok", true);
        let s = doc.render();
        let expect = "{\n  \"benchmark\": \"demo\",\n  \"cores\": 8,\n  \"rate\": 1234.6,\n  \
                      \"missing\": null,\n  \"present\": 3,\n  \"ok\": true\n}\n";
        assert_eq!(s, expect);
    }

    #[test]
    fn renders_nested_objects_and_arrays() {
        let doc = JsonObject::new().field(
            "procs",
            vec![
                JsonValue::from(JsonObject::new().field("name", "a").num("slowdown", 1.0, 2)),
                JsonValue::from(JsonObject::new().field("name", "b").num("slowdown", 2.5, 2)),
            ],
        );
        let s = doc.render();
        assert!(s.contains("\"procs\": [\n    {\n      \"name\": \"a\""));
        assert!(s.contains("\"slowdown\": 2.50"));
        assert!(s.ends_with("]\n}\n"));
        assert_eq!(JsonObject::new().render(), "{}\n");
        let empty_arr = JsonObject::new().field("xs", Vec::<JsonValue>::new());
        assert_eq!(empty_arr.render(), "{\n  \"xs\": []\n}\n");
    }

    #[test]
    fn escapes_strings_and_nonfinite() {
        let doc = JsonObject::new()
            .field("s", "a\"b\\c\nd")
            .num("nan", f64::NAN, 2);
        let s = doc.render();
        assert!(s.contains("\"a\\\"b\\\\c\\nd\""));
        assert!(s.contains("\"nan\": null"));
    }

    #[test]
    fn parses_as_json_by_eye_smoke() {
        // Minimal structural sanity: balanced braces/brackets in a nested doc.
        let doc = JsonObject::new()
            .field("a", JsonObject::new().field("b", vec![JsonValue::Int(1)]))
            .field("c", 2u64);
        let s = doc.render();
        assert_eq!(s.matches('{').count(), s.matches('}').count());
        assert_eq!(s.matches('[').count(), s.matches(']').count());
    }
}
