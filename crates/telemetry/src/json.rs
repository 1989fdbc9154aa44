//! A minimal hand-rolled JSON writer (no dependencies).
//!
//! Produces pretty-printed, two-space-indented JSON in insertion order.
//! Used by the
//! [`crate::report::RunReport`] renderer and by `flux_runtime`'s
//! `RunStats` serialization.

/// An incremental JSON document builder.
///
/// Containers are opened and closed explicitly; the writer tracks comma
/// placement and indentation. Misnesting panics (builder bugs, not input
/// errors).
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// One entry per open container: `true` once it has an item.
    stack: Vec<bool>,
}

impl JsonWriter {
    pub fn new() -> Self {
        JsonWriter::default()
    }

    fn pad(&mut self) {
        for _ in 0..self.stack.len() {
            self.out.push_str("  ");
        }
    }

    /// Comma/newline bookkeeping before writing a new item in the current
    /// container.
    fn item(&mut self) {
        if let Some(has_items) = self.stack.last_mut() {
            if *has_items {
                self.out.push(',');
            }
            *has_items = true;
            self.out.push('\n');
            self.pad();
        }
    }

    fn key(&mut self, key: &str) {
        self.item();
        self.out.push('"');
        escape_into(&mut self.out, key);
        self.out.push_str("\": ");
    }

    /// Opens the root object or an array-element object.
    pub fn begin_obj(&mut self) {
        self.item();
        self.out.push('{');
        self.stack.push(false);
    }

    /// Opens `"key": {`.
    pub fn begin_named_obj(&mut self, key: &str) {
        self.key(key);
        self.out.push('{');
        self.stack.push(false);
    }

    pub fn end_obj(&mut self) {
        let had_items = self.stack.pop().expect("end_obj without begin_obj");
        if had_items {
            self.out.push('\n');
            self.pad();
        }
        self.out.push('}');
    }

    /// Opens `"key": [`.
    pub fn begin_named_arr(&mut self, key: &str) {
        self.key(key);
        self.out.push('[');
        self.stack.push(false);
    }

    pub fn end_arr(&mut self) {
        let had_items = self.stack.pop().expect("end_arr without begin_arr");
        if had_items {
            self.out.push('\n');
            self.pad();
        }
        self.out.push(']');
    }

    pub fn field_str(&mut self, key: &str, value: &str) {
        self.key(key);
        self.out.push('"');
        escape_into(&mut self.out, value);
        self.out.push('"');
    }

    pub fn field_u64(&mut self, key: &str, value: u64) {
        self.key(key);
        self.out.push_str(&value.to_string());
    }

    pub fn field_f64(&mut self, key: &str, value: f64) {
        self.key(key);
        self.out.push_str(&format_f64(value));
    }

    pub fn field_bool(&mut self, key: &str, value: bool) {
        self.key(key);
        self.out.push_str(if value { "true" } else { "false" });
    }

    /// Splices pre-rendered JSON as the value of `key`, re-indented to
    /// the current nesting depth.
    pub fn field_raw(&mut self, key: &str, raw_json: &str) {
        self.key(key);
        let indent = "  ".repeat(self.stack.len());
        for (i, line) in raw_json.lines().enumerate() {
            if i > 0 {
                self.out.push('\n');
                self.out.push_str(&indent);
            }
            self.out.push_str(line);
        }
    }

    /// Writes a raw (already-rendered) array element.
    pub fn value_raw(&mut self, raw_json: &str) {
        self.item();
        self.out.push_str(raw_json);
    }

    /// The finished document (callers must have closed every container).
    pub fn finish(self) -> String {
        assert!(self.stack.is_empty(), "unclosed JSON container");
        self.out
    }
}

/// Appends `s` to `out` with JSON string escaping.
pub fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// `f64` rendering: finite values with enough precision to round-trip
/// rates, non-finite values as 0 (JSON has no NaN/Infinity).
pub fn format_f64(value: f64) -> String {
    if value.is_finite() {
        if value == value.trunc() && value.abs() < 1e15 {
            format!("{value:.1}")
        } else {
            format!("{value}")
        }
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_document_renders_in_order() {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.field_str("name", "q\"3\"");
        w.field_u64("events", 42);
        w.begin_named_obj("inner");
        w.field_bool("ok", true);
        w.field_f64("rate", 2.5);
        w.end_obj();
        w.begin_named_arr("items");
        w.value_raw("[1, 2]");
        w.end_arr();
        w.end_obj();
        let text = w.finish();
        assert_eq!(
            text,
            "{\n  \"name\": \"q\\\"3\\\"\",\n  \"events\": 42,\n  \"inner\": {\n    \"ok\": true,\n    \"rate\": 2.5\n  },\n  \"items\": [\n    [1, 2]\n  ]\n}"
        );
    }

    #[test]
    fn empty_containers_stay_compact() {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.begin_named_obj("empty");
        w.end_obj();
        w.begin_named_arr("none");
        w.end_arr();
        w.end_obj();
        assert_eq!(w.finish(), "{\n  \"empty\": {},\n  \"none\": []\n}");
    }

    #[test]
    fn raw_splice_reindents() {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.field_raw("stats", "{\n  \"a\": 1\n}");
        w.end_obj();
        assert_eq!(w.finish(), "{\n  \"stats\": {\n    \"a\": 1\n  }\n}");
    }

    #[test]
    fn control_chars_escape() {
        let mut s = String::new();
        escape_into(&mut s, "a\u{1}\tb");
        assert_eq!(s, "a\\u0001\\tb");
    }
}
