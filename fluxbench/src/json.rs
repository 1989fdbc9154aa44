//! The little JSON the benchmark writes (results, trace) and reads
//! (`expected.json`, a flat object of strings).

use std::collections::BTreeMap;
use std::fmt;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(u64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn str(s: &str) -> Json {
        Json::Str(s.to_string())
    }

    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

/// Compact, one line: the driver reads the last line of stdout.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(n) => write!(f, "{n}"),
            // Rust prints the shortest digits that round-trip, never an
            // exponent; JSON has no NaN or infinity.
            Json::Num(x) if x.is_finite() => write!(f, "{x}"),
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => write_str(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write_str(f, key)?;
                    write!(f, ": {value}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Reads a flat `{"key": "value", …}` object whose strings need no
/// escapes — the shape of `expected.json`, which this benchmark owns.
pub fn parse_flat_strings(text: &str) -> Result<BTreeMap<String, String>, String> {
    let body = text
        .trim()
        .strip_prefix('{')
        .and_then(|t| t.strip_suffix('}'))
        .ok_or("expected a JSON object")?;
    let mut map = BTreeMap::new();
    for entry in body.split(',').map(str::trim).filter(|e| !e.is_empty()) {
        let quoted = |s: &str| -> Option<String> {
            let inner = s.trim().strip_prefix('"')?.strip_suffix('"')?;
            (!inner.contains(['"', '\\'])).then(|| inner.to_string())
        };
        let (key, value) = entry
            .split_once(':')
            .and_then(|(k, v)| Some((quoted(k)?, quoted(v)?)))
            .ok_or_else(|| format!("expected \"key\": \"value\", found `{entry}`"))?;
        map.insert(key, value);
    }
    Ok(map)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_compact_valid_json() {
        let j = Json::obj([
            ("ok", Json::Bool(true)),
            ("n", Json::Int(3)),
            ("x", Json::Num(0.000027254)),
            ("bad", Json::Num(f64::NAN)),
            ("s", Json::str("a\"b\\c\nd")),
            ("a", Json::Arr(vec![Json::Null, Json::Num(1.5)])),
        ]);
        assert_eq!(
            j.to_string(),
            r#"{"ok": true, "n": 3, "x": 0.000027254, "bad": null, "s": "a\"b\\c\nd", "a": [null, 1.5]}"#
        );
    }

    #[test]
    fn reads_flat_string_objects() {
        // The value holds a colon, as digests do.
        let map = parse_flat_strings("{\n \"a.input\": \"12:00ff\",\n \"a.output\": \"3:1\"\n}\n")
            .unwrap();
        assert_eq!(map["a.input"], "12:00ff");
        assert_eq!(map.len(), 2);
        assert!(parse_flat_strings("{}").unwrap().is_empty());
        assert!(parse_flat_strings("[1]").is_err());
        assert!(parse_flat_strings("{\"a\": 1}").is_err());
    }
}
