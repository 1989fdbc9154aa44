//! Escaping and unescaping of XML character data and attribute values.
//!
//! Supports the five predefined entities (`&lt;`, `&gt;`, `&amp;`, `&apos;`,
//! `&quot;`) and decimal/hexadecimal character references.

use crate::error::{Position, Result, XmlError};

/// Appends `text` to `out`, replacing each byte `entity` maps to an entity
/// reference; the clean runs between them are copied whole.
pub(crate) fn escape_into(
    text: &str,
    out: &mut String,
    entity: impl Fn(u8) -> Option<&'static str>,
) {
    let mut clean_from = 0;
    for (i, b) in text.bytes().enumerate() {
        // Escapable bytes are ASCII, so `i` is a character boundary.
        if let Some(reference) = entity(b) {
            out.push_str(&text[clean_from..i]);
            out.push_str(reference);
            clean_from = i + 1;
        }
    }
    out.push_str(&text[clean_from..]);
}

/// A lookup table flagging `bytes`.
const fn byte_set(bytes: &[u8]) -> [bool; 256] {
    let mut set = [false; 256];
    let mut i = 0;
    while i < bytes.len() {
        set[bytes[i] as usize] = true;
        i += 1;
    }
    set
}

/// The bytes [`text_entity`] maps, as a table: finding the first one is
/// the inner loop of text output, and one load per byte beats a match.
pub(crate) static TEXT_ESCAPES: [bool; 256] = byte_set(b"<>&");

/// The bytes [`attr_entity`] maps.
pub(crate) static ATTR_ESCAPES: [bool; 256] = byte_set(b"<&\"");

/// The reference character-data escaping writes for `b`, if any.
pub(crate) fn text_entity(b: u8) -> Option<&'static str> {
    match b {
        b'<' => Some("&lt;"),
        b'>' => Some("&gt;"),
        b'&' => Some("&amp;"),
        _ => None,
    }
}

/// The reference double-quoted attribute-value escaping writes for `b`,
/// if any.
pub(crate) fn attr_entity(b: u8) -> Option<&'static str> {
    match b {
        b'<' => Some("&lt;"),
        b'&' => Some("&amp;"),
        b'"' => Some("&quot;"),
        _ => None,
    }
}

/// Appends `text` to `out`, escaping `<`, `>` and `&`.
///
/// This is the escaping applied to character data (element content).
pub fn escape_text_into(text: &str, out: &mut String) {
    escape_into(text, out, text_entity);
}

/// Returns `text` with character-data escaping applied.
pub fn escape_text(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    escape_text_into(text, &mut out);
    out
}

/// Appends `value` to `out`, escaping `<`, `&` and `"` for use inside a
/// double-quoted attribute value.
pub fn escape_attr_into(value: &str, out: &mut String) {
    escape_into(value, out, attr_entity);
}

/// Returns `value` with attribute-value escaping applied.
pub fn escape_attr(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    escape_attr_into(value, &mut out);
    out
}

/// Resolves an entity name (the part between `&` and `;`) to its replacement
/// text, handling the five predefined entities and character references.
///
/// Returns `None` for undefined entities.
pub fn resolve_entity(name: &str) -> Option<char> {
    match name {
        "lt" => Some('<'),
        "gt" => Some('>'),
        "amp" => Some('&'),
        "apos" => Some('\''),
        "quot" => Some('"'),
        _ => {
            let rest = name.strip_prefix('#')?;
            let code = if let Some(hex) = rest.strip_prefix('x').or_else(|| rest.strip_prefix('X'))
            {
                u32::from_str_radix(hex, 16).ok()?
            } else {
                rest.parse::<u32>().ok()?
            };
            char::from_u32(code)
        }
    }
}

/// Replaces all entity and character references in `raw` and returns the
/// resulting text. `pos` is used for error reporting only.
pub fn unescape(raw: &str, pos: Position) -> Result<String> {
    let mut out = String::with_capacity(raw.len());
    unescape_into(raw, pos, &mut out)?;
    Ok(out)
}

/// Appends the unescaped form of `raw` to `out` — the allocation-free
/// variant of [`unescape`] the streaming reader uses with recycled buffers.
pub fn unescape_into(raw: &str, pos: Position, out: &mut String) -> Result<()> {
    if !raw.contains('&') {
        out.push_str(raw);
        return Ok(());
    }
    let mut rest = raw;
    while let Some(amp) = rest.find('&') {
        out.push_str(&rest[..amp]);
        rest = &rest[amp + 1..];
        let semi = rest.find(';').ok_or_else(|| XmlError::Syntax {
            message: "unterminated entity reference".to_string(),
            pos,
        })?;
        let name = &rest[..semi];
        match resolve_entity(name) {
            Some(ch) => out.push(ch),
            None => {
                return Err(XmlError::UnknownEntity {
                    name: name.to_string(),
                    pos,
                })
            }
        }
        rest = &rest[semi + 1..];
    }
    out.push_str(rest);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_text_basic() {
        assert_eq!(escape_text("a < b & c > d"), "a &lt; b &amp; c &gt; d");
        assert_eq!(escape_text("plain"), "plain");
        assert_eq!(escape_text(""), "");
    }

    #[test]
    fn escape_attr_basic() {
        assert_eq!(
            escape_attr(r#"say "hi" & <go>"#),
            "say &quot;hi&quot; &amp; &lt;go>"
        );
    }

    #[test]
    fn tables_flag_exactly_the_mapped_bytes() {
        for b in 0..=255u8 {
            assert_eq!(
                TEXT_ESCAPES[usize::from(b)],
                text_entity(b).is_some(),
                "{b}"
            );
            assert_eq!(
                ATTR_ESCAPES[usize::from(b)],
                attr_entity(b).is_some(),
                "{b}"
            );
        }
    }

    #[test]
    fn escape_preserves_unicode() {
        assert_eq!(escape_text("schön & gut"), "schön &amp; gut");
    }

    #[test]
    fn resolve_predefined() {
        assert_eq!(resolve_entity("lt"), Some('<'));
        assert_eq!(resolve_entity("gt"), Some('>'));
        assert_eq!(resolve_entity("amp"), Some('&'));
        assert_eq!(resolve_entity("apos"), Some('\''));
        assert_eq!(resolve_entity("quot"), Some('"'));
        assert_eq!(resolve_entity("nbsp"), None);
    }

    #[test]
    fn resolve_char_refs() {
        assert_eq!(resolve_entity("#65"), Some('A'));
        assert_eq!(resolve_entity("#x41"), Some('A'));
        assert_eq!(resolve_entity("#X41"), Some('A'));
        assert_eq!(resolve_entity("#x2764"), Some('\u{2764}'));
        assert_eq!(resolve_entity("#xD800"), None, "surrogates are not chars");
        assert_eq!(resolve_entity("#"), None);
        assert_eq!(resolve_entity("#xZZ"), None);
    }

    #[test]
    fn unescape_round_trip() {
        let original = "a < b & \"c\" > 'd'";
        let escaped = escape_text(original);
        assert_eq!(unescape(&escaped, Position::default()).unwrap(), original);
    }

    #[test]
    fn unescape_mixed() {
        let raw = "x &lt; y &#38; z &#x26; w";
        assert_eq!(unescape(raw, Position::default()).unwrap(), "x < y & z & w");
    }

    #[test]
    fn unescape_no_entities_is_identity() {
        assert_eq!(unescape("hello", Position::default()).unwrap(), "hello");
    }

    #[test]
    fn unescape_unknown_entity_errors() {
        let err = unescape("&bogus;", Position::default()).unwrap_err();
        assert!(matches!(err, XmlError::UnknownEntity { ref name, .. } if name == "bogus"));
    }

    #[test]
    fn unescape_unterminated_errors() {
        let err = unescape("a &lt b", Position::default()).unwrap_err();
        assert!(matches!(err, XmlError::Syntax { .. }));
    }
}
