//! The seam rule: where a chunk may end so that independent fragment
//! parsers can take the halves.
//!
//! A boundary is safe when it sits on the `<` of an element tag (start or
//! end tag) that is *markup* — not a `<` inside a comment, CDATA section,
//! processing instruction or DOCTYPE declaration. Restricting boundaries
//! to element tags has a second, load-bearing consequence: a text run
//! (including its merged CDATA sections) always ends at an element tag, so
//! **no event payload ever straddles a shard seam** and concatenating
//! shard event sequences reproduces the sequential event sequence exactly.
//!
//! [`find_boundary`] is the one place that rule lives; the dispatcher's
//! chunker applies it to its growing carry buffer, and special constructs
//! are skipped atomically.

use flux_xml::is_name_start;
use flux_xml::scan::{find_byte, find_subslice};

/// Index just past the `>` closing a DOCTYPE declaration starting at
/// `start` (the `<` of `<!DOCTYPE`), honouring quoted literals, the
/// bracketed internal subset and comments inside it. `None` when the
/// declaration is unterminated.
pub(crate) fn doctype_end(input: &[u8], start: usize) -> Option<usize> {
    let mut i = start + "<!DOCTYPE".len();
    let mut in_subset = false;
    while i < input.len() {
        match input[i] {
            b'"' | b'\'' => {
                let quote = input[i];
                i = i + 1 + find_byte(&input[i + 1..], quote)? + 1;
            }
            b'[' => {
                in_subset = true;
                i += 1;
            }
            b']' => {
                in_subset = false;
                i += 1;
            }
            b'<' if in_subset && input[i..].starts_with(b"<!--") => {
                i = i + find_subslice(&input[i..], b"-->")? + 3;
            }
            b'>' if !in_subset => return Some(i + 1),
            _ => i += 1,
        }
    }
    None
}

/// Outcome of one incremental boundary scan over a growing buffer
/// ([`find_boundary`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BoundaryScan {
    /// A safe element-tag `<` at this offset, at or after the requested
    /// minimum.
    Found(usize),
    /// No safe boundary is determinable from the bytes seen so far.
    /// Append more input and re-scan from `resume` — the start of the
    /// unterminated (or not-yet-classifiable) construct, which is always
    /// outside every construct, so re-scanning from it is safe.
    NeedMore { resume: usize },
}

/// Finds the first safe element-tag `<` at or after `min_pos`, scanning
/// forward from `from`. `from` must lie outside every comment, CDATA
/// section, PI and DOCTYPE (position 0, a previous `resume`, or just past
/// a previously found boundary all qualify).
pub(crate) fn find_boundary(input: &[u8], from: usize, min_pos: usize) -> BoundaryScan {
    let mut pos = from;
    while pos < input.len() {
        let Some(rel) = find_byte(&input[pos..], b'<') else {
            return BoundaryScan::NeedMore {
                resume: input.len(),
            };
        };
        let at = pos + rel;
        let rest = &input[at..];
        // A `<` too close to the buffer end to classify (`<!` may yet
        // become a comment, CDATA or DOCTYPE once more bytes arrive).
        if rest.len() < 9 && (rest.len() == 1 || rest[1] == b'!') {
            return BoundaryScan::NeedMore { resume: at };
        }
        if rest.starts_with(b"<!--") {
            match find_subslice(rest, b"-->") {
                Some(end) => pos = at + end + 3,
                None => return BoundaryScan::NeedMore { resume: at },
            }
        } else if rest.starts_with(b"<![CDATA[") {
            match find_subslice(rest, b"]]>") {
                Some(end) => pos = at + end + 3,
                None => return BoundaryScan::NeedMore { resume: at },
            }
        } else if rest.starts_with(b"<!DOCTYPE") {
            match doctype_end(input, at) {
                Some(end) => pos = end,
                None => return BoundaryScan::NeedMore { resume: at },
            }
        } else if rest.starts_with(b"<?") {
            match find_subslice(rest, b"?>") {
                Some(end) => pos = at + end + 2,
                None => return BoundaryScan::NeedMore { resume: at },
            }
        } else if rest[1] == b'/' || is_name_start(rest[1]) {
            if at >= min_pos && at > 0 {
                return BoundaryScan::Found(at);
            }
            pos = at + 1;
        } else {
            // `<` followed by nothing we recognise — malformed input; let
            // a fragment parser report it.
            pos = at + 1;
        }
    }
    BoundaryScan::NeedMore {
        resume: input.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cut_points;

    /// Seams at a chunk target that asks for `shards` chunks.
    fn points_of(doc: &str, shards: usize) -> Vec<usize> {
        cut_points(doc.as_bytes(), (doc.len() / shards).max(1))
    }

    #[test]
    fn single_shard_is_whole_input() {
        assert_eq!(points_of("<a><b/></a>", 1), vec![0]);
    }

    #[test]
    fn boundaries_sit_on_tags() {
        let doc = "<a>".to_string() + &"<b>x</b>".repeat(200) + "</a>";
        let pts = points_of(&doc, 4);
        assert_eq!(pts[0], 0);
        assert!(pts.len() > 1, "enough tags to split");
        for &p in &pts[1..] {
            assert_eq!(doc.as_bytes()[p], b'<');
            let next = doc.as_bytes()[p + 1];
            assert!(next == b'/' || is_name_start(next), "at {p}");
        }
        let mut sorted = pts.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted, pts, "strictly increasing, no duplicates");
    }

    #[test]
    fn never_splits_inside_comments_or_cdata() {
        // The only `<` bytes after position 0 live inside constructs; no
        // split point may land there.
        let filler = "<!-- <fake1/><fake2/><fake3/> -->".repeat(40);
        let doc = format!("<a>{filler}<![CDATA[<fake4/><fake5/>]]>{filler}</a>");
        let pts = points_of(&doc, 8);
        for &p in &pts[1..] {
            // Every boundary must be the real `</a>` or a tag outside the
            // constructs — verify by checking it is not inside a comment.
            let prefix = &doc[..p];
            let opens = prefix.matches("<!--").count();
            let closes = prefix.matches("-->").count();
            assert_eq!(opens, closes, "boundary {p} inside a comment");
            let copens = prefix.matches("<![CDATA[").count();
            let ccloses = prefix.matches("]]>").count();
            assert_eq!(copens, ccloses, "boundary {p} inside CDATA");
        }
    }

    #[test]
    fn doctype_with_subset_skipped_atomically() {
        let doc = r#"<!DOCTYPE bib [<!ELEMENT bib (book)*> <!ENTITY x "]<z>">]><bib><book/><book/><book/><book/></bib>"#;
        let pts = points_of(doc, 3);
        let subset_end = doc.find("]>").unwrap();
        for &p in &pts[1..] {
            assert!(p > subset_end, "boundary {p} inside the DOCTYPE");
        }
    }

    #[test]
    fn unterminated_construct_stops_splitting() {
        let doc = "<a><!-- never closed ".to_string() + &"x".repeat(500);
        assert_eq!(points_of(&doc, 4), vec![0], "no safe boundary found");
    }
}
