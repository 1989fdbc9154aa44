//! UTF-8 × refill boundaries.
//!
//! The reader checks UTF-8 once per byte, at refill, and carries a
//! character cut off by the end of one read into the next. These tests
//! put 2-, 3- and 4-byte characters across refill boundaries of every
//! shape — windows of 64, 67 and 8192 bytes, and sources that hand out a
//! few bytes per read — in every construct, and require the event stream
//! (payloads, construct starts and positions) to equal the default
//! window's. Invalid sequences must fail exactly as the table below pins:
//! its messages and offsets were recorded from the reader as it was
//! before validation moved to refill, when every payload was checked on
//! its own.

use flux_xml::{ReaderConfig, XmlReader};
use std::io::{self, Read};

/// A source that hands out at most `step` bytes per read, so refills end
/// inside every character at some offset.
struct Trickle<'a> {
    bytes: &'a [u8],
    step: usize,
}

impl Read for Trickle<'_> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let n = self.bytes.len().min(self.step).min(out.len());
        out[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

/// What one parse produced: every event with its construct start and end
/// positions, the terminal error (message and offset) if any, and the
/// bytes the reader validated.
struct Run {
    events: Vec<String>,
    error: Option<String>,
    validated: u64,
}

fn run(src: impl Read, window: usize) -> Run {
    let config = ReaderConfig {
        window,
        ..ReaderConfig::default()
    };
    let mut reader = XmlReader::with_config(src, config);
    let mut events = Vec::new();
    let error = loop {
        match reader.advance() {
            Ok(true) => {
                let (start, end) = (reader.event_start(), reader.position());
                let event = reader.view().to_xml_event(reader.symbols());
                events.push(format!(
                    "{event:?} {}:{}:{}-{}:{}:{}",
                    start.offset, start.line, start.column, end.offset, end.line, end.column
                ));
            }
            Ok(false) => break None,
            Err(e) => break Some(format!("{e} @{}", e.position().expect("positioned").offset)),
        }
    };
    let validated = reader.reader_telemetry().utf8_validated_bytes;
    Run {
        events,
        error,
        validated,
    }
}

/// Every source shape the reader must treat identically: the default
/// window, three configured windows and three trickling sources.
fn shapes(doc: &[u8]) -> Vec<(String, Run)> {
    let mut out = vec![("default".to_string(), run(doc, flux_xml::DEFAULT_WINDOW))];
    for window in [64, 67, 8192] {
        out.push((format!("window {window}"), run(doc, window)));
    }
    for step in [1, 3, 5] {
        let trickle = Trickle { bytes: doc, step };
        out.push((format!("{step}-byte reads"), run(trickle, 64)));
    }
    out
}

/// A document with multi-byte characters in every construct, shifted by
/// `pad` bytes so that each character meets the refill boundaries at a
/// different offset.
fn document(pad: usize) -> Vec<u8> {
    let chars = "é€💡ß中𝄞";
    let mut doc = format!("<?xml version=\"1.0\"?>\n<root{}>", " ".repeat(pad));
    for i in 0..12 {
        doc.push_str(&format!(
            "<bücher-{i} titel=\"{chars}{i}\">{chars} text &amp; {chars}\
             <!-- {chars} --><?pi {chars}?><![CDATA[{chars}]]>{chars}</bücher-{i}>\n"
        ));
    }
    doc.push_str("</root>");
    doc.into_bytes()
}

#[test]
fn multibyte_characters_across_refills_parse_identically() {
    for pad in 0..8 {
        let doc = document(pad);
        let shapes = shapes(&doc);
        let (_, want) = &shapes[0];
        assert_eq!(want.error, None, "pad {pad}: the document is well-formed");
        // Per element: start, text, the text after the dropped comment and
        // PI (CDATA merged in), end, and the newline after it.
        assert!(
            want.events.len() > 12 * 5,
            "pad {pad}: {} events",
            want.events.len()
        );
        for (shape, got) in &shapes {
            assert_eq!(got.events, want.events, "pad {pad}, {shape}: events differ");
            assert_eq!(got.error, want.error, "pad {pad}, {shape}");
            let len = doc.len() as u64;
            assert_eq!(
                got.validated, len,
                "pad {pad}, {shape}: each byte validated once"
            );
        }
    }
}

/// Invalid sequences in five constructs: `(construct, sequence, the
/// reader's error as recorded before validation moved to refill)`.
#[rustfmt::skip]
const ERRORS: &[(&str, &str, &str)] = &[
    ("text run", "truncated", "invalid UTF-8 at line 4, column 10 @71"),
    ("text run", "overlong", "invalid UTF-8 at line 4, column 10 @71"),
    ("text run", "surrogate", "invalid UTF-8 at line 4, column 11 @72"),
    ("text run", "0xFF", "invalid UTF-8 at line 4, column 9 @70"),
    ("attribute value", "truncated", "invalid UTF-8 at line 4, column 14 @75"),
    ("attribute value", "overlong", "invalid UTF-8 at line 4, column 14 @75"),
    ("attribute value", "surrogate", "invalid UTF-8 at line 4, column 15 @76"),
    ("attribute value", "0xFF", "invalid UTF-8 at line 4, column 13 @74"),
    ("element name", "truncated", "invalid UTF-8 at line 4, column 6 @67"),
    ("element name", "overlong", "invalid UTF-8 at line 4, column 6 @67"),
    ("element name", "surrogate", "invalid UTF-8 at line 4, column 7 @68"),
    ("element name", "0xFF", "invalid UTF-8 at line 4, column 5 @66"),
    ("comment", "truncated", "invalid UTF-8 at line 4, column 17 @78"),
    ("comment", "overlong", "invalid UTF-8 at line 4, column 17 @78"),
    ("comment", "surrogate", "invalid UTF-8 at line 4, column 18 @79"),
    ("comment", "0xFF", "invalid UTF-8 at line 4, column 16 @77"),
    ("processing instruction", "truncated", "invalid UTF-8 at line 4, column 17 @78"),
    ("processing instruction", "overlong", "invalid UTF-8 at line 4, column 17 @78"),
    ("processing instruction", "surrogate", "invalid UTF-8 at line 4, column 18 @79"),
    ("processing instruction", "0xFF", "invalid UTF-8 at line 4, column 16 @77"),
];

/// The text around the flaw in each construct.
fn construct(name: &str) -> (&'static str, &'static str) {
    match name {
        "text run" => ("<a>", "tail</a>"),
        "attribute value" => ("<a v=\"", "tail\"/>"),
        "element name" => ("<n", "x/>"),
        "comment" => ("<a><!--", "tail--></a>"),
        "processing instruction" => ("<a><?pi ", "tail?></a>"),
        other => panic!("no construct {other}"),
    }
}

fn sequence(name: &str) -> &'static [u8] {
    match name {
        "truncated" => b"\xE2\x82",
        "overlong" => b"\xC0\xAF",
        "surrogate" => b"\xED\xA0\x80",
        "0xFF" => b"\xFF",
        other => panic!("no sequence {other}"),
    }
}

#[test]
fn invalid_sequences_fail_exactly_as_pinned() {
    for &(name, seq, want) in ERRORS {
        let (before, after) = construct(name);
        // A line of two-byte characters puts the flaw just past the first
        // refill of a 64- or 67-byte window.
        let mut doc = format!("<r>\n{}\n\n{before}", "é".repeat(28)).into_bytes();
        doc.extend_from_slice(sequence(seq));
        doc.extend_from_slice(after.as_bytes());
        doc.extend_from_slice(b"</r>");
        for (shape, got) in shapes(&doc) {
            assert_eq!(got.error.as_deref(), Some(want), "{seq} in {name}, {shape}");
        }
    }
}
