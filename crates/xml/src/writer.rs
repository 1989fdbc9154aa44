//! Serialisation of XML events back to a byte stream.
//!
//! [`XmlWriter`] is the output side of the streamed query evaluator: result
//! events are written as soon as they are produced, so the output is itself
//! a stream.

use crate::error::{Result, XmlError};
use crate::escape::{attr_entity, escape_into, text_entity, ATTR_ESCAPES, TEXT_ESCAPES};
use crate::event::{Attribute, RawEventKind, RawEventRef, XmlEvent};
use crate::tree::{Document, NodeId, NodeKind};
use flux_symbols::SymbolTable;
use std::io::Write;

/// Streaming XML serialiser with well-formedness checking.
pub struct XmlWriter<W: Write> {
    sink: W,
    /// The open elements' names, concatenated, and where each one starts:
    /// an end tag is a slice of one buffer, and the steady-state output
    /// loop does not allocate per start tag.
    names: String,
    name_starts: Vec<usize>,
    /// Bytes written so far.
    bytes_written: u64,
    /// Where a payload is escaped from its first escapable byte on.
    scratch: String,
}

impl<W: Write> XmlWriter<W> {
    pub fn new(sink: W) -> Self {
        XmlWriter {
            sink,
            names: String::new(),
            name_starts: Vec::new(),
            bytes_written: 0,
            scratch: String::new(),
        }
    }

    /// Number of bytes written so far (after escaping).
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Current element nesting depth.
    pub fn depth(&self) -> usize {
        self.name_starts.len()
    }

    /// Consumes the writer, returning the underlying sink.
    pub fn into_inner(self) -> W {
        self.sink
    }

    /// The underlying sink.
    pub fn get_ref(&self) -> &W {
        &self.sink
    }

    /// The underlying sink, mutably (e.g. to clear a recycled buffer
    /// between balanced runs of events).
    pub fn get_mut(&mut self) -> &mut W {
        &mut self.sink
    }

    fn raw(&mut self, s: &str) -> Result<()> {
        self.sink.write_all(s.as_bytes())?;
        self.bytes_written += s.len() as u64;
        Ok(())
    }

    /// Writes `s` with the bytes `entity` maps — those `escapes` flags —
    /// replaced by their references. The clean prefix — all of `s`, almost
    /// always — goes to the sink straight from `s`; only from the first
    /// escapable byte on is the rest copied through `scratch`.
    fn escaped(
        &mut self,
        s: &str,
        escapes: &[bool; 256],
        entity: impl Fn(u8) -> Option<&'static str> + Copy,
    ) -> Result<()> {
        let Some(first) = s.bytes().position(|b| escapes[usize::from(b)]) else {
            return self.raw(s);
        };
        self.raw(&s[..first])?;
        self.scratch.clear();
        escape_into(&s[first..], &mut self.scratch, entity);
        self.sink.write_all(self.scratch.as_bytes())?;
        self.bytes_written += self.scratch.len() as u64;
        Ok(())
    }

    /// Opens a start tag (everything up to the attributes) and pushes the
    /// element name onto the open stack.
    fn open_tag(&mut self, name: &str) -> Result<()> {
        self.raw("<")?;
        self.raw(name)?;
        self.name_starts.push(self.names.len());
        self.names.push_str(name);
        Ok(())
    }

    /// Closes a start tag.
    fn close_tag(&mut self) -> Result<()> {
        self.raw(">")
    }

    /// Writes one escaped attribute.
    fn write_attr(&mut self, name: &str, value: &str) -> Result<()> {
        self.raw(" ")?;
        self.raw(name)?;
        self.raw("=\"")?;
        self.escaped(value, &ATTR_ESCAPES, attr_entity)?;
        self.raw("\"")
    }

    /// Writes a start tag.
    pub fn start_element(&mut self, name: &str, attributes: &[Attribute]) -> Result<()> {
        self.open_tag(name)?;
        for attr in attributes {
            self.write_attr(&attr.name, &attr.value)?;
        }
        self.close_tag()
    }

    /// Writes the start tag of a borrowed event view — the zero-copy
    /// output path: names resolve through `symbols`, attribute payloads
    /// stream straight from the view's backing storage into the sink.
    pub fn start_element_view(
        &mut self,
        symbols: &SymbolTable,
        ev: &RawEventRef<'_>,
    ) -> Result<()> {
        self.open_tag(ev.name_str(symbols))?;
        for attr in ev.attrs() {
            self.write_attr(attr.name_str(symbols), attr.value)?;
        }
        self.close_tag()
    }

    /// Writes the start tag of a buffered element node — the symbol fast
    /// path for serialising tree nodes: the element and attribute names
    /// resolve through the document's own table and stream straight into
    /// the sink, so copying a buffered subtree out allocates nothing.
    pub fn start_element_node(&mut self, doc: &Document, id: NodeId) -> Result<()> {
        let NodeKind::Element { name, attributes } = doc.kind(id) else {
            return Err(XmlError::WriterMisuse {
                message: "start_element_node requires an element node".to_string(),
            });
        };
        self.open_tag(doc.symbols().name(*name))?;
        for attr in attributes {
            self.write_attr(doc.symbols().name(attr.name), &attr.value)?;
        }
        self.close_tag()
    }

    /// Writes one borrowed event view, mapping symbols back through
    /// `symbols`. `StartDocument`/`EndDocument`/doctype events are
    /// accepted and ignored so a view stream can be piped through
    /// unchanged.
    pub fn write_event_ref(&mut self, symbols: &SymbolTable, ev: &RawEventRef<'_>) -> Result<()> {
        match ev.kind() {
            RawEventKind::StartDocument | RawEventKind::EndDocument | RawEventKind::DoctypeDecl => {
                Ok(())
            }
            RawEventKind::StartElement => self.start_element_view(symbols, ev),
            RawEventKind::EndElement => self.end_element(),
            RawEventKind::Text => self.text(ev.text()),
        }
    }

    /// Writes an end tag for the innermost open element.
    pub fn end_element(&mut self) -> Result<()> {
        let start = self
            .name_starts
            .pop()
            .ok_or_else(|| XmlError::WriterMisuse {
                message: "end_element with no open element".to_string(),
            })?;
        self.raw("</")?;
        self.sink.write_all(&self.names.as_bytes()[start..])?;
        self.bytes_written += (self.names.len() - start) as u64;
        self.names.truncate(start);
        self.raw(">")
    }

    /// Writes character data (escaped).
    pub fn text(&mut self, text: &str) -> Result<()> {
        self.escaped(text, &TEXT_ESCAPES, text_entity)
    }

    /// Writes a balanced subtree another writer already serialized
    /// ([`NodeKind::Serialized`]), as one `write_all`.
    pub fn write_serialized(&mut self, xml: &[u8]) -> Result<()> {
        self.sink.write_all(xml)?;
        self.bytes_written += xml.len() as u64;
        Ok(())
    }

    /// Writes one event. `StartDocument`/`EndDocument` are accepted and
    /// ignored so an event stream can be piped through unchanged.
    pub fn write_event(&mut self, event: &XmlEvent) -> Result<()> {
        match event {
            XmlEvent::StartDocument | XmlEvent::EndDocument | XmlEvent::DoctypeDecl { .. } => {
                Ok(())
            }
            XmlEvent::StartElement { name, attributes } => self.start_element(name, attributes),
            XmlEvent::EndElement { .. } => self.end_element(),
            XmlEvent::Text(t) => self.text(t),
        }
    }

    /// Checks that all elements are closed and flushes the sink.
    pub fn finish(&mut self) -> Result<()> {
        if !self.name_starts.is_empty() {
            return Err(XmlError::WriterMisuse {
                message: format!("{} element(s) still open at finish", self.name_starts.len()),
            });
        }
        self.sink.flush()?;
        Ok(())
    }
}

/// Serialises a list of events to a string (tests and small outputs).
pub fn events_to_string(events: &[XmlEvent]) -> Result<String> {
    let mut writer = XmlWriter::new(Vec::new());
    for ev in events {
        writer.write_event(ev)?;
    }
    writer.finish()?;
    let bytes = writer.into_inner();
    String::from_utf8(bytes).map_err(|_| XmlError::WriterMisuse {
        message: "writer produced invalid UTF-8".to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::parse_to_events;

    #[test]
    fn simple_output() {
        let mut w = XmlWriter::new(Vec::new());
        w.start_element("a", &[Attribute::new("k", "v")]).unwrap();
        w.text("x < y").unwrap();
        w.end_element().unwrap();
        w.finish().unwrap();
        let out = String::from_utf8(w.into_inner()).unwrap();
        assert_eq!(out, r#"<a k="v">x &lt; y</a>"#);
    }

    #[test]
    fn attribute_escaping() {
        let mut w = XmlWriter::new(Vec::new());
        w.start_element("a", &[Attribute::new("k", "say \"hi\" & <go>")])
            .unwrap();
        w.end_element().unwrap();
        let out = String::from_utf8(w.into_inner()).unwrap();
        assert_eq!(out, r#"<a k="say &quot;hi&quot; &amp; &lt;go>"></a>"#);
    }

    #[test]
    fn unbalanced_end_rejected() {
        let mut w = XmlWriter::new(Vec::new());
        assert!(w.end_element().is_err());
    }

    #[test]
    fn unclosed_at_finish_rejected() {
        let mut w = XmlWriter::new(Vec::new());
        w.start_element("a", &[]).unwrap();
        assert!(w.finish().is_err());
    }

    #[test]
    fn bytes_written_counts_escapes() {
        let mut w = XmlWriter::new(Vec::new());
        w.start_element("a", &[]).unwrap();
        w.text("&").unwrap();
        w.end_element().unwrap();
        // <a>&amp;</a> = 12 bytes
        assert_eq!(w.bytes_written(), 12);
    }

    /// The clean prefix is written from the caller's slice and the rest
    /// through the escaping copy: the split is by byte index, so put
    /// multi-byte characters on both sides of it.
    #[test]
    fn escapes_between_multibyte_characters() {
        let mut w = XmlWriter::new(Vec::new());
        w.start_element("a", &[Attribute::new("k", "é\"ü")])
            .unwrap();
        w.text("€uro <ü> & ö").unwrap();
        w.end_element().unwrap();
        let expected = "<a k=\"é&quot;ü\">€uro &lt;ü&gt; &amp; ö</a>";
        assert_eq!(w.bytes_written(), expected.len() as u64);
        assert_eq!(String::from_utf8(w.into_inner()).unwrap(), expected);
    }

    #[test]
    fn round_trip_through_reader() {
        let original = r#"<bib><book year="1994"><title>TCP/IP &amp; co</title><author>Stevens</author></book></bib>"#;
        let events = parse_to_events(original).unwrap();
        let written = events_to_string(&events).unwrap();
        assert_eq!(written, original);
        // And a second round trip is a fixpoint.
        let events2 = parse_to_events(&written).unwrap();
        assert_eq!(events, events2);
    }

    #[test]
    fn event_pipe_through() {
        let input = r#"<r><x a="1">t</x><y/></r>"#;
        let events = parse_to_events(input).unwrap();
        let out = events_to_string(&events).unwrap();
        assert_eq!(out, r#"<r><x a="1">t</x><y></y></r>"#);
    }
}
