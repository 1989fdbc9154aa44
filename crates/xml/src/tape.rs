//! The encoded event tape: a compact, replayable recording of an event
//! stream.
//!
//! A tape stores every payload byte exactly once, in one contiguous arena;
//! events and attributes are fixed-size headers holding spans into it.
//! Recording ([`EventTape::push`]) copies each payload into the arena —
//! the single materialisation the parallel pipeline pays per byte — and
//! replay ([`EventTape::view`]) hands out [`RawEventRef`] views whose
//! `&str` payloads borrow the arena directly: **zero copies and zero
//! allocations per replayed event**, which removes the serial term that
//! bounded sharded speedup at `1/(1/N + r)`.
//!
//! Each event also records the source [`Position`] at the moment it was
//! produced, so a replaying consumer (the sharded merger, XSAX) reports
//! error positions identical to a sequential run over the same bytes.
//!
//! Symbols on a tape may be *local* to the recording interner (a shard
//! worker's clone of the seed table). [`SymbolRemap`] translates them into
//! a merged namespace at view time: seed-prefix symbols pass through
//! untouched (clones preserve indices), later ones go through a dense
//! remap table.

use crate::error::Position;
use crate::event::{RawEventKind, RawEventRef};
use flux_symbols::{Symbol, SymbolTable};

/// Translation of tape-local symbols into a merged namespace.
///
/// Symbols below `seed_len` (and the [`SymbolTable::OVERFLOW`] sentinel)
/// are identical in both namespaces; a symbol at index `seed_len + i`
/// resolves to `remap[i]`.
#[derive(Debug, Clone, Copy)]
pub struct SymbolRemap<'a> {
    seed_len: usize,
    remap: &'a [Symbol],
}

impl<'a> SymbolRemap<'a> {
    pub fn new(seed_len: usize, remap: &'a [Symbol]) -> SymbolRemap<'a> {
        SymbolRemap { seed_len, remap }
    }

    /// The identity translation, for tapes recorded against the consumer's
    /// own interner.
    pub fn identity() -> SymbolRemap<'static> {
        SymbolRemap {
            seed_len: usize::MAX,
            remap: &[],
        }
    }

    pub fn resolve(&self, sym: Symbol) -> Symbol {
        if sym == SymbolTable::OVERFLOW || sym.index() < self.seed_len {
            sym
        } else {
            self.remap[sym.index() - self.seed_len]
        }
    }
}

/// One encoded event: fixed-size header plus spans into the tape arena.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EncEvent {
    kind: RawEventKind,
    /// Tape-local symbol (resolve through a [`SymbolRemap`]).
    name: Symbol,
    /// Range into [`EventTape::attrs`].
    attrs: (usize, usize),
    /// Arena span of the text payload.
    text: (usize, usize),
    /// Arena span of the target payload (PI target, doctype name,
    /// overflow element name).
    target: (usize, usize),
    has_internal_subset: bool,
    text_synthetic: bool,
    /// Source position of the first byte of this event's construct.
    start: Position,
    /// Source position just after this event was produced.
    pos: Position,
}

/// One encoded attribute: tape-local name plus arena spans.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EncAttr {
    pub(crate) name: Symbol,
    /// Literal name span when `name` is [`SymbolTable::OVERFLOW`]; empty
    /// otherwise.
    pub(crate) overflow: (usize, usize),
    pub(crate) value: (usize, usize),
}

/// A recorded event stream, replayable without copies.
#[derive(Debug, Default)]
pub struct EventTape {
    events: Vec<EncEvent>,
    attrs: Vec<EncAttr>,
    /// All string payloads, concatenated (events and attrs hold spans).
    arena: String,
}

impl EventTape {
    pub fn new() -> EventTape {
        EventTape::default()
    }

    /// A tape with pre-reserved capacity (events and arena bytes), so the
    /// recording loop does not regrow in its steady state.
    pub fn with_capacity(events: usize, arena_bytes: usize) -> EventTape {
        EventTape {
            events: Vec::with_capacity(events),
            attrs: Vec::new(),
            arena: String::with_capacity(arena_bytes),
        }
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Bytes this tape occupies: the payload arena plus the encoded event
    /// and attribute headers. Reported per shard in the telemetry
    /// pipeline timeline.
    pub fn byte_size(&self) -> usize {
        self.arena.len()
            + self.events.len() * std::mem::size_of::<EncEvent>()
            + self.attrs.len() * std::mem::size_of::<EncAttr>()
    }

    fn span(&mut self, text: &str) -> (usize, usize) {
        let start = self.arena.len();
        self.arena.push_str(text);
        (start, self.arena.len())
    }

    /// Records one event (copies its payloads into the arena). `start` is
    /// the source position of the construct's first byte (where the
    /// sequential reader reports document-level errors such as a second
    /// root element); `pos` is the position just after the event was
    /// produced. Both are replayed back by [`EventTape::start_position`] /
    /// [`EventTape::position`] so replay errors carry sequential positions.
    pub fn push(&mut self, ev: &RawEventRef<'_>, start: Position, pos: Position) {
        let attrs_start = self.attrs.len();
        for attr in ev.attrs() {
            let overflow = self.span(attr.overflow_name);
            let value = self.span(attr.value);
            self.attrs.push(EncAttr {
                name: attr.name,
                overflow,
                value,
            });
        }
        let text = self.span(ev.text());
        let target = self.span(ev.target());
        self.events.push(EncEvent {
            kind: ev.kind(),
            name: ev.name(),
            attrs: (attrs_start, self.attrs.len()),
            text,
            target,
            has_internal_subset: ev.internal_subset().is_some(),
            text_synthetic: ev.is_text_synthetic(),
            start,
            pos,
        });
    }

    /// The kind of event `i`.
    pub fn kind(&self, i: usize) -> RawEventKind {
        self.events[i].kind
    }

    /// The tape-local name symbol of event `i`.
    pub fn name(&self, i: usize) -> Symbol {
        self.events[i].name
    }

    /// The text payload of event `i`.
    pub fn text(&self, i: usize) -> &str {
        let (s, e) = self.events[i].text;
        &self.arena[s..e]
    }

    /// Whether event `i`'s text involved entity references or CDATA.
    pub fn text_synthetic(&self, i: usize) -> bool {
        self.events[i].text_synthetic
    }

    /// The recorded source position of event `i`.
    pub fn position(&self, i: usize) -> Position {
        self.events[i].pos
    }

    /// The recorded source position of the first byte of event `i`.
    pub fn start_position(&self, i: usize) -> Position {
        self.events[i].start
    }

    /// A zero-copy view of event `i`, names translated through `remap`.
    pub fn view<'a>(&'a self, i: usize, remap: SymbolRemap<'a>) -> RawEventRef<'a> {
        let e = &self.events[i];
        RawEventRef::from_tape(
            e.kind,
            remap.resolve(e.name),
            &self.arena[e.text.0..e.text.1],
            &self.arena[e.target.0..e.target.1],
            e.has_internal_subset,
            e.text_synthetic,
            &self.attrs[e.attrs.0..e.attrs.1],
            &self.arena,
            remap,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::XmlReader;
    use crate::writer::XmlWriter;

    /// Recording a document and replaying it through the writer reproduces
    /// the direct serialisation byte for byte.
    #[test]
    fn record_replay_round_trip() {
        let doc =
            r#"<bib><book year="1994" lang="en"><title>T &amp; U</title></book><empty/></bib>"#;
        let direct = {
            let mut reader = XmlReader::new(doc.as_bytes());
            let mut writer = XmlWriter::new(Vec::new());
            while reader.advance().unwrap() {
                writer
                    .write_event_ref(reader.symbols(), &reader.view())
                    .unwrap();
            }
            writer.finish().unwrap();
            String::from_utf8(writer.into_inner()).unwrap()
        };

        let mut reader = XmlReader::new(doc.as_bytes());
        let mut tape = EventTape::new();
        while reader.advance().unwrap() {
            tape.push(&reader.view(), reader.event_start(), reader.position());
        }
        let mut writer = XmlWriter::new(Vec::new());
        for i in 0..tape.len() {
            let v = tape.view(i, SymbolRemap::identity());
            writer.write_event_ref(reader.symbols(), &v).unwrap();
        }
        writer.finish().unwrap();
        let replayed = String::from_utf8(writer.into_inner()).unwrap();
        assert_eq!(replayed, direct);
    }

    #[test]
    fn positions_recorded_monotonically() {
        let doc = "<a>\n<b>text</b>\n</a>";
        let mut reader = XmlReader::new(doc.as_bytes());
        let mut tape = EventTape::new();
        while reader.advance().unwrap() {
            tape.push(&reader.view(), reader.event_start(), reader.position());
        }
        for i in 0..tape.len() {
            assert!(
                tape.start_position(i).offset <= tape.position(i).offset,
                "event {i} starts after it ends"
            );
        }
        let offsets: Vec<u64> = (0..tape.len()).map(|i| tape.position(i).offset).collect();
        let mut sorted = offsets.clone();
        sorted.sort_unstable();
        assert_eq!(offsets, sorted, "positions must be non-decreasing");
        assert_eq!(
            tape.position(tape.len() - 1).offset,
            doc.len() as u64,
            "end-document recorded at end of input"
        );
    }

    #[test]
    fn remap_translates_past_seed_prefix() {
        let mut seed = SymbolTable::new();
        let book = seed.intern("book");
        let seed_len = seed.len();
        // A local interner that learned one extra name.
        let mut local = seed.clone();
        let local_extra = local.intern("pamphlet");
        // The merged table learned other names first, so indices differ.
        let mut merged = seed.clone();
        merged.intern("zebra");
        let merged_extra = merged.intern("pamphlet");
        assert_ne!(local_extra, merged_extra);

        let remap_table = vec![merged_extra];
        let remap = SymbolRemap::new(seed_len, &remap_table);
        assert_eq!(remap.resolve(book), book, "seed symbols pass through");
        assert_eq!(remap.resolve(local_extra), merged_extra);
        assert_eq!(
            remap.resolve(SymbolTable::OVERFLOW),
            SymbolTable::OVERFLOW,
            "the sentinel is never remapped"
        );
    }
}
