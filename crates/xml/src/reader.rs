//! A streaming, pull-based XML parser.
//!
//! [`XmlReader`] turns a byte stream into a sequence of events without
//! buffering the document: memory use is bounded by the largest single
//! token plus the interner. A reader is one of two kinds, fixed by its
//! constructor:
//!
//! * **closed** ([`XmlReader::closed`], the source of every sequential
//!   validated run): the interner never grows past its seed — the DTD's
//!   vocabulary — so memory is schema-sized, which is what makes the
//!   FluXQuery runtime's memory guarantees meaningful. A name outside the
//!   seed comes back as [`SymbolTable::OVERFLOW`] plus its literal
//!   spelling;
//! * **open** ([`XmlReader::new`], [`XmlReader::with_config`],
//!   [`XmlReader::with_symbols`]): every name is interned on first sight,
//!   so events never carry [`SymbolTable::OVERFLOW`] and the table grows
//!   with the number of distinct names (the in-repo consumers — the DOM
//!   and projection baselines, shard workers — hold the document or the
//!   chunk anyway).
//!
//! There is one pull API, the borrowed view protocol shared with every
//! other [`crate::EventSource`]: [`XmlReader::advance`] rewrites one
//! recycled [`RawEvent`] in place and [`XmlReader::view`] serves it.
//! Element and attribute names are interned [`Symbol`]s, attribute values
//! land in recycled buffers, and text runs that end inside the scanner
//! window are borrowed from it without a copy. In the steady state (every
//! name interned, buffers grown to the largest token) pulling an event
//! performs **zero heap allocations**. [`parse_to_events`] renders the
//! views as owned [`XmlEvent`]s for tests and tools.
//!
//! UTF-8 is checked once per byte, at refill, where the scanner advances
//! a *validated-up-to watermark*. The invariant the reader relies on: **a
//! window range below the watermark that starts and ends on character
//! boundaries is valid UTF-8**, so names, attribute values and borrowed
//! text runs become `&str` without a pass over their bytes, and a view
//! costs no UTF-8 pass at all. A range crossing the watermark (an invalid
//! sequence stopped it) is checked where the reader always checked it, so
//! invalid-UTF-8 errors keep their positions. Tags have one parse path: a
//! cursor over the tag the prescan located.
//!
//! The reader checks well-formedness (tag balance, a single root element,
//! attribute uniqueness, entity definedness) but performs no validation —
//! validation against a DTD is layered on top by the `flux-xsax` crate,
//! which seeds the reader's [`SymbolTable`] from the DTD so stream symbols
//! coincide with schema symbols.

use crate::error::{Position, Result, XmlError};
use crate::escape::unescape_into;
use crate::event::{RawEvent, RawEventKind, RawEventRef, XmlEvent};
use crate::input::MemoryBudget;
use crate::scan::find_byte;
use crate::scanner::Scanner;
use crate::source::collect_events;
use flux_symbols::{Symbol, SymbolTable};
use flux_telemetry::{ReaderCounters, RunReport, ScanCounters, Stage};
use std::io::Read;
use std::sync::Arc;

/// Hard limit on element nesting depth, to bound stack growth on
/// adversarial input.
pub const MAX_DEPTH: usize = 10_000;

/// Configuration for [`XmlReader`]. Comments and processing instructions
/// are always parsed, checked and dropped: they never become events.
#[derive(Debug, Clone)]
pub struct ReaderConfig {
    /// Parse a document *fragment* rather than a whole document (default:
    /// false). A fragment is a slice of a well-formed document starting at
    /// a tag boundary, as produced by `flux_shard`'s chunk splitter:
    /// multiple top-level elements, character data at top level, and end
    /// tags closing elements opened before the fragment are all accepted
    /// (the sharded merger re-checks global well-formedness when it
    /// stitches fragments). At end of input, open elements are left on the
    /// stack ([`XmlReader::open_elements`]) instead of erroring.
    pub fragment: bool,
    /// Scanner window size in bytes (default
    /// [`crate::input::DEFAULT_WINDOW`]): the refill granularity and the
    /// initial buffer capacity. The window still grows past this when a
    /// single token is longer — memory stays bounded by the largest
    /// token, not by the configured size.
    pub window: usize,
    /// Memory budget the scanner window is charged against for the
    /// reader's lifetime (default `None` = untracked). Shared with the
    /// engine's tape/chunk accounting in streamed runs.
    pub budget: Option<Arc<MemoryBudget>>,
}

impl Default for ReaderConfig {
    fn default() -> Self {
        ReaderConfig {
            fragment: false,
            window: crate::input::DEFAULT_WINDOW,
            budget: None,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Before `StartDocument` has been emitted.
    Fresh,
    /// In the prolog: before the root element has opened.
    Prolog,
    /// Inside the root element.
    InRoot,
    /// After the root element closed, before `EndDocument`.
    Epilog,
    /// `EndDocument` emitted.
    Done,
}

/// Streaming pull parser over any [`Read`] source.
///
/// A thin shell around `ReaderCore` plus the recycled event `advance`
/// writes into. The split is load-bearing: `advance` hands
/// `&mut self.current` and `&mut self.core` to the parsing core as
/// disjoint field borrows, so no per-event move of the event struct is
/// needed to satisfy the borrow checker.
pub struct XmlReader<R: Read> {
    core: ReaderCore<R>,
    /// The event behind [`XmlReader::view`], filled in place by
    /// [`XmlReader::advance`].
    current: RawEvent,
}

/// The parsing state machine behind [`XmlReader`] — everything except
/// the recycled output events.
struct ReaderCore<R: Read> {
    scanner: Scanner<R>,
    config: ReaderConfig,
    state: State,
    /// Interner for element and attribute names. Seed it with
    /// [`XmlReader::with_symbols`] to share symbols with a schema.
    symbols: SymbolTable,
    /// Symbols of currently open elements.
    stack: Vec<Symbol>,
    /// Second half of an empty-element tag, emitted on the next call.
    pending_end: Option<Symbol>,
    /// Scratch buffer reused between tokens (PI and doctype names, raw
    /// text runs that crossed a refill).
    scratch: Vec<u8>,
    /// Second scratch buffer for payloads read while `scratch` content is
    /// still needed (CDATA runs, PI data, the internal DTD subset).
    aux: Vec<u8>,
    /// Literal names of open elements whose symbol is
    /// [`SymbolTable::OVERFLOW`] (a closed reader's undeclared names, and
    /// every element a hop opens), innermost last. Each OVERFLOW on
    /// `stack` has its name here: both are pushed and popped together.
    overflow_stack: Vec<String>,
    /// Spare overflow-name buffers recycled from closed elements.
    spare_overflow: Vec<String>,
    /// Tag-name interning without hashing (see [`NameCache`]).
    names: NameCache,
    /// When the current event is a text run served straight from the
    /// scanner window (no entities, no CDATA merge, no refill crossed),
    /// the window range holding it: [`XmlReader::view`] borrows the bytes
    /// in place instead of copying them into `current`. Valid until the
    /// next advance — the scanner is guaranteed not to compact before
    /// then.
    borrowed_text: Option<(usize, usize)>,
    /// Tag totals and rare-path counters.
    tel: ReaderCounters,
}

/// A plain start tag `<name>` ahead of a reader's cursor, found by
/// [`XmlReader::peek_plain`] and not yet consumed. Only that reader can
/// consume it ([`XmlReader::take_plain`], [`XmlReader::hop_plain`]).
#[derive(Debug, Clone, Copy)]
pub struct PlainStart {
    /// The element's name in the reader's vocabulary.
    pub name: Symbol,
    /// The tag's length, `<` through `>`.
    len: usize,
}

/// The markup construct classes the nine-byte dispatch probe can tell
/// apart — nine bytes is the longest discriminating prefix
/// (`<![CDATA[`).
#[derive(Clone, Copy)]
enum Markup {
    Comment,
    Cdata,
    Doctype,
    Pi,
    End,
    Start,
}

/// Classifies the markup construct starting at `probe[0] == b'<'` from
/// one dispatch probe — a single peek replaces the old chain of
/// `looking_at` calls.
#[inline]
fn classify_markup(probe: &[u8]) -> Markup {
    debug_assert_eq!(probe.first(), Some(&b'<'));
    match probe.get(1) {
        Some(b'!') if probe.starts_with(b"<!--") => Markup::Comment,
        Some(b'!') if probe.starts_with(b"<![CDATA[") => Markup::Cdata,
        Some(b'!') if probe.starts_with(b"<!DOCTYPE") => Markup::Doctype,
        Some(b'?') => Markup::Pi,
        Some(b'/') => Markup::End,
        // `<!anything-else` falls through to the start-tag parser,
        // which reports "invalid element name" exactly as before.
        _ => Markup::Start,
    }
}

/// Ways in the direct-mapped name cache. Sized for a schema-fixed name
/// alphabet (a DTD's worth of element and attribute names); collisions
/// only cost a fall-through to the hash map.
const NAME_CACHE_WAYS: usize = 32;

/// Names up to this long are keyed by their bytes as one `u128`.
const KEYED_NAME: usize = 16;

/// Tag-name interning for a schema-sized alphabet. A name of up to 16
/// bytes is keyed by its bytes as one zero-padded `u128` read from the
/// window, so a cache lookup or an end tag's match against its open
/// element is one integer compare — no hash, no `memcmp`.
struct NameCache {
    /// `(key, length, symbol)` by `(first byte ^ length) % WAYS`; length 0
    /// is an empty way.
    ways: [(u128, usize, Symbol); NAME_CACHE_WAYS],
    /// `(key, length)` of every symbol interned through the cache, by
    /// symbol index.
    keys: Vec<(u128, usize)>,
    /// Set for a closed reader's whole life, and for an open reader while
    /// [`XmlReader::skip_subtree`] hops a subtree: a name the table does
    /// not hold comes back as [`SymbolTable::OVERFLOW`] instead of growing
    /// it, so neither a closed reader nor an unread region grows the table.
    frozen: bool,
}

impl NameCache {
    fn new() -> Self {
        NameCache {
            ways: [(0, 0, SymbolTable::TEXT); NAME_CACHE_WAYS],
            keys: Vec::new(),
            frozen: false,
        }
    }

    /// Interns `name`, whose key is `key` (see [`Tag::key`]).
    #[inline]
    fn intern(&mut self, symbols: &mut SymbolTable, name: &str, key: u128) -> Symbol {
        let len = name.len();
        if len > KEYED_NAME {
            return self.fresh(symbols, name);
        }
        let way = &mut self.ways[(name.as_bytes()[0] ^ len as u8) as usize % NAME_CACHE_WAYS];
        if way.0 == key && way.1 == len {
            return way.2;
        }
        let sym = match self.frozen {
            false => symbols.intern(name),
            true => match symbols.lookup(name) {
                Some(sym) => sym,
                None => return SymbolTable::OVERFLOW,
            },
        };
        *way = (key, len, sym);
        if self.keys.len() <= sym.index() {
            self.keys.resize(sym.index() + 1, (0, 0));
        }
        self.keys[sym.index()] = (key, len);
        sym
    }

    /// A name the cache cannot key: interned, or only looked up while
    /// frozen.
    fn fresh(&self, symbols: &mut SymbolTable, name: &str) -> Symbol {
        match self.frozen {
            false => symbols.intern(name),
            true => symbols.lookup(name).unwrap_or(SymbolTable::OVERFLOW),
        }
    }

    /// Whether `sym` is known to be the name with this key and length.
    #[inline]
    fn is(&self, sym: Symbol, key: u128, len: usize) -> bool {
        len <= KEYED_NAME && self.keys.get(sym.index()) == Some(&(key, len))
    }
}

/// The name of `open`, the innermost open element: its symbol's, or for
/// [`SymbolTable::OVERFLOW`] the literal atop `overflow_stack` —
/// [`SymbolTable::UNRESOLVED_NAME`] if that stack were ever out of step,
/// like [`SymbolTable::name`], rather than a panic. Takes the two fields,
/// not the core, so the scanner stays free to borrow.
fn open_name<'a>(symbols: &'a SymbolTable, overflow_stack: &'a [String], open: Symbol) -> &'a str {
    match open {
        SymbolTable::OVERFLOW => overflow_stack
            .last()
            .map_or(SymbolTable::UNRESOLVED_NAME, String::as_str),
        open => symbols.name(open),
    }
}

/// Name-byte classes, one table lookup instead of a branch chain: bit 0 —
/// can begin an XML name, bit 1 — can continue one.
const NAME_BYTES: [u8; 256] = {
    let mut table = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        let b = i as u8;
        let start = b.is_ascii_alphabetic() || b == b'_' || b == b':' || b >= 0x80;
        let cont = start || b.is_ascii_digit() || b == b'-' || b == b'.';
        table[i] = start as u8 | (cont as u8) << 1;
        i += 1;
    }
    table
};

/// Whether `b` can begin an XML name (the reader's classification, shared
/// with the shard splitter, which must agree with the reader on what a
/// start/end tag looks like).
#[inline]
pub fn is_name_start(b: u8) -> bool {
    NAME_BYTES[b as usize] & 1 != 0
}

#[inline]
fn is_name_char(b: u8) -> bool {
    NAME_BYTES[b as usize] & 2 != 0
}

#[inline]
fn is_space(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\r' | b'\n')
}

/// A tag located at the window head, walked with one cursor. The tag is
/// `window[..len]`: from the `<` through the closing `>` — or, when the
/// input ended first, to the end of input — and `text` is the same bytes
/// as `&str` when they lie below the UTF-8 watermark.
struct Tag<'a> {
    window: &'a [u8],
    len: usize,
    text: Option<&'a str>,
}

impl<'a> Tag<'a> {
    /// The byte at `i`; `None` is end of input.
    #[inline]
    fn at(&self, i: usize) -> Option<u8> {
        self.window[..self.len].get(i).copied()
    }

    /// End of the name starting at `i`.
    #[inline]
    fn name_end(&self, i: usize) -> usize {
        i + self.window[i..self.len]
            .iter()
            .take_while(|&&b| is_name_char(b))
            .count()
    }

    /// End of the whitespace starting at `i`.
    #[inline]
    fn space_end(&self, i: usize) -> usize {
        i + self.window[i..self.len]
            .iter()
            .take_while(|&&b| is_space(b))
            .count()
    }

    /// The tag's bytes `from..to` as `&str`, or `None` if they are not
    /// UTF-8 (checked only when the tag crosses the watermark).
    #[inline]
    fn str(&self, from: usize, to: usize) -> Option<&'a str> {
        match self.text {
            Some(text) => Some(&text[from..to]),
            None => std::str::from_utf8(&self.window[from..to]).ok(),
        }
    }

    /// The [`NameCache`] key of the name `from..to`: its first 16 bytes,
    /// zero-padded, read as one `u128` — a single load when the window
    /// extends 16 bytes past `from`, as it nearly always does.
    #[inline]
    fn key(&self, from: usize, to: usize) -> u128 {
        let len = (to - from).min(KEYED_NAME);
        let mask = u128::MAX >> (128 - 8 * len);
        match self.window.get(from..from + KEYED_NAME) {
            Some(word) => u128::from_le_bytes(word.try_into().expect("16 bytes")) & mask,
            None => {
                let mut word = [0u8; KEYED_NAME];
                word[..len].copy_from_slice(&self.window[from..from + len]);
                u128::from_le_bytes(word)
            }
        }
    }
}

impl<R: Read> XmlReader<R> {
    /// Creates a reader with default configuration.
    pub fn new(src: R) -> Self {
        Self::with_config(src, ReaderConfig::default())
    }

    /// Creates a reader with the given configuration.
    pub fn with_config(src: R, config: ReaderConfig) -> Self {
        Self::with_symbols(src, config, SymbolTable::new())
    }

    /// Creates an open reader whose name interner is seeded with
    /// `symbols`: names not in the seed are interned on first sight.
    ///
    /// Cloning a schema's table into the reader makes stream symbols
    /// directly comparable with schema symbols (clones preserve indices).
    pub fn with_symbols(src: R, config: ReaderConfig, symbols: SymbolTable) -> Self {
        let scanner = Scanner::with_window(src, config.window, config.budget.clone());
        XmlReader {
            core: ReaderCore {
                scanner,
                config,
                state: State::Fresh,
                symbols,
                stack: Vec::new(),
                pending_end: None,
                scratch: Vec::new(),
                aux: Vec::new(),
                overflow_stack: Vec::new(),
                spare_overflow: Vec::new(),
                names: NameCache::new(),
                borrowed_text: None,
                tel: ReaderCounters::default(),
            },
            current: RawEvent::new(),
        }
    }

    /// Creates a closed reader over the vocabulary `symbols`: the table
    /// never grows, and a name it does not hold comes back as
    /// [`SymbolTable::OVERFLOW`] plus its literal spelling
    /// ([`RawEvent::name_str`]). Memory stays bounded by the seed however
    /// many distinct names the input mints.
    pub fn closed(src: R, config: ReaderConfig, symbols: SymbolTable) -> Self {
        let mut reader = Self::with_symbols(src, config, symbols);
        reader.core.names.frozen = true;
        reader
    }

    /// The name interner: maps the [`Symbol`]s in raw events back to names.
    pub fn symbols(&self) -> &SymbolTable {
        &self.core.symbols
    }

    /// Current input position (useful for error reporting in callers).
    pub fn position(&self) -> Position {
        self.core.scanner.position()
    }

    /// Position of the first byte of the most recently delivered event's
    /// construct — where the sequential reader reports document-level
    /// errors (a second root element, a late DOCTYPE, top-level text).
    /// Tape recorders store it so replay errors stay byte-exact. The
    /// scanner marks every event start and computes its line/column only
    /// here, when asked.
    pub fn event_start(&self) -> Position {
        self.core.scanner.marked_position()
    }

    /// Current element nesting depth.
    pub fn depth(&self) -> usize {
        self.core.stack.len()
    }

    /// Symbols of the currently open elements, outermost first. In
    /// fragment mode these are the elements still open at end of input —
    /// the "suffix opens" of the shard's stack summary, which the sharded
    /// merger matches against the next shard's unmatched closes.
    pub fn open_elements(&self) -> &[Symbol] {
        &self.core.stack
    }

    /// Advances to the next event, readable through [`XmlReader::view`]
    /// until the following advance. Text runs that end inside the
    /// scanner's buffered window are delivered as borrowed slices of it,
    /// skipping even the copy into the recycled event buffer. Returns `Ok(false)` once `EndDocument` has been
    /// delivered.
    pub fn advance(&mut self) -> Result<bool> {
        if self.core.state == State::Done {
            self.core.borrowed_text = None;
            return Ok(false);
        }
        // Disjoint field borrows: the core writes the event in place.
        self.core.fill_event(&mut self.current)?;
        Ok(true)
    }

    /// Passes over the content of the element whose start tag is the
    /// current event; afterwards the current event is its end tag, parsed
    /// by the ordinary path. Returns the bytes passed over, from after the
    /// start tag through the end tag.
    ///
    /// The hop walks the structural index's `<` lane with the reader's
    /// own open-element stack, each name pushed as its literal bytes
    /// ([`SymbolTable::OVERFLOW`] on the overflow stack): no name is
    /// interned and no event is filled. Well-formedness stays complete —
    /// a text run or tag the hop cannot settle from the index alone (an
    /// `&`, attributes, `<!`, `<?`, anything malformed or not yet below
    /// the UTF-8 watermark) goes through the ordinary parse functions,
    /// with names looked up but never interned, so every error keeps its
    /// message and position.
    pub fn skip_subtree(&mut self) -> Result<u64> {
        debug_assert_eq!(self.current.kind(), RawEventKind::StartElement);
        self.hop_content()
    }

    /// [`XmlReader::skip_subtree`] for the element whose start tag was
    /// consumed last, whether or not it became the current event.
    fn hop_content(&mut self) -> Result<u64> {
        let core = &mut self.core;
        let from = core.scanner.offset();
        if core.pending_end.is_none() {
            let frozen = std::mem::replace(&mut core.names.frozen, true);
            let hopped = core.hop_subtree(&mut self.current);
            core.names.frozen = frozen;
            hopped?;
        }
        core.fill_event(&mut self.current)?;
        Ok(core.scanner.offset() - from)
    }

    /// The plain start tag `<name>` at the cursor — no attribute, no
    /// whitespace, not an empty-element tag, its name in the vocabulary
    /// and under the depth limit — read through the name cache without
    /// consuming anything. `None` for anything else (text, other markup,
    /// an unusual tag), which [`XmlReader::advance`] then parses as ever.
    pub fn peek_plain(&mut self) -> Result<Option<PlainStart>> {
        self.core.peek_plain()
    }

    /// Consumes the element `tag` opens when its whole span is in the
    /// window in the writer's canonical form and returns its bytes; `None`,
    /// with nothing consumed, otherwise. The form is `<name>text</name>`:
    /// no whitespace in either tag, and text — allowed only where `text`
    /// says — with no `&`, `>` or `<` (so no reference, comment, PI or
    /// CDATA), checked on the structural index. A text-only element so
    /// spelled is well-formed as it stands, so no event is filled. Both
    /// tags count in the reader's tag totals.
    pub fn take_plain(&mut self, tag: PlainStart, text: bool) -> Option<&[u8]> {
        let core = &mut self.core;
        let len = core.scanner.plain_element(tag.len, text)?;
        core.tel.start_tags += 1;
        core.tel.end_tags += 1;
        Some(core.scanner.take(len))
    }

    /// Consumes the start tag `tag` and passes over the element's content
    /// and end tag, as [`XmlReader::skip_subtree`] does after an advanced
    /// start tag, returning the same count: the bytes after the start tag
    /// through the end tag.
    pub fn hop_plain(&mut self, tag: PlainStart) -> Result<u64> {
        let core = &mut self.core;
        core.tel.start_tags += 1;
        if let Some(len) = core.scanner.plain_element(tag.len, true) {
            core.tel.end_tags += 1;
            core.scanner.consume(len);
            return Ok((len - tag.len) as u64);
        }
        core.scanner.consume(tag.len);
        core.enter_element(tag.name, "")?;
        self.hop_content()
    }

    /// The kind of the event the last [`XmlReader::advance`] produced,
    /// without building a view.
    pub fn kind(&self) -> RawEventKind {
        self.current.kind()
    }

    /// A borrowed view of the event the last [`XmlReader::advance`]
    /// produced. Payloads borrow the reader's recycled buffers or the
    /// scanner window directly; a window-borrowed text run lies below the
    /// UTF-8 watermark, so lending it costs no pass over its bytes.
    pub fn view(&self) -> RawEventRef<'_> {
        let v = RawEventRef::from_event(&self.current);
        match self.core.borrowed_text {
            // Cannot fire: `parse_text` sets the range only after
            // `Scanner::text` accepted it, and the window is untouched
            // until the next advance.
            Some(range) => v.with_text(
                self.core
                    .scanner
                    .text(range)
                    .expect("borrowed text validated at parse time"),
            ),
            None => v,
        }
    }

    /// A copy of the scanner's refill/prescan counters. Shard workers
    /// harvest these at join time and merge them into the pipeline totals.
    pub fn scan_telemetry(&self) -> ScanCounters {
        self.core.scanner.telemetry()
    }

    /// A copy of the reader's tag totals and rare-path counters, with the
    /// scanner's UTF-8 watermark progress.
    pub fn reader_telemetry(&self) -> ReaderCounters {
        ReaderCounters {
            utf8_validated_bytes: self.core.scanner.utf8_validated_bytes(),
            ..self.core.tel
        }
    }

    /// Appends this reader's `scanner` and `reader` telemetry stages to
    /// `report`.
    pub fn report_into(&self, report: &mut RunReport) {
        let mut scanner = Stage::new("scanner");
        scanner.note("isa", crate::simd::active_isa_name());
        // The configured window size, so refill-behaviour regressions in a
        // report are attributable to their knob.
        scanner.counter("window_bytes", self.core.scanner.window_size() as u64);
        scanner.absorb(self.scan_telemetry().snapshot());
        report.stage(scanner);
        let mut reader = Stage::new("reader");
        reader.absorb(self.reader_telemetry().snapshot());
        report.stage(reader);
    }
}

impl<R: Read> ReaderCore<R> {
    // Errors at `at` window bytes past the cursor (0: at the cursor).

    fn syntax(&self, at: usize, message: impl Into<String>) -> XmlError {
        let (message, pos) = (message.into(), self.scanner.position_at(at));
        XmlError::Syntax { message, pos }
    }

    fn wf(&self, at: usize, message: impl Into<String>) -> XmlError {
        let (message, pos) = (message.into(), self.scanner.position_at(at));
        XmlError::WellFormedness { message, pos }
    }

    fn eof(&self, at: usize, expected: &'static str) -> XmlError {
        let pos = self.scanner.position_at(at);
        XmlError::UnexpectedEof { expected, pos }
    }

    fn bad_utf8(&self, at: usize) -> XmlError {
        let pos = self.scanner.position_at(at);
        XmlError::InvalidUtf8 { pos }
    }

    /// A copied payload (comment, PI, CDATA, a run that crossed a refill)
    /// as `&str`, or the error at the cursor.
    fn checked<'b>(&self, bytes: &'b [u8]) -> Result<&'b str> {
        std::str::from_utf8(bytes).map_err(|_| self.bad_utf8(0))
    }

    /// The parsing core: rewrites `ev` with the next event. An eligible
    /// text run is left in the scanner window
    /// ([`ReaderCore::borrowed_text`]) instead of being copied into `ev`;
    /// the range dies at the next scanner refill, i.e. the next call.
    fn fill_event(&mut self, ev: &mut RawEvent) -> Result<()> {
        self.borrowed_text = None;
        if self.state == State::Fresh {
            // Fragments skip the prolog/epilog state machine entirely: a
            // fragment is content, and the merger re-checks document-level
            // structure across shards.
            self.state = if self.config.fragment {
                State::InRoot
            } else {
                State::Prolog
            };
            if self.scanner.looking_at(&[0xEF, 0xBB, 0xBF])? {
                self.scanner.consume(3); // byte-order mark
            }
            self.maybe_skip_xml_decl()?;
            ev.reset(RawEventKind::StartDocument);
            return Ok(());
        }
        if let Some(name) = self.pending_end.take() {
            // The virtual end tag of `<e/>` is zero-width at the current
            // position.
            self.scanner.mark();
            ev.reset(RawEventKind::EndElement);
            ev.set_name(name);
            if name == SymbolTable::OVERFLOW {
                ev.target_mut()
                    .push_str(open_name(&self.symbols, &self.overflow_stack, name));
            }
            self.leave_element();
            return Ok(());
        }
        loop {
            match self.state {
                State::Prolog | State::Epilog => {
                    self.scanner.skip_whitespace()?;
                    self.scanner.mark();
                    match self.scanner.peek()? {
                        None => {
                            if self.state == State::Prolog {
                                return Err(self.eof(0, "root element"));
                            }
                            self.state = State::Done;
                            ev.reset(RawEventKind::EndDocument);
                            return Ok(());
                        }
                        Some(b'<') => {
                            let kind = classify_markup(self.scanner.peek_slice(9)?);
                            if self.parse_markup(ev, kind)? {
                                return Ok(());
                            }
                        }
                        Some(_) => {
                            return Err(self.wf(
                                0,
                                if self.state == State::Prolog {
                                    "character data before the root element"
                                } else {
                                    "character data after the root element"
                                },
                            ))
                        }
                    }
                }
                State::InRoot => {
                    self.scanner.mark();
                    // One nine-byte probe per event classifies everything:
                    // EOF, text, or which markup construct follows (CDATA
                    // counts as text — parse_text merges it into the run).
                    let next = {
                        let probe = self.scanner.peek_slice(9)?;
                        match probe.first() {
                            None => None,
                            Some(&b'<') => Some(Some(classify_markup(probe))),
                            Some(_) => Some(None),
                        }
                    };
                    match next {
                        None => {
                            if self.config.fragment {
                                // End of the fragment: leave open elements on
                                // the stack for the merger to stitch.
                                self.state = State::Done;
                                ev.reset(RawEventKind::EndDocument);
                                return Ok(());
                            }
                            return Err(self.eof(0, "closing tags for open elements"));
                        }
                        Some(Some(kind)) => {
                            if self.parse_markup(ev, kind)? {
                                return Ok(());
                            }
                        }
                        Some(None) => return self.parse_text(ev),
                    }
                }
                State::Fresh | State::Done => unreachable!("handled above and in `advance`"),
            }
        }
    }

    fn maybe_skip_xml_decl(&mut self) -> Result<()> {
        if self.scanner.looking_at(b"<?xml")? {
            // Require whitespace after the target so `<?xml-stylesheet?>` is
            // treated as an ordinary PI.
            let slice = self.scanner.peek_slice(6)?;
            if slice.len() == 6 && !slice[5].is_ascii_whitespace() {
                return Ok(());
            }
            self.scanner.expect_str(b"<?xml", "xml declaration")?;
            self.scratch.clear();
            self.scanner
                .read_until(b"?>", &mut self.scratch, "end of xml declaration")?;
        }
        Ok(())
    }

    /// Parses one `<...>` construct into `ev`; `kind` comes from the
    /// dispatch probe ([`classify_markup`] over the same nine bytes).
    /// Returns `false` when the construct was consumed silently (a
    /// comment or PI).
    #[inline(always)]
    fn parse_markup(&mut self, ev: &mut RawEvent, kind: Markup) -> Result<bool> {
        match kind {
            Markup::Comment => {
                self.parse_comment()?;
                Ok(false)
            }
            // CDATA is text: inside the root it joins the surrounding
            // character-data run (parse_text merges adjacent sections);
            // anywhere else it is a well-formedness error.
            Markup::Cdata if self.state == State::InRoot => {
                self.parse_text(ev)?;
                Ok(true)
            }
            Markup::Cdata => Err(self.wf(0, "CDATA section outside the root element")),
            Markup::Doctype => {
                self.parse_doctype(ev)?;
                Ok(true)
            }
            Markup::Pi => {
                self.parse_pi()?;
                Ok(false)
            }
            Markup::End => {
                self.tel.end_tags += 1;
                self.parse_end_tag(ev)?;
                Ok(true)
            }
            Markup::Start => {
                self.tel.start_tags += 1;
                self.parse_start_tag(ev)?;
                Ok(true)
            }
        }
    }

    /// Consumes a comment, checking its end and its UTF-8.
    fn parse_comment(&mut self) -> Result<()> {
        self.scanner.expect_str(b"<!--", "comment")?;
        self.scratch.clear();
        self.scanner
            .read_until(b"-->", &mut self.scratch, "end of comment `-->`")?;
        self.checked(&self.scratch)?;
        Ok(())
    }

    /// Consumes a processing instruction, checking its target, its end and
    /// its UTF-8, and rejecting an `xml` target (a misplaced declaration).
    fn parse_pi(&mut self) -> Result<()> {
        self.scanner.expect_str(b"<?", "processing instruction")?;
        self.read_name("processing instruction target")?;
        self.checked(&self.scratch)?;
        self.scanner.skip_whitespace()?;
        self.aux.clear();
        self.scanner
            .read_until(b"?>", &mut self.aux, "end of processing instruction")?;
        self.checked(&self.aux)?;
        // The target is still in `scratch`: `read_until` filled `aux`.
        if self.scratch.eq_ignore_ascii_case(b"xml") {
            return Err(self.syntax(
                0,
                "xml declaration is only allowed at the start of the document",
            ));
        }
        Ok(())
    }

    fn parse_doctype(&mut self, ev: &mut RawEvent) -> Result<()> {
        // Fragments accept a DOCTYPE whenever no element is open locally;
        // the sharded merger enforces the document-level prolog position.
        let ok_here = self.state == State::Prolog
            || (self.config.fragment && self.stack.is_empty() && self.pending_end.is_none());
        if !ok_here {
            return Err(self.wf(0, "DOCTYPE declaration after the root element has started"));
        }
        self.scanner
            .expect_str(b"<!DOCTYPE", "DOCTYPE declaration")?;
        if self.scanner.skip_whitespace()? == 0 {
            return Err(self.syntax(0, "whitespace required after <!DOCTYPE"));
        }
        ev.reset(RawEventKind::DoctypeDecl);
        self.read_name("doctype root name")?;
        let name = self.checked(&self.scratch)?;
        ev.target_mut().push_str(name);
        self.scanner.skip_whitespace()?;
        // Optional external id: SYSTEM "..." | PUBLIC "..." "..."
        if self.scanner.looking_at(b"SYSTEM")? {
            self.scanner.expect_str(b"SYSTEM", "SYSTEM keyword")?;
            self.scanner.skip_whitespace()?;
            self.skip_quoted("system literal")?;
            self.scanner.skip_whitespace()?;
        } else if self.scanner.looking_at(b"PUBLIC")? {
            self.scanner.expect_str(b"PUBLIC", "PUBLIC keyword")?;
            self.scanner.skip_whitespace()?;
            self.skip_quoted("public literal")?;
            self.scanner.skip_whitespace()?;
            self.skip_quoted("system literal")?;
            self.scanner.skip_whitespace()?;
        }
        if self.scanner.peek()? == Some(b'[') {
            self.scanner.next_byte()?;
            self.read_internal_subset()?;
            let subset = self.checked(&self.aux)?;
            ev.text_mut().push_str(subset);
            ev.set_has_internal_subset(true);
        }
        self.scanner.skip_whitespace()?;
        self.scanner
            .expect_str(b">", "`>` closing the DOCTYPE declaration")?;
        Ok(())
    }

    /// Reads the internal DTD subset into `self.aux` up to the matching
    /// `]`, honouring quoted literals and comments so `]` inside them does
    /// not terminate the subset.
    fn read_internal_subset(&mut self) -> Result<()> {
        self.aux.clear();
        loop {
            let b = self
                .scanner
                .peek()?
                .ok_or_else(|| self.eof(0, "`]` closing the internal DTD subset"))?;
            match b {
                b']' => {
                    self.scanner.next_byte()?;
                    return Ok(());
                }
                b'"' | b'\'' => {
                    self.scanner.next_byte()?;
                    self.aux.push(b);
                    let delim = [b];
                    self.scanner
                        .read_until(&delim, &mut self.aux, "closing quote")?;
                    self.aux.push(b);
                }
                b'<' if self.scanner.looking_at(b"<!--")? => {
                    self.scanner.expect_str(b"<!--", "comment")?;
                    self.aux.extend_from_slice(b"<!--");
                    self.scanner
                        .read_until(b"-->", &mut self.aux, "end of comment")?;
                    self.aux.extend_from_slice(b"-->");
                }
                _ => {
                    self.scanner.next_byte()?;
                    self.aux.push(b);
                }
            }
        }
    }

    fn skip_quoted(&mut self, what: &'static str) -> Result<()> {
        let quote = match self.scanner.peek()? {
            Some(q @ (b'"' | b'\'')) => q,
            _ => return Err(self.syntax(0, format!("expected quoted {what}"))),
        };
        self.scanner.next_byte()?;
        self.scratch.clear();
        let delim = [quote];
        self.scanner
            .read_until(&delim, &mut self.scratch, "closing quote")?;
        Ok(())
    }

    /// Reads a name token into `self.scratch`.
    fn read_name(&mut self, what: &'static str) -> Result<()> {
        match self.scanner.peek()? {
            Some(b) if is_name_start(b) => {}
            Some(_) => return Err(self.syntax(0, format!("invalid {what}"))),
            None => return Err(self.eof(0, what)),
        }
        self.scratch.clear();
        self.scanner.read_while(is_name_char, &mut self.scratch)
    }

    /// Locates the `>` closing the markup at the current `<`, growing the
    /// window as needed. Returns the tag's length through the `>` and
    /// whether the probe saw a stray `<` or a `&` inside it; when the
    /// input ends first, the whole rest of the input (then in the window)
    /// with `dirty` set, so the cursor reports the exact EOF error.
    #[inline(always)]
    fn locate_tag_end(&mut self) -> Result<(usize, bool)> {
        loop {
            if let Some((gt, dirty)) = self.scanner.probe_tag() {
                return Ok((gt + 1, dirty));
            }
            if !self.scanner.fill_more()? {
                return Ok((self.scanner.window().len(), true));
            }
        }
    }

    /// Parses the start tag at the current `<`. The tag is located first,
    /// then one cursor walks it; nothing is consumed until it is accepted,
    /// and every error carries the position of the byte it was found at
    /// (the newline lane answers positions inside the tag). `dirty` off —
    /// no `&` or `<` anywhere in the tag — lets attribute values go
    /// straight into the event without an unescape probe.
    fn parse_start_tag(&mut self, ev: &mut RawEvent) -> Result<()> {
        if self.state == State::Epilog {
            return Err(self.wf(0, "multiple root elements"));
        }
        let (len, dirty) = self.locate_tag_end()?;
        let tag = Tag {
            window: self.scanner.window(),
            len,
            text: self.scanner.window_text(len),
        };
        match tag.at(1) {
            None => return Err(self.eof(1, "element name")),
            Some(b) if !is_name_start(b) => return Err(self.syntax(1, "invalid element name")),
            Some(_) => {}
        }
        let mut i = tag.name_end(1);
        let Some(element) = tag.str(1, i) else {
            return Err(self.bad_utf8(i));
        };
        let key = tag.key(1, i);
        let name = self.names.intern(&mut self.symbols, element, key);
        ev.reset(RawEventKind::StartElement);
        ev.set_name(name);
        if name == SymbolTable::OVERFLOW {
            // A name the closed vocabulary lacks: the literal rides in the
            // event's target buffer and on the overflow stack.
            ev.target_mut().push_str(element);
        }
        let empty = loop {
            let had_space = tag.at(i).is_some_and(is_space);
            i = tag.space_end(i);
            let Some(b) = tag.at(i) else {
                return Err(self.eof(i, "`>` closing the start tag"));
            };
            match b {
                b'>' => break false,
                b'/' => match tag.at(i + 1) {
                    Some(b'>') => {
                        i += 1;
                        break true;
                    }
                    Some(_) => {
                        return Err(
                            self.syntax(i + 1, "expected `>` after `/` in empty-element tag")
                        )
                    }
                    None => return Err(self.eof(i + 1, "`>` after `/` in empty-element tag")),
                },
                b if is_name_start(b) => {
                    if !had_space {
                        return Err(self.syntax(i, "whitespace required before attribute"));
                    }
                    let name_end = tag.name_end(i);
                    let Some(attr) = tag.str(i, name_end) else {
                        return Err(self.bad_utf8(name_end));
                    };
                    let key = tag.key(i, name_end);
                    let attr_name = self.names.intern(&mut self.symbols, attr, key);
                    i = tag.space_end(name_end);
                    match tag.at(i) {
                        Some(b'=') => i = tag.space_end(i + 1),
                        Some(_) => return Err(self.syntax(i, "expected `=` after attribute name")),
                        None => return Err(self.eof(i, "`=` after attribute name")),
                    }
                    let quote = match tag.at(i) {
                        Some(q @ (b'"' | b'\'')) => q,
                        Some(_) => return Err(self.syntax(i, "attribute value must be quoted")),
                        None => return Err(self.eof(i, "attribute value")),
                    };
                    let value_start = i + 1;
                    // Inside a located tag the probe's quote-parity walk
                    // guarantees the closing quote; only a tag cut off by
                    // end of input can lack it.
                    let Some(value_len) = find_byte(&tag.window[value_start..len], quote) else {
                        return Err(self.eof(len, "closing attribute quote"));
                    };
                    i = value_start + value_len + 1;
                    let Some(raw) = tag.str(value_start, i - 1) else {
                        return Err(self.bad_utf8(i));
                    };
                    if dirty && raw.contains('<') {
                        return Err(self.wf(i, "`<` is not allowed in attribute values"));
                    }
                    let duplicate = ev.attributes().iter().any(|a| {
                        a.name == attr_name
                            && (attr_name != SymbolTable::OVERFLOW || a.overflow_name == attr)
                    });
                    let slot = if attr_name == SymbolTable::OVERFLOW {
                        ev.push_attr_named(attr)
                    } else {
                        ev.push_attr(attr_name)
                    };
                    match dirty {
                        true => unescape_into(raw, self.scanner.position_at(i), slot)?,
                        false => slot.push_str(raw),
                    }
                    if duplicate {
                        return Err(self.wf(i, format!("duplicate attribute `{attr}`")));
                    }
                }
                _ => return Err(self.syntax(i, "malformed start tag")),
            }
        };
        self.scanner.consume(i + 1);
        self.enter_element(name, ev.target())?;
        if empty {
            self.pending_end = Some(name);
        }
        Ok(())
    }

    /// Parses the end tag at the current `<`, one cursor over the located
    /// tag like [`ReaderCore::parse_start_tag`]. The overwhelmingly common
    /// end tag closes the innermost open element: a byte comparison
    /// against its known name replaces interning (and the UTF-8 check —
    /// the open name is valid) entirely.
    fn parse_end_tag(&mut self, ev: &mut RawEvent) -> Result<()> {
        let (len, _) = self.locate_tag_end()?;
        // The open element's name is matched by key; only another name is
        // read as `&str` (checked: this is the rare path).
        let tag = Tag {
            window: self.scanner.window(),
            len,
            text: None,
        };
        match tag.at(2) {
            None => return Err(self.eof(2, "element name in end tag")),
            Some(b) if !is_name_start(b) => {
                return Err(self.syntax(2, "invalid element name in end tag"))
            }
            Some(_) => {}
        }
        let name_end = tag.name_end(2);
        let literal = &tag.window[2..name_end];
        let key = tag.key(2, name_end);
        let open = self.stack.last().copied();
        let closes_open = match open {
            Some(SymbolTable::OVERFLOW) => self
                .overflow_stack
                .last()
                .is_some_and(|name| name.as_bytes() == literal),
            Some(open) => {
                self.names.is(open, key, literal.len())
                    || self.symbols.name(open).as_bytes() == literal
            }
            None => false,
        };
        // Anything but the open element's name is interned as written.
        let (name, found) = match open {
            Some(open) if closes_open => (open, ""),
            _ => {
                let Some(found) = tag.str(2, name_end) else {
                    return Err(self.bad_utf8(name_end));
                };
                let name = self.names.intern(&mut self.symbols, found, key);
                (name, found)
            }
        };
        let gt = tag.space_end(name_end);
        match tag.at(gt) {
            Some(b'>') => {}
            Some(_) => return Err(self.syntax(gt, "expected `>` closing the end tag")),
            None => return Err(self.eof(gt, "`>` closing the end tag")),
        }
        match open {
            Some(open) if closes_open => {
                ev.reset(RawEventKind::EndElement);
                ev.set_name(open);
                if open == SymbolTable::OVERFLOW {
                    ev.target_mut()
                        .push_str(open_name(&self.symbols, &self.overflow_stack, open));
                }
            }
            Some(open) => {
                let open_name = open_name(&self.symbols, &self.overflow_stack, open);
                return Err(self.wf(
                    gt + 1,
                    format!("mismatched end tag: expected </{open_name}>, found </{found}>"),
                ));
            }
            None if self.config.fragment => {
                // Closes an element opened before this fragment; the merger
                // verifies the name against the previous shard's stack.
                ev.reset(RawEventKind::EndElement);
                ev.set_name(name);
                if name == SymbolTable::OVERFLOW {
                    ev.target_mut().push_str(found);
                }
            }
            None => return Err(self.wf(gt + 1, format!("end tag </{found}> with no open element"))),
        }
        self.scanner.consume(gt + 1);
        if closes_open {
            self.leave_element();
        }
        Ok(())
    }

    /// The depth limit, checked once a start tag has been consumed.
    #[inline(always)]
    fn check_depth(&self) -> Result<()> {
        if self.stack.len() >= MAX_DEPTH {
            return Err(self.wf(
                0,
                format!("element nesting deeper than the configured limit of {MAX_DEPTH}"),
            ));
        }
        Ok(())
    }

    #[inline(always)]
    fn enter_element(&mut self, name: Symbol, overflow_name: &str) -> Result<()> {
        self.check_depth()?;
        if self.state == State::Prolog {
            self.state = State::InRoot;
        }
        if name == SymbolTable::OVERFLOW {
            let mut owned = self.spare_overflow.pop().unwrap_or_default();
            owned.push_str(overflow_name);
            self.overflow_stack.push(owned);
        }
        self.stack.push(name);
        Ok(())
    }

    #[inline(always)]
    fn leave_element(&mut self) {
        if self.stack.pop() == Some(SymbolTable::OVERFLOW) {
            if let Some(mut owned) = self.overflow_stack.pop() {
                owned.clear();
                self.spare_overflow.push(owned);
            }
        }
        if self.stack.is_empty() && self.state == State::InRoot && !self.config.fragment {
            self.state = State::Epilog;
        }
    }

    /// See [`XmlReader::peek_plain`]. A name cut by the window edge is
    /// buffered whole first, as [`ReaderCore::hop_start_tag`] does.
    fn peek_plain(&mut self) -> Result<Option<PlainStart>> {
        if self.state != State::InRoot
            || self.pending_end.is_some()
            || self.stack.len() >= MAX_DEPTH
        {
            return Ok(None);
        }
        // The current event is spent: a refill may move the window.
        self.borrowed_text = None;
        let name_end = loop {
            let window = self.scanner.window();
            let name_end = 1 + window[1.min(window.len())..]
                .iter()
                .take_while(|&&b| is_name_char(b))
                .count();
            let next = (window.first().copied(), window.get(name_end).copied());
            match next {
                (Some(b'<'), Some(b'>')) if name_end > 1 && is_name_start(window[1]) => {
                    break name_end
                }
                (None, _) | (Some(b'<'), None) if self.scanner.fill_more()? => {}
                _ => return Ok(None),
            }
        };
        let Some(text) = self.scanner.window_text(name_end) else {
            return Ok(None);
        };
        let tag = Tag {
            window: self.scanner.window(),
            len: name_end + 1,
            text: Some(text),
        };
        let key = tag.key(1, name_end);
        let name = self.names.intern(&mut self.symbols, &text[1..], key);
        Ok((name != SymbolTable::OVERFLOW).then_some(PlainStart {
            name,
            len: name_end + 1,
        }))
    }

    /// Hops to the end tag of the innermost open element (see
    /// [`XmlReader::skip_subtree`]), leaving it unconsumed — or stops at end
    /// of input, which the ordinary path then reports. `ev` is scratch for
    /// the constructs the ordinary functions parse.
    fn hop_subtree(&mut self, ev: &mut RawEvent) -> Result<()> {
        let depth = self.stack.len();
        loop {
            let kind = {
                let probe = self.scanner.peek_slice(9)?;
                match probe.first() {
                    None => return Ok(()),
                    Some(&b'<') => classify_markup(probe),
                    Some(_) => {
                        if !self.scanner.hop_text()? {
                            self.parse_text(ev)?;
                        }
                        continue;
                    }
                }
            };
            match kind {
                Markup::End if self.stack.len() == depth => return Ok(()),
                Markup::End => {
                    self.tel.end_tags += 1;
                    self.hop_end_tag(ev)?;
                }
                Markup::Start => {
                    self.tel.start_tags += 1;
                    self.hop_start_tag(ev)?;
                }
                other => {
                    self.parse_markup(ev, other)?;
                }
            }
        }
    }

    /// A start tag inside a hop. `<name>` and `<name/>` are settled by
    /// scanning the name — one table lookup per byte, and its end is the
    /// tag's end — and its bytes go onto the open-element stack. Anything
    /// else is parsed by [`ReaderCore::parse_start_tag`]. A tag cut by the
    /// window edge is buffered whole first, so which tokens straddle a
    /// refill never decides which path a tag takes.
    fn hop_start_tag(&mut self, ev: &mut RawEvent) -> Result<()> {
        let (name_end, empty) = loop {
            let window = self.scanner.window();
            let name_end = 1 + window[1..].iter().take_while(|&&b| is_name_char(b)).count();
            let next = (
                window.get(name_end).copied(),
                window.get(name_end + 1).copied(),
            );
            match next {
                (Some(b'>'), _) => break (name_end, false),
                (Some(b'/'), Some(b'>')) => break (name_end, true),
                (None, _) | (Some(b'/'), None) if self.scanner.fill_more()? => {}
                _ => return self.parse_skipped_start_tag(ev),
            }
        };
        let named = is_name_start(self.scanner.window()[1]);
        let Some(text) = self.scanner.window_text(name_end).filter(|_| named) else {
            return self.parse_skipped_start_tag(ev);
        };
        let len = name_end + 1 + usize::from(empty);
        if empty {
            self.scanner.consume(len);
            return self.check_depth();
        }
        let mut name = self.spare_overflow.pop().unwrap_or_default();
        name.push_str(&text[1..]);
        self.scanner.consume(len);
        self.check_depth()?;
        self.overflow_stack.push(name);
        self.stack.push(SymbolTable::OVERFLOW);
        Ok(())
    }

    /// The ordinary start-tag parse inside a hop; an empty element closes
    /// at once, since no event is delivered for it.
    fn parse_skipped_start_tag(&mut self, ev: &mut RawEvent) -> Result<()> {
        self.parse_start_tag(ev)?;
        if self.pending_end.take().is_some() {
            self.leave_element();
        }
        Ok(())
    }

    /// An end tag inside a hop. `</name>` closing the innermost element is
    /// a byte comparison against its name — the literal on the overflow
    /// stack, or the symbol's name for a tag the ordinary parse opened;
    /// anything else is parsed by [`ReaderCore::parse_end_tag`], which
    /// also reports the mismatches.
    fn hop_end_tag(&mut self, ev: &mut RawEvent) -> Result<()> {
        let open = match self.stack.last() {
            Some(&open) => open_name(&self.symbols, &self.overflow_stack, open),
            None => return self.parse_end_tag(ev),
        };
        let gt = 2 + open.len();
        let tag = self.scanner.peek_slice(gt + 1)?;
        if tag.get(2..gt) == Some(open.as_bytes()) && tag.get(gt) == Some(&b'>') {
            self.scanner.consume(gt + 1);
            self.leave_element();
            return Ok(());
        }
        self.parse_end_tag(ev)
    }

    /// Parses a maximal run of character data into `ev`, merging adjacent
    /// CDATA sections and resolving entity references.
    ///
    /// A run that (a) ends at a `<` inside the scanner's buffered window
    /// with enough lookahead to rule out a following CDATA section (or at
    /// EOF), (b) contains no entity or character references, and (c) needs
    /// no CDATA merging is **not copied**: its window range lands in
    /// `self.borrowed_text` and `ev`'s text stays empty.
    /// [`XmlReader::view`] serves the bytes in place.
    #[inline(always)]
    fn parse_text(&mut self, ev: &mut RawEvent) -> Result<()> {
        ev.reset(RawEventKind::Text);
        // Lookahead 9 = b"<![CDATA[".len(): the CDATA probe below must
        // not refill (a refill would move the borrowed bytes).
        if let Some(range) = self.scanner.borrow_run(b'<', 9)? {
            // Below the watermark the run is `&str` without a pass over
            // it, and the prescan's `&` lane answers the reference probe.
            let Some(raw) = self.scanner.text(range) else {
                return Err(self.bad_utf8(0));
            };
            let next = self.scanner.window();
            // One byte rejects CDATA for nearly every run: `<!` is rare.
            let cdata_follows = next.get(1) == Some(&b'!') && next.starts_with(b"<![CDATA[");
            if self.scanner.amp_in(range) {
                // Entity references force materialisation; unescape
                // into the recycled buffer and continue the owned loop
                // (more segments may follow).
                self.tel.entity_unescapes += 1;
                ev.set_text_synthetic(true);
                unescape_into(raw, self.scanner.position(), ev.text_mut())?;
            } else if cdata_follows {
                // A CDATA section merges into this run: spill the
                // borrowed prefix and continue the owned loop.
                ev.text_mut().push_str(raw);
            } else if next.is_empty() && !self.config.fragment {
                return Err(self.eof(0, "closing tags for open elements"));
            } else {
                // The common case: a literal text run delivered as a
                // borrowed slice of the scanner window.
                self.borrowed_text = Some(range);
                return Ok(());
            }
        }
        loop {
            match self.scanner.peek()? {
                Some(b'<') => {
                    if self.scanner.looking_at(b"<![CDATA[")? {
                        self.scanner.expect_str(b"<![CDATA[", "CDATA section")?;
                        self.aux.clear();
                        self.scanner
                            .read_until(b"]]>", &mut self.aux, "`]]>` ending CDATA")?;
                        let chunk = self.checked(&self.aux)?;
                        ev.text_mut().push_str(chunk);
                        ev.set_text_synthetic(true);
                    } else {
                        break;
                    }
                }
                Some(_) => {
                    self.scratch.clear();
                    self.scanner.read_until_byte(b'<', &mut self.scratch)?;
                    let raw = self.checked(&self.scratch)?;
                    self.tel.copied_text_runs += 1;
                    if raw.contains('&') {
                        self.tel.entity_unescapes += 1;
                        ev.set_text_synthetic(true);
                    }
                    unescape_into(raw, self.scanner.position(), ev.text_mut())?;
                }
                None => {
                    if self.config.fragment {
                        // A fragment may end right after a text run (the
                        // next chunk starts at a tag), so this run is
                        // complete: deliver it.
                        return Ok(());
                    }
                    return Err(self.eof(0, "closing tags for open elements"));
                }
            }
        }
        Ok(())
    }
}

/// Convenience: parses a complete document from a string into an event list
/// ([`crate::source::collect_events`] over a default reader). Intended for
/// tests and small inputs.
pub fn parse_to_events(input: &str) -> Result<Vec<XmlEvent>> {
    match collect_events(&mut XmlReader::new(input.as_bytes())) {
        (events, None) => Ok(events),
        (_, Some(e)) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Attribute;

    fn events(input: &str) -> Vec<XmlEvent> {
        parse_to_events(input).expect("parse failed")
    }

    fn kinds(input: &str) -> Vec<&'static str> {
        events(input).iter().map(|e| e.kind()).collect()
    }

    /// Drains a configured reader: the delivered prefix and the terminal
    /// error, if any.
    fn events_with(input: &str, config: ReaderConfig) -> (Vec<XmlEvent>, Option<XmlError>) {
        collect_events(&mut XmlReader::with_config(input.as_bytes(), config))
    }

    #[test]
    fn minimal_document() {
        assert_eq!(
            kinds("<a/>"),
            vec![
                "start-document",
                "start-element",
                "end-element",
                "end-document"
            ]
        );
    }

    #[test]
    fn nested_elements_and_text() {
        let evs = events("<a><b>hi</b><c/></a>");
        assert_eq!(
            evs,
            vec![
                XmlEvent::StartDocument,
                XmlEvent::StartElement {
                    name: "a".into(),
                    attributes: vec![]
                },
                XmlEvent::StartElement {
                    name: "b".into(),
                    attributes: vec![]
                },
                XmlEvent::Text("hi".into()),
                XmlEvent::EndElement { name: "b".into() },
                XmlEvent::StartElement {
                    name: "c".into(),
                    attributes: vec![]
                },
                XmlEvent::EndElement { name: "c".into() },
                XmlEvent::EndElement { name: "a".into() },
                XmlEvent::EndDocument,
            ]
        );
    }

    #[test]
    fn attributes_parsed_and_unescaped() {
        let evs = events(r#"<a x="1" y='two &amp; three'/>"#);
        match &evs[1] {
            XmlEvent::StartElement { name, attributes } => {
                assert_eq!(name, "a");
                assert_eq!(attributes.len(), 2);
                assert_eq!(attributes[0], Attribute::new("x", "1"));
                assert_eq!(attributes[1], Attribute::new("y", "two & three"));
            }
            other => panic!("expected start element, got {other}"),
        }
    }

    #[test]
    fn duplicate_attribute_rejected() {
        let err = parse_to_events(r#"<a x="1" x="2"/>"#).unwrap_err();
        assert!(matches!(err, XmlError::WellFormedness { .. }), "{err}");
    }

    #[test]
    fn text_entities_unescaped() {
        let evs = events("<a>1 &lt; 2 &amp;&amp; 3 &gt; 2</a>");
        assert_eq!(evs[2], XmlEvent::Text("1 < 2 && 3 > 2".into()));
    }

    #[test]
    fn char_refs_in_text() {
        let evs = events("<a>&#65;&#x42;</a>");
        assert_eq!(evs[2], XmlEvent::Text("AB".into()));
    }

    #[test]
    fn unknown_entity_is_error() {
        let err = parse_to_events("<a>&nope;</a>").unwrap_err();
        assert!(matches!(err, XmlError::UnknownEntity { ref name, .. } if name == "nope"));
    }

    #[test]
    fn cdata_merged_with_text() {
        let evs = events("<a>one <![CDATA[<raw> & ]]>two</a>");
        assert_eq!(evs[2], XmlEvent::Text("one <raw> & two".into()));
    }

    #[test]
    fn comments_skipped_by_default() {
        let evs = events("<a><!-- hello -->x</a>");
        assert_eq!(evs[2], XmlEvent::Text("x".into()));
    }

    #[test]
    fn xml_declaration_skipped() {
        assert_eq!(
            kinds("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<a/>"),
            vec![
                "start-document",
                "start-element",
                "end-element",
                "end-document"
            ]
        );
    }

    #[test]
    fn doctype_with_internal_subset() {
        let evs = events("<!DOCTYPE bib [<!ELEMENT bib (book)*>]><bib/>");
        match &evs[1] {
            XmlEvent::DoctypeDecl {
                name,
                internal_subset,
            } => {
                assert_eq!(name, "bib");
                assert_eq!(internal_subset.as_deref(), Some("<!ELEMENT bib (book)*>"));
            }
            other => panic!("expected doctype, got {other}"),
        }
    }

    #[test]
    fn doctype_system_id() {
        let evs = events(r#"<!DOCTYPE bib SYSTEM "bib.dtd"><bib/>"#);
        assert!(
            matches!(&evs[1], XmlEvent::DoctypeDecl { name, internal_subset: None } if name == "bib")
        );
    }

    #[test]
    fn doctype_subset_with_bracket_in_quotes() {
        let evs = events(r#"<!DOCTYPE a [<!ENTITY x "]">]><a/>"#);
        match &evs[1] {
            XmlEvent::DoctypeDecl {
                internal_subset, ..
            } => {
                assert_eq!(internal_subset.as_deref(), Some(r#"<!ENTITY x "]">"#));
            }
            other => panic!("expected doctype, got {other}"),
        }
    }

    #[test]
    fn mismatched_tags_rejected() {
        let err = parse_to_events("<a><b></a></b>").unwrap_err();
        assert!(matches!(err, XmlError::WellFormedness { .. }));
    }

    #[test]
    fn unclosed_root_rejected() {
        let err = parse_to_events("<a><b></b>").unwrap_err();
        assert!(matches!(err, XmlError::UnexpectedEof { .. }));
    }

    #[test]
    fn multiple_roots_rejected() {
        let err = parse_to_events("<a/><b/>").unwrap_err();
        assert!(matches!(err, XmlError::WellFormedness { .. }));
    }

    #[test]
    fn text_outside_root_rejected() {
        assert!(parse_to_events("hello<a/>").is_err());
        assert!(parse_to_events("<a/>hello").is_err());
    }

    #[test]
    fn whitespace_around_root_ok() {
        assert_eq!(
            kinds("  \n<a/>\n  "),
            vec![
                "start-document",
                "start-element",
                "end-element",
                "end-document"
            ]
        );
    }

    #[test]
    fn unquoted_attribute_rejected() {
        assert!(parse_to_events("<a x=1/>").is_err());
    }

    #[test]
    fn lt_in_attribute_rejected() {
        assert!(parse_to_events(r#"<a x="a<b"/>"#).is_err());
    }

    #[test]
    fn depth_limit_enforced() {
        let err = parse_to_events(&"<d>".repeat(MAX_DEPTH + 1)).unwrap_err();
        assert!(matches!(err, XmlError::WellFormedness { .. }), "{err}");
        assert!(err.to_string().contains("limit of 10000"), "{err}");
    }

    #[test]
    fn unicode_content() {
        let evs = events("<a>grüße 💡</a>");
        assert_eq!(evs[2], XmlEvent::Text("grüße 💡".into()));
    }

    #[test]
    fn unicode_element_names() {
        let evs = events("<bücher><büch/></bücher>");
        assert_eq!(evs[1].element_name(), Some("bücher"));
    }

    #[test]
    fn whitespace_in_end_tag() {
        assert_eq!(
            kinds("<a></a  >"),
            vec![
                "start-document",
                "start-element",
                "end-element",
                "end-document"
            ]
        );
    }

    #[test]
    fn large_text_spanning_chunks() {
        let body = "y".repeat(100_000);
        let input = format!("<a>{body}</a>");
        let evs = events(&input);
        assert_eq!(evs[2], XmlEvent::Text(body));
    }

    #[test]
    fn empty_document_is_error() {
        let err = parse_to_events("").unwrap_err();
        assert!(matches!(err, XmlError::UnexpectedEof { .. }));
    }

    /// PIs are checked and dropped; an `xml` target past the document
    /// start is a misplaced declaration, in any case spelling.
    #[test]
    fn pis_dropped_and_xml_target_rejected() {
        let evs = events("<?style a?><a><?target some data?>x</a><?tail?>");
        assert_eq!(
            evs.iter().map(|e| e.kind()).collect::<Vec<_>>(),
            vec![
                "start-document",
                "start-element",
                "text",
                "end-element",
                "end-document"
            ]
        );
        let err = parse_to_events("<a><?XmL version=\"1.0\"?></a>").unwrap_err();
        assert!(
            err.to_string()
                .contains("xml declaration is only allowed at the start of the document"),
            "{err}"
        );
    }

    // ----- closed readers -----

    /// A seed table holding `vocabulary`.
    fn vocabulary(names: &[&str]) -> SymbolTable {
        let mut table = SymbolTable::new();
        for name in names {
            table.intern(name);
        }
        table
    }

    /// Drains a closed reader over `names`: the delivered prefix and the
    /// terminal error, if any.
    fn closed_events(input: &str, names: &[&str]) -> (Vec<XmlEvent>, Option<XmlError>) {
        let seed = vocabulary(names);
        collect_events(&mut XmlReader::closed(
            input.as_bytes(),
            ReaderConfig::default(),
            seed,
        ))
    }

    /// Parses with a closed reader over `names` and re-serialises the
    /// views: the output and the final table size.
    fn closed_round_trip(doc: &str, names: &[&str]) -> (String, usize) {
        use crate::writer::XmlWriter;
        let seed = vocabulary(names);
        let mut reader = XmlReader::closed(doc.as_bytes(), ReaderConfig::default(), seed);
        let mut writer = XmlWriter::new(Vec::new());
        while reader.advance().unwrap() {
            writer
                .write_event_ref(reader.symbols(), &reader.view())
                .unwrap();
        }
        writer.finish().unwrap();
        let out = String::from_utf8(writer.into_inner()).unwrap();
        (out, reader.symbols().len())
    }

    #[test]
    fn bounded_interner_caps_table_and_preserves_output() {
        // 2 pseudo-symbols + `a` and `b`; `c`, `d` and the attribute names
        // overflow to per-event strings.
        let doc = r#"<a><b/><c x="1" y="2">t</c><d><c/></d></a>"#;
        let (out, len) = closed_round_trip(doc, &["a", "b"]);
        assert_eq!(out, r#"<a><b></b><c x="1" y="2">t</c><d><c></c></d></a>"#);
        assert_eq!(len, 4, "a closed table must not grow");
    }

    #[test]
    fn bounded_interner_distinguishes_overflow_names() {
        // Mismatched tags must still be detected when both names overflow.
        let (_, err) = closed_events("<a><b><uno></dos></b></a>", &["a", "b"]);
        let err = err.expect("expected mismatch error");
        assert!(
            err.to_string().contains("expected </uno>, found </dos>"),
            "{err}"
        );
    }

    #[test]
    fn bounded_interner_duplicate_overflow_attrs_rejected() {
        let (_, err) = closed_events(r#"<a zzz="1" zzz="2"/>"#, &["a"]);
        let err = err.expect("expected duplicate error");
        assert!(err.to_string().contains("duplicate attribute"), "{err}");
        let (_, err) = closed_events(r#"<a zzz="1" zzy="2"/>"#, &["a"]);
        assert!(err.is_none(), "distinct overflowed names: {err:?}");
    }

    #[test]
    fn bounded_interner_matches_unbounded_output() {
        let doc = "<root><x1 a=\"v\"><y>text</y></x1><x2/><x1/></root>";
        let (closed, len) = closed_round_trip(doc, &[]);
        assert_eq!(len, 2, "an empty vocabulary stays empty");
        let (open, _) = events_with(doc, ReaderConfig::default());
        let (closed_events, _) = closed_events(doc, &[]);
        assert_eq!(closed_events, open);
        assert!(closed.starts_with("<root><x1 a=\"v\">"), "{closed}");
    }

    // ----- fragment mode -----

    fn fragment_config() -> ReaderConfig {
        ReaderConfig {
            fragment: true,
            ..ReaderConfig::default()
        }
    }

    #[test]
    fn fragment_allows_sibling_roots_and_top_level_text() {
        let (evs, err) = events_with("<a/>between<b/>", fragment_config());
        assert!(err.is_none(), "{err:?}");
        assert_eq!(
            evs.iter().map(|e| e.kind()).collect::<Vec<_>>(),
            vec![
                "start-document",
                "start-element",
                "end-element",
                "text",
                "start-element",
                "end-element",
                "end-document"
            ]
        );
    }

    #[test]
    fn fragment_allows_unmatched_closes_and_leaves_opens() {
        // `</x></y>` close elements opened before the fragment; `<z>` stays
        // open at the end.
        let mut reader = XmlReader::with_config("</x></y><z><w/>".as_bytes(), fragment_config());
        let (evs, err) = collect_events(&mut reader);
        assert!(err.is_none(), "{err:?}");
        assert_eq!(
            evs.iter().map(|e| e.kind()).collect::<Vec<_>>(),
            vec![
                "start-document",
                "end-element",
                "end-element",
                "start-element",
                "start-element",
                "end-element",
                "end-document"
            ]
        );
        let opens: Vec<&str> = reader
            .open_elements()
            .iter()
            .map(|&s| reader.symbols().name(s))
            .collect();
        assert_eq!(opens, vec!["z"], "z is still open at fragment end");
    }

    #[test]
    fn fragment_still_rejects_local_mismatch() {
        let (_, err) = events_with("<a></b>", fragment_config());
        assert!(
            matches!(err, Some(XmlError::WellFormedness { .. })),
            "{err:?}"
        );
    }

    // ----- interned symbols -----

    #[test]
    fn raw_symbols_are_stable_per_name() {
        let doc = "<a><b/><b/><a2/></a>";
        let mut reader = XmlReader::new(doc.as_bytes());
        let mut b_syms = Vec::new();
        while reader.advance().unwrap() {
            let ev = reader.view();
            if ev.kind() == RawEventKind::StartElement && reader.symbols().name(ev.name()) == "b" {
                b_syms.push(ev.name());
            }
        }
        assert_eq!(b_syms.len(), 2);
        assert_eq!(b_syms[0], b_syms[1], "same name, same symbol");
    }

    #[test]
    fn seeded_symbols_are_shared() {
        let mut table = flux_symbols::SymbolTable::new();
        let book = table.intern("book");
        let mut reader =
            XmlReader::with_symbols("<book/>".as_bytes(), ReaderConfig::default(), table);
        let mut seen = None;
        while reader.advance().unwrap() {
            if reader.kind() == RawEventKind::StartElement {
                seen = Some(reader.view().name());
            }
        }
        assert_eq!(seen, Some(book), "stream symbol coincides with seed symbol");
    }

    // ----- borrowed view API -----

    /// Text payloads survive every delivery shape: a borrowed window run,
    /// an entity + CDATA merge, literal whitespace between siblings and a
    /// trailing run. Once exhausted, `advance` keeps returning `false`.
    #[test]
    fn text_runs_borrowed_and_merged_and_exhaustion_is_sticky() {
        let long_run = "literal text without references ".repeat(20);
        let doc = format!(
            "<bib><book year=\"1994\" lang=\"en\">{long_run}</book>\
             <b>a &amp; b<![CDATA[raw <x>]]> tail</b>  <c/>trailer</bib>"
        );
        let mut reader = XmlReader::new(doc.as_bytes());
        let mut texts = Vec::new();
        while reader.advance().unwrap() {
            if reader.kind() == RawEventKind::Text {
                texts.push(reader.view().text().to_string());
            }
        }
        assert_eq!(texts, vec![&long_run, "a & braw <x> tail", "  ", "trailer"]);
        assert!(!reader.advance().unwrap());
        assert!(!reader.advance().unwrap());
    }

    /// A text run larger than the scanner chunk cannot be borrowed; the
    /// fallback path must still deliver it whole.
    #[test]
    fn view_text_run_spanning_refills_falls_back() {
        let body = "z".repeat(100_000);
        let doc = format!("<a>{body}</a>");
        let mut reader = XmlReader::new(doc.as_bytes());
        let mut text = None;
        while reader.advance().unwrap() {
            if reader.kind() == RawEventKind::Text {
                text = Some(reader.view().text().to_string());
            }
        }
        assert_eq!(text.as_deref(), Some(body.as_str()));
    }

    /// Plain children are settled in place: a canonical text-only element
    /// is taken as its bytes, anything else is left for `advance`, and a
    /// hop consumes the element whole. Every tag counts, whichever way.
    #[test]
    fn plain_children_are_settled_in_place() {
        let doc = "<r><a>text</a><a>x &amp; y</a><b><c/>t</b><a/><a>z</a><a x=\"1\"></a></r>";
        let mut reader = XmlReader::new(doc.as_bytes());
        let advance = |reader: &mut XmlReader<&[u8]>, n: usize| {
            for _ in 0..n {
                assert!(reader.advance().unwrap());
            }
        };
        advance(&mut reader, 2); // StartDocument, <r>
        let a = reader.peek_plain().unwrap().expect("plain <a>");
        assert_eq!(reader.symbols().name(a.name), "a");
        assert_eq!(reader.take_plain(a, true), Some(&b"<a>text</a>"[..]));
        let a = reader.peek_plain().unwrap().expect("plain <a>");
        assert_eq!(reader.take_plain(a, true), None, "a reference needs a look");
        advance(&mut reader, 3);
        assert_eq!(
            reader.view().to_xml_event(reader.symbols()).to_string(),
            "</a>"
        );
        let b = reader.peek_plain().unwrap().expect("plain <b>");
        assert_eq!(reader.hop_plain(b).unwrap(), "<c/>t</b>".len() as u64);
        assert!(
            reader.peek_plain().unwrap().is_none(),
            "an empty-element tag"
        );
        advance(&mut reader, 2);
        let a = reader.peek_plain().unwrap().expect("plain <a>");
        assert_eq!(
            reader.take_plain(a, false),
            None,
            "text where none is allowed"
        );
        assert_eq!(reader.take_plain(a, true), Some(&b"<a>z</a>"[..]));
        assert!(reader.peek_plain().unwrap().is_none(), "an attribute");
        advance(&mut reader, 3);
        assert_eq!(reader.kind(), RawEventKind::EndElement);
        assert!(reader.peek_plain().unwrap().is_none(), "epilog");
        let tel = reader.reader_telemetry();
        assert_eq!(
            (tel.start_tags, tel.end_tags),
            (8, 6),
            "<c/> and <a/> end no tag"
        );
    }
}
