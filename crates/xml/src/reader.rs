//! A streaming, pull-based XML parser.
//!
//! [`XmlReader`] turns a byte stream into a sequence of events without
//! buffering the document: memory use is bounded by the largest single
//! token **plus one interner entry per distinct element/attribute name**.
//! On schema-validated streams the name alphabet is fixed by the DTD, so
//! the bound is schema-sized — which is what makes the FluXQuery runtime's
//! memory guarantees meaningful. Only when parsing arbitrary unvalidated
//! input with unboundedly many *distinct* names does the interner grow with
//! the document (the in-repo consumers of that mode — the DOM and
//! projection baselines — materialise the document anyway).
//!
//! There is one pull API, the borrowed view protocol shared with every
//! other [`crate::EventSource`]: [`XmlReader::advance`] rewrites one
//! recycled [`RawEvent`] in place and [`XmlReader::view`] serves it.
//! Element and attribute names are interned [`Symbol`]s, attribute values
//! land in recycled buffers, UTF-8 is validated in place, and text runs
//! that end inside the scanner window are borrowed from it without a
//! copy. In the steady state (every name interned, buffers grown to the
//! largest token) pulling an event performs **zero heap allocations**.
//! [`parse_to_events`] renders the views as owned [`XmlEvent`]s for tests
//! and tools.
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
use crate::scanner::{Scanner, TagProbe};
use crate::source::collect_events;
use flux_symbols::{Symbol, SymbolTable};
use flux_telemetry::{ReaderCounters, RunReport, ScanCounters, Stage};
use std::io::Read;
use std::sync::Arc;

/// Configuration for [`XmlReader`].
#[derive(Debug, Clone)]
pub struct ReaderConfig {
    /// Emit [`XmlEvent::Comment`] events (default: false — comments are skipped).
    pub emit_comments: bool,
    /// Emit [`XmlEvent::ProcessingInstruction`] events (default: false).
    pub emit_processing_instructions: bool,
    /// Hard limit on element nesting depth, to bound stack growth on
    /// adversarial input.
    pub max_depth: usize,
    /// Cap on the number of distinct names the reader's interner may hold
    /// (bounded-interner mode, default `None` = unbounded). Past the cap,
    /// new names are **not** interned: events carry
    /// [`SymbolTable::OVERFLOW`] plus the literal name in a recycled
    /// buffer (see [`RawEvent::name_str`]). This restores a hard memory
    /// bound when parsing adversarial unvalidated input whose distinct-name
    /// count is unbounded; on schema-validated streams the alphabet is
    /// fixed and the cap is never hit.
    pub max_symbols: Option<usize>,
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
            emit_comments: false,
            emit_processing_instructions: false,
            max_depth: 10_000,
            max_symbols: None,
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
    /// Source position of the first byte of the current event's construct
    /// (set at dispatch, before any of it is consumed).
    event_start: Position,
    /// Interner for element and attribute names. Seed it with
    /// [`XmlReader::with_symbols`] to share symbols with a schema.
    symbols: SymbolTable,
    /// Symbols of currently open elements.
    stack: Vec<Symbol>,
    /// Second half of an empty-element tag, emitted on the next call.
    pending_end: Option<Symbol>,
    /// Scratch buffer reused between tokens (names, raw attribute values,
    /// raw text runs).
    scratch: Vec<u8>,
    /// Second scratch buffer for payloads read while `scratch` content is
    /// still needed (CDATA runs, PI data, overflow attribute names).
    aux: Vec<u8>,
    /// Literal names of open elements whose symbol is
    /// [`SymbolTable::OVERFLOW`] (bounded-interner mode), innermost last.
    overflow_stack: Vec<String>,
    /// Spare overflow-name buffers recycled from closed elements.
    spare_overflow: Vec<String>,
    /// Direct-mapped intern cache for the fast tag path, keyed by the
    /// name's first byte xor its length. A document's working set of
    /// element/attribute names is a handful of schema-fixed strings, so a
    /// length check plus memcmp replaces most hash-map probes. Entries
    /// are valid forever once filled: interning is idempotent and the
    /// table never forgets.
    name_cache: [(Vec<u8>, Symbol); NAME_CACHE_WAYS],
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

/// Ways in the fast path's direct-mapped name-intern cache. Sized for a
/// schema-fixed name alphabet (a DTD's worth of element and attribute
/// names); collisions only cost a fall-through to the hash map.
const NAME_CACHE_WAYS: usize = 32;

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

/// Interns through the fast tag path's direct-mapped name cache (a free
/// function over the two fields involved, so callers holding a scanner
/// borrow can still use it). Never runs in bounded-interner mode, so the
/// cache never has to model overflow.
#[inline]
fn intern_cached(
    cache: &mut [(Vec<u8>, Symbol); NAME_CACHE_WAYS],
    symbols: &mut SymbolTable,
    name: &str,
) -> Symbol {
    let bytes = name.as_bytes();
    debug_assert!(!bytes.is_empty());
    let way = (bytes[0] ^ bytes.len() as u8) as usize % NAME_CACHE_WAYS;
    let slot = &mut cache[way];
    if slot.0 == bytes {
        return slot.1;
    }
    let sym = symbols.intern(name);
    slot.0.clear();
    slot.0.extend_from_slice(bytes);
    slot.1 = sym;
    sym
}

/// Whether `b` can begin an XML name (the reader's classification, shared
/// with the shard splitter, which must agree with the reader on what a
/// start/end tag looks like).
pub fn is_name_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b == b':' || b >= 0x80
}

fn is_name_char(b: u8) -> bool {
    is_name_start(b) || b.is_ascii_digit() || b == b'-' || b == b'.'
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

    /// Creates a reader whose name interner is seeded with `symbols`.
    ///
    /// Cloning a schema's table into the reader makes stream symbols
    /// directly comparable with schema symbols (clones preserve indices);
    /// names not in the seed are interned on first sight.
    pub fn with_symbols(src: R, config: ReaderConfig, symbols: SymbolTable) -> Self {
        let scanner = Scanner::with_window(src, config.window, config.budget.clone());
        XmlReader {
            core: ReaderCore {
                scanner,
                config,
                state: State::Fresh,
                event_start: Position {
                    offset: 0,
                    line: 1,
                    column: 1,
                },
                symbols,
                stack: Vec::new(),
                pending_end: None,
                scratch: Vec::new(),
                aux: Vec::new(),
                overflow_stack: Vec::new(),
                spare_overflow: Vec::new(),
                name_cache: std::array::from_fn(|_| (Vec::new(), SymbolTable::TEXT)),
                borrowed_text: None,
                tel: ReaderCounters::default(),
            },
            current: RawEvent::new(),
        }
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
    /// Tape recorders store it so replay errors stay byte-exact.
    pub fn event_start(&self) -> Position {
        self.core.event_start
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

    /// The kind of the event the last [`XmlReader::advance`] produced,
    /// without building a view.
    pub fn kind(&self) -> RawEventKind {
        self.current.kind()
    }

    /// A borrowed view of the event the last [`XmlReader::advance`]
    /// produced. Payloads borrow the reader's recycled buffers or the
    /// scanner window directly; a window-borrowed text run is re-checked
    /// as UTF-8 on every call (see [`crate::EventSource`]: view once).
    pub fn view(&self) -> RawEventRef<'_> {
        let v = RawEventRef::from_event(&self.current);
        match self.core.borrowed_text {
            Some(range) => v.with_text(
                std::str::from_utf8(self.core.scanner.borrowed(range))
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

    /// A copy of the reader's tag totals and rare-path counters.
    pub fn reader_telemetry(&self) -> ReaderCounters {
        self.core.tel
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
        reader.absorb(self.reader_telemetry().rows());
        report.stage(reader);
    }
}

impl<R: Read> ReaderCore<R> {
    fn syntax(&self, message: impl Into<String>) -> XmlError {
        XmlError::Syntax {
            message: message.into(),
            pos: self.scanner.position(),
        }
    }

    fn wf(&self, message: impl Into<String>) -> XmlError {
        XmlError::WellFormedness {
            message: message.into(),
            pos: self.scanner.position(),
        }
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
            self.skip_bom()?;
            self.maybe_skip_xml_decl()?;
            ev.reset(RawEventKind::StartDocument);
            return Ok(());
        }
        if let Some(name) = self.pending_end.take() {
            // The virtual end tag of `<e/>` is zero-width at the current
            // position.
            self.event_start = self.scanner.position();
            ev.reset(RawEventKind::EndElement);
            ev.set_name(name);
            if name == SymbolTable::OVERFLOW {
                let open = self.overflow_stack.last().expect("overflow name on stack");
                ev.target_mut().push_str(open);
            }
            self.leave_element();
            return Ok(());
        }
        loop {
            match self.state {
                State::Done => return Err(self.syntax("advance called after end of document")),
                State::Prolog | State::Epilog => {
                    self.scanner.skip_whitespace()?;
                    self.event_start = self.scanner.position();
                    match self.scanner.peek()? {
                        None => {
                            if self.state == State::Prolog {
                                return Err(XmlError::UnexpectedEof {
                                    expected: "root element",
                                    pos: self.scanner.position(),
                                });
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
                            return Err(self.wf(if self.state == State::Prolog {
                                "character data before the root element"
                            } else {
                                "character data after the root element"
                            }))
                        }
                    }
                }
                State::InRoot => {
                    self.event_start = self.scanner.position();
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
                            return Err(XmlError::UnexpectedEof {
                                expected: "closing tags for open elements",
                                pos: self.scanner.position(),
                            });
                        }
                        Some(Some(kind)) => {
                            if self.parse_markup(ev, kind)? {
                                return Ok(());
                            }
                        }
                        Some(None) => return self.parse_text(ev),
                    }
                }
                State::Fresh => unreachable!("handled above"),
            }
        }
    }

    fn skip_bom(&mut self) -> Result<()> {
        if self.scanner.looking_at(&[0xEF, 0xBB, 0xBF])? {
            self.scanner.expect_str(&[0xEF, 0xBB, 0xBF], "BOM")?;
        }
        Ok(())
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
    /// Returns `false` when the construct was consumed silently (skipped
    /// comment/PI).
    fn parse_markup(&mut self, ev: &mut RawEvent, kind: Markup) -> Result<bool> {
        match kind {
            Markup::Comment => self.parse_comment(ev),
            // CDATA is text: inside the root it joins the surrounding
            // character-data run (parse_text merges adjacent sections);
            // anywhere else it is a well-formedness error.
            Markup::Cdata if self.state == State::InRoot => {
                self.parse_text(ev)?;
                Ok(true)
            }
            Markup::Cdata => Err(self.wf("CDATA section outside the root element")),
            Markup::Doctype => {
                self.parse_doctype(ev)?;
                Ok(true)
            }
            Markup::Pi => self.parse_pi(ev),
            Markup::End => {
                self.tel.end_tags += 1;
                if !self.try_fast_end_tag(ev)? {
                    self.tel.slow_end_tags += 1;
                    self.parse_end_tag(ev)?;
                }
                Ok(true)
            }
            Markup::Start => {
                self.tel.start_tags += 1;
                if !self.try_fast_start_tag(ev)? {
                    self.tel.slow_start_tags += 1;
                    self.parse_start_tag(ev)?;
                }
                Ok(true)
            }
        }
    }

    fn parse_comment(&mut self, ev: &mut RawEvent) -> Result<bool> {
        self.scanner.expect_str(b"<!--", "comment")?;
        self.scratch.clear();
        self.scanner
            .read_until(b"-->", &mut self.scratch, "end of comment `-->`")?;
        let pos = self.scanner.position();
        let text = std::str::from_utf8(&self.scratch).map_err(|_| XmlError::InvalidUtf8 { pos })?;
        if self.config.emit_comments {
            ev.reset(RawEventKind::Comment);
            ev.text_mut().push_str(text);
            Ok(true)
        } else {
            Ok(false)
        }
    }

    fn parse_pi(&mut self, ev: &mut RawEvent) -> Result<bool> {
        self.scanner.expect_str(b"<?", "processing instruction")?;
        ev.reset(RawEventKind::ProcessingInstruction);
        self.read_name("processing instruction target")?;
        {
            let pos = self.scanner.position();
            let target =
                std::str::from_utf8(&self.scratch).map_err(|_| XmlError::InvalidUtf8 { pos })?;
            ev.target_mut().push_str(target);
        }
        self.scanner.skip_whitespace()?;
        self.aux.clear();
        self.scanner
            .read_until(b"?>", &mut self.aux, "end of processing instruction")?;
        let pos = self.scanner.position();
        let data = std::str::from_utf8(&self.aux).map_err(|_| XmlError::InvalidUtf8 { pos })?;
        if ev.target().eq_ignore_ascii_case("xml") {
            // XML declaration not at document start.
            return Err(self.syntax("xml declaration is only allowed at the start of the document"));
        }
        if self.config.emit_processing_instructions {
            ev.text_mut().push_str(data);
            Ok(true)
        } else {
            Ok(false)
        }
    }

    fn parse_doctype(&mut self, ev: &mut RawEvent) -> Result<()> {
        // Fragments accept a DOCTYPE whenever no element is open locally;
        // the sharded merger enforces the document-level prolog position.
        let ok_here = self.state == State::Prolog
            || (self.config.fragment && self.stack.is_empty() && self.pending_end.is_none());
        if !ok_here {
            return Err(self.wf("DOCTYPE declaration after the root element has started"));
        }
        self.scanner
            .expect_str(b"<!DOCTYPE", "DOCTYPE declaration")?;
        if self.scanner.skip_whitespace()? == 0 {
            return Err(self.syntax("whitespace required after <!DOCTYPE"));
        }
        ev.reset(RawEventKind::DoctypeDecl);
        self.read_name("doctype root name")?;
        {
            let pos = self.scanner.position();
            let name =
                std::str::from_utf8(&self.scratch).map_err(|_| XmlError::InvalidUtf8 { pos })?;
            ev.target_mut().push_str(name);
        }
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
            let pos = self.scanner.position();
            let subset =
                std::str::from_utf8(&self.aux).map_err(|_| XmlError::InvalidUtf8 { pos })?;
            ev.text_mut().push_str(subset);
            ev.set_has_internal_subset(true);
        }
        self.scanner.skip_whitespace()?;
        self.scanner
            .expect_byte(b'>', "`>` closing the DOCTYPE declaration")?;
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
                .ok_or_else(|| XmlError::UnexpectedEof {
                    expected: "`]` closing the internal DTD subset",
                    pos: self.scanner.position(),
                })?;
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
            _ => return Err(self.syntax(format!("expected quoted {what}"))),
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
            Some(_) => return Err(self.syntax(format!("invalid {what}"))),
            None => {
                return Err(XmlError::UnexpectedEof {
                    expected: what,
                    pos: self.scanner.position(),
                })
            }
        }
        self.scratch.clear();
        self.scanner.read_while(is_name_char, &mut self.scratch)
    }

    /// Reads a name token and interns it — no allocation once the name has
    /// been seen before. In bounded-interner mode a new name past the cap
    /// yields [`SymbolTable::OVERFLOW`]; the literal name stays in
    /// `self.scratch` for the caller to carry out of band.
    fn intern_name(&mut self, what: &'static str) -> Result<Symbol> {
        self.read_name(what)?;
        let pos = self.scanner.position();
        let name = std::str::from_utf8(&self.scratch).map_err(|_| XmlError::InvalidUtf8 { pos })?;
        Ok(match self.config.max_symbols {
            None => self.symbols.intern(name),
            Some(cap) => self.symbols.intern_bounded(name, cap),
        })
    }

    /// The name in `self.scratch` as UTF-8 (already validated by
    /// [`ReaderCore::intern_name`]).
    fn scratch_name(&self) -> &str {
        std::str::from_utf8(&self.scratch).expect("scratch validated by intern_name")
    }

    /// Locates the `>` closing the markup at the current `<`, growing the
    /// window as needed, and reports whether the probe flagged dirty
    /// content (stray `<` or `&` inside the tag). `None` means the input
    /// ends first — the byte-at-a-time path takes over and reports the
    /// exact error.
    fn locate_tag_end(&mut self) -> Result<Option<(usize, bool)>> {
        loop {
            if let TagProbe::Found { rel_end, dirty } = self.scanner.probe_tag() {
                return Ok(Some((rel_end, dirty)));
            }
            if !self.scanner.fill_more()? {
                return Ok(None);
            }
        }
    }

    /// Attempts to parse the start tag at the current `<` entirely from
    /// the prescanned window: the quote-parity walk finds the closing
    /// `>`, the whole tag is validated from the slice, and only then is
    /// it consumed in a single span. Returns `Ok(false)` with the scanner
    /// untouched on *any* anomaly — malformed syntax, `&` or stray `<`
    /// inside the tag, a duplicate attribute, invalid UTF-8, the bounded
    /// interner, the epilog state — so the byte-at-a-time path re-parses
    /// and produces byte-identical events and error positions.
    fn try_fast_start_tag(&mut self, ev: &mut RawEvent) -> Result<bool> {
        if self.state == State::Epilog || self.config.max_symbols.is_some() {
            return Ok(false);
        }
        // `dirty` — a `&` anywhere in the tag (a value needing unescaping)
        // or a `<` after the opening one (a well-formedness error) — comes
        // straight from the probe's lanes, so the value loop below never
        // has to inspect value bytes at all.
        let Some((end, dirty)) = self.locate_tag_end()? else {
            return Ok(false);
        };
        if dirty {
            return Ok(false);
        }
        let Ok(tag) = std::str::from_utf8(&self.scanner.window()[..end + 1]) else {
            return Ok(false);
        };
        let bytes = tag.as_bytes();
        let mut i = 1;
        if i >= end || !is_name_start(bytes[i]) {
            return Ok(false);
        }
        let name_start = i;
        while i < end && is_name_char(bytes[i]) {
            i += 1;
        }
        let name = intern_cached(&mut self.name_cache, &mut self.symbols, &tag[name_start..i]);
        ev.reset(RawEventKind::StartElement);
        ev.set_name(name);
        let mut empty = false;
        loop {
            let ws_start = i;
            while i < end && matches!(bytes[i], b' ' | b'\t' | b'\r' | b'\n') {
                i += 1;
            }
            if i == end {
                break;
            }
            if bytes[i] == b'/' {
                if i + 1 != end {
                    return Ok(false);
                }
                empty = true;
                break;
            }
            if i == ws_start || !is_name_start(bytes[i]) {
                // Attribute without preceding whitespace, or junk: the
                // slow path reports the precise syntax error.
                return Ok(false);
            }
            let an_start = i;
            while i < end && is_name_char(bytes[i]) {
                i += 1;
            }
            let attr_name =
                intern_cached(&mut self.name_cache, &mut self.symbols, &tag[an_start..i]);
            while i < end && matches!(bytes[i], b' ' | b'\t' | b'\r' | b'\n') {
                i += 1;
            }
            if i >= end || bytes[i] != b'=' {
                return Ok(false);
            }
            i += 1;
            while i < end && matches!(bytes[i], b' ' | b'\t' | b'\r' | b'\n') {
                i += 1;
            }
            if i >= end || !matches!(bytes[i], b'"' | b'\'') {
                return Ok(false);
            }
            let quote = bytes[i];
            i += 1;
            let v_start = i;
            // The closing quote is the only byte that matters: `<` and
            // `&` were ruled out tag-wide above, and a quoted `>` cannot
            // reach here because `end` already honours quote parity.
            let Some(v_len) = crate::scan::find_byte(&bytes[v_start..end], quote) else {
                return Ok(false);
            };
            i = v_start + v_len + 1;
            ev.push_attr(attr_name)
                .push_str(&tag[v_start..v_start + v_len]);
            let (new, before) = ev.attributes().split_last().expect("attribute just pushed");
            if before.iter().any(|a| a.name == new.name) {
                return Ok(false);
            }
        }
        self.scanner.consume(end + 1);
        self.enter_element(name, "")?;
        if empty {
            self.pending_end = Some(name);
        }
        Ok(true)
    }

    /// The end-tag counterpart of [`ReaderCore::try_fast_start_tag`]:
    /// validates `</name >` wholly from the window slice, then consumes
    /// it in one span. Stack matching runs *after* the consume, mirroring
    /// the slow path's order so mismatch errors carry identical positions.
    fn try_fast_end_tag(&mut self, ev: &mut RawEvent) -> Result<bool> {
        if self.config.max_symbols.is_some() {
            return Ok(false);
        }
        let Some((end, dirty)) = self.locate_tag_end()? else {
            return Ok(false);
        };
        if dirty {
            return Ok(false);
        }
        let Ok(tag) = std::str::from_utf8(&self.scanner.window()[..end + 1]) else {
            return Ok(false);
        };
        let bytes = tag.as_bytes();
        debug_assert!(bytes.starts_with(b"</"));
        let mut i = 2;
        if i >= end || !is_name_start(bytes[i]) {
            return Ok(false);
        }
        let name_start = i;
        while i < end && is_name_char(bytes[i]) {
            i += 1;
        }
        let name_end = i;
        while i < end && matches!(bytes[i], b' ' | b'\t' | b'\r' | b'\n') {
            i += 1;
        }
        if i != end {
            return Ok(false);
        }
        // The overwhelmingly common end tag closes the innermost open
        // element: a byte comparison against its known name replaces the
        // hash lookup entirely. Anything else (mismatch, fragment close)
        // interns normally.
        let name = match self.stack.last() {
            Some(&open) if self.symbols.name(open).as_bytes() == &bytes[name_start..name_end] => {
                open
            }
            _ => self.symbols.intern(&tag[name_start..name_end]),
        };
        self.scanner.consume(end + 1);
        match self.stack.last() {
            Some(&open) if open == name => {
                ev.reset(RawEventKind::EndElement);
                ev.set_name(name);
                self.leave_element();
                Ok(true)
            }
            Some(&open) => {
                let message = format!(
                    "mismatched end tag: expected </{}>, found </{}>",
                    self.symbols.name(open),
                    self.symbols.name(name)
                );
                Err(self.wf(message))
            }
            None if self.config.fragment => {
                // Closes an element opened before this fragment; the
                // merger verifies the name against the previous shard.
                ev.reset(RawEventKind::EndElement);
                ev.set_name(name);
                Ok(true)
            }
            None => {
                let message = format!(
                    "end tag </{}> with no open element",
                    self.symbols.name(name)
                );
                Err(self.wf(message))
            }
        }
    }

    fn parse_start_tag(&mut self, ev: &mut RawEvent) -> Result<()> {
        if self.state == State::Epilog {
            return Err(self.wf("multiple root elements"));
        }
        self.scanner.expect_byte(b'<', "`<`")?;
        let name = self.intern_name("element name")?;
        ev.reset(RawEventKind::StartElement);
        ev.set_name(name);
        if name == SymbolTable::OVERFLOW {
            // Bounded-interner overflow: the literal name rides in the
            // event's target buffer and on the overflow stack.
            ev.target_mut().push_str(self.scratch_name());
        }
        loop {
            let had_ws = self.scanner.skip_whitespace()? > 0;
            match self.scanner.peek()? {
                Some(b'>') => {
                    self.scanner.next_byte()?;
                    self.enter_element(name, ev.target())?;
                    return Ok(());
                }
                Some(b'/') => {
                    self.scanner.next_byte()?;
                    self.scanner
                        .expect_byte(b'>', "`>` after `/` in empty-element tag")?;
                    self.enter_element(name, ev.target())?;
                    self.pending_end = Some(name);
                    return Ok(());
                }
                Some(b) if is_name_start(b) => {
                    if !had_ws {
                        return Err(self.syntax("whitespace required before attribute"));
                    }
                    let attr_name = self.intern_name("attribute name")?;
                    if attr_name == SymbolTable::OVERFLOW {
                        // `scratch` is about to be reused for the value;
                        // park the literal attribute name in `aux`.
                        self.aux.clear();
                        self.aux.extend_from_slice(&self.scratch);
                    }
                    self.scanner.skip_whitespace()?;
                    self.scanner.expect_byte(b'=', "`=` after attribute name")?;
                    self.scanner.skip_whitespace()?;
                    self.read_attr_value_raw()?;
                    let pos = self.scanner.position();
                    let raw = std::str::from_utf8(&self.scratch)
                        .map_err(|_| XmlError::InvalidUtf8 { pos })?;
                    if raw.contains('<') {
                        return Err(XmlError::WellFormedness {
                            message: "`<` is not allowed in attribute values".to_string(),
                            pos,
                        });
                    }
                    let slot = if attr_name == SymbolTable::OVERFLOW {
                        let parked = std::str::from_utf8(&self.aux)
                            .map_err(|_| XmlError::InvalidUtf8 { pos })?;
                        ev.push_attr_named(parked)
                    } else {
                        ev.push_attr(attr_name)
                    };
                    unescape_into(raw, pos, slot)?;
                    let live = ev.attributes();
                    let (new, before) = live.split_last().expect("attribute just pushed");
                    let duplicate = before.iter().any(|a| {
                        a.name == new.name
                            && (new.name != SymbolTable::OVERFLOW
                                || a.overflow_name == new.overflow_name)
                    });
                    if duplicate {
                        let rendered = new.name_str(&self.symbols).to_string();
                        return Err(self.wf(format!("duplicate attribute `{rendered}`")));
                    }
                }
                Some(_) => return Err(self.syntax("malformed start tag")),
                None => {
                    return Err(XmlError::UnexpectedEof {
                        expected: "`>` closing the start tag",
                        pos: self.scanner.position(),
                    })
                }
            }
        }
    }

    /// Reads a quoted attribute value's raw (still-escaped) bytes into
    /// `self.scratch`, consuming both quotes.
    fn read_attr_value_raw(&mut self) -> Result<()> {
        let quote = match self.scanner.peek()? {
            Some(q @ (b'"' | b'\'')) => q,
            Some(_) => return Err(self.syntax("attribute value must be quoted")),
            None => {
                return Err(XmlError::UnexpectedEof {
                    expected: "attribute value",
                    pos: self.scanner.position(),
                })
            }
        };
        self.scanner.next_byte()?;
        self.scratch.clear();
        let delim = [quote];
        self.scanner
            .read_until(&delim, &mut self.scratch, "closing attribute quote")
    }

    fn parse_end_tag(&mut self, ev: &mut RawEvent) -> Result<()> {
        self.scanner.expect_str(b"</", "end tag")?;
        let name = self.intern_name("element name in end tag")?;
        self.scanner.skip_whitespace()?;
        self.scanner.expect_byte(b'>', "`>` closing the end tag")?;
        let matches_open = match self.stack.last() {
            // Two overflow names match only if the literal names agree.
            Some(&open) if open == name => {
                name != SymbolTable::OVERFLOW
                    || self.overflow_stack.last().map(String::as_str) == Some(self.scratch_name())
            }
            Some(_) => false,
            None if self.config.fragment => {
                // Closes an element opened before this fragment; the merger
                // verifies the name against the previous shard's stack.
                ev.reset(RawEventKind::EndElement);
                ev.set_name(name);
                if name == SymbolTable::OVERFLOW {
                    ev.target_mut().push_str(self.scratch_name());
                }
                return Ok(());
            }
            None => {
                return Err(self.wf(format!(
                    "end tag </{}> with no open element",
                    self.scratch_name()
                )))
            }
        };
        if !matches_open {
            let open = *self.stack.last().expect("checked above");
            let open_name = if open == SymbolTable::OVERFLOW {
                self.overflow_stack.last().expect("overflow name on stack")
            } else {
                self.symbols.name(open)
            };
            return Err(self.wf(format!(
                "mismatched end tag: expected </{}>, found </{}>",
                open_name,
                self.scratch_name()
            )));
        }
        ev.reset(RawEventKind::EndElement);
        ev.set_name(name);
        if name == SymbolTable::OVERFLOW {
            ev.target_mut().push_str(self.scratch_name());
        }
        self.leave_element();
        Ok(())
    }

    fn enter_element(&mut self, name: Symbol, overflow_name: &str) -> Result<()> {
        if self.stack.len() >= self.config.max_depth {
            return Err(self.wf(format!(
                "element nesting deeper than the configured limit of {}",
                self.config.max_depth
            )));
        }
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

    fn leave_element(&mut self) {
        if self.stack.pop() == Some(SymbolTable::OVERFLOW) {
            let mut owned = self.overflow_stack.pop().expect("overflow name on stack");
            owned.clear();
            self.spare_overflow.push(owned);
        }
        if self.stack.is_empty() && self.state == State::InRoot && !self.config.fragment {
            self.state = State::Epilog;
        }
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
    fn parse_text(&mut self, ev: &mut RawEvent) -> Result<()> {
        ev.reset(RawEventKind::Text);
        let run_start_abs = self.scanner.position().offset;
        // Lookahead 9 = b"<![CDATA[".len(): the CDATA probe below must
        // not refill (a refill would move the borrowed bytes).
        if let Some(range) = self.scanner.borrow_run(b'<', 9)? {
            let pos = self.scanner.position();
            // The prescan's `&` lane answers the reference probe
            // without re-reading the run (UTF-8 still needs one pass).
            let has_references = self.scanner.amp_between(run_start_abs, pos.offset);
            std::str::from_utf8(self.scanner.borrowed(range))
                .map_err(|_| XmlError::InvalidUtf8 { pos })?;
            if has_references {
                // Entity references force materialisation; unescape
                // into the recycled buffer and continue the owned loop
                // (more segments may follow).
                self.tel.entity_unescapes += 1;
                ev.set_text_synthetic(true);
                let raw =
                    std::str::from_utf8(self.scanner.borrowed(range)).expect("validated above");
                unescape_into(raw, pos, ev.text_mut())?;
            } else if self.scanner.looking_at(b"<![CDATA[")? {
                // A CDATA section merges into this run: spill the
                // borrowed prefix and continue the owned loop.
                let raw =
                    std::str::from_utf8(self.scanner.borrowed(range)).expect("validated above");
                ev.text_mut().push_str(raw);
            } else if self.scanner.peek()?.is_none() && !self.config.fragment {
                return Err(XmlError::UnexpectedEof {
                    expected: "closing tags for open elements",
                    pos: self.scanner.position(),
                });
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
                        let pos = self.scanner.position();
                        let chunk = std::str::from_utf8(&self.aux)
                            .map_err(|_| XmlError::InvalidUtf8 { pos })?;
                        ev.text_mut().push_str(chunk);
                        ev.set_text_synthetic(true);
                    } else {
                        break;
                    }
                }
                Some(_) => {
                    self.scratch.clear();
                    self.scanner.read_until_byte(b'<', &mut self.scratch)?;
                    let pos = self.scanner.position();
                    let raw = std::str::from_utf8(&self.scratch)
                        .map_err(|_| XmlError::InvalidUtf8 { pos })?;
                    self.tel.copied_text_runs += 1;
                    if raw.contains('&') {
                        self.tel.entity_unescapes += 1;
                        ev.set_text_synthetic(true);
                    }
                    unescape_into(raw, pos, ev.text_mut())?;
                }
                None => {
                    if self.config.fragment {
                        // A fragment may end right after a text run (the
                        // next chunk starts at a tag), so this run is
                        // complete: deliver it.
                        return Ok(());
                    }
                    return Err(XmlError::UnexpectedEof {
                        expected: "closing tags for open elements",
                        pos: self.scanner.position(),
                    });
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
    fn comments_emitted_when_configured() {
        let (evs, err) = events_with(
            "<a><!--c--></a>",
            ReaderConfig {
                emit_comments: true,
                ..ReaderConfig::default()
            },
        );
        assert!(err.is_none(), "{err:?}");
        assert_eq!(evs[2], XmlEvent::Comment("c".into()));
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
        let (_, err) = events_with(
            &"<d>".repeat(50),
            ReaderConfig {
                max_depth: 10,
                ..ReaderConfig::default()
            },
        );
        assert!(matches!(err, Some(XmlError::WellFormedness { .. })));
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

    #[test]
    fn pi_emitted_when_configured() {
        let (evs, err) = events_with(
            "<a><?target some data?></a>",
            ReaderConfig {
                emit_processing_instructions: true,
                ..ReaderConfig::default()
            },
        );
        assert!(err.is_none(), "{err:?}");
        assert_eq!(
            evs[2],
            XmlEvent::ProcessingInstruction {
                target: "target".into(),
                data: "some data".into()
            }
        );
    }

    // ----- bounded-interner mode -----

    /// Parses with a symbol cap and re-serialises the views, checking output identity and that the table stayed capped.
    fn bounded_round_trip(doc: &str, cap: usize) -> (String, usize) {
        use crate::writer::XmlWriter;
        let mut reader = XmlReader::with_config(
            doc.as_bytes(),
            ReaderConfig {
                max_symbols: Some(cap),
                ..ReaderConfig::default()
            },
        );
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
        // 2 pseudo-symbols + cap 4 ⇒ only `a` and `b` intern; `c`, `d` and
        // the attribute names overflow to per-event strings.
        let doc = r#"<a><b/><c x="1" y="2">t</c><d><c/></d></a>"#;
        let (out, len) = bounded_round_trip(doc, 4);
        assert_eq!(out, r#"<a><b></b><c x="1" y="2">t</c><d><c></c></d></a>"#);
        assert_eq!(len, 4, "table must not grow past the cap");
    }

    #[test]
    fn bounded_interner_distinguishes_overflow_names() {
        // Mismatched tags must still be detected when both names overflow.
        let (_, err) = events_with(
            "<a><b><uno></dos></b></a>",
            ReaderConfig {
                max_symbols: Some(4),
                ..ReaderConfig::default()
            },
        );
        let err = err.expect("expected mismatch error");
        assert!(
            err.to_string().contains("expected </uno>, found </dos>"),
            "{err}"
        );
    }

    #[test]
    fn bounded_interner_duplicate_overflow_attrs_rejected() {
        let (_, err) = events_with(
            r#"<a zzz="1" zzz="2"/>"#,
            ReaderConfig {
                max_symbols: Some(3),
                ..ReaderConfig::default()
            },
        );
        let err = err.expect("expected duplicate error");
        assert!(err.to_string().contains("duplicate attribute"), "{err}");
    }

    #[test]
    fn bounded_interner_matches_unbounded_output() {
        let doc = "<root><x1 a=\"v\"><y>text</y></x1><x2/><x1/></root>";
        let (bounded, _) = bounded_round_trip(doc, 2);
        let (unbounded, _) = bounded_round_trip(doc, usize::MAX);
        assert_eq!(bounded, unbounded);
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
}
