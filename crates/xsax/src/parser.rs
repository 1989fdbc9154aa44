//! The XSAX parser: DTD validation + `on-first` event generation.
//!
//! The parser is **symbol-native**: at construction it clones the DTD's
//! [`SymbolTable`] into the underlying [`XmlReader`], so the symbols the
//! reader produces *are* the symbols the DTD's content-model DFAs
//! transition on — no per-event name lookup or re-hashing anywhere. Element
//! declarations and attribute lists are pre-resolved into dense
//! symbol-indexed tables.
//!
//! The one pull API is the **zero-copy step protocol**:
//! [`XsaxParser::next_step`] advances and [`XsaxParser::view`] exposes the
//! delivered event as a borrowed [`RawEventRef`] — payload bytes flow from
//! the source's storage (scanner window or shard tape arena) to the
//! consumer without a copy. Attribute defaults a validating parser must
//! inject are kept in a side list and chained onto the view, so even
//! default injection does not force materialisation. [`trace`] renders the
//! steps as strings for tests and tools.

use crate::error::{Result, XsaxError};
use crate::event::{ChildAction, PastId, PastLabels, Walked, XsaxStep};
use flux_dtd::{AttDefault, Dfa, Dtd, ElementDecl, StateId, Symbol, SymbolTable};
use flux_telemetry::{RunReport, Stage, XsaxCounters};
use flux_xml::{
    EventSource, RawEventKind, RawEventRef, ReaderConfig, XmlEvent, XmlReader, XmlWriter,
};
use std::io::{Read, Write};

/// The symbol table an [`EventSource`] must be seeded with before it can
/// feed [`XsaxParser::from_source`]: the DTD's own table (element names)
/// plus every declared attribute name. Clones preserve indices, so symbols
/// produced by a seeded source *are* the symbols the DTD's content-model
/// DFAs transition on.
pub fn seeded_symbols(dtd: &Dtd) -> SymbolTable {
    let mut symbols = dtd.symbols().clone();
    for decl in dtd.elements() {
        for def in &decl.attlist {
            symbols.intern(&def.name);
        }
    }
    symbols
}

/// The sequential source of a validated run: an [`XmlReader`] over `src`
/// closed at [`seeded_symbols`], so it can feed
/// [`XsaxParser::from_source`] and never grows its interner — a name the
/// DTD does not declare arrives as [`SymbolTable::OVERFLOW`] plus its
/// spelling (rejected here for elements, carried for attributes).
pub fn seeded_reader<R: Read>(src: R, dtd: &Dtd, config: ReaderConfig) -> XmlReader<R> {
    XmlReader::closed(src, config, seeded_symbols(dtd))
}

#[derive(Debug)]
struct Registration {
    labels: PastLabels,
    /// Whether `labels` are past at each state of the registered element's
    /// content automaton — decided once here, so a tracker's check on
    /// every child is one load instead of set lookups.
    past: Vec<bool>,
}

/// Per-instance tracker of one registration.
#[derive(Debug)]
struct Tracker {
    id: PastId,
    fired: bool,
}

struct OpenElement<'d> {
    symbol: Symbol,
    dfa: &'d Dfa,
    state: StateId,
    text_allowed: bool,
    /// Depth of this element (document = 0, root = 1).
    depth: usize,
    /// Where this instance's trackers start on the parser's flat tracker
    /// stack; they run to the next open element's start (or the top).
    trackers: usize,
    /// The content was passed over ([`XsaxParser::skip_element`]), so the
    /// content model is not checked at the end tag.
    skipped: bool,
}

/// The XSAX validating parser. See the crate docs for the event-ordering
/// contract.
///
/// Generic over its [`EventSource`]: the classic constructors wrap a
/// sequential [`XmlReader`], while [`XsaxParser::from_source`] accepts any
/// seeded source — notably `flux_shard::ShardedReader`, whose shards parse
/// in parallel while this parser carries the content-model DFA
/// configuration (the single piece of cross-shard state) across every
/// shard seam, so validation verdicts are exactly the sequential ones.
pub struct XsaxParser<'d, S: EventSource> {
    source: S,
    dtd: &'d Dtd,
    /// The DTD's virtual document automaton, which the root element is
    /// checked against.
    doc_dfa: &'d Dfa,
    registrations: Vec<Registration>,
    /// Dense per-symbol registration lists (`by_element[sym.index()]`),
    /// grown by [`XsaxParser::register_past`]; symbols past the end have
    /// none.
    by_element: Vec<Vec<PastId>>,
    /// Dense per-symbol element declarations (`decls[sym.index()]`);
    /// symbols interned after construction (attribute names, undeclared
    /// element names) fall off the end and resolve to `None`.
    decls: Vec<Option<&'d ElementDecl>>,
    /// Dense per-symbol attribute defaults — `(name, value)` to inject
    /// when the attribute is absent — same indexing as `decls`.
    defaults: Vec<Vec<(Symbol, &'d str)>>,
    stack: Vec<OpenElement<'d>>,
    /// Trackers of every open element instance, outermost first: one flat
    /// stack, truncated when an instance closes.
    trackers: Vec<Tracker>,
    /// Past queries fired at the current stream seam, as `(id, depth)` in
    /// delivery order; `next_fire` is the first one not yet delivered.
    fires: Vec<(PastId, usize)>,
    next_fire: usize,
    /// Set while the *source's current event* is still owed to the
    /// consumer: how many of `fires` are delivered before it. The source
    /// is not advanced again until event and fires are all delivered, so
    /// the borrowed view stays valid across them.
    sax_at: Option<usize>,
    /// Attribute defaults injected for the current start element, chained
    /// onto the view after the literal attributes. Values borrow the DTD.
    injected: Vec<(Symbol, &'d str)>,
    started: bool,
    finished: bool,
    /// Fire counter.
    tel: XsaxCounters,
}

impl<'d, R: Read> XsaxParser<'d, XmlReader<R>> {
    /// Creates a parser over `src` validating against `dtd`, through a
    /// default-configured reader. Whitespace-only text inside
    /// element-content elements ("ignorable whitespace") is dropped.
    ///
    /// Fails when the DTD has no known root element (parse it with
    /// [`Dtd::parse_with_root`] in that case).
    pub fn new(src: R, dtd: &'d Dtd) -> Result<Self> {
        // Close the reader at the DTD's table (plus attlist names): clones
        // preserve indices, so stream symbols coincide with schema symbols
        // and attribute defaults are keyed by symbol too.
        let reader = seeded_reader(src, dtd, ReaderConfig::default());
        Self::from_source(reader, dtd)
    }
}

impl<'d, S: EventSource> XsaxParser<'d, S> {
    /// Wraps an already-seeded event source. `source.symbols()` must have
    /// been seeded with [`seeded_symbols`] (or a clone of it) so stream
    /// symbols coincide with schema symbols — this is how the parallel
    /// `ShardedReader` plugs in: its shards parse in parallel, and this
    /// parser threads the DFA configuration across their seams.
    pub fn from_source(source: S, dtd: &'d Dtd) -> Result<Self> {
        let Some(doc_dfa) = dtd.content_dfa(SymbolTable::DOCUMENT) else {
            return Err(XsaxError::Config {
                message: "the DTD has no unambiguous root element".to_string(),
            });
        };
        let symbols = source.symbols();
        let mut decls: Vec<Option<&'d ElementDecl>> = vec![None; dtd.symbols().len()];
        let mut defaults: Vec<Vec<(Symbol, &'d str)>> = vec![Vec::new(); dtd.symbols().len()];
        for decl in dtd.elements() {
            decls[decl.name.index()] = Some(decl);
            // Guard against unseeded sources: the dense tables below index
            // by schema symbol, which only works when the source's interner
            // agrees with the DTD's on every element name.
            if symbols.lookup(dtd.name(decl.name)) != Some(decl.name) {
                return Err(XsaxError::Config {
                    message: format!(
                        "event source symbols not seeded with element `{}` \
                         (seed the source with flux_xsax::seeded_symbols)",
                        dtd.name(decl.name)
                    ),
                });
            }
        }
        for decl in dtd.elements() {
            for def in &decl.attlist {
                let Some(name) = symbols.lookup(&def.name) else {
                    return Err(XsaxError::Config {
                        message: format!(
                            "event source symbols not seeded with attribute `{}` \
                             (seed the source with flux_xsax::seeded_symbols)",
                            def.name
                        ),
                    });
                };
                if let AttDefault::Default(v) | AttDefault::Fixed(v) = &def.default {
                    defaults[decl.name.index()].push((name, v.as_str()));
                }
            }
        }
        Ok(XsaxParser {
            source,
            dtd,
            doc_dfa,
            registrations: Vec::new(),
            by_element: Vec::new(),
            decls,
            defaults,
            stack: Vec::new(),
            trackers: Vec::new(),
            fires: Vec::new(),
            next_fire: 0,
            sax_at: None,
            injected: Vec::new(),
            started: false,
            finished: false,
            tel: XsaxCounters::default(),
        })
    }

    /// Registers a past query: fire once per `element` instance as soon as
    /// no child with a label in `labels` can occur any more. Must be called
    /// before the first event is pulled.
    pub fn register_past(&mut self, element: Symbol, labels: PastLabels) -> Result<PastId> {
        if self.started {
            return Err(XsaxError::Config {
                message: "register_past called after streaming started".to_string(),
            });
        }
        let id = u32::try_from(self.registrations.len())
            .map(PastId)
            .map_err(|_| XsaxError::Config {
                message: "too many past registrations".to_string(),
            })?;
        if self.by_element.len() <= element.index() {
            self.by_element.resize_with(element.index() + 1, Vec::new);
        }
        self.by_element[element.index()].push(id);
        // An undeclared element never opens, so its trackers never check.
        let past = self.decl_of(element).map_or_else(Vec::new, |decl| {
            (0..decl.dfa.state_count())
                .map(|q| is_past_at(&decl.dfa, decl.text_allowed, &labels, q as StateId))
                .collect()
        });
        self.registrations.push(Registration { labels, past });
        Ok(id)
    }

    /// Number of registered past queries.
    pub fn registration_count(&self) -> usize {
        self.registrations.len()
    }

    /// The shared symbol table (DTD symbols plus names interned from the
    /// stream). Use it to render the symbols in raw events.
    pub fn symbols(&self) -> &SymbolTable {
        self.source.symbols()
    }

    /// Current input position.
    pub fn position(&self) -> flux_xml::Position {
        self.source.position()
    }

    /// Appends the source's telemetry stages (scanner/reader, and the
    /// shard pipeline when the source is sharded) followed by this
    /// parser's own `xsax` stage. `steps` is how many
    /// [`XsaxParser::next_step`] results the consumer has pulled: the
    /// parser counts only the fires among them.
    pub fn report_into(&self, report: &mut RunReport, steps: u64) {
        self.source.report_into(report);
        let mut stage = Stage::new("xsax");
        stage.counter("registrations", self.registrations.len() as u64);
        stage.absorb(self.tel.rows(steps));
        report.stage(stage);
    }

    fn validation(&self, message: impl Into<String>) -> XsaxError {
        XsaxError::Validation {
            message: message.into(),
            pos: self.source.position(),
        }
    }

    /// Fires the trackers of `elem` — the innermost open element, so
    /// its trackers are the top of the flat stack — whose past condition
    /// holds at `elem.state` (or unconditionally with `force`), queueing
    /// the fires.
    // Inlined: most elements have no trackers, so most calls are an
    // empty loop — not worth a call.
    #[inline]
    fn fire_ready(
        registrations: &[Registration],
        trackers: &mut [Tracker],
        elem: &OpenElement<'_>,
        force: bool,
        out: &mut Vec<(PastId, usize)>,
    ) {
        for tracker in &mut trackers[elem.trackers..] {
            if tracker.fired {
                continue;
            }
            let reg = &registrations[tracker.id.index()];
            if force || reg.past[elem.state as usize] {
                tracker.fired = true;
                out.push((tracker.id, elem.depth));
            }
        }
    }

    /// Marks the source's current event as owed to the consumer, after
    /// the fires queued so far.
    fn deliver_sax(&mut self) {
        self.sax_at = Some(self.fires.len());
    }

    /// Pulls the next step of the validated stream — the zero-copy hot
    /// path.
    ///
    /// Returns [`XsaxStep::Sax`] when the next validated event is readable
    /// through [`XsaxParser::view`], [`XsaxStep::Fire`] for a fired past
    /// query, or `None` after `EndDocument` has been delivered. No payload
    /// bytes are copied and no heap is touched: the event stays wherever
    /// the source keeps it (scanner window, tape arena) until the next
    /// step consumes it.
    pub fn next_step(&mut self) -> Result<Option<XsaxStep>> {
        loop {
            if self.sax_at == Some(self.next_fire) {
                self.sax_at = None;
                return Ok(Some(XsaxStep::Sax));
            }
            if let Some(&(id, depth)) = self.fires.get(self.next_fire) {
                self.next_fire += 1;
                // Counted at delivery, so every push site is covered
                // once.
                self.tel.fires += 1;
                return Ok(Some(XsaxStep::Fire { id, depth }));
            }
            if self.finished {
                return Ok(None);
            }
            self.fires.clear();
            self.next_fire = 0;
            self.started = true;
            self.injected.clear();
            if !self.source.advance()? {
                self.finished = true;
                return Ok(None);
            }
            self.dispatch()?;
        }
    }

    /// Passes over the content of the element whose start tag was the
    /// last [`XsaxStep::Sax`]: the next steps are the fires its end tag
    /// releases and the end tag itself. Returns the bytes passed over
    /// ([`EventSource::skip_subtree`]).
    ///
    /// The caller promises that nothing inside is read. Validity is then
    /// not checked inside — the element's own start tag and attributes
    /// were already validated against its parent's content model, and its
    /// end tag still moves the parent's trackers — while the source keeps
    /// checking well-formedness throughout. The element's own trackers are
    /// dropped unfired: with nothing read inside, no handler listens.
    pub fn skip_element(&mut self) -> Result<u64> {
        debug_assert_eq!(self.source.kind(), RawEventKind::StartElement);
        debug_assert!(self.sax_at.is_none(), "the start tag was delivered");
        self.skip_open()
    }

    /// [`XsaxParser::skip_element`] for the innermost open element, whose
    /// start tag the source produced last: its end tag is dispatched on
    /// return.
    fn skip_open(&mut self) -> Result<u64> {
        let Some(elem) = self.stack.last_mut() else {
            return Err(XsaxError::Config {
                message: "skip_element called with no open element".to_string(),
            });
        };
        elem.skipped = true;
        self.trackers.truncate(elem.trackers);
        self.fires.clear();
        self.next_fire = 0;
        self.injected.clear();
        let bytes = self.source.skip_subtree()?;
        self.dispatch()?;
        Ok(bytes)
    }

    /// Walks the children of the innermost open element in place, up to
    /// the next child `actions` delivers (indexed by symbol) or the
    /// element's end tag: a *skip* child is passed over, a *copy* child is
    /// written to `out`, and neither becomes a step. Each child's start
    /// tag steps the element's content automaton exactly as a delivered
    /// one does, and a copied child is validated inside.
    ///
    /// A child the source can read in place ([`EventSource::peek_plain`])
    /// is settled straight from its storage: hopped, or — spelled in the
    /// writer's canonical form and with no attribute default to inject —
    /// copied as its bytes. Anything else is advanced to event by event,
    /// through the same validation a delivered child gets, so errors and
    /// their positions do not depend on which way a child went. The walk
    /// stops with nothing consumed in front of a plain delivered child;
    /// any other event it stops at is dispatched, and the next
    /// [`XsaxParser::next_step`] delivers it.
    ///
    /// Called between steps, with nothing left to deliver, under an
    /// element no tracker watches (its scope registered no past query):
    /// no fire can come due inside the walk. Otherwise it does nothing.
    /// A copy child is one with text-only content and no registration of
    /// its own, or it is delivered.
    pub fn walk<W: Write>(
        &mut self,
        actions: &[ChildAction],
        out: &mut XmlWriter<W>,
    ) -> Result<Walked> {
        let mut walked = Walked::default();
        let idle = self.sax_at.is_none() && self.next_fire == self.fires.len() && !self.finished;
        match self.stack.last() {
            Some(elem) if idle && elem.trackers == self.trackers.len() => {}
            _ => return Ok(walked),
        }
        loop {
            if let Some(tag) = self.source.peek_plain()? {
                let action = self.walk_action(actions, tag.name);
                let Some(elem) = self.stack.last_mut() else {
                    return Ok(walked);
                };
                let next = elem.dfa.transition(elem.state, tag.name);
                match (action, next) {
                    (ChildAction::Deliver, _) => return Ok(walked),
                    (ChildAction::Skip, Some(next)) => {
                        walked.skipped_bytes += self.source.hop_plain(tag)?;
                        walked.skipped_subtrees += 1;
                        elem.state = next;
                        continue;
                    }
                    (ChildAction::Copy, Some(next))
                        if self
                            .defaults
                            .get(tag.name.index())
                            .is_some_and(Vec::is_empty) =>
                    {
                        let text = self.decl_of(tag.name).is_some_and(|d| d.text_allowed);
                        if let Some(span) = self.source.take_plain(tag, text) {
                            out.write_serialized(span).map_err(XsaxError::Output)?;
                            walked.copied_bytes += span.len() as u64;
                            walked.copied_subtrees += 1;
                            if let Some(elem) = self.stack.last_mut() {
                                elem.state = next;
                            }
                            continue;
                        }
                    }
                    // Out of order, or not in canonical form: the event
                    // path below reports or copies it.
                    _ => {}
                }
            }
            self.fires.clear();
            self.next_fire = 0;
            self.injected.clear();
            if !self.source.advance()? {
                self.finished = true;
                return Ok(walked);
            }
            let action = match self.source.kind() {
                RawEventKind::StartElement => {
                    let sym = self.source.view().name();
                    self.walk_action(actions, sym)
                }
                _ => ChildAction::Deliver,
            };
            self.dispatch()?;
            match action {
                ChildAction::Deliver if self.sax_at.is_some() || !self.fires.is_empty() => {
                    return Ok(walked)
                }
                // Ignorable whitespace, dropped.
                ChildAction::Deliver => continue,
                // The start tag passed validation; it is not delivered,
                // and nor are the child's own immediate fires, as
                // `skip_element` drops them.
                ChildAction::Skip => {
                    self.sax_at = None;
                    walked.skipped_bytes += self.skip_open()?;
                    walked.skipped_subtrees += 1;
                }
                ChildAction::Copy => {
                    self.sax_at = None;
                    walked.copied_bytes += self.copy_open(out)?;
                    walked.copied_subtrees += 1;
                }
            }
            // The child's end tag, dispatched: not delivered either.
            self.sax_at = None;
            self.fires.clear();
        }
    }

    /// The walk's action for a child named `sym`: `actions`' entry, with a
    /// child that cannot be settled off the event path — undeclared, or a
    /// copy whose content may hold elements or whose type registered a
    /// past query — delivered.
    fn walk_action(&self, actions: &[ChildAction], sym: Symbol) -> ChildAction {
        let action = actions.get(sym.index()).copied().unwrap_or_default();
        let Some(decl) = self.decl_of(sym) else {
            return ChildAction::Deliver;
        };
        let registered = self
            .by_element
            .get(sym.index())
            .is_some_and(|ids| !ids.is_empty());
        match action {
            ChildAction::Copy if registered || !decl.dfa.alphabet().is_empty() => {
                ChildAction::Deliver
            }
            action => action,
        }
    }

    /// Copies the innermost open element, a text-only one whose start tag
    /// was just dispatched, to `out` event by event — the writer calls a
    /// delivered stream copy makes — and dispatches up to its end tag.
    /// Returns the bytes written.
    fn copy_open<W: Write>(&mut self, out: &mut XmlWriter<W>) -> Result<u64> {
        let before = out.bytes_written();
        out.start_element_view(self.source.symbols(), &self.view())
            .map_err(XsaxError::Output)?;
        loop {
            self.injected.clear();
            if !self.source.advance()? {
                self.finished = true;
                break;
            }
            self.dispatch()?;
            let delivered = self.sax_at.take().is_some();
            let written = match self.source.kind() {
                RawEventKind::Text if delivered => out.text(self.source.view().text()),
                RawEventKind::EndElement => {
                    out.end_element().map_err(XsaxError::Output)?;
                    break;
                }
                _ => Ok(()),
            };
            written.map_err(XsaxError::Output)?;
        }
        Ok(out.bytes_written() - before)
    }

    /// Handles the source's current event: validates it and queues it,
    /// with the fires it releases, for delivery.
    #[inline(always)]
    fn dispatch(&mut self) -> Result<()> {
        // Dispatch on the kind alone: a payload is viewed only by the
        // handler that reads it (see `flux_xml::EventSource`).
        match self.source.kind() {
            RawEventKind::StartDocument => self.deliver_sax(),
            RawEventKind::DoctypeDecl => {
                if let Some(root) = self.dtd.root() {
                    let v = self.source.view();
                    let name = v.target();
                    if self.dtd.lookup(name) != Some(root) {
                        let message = format!(
                            "DOCTYPE names `{name}` but the DTD root is `{}`",
                            self.dtd.name(root)
                        );
                        return Err(self.validation(message));
                    }
                }
                self.deliver_sax();
            }
            RawEventKind::StartElement => self.handle_start()?,
            RawEventKind::EndElement => self.handle_end()?,
            RawEventKind::Text => self.handle_text()?,
            RawEventKind::EndDocument => {
                self.finished = true;
                self.deliver_sax();
            }
        }
        Ok(())
    }

    /// The kind of the event behind the last [`XsaxStep::Sax`], without
    /// building a view: consumers dispatch on it and call
    /// [`XsaxParser::view`] only when they read the payload.
    pub fn kind(&self) -> RawEventKind {
        self.source.kind()
    }

    /// A borrowed view of the event behind the last [`XsaxStep::Sax`]:
    /// the source's current event plus any injected attribute defaults,
    /// valid until the next [`XsaxParser::next_step`].
    pub fn view(&self) -> RawEventRef<'_> {
        self.source.view().with_defaults(&self.injected)
    }

    /// Looks up the pre-resolved declaration for a stream symbol.
    fn decl_of(&self, sym: Symbol) -> Option<&'d ElementDecl> {
        self.decls.get(sym.index()).copied().flatten()
    }

    fn handle_start(&mut self) -> Result<()> {
        let v = self.source.view();
        let sym = v.name();
        let Some(decl) = self.decl_of(sym) else {
            let message = format!(
                "element `{}` is not declared in the DTD",
                v.name_str(self.source.symbols())
            );
            return Err(self.validation(message));
        };

        // Transition the parent's content automaton (the document automaton
        // for the root) and queue parent seam fires, in delivery order
        // (before the start tag).
        if let Some(parent) = self.stack.last_mut() {
            let next = parent.dfa.transition(parent.state, sym).ok_or_else(|| {
                let expected: Vec<String> = parent
                    .dfa
                    .transitions(parent.state)
                    .iter()
                    .map(|&(s, _)| self.dtd.name(s).to_string())
                    .collect();
                XsaxError::Validation {
                    message: format!(
                        "element `{}` not allowed here inside `{}` (expected one of: {})",
                        v.name_str(self.source.symbols()),
                        self.dtd.name(parent.symbol),
                        if expected.is_empty() {
                            "end of element".to_string()
                        } else {
                            expected.join(", ")
                        }
                    ),
                    pos: self.source.position(),
                }
            })?;
            parent.state = next;
            // Fire parent trackers whose guarantee starts at this seam,
            // except those that mention this very child's label (they fire
            // once the child completes).
            for tracker in &mut self.trackers[parent.trackers..] {
                if tracker.fired {
                    continue;
                }
                let reg = &self.registrations[tracker.id.index()];
                let involves_child = || match &reg.labels {
                    PastLabels::All => true,
                    PastLabels::Labels(set) => set.contains(&sym),
                };
                if reg.past[parent.state as usize] && !involves_child() {
                    tracker.fired = true;
                    self.fires.push((tracker.id, parent.depth));
                }
            }
        } else {
            // Root element: validate against the virtual document model.
            let doc_dfa = self.doc_dfa;
            if doc_dfa.transition(doc_dfa.start(), sym).is_none() {
                let message = format!(
                    "root element `{}` does not match the DTD root `{}`",
                    v.name_str(self.source.symbols()),
                    self.dtd.root().map(|r| self.dtd.name(r)).unwrap_or("?")
                );
                return Err(self.validation(message));
            }
        }

        // Declared defaults for absent attributes are chained onto the
        // view after the literal attributes, as a validating parser must:
        // pure symbol equality, no event materialisation.
        for &(name, value) in self
            .defaults
            .get(sym.index())
            .map_or(&[][..], Vec::as_slice)
        {
            if !v.attrs().any(|a| a.name == name) {
                self.injected.push((name, value));
            }
        }

        // Open the element and instantiate its trackers on top of the
        // flat stack.
        let elem = OpenElement {
            symbol: sym,
            dfa: &decl.dfa,
            state: decl.dfa.start(),
            text_allowed: decl.text_allowed,
            depth: self.stack.len() + 1,
            trackers: self.trackers.len(),
            skipped: false,
        };
        if let Some(ids) = self.by_element.get(sym.index()) {
            self.trackers
                .extend(ids.iter().map(|&id| Tracker { id, fired: false }));
        }

        // Delivery order: parent seam fires (already queued), then the
        // start tag, then immediately-past fires of the new element
        // (labels that can never occur in this element).
        self.deliver_sax();
        Self::fire_ready(
            &self.registrations,
            &mut self.trackers,
            &elem,
            false,
            &mut self.fires,
        );

        self.stack.push(elem);
        Ok(())
    }

    fn handle_end(&mut self) -> Result<()> {
        // Document-mode readers and the stitched sharded reader guarantee
        // balance; guard anyway so a misused fragment source yields an
        // error, not a panic.
        let Some(elem) = self.stack.last() else {
            return Err(XsaxError::Validation {
                message: "end tag with no open element (unbalanced event source)".to_string(),
                pos: self.source.position(),
            });
        };
        if !elem.skipped && !elem.dfa.is_accepting(elem.state) {
            let expected: Vec<String> = elem
                .dfa
                .transitions(elem.state)
                .iter()
                .map(|&(s, _)| self.dtd.name(s).to_string())
                .collect();
            return Err(XsaxError::Validation {
                message: format!(
                    "content of `{}` is incomplete (expected one of: {})",
                    self.dtd.name(elem.symbol),
                    expected.join(", ")
                ),
                pos: self.source.position(),
            });
        }

        // Everything is past at the closing tag: fire all remaining trackers
        // before the end event.
        Self::fire_ready(
            &self.registrations,
            &mut self.trackers,
            elem,
            true,
            &mut self.fires,
        );
        self.trackers.truncate(elem.trackers);
        self.stack.pop();

        self.deliver_sax();

        // A completed child may release parent trackers that were deferred
        // because the child's own label was in their set.
        if let Some(parent) = self.stack.last() {
            Self::fire_ready(
                &self.registrations,
                &mut self.trackers,
                parent,
                false,
                &mut self.fires,
            );
        }
        Ok(())
    }

    fn handle_text(&mut self) -> Result<()> {
        let elem = self.stack.last().ok_or_else(|| XsaxError::Validation {
            message: "character data outside the root element (unbalanced event source)"
                .to_string(),
            pos: self.source.position(),
        })?;
        // The payload is read only where it decides something: inside an
        // element-content element. Where text is allowed nothing is viewed.
        if !elem.text_allowed {
            if !self.source.view().is_whitespace_text() {
                return Err(self.validation(format!(
                    "character data is not allowed inside `{}` (element content)",
                    self.dtd.name(elem.symbol)
                )));
            }
            return Ok(());
        }
        self.deliver_sax();
        Ok(())
    }
}

/// Whether `labels` is "past" at `state`: no label in the set can occur on
/// any continuation (text counts as always-possible while the element allows
/// character data).
fn is_past_at(dfa: &Dfa, text_allowed: bool, labels: &PastLabels, state: StateId) -> bool {
    match labels {
        PastLabels::All => false,
        PastLabels::Labels(set) => {
            if set.contains(&SymbolTable::TEXT) && text_allowed {
                return false;
            }
            let still = dfa.still_possible(state);
            set.iter()
                .filter(|&&s| s != SymbolTable::TEXT)
                .all(|s| !still.contains(s))
        }
    }
}

/// Convenience: validates a complete document, returning the number of
/// delivered events.
pub fn validate<R: Read>(src: R, dtd: &Dtd) -> Result<u64> {
    let mut parser = XsaxParser::new(src, dtd)?;
    let mut n = 0;
    while parser.next_step()?.is_some() {
        n += 1;
    }
    Ok(n)
}

/// The owned test oracle: runs a document through XSAX with the given
/// past registrations and renders every step as a string — `<name>` (with
/// ` attr="value"` pairs, injected defaults included), `</name>`, quoted
/// text, `past#N` for a fired registration. Document brackets and the
/// doctype are omitted.
pub fn trace(
    input: &str,
    dtd: &Dtd,
    registrations: &[(Symbol, PastLabels)],
) -> Result<Vec<String>> {
    let mut parser = XsaxParser::new(input.as_bytes(), dtd)?;
    for (sym, labels) in registrations {
        parser.register_past(*sym, labels.clone())?;
    }
    let mut out = Vec::new();
    while let Some(step) = parser.next_step()? {
        match step {
            XsaxStep::Fire { id, .. } => out.push(format!("past#{}", id.0)),
            XsaxStep::Sax => match parser.view().to_xml_event(parser.symbols()) {
                XmlEvent::StartDocument | XmlEvent::EndDocument | XmlEvent::DoctypeDecl { .. } => {}
                other => out.push(other.to_string()),
            },
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flux_dtd::{PAPER_FIG1_DTD, PAPER_WEAK_DTD};

    const FIG1_DOC: &str = "<bib><book><title>T1</title><author>A1</author><author>A2</author><publisher>P</publisher><price>9</price></book></bib>";
    const WEAK_DOC: &str =
        "<bib><book><author>A1</author><title>T1</title><author>A2</author></book></bib>";

    fn fig1() -> Dtd {
        Dtd::parse(PAPER_FIG1_DTD).unwrap()
    }

    fn weak() -> Dtd {
        Dtd::parse(PAPER_WEAK_DTD).unwrap()
    }

    #[test]
    fn validates_conforming_document() {
        let dtd = fig1();
        assert!(validate(FIG1_DOC.as_bytes(), &dtd).is_ok());
    }

    #[test]
    fn rejects_wrong_child_order() {
        let dtd = fig1();
        let doc = "<bib><book><author>A</author><title>T</title><publisher>P</publisher><price>9</price></book></bib>";
        let err = validate(doc.as_bytes(), &dtd).unwrap_err();
        assert!(matches!(err, XsaxError::Validation { .. }), "{err}");
    }

    #[test]
    fn rejects_incomplete_content() {
        let dtd = fig1();
        let doc = "<bib><book><title>T</title><author>A</author></book></bib>";
        let err = validate(doc.as_bytes(), &dtd).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("incomplete"), "{msg}");
    }

    #[test]
    fn rejects_undeclared_element() {
        let dtd = fig1();
        let doc = "<bib><pamphlet/></bib>";
        let err = validate(doc.as_bytes(), &dtd).unwrap_err();
        assert!(err.to_string().contains("not declared"), "{err}");
    }

    #[test]
    fn rejects_wrong_root() {
        let dtd = fig1();
        let err = validate("<book/>".as_bytes(), &dtd).unwrap_err();
        assert!(err.to_string().contains("root"), "{err}");
    }

    #[test]
    fn rejects_text_in_element_content() {
        let dtd = fig1();
        let doc = "<bib>stray text</bib>";
        let err = validate(doc.as_bytes(), &dtd).unwrap_err();
        assert!(err.to_string().contains("character data"), "{err}");
    }

    #[test]
    fn ignorable_whitespace_suppressed() {
        let dtd = fig1();
        let doc = "<bib>\n  <book><title>T</title><author>A</author><publisher>P</publisher><price>9</price></book>\n</bib>";
        let events = trace(doc, &dtd, &[]).unwrap();
        assert!(!events.iter().any(|e| e.contains("\\n")), "{events:?}");
    }

    #[test]
    fn rejects_author_and_editor_together() {
        let dtd = fig1();
        let doc = "<bib><book><title>T</title><author>A</author><editor>E</editor><publisher>P</publisher><price>9</price></book></bib>";
        assert!(validate(doc.as_bytes(), &dtd).is_err());
    }

    #[test]
    fn strong_dtd_past_fires_before_editor_branch() {
        // past(title, author) fires as soon as the first editor arrives:
        // the editor branch excludes authors.
        let dtd = fig1();
        let book = dtd.lookup("book").unwrap();
        let title = dtd.lookup("title").unwrap();
        let author = dtd.lookup("author").unwrap();
        let doc = "<bib><book><title>T</title><editor>E</editor><publisher>P</publisher><price>9</price></book></bib>";
        let events = trace(doc, &dtd, &[(book, PastLabels::labels([title, author]))]).unwrap();
        let fire = events.iter().position(|e| e == "past#0").unwrap();
        let editor_start = events.iter().position(|e| e == "<editor>").unwrap();
        assert!(
            fire < editor_start,
            "past must fire before <editor> is delivered: {events:?}"
        );
    }

    #[test]
    fn strong_dtd_past_fires_after_last_author() {
        // Under Fig. 1, past(title, author) fires when <publisher> opens —
        // before its start event is delivered.
        let dtd = fig1();
        let book = dtd.lookup("book").unwrap();
        let title = dtd.lookup("title").unwrap();
        let author = dtd.lookup("author").unwrap();
        let events = trace(
            FIG1_DOC,
            &dtd,
            &[(book, PastLabels::labels([title, author]))],
        )
        .unwrap();
        let fire = events.iter().position(|e| e == "past#0").unwrap();
        let last_author_end = events.iter().rposition(|e| e == "</author>").unwrap();
        let publisher_start = events.iter().position(|e| e == "<publisher>").unwrap();
        assert!(fire > last_author_end, "{events:?}");
        assert!(fire < publisher_start, "{events:?}");
    }

    #[test]
    fn weak_dtd_past_fires_only_at_close() {
        // (title|author)*: another title/author can always arrive, so the
        // guarantee only holds at </book>.
        let dtd = weak();
        let book = dtd.lookup("book").unwrap();
        let title = dtd.lookup("title").unwrap();
        let author = dtd.lookup("author").unwrap();
        let events = trace(
            WEAK_DOC,
            &dtd,
            &[(book, PastLabels::labels([title, author]))],
        )
        .unwrap();
        let fire = events.iter().position(|e| e == "past#0").unwrap();
        let book_end = events.iter().position(|e| e == "</book>").unwrap();
        assert_eq!(
            fire + 1,
            book_end,
            "fires immediately before </book>: {events:?}"
        );
    }

    #[test]
    fn past_of_impossible_label_fires_at_open() {
        // `publisher` can never occur under the weak DTD's book.
        let dtd = weak();
        let book = dtd.lookup("book").unwrap();
        // An undeclared label: intern it through a second DTD is impossible,
        // so use a label declared elsewhere — `bib` never occurs below book.
        let bib = dtd.lookup("bib").unwrap();
        let events = trace(WEAK_DOC, &dtd, &[(book, PastLabels::labels([bib]))]).unwrap();
        let book_start = events.iter().position(|e| e == "<book>").unwrap();
        assert_eq!(events[book_start + 1], "past#0", "{events:?}");
    }

    #[test]
    fn fires_once_per_instance() {
        let dtd = weak();
        let book = dtd.lookup("book").unwrap();
        let author = dtd.lookup("author").unwrap();
        let doc = "<bib><book><author>A</author></book><book><title>T</title></book><book/></bib>";
        let events = trace(doc, &dtd, &[(book, PastLabels::labels([author]))]).unwrap();
        let fires = events.iter().filter(|e| *e == "past#0").count();
        assert_eq!(fires, 3, "one fire per book: {events:?}");
    }

    #[test]
    fn all_labels_fire_at_close_only() {
        let dtd = fig1();
        let book = dtd.lookup("book").unwrap();
        let events = trace(FIG1_DOC, &dtd, &[(book, PastLabels::All)]).unwrap();
        let fire = events.iter().position(|e| e == "past#0").unwrap();
        let book_end = events.iter().position(|e| e == "</book>").unwrap();
        assert_eq!(fire + 1, book_end, "{events:?}");
    }

    #[test]
    fn multiple_registrations_fire_in_order() {
        let dtd = fig1();
        let book = dtd.lookup("book").unwrap();
        let title = dtd.lookup("title").unwrap();
        let events = trace(
            FIG1_DOC,
            &dtd,
            &[
                (book, PastLabels::labels([title])),
                (book, PastLabels::labels([title])),
            ],
        )
        .unwrap();
        let p0 = events.iter().position(|e| e == "past#0").unwrap();
        let p1 = events.iter().position(|e| e == "past#1").unwrap();
        assert!(p0 < p1, "{events:?}");
        // Both fire after </title> and before <author>.
        let title_end = events.iter().position(|e| e == "</title>").unwrap();
        let author_start = events.iter().position(|e| e == "<author>").unwrap();
        assert!(title_end < p0 && p1 < author_start, "{events:?}");
    }

    #[test]
    fn past_with_own_label_defers_to_child_end() {
        // past({title}) under Fig. 1 (title, ...): when <title> opens the
        // DFA already implies no second title, but the title itself is not
        // yet complete — the fire must come after </title>.
        let dtd = fig1();
        let book = dtd.lookup("book").unwrap();
        let title = dtd.lookup("title").unwrap();
        let events = trace(FIG1_DOC, &dtd, &[(book, PastLabels::labels([title]))]).unwrap();
        let fire = events.iter().position(|e| e == "past#0").unwrap();
        let title_end = events.iter().position(|e| e == "</title>").unwrap();
        assert_eq!(
            fire,
            title_end + 1,
            "fires right after </title>: {events:?}"
        );
    }

    #[test]
    fn text_label_with_mixed_content_fires_at_close() {
        let dtd = Dtd::parse("<!ELEMENT note (#PCDATA)>").unwrap();
        let note = dtd.lookup("note").unwrap();
        let events = trace(
            "<note>some text</note>",
            &dtd,
            &[(note, PastLabels::labels([SymbolTable::TEXT]))],
        )
        .unwrap();
        assert_eq!(events, vec!["<note>", "\"some text\"", "past#0", "</note>"]);
    }

    #[test]
    fn text_label_with_element_content_fires_at_open() {
        let dtd = Dtd::parse("<!ELEMENT a (b*)>\n<!ELEMENT b EMPTY>").unwrap();
        let a = dtd.lookup("a").unwrap();
        let events = trace(
            "<a><b/></a>",
            &dtd,
            &[(a, PastLabels::labels([SymbolTable::TEXT]))],
        )
        .unwrap();
        assert_eq!(events[0], "<a>");
        assert_eq!(events[1], "past#0", "text can never occur: fires at open");
    }

    #[test]
    fn attribute_defaults_injected() {
        let dtd =
            Dtd::parse("<!ELEMENT a EMPTY>\n<!ATTLIST a lang CDATA \"en\" rel CDATA #FIXED \"x\">")
                .unwrap();
        let events = trace("<a/>", &dtd, &[]).unwrap();
        assert_eq!(events, vec![r#"<a lang="en" rel="x">"#, "</a>"]);
    }

    #[test]
    fn explicit_attribute_beats_default() {
        let dtd = Dtd::parse("<!ELEMENT a EMPTY>\n<!ATTLIST a lang CDATA \"en\">").unwrap();
        let events = trace(r#"<a lang="de"/>"#, &dtd, &[]).unwrap();
        assert_eq!(events, vec![r#"<a lang="de">"#, "</a>"]);
    }

    /// Pulls steps up to and including the start tag of `name`.
    fn open<'d>(parser: &mut XsaxParser<'d, XmlReader<&[u8]>>, name: Symbol) {
        while parser.next_step().unwrap().is_some() {
            if parser.kind() == RawEventKind::StartElement && parser.view().name() == name {
                return;
            }
        }
        panic!("no such element");
    }

    #[test]
    fn walk_settles_children_until_a_delivered_one() {
        let dtd = fig1();
        let sym = |name| dtd.lookup(name).unwrap();
        let mut actions = vec![ChildAction::Deliver; dtd.symbols().len()];
        actions[sym("title").index()] = ChildAction::Copy;
        actions[sym("author").index()] = ChildAction::Copy;
        actions[sym("publisher").index()] = ChildAction::Skip;
        let mut parser = XsaxParser::new(FIG1_DOC.as_bytes(), &dtd).unwrap();
        open(&mut parser, sym("book"));
        let mut out = XmlWriter::new(Vec::new());
        let walked = parser.walk(&actions, &mut out).unwrap();
        let copied = "<title>T1</title><author>A1</author><author>A2</author>";
        assert_eq!(out.into_inner(), copied.as_bytes());
        let expected = Walked {
            copied_subtrees: 3,
            copied_bytes: copied.len() as u64,
            skipped_subtrees: 1,
            skipped_bytes: "P</publisher>".len() as u64,
        };
        assert_eq!(walked, expected);
        // The walk stopped in front of `price`, which is delivered as ever
        // and closes the content model.
        let mut rest = Vec::new();
        while parser.next_step().unwrap().is_some() {
            rest.push(parser.view().to_xml_event(parser.symbols()).to_string());
        }
        assert_eq!(rest[..4], ["<price>", "\"9\"", "</price>", "</book>"]);
    }

    #[test]
    fn walk_leaves_watched_elements_alone() {
        let dtd = fig1();
        let book = dtd.lookup("book").unwrap();
        let title = dtd.lookup("title").unwrap();
        let mut actions = vec![ChildAction::Skip; dtd.symbols().len()];
        actions[title.index()] = ChildAction::Copy;
        let mut parser = XsaxParser::new(FIG1_DOC.as_bytes(), &dtd).unwrap();
        parser
            .register_past(book, PastLabels::labels([title]))
            .unwrap();
        open(&mut parser, book);
        let mut out = XmlWriter::new(Vec::new());
        assert_eq!(parser.walk(&actions, &mut out).unwrap(), Walked::default());
        assert!(out.into_inner().is_empty());
    }

    #[test]
    fn register_after_start_rejected() {
        let dtd = weak();
        let book = dtd.lookup("book").unwrap();
        let mut parser = XsaxParser::new(WEAK_DOC.as_bytes(), &dtd).unwrap();
        parser.next_step().unwrap();
        assert!(parser.register_past(book, PastLabels::All).is_err());
    }

    #[test]
    fn doctype_mismatch_rejected() {
        let dtd = fig1();
        let doc = "<!DOCTYPE book><bib></bib>";
        let err = validate(doc.as_bytes(), &dtd).unwrap_err();
        assert!(err.to_string().contains("DOCTYPE"), "{err}");
    }

    #[test]
    fn nested_instances_tracked_independently() {
        // Recursive DTD: section contains sections.
        let dtd = Dtd::parse(
            "<!ELEMENT doc (section)>\n<!ELEMENT section (head, section?, tail?)>\n<!ELEMENT head EMPTY>\n<!ELEMENT tail EMPTY>",
        )
        .unwrap();
        let section = dtd.lookup("section").unwrap();
        let head = dtd.lookup("head").unwrap();
        let doc = "<doc><section><head/><section><head/></section><tail/></section></doc>";
        let events = trace(doc, &dtd, &[(section, PastLabels::labels([head]))]).unwrap();
        let fires = events.iter().filter(|e| *e == "past#0").count();
        assert_eq!(
            fires, 2,
            "inner and outer section each fire once: {events:?}"
        );
        // The first fire (outer section) comes right after the first </head>.
        let first_head_end = events.iter().position(|e| e == "</head>").unwrap();
        assert_eq!(events[first_head_end + 1], "past#0", "{events:?}");
    }
}
