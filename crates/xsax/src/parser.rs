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
use crate::event::{PastId, PastLabels, XsaxStep};
use flux_dtd::{AttDefault, Dfa, Dtd, ElementDecl, StateId, Symbol, SymbolTable};
use flux_telemetry::{RunReport, Stage, XsaxCounters};
use flux_xml::{EventSource, RawEventKind, RawEventRef, ReaderConfig, XmlEvent, XmlReader};
use std::io::Read;

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
/// whose interner is seeded with [`seeded_symbols`], so it can feed
/// [`XsaxParser::from_source`].
pub fn seeded_reader<R: Read>(src: R, dtd: &Dtd, config: ReaderConfig) -> XmlReader<R> {
    XmlReader::with_symbols(src, config, seeded_symbols(dtd))
}

/// Configuration for [`XsaxParser`].
#[derive(Debug, Clone)]
pub struct XsaxConfig {
    /// Reject attributes that are not declared in an `ATTLIST` and require
    /// `#REQUIRED` attributes to be present. Defaults to `false`.
    pub strict_attributes: bool,
    /// Drop whitespace-only text between children of element-content
    /// elements ("ignorable whitespace"). Defaults to `true`.
    pub suppress_ignorable_whitespace: bool,
    /// Configuration of the underlying reader (window, budget, interner
    /// cap, …), used by the constructors that build one. The schema
    /// vocabulary is always pre-seeded, so on valid input
    /// [`ReaderConfig::max_symbols`] only affects undeclared names — which
    /// travel by literal spelling and never change validation verdicts or
    /// query output.
    pub reader: ReaderConfig,
}

impl Default for XsaxConfig {
    fn default() -> Self {
        XsaxConfig {
            strict_attributes: false,
            suppress_ignorable_whitespace: true,
            reader: ReaderConfig::default(),
        }
    }
}

#[derive(Debug)]
struct Registration {
    /// Element type the query is registered on (kept for diagnostics).
    #[allow(dead_code)]
    element: Symbol,
    labels: PastLabels,
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
}

/// One pre-resolved `ATTLIST` entry: interned name, requiredness, and the
/// default value to inject when the attribute is absent.
struct AttPlan<'d> {
    name: Symbol,
    required: bool,
    default: Option<&'d str>,
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
    config: XsaxConfig,
    registrations: Vec<Registration>,
    /// Dense per-symbol registration lists (`by_element[sym.index()]`),
    /// grown by [`XsaxParser::register_past`]; symbols past the end have
    /// none.
    by_element: Vec<Vec<PastId>>,
    /// Dense per-symbol element declarations (`decls[sym.index()]`);
    /// symbols interned after construction (attribute names, undeclared
    /// element names) fall off the end and resolve to `None`.
    decls: Vec<Option<&'d ElementDecl>>,
    /// Dense per-symbol attribute plans, same indexing as `decls`.
    atts: Vec<Vec<AttPlan<'d>>>,
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
    /// Creates a parser over `src` validating against `dtd`.
    ///
    /// Fails when the DTD has no known root element (parse it with
    /// [`Dtd::parse_with_root`] in that case).
    pub fn new(src: R, dtd: &'d Dtd) -> Result<Self> {
        Self::with_config(src, dtd, XsaxConfig::default())
    }

    pub fn with_config(src: R, dtd: &'d Dtd, config: XsaxConfig) -> Result<Self> {
        // Seed the reader's interner with the DTD's table (plus attlist
        // names): clones preserve indices, so stream symbols coincide with
        // schema symbols and attribute validation is symbol equality too.
        let reader = seeded_reader(src, dtd, config.reader.clone());
        Self::from_source(reader, dtd, config)
    }
}

impl<'d, S: EventSource> XsaxParser<'d, S> {
    /// Wraps an already-seeded event source. `source.symbols()` must have
    /// been seeded with [`seeded_symbols`] (or a clone of it) so stream
    /// symbols coincide with schema symbols — this is how the parallel
    /// `ShardedReader` plugs in: its shards parse in parallel, and this
    /// parser threads the DFA configuration across their seams.
    pub fn from_source(source: S, dtd: &'d Dtd, config: XsaxConfig) -> Result<Self> {
        if dtd.content_dfa(SymbolTable::DOCUMENT).is_none() {
            return Err(XsaxError::Config {
                message: "the DTD has no unambiguous root element".to_string(),
            });
        }
        let symbols = source.symbols();
        let mut decls: Vec<Option<&'d ElementDecl>> = vec![None; dtd.symbols().len()];
        let mut atts: Vec<Vec<AttPlan<'d>>> = Vec::new();
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
            let plans: Result<Vec<AttPlan<'d>>> = decl
                .attlist
                .iter()
                .map(|def| {
                    Ok(AttPlan {
                        name: symbols.lookup(&def.name).ok_or_else(|| XsaxError::Config {
                            message: format!(
                                "event source symbols not seeded with attribute `{}` \
                                 (seed the source with flux_xsax::seeded_symbols)",
                                def.name
                            ),
                        })?,
                        required: matches!(def.default, AttDefault::Required),
                        default: match &def.default {
                            AttDefault::Default(v) | AttDefault::Fixed(v) => Some(v.as_str()),
                            _ => None,
                        },
                    })
                })
                .collect();
            if atts.len() <= decl.name.index() {
                atts.resize_with(decl.name.index() + 1, Vec::new);
            }
            atts[decl.name.index()] = plans?;
        }
        Ok(XsaxParser {
            source,
            dtd,
            config,
            registrations: Vec::new(),
            by_element: Vec::new(),
            decls,
            atts,
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
        let id = PastId(u32::try_from(self.registrations.len()).expect("too many registrations"));
        if self.by_element.len() <= element.index() {
            self.by_element.resize_with(element.index() + 1, Vec::new);
        }
        self.by_element[element.index()].push(id);
        self.registrations.push(Registration { element, labels });
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
            if force || is_past_at(elem.dfa, elem.text_allowed, &reg.labels, elem.state) {
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
                RawEventKind::Comment | RawEventKind::ProcessingInstruction => {}
                RawEventKind::EndDocument => {
                    self.finished = true;
                    self.deliver_sax();
                }
            }
        }
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
                let involves_child = match &reg.labels {
                    PastLabels::All => true,
                    PastLabels::Labels(set) => set.contains(&sym),
                };
                if !involves_child
                    && is_past_at(parent.dfa, parent.text_allowed, &reg.labels, parent.state)
                {
                    tracker.fired = true;
                    self.fires.push((tracker.id, parent.depth));
                }
            }
        } else {
            // Root element: validate against the virtual document model.
            let doc_dfa = self
                .dtd
                .content_dfa(SymbolTable::DOCUMENT)
                .expect("checked in constructor");
            if doc_dfa.transition(doc_dfa.start(), sym).is_none() {
                let message = format!(
                    "root element `{}` does not match the DTD root `{}`",
                    v.name_str(self.source.symbols()),
                    self.dtd.root().map(|r| self.dtd.name(r)).unwrap_or("?")
                );
                return Err(self.validation(message));
            }
        }

        let plans = self.atts.get(sym.index()).map(Vec::as_slice).unwrap_or(&[]);
        Self::validate_attributes(
            &v,
            plans,
            self.config.strict_attributes,
            &self.source,
            &mut self.injected,
        )?;

        // Open the element and instantiate its trackers on top of the
        // flat stack.
        let elem = OpenElement {
            symbol: sym,
            dfa: &decl.dfa,
            state: decl.dfa.start(),
            text_allowed: decl.text_allowed,
            depth: self.stack.len() + 1,
            trackers: self.trackers.len(),
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
        if !elem.dfa.is_accepting(elem.state) {
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
            if self.config.suppress_ignorable_whitespace {
                return Ok(());
            }
        }
        self.deliver_sax();
        Ok(())
    }

    /// Validates the current start tag's attributes against the element's
    /// pre-resolved `ATTLIST` and collects declared defaults into the
    /// injected side list (chained onto the view after the literal
    /// attributes), as a validating parser must. Pure symbol equality — no
    /// string hashing, and no event materialisation. An associated
    /// function over the fields involved, so `handle_start` can pass the
    /// one view it already holds.
    fn validate_attributes(
        v: &RawEventRef<'_>,
        plans: &[AttPlan<'d>],
        strict: bool,
        source: &S,
        injected: &mut Vec<(Symbol, &'d str)>,
    ) -> Result<()> {
        if strict {
            for attr in v.attrs() {
                if !plans.iter().any(|d| d.name == attr.name) {
                    return Err(XsaxError::Validation {
                        message: format!(
                            "attribute `{}` is not declared for element `{}`",
                            attr.name_str(source.symbols()),
                            v.name_str(source.symbols())
                        ),
                        pos: source.position(),
                    });
                }
            }
            for def in plans {
                if def.required && !v.attrs().any(|a| a.name == def.name) {
                    return Err(XsaxError::Validation {
                        message: format!(
                            "required attribute `{}` missing on element `{}`",
                            source.symbols().name(def.name),
                            v.name_str(source.symbols())
                        ),
                        pos: source.position(),
                    });
                }
            }
        }
        for def in plans {
            let Some(value) = def.default else { continue };
            if !v.attrs().any(|a| a.name == def.name) {
                injected.push((def.name, value));
            }
        }
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

    #[test]
    fn strict_attributes_enforced() {
        let dtd = Dtd::parse("<!ELEMENT a EMPTY>\n<!ATTLIST a id CDATA #REQUIRED>").unwrap();
        let config = XsaxConfig {
            strict_attributes: true,
            ..XsaxConfig::default()
        };
        let strict_error = |doc: &str| {
            let mut p = XsaxParser::with_config(doc.as_bytes(), &dtd, config.clone()).unwrap();
            loop {
                match p.next_step() {
                    Ok(Some(_)) => continue,
                    Ok(None) => panic!("expected validation error"),
                    Err(e) => break e.to_string(),
                }
            }
        };
        let err = strict_error("<a/>");
        assert!(err.contains("required"), "{err}");
        let err = strict_error(r#"<a id="1" bogus="2"/>"#);
        assert!(err.contains("not declared"), "{err}");
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
