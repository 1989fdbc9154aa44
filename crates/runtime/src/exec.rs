//! The streamed query evaluator (paper Sec. 3.2).
//!
//! Drives XSAX events through the physical plan: per open element it keeps
//! a `Frame` recording whether the element's events are being
//! stream-copied to the output, which output end tags it owes, and where
//! its entries start on four stacks shared by all open elements — the
//! buffers the element populates (per the BDF's projection views), the
//! process-streams dispatching its children, the variable bindings and
//! the scope shells to undo at its close. `on-first` events from XSAX
//! trigger buffered evaluation of handler bodies over the buffer store.
//!
//! The event loop dispatches on the step's kind and builds the borrowed
//! [`RawEventRef`] view — payloads living in the source's storage (scanner
//! window or shard tape arena) — only for an event some open frame reads:
//! a start tag under a frame that copies, buffers or dispatches, a text
//! run under one that copies or keeps text. Everything else is counted
//! and passed over. Handler dispatch and buffer descent are symbol
//! comparisons against the stream's shared [`SymbolTable`], and the output
//! writer maps symbols back through the same table, streaming payload
//! bytes straight from the view into the sink. Once the shared stacks have
//! grown to the document's depth, an event costs zero heap allocations
//! (`tests/zero_alloc_pipeline.rs` proves it for the whole
//! reader → XSAX → executor loop).

use crate::buffer::BufferArena;
use crate::error::{Result, RuntimeError};
use crate::plan::{DocTiming, HandlerPlan, Plan, PlanExpr, PsId};
use crate::stats::RunStats;
use flux_dtd::Dtd;
use flux_telemetry::{RunReport, Stage};
use flux_xml::tree::NodeId;
use flux_xml::{EventSource, RawEventKind, RawEventRef, SymbolTable, XmlWriter};
use flux_xquery::{CompiledExpr, CursorEvaluator, Slots};
use flux_xsax::{XsaxConfig, XsaxParser, XsaxStep};
use std::io::Write;
use std::time::Instant;

use crate::bdf::SpecView;

/// Per-open-element execution state. The `targets`/`scopes`/`bindings`/
/// `shells` fields are start indices into the [`ExecState`] stacks of the
/// same names: a frame's entries run from there to the next frame's start
/// (to the top, for the innermost frame) and are truncated at its close.
#[derive(Clone, Copy)]
struct Frame {
    /// Events inside this element are copied to the output.
    copying: bool,
    /// Output end tags owed when this element closes.
    closers: usize,
    targets: usize,
    scopes: usize,
    bindings: usize,
    shells: usize,
}

/// Runs a pre-compiled physical plan over an [`EventSource`], writing the
/// result stream to `output` — the one execution entry point.
///
/// `source` must be seeded with `flux_xsax::seeded_symbols(dtd)`: a
/// sequential run passes `flux_xsax::seeded_reader`, a parallel one a
/// `flux_shard::ShardedReader`, whose shards parse on their own threads
/// while this evaluator (and the XSAX DFA configuration it drives)
/// consumes the stitched stream sequentially. With `want_report`, the
/// run's telemetry [`RunReport`] is assembled once the stream is drained
/// (a sharded source contributes its per-shard timeline).
pub fn execute<S: EventSource, W: Write>(
    plan: &Plan,
    dtd: &Dtd,
    source: S,
    output: W,
    config: XsaxConfig,
    want_report: bool,
) -> Result<(RunStats, Option<RunReport>)> {
    let mut parser = XsaxParser::from_source(source, dtd, config)?;
    let start_time = Instant::now();
    for reg in &plan.past_regs {
        parser.register_past(reg.element, reg.labels.clone())?;
    }
    // The BDF's edges were interned at plan-compile time against the
    // DTD's table — the same index space the stream's seeded interner
    // uses — so per-event descent is pure symbol equality with no per-run
    // index build. The arena document seeds its name table from the
    // stream's, so buffered names import as integer copies.
    let mut state = ExecState {
        plan,
        arena: BufferArena::with_symbols(parser.symbols().clone()),
        slots: plan.slots.make_slots(),
        evaluator: CursorEvaluator::new(),
        writer: XmlWriter::new(output),
        stack: Vec::new(),
        targets: Vec::new(),
        scopes: Vec::new(),
        bindings: Vec::new(),
        shells: Vec::new(),
        events: 0,
        on_first_fires: 0,
    };
    while let Some(step) = parser.next_step()? {
        state.events += 1;
        match step {
            XsaxStep::Sax => state.handle(&parser)?,
            XsaxStep::Fire { id, depth } => state.on_first(id.index(), depth)?,
        }
    }
    state.writer.finish()?;
    let stats = RunStats {
        peak_buffer_bytes: state.arena.tracker().peak_bytes(),
        peak_buffer_nodes: state.arena.tracker().peak_nodes(),
        total_buffered_bytes: state.arena.tracker().total_allocated_bytes(),
        output_bytes: state.writer.bytes_written(),
        events: state.events,
        duration: start_time.elapsed(),
    };
    let report = want_report.then(|| assemble_report(&parser, &state, &stats));
    Ok((stats, report))
}

/// Builds the unified [`RunReport`]: the source's stages (scanner/reader,
/// shard pipeline), the XSAX stage, then the runtime and buffer stages
/// owned here.
fn assemble_report<S: EventSource, W: Write>(
    parser: &XsaxParser<'_, S>,
    state: &ExecState<'_, W>,
    stats: &RunStats,
) -> RunReport {
    let mut report = RunReport::default();
    parser.report_into(&mut report, stats.events);
    let tracker = state.arena.tracker();
    let mut runtime = Stage::new("runtime");
    runtime.counter("events", stats.events);
    runtime.counter("on_first_fires", state.on_first_fires);
    runtime.absorb(tracker.telemetry().rows(tracker.current_nodes() as u64));
    runtime.counter("output_bytes", stats.output_bytes);
    runtime.rate("events_per_second", stats.events_per_second());
    report.stage(runtime);
    let mut buffers = Stage::new("buffers");
    buffers.counter("peak_bytes", stats.peak_buffer_bytes as u64);
    buffers.counter("peak_nodes", stats.peak_buffer_nodes as u64);
    buffers.counter("traffic_bytes", stats.total_buffered_bytes);
    buffers.samples = tracker.residency().snapshot();
    report.stage(buffers);
    report.stats_json = Some(stats.to_json());
    report
}

struct ExecState<'p, W: Write> {
    plan: &'p Plan,
    arena: BufferArena,
    /// Variable bindings, indexed by the plan's slot numbering.
    slots: Slots,
    /// The streaming evaluator for handler bodies — persistent across
    /// firings, so its cursor and string pools reach a steady state with
    /// zero allocations per firing.
    evaluator: CursorEvaluator,
    writer: XmlWriter<W>,
    /// One frame per open element, the document frame at index 0.
    stack: Vec<Frame>,
    /// Buffer insertion points the open elements' content populates.
    targets: Vec<(NodeId, SpecView)>,
    /// Process-streams dispatching the open elements' children.
    scopes: Vec<PsId>,
    /// Variable bindings to restore at close (slot, shadowed value).
    bindings: Vec<(usize, Option<NodeId>)>,
    /// Scope shells to free at close.
    shells: Vec<NodeId>,
    events: u64,
    /// `on-first` handler bodies evaluated.
    on_first_fires: u64,
}

impl<'p, W: Write> ExecState<'p, W> {
    /// Handles the event behind an [`XsaxStep::Sax`]. Dispatches on the
    /// kind; only `start_element` and `text` may view the payload, and
    /// only when the innermost frame reads it.
    fn handle<S: EventSource>(&mut self, parser: &XsaxParser<'_, S>) -> Result<()> {
        match parser.kind() {
            RawEventKind::StartDocument => self.start_document(),
            RawEventKind::DoctypeDecl => Ok(()),
            RawEventKind::StartElement => self.start_element(parser),
            RawEventKind::Text => self.text(parser),
            RawEventKind::EndElement => self.end_element(),
            RawEventKind::EndDocument => self.end_document(),
            kind @ (RawEventKind::Comment | RawEventKind::ProcessingInstruction) => {
                Err(RuntimeError::Plan {
                    message: format!("unexpected event {kind:?}"),
                })
            }
        }
    }

    /// A frame with nothing on the shared stacks yet, inheriting `copying`.
    fn open_frame(&self, copying: bool) -> Frame {
        Frame {
            copying,
            closers: 0,
            targets: self.targets.len(),
            scopes: self.scopes.len(),
            bindings: self.bindings.len(),
            shells: self.shells.len(),
        }
    }

    fn start_document(&mut self) -> Result<()> {
        // The arena's own document node doubles as the $ROOT scope shell:
        // it is never freed (the run ends with it) and copying `$ROOT`
        // emits its children, as document-node semantics require.
        let shell = self.arena.doc().document_node();
        let mut frame = self.open_frame(false);
        self.targets
            .push((shell, SpecView::Project(self.plan.root_spec)));
        let root_slot = self.plan.root_slot;
        let saved = self.slots[root_slot].replace(shell);
        self.bindings.push((root_slot, saved));
        // Evaluate the top prelude (constants, wrappers) and install the
        // top-level process-stream. `self.plan` is a shared reference with
        // lifetime 'p, so plan data can be borrowed independently of self.
        let plan: &'p Plan = self.plan;
        self.enter_plan(&plan.top, &mut frame, None)?;
        // Document-level on-first handlers that fire before the root.
        self.fire_doc_handlers(&frame, DocTiming::AtStart)?;
        self.stack.push(frame);
        Ok(())
    }

    fn start_element<S: EventSource>(&mut self, parser: &XsaxParser<'_, S>) -> Result<()> {
        let parent = *self
            .stack
            .last()
            .expect("XSAX guarantees events inside the document");
        // The parent's entries end where the new frame's begin.
        let mut frame = self.open_frame(parent.copying);
        if !parent.copying && parent.targets == frame.targets && parent.scopes == frame.scopes {
            // Nothing copies, buffers or dispatches here: the start tag
            // is not read.
            self.stack.push(frame);
            return Ok(());
        }
        let symbols = parser.symbols();
        let ev = parser.view();
        let sym = ev.name();
        if parent.copying {
            self.writer.start_element_view(symbols, &ev)?;
        }
        // Buffer population: descend every active view on symbol equality
        // (an OVERFLOW name from a bounded-interner stream falls back to
        // comparing the literal spelling, so `max_symbols` can never
        // change what is buffered).
        let literal = ev.name_str(symbols);
        for i in parent.targets..frame.targets {
            let (node, view) = self.targets[i];
            if let Some(child_view) = view.descend_event(&self.plan.specs, sym, literal) {
                let child_node = self.arena.append_element_view(node, symbols, &ev);
                self.targets.push((child_node, child_view));
            }
        }
        // Handler dispatch: every matching `on` handler of every scope
        // hosted by the parent, in plan order.
        let plan: &'p Plan = self.plan;
        for i in parent.scopes..frame.scopes {
            for handler in &plan.ps[self.scopes[i]].handlers {
                let HandlerPlan::On {
                    label,
                    symbol,
                    var_slot,
                    spec,
                    body,
                    ..
                } = handler
                else {
                    continue;
                };
                // Symbol equality on the hot path; bounded-interner
                // OVERFLOW names dispatch by their literal spelling.
                let matches = if sym == SymbolTable::OVERFLOW {
                    label.as_str() == literal
                } else {
                    *symbol == Some(sym)
                };
                if !matches {
                    continue;
                }
                // The shell carries only the attributes the plan reads
                // (all of them when the whole subtree is kept): unread
                // minted names must never grow the arena's dictionary.
                let spec_node = plan.specs.node(*spec);
                let shell = if spec_node.whole {
                    self.arena.create_element_view(symbols, &ev)
                } else {
                    self.arena
                        .create_element_view_projected(symbols, &ev, &spec_node.attrs)
                };
                let saved = self.slots[*var_slot].replace(shell);
                self.bindings.push((*var_slot, saved));
                self.shells.push(shell);
                if !self.plan.specs.is_empty_spec(*spec) {
                    self.targets.push((shell, SpecView::Project(*spec)));
                }
                self.enter_plan(body, &mut frame, Some((&ev, symbols)))?;
            }
        }
        self.stack.push(frame);
        Ok(())
    }

    fn text<S: EventSource>(&mut self, parser: &XsaxParser<'_, S>) -> Result<()> {
        let frame = *self.stack.last().expect("text inside the document");
        // Viewed on first use: a run nobody copies or keeps is not read.
        let mut viewed = None;
        let mut text = || *viewed.get_or_insert_with(|| parser.view().text());
        if frame.copying {
            self.writer.text(text())?;
        }
        for &(node, view) in &self.targets[frame.targets..] {
            if view.keeps_text(&self.plan.specs) {
                self.arena.append_text(node, text());
            }
        }
        Ok(())
    }

    fn end_element(&mut self) -> Result<()> {
        let frame = self.stack.pop().expect("balanced events");
        if frame.copying {
            self.writer.end_element()?;
        }
        for _ in 0..frame.closers {
            self.writer.end_element()?;
        }
        self.close_frame(frame);
        Ok(())
    }

    fn end_document(&mut self) -> Result<()> {
        let frame = self.stack.pop().expect("document context");
        self.fire_doc_handlers(&frame, DocTiming::AtEnd)?;
        for _ in 0..frame.closers {
            self.writer.end_element()?;
        }
        self.close_frame(frame);
        Ok(())
    }

    /// Undoes the innermost frame's entries on the shared stacks.
    fn close_frame(&mut self, frame: Frame) {
        for (slot, saved) in self.bindings.drain(frame.bindings..).rev() {
            self.slots[slot] = saved;
        }
        for shell in self.shells.drain(frame.shells..) {
            self.arena.free_scope(shell);
        }
        self.targets.truncate(frame.targets);
        self.scopes.truncate(frame.scopes);
    }

    fn on_first(&mut self, reg_index: usize, depth: usize) -> Result<()> {
        let plan: &'p Plan = self.plan;
        let reg = &plan.past_regs[reg_index];
        let Some(frame) = self.stack.get(depth) else {
            return Ok(()); // scope not active here
        };
        let scopes_end = self
            .stack
            .get(depth + 1)
            .map_or(self.scopes.len(), |next| next.scopes);
        if !self.scopes[frame.scopes..scopes_end].contains(&reg.ps) {
            return Ok(()); // a different plan position over the same element type
        }
        let HandlerPlan::OnFirstPast { body, .. } = &plan.ps[reg.ps].handlers[reg.handler_index]
        else {
            return Err(RuntimeError::Plan {
                message: "past registration points at a non-on-first handler".to_string(),
            });
        };
        self.on_first_fires += 1;
        self.eval_buffered(body)
    }

    /// Fires the document-level on-first handlers with the given timing,
    /// in handler order. `frame` is the document frame, innermost at both
    /// call sites, so its scopes run to the top of the stack.
    fn fire_doc_handlers(&mut self, frame: &Frame, timing: DocTiming) -> Result<()> {
        let plan: &'p Plan = self.plan;
        for i in frame.scopes..self.scopes.len() {
            for handler in &plan.ps[self.scopes[i]].handlers {
                if let HandlerPlan::OnFirstPast {
                    doc_timing, body, ..
                } = handler
                {
                    if *doc_timing == timing {
                        self.eval_buffered(body)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Evaluates a compiled expression over the buffer store with the
    /// persistent cursor evaluator. Split-field borrows keep the arena
    /// document readable while the evaluator and writer are mutably held.
    fn eval_buffered(&mut self, body: &CompiledExpr) -> Result<()> {
        let ExecState {
            arena,
            evaluator,
            slots,
            writer,
            ..
        } = self;
        evaluator.eval(arena.doc(), body, slots, writer)?;
        Ok(())
    }

    /// Enters a plan expression at the current stream position: emits
    /// constants and wrappers, evaluates instant buffered expressions,
    /// installs nested process-streams and stream-copies into `frame`, the
    /// frame being opened (its stack entries are the innermost ones).
    fn enter_plan(
        &mut self,
        plan: &PlanExpr,
        frame: &mut Frame,
        current_child: Option<(&RawEventRef<'_>, &SymbolTable)>,
    ) -> Result<()> {
        match plan {
            PlanExpr::Empty => Ok(()),
            PlanExpr::Text(s) => {
                self.writer.text(s)?;
                Ok(())
            }
            PlanExpr::BufferedEval(e) => self.eval_buffered(e),
            PlanExpr::Sequence(items) => {
                for item in items {
                    self.enter_plan(item, frame, current_child)?;
                }
                Ok(())
            }
            PlanExpr::Element {
                name,
                attributes,
                content,
                deferred_close,
            } => {
                {
                    let ExecState {
                        arena,
                        evaluator,
                        slots,
                        writer,
                        ..
                    } = self;
                    evaluator.start_element_with_attrs(
                        arena.doc(),
                        name,
                        attributes,
                        slots,
                        writer,
                    )?;
                }
                self.enter_plan(content, frame, current_child)?;
                if *deferred_close {
                    frame.closers += 1;
                } else {
                    self.writer.end_element()?;
                }
                Ok(())
            }
            PlanExpr::StreamCopy => {
                let (child, symbols) = current_child.ok_or_else(|| RuntimeError::Plan {
                    message: "stream-copy outside an on-handler".to_string(),
                })?;
                self.writer.start_element_view(symbols, child)?;
                frame.copying = true;
                Ok(())
            }
            PlanExpr::Ps(id) => {
                self.scopes.push(*id);
                Ok(())
            }
        }
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::compile_plan;
    use flux_dtd::{PAPER_FIG1_DTD, PAPER_WEAK_DTD};
    use flux_lang::{compile, CompileOptions};
    use flux_xsax::seeded_reader;

    const Q3: &str = r#"<results>{ for $b in $ROOT/bib/book return <result>{$b/title}{$b/author}</result> }</results>"#;

    fn try_run(query: &str, dtd_text: &str, doc: &str) -> Result<(String, RunStats)> {
        let dtd = Dtd::parse(dtd_text).unwrap();
        let compiled = compile(query, &dtd, &CompileOptions::default()).unwrap();
        let plan = compile_plan(&compiled, &dtd).unwrap();
        let source = seeded_reader(doc.as_bytes(), &dtd, Default::default());
        let mut out = Vec::new();
        let (stats, _) = execute(&plan, &dtd, source, &mut out, XsaxConfig::default(), false)?;
        Ok((String::from_utf8(out).unwrap(), stats))
    }

    fn run(query: &str, dtd_text: &str, doc: &str) -> (String, RunStats) {
        try_run(query, dtd_text, doc).unwrap_or_else(|e| panic!("execution failed: {e}"))
    }

    const WEAK_DOC: &str = "<bib><book><author>A1</author><title>T1</title><author>A2</author></book><book><title>T2</title></book></bib>";
    const FIG1_DOC: &str = "<bib><book><title>T1</title><author>A1</author><author>A2</author><publisher>P1</publisher><price>9</price></book><book><title>T2</title><editor>E1</editor><publisher>P2</publisher><price>5</price></book></bib>";

    #[test]
    fn q3_weak_dtd_reorders_correctly() {
        // Input has author BEFORE title; XQuery semantics demand titles
        // first. The buffered author handler must reproduce that.
        let (out, stats) = run(Q3, PAPER_WEAK_DTD, WEAK_DOC);
        assert_eq!(
            out,
            "<results><result><title>T1</title><author>A1</author><author>A2</author></result><result><title>T2</title></result></results>"
        );
        assert!(stats.peak_buffer_bytes > 0, "authors were buffered");
    }

    #[test]
    fn q3_fig1_dtd_streams_with_zero_buffer_growth() {
        let (out, stats) = run(Q3, PAPER_FIG1_DTD, FIG1_DOC);
        assert_eq!(
            out,
            "<results><result><title>T1</title><author>A1</author><author>A2</author></result><result><title>T2</title></result></results>"
        );
        // Scope shells are still created (book/bib bindings), but no child
        // content is ever buffered: total buffered bytes stay tiny and, in
        // particular, the author text never enters the store.
        assert!(
            !format!("{:?}", stats).contains("A1"),
            "sanity: stats don't embed data"
        );
        let (_, stats_big) = run(
            Q3,
            PAPER_FIG1_DTD,
            &FIG1_DOC.replace("A1", &"A".repeat(5000)),
        );
        assert!(
            stats_big.peak_buffer_bytes < 2000,
            "author content must not be buffered under Fig. 1: {} bytes",
            stats_big.peak_buffer_bytes
        );
    }

    #[test]
    fn weak_dtd_buffers_author_content() {
        let (_, stats_small) = run(Q3, PAPER_WEAK_DTD, WEAK_DOC);
        let big_doc = WEAK_DOC.replace("A1", &"A".repeat(5000));
        let (_, stats_big) = run(Q3, PAPER_WEAK_DTD, &big_doc);
        assert!(
            stats_big.peak_buffer_bytes > stats_small.peak_buffer_bytes + 4000,
            "weak DTD must buffer author text: {} vs {}",
            stats_big.peak_buffer_bytes,
            stats_small.peak_buffer_bytes
        );
    }

    #[test]
    fn buffer_is_per_book_not_per_document() {
        // 50 books with one author each: peak should be ~one author, not 50.
        let mut doc = String::from("<bib>");
        for i in 0..50 {
            doc.push_str(&format!(
                "<book><author>Author Number {i:04}</author><title>T{i}</title></book>"
            ));
        }
        doc.push_str("</bib>");
        let (_, stats) = run(Q3, PAPER_WEAK_DTD, &doc);
        // One author is ~50 bytes of content; allow generous slack for the
        // shells, but far below 50 authors.
        assert!(
            stats.peak_buffer_bytes < 1200,
            "peak {} should reflect one book at a time",
            stats.peak_buffer_bytes
        );
    }

    #[test]
    fn stream_copy_whole_books() {
        let q = r#"<results>{ for $b in $ROOT/bib/book return $b }</results>"#;
        let (out, stats) = run(q, PAPER_WEAK_DTD, WEAK_DOC);
        assert_eq!(
            out,
            format!(
                "<results>{}</results>",
                &WEAK_DOC["<bib>".len()..WEAK_DOC.len() - "</bib>".len()]
            )
        );
        assert!(
            stats.peak_buffer_bytes < 600,
            "stream copy must not buffer content: {}",
            stats.peak_buffer_bytes
        );
    }

    #[test]
    fn empty_document_produces_wrapper() {
        let (out, _) = run(Q3, PAPER_WEAK_DTD, "<bib/>");
        assert_eq!(out, "<results></results>");
    }

    #[test]
    fn validation_errors_surface() {
        assert!(try_run(Q3, PAPER_WEAK_DTD, "<bib><pamphlet/></bib>").is_err());
    }

    #[test]
    fn whole_node_copy_via_buffer() {
        // {$b}{$b/title}: whole book buffered (past(*)), then title copy.
        let q = r#"<results>{ for $b in $ROOT/bib/book return <r>{$b}{$b/title}</r> }</results>"#;
        let (out, _) = run(
            q,
            PAPER_WEAK_DTD,
            "<bib><book><author>A</author><title>T</title></book></bib>",
        );
        assert_eq!(
            out,
            "<results><r><book><author>A</author><title>T</title></book><title>T</title></r></results>"
        );
    }

    #[test]
    fn conditions_on_buffered_data() {
        let q = r#"<results>{ for $b in $ROOT/bib/book return if ($b/author = "A1") then $b/title else () }</results>"#;
        let (out, _) = run(q, PAPER_WEAK_DTD, WEAK_DOC);
        assert_eq!(out, "<results><title>T1</title></results>");
    }

    #[test]
    fn attribute_templates_from_stream() {
        let dtd_text = "<!ELEMENT bib (book)*>\n<!ELEMENT book (title)>\n<!ELEMENT title (#PCDATA)>\n<!ATTLIST book year CDATA #IMPLIED>";
        let q = r#"<results>{ for $b in $ROOT/bib/book return <b y="{$b/@year}">{$b/title}</b> }</results>"#;
        let (out, _) = run(
            q,
            dtd_text,
            r#"<bib><book year="1994"><title>T</title></book></bib>"#,
        );
        assert_eq!(
            out,
            r#"<results><b y="1994"><title>T</title></b></results>"#
        );
    }

    #[test]
    fn shells_keep_read_attributes_and_drop_minted_ones() {
        // The plan reads only `@year`: a stream minting a fresh attribute
        // name per book must not grow the peak, while the read attribute
        // still resolves. This is the engine-level memory bound against
        // the name-minting adversary.
        let dtd_text = "<!ELEMENT bib (book)*>\n<!ELEMENT book (title)>\n<!ELEMENT title (#PCDATA)>\n<!ATTLIST book year CDATA #IMPLIED>";
        let q = r#"<results>{ for $b in $ROOT/bib/book return <b y="{$b/@year}"/> }</results>"#;
        let doc_with = |books: usize| {
            let mut doc = String::from("<bib>");
            for i in 0..books {
                doc.push_str(&format!(
                    "<book year=\"y{i}\" mint{i:05}=\"v\"><title>T</title></book>"
                ));
            }
            doc.push_str("</bib>");
            doc
        };
        let (out, stats_small) = run(q, dtd_text, &doc_with(5));
        assert!(
            out.starts_with(r#"<results><b y="y0"></b><b y="y1"></b>"#),
            "{out}"
        );
        let (_, stats_big) = run(q, dtd_text, &doc_with(500));
        assert!(
            stats_big.peak_buffer_bytes < stats_small.peak_buffer_bytes * 2,
            "minted attribute names leaked into the dictionary: {} -> {}",
            stats_small.peak_buffer_bytes,
            stats_big.peak_buffer_bytes
        );
    }

    #[test]
    fn join_across_sections_works() {
        let dtd_text = "<!ELEMENT top (bib, reviews)>\n<!ELEMENT bib (book)*>\n<!ELEMENT book (title)>\n<!ELEMENT reviews (entry)*>\n<!ELEMENT entry (title, price)>\n<!ELEMENT title (#PCDATA)>\n<!ELEMENT price (#PCDATA)>";
        let q = r#"<out>{ for $b in $ROOT/top/bib/book, $e in $ROOT/top/reviews/entry where $b/title = $e/title return <hit>{$b/title}{$e/price}</hit> }</out>"#;
        let doc = "<top><bib><book><title>A</title></book><book><title>B</title></book></bib><reviews><entry><title>B</title><price>5</price></entry><entry><title>A</title><price>7</price></entry></reviews></top>";
        let (out, _) = run(q, dtd_text, doc);
        assert_eq!(
            out,
            "<out><hit><title>A</title><price>7</price></hit><hit><title>B</title><price>5</price></hit></out>"
        );
    }

    #[test]
    fn constants_ordered_between_streams() {
        let q = r#"<results>{ for $b in $ROOT/bib/book return <r>{$b/title}{"|"}{$b/author}</r> }</results>"#;
        let (out, _) = run(
            q,
            PAPER_FIG1_DTD,
            "<bib><book><title>T</title><author>A</author><publisher>P</publisher><price>1</price></book></bib>",
        );
        assert_eq!(
            out,
            "<results><r><title>T</title>|<author>A</author></r></results>"
        );
    }

    #[test]
    fn doc_level_whole_copy() {
        let q = r#"<r>{$ROOT}{$ROOT}</r>"#;
        let doc = "<bib><book><title>T</title></book></bib>";
        let dtd_text =
            "<!ELEMENT bib (book)*>\n<!ELEMENT book (title)>\n<!ELEMENT title (#PCDATA)>";
        let (out, stats) = run(q, dtd_text, doc);
        assert_eq!(out, format!("<r>{doc}{doc}</r>"));
        assert!(
            stats.peak_buffer_bytes > doc.len(),
            "whole document buffered"
        );
    }
}
