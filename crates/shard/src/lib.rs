//! # flux_shard
//!
//! A parallel sharded streaming pipeline for multi-core event throughput.
//!
//! The FluXQuery stack treats the event stream as a single sequential
//! source; this crate parallelises the expensive part — parsing — while
//! keeping every consumer-visible property of the sequential reader. The
//! input is always a byte stream, read once:
//!
//! 1. **Split.** A dispatcher thread owns the `Read` and cuts it into
//!    chunks of about [`ShardConfig::chunk_bytes`], each extended to the
//!    next safe element-tag `<` (never inside a comment, CDATA section,
//!    PI or DOCTYPE; [`cut_points`] shows the seams for a given input). Because seams sit on
//!    element tags, no token or text run ever straddles one.
//! 2. **Parse.** A pool of [`ShardConfig::shards`] workers parses chunks
//!    as they arrive, one fragment-mode [`flux_xml::XmlReader`] per chunk,
//!    each seeded with a clone of the shared [`SymbolTable`] (clones
//!    preserve indices, so symbols agree across shards without renaming).
//!    Workers record onto [`flux_xml::EventTape`]s — every payload byte
//!    materialised exactly once — and hand them over in *segments* of
//!    [`ShardConfig::segment_events`] events through bounded channels.
//! 3. **Replay, pipelined.** [`ShardedReader::advance`] replays chunk
//!    *i*'s segments while workers are still parsing later chunks, so XSAX
//!    validation and query evaluation overlap parsing. Replay is
//!    **zero-copy**: [`ShardedReader::view`] serves [`RawEventRef`] views
//!    whose payloads borrow the tape arena.
//! 4. **Re-check.** Replay re-checks everything the fragment readers
//!    relaxed — global tag balance against one running stack, single
//!    root, no top-level text, DOCTYPE position, the depth limit — so the
//!    merged stream is event-for-event the sequential one, and errors are
//!    raised **at the same point in the stream**: the valid prefix is
//!    delivered first, then the error, with a position composed from the
//!    per-event positions the workers recorded (byte-exact for offset,
//!    line and column). Downstream,
//!    `flux_xsax::XsaxParser::from_source` consumes this stream and
//!    carries its content-model DFA configuration across every shard seam
//!    — the single piece of cross-shard state — so validation verdicts,
//!    error positions and on-first fire points stay exactly sequential.
//!
//! Every pool is bounded — O(workers) chunks and O(segment × queue ×
//! workers) tape bytes in flight — so multi-gigabyte documents stream
//! through in constant memory, optionally tracked by a
//! [`flux_xml::MemoryBudget`].

mod splitter;
mod stream;
mod worker;

use flux_symbols::{Symbol, SymbolTable};
use flux_telemetry::{ReaderCounters, RunReport, ScanCounters, ShardLane, Stage, Stopwatch};
use flux_xml::reader::MAX_DEPTH;
use flux_xml::{
    BudgetCharge, EventSource, Position, RawEventKind, RawEventRef, ReaderConfig, Result,
    SymbolRemap, XmlError,
};
use std::io::Read;
use std::sync::mpsc::Receiver;
use std::sync::Arc;
pub use stream::cut_points;
use stream::{start_stream, ChunkMsg, StreamLaunch};
use worker::{Segment, ShardTape};

/// Configuration for [`ShardedReader`].
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Worker threads parsing chunks in parallel; `1` still pipelines
    /// parsing against replay, on one parse thread.
    pub shards: usize,
    /// The reader configuration every fragment reader runs with, and the
    /// document-level rules replay re-checks on the merged stream:
    /// [`flux_xml::reader::MAX_DEPTH`] is enforced globally at replay
    /// exactly like the sequential reader enforces it; [`ReaderConfig::window`]
    /// sizes each fragment scanner; [`ReaderConfig::budget`] is shared by
    /// every pool the pipeline grows (fragment scanner windows, in-flight
    /// chunks and tape segments). Workers are open readers, and
    /// the merged table interns every name they report.
    /// [`ReaderConfig::fragment`] is ignored (workers always parse
    /// fragments).
    pub reader: ReaderConfig,
    /// Target chunk size in bytes (at least 1). Chunks extend past the
    /// target to the next safe element-tag boundary.
    pub chunk_bytes: usize,
    /// Workers hand over a partial tape every this many events, bounding
    /// in-flight tape memory by O(`segment_events` ×
    /// [`ShardConfig::segment_queue`] × shards) instead of chunk size.
    pub segment_events: usize,
    /// Workers also flush a partial tape once its arena reaches this many
    /// bytes, so payload-heavy content (long text runs, fat attributes)
    /// cannot inflate the per-segment footprint past the event-count
    /// bound's assumptions — the in-flight tape pool is bounded in
    /// *bytes*, not just events.
    pub segment_bytes: usize,
    /// Per-chunk bound on segments parsed ahead of replay; the worker
    /// blocks once the consumer lags this far behind.
    pub segment_queue: usize,
}

impl ShardConfig {
    /// A configuration with `shards` parallel workers.
    pub fn new(shards: usize) -> Self {
        ShardConfig {
            shards: shards.max(1),
            reader: ReaderConfig::default(),
            chunk_bytes: 1024 * 1024,
            segment_events: 16 * 1024,
            segment_bytes: 256 * 1024,
            segment_queue: 4,
        }
    }

    /// The workers' configuration. Local depth can only underestimate
    /// global depth; the exact global limit is enforced at replay.
    fn reader_config(&self) -> ReaderConfig {
        ReaderConfig {
            fragment: true,
            ..self.reader.clone()
        }
    }
}

/// Composes a chunk-local position onto the global position of the chunk
/// start: offsets add; lines add (both 1-based); a column on the chunk's
/// first line continues the base line's column.
fn compose(base: Position, local: Position) -> Position {
    Position {
        offset: base.offset + local.offset,
        line: base.line + local.line - 1,
        column: if local.line == 1 {
            base.column + local.column - 1
        } else {
            local.column
        },
    }
}

/// Shifts a worker's chunk-local error to the global position.
fn compose_error(err: XmlError, base: Position) -> XmlError {
    match err {
        XmlError::UnexpectedEof { expected, pos } => XmlError::UnexpectedEof {
            expected,
            pos: compose(base, pos),
        },
        XmlError::Syntax { message, pos } => XmlError::Syntax {
            message,
            pos: compose(base, pos),
        },
        XmlError::WellFormedness { message, pos } => XmlError::WellFormedness {
            message,
            pos: compose(base, pos),
        },
        XmlError::UnknownEntity { name, pos } => XmlError::UnknownEntity {
            name,
            pos: compose(base, pos),
        },
        XmlError::InvalidUtf8 { pos } => XmlError::InvalidUtf8 {
            pos: compose(base, pos),
        },
        other => other,
    }
}

fn wf(message: impl Into<String>, pos: Position) -> XmlError {
    XmlError::WellFormedness {
        message: message.into(),
        pos,
    }
}

/// A worker hung up before handing over the rest of its chunk: it
/// panicked, since a live worker always sends its last segment.
fn worker_lost() -> XmlError {
    XmlError::Internal {
        message: "a shard worker stopped before delivering its chunk".to_string(),
    }
}

/// Advances `pos` over literal whitespace in `chunk` (which starts at
/// global offset `chunk_start`) with the sequential scanner's accounting —
/// the skip the prolog/epilog state performs before rejecting top-level
/// character data. Replaying it here keeps the merger's error byte-exact
/// even when the offending text run starts with whitespace (or whitespace
/// produced by entities, which the scanner does *not* skip: only literal
/// bytes qualify). Text runs never straddle chunk seams, so the run ends
/// inside the chunk.
fn skip_input_whitespace(chunk: &[u8], chunk_start: u64, mut pos: Position) -> Position {
    while let Some(&b) = chunk.get((pos.offset - chunk_start) as usize) {
        if !matches!(b, b' ' | b'\t' | b'\r' | b'\n') {
            break;
        }
        pos.offset += 1;
        if b == b'\n' {
            pos.line += 1;
            pos.column = 1;
        } else {
            pos.column += 1;
        }
    }
    pos
}

/// The chunk currently being replayed: a *chain* of tape segments,
/// installing the next link when the current one is exhausted.
struct ActiveShard {
    /// The current segment's tape.
    shard: ShardTape,
    /// Merged-table symbols for chunk-local indices past the seed prefix —
    /// cumulative across the chunk's segments.
    remap: Vec<Symbol>,
    /// Global position of this chunk's first byte.
    base: Position,
    /// Replay cursor into the current tape.
    cursor: usize,
    /// Epoch-relative instant replay of this chunk began.
    activated_at_ns: u64,
    /// Whether no chunk follows this one — drives the end-of-input
    /// re-checks (trailing-text suppression).
    is_final_chunk: bool,
    /// The chunk's remaining segment chain.
    seg_rx: Receiver<Segment>,
    /// The current tape is the chunk's last segment.
    seg_last: bool,
    /// The chunk's bytes, for the whitespace-skip error replay.
    bytes: Arc<Vec<u8>>,
    /// One segment received ahead of replay (end-of-input lookahead).
    pending_seg: Option<Segment>,
    /// Budget charge for the chunk buffer; released at chunk end.
    #[allow(dead_code)] // held for its Drop
    charge: Option<BudgetCharge>,
    /// Budget charge for the current segment's tape; released on handover.
    #[allow(dead_code)] // held for its Drop
    tape_charge: Option<BudgetCharge>,
}

impl ActiveShard {
    /// The chunk's next segment: the one looked ahead, or the next off the
    /// worker's channel.
    fn next_segment(&mut self) -> Result<Segment> {
        match self.pending_seg.take() {
            Some(seg) => Ok(seg),
            None => self.seg_rx.recv().map_err(|_| worker_lost()),
        }
    }

    /// Installs the next link of the segment chain: extends the cumulative
    /// remap with the segment's incremental names (interned into
    /// `symbols`) and swaps the tapes, releasing the replayed segment's
    /// budget charge.
    fn install(&mut self, seg: Segment, symbols: &mut SymbolTable) {
        self.remap
            .extend(seg.tape.new_names.iter().map(|n| symbols.intern(n)));
        self.shard = seg.tape;
        self.seg_last = seg.last;
        self.tape_charge = seg.charge;
        self.cursor = 0;
    }

    /// When event `i` is a text run that consumed the input right up to
    /// end-of-file, the chunk-local end position. That needs the final
    /// chunk, `i` last on its tape, no parse error after it, and the
    /// recorded position equal to the chunk end (trailing suppressed
    /// comments/PIs would have moved the end past it). A segment that is
    /// not the chunk's last is only ever shipped full, so there the run is
    /// final exactly when one segment of lookahead shows an *empty* last
    /// segment.
    fn text_ends_input(&mut self, i: usize) -> Result<Option<Position>> {
        if !self.is_final_chunk || self.cursor < self.shard.tape.len() {
            return Ok(None);
        }
        let end = if self.seg_last {
            &self.shard
        } else {
            let seg = self.next_segment()?;
            let seg = self.pending_seg.insert(seg);
            if !seg.last || !seg.tape.tape.is_empty() {
                return Ok(None);
            }
            &seg.tape
        };
        let at_end =
            end.error.is_none() && self.shard.tape.position(i).offset == end.end_pos.offset;
        Ok(at_end.then_some(end.end_pos))
    }
}

/// What [`ShardedReader::view`] currently shows.
enum CurrentEvent {
    /// Nothing delivered yet.
    None,
    /// A synthesised document bracket.
    Synthetic(RawEventKind),
    /// The event at `active.cursor - 1`.
    Tape,
}

/// A parallel drop-in for [`flux_xml::XmlReader`] over a byte stream:
/// same [`EventSource`] pull contract, same event sequence, same verdicts
/// and error positions — parsed by N threads.
///
/// The first [`ShardedReader::advance`] launches the dispatcher and the
/// workers; every later advance replays the next tape event (zero-copy)
/// and re-checks the document-level rules. The consumer streams chunk *i*
/// while later chunks are still parsing, so on invalid input the valid
/// prefix is delivered first and the error surfaces at the same stream
/// point — and, thanks to per-event recorded positions, with the same
/// offset, line and column — as the sequential reader's. Errors are
/// terminal: after returning one, the reader reports end of stream.
pub struct ShardedReader {
    /// The byte source, until the first pull hands it to the dispatcher.
    source: Option<Box<dyn Read + Send>>,
    config: ShardConfig,
    symbols: SymbolTable,
    seed_len: usize,
    /// Chunks activated so far.
    total_shards: usize,
    /// The dispatcher's dispatch-ordered chunk stream; `None` before the
    /// launch and once the last chunk has arrived.
    chunk_rx: Option<Receiver<ChunkMsg>>,
    active: Option<ActiveShard>,
    /// Global position where the next chunk starts.
    chunk_base: Position,
    // Replay state: the document-level rules the fragments relaxed.
    emitted_start: bool,
    finished: bool,
    /// Open elements across the whole document — replay re-checks tag
    /// balance exactly like the sequential reader, at the same events.
    stack: Vec<Symbol>,
    root_seen: bool,
    root_done: bool,
    /// Recorded position of the most recently delivered event.
    last_pos: Position,
    current: CurrentEvent,
    /// The pipeline epoch: copies go to every worker so all timeline
    /// points read off one monotonic axis. Reset when workers launch.
    epoch: Stopwatch,
    /// Completed shard lanes, in replay order.
    lanes: Vec<ShardLane>,
    /// Scanner counters merged across exhausted shards.
    scan_tel: ScanCounters,
    /// Reader counters merged across exhausted shards.
    reader_tel: ReaderCounters,
}

const START_POS: Position = Position {
    offset: 0,
    line: 1,
    column: 1,
};

impl ShardedReader {
    /// Creates a sharded reader over a byte stream whose interner is
    /// seeded with `symbols` — the sharded analogue of
    /// [`flux_xml::XmlReader::with_symbols`]. Seed with a plan's
    /// vocabulary (`flux_runtime::Plan::symbols`) to feed
    /// `flux_runtime::execute`, with `flux_xsax::seeded_symbols(&dtd)` to
    /// feed `XsaxParser::from_source`, or with `SymbolTable::new()` for a
    /// bare parse. Memory stays
    /// constant regardless of document size (see the [`crate`] docs).
    pub fn from_stream(
        src: impl Read + Send + 'static,
        config: ShardConfig,
        symbols: SymbolTable,
    ) -> Self {
        ShardedReader {
            source: Some(Box::new(src)),
            config,
            seed_len: symbols.len(),
            symbols,
            total_shards: 0,
            chunk_rx: None,
            active: None,
            chunk_base: START_POS,
            emitted_start: false,
            finished: false,
            stack: Vec::new(),
            root_seen: false,
            root_done: false,
            last_pos: START_POS,
            current: CurrentEvent::None,
            epoch: Stopwatch::start(),
            lanes: Vec::new(),
            scan_tel: ScanCounters::default(),
            reader_tel: ReaderCounters::default(),
        }
    }

    /// The shared symbol table: seed symbols plus every name the shards
    /// encountered, re-interned into one namespace (merged shard by shard
    /// as replay reaches them).
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// Number of chunks replay has reached so far. Zero until the first
    /// content event (the parallel parse launches lazily).
    pub fn shard_count(&self) -> usize {
        self.total_shards
    }

    /// The recorded source position of the most recently delivered event —
    /// exactly the position the sequential reader would report at the same
    /// point in the stream (offset, line and column).
    pub fn position(&self) -> Position {
        self.last_pos
    }

    /// Launches the dispatcher and the worker pool
    /// ([`stream::start_stream`]).
    fn start_streaming(&mut self, source: Box<dyn Read + Send>) {
        self.epoch = Stopwatch::start();
        let launch = StreamLaunch {
            source,
            reader_config: self.config.reader_config(),
            seed: self.symbols.clone(),
            epoch: self.epoch,
            workers: self.config.shards.max(1),
            chunk_bytes: self.config.chunk_bytes,
            segment_events: self.config.segment_events,
            segment_bytes: self.config.segment_bytes,
            segment_queue: self.config.segment_queue,
            budget: self.config.reader.budget.clone(),
        };
        self.chunk_rx = Some(start_stream(launch));
    }

    /// Receives the next chunk handle (in dispatch order) and its first
    /// tape segment. Returns `false` at end of input; an I/O error from
    /// the byte source is terminal.
    fn activate(&mut self) -> Result<bool> {
        let Some(rx) = self.chunk_rx.as_ref() else {
            return Ok(false);
        };
        let handle = match rx.recv() {
            // Dispatcher done: every chunk has been delivered.
            Err(_) => {
                self.chunk_rx = None;
                return Ok(false);
            }
            Ok(ChunkMsg::Io(e)) => {
                self.chunk_rx = None;
                return Err(e.into());
            }
            Ok(ChunkMsg::Chunk(handle)) => handle,
        };
        let seg = handle.seg_rx.recv().map_err(|_| worker_lost())?;
        self.total_shards += 1;
        let remap = seg
            .tape
            .new_names
            .iter()
            .map(|n| self.symbols.intern(n))
            .collect();
        self.active = Some(ActiveShard {
            shard: seg.tape,
            remap,
            base: self.chunk_base,
            cursor: 0,
            activated_at_ns: self.epoch.elapsed_ns(),
            is_final_chunk: handle.is_final,
            seg_rx: handle.seg_rx,
            seg_last: seg.last,
            bytes: handle.bytes,
            pending_seg: None,
            charge: handle.charge,
            tape_charge: seg.charge,
        });
        Ok(true)
    }

    /// Retires the exhausted chunk: closes its lane (replay span, then its
    /// counters fold into the pipeline totals — merge-at-join) and
    /// surfaces its terminal error, after its valid prefix — the
    /// sequential delivery order.
    fn retire(&mut self) -> Result<()> {
        let Some(mut a) = self.active.take() else {
            return Ok(());
        };
        a.shard.lane.replay_ns = self.epoch.elapsed_ns().saturating_sub(a.activated_at_ns);
        self.scan_tel.merge(&a.shard.scan);
        self.reader_tel.merge(&a.shard.reader);
        self.lanes.push(a.shard.lane);
        if let Some(err) = a.shard.error.take() {
            return Err(compose_error(err, a.base));
        }
        self.chunk_base = compose(a.base, a.shard.end_pos);
        Ok(())
    }

    /// Advances to the next replayed event — the zero-copy pull API. The
    /// first call launches the parallel parse.
    pub fn advance(&mut self) -> Result<bool> {
        if self.finished {
            return Ok(false);
        }
        let pulled = self.pull();
        if pulled.is_err() {
            self.finished = true;
        }
        pulled
    }

    fn pull(&mut self) -> Result<bool> {
        if let Some(source) = self.source.take() {
            self.start_streaming(source);
        }
        if !self.emitted_start {
            self.emitted_start = true;
            self.current = CurrentEvent::Synthetic(RawEventKind::StartDocument);
            return Ok(true);
        }
        loop {
            let Some(a) = self.active.as_mut() else {
                if self.activate()? {
                    continue;
                }
                // End of the input: the epilog checks.
                self.finished = true;
                self.last_pos = self.chunk_base;
                if !self.root_seen {
                    return Err(XmlError::UnexpectedEof {
                        expected: "root element",
                        pos: self.chunk_base,
                    });
                }
                if !self.stack.is_empty() {
                    return Err(XmlError::UnexpectedEof {
                        expected: "closing tags for open elements",
                        pos: self.chunk_base,
                    });
                }
                self.current = CurrentEvent::Synthetic(RawEventKind::EndDocument);
                return Ok(true);
            };

            // Tape exhausted: chain to the chunk's next segment, or retire
            // the chunk and move to the next.
            if a.cursor >= a.shard.tape.len() {
                if a.seg_last {
                    self.retire()?;
                } else {
                    let seg = a.next_segment()?;
                    a.install(seg, &mut self.symbols);
                }
                continue;
            }

            let i = a.cursor;
            a.cursor += 1;
            let kind = a.shard.tape.kind(i);
            // Resolved lazily enough: only element events use it.
            let name = SymbolRemap::new(self.seed_len, &a.remap).resolve(a.shard.tape.name(i));
            let pos = compose(a.base, a.shard.tape.position(i));
            let start = compose(a.base, a.shard.tape.start_position(i));
            // Re-check the document-level rules the fragment readers
            // relaxed, at exactly the event where the sequential reader
            // checks them.
            match kind {
                RawEventKind::StartElement => {
                    if self.stack.is_empty() && self.root_done {
                        // The sequential reader rejects a second root
                        // before consuming any of its tag: error at the
                        // construct's first byte.
                        return Err(wf("multiple root elements", start));
                    }
                    if self.stack.len() >= MAX_DEPTH {
                        let message = format!(
                            "element nesting deeper than the configured limit of {MAX_DEPTH}"
                        );
                        return Err(wf(message, pos));
                    }
                    self.stack.push(name);
                    self.root_seen = true;
                }
                RawEventKind::EndElement => {
                    // Global tag balance, checked at the end tag just
                    // like the sequential reader.
                    match self.stack.pop() {
                        Some(open) if open == name => {}
                        Some(open) => {
                            let message = format!(
                                "mismatched end tag: expected </{}>, found </{}>",
                                self.symbols.name(open),
                                self.symbols.name(name)
                            );
                            return Err(wf(message, pos));
                        }
                        None => {
                            let message = format!(
                                "end tag </{}> with no open element",
                                self.symbols.name(name)
                            );
                            return Err(wf(message, pos));
                        }
                    }
                    if self.stack.is_empty() {
                        self.root_done = true;
                    }
                }
                RawEventKind::Text if !self.stack.is_empty() => {
                    // A final text run with elements still open: the
                    // sequential reader raises the unclosed-elements error
                    // *without* delivering the run — the fragment worker
                    // delivered it only because more input could have
                    // followed in a next chunk, and there is none.
                    // Suppress it so the partial stream stays byte-exact
                    // sequential.
                    if let Some(end) = a.text_ends_input(i)? {
                        return Err(XmlError::UnexpectedEof {
                            expected: "closing tags for open elements",
                            pos: compose(a.base, end),
                        });
                    }
                }
                RawEventKind::Text => {
                    let v = a
                        .shard
                        .tape
                        .view(i, SymbolRemap::new(self.seed_len, &a.remap));
                    if v.is_whitespace_text() && !v.is_text_synthetic() {
                        // Literal prolog/epilog whitespace: the sequential
                        // reader skips it silently. Whitespace produced by
                        // entity references or CDATA does NOT qualify —
                        // sequentially that is character data outside the
                        // root, an error.
                        continue;
                    }
                    let message = if self.root_seen {
                        "character data after the root element"
                    } else {
                        "character data before the root element"
                    };
                    // The sequential prolog/epilog state skips literal
                    // whitespace and errors at the first byte it cannot:
                    // replay that skip over the chunk's bytes.
                    return Err(wf(
                        message,
                        skip_input_whitespace(&a.bytes, a.base.offset, start),
                    ));
                }
                RawEventKind::DoctypeDecl if self.root_seen => {
                    // Rejected at the `<` of `<!DOCTYPE`, like the
                    // sequential reader.
                    return Err(wf(
                        "DOCTYPE declaration after the root element has started",
                        start,
                    ));
                }
                _ => {}
            }
            self.last_pos = pos;
            self.current = CurrentEvent::Tape;
            return Ok(true);
        }
    }

    /// The kind of the event the last [`ShardedReader::advance`] produced
    /// (the same placeholders as [`ShardedReader::view`] outside a
    /// delivered event).
    pub fn kind(&self) -> RawEventKind {
        match self.current {
            CurrentEvent::Synthetic(kind) => kind,
            CurrentEvent::Tape => match self.active.as_ref() {
                Some(a) => a.shard.tape.kind(a.cursor - 1),
                None => RawEventKind::EndDocument,
            },
            CurrentEvent::None => RawEventKind::StartDocument,
        }
    }

    /// A zero-copy view of the event the last [`ShardedReader::advance`]
    /// produced: payloads borrow the shard's tape arena. After `advance`
    /// returned `Ok(false)` or an error, the view is a payload-free
    /// placeholder — never a panic.
    pub fn view(&self) -> RawEventRef<'_> {
        match self.current {
            CurrentEvent::Synthetic(kind) => RawEventRef::bare(kind),
            CurrentEvent::Tape => match self.active.as_ref() {
                Some(a) => a
                    .shard
                    .tape
                    .view(a.cursor - 1, SymbolRemap::new(self.seed_len, &a.remap)),
                // A terminal error already dropped the shard.
                None => RawEventRef::bare(RawEventKind::EndDocument),
            },
            CurrentEvent::None => RawEventRef::bare(RawEventKind::StartDocument),
        }
    }

    /// Appends the merged `scanner`/`reader` stages and the
    /// `shard_pipeline` timeline (one child stage per shard lane, in
    /// replay order) to `report`.
    pub fn report_into(&self, report: &mut RunReport) {
        let mut scanner = Stage::new("scanner");
        scanner.note("isa", flux_xml::active_isa_name());
        scanner.absorb(self.scan_tel.snapshot());
        report.stage(scanner);
        let mut reader = Stage::new("reader");
        reader.absorb(self.reader_tel.snapshot());
        report.stage(reader);
        let mut pipeline = Stage::new("shard_pipeline");
        pipeline.counter("shards", self.total_shards as u64);
        let mut totals = ShardLane::default();
        for lane in &self.lanes {
            totals.merge(lane);
        }
        pipeline.absorb(totals.snapshot());
        for (i, lane) in self.lanes.iter().enumerate() {
            let mut child = Stage::new(format!("shard_{i}"));
            child.absorb(lane.snapshot());
            pipeline.children.push(child);
        }
        report.stage(pipeline);
    }

    /// The completed per-shard timeline lanes (replay order). Empty until
    /// shards are exhausted — intended for tests and the report builder.
    pub fn lanes(&self) -> &[ShardLane] {
        &self.lanes
    }

    /// The merged scanner counters across exhausted shards.
    pub fn scan_telemetry(&self) -> ScanCounters {
        self.scan_tel
    }

    /// The merged reader counters across exhausted shards.
    pub fn reader_telemetry(&self) -> ReaderCounters {
        self.reader_tel
    }
}

impl EventSource for ShardedReader {
    fn advance(&mut self) -> Result<bool> {
        ShardedReader::advance(self)
    }

    fn kind(&self) -> RawEventKind {
        ShardedReader::kind(self)
    }

    fn view(&self) -> RawEventRef<'_> {
        ShardedReader::view(self)
    }

    fn symbols(&self) -> &SymbolTable {
        ShardedReader::symbols(self)
    }

    fn position(&self) -> Position {
        ShardedReader::position(self)
    }

    fn report_into(&self, report: &mut RunReport) {
        ShardedReader::report_into(self, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flux_xml::{collect_events, parse_to_events, XmlEvent, XmlReader};

    /// A sharded reader over `doc` with a chunk target of a `shards`-th of
    /// it, so even tiny unit-test documents shard.
    fn sharded(doc: &str, shards: usize) -> ShardedReader {
        let mut config = ShardConfig::new(shards);
        config.chunk_bytes = (doc.len() / shards).max(1);
        let src = std::io::Cursor::new(doc.as_bytes().to_vec());
        ShardedReader::from_stream(src, config, SymbolTable::new())
    }

    /// The delivered prefix and terminal error of the sequential reader.
    fn sequential_run(doc: &str) -> (Vec<XmlEvent>, Option<XmlError>) {
        collect_events(&mut XmlReader::new(doc.as_bytes()))
    }

    fn assert_equivalent(doc: &str, shards: usize) {
        let sequential = parse_to_events(doc).expect("sequential parse");
        let (events, err) = collect_events(&mut sharded(doc, shards));
        assert!(err.is_none(), "sharded parse: {err:?}");
        assert_eq!(sequential, events, "doc: {doc}, shards: {shards}");
    }

    /// The symbols of every start element named `name`, in stream order.
    fn start_symbols(reader: &mut ShardedReader, name: &str) -> Vec<Symbol> {
        let mut syms = Vec::new();
        while reader.advance().unwrap() {
            let v = reader.view();
            if v.kind() == RawEventKind::StartElement && reader.symbols().name(v.name()) == name {
                syms.push(v.name());
            }
        }
        syms
    }

    #[test]
    fn matches_sequential_events_small_docs() {
        let docs = [
            "<a/>",
            "<a><b>text</b><c/></a>",
            "<bib><book year=\"1994\"><title>T &amp; U</title></book><book/></bib>",
            "  <r>one<x/>two<y>three</y></r>  ",
            "<?xml version=\"1.0\"?><!DOCTYPE r [<!ELEMENT r ANY>]><r><s/></r>",
        ];
        for doc in docs {
            for shards in [1, 2, 3, 8] {
                assert_equivalent(doc, shards);
            }
        }
    }

    #[test]
    fn matches_sequential_on_deep_nesting_across_seams() {
        // Elements that straddle several shard boundaries.
        let mut doc = String::new();
        for i in 0..40 {
            doc.push_str(&format!("<d{i}>filler text to widen the chunk "));
        }
        for i in (0..40).rev() {
            doc.push_str(&format!("</d{i}>"));
        }
        for shards in [2, 3, 8] {
            assert_equivalent(&doc, shards);
        }
    }

    #[test]
    fn shard_count_reported_after_first_pull() {
        let doc = "<a>".to_string() + &"<b>x</b>".repeat(500) + "</a>";
        let mut reader = sharded(&doc, 4);
        assert_eq!(reader.shard_count(), 0);
        assert!(reader.advance().unwrap());
        assert_eq!(reader.shard_count(), 0, "chunks activate with content");
        assert!(reader.advance().unwrap());
        assert_eq!(reader.shard_count(), 1);
        while reader.advance().unwrap() {}
        assert_eq!(
            reader.shard_count(),
            cut_points(doc.as_bytes(), doc.len() / 4).len()
        );
        assert!(reader.shard_count() >= 4);
    }

    #[test]
    fn new_names_from_different_shards_merge_consistently() {
        // The same late name in two different shards must resolve to one
        // merged symbol even though the shard-local indices differ.
        let mut doc = String::from("<r>");
        doc.push_str(&"<common>x</common>".repeat(50));
        doc.push_str("<zeta/>");
        doc.push_str(&"<common>x</common>".repeat(50));
        doc.push_str("<zeta/>");
        doc.push_str("</r>");
        let zeta_syms = start_symbols(&mut sharded(&doc, 3), "zeta");
        assert_eq!(zeta_syms.len(), 2);
        assert_eq!(zeta_syms[0], zeta_syms[1], "one merged symbol per name");
    }

    #[test]
    fn seeded_symbols_are_preserved() {
        let mut seed = SymbolTable::new();
        let book = seed.intern("book");
        let src = std::io::Cursor::new(b"<book/>".to_vec());
        let mut reader = ShardedReader::from_stream(src, ShardConfig::new(2), seed);
        assert_eq!(start_symbols(&mut reader, "book"), vec![book]);
    }

    #[test]
    fn errors_match_sequential_verdicts() {
        let bad_docs = [
            "<a><b></a></b>",    // mismatched
            "<a><b></b>",        // unclosed root
            "<a/><b/>",          // multiple roots
            "hello<a/>",         // text before root
            "<a/>hello",         // text after root
            "",                  // empty
            "&#32;<a/>",         // charref whitespace before root
            "<a/>&#x20;",        // charref whitespace after root
            "<![CDATA[ ]]><a/>", // CDATA whitespace before root
            "<a/><![CDATA[]]>",  // CDATA after root
        ];
        for doc in bad_docs {
            assert!(parse_to_events(doc).is_err(), "sequential accepts {doc:?}");
            for shards in [1, 2, 3] {
                assert!(
                    collect_events(&mut sharded(doc, shards)).1.is_some(),
                    "sharded ({shards}) accepts {doc:?}"
                );
            }
        }
    }

    #[test]
    fn error_is_terminal_then_eof() {
        let mut reader = sharded("<a></b>", 2);
        assert!(collect_events(&mut reader).1.is_some());
        assert!(!reader.advance().unwrap());
    }

    /// Asserts that the sharded partial event stream and terminal error
    /// (message *and* position) are byte-exact the sequential reader's,
    /// at several shard counts.
    fn assert_prefix_and_error_match(doc: &str) {
        let (seq_events, seq_err) = sequential_run(doc);
        let seq_err = seq_err.expect("sequential must reject");
        for shards in [1, 2, 3, 8] {
            let (events, err) = collect_events(&mut sharded(doc, shards));
            let err = err.expect("sharded must reject");
            assert_eq!(
                events, seq_events,
                "partial stream diverged ({shards} shards)"
            );
            assert_eq!(
                err.to_string(),
                seq_err.to_string(),
                "error (incl. position) diverged ({shards} shards)"
            );
        }
    }

    /// The valid prefix is streamed before the error — the sequential
    /// delivery order — and the error position (offset, line, column) is
    /// exactly the sequential reader's.
    #[test]
    fn error_position_and_prefix_match_sequential() {
        // A mismatch deep in the document, behind a newline so line/column
        // composition is exercised.
        let mut doc = String::from("<r>\n");
        for i in 0..40 {
            doc.push_str(&format!("<x{i}>text {i}</x{i}>\n"));
        }
        doc.push_str("<y></z></r>");
        assert_prefix_and_error_match(&doc);
    }

    /// Input truncated in the middle of a text run: the sequential reader
    /// raises the unclosed-elements error *without* delivering the run,
    /// and the sharded replay must do the same (the fragment worker
    /// delivers it, because more input could have followed — the merger
    /// suppresses it at real end-of-input).
    #[test]
    fn truncated_inside_text_matches_sequential_prefix() {
        let mut doc = String::from("<r>");
        for i in 0..30 {
            doc.push_str(&format!("<x{i}>text {i}</x{i}>"));
        }
        doc.push_str("<open>trailing text with no close");
        assert_prefix_and_error_match(&doc);
        // Whitespace-only trailing run, same rule.
        let mut doc = String::from("<r>");
        for i in 0..30 {
            doc.push_str(&format!("<x{i}>text {i}</x{i}>"));
        }
        doc.push_str("<open>   ");
        assert_prefix_and_error_match(&doc);
    }

    /// A text run terminated by a *suppressed* construct (comment, PI)
    /// before end-of-input is a complete run the sequential reader
    /// delivers — the EOF suppression must not swallow it even though it
    /// is the last event on the final shard's tape.
    #[test]
    fn trailing_text_before_suppressed_markup_is_delivered() {
        for tail in ["<!-- a comment -->", "<?pi data?>"] {
            let mut doc = String::from("<r>");
            for i in 0..30 {
                doc.push_str(&format!("<x{i}>text {i}</x{i}>"));
            }
            doc.push_str("<open>trailing text");
            doc.push_str(tail);
            assert_prefix_and_error_match(&doc);
        }
    }

    // ---- small chunks, short segments ----

    /// A config tightened so unit-test documents exercise many chunks and
    /// many segments per chunk.
    fn tight_stream_config(shards: usize) -> ShardConfig {
        let mut config = ShardConfig::new(shards);
        config.chunk_bytes = 4 * 1024;
        config.segment_events = 7;
        config.segment_queue = 2;
        config
    }

    fn streamed_run(doc: &str, config: ShardConfig) -> (Vec<XmlEvent>, Option<XmlError>) {
        let src = std::io::Cursor::new(doc.as_bytes().to_vec());
        collect_events(&mut ShardedReader::from_stream(
            src,
            config,
            SymbolTable::new(),
        ))
    }

    /// A document large enough to stream through several chunks, with
    /// late names, entities, comments and a multi-line shape.
    fn streaming_doc() -> String {
        let mut doc = String::from("<?xml version=\"1.0\"?>\n<bib>\n");
        for i in 0..800 {
            doc.push_str(&format!(
                "<book year=\"19{:02}\"><title>T {i} &amp; U</title><!-- note --><price>{i}.50</price></book>\n",
                i % 100
            ));
        }
        doc.push_str("</bib>\n");
        doc
    }

    #[test]
    fn streamed_matches_sequential_events() {
        let doc = streaming_doc();
        let sequential = parse_to_events(&doc).expect("sequential parse");
        for shards in [1, 2, 8] {
            let (events, err) = streamed_run(&doc, tight_stream_config(shards));
            assert!(err.is_none(), "streamed run errored: {err:?}");
            assert_eq!(sequential, events, "shards: {shards}");
        }
    }

    #[test]
    fn tight_chunks_match_sequential_on_small_docs() {
        let docs = [
            "<a/>",
            "<a><b>text</b><c/></a>",
            "  <r>one<x/>two<y>three</y></r>  ",
            "<?xml version=\"1.0\"?><!DOCTYPE r [<!ELEMENT r ANY>]><r><s/></r>",
        ];
        for doc in docs {
            let sequential = parse_to_events(doc).expect("sequential parse");
            let (events, err) = streamed_run(doc, tight_stream_config(2));
            assert!(err.is_none(), "doc {doc:?}: {err:?}");
            assert_eq!(sequential, events, "doc: {doc:?}");
        }
    }

    /// Streamed partial stream + terminal error (message *and* position)
    /// are byte-exact the sequential reader's.
    fn assert_streamed_prefix_and_error_match(doc: &str) {
        let (seq_events, seq_err) = sequential_run(doc);
        let seq_err = seq_err.expect("sequential must reject");
        for shards in [1, 2, 8] {
            let (events, err) = streamed_run(doc, tight_stream_config(shards));
            let err = err.expect("streamed must reject");
            assert_eq!(events, seq_events, "partial stream diverged ({shards})");
            assert_eq!(
                err.to_string(),
                seq_err.to_string(),
                "error (incl. position) diverged ({shards} shards)"
            );
        }
    }

    #[test]
    fn streamed_errors_match_sequential() {
        // Small documents: single chunk, but the full epilog/prolog paths.
        for doc in [
            "<a><b></a></b>",
            "<a/><b/>",
            "hello<a/>",
            "<a/>hello",
            "",
            "&#32;<a/>",
            "<a/>&#x20;",
        ] {
            assert_streamed_prefix_and_error_match(doc);
        }
        // A deep error behind many chunks and newlines.
        let mut doc = String::from("<r>\n");
        for i in 0..600 {
            doc.push_str(&format!("<x{i}>text {i} padding padding padding</x{i}>\n"));
        }
        doc.push_str("<y></z></r>");
        assert_streamed_prefix_and_error_match(&doc);
    }

    /// Input truncated inside a trailing text run: the merger must
    /// suppress the run at real end-of-input — including when the run is
    /// the last event of a *non-final* segment (the lookahead path).
    #[test]
    fn streamed_truncated_text_matches_sequential() {
        for filler in [30, 600] {
            let mut doc = String::from("<r>");
            for i in 0..filler {
                doc.push_str(&format!("<x{i}>text {i}</x{i}>"));
            }
            doc.push_str("<open>trailing text with no close");
            assert_streamed_prefix_and_error_match(&doc);
        }
        // And a *delivered* trailing run before suppressed markup.
        let mut doc = String::from("<r>");
        for i in 0..600 {
            doc.push_str(&format!("<x{i}>text {i}</x{i}>"));
        }
        doc.push_str("<open>trailing text<!-- a comment -->");
        assert_streamed_prefix_and_error_match(&doc);
    }

    #[test]
    fn streamed_budget_tracks_all_pools() {
        let doc = streaming_doc();
        let budget = flux_xml::MemoryBudget::new(64 * 1024 * 1024);
        let mut config = tight_stream_config(2);
        config.reader.budget = Some(Arc::clone(&budget));
        let (events, err) = streamed_run(&doc, config);
        assert!(err.is_none(), "{err:?}");
        assert!(!events.is_empty());
        assert!(
            budget.peak(flux_xml::BudgetKind::Chunk) > 0,
            "chunk pool untracked"
        );
        assert!(
            budget.peak(flux_xml::BudgetKind::Tape) > 0,
            "tape pool untracked"
        );
        assert!(
            budget.peak(flux_xml::BudgetKind::Window) > 0,
            "window pool untracked"
        );
        assert!(budget.peak_total() >= budget.peak(flux_xml::BudgetKind::Chunk));
        budget.check().expect("well under the limit");
        // All charges released: nothing outlives the run.
        for kind in flux_xml::BudgetKind::all() {
            assert_eq!(budget.current(kind), 0, "leaked charge in {}", kind.name());
        }
    }

    #[test]
    fn streamed_seeded_symbols_are_preserved() {
        let mut seed = SymbolTable::new();
        let book = seed.intern("book");
        let doc = streaming_doc();
        let src = std::io::Cursor::new(doc.into_bytes());
        let mut reader = ShardedReader::from_stream(src, tight_stream_config(2), seed);
        let seen = start_symbols(&mut reader, "book");
        assert!(!seen.is_empty() && seen.iter().all(|&s| s == book));
        assert!(reader.shard_count() > 1, "doc should span several chunks");
    }

    /// An I/O failure mid-stream surfaces as a terminal error after the
    /// prefix parsed so far.
    #[test]
    fn streamed_io_error_is_terminal() {
        struct FailAfter {
            data: std::io::Cursor<Vec<u8>>,
        }
        impl Read for FailAfter {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                let n = self.data.read(buf)?;
                if n == 0 {
                    return Err(std::io::Error::other("link dropped"));
                }
                Ok(n)
            }
        }
        let mut doc = String::from("<r>");
        for i in 0..600 {
            doc.push_str(&format!("<x{i}>text {i}</x{i}>"));
        }
        // No closing tag: EOF would also error, but the I/O failure wins.
        let src = FailAfter {
            data: std::io::Cursor::new(doc.into_bytes()),
        };
        let mut reader =
            ShardedReader::from_stream(src, tight_stream_config(2), SymbolTable::new());
        let err = collect_events(&mut reader)
            .1
            .expect("must surface the I/O error");
        assert!(
            matches!(err, XmlError::Io(_)),
            "expected an I/O error, got {err}"
        );
        assert!(!reader.advance().unwrap(), "error is terminal");
    }
}
