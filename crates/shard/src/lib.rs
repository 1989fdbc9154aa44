//! # flux_shard
//!
//! A parallel sharded streaming pipeline for multi-core event throughput.
//!
//! The FluXQuery stack treats the event stream as a single sequential
//! source; this crate parallelises the expensive part — parsing — while
//! keeping every consumer-visible property of the sequential reader:
//!
//! 1. **Split.** [`splitter::split_points`] scans the input buffer with
//!    the SWAR kernel and places chunk boundaries on safe element-tag `<`
//!    positions (never inside comments, CDATA, PIs or DOCTYPEs). Because
//!    boundaries sit on element tags, no token or text run ever straddles
//!    a seam.
//! 2. **Parse.** One fragment-mode [`flux_xml::XmlReader`] per chunk runs
//!    on its own `std::thread`, each seeded with a clone of the shared
//!    [`SymbolTable`] (clones preserve indices, so symbols agree across
//!    shards without renaming). Each worker records its chunk onto a
//!    [`flux_xml::EventTape`] — every payload byte materialised exactly
//!    once — and hands the finished tape to the consumer through a
//!    bounded channel *as soon as it is done*.
//! 3. **Replay, pipelined.** [`ShardedReader::advance`] replays shard
//!    *i*'s tape while workers are still parsing shards *i+1..N* — so
//!    XSAX validation and query evaluation overlap parsing instead of
//!    waiting behind a join barrier. Replay is **zero-copy**:
//!    [`ShardedReader::view`] serves
//!    [`RawEventRef`] views whose payloads borrow the tape arena, so the
//!    serial per-event term that bounded speedup at `1/(1/N + r)` is span
//!    arithmetic, not a byte copy.
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
//! Two ingestion modes share the replay machinery:
//!
//! * **Buffered** ([`ShardedReader::new`]): the input is a byte buffer,
//!   split up-front by [`splitter::split_points`] into exactly N chunks.
//!   Memory is the whole buffer plus up to N in-flight tapes — maximal
//!   throughput when the bytes are already resident.
//! * **Streamed** ([`ShardedReader::from_stream`]): the input is an
//!   unbounded `Read`. A dispatcher thread cuts it incrementally at the
//!   same safe boundaries (`splitter::find_boundary`) and a worker pool
//!   parses chunks as they arrive, handing tapes over in *segments* of
//!   [`ShardConfig::segment_events`] events. Every pool is bounded —
//!   O(workers) chunks and O(segment × queue × workers) tape bytes in
//!   flight — so multi-gigabyte documents stream through in constant
//!   memory, optionally enforced by a [`flux_xml::MemoryBudget`]. The
//!   replayed event stream, verdicts and error positions are byte-exact
//!   the buffered (and sequential) ones.

pub mod splitter;
mod stream;
mod worker;

use flux_symbols::{Symbol, SymbolTable};
use flux_telemetry::{
    Journal, ReaderCounters, RunReport, ScanCounters, ShardLane, Stage, Stopwatch,
};
use flux_xml::{
    BudgetCharge, EventSource, Position, RawEventKind, RawEventRef, ReaderConfig, Result,
    SymbolRemap, XmlError,
};
use std::collections::BTreeMap;
use std::io::Read;
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::Arc;
use stream::{start_stream, ChunkMsg, StreamLaunch};
use worker::{parse_fragment, Segment, ShardTape};

/// Configuration for [`ShardedReader`].
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Requested number of shards. The effective count may be lower when
    /// the input is small ([`ShardConfig::min_shard_bytes`]) or offers too
    /// few safe boundaries; `1` degenerates to a sequential fragment parse.
    pub shards: usize,
    /// The reader configuration every fragment reader runs with, and the
    /// document-level rules replay re-checks on the merged stream:
    /// [`ReaderConfig::max_depth`] is enforced globally at replay exactly
    /// like the sequential reader enforces it; [`ReaderConfig::window`]
    /// sizes each fragment scanner; [`ReaderConfig::budget`] is shared by
    /// every pool the pipeline grows (fragment scanner windows, in-flight
    /// streamed chunks and tape segments). [`ReaderConfig::max_symbols`]
    /// caps the **merged** symbol table: workers intern unboundedly —
    /// their tables are bounded by chunk content and die with the shard —
    /// but the long-lived consumer table stops growing at the cap, and
    /// merged names past it travel as [`SymbolTable::OVERFLOW`] plus the
    /// literal spelling, exactly like the sequential reader's bounded
    /// mode. [`ReaderConfig::fragment`] is ignored (workers always parse
    /// fragments).
    pub reader: ReaderConfig,
    /// Do not split below this many bytes per shard; tiny inputs are not
    /// worth the thread fan-out.
    pub min_shard_bytes: usize,
    /// Streamed mode only: target chunk size in bytes. Chunks extend past
    /// the target to the next safe element-tag boundary.
    pub chunk_bytes: usize,
    /// Streamed mode only: workers hand over a partial tape every this
    /// many events, bounding in-flight tape memory by
    /// O(`segment_events` × [`ShardConfig::segment_queue`] × shards)
    /// instead of chunk size.
    pub segment_events: usize,
    /// Streamed mode only: workers also flush a partial tape once its
    /// arena reaches this many bytes, so payload-heavy content (long
    /// text runs, fat attributes) cannot inflate the per-segment
    /// footprint past the event-count bound's assumptions — the
    /// in-flight tape pool is bounded in *bytes*, not just events.
    pub segment_bytes: usize,
    /// Streamed mode only: per-chunk bound on segments parsed ahead of
    /// replay; the worker blocks once the consumer lags this far behind.
    pub segment_queue: usize,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig::new(
            std::thread::available_parallelism()
                .map(|n| n.get().min(8))
                .unwrap_or(4),
        )
    }
}

impl ShardConfig {
    /// A configuration requesting `shards` parallel shards.
    pub fn new(shards: usize) -> Self {
        ShardConfig {
            shards: shards.max(1),
            reader: ReaderConfig::default(),
            min_shard_bytes: 16 * 1024,
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
            max_symbols: None,
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

/// Where the bytes come from: a resident buffer split up-front, or an
/// unbounded stream chunked incrementally.
enum SourceKind {
    Buffered(Arc<Vec<u8>>),
    /// `Some` until the first pull launches the pipeline and hands the
    /// reader to the dispatcher thread.
    Stream(Option<Box<dyn Read + Send>>),
}

/// The shard currently being replayed. Buffered mode replays one tape per
/// chunk; streamed mode replays a *chain* of tape segments per chunk,
/// installing the next link when the current one is exhausted.
struct ActiveShard {
    /// The current tape: the whole chunk (buffered) or one segment
    /// (streamed).
    shard: ShardTape,
    /// Merged-table symbols for chunk-local indices past the seed prefix —
    /// cumulative across the chunk's segments.
    remap: Vec<Symbol>,
    /// Literal spellings behind `remap`, same cumulative indexing (the
    /// side channel overflowed symbols resolve through at view time).
    cum_names: Vec<String>,
    /// Global position of this chunk's first byte.
    base: Position,
    /// Replay cursor into the current tape.
    cursor: usize,
    /// Epoch-relative instant replay of this chunk began.
    activated_at_ns: u64,
    /// Whether no chunk follows this one — drives the end-of-input
    /// re-checks (trailing-text suppression).
    is_final_chunk: bool,
    // Streamed-only state (inert in buffered mode).
    /// The chunk's remaining segment chain.
    seg_rx: Option<Receiver<Segment>>,
    /// The current tape is the chunk's last segment (always true in
    /// buffered mode).
    seg_last: bool,
    /// The chunk's bytes, for the whitespace-skip error replay.
    bytes: Option<Arc<Vec<u8>>>,
    /// One segment received ahead of replay (end-of-input lookahead).
    pending_seg: Option<Segment>,
    /// Budget charge for the chunk buffer; released at chunk end.
    #[allow(dead_code)] // held for its Drop
    charge: Option<BudgetCharge>,
    /// Budget charge for the current segment's tape; released on handover.
    #[allow(dead_code)] // held for its Drop
    tape_charge: Option<BudgetCharge>,
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

/// A parallel drop-in for [`flux_xml::XmlReader`] over an in-memory
/// document: same [`EventSource`] pull contract, same event sequence, same
/// verdicts and error positions — parsed by N threads.
///
/// The first [`ShardedReader::advance`] splits the input and launches the
/// workers; every later advance replays the next tape event (zero-copy)
/// and re-checks the document-level rules. The consumer streams shard *i*
/// while shards *i+1..N* are still parsing, so on invalid input the valid
/// prefix is delivered first and the error surfaces at the same stream point — and,
/// thanks to per-event recorded positions, with the same offset, line and
/// column — as the sequential reader's. Errors are terminal: after
/// returning one, the reader reports end of stream.
pub struct ShardedReader {
    input: SourceKind,
    config: ShardConfig,
    symbols: SymbolTable,
    seed_len: usize,
    started: bool,
    total_shards: usize,
    /// Buffered mode: live while workers may still deliver tapes.
    rx: Option<Receiver<(usize, ShardTape)>>,
    /// Streamed mode: the dispatcher's dispatch-ordered chunk stream.
    chunk_rx: Option<Receiver<ChunkMsg>>,
    /// Tapes that arrived ahead of replay order.
    parked: BTreeMap<usize, ShardTape>,
    /// Index of the next shard to replay.
    next_shard: usize,
    active: Option<ActiveShard>,
    /// Global position where the next chunk starts.
    chunk_base: Position,
    // Replay state: the document-level rules the fragments relaxed.
    emitted_start: bool,
    finished: bool,
    /// Open elements across the whole document — replay re-checks tag
    /// balance exactly like the sequential reader, at the same events.
    stack: Vec<Symbol>,
    /// Literal names of open elements whose merged symbol is
    /// [`SymbolTable::OVERFLOW`] (bounded merged table), innermost last —
    /// mirrors the sequential reader's overflow stack so two overflowed
    /// names only balance when their spellings agree.
    overflow_stack: Vec<String>,
    /// Recycled literal side-channel buffers: every overflowed name event
    /// fills a pooled `String` instead of allocating, and balanced pairs
    /// return both buffers. Bounded by the deepest concurrent overflow
    /// nesting, so bounded+sharded streams stop paying one allocation per
    /// overflowed tag.
    spare_literals: Vec<String>,
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
    /// Pipeline lifecycle journal (activations, exhaustions).
    journal: Journal,
}

const START_POS: Position = Position {
    offset: 0,
    line: 1,
    column: 1,
};

impl ShardedReader {
    /// Creates a sharded reader over a resident buffer (a `Vec<u8>`, or an
    /// already-shared `Arc<Vec<u8>>` taken without a copy) whose interner
    /// is seeded with `symbols` — the sharded analogue of
    /// [`flux_xml::XmlReader::with_symbols`]. Seed with
    /// `flux_xsax::seeded_symbols(&dtd)` to feed `XsaxParser::from_source`,
    /// or with `SymbolTable::new()` for a bare parse.
    pub fn new(input: impl Into<Arc<Vec<u8>>>, config: ShardConfig, symbols: SymbolTable) -> Self {
        Self::build(SourceKind::Buffered(input.into()), config, symbols)
    }

    /// Creates a sharded reader over an unbounded byte stream — streamed
    /// ingestion ([`crate`] docs): constant memory regardless of document
    /// size, same event stream, verdicts and error positions as the
    /// buffered and sequential paths. `symbols` seeds the interner as in
    /// [`ShardedReader::new`].
    pub fn from_stream(
        src: impl Read + Send + 'static,
        config: ShardConfig,
        symbols: SymbolTable,
    ) -> Self {
        Self::build(SourceKind::Stream(Some(Box::new(src))), config, symbols)
    }

    fn build(input: SourceKind, config: ShardConfig, symbols: SymbolTable) -> Self {
        let seed_len = symbols.len();
        ShardedReader {
            input,
            config,
            symbols,
            seed_len,
            started: false,
            total_shards: 0,
            rx: None,
            chunk_rx: None,
            parked: BTreeMap::new(),
            next_shard: 0,
            active: None,
            chunk_base: START_POS,
            emitted_start: false,
            finished: false,
            stack: Vec::new(),
            overflow_stack: Vec::new(),
            spare_literals: Vec::new(),
            root_seen: false,
            root_done: false,
            last_pos: START_POS,
            current: CurrentEvent::None,
            epoch: Stopwatch::start(),
            lanes: Vec::new(),
            scan_tel: ScanCounters::default(),
            reader_tel: ReaderCounters::default(),
            journal: Journal::default(),
        }
    }

    /// The shared symbol table: seed symbols plus every name the shards
    /// encountered, re-interned into one namespace (merged shard by shard
    /// as replay reaches them).
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// Number of shards actually used: the up-front chunk count (buffered)
    /// or the chunks dispatched so far (streamed). Zero until the first
    /// pull (the parallel parse launches lazily).
    pub fn shard_count(&self) -> usize {
        self.total_shards
    }

    /// The recorded source position of the most recently delivered event —
    /// exactly the position the sequential reader would report at the same
    /// point in the stream (offset, line and column).
    pub fn position(&self) -> Position {
        self.last_pos
    }

    /// Splits the input, launches one parsing thread per chunk `1..N`, and
    /// parses chunk `0` on the current thread — the consumer cannot replay
    /// anything before chunk 0's tape exists, so parsing it inline wastes
    /// no overlap (and a single-shard run stays thread- and channel-free).
    /// Workers send finished tapes over a channel sized to the shard
    /// count, so no worker ever blocks on a slow consumer.
    fn start_workers(&mut self) {
        self.started = true;
        let buf = match &self.input {
            SourceKind::Buffered(b) => Arc::clone(b),
            SourceKind::Stream(_) => unreachable!("buffered launch on a streamed source"),
        };
        let max_by_size = (buf.len() / self.config.min_shard_bytes.max(1)).max(1);
        let requested = self.config.shards.clamp(1, max_by_size);
        let points = splitter::split_points(&buf, requested);
        self.total_shards = points.len();
        // The epoch starts when the pipeline does; telemetry stores are
        // preallocated here, before any replay, so the steady state
        // allocates nothing.
        self.epoch = Stopwatch::start();
        self.lanes = Vec::with_capacity(self.total_shards);
        self.journal = Journal::with_capacity(2 * self.total_shards + 2);
        let reader_config = self.config.reader_config();
        let (tx, rx) = sync_channel(points.len());
        for (i, &start) in points.iter().enumerate().skip(1) {
            let end = points.get(i + 1).copied().unwrap_or(buf.len());
            let input = Arc::clone(&buf);
            let seed = self.symbols.clone();
            let cfg = reader_config.clone();
            let tx = tx.clone();
            let epoch = self.epoch;
            std::thread::spawn(move || {
                let tape = parse_fragment(&input[start..end], &cfg, &seed, epoch);
                // The consumer may have been dropped; parsing work is
                // simply discarded then.
                let _ = tx.send((i, tape));
            });
        }
        drop(tx);
        self.rx = Some(rx);
        let end = points.get(1).copied().unwrap_or(buf.len());
        let tape0 = parse_fragment(&buf[..end], &reader_config, &self.symbols, self.epoch);
        self.parked.insert(0, tape0);
    }

    /// Launches the streamed pipeline: dispatcher + worker pool
    /// ([`stream::start_stream`]). Chunk count is unknown up front;
    /// `total_shards` grows as chunks are activated.
    fn start_streaming(&mut self, source: Box<dyn Read + Send>) {
        self.started = true;
        self.total_shards = 0;
        self.epoch = Stopwatch::start();
        self.lanes = Vec::new();
        self.journal = Journal::with_capacity(16);
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

    /// Blocks until shard `index`'s tape is available. Out-of-order
    /// arrivals are parked.
    ///
    /// Telemetry: the blocking-receive time is charged to the requested
    /// shard's lane, and the channel-dwell span (tape ready → this pickup)
    /// is stamped from the shared epoch.
    fn take_shard(&mut self, index: usize) -> ShardTape {
        let wait = Stopwatch::start();
        let mut stalls = 0u64;
        loop {
            if let Some(mut tape) = self.parked.remove(&index) {
                tape.lane.recv_stall_ns = wait.elapsed_ns();
                tape.lane.recv_stalls = stalls;
                tape.lane.dwell_ns = self.epoch.elapsed_ns().saturating_sub(tape.ready_at_ns);
                return tape;
            }
            match self.rx.as_ref().map(|rx| rx.recv()) {
                Some(Ok((i, tape))) => {
                    stalls += 1;
                    self.parked.insert(i, tape);
                }
                // All senders gone yet the shard never arrived: a worker
                // died without delivering.
                _ => panic!("shard worker panicked"),
            }
        }
    }

    /// Interns chunk-local names into the merged namespace (bounded when
    /// [`ReaderConfig::max_symbols`] caps the table).
    fn merge_names(&mut self, names: &[String]) -> Vec<Symbol> {
        names
            .iter()
            .map(|n| match self.config.reader.max_symbols {
                None => self.symbols.intern(n),
                Some(cap) => self.symbols.intern_bounded(n, cap),
            })
            .collect()
    }

    /// Buffered activation: takes the next up-front chunk's tape. Returns
    /// `false` when every chunk has been replayed.
    fn activate_buffered(&mut self) -> bool {
        if self.next_shard >= self.total_shards {
            return false;
        }
        let mut shard = self.take_shard(self.next_shard);
        self.journal
            .record("shard_activated", self.next_shard as u64);
        self.next_shard += 1;
        let is_final_chunk = self.next_shard >= self.total_shards;
        let cum_names = std::mem::take(&mut shard.new_names);
        let remap = self.merge_names(&cum_names);
        self.active = Some(ActiveShard {
            shard,
            remap,
            cum_names,
            base: self.chunk_base,
            cursor: 0,
            activated_at_ns: self.epoch.elapsed_ns(),
            is_final_chunk,
            seg_rx: None,
            seg_last: true,
            bytes: None,
            pending_seg: None,
            charge: None,
            tape_charge: None,
        });
        true
    }

    /// Streamed activation: receives the next chunk handle (in dispatch
    /// order) and its first tape segment. Returns `false` at end of input;
    /// an I/O error from the byte source is terminal.
    fn activate_streamed(&mut self) -> Result<bool> {
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
                self.finished = true;
                return Err(e.into());
            }
            Ok(ChunkMsg::Chunk(handle)) => handle,
        };
        let mut seg = handle
            .seg_rx
            .recv()
            .unwrap_or_else(|_| panic!("shard worker panicked"));
        self.journal
            .record("shard_activated", self.next_shard as u64);
        self.next_shard += 1;
        self.total_shards += 1;
        let cum_names = std::mem::take(&mut seg.tape.new_names);
        let remap = self.merge_names(&cum_names);
        self.active = Some(ActiveShard {
            shard: seg.tape,
            remap,
            cum_names,
            base: self.chunk_base,
            cursor: 0,
            activated_at_ns: self.epoch.elapsed_ns(),
            is_final_chunk: handle.is_final,
            seg_rx: Some(handle.seg_rx),
            seg_last: seg.last,
            bytes: Some(handle.bytes),
            pending_seg: None,
            charge: handle.charge,
            tape_charge: seg.charge,
        });
        Ok(true)
    }

    /// Installs the next link of a streamed chunk's segment chain: extends
    /// the cumulative remap with the segment's incremental names and swaps
    /// the tapes (releasing the replayed segment's budget charge).
    fn install_next_segment(&mut self) {
        let mut a = self.active.take().expect("active shard ensured");
        let mut seg = a.pending_seg.take().unwrap_or_else(|| {
            a.seg_rx
                .as_ref()
                .expect("streamed chunk has a segment channel")
                .recv()
                .unwrap_or_else(|_| panic!("shard worker panicked"))
        });
        let incremental = std::mem::take(&mut seg.tape.new_names);
        let mut merged = self.merge_names(&incremental);
        a.remap.append(&mut merged);
        a.cum_names.extend(incremental);
        a.shard = seg.tape;
        a.seg_last = seg.last;
        a.tape_charge = seg.charge;
        a.cursor = 0;
        self.active = Some(a);
    }

    fn wf(&self, message: impl Into<String>, pos: Position) -> XmlError {
        XmlError::WellFormedness {
            message: message.into(),
            pos,
        }
    }

    /// Advances `pos` over literal whitespace in the original input with
    /// the sequential scanner's accounting — the skip the prolog/epilog
    /// state performs before rejecting top-level character data. Replaying
    /// it here keeps the merger's error byte-exact even when the offending
    /// text run starts with whitespace (or whitespace produced by entities,
    /// which the scanner does *not* skip: only literal bytes qualify).
    fn skip_input_whitespace(&self, mut pos: Position) -> Position {
        // Buffered mode indexes the whole input at the global offset;
        // streamed mode indexes the active chunk's bytes (safe: text runs
        // never straddle chunk seams, so the run ends inside the chunk).
        let (bytes, chunk_start): (&[u8], u64) = match &self.input {
            SourceKind::Buffered(buf) => (buf, 0),
            SourceKind::Stream(_) => match self.active.as_ref() {
                Some(a) => match a.bytes.as_deref() {
                    Some(b) => (b, a.base.offset),
                    None => return pos,
                },
                None => return pos,
            },
        };
        while let Some(&b) = bytes.get((pos.offset - chunk_start) as usize) {
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

    /// Advances to the next replayed event — the zero-copy pull API. The
    /// first call launches the parallel parse.
    pub fn advance(&mut self) -> Result<bool> {
        if self.finished {
            return Ok(false);
        }
        if !self.started {
            let src = match &mut self.input {
                SourceKind::Buffered(_) => None,
                SourceKind::Stream(s) => Some(s.take().expect("stream launched once")),
            };
            match src {
                None => self.start_workers(),
                Some(s) => self.start_streaming(s),
            }
        }
        if !self.emitted_start {
            self.emitted_start = true;
            self.current = CurrentEvent::Synthetic(RawEventKind::StartDocument);
            return Ok(true);
        }
        loop {
            if self.active.is_none() {
                let activated = match &self.input {
                    SourceKind::Buffered(_) => self.activate_buffered(),
                    SourceKind::Stream(_) => self.activate_streamed()?,
                };
                if !activated {
                    // End of the tape: the epilog checks.
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
                }
            }

            // Tape exhausted: chain to the chunk's next segment (streamed),
            // or surface the chunk's terminal error (after its valid
            // prefix — the sequential delivery order) and move to the next
            // chunk.
            let (exhausted, chained) = {
                let a = self.active.as_ref().expect("active shard ensured");
                let ex = a.cursor >= a.shard.tape.len();
                (ex, ex && !a.seg_last)
            };
            if chained {
                self.install_next_segment();
                continue;
            }
            if exhausted {
                let mut a = self.active.take().expect("active shard ensured");
                // Close this shard's lane: replay span, then fold its
                // counters into the pipeline totals (merge-at-join).
                a.shard.lane.replay_ns = self.epoch.elapsed_ns().saturating_sub(a.activated_at_ns);
                self.scan_tel.merge(&a.shard.scan);
                self.reader_tel.merge(&a.shard.reader);
                self.lanes.push(a.shard.lane);
                self.journal
                    .record("shard_exhausted", (self.next_shard - 1) as u64);
                if let Some(err) = a.shard.error.take() {
                    self.finished = true;
                    return Err(compose_error(err, a.base));
                }
                self.chunk_base = compose(a.base, a.shard.end_pos);
                continue;
            }

            let (i, kind, pos, start, name, mut literal) = {
                let a = self.active.as_mut().expect("active shard ensured");
                let i = a.cursor;
                a.cursor += 1;
                let kind = a.shard.tape.kind(i);
                // Resolved lazily enough: only element events use it.
                let name = SymbolRemap::new(self.seed_len, &a.remap).resolve(a.shard.tape.name(i));
                // An element name the bounded merged table overflowed: its
                // literal spelling (the view's side channel) feeds the
                // balance check and error messages below.
                let literal = if name == SymbolTable::OVERFLOW
                    && matches!(kind, RawEventKind::StartElement | RawEventKind::EndElement)
                {
                    let v = a.shard.tape.view(
                        i,
                        SymbolRemap::with_names(self.seed_len, &a.remap, &a.cum_names),
                    );
                    let mut buf = self.spare_literals.pop().unwrap_or_default();
                    buf.clear();
                    buf.push_str(v.target());
                    Some(buf)
                } else {
                    None
                };
                (
                    i,
                    kind,
                    compose(a.base, a.shard.tape.position(i)),
                    compose(a.base, a.shard.tape.start_position(i)),
                    name,
                    literal,
                )
            };
            // Re-check the document-level rules the fragment readers
            // relaxed, at exactly the event where the sequential reader
            // checks them.
            match kind {
                RawEventKind::StartElement | RawEventKind::EndElement => {
                    if kind == RawEventKind::StartElement {
                        if self.stack.is_empty() && self.root_done {
                            self.finished = true;
                            // The sequential reader rejects a second root
                            // before consuming any of its tag: error at the
                            // construct's first byte.
                            return Err(self.wf("multiple root elements", start));
                        }
                        if self.stack.len() >= self.config.reader.max_depth {
                            self.finished = true;
                            let message = format!(
                                "element nesting deeper than the configured limit of {}",
                                self.config.reader.max_depth
                            );
                            return Err(self.wf(message, pos));
                        }
                        if name == SymbolTable::OVERFLOW {
                            self.overflow_stack.push(literal.take().unwrap_or_default());
                        }
                        self.stack.push(name);
                        self.root_seen = true;
                    } else {
                        // Global tag balance, checked at the end tag just
                        // like the sequential reader. Two overflowed names
                        // only match when their literal spellings agree.
                        let found = literal.as_deref();
                        match self.stack.pop() {
                            Some(open) if open == name => {
                                if name == SymbolTable::OVERFLOW {
                                    let open_lit =
                                        self.overflow_stack.pop().expect("overflow name on stack");
                                    let found = found.unwrap_or_default();
                                    if open_lit != found {
                                        self.finished = true;
                                        let message = format!(
                                            "mismatched end tag: expected </{open_lit}>, found </{found}>"
                                        );
                                        return Err(self.wf(message, pos));
                                    }
                                    self.spare_literals.push(open_lit);
                                }
                            }
                            Some(open) => {
                                self.finished = true;
                                let open_name = if open == SymbolTable::OVERFLOW {
                                    self.overflow_stack.pop().expect("overflow name on stack")
                                } else {
                                    self.symbols.name(open).to_string()
                                };
                                let message = format!(
                                    "mismatched end tag: expected </{}>, found </{}>",
                                    open_name,
                                    found.unwrap_or_else(|| self.symbols.name(name))
                                );
                                return Err(self.wf(message, pos));
                            }
                            None => {
                                self.finished = true;
                                let message = format!(
                                    "end tag </{}> with no open element",
                                    found.unwrap_or_else(|| self.symbols.name(name))
                                );
                                return Err(self.wf(message, pos));
                            }
                        }
                        if self.stack.is_empty() {
                            self.root_done = true;
                        }
                        if let Some(buf) = literal.take() {
                            self.spare_literals.push(buf);
                        }
                    }
                }
                RawEventKind::Text if !self.stack.is_empty() => {
                    // A final-chunk text run that consumed the input right
                    // up to end-of-file (recorded position == chunk end;
                    // trailing suppressed comments/PIs would have moved the
                    // end past it, and a trailing parse error voids the
                    // comparison). With elements still open, the sequential
                    // reader raises the unclosed-elements error *without*
                    // delivering the run — the fragment worker delivered it
                    // only because more input could have followed in a next
                    // chunk, and there is none. Suppress it so the partial
                    // stream stays byte-exact sequential.
                    //
                    // In streamed mode the current segment may not be the
                    // chunk's last: look one segment ahead. An intermediate
                    // segment is only ever shipped full, so "this text is
                    // the chunk's final event" shows up as an *empty* last
                    // segment whose end position equals the run's end.
                    let trailing_at_eof = {
                        let a = self.active.as_mut().expect("active shard ensured");
                        a.is_final_chunk
                            && a.cursor >= a.shard.tape.len()
                            && if a.seg_last {
                                a.shard.error.is_none()
                                    && a.shard.tape.position(i).offset == a.shard.end_pos.offset
                            } else {
                                if a.pending_seg.is_none() {
                                    let seg = a
                                        .seg_rx
                                        .as_ref()
                                        .expect("streamed chunk has a segment channel")
                                        .recv()
                                        .unwrap_or_else(|_| panic!("shard worker panicked"));
                                    a.pending_seg = Some(seg);
                                }
                                let p = a.pending_seg.as_ref().expect("just installed");
                                p.last
                                    && p.tape.tape.is_empty()
                                    && p.tape.error.is_none()
                                    && a.shard.tape.position(i).offset == p.tape.end_pos.offset
                            }
                    };
                    if trailing_at_eof {
                        self.finished = true;
                        let a = self.active.as_ref().expect("active shard ensured");
                        let end_pos = match a.pending_seg.as_ref() {
                            Some(p) => p.tape.end_pos,
                            None => a.shard.end_pos,
                        };
                        return Err(XmlError::UnexpectedEof {
                            expected: "closing tags for open elements",
                            pos: compose(a.base, end_pos),
                        });
                    }
                }
                RawEventKind::Text if self.stack.is_empty() => {
                    let (whitespace, synthetic) = {
                        let a = self.active.as_ref().expect("active shard ensured");
                        let v = a.shard.tape.view(
                            i,
                            SymbolRemap::with_names(self.seed_len, &a.remap, &a.cum_names),
                        );
                        (v.is_whitespace_text(), v.is_text_synthetic())
                    };
                    if whitespace && !synthetic {
                        // Literal prolog/epilog whitespace: the sequential
                        // reader skips it silently. Whitespace produced by
                        // entity references or CDATA does NOT qualify —
                        // sequentially that is character data outside the
                        // root, an error.
                        continue;
                    }
                    self.finished = true;
                    let message = if self.root_seen {
                        "character data after the root element"
                    } else {
                        "character data before the root element"
                    };
                    // The sequential prolog/epilog state skips literal
                    // whitespace and errors at the first byte it cannot:
                    // replay that skip over the original input.
                    let at = self.skip_input_whitespace(start);
                    return Err(self.wf(message, at));
                }
                RawEventKind::DoctypeDecl if self.root_seen => {
                    self.finished = true;
                    // Rejected at the `<` of `<!DOCTYPE`, like the
                    // sequential reader.
                    return Err(self.wf(
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
                Some(a) => a.shard.tape.view(
                    a.cursor - 1,
                    SymbolRemap::with_names(self.seed_len, &a.remap, &a.cum_names),
                ),
                // A terminal error already dropped the shard.
                None => RawEventRef::bare(RawEventKind::EndDocument),
            },
            CurrentEvent::None => RawEventRef::bare(RawEventKind::StartDocument),
        }
    }

    /// Appends the merged `scanner`/`reader` stages and the
    /// `shard_pipeline` timeline (one child stage per shard lane, plus
    /// the lifecycle journal) to `report`.
    pub fn report_into(&self, report: &mut RunReport) {
        let mut scanner = Stage::new("scanner");
        scanner.note("isa", flux_xml::active_isa_name());
        scanner.absorb(self.scan_tel.snapshot());
        report.stage(scanner);
        let mut reader = Stage::new("reader");
        reader.absorb(self.reader_tel.rows());
        report.stage(reader);
        let mut pipeline = Stage::new("shard_pipeline");
        pipeline.counter("shards", self.total_shards as u64);
        pipeline.note(
            "ingest",
            match &self.input {
                SourceKind::Buffered(_) => "buffered",
                SourceKind::Stream(_) => "streamed",
            },
        );
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
        for ev in self.journal.events() {
            pipeline.events.push((ev.seq, ev.tag, ev.value));
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

    /// A buffered reader over `doc`; min_shard_bytes = 1 so even tiny
    /// unit-test documents shard.
    fn sharded(doc: &str, shards: usize) -> ShardedReader {
        let mut config = ShardConfig::new(shards);
        config.min_shard_bytes = 1;
        ShardedReader::new(doc.as_bytes().to_vec(), config, SymbolTable::new())
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
        assert_eq!(reader.shard_count(), 4);
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
        let doc = "<book/>";
        let mut reader = ShardedReader::new(doc.as_bytes().to_vec(), ShardConfig::new(2), seed);
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

    // ---- streamed ingestion ----

    /// A streamed config tightened so unit-test documents exercise many
    /// chunks and many segments per chunk.
    fn tight_stream_config(shards: usize) -> ShardConfig {
        let mut config = ShardConfig::new(shards);
        config.chunk_bytes = stream::MIN_CHUNK_BYTES;
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
    fn streamed_matches_buffered_on_small_docs() {
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

    /// Input truncated inside a trailing text run: the streamed merger
    /// must suppress the run at real end-of-input exactly like the
    /// buffered one — including when the run is the last event of a
    /// *non-final* segment (the lookahead path).
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
