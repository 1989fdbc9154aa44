//! The per-shard worker: parses one chunk as a document fragment onto
//! [`EventTape`] segments that the merger replays without re-parsing — or
//! copying.
//!
//! Workers are where the expensive work happens — tokenisation, UTF-8
//! validation, entity unescaping, name interning — and they run fully in
//! parallel on a pool of threads, handing tape segments to the consumer
//! through a bounded channel as they fill. Each worker clones the
//! shared seed [`SymbolTable`]; clones preserve indices, so every symbol
//! below the seed length means the same name in every shard. Names first
//! seen *inside* a shard are shard-local and reported back via
//! [`ShardTape::new_names`] for the merger to re-intern (the only renaming
//! anywhere in the pipeline).
//!
//! Two properties make replay exact:
//!
//! * every tape event records the fragment reader's [`Position`] right
//!   after it was produced, so the merger can compose chunk-local
//!   positions into global ones and report errors at exactly the
//!   sequential reader's position;
//! * a parse error does not discard the tape — the valid prefix is kept
//!   and the error is attached as the tape's terminal, so the merger
//!   streams the same prefix a sequential reader would before surfacing
//!   the same error.

use flux_symbols::{Symbol, SymbolTable};
use flux_telemetry::{ReaderCounters, ScanCounters, ShardLane, Stopwatch};
use flux_xml::{
    BudgetCharge, BudgetKind, EventTape, MemoryBudget, Position, RawEventKind, ReaderConfig,
    XmlError, XmlReader,
};
use std::sync::mpsc::SyncSender;
use std::sync::Arc;

/// Everything one shard produces: its event tape, the names it interned
/// past the seed prefix, and how the chunk ended.
#[derive(Debug)]
pub(crate) struct ShardTape {
    pub tape: EventTape,
    /// Names interned beyond the seed prefix, in shard-local index order.
    pub new_names: Vec<String>,
    /// Chunk-local position at end of parse (composed by the merger into
    /// the next chunk's global base).
    pub end_pos: Position,
    /// Terminal parse error, chunk-local positions. The tape holds the
    /// valid prefix parsed before it.
    pub error: Option<XmlError>,
    /// This shard's timeline lane. The worker fills the parse side
    /// (`parse_ns`, `events`, `tape_bytes`); the consumer fills
    /// `replay_ns` when it exhausts the chunk.
    pub lane: ShardLane,
    /// The fragment reader's scanner counters, harvested at join time.
    pub scan: ScanCounters,
    /// The fragment reader's tag totals and rare-path counters.
    pub reader: ReaderCounters,
}

/// One link of a chunk's segment chain: a partial tape handed
/// over every `segment_events` events so in-flight tape memory is bounded
/// by the segment size, not the chunk size.
///
/// `tape.new_names` is *incremental*: the names interned since the
/// previous segment of the same chunk (the worker's interner persists
/// across segments, so tape symbol indices grow monotonically through the
/// chunk and the consumer extends one cumulative remap per chunk).
/// `end_pos`, `error` and the telemetry counters are meaningful only on
/// the segment flagged `last`.
#[derive(Debug)]
pub(crate) struct Segment {
    pub tape: ShardTape,
    /// The chunk's final segment: carries the chunk-local end position,
    /// the terminal error (if any) and the whole chunk's counters.
    pub last: bool,
    /// Budget charge for this segment's tape bytes, released when the
    /// consumer finishes replaying it.
    pub charge: Option<BudgetCharge>,
}

/// Names interned by `reader` beyond index `from` (exclusive upper bound
/// is the table's current length, which is also returned).
fn names_since<R: std::io::Read>(reader: &XmlReader<R>, from: usize) -> (Vec<String>, usize) {
    let table = reader.symbols();
    let names = (from..table.len())
        .map(|i| table.name(Symbol::from_index(i)).to_string())
        .collect();
    (names, table.len())
}

/// When a worker flushes a partial tape: after `events` events
/// or — for payload-heavy content that would inflate the per-segment
/// footprint — once the segment's arena reaches `bytes`, whichever comes
/// first.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SegmentLimits {
    pub events: usize,
    pub bytes: usize,
}

/// Parses `chunk` as a fragment, shipping the tape in segments bounded by
/// `limits` through `tx`. The send blocks when the consumer lags
/// `segment_queue` segments behind — that backpressure *is* the
/// tape-memory bound. A send error means the consumer is gone; the parse
/// is abandoned.
///
/// The final segment (`last == true`) carries the chunk-local end
/// position, the terminal error if the chunk was malformed, and the
/// fragment reader's full telemetry.
pub(crate) fn parse_segmented(
    chunk: &[u8],
    reader_config: &ReaderConfig,
    seed: &SymbolTable,
    epoch: Stopwatch,
    limits: SegmentLimits,
    budget: Option<&Arc<MemoryBudget>>,
    tx: &SyncSender<Segment>,
) {
    debug_assert!(reader_config.fragment, "workers parse fragments");
    let segment_events = limits.events.max(1);
    let segment_bytes = limits.bytes.max(1);
    let parse_started = epoch.elapsed_ns();
    let mut reader = XmlReader::with_symbols(chunk, reader_config.clone(), seed.clone());
    let seg_cap = segment_events.min(chunk.len() / 16 + 16);
    let fresh_tape = |cap: usize| EventTape::with_capacity(cap, cap * 24);
    let mut tape = fresh_tape(seg_cap);
    let mut names_reported = seed.len();
    let mut error = None;
    let mut total_events = 0u64;
    let mut total_tape_bytes = 0u64;
    loop {
        match reader.advance() {
            Ok(true) => {}
            Ok(false) => break,
            Err(e) => {
                error = Some(e);
                break;
            }
        }
        if matches!(
            reader.kind(),
            RawEventKind::StartDocument | RawEventKind::EndDocument
        ) {
            continue;
        }
        tape.push(&reader.view(), reader.event_start(), reader.position());
        if tape.len() >= segment_events || tape.byte_size() >= segment_bytes {
            let full = std::mem::replace(&mut tape, fresh_tape(seg_cap));
            let (new_names, reported) = names_since(&reader, names_reported);
            names_reported = reported;
            total_events += full.len() as u64;
            total_tape_bytes += full.byte_size() as u64;
            let charge = budget.map(|b| b.charge(BudgetKind::Tape, full.byte_size() as u64));
            let seg = Segment {
                tape: ShardTape {
                    tape: full,
                    new_names,
                    end_pos: reader.position(),
                    error: None,
                    lane: ShardLane::default(),
                    scan: ScanCounters::default(),
                    reader: ReaderCounters::default(),
                },
                last: false,
                charge,
            };
            if tx.send(seg).is_err() {
                return; // consumer dropped mid-stream
            }
        }
    }
    let end_pos = reader.position();
    let (new_names, _) = names_since(&reader, names_reported);
    let scan = reader.scan_telemetry();
    let reader_tel = reader.reader_telemetry();
    // Release the scanner window (and its budget charge) *before* handing
    // over the final segment: once the consumer sees it, this chunk's
    // parse must hold no memory.
    drop(reader);
    total_events += tape.len() as u64;
    total_tape_bytes += tape.byte_size() as u64;
    let ready_at_ns = epoch.elapsed_ns();
    let lane = ShardLane {
        parse_ns: ready_at_ns.saturating_sub(parse_started),
        events: total_events,
        tape_bytes: total_tape_bytes,
        ..ShardLane::default()
    };
    let charge = budget.map(|b| b.charge(BudgetKind::Tape, tape.byte_size() as u64));
    let _ = tx.send(Segment {
        tape: ShardTape {
            scan,
            reader: reader_tel,
            tape,
            new_names,
            end_pos,
            error,
            lane,
        },
        last: true,
        charge,
    });
}
