//! Sharded ingestion: incremental chunk dispatch over an unbounded
//! `Read`.
//!
//! Three thread roles cooperate through bounded channels, so every memory
//! pool is capped independently of document size:
//!
//! * the **dispatcher** owns the byte source. It accumulates a carry
//!   buffer up to the configured chunk size, extends it to the next safe
//!   element-tag boundary ([`crate::splitter::find_boundary`]), and ships
//!   each chunk as an [`Arc<Vec<u8>>`] job. The job channel is bounded by
//!   the worker count, so at most O(workers) chunks are ever in flight;
//! * a pool of **workers** pulls jobs and parses each chunk in fragment
//!   mode, handing over *partial tapes* every `segment_events` events
//!   through a per-chunk channel bounded by `segment_queue` — in-flight
//!   tape memory is O(segment × queue × workers), not O(chunk);
//! * the **consumer** (the [`crate::ShardedReader`] merger) receives
//!   chunks in dispatch order and replays their segment chains,
//!   re-checking the document-level rules the fragments relaxed.
//!
//! Every pool charges the optional [`MemoryBudget`]: chunk buffers as
//! [`BudgetKind::Chunk`] (released when the merger finishes the chunk),
//! segment tapes as [`BudgetKind::Tape`] (released when the segment is
//! replayed), and each worker's scanner window as `Window` via the
//! reader's own accounting.

use crate::splitter::{find_boundary, BoundaryScan};
use crate::worker::{parse_segmented, Segment, SegmentLimits};
use flux_symbols::SymbolTable;
use flux_telemetry::Stopwatch;
use flux_xml::{BudgetKind, MemoryBudget, ReaderConfig};
use std::io::Read;
use std::sync::mpsc::{channel, sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};

/// Read granularity of the dispatcher's carry buffer.
const READ_BLOCK: usize = 64 * 1024;

/// One parse assignment: a chunk plus the channel its segments go out on.
struct Job {
    bytes: Arc<Vec<u8>>,
    seg_tx: SyncSender<Segment>,
}

/// What the dispatcher hands the consumer for one chunk, in dispatch
/// order. The segment chain arrives through `seg_rx` as the worker
/// parses.
pub(crate) struct ChunkHandle {
    /// The chunk's bytes — kept by the consumer for the whitespace-skip
    /// error-position replay, shared with the parsing worker.
    pub bytes: Arc<Vec<u8>>,
    /// The chunk's segment chain (at least one segment, the last flagged).
    pub seg_rx: Receiver<Segment>,
    /// Whether this is the document's final chunk (known at cut time:
    /// only end-of-input finalises a chunk).
    pub is_final: bool,
    /// Budget charge for `bytes`, released when the consumer drops the
    /// handle at chunk end.
    pub charge: Option<flux_xml::BudgetCharge>,
}

/// Dispatch-ordered message stream the consumer receives.
pub(crate) enum ChunkMsg {
    Chunk(ChunkHandle),
    /// The byte source failed mid-stream; terminal.
    Io(std::io::Error),
}

/// Incremental chunker: reads the source into a carry buffer and cuts it
/// at safe element-tag boundaries at or after the target size. Where it
/// cuts does not depend on how the source's reads happen to fall: a
/// boundary [`find_boundary`] finds in a prefix is the one it finds in
/// the whole input.
struct Chunker<R> {
    src: R,
    carry: Vec<u8>,
    /// Scan may resume here: a position known to be outside every
    /// markup construct.
    resume: usize,
    eof: bool,
    target: usize,
    produced_any: bool,
}

impl<R: Read> Chunker<R> {
    fn new(src: R, target: usize) -> Self {
        let target = target.max(1);
        Chunker {
            src,
            carry: Vec::with_capacity(target + READ_BLOCK),
            resume: 0,
            eof: false,
            target,
            produced_any: false,
        }
    }

    /// Appends one read block to the carry buffer.
    fn fill_block(&mut self) -> std::io::Result<()> {
        let old_len = self.carry.len();
        self.carry.resize(old_len + READ_BLOCK, 0);
        let read = self.src.read(&mut self.carry[old_len..])?;
        self.carry.truncate(old_len + read);
        if read == 0 {
            self.eof = true;
        }
        Ok(())
    }

    /// The next chunk and whether it is the document's last, or `None`
    /// once the input is exhausted.
    fn next_chunk(&mut self) -> std::io::Result<Option<(Vec<u8>, bool)>> {
        loop {
            while !self.eof && self.carry.len() < self.target {
                self.fill_block()?;
            }
            if self.eof && self.carry.len() <= self.target {
                // Everything left (possibly empty, for an empty document
                // that still needs its one chunk so the merger can raise
                // the sequential missing-root error) is the final chunk.
                if self.carry.is_empty() && self.produced_any {
                    return Ok(None);
                }
                self.produced_any = true;
                self.resume = 0;
                return Ok(Some((std::mem::take(&mut self.carry), true)));
            }
            match find_boundary(&self.carry, self.resume, self.target) {
                BoundaryScan::Found(cut) => {
                    // The boundary `<` starts the next chunk, so the carry
                    // is never empty after a cut — end-of-input is always
                    // reached with bytes in hand, and the final chunk is
                    // recognisable as final when it is cut.
                    let rest = self.carry.split_off(cut);
                    let chunk = std::mem::replace(&mut self.carry, rest);
                    self.resume = 0;
                    self.produced_any = true;
                    return Ok(Some((chunk, false)));
                }
                BoundaryScan::NeedMore { resume } => {
                    self.resume = resume;
                    if self.eof {
                        // No safe seam in what remains: ship it whole.
                        self.produced_any = true;
                        self.resume = 0;
                        return Ok(Some((std::mem::take(&mut self.carry), true)));
                    }
                    self.fill_block()?;
                }
            }
        }
    }
}

/// Start offsets of the chunks the dispatcher cuts `input` into at a
/// target of `chunk_bytes`: the first is 0, every further one a safe
/// element-tag `<`. The seams of the streamed pipeline, read off a
/// resident document.
pub fn cut_points(input: &[u8], chunk_bytes: usize) -> Vec<usize> {
    let mut chunker = Chunker::new(input, chunk_bytes);
    let mut points = vec![0];
    let mut at = 0;
    // Reading a slice never fails.
    while let Ok(Some((chunk, is_final))) = chunker.next_chunk() {
        if is_final {
            break;
        }
        at += chunk.len();
        points.push(at);
    }
    points
}

/// Everything the streaming pipeline needs at launch.
pub(crate) struct StreamLaunch {
    pub source: Box<dyn Read + Send>,
    pub reader_config: ReaderConfig,
    pub seed: SymbolTable,
    pub epoch: Stopwatch,
    pub workers: usize,
    pub chunk_bytes: usize,
    pub segment_events: usize,
    pub segment_bytes: usize,
    pub segment_queue: usize,
    pub budget: Option<Arc<MemoryBudget>>,
}

/// Spawns the dispatcher and the worker pool; returns the consumer's
/// dispatch-ordered chunk stream. All threads shut down on their own when
/// either the source ends or the consumer drops the receiver (send errors
/// make every role bail out).
pub(crate) fn start_stream(launch: StreamLaunch) -> Receiver<ChunkMsg> {
    let StreamLaunch {
        source,
        reader_config,
        seed,
        epoch,
        workers,
        chunk_bytes,
        segment_events,
        segment_bytes,
        segment_queue,
        budget,
    } = launch;
    let workers = workers.max(1);
    let segment_queue = segment_queue.max(1);
    let limits = SegmentLimits {
        events: segment_events,
        bytes: segment_bytes,
    };
    // Jobs: bounded by the worker count, so the dispatcher stalls (and
    // stops reading the source) instead of buffering unparsed chunks.
    let (job_tx, job_rx) = sync_channel::<Job>(workers);
    // Chunk handles: plain channel, but in practice bounded by the job
    // channel — the dispatcher sends one handle per job it manages to
    // enqueue.
    let (chunk_tx, chunk_rx) = channel::<ChunkMsg>();
    let job_rx = Arc::new(Mutex::new(job_rx));
    for _ in 0..workers {
        let job_rx = Arc::clone(&job_rx);
        let cfg = reader_config.clone();
        let seed = seed.clone();
        let budget = budget.clone();
        std::thread::spawn(move || {
            loop {
                // Holding the lock across the recv is the point: exactly
                // one idle worker waits on the channel, the rest queue on
                // the mutex — a classic shared work queue.
                let job = match job_rx.lock() {
                    Ok(rx) => rx.recv(),
                    Err(_) => return,
                };
                let Ok(Job { bytes, seg_tx }) = job else {
                    return; // dispatcher gone, no more chunks
                };
                parse_segmented(&bytes, &cfg, &seed, epoch, limits, budget.as_ref(), &seg_tx);
            }
        });
    }
    std::thread::spawn(move || {
        let mut chunker = Chunker::new(source, chunk_bytes);
        loop {
            match chunker.next_chunk() {
                Ok(Some((chunk, is_final))) => {
                    let bytes = Arc::new(chunk);
                    let charge = budget
                        .as_ref()
                        .map(|b| b.charge(BudgetKind::Chunk, bytes.len() as u64));
                    let (seg_tx, seg_rx) = sync_channel::<Segment>(segment_queue);
                    let handle = ChunkHandle {
                        bytes: Arc::clone(&bytes),
                        seg_rx,
                        is_final,
                        charge,
                    };
                    if chunk_tx.send(ChunkMsg::Chunk(handle)).is_err() {
                        return; // consumer gone
                    }
                    if job_tx.send(Job { bytes, seg_tx }).is_err() {
                        return; // workers gone (only after consumer drop)
                    }
                    if is_final {
                        return;
                    }
                }
                Ok(None) => return,
                Err(e) => {
                    let _ = chunk_tx.send(ChunkMsg::Io(e));
                    return;
                }
            }
        }
    });
    chunk_rx
}

#[cfg(test)]
mod tests {
    use super::*;

    const TARGET: usize = 4 * 1024;

    fn chunks_of(doc: &str, target: usize) -> Vec<(Vec<u8>, bool)> {
        let mut chunker = Chunker::new(doc.as_bytes(), target);
        let mut out = Vec::new();
        while let Some(c) = chunker.next_chunk().unwrap() {
            out.push(c);
        }
        out
    }

    #[test]
    fn chunks_reassemble_exactly_and_cut_on_tags() {
        let doc = "<r>".to_string() + &"<b attr=\"v\">text &amp; more</b>".repeat(2000) + "</r>";
        let chunks = chunks_of(&doc, TARGET);
        assert!(chunks.len() > 1, "large doc must split");
        let mut glued = Vec::new();
        for (i, (chunk, is_final)) in chunks.iter().enumerate() {
            assert_eq!(*is_final, i + 1 == chunks.len(), "only the last is final");
            if i > 0 {
                assert_eq!(chunk[0], b'<', "chunks start on tag boundaries");
            }
            glued.extend_from_slice(chunk);
        }
        assert_eq!(glued, doc.as_bytes());
    }

    #[test]
    fn constructs_never_straddle_cuts() {
        // Comments bigger than the chunk target: every cut must fall
        // outside them.
        let filler = format!("<!-- {} -->", "pad ".repeat(3000));
        let doc = format!("<r>{}<a/>{}<b/>{}</r>", filler, filler, filler);
        let chunks = chunks_of(&doc, TARGET);
        let mut offset = 0;
        for (chunk, _) in &chunks[..chunks.len().saturating_sub(1)] {
            offset += chunk.len();
            let prefix = &doc.as_bytes()[..offset];
            let s = std::str::from_utf8(prefix).unwrap();
            assert_eq!(
                s.matches("<!--").count(),
                s.matches("-->").count(),
                "cut at {offset} inside a comment"
            );
        }
        let glued: Vec<u8> = chunks.iter().flat_map(|(c, _)| c.iter().copied()).collect();
        assert_eq!(glued, doc.as_bytes());
    }

    #[test]
    fn empty_input_yields_one_final_chunk() {
        let chunks = chunks_of("", TARGET);
        assert_eq!(chunks.len(), 1);
        assert!(chunks[0].0.is_empty());
        assert!(chunks[0].1);
    }

    #[test]
    fn small_input_is_one_final_chunk() {
        let chunks = chunks_of("<a><b/></a>", TARGET);
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].0, b"<a><b/></a>");
        assert!(chunks[0].1);
    }
}
