//! Unified ingestion entry point: every engine consumes an [`Input`].
//!
//! [`Input`] is a builder over pluggable byte sources — an owned buffer
//! ([`Input::from_bytes`]), an arbitrary reader such as a socket or stdin
//! ([`Input::from_reader`]), or a file path with transparent `.gz`
//! detection ([`Input::from_path`]) — plus the ingestion knobs that used
//! to be scattered across ad-hoc `R: Read` / `&[u8]` parameters: the
//! scanner window size and an optional [`MemoryBudget`].
//!
//! The buffer/reader split is deliberately preserved at resolution time
//! ([`Input::into_source`]): engines that can exploit a fully-buffered
//! document (the zero-copy sharded path) match on [`ResolvedInput::Bytes`],
//! while true streams resolve to [`ResolvedInput::Reader`] and are never
//! materialised.
//!
//! [`MemoryBudget`] is the enforcement half of the paper's O(window +
//! buffer) claim: scanner windows, in-flight shard tapes and streamed
//! chunks charge against it through RAII [`BudgetCharge`] guards, runtime
//! buffer peaks are folded in post-run, and the engine fails the run if
//! the tracked peak ever exceeded the configured limit.

use std::fmt;
use std::fs::File;
use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default scanner window size in bytes, used when an [`Input`] (or a
/// `ReaderConfig`) does not override it.
pub const DEFAULT_WINDOW: usize = 8 * 1024;

/// Smallest accepted scanner window. Windows below this would thrash the
/// refill path without saving measurable memory.
pub const MIN_WINDOW: usize = 64;

const GZIP_MAGIC: [u8; 2] = [0x1f, 0x8b];

// ---------------------------------------------------------------------------
// Memory budget
// ---------------------------------------------------------------------------

/// What a [`BudgetCharge`] accounts for. Each kind tracks its own peak so
/// budget-exceeded errors say *which* pool grew, not just that one did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetKind {
    /// Scanner window buffers (one per live reader).
    Window,
    /// In-flight shard tape segments (parsed, not yet replayed).
    Tape,
    /// Streamed input chunks in flight between dispatcher and workers.
    Chunk,
    /// Runtime evaluation buffers (`peak_buffer_bytes`, recorded post-run).
    Buffer,
}

impl BudgetKind {
    const COUNT: usize = 4;

    fn index(self) -> usize {
        match self {
            BudgetKind::Window => 0,
            BudgetKind::Tape => 1,
            BudgetKind::Chunk => 2,
            BudgetKind::Buffer => 3,
        }
    }

    /// Short lower-case label for reports and error messages.
    pub fn name(self) -> &'static str {
        match self {
            BudgetKind::Window => "window",
            BudgetKind::Tape => "tape",
            BudgetKind::Chunk => "chunk",
            BudgetKind::Buffer => "buffer",
        }
    }

    /// Every pool, in index order.
    pub fn all() -> [BudgetKind; Self::COUNT] {
        [
            BudgetKind::Window,
            BudgetKind::Tape,
            BudgetKind::Chunk,
            BudgetKind::Buffer,
        ]
    }
}

/// Thread-safe accounting of the memory pools the streaming pipeline is
/// allowed to grow: scanner windows, in-flight shard tapes, streamed
/// chunks and runtime buffers. Shared as `Arc<MemoryBudget>` between the
/// engine, every scanner and every shard worker.
///
/// Charging never blocks and never fails — the budget observes peaks and
/// the *engine* enforces the limit after the run (a mid-parse abort would
/// turn a memory observation into a data-dependent parse error). The
/// `slow` suite additionally asserts live peaks during multi-GB runs.
#[derive(Debug)]
pub struct MemoryBudget {
    limit: u64,
    current: [AtomicU64; BudgetKind::COUNT],
    peak: [AtomicU64; BudgetKind::COUNT],
    current_total: AtomicU64,
    peak_total: AtomicU64,
}

impl MemoryBudget {
    /// A budget enforcing `limit_bytes` across all tracked pools.
    pub fn new(limit_bytes: u64) -> Arc<Self> {
        Arc::new(MemoryBudget {
            limit: limit_bytes,
            current: Default::default(),
            peak: Default::default(),
            current_total: AtomicU64::new(0),
            peak_total: AtomicU64::new(0),
        })
    }

    /// The configured limit in bytes.
    pub fn limit(&self) -> u64 {
        self.limit
    }

    /// Opens an RAII charge of `bytes` against `kind`; the charge is
    /// released when the guard drops. Use [`BudgetCharge::grow_to`] when
    /// the underlying allocation is resized in place.
    pub fn charge(self: &Arc<Self>, kind: BudgetKind, bytes: u64) -> BudgetCharge {
        self.add(kind, bytes);
        BudgetCharge {
            budget: Arc::clone(self),
            kind,
            amount: bytes,
        }
    }

    /// Folds an externally-computed peak (e.g. the runtime's
    /// `peak_buffer_bytes`) into `kind` without opening a live charge.
    pub fn record_peak(&self, kind: BudgetKind, bytes: u64) {
        self.peak[kind.index()].fetch_max(bytes, Ordering::Relaxed);
        // The external peak did not coexist with a live charge of the same
        // kind, but it did coexist with the other pools' charges — fold it
        // into the total peak against the *other* pools' current levels.
        let others: u64 = BudgetKind::all()
            .iter()
            .filter(|k| k.index() != kind.index())
            .map(|k| self.current[k.index()].load(Ordering::Relaxed))
            .sum();
        self.peak_total
            .fetch_max(others.saturating_add(bytes), Ordering::Relaxed);
    }

    fn add(&self, kind: BudgetKind, bytes: u64) {
        let cur = self.current[kind.index()].fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak[kind.index()].fetch_max(cur, Ordering::Relaxed);
        let total = self.current_total.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak_total.fetch_max(total, Ordering::Relaxed);
    }

    fn sub(&self, kind: BudgetKind, bytes: u64) {
        self.current[kind.index()].fetch_sub(bytes, Ordering::Relaxed);
        self.current_total.fetch_sub(bytes, Ordering::Relaxed);
    }

    /// Bytes currently charged against `kind`.
    pub fn current(&self, kind: BudgetKind) -> u64 {
        self.current[kind.index()].load(Ordering::Relaxed)
    }

    /// The highest simultaneous charge observed against `kind`.
    pub fn peak(&self, kind: BudgetKind) -> u64 {
        self.peak[kind.index()].load(Ordering::Relaxed)
    }

    /// The highest simultaneous charge observed across all pools.
    pub fn peak_total(&self) -> u64 {
        self.peak_total.load(Ordering::Relaxed)
    }

    /// Whether the tracked peak stayed within the limit; `Err` carries a
    /// per-pool breakdown for the engine's budget-exceeded error.
    pub fn check(&self) -> std::result::Result<(), BudgetExceeded> {
        let peak = self.peak_total();
        if peak <= self.limit {
            return Ok(());
        }
        Err(BudgetExceeded {
            limit: self.limit,
            peak,
            pools: BudgetKind::all().map(|k| (k.name(), self.peak(k))),
        })
    }
}

/// Evidence that a run's tracked memory peak exceeded its [`MemoryBudget`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetExceeded {
    /// The configured limit in bytes.
    pub limit: u64,
    /// The observed peak across all pools in bytes.
    pub peak: u64,
    /// Per-pool peaks, `(name, bytes)`.
    pub pools: [(&'static str, u64); BudgetKind::COUNT],
}

impl fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "memory budget exceeded: peak {} bytes > limit {} bytes (",
            self.peak, self.limit
        )?;
        for (i, (name, bytes)) in self.pools.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{name} {bytes}")?;
        }
        write!(f, ")")
    }
}

impl std::error::Error for BudgetExceeded {}

/// RAII guard for bytes charged against a [`MemoryBudget`]. Dropping the
/// guard releases the charge.
#[derive(Debug)]
pub struct BudgetCharge {
    budget: Arc<MemoryBudget>,
    kind: BudgetKind,
    amount: u64,
}

impl BudgetCharge {
    /// Re-sizes the charge to `bytes` (the tracked allocation was grown or
    /// shrunk in place).
    pub fn grow_to(&mut self, bytes: u64) {
        if bytes > self.amount {
            self.budget.add(self.kind, bytes - self.amount);
        } else {
            self.budget.sub(self.kind, self.amount - bytes);
        }
        self.amount = bytes;
    }

    /// The bytes currently held by this charge.
    pub fn amount(&self) -> u64 {
        self.amount
    }
}

impl Drop for BudgetCharge {
    fn drop(&mut self) {
        self.budget.sub(self.kind, self.amount);
    }
}

// ---------------------------------------------------------------------------
// Input
// ---------------------------------------------------------------------------

enum ByteSource {
    Bytes(Arc<Vec<u8>>),
    Reader(Box<dyn Read + Send>),
    Path(PathBuf),
}

impl fmt::Debug for ByteSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ByteSource::Bytes(b) => write!(f, "Bytes({} bytes)", b.len()),
            ByteSource::Reader(_) => write!(f, "Reader(..)"),
            ByteSource::Path(p) => write!(f, "Path({})", p.display()),
        }
    }
}

/// A resolved [`Input`]: what an engine actually ingests.
///
/// `Bytes` preserves the zero-copy invariant the buffered sharded path
/// depends on (`Arc<Vec<u8>>` slices shared across workers); `Reader` is a
/// true stream that must be consumed incrementally.
pub enum ResolvedInput {
    /// The whole document is in memory.
    Bytes(Arc<Vec<u8>>),
    /// An unbounded stream; never materialised by the engines.
    Reader(Box<dyn Read + Send>),
}

impl fmt::Debug for ResolvedInput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResolvedInput::Bytes(b) => write!(f, "Bytes({} bytes)", b.len()),
            ResolvedInput::Reader(_) => write!(f, "Reader(..)"),
        }
    }
}

impl ResolvedInput {
    /// A plain `Read` over the resolved bytes, erasing the buffer/stream
    /// distinction — for consumers without a dedicated buffered path.
    pub fn into_reader(self) -> Box<dyn Read + Send> {
        match self {
            ResolvedInput::Bytes(b) => Box::new(ArcBytesReader { bytes: b, pos: 0 }),
            ResolvedInput::Reader(r) => r,
        }
    }
}

/// `Read` over shared bytes without copying them (unlike
/// `io::Cursor<Vec<u8>>`, keeps the `Arc` alive and clonable elsewhere).
struct ArcBytesReader {
    bytes: Arc<Vec<u8>>,
    pos: usize,
}

impl Read for ArcBytesReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let rest = &self.bytes[self.pos..];
        let n = rest.len().min(buf.len());
        buf[..n].copy_from_slice(&rest[..n]);
        self.pos += n;
        Ok(n)
    }
}

/// The unified ingestion builder: one type describing *what* to read
/// (bytes, reader or path), *how* (scanner window) and *under which memory
/// contract* ([`MemoryBudget`]).
///
/// Gzip-compressed input is recognised by its `.gz` extension (paths) or
/// the `1f 8b` magic (any source) and decompressed transparently: XML can
/// never begin with those bytes, so sniffing is safe.
///
/// ```no_run
/// use flux_xml::input::{Input, MemoryBudget};
///
/// let input = Input::from_path("auction.xml.gz")
///     .window(16 * 1024)
///     .budget(MemoryBudget::new(64 * 1024 * 1024));
/// ```
#[derive(Debug)]
pub struct Input {
    source: ByteSource,
    window: usize,
    budget: Option<Arc<MemoryBudget>>,
}

impl Input {
    fn new(source: ByteSource) -> Self {
        Input {
            source,
            window: DEFAULT_WINDOW,
            budget: None,
        }
    }

    /// Input from a file path. `.gz` files are decompressed transparently
    /// (by extension or magic); the file is opened lazily at
    /// [`Input::into_source`] time.
    pub fn from_path(path: impl AsRef<Path>) -> Self {
        Input::new(ByteSource::Path(path.as_ref().to_path_buf()))
    }

    /// Input from an arbitrary byte stream — a socket, a pipe, stdin, or a
    /// generator. `Send` is required so the sharded pipeline's dispatcher
    /// thread can own the stream; most readers already are.
    pub fn from_reader(reader: impl Read + Send + 'static) -> Self {
        Input::new(ByteSource::Reader(Box::new(reader)))
    }

    /// Input from an in-memory buffer. Engines with a dedicated buffered
    /// path (the zero-copy sharded reader) keep using it for this variant.
    pub fn from_bytes(bytes: impl Into<Vec<u8>>) -> Self {
        Input::new(ByteSource::Bytes(Arc::new(bytes.into())))
    }

    /// Input from an already-shared buffer, without copying it.
    pub fn from_shared_bytes(bytes: Arc<Vec<u8>>) -> Self {
        Input::new(ByteSource::Bytes(bytes))
    }

    /// Sets the scanner window size in bytes (default [`DEFAULT_WINDOW`]).
    /// Values below [`MIN_WINDOW`] are clamped up.
    pub fn window(mut self, bytes: usize) -> Self {
        self.window = bytes.max(MIN_WINDOW);
        self
    }

    /// Attaches a memory budget. The engine tracks scanner windows,
    /// in-flight tapes/chunks and runtime buffer peaks against it and
    /// fails the run post-hoc if the peak exceeded the limit.
    pub fn budget(mut self, budget: Arc<MemoryBudget>) -> Self {
        self.budget = Some(budget);
        self
    }

    /// The configured scanner window size.
    pub fn window_bytes(&self) -> usize {
        self.window
    }

    /// The attached memory budget, if any.
    pub fn memory_budget(&self) -> Option<&Arc<MemoryBudget>> {
        self.budget.as_ref()
    }

    /// The reader configuration of a run over this input: its window and
    /// budget, plus the engine's interner cap.
    pub fn reader_config(&self, max_symbols: Option<usize>) -> crate::ReaderConfig {
        crate::ReaderConfig {
            max_symbols,
            window: self.window,
            budget: self.budget.clone(),
            ..Default::default()
        }
    }

    /// Whether this input is an in-memory buffer (and would resolve to
    /// [`ResolvedInput::Bytes`] absent compression).
    pub fn is_buffered(&self) -> bool {
        matches!(self.source, ByteSource::Bytes(_))
    }

    /// Resolves the source: opens the file, applies gzip detection and
    /// wraps compressed sources in a streaming decoder. In-memory inputs
    /// stay [`ResolvedInput::Bytes`] (gzipped buffers are decompressed
    /// back into a buffer so buffered engines keep their zero-copy path).
    pub fn into_source(self) -> io::Result<ResolvedInput> {
        match self.source {
            ByteSource::Bytes(bytes) => {
                if bytes.starts_with(&GZIP_MAGIC) {
                    let plain = miniflate::gzip_decompress(&bytes)?;
                    Ok(ResolvedInput::Bytes(Arc::new(plain)))
                } else {
                    Ok(ResolvedInput::Bytes(bytes))
                }
            }
            ByteSource::Reader(reader) => resolve_reader(reader),
            ByteSource::Path(path) => {
                let file = Box::new(File::open(&path)?);
                if path.extension().is_some_and(|e| e == "gz") {
                    gzip_reader(file)
                } else {
                    resolve_reader(file)
                }
            }
        }
    }
}

/// Sniffs the gzip magic off the head of `reader` and wraps accordingly,
/// pushing the sniffed bytes back in front.
fn resolve_reader(mut reader: Box<dyn Read + Send>) -> io::Result<ResolvedInput> {
    let mut head = [0u8; 2];
    let mut got = 0;
    while got < 2 {
        match reader.read(&mut head[got..])? {
            0 => break,
            n => got += n,
        }
    }
    let restored: Box<dyn Read + Send> =
        Box::new(io::Cursor::new(head[..got].to_vec()).chain(reader));
    if got == 2 && head == GZIP_MAGIC {
        gzip_reader(restored)
    } else {
        Ok(ResolvedInput::Reader(restored))
    }
}

fn gzip_reader(reader: Box<dyn Read + Send>) -> io::Result<ResolvedInput> {
    Ok(ResolvedInput::Reader(Box::new(miniflate::GzDecoder::new(
        reader,
    ))))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_passthrough() {
        let input = Input::from_bytes(b"<doc/>".to_vec());
        assert!(input.is_buffered());
        match input.into_source().unwrap() {
            ResolvedInput::Bytes(b) => assert_eq!(&**b, b"<doc/>"),
            other => panic!("expected bytes, got {other:?}"),
        }
    }

    #[test]
    fn reader_passthrough_sniffs_and_restores_head() {
        let input = Input::from_reader(io::Cursor::new(b"<doc/>".to_vec()));
        let mut out = Vec::new();
        input
            .into_source()
            .unwrap()
            .into_reader()
            .read_to_end(&mut out)
            .unwrap();
        assert_eq!(out, b"<doc/>");
    }

    #[test]
    fn short_reader_survives_sniff() {
        let input = Input::from_reader(io::Cursor::new(b"x".to_vec()));
        let mut out = Vec::new();
        input
            .into_source()
            .unwrap()
            .into_reader()
            .read_to_end(&mut out)
            .unwrap();
        assert_eq!(out, b"x");
    }

    #[test]
    fn window_clamps_to_minimum() {
        let input = Input::from_bytes(Vec::new()).window(1);
        assert_eq!(input.window_bytes(), MIN_WINDOW);
    }

    #[test]
    fn gz_bytes_decompress_to_bytes() {
        let gz = miniflate::gzip_compress_stored(b"<doc>hi</doc>");
        match Input::from_bytes(gz).into_source().unwrap() {
            ResolvedInput::Bytes(b) => assert_eq!(&**b, b"<doc>hi</doc>"),
            other => panic!("expected bytes, got {other:?}"),
        }
    }

    #[test]
    fn gz_reader_decompresses_via_magic_sniff() {
        let gz = miniflate::gzip_compress_stored(b"<doc>stream</doc>");
        let input = Input::from_reader(io::Cursor::new(gz));
        let mut out = Vec::new();
        input
            .into_source()
            .unwrap()
            .into_reader()
            .read_to_end(&mut out)
            .unwrap();
        assert_eq!(out, b"<doc>stream</doc>");
    }

    #[test]
    fn gz_path_decompresses_by_extension() {
        let dir = std::env::temp_dir().join("flux_input_test_gz_ext");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("doc.xml.gz");
        std::fs::write(&path, miniflate::gzip_compress_stored(b"<d/>")).unwrap();
        let mut out = Vec::new();
        Input::from_path(&path)
            .into_source()
            .unwrap()
            .into_reader()
            .read_to_end(&mut out)
            .unwrap();
        assert_eq!(out, b"<d/>");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn budget_tracks_peaks_and_enforces() {
        let budget = MemoryBudget::new(100);
        {
            let c1 = budget.charge(BudgetKind::Window, 40);
            let mut c2 = budget.charge(BudgetKind::Tape, 30);
            assert_eq!(budget.peak_total(), 70);
            c2.grow_to(50);
            assert_eq!(budget.peak_total(), 90);
            assert_eq!(budget.current(BudgetKind::Tape), 50);
            c2.grow_to(10);
            assert_eq!(budget.current(BudgetKind::Tape), 10);
            drop(c1);
        }
        assert_eq!(budget.current(BudgetKind::Window), 0);
        assert_eq!(budget.current(BudgetKind::Tape), 0);
        assert_eq!(budget.peak(BudgetKind::Window), 40);
        assert_eq!(budget.peak_total(), 90);
        assert!(budget.check().is_ok());
        budget.record_peak(BudgetKind::Buffer, 200);
        let err = budget.check().unwrap_err();
        assert_eq!(err.peak, 200);
        assert_eq!(err.limit, 100);
        assert!(err.to_string().contains("buffer 200"));
    }

    #[test]
    fn record_peak_combines_with_live_charges() {
        let budget = MemoryBudget::new(1000);
        let _c = budget.charge(BudgetKind::Window, 100);
        budget.record_peak(BudgetKind::Buffer, 50);
        assert_eq!(budget.peak_total(), 150);
    }
}
