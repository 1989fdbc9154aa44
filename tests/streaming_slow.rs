//! The GB axis: unbounded streaming ingestion proven at sizes the engine
//! could never buffer. Gated behind the `slow` feature because a run
//! streams several gigabytes through every parallelism mode:
//!
//! ```text
//! cargo test --release --features slow --test streaming_slow
//! ```
//!
//! What it pins down, per the ingestion contract (docs/INGESTION.md):
//!
//! * a ≥1 GiB generator-streamed auction document flows through the flux
//!   engine sequentially and with 2/8 shards while a 64 MiB tracked
//!   [`MemoryBudget`] holds — the document is produced behind a `Read`
//!   and never materialised;
//! * every parallelism mode emits byte-identical output on that stream;
//! * streamed ingestion is indistinguishable from an in-memory run of
//!   the same document, checked exactly on an in-memory-sized prefix of
//!   the axis (all three engine architectures);
//! * a stream that dies mid-document fails with the same rendered error
//!   as the same bytes parsed from memory, at every shard count.

#![cfg(feature = "slow")]

use fluxquery::xmlgen::{auction_string, AuctionConfig, AuctionStream, AUCTION_DTD};
use fluxquery::{EngineKind, FluxEngine, Input, MemoryBudget, Options, Parallelism};
use std::io::{Cursor, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The engine-tier query of the GB workload entry.
fn gb_query() -> &'static str {
    flux_conformance::workload("auction_gb").query.unwrap()
}

/// Streaming output sink: FNV-1a digest plus length, so three multi-GB
/// runs can be compared without holding any of their outputs.
struct HashSink {
    hash: u64,
    len: u64,
}

impl HashSink {
    fn new() -> Self {
        HashSink {
            hash: 0xcbf2_9ce4_8422_2325,
            len: 0,
        }
    }
}

impl Write for HashSink {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        for &b in data {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(0x100_0000_01b3);
        }
        self.len += data.len() as u64;
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Counts the bytes the engine actually pulled — the proof that the run
/// consumed a ≥1 GiB document without a 1 GiB allocation anywhere.
struct CountingReader<R> {
    inner: R,
    seen: Arc<AtomicU64>,
}

impl<R: Read> Read for CountingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.seen.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }
}

const GIB: u64 = 1 << 30;
const BUDGET: u64 = 64 * 1024 * 1024;
/// ~1 GiB at the auction generator's ~50 KiB-per-unit-scale rate.
const GB_SCALE: f64 = 21_000.0;

#[test]
fn gb_stream_is_memory_bounded_across_parallelism() {
    let w = flux_conformance::workload("auction_gb");
    assert!(w.generator_streamed());
    let (query, dtd) = (w.query.unwrap(), w.dtd.unwrap());
    let seed = 42;

    let mut digests = Vec::new();
    for parallelism in [
        Parallelism::Sequential,
        Parallelism::Shards(2),
        Parallelism::Shards(8),
    ] {
        let engine =
            FluxEngine::compile(query, dtd, &flux_conformance::options(parallelism)).unwrap();

        let budget = MemoryBudget::new(BUDGET);
        let bytes_in = Arc::new(AtomicU64::new(0));
        let source = CountingReader {
            inner: w.stream(GB_SCALE, seed),
            seen: Arc::clone(&bytes_in),
        };
        let mut sink = HashSink::new();
        let stats = engine
            .run_input(
                Input::from_reader(source).budget(Arc::clone(&budget)),
                &mut sink,
            )
            .unwrap_or_else(|e| panic!("{parallelism:?}: GB stream failed: {e}"));

        let consumed = bytes_in.load(Ordering::Relaxed);
        assert!(
            consumed >= GIB,
            "{parallelism:?}: axis fell short of 1 GiB: {consumed} bytes"
        );
        // The engine already failed the run if the budget was exceeded;
        // assert the tracking itself was live and genuinely bounded.
        assert!(
            budget.peak_total() > 0 && budget.peak_total() <= BUDGET,
            "{parallelism:?}: tracked peak {} of {BUDGET}",
            budget.peak_total()
        );
        assert!(stats.output_bytes > 0);
        digests.push((format!("{parallelism:?}"), sink.hash, sink.len));
    }

    let (_, hash, len) = digests[0].clone();
    for (label, h, l) in &digests[1..] {
        assert_eq!(
            (*h, *l),
            (hash, len),
            "{label}: output diverged from sequential on the GB stream"
        );
    }
}

#[test]
fn streamed_ingestion_matches_in_memory_on_a_prefix() {
    // An in-memory-sized prefix of the GB axis: same generator, same
    // shape, small enough to materialise for exact byte comparison.
    let config = AuctionConfig::target_bytes(24 * 1024 * 1024, 7);
    let doc = auction_string(&config).into_bytes();

    for kind in [EngineKind::Flux, EngineKind::Projection, EngineKind::Dom] {
        let engine = Options::new()
            .compile(kind, gb_query(), AUCTION_DTD)
            .unwrap();
        let mut buffered = Vec::new();
        engine
            .run_input(Input::from_bytes(doc.clone()), &mut buffered)
            .unwrap();
        let mut streamed = Vec::new();
        engine
            .run_input(
                Input::from_reader(AuctionStream::new(config.clone())),
                &mut streamed,
            )
            .unwrap();
        assert_eq!(
            streamed,
            buffered,
            "{}: streamed output diverged from in-memory",
            kind.label()
        );
    }

    // And the sharded flux paths over the same stream.
    for shards in [2, 8] {
        let engine =
            FluxEngine::compile(gb_query(), AUCTION_DTD, &Options::new().shards(shards)).unwrap();
        let mut sequential = Vec::new();
        engine
            .run_input(Input::from_bytes(doc.clone()), &mut sequential)
            .unwrap();
        let mut streamed = Vec::new();
        engine
            .run_input(
                Input::from_reader(AuctionStream::new(config.clone())),
                &mut streamed,
            )
            .unwrap();
        assert_eq!(
            streamed, sequential,
            "shards={shards}: streamed output diverged from buffered"
        );
    }
}

#[test]
fn truncated_stream_fails_identically_to_in_memory() {
    let config = AuctionConfig::target_bytes(8 * 1024 * 1024, 3);
    let doc = auction_string(&config).into_bytes();
    // Cut mid-document (almost certainly mid-tag or mid-text).
    let prefix = doc[..doc.len() * 2 / 3].to_vec();

    let run = |parallelism: Parallelism, input: Input| -> String {
        let engine = FluxEngine::compile(
            gb_query(),
            AUCTION_DTD,
            &flux_conformance::options(parallelism),
        )
        .unwrap();
        let mut out = Vec::new();
        engine
            .run_input(input, &mut out)
            .expect_err("a truncated document must fail")
            .to_string()
    };

    let expected = run(Parallelism::Sequential, Input::from_bytes(prefix.clone()));
    for parallelism in [
        Parallelism::Sequential,
        Parallelism::Shards(2),
        Parallelism::Shards(8),
    ] {
        let streamed = run(parallelism, Input::from_reader(Cursor::new(prefix.clone())));
        assert_eq!(
            streamed, expected,
            "{parallelism:?}: streamed error diverged from in-memory"
        );
    }
}
