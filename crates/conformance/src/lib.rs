//! # flux_conformance
//!
//! The differential conformance harness: one place that replays every
//! [`Workload`] of the matrix — and every entry of
//! the malformed corpus — through each execution configuration and
//! asserts that **nothing observable moves**:
//!
//! * **Stream tier** ([`assert_stream_equivalent`]): the sequential
//!   [`XmlReader`] versus the sharded reader at shard counts
//!   [`SHARD_COUNTS`], with the interner unbounded and capped. The
//!   delivered event sequence must be identical, and on malformed input
//!   the terminal error must match **byte-exactly** — same rendered
//!   message, same offset, same line, same column.
//! * **Engine tier** ([`assert_engines_equivalent`]): FluXQuery, the
//!   projection baseline and the DOM baseline over the workload's query.
//!   Output bytes must agree across architectures; for the FluX engine,
//!   output *and* run statistics (peak/total buffer accounting, event
//!   counts) must be invariant across shard counts and interner caps.
//!
//! It also owns what the workspace's integration tests share: the query
//! [`catalog`], the generated [`Domain`]s, the [`workloads()`] matrix and the
//! [`run_engine`] helpers.
//!
//! The harness is a library so the workspace's release `conformance` CI
//! job, the proptest suites and one-off reproductions all drive the same
//! assertions.

use flux_shard::{ShardConfig, ShardedReader};
use flux_xml::{
    collect_events, EventSource, Position, ReaderConfig, SymbolTable, XmlEvent, XmlReader,
};
use flux_xmlgen::{auction_string, bib_string, AuctionConfig, BibConfig, AUCTION_DTD};
use fluxquery_core::{EngineKind, Error, Input, Options, Parallelism, RunStats};

pub mod workloads;

pub use flux_xmlgen::{corpus, CorpusEntry};
pub use workloads::{workload, workloads, Workload};

/// Which generated corpus a query runs against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Domain {
    /// Bibliography under the weak DTD `book (title|author)*`.
    BibWeak,
    /// Bibliography under the Figure 1 DTD.
    BibFig1,
    /// XMark-style auction site.
    Auction,
}

impl Domain {
    pub fn dtd(self) -> &'static str {
        match self {
            Domain::BibWeak => fluxquery_core::PAPER_WEAK_DTD,
            Domain::BibFig1 => fluxquery_core::PAPER_FIG1_DTD,
            Domain::Auction => AUCTION_DTD,
        }
    }

    /// Generates a document of roughly `scale` × the base size.
    pub fn document(self, scale: f64, seed: u64) -> String {
        match self {
            Domain::BibWeak => {
                let books = ((100.0 * scale).ceil() as usize).max(1);
                bib_string(&BibConfig::weak(books, seed))
            }
            Domain::BibFig1 => {
                let books = ((100.0 * scale).ceil() as usize).max(1);
                bib_string(&BibConfig::fig1(books, seed))
            }
            Domain::Auction => auction_string(&AuctionConfig::scale(scale, seed)),
        }
    }
}

/// One catalog entry.
#[derive(Debug, Clone, Copy)]
pub struct CatalogQuery {
    pub id: &'static str,
    pub description: &'static str,
    pub query: &'static str,
    pub domain: Domain,
}

/// XMP Q3 — the paper's running example.
pub const Q3: &str = r#"<results>{ for $b in $ROOT/bib/book return <result>{$b/title}{$b/author}</result> }</results>"#;

/// The query catalog: XMP-style use-case queries in the supported fragment
/// plus auction workloads. Ids reference the XML Query Use Cases where a
/// direct counterpart exists.
pub fn catalog() -> Vec<CatalogQuery> {
    vec![
        CatalogQuery {
            id: "XMP-Q1",
            description: "books published after 1995 (attribute filter)",
            query: r#"<bib>{ for $b in $ROOT/bib/book where $b/@year > 1995 return <book year="{$b/@year}">{$b/title}</book> }</bib>"#,
            domain: Domain::BibFig1,
        },
        CatalogQuery {
            id: "XMP-Q2",
            description: "flat title/author pairs (nested loops)",
            query: r#"<results>{ for $b in $ROOT/bib/book return for $t in $b/title return for $a in $b/author return <result>{$t}{$a}</result> }</results>"#,
            domain: Domain::BibWeak,
        },
        CatalogQuery {
            id: "XMP-Q3",
            description: "titles and authors grouped per book (the paper's example)",
            query: Q3,
            domain: Domain::BibWeak,
        },
        CatalogQuery {
            id: "XMP-Q3s",
            description: "Q3 under the strong Figure 1 DTD (fully streaming)",
            query: Q3,
            domain: Domain::BibFig1,
        },
        CatalogQuery {
            id: "Q3-REV",
            description: "authors before titles (forces buffering of titles)",
            query: r#"<results>{ for $b in $ROOT/bib/book return <result>{$b/author}{$b/title}</result> }</results>"#,
            domain: Domain::BibWeak,
        },
        CatalogQuery {
            id: "FILTER",
            description: "whole books with a matching author (conditional copy)",
            query: r#"<hits>{ for $b in $ROOT/bib/book return if (exists($b/author)) then $b else () }</hits>"#,
            domain: Domain::BibWeak,
        },
        CatalogQuery {
            id: "PRICES",
            description: "cheap books: title and price (streaming under Fig. 1)",
            query: r#"<cheap>{ for $b in $ROOT/bib/book where $b/price < 30 return <offer>{$b/title}{$b/price}</offer> }</cheap>"#,
            domain: Domain::BibFig1,
        },
        CatalogQuery {
            id: "AUC-JOIN",
            description: "buyer names joined to closed auctions (value join)",
            query: r#"<sales>{ for $s in $ROOT/site return for $a in $s/closed_auctions/closed_auction, $p in $s/people/person where $a/buyer = $p/@id return <sale>{$p/name}{$a/price}</sale> }</sales>"#,
            domain: Domain::Auction,
        },
        CatalogQuery {
            id: "AUC-EXP",
            description: "expensive auctions (price > 400)",
            query: r#"<expensive>{ for $s in $ROOT/site return for $a in $s/closed_auctions/closed_auction where $a/price > 400 return <hit>{$a/itemref}{$a/price}</hit> }</expensive>"#,
            domain: Domain::Auction,
        },
    ]
}

/// Looks up a catalog query by id.
pub fn catalog_query(id: &str) -> CatalogQuery {
    catalog()
        .into_iter()
        .find(|q| q.id == id)
        .unwrap_or_else(|| panic!("unknown catalog query {id}"))
}

/// The result of one engine run.
pub struct RunOutcome {
    pub output: Vec<u8>,
    pub stats: RunStats,
}

/// Compiles and runs one engine on one document.
pub fn run_engine(
    kind: EngineKind,
    query: &str,
    dtd: &str,
    document: &[u8],
) -> Result<RunOutcome, Error> {
    run_engine_with(kind, query, dtd, document, &Options::new())
}

/// Compiles and runs one engine on one document with explicit execution
/// options (interner bound, shard count, …).
pub fn run_engine_with(
    kind: EngineKind,
    query: &str,
    dtd: &str,
    document: &[u8],
    options: &Options,
) -> Result<RunOutcome, Error> {
    run_engine_input(
        kind,
        query,
        dtd,
        Input::from_bytes(document.to_vec()),
        options,
    )
}

/// Compiles and runs one engine over a unified [`Input`] — the harness
/// entry point for streamed (generator- or file-backed) workloads, where
/// the document must never be materialised.
pub fn run_engine_input(
    kind: EngineKind,
    query: &str,
    dtd: &str,
    input: Input,
    options: &Options,
) -> Result<RunOutcome, Error> {
    let engine = options.compile(kind, query, dtd)?;
    let mut output = Vec::new();
    let stats = engine.run_input(input, &mut output)?;
    Ok(RunOutcome { output, stats })
}

/// Shard counts every differential assertion covers.
pub const SHARD_COUNTS: [usize; 3] = [1, 2, 8];

/// The tiny interner cap used for the bounded axis: small enough that
/// every workload's vocabulary overflows it, so the cap is genuinely
/// exercised rather than decorative.
pub const TINY_CAP: usize = 8;

/// Everything a raw parse observes: the delivered prefix and how it ended.
#[derive(Debug, PartialEq, Eq)]
pub struct StreamOutcome {
    /// Owned events delivered before success or failure.
    pub events: Vec<XmlEvent>,
    /// Terminal error, rendered, with its exact position.
    pub error: Option<(String, Option<Position>)>,
}

fn drain<S: EventSource>(mut source: S) -> StreamOutcome {
    let (events, error) = collect_events(&mut source);
    StreamOutcome {
        events,
        error: error.map(|e| (e.to_string(), e.position())),
    }
}

/// Parses `bytes` with the sequential reader.
pub fn stream_sequential(bytes: &[u8], max_symbols: Option<usize>) -> StreamOutcome {
    drain(XmlReader::with_config(
        bytes,
        ReaderConfig {
            max_symbols,
            ..ReaderConfig::default()
        },
    ))
}

/// Parses `bytes` with the sharded reader.
pub fn stream_sharded(bytes: &[u8], shards: usize, max_symbols: Option<usize>) -> StreamOutcome {
    let mut config = ShardConfig::new(shards);
    config.min_shard_bytes = 1; // shard even small documents
    config.reader.max_symbols = max_symbols;
    drain(ShardedReader::new(
        bytes.to_vec(),
        config,
        SymbolTable::new(),
    ))
}

/// Asserts the full stream-tier grid on one input: sequential versus
/// sharded × `SHARD_COUNTS` × unbounded/capped interner. Returns the
/// sequential outcome so callers can make further assertions (e.g.
/// against the corpus manifest).
pub fn assert_stream_equivalent(label: &str, bytes: &[u8]) -> StreamOutcome {
    let mut reference = None;
    for cap in [None, Some(TINY_CAP)] {
        let sequential = stream_sequential(bytes, cap);
        // The interner bound itself must be invisible to the event stream.
        if let Some(unbounded) = &reference {
            assert_eq!(
                &sequential, unbounded,
                "{label}: sequential stream changed under max_symbols={TINY_CAP}"
            );
        }
        for shards in SHARD_COUNTS {
            let sharded = stream_sharded(bytes, shards, cap);
            assert_eq!(
                sharded.events.len(),
                sequential.events.len(),
                "{label}: prefix length diverged ({shards} shards, cap {cap:?}): \
                 sequential error {:?}, sharded error {:?}",
                sequential.error,
                sharded.error,
            );
            assert_eq!(
                sharded, sequential,
                "{label}: stream diverged ({shards} shards, cap {cap:?})"
            );
        }
        if reference.is_none() {
            reference = Some(sequential);
        }
    }
    reference.expect("loop ran")
}

/// The statistics that must be invariant across execution configurations
/// of the *same* engine (wall-clock time excluded).
pub fn stats_fingerprint(stats: &RunStats) -> (usize, usize, u64, u64, u64) {
    (
        stats.peak_buffer_bytes,
        stats.peak_buffer_nodes,
        stats.total_buffered_bytes,
        stats.output_bytes,
        stats.events,
    )
}

/// The builder options for one cell of the grid: a parallelism and an
/// interner cap.
pub fn options(parallelism: Parallelism, cap: Option<usize>) -> Options {
    let mut o = Options::new();
    if let Some(cap) = cap {
        o = o.max_symbols(cap);
    }
    if let Parallelism::Shards(n) = parallelism {
        o = o.shards(n);
    }
    o
}

/// Asserts the engine tier on one workload document: all architectures
/// agree on the output bytes, and the FluX engine's output *and* stats
/// are invariant across shard counts and interner caps. Panics on
/// workloads without a query (stream-tier-only shapes).
pub fn assert_engines_equivalent(w: &Workload, scale: f64, seed: u64) {
    let query = w
        .query
        .unwrap_or_else(|| panic!("workload {} has no engine tier", w.id));
    let dtd = w.dtd.expect("engine-tier workloads declare a DTD");
    let doc = w.document(scale, seed);

    // Reference: FluX, sequential, unbounded.
    let reference = run_engine_with(
        EngineKind::Flux,
        query,
        dtd,
        doc.as_bytes(),
        &options(Parallelism::Sequential, None),
    )
    .unwrap_or_else(|e| panic!("{}: flux sequential failed: {e}", w.id));

    // Architectures agree on the output bytes.
    for kind in [EngineKind::Projection, EngineKind::Dom] {
        let outcome = run_engine_with(
            kind,
            query,
            dtd,
            doc.as_bytes(),
            &options(Parallelism::Sequential, None),
        )
        .unwrap_or_else(|e| panic!("{}: {} failed: {e}", w.id, kind.label()));
        assert_eq!(
            outcome.output,
            reference.output,
            "{}: {} output diverged from flux (scale {scale}, seed {seed})",
            w.id,
            kind.label()
        );
        // The baselines must also be blind to the interner cap.
        let capped = run_engine_with(
            kind,
            query,
            dtd,
            doc.as_bytes(),
            &options(Parallelism::Sequential, Some(TINY_CAP)),
        )
        .unwrap_or_else(|e| panic!("{}: {} capped failed: {e}", w.id, kind.label()));
        assert_eq!(
            capped.output,
            outcome.output,
            "{}: {} output changed under max_symbols={TINY_CAP}",
            w.id,
            kind.label()
        );
        assert_eq!(
            stats_fingerprint(&capped.stats),
            stats_fingerprint(&outcome.stats),
            "{}: {} stats changed under max_symbols={TINY_CAP}\n  capped:    {}\n  unbounded: {}",
            w.id,
            kind.label(),
            capped.stats,
            outcome.stats
        );
    }

    // Streamed ingestion: the same document arriving through an opaque
    // `Read` (generator-backed where the workload has one, a cursor
    // otherwise) must be indistinguishable from the buffered slice —
    // output and stats, sequentially and with incremental shard
    // dispatch, which takes a different code path than buffered shards.
    for parallelism in [Parallelism::Sequential, Parallelism::Shards(2)] {
        let outcome = run_engine_input(
            EngineKind::Flux,
            query,
            dtd,
            Input::from_reader(w.stream(scale, seed)),
            &options(parallelism, None),
        )
        .unwrap_or_else(|e| panic!("{}: flux streamed {parallelism:?} failed: {e}", w.id));
        assert_eq!(
            outcome.output, reference.output,
            "{}: streamed ingestion diverged from buffered ({parallelism:?})",
            w.id
        );
        assert_eq!(
            stats_fingerprint(&outcome.stats),
            stats_fingerprint(&reference.stats),
            "{}: streamed ingestion stats diverged ({parallelism:?})\n  streamed: {}\n  buffered: {}",
            w.id,
            outcome.stats,
            reference.stats
        );
    }

    // FluX: output and stats invariant across shards × caps.
    for shards in SHARD_COUNTS {
        for cap in [None, Some(TINY_CAP)] {
            let outcome = run_engine_with(
                EngineKind::Flux,
                query,
                dtd,
                doc.as_bytes(),
                &options(Parallelism::Shards(shards), cap),
            )
            .unwrap_or_else(|e| panic!("{}: flux shards={shards} cap={cap:?} failed: {e}", w.id));
            assert_eq!(
                outcome.output, reference.output,
                "{}: flux output diverged (shards {shards}, cap {cap:?})",
                w.id
            );
            assert_eq!(
                stats_fingerprint(&outcome.stats),
                stats_fingerprint(&reference.stats),
                "{}: flux stats diverged (shards {shards}, cap {cap:?})\n  sharded:    {}\n  sequential: {}",
                w.id,
                outcome.stats,
                reference.stats
            );
        }
    }
}

/// Materialises `bytes` into a plain DOM and evaluates `query` with the
/// *reference* (materialising) evaluator — the oracle the streaming cursor
/// evaluator is differential-tested against. Returns the rendered output,
/// or the rendered error.
pub fn reference_output(query: &str, bytes: &[u8]) -> Result<String, String> {
    let parsed = flux_xquery::parse_query(query).map_err(|e| e.to_string())?;
    let normalized = flux_xquery::normalize(&parsed).map_err(|e| e.to_string())?;
    let doc =
        flux_xml::Document::parse_reader(&mut XmlReader::new(bytes)).map_err(|e| e.to_string())?;
    flux_xquery::reference_eval_to_string(&doc, &normalized).map_err(|e| e.to_string())
}

/// Pins the compiled cursor evaluator to the reference evaluator: every
/// engine architecture, at shard counts {1, 2} with the interner unbounded
/// and capped, must reproduce the reference output byte-for-byte, and each
/// engine's run statistics must be invariant across the grid.
pub fn assert_cursor_matches_reference(label: &str, query: &str, dtd: &str, bytes: &[u8]) {
    let expected = reference_output(query, bytes)
        .unwrap_or_else(|e| panic!("{label}: reference evaluation failed: {e}\n{query}"));
    for kind in [EngineKind::Flux, EngineKind::Projection, EngineKind::Dom] {
        let mut fingerprint = None;
        for shards in [1usize, 2] {
            for cap in [None, Some(TINY_CAP)] {
                let outcome = run_engine_with(
                    kind,
                    query,
                    dtd,
                    bytes,
                    &options(Parallelism::Shards(shards), cap),
                )
                .unwrap_or_else(|e| {
                    panic!(
                        "{label}: {} shards={shards} cap={cap:?} failed: {e}\n{query}",
                        kind.label()
                    )
                });
                assert_eq!(
                    String::from_utf8_lossy(&outcome.output),
                    expected,
                    "{label}: {} diverged from the reference evaluator \
                     (shards {shards}, cap {cap:?})\n{query}",
                    kind.label()
                );
                let fp = stats_fingerprint(&outcome.stats);
                match &fingerprint {
                    None => fingerprint = Some(fp),
                    Some(first) => assert_eq!(
                        &fp,
                        first,
                        "{label}: {} stats moved across the grid (shards {shards}, cap {cap:?})",
                        kind.label()
                    ),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluxquery_core::AnyEngine;

    #[test]
    fn catalog_compiles_on_all_engines() {
        for q in catalog() {
            for kind in EngineKind::all() {
                AnyEngine::compile(kind, q.query, q.domain.dtd())
                    .unwrap_or_else(|e| panic!("{} failed on {}: {e}", q.id, kind.label()));
            }
        }
    }

    #[test]
    fn catalog_runs_and_agrees() {
        for q in catalog() {
            let doc = q.domain.document(0.3, 11);
            let mut reference: Option<Vec<u8>> = None;
            for kind in EngineKind::all() {
                let outcome = run_engine(kind, q.query, q.domain.dtd(), doc.as_bytes())
                    .unwrap_or_else(|e| panic!("{} failed on {}: {e}", q.id, kind.label()));
                match &reference {
                    None => reference = Some(outcome.output),
                    Some(expected) => assert_eq!(
                        &outcome.output,
                        expected,
                        "{} disagrees on {}",
                        kind.label(),
                        q.id
                    ),
                }
            }
        }
    }

    #[test]
    fn stream_tier_smoke() {
        let outcome = assert_stream_equivalent("smoke", b"<r><a>x</a><b k=\"v\"/></r>");
        assert!(outcome.error.is_none());
        assert!(!outcome.events.is_empty());
    }

    #[test]
    fn stream_tier_reports_errors() {
        let outcome = assert_stream_equivalent("smoke-err", b"<r><a>x</b></r>");
        let (msg, pos) = outcome.error.expect("mismatched tags must fail");
        assert!(msg.contains("mismatched end tag"), "{msg}");
        assert!(pos.is_some());
    }
}
