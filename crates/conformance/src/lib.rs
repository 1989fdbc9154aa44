//! # flux_conformance
//!
//! The differential conformance harness: one place that replays every
//! [`Workload`] of the matrix — and every entry of
//! the malformed corpus — through each execution configuration and
//! asserts that **nothing observable moves**:
//!
//! * **Stream tier** ([`assert_stream_equivalent`]): the sequential
//!   [`XmlReader`] versus the sharded reader at shard counts
//!   [`SHARD_COUNTS`]. The delivered event sequence must be identical, and on malformed input
//!   the terminal error must match **byte-exactly** — same rendered
//!   message, same offset, same line, same column.
//! * **Engine tier** ([`assert_engines_equivalent`]): FluXQuery, the
//!   projection baseline and the DOM baseline over the workload's query.
//!   Output bytes must agree across architectures; for the FluX engine,
//!   output *and* run statistics (peak/total buffer accounting, event
//!   counts) must be invariant across sequential parsing (a reader closed
//!   at the plan's vocabulary) and every shard count (open shard readers).
//!
//! It also owns what the workspace's integration tests share: the query
//! [`catalog`], the generated [`Domain`]s, the [`workloads()`] matrix and the
//! [`run_engine`] helpers.
//!
//! The harness is a library so the workspace's release `conformance` CI
//! job, the proptest suites and one-off reproductions all drive the same
//! assertions.

use flux_shard::{ShardConfig, ShardedReader};
use flux_xml::{collect_events, EventSource, Position, SymbolTable, XmlEvent, XmlReader};
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

/// The engine configurations every output-equivalence grid runs, with a
/// label each: the FluX engine with and without the algebraic optimizer,
/// and both baselines.
pub fn engine_configurations() -> [(&'static str, EngineKind, Options); 4] {
    [
        ("fluxquery", EngineKind::Flux, Options::new()),
        (
            "fluxquery-noalg",
            EngineKind::Flux,
            Options::new().algebraic_optimizer(false),
        ),
        ("projection", EngineKind::Projection, Options::new()),
        ("dom", EngineKind::Dom, Options::new()),
    ]
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
/// options (shard count, compiler ablations, …).
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
pub fn stream_sequential(bytes: &[u8]) -> StreamOutcome {
    drain(XmlReader::new(bytes))
}

/// Parses `bytes` with the sharded reader, at a chunk target of a
/// `shards`-th of the document so even small documents shard.
pub fn stream_sharded(bytes: &[u8], shards: usize) -> StreamOutcome {
    let mut config = ShardConfig::new(shards);
    config.chunk_bytes = (bytes.len() / shards).max(1);
    let src = std::io::Cursor::new(bytes.to_vec());
    drain(ShardedReader::from_stream(src, config, SymbolTable::new()))
}

/// Asserts the full stream-tier grid on one input: sequential versus
/// sharded × `SHARD_COUNTS`. Returns the sequential outcome so callers
/// can make further assertions (e.g. against the corpus manifest).
pub fn assert_stream_equivalent(label: &str, bytes: &[u8]) -> StreamOutcome {
    let sequential = stream_sequential(bytes);
    for shards in SHARD_COUNTS {
        let sharded = stream_sharded(bytes, shards);
        assert_eq!(
            sharded.events.len(),
            sequential.events.len(),
            "{label}: prefix length diverged ({shards} shards): \
             sequential error {:?}, sharded error {:?}",
            sequential.error,
            sharded.error,
        );
        assert_eq!(
            sharded, sequential,
            "{label}: stream diverged ({shards} shards)"
        );
    }
    sequential
}

/// The statistics that must be invariant across execution configurations
/// of the *same* engine (wall-clock time excluded).
pub fn stats_fingerprint(stats: &RunStats) -> (usize, usize, u64, u64, u64, u64, u64) {
    (
        stats.peak_buffer_bytes,
        stats.peak_buffer_nodes,
        stats.total_buffered_bytes,
        stats.output_bytes,
        stats.events,
        stats.skipped_subtrees,
        stats.skipped_bytes,
    )
}

/// The builder options for one cell of the grid: a parallelism.
pub fn options(parallelism: Parallelism) -> Options {
    match parallelism {
        Parallelism::Sequential => Options::new(),
        Parallelism::Shards(n) => Options::new().shards(n),
    }
}

/// Asserts the engine tier on one workload document: all architectures
/// agree on the output bytes, and the FluX engine's output *and* stats
/// are invariant across shard counts — a sequential run reads through a
/// closed reader, a sharded one through open shard readers. Panics on
/// workloads without a query (stream-tier-only shapes).
pub fn assert_engines_equivalent(w: &Workload, scale: f64, seed: u64) {
    let query = w
        .query
        .unwrap_or_else(|| panic!("workload {} has no engine tier", w.id));
    let dtd = w.dtd.expect("engine-tier workloads declare a DTD");
    let doc = w.document(scale, seed);

    // Reference: FluX, sequential.
    let reference = run_engine_with(
        EngineKind::Flux,
        query,
        dtd,
        doc.as_bytes(),
        &options(Parallelism::Sequential),
    )
    .unwrap_or_else(|e| panic!("{}: flux sequential failed: {e}", w.id));

    // Architectures agree on the output bytes.
    for kind in [EngineKind::Projection, EngineKind::Dom] {
        let outcome = run_engine_with(
            kind,
            query,
            dtd,
            doc.as_bytes(),
            &options(Parallelism::Sequential),
        )
        .unwrap_or_else(|e| panic!("{}: {} failed: {e}", w.id, kind.label()));
        assert_eq!(
            outcome.output,
            reference.output,
            "{}: {} output diverged from flux (scale {scale}, seed {seed})",
            w.id,
            kind.label()
        );
    }

    // Streamed ingestion: the same document arriving through an opaque
    // `Read` (generator-backed where the workload has one, a cursor
    // otherwise), whose length the engine cannot know, must be
    // indistinguishable from the in-memory slice — output and stats,
    // sequentially and sharded.
    for parallelism in [Parallelism::Sequential, Parallelism::Shards(2)] {
        let outcome = run_engine_input(
            EngineKind::Flux,
            query,
            dtd,
            Input::from_reader(w.stream(scale, seed)),
            &options(parallelism),
        )
        .unwrap_or_else(|e| panic!("{}: flux streamed {parallelism:?} failed: {e}", w.id));
        assert_eq!(
            outcome.output, reference.output,
            "{}: streamed ingestion diverged from in-memory ({parallelism:?})",
            w.id
        );
        assert_eq!(
            stats_fingerprint(&outcome.stats),
            stats_fingerprint(&reference.stats),
            "{}: streamed ingestion stats diverged ({parallelism:?})\n  streamed: {}\n  in-memory: {}",
            w.id,
            outcome.stats,
            reference.stats
        );
    }

    // FluX: output and stats invariant across shard counts.
    for shards in SHARD_COUNTS {
        let outcome = run_engine_with(
            EngineKind::Flux,
            query,
            dtd,
            doc.as_bytes(),
            &options(Parallelism::Shards(shards)),
        )
        .unwrap_or_else(|e| panic!("{}: flux shards={shards} failed: {e}", w.id));
        assert_eq!(
            outcome.output, reference.output,
            "{}: flux output diverged (shards {shards})",
            w.id
        );
        assert_eq!(
            stats_fingerprint(&outcome.stats),
            stats_fingerprint(&reference.stats),
            "{}: flux stats diverged (shards {shards})\n  sharded:    {}\n  sequential: {}",
            w.id,
            outcome.stats,
            reference.stats
        );
    }
}

/// A bibliography schema for the print-only buffer arms: `author` may come
/// before `title` (so it is buffered), holds mixed content and carries a
/// defaulted attribute.
pub const PRINT_ONLY_DTD: &str = "<!ELEMENT bib (book)*>\n\
     <!ELEMENT book (title|author|price)*>\n\
     <!ELEMENT title (#PCDATA)>\n\
     <!ELEMENT author (#PCDATA|first|last)*>\n\
     <!ATTLIST author role CDATA \"main\">\n\
     <!ELEMENT first (#PCDATA)>\n\
     <!ELEMENT last (#PCDATA)>\n\
     <!ELEMENT price (#PCDATA)>";

/// A document valid under [`PRINT_ONLY_DTD`]: `books` books of shuffled
/// titles, authors and prices. Authors mix text (with `&`, `<` and `>`)
/// and `first`/`last` children, and carry attributes no DTD declares —
/// names a closed reader cannot intern — followed by `role`. With
/// `omit_defaults`, a `role` equal to the DTD default is left out, so a
/// validating engine must inject it; the document is otherwise
/// byte-identical, and the non-validating baselines agree with the
/// variant that spells it out.
pub fn print_only_document(books: usize, seed: u64, omit_defaults: bool) -> String {
    let mut next = choices(seed);
    let mut doc = String::from("<bib>");
    for b in 0..books {
        doc.push_str("<book>");
        for c in 0..next(5) + 1 {
            match next(4) {
                0 => doc.push_str(&format!("<title>T{b}.{c} &amp; co</title>")),
                1 => doc.push_str(&format!("<price>{}</price>", next(90) + 10)),
                _ => {
                    doc.push_str("<author");
                    for m in 0..next(3) {
                        doc.push_str(&format!(" m{b}x{m}=\"v{m}&amp;&lt;\""));
                    }
                    let role = ["main", "main", "editor"][next(3) as usize];
                    if !(omit_defaults && role == "main") {
                        doc.push_str(&format!(" role=\"{role}\""));
                    }
                    doc.push('>');
                    match next(3) {
                        0 => doc.push_str(&format!("A{b} &lt;x&gt; &amp; y > z")),
                        1 => doc.push_str(&format!("<first>F{c}</first> <last>L{b}</last>")),
                        _ => {}
                    }
                    doc.push_str("</author>");
                }
            }
        }
        doc.push_str("</book>");
    }
    doc.push_str("</bib>");
    doc
}

/// A deterministic stream of choices for the fixture generators: each
/// call draws from `0..n` (SplitMix64).
fn choices(seed: u64) -> impl FnMut(u64) -> u64 {
    let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
    move |n| {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }
}

/// A library schema for the skipped-subtree arms: `meta` and `annex`
/// hang off the root, `book`s two levels down, and `note`s nest to any
/// depth inside all of them — so a query reading one part leaves the
/// others unread at depths one, two, three and below.
pub const SKIP_DTD: &str = "<!ELEMENT lib (meta?, shelf*, annex?)>\n\
     <!ELEMENT meta (#PCDATA|note)*>\n\
     <!ELEMENT note (#PCDATA|note|em)*>\n\
     <!ATTLIST note kind CDATA #IMPLIED>\n\
     <!ELEMENT em (#PCDATA)>\n\
     <!ELEMENT shelf (label, book*)>\n\
     <!ATTLIST shelf id CDATA #REQUIRED>\n\
     <!ELEMENT label (#PCDATA)>\n\
     <!ELEMENT book (title, author*, blurb?)>\n\
     <!ATTLIST book year CDATA #IMPLIED>\n\
     <!ELEMENT title (#PCDATA)>\n\
     <!ELEMENT author (#PCDATA)>\n\
     <!ELEMENT blurb (#PCDATA|em|note)*>\n\
     <!ELEMENT annex (note*)>";

/// Queries over [`SKIP_DTD`] documents, each leaving different subtrees
/// unread: whole sections at depth one, books at depth two, leaves and
/// blurbs at depth three, and nested notes below a note that is read.
pub const SKIP_SHAPES: &[&str] = &[
    "<out>{ for $s in $ROOT/lib/shelf return <s>{$s/label}</s> }</out>",
    "<out>{ for $b in $ROOT/lib/shelf/book return $b/title }</out>",
    r#"<out>{ for $b in $ROOT/lib/shelf/book where $b/author = "A1" return <hit>{$b/title}</hit> }</out>"#,
    "<out>{ for $b in $ROOT/lib/shelf/book return <r>{$b/blurb}</r> }</out>",
    "<out>{ for $a in $ROOT/lib/annex return $a }</out>",
    r#"<out>{ for $s in $ROOT/lib/shelf return <s k="{$s/@id}">{ for $b in $s/book return <y k="{$b/@year}"/> }</s> }</out>"#,
    "<out>{ for $m in $ROOT/lib/meta return for $n in $m/note return <n>{$n/em}</n> }</out>",
    "<out>{ for $b in $ROOT/lib/shelf/book return if (exists($b/blurb)) then $b/title else () }</out>",
];

/// A document valid under [`SKIP_DTD`] with `shelves` shelves. The notes
/// carry what the reader's hop must still check or hand to its ordinary
/// parse: entity and character references, CDATA, comments, PIs, `>` in
/// text, empty elements, attributes with names no DTD declares (so a
/// closed reader overflows) and text runs longer than the smallest
/// reader window, nested up to a dozen deep.
pub fn skip_document(shelves: usize, seed: u64) -> String {
    /// A chain of up to `depth + 1` nested notes.
    fn note(doc: &mut String, next: &mut impl FnMut(u64) -> u64, depth: u64) {
        let mut open = 0;
        loop {
            doc.push_str("<note");
            if next(2) == 0 {
                doc.push_str(&format!(
                    " kind=\"k{}\" x{}y{}=\"v&amp;\"",
                    next(3),
                    next(9),
                    next(9)
                ));
            }
            doc.push('>');
            match next(6) {
                0 => doc.push_str("a &amp; b &#x3C; c &#60; d > e"),
                1 => doc.push_str("<![CDATA[<raw> & ]]>text<!-- c -->more<?pi data?>"),
                2 => doc.push_str(&"long run of note text ".repeat(next(12) as usize + 4)),
                3 => doc.push_str("<em>E</em> <em/>"),
                _ => doc.push_str("\n  plain\n"),
            }
            open += 1;
            if open > depth || next(3) == 0 {
                break;
            }
        }
        for _ in 0..open {
            doc.push_str("</note>");
        }
    }
    let mut next = choices(seed);
    let mut doc = String::from("<lib>");
    if next(4) > 0 {
        doc.push_str("<meta>m");
        for _ in 0..next(4) {
            note(&mut doc, &mut next, 12);
        }
        doc.push_str("</meta>");
    }
    for s in 0..shelves {
        doc.push_str(&format!("<shelf id=\"s{s}\"><label>L{s} &amp; co</label>"));
        for b in 0..next(4) {
            match next(2) {
                0 => doc.push_str("<book>"),
                _ => doc.push_str(&format!("<book year=\"{}\">", 1990 + next(30))),
            }
            doc.push_str(&format!("<title>T{s}.{b}</title>"));
            for _ in 0..next(3) {
                doc.push_str(&format!("<author>A{}</author>", next(3)));
            }
            if next(3) > 0 {
                doc.push_str("<blurb>b ");
                note(&mut doc, &mut next, 4);
                doc.push_str("<em>x</em></blurb>");
            }
            doc.push_str("</book>");
        }
        doc.push_str("</shelf>");
    }
    if next(3) > 0 {
        doc.push_str("<annex>");
        for _ in 0..next(3) + 1 {
            note(&mut doc, &mut next, 3);
        }
        doc.push_str("</annex>");
    }
    doc.push_str("</lib>");
    doc
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
/// engine architecture must reproduce the reference output byte-for-byte
/// — the FluX engine sequentially (a closed reader) and at shard counts
/// {1, 2} (open shard readers), with run statistics invariant across them.
/// The baselines take no parallelism, so they run once.
pub fn assert_cursor_matches_reference(label: &str, query: &str, dtd: &str, bytes: &[u8]) {
    let expected = reference_output(query, bytes)
        .unwrap_or_else(|e| panic!("{label}: reference evaluation failed: {e}\n{query}"));
    let grid = [
        (EngineKind::Flux, Parallelism::Sequential),
        (EngineKind::Flux, Parallelism::Shards(1)),
        (EngineKind::Flux, Parallelism::Shards(2)),
        (EngineKind::Projection, Parallelism::Sequential),
        (EngineKind::Dom, Parallelism::Sequential),
    ];
    let mut fingerprint = None;
    for (kind, parallelism) in grid {
        let outcome = run_engine_with(kind, query, dtd, bytes, &options(parallelism))
            .unwrap_or_else(|e| {
                panic!(
                    "{label}: {} {parallelism:?} failed: {e}\n{query}",
                    kind.label()
                )
            });
        assert_eq!(
            String::from_utf8_lossy(&outcome.output),
            expected,
            "{label}: {} diverged from the reference evaluator ({parallelism:?})\n{query}",
            kind.label()
        );
        if kind == EngineKind::Flux {
            let fp = stats_fingerprint(&outcome.stats);
            match &fingerprint {
                None => fingerprint = Some(fp),
                Some(first) => assert_eq!(
                    &fp, first,
                    "{label}: flux stats moved across the grid ({parallelism:?})"
                ),
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
