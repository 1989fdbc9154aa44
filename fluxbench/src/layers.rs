//! The one file that calls into the product crates.
//!
//! Every layer is entered through the public entry point ROADMAP names as
//! a survivor of the coming API collapse (`prescan_into`,
//! `XmlReader::advance`, `XsaxParser::next_step`, `Options::compile`,
//! `run_input`, `XmlWriter::write_event_ref`), so that collapse costs the
//! benchmark a follow-up here and nowhere else. Nothing in this file
//! takes a time: callers wrap these functions in spans.

use flux_dtd::Dtd;
use flux_xml::simd::{prescan_into, StructuralIndex};
use flux_xml::{XmlReader, XmlWriter};
use flux_xmlgen::{write_auction, write_bib, AuctionConfig, BibConfig};
use flux_xsax::XsaxParser;
use fluxquery_core::{AnyEngine, EngineKind, Input, Options};
use std::io::{self, Write};
use std::sync::Arc;

pub use flux_xml::active_isa_name;

/// A layer call that failed, rendered for the failure log.
pub type LayerResult<T> = Result<T, String>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Which generator produces a workload's document, and how much of it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Doc {
    /// Bibliography valid under the Figure 1 DTD, roughly `bytes` long.
    BibFig1 { bytes: usize },
    /// Bibliography under the weak DTD `book (title|author)*`.
    BibWeak { bytes: usize },
    /// XMark-style auction site, roughly `bytes` long.
    Auction { bytes: usize },
    /// Auction site with entity counts fixed by `scale`, whatever the seed:
    /// for queries whose work is not linear in the bytes.
    AuctionScale { scale: f64 },
}

/// Streams the document into `out`; the same `(doc, seed)` always gives
/// the same bytes. Returns the byte count.
pub fn generate(doc: Doc, seed: u64, mut out: impl Write) -> LayerResult<u64> {
    // Bibliographies have no size knob: measure a probe's bytes per book.
    const PROBE_BOOKS: usize = 2_000;
    let bib = |config: fn(usize, u64) -> BibConfig, bytes: usize, out: &mut dyn Write| {
        let mut probe = ByteCounter::default();
        write_bib(&config(PROBE_BOOKS, seed), &mut probe).map_err(err)?;
        let books = (bytes as u64 * PROBE_BOOKS as u64 / probe.bytes.max(1)).max(1);
        write_bib(&config(books as usize, seed), out).map_err(err)
    };
    match doc {
        Doc::BibFig1 { bytes } => bib(BibConfig::fig1, bytes, &mut out),
        Doc::BibWeak { bytes } => bib(BibConfig::weak, bytes, &mut out),
        Doc::Auction { bytes } => {
            write_auction(&AuctionConfig::target_bytes(bytes, seed), out).map_err(err)
        }
        Doc::AuctionScale { scale } => {
            write_auction(&AuctionConfig::scale(scale, seed), out).map_err(err)
        }
    }
}

/// `flux_xml::simd`: the structural prescan over the whole document.
/// Returns the number of `<` positions indexed.
pub fn prescan(doc: &[u8]) -> u64 {
    let mut index = StructuralIndex::new();
    prescan_into(doc, 0, &mut index);
    std::hint::black_box(&index).lt.pending() as u64
}

/// `flux_xml::reader`: tokenise the document, returning the event count.
pub fn read_events(doc: &[u8]) -> LayerResult<u64> {
    let mut reader = XmlReader::new(doc);
    let mut events = 0u64;
    while reader.advance().map_err(err)? {
        events += 1;
    }
    Ok(events)
}

/// A parsed DTD for [`validate`].
pub struct Schema(Dtd);

pub fn parse_dtd(dtd_text: &str) -> LayerResult<Schema> {
    Dtd::parse(dtd_text).map(Schema).map_err(err)
}

/// `flux_xsax`: tokenise and validate against the DTD, returning the
/// step count (SAX events; no `on-first` query is registered).
pub fn validate(doc: &[u8], schema: &Schema) -> LayerResult<u64> {
    let mut parser = XsaxParser::new(doc, &schema.0).map_err(err)?;
    let mut steps = 0u64;
    while parser.next_step().map_err(err)?.is_some() {
        steps += 1;
    }
    Ok(steps)
}

/// `flux_xml::writer`: tokenise `doc` and serialise every event into
/// `sink`. The caller subtracts [`read_events`] over the same bytes to
/// isolate the writer.
pub fn copy_events(doc: &[u8], sink: impl Write) -> LayerResult<u64> {
    let mut reader = XmlReader::new(doc);
    let mut writer = XmlWriter::new(sink);
    while reader.advance().map_err(err)? {
        writer
            .write_event_ref(reader.symbols(), &reader.view())
            .map_err(err)?;
    }
    writer.finish().map_err(err)?;
    Ok(writer.bytes_written())
}

/// A compiled query: `flux_lang` + `flux_runtime` plan behind the engine
/// facade. Compiling is the benchmark's `setup_s`.
pub struct Engine(AnyEngine);

/// The counts one run reports about itself (`RunStats`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunCounts {
    pub events: u64,
    pub output_bytes: u64,
    pub peak_buffer_bytes: u64,
    pub total_buffered_bytes: u64,
}

/// DTD parse → normalise → schedule/optimise → plan compile.
pub fn compile(query: &str, dtd_text: &str) -> LayerResult<Engine> {
    Options::new()
        .compile(EngineKind::Flux, query, dtd_text)
        .map(Engine)
        .map_err(err)
}

impl Engine {
    /// `flux_runtime`: the embedder's run over an in-memory document.
    pub fn run(&self, doc: &Arc<Vec<u8>>, sink: impl Write) -> LayerResult<RunCounts> {
        let stats = self
            .0
            .run_input(Input::from_shared_bytes(Arc::clone(doc)), sink)
            .map_err(err)?;
        Ok(RunCounts {
            events: stats.events,
            output_bytes: stats.output_bytes,
            peak_buffer_bytes: stats.peak_buffer_bytes as u64,
            total_buffered_bytes: stats.total_buffered_bytes,
        })
    }
}

/// A sink that only counts, so a timed run pays for no output handling.
#[derive(Debug, Default)]
pub struct ByteCounter {
    pub bytes: u64,
}

impl Write for ByteCounter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.bytes += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}
