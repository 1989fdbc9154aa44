//! The workload matrix: every named input shape the test suite and the
//! conformance harness agree on.
//!
//! One bibliography stopped being enough the moment the paper's
//! claims — bounded buffers under adversarial shapes, sequential-exact
//! sharded errors — had to hold off the happy path. Each entry here is a
//! *named axis* of the input space: the two paper bibliographies, an
//! XMark-style auction document that scales to multi-MB, and the four
//! pathological shapes from [`flux_xmlgen::pathological`].
//!
//! Consumers:
//! * the conformance harness replays every workload through all engines ×
//!   parallelisms and asserts nothing observable moves;
//! * `tests/memory_behavior.rs` pins the exact event and buffer counts of
//!   engine-tier workloads at fixed scales.

use crate::{catalog_query, Domain, Q3};
use flux_xmlgen::{
    attr_heavy_string, auction_string, deep_string, mint_string, text_heavy_string,
    AttrHeavyConfig, AuctionConfig, AuctionStream, DeepConfig, MintConfig, TextHeavyConfig,
};
use std::io::Read;

/// One named workload: a deterministic document generator plus the schema
/// and query the engine tier runs over it.
pub struct Workload {
    /// Stable identifier.
    pub id: &'static str,
    /// What this workload stresses.
    pub description: &'static str,
    /// DTD for the validating (FluX) engine tier; `None` restricts the
    /// workload to the stream tier and the non-validating baselines.
    pub dtd: Option<&'static str>,
    /// Query for the engine tier; `None` = stream (parse-level) tier only.
    pub query: Option<&'static str>,
    /// The distinct-name vocabulary grows with document size — the input
    /// a closed reader exists for: its interner stays at the DTD's
    /// vocabulary however many names the document mints.
    pub adversarial_names: bool,
    document: fn(f64, u64) -> String,
    /// Generator-backed streamed source. Entries with `Some` can be
    /// driven at scales whose documents could never be materialised
    /// (the GB axis); the bytes are identical to `document()` at the
    /// same scale and seed. `None` falls back to a cursor over
    /// `document()`.
    stream: Option<StreamFn>,
}

/// Opens a workload's document as a streamed source at (scale, seed).
type StreamFn = fn(f64, u64) -> Box<dyn Read + Send>;

impl Workload {
    /// Generates this workload's document at roughly `scale` × base size.
    pub fn document(&self, scale: f64, seed: u64) -> String {
        (self.document)(scale, seed)
    }

    /// Opens this workload's document as a streamed source — the bytes
    /// `document(scale, seed)` would produce, arriving through an opaque
    /// `Read` suitable for `Input::from_reader`. Generator-streamed
    /// entries never materialise the document.
    pub fn stream(&self, scale: f64, seed: u64) -> Box<dyn Read + Send> {
        match self.stream {
            Some(open) => open(scale, seed),
            None => Box::new(std::io::Cursor::new(
                self.document(scale, seed).into_bytes(),
            )),
        }
    }

    /// Whether [`Workload::stream`] is generator-backed (safe at GB
    /// scales) rather than a cursor over the materialised document.
    pub fn generator_streamed(&self) -> bool {
        self.stream.is_some()
    }
}

/// The full matrix, in stable order.
pub fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            id: "bib_weak",
            description: "paper bibliography, weak DTD `book (title|author)*`",
            dtd: Some(Domain::BibWeak.dtd()),
            query: Some(Q3),
            adversarial_names: false,
            document: |scale, seed| Domain::BibWeak.document(scale, seed),
            stream: None,
        },
        Workload {
            id: "bib_fig1",
            description: "paper bibliography, strong Figure 1 DTD",
            dtd: Some(Domain::BibFig1.dtd()),
            query: Some(Q3),
            adversarial_names: false,
            document: |scale, seed| Domain::BibFig1.document(scale, seed),
            stream: None,
        },
        Workload {
            id: "auction",
            description: "XMark-style auction site (multi-MB document-size axis)",
            dtd: Some(Domain::Auction.dtd()),
            query: Some(catalog_query("AUC-EXP").query),
            adversarial_names: false,
            document: |scale, seed| Domain::Auction.document(scale, seed),
            stream: None,
        },
        Workload {
            id: "auction_gb",
            description: "GB-scale auction stream (generator-streamed ingestion; the \
                          document is produced behind a `Read` and never materialised)",
            dtd: Some(Domain::Auction.dtd()),
            query: Some(catalog_query("AUC-EXP").query),
            adversarial_names: false,
            document: |scale, seed| auction_string(&AuctionConfig::scale(scale, seed)),
            stream: Some(|scale, seed| {
                Box::new(AuctionStream::new(AuctionConfig::scale(scale, seed)))
            }),
        },
        Workload {
            id: "deep",
            description: "deeply recursive spines (element stack depth axis)",
            dtd: None,
            query: None,
            adversarial_names: false,
            document: |scale, seed| {
                deep_string(&DeepConfig::new(
                    128,
                    ((24.0 * scale).ceil() as usize).max(1),
                    seed,
                ))
            },
            stream: None,
        },
        Workload {
            id: "attr_heavy",
            description: "attribute-dominated bibliography (per-event attribute lists)",
            dtd: Some(Domain::BibWeak.dtd()),
            query: Some(Q3),
            adversarial_names: false,
            document: |scale, seed| {
                attr_heavy_string(&AttrHeavyConfig::new(
                    ((40.0 * scale).ceil() as usize).max(1),
                    10,
                    seed,
                ))
            },
            stream: None,
        },
        Workload {
            id: "text_heavy",
            description: "text-dominated bibliography with entities mid-run",
            dtd: Some(Domain::BibWeak.dtd()),
            query: Some(Q3),
            adversarial_names: false,
            document: |scale, seed| {
                text_heavy_string(&TextHeavyConfig::new(
                    ((12.0 * scale).ceil() as usize).max(1),
                    80,
                    seed,
                ))
            },
            stream: None,
        },
        Workload {
            id: "name_mint",
            description: "name-minting adversary (unbounded distinct-name vocabulary)",
            dtd: Some(Domain::BibWeak.dtd()),
            query: Some(Q3),
            adversarial_names: true,
            document: |scale, seed| {
                mint_string(&MintConfig::new(
                    ((50.0 * scale).ceil() as usize).max(1),
                    6,
                    seed,
                ))
            },
            stream: None,
        },
    ]
}

/// Looks up a workload by id.
pub fn workload(id: &str) -> Workload {
    workloads()
        .into_iter()
        .find(|w| w.id == id)
        .unwrap_or_else(|| panic!("unknown workload {id}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_unique_and_sections_named() {
        let all = workloads();
        let mut ids: Vec<_> = all.iter().map(|w| w.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), all.len());
    }

    #[test]
    fn documents_deterministic_and_scaling() {
        for w in workloads() {
            let a = w.document(0.2, 7);
            let b = w.document(0.2, 7);
            assert_eq!(a, b, "{} not deterministic", w.id);
            let large = w.document(2.0, 7);
            assert!(
                large.len() > a.len() * 4,
                "{} does not scale: {} -> {}",
                w.id,
                a.len(),
                large.len()
            );
        }
    }

    #[test]
    fn generator_streamed_entries_match_their_documents() {
        let mut saw_streamed = false;
        for w in workloads() {
            // Cursor-backed fallback is identical by construction; the
            // generator-backed path is the one that can drift.
            if !w.generator_streamed() {
                continue;
            }
            saw_streamed = true;
            let mut streamed = Vec::new();
            w.stream(0.3, 11).read_to_end(&mut streamed).unwrap();
            assert_eq!(streamed, w.document(0.3, 11).into_bytes(), "{}", w.id);
        }
        assert!(saw_streamed, "matrix lost its GB-scale streamed entry");
    }

    #[test]
    fn engine_tier_workloads_have_dtd_and_query() {
        for w in workloads() {
            if w.query.is_some() {
                assert!(w.dtd.is_some(), "{}: query without DTD", w.id);
            }
        }
    }
}
