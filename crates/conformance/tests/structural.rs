//! Structural-prescan conformance over the malformed corpus and the
//! pathological workload generators.
//!
//! The proptest suite in `flux_xml` establishes kernel equivalence on
//! synthetic byte soup; this suite pins it on the repository's *real*
//! adversarial inputs — all corpus entries (truncations, stray bytes,
//! invalid UTF-8, constructs split mid-token) and the pathological
//! workload documents (deep nesting, attribute walls, text floods,
//! unbounded name minting). Every kernel this host can run must produce
//! a byte-identical structural index to the per-byte reference on each
//! of them, with the sweep both whole and split at refill-like offsets.
//! The CI legs that re-run the whole suite under `FLUX_FORCE_SWAR=1`
//! and `FLUX_FORCE_ISA=avx2` extend the same guarantee to the parser's
//! event streams.

use flux_conformance::corpus;
use flux_xml::simd::{available_isas, prescan_with, Isa, StructuralIndex};
use flux_xmlgen::{
    attr_heavy_string, deep_string, mint_string, text_heavy_string, AttrHeavyConfig, DeepConfig,
    MintConfig, TextHeavyConfig,
};

/// Per-byte reference, no kernels: lane order `<`, `>`, quote, `&`, `\n`.
fn naive_lanes(bytes: &[u8]) -> [Vec<u64>; 5] {
    let mut lanes: [Vec<u64>; 5] = Default::default();
    for (i, &b) in bytes.iter().enumerate() {
        let lane = match b {
            b'<' => 0,
            b'>' => 1,
            b'"' | b'\'' => 2,
            b'&' => 3,
            b'\n' => 4,
            _ => continue,
        };
        lanes[lane].push(i as u64);
    }
    lanes
}

fn drain(idx: StructuralIndex) -> [Vec<u64>; 5] {
    [&idx.lt, &idx.gt, &idx.quote, &idx.amp, &idx.nl]
        .map(|lane| lane.positions().map(|p| idx.base() + p as u64).collect())
}

fn sweep(isa: Isa, bytes: &[u8], piece: usize) -> [Vec<u64>; 5] {
    let mut idx = StructuralIndex::new();
    if piece == 0 {
        prescan_with(isa, bytes, 0, &mut idx);
    } else {
        // Refill-shaped sweep: the scanner prescans each fill separately
        // into the shared index.
        let mut at = 0usize;
        while at < bytes.len() {
            let end = (at + piece).min(bytes.len());
            prescan_with(isa, &bytes[at..end], at as u64, &mut idx);
            at = end;
        }
    }
    drain(idx)
}

fn assert_kernels_conform(label: &str, bytes: &[u8]) {
    let want = naive_lanes(bytes);
    for isa in available_isas() {
        // Whole-input sweep plus two refill-like piece sizes: one that
        // misaligns every vector step, one block-sized.
        for piece in [0usize, 37, 4096] {
            assert_eq!(
                sweep(isa, bytes, piece),
                want,
                "{label}: {isa:?} diverges from the per-byte reference (piece {piece})"
            );
        }
    }
}

#[test]
fn every_corpus_entry_indexes_identically_on_all_kernels() {
    let entries = corpus();
    assert!(
        entries.len() >= 35,
        "corpus shrank to {} entries",
        entries.len()
    );
    for entry in &entries {
        assert_kernels_conform(entry.id, &entry.bytes);
    }
}

#[test]
fn pathological_workloads_index_identically_on_all_kernels() {
    let docs = [
        ("deep", deep_string(&DeepConfig::new(200, 8, 11))),
        (
            "attr_heavy",
            attr_heavy_string(&AttrHeavyConfig::new(40, 24, 12)),
        ),
        (
            "text_heavy",
            text_heavy_string(&TextHeavyConfig::new(40, 60, 13)),
        ),
        ("mint", mint_string(&MintConfig::new(40, 12, 14))),
    ];
    for (label, doc) in &docs {
        assert_kernels_conform(label, doc.as_bytes());
    }
}

#[test]
fn quoted_and_commented_decoys_index_every_occurrence() {
    // The index is intentionally context-free: a `>` inside a quoted
    // attribute value and a `<` inside a comment are still recorded —
    // context (quote parity, construct state) is phase two's job. Pin
    // that contract so a "helpful" kernel never starts filtering.
    let doc = br#"<a k="v>w" k2='x<y'><!-- <fake> & friends --><![CDATA[<z>]]>&amp;</a>"#;
    assert_kernels_conform("decoys", doc);
    let want = naive_lanes(doc);
    let lt_count = doc.iter().filter(|&&b| b == b'<').count();
    assert_eq!(want[0].len(), lt_count, "reference must count every `<`");
    assert!(lt_count > 4, "decoy doc must contain hidden `<` bytes");
}
