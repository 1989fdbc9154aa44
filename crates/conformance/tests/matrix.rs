//! The full conformance matrix: every workload × every engine ×
//! sequential and shard counts {1, 2, 8}.
//!
//! This is the release-mode CI `conformance` job's payload. Scales are
//! kept modest so the debug-mode run stays fast; the axes (not the
//! document sizes) are what the differential assertions exercise.

use flux_conformance::{assert_engines_equivalent, assert_stream_equivalent, workload, workloads};
use flux_xmlgen::{auction_string, AuctionConfig};

#[test]
fn stream_tier_full_matrix() {
    for w in workloads() {
        for (scale, seed) in [(0.2, 7), (0.6, 21)] {
            let doc = w.document(scale, seed);
            let outcome = assert_stream_equivalent(&format!("{} s={scale}", w.id), doc.as_bytes());
            assert!(
                outcome.error.is_none(),
                "{}: generated document failed to parse: {:?}",
                w.id,
                outcome.error
            );
        }
    }
}

#[test]
fn engine_tier_full_matrix() {
    for w in workloads() {
        if w.query.is_none() {
            continue; // stream-tier-only shape (covered above)
        }
        for (scale, seed) in [(0.2, 7), (0.6, 21)] {
            assert_engines_equivalent(&w, scale, seed);
        }
    }
}

#[test]
fn engine_tier_covers_every_query_workload() {
    // Guard against the matrix silently degenerating to stream-only.
    let with_query = workloads().iter().filter(|w| w.query.is_some()).count();
    assert!(with_query >= 5, "only {with_query} engine-tier workloads");
}

#[test]
fn auction_size_axis_reaches_multi_mb() {
    // The XMark-style document-size knob: a multi-MB auction document
    // still satisfies the full stream grid. One size is enough here —
    // this is the expensive end of the matrix.
    let doc = auction_string(&AuctionConfig::target_bytes(2 * 1_048_576, 5));
    assert!(doc.len() > 1_500_000, "size knob fell short: {}", doc.len());
    let outcome = assert_stream_equivalent("auction-2mb", doc.as_bytes());
    assert!(outcome.error.is_none());
}

#[test]
fn name_mint_adversary_is_marked() {
    assert!(workload("name_mint").adversarial_names);
}
