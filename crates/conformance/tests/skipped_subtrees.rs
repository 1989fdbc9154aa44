//! Skipped-subtree arm: queries over [`SKIP_DTD`] documents leave whole
//! sections, books, leaves and nested notes unread, and the reader hops
//! them instead of delivering their events. Every shape must print the
//! reference evaluator's bytes through flux (sequential and at shard
//! counts {1, 2}), projection and dom — and, sequentially, through a reader
//! window smaller than the subtrees it hops, so hops cross refills, with
//! the same statistics (skip counts included) as the default window.
//!
//! Part of the release-mode `conformance` CI job and of the pinned-kernel
//! `isa-matrix` legs, so the hop runs under both prescan kernels.

use flux_conformance::{
    assert_cursor_matches_reference, options, run_engine_input, skip_document, stats_fingerprint,
    SKIP_DTD, SKIP_SHAPES,
};
use flux_xml::input::MIN_WINDOW;
use fluxquery_core::{EngineKind, Input, Parallelism};

#[test]
fn skip_shapes_match_reference() {
    for query in SKIP_SHAPES {
        for doc_seed in 0..6 {
            let doc = skip_document(8, doc_seed);
            assert_cursor_matches_reference(
                &format!("skip seed {doc_seed}"),
                query,
                SKIP_DTD,
                doc.as_bytes(),
            );
        }
    }
}

#[test]
fn hops_across_refills_change_nothing() {
    for query in SKIP_SHAPES {
        let (mut skipped, mut longest) = (0, 0);
        for doc_seed in 0..6 {
            let doc = skip_document(8, doc_seed).into_bytes();
            let run = |input: Input| {
                run_engine_input(
                    EngineKind::Flux,
                    query,
                    SKIP_DTD,
                    input,
                    &options(Parallelism::Sequential),
                )
                .unwrap_or_else(|e| panic!("{query} seed {doc_seed}: {e}"))
            };
            let reference = run(Input::from_bytes(doc.clone()));
            for small in [
                Input::from_bytes(doc.clone()).window(MIN_WINDOW),
                Input::from_reader(std::io::Cursor::new(doc.clone())).window(MIN_WINDOW),
            ] {
                let outcome = run(small);
                assert_eq!(
                    outcome.output, reference.output,
                    "{query} seed {doc_seed}: output moved with the window"
                );
                assert_eq!(
                    stats_fingerprint(&outcome.stats),
                    stats_fingerprint(&reference.stats),
                    "{query} seed {doc_seed}: stats moved with the window"
                );
            }
            skipped += reference.stats.skipped_subtrees;
            longest = longest.max(reference.stats.skipped_bytes);
        }
        assert!(skipped > 0, "{query}: nothing was skipped");
        assert!(
            longest > 4 * MIN_WINDOW as u64,
            "{query}: no run hopped more than a few windows ({longest} bytes)"
        );
    }
}

/// The shapes skip at the depths they claim: the label query passes over
/// `meta`, every book and `annex`, so its skips are exactly those.
#[test]
fn label_shape_skips_sections_and_books() {
    let doc = skip_document(8, 3);
    let outcome = run_engine_input(
        EngineKind::Flux,
        SKIP_SHAPES[0],
        SKIP_DTD,
        Input::from_bytes(doc.clone()),
        &options(Parallelism::Sequential),
    )
    .unwrap();
    let expected = ["<meta>", "<book>", "<book ", "<annex>"]
        .iter()
        .map(|open| doc.matches(open).count() as u64)
        .sum::<u64>();
    assert!(expected > 8, "{expected} skippable elements");
    assert_eq!(outcome.stats.skipped_subtrees, expected);
}
