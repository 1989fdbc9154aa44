//! Regression net over *scheduling decisions*: for each catalog query, pin
//! down which parts stream and which buffer. Output correctness is covered
//! elsewhere; these tests fail when the scheduler silently loses (or
//! wrongly gains) streaming capability.

use flux_conformance::catalog_query;
use fluxquery::lang::pretty_flux;
use fluxquery::{FluxEngine, Options};

fn flux_text(id: &str) -> (String, usize) {
    let q = catalog_query(id);
    let engine = FluxEngine::compile(q.query, q.domain.dtd(), &Options::default())
        .unwrap_or_else(|e| panic!("{id}: {e}"));
    (
        pretty_flux(&engine.query().flux),
        engine.buffered_handler_count(),
    )
}

#[test]
fn xmp_q1_streams_attribute_filter() {
    // Attribute filters are decided at the start tag... but the output
    // element wraps the (buffered) title check? Under Fig. 1 titles come
    // first, so everything streams... except the where-condition became an
    // if around the body, whose condition reads only @year: streams.
    let (flux, _buffered) = flux_text("XMP-Q1");
    assert!(flux.contains("on book as"), "book loop streams:\n{flux}");
}

#[test]
fn xmp_q3_weak_buffers_exactly_once() {
    let (flux, buffered) = flux_text("XMP-Q3");
    assert_eq!(buffered, 1, "{flux}");
    assert!(flux.contains("on title as"), "{flux}");
    assert!(flux.contains("on-first past(author,title)"), "{flux}");
}

#[test]
fn xmp_q3_strong_fully_streams() {
    let (flux, buffered) = flux_text("XMP-Q3s");
    assert_eq!(buffered, 0, "{flux}");
    assert!(flux.contains("on author as"), "{flux}");
}

#[test]
fn q3_rev_buffers_titles_not_authors() {
    let (flux, buffered) = flux_text("Q3-REV");
    assert_eq!(buffered, 1, "{flux}");
    assert!(flux.contains("on author as"), "authors stream:\n{flux}");
    // The buffered item waits for both labels (authors must be done).
    assert!(flux.contains("on-first past(author,title)"), "{flux}");
}

#[test]
fn filter_query_buffers_whole_books() {
    // `if (exists($b/author)) then $b` needs the whole book.
    let (flux, buffered) = flux_text("FILTER");
    assert!(buffered >= 1, "{flux}");
    assert!(flux.contains("past(*)"), "{flux}");
}

#[test]
fn prices_query_streams_under_fig1() {
    // title before price in Fig. 1; the condition reads price (arrives
    // last), so the body CANNOT stream: the price-test forces buffering.
    let (flux, buffered) = flux_text("PRICES");
    assert!(buffered >= 1, "{flux}");
    // But buffering happens at book level (per-book), not whole-document.
    assert!(flux.contains("on book as"), "books still stream:\n{flux}");
}

#[test]
fn auction_join_streams_auctions_probes_people() {
    let (flux, _) = flux_text("AUC-JOIN");
    assert!(
        flux.contains("on closed_auction as"),
        "auctions stream:\n{flux}"
    );
    assert!(
        flux.contains("on-first past(buyer,price)"),
        "per-auction probe once buyer+price are complete:\n{flux}"
    );
}

#[test]
fn auction_expensive_streams_everything_but_the_condition() {
    let (flux, buffered) = flux_text("AUC-EXP");
    // Condition needs price (last child): per-auction buffering only.
    assert!(flux.contains("on closed_auction as"), "{flux}");
    assert!(buffered >= 1, "{flux}");
    assert!(
        !flux.contains("past(*)"),
        "no whole-subtree buffering:\n{flux}"
    );
}

#[test]
fn buffered_handler_counts_stable_across_catalog() {
    // Coarse fingerprint: (id, buffered handlers, process-stream count).
    let expected = [
        ("XMP-Q1", 1, 3),
        ("XMP-Q2", 1, 3),
        ("XMP-Q3", 1, 3),
        ("XMP-Q3s", 0, 3),
        ("Q3-REV", 1, 3),
        ("FILTER", 1, 3),
        ("PRICES", 1, 3),
        ("AUC-JOIN", 1, 4),
        ("AUC-EXP", 1, 4),
    ];
    for (id, buffered, ps) in expected {
        let q = catalog_query(id);
        let engine = FluxEngine::compile(q.query, q.domain.dtd(), &Options::default()).unwrap();
        assert_eq!(
            engine.buffered_handler_count(),
            buffered,
            "{id} buffered handlers changed:\n{}",
            pretty_flux(&engine.query().flux)
        );
        assert_eq!(
            engine.query().flux.process_stream_count(),
            ps,
            "{id} process-stream count changed:\n{}",
            pretty_flux(&engine.query().flux)
        );
    }
}
