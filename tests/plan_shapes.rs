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
    // Coarse fingerprint: (id, buffered handlers, process-stream count,
    // keyed loops). Only the value join is keyed.
    let expected = [
        ("XMP-Q1", 1, 3, 0),
        ("XMP-Q2", 1, 3, 0),
        ("XMP-Q3", 1, 3, 0),
        ("XMP-Q3s", 0, 3, 0),
        ("Q3-REV", 1, 3, 0),
        ("FILTER", 1, 3, 0),
        ("PRICES", 1, 3, 0),
        ("AUC-JOIN", 1, 4, 1),
        ("AUC-EXP", 1, 4, 0),
    ];
    for (id, buffered, ps, keyed) in expected {
        let q = catalog_query(id);
        let engine = FluxEngine::compile(q.query, q.domain.dtd(), &Options::default()).unwrap();
        let explain = engine.explain();
        assert_eq!(
            explain.matches(": keyed on ").count(),
            keyed,
            "{id} keyed loops changed:\n{explain}"
        );
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

/// A run's `(events, peak_buffer_bytes)`.
type Counts = (u64, usize);

/// The paper's §3.1 rewrites under Figure 1, one per rule, and what each
/// does to a run on 2 000 books at seed 42: (rule, query, counts with the
/// algebraic optimizer, counts without).
const SECTION_3_1: [(&str, &str, Counts, Counts); 3] = [
    // R1 merges the two publisher loops (`publisher ∈ ||≤1 book`). The
    // merged body copies the publisher twice, so it buffers it under
    // `past(*)`; unmerged, the first loop is a stream copy. The rewrite
    // costs buffer here, and now events too: unmerged, the book's
    // `past(publisher)` no longer keeps its other children on the event
    // path (30 048 events before tracked scopes were walked), so a book
    // costs its tags, its publisher's three events and its fire.
    (
        "R1",
        r#"<out>{ for $b in $ROOT/bib/book return
            <r>{ for $x in $b/publisher return <first>{$x}</first> }
               { for $y in $b/publisher return <second>{$y}</second> }</r> }</out>"#,
        (14_004, 140),
        (12_004, 163),
    ),
    // R2: a book has authors or editors, never both, so the conjunction
    // never holds and the conditional goes; unoptimized, both are buffered
    // and compared per book. The walk hops each title and price (33 070
    // events before tracked scopes were walked); the fire comes due in
    // front of the publisher, which is delivered after it.
    (
        "R2",
        r#"<out>{ for $b in $ROOT/bib/book return
            if ($b/author = "Goedel" and $b/editor = "Goedel")
            then <goedel-book/> else () }</out>"#,
        (4_004, 0),
        (25_070, 618),
    ),
    // R3: every book has a title, so `exists` folds to true; unoptimized,
    // the test waits for the title, and the walk hops the rest of the
    // book behind the fire (30 048 events before tracked scopes were
    // walked, when every book was delivered whole).
    (
        "R3",
        r#"<out>{ for $b in $ROOT/bib/book return
            if (exists($b/title)) then <y/> else <n/> }</out>"#,
        (4_004, 0),
        (12_004, 128),
    ),
];

#[test]
fn section_3_1_rewrites_move_the_counts() {
    use flux_conformance::Domain;
    use fluxquery::Input;

    let doc = Domain::BibFig1.document(20.0, 42);
    let mut moved = Vec::new();
    for (rule, query, optimized, unoptimized) in SECTION_3_1 {
        let run = |options: Options| {
            let engine = FluxEngine::compile(query, fluxquery::PAPER_FIG1_DTD, &options)
                .unwrap_or_else(|e| panic!("{rule}: {e}"));
            let fired = engine.query().algebra_trace.iter().any(|r| r.rule == rule);
            let mut out = Vec::new();
            let stats = engine
                .run_input(Input::from_bytes(doc.clone()), &mut out)
                .unwrap_or_else(|e| panic!("{rule}: {e}"));
            (fired, out, (stats.events, stats.peak_buffer_bytes))
        };
        let (fired, with_out, with) = run(Options::new());
        let (fired_off, without_out, without) = run(Options::new().algebraic_optimizer(false));
        assert!(
            fired && !fired_off,
            "{rule} must fire only with the optimizer"
        );
        assert_eq!(with_out, without_out, "{rule} changed the output");
        if (with, without) != (optimized, unoptimized) {
            moved.push(format!(
                "{rule}: (events, peak) with and without the optimizer \
                 {optimized:?} {unoptimized:?} -> {with:?} {without:?}"
            ));
        }
    }
    assert!(
        moved.is_empty(),
        "pinned counts moved:\n{}",
        moved.join("\n")
    );
}

/// A loop over a label the DTD rules out under its parent is pruned at
/// plan compile, with or without the algebraic optimizer: `appendix` is
/// not declared, so no book holds one. Without the optimizer, R3 does not
/// remove the loop, and the scheduler buffers it under `on-first
/// past(appendix)`; the plan drops that loop, then the handler it leaves
/// empty, the process-stream left without handlers and the book shell
/// nothing reads any more, so every book is hopped whole just as with
/// the optimizer. No shell is bound at all: the `bib` scope only hosts
/// the book stream. (events, buffer traffic) on 1 000 books at seed 42,
/// optimizer on and off: before pruning, the run without the optimizer
/// delivered 14 052 events and moved 64 064 B.
#[test]
fn labels_the_dtd_rules_out_are_pruned() {
    use flux_conformance::Domain;
    use fluxquery::Input;

    let query =
        "<r>{ for $b in $ROOT/bib/book return <b>{ for $z in $b/appendix return $z }</b> }</r>";
    let doc = Domain::BibFig1.document(10.0, 42);
    let run = |options: Options| {
        let engine = FluxEngine::compile(query, fluxquery::PAPER_FIG1_DTD, &options).unwrap();
        let mut out = Vec::new();
        let stats = engine
            .run_input(Input::from_bytes(doc.clone()), &mut out)
            .unwrap();
        (out, (stats.events, stats.total_buffered_bytes))
    };
    let (with_out, with) = run(Options::new());
    let (without_out, without) = run(Options::new().algebraic_optimizer(false));
    assert_eq!(with_out, without_out);
    assert_eq!((with, without), ((2_004, 0), (2_004, 0)));
}
