//! End-to-end assertions of the specific claims in the paper's Section 2:
//! what Q3 buffers under each DTD, where `on-first` fires, and which FluX
//! queries are safe.

use fluxquery::lang::pretty_flux;
use fluxquery::{FluxEngine, Options, PAPER_FIG1_DTD, PAPER_UNSAFE_DTD, PAPER_WEAK_DTD};

const Q3: &str = r#"<results>{ for $b in $ROOT/bib/book return <result>{$b/title}{$b/author}</result> }</results>"#;

/// "we only need to buffer the author children of one book node at a time,
/// but not the titles" (Sec. 2, weak DTD).
#[test]
fn weak_dtd_buffers_authors_only() {
    let engine = FluxEngine::compile(Q3, PAPER_WEAK_DTD, &Options::default()).unwrap();
    assert_eq!(engine.buffered_handler_count(), 1);
    let explain = engine.explain();
    assert!(
        explain.contains("{author:bytes}"),
        "only authors in the BDF:\n{explain}"
    );
    assert!(
        !explain.contains("title:"),
        "titles must not be buffered:\n{explain}"
    );

    // The generated FluX matches the paper's hand-written version:
    // on title streams, on-first past(title,author) flushes authors.
    let flux = pretty_flux(&engine.query().flux);
    assert!(flux.contains("on title as"), "{flux}");
    assert!(flux.contains("on-first past(author,title)"), "{flux}");
}

/// "no buffering is required to execute query Q with the DTD shown in
/// Figure 1" (Sec. 2).
#[test]
fn fig1_dtd_requires_zero_buffering() {
    let engine = FluxEngine::compile(Q3, PAPER_FIG1_DTD, &Options::default()).unwrap();
    assert_eq!(engine.buffered_handler_count(), 0);
    let flux = pretty_flux(&engine.query().flux);
    assert!(flux.contains("on title as"), "{flux}");
    assert!(flux.contains("on author as"), "{flux}");
    assert!(!flux.contains("on-first"), "{flux}");
}

/// Buffer consumption is per-book, not per-document: growing the number of
/// books does not grow the peak (Sec. 2: "we may refill it with the author
/// nodes from the next book").
#[test]
fn peak_buffer_independent_of_book_count() {
    let engine = FluxEngine::compile(Q3, PAPER_WEAK_DTD, &Options::default()).unwrap();
    let make_doc = |books: usize| {
        let mut d = String::from("<bib>");
        for i in 0..books {
            d.push_str(&format!(
                "<book><author>First Author {i}</author><title>Title {i}</title><author>Second Author {i}</author></book>"
            ));
        }
        d.push_str("</bib>");
        d
    };
    let (_, small) = engine.run_to_string(&make_doc(5)).unwrap();
    let (_, large) = engine.run_to_string(&make_doc(500)).unwrap();
    // Identical book shapes → identical peak (one book's authors).
    let ratio = large.peak_buffer_bytes as f64 / small.peak_buffer_bytes as f64;
    assert!(
        ratio < 1.3,
        "peak must not grow with document size: {} vs {}",
        small.peak_buffer_bytes,
        large.peak_buffer_bytes
    );
}

/// The output respects XQuery semantics (titles before authors) regardless
/// of the arrival order in the stream.
#[test]
fn output_order_is_query_order_not_stream_order() {
    let engine = FluxEngine::compile(Q3, PAPER_WEAK_DTD, &Options::default()).unwrap();
    let doc = "<bib><book><author>A1</author><title>T1</title><author>A2</author><title>T2</title></book></bib>";
    let (out, _) = engine.run_to_string(doc).unwrap();
    assert_eq!(
        out,
        "<results><result><title>T1</title><title>T2</title><author>A1</author><author>A2</author></result></results>"
    );
}

/// Sec. 2's unsafe example: with book = ((title|author)*, price), an
/// on-first past(title,author) handler reading $book/price would fire while
/// the price buffer is still empty. The scheduler must not produce it, and
/// produces a safe (buffering) plan instead — verified by the independent
/// safety checker which runs on every compile.
#[test]
fn unsafe_dtd_still_compiles_safely() {
    let q = r#"<results>{ for $b in $ROOT/bib/book return <result>{$b/price}{$b/title}</result> }</results>"#;
    let engine = FluxEngine::compile(q, PAPER_UNSAFE_DTD, &Options::default()).unwrap();
    // Prices come last in the stream but first in the query: everything
    // must wait for prices.
    let doc = "<bib><book><title>T</title><author>A</author><price>5</price></book></bib>";
    let (out, _) = engine.run_to_string(doc).unwrap();
    assert_eq!(
        out,
        "<results><result><price>5</price><title>T</title></result></results>"
    );
}

/// The paper's XSAX claim: on-first events fire at the earliest position
/// the DTD implies — under Figure 1, before the publisher even opens.
#[test]
fn authors_flushed_before_publisher_under_fig1() {
    // Query order: authors then publisher. Authors stream; the publisher
    // item also streams (all authors precede the publisher in Fig. 1).
    let q = r#"<results>{ for $b in $ROOT/bib/book return <r>{$b/author}{$b/publisher}</r> }</results>"#;
    let engine = FluxEngine::compile(q, PAPER_FIG1_DTD, &Options::default()).unwrap();
    assert_eq!(engine.buffered_handler_count(), 0, "{}", engine.explain());
}

/// Optimizations are observable end to end: the Goedel conditional is
/// eliminated and the query produces the (empty-filtered) result without
/// ever evaluating the condition.
#[test]
fn goedel_condition_removed_end_to_end() {
    let q = r#"<out>{ for $b in $ROOT/bib/book return if ($b/author = "Goedel" and $b/editor = "Goedel") then <hit/> else <miss/> }</out>"#;
    let engine = FluxEngine::compile(q, PAPER_FIG1_DTD, &Options::default()).unwrap();
    assert!(engine.query().algebra_trace.iter().any(|r| r.rule == "R2"));
    let doc = "<bib><book><title>T</title><author>Goedel</author><publisher>P</publisher><price>1</price></book></bib>";
    let (out, _) = engine.run_to_string(doc).unwrap();
    assert_eq!(out, "<out><miss></miss></out>");
}
