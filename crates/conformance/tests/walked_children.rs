//! Walked-children arms. In the first, the book scope of the query below
//! is *walked* — its `title`, `flag` and `author` children are copied
//! straight from the reader's window, its `editor`, `publisher` and
//! `price` children hopped, and none of them is delivered as an event.
//! The tracked arms walk scopes that register `on-first` handlers: the
//! walk captures print-only children into the scope's buffer, and stops
//! wherever a fire comes due. Every case spells a child in a way the
//! window copy or capture must hand back to the event path, or puts a
//! child where a fire lands, and must come out as it would without the
//! walk:
//!
//! * a valid document prints the reference evaluator's bytes through
//!   flux (optimizer on and off, sequential and at two shards, default
//!   and smallest reader window), projection and dom, with flux's run
//!   statistics the same in every flux mode;
//! * an invalid one fails in every flux mode with the message and
//!   position plain validation reports.

use flux_conformance::{catalog_query, reference_output, run_engine_input, stats_fingerprint};
use flux_xml::input::MIN_WINDOW;
use flux_xmlgen::{auction_string, AuctionConfig, AUCTION_DTD};
use fluxquery_core::{Dtd, EngineKind, Input, Options, PAPER_FIG1_DTD};

const DTD: &str = "<!ELEMENT bib (book*)>\n\
     <!ELEMENT book (title, flag?, (author+ | editor+), publisher, price)>\n\
     <!ELEMENT title (#PCDATA)>\n\
     <!ELEMENT flag EMPTY>\n\
     <!ELEMENT author (#PCDATA)>\n\
     <!ELEMENT editor (#PCDATA)>\n\
     <!ELEMENT publisher (#PCDATA)>\n\
     <!ELEMENT price (#PCDATA | em)*>\n\
     <!ELEMENT em (#PCDATA)>";

const QUERY: &str = "<results>{ for $b in $ROOT/bib/book return \
     <result>{$b/title}{$b/flag}{$b/author}</result> }</results>";

const PLAIN: &str = "<book><title>Plain</title><author>A</author>\
     <publisher>P</publisher><price>1</price></book>";

/// A document of plain books around one spelled as `book`.
fn document(book: &str) -> String {
    format!("<bib>{PLAIN}{book}{PLAIN}</bib>")
}

/// Books every engine reads alike, with the walk handing the marked
/// child back to the event path.
const VALID: &[(&str, &str)] = &[
    (
        "empty-element tags",
        "<book><title/><flag/><author/><publisher/><price/></book>",
    ),
    (
        "whitespace in tags",
        "<book><title >T</title><author>A</author >\
         <publisher >P</publisher ><price>1</price></book>",
    ),
    (
        "attributes on walked children",
        "<book><title lang=\"en\">T</title><author x='1'>A</author>\
         <publisher id=\"p\">P</publisher><price>1</price></book>",
    ),
    (
        "a declared EMPTY child",
        "<book><title>T</title><flag></flag><editor>E</editor>\
         <publisher>P</publisher><price>1</price></book>",
    ),
    (
        "references in text",
        "<book><title>&#65;&#x42;</title><author>a &amp; b</author>\
         <author>&quot;q&quot;</author><publisher>&lt;P</publisher>\
         <price>1</price></book>",
    ),
    (
        "`>` and CR LF in text",
        "<book><title>a > b</title><author>x\r\ny</author>\
         <publisher>p > q</publisher><price>1\r\n</price></book>",
    ),
    (
        "CDATA, a comment and a PI inside",
        "<book><title><![CDATA[<raw> & ]]>t</title><author>a<!-- c -->b</author>\
         <author>c<?pi data?>d</author><publisher><!-- c -->P</publisher>\
         <price><![CDATA[1]]></price></book>",
    ),
    (
        "whitespace-only and empty text",
        "<book><title>  </title><author></author>\
         <publisher> </publisher><price></price></book>",
    ),
    (
        "a copy longer than the smallest window",
        "<book><title>A title long enough that its span runs past a \
         sixty-four byte reader window, so the copy cannot take it whole</title>\
         <author>A</author><publisher>P</publisher><price>1</price></book>",
    ),
];

/// Books plain validation rejects; the walk must fail the same way.
const INVALID: &[(&str, &str)] = &[
    (
        "a child element inside a copied title",
        "<book><title>a<em>b</em></title><author>A</author>\
         <publisher>P</publisher><price>1</price></book>",
    ),
    (
        "an undeclared child",
        "<book><title>T</title><zz>A</zz><author>A</author>\
         <publisher>P</publisher><price>1</price></book>",
    ),
    (
        "a child out of content-model order",
        "<book><author>A</author><title>T</title>\
         <publisher>P</publisher><price>1</price></book>",
    ),
    (
        "text in an EMPTY child",
        "<book><title>T</title><flag>x</flag><author>A</author>\
         <publisher>P</publisher><price>1</price></book>",
    ),
];

/// Every flux mode an arm runs: optimizer on and off, each sequential
/// through the default and the smallest window, and at two shards.
fn flux_runs(
    query: &str,
    dtd: &str,
    doc: &str,
) -> Vec<(String, Result<flux_conformance::RunOutcome, String>)> {
    let mut runs = Vec::new();
    for (opt, options) in [
        ("optimizer", Options::new()),
        ("no optimizer", Options::new().algebraic_optimizer(false)),
    ] {
        let modes = [
            ("default window", options.clone(), None),
            ("smallest window", options.clone(), Some(MIN_WINDOW)),
            ("two shards", options.clone().shards(2), None),
        ];
        for (mode, options, window) in modes {
            let mut input = Input::from_bytes(doc.as_bytes().to_vec());
            if let Some(window) = window {
                input = input.window(window);
            }
            let outcome = run_engine_input(EngineKind::Flux, query, dtd, input, &options)
                .map_err(|e| e.to_string());
            runs.push((format!("flux, {opt}, {mode}"), outcome));
        }
    }
    runs
}

/// Runs a valid document through every engine: each prints the
/// reference evaluator's bytes, and every flux mode reports the same
/// statistics — with `events` delivered, when given.
fn assert_valid(what: &str, query: &str, dtd: &str, doc: &str, events: Option<u64>) {
    let expected = reference_output(query, doc.as_bytes())
        .unwrap_or_else(|e| panic!("{what}: reference failed: {e}"));
    let mut fingerprint = None;
    for (label, outcome) in flux_runs(query, dtd, doc) {
        let outcome = outcome.unwrap_or_else(|e| panic!("{what}: {label} failed: {e}"));
        assert_eq!(
            String::from_utf8_lossy(&outcome.output),
            expected,
            "{what}: {label}"
        );
        if let Some(events) = events {
            assert_eq!(outcome.stats.events, events, "{what}: {label}");
        }
        let fp = stats_fingerprint(&outcome.stats);
        assert_eq!(*fingerprint.get_or_insert(fp), fp, "{what}: {label} stats");
    }
    for kind in [EngineKind::Projection, EngineKind::Dom] {
        let input = Input::from_bytes(doc.as_bytes().to_vec());
        let outcome = run_engine_input(kind, query, dtd, input, &Options::new())
            .unwrap_or_else(|e| panic!("{what}: {} failed: {e}", kind.label()));
        assert_eq!(
            String::from_utf8_lossy(&outcome.output),
            expected,
            "{what}: {}",
            kind.label()
        );
    }
}

/// Runs an invalid document through every flux mode: each fails with the
/// message and position plain validation reports.
fn assert_invalid(what: &str, query: &str, dtd: &str, doc: &str) {
    let expected = flux_xsax::validate(doc.as_bytes(), &Dtd::parse(dtd).unwrap())
        .expect_err(what)
        .to_string();
    assert!(
        expected.contains(" at line 1, column "),
        "{what}: {expected}"
    );
    for (label, outcome) in flux_runs(query, dtd, doc) {
        let error = outcome.map(|_| ()).expect_err(&label);
        assert_eq!(error, expected, "{what}: {label}");
    }
}

#[test]
fn walked_spellings_match_every_engine() {
    for &(what, book) in VALID {
        // Three books, walked: each costs its own start and end tag.
        assert_valid(what, QUERY, DTD, &document(book), Some(10));
    }
}

#[test]
fn walked_errors_match_validation() {
    let truncated = document(PLAIN);
    let cut = truncated.find("<title>Plain</title>").unwrap() + "<title>Pla".len() + PLAIN.len();
    let mut cases: Vec<(&str, String)> = INVALID
        .iter()
        .map(|&(what, book)| (what, document(book)))
        .collect();
    cases.push((
        "input truncated inside a copy",
        truncated[..cut].to_string(),
    ));
    for (what, doc) in cases {
        assert_invalid(what, QUERY, DTD, &doc);
    }
}

/// The arm's DTD with `book` weakened to the paper's `(title | author)*`
/// shape: `flag` and `author` may come before a `title`, so the query
/// buffers them as print-only bytes until `</book>`, and the walk
/// captures them.
const WEAK_DTD: &str = "<!ELEMENT bib (book*)>\n\
     <!ELEMENT book (title | flag | author | editor | publisher | price)*>\n\
     <!ELEMENT title (#PCDATA)>\n\
     <!ELEMENT flag EMPTY>\n\
     <!ELEMENT author (#PCDATA)>\n\
     <!ELEMENT editor (#PCDATA)>\n\
     <!ELEMENT publisher (#PCDATA)>\n\
     <!ELEMENT price (#PCDATA | em)*>\n\
     <!ELEMENT em (#PCDATA)>";

/// Books only the weak arm reads alike: the first arm's out-of-order book
/// is valid here, and captures take the event path.
const WEAK_VALID: &[(&str, &str)] = &[
    (
        "authors and a flag before the title",
        "<book><author>A</author><flag></flag><title>T</title>\
         <publisher>P</publisher><author>B</author></book>",
    ),
    (
        "a reference in a captured author",
        "<book><title>T</title><author>Gray &amp; Reuter</author></book>",
    ),
    (
        "a capture longer than the smallest window",
        "<book><author>An author name long enough that its span runs past a \
         sixty-four byte reader window, so the capture cannot take it whole</author>\
         <title>T</title></book>",
    ),
];

/// Three books of the weak arm: each costs its start tag, the fires
/// before its end tag and its end tag, whatever its children.
#[test]
fn tracked_scope_spellings_match_every_engine() {
    for &(what, book) in VALID.iter().chain(WEAK_VALID) {
        // Two fires a book: past(flag, title), past(author, flag, title).
        assert_valid(what, QUERY, WEAK_DTD, &document(book), Some(16));
    }
}

#[test]
fn tracked_scope_errors_match_validation() {
    let invalid =
        (INVALID.iter()).filter(|(what, _)| *what != "a child out of content-model order");
    for &(what, book) in invalid {
        assert_invalid(what, QUERY, WEAK_DTD, &document(book));
    }
}

/// XMP-Q1 under Figure 1: `book` registers `past(title)` and captures its
/// title, so the fire comes due right after `</title>` and the walk goes
/// on behind it.
const XMP_Q1_BOOK: &str = "<book year=\"2001\"><title>T</title><author>A</author>\
     <publisher>P</publisher><price>1</price></book>";

#[test]
fn fires_land_where_they_land_without_the_walk() {
    let q1 = catalog_query("XMP-Q1").query;
    let q1_doc = |book: &str| format!("<bib>{XMP_Q1_BOOK}{book}{XMP_Q1_BOOK}</bib>");
    let valid = [
        ("a plain book", XMP_Q1_BOOK),
        (
            "an editor, and a title the filter drops",
            "<book year=\"1990\"><title>T</title><editor>E</editor>\
             <publisher>P</publisher><price>1</price></book>",
        ),
        (
            "a reference in the captured title",
            "<book year=\"2001\"><title>a &lt; b</title><author>A</author>\
             <publisher>P</publisher><price>1</price></book>",
        ),
        (
            "a captured title longer than the smallest window",
            "<book year=\"2001\"><title>A title long enough that its span runs past \
             a sixty-four byte reader window</title><author>A</author>\
             <publisher>P</publisher><price>1</price></book>",
        ),
    ];
    for (what, book) in valid {
        // A book costs its start tag, its fire and its end tag.
        assert_valid(what, q1, PAPER_FIG1_DTD, &q1_doc(book), Some(13));
    }
    let invalid = [
        (
            "a child out of order right after the fire",
            "<book year=\"2001\"><title>T</title><price>1</price></book>",
        ),
        (
            "a second title right after the fire",
            "<book year=\"2001\"><title>T</title><title>U</title><author>A</author>\
             <publisher>P</publisher><price>1</price></book>",
        ),
    ];
    for (what, book) in invalid {
        assert_invalid(what, q1, PAPER_FIG1_DTD, &q1_doc(book));
    }
    // `past(author, title)` comes due at the seam in front of the copied
    // `publisher`: the buffered title must be printed before it.
    let seam = "<results>{ for $b in $ROOT/bib/book return \
         <result>{$b/author}{$b/title}{$b/publisher}</result> }</results>";
    let fig1_doc = |book: &str| format!("<bib>{PLAIN}{book}{PLAIN}</bib>");
    let books = [
        ("authors, then the publisher", PLAIN),
        (
            "an editor branch",
            "<book><title>T</title><editor>E</editor>\
             <publisher>P</publisher><price>1</price></book>",
        ),
        (
            "a publisher the window copy hands back",
            "<book><title>T</title><author>A</author>\
             <publisher>P &amp; Q</publisher><price>1</price></book>",
        ),
    ];
    for (what, book) in books {
        assert_valid(what, seam, PAPER_FIG1_DTD, &fig1_doc(book), None);
    }
}

/// AUC-EXP's `closed_auction` registers `past(itemref, price)`, captures
/// `itemref`, delivers the compared `price` and hops the rest.
#[test]
fn closed_auctions_are_walked() {
    let query = catalog_query("AUC-EXP").query;
    let site = |auctions: &str| {
        format!("<site><people/><items/><closed_auctions>{auctions}</closed_auctions></site>")
    };
    let auction = |itemref: &str, price: &str| {
        format!(
            "<closed_auction><buyer>p1</buyer>{itemref}<price>{price}</price>\
             <date>d</date></closed_auction>"
        )
    };
    let plain = auction("<itemref>i1</itemref>", "500");
    let valid = [
        (
            "a generated site",
            auction_string(&AuctionConfig::scale(0.2, 7)),
        ),
        (
            "plain auctions",
            site(&format!("{plain}{}", auction("<itemref>i2</itemref>", "5"))),
        ),
        (
            "an itemref with a reference and one with whitespace in a tag",
            site(&format!(
                "{}{plain}{}",
                auction("<itemref>i &amp; j</itemref>", "401"),
                auction("<itemref >k</itemref >", "450")
            )),
        ),
    ];
    for (what, doc) in valid {
        assert_valid(what, query, AUCTION_DTD, &doc, None);
    }
    let invalid = [
        (
            "a price before the itemref",
            site(&format!(
                "{plain}<closed_auction><buyer>p</buyer><price>1</price>\
                 <itemref>i</itemref><date>d</date></closed_auction>"
            )),
        ),
        (
            "a date before the price",
            site(&format!(
                "{plain}<closed_auction><buyer>p</buyer><itemref>i</itemref>\
                 <date>d</date><price>1</price></closed_auction>"
            )),
        ),
    ];
    for (what, doc) in invalid {
        assert_invalid(what, query, AUCTION_DTD, &doc);
    }
}
