//! Walked-children arm: the book scope of the query below is *walked* —
//! its `title`, `flag` and `author` children are copied straight from the
//! reader's window, its `editor`, `publisher` and `price` children hopped,
//! and none of them is delivered as an event. Every case spells a child
//! in a way the window copy must hand back to the event path, and must
//! come out as it would without the walk:
//!
//! * a valid document prints the reference evaluator's bytes through
//!   flux (optimizer on and off, sequential and at two shards, default
//!   and smallest reader window), projection and dom, with flux's run
//!   statistics the same in every flux mode;
//! * an invalid one fails in every flux mode with the message and
//!   position plain validation reports.

use flux_conformance::{reference_output, run_engine_input, stats_fingerprint};
use flux_xml::input::MIN_WINDOW;
use fluxquery_core::{Dtd, EngineKind, Input, Options};

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

/// Every flux mode the arm runs: optimizer on and off, each sequential
/// through the default and the smallest window, and at two shards.
fn flux_runs(doc: &str) -> Vec<(String, Result<flux_conformance::RunOutcome, String>)> {
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
            let outcome = run_engine_input(EngineKind::Flux, QUERY, DTD, input, &options)
                .map_err(|e| e.to_string());
            runs.push((format!("flux, {opt}, {mode}"), outcome));
        }
    }
    runs
}

#[test]
fn walked_spellings_match_every_engine() {
    for &(what, book) in VALID {
        let doc = document(book);
        let expected = reference_output(QUERY, doc.as_bytes())
            .unwrap_or_else(|e| panic!("{what}: reference failed: {e}"));
        let mut fingerprint = None;
        for (label, outcome) in flux_runs(&doc) {
            let outcome = outcome.unwrap_or_else(|e| panic!("{what}: {label} failed: {e}"));
            assert_eq!(
                String::from_utf8_lossy(&outcome.output),
                expected,
                "{what}: {label}"
            );
            // Three books, walked: each costs its own start and end tag.
            assert_eq!(outcome.stats.events, 10, "{what}: {label}");
            let fp = stats_fingerprint(&outcome.stats);
            assert_eq!(*fingerprint.get_or_insert(fp), fp, "{what}: {label} stats");
        }
        for kind in [EngineKind::Projection, EngineKind::Dom] {
            let input = Input::from_bytes(doc.as_bytes().to_vec());
            let outcome = run_engine_input(kind, QUERY, DTD, input, &Options::new())
                .unwrap_or_else(|e| panic!("{what}: {} failed: {e}", kind.label()));
            assert_eq!(
                String::from_utf8_lossy(&outcome.output),
                expected,
                "{what}: {}",
                kind.label()
            );
        }
    }
}

#[test]
fn walked_errors_match_validation() {
    let dtd = Dtd::parse(DTD).unwrap();
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
        let expected = flux_xsax::validate(doc.as_bytes(), &dtd)
            .expect_err(what)
            .to_string();
        assert!(
            expected.contains(" at line 1, column "),
            "{what}: {expected}"
        );
        for (label, outcome) in flux_runs(&doc) {
            let error = outcome.map(|_| ()).expect_err(&label);
            assert_eq!(error, expected, "{what}: {label}");
        }
    }
}
