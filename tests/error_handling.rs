//! Failure injection: malformed queries, schema violations and broken
//! streams must surface as errors, never as wrong answers or panics.

use fluxquery::{FluxEngine, Options, PAPER_FIG1_DTD, PAPER_WEAK_DTD};

const Q3: &str = r#"<results>{ for $b in $ROOT/bib/book return <result>{$b/title}{$b/author}</result> }</results>"#;

#[test]
fn malformed_query_rejected() {
    for bad in [
        "<r>{",
        "for $x in return ()",
        "<r>{ $x/ }</r>",
        "<a></b>",
        "<r>{ for $b in $ROOT//book return $b }</r>", // descendant axis
        "<r>{ if ($x/a) then <y/> }</r>",             // missing else
    ] {
        assert!(
            FluxEngine::compile(bad, PAPER_WEAK_DTD, &Options::default()).is_err(),
            "accepted: {bad}"
        );
    }
}

#[test]
fn malformed_dtd_rejected() {
    for bad in [
        "",
        "<!ELEMENT a (b,>",
        "<!ELEMENT a (#PCDATA | b)>", // mixed without *
        "<!BOGUS>",
        "<!ELEMENT a EMPTY><!ELEMENT a ANY>", // duplicate
    ] {
        assert!(
            FluxEngine::compile(Q3, bad, &Options::default()).is_err(),
            "accepted DTD: {bad}"
        );
    }
}

#[test]
fn invalid_documents_rejected_at_runtime() {
    let engine = FluxEngine::compile(Q3, PAPER_FIG1_DTD, &Options::default()).unwrap();
    for bad in [
        // wrong root
        "<book/>",
        // undeclared element
        "<bib><pamphlet/></bib>",
        // missing mandatory children
        "<bib><book><title>T</title></book></bib>",
        // wrong order
        "<bib><book><author>A</author><title>T</title><publisher>P</publisher><price>1</price></book></bib>",
        // author and editor together
        "<bib><book><title>T</title><author>A</author><editor>E</editor><publisher>P</publisher><price>1</price></book></bib>",
        // text in element content
        "<bib>text</bib>",
    ] {
        assert!(engine.run_to_string(bad).is_err(), "accepted: {bad}");
    }
}

#[test]
fn broken_xml_rejected_at_runtime() {
    let engine = FluxEngine::compile(Q3, PAPER_WEAK_DTD, &Options::default()).unwrap();
    for bad in [
        "<bib><book></bib>",      // mismatched tags
        "<bib>",                  // truncated
        "<bib><book x=1/></bib>", // unquoted attribute
        "<bib>&undefined;</bib>", // unknown entity
        "",                       // empty input
        "<bib/><bib/>",           // two roots
    ] {
        assert!(engine.run_to_string(bad).is_err(), "accepted: {bad:?}");
    }
}

#[test]
fn truncated_stream_mid_element() {
    let engine = FluxEngine::compile(Q3, PAPER_WEAK_DTD, &Options::default()).unwrap();
    let full = "<bib><book><title>T</title><author>A</author></book></bib>";
    // Every strict prefix must fail cleanly (error, not panic or success).
    for cut in 1..full.len() {
        let result = engine.run_to_string(&full[..cut]);
        assert!(result.is_err(), "prefix of length {cut} accepted");
    }
}

#[test]
fn unbound_variable_rejected_at_compile_time_or_runtime() {
    // $nowhere is never bound: scheduling treats it as an outer unknown.
    let q = "<r>{ for $b in $nowhere/book return $b }</r>";
    let compile = FluxEngine::compile(q, PAPER_WEAK_DTD, &Options::default());
    match compile {
        Err(_) => {}
        Ok(engine) => assert!(engine.run_to_string("<bib/>").is_err()),
    }
}

#[test]
fn reserved_variable_prefix_rejected() {
    let q = "<r>{ for $__flux1 in $ROOT/bib/book return $__flux1 }</r>";
    assert!(FluxEngine::compile(q, PAPER_WEAK_DTD, &Options::default()).is_err());
}

/// "Not viewed" must never mean "not checked": AUC-EXP reads nothing of
/// `people` and `items`, and the event loop does not even build a view for
/// the events inside them — yet every error class placed there must be
/// reported exactly as the engines that materialise everything report it,
/// sequentially and sharded, with the same message and position.
#[test]
fn errors_inside_regions_the_plan_ignores_are_identical_across_engines() {
    use fluxquery::xmlgen::{auction_string, AuctionConfig, AUCTION_DTD};
    use fluxquery::{EngineKind, Input};

    const AUC_EXP: &str = r#"<expensive>{ for $s in $ROOT/site return for $a in $s/closed_auctions/closed_auction where $a/price > 400 return <hit>{$a/itemref}{$a/price}</hit> }</expensive>"#;

    // ~96 KiB, so `--shards 2` really splits it (16 KiB minimum per shard).
    let valid = auction_string(&AuctionConfig::target_bytes(96 * 1024, 7)).into_bytes();
    // The occurrence of `marker` nearest the middle of `valid`'s `section`
    // element, so the flaw sits deep inside the ignored region.
    let middle_of = |section: &str, marker: &str| -> usize {
        let find = |needle: &str, from: usize| {
            from + valid[from..]
                .windows(needle.len())
                .position(|w| w == needle.as_bytes())
                .unwrap_or_else(|| panic!("`{needle}` not found"))
        };
        let open = find(&format!("<{section}>"), 0);
        let close = find(&format!("</{section}>"), open);
        find(marker, (open + close) / 2)
    };
    let splice = |at: usize, remove: usize, insert: &[u8]| -> Vec<u8> {
        let mut doc = valid[..at].to_vec();
        doc.extend_from_slice(insert);
        doc.extend_from_slice(&valid[at + remove..]);
        doc
    };

    let description = middle_of("items", "<description>") + "<description>".len();
    let person_name = middle_of("people", "<name>");
    let person = middle_of("people", "<person ");
    let quantity_end = middle_of("items", "</quantity>");
    // (what, document, reader-level?, the message — recorded at the parent
    // commit, where the loop still viewed every event). The baselines
    // never validate against the DTD — they accept the two validity
    // violations, at the parent too — so those compare the flux modes only;
    // the two well-formedness classes compare all four engines.
    let cases: [(&str, Vec<u8>, bool, &str); 4] = [
        (
            "invalid UTF-8 in an item/description text run",
            splice(description + 3, 1, &[0xFF]),
            true,
            "invalid UTF-8 at line 1, column 38264",
        ),
        (
            "undeclared element inside person",
            splice(person_name, 0, b"<nickname/>"),
            false,
            "validation error at line 1, column 5842: \
             element `nickname` is not declared in the DTD",
        ),
        (
            "character data directly inside people",
            splice(person, 0, b"stray"),
            false,
            "validation error at line 1, column 5819: \
             character data is not allowed inside `people` (element content)",
        ),
        (
            "mismatched end tag inside items",
            splice(quantity_end, "</quantity>".len(), b"</quality>"),
            true,
            "not well-formed at line 1, column 38028: \
             mismatched end tag: expected </quantity>, found </quality>",
        ),
    ];

    let engines = [
        ("flux", Options::new(), EngineKind::Flux),
        (
            "flux --shards 2",
            Options::new().shards(2),
            EngineKind::Flux,
        ),
        ("dom", Options::new(), EngineKind::Dom),
        ("projection", Options::new(), EngineKind::Projection),
    ];
    for (what, doc, reader_level, expected) in &cases {
        for (label, options, kind) in &engines {
            let engine = options.compile(*kind, AUC_EXP, AUCTION_DTD).unwrap();
            let result = engine.run_input(Input::from_bytes(doc.clone()), std::io::sink());
            if *kind != EngineKind::Flux && !reader_level {
                assert!(result.is_ok(), "{what}: {label} does not validate");
                continue;
            }
            let error = result.expect_err(what).to_string();
            assert_eq!(&error, expected, "{what}, engine {label}");
        }
    }
}
