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

/// AUC-EXP reads nothing of `people` and `items`: the executor skips
/// them, and the reader hops their bytes without delivering an event. The
/// contract of a skip: **well-formedness is checked everywhere**, with the
/// same message and position in every engine, sequential or sharded —
/// **validity is not checked inside a skipped subtree**, exactly as the
/// `dom` and `projection` engines never validate at all.
#[test]
fn errors_inside_regions_the_plan_ignores_are_identical_across_engines() {
    use fluxquery::xmlgen::{auction_string, AuctionConfig, AUCTION_DTD};
    use fluxquery::{EngineKind, Input};

    const AUC_EXP: &str = r#"<expensive>{ for $s in $ROOT/site return for $a in $s/closed_auctions/closed_auction where $a/price > 400 return <hit>{$a/itemref}{$a/price}</hit> }</expensive>"#;

    // ~96 KiB, so `--shards 2` really splits it (16 KiB smallest chunk).
    let valid = auction_string(&AuctionConfig::target_bytes(96 * 1024, 7)).into_bytes();
    // The occurrence of `marker` nearest the middle of `valid`'s `section`
    // element, so the flaw sits deep inside the skipped region.
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
    let name_text = person_name + "<name>".len();
    let person = middle_of("people", "<person ");
    let person_id = middle_of("people", "<person id=\"") + "<person id=\"".len();
    let quantity_end = middle_of("items", "</quantity>");
    let name_end = middle_of("people", "</name>");
    let person_end = middle_of("people", "</person>");
    let deep = format!("{}{}", "<d>".repeat(10_001), "</d>".repeat(10_001));

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
    let compiled: Vec<_> = engines
        .iter()
        .map(|(label, options, kind)| {
            (
                *label,
                options.compile(*kind, AUC_EXP, AUCTION_DTD).unwrap(),
            )
        })
        .collect();

    // Validity violations inside a skipped subtree: accepted by every
    // engine, flux included.
    let nickname = splice(person_name, 0, b"<nickname/>");
    let stray = splice(person, 0, b"stray");
    for (what, doc) in [
        ("undeclared element inside person", &nickname),
        ("character data directly inside people", &stray),
    ] {
        for (label, engine) in &compiled {
            let result = engine.run_input(Input::from_bytes(doc.clone()), std::io::sink());
            assert!(
                result.is_ok(),
                "{what}: {label} rejected a skipped region: {result:?}"
            );
        }
    }
    // A run with no plan skips nothing: the XSAX parser alone (the
    // `validate_stream` example's path) still rejects both.
    let dtd = fluxquery::dtd::Dtd::parse(AUCTION_DTD).unwrap();
    for (doc, expected) in [
        (
            &nickname,
            "validation error at line 1, column 5842: \
             element `nickname` is not declared in the DTD",
        ),
        (
            &stray,
            "validation error at line 1, column 5819: \
             character data is not allowed inside `people` (element content)",
        ),
    ] {
        let error = fluxquery::xsax::validate(doc.as_slice(), &dtd).unwrap_err();
        assert_eq!(error.to_string(), expected);
    }

    // Well-formedness errors inside a skipped subtree: (what, input,
    // message), identical in every engine.
    let cut_after = |cut: usize, doc: Vec<u8>| {
        move || {
            Input::from_reader(CutReader {
                doc: doc.clone(),
                at: 0,
                cut,
            })
        }
    };
    let bytes = |doc: Vec<u8>| move || Input::from_bytes(doc.clone());
    type Case = (&'static str, Box<dyn Fn() -> Input>, &'static str);
    let cases: [Case; 11] = [
        (
            "invalid UTF-8 in an item/description text run",
            Box::new(bytes(splice(description + 3, 1, &[0xFF]))),
            "invalid UTF-8 at line 1, column 38264",
        ),
        (
            "invalid UTF-8 straddling a refill",
            Box::new(cut_after(
                name_text + 3,
                splice(name_text + 2, 0, &[0xC3, b'(']),
            )),
            "invalid UTF-8 at line 1, column 5846",
        ),
        (
            "mismatched end tag inside items",
            Box::new(bytes(splice(
                quantity_end,
                "</quantity>".len(),
                b"</quality>",
            ))),
            "not well-formed at line 1, column 38028: \
             mismatched end tag: expected </quantity>, found </quality>",
        ),
        (
            "a mismatched end tag of the same length inside people",
            Box::new(bytes(splice(name_end, "</name>".len(), b"</nbme>"))),
            "not well-formed at line 1, column 5851: \
             mismatched end tag: expected </name>, found </nbme>",
        ),
        (
            "a mismatched end tag closing an element with attributes",
            Box::new(bytes(splice(person_end, "</person>".len(), b"</persom>"))),
            "not well-formed at line 1, column 5814: \
             mismatched end tag: expected </person>, found </persom>",
        ),
        (
            "unknown entity in a person's name",
            Box::new(bytes(splice(name_text + 2, 0, b"&bogus;"))),
            "unknown entity `&bogus;` at line 1, column 5851",
        ),
        (
            "duplicate attribute on a person",
            Box::new(bytes(splice(person + "<person".len(), 0, b" id=\"twice\""))),
            "not well-formed at line 1, column 5841: duplicate attribute `id`",
        ),
        (
            "`<` in a person's id",
            Box::new(bytes(splice(person_id, 0, b"a<b"))),
            "not well-formed at line 1, column 5833: \
             `<` is not allowed in attribute values",
        ),
        (
            "unterminated comment inside people",
            Box::new(bytes(splice(person, 0, b"<!-- never closed"))),
            "unexpected end of input at line 1, column 97918, \
             expected end of comment `-->`",
        ),
        (
            "nesting past the depth limit inside people",
            Box::new(bytes(splice(person, 0, deep.as_bytes()))),
            "not well-formed at line 1, column 35811: \
             element nesting deeper than the configured limit of 10000",
        ),
        (
            "a bad name inside people",
            Box::new(bytes(splice(person, 0, b"<1x/>"))),
            "XML syntax error at line 1, column 5815: invalid element name",
        ),
    ];
    for (what, input, expected) in &cases {
        for (label, engine) in &compiled {
            let error = engine
                .run_input(input(), std::io::sink())
                .expect_err(what)
                .to_string();
            assert_eq!(&error, expected, "{what}, engine {label}");
        }
    }
}

/// A reader that always ends a read at byte `cut` of `doc`, wherever the
/// consumer's buffer happens to stand, so a sequence split there straddles
/// a refill in every engine.
struct CutReader {
    doc: Vec<u8>,
    at: usize,
    cut: usize,
}

impl std::io::Read for CutReader {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let end = if self.at < self.cut {
            self.cut
        } else {
            self.doc.len()
        };
        let n = out.len().min(end - self.at);
        out[..n].copy_from_slice(&self.doc[self.at..self.at + n]);
        self.at += n;
        Ok(n)
    }
}

/// A name the DTD does not declare reaches a sequential run through a
/// reader closed at the plan's vocabulary, which never interns it, and a
/// `--shards 2` run through open shard readers, which do. In a delivered
/// region and inside a skipped one, both fail with the same message at
/// the same position — and so does a plan that names the element itself
/// (a test of `$b/zzauthor`, kept by switching R3 off), whose vocabulary
/// holds it as a symbol past the DTD's. A loop over `$b/zzauthor` would
/// not do: the plan prunes loops over labels the DTD rules out, and with
/// it every book's content goes unread.
#[test]
fn undeclared_names_fail_alike_closed_and_open() {
    // Q3 under Figure 1 reads `title` and `author`; `publisher` and
    // `price` are skipped. 400 books (~34 KiB) so `--shards 2` splits, the
    // flaw in the second half.
    let book = "<book><title>T</title><author>A</author>\
                <publisher>P</publisher><price>1</price></book>";
    let doc = |flawed: &str| {
        format!(
            "<bib>{}{flawed}{}</bib>",
            book.repeat(300),
            book.repeat(100)
        )
    };
    let delivered = doc("<book><title>T</title><zzauthor>A</zzauthor>\
                         <publisher>P</publisher><price>1</price></book>");
    let skipped = doc("<book><title>T</title><author>A</author>\
                       <publisher><zzfirst>P</zzsecond></publisher><price>1</price></book>");
    let sharded = FluxEngine::compile(Q3, PAPER_FIG1_DTD, &Options::new().shards(2)).unwrap();
    let input = fluxquery::Input::from_bytes(doc(""));
    let (_, report) = sharded
        .run_input_with_report(input, std::io::sink())
        .unwrap();
    let shards = report
        .find("shard_pipeline")
        .and_then(|s| s.counter_value("shards"));
    assert_eq!(shards, Some(2), "the sharded lane must split the document");
    let named = r#"<results>{ for $b in $ROOT/bib/book
        where $b/zzauthor = "A" return <z/> }</results>"#;
    let unoptimized = Options::new().algebraic_optimizer(false);
    let plan = FluxEngine::compile(named, PAPER_FIG1_DTD, &unoptimized).unwrap();
    // The test still waits for `zzauthor`; the BDF edge no valid book can
    // fill is pruned at plan compile.
    let explain = plan.explain();
    assert!(explain.contains("on-first past(zzauthor)"), "{explain}");
    assert!(!explain.contains("{zzauthor"), "{explain}");
    for (doc, expected) in [
        (
            &delivered,
            "validation error at line 1, column 26138: \
             element `zzauthor` is not declared in the DTD",
        ),
        (
            &skipped,
            "not well-formed at line 1, column 26178: \
             mismatched end tag: expected </zzfirst>, found </zzsecond>",
        ),
    ] {
        for (label, query, options) in [
            ("flux", Q3, Options::new()),
            ("flux --shards 2", Q3, Options::new().shards(2)),
            ("flux, zzauthor named", named, unoptimized.clone()),
            (
                "flux --shards 2, zzauthor named",
                named,
                unoptimized.clone().shards(2),
            ),
        ] {
            let engine = FluxEngine::compile(query, PAPER_FIG1_DTD, &options).unwrap();
            let error = engine.run_to_string(doc).expect_err(label).to_string();
            assert_eq!(error, expected, "{label}");
        }
    }
}
