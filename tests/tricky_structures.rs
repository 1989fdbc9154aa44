//! Stress tests for document shapes that exercise corner cases of the
//! runtime: recursive element types, mixed content, CDATA, deeply nested
//! scopes, entity references, and queries needing several past-queries on
//! one element type.

use flux_conformance::{run_engine, run_engine_input, Q3};
use fluxquery::{
    EngineKind, FluxEngine, Input, Options, DEFAULT_WINDOW, PAPER_FIG1_DTD, PAPER_WEAK_DTD,
};

fn agree(query: &str, dtd: &str, doc: &str) -> String {
    let mut reference: Option<Vec<u8>> = None;
    for kind in [EngineKind::Flux, EngineKind::Projection, EngineKind::Dom] {
        let outcome = run_engine(kind, query, dtd, doc.as_bytes())
            .unwrap_or_else(|e| panic!("{} failed: {e}\nquery: {query}", kind.label()));
        match &reference {
            None => reference = Some(outcome.output),
            Some(expected) => assert_eq!(
                String::from_utf8_lossy(&outcome.output),
                String::from_utf8_lossy(expected),
                "{} diverged on {query}",
                kind.label()
            ),
        }
    }
    String::from_utf8(reference.expect("ran")).expect("utf8")
}

#[test]
fn recursive_sections() {
    let dtd = "<!ELEMENT doc (section)*>\n<!ELEMENT section (head, section?, tail?)>\n<!ELEMENT head (#PCDATA)>\n<!ELEMENT tail (#PCDATA)>";
    let doc = "<doc><section><head>h1</head><section><head>h2</head><section><head>h3</head></section><tail>t2</tail></section><tail>t1</tail></section></doc>";
    // Heads of top-level sections plus their direct subsection heads.
    let q = r#"<outline>{ for $s in $ROOT/doc/section return <top>{$s/head}{ for $sub in $s/section return $sub/head }</top> }</outline>"#;
    let out = agree(q, dtd, doc);
    assert_eq!(
        out,
        "<outline><top><head>h1</head><head>h2</head></top></outline>"
    );
}

#[test]
fn recursion_with_whole_copies() {
    let dtd =
        "<!ELEMENT doc (section)*>\n<!ELEMENT section (head, section?)>\n<!ELEMENT head (#PCDATA)>";
    let doc = "<doc><section><head>a</head><section><head>b</head></section></section><section><head>c</head></section></doc>";
    let q =
        r#"<r>{ for $s in $ROOT/doc/section return for $inner in $s/section return $inner }</r>"#;
    let out = agree(q, dtd, doc);
    assert_eq!(out, "<r><section><head>b</head></section></r>");
}

#[test]
fn mixed_content_streams() {
    let dtd = "<!ELEMENT doc (para)*>\n<!ELEMENT para (#PCDATA | em)*>\n<!ELEMENT em (#PCDATA)>";
    let doc = "<doc><para>one <em>two</em> three</para><para>plain</para></doc>";
    let q = r#"<r>{ for $p in $ROOT/doc/para return <p>{$p/em}</p> }</r>"#;
    let out = agree(q, dtd, doc);
    assert_eq!(out, "<r><p><em>two</em></p><p></p></r>");
}

#[test]
fn mixed_content_text_extraction() {
    let dtd = "<!ELEMENT doc (para)*>\n<!ELEMENT para (#PCDATA | em)*>\n<!ELEMENT em (#PCDATA)>";
    let doc = "<doc><para>one <em>two</em> three</para></doc>";
    // text() of the para: only the direct text children, not em's text.
    let q = r#"<r>{ for $p in $ROOT/doc/para return <t>{$p/text()}</t> }</r>"#;
    let out = agree(q, dtd, doc);
    assert_eq!(out, "<r><t>one  three</t></r>");
}

#[test]
fn whole_copy_of_mixed_content() {
    let dtd = "<!ELEMENT doc (para)*>\n<!ELEMENT para (#PCDATA | em)*>\n<!ELEMENT em (#PCDATA)>";
    let doc = "<doc><para>one <em>two</em> three</para></doc>";
    let q = r#"<r>{ for $p in $ROOT/doc/para return $p }</r>"#;
    let out = agree(q, dtd, doc);
    assert_eq!(out, "<r><para>one <em>two</em> three</para></r>");
}

#[test]
fn cdata_and_entities_flow_through() {
    let dtd = "<!ELEMENT doc (item)*>\n<!ELEMENT item (#PCDATA)>";
    let doc = "<doc><item>a &amp; b</item><item><![CDATA[x < y & z]]></item></doc>";
    let q = r#"<r>{ for $i in $ROOT/doc/item return $i }</r>"#;
    let out = agree(q, dtd, doc);
    assert_eq!(
        out,
        "<r><item>a &amp; b</item><item>x &lt; y &amp; z</item></r>"
    );
}

#[test]
fn several_buffered_items_one_element_type() {
    // Three buffered items per book, each with a different past-set.
    let dtd = fluxquery::PAPER_FIG1_DTD;
    let doc = "<bib><book><title>T</title><author>A</author><publisher>P</publisher><price>9</price></book></bib>";
    let q = r#"<r>{ for $b in $ROOT/bib/book return
        <x>{$b/price}{$b/publisher}{$b/author}{$b/title}</x> }</r>"#;
    let out = agree(q, dtd, doc);
    assert_eq!(
        out,
        "<r><x><price>9</price><publisher>P</publisher><author>A</author><title>T</title></x></r>"
    );
}

#[test]
fn deeply_nested_scopes() {
    let dtd = "<!ELEMENT l0 (l1)*>\n<!ELEMENT l1 (l2)*>\n<!ELEMENT l2 (l3)*>\n<!ELEMENT l3 (l4)*>\n<!ELEMENT l4 (#PCDATA)>";
    let mut doc = String::from("<l0>");
    for i in 0..3 {
        doc.push_str(&format!(
            "<l1><l2><l3><l4>leaf{i}</l4><l4>extra{i}</l4></l3></l2></l1>"
        ));
    }
    doc.push_str("</l0>");
    let q = r#"<r>{ for $a in $ROOT/l0/l1 return for $b in $a/l2 return for $c in $b/l3 return for $d in $c/l4 return $d }</r>"#;
    let out = agree(q, dtd, &doc);
    assert_eq!(out.matches("<l4>").count(), 6);
}

#[test]
fn interleaved_buffer_and_stream_same_label() {
    // title both streamed (first item) and buffered (third item reads it
    // again) — the interleaved-arena regression scenario.
    let dtd = fluxquery::PAPER_WEAK_DTD;
    let doc = "<bib><book><title>T1</title><author>A</author><title>T2</title></book></bib>";
    let q = r#"<r>{ for $b in $ROOT/bib/book return <x>{$b/title}{$b/author}{$b/title}</x> }</r>"#;
    let out = agree(q, dtd, doc);
    assert_eq!(
        out,
        "<r><x><title>T1</title><title>T2</title><author>A</author><title>T1</title><title>T2</title></x></r>"
    );
}

#[test]
fn empty_elements_and_empty_results() {
    let dtd =
        "<!ELEMENT doc (entry)*>\n<!ELEMENT entry EMPTY>\n<!ATTLIST entry id CDATA #REQUIRED>";
    let doc = r#"<doc><entry id="1"/><entry id="2"/></doc>"#;
    let q = r#"<r>{ for $e in $ROOT/doc/entry return <id>{$e/@id}</id> }</r>"#;
    let out = agree(q, dtd, doc);
    assert_eq!(out, "<r><id>1</id><id>2</id></r>");
}

#[test]
fn condition_on_deep_path() {
    let dtd = "<!ELEMENT lib (shelf)*>\n<!ELEMENT shelf (book)*>\n<!ELEMENT book (title, note?)>\n<!ELEMENT title (#PCDATA)>\n<!ELEMENT note (#PCDATA)>";
    let doc = "<lib><shelf><book><title>K</title><note>rare</note></book><book><title>L</title></book></shelf></lib>";
    let q = r#"<r>{ for $s in $ROOT/lib/shelf return for $b in $s/book return if (exists($b/note)) then $b/title else () }</r>"#;
    let out = agree(q, dtd, doc);
    assert_eq!(out, "<r><title>K</title></r>");
}

#[test]
fn output_attribute_from_buffered_sibling() {
    // Attribute template on a constructed element reading buffered data.
    let dtd = fluxquery::PAPER_FIG1_DTD;
    let doc = "<bib><book><title>T</title><author>A</author><publisher>Pub</publisher><price>5</price></book></bib>";
    let q = r#"<r>{ for $b in $ROOT/bib/book return for $p in $b/price return <offer from="{$b/publisher}">{$p}</offer> }</r>"#;
    // publisher precedes price under Fig. 1: the price loop streams and the
    // publisher buffer is complete when the offer opens.
    let out = agree(q, dtd, doc);
    assert_eq!(out, r#"<r><offer from="Pub"><price>5</price></offer></r>"#);
}

#[test]
fn flux_memory_stays_small_on_recursion() {
    // Only direct children of the outermost sections are needed; inner
    // recursion levels must not be buffered.
    let dtd =
        "<!ELEMENT doc (section)*>\n<!ELEMENT section (head, section?)>\n<!ELEMENT head (#PCDATA)>";
    let mut inner = String::from("<head>deep</head>");
    for i in (0..60).rev() {
        inner = format!("<head>h{i}</head><section>{inner}</section>");
    }
    let doc = format!("<doc><section>{inner}</section></doc>");
    let q = r#"<r>{ for $s in $ROOT/doc/section return $s/head }</r>"#;
    let engine = FluxEngine::compile(q, dtd, &Options::default()).unwrap();
    let (out, stats) = engine.run_to_string(&doc).unwrap();
    assert_eq!(out, "<r><head>h0</head></r>");
    assert!(
        stats.peak_buffer_bytes < 2500,
        "recursion depth must not inflate buffers: {}",
        stats.peak_buffer_bytes
    );
}

#[test]
fn text_dependency_defers_to_close() {
    // {$p/text()} then {$p/em}: text can arrive until the close tag in
    // mixed content, so both items buffer and fire at </para> — in query
    // order, not stream order.
    let dtd = "<!ELEMENT doc (para)*>\n<!ELEMENT para (#PCDATA | em)*>\n<!ELEMENT em (#PCDATA)>";
    let doc = "<doc><para><em>first</em>mid<em>last</em>tail</para></doc>";
    let q = r#"<r>{ for $p in $ROOT/doc/para return <x>{$p/text()}{$p/em}</x> }</r>"#;
    let out = agree(q, dtd, doc);
    assert_eq!(out, "<r><x>midtail<em>first</em><em>last</em></x></r>");
}

#[test]
fn attribute_only_queries_buffer_nothing() {
    let dtd = "<!ELEMENT list (e)*>\n<!ELEMENT e EMPTY>\n<!ATTLIST e v CDATA #REQUIRED>";
    let mut doc = String::from("<list>");
    for i in 0..2000 {
        doc.push_str(&format!("<e v=\"{i}\"/>"));
    }
    doc.push_str("</list>");
    let q = r#"<r>{ for $e in $ROOT/list/e return <n>{$e/@v}</n> }</r>"#;
    let engine = FluxEngine::compile(q, dtd, &Options::default()).unwrap();
    let (out, stats) = engine.run_to_string(&doc).unwrap();
    assert_eq!(out.matches("<n>").count(), 2000);
    assert!(
        stats.peak_buffer_bytes < 400,
        "attribute reads need only the scope shell: {}",
        stats.peak_buffer_bytes
    );
}

#[test]
fn unicode_content_through_engine() {
    let dtd = "<!ELEMENT doc (w)*>\n<!ELEMENT w (#PCDATA)>";
    let doc = "<doc><w>grüße</w><w>日本語</w><w>&#x1F4A1;</w></doc>";
    let q = r#"<r>{ for $w in $ROOT/doc/w return $w }</r>"#;
    let out = agree(q, dtd, doc);
    assert_eq!(out, "<r><w>grüße</w><w>日本語</w><w>💡</w></r>");
}

#[test]
fn optional_elements_absent_and_present() {
    let dtd = "<!ELEMENT doc (rec)*>\n<!ELEMENT rec (a, b?, c?)>\n<!ELEMENT a (#PCDATA)>\n<!ELEMENT b (#PCDATA)>\n<!ELEMENT c (#PCDATA)>";
    let doc = "<doc><rec><a>1</a></rec><rec><a>2</a><c>x</c></rec><rec><a>3</a><b>y</b><c>z</c></rec></doc>";
    // Query order b-then-a is the reverse of stream order: b buffers.
    let q = r#"<r>{ for $x in $ROOT/doc/rec return <o>{$x/b}{$x/a}</o> }</r>"#;
    let out = agree(q, dtd, doc);
    assert_eq!(
        out,
        "<r><o><a>1</a></o><o><a>2</a></o><o><b>y</b><a>3</a></o></r>"
    );
}

#[test]
fn output_nests_deeper_than_input() {
    let dtd = "<!ELEMENT doc (v)*>\n<!ELEMENT v (#PCDATA)>";
    let doc = "<doc><v>1</v><v>2</v></doc>";
    let q = r#"<a><b><c>{ for $v in $ROOT/doc/v return <d><e>{$v/text()}</e></d> }</c></b></a>"#;
    let out = agree(q, dtd, doc);
    assert_eq!(out, "<a><b><c><d><e>1</e></d><d><e>2</e></d></c></b></a>");
}

/// Comments and PIs are checked and dropped by the reader wherever they
/// stand: in the prolog and epilog, inside a copied `title`, inside a
/// buffered `author` (weak DTD) and inside a skipped `publisher` (Fig. 1).
/// Every engine gives the same bytes under the default window and a
/// 64-byte one, and none of the markup reaches the output.
#[test]
fn comments_and_pis_never_reach_the_output() {
    let prolog = "<?xml version=\"1.0\"?><!-- prolog --><?style href=\"a\"?>\n";
    let epilog = "\n<!-- epilog --><?tail?>";
    let fig1 = format!(
        "{prolog}<bib><book><title>Data<!-- in title -->base<?pi in title?> systems</title>\
         <author>Ullman</author><publisher>Pr<!-- skipped -->entice<?pi skipped?></publisher>\
         <price>9</price></book></bib>{epilog}"
    );
    let weak = format!(
        "{prolog}<bib><book><author>Ull<!-- buffered -->man<?pi buffered?></author>\
         <title>T<?pi?>1</title></book></bib>{epilog}"
    );
    let cases = [
        (
            PAPER_FIG1_DTD,
            &fig1,
            "<results><result><title>Database systems</title><author>Ullman</author></result></results>",
        ),
        (
            PAPER_WEAK_DTD,
            &weak,
            "<results><result><title>T1</title><author>Ullman</author></result></results>",
        ),
    ];
    for (dtd, doc, want) in cases {
        for window in [DEFAULT_WINDOW, 64] {
            for kind in [EngineKind::Flux, EngineKind::Projection, EngineKind::Dom] {
                let input = Input::from_bytes(doc.as_bytes().to_vec()).window(window);
                let outcome = run_engine_input(kind, Q3, dtd, input, &Options::new())
                    .unwrap_or_else(|e| panic!("{} (window {window}): {e}", kind.label()));
                let out = String::from_utf8(outcome.output).expect("utf8");
                assert_eq!(out, want, "{} (window {window})", kind.label());
                if kind == EngineKind::Flux && dtd == PAPER_FIG1_DTD {
                    assert!(outcome.stats.skipped_subtrees > 0, "publisher not skipped");
                }
                if kind == EngineKind::Flux && dtd == PAPER_WEAK_DTD {
                    assert!(outcome.stats.peak_buffer_bytes > 0, "author not buffered");
                }
            }
        }
    }
}
