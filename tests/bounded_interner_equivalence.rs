//! The closed vocabulary is **observationally invisible**: a sequential
//! FluX run reads through a reader closed at the plan's vocabulary (the
//! DTD's names plus the query's labels; its name table never grows), a sharded one through open shard readers, and
//! the baselines through open readers — and nothing a query can observe
//! may differ: not the output bytes, not the buffer accounting, not an
//! error, not a position.
//!
//! The generated documents deliberately carry many distinct undeclared
//! attribute names, so the closed reader genuinely overflows: those names
//! travel as `OVERFLOW` + literal spelling through buffering and
//! serialisation.

use flux_conformance::{options, run_engine_with};
use fluxquery::{EngineKind, Parallelism, RunStats, PAPER_FIG1_DTD, PAPER_WEAK_DTD};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const Q3: &str = r#"<results>{ for $b in $ROOT/bib/book return <result>{$b/title}{$b/author}</result> }</results>"#;
const FILTER: &str =
    r#"<hits>{ for $b in $ROOT/bib/book return if (exists($b/author)) then $b else () }</hits>"#;

/// A weak-DTD-valid bibliography whose elements carry undeclared
/// attributes with a wide name vocabulary — the part of the alphabet a
/// closed reader overflows (declared names are seeded from the DTD and
/// always resolve).
fn noisy_doc(books: usize, seed: u64) -> String {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut doc = String::from("<bib>");
    for b in 0..books {
        doc.push_str(&format!("<book meta{}=\"m\">", rng.gen_range(0..500)));
        for _ in 0..rng.gen_range(0usize..4) {
            if rng.gen_bool(0.5) {
                doc.push_str(&format!(
                    "<title tag{}=\"t\">Title {b}-{}</title>",
                    rng.gen_range(0..500),
                    rng.gen_range(0..100)
                ));
            } else {
                doc.push_str(&format!(
                    "<author id{}=\"a\" ref{}=\"r\">Author {b}-{}</author>",
                    rng.gen_range(0..500),
                    rng.gen_range(0..500),
                    rng.gen_range(0..100)
                ));
            }
        }
        doc.push_str("</book>");
    }
    doc.push_str("</bib>");
    doc
}

/// The observable facts of one run.
fn verdict(stats: &RunStats) -> (usize, usize, u64, u64) {
    (
        stats.peak_buffer_bytes,
        stats.peak_buffer_nodes,
        stats.total_buffered_bytes,
        stats.events,
    )
}

/// Every engine/parallelism configuration under test, with a label.
fn configurations() -> Vec<(String, EngineKind, Parallelism)> {
    vec![
        ("flux".into(), EngineKind::Flux, Parallelism::Sequential),
        (
            "flux-shards-1".into(),
            EngineKind::Flux,
            Parallelism::Shards(1),
        ),
        (
            "flux-shards-2".into(),
            EngineKind::Flux,
            Parallelism::Shards(2),
        ),
        (
            "projection".into(),
            EngineKind::Projection,
            Parallelism::Sequential,
        ),
        ("dom".into(), EngineKind::Dom, Parallelism::Sequential),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        ..ProptestConfig::default()
    })]

    /// Every engine and shard count prints the bytes, and FluX keeps the
    /// statistics, of the sequential FluX run over a closed reader.
    #[test]
    fn bounded_interner_never_changes_results(
        seed in 0u64..10_000,
        books in 1usize..24,
        query_pick in 0usize..2,
    ) {
        let doc = noisy_doc(books, seed);
        let query = if query_pick == 0 { Q3 } else { FILTER };
        let closed = run_engine_with(
            EngineKind::Flux, query, PAPER_WEAK_DTD, doc.as_bytes(),
            &options(Parallelism::Sequential),
        ).unwrap_or_else(|e| panic!("flux failed: {e}"));
        for (label, kind, parallelism) in configurations() {
            let open = run_engine_with(
                kind, query, PAPER_WEAK_DTD, doc.as_bytes(), &options(parallelism),
            ).unwrap_or_else(|e| panic!("{label} failed: {e}"));
            prop_assert_eq!(
                &open.output, &closed.output,
                "{} output differs from the closed run (seed {}, books {})",
                label, seed, books
            );
            if kind == EngineKind::Flux {
                prop_assert_eq!(
                    verdict(&open.stats), verdict(&closed.stats),
                    "{} stats differ from the closed run (seed {}, books {})",
                    label, seed, books
                );
            }
        }
    }
}

/// Errors are part of the observable behaviour too: a document with an
/// undeclared element fails with the *same* rendered error through the
/// closed sequential reader and the open shard readers.
#[test]
fn bounded_interner_preserves_errors() {
    // `pamphlet` is not declared in the weak DTD: validation rejects it at
    // the same position in every FluX configuration.
    let doc = "<bib><book><title>T</title></book><pamphlet/></bib>";
    let mut flux_errors = Vec::new();
    for (label, kind, parallelism) in configurations() {
        let run = run_engine_with(
            kind,
            Q3,
            PAPER_WEAK_DTD,
            doc.as_bytes(),
            &options(parallelism),
        );
        match kind {
            EngineKind::Flux => {
                flux_errors.push(run.err().expect("flux validates").to_string());
            }
            // The baselines do not validate.
            _ => assert!(run.is_ok(), "{label}: {:?}", run.err()),
        }
    }
    assert!(
        flux_errors[0].contains("element `pamphlet` is not declared in the DTD"),
        "{}",
        flux_errors[0]
    );
    assert_eq!(flux_errors[0], flux_errors[1]);
    assert_eq!(flux_errors[0], flux_errors[2]);
}

/// Mismatched tags whose names the DTD does not declare: two names a
/// closed reader overflows must *not* balance just because both carry the
/// sentinel. In a delivered region the FluX engine rejects the undeclared
/// element first; inside a region the plan skips — where nothing is
/// validated — it reaches the mismatch and names both tags, like the
/// non-validating engines. Every message is identical across the closed
/// sequential and the open sharded runs.
#[test]
fn overflowed_tag_mismatch_still_detected() {
    let delivered = "<bib><book><zzfirst>x</zzsecond></book></bib>";
    // Figure 1's `publisher` is read by no handler of Q3: its content is
    // skipped, so the mismatch is reached, not the undeclared name.
    let skipped = "<bib><book><title>T</title><author>A</author>\
                   <publisher><zzfirst>x</zzsecond></publisher><price>1</price></book></bib>";
    for (doc, dtd) in [(delivered, PAPER_WEAK_DTD), (skipped, PAPER_FIG1_DTD)] {
        let mut flux_errors = Vec::new();
        for (label, kind, parallelism) in configurations() {
            let run = run_engine_with(kind, Q3, dtd, doc.as_bytes(), &options(parallelism));
            let err = run.err().expect("the document must fail").to_string();
            match kind {
                EngineKind::Flux => flux_errors.push(err),
                _ => assert!(
                    err.contains("expected </zzfirst>, found </zzsecond>"),
                    "{label}: error must name both tags: {err}"
                ),
            }
        }
        if doc == skipped {
            assert!(
                flux_errors[0].contains("expected </zzfirst>, found </zzsecond>"),
                "{}",
                flux_errors[0]
            );
        }
        // FluX sequential and both shard counts agree byte-for-byte.
        assert_eq!(flux_errors[0], flux_errors[1]);
        assert_eq!(flux_errors[0], flux_errors[2]);
    }
}

/// Names inside a subtree no frame reads never reach the interner: the
/// reader hops the subtree, and even the tags it hands to its ordinary
/// parse there (here: every tag with an attribute) look names up without
/// interning them. 10 000 distinct undeclared element and attribute names
/// inside `people` leave the symbol table exactly as long as the DTD
/// seeded it — and so does a plain read through the closed reader, while
/// an open reader over the same document interns every one of them.
#[test]
fn skipped_regions_do_not_grow_the_interner() {
    use fluxquery::runtime::{compile_plan, execute};
    use fluxquery::xml::{
        EventSource, Position, RawEventKind, RawEventRef, ReaderConfig, Result, XmlReader,
    };
    use fluxquery::xmlgen::{auction_string, AuctionConfig, AUCTION_DTD};
    use fluxquery::{FluxEngine, Options};
    use std::cell::Cell;

    /// Delegates to `inner`, recording the longest symbol table seen.
    struct Watch<'a, S> {
        inner: S,
        longest: &'a Cell<usize>,
    }
    impl<S: EventSource> Watch<'_, S> {
        fn record(&self) {
            let len = self.inner.symbols().len();
            self.longest.set(self.longest.get().max(len));
        }
    }
    impl<S: EventSource> EventSource for Watch<'_, S> {
        fn advance(&mut self) -> Result<bool> {
            let more = self.inner.advance()?;
            self.record();
            Ok(more)
        }
        fn kind(&self) -> RawEventKind {
            self.inner.kind()
        }
        fn view(&self) -> RawEventRef<'_> {
            self.inner.view()
        }
        fn symbols(&self) -> &fluxquery::symbols::SymbolTable {
            self.inner.symbols()
        }
        fn position(&self) -> Position {
            self.inner.position()
        }
        fn skip_subtree(&mut self) -> Result<u64> {
            let bytes = self.inner.skip_subtree()?;
            self.record();
            Ok(bytes)
        }
    }

    let mut doc = auction_string(&AuctionConfig::target_bytes(64 * 1024, 7));
    let person = doc.find("<person ").expect("a person");
    let at = person + doc[person..].find("<name>").unwrap();
    let noise: String = (0..10_000)
        .map(|i| match i % 2 {
            0 => format!("<undeclared{i}/>"),
            _ => format!("<undeclared{i} attr{i}=\"v\"></undeclared{i}>"),
        })
        .collect();
    doc.insert_str(at, &noise);

    let engine = FluxEngine::compile(
        flux_conformance::catalog_query("AUC-EXP").query,
        AUCTION_DTD,
        &Options::new(),
    )
    .unwrap();
    let dtd = engine.dtd();
    let plan = compile_plan(engine.query(), dtd).unwrap();
    // AUC-EXP names only declared labels: its vocabulary is the DTD's.
    let seeds = plan.symbols.clone();
    let seeded = seeds.len();
    assert_eq!(seeded, fluxquery::xsax::seeded_symbols(dtd).len());
    let longest = Cell::new(0);
    let source = Watch {
        inner: XmlReader::closed(doc.as_bytes(), ReaderConfig::default(), seeds.clone()),
        longest: &longest,
    };
    let (stats, _) = execute(&plan, dtd, source, std::io::sink(), false)
        .expect("validity is not checked inside a skipped subtree");
    assert!(stats.skipped_subtrees > 0);
    assert_eq!(longest.get(), seeded, "the interner grew");

    let mut closed = XmlReader::closed(doc.as_bytes(), ReaderConfig::default(), seeds.clone());
    while closed.advance().unwrap() {}
    assert_eq!(closed.symbols().len(), seeded);
    let mut open = XmlReader::with_symbols(doc.as_bytes(), ReaderConfig::default(), seeds);
    while open.advance().unwrap() {}
    assert_eq!(open.symbols().len(), seeded + 15_000);
}
