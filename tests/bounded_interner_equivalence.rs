//! Property-based proof that the bounded interner is **observationally
//! invisible**: capping `max_symbols` restores a hard memory bound on the
//! name tables, and must change *nothing* a query can observe — not the
//! output bytes, not the buffer accounting, not an error, not a position.
//!
//! Exercised across all three engine architectures (FluX streaming,
//! projection, DOM) and, for FluX, across sequential and sharded parsing
//! (shard counts 1 and 2, where the *merged* table is the bounded one).
//! The generated documents deliberately carry many distinct undeclared
//! attribute names, so a tiny cap genuinely overflows: query-relevant
//! names then travel as `OVERFLOW` + literal spelling through buffering,
//! projection descent and serialisation.

use flux_conformance::{options, run_engine_with};
use fluxquery::{EngineKind, Parallelism, RunStats, PAPER_WEAK_DTD};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const Q3: &str = r#"<results>{ for $b in $ROOT/bib/book return <result>{$b/title}{$b/author}</result> }</results>"#;
const FILTER: &str =
    r#"<hits>{ for $b in $ROOT/bib/book return if (exists($b/author)) then $b else () }</hits>"#;

/// A weak-DTD-valid bibliography whose elements carry undeclared
/// attributes with a wide name vocabulary — the part of the alphabet a
/// tiny interner cap overflows (declared names are pre-seeded from the
/// DTD and always resolve).
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

    /// For every engine and shard count, a tiny interner cap leaves the
    /// output bytes and the run statistics byte-for-byte identical to the
    /// unbounded run.
    #[test]
    fn bounded_interner_never_changes_results(
        seed in 0u64..10_000,
        books in 1usize..24,
        cap in 0usize..6,
        query_pick in 0usize..2,
    ) {
        let doc = noisy_doc(books, seed);
        let query = if query_pick == 0 { Q3 } else { FILTER };
        for (label, kind, parallelism) in configurations() {
            let unbounded = run_engine_with(
                kind, query, PAPER_WEAK_DTD, doc.as_bytes(), &options(parallelism, None),
            ).unwrap_or_else(|e| panic!("{label} unbounded failed: {e}"));
            let bounded = run_engine_with(
                kind, query, PAPER_WEAK_DTD, doc.as_bytes(), &options(parallelism, Some(cap)),
            ).unwrap_or_else(|e| panic!("{label} cap={cap} failed: {e}"));
            prop_assert_eq!(
                &bounded.output, &unbounded.output,
                "{} output changed under max_symbols={} (seed {}, books {})",
                label, cap, seed, books
            );
            prop_assert_eq!(
                verdict(&bounded.stats), verdict(&unbounded.stats),
                "{} stats changed under max_symbols={} (seed {}, books {})",
                label, cap, seed, books
            );
        }
    }
}

/// Errors are part of the observable behaviour too: an invalid document
/// must fail with the *same* rendered error whether or not the interner is
/// bounded, sequentially and sharded.
#[test]
fn bounded_interner_preserves_errors() {
    // `pamphlet` is not declared in the weak DTD: validation rejects it at
    // the same position in every configuration.
    let doc = "<bib><book><title>T</title></book><pamphlet/></bib>";
    for (label, kind, parallelism) in configurations() {
        let unbounded = run_engine_with(
            kind,
            Q3,
            PAPER_WEAK_DTD,
            doc.as_bytes(),
            &options(parallelism, None),
        );
        let bounded = run_engine_with(
            kind,
            Q3,
            PAPER_WEAK_DTD,
            doc.as_bytes(),
            &options(parallelism, Some(0)),
        );
        match (unbounded, bounded) {
            (Err(u), Err(b)) => {
                assert_eq!(
                    u.to_string(),
                    b.to_string(),
                    "{label} error message changed"
                );
            }
            // The baselines do not validate; both modes must then succeed
            // with identical output.
            (Ok(u), Ok(b)) => assert_eq!(u.output, b.output, "{label} output changed"),
            (u, b) => panic!(
                "{label} verdict changed under the bounded interner: unbounded {:?}, bounded {:?}",
                u.map(|o| o.output).map_err(|e| e.to_string()),
                b.map(|o| o.output).map_err(|e| e.to_string()),
            ),
        }
    }
}

/// A document with mismatched tags whose names all overflow a zero cap:
/// errors must keep their exact sequential message and position under
/// sharding + bounding. In particular, two overflowed names must *not*
/// balance just because both carry the sentinel — the non-validating
/// engines reach the mismatch and must name both tags; the FluX engine
/// rejects the undeclared element first, with the same message in every
/// configuration.
#[test]
fn overflowed_tag_mismatch_still_detected() {
    let doc = "<bib><book><zzfirst>x</zzsecond></book></bib>";
    let mut flux_errors = Vec::new();
    for (label, kind, parallelism) in configurations() {
        let bounded = run_engine_with(
            kind,
            Q3,
            PAPER_WEAK_DTD,
            doc.as_bytes(),
            &options(parallelism, Some(0)),
        );
        let unbounded = run_engine_with(
            kind,
            Q3,
            PAPER_WEAK_DTD,
            doc.as_bytes(),
            &options(parallelism, None),
        );
        let err = bounded.err().expect("the document must fail").to_string();
        let err_unbounded = unbounded.err().expect("the document must fail").to_string();
        assert_eq!(err, err_unbounded, "{label}: bounding changed the error");
        match kind {
            EngineKind::Flux => flux_errors.push(err),
            // DOM and projection do not validate: they stream up to the
            // well-formedness flaw and must name both overflowed tags.
            _ => assert!(
                err.contains("zzfirst") && err.contains("zzsecond"),
                "{label}: error must name both tags: {err}"
            ),
        }
    }
    // FluX sequential and both shard counts agree byte-for-byte.
    assert_eq!(flux_errors[0], flux_errors[1]);
    assert_eq!(flux_errors[0], flux_errors[2]);
}

/// Names inside a subtree no frame reads never reach the interner: the
/// reader hops the subtree, and even the tags it hands to its ordinary
/// parse there (here: every tag with an attribute) look names up without
/// interning them. 10 000 distinct undeclared element and attribute names
/// inside `people` leave the symbol table exactly as long as the DTD
/// seeded it, capped or not — while a plain read of the same document
/// interns every one of them.
#[test]
fn skipped_regions_do_not_grow_the_interner() {
    use fluxquery::runtime::{compile_plan, execute};
    use fluxquery::xml::{EventSource, Position, RawEventKind, RawEventRef, ReaderConfig, Result};
    use fluxquery::xmlgen::{auction_string, AuctionConfig, AUCTION_DTD};
    use fluxquery::xsax::seeded_reader;
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
    let seeded = fluxquery::xsax::seeded_symbols(dtd).len();
    for cap in [None, Some(1 << 20)] {
        let config = ReaderConfig {
            max_symbols: cap,
            ..ReaderConfig::default()
        };
        let longest = Cell::new(0);
        let source = Watch {
            inner: seeded_reader(doc.as_bytes(), dtd, config.clone()),
            longest: &longest,
        };
        let (stats, _) = execute(&plan, dtd, source, std::io::sink(), false)
            .expect("validity is not checked inside a skipped subtree");
        assert!(stats.skipped_subtrees > 0);
        assert_eq!(longest.get(), seeded, "cap {cap:?}: the interner grew");

        let mut plain = seeded_reader(doc.as_bytes(), dtd, config);
        while plain.advance().unwrap() {}
        assert_eq!(plain.symbols().len(), seeded + 15_000, "cap {cap:?}");
    }
}
