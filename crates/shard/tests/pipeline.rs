//! Pipelined-error equality: a document with a mid-stream **validity**
//! error (well-formed XML that violates the DTD) must yield the identical
//! error, the identical error *position* (offset, line and column), and
//! the identical partial event stream — prefix events and on-first fires —
//! under the sequential reader and pipelined sharding, at every shard
//! count.
//!
//! This is the acceptance bar for overlapping validation with parsing:
//! the consumer may start validating shard *i* while shards *i+1..N* are
//! still being parsed, but nothing observable may move.

use flux_dtd::Dtd;
use flux_shard::{ShardConfig, ShardedReader};
use flux_xml::{collect_events, EventSource, Position, SymbolTable, XmlEvent, XmlReader};
use flux_xmlgen::{bib_string, corpus, BibConfig};
use flux_xsax::{seeded_symbols, XsaxConfig, XsaxError, XsaxParser, XsaxStep};
use proptest::prelude::*;

const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 8];

/// One delivered step, owned for comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Step {
    Sax(XmlEvent),
    Fire { id: u32, depth: usize },
}

/// Drives XSAX to completion or failure, returning the delivered prefix
/// and the terminal error (if any).
fn drive<S: EventSource>(
    mut parser: XsaxParser<'_, S>,
    past: Option<(flux_dtd::Symbol, flux_xsax::PastLabels)>,
) -> (Vec<Step>, Option<XsaxError>) {
    if let Some((element, labels)) = past {
        parser.register_past(element, labels).expect("register");
    }
    let mut steps = Vec::new();
    loop {
        match parser.next_step() {
            Ok(Some(XsaxStep::Sax)) => {
                steps.push(Step::Sax(parser.view().to_xml_event(parser.symbols())));
            }
            Ok(Some(XsaxStep::Fire { id, depth })) => steps.push(Step::Fire { id: id.0, depth }),
            Ok(None) => return (steps, None),
            Err(e) => return (steps, Some(e)),
        }
    }
}

/// The position inside a validation error.
fn error_position(err: &XsaxError) -> Option<Position> {
    match err {
        XsaxError::Validation { pos, .. } => Some(*pos),
        _ => None,
    }
}

/// Runs the document through both paths and asserts byte-for-byte
/// agreement of prefix, error message and error position.
fn assert_modes_agree(doc: &str, dtd: &Dtd, with_past: bool) {
    let past = with_past.then(|| {
        let book = dtd.lookup("book").expect("book");
        let title = dtd.lookup("title").expect("title");
        let author = dtd.lookup("author").expect("author");
        (book, flux_xsax::PastLabels::labels([title, author]))
    });
    let (seq_steps, seq_err) = drive(
        XsaxParser::new(doc.as_bytes(), dtd).expect("sequential parser"),
        past.clone(),
    );
    for shards in SHARD_COUNTS {
        let mut config = ShardConfig::new(shards);
        config.min_shard_bytes = 1;
        let source = ShardedReader::new(doc.as_bytes().to_vec(), config, seeded_symbols(dtd));
        let parser =
            XsaxParser::from_source(source, dtd, XsaxConfig::default()).expect("from_source");
        let (steps, err) = drive(parser, past.clone());
        assert_eq!(
            steps, seq_steps,
            "partial stream diverged ({shards} shards)"
        );
        match (&seq_err, &err) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                assert_eq!(
                    a.to_string(),
                    b.to_string(),
                    "error diverged ({shards} shards)"
                );
                assert_eq!(
                    error_position(a),
                    error_position(b),
                    "error position (incl. offset) diverged ({shards} shards)"
                );
            }
            (a, b) => panic!("verdicts diverged ({shards} shards): {a:?} vs {b:?}"),
        }
    }
}

/// Replaces the `n`-th occurrence of `needle` in `doc` with `with`,
/// wrapping `n` by the occurrence count.
fn corrupt_nth(doc: &str, needle: &str, with: &str, n: usize) -> Option<String> {
    let occurrences = doc.matches(needle).count();
    if occurrences == 0 {
        return None;
    }
    let n = n % occurrences;
    let mut at = 0;
    for _ in 0..=n {
        at = doc[at..].find(needle)? + at + 1;
    }
    let at = at - 1;
    let mut out = String::with_capacity(doc.len() + with.len());
    out.push_str(&doc[..at]);
    out.push_str(with);
    out.push_str(&doc[at + needle.len()..]);
    Some(out)
}

/// Parse-level counterpart of [`assert_modes_agree`]: every entry of the
/// seeded malformed-input corpus must fail with the identical error
/// message and the byte-exact sequential position — offset, line *and*
/// column — under every shard count.
#[test]
fn corpus_errors_byte_exact_across_shard_counts() {
    let entries = corpus();
    assert!(entries.len() >= 20, "corpus shrank to {}", entries.len());
    for entry in &entries {
        let seq_err = collect_events(&mut XmlReader::new(entry.bytes.as_slice()))
            .1
            .unwrap_or_else(|| panic!("corpus entry `{}` parsed cleanly", entry.id));
        entry.check_error(&seq_err);
        let seq_pos = seq_err
            .position()
            .unwrap_or_else(|| panic!("corpus entry `{}`: error without position", entry.id));
        for shards in SHARD_COUNTS {
            let mut config = ShardConfig::new(shards);
            config.min_shard_bytes = 1;
            let mut reader = ShardedReader::new(entry.bytes.clone(), config, SymbolTable::new());
            let err = collect_events(&mut reader).1.unwrap_or_else(|| {
                panic!(
                    "corpus entry `{}` parsed cleanly ({shards} shards)",
                    entry.id
                )
            });
            assert_eq!(
                err.to_string(),
                seq_err.to_string(),
                "corpus entry `{}`: error message diverged ({shards} shards)",
                entry.id
            );
            assert_eq!(
                err.position(),
                Some(seq_pos),
                "corpus entry `{}`: error position diverged ({shards} shards)",
                entry.id
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        ..ProptestConfig::default()
    })]

    /// A mid-stream order violation (a `price` arriving before `title`)
    /// under the Fig. 1 DTD: identical error, position and prefix in both
    /// modes, with on-first registrations active.
    #[test]
    fn validity_error_identical_across_modes(
        seed in 0u64..1_000_000,
        books in 5usize..60,
        corrupt_at in 0usize..60,
    ) {
        let dtd = Dtd::parse(flux_dtd::PAPER_FIG1_DTD).expect("dtd");
        let valid = bib_string(&BibConfig::fig1(books, seed));
        let invalid = corrupt_nth(&valid, "<title>", "<price>9</price><title>", corrupt_at)
            .expect("generated bibs contain titles");
        assert_modes_agree(&invalid, &dtd, true);
        // And the uncorrupted document agrees end to end as well.
        assert_modes_agree(&valid, &dtd, true);
    }

    /// An undeclared element appearing mid-stream.
    #[test]
    fn undeclared_element_identical_across_modes(
        seed in 0u64..1_000_000,
        books in 5usize..40,
        corrupt_at in 0usize..40,
    ) {
        let dtd = Dtd::parse(flux_dtd::PAPER_FIG1_DTD).expect("dtd");
        let valid = bib_string(&BibConfig::fig1(books, seed));
        let invalid = corrupt_nth(&valid, "<author>", "<pamphlet>x</pamphlet><author>", corrupt_at)
            .expect("generated bibs contain authors");
        assert_modes_agree(&invalid, &dtd, false);
    }
}
