//! Integration tests of the `fluxquery` binary: the one CLI run path must
//! give the same bytes whatever the engine, the parallelism or the sink,
//! keep stdout a pure result stream, and turn every bad input into the
//! documented exit code instead of a panic.

use flux_xmlgen::{auction_string, bib_string, AuctionConfig, BibConfig, AUCTION_DTD};
use fluxquery::{PAPER_FIG1_DTD, PAPER_WEAK_DTD};
use std::path::PathBuf;
use std::process::{Command, Output};

const Q3: &str = r#"<results>{ for $b in $ROOT/bib/book return <result>{$b/title}{$b/author}</result> }</results>"#;

/// A scratch file that is this test's own (tests run in parallel) and is
/// removed when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        Scratch(std::env::temp_dir().join(format!("fluxquery-cli-{}-{name}", std::process::id())))
    }

    fn with(name: &str, contents: &str) -> Scratch {
        let file = Scratch::new(name);
        std::fs::write(&file.0, contents).expect("write scratch file");
        file
    }

    fn path(&self) -> &str {
        self.0.to_str().expect("utf-8 temp path")
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Runs the binary with `--query Q3`, the given schema and `extra` flags.
fn fluxquery(schema: &str, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fluxquery"))
        .args(["--query", Q3, "--dtd", schema])
        .args(extra)
        .output()
        .expect("spawn fluxquery")
}

/// A Figure 1 bibliography spanning several of the streamed shard
/// dispatcher's 1 MiB chunks, so `--shards 2` really runs two workers.
fn document() -> String {
    let doc = bib_string(&BibConfig::fig1(12_000, 7));
    assert!(doc.len() > 2 << 20, "document too small: {}", doc.len());
    doc
}

#[test]
fn engines_shards_and_sinks_agree_byte_for_byte() {
    let input = Scratch::with("agree.xml", &document());
    let reference = fluxquery(PAPER_FIG1_DTD, &["--input", input.path()]);
    assert!(reference.status.success(), "{reference:?}");
    assert!(reference.stdout.starts_with(b"<results><result><title>"));
    for lane in [
        &["--engine", "dom"][..],
        &["--engine", "projection"],
        &["--shards", "2"],
    ] {
        let to_stdout = fluxquery(PAPER_FIG1_DTD, &[&["--input", input.path()], lane].concat());
        assert!(to_stdout.status.success(), "{lane:?}: {to_stdout:?}");
        assert_eq!(to_stdout.stdout, reference.stdout, "{lane:?}: stdout");

        let output = Scratch::new(&format!("agree-{}.out", lane[1]));
        let to_file = fluxquery(
            PAPER_FIG1_DTD,
            &[&["--input", input.path(), "--output", output.path()], lane].concat(),
        );
        assert!(to_file.status.success(), "{lane:?}: {to_file:?}");
        assert!(to_file.stdout.is_empty(), "{lane:?}: --output leaked");
        let written = std::fs::read(&output.0).expect("read --output file");
        assert_eq!(written, reference.stdout, "{lane:?}: --output file");
    }
}

#[test]
fn xml_schema_is_rejected_with_the_dtd_parsers_error() {
    const XSD: &str = r#"<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="bib" type="xs:string"/>
</xs:schema>"#;
    let input = Scratch::with("xsd.xml", &document());
    let run = fluxquery(XSD, &["--input", input.path()]);
    assert_eq!(run.status.code(), Some(1), "{run:?}");
    assert!(run.stdout.is_empty(), "{run:?}");
    let stderr = String::from_utf8(run.stderr).expect("utf-8 error");
    assert!(stderr.contains("DTD error at byte 0: "), "{stderr}");
}

#[test]
fn report_goes_to_stderr_and_stdout_stays_a_result_stream() {
    let input = Scratch::with("report.xml", &document());
    let plain = fluxquery(PAPER_FIG1_DTD, &["--input", input.path()]);
    let reported = fluxquery(
        PAPER_FIG1_DTD,
        &["--input", input.path(), "--report", "json"],
    );
    assert!(reported.status.success(), "{reported:?}");
    assert_eq!(reported.stdout, plain.stdout);
    let stderr = String::from_utf8(reported.stderr).expect("utf-8 report");
    assert!(stderr.trim_start().starts_with('{'), "{stderr}");
    assert!(stderr.contains("\"run_stats\""), "{stderr}");

    // The default build's report is a full one: live reader and xsax
    // counters whose derived rows reconcile with the document and with
    // `run_stats`, and the same totals when the parse is sharded.
    assert!(!stderr.contains("disabled"), "{stderr}");
    let doc = document();
    let starts = (doc.matches('<').count() - doc.matches("</").count()) as u64;
    let sharded = fluxquery(
        PAPER_FIG1_DTD,
        &["--input", input.path(), "--report", "json", "--shards", "2"],
    );
    let sharded = String::from_utf8(sharded.stderr).expect("utf-8 report");
    for report in [&stderr, &sharded] {
        let sum = |stage, a, b| counter(report, stage, a) + counter(report, stage, b);
        let events = counter(report, "\"run_stats\"", "events");
        assert_eq!(counter(report, "\"reader\"", "start_tags"), starts);
        // The generator writes no `<e/>`: every element has an end tag.
        assert_eq!(counter(report, "\"reader\"", "end_tags"), starts);
        assert_eq!(sum("\"xsax\"", "sax_events", "fires"), events, "{report}");
        // Every input byte is UTF-8-validated exactly once, at refill —
        // by one reader, or split across the shards' readers.
        assert_eq!(
            counter(report, "\"reader\"", "utf8_validated_bytes"),
            doc.len() as u64,
            "{report}"
        );
    }
    let sax_events = |report| counter(report, "\"xsax\"", "sax_events");
    assert_eq!(sax_events(&stderr), sax_events(&sharded));
}

#[test]
fn report_counts_one_probe_per_closed_auction_after_the_first() {
    let doc = auction_string(&AuctionConfig::scale(1.0, 7));
    let auctions = doc.matches("<closed_auction>").count() as u64;
    assert!(auctions > 2, "{auctions} closed auctions");
    let input = Scratch::with("join.xml", &doc);
    let query = flux_conformance::catalog_query("AUC-JOIN").query;
    let run = |extra: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_fluxquery"))
            .args([
                "--query",
                query,
                "--dtd",
                AUCTION_DTD,
                "--input",
                input.path(),
            ])
            .args(extra)
            .output()
            .expect("spawn fluxquery")
    };
    let explain = String::from_utf8(run(&["--explain"]).stdout).expect("utf-8 explain");
    assert!(
        explain.contains("for $p in $__flux3/person: keyed on $p/@id, probed by $a/buyer"),
        "{explain}"
    );
    // Printed names and prices buffer as bytes; the compared buyer stays
    // a tree, and explain says why.
    for line in [
        "$s (on site): {people:{person:{@id,name:bytes}}}\n",
        "$a (on closed_auction): {buyer:*,price:bytes}\n  buyer: tree, compared in $a/buyer = $p/@id\n",
    ] {
        assert!(explain.contains(line), "{explain}");
    }
    let reported = run(&["--report", "json"]);
    assert!(reported.status.success(), "{reported:?}");
    assert_eq!(reported.stdout, run(&["--engine", "dom"]).stdout);
    let report = String::from_utf8(reported.stderr).expect("utf-8 report");
    // The first firing scans, the second builds the index and probes it,
    // every later one probes; each buyer names exactly one person.
    let runtime = |name| counter(&report, "\"runtime\"", name);
    assert_eq!(runtime("join_index_builds"), 1, "{report}");
    assert_eq!(runtime("join_probes"), auctions - 1, "{report}");
    assert_eq!(runtime("join_candidates"), auctions - 1, "{report}");
}

#[test]
fn report_counts_one_serialized_node_per_buffered_author() {
    // Under the weak DTD Q3 buffers every author until its book's titles
    // are past; the plan only prints them, so each one seals into one
    // serialized node holding exactly the bytes it is printed as.
    let doc = bib_string(&BibConfig::weak(2_000, 7));
    let authors = doc.matches("<author>").count() as u64;
    assert!(authors > 2_000, "{authors} authors");
    let input = Scratch::with("weak.xml", &doc);
    let explain = fluxquery(PAPER_WEAK_DTD, &["--explain"]);
    let explain = String::from_utf8(explain.stdout).expect("utf-8 explain");
    assert!(
        explain.contains("$b (on book): {author:bytes}"),
        "{explain}"
    );
    for shards in ["1", "2"] {
        let reported = fluxquery(
            PAPER_WEAK_DTD,
            &[
                "--input",
                input.path(),
                "--report",
                "json",
                "--shards",
                shards,
            ],
        );
        assert!(reported.status.success(), "{reported:?}");
        let output = String::from_utf8(reported.stdout).expect("utf-8 output");
        let printed: u64 = output
            .split("<author>")
            .skip(1)
            .map(|rest| {
                ("<author>".len() + rest.find("</author>").unwrap() + "</author>".len()) as u64
            })
            .sum();
        let report = String::from_utf8(reported.stderr).expect("utf-8 report");
        let runtime = |name| counter(&report, "\"runtime\"", name);
        assert_eq!(runtime("serialized_nodes"), authors, "{report}");
        assert_eq!(runtime("serialized_bytes"), printed, "{report}");
    }
}

#[test]
fn report_counts_one_skip_per_subtree_no_frame_reads() {
    // AUC-EXP reads only `closed_auctions`, and of each closed auction
    // only `itemref` and `price`: `people`, `items` and every `buyer` and
    // `date` are skipped in the reader, each once, whole — sequential or
    // sharded (large enough for the streamed dispatcher's 1 MiB chunks).
    let doc = auction_string(&AuctionConfig::target_bytes(3 << 20, 7));
    let auctions = doc.matches("<closed_auction>").count() as u64;
    assert!(auctions > 2, "{auctions} closed auctions");
    // Bytes from after each start tag through its end tag.
    let spans = |name: &str| -> u64 {
        let (open, close) = (format!("<{name}>"), format!("</{name}>"));
        doc.match_indices(&open)
            .map(|(at, _)| {
                let end = at + doc[at..].find(&close).unwrap() + close.len();
                (end - at - open.len()) as u64
            })
            .sum()
    };
    let skipped_bytes: u64 = ["people", "items", "buyer", "date"]
        .iter()
        .map(|name| spans(name))
        .sum();
    let input = Scratch::with("skip.xml", &doc);
    let query = flux_conformance::catalog_query("AUC-EXP").query;
    let run = |extra: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_fluxquery"))
            .args(["--query", query, "--dtd", AUCTION_DTD])
            .args(["--input", input.path()])
            .args(extra)
            .output()
            .expect("spawn fluxquery")
    };
    let reference = run(&["--engine", "dom"]);
    for shards in ["1", "2"] {
        let reported = run(&["--report", "json", "--shards", shards]);
        assert!(reported.status.success(), "{reported:?}");
        assert_eq!(reported.stdout, reference.stdout, "--shards {shards}");
        let report = String::from_utf8(reported.stderr).expect("utf-8 report");
        let runtime = |name| counter(&report, "\"runtime\"", name);
        assert_eq!(runtime("skipped_subtrees"), 2 + 2 * auctions, "{report}");
        assert_eq!(runtime("skipped_bytes"), skipped_bytes, "{report}");
        let stats = |name| counter(&report, "\"run_stats\"", name);
        assert_eq!(stats("skipped_subtrees"), 2 + 2 * auctions, "{report}");
        assert_eq!(stats("skipped_bytes"), skipped_bytes, "{report}");
    }
}

/// The first `"name": <integer>` after `section` in a JSON report.
#[test]
fn report_and_explain_show_the_walk() {
    // Q3 under Figure 1 walks each book: titles and authors are copied
    // from the input, editors, publishers and prices hopped, and a book
    // costs the executor its own two events — sequential or sharded (the
    // shard reader walks event by event, to the same counts).
    let doc = bib_string(&BibConfig::fig1(2_000, 7));
    let books = doc.matches("<book").count() as u64;
    let spans = |name: &str| -> (u64, u64) {
        let (open, close) = (format!("<{name}>"), format!("</{name}>"));
        let found = doc.match_indices(&open).map(|(at, _)| {
            let end = at + doc[at..].find(&close).unwrap() + close.len();
            (end - at) as u64
        });
        found.fold((0, 0), |(n, bytes), len| (n + 1, bytes + len))
    };
    let copied = [spans("title"), spans("author")];
    let skipped = [spans("editor"), spans("publisher"), spans("price")];
    let count = |spans: &[(u64, u64)]| spans.iter().map(|s| s.0).sum::<u64>();
    let bytes = |spans: &[(u64, u64)]| spans.iter().map(|s| s.1).sum::<u64>();
    let input = Scratch::with("walk.xml", &doc);
    let sequential = ["--input", input.path(), "--report", "json"];
    let sharded = [&sequential[..], &["--shards", "2"]].concat();
    for args in [&sequential[..], &sharded] {
        let reported = fluxquery(PAPER_FIG1_DTD, args);
        assert!(reported.status.success(), "{reported:?}");
        let report = String::from_utf8(reported.stderr).expect("utf-8 report");
        if args.len() == sequential.len() {
            // The reader still counts every tag it settles in place.
            let tags = (doc.matches('<').count() - doc.matches("</").count()) as u64;
            assert_eq!(counter(&report, "\"reader\"", "start_tags"), tags);
            assert_eq!(counter(&report, "\"reader\"", "end_tags"), tags);
        }
        let runtime = |name| counter(&report, "\"runtime\"", name);
        assert_eq!(runtime("events"), 2 * books + 4, "{report}");
        assert_eq!(runtime("walks"), books, "{report}");
        assert_eq!(runtime("copied_subtrees"), count(&copied), "{report}");
        assert_eq!(runtime("copied_bytes"), bytes(&copied), "{report}");
        assert_eq!(runtime("skipped_subtrees"), count(&skipped), "{report}");
        // Skips count from after the start tag, as the reader hops them.
        let tags = skipped.iter().zip(["editor", "publisher", "price"]);
        let start_tags: u64 = tags.map(|(s, name)| s.0 * (name.len() as u64 + 2)).sum();
        assert_eq!(
            runtime("skipped_bytes"),
            bytes(&skipped) - start_tags,
            "{report}"
        );
    }
    let explained = fluxquery(PAPER_FIG1_DTD, &["--explain"]);
    let explain = String::from_utf8(explained.stdout).expect("utf-8 explain");
    assert!(
        explain.contains("walk under $b: copy title, author; skip editor, publisher, price"),
        "{explain}"
    );
}

fn counter(report: &str, section: &str, name: &str) -> u64 {
    let body = &report[report.find(section).expect(section) + section.len()..];
    let key = format!("\"{name}\": ");
    let digits = &body[body.find(&key).expect(name) + key.len()..];
    let end = digits.find(|c: char| !c.is_ascii_digit()).expect("value");
    digits[..end].parse().expect("integer counter")
}

#[test]
fn malformed_input_fails_identically_sequential_and_sharded() {
    let doc = document();
    // Break a close tag two thirds in: behind plenty of streamed output
    // and past the first chunk seam.
    let at = doc[doc.len() * 2 / 3..].find("</title>").expect("titles") + doc.len() * 2 / 3;
    let broken = format!("{}</titel>{}", &doc[..at], &doc[at + "</title>".len()..]);
    let input = Scratch::with("broken.xml", &broken);

    let sequential = fluxquery(PAPER_FIG1_DTD, &["--input", input.path()]);
    let sharded = fluxquery(PAPER_FIG1_DTD, &["--input", input.path(), "--shards", "2"]);
    assert_eq!(sequential.status.code(), Some(1), "{sequential:?}");
    assert_eq!(sharded.status.code(), Some(1), "{sharded:?}");
    assert!(
        sequential.stdout.len() > doc.len() / 4,
        "the valid prefix must be streamed before the error"
    );
    assert_eq!(sharded.stdout, sequential.stdout, "streamed prefix");
    let message = String::from_utf8(sequential.stderr).expect("utf-8 error");
    assert!(message.contains("mismatched end tag"), "{message}");
    assert!(message.contains("line 1, column"), "{message}");
    assert_eq!(String::from_utf8(sharded.stderr).unwrap(), message);
}

/// Flags only the flux engine honours fail on a baseline: `--explain`
/// must not print the flux plan for a dom or projection run.
#[test]
fn explain_is_rejected_by_the_baselines() {
    for engine in ["dom", "projection"] {
        let run = fluxquery(PAPER_FIG1_DTD, &["--engine", engine, "--explain"]);
        assert_eq!(run.status.code(), Some(1), "{engine}: {run:?}");
        assert!(run.stdout.is_empty(), "{engine}: printed a plan");
        let stderr = String::from_utf8(run.stderr).expect("utf-8 error");
        assert!(
            stderr.contains("--explain is only supported by the flux engine"),
            "{engine}: {stderr}"
        );
    }
}

#[test]
fn no_optimizer_is_rejected_by_the_baselines() {
    for engine in ["dom", "projection"] {
        let run = fluxquery(PAPER_FIG1_DTD, &["--engine", engine, "--no-optimizer"]);
        assert_eq!(run.status.code(), Some(1), "{engine}: {run:?}");
        let stderr = String::from_utf8(run.stderr).expect("utf-8 error");
        assert!(
            stderr.contains("--no-optimizer is only supported by the flux engine"),
            "{engine}: {stderr}"
        );
    }
}

#[test]
fn oversized_byte_counts_are_usage_errors_not_panics() {
    for flag in ["--window", "--memory-budget"] {
        let overflowing = fluxquery(PAPER_FIG1_DTD, &[flag, "99999999999g"]);
        assert_eq!(
            overflowing.status.code(),
            Some(2),
            "{flag}: {overflowing:?}"
        );
        let stderr = String::from_utf8(overflowing.stderr).expect("utf-8 usage");
        assert!(stderr.contains(&format!("{flag} expects")), "{stderr}");
        assert!(stderr.contains("usage: fluxquery"), "{stderr}");
    }
    // In range for a u64 but past the window ceiling.
    let too_large = fluxquery(PAPER_FIG1_DTD, &["--window", "2g"]);
    assert_eq!(too_large.status.code(), Some(2), "{too_large:?}");
    // The ceiling itself is accepted (and only allocated once a run starts).
    let explain = fluxquery(PAPER_FIG1_DTD, &["--window", "1g", "--explain"]);
    assert!(explain.status.success(), "{explain:?}");
}
