//! Integration tests of the `fluxquery` binary: the one CLI run path must
//! give the same bytes whatever the engine, the parallelism or the sink,
//! keep stdout a pure result stream, and turn every bad input into the
//! documented exit code instead of a panic.

use flux_xmlgen::{bib_string, BibConfig};
use fluxquery::PAPER_FIG1_DTD;
use std::path::PathBuf;
use std::process::{Command, Output};

const Q3: &str = r#"<results>{ for $b in $ROOT/bib/book return <result>{$b/title}{$b/author}</result> }</results>"#;

const FIG1_XSD: &str = r#"<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="bib">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="book" minOccurs="0" maxOccurs="unbounded">
          <xs:complexType>
            <xs:sequence>
              <xs:element name="title" type="xs:string"/>
              <xs:choice>
                <xs:element name="author" type="xs:string" maxOccurs="unbounded"/>
                <xs:element name="editor" type="xs:string" maxOccurs="unbounded"/>
              </xs:choice>
              <xs:element name="publisher" type="xs:string"/>
              <xs:element name="price" type="xs:string"/>
            </xs:sequence>
          </xs:complexType>
        </xs:element>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
</xs:schema>"#;

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
fn xsd_schema_is_detected_by_the_one_compile_path() {
    let input = Scratch::with("xsd.xml", &document());
    let from_dtd = fluxquery(PAPER_FIG1_DTD, &["--input", input.path()]);
    for lane in [&[][..], &["--engine", "dom"], &["--explain"]] {
        let from_xsd = fluxquery(FIG1_XSD, &[&["--input", input.path()], lane].concat());
        assert!(from_xsd.status.success(), "{lane:?}: {from_xsd:?}");
        if lane != ["--explain"] {
            assert_eq!(from_xsd.stdout, from_dtd.stdout, "{lane:?}");
        }
    }
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
        assert_eq!(
            sum("\"reader\"", "fast_start_tags", "slow_start_tags"),
            starts
        );
        // The generator writes no `<e/>`: every element has an end tag.
        assert_eq!(sum("\"reader\"", "fast_end_tags", "slow_end_tags"), starts);
        assert_eq!(sum("\"xsax\"", "sax_events", "fires"), events, "{report}");
    }
    let sax_events = |report| counter(report, "\"xsax\"", "sax_events");
    assert_eq!(sax_events(&stderr), sax_events(&sharded));
}

/// The first `"name": <integer>` after `section` in a JSON report.
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
