//! Merge-at-join correctness for the shard pipeline telemetry: per-lane
//! counters harvested from worker threads must fold into pipeline totals
//! that agree with the delivered event stream, at several shard counts.

use flux_shard::{ShardConfig, ShardedReader};
use flux_telemetry::{RunReport, ShardLane};
use flux_xml::{RawEventKind, SymbolTable};

/// A document big enough to shard at a chunk target of a shard's share.
fn document() -> String {
    let mut doc = String::from("<bib>");
    for i in 0..200 {
        doc.push_str(&format!(
            "<book year=\"19{:02}\"><title>Title &amp; no. {i}</title></book>",
            i % 100
        ));
    }
    doc.push_str("</bib>");
    doc
}

/// Drains the reader; returns the number of tape events delivered
/// (excluding the synthesised document brackets).
fn drain(reader: &mut ShardedReader) -> u64 {
    let mut tape_events = 0;
    while reader.advance().expect("valid document") {
        if !matches!(
            reader.kind(),
            RawEventKind::StartDocument | RawEventKind::EndDocument
        ) {
            tape_events += 1;
        }
    }
    tape_events
}

fn run(shards: usize) -> (ShardedReader, u64) {
    let doc = document();
    let mut config = ShardConfig::new(shards);
    config.chunk_bytes = (doc.len() / shards).max(1);
    let src = std::io::Cursor::new(doc.into_bytes());
    let mut reader = ShardedReader::from_stream(src, config, SymbolTable::new());
    let delivered = drain(&mut reader);
    (reader, delivered)
}

#[test]
fn lane_counters_merge_to_stream_totals() {
    for shards in [1, 2, 8] {
        let (reader, delivered) = run(shards);
        assert_eq!(
            reader.lanes().len(),
            reader.shard_count(),
            "one lane per shard ({shards} requested)"
        );
        let mut totals = ShardLane::default();
        for lane in reader.lanes() {
            totals.merge(lane);
        }
        // Prolog/epilog whitespace events can be recorded on tapes yet
        // skipped at replay, so the tape total bounds the delivered count.
        assert!(
            totals.events >= delivered,
            "lane events {} must cover the {} delivered ({shards} shards)",
            totals.events,
            delivered
        );
        assert!(totals.tape_bytes > 0, "tapes hold payload bytes");
        assert!(totals.parse_ns > 0, "parse spans are measured");
        assert!(totals.replay_ns > 0, "replay spans are measured");
    }
}

#[test]
fn per_shard_events_are_disjoint_partitions() {
    // The same document parsed at 1 and 8 shards must tape the same
    // number of events — sharding partitions the work, never duplicates
    // or drops it.
    let (one, _) = run(1);
    let (eight, _) = run(8);
    let sum = |r: &ShardedReader| r.lanes().iter().map(|l| l.events).sum::<u64>();
    assert_eq!(sum(&one), sum(&eight));
    assert!(eight.shard_count() > 1, "document must actually shard");
}

#[test]
fn reader_counters_survive_the_thread_join() {
    let (reader, _) = run(8);
    let tags = reader.reader_telemetry();
    // 1 root + 200 books + 200 titles.
    assert_eq!(tags.start_tags, 401, "every start tag counted exactly once");
    assert_eq!(tags.end_tags, 401, "every end tag counted exactly once");
    assert!(
        tags.entity_unescapes >= 200,
        "each title carries an &amp; reference"
    );
    let scan = reader.scan_telemetry();
    assert!(
        scan.prescan_bytes as usize >= document().len(),
        "every input byte prescanned (counting per-shard overlap)"
    );
}

#[test]
fn report_carries_the_shard_timeline() {
    let (reader, _) = run(2);
    let mut report = RunReport::default();
    reader.report_into(&mut report);
    let pipeline = report.find("shard_pipeline").expect("pipeline stage");
    assert_eq!(
        pipeline.counter_value("shards"),
        Some(reader.shard_count() as u64)
    );
    assert_eq!(pipeline.children.len(), reader.shard_count());
    for (i, child) in pipeline.children.iter().enumerate() {
        assert_eq!(child.name, format!("shard_{i}"));
        assert!(child.span_value("parse_ns").unwrap_or(0) > 0);
        assert!(child.span_value("replay_ns").unwrap_or(0) > 0);
    }
    assert!(report.find("scanner").is_some());
    assert!(report.find("reader").is_some());
}
