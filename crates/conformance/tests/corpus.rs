//! Malformed-corpus conformance: every corpus entry replays through the
//! sequential reader and the sharded reader at shard counts {1, 2, 8},
//! and the terminal error is **byte-exact** — the
//! same rendered message and the same offset/line/column — in every
//! configuration. The expected-error manifest pins each entry's kind and
//! message fragment so the corpus can't rot into "fails somehow".

use flux_conformance::{assert_stream_equivalent, corpus};

#[test]
fn corpus_errors_byte_exact_across_all_configurations() {
    let entries = corpus();
    assert!(entries.len() >= 20, "corpus shrank to {}", entries.len());
    for entry in &entries {
        let outcome = assert_stream_equivalent(entry.id, &entry.bytes);
        let (message, position) = outcome
            .error
            .as_ref()
            .unwrap_or_else(|| panic!("{}: corpus entry parsed cleanly", entry.id));
        // assert_stream_equivalent already proved every sharded
        // configuration reproduces this exact message and position.
        assert!(
            position.is_some(),
            "{}: error carries no position: {message}",
            entry.id
        );
    }
}

#[test]
fn corpus_matches_manifest() {
    use flux_xml::{ReaderConfig, XmlReader};
    for entry in corpus() {
        let mut reader = XmlReader::with_config(&entry.bytes[..], ReaderConfig::default());
        let err = loop {
            match reader.advance() {
                Ok(true) => {}
                Ok(false) => panic!("{}: parsed cleanly", entry.id),
                Err(e) => break e,
            }
        };
        entry.check_error(&err);
    }
}

#[test]
fn seam_entries_exercise_real_shard_boundaries() {
    // The seam-straddling entries exist to put the malformation across a
    // shard boundary at realistic shard sizes. They must stay large
    // enough that an 8-way split with the default 16 KiB minimum still
    // produces more than one shard.
    let seams: Vec<_> = corpus()
        .into_iter()
        .filter(|e| e.id.starts_with("seam-"))
        .collect();
    assert!(seams.len() >= 5, "only {} seam entries", seams.len());
    for entry in seams {
        assert!(
            entry.bytes.len() > 2 * 16 * 1024,
            "{}: {} bytes is too small to split at default shard sizes",
            entry.id,
            entry.bytes.len()
        );
    }
}
