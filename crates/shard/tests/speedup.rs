//! Sharding must actually be faster on real parallel hardware.
//!
//! The development containers have exposed one or two cores, so the
//! sharded path's speedup is easily left unexercised outside of
//! correctness tests. This test runs wherever the
//! host grants ≥ 2 units of parallelism (the CI multi-core job does) and
//! asserts that 2-shard pipelined wall time beats 1-shard wall time on a
//! document large enough for parsing to dominate. On a 1-core host it
//! skips with a notice instead of flaking.

use flux_shard::{ShardConfig, ShardedReader};
use flux_xmlgen::{bib_string, BibConfig};
use std::time::{Duration, Instant};

/// Best-of-`runs` wall time to fully consume the document at the given
/// shard count, streamed from memory (input buffer cloned outside the
/// timed region). The 64 KiB chunks give every worker a run of chunks, each
/// small enough to parse without waiting for replay to drain its segment
/// queue, so the workers really parse side by side.
fn best_consume_time(bytes: &[u8], shards: usize, runs: usize) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..runs {
        let mut config = ShardConfig::new(shards);
        config.chunk_bytes = 64 * 1024;
        let src = std::io::Cursor::new(bytes.to_vec());
        let mut reader = ShardedReader::from_stream(src, config, flux_xml::SymbolTable::new());
        let start = Instant::now();
        let mut events = 0u64;
        while reader.advance().expect("well-formed input") {
            events += 1;
        }
        assert!(events > 0);
        best = best.min(start.elapsed());
    }
    best
}

#[test]
fn two_shards_beat_one_on_multicore() {
    if cfg!(debug_assertions) {
        // A wall-clock race is only meaningful on optimized builds; in the
        // plain `cargo test` job the debug-build overhead plus shared-
        // runner noise would make this a flake vector. The CI
        // `shard-multicore` job runs the suite with `--release`.
        eprintln!("skipping: wall-clock speedup is asserted on release builds only");
        return;
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 2 {
        eprintln!("skipping: host exposes {cores} core(s); sharding speedup needs >= 2");
        return;
    }
    // ~4.7 MB of bibliography: tens of milliseconds of parse work per run,
    // enough for the parallel win to dwarf scheduler noise.
    let doc = bib_string(&BibConfig::weak(32_000, 7));
    assert!(doc.len() > 4 << 20, "document too small: {}", doc.len());
    let bytes = doc.into_bytes();
    // Warm up both paths (page cache, thread spawn, lazy init).
    let _ = best_consume_time(&bytes, 1, 1);
    let _ = best_consume_time(&bytes, 2, 1);
    let one = best_consume_time(&bytes, 1, 5);
    let two = best_consume_time(&bytes, 2, 5);
    eprintln!("1 shard: {one:?}, 2 shards: {two:?} ({cores} cores)");
    assert!(
        two < one,
        "2 shards ({two:?}) must beat 1 shard ({one:?}) on a {cores}-core host"
    );
}
