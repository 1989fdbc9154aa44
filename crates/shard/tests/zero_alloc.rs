//! Steady-state allocation discipline of the sharded replay path.
//!
//! The sharded reader's replay is a zero-copy walk over pre-recorded
//! tapes, so the consumer thread must not allocate per replayed event:
//! growing the document eightfold must not change the replay's allocation
//! count. Replay is pipelined — workers are still parsing (and
//! allocating) while the consumer replays — so the counting allocator
//! keeps its count in a `thread_local!` and the test reads only the
//! consumer thread's: worker-thread allocations cannot leak into the
//! measured window, and neither can the test harness's own threads.
//!
//! The instrumentation is part of the loop under proof: shard lane
//! counters travel inside the (already-allocated) `ShardTape`, the
//! pipeline's lane vector and event journal are preallocated in
//! `start_workers` — before this test's measured window opens — and span
//! reads are `Instant` arithmetic.

// The counting allocator is the one place the crate needs `unsafe`: it
// wraps `System` one-to-one and adds a thread-local increment.
#![allow(unsafe_code)]

use flux_shard::{ShardConfig, ShardedReader};
use flux_xml::SymbolTable;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by the current thread. Const-initialised and
    /// destructor-free, so touching it from inside the allocator neither
    /// allocates nor runs during thread teardown.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with`: a thread that allocates while its TLS is being torn
    // down is simply not counted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn document(books: usize) -> String {
    let mut doc = String::from("<bib>");
    for _ in 0..books {
        doc.push_str(
            "<book year=\"1994\" lang=\"en\"><title>TCP/IP &amp; co <![CDATA[raw <bits>]]></title>\
             <author>Stevens</author><price>65</price></book>",
        );
    }
    doc.push_str("</bib>");
    doc
}

/// Replays `doc` over `shards` shards and returns the number of
/// allocations the consumer thread performed *after* the launch (input
/// split, workers spawned, shard 0 parsed inline, the first content event
/// replayed).
fn replay_allocations(doc: &str, shards: usize) -> usize {
    let mut config = ShardConfig::new(shards);
    config.min_shard_bytes = 1;
    let mut reader = ShardedReader::new(doc.as_bytes().to_vec(), config, SymbolTable::new());
    // StartDocument launches the pipeline: the split, the worker spawns
    // and the inline parse of shard 0 all allocate on this thread, here.
    assert!(reader.advance().expect("start document"));
    assert!(reader.advance().expect("first content event"));
    assert_eq!(reader.shard_count(), shards, "document too small to shard");
    let before = allocations();
    let mut touched = 0usize;
    while reader.advance().expect("well-formed input") {
        let v = reader.view();
        touched += v.text().len();
        for attr in v.attrs() {
            touched += attr.value.len();
        }
    }
    assert!(touched > 0, "replay must visit payloads");
    allocations() - before
}

#[test]
fn sharded_replay_is_allocation_free_per_event() {
    let small = document(64);
    let large = document(512);
    // Warm-up for lazy runtime initialisation.
    let _ = replay_allocations(&small, 2);
    let small_allocs = (0..5).map(|_| replay_allocations(&small, 2)).min().unwrap();
    let large_allocs = (0..5).map(|_| replay_allocations(&large, 2)).min().unwrap();
    // 448 extra books × ~60 events each: one allocation per replayed event
    // would add tens of thousands. The slack absorbs the per-shard
    // transition costs (remap vector, parked-tape map, channel
    // bookkeeping), which do not depend on the document size.
    assert!(
        large_allocs <= small_allocs + 16,
        "replay allocations must not scale with event count: \
         64 books -> {small_allocs} allocs, 512 books -> {large_allocs} allocs"
    );
}
