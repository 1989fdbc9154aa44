//! Proof of the zero-allocation event-loop contract: in the steady state
//! (every name interned once, recycled buffers grown to the largest token),
//! `XmlReader::advance`/`view` performs no heap allocations per event — and
//! replaying a recorded `EventTape` through borrowed views (the sharded
//! replay path) performs **zero** allocations, full stop.
//!
//! The test instruments the global allocator and compares the total
//! allocation count for parsing N repeated records against 8N records with
//! identical per-record content. All allocations on the interned path
//! happen during warm-up (reader construction, first sight of each name,
//! first growth of each buffer), so the counts must be *equal* — any
//! per-event allocation would scale with the record count and fail loudly.
//! Tape replay is held to the stricter bar: viewing an event is span
//! arithmetic into the tape arena, so the whole replay loop must perform
//! literally no allocations.
//!
//! This file holds exactly one test so no concurrent test in the same
//! binary can perturb the allocation counter.
//!
//! The instrumentation is part of the loop under proof: the
//! scanner/reader counters are plain `u64` adds on stack-resident structs.

// The counting allocator is the one place the crate needs `unsafe`: it
// wraps `System` one-to-one and adds a relaxed atomic increment.
#![allow(unsafe_code)]

use flux_xml::{EventTape, RawEventKind, SymbolRemap, XmlReader};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growth counts as an allocation: a recycled buffer that has to
        // regrow per event would be a real per-event heap cost.
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// A document of `books` identical records exercising element names,
/// attributes, text with entities, and CDATA.
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

/// Parses `doc` on the interned hot path, returning the number of heap
/// allocations the whole parse performed (including reader construction).
fn allocations_for(doc: &str) -> usize {
    let mut reader = XmlReader::new(doc.as_bytes());
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut touched = 0usize;
    while reader.advance().expect("well-formed input") {
        touched += reader.view().text().len();
    }
    assert!(touched > 0, "the loop must visit payloads");
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// Minimum allocation count over several parses: the global counter also
/// sees the test harness's own threads, so single runs can pick up a few
/// stray allocations; the minimum is the clean figure.
fn min_allocations_for(doc: &str) -> usize {
    (0..5).map(|_| allocations_for(doc)).min().unwrap()
}

#[test]
fn steady_state_event_loop_is_allocation_free() {
    let small = document(64);
    let large = document(512);
    // Warm up once so lazy runtime initialisation doesn't skew the counts.
    let _ = allocations_for(&small);
    let small_allocs = min_allocations_for(&small);
    let large_allocs = min_allocations_for(&large);
    // 448 extra books × ~60 events each: a single allocation per event (or
    // per element, or per attribute) would add tens of thousands here. The
    // slack of 4 only absorbs allocator-counter noise from other threads.
    assert!(
        large_allocs <= small_allocs + 4,
        "allocation count must not scale with event count: \
         64 books -> {small_allocs} allocs, 512 books -> {large_allocs} allocs"
    );
    // Sanity bound: the warm-up itself (scanner buffer, symbol table, first
    // growth of each recycled buffer) stays schema-sized.
    assert!(
        small_allocs < 100,
        "warm-up allocations unexpectedly large: {small_allocs}"
    );

    // --- Tape replay (the sharded replay core) is allocation-free. ---
    // Record once (allocates: arena growth, event vector), then replay
    // through borrowed views and touch every payload: the replay loop must
    // not allocate at all. Minimum over several runs filters allocator
    // noise from harness threads, like above.
    let mut reader = XmlReader::new(large.as_bytes());
    let mut tape = EventTape::new();
    while reader.advance().expect("well-formed input") {
        tape.push(&reader.view(), reader.event_start(), reader.position());
    }
    let replay_allocs = (0..5)
        .map(|_| {
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            let mut touched = 0usize;
            for i in 0..tape.len() {
                let v = tape.view(i, SymbolRemap::identity());
                touched += v.text().len() + v.target().len();
                if v.kind() == RawEventKind::StartElement {
                    for attr in v.attrs() {
                        touched += attr.value.len();
                    }
                }
            }
            assert!(touched > 0, "replay must visit payloads");
            ALLOCATIONS.load(Ordering::Relaxed) - before
        })
        .min()
        .unwrap();
    assert_eq!(
        replay_allocs, 0,
        "tape replay must be allocation-free per event"
    );
}
