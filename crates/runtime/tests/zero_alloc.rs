//! Proof of the buffer store's zero-allocation contract: once names are
//! interned and the spare pools warmed, the scoped buffer-and-free loop —
//! the runtime's steady state on the paper's running example, one book's
//! buffered children at a time — performs **no heap allocations at all**.
//!
//! Buffering an element never materialises a name string (names import as
//! integers through the arena document's seeded table, `Document::
//! import_name`); attribute values and text land in recycled `String`s and
//! the freed slots' children vectors keep their capacity. The test
//! instruments the global allocator: after a warm-up scope, repeating the
//! identical scope shape hundreds of times must add exactly zero
//! allocations.
//!
//! This file holds exactly one test so no concurrent test in the same
//! binary can perturb the allocation counter.
//!
//! The instrumentation is part of the loop under proof: the tracker's
//! traffic counters are `u64` adds and the buffer-residency sampler
//! decimates into a fixed inline array (`RESIDENCY_SLOTS` pairs, no heap).

// The counting allocator is the one place the test needs `unsafe`: it
// wraps `System` one-to-one and adds a relaxed atomic increment.
#![allow(unsafe_code)]

use flux_runtime::BufferArena;
use flux_xml::{RawEvent, RawEventKind, RawEventRef, SymbolTable};
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
        // regrow per scope would be a real per-scope heap cost.
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Buffers one "book" scope — an attributed shell, two children, merged
/// text — from recycled stream events, then frees it. This is the shape
/// the streamed evaluator drives per `on`-handler instance.
fn buffer_one_scope(
    arena: &mut BufferArena,
    symbols: &SymbolTable,
    book: &RawEvent,
    author: &RawEvent,
) {
    let shell = arena.create_element_view(symbols, &RawEventRef::from_event(book));
    let a1 = arena.append_element_view(shell, symbols, &RawEventRef::from_event(author));
    arena.append_text(a1, "Stevens, W. Richard");
    arena.append_text(a1, " and Wright, Gary R.");
    let a2 = arena.append_element_view(shell, symbols, &RawEventRef::from_event(author));
    arena.append_text(a2, "Abiteboul, Serge");
    arena.free_scope(shell);
}

#[test]
fn steady_state_buffering_is_allocation_free() {
    let mut symbols = SymbolTable::new();
    let book_sym = symbols.intern("book");
    let author_sym = symbols.intern("author");
    let year = symbols.intern("year");
    let lang = symbols.intern("lang");

    // Recycled events, as the reader would hand them out.
    let mut book = RawEvent::new();
    book.reset(RawEventKind::StartElement);
    book.set_name(book_sym);
    book.push_attr(year).push_str("1994");
    book.push_attr(lang).push_str("en");
    let mut author = RawEvent::new();
    author.reset(RawEventKind::StartElement);
    author.set_name(author_sym);

    // The arena seeds its document table from the stream's: every name in
    // the loop below imports as an integer copy.
    let mut arena = BufferArena::with_symbols(symbols.clone());

    // Warm-up: first sight of each slot, pool buffer and children vector
    // (a few rounds, so every recycled vector reaches its final capacity).
    for _ in 0..8 {
        buffer_one_scope(&mut arena, &symbols, &book, &author);
    }

    // Minimum over several measured windows: the global counter also sees
    // the test harness's own threads, so a single window can pick up a
    // stray allocation or two. A real per-scope cost repeats in every
    // window; the minimum is the clean figure.
    let allocations = (0..5)
        .map(|_| {
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            for _ in 0..500 {
                buffer_one_scope(&mut arena, &symbols, &book, &author);
            }
            ALLOCATIONS.load(Ordering::Relaxed) - before
        })
        .min()
        .unwrap();
    assert_eq!(
        allocations, 0,
        "steady-state buffer-and-free must not allocate (names are symbols, \
         payload buffers and slots recycle); got {allocations} allocations \
         over 500 scopes"
    );

    // Sanity: the loop really buffered content and the accounting closed
    // to zero. The payloads here repeat only across freed scopes — never
    // two live copies at once — so the shared-text gate (whose sighting
    // counts reset every `free_scope` generation) correctly keeps them
    // out of the resident dictionary.
    assert_eq!(arena.current_bytes(), 0);
    assert_eq!(arena.doc().shared_text_bytes(), 0);
    assert!(arena.peak_bytes() > 0);
    // The residency sampler ran inside the allocation-free window above —
    // its decimation must still have preserved the exact peak.
    assert_eq!(
        arena.tracker().residency().max_high_water(),
        arena.peak_bytes() as u64,
        "residency decimation lost the high-water mark"
    );
    assert!(
        arena.doc().node_count() < 16,
        "slots must recycle: {} nodes",
        arena.doc().node_count()
    );
}
