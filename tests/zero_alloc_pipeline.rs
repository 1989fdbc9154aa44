//! Proof of the zero-allocation steady state for the **composed** loop:
//! reader → XSAX → executor → writer, entered the way an embedder enters
//! it (`FluxEngine::run_input`, sequential). The per-layer proofs
//! (`crates/{xml,shard,runtime,xquery}/tests/zero_alloc.rs`) cover the
//! reader, the tape, `BufferArena` and the cursor evaluator one at a time;
//! this one covers what they leave out — XSAX's per-element trackers and
//! fire queue, and the executor's per-element frames.
//!
//! A run allocates while it sets up (reader, parser tables, arena, pools
//! growing to the document's depth and widest record), so the absolute
//! count is not zero. The claim is that it does not depend on how many
//! events follow: the same query over N records and over 8 N records of
//! the same shapes must make **exactly the same number of allocations**.
//! Any per-event or per-element heap cost shows up multiplied by 7 N.
//!
//! Three plans, one per buffering regime: Q3 under the Figure-1 DTD
//! (nothing buffered, everything streamed), Q3 under the weak DTD (authors
//! pass through the buffer store as print-only serialized bytes — the
//! test checks the plan really chose bytes), and AUC-EXP over an auction
//! site (most of the document is read by no frame at all, so the reader
//! skips it — the test checks how many subtrees each run skipped).
//!
//! This file holds exactly one test so no concurrent test in the same
//! binary can perturb the allocation counter.

// The counting allocator is the one place the test needs `unsafe`: it
// wraps `System` one-to-one and adds a relaxed atomic increment.
#![allow(unsafe_code)]

use flux_dtd::{PAPER_FIG1_DTD, PAPER_WEAK_DTD};
use flux_xmlgen::AUCTION_DTD;
use fluxquery::{FluxEngine, Input, Options};
use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::io::{self, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

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
        // A growth counts as an allocation: a buffer that regrows per
        // record would be a real per-record heap cost.
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

const Q3: &str = r#"<results>{ for $b in $ROOT/bib/book return <result>{$b/title}{$b/author}</result> }</results>"#;
const AUC_EXP: &str = r#"<expensive>{ for $s in $ROOT/site return for $a in $s/closed_auctions/closed_auction where $a/price > 400 return <hit>{$a/itemref}{$a/price}</hit> }</expensive>"#;

/// Records cycle through a handful of fixed shapes, so a longer document
/// has more records but no deeper nesting and no wider record than a
/// shorter one. Shapes differ in how many children a record has and in
/// what the payloads say, not in how long a payload is: a text run that
/// straddles a scanner refill takes the reader's copying path, whose
/// scratch grows to the longest run *that has straddled so far* — with
/// one length per field the first straddle is also the last growth,
/// instead of a longer run straddling for the first time somewhere in the
/// larger document's tail.
const CYCLE: usize = 5;
const N: usize = 2_000;

/// Author lists of the five book shapes (the widest has three), every
/// name 16 bytes.
const AUTHORS: [&[&str]; CYCLE] = [
    &["Stevens, Richard"],
    &["Abiteboul, Serge", "Buneman, Peter J", "Suciu, Dan Mihai"],
    &["Knuth, Donald E."],
    &["Koch, Christoph.", "Scherzinger, St."],
    &["Gray &amp; Reuter"],
];

/// A bibliography valid under the Figure-1 DTD (title, authors, publisher,
/// price in order).
fn fig1_bib(books: usize) -> String {
    let mut doc = String::from("<bib>\n");
    for i in 0..books {
        let shape = i % CYCLE;
        write!(doc, "<book><title>Title of book shape {shape}</title>").unwrap();
        for author in AUTHORS[shape] {
            write!(doc, "<author>{author}</author>").unwrap();
        }
        doc.push_str("<publisher>Addison-Wesley</publisher><price>65.95</price></book>\n");
    }
    doc.push_str("</bib>");
    doc
}

/// The same books for the weak DTD `book (title|author)*`, with the first
/// author ahead of the title so Q3 has to buffer.
fn weak_bib(books: usize) -> String {
    let mut doc = String::from("<bib>\n");
    for i in 0..books {
        let shape = i % CYCLE;
        let (first, rest) = AUTHORS[shape].split_first().unwrap();
        write!(
            doc,
            "<book><author>{first}</author><title>Title of book shape {shape}</title>"
        )
        .unwrap();
        for author in rest {
            write!(doc, "<author>{author}</author>").unwrap();
        }
        doc.push_str("</book>\n");
    }
    doc.push_str("</bib>");
    doc
}

/// An auction site with `n` people, items and closed auctions; prices
/// cycle on both sides of AUC-EXP's 400 threshold. Where `items` and
/// `closed_auctions` start depends on `n`, so which of their tokens
/// straddles a refill first does too; the people — the same first `N` in
/// both documents — therefore carry the longest payload of every kind
/// (text, attribute value), and the reader's buffers are at their final
/// size before the later sections begin.
fn auction(n: usize) -> String {
    let mut doc = String::from("<site>\n<people>\n");
    for i in 0..n {
        let shape = i % CYCLE;
        writeln!(
            doc,
            "<person id=\"person{shape}\"><name>Person of shape {shape}</name>\
             <emailaddress>mailto:person.of.shape.{shape}@mail.example.org</emailaddress>\
             <country>Austria</country></person>"
        )
        .unwrap();
    }
    doc.push_str("</people>\n<items>\n");
    for i in 0..n {
        let shape = i % CYCLE;
        writeln!(
            doc,
            "<item id=\"item{shape}\"><itemname>Item of shape {shape}</itemname>\
             <description>lorem ipsum {shape} dolor sit amet</description>\
             <quantity>{shape}</quantity></item>"
        )
        .unwrap();
    }
    doc.push_str("</items>\n<closed_auctions>\n");
    for i in 0..n {
        let shape = i % CYCLE;
        writeln!(
            doc,
            "<closed_auction><buyer>person{shape}</buyer><itemref>item{shape}</itemref>\
             <price>{:03}.50</price><date>2004-08-3{shape}</date></closed_auction>",
            150 * shape
        )
        .unwrap();
    }
    doc.push_str("</closed_auctions>\n</site>");
    doc
}

/// A sink that only counts, so the proof covers the writer but no output
/// buffer's growth.
#[derive(Default)]
struct CountingSink {
    bytes: u64,
}

impl Write for CountingSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.bytes += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Allocations of one sequential `run_input` over `doc`, and the run's
/// event and skipped-subtree counts. Minimum over several runs: the global counter also sees
/// the test harness's own threads, so a single run can pick up a stray
/// allocation or two; a real per-event cost repeats in every run.
fn allocations_of_run(engine: &FluxEngine, doc: &Arc<Vec<u8>>) -> (usize, u64, u64) {
    let (mut events, mut skipped) = (0, 0);
    let allocations = (0..3)
        .map(|_| {
            let mut sink = CountingSink::default();
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            let stats = engine
                .run_input(Input::from_shared_bytes(Arc::clone(doc)), &mut sink)
                .expect("valid document");
            let after = ALLOCATIONS.load(Ordering::Relaxed);
            assert!(sink.bytes > 0, "the run produced output");
            (events, skipped) = (stats.events, stats.skipped_subtrees);
            after - before
        })
        .min()
        .unwrap();
    (allocations, events, skipped)
}

#[test]
fn pipeline_allocations_do_not_grow_with_the_document() {
    type Generator = fn(usize) -> String;
    // Each case names the buffer representations its plan must choose and
    // how many subtrees per record it skips in the reader, so the proof
    // cannot silently cover a different path than it claims.
    let cases: [(&str, &str, &str, Generator, &str, u64); 3] = [
        (
            "Q3 x Figure-1 DTD",
            Q3,
            PAPER_FIG1_DTD,
            fig1_bib,
            "$ROOT: {}\n\n",
            // publisher and price
            2,
        ),
        (
            "Q3 x weak DTD",
            Q3,
            PAPER_WEAK_DTD,
            weak_bib,
            "$b (on book): {author:bytes}\n",
            0,
        ),
        (
            "AUC-EXP x auction DTD",
            AUC_EXP,
            AUCTION_DTD,
            auction,
            "$a (on closed_auction): {itemref:bytes,price:*}\n",
            // buyer and date; people and items once per document
            2,
        ),
    ];
    for (name, query, dtd, generate, bdf, skips_per_record) in cases {
        // Compile once: plan compilation is set-up, not the loop.
        let engine = FluxEngine::compile(query, dtd, &Options::new()).expect("query compiles");
        let explain = engine.explain();
        assert!(
            explain.contains(bdf),
            "{name}: expected {bdf:?} in\n{explain}"
        );
        let small = Arc::new(generate(N).into_bytes());
        let large = Arc::new(generate(8 * N).into_bytes());
        let (small_allocs, small_events, small_skips) = allocations_of_run(&engine, &small);
        let (large_allocs, large_events, large_skips) = allocations_of_run(&engine, &large);
        assert_eq!(
            large_skips - small_skips,
            7 * N as u64 * skips_per_record,
            "{name}: subtrees skipped in the reader"
        );
        if name.starts_with("AUC-EXP") {
            assert_eq!(
                small_skips,
                2 + 2 * N as u64,
                "{name}: people, items, buyers, dates"
            );
        }
        assert!(
            large_events > 7 * small_events,
            "{name}: the larger document must deliver ~8x the events \
             ({small_events} -> {large_events})"
        );
        assert_eq!(
            small_allocs,
            large_allocs,
            "{name}: allocations must not depend on document length: \
             {small_allocs} over {small_events} events vs {large_allocs} over \
             {large_events} events ({:.3} per extra event)",
            (large_allocs as f64 - small_allocs as f64) / (large_events - small_events) as f64
        );
    }
}
