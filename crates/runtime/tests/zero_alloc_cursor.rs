//! Proof of the cursor evaluator's zero-allocation contract: once a query
//! is compiled (symbols resolved, slots numbered) and the evaluator's
//! pools are warm, repeatedly evaluating the compiled expression over a
//! buffered document — path cursors, a predicate, an attribute template
//! and element construction — performs **no heap allocations at all**.
//!
//! This is the steady state of the runtime's `on`-handler bodies: the
//! descent stacks, per-step symbol vectors, atomization scratch and
//! attribute buffers all recycle through the evaluator's pools, and the
//! [`CountingSink`] consumes the constructed output without writing.
//!
//! The keyed-loop probe loop is held to the same contract: once its index
//! is built, a probe allocates nothing, so N and 8 N probes allocate
//! identically.
//!
//! The tests take one lock, so neither perturbs the other's counter.

// The counting allocator is the one place the test needs `unsafe`: it
// wraps `System` one-to-one and adds a relaxed atomic increment.
#![allow(unsafe_code)]

use flux_runtime::{BufferArena, SpecNode};
use flux_xml::tree::NodeId;
use flux_xml::{RawEvent, RawEventKind, RawEventRef, SymbolTable};
use flux_xquery::{
    compile_expr, normalize, parse_query, CountingSink, CursorEvaluator, SlotMap, ROOT_VAR,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static SERIAL: Mutex<()> = Mutex::new(());

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
        // A growth counts as an allocation: a pooled buffer that has to
        // regrow per evaluation would be a real per-eval heap cost.
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

#[test]
fn steady_state_cursor_evaluation_is_allocation_free() {
    let _serial = SERIAL.lock().expect("no test panics holding the lock");
    // A buffered "bib" with two books — the shape an `on-first` handler
    // holds when its body runs.
    let mut arena = BufferArena::with_symbols(SymbolTable::new());
    let bib = element(&mut arena, None, "bib", &[]);
    for (title, author, price) in [
        ("TCP/IP Illustrated", "Stevens, W. Richard", "65.95"),
        ("Data on the Web", "Abiteboul, Serge", "39.95"),
    ] {
        let book = element(&mut arena, Some(bib), "book", &[]);
        let t = element(&mut arena, Some(book), "title", &[]);
        arena.append_text(t, title);
        let a = element(&mut arena, Some(book), "author", &[]);
        arena.append_text(a, author);
        let p = element(&mut arena, Some(book), "price", &[]);
        arena.append_text(p, price);
    }

    // Compile once against the document's table: every step matches by
    // integer symbol, the attribute template and predicate exercise the
    // atomization scratch.
    let query = r#"<results>{ for $b in $ROOT/book
        where $b/price < "50"
        return <hit t="{$b/title}">{$b/author/text()}</hit> }</results>"#;
    let parsed = parse_query(query).unwrap();
    let normalized = normalize(&parsed).unwrap();
    let mut slots = SlotMap::new();
    let root_slot = slots.slot(ROOT_VAR);
    let compiled = compile_expr(&normalized, &mut slots, &mut |label| {
        arena
            .doc()
            .symbols()
            .lookup(label)
            .unwrap_or(SymbolTable::OVERFLOW)
    })
    .unwrap();

    let mut slots = slots.make_slots();
    slots[root_slot] = Some(bib);
    let mut evaluator = CursorEvaluator::new();

    // Warm-up: pools reach their final capacities.
    for _ in 0..8 {
        let mut sink = CountingSink::default();
        evaluator
            .eval(arena.doc(), &compiled, &mut slots, &mut sink)
            .unwrap();
        assert!(sink.bytes > 0 && sink.events > 0);
    }

    // Minimum over several measured windows: the global counter also sees
    // the test harness's own threads, so a single window can pick up a
    // stray allocation. A real per-eval cost repeats in every window.
    let allocations = (0..5)
        .map(|_| {
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            for _ in 0..500 {
                let mut sink = CountingSink::default();
                evaluator
                    .eval(arena.doc(), &compiled, &mut slots, &mut sink)
                    .unwrap();
            }
            ALLOCATIONS.load(Ordering::Relaxed) - before
        })
        .min()
        .unwrap();
    assert_eq!(
        allocations, 0,
        "steady-state cursor evaluation must not allocate (cursors, scratch \
         strings and attribute buffers recycle); got {allocations} allocations \
         over 500 evaluations"
    );
}

#[test]
fn keyed_probe_loop_allocates_nothing_per_probe() {
    let _serial = SERIAL.lock().expect("no test panics holding the lock");
    // AUC-JOIN's shape: a fixed people section, and auctions whose buyer
    // the body's keyed loop looks up among the people.
    const PEOPLE: usize = 64;
    let mut arena = BufferArena::with_symbols(SymbolTable::new());
    let site = element(&mut arena, None, "site", &[]);
    let people = element(&mut arena, Some(site), "people", &[]);
    for i in 0..PEOPLE {
        let id = format!("person{i}");
        let person = element(&mut arena, Some(people), "person", &[("id", &id)]);
        let name = element(&mut arena, Some(person), "name", &[]);
        arena.append_text(name, &format!("Name {i}"));
    }
    let auctions: Vec<_> = (0..16)
        .map(|i| {
            let auction = element(&mut arena, Some(site), "auction", &[]);
            let buyer = element(&mut arena, Some(auction), "buyer", &[]);
            arena.append_text(buyer, &format!("person{}", i * 7 % PEOPLE));
            auction
        })
        .collect();

    let query = r#"<r>{ for $p in $people/person where $p/@id = $a/buyer
        return <sale>{$p/name/text()}</sale> }</r>"#;
    let normalized = normalize(&parse_query(query).unwrap()).unwrap();
    let mut slot_map = SlotMap::new();
    let (people_slot, auction_slot) = (slot_map.slot("people"), slot_map.slot("a"));
    let compiled = compile_expr(&normalized, &mut slot_map, &mut |label| {
        arena
            .doc()
            .symbols()
            .lookup(label)
            .unwrap_or(SymbolTable::OVERFLOW)
    })
    .unwrap();
    let mut slots = slot_map.make_slots();
    slots[people_slot] = Some(people);
    let mut evaluator = CursorEvaluator::new();
    let mut probe = |evaluator: &mut CursorEvaluator, n: usize| {
        for i in 0..n {
            slots[auction_slot] = Some(auctions[i % auctions.len()]);
            let mut sink = CountingSink::default();
            evaluator
                .eval(arena.doc(), &compiled, &mut slots, &mut sink)
                .unwrap();
            assert_eq!(sink.events, 5, "one sale per probe");
        }
    };

    // The first evaluation scans, the second builds the index; warm-up
    // then grows the pools to their final capacities.
    probe(&mut evaluator, 2 * auctions.len());
    assert_eq!(evaluator.join_counters().index_builds, 1);

    let mut allocations = |n: usize| {
        (0..5)
            .map(|_| {
                let before = ALLOCATIONS.load(Ordering::Relaxed);
                probe(&mut evaluator, n);
                ALLOCATIONS.load(Ordering::Relaxed) - before
            })
            .min()
            .unwrap()
    };
    let (n, eight_n) = (allocations(64), allocations(8 * 64));
    assert_eq!(
        n, eight_n,
        "a keyed probe must not allocate: {n} allocations over 64 probes, \
         {eight_n} over 512"
    );
    assert_eq!(evaluator.join_counters().index_builds, 1, "built once");
}

/// Buffers an element named by its spelling, with `attrs`, under
/// `parent` (detached for `None`) — the way the executor buffers a start
/// tag whose name the arena's table interns on import.
fn element(
    arena: &mut BufferArena,
    parent: Option<NodeId>,
    name: &str,
    attrs: &[(&str, &str)],
) -> NodeId {
    let mut ev = RawEvent::new();
    ev.reset(RawEventKind::StartElement);
    ev.set_name(SymbolTable::OVERFLOW);
    ev.target_mut().push_str(name);
    for &(attr, value) in attrs {
        ev.push_attr_named(attr).push_str(value);
    }
    let (symbols, view) = (SymbolTable::new(), RawEventRef::from_event(&ev));
    let copied = SpecNode {
        copied: true,
        ..SpecNode::default()
    };
    arena.buffer_element(parent, &symbols, &view, &copied)
}
