//! E10 — cursor-evaluator microbench: compiled streaming evaluation over
//! an already-buffered document, against the retained materialising
//! reference evaluator on the same tree. Isolates the evaluator from
//! parsing: the document is materialised once, both evaluators run over
//! the same nodes, and the cursor side drives a counting (non-writing)
//! sink so the comparison measures traversal + construction, not I/O.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use flux_bench::{Domain, Q3};
use flux_xml::tree::{Document, TreeBuilder};
use flux_xml::XmlReader;
use flux_xquery::{
    compile_expr, normalize, parse_query, reference_eval_to_string, CompiledExpr, CountingSink,
    CursorEvaluator, Expr, SlotMap, ROOT_VAR,
};

fn materialise(bytes: &[u8]) -> Document {
    let mut reader = XmlReader::new(bytes);
    let mut builder = TreeBuilder::new().with_shared_text();
    while reader.advance().expect("parse") {
        builder
            .raw_event(reader.symbols(), &reader.view())
            .expect("build");
    }
    builder.finish().expect("tree")
}

fn compiled_for(doc: &Document, normalized: &Expr) -> (CompiledExpr, SlotMap, usize) {
    let mut slots = SlotMap::new();
    let root_slot = slots.slot(ROOT_VAR);
    let compiled = compile_expr(normalized, &mut slots, &mut |label| {
        doc.symbols().lookup(label)
    })
    .expect("compile");
    (compiled, slots, root_slot)
}

fn cursor_eval(c: &mut Criterion) {
    let mut group = c.benchmark_group("e10_cursor_eval");
    let parsed = parse_query(Q3).expect("parse query");
    let normalized = normalize(&parsed).expect("normalize");
    for scale in [1.0f64, 4.0] {
        let bytes = Domain::BibWeak.document(scale, 42).into_bytes();
        let doc = materialise(&bytes);
        group.throughput(Throughput::Bytes(bytes.len() as u64));

        let (compiled, slot_map, root_slot) = compiled_for(&doc, &normalized);
        let mut slots = slot_map.make_slots();
        slots[root_slot] = Some(doc.document_node());
        let mut evaluator = CursorEvaluator::new();
        group.bench_with_input(
            BenchmarkId::new("cursor", format!("{scale}x")),
            &doc,
            |b, doc| {
                b.iter(|| {
                    let mut sink = CountingSink::default();
                    evaluator
                        .eval(doc, &compiled, &mut slots, &mut sink)
                        .expect("eval");
                    (sink.bytes, sink.events)
                })
            },
        );

        group.bench_with_input(
            BenchmarkId::new("reference", format!("{scale}x")),
            &doc,
            |b, doc| {
                b.iter(|| {
                    reference_eval_to_string(doc, &normalized)
                        .expect("eval")
                        .len()
                })
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15);
    targets = cursor_eval
}
criterion_main!(benches);
