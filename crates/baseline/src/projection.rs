//! The projection baseline, in the style of Marian & Siméon ("Projecting
//! XML Documents", VLDB 2003) — reference \[10\] of the paper.
//!
//! The engine statically derives the query's projection paths, streams the
//! input keeping only nodes on those paths (with their required subtrees),
//! and evaluates the query over the projected document. Peak memory is the
//! projected document size: smaller than full DOM, but still growing
//! linearly with document size — the paper's Sec. 2 contrasts FluX with
//! exactly this architecture ("all title and all author nodes of each
//! book").

use crate::error::Result;
use flux_runtime::bdf::{collect_needs, SpecArena};
use flux_runtime::{RunStats, SpecId};
use flux_xml::tree::{Document, NodeId};
use flux_xml::{Input, RawEventKind, SymbolTable, TextGate, XmlWriter};
use flux_xquery::{
    compile_expr, normalize, parse_query, CompiledExpr, CursorEvaluator, SlotMap, ROOT_VAR,
};
use std::io::Write;
use std::time::Instant;

/// Compiled projection-baseline query.
pub struct ProjectionEngine {
    compiled: CompiledExpr,
    slots: SlotMap,
    root_slot: usize,
    specs: SpecArena,
    root_spec: SpecId,
    /// Every projection label, interned at compile time: the spec edges
    /// are keyed by these symbols, and each run seeds its reader and its
    /// projected document from a clone, so descent is integer equality
    /// with no per-run index build.
    symbols: SymbolTable,
}

impl ProjectionEngine {
    /// Derives projection paths from the normalized query, interning every
    /// label into the engine's own symbol table.
    pub fn compile(query: &str) -> Result<Self> {
        let parsed = parse_query(query)?;
        let query = normalize(&parsed)?;
        let mut specs = SpecArena::new();
        let root_spec = specs.new_root();
        let mut symbols = SymbolTable::new();
        collect_needs(
            &mut specs,
            &query,
            &[(ROOT_VAR.to_string(), root_spec)],
            &mut |label| symbols.intern(label),
        );
        // The evaluator compiles against the same table the spec edges are
        // keyed by: the projected document is seeded from it, so path steps
        // match by the very integers that admitted the nodes.
        let mut slots = SlotMap::new();
        let root_slot = slots.slot(ROOT_VAR);
        let compiled = compile_expr(&query, &mut slots, &mut |label| symbols.intern(label))?;
        Ok(ProjectionEngine {
            compiled,
            slots,
            root_slot,
            specs,
            root_spec,
            symbols,
        })
    }

    /// A rendering of the derived projection paths (for explain output).
    pub fn projection_paths(&self) -> String {
        self.specs.render(self.root_spec, &self.symbols)
    }

    /// Streams the input, materialising only projected nodes, then
    /// evaluates over the projected document — the one execution method.
    /// Resolves the unified [`Input`] (path, gzip, stream or buffer),
    /// threads its window and budget into the reader, and enforces the
    /// budget post-run.
    ///
    /// The stream is read through borrowed views: the projection labels
    /// were interned at compile time and the open reader is seeded with
    /// them, so descent is symbol equality.
    pub fn run_input<W: Write>(&self, input: Input, output: W) -> Result<RunStats> {
        let start = Instant::now();
        // Seed the reader with the compile-time label table: any document
        // name matching a label resolves to the symbol the spec edges are
        // keyed by, and the projected document shares the index space.
        let (mut reader, budget) = crate::open_reader(input, &self.symbols)?;
        let mut doc = Document::with_symbols(self.symbols.clone());
        let mut events: u64 = 0;
        // Stack entry: insertion target when the element is kept, with
        // the spec node it is kept under.
        let mut stack: Vec<Option<(NodeId, SpecId)>> =
            vec![Some((doc.document_node(), self.root_spec))];
        let mut gate = TextGate::new();
        while reader.advance()? {
            events += 1;
            let ev = reader.view();
            match ev.kind() {
                RawEventKind::StartElement => {
                    // The document entry is never popped: a well-formed
                    // stream closes no more elements than it opens.
                    let child = match stack.last() {
                        Some(Some((parent, spec))) => {
                            self.specs.descend(*spec, ev.name()).map(|child_spec| {
                                let id = doc.create_element_view(reader.symbols(), &ev);
                                (*parent, id, child_spec)
                            })
                        }
                        _ => None,
                    };
                    match child {
                        Some((parent, id, spec)) => {
                            doc.append_child(parent, id);
                            stack.push(Some((id, spec)));
                        }
                        None => stack.push(None),
                    }
                }
                RawEventKind::EndElement => {
                    stack.pop();
                }
                RawEventKind::Text => {
                    if let Some(Some((node, spec))) = stack.last() {
                        if self.specs.keeps_text(*spec) {
                            // Projected text is exactly the repetitive kind
                            // (every author of every book): route it through
                            // the shared dictionary.
                            let id = doc.gated_text(&mut gate, ev.text());
                            doc.append_child(*node, id);
                        }
                    }
                }
                _ => {}
            }
        }
        let peak = doc.memory_bytes();
        let nodes = doc.node_count();

        let mut writer = XmlWriter::new(output);
        let mut evaluator = CursorEvaluator::new();
        let mut slots = self.slots.make_slots();
        slots[self.root_slot] = Some(doc.document_node());
        evaluator.eval(&doc, &self.compiled, &mut slots, &mut writer)?;
        writer.finish()?;
        crate::enforce_budget(budget, peak)?;

        Ok(RunStats {
            peak_buffer_bytes: peak,
            peak_buffer_nodes: nodes,
            total_buffered_bytes: peak as u64,
            output_bytes: writer.bytes_written(),
            events,
            duration: start.elapsed(),
            ..RunStats::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dom::DomEngine;

    const Q3: &str = r#"<results>{ for $b in $ROOT/bib/book return <result>{$b/title}{$b/author}</result> }</results>"#;

    fn doc_with_publishers(n: usize) -> String {
        let mut s = String::from("<bib>");
        for i in 0..n {
            s.push_str(&format!(
                "<book><title>T{i}</title><author>A{i}</author><publisher>{}</publisher></book>",
                "P".repeat(1000)
            ));
        }
        s.push_str("</bib>");
        s
    }

    #[test]
    fn same_answers_as_dom() {
        let doc = doc_with_publishers(5);
        let projection = ProjectionEngine::compile(Q3).unwrap();
        let dom = DomEngine::compile(Q3).unwrap();
        let mut out1 = Vec::new();
        let mut out2 = Vec::new();
        projection
            .run_input(Input::from_bytes(doc.clone()), &mut out1)
            .unwrap();
        dom.run_input(Input::from_bytes(doc), &mut out2).unwrap();
        assert_eq!(out1, out2);
    }

    #[test]
    fn projects_away_unused_branches() {
        // Q3 never touches publishers: projection memory must be far below
        // DOM memory on publisher-heavy documents.
        let doc = doc_with_publishers(50);
        let projection = ProjectionEngine::compile(Q3).unwrap();
        let dom = DomEngine::compile(Q3).unwrap();
        let mut sink = Vec::new();
        let p = projection
            .run_input(Input::from_bytes(doc.clone()), &mut sink)
            .unwrap();
        sink.clear();
        let d = dom.run_input(Input::from_bytes(doc), &mut sink).unwrap();
        assert!(
            p.peak_buffer_bytes * 3 < d.peak_buffer_bytes,
            "projection {} must be well below DOM {}",
            p.peak_buffer_bytes,
            d.peak_buffer_bytes
        );
    }

    #[test]
    fn projection_still_scales_with_document() {
        // Unlike FluX, projection keeps ALL titles and authors: memory
        // grows with the number of books.
        let projection = ProjectionEngine::compile(Q3).unwrap();
        let mut sink = Vec::new();
        let small = projection
            .run_input(Input::from_bytes(doc_with_publishers(5)), &mut sink)
            .unwrap();
        sink.clear();
        let large = projection
            .run_input(Input::from_bytes(doc_with_publishers(100)), &mut sink)
            .unwrap();
        assert!(
            large.peak_buffer_bytes > small.peak_buffer_bytes * 10,
            "{} vs {}",
            large.peak_buffer_bytes,
            small.peak_buffer_bytes
        );
    }

    #[test]
    fn projection_paths_rendered() {
        let projection = ProjectionEngine::compile(Q3).unwrap();
        let paths = projection.projection_paths();
        assert!(paths.contains("bib"), "{paths}");
        assert!(paths.contains("book"), "{paths}");
    }
}
