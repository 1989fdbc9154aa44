//! The full-buffering DOM baseline.
//!
//! This engine materialises the entire input document and then evaluates
//! the query over the tree — the memory architecture of conventional
//! main-memory XQuery engines that the paper's evaluation compares against
//! ("contemporary XQuery engines consume main memory in large multiples of
//! the actual size of the input documents", Sec. 1). Peak buffered memory
//! is the full document size, independent of the query.
//!
//! Evaluation itself is the shared compile-then-stream pipeline: the query
//! is compiled once against an engine-owned symbol table (every label
//! interned at compile time), each run seeds both the reader and the tree
//! from that table, and the cursor evaluator matches steps by integer
//! symbol equality. The tree routes repeated short text payloads through
//! the shared-text dictionary, so even this deliberately memory-hungry
//! baseline does not pay per-node for recurring strings.

use crate::error::Result;
use flux_runtime::RunStats;
use flux_xml::tree::{Document, TreeBuilder};
use flux_xml::{Input, SymbolTable, XmlWriter};
use flux_xquery::{
    compile_expr, normalize, parse_query, CompiledExpr, CursorEvaluator, SlotMap, ROOT_VAR,
};
use std::io::Write;
use std::time::Instant;

/// Compiled DOM-baseline query.
pub struct DomEngine {
    compiled: CompiledExpr,
    slots: SlotMap,
    root_slot: usize,
    /// Every query label, interned at compile time. Each run seeds the
    /// reader and the materialised document from a clone, so path steps
    /// compare as integers.
    symbols: SymbolTable,
}

impl DomEngine {
    /// Parses, normalizes and compiles the query against an engine-owned
    /// symbol table. The DTD plays no role: this engine does not exploit
    /// schema information — that is its defining handicap.
    pub fn compile(query: &str) -> Result<Self> {
        let parsed = parse_query(query)?;
        let query = normalize(&parsed)?;
        let mut slots = SlotMap::new();
        let root_slot = slots.slot(ROOT_VAR);
        let mut symbols = SymbolTable::new();
        let compiled = compile_expr(&query, &mut slots, &mut |label| symbols.intern(label))?;
        Ok(DomEngine {
            compiled,
            slots,
            root_slot,
            symbols,
        })
    }

    /// Loads the whole document, then evaluates — the one execution
    /// method. Resolves the unified [`Input`] (path, gzip, stream or
    /// buffer), threads its window and budget into the reader, and
    /// enforces the budget post-run. Parsing reads borrowed views;
    /// materialising the tree is the only per-event allocation left —
    /// which is this engine's defining cost.
    pub fn run_input<W: Write>(&self, input: Input, output: W) -> Result<RunStats> {
        let start = Instant::now();
        let (mut reader, budget) = crate::open_reader(input, &self.symbols)?;
        let mut builder = TreeBuilder::with_symbols(self.symbols.clone()).with_shared_text();
        let mut events: u64 = 0;
        while reader.advance()? {
            events += 1;
            builder.raw_event(reader.symbols(), &reader.view())?;
        }
        let doc: Document = builder.finish()?;
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

    const DOC: &str = "<bib><book><title>T1</title><author>A1</author></book><book><title>T2</title></book></bib>";

    #[test]
    fn evaluates_q3() {
        let engine = DomEngine::compile(r#"<results>{ for $b in $ROOT/bib/book return <result>{$b/title}{$b/author}</result> }</results>"#)
        .unwrap();
        let mut out = Vec::new();
        let stats = engine.run_input(Input::from_bytes(DOC), &mut out).unwrap();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "<results><result><title>T1</title><author>A1</author></result><result><title>T2</title></result></results>"
        );
        assert!(
            stats.peak_buffer_bytes >= DOC.len() / 2,
            "whole document buffered"
        );
    }

    #[test]
    fn memory_scales_with_document() {
        let engine =
            DomEngine::compile("<r>{ for $b in $ROOT/bib/book return $b/title }</r>").unwrap();
        let small = DOC.to_string();
        let mut big = String::from("<bib>");
        for i in 0..100 {
            big.push_str(&format!(
                "<book><title>T{i}</title><author>A{i}AAAAAAAA</author></book>"
            ));
        }
        big.push_str("</bib>");
        let mut sink = Vec::new();
        let s1 = engine
            .run_input(Input::from_bytes(small), &mut sink)
            .unwrap();
        sink.clear();
        let s2 = engine.run_input(Input::from_bytes(big), &mut sink).unwrap();
        assert!(
            s2.peak_buffer_bytes > s1.peak_buffer_bytes * 10,
            "DOM memory tracks document size: {} vs {}",
            s2.peak_buffer_bytes,
            s1.peak_buffer_bytes
        );
    }

    #[test]
    fn repeated_payloads_share_storage() {
        // 100 identical author strings: with the shared-text dictionary the
        // document charges the spelling a constant number of times, not per
        // node.
        let engine =
            DomEngine::compile("<r>{ for $b in $ROOT/bib/book return $b/author }</r>").unwrap();
        let body = "<book><title>T</title><author>Stevens, W. Richard</author></book>".repeat(100);
        let shared = format!("<bib>{body}</bib>");
        let mut sink = Vec::new();
        let s = engine
            .run_input(Input::from_bytes(shared), &mut sink)
            .unwrap();
        let mut distinct = String::from("<bib>");
        for i in 0..100 {
            distinct.push_str(&format!(
                "<book><title>T</title><author>Author nr. {i:07}</author></book>"
            ));
        }
        distinct.push_str("</bib>");
        sink.clear();
        let d = engine
            .run_input(Input::from_bytes(distinct), &mut sink)
            .unwrap();
        assert!(
            s.peak_buffer_bytes + 1000 < d.peak_buffer_bytes,
            "shared {} must undercut distinct {}",
            s.peak_buffer_bytes,
            d.peak_buffer_bytes
        );
    }
}
