//! The memory-accounted buffer store.
//!
//! One arena [`Document`] holds every buffered node: scope shells (one per
//! active `on` handler binding), projected subtree copies, and text. Scope
//! subtrees are freed when their scope closes; freed slots are recycled, so
//! physical memory is bounded by *peak live buffered data* — the quantity
//! the paper's evaluation measures — and never by document size.
//!
//! The store is **symbol-keyed**: the arena document's name table is
//! seeded with the stream's table, so buffering an element copies its
//! name as a plain integer ([`Document::import_name`]) — no name string is
//! ever materialised, and the accounted bytes per node are content bytes
//! only. The seed is the run's vocabulary, so every name the plan reads is
//! in it; names it does *not* cover (attributes neither the DTD declares
//! nor the query names, kept by a whole-subtree copy) intern into the
//! arena document's own table once per distinct spelling. Those
//! dictionary bytes live for the whole run (a scope free cannot return
//! them), so they are charged to the tracker as un-releasable growth the
//! moment they are first seen — an adversarial stream minting unbounded
//! distinct names shows up in `peak_buffer_bytes` instead of hiding in an
//! unaccounted table. Freed nodes donate their text buffers, attribute
//! vectors and serialized bytes back to spare pools, so the steady-state
//! buffer-and-free loop of a scoped query (one book at a time, in the
//! paper's running example) performs **zero heap allocations**.
//!
//! A buffered subtree takes one of two representations, decided per BDF
//! node at plan-compile time. A *tree* — an element node per element, a
//! text node per text run — is what cursors navigate, compare and
//! atomise. A *print-only* subtree, one the plan only ever copies to the
//! output, is serialized while it streams past through the arena's
//! [`BufferArena::capture`] writer and sealed into **one**
//! [`NodeKind::Serialized`] node holding its already-escaped bytes: it
//! keeps its element name, so paths still find it in document order,
//! copying it out is one `write_all`, and freeing it returns its byte
//! buffer to a pool.

use crate::bdf::SpecNode;
use crate::stats::MemoryTracker;
use flux_xml::tree::{Document, NodeAttr, NodeId, NodeKind};
use flux_xml::{RawEventRef, Symbol, SymbolTable, XmlWriter};

/// Arena of buffered nodes with recycling and byte accounting.
pub struct BufferArena {
    doc: Document,
    free_slots: Vec<NodeId>,
    /// Cleared `String`s harvested from freed text nodes and attribute
    /// values, reused (capacity and all) by the next buffered payload.
    spare_strings: Vec<String>,
    /// Emptied attribute vectors harvested from freed element nodes.
    spare_attr_vecs: Vec<Vec<NodeAttr>>,
    /// Cleared byte buffers harvested from freed serialized nodes.
    spare_xml: Vec<Vec<u8>>,
    /// Where print-only subtrees are serialized while they stream past;
    /// each [`BufferArena::seal`] copies one out of it into a node.
    capture: XmlWriter<Vec<u8>>,
    /// Reusable traversal stack for [`BufferArena::free_scope`].
    free_stack: Vec<NodeId>,
    tracker: MemoryTracker,
}

impl Default for BufferArena {
    fn default() -> Self {
        Self::new()
    }
}

impl BufferArena {
    /// An arena with a fresh name table.
    pub fn new() -> Self {
        Self::with_symbols(SymbolTable::new())
    }

    /// An arena whose document is seeded with the stream's symbol table
    /// (cloned), so buffering stream events copies names as integers.
    pub fn with_symbols(symbols: SymbolTable) -> Self {
        BufferArena {
            doc: Document::with_symbols(symbols),
            free_slots: Vec::new(),
            spare_strings: Vec::new(),
            spare_attr_vecs: Vec::new(),
            spare_xml: Vec::new(),
            capture: XmlWriter::new(Vec::new()),
            free_stack: Vec::new(),
            tracker: MemoryTracker::new(),
        }
    }

    /// Read access for the interpreter.
    pub fn doc(&self) -> &Document {
        &self.doc
    }

    pub fn tracker(&self) -> &MemoryTracker {
        &self.tracker
    }

    /// A cleared string from the spare pool (or a fresh one), filled with
    /// `content`. Allocation-free once the pool's buffers have grown to
    /// the workload's largest payload.
    fn pooled_string(&mut self, content: &str) -> String {
        let mut s = self.spare_strings.pop().unwrap_or_default();
        s.push_str(content);
        s
    }

    /// An emptied attribute vector from the spare pool (or a fresh one).
    fn pooled_attrs(&mut self) -> Vec<NodeAttr> {
        self.spare_attr_vecs.pop().unwrap_or_default()
    }

    /// Charges any dictionary growth since `before` to the tracker as
    /// un-releasable bytes: a name interned past the seed lives for the
    /// whole run, so it must be visible in the peak, once per distinct
    /// spelling.
    fn charge_dictionary(&mut self, before: usize) {
        let delta = self.doc.interned_name_bytes() - before;
        if delta > 0 {
            self.tracker.grow(delta);
        }
    }

    /// Installs `kind` in a recycled slot or a fresh node, and accounts it.
    fn alloc(&mut self, kind: NodeKind) -> NodeId {
        let id = match self.free_slots.pop() {
            Some(slot) => {
                self.doc.reset_node(slot, kind);
                slot
            }
            None => self.doc.create_node(kind),
        };
        self.tracker.allocate(self.doc.node_heap_bytes(id));
        id
    }

    /// Buffers the element behind a start-tag view under its BDF node
    /// `spec`: appended under `parent`, or detached (a scope shell) with
    /// `None`. Buffering inherently copies the *content* — attribute
    /// values and (later) text — but names import as integers: zero name
    /// strings allocate, and with warmed spare pools the whole call
    /// allocates nothing.
    ///
    /// The node keeps the attributes `spec` keeps
    /// ([`SpecNode::keeps_attr`]: every one when a use copies it, else the
    /// ones the plan reads, symbols of the vocabulary the stream is seeded
    /// with, so an [`SymbolTable::OVERFLOW`] name is never one of them).
    /// Dropping unread attributes here is what keeps the run-long name
    /// dictionary off adversarial streams: a minted name no expression
    /// reads never reaches the arena's table, so `peak_buffer_bytes`
    /// stays flat however many distinct names the input mints.
    pub fn buffer_element(
        &mut self,
        parent: Option<NodeId>,
        symbols: &SymbolTable,
        ev: &RawEventRef<'_>,
        spec: &SpecNode,
    ) -> NodeId {
        let dict_before = self.doc.interned_name_bytes();
        let name = self.doc.import_name(symbols, ev.name(), ev.target());
        let mut attrs = self.pooled_attrs();
        for a in ev.attrs().filter(|a| spec.keeps_attr(a.name)) {
            let name = self.doc.import_name(symbols, a.name, a.overflow_name);
            let value = self.pooled_string(a.value);
            attrs.push(NodeAttr { name, value });
        }
        self.charge_dictionary(dict_before);
        let id = self.alloc(NodeKind::Element {
            name,
            attributes: attrs,
        });
        if let Some(parent) = parent {
            self.doc.append_child(parent, id);
        }
        id
    }

    /// Imports a start tag's name into the arena document's table (see
    /// [`Document::import_name`]), charging any first-sight spelling.
    pub fn import_name(&mut self, symbols: &SymbolTable, ev: &RawEventRef<'_>) -> Symbol {
        let dict_before = self.doc.interned_name_bytes();
        let name = self.doc.import_name(symbols, ev.name(), ev.target());
        self.charge_dictionary(dict_before);
        name
    }

    /// The writer print-only subtrees stream through: the caller writes
    /// each of their events to it exactly as a stream copy would write
    /// them to the output.
    pub fn capture(&mut self) -> &mut XmlWriter<Vec<u8>> {
        &mut self.capture
    }

    /// Where a print-only subtree about to be captured starts in the
    /// capture buffer. With no subtree open the buffer is idle and starts
    /// over, so it never holds more than the outermost open capture.
    pub fn capture_mark(&mut self) -> usize {
        if self.capture.depth() == 0 {
            self.capture.get_mut().clear();
        }
        self.capture.get_ref().len()
    }

    /// Seals the captured bytes from `start` on — one balanced element
    /// named `name` — into one serialized node appended under `parent`,
    /// charged to the tracker like any node.
    pub fn seal(&mut self, parent: NodeId, name: Symbol, start: usize) -> NodeId {
        let mut xml = self.spare_xml.pop().unwrap_or_default();
        xml.extend_from_slice(&self.capture.get_ref()[start..]);
        self.append_serialized(parent, name, xml)
    }

    /// Seals `span`, one balanced element named `name` spelled as the
    /// capture writer would write it, into one serialized node under
    /// `parent`: the node, and the charge, [`BufferArena::seal`] makes
    /// for the same bytes captured event by event.
    pub fn seal_span(&mut self, parent: NodeId, name: Symbol, span: &[u8]) -> NodeId {
        let mut xml = self.spare_xml.pop().unwrap_or_default();
        xml.extend_from_slice(span);
        self.append_serialized(parent, name, xml)
    }

    fn append_serialized(&mut self, parent: NodeId, name: Symbol, xml: Vec<u8>) -> NodeId {
        self.tracker.count_serialized(xml.len());
        let id = self.alloc(NodeKind::Serialized { name, xml });
        self.doc.append_child(parent, id);
        id
    }

    /// Appends text under `parent`, merging with a trailing text sibling.
    pub fn append_text(&mut self, parent: NodeId, text: &str) {
        if let Some(&last) = self.doc.children(parent).last() {
            let before = self.doc.node_heap_bytes(last);
            // The arena holds no shared text, so a merge never demotes
            // one and needs no scratch.
            if self.doc.merge_text(last, text, &mut String::new()) {
                self.tracker.grow(self.doc.node_heap_bytes(last) - before);
                return;
            }
        }
        let text = self.pooled_string(text);
        let id = self.alloc(NodeKind::Text(text));
        self.doc.append_child(parent, id);
    }

    /// Frees a detached scope subtree, recycling every node — and every
    /// node's heap buffers, which go back to the spare pools instead of
    /// the allocator.
    pub fn free_scope(&mut self, root: NodeId) {
        debug_assert!(self.doc.parent(root).is_none(), "scope roots are detached");
        self.tracker.sample_residency();
        let mut stack = std::mem::take(&mut self.free_stack);
        stack.clear();
        stack.push(root);
        while let Some(id) = stack.pop() {
            stack.extend(self.doc.children(id).iter().copied());
            self.tracker.release(self.doc.node_heap_bytes(id));
            // Swap in an empty payload (so the accounted release is real)
            // and harvest the old payload's buffers for reuse.
            match self.doc.reset_node(id, NodeKind::Text(String::new())) {
                NodeKind::Element { mut attributes, .. } => {
                    for mut attr in attributes.drain(..) {
                        attr.value.clear();
                        self.spare_strings.push(attr.value);
                    }
                    self.spare_attr_vecs.push(attributes);
                }
                NodeKind::Text(mut t) => {
                    t.clear();
                    self.spare_strings.push(t);
                }
                NodeKind::Serialized { mut xml, .. } => {
                    xml.clear();
                    self.spare_xml.push(xml);
                }
                NodeKind::SharedText(_) | NodeKind::Document => {}
            }
            self.free_slots.push(id);
        }
        self.free_stack = stack;
    }

    /// Accounts the keyed-loop indexes the evaluator holds over this
    /// arena ([`flux_xquery::CursorEvaluator::join_index_bytes`]): they
    /// are buffered data derived from the scopes they index, so they
    /// count toward `peak_buffer_bytes`.
    pub fn set_index_bytes(&mut self, bytes: usize) {
        self.tracker.set_index_bytes(bytes);
    }

    /// Current live buffered bytes.
    pub fn current_bytes(&self) -> usize {
        self.tracker.current_bytes()
    }

    /// Peak live buffered bytes.
    pub fn peak_bytes(&self) -> usize {
        self.tracker.peak_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flux_xml::{RawEvent, RawEventKind};

    /// Creates a detached element from a start tag named by its spelling,
    /// as a closed reader delivers a name outside its vocabulary: the
    /// arena interns the element and attribute names on import.
    fn element(arena: &mut BufferArena, name: &str, attrs: &[(&str, &str)]) -> NodeId {
        let mut ev = RawEvent::new();
        ev.reset(RawEventKind::StartElement);
        ev.set_name(SymbolTable::OVERFLOW);
        ev.target_mut().push_str(name);
        for &(attr, value) in attrs {
            ev.push_attr_named(attr).push_str(value);
        }
        let view = RawEventRef::from_event(&ev);
        arena.buffer_element(None, &SymbolTable::new(), &view, &copied())
    }

    /// A BDF node some use copies: its elements keep every attribute.
    fn copied() -> SpecNode {
        SpecNode {
            copied: true,
            ..SpecNode::default()
        }
    }

    /// Appends a new element named `name` under `parent`.
    fn child(arena: &mut BufferArena, parent: NodeId, name: &str) -> NodeId {
        let id = element(arena, name, &[]);
        arena.doc.append_child(parent, id);
        id
    }

    #[test]
    fn build_and_navigate() {
        let mut arena = BufferArena::new();
        let book = element(&mut arena, "book", &[("year", "1994")]);
        let title = child(&mut arena, book, "title");
        arena.append_text(title, "TCP/IP");
        let author = child(&mut arena, book, "author");
        arena.append_text(author, "Stevens");
        let doc = arena.doc();
        assert_eq!(doc.children(book).len(), 2);
        assert_eq!(doc.string_value(book).unwrap(), "TCP/IPStevens");
        assert_eq!(doc.attribute(book, "year"), Some("1994"));
    }

    #[test]
    fn text_merging_accounts_growth() {
        let mut arena = BufferArena::new();
        let e = element(&mut arena, "t", &[]);
        arena.append_text(e, "ab");
        let before = arena.current_bytes();
        arena.append_text(e, "cd");
        assert_eq!(
            arena.doc().children(e).len(),
            1,
            "merged into one text node"
        );
        assert_eq!(arena.current_bytes(), before + 2);
        assert_eq!(arena.doc().string_value(e).unwrap(), "abcd");
    }

    #[test]
    fn free_releases_and_recycles() {
        let mut arena = BufferArena::new();
        let scope = element(&mut arena, "book", &[]);
        let t = child(&mut arena, scope, "title");
        arena.append_text(t, "X");
        let live = arena.current_bytes();
        assert!(live > 0);
        let node_count_before = arena.doc().node_count();
        arena.free_scope(scope);
        // Everything releasable is released; only the run-long name
        // dictionary (interned once, deliberately charged) remains.
        let dictionary = arena.doc().interned_name_bytes();
        assert!(dictionary > 0, "fresh-table arena interned names");
        assert_eq!(arena.current_bytes(), dictionary);
        // New allocations reuse the freed slots: arena does not grow, and
        // re-interning the same names charges nothing new.
        let scope2 = element(&mut arena, "book", &[]);
        let t2 = child(&mut arena, scope2, "title");
        arena.append_text(t2, "Y");
        assert_eq!(
            arena.doc().node_count(),
            node_count_before,
            "slots recycled"
        );
        assert_eq!(arena.doc().interned_name_bytes(), dictionary);
        assert_eq!(arena.doc().string_value(scope2).unwrap(), "Y");
    }

    #[test]
    fn peak_tracks_maximum_live() {
        let mut arena = BufferArena::new();
        // Simulate: 3 books one at a time, each with one author.
        let mut peak_each = 0;
        for i in 0..3 {
            let scope = element(&mut arena, "book", &[]);
            let a = child(&mut arena, scope, "author");
            arena.append_text(a, &format!("Author {i}"));
            peak_each = peak_each.max(arena.current_bytes());
            arena.free_scope(scope);
        }
        // Only the two interned names remain live after the last free.
        assert_eq!(arena.current_bytes(), arena.doc().interned_name_bytes());
        assert_eq!(arena.peak_bytes(), peak_each, "peak ≈ one book, not three");
    }

    #[test]
    fn interleaved_scopes_free_correctly() {
        // Outer buffer keeps growing while an inner scope lives and dies —
        // the regression the subtree-walking free exists for.
        let mut arena = BufferArena::new();
        let outer = element(&mut arena, "outer", &[]);
        child(&mut arena, outer, "kept1");
        let inner = element(&mut arena, "inner", &[]);
        child(&mut arena, inner, "tmp");
        child(&mut arena, outer, "kept2"); // interleaved with inner's life
        arena.free_scope(inner);
        child(&mut arena, outer, "kept3");
        let doc = arena.doc();
        let names: Vec<_> = doc
            .children(outer)
            .iter()
            .map(|&c| doc.name(c).unwrap().to_string())
            .collect();
        assert_eq!(names, vec!["kept1", "kept2", "kept3"]);
    }

    #[test]
    fn distinct_name_dictionary_is_accounted() {
        // An adversarial stream minting ever-new names cannot hide in the
        // arena's table: every first-sight name is charged to the tracker
        // as un-releasable bytes, and known names charge nothing.
        let mut arena = BufferArena::new();
        let mut prev = 0;
        for i in 0..50 {
            let scope = element(&mut arena, &format!("name{i:04}"), &[]);
            arena.free_scope(scope);
            assert!(
                arena.current_bytes() > prev,
                "distinct name {i} must be visible in live bytes"
            );
            prev = arena.current_bytes();
        }
        let scope = element(&mut arena, "name0000", &[]);
        arena.free_scope(scope);
        assert_eq!(arena.current_bytes(), prev, "known names charge nothing");
    }

    #[test]
    fn overflow_named_event_buffers_safely() {
        // A closed reader delivers OVERFLOW + the literal name in
        // the event's side channel: buffering must neither panic nor
        // misname the node, for elements and attributes alike.
        let symbols = SymbolTable::new();
        let mut arena = BufferArena::with_symbols(symbols.clone());
        let mut ev = RawEvent::new();
        ev.reset(RawEventKind::StartElement);
        ev.set_name(SymbolTable::OVERFLOW);
        ev.target_mut().push_str("mystery");
        ev.push_attr_named("oddattr").push_str("v1");
        let view = RawEventRef::from_event(&ev);
        let id = arena.buffer_element(None, &symbols, &view, &copied());
        assert_eq!(arena.doc().name(id), Some("mystery"));
        assert_eq!(arena.doc().attribute(id, "oddattr"), Some("v1"));
        // A second spell-alike node shares the one interned name.
        let id2 = arena.buffer_element(Some(id), &symbols, &view, &copied());
        assert_eq!(arena.doc().name_sym(id), arena.doc().name_sym(id2));
        assert_eq!(arena.doc().children(id), [id2]);
        // A node no use copies keeps only the attributes the plan reads,
        // and an overflowed name is never one of them.
        let bytes = arena.current_bytes();
        let id3 = arena.buffer_element(None, &symbols, &view, &SpecNode::default());
        assert_eq!(arena.doc().attribute(id3, "oddattr"), None);
        assert_eq!(
            arena.current_bytes() - bytes,
            arena.doc().node_heap_bytes(id3),
            "no dictionary charge"
        );
    }

    #[test]
    fn steady_state_recycling_reuses_buffers() {
        // After warm-up, buffering the same shape again must not grow the
        // arena (slots, strings and attribute vectors recycle), and the
        // accounting closes to the name floor every round.
        let mut arena = BufferArena::new();
        let payload = "A value that is long enough to matter";
        let mut floor = None;
        for round in 0..10 {
            let scope = element(&mut arena, "book", &[("year", "1994")]);
            let t = child(&mut arena, scope, "title");
            arena.append_text(t, payload);
            arena.free_scope(scope);
            // The floor is the run-long interned-name charge from round 0
            // ("book"/"year"/"title"); nothing may stack on top of it.
            let names = *floor.get_or_insert(arena.current_bytes());
            assert_eq!(
                arena.current_bytes(),
                names,
                "round {round} leaked accounting"
            );
        }
        assert!(
            arena.doc().node_count() <= 4,
            "arena grew past one scope's nodes: {}",
            arena.doc().node_count()
        );
    }

    /// Serializes one `<author a="1">` element with `text` into the
    /// capture writer, the way the executor streams a print-only subtree.
    fn capture_author(arena: &mut BufferArena, symbols: &SymbolTable, text: &str) -> usize {
        let mut ev = RawEvent::new();
        ev.reset(RawEventKind::StartElement);
        ev.set_name(symbols.lookup("author").unwrap());
        ev.push_attr_named("a").push('1');
        let start = arena.capture_mark();
        let capture = arena.capture();
        capture
            .start_element_view(symbols, &RawEventRef::from_event(&ev))
            .unwrap();
        capture.text(text).unwrap();
        capture.end_element().unwrap();
        start
    }

    #[test]
    fn serialized_nodes_seal_charge_and_recycle() {
        let mut symbols = SymbolTable::new();
        let author = symbols.intern("author");
        let mut arena = BufferArena::with_symbols(symbols.clone());
        let shell = element(&mut arena, "book", &[]);
        let floor = arena.current_bytes();
        let start = capture_author(&mut arena, &symbols, "Gray & Reuter");
        let node = arena.seal(shell, author, start);
        let xml = r#"<author a="1">Gray &amp; Reuter</author>"#;
        // One node holding the escaped bytes, still named `author`.
        assert_eq!(arena.doc().name_sym(node), Some(author));
        assert!(matches!(
            arena.doc().kind(node),
            NodeKind::Serialized { xml: bytes, .. } if bytes == xml.as_bytes()
        ));
        assert_eq!(
            arena.current_bytes() - floor,
            arena.doc().node_heap_bytes(node)
        );
        assert_eq!(
            arena.tracker().telemetry().serialized_bytes,
            xml.len() as u64
        );
        // Its string value is an error, not a silently empty string.
        assert!(arena.doc().string_value(shell).is_err());
        // Freeing returns the charge; the next seal reuses slot and buffer.
        arena.free_scope(shell);
        assert_eq!(arena.current_bytes(), arena.doc().interned_name_bytes());
        let nodes = arena.doc().node_count();
        let shell = element(&mut arena, "book", &[]);
        let start = capture_author(&mut arena, &symbols, "Stevens");
        arena.seal(shell, author, start);
        assert_eq!(arena.doc().node_count(), nodes, "slots recycled");
        assert_eq!(arena.tracker().telemetry().serialized_nodes, 2);
        arena.free_scope(shell);
    }

    #[test]
    fn nested_and_parallel_seals_share_one_capture() {
        // Two buffers sealing the same element, and an inner element
        // sealed inside an outer one, all from one pass over the events.
        let mut symbols = SymbolTable::new();
        let author = symbols.intern("author");
        let mut arena = BufferArena::with_symbols(symbols.clone());
        let (a, b) = (element(&mut arena, "a", &[]), element(&mut arena, "b", &[]));
        let outer = arena.capture_mark();
        let mut ev = flux_xml::RawEvent::new();
        ev.reset(flux_xml::RawEventKind::StartElement);
        ev.set_name(author);
        let view = RawEventRef::from_event(&ev);
        arena.capture().start_element_view(&symbols, &view).unwrap();
        let inner = arena.capture_mark();
        assert_eq!(inner, "<author>".len(), "an open capture is not reset");
        let start = capture_author(&mut arena, &symbols, "x");
        assert_eq!(start, inner);
        arena.seal(b, author, inner);
        arena.capture().end_element().unwrap();
        arena.seal(a, author, outer);
        arena.seal(b, author, outer);
        let bytes = |id: NodeId| match arena.doc().kind(id) {
            NodeKind::Serialized { xml, .. } => String::from_utf8(xml.clone()).unwrap(),
            other => panic!("{other:?}"),
        };
        let whole = r#"<author><author a="1">x</author></author>"#;
        assert_eq!(bytes(arena.doc().children(a)[0]), whole);
        let b_children = arena.doc().children(b).to_vec();
        assert_eq!(bytes(b_children[0]), r#"<author a="1">x</author>"#);
        assert_eq!(bytes(b_children[1]), whole);
    }
}
