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
//! only. Names the seed does *not* cover (undeclared attributes, bounded-
//! interner overflow) intern into the arena document's own table once per
//! distinct spelling; those dictionary bytes live for the whole run (a
//! scope free cannot return them), so they are charged to the tracker as
//! un-releasable growth the moment they are first seen — an adversarial
//! stream minting unbounded distinct names shows up in
//! `peak_buffer_bytes` instead of hiding in an unaccounted table. Freed
//! nodes donate their text buffers and attribute vectors back to a spare
//! pool, so the steady-state buffer-and-free loop of a scoped query (one
//! book at a time, in the paper's running example) performs **zero heap
//! allocations**.
//!
//! Short text payloads the stream repeats (author names, recurring labels)
//! go through a frequency gate ([`TextGate`]): once a payload has been
//! seen often enough *within one scope generation* it interns into the
//! arena document's shared-text dictionary and subsequent sightings buffer
//! as an index instead of a copy. [`BufferArena::free_scope`] bumps the
//! gate's generation, so only payloads whose copies are simultaneously
//! live can cross — the one case where sharing lowers the live-byte peak.
//! A payload that recurs once per freed scope never interns: it would
//! grow the resident dictionary without ever saving a live byte.
//! Dictionary bytes are charged to the tracker exactly like interned
//! names — un-releasable, once per distinct payload — so the saving shows
//! up honestly in `peak_buffer_bytes` rather than hiding in an unaccounted
//! side table.

use crate::stats::MemoryTracker;
use flux_xml::tree::{Document, NodeAttr, NodeId, NodeKind};
use flux_xml::{Attribute, RawEventRef, SymbolTable, TextGate};
use flux_xquery::{CompiledPath, CursorPool, ItemCursor, PathCursor};

/// Arena of buffered nodes with recycling and byte accounting.
pub struct BufferArena {
    doc: Document,
    free_slots: Vec<NodeId>,
    /// Cleared `String`s harvested from freed text nodes and attribute
    /// values, reused (capacity and all) by the next buffered payload.
    spare_strings: Vec<String>,
    /// Emptied attribute vectors harvested from freed element nodes.
    spare_attr_vecs: Vec<Vec<NodeAttr>>,
    /// Reusable traversal stack for [`BufferArena::free_scope`].
    free_stack: Vec<NodeId>,
    /// Frequency gate deciding which short text payloads join the shared
    /// dictionary. Fixed-size machine state, like the spare pools — not
    /// buffered data, so not charged to the tracker.
    gate: TextGate,
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
            free_stack: Vec::new(),
            gate: TextGate::new(),
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
            None => match kind {
                NodeKind::Element { name, attributes } => {
                    self.doc.create_element_sym(name, attributes)
                }
                NodeKind::Text(t) => self.doc.create_text(t),
                NodeKind::SharedText(idx) => self.doc.create_shared_text(idx),
                NodeKind::Document => unreachable!("arena never allocates document nodes"),
            },
        };
        self.tracker.allocate(self.doc.node_heap_bytes(id));
        id
    }

    /// Creates a detached element node from string-named parts (tests and
    /// plan-side constructors; the streaming path uses the view variants).
    pub fn create_element(&mut self, name: &str, attributes: &[Attribute]) -> NodeId {
        let dict_before = self.doc.interned_name_bytes();
        let name = self.doc.intern(name);
        let mut attrs = self.pooled_attrs();
        for a in attributes {
            let name = self.doc.intern(&a.name);
            let value = self.pooled_string(&a.value);
            attrs.push(NodeAttr { name, value });
        }
        self.charge_dictionary(dict_before);
        self.alloc(NodeKind::Element {
            name,
            attributes: attrs,
        })
    }

    /// Appends a new element under `parent`.
    pub fn append_element(
        &mut self,
        parent: NodeId,
        name: &str,
        attributes: &[Attribute],
    ) -> NodeId {
        let id = self.create_element(name, attributes);
        self.doc.append_child(parent, id);
        id
    }

    /// Creates a detached element from a borrowed event view. Buffering
    /// inherently copies the *content* — attribute values and (later)
    /// text — but names import as integers: zero name strings allocate,
    /// and with warmed spare pools the whole call allocates nothing.
    pub fn create_element_view(&mut self, symbols: &SymbolTable, ev: &RawEventRef<'_>) -> NodeId {
        let dict_before = self.doc.interned_name_bytes();
        let name = self.doc.import_name(symbols, ev.name(), ev.target());
        let mut attrs = self.pooled_attrs();
        for a in ev.attrs() {
            let name = self.doc.import_name(symbols, a.name, a.overflow_name);
            let value = self.pooled_string(a.value);
            attrs.push(NodeAttr { name, value });
        }
        self.charge_dictionary(dict_before);
        self.alloc(NodeKind::Element {
            name,
            attributes: attrs,
        })
    }

    /// Creates a detached scope shell from a borrowed event view, keeping
    /// only the attributes named in `keep` (the names the plan actually
    /// reads — [`crate::bdf::SpecNode::attrs`]). Dropping unread attribute
    /// names here is what keeps the run-long name dictionary off
    /// adversarial streams: a minted name no expression reads never
    /// reaches the arena's table, so `peak_buffer_bytes` stays flat
    /// however many distinct names the input mints.
    pub fn create_element_view_projected(
        &mut self,
        symbols: &SymbolTable,
        ev: &RawEventRef<'_>,
        keep: &[String],
    ) -> NodeId {
        let dict_before = self.doc.interned_name_bytes();
        let name = self.doc.import_name(symbols, ev.name(), ev.target());
        let mut attrs = self.pooled_attrs();
        if !keep.is_empty() {
            for a in ev.attrs() {
                let spelled = symbols.try_name(a.name).unwrap_or(a.overflow_name);
                if !keep.iter().any(|k| k == spelled) {
                    continue;
                }
                let name = self.doc.import_name(symbols, a.name, a.overflow_name);
                let value = self.pooled_string(a.value);
                attrs.push(NodeAttr { name, value });
            }
        }
        self.charge_dictionary(dict_before);
        self.alloc(NodeKind::Element {
            name,
            attributes: attrs,
        })
    }

    /// Appends a new element from a borrowed event view under `parent`.
    pub fn append_element_view(
        &mut self,
        parent: NodeId,
        symbols: &SymbolTable,
        ev: &RawEventRef<'_>,
    ) -> NodeId {
        let id = self.create_element_view(symbols, ev);
        self.doc.append_child(parent, id);
        id
    }

    /// Appends text under `parent`, merging with a trailing text sibling
    /// (a shared trailing sibling demotes to an owned copy — the merged
    /// payload is a new spelling). New nodes route through the frequency
    /// gate: payloads the stream repeats intern into the shared dictionary
    /// and buffer as an index.
    pub fn append_text(&mut self, parent: NodeId, text: &str) {
        if let Some(&last) = self.doc.children(parent).last() {
            let before = self.doc.node_heap_bytes(last);
            let mut scratch = self.spare_strings.pop().unwrap_or_default();
            let merged = self.doc.merge_text(last, text, &mut scratch);
            self.spare_strings.push(scratch);
            if merged {
                self.tracker.grow(self.doc.node_heap_bytes(last) - before);
                return;
            }
        }
        let kind = match self.shared_index(text) {
            Some(idx) => NodeKind::SharedText(idx),
            None => NodeKind::Text(self.pooled_string(text)),
        };
        let id = self.alloc(kind);
        self.doc.append_child(parent, id);
    }

    /// Dictionary index for `text` if it is (or just became) shared:
    /// recurring short payloads pass the gate and intern once, with the
    /// dictionary bytes charged to the tracker as un-releasable growth.
    fn shared_index(&mut self, text: &str) -> Option<u32> {
        if !TextGate::eligible(text) {
            return None;
        }
        if let Some(idx) = self.doc.shared_text_lookup(text) {
            return Some(idx);
        }
        if !self.gate.admit(text) {
            return None;
        }
        let before = self.doc.shared_text_bytes();
        let idx = self.doc.intern_shared_text(text);
        self.tracker.grow(self.doc.shared_text_bytes() - before);
        Some(idx)
    }

    /// Frees a detached scope subtree, recycling every node — and every
    /// node's heap buffers, which go back to the spare pools instead of
    /// the allocator.
    pub fn free_scope(&mut self, root: NodeId) {
        debug_assert!(self.doc.parent(root).is_none(), "scope roots are detached");
        // Freed copies can no longer benefit from sharing: start a new
        // sighting generation so only intra-scope repetition (live
        // duplicates) counts toward the dictionary gate.
        self.gate.bump_generation();
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
                // The payload lives in the run-long dictionary (already
                // charged); the node itself carried no heap to harvest.
                NodeKind::SharedText(_) => {}
                NodeKind::Document => {}
            }
            self.free_slots.push(id);
        }
        self.free_stack = stack;
    }

    /// The child span of a buffered node — the raw slice cursors walk.
    pub fn span(&self, id: NodeId) -> &[NodeId] {
        self.doc.children(id)
    }

    /// A node cursor streaming the element steps of `path` out of the
    /// arena, starting at `start`. Scratch comes from (and returns to)
    /// `pool`, so steady-state construction allocates nothing.
    pub fn node_cursor<'a>(
        &'a self,
        path: &CompiledPath,
        start: NodeId,
        pool: &mut CursorPool,
    ) -> PathCursor<'a> {
        PathCursor::new(&self.doc, path, start, pool)
    }

    /// An item cursor streaming `path` (tail included) out of the arena.
    pub fn item_cursor<'a>(
        &'a self,
        path: &CompiledPath,
        start: NodeId,
        pool: &mut CursorPool,
    ) -> ItemCursor<'a> {
        ItemCursor::new(&self.doc, path, start, pool)
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

    #[test]
    fn build_and_navigate() {
        let mut arena = BufferArena::new();
        let book = arena.create_element("book", &[Attribute::new("year", "1994")]);
        let title = arena.append_element(book, "title", &[]);
        arena.append_text(title, "TCP/IP");
        let author = arena.append_element(book, "author", &[]);
        arena.append_text(author, "Stevens");
        let doc = arena.doc();
        assert_eq!(doc.children(book).len(), 2);
        assert_eq!(doc.string_value(book), "TCP/IPStevens");
        assert_eq!(doc.attribute(book, "year"), Some("1994"));
    }

    #[test]
    fn text_merging_accounts_growth() {
        let mut arena = BufferArena::new();
        let e = arena.create_element("t", &[]);
        arena.append_text(e, "ab");
        let before = arena.current_bytes();
        arena.append_text(e, "cd");
        assert_eq!(
            arena.doc().children(e).len(),
            1,
            "merged into one text node"
        );
        assert_eq!(arena.current_bytes(), before + 2);
        assert_eq!(arena.doc().string_value(e), "abcd");
    }

    #[test]
    fn free_releases_and_recycles() {
        let mut arena = BufferArena::new();
        let scope = arena.create_element("book", &[]);
        let t = arena.append_element(scope, "title", &[]);
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
        let scope2 = arena.create_element("book", &[]);
        let t2 = arena.append_element(scope2, "title", &[]);
        arena.append_text(t2, "Y");
        assert_eq!(
            arena.doc().node_count(),
            node_count_before,
            "slots recycled"
        );
        assert_eq!(arena.doc().interned_name_bytes(), dictionary);
        assert_eq!(arena.doc().string_value(scope2), "Y");
    }

    #[test]
    fn peak_tracks_maximum_live() {
        let mut arena = BufferArena::new();
        // Simulate: 3 books one at a time, each with one author.
        let mut peak_each = 0;
        for i in 0..3 {
            let scope = arena.create_element("book", &[]);
            let a = arena.append_element(scope, "author", &[]);
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
        let outer = arena.create_element("outer", &[]);
        arena.append_element(outer, "kept1", &[]);
        let inner = arena.create_element("inner", &[]);
        arena.append_element(inner, "tmp", &[]);
        arena.append_element(outer, "kept2", &[]); // interleaved with inner's life
        arena.free_scope(inner);
        arena.append_element(outer, "kept3", &[]);
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
            let scope = arena.create_element(&format!("name{i:04}"), &[]);
            arena.free_scope(scope);
            assert!(
                arena.current_bytes() > prev,
                "distinct name {i} must be visible in live bytes"
            );
            prev = arena.current_bytes();
        }
        let scope = arena.create_element("name0000", &[]);
        arena.free_scope(scope);
        assert_eq!(arena.current_bytes(), prev, "known names charge nothing");
    }

    #[test]
    fn overflow_named_event_buffers_safely() {
        // A bounded-interner stream delivers OVERFLOW + the literal name in
        // the event's side channel: buffering must neither panic nor
        // misname the node, for elements and attributes alike.
        use flux_xml::{RawEvent, RawEventKind};
        let symbols = SymbolTable::new();
        let mut arena = BufferArena::with_symbols(symbols.clone());
        let mut ev = RawEvent::new();
        ev.reset(RawEventKind::StartElement);
        ev.set_name(SymbolTable::OVERFLOW);
        ev.target_mut().push_str("mystery");
        ev.push_attr_named("oddattr").push_str("v1");
        let view = RawEventRef::from_event(&ev);
        let id = arena.create_element_view(&symbols, &view);
        assert_eq!(arena.doc().name(id), Some("mystery"));
        assert_eq!(arena.doc().attribute(id, "oddattr"), Some("v1"));
        // A second spell-alike node shares the one interned name.
        let id2 = arena.create_element_view(&symbols, &view);
        assert_eq!(arena.doc().name_sym(id), arena.doc().name_sym(id2));
    }

    #[test]
    fn steady_state_recycling_reuses_buffers() {
        // After warm-up, buffering the same shape again must not grow the
        // arena (slots, strings and attribute vectors recycle). The
        // payload repeats only *across* freed scopes — never two live
        // copies at once — so it must stay out of the shared dictionary:
        // interning it would grow resident bytes without ever saving a
        // live byte. Accounting therefore closes to zero every round.
        let mut arena = BufferArena::new();
        let payload = "A value that is long enough to matter";
        let mut floor = None;
        for round in 0..10 {
            let scope = arena.create_element("book", &[Attribute::new("year", "1994")]);
            let t = arena.append_element(scope, "title", &[]);
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
        assert_eq!(arena.doc().shared_text_bytes(), 0);
        assert!(
            arena.doc().shared_text_lookup(payload).is_none(),
            "cross-scope repetition must not intern (no live duplicates)"
        );
        assert!(
            arena.doc().node_count() <= 4,
            "arena grew past one scope's nodes: {}",
            arena.doc().node_count()
        );
    }

    #[test]
    fn gate_generations_reset_on_free() {
        // Three sightings, free, three more: still owned (each generation
        // starts the tally over). Four sightings inside a single scope
        // cross the gate — that is the profitable case, four live copies
        // sharing one dictionary entry.
        let mut arena = BufferArena::new();
        let payload = "Recurring Author Name";
        for _ in 0..2 {
            let scope = arena.create_element("bib", &[]);
            for _ in 0..3 {
                let e = arena.append_element(scope, "author", &[]);
                arena.append_text(e, payload);
            }
            arena.free_scope(scope);
        }
        assert!(arena.doc().shared_text_lookup(payload).is_none());
        let scope = arena.create_element("bib", &[]);
        for _ in 0..4 {
            let e = arena.append_element(scope, "author", &[]);
            arena.append_text(e, payload);
        }
        assert!(
            arena.doc().shared_text_lookup(payload).is_some(),
            "4 live sightings in one generation must intern"
        );
        // The dictionary entry outlives the scope that earned it: later
        // scopes buffer the payload as an index, charging the node struct
        // but none of the content an owned copy of the same length pays.
        arena.free_scope(scope);
        let scope = arena.create_element("bib", &[]);
        let e1 = arena.append_element(scope, "author", &[]);
        let before = arena.current_bytes();
        arena.append_text(e1, payload);
        let grown_shared = arena.current_bytes() - before;
        let e2 = arena.append_element(scope, "author", &[]);
        let before = arena.current_bytes();
        arena.append_text(e2, "Distinct Author NameX"); // same length, owned
        let grown_owned = arena.current_bytes() - before;
        assert_eq!(grown_owned - grown_shared, payload.len());
        arena.free_scope(scope);
    }

    #[test]
    fn repeated_text_shares_after_gate() {
        // Live buffered payloads: before the gate opens, each sighting of
        // a repeated string costs its full length; after interning, a
        // sighting costs only the node struct — N live copies charge the
        // dictionary once. Distinct long strings never intern.
        let mut arena = BufferArena::new();
        let parent = arena.create_element("bib", &[]);
        let payload = "Recurring Author";
        for _ in 0..4 {
            let e = arena.append_element(parent, "author", &[]);
            arena.append_text(e, payload);
        }
        assert!(
            arena.doc().shared_text_lookup(payload).is_some(),
            "4th sighting interned"
        );
        let shared_floor = arena.doc().shared_text_bytes();
        assert_eq!(shared_floor, 2 * payload.len());
        let before = arena.current_bytes();
        for _ in 0..100 {
            let e = arena.append_element(parent, "author", &[]);
            arena.append_text(e, payload);
        }
        let grown_shared = arena.current_bytes() - before;
        assert_eq!(arena.doc().shared_text_bytes(), shared_floor);
        // Differential: the same shape with distinct same-length payloads
        // (each seen once — they never pass the gate) additionally pays
        // every payload's content bytes.
        let before = arena.current_bytes();
        for i in 0..100 {
            let e = arena.append_element(parent, "author", &[]);
            arena.append_text(e, &format!("Author {i:09}"));
        }
        let grown_owned = arena.current_bytes() - before;
        assert_eq!(
            grown_owned - grown_shared,
            100 * payload.len(),
            "shared sightings must charge node structs only"
        );
        // A long payload is ineligible however often it repeats.
        let long = "L".repeat(100);
        for _ in 0..8 {
            let e = arena.append_element(parent, "author", &[]);
            arena.append_text(e, &long);
        }
        assert!(arena.doc().shared_text_lookup(&long).is_none());
    }

    #[test]
    fn merge_demotes_shared_trailing_text() {
        // Merging new text into a shared trailing sibling demotes it to an
        // owned copy (the merged spelling is new) and accounts the growth.
        let mut arena = BufferArena::new();
        let parent = arena.create_element("bib", &[]);
        for _ in 0..4 {
            let e = arena.append_element(parent, "a", &[]);
            arena.append_text(e, "shared");
        }
        let e = arena.append_element(parent, "a", &[]);
        arena.append_text(e, "shared"); // buffered as a dictionary reference
        let before = arena.current_bytes();
        arena.append_text(e, " plus more");
        assert_eq!(arena.doc().string_value(e), "shared plus more");
        // Growth covers the whole owned payload the demotion materialised.
        assert_eq!(arena.current_bytes() - before, "shared plus more".len());
    }
}
