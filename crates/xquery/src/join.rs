//! Key indexes for keyed loops ([`KeyedLoop`]): build once per buffered
//! sequence, probe on every later evaluation.
//!
//! A keyed loop site is indexed per *start node* — the node its source
//! path starts from. The first evaluation at a start node only marks it
//! (the loop scans, so a one-shot loop pays nothing new); the second
//! builds the index; every later one probes it. An index entry is a key
//! hash, the node's ordinal in the source sequence and the node itself —
//! key strings are never copied, and a hash collision only adds a
//! candidate the loop's filter then rejects.
//!
//! Keys follow [`compare`](crate::eval::compare)'s general-comparison
//! rule for `=` exactly: a value whose trimmed text parses as `f64` keys
//! by number (−0 folded into 0, NaN never indexed or found, since
//! `NaN = x` is false), any other value by its untrimmed text. Two values
//! are `=` iff they land on the same key.
//!
//! Indexes are keyed by [`NodeId`], so they live exactly as long as the
//! scope holding their start node: whoever frees a scope calls
//! [`CursorEvaluator::forget_scope`](crate::CursorEvaluator::forget_scope)
//! (node ids are recycled), and charges
//! [`CursorEvaluator::join_index_bytes`](crate::CursorEvaluator::join_index_bytes)
//! to its memory accounting.

use crate::compile::{CompiledPath, KeyedLoop};
use crate::cursor::{CursorItem, CursorPool, ItemCursor, PathCursor, SequenceCursor};
use crate::error::Result;
use crate::eval::string_value;
use flux_xml::tree::{Document, NodeId};
use std::collections::hash_map::{Entry, RandomState};
use std::collections::HashMap;
use std::hash::BuildHasher;

/// One indexed `(key, node)` pair.
#[derive(Debug, Clone, Copy)]
pub(crate) struct IndexEntry {
    hash: u64,
    /// Position of `node` in the source sequence (document order).
    ord: u32,
    node: NodeId,
}

/// A candidate of a probe: ordinal in the source sequence, node.
pub(crate) type Candidate = (u32, NodeId);

/// A value's key under general `=`.
#[derive(Hash)]
enum Key<'a> {
    Number(u64),
    Text(&'a str),
}

/// One loop site at one start node.
#[derive(Debug)]
struct Site {
    /// The detached root above the start node: the scope whose free ends
    /// this site.
    root: NodeId,
    /// Built on the second sighting, sorted by hash.
    index: Option<Vec<IndexEntry>>,
}

/// A built index, ready to probe.
pub(crate) struct Index<'a> {
    entries: &'a [IndexEntry],
    hasher: &'a RandomState,
}

impl Index<'_> {
    /// Appends to `out` the entries whose key equals `value`'s.
    pub(crate) fn probe(&self, value: &str, out: &mut Vec<Candidate>) {
        let Some(hash) = key_hash(self.hasher, value) else {
            return;
        };
        let first = self.entries.partition_point(|e| e.hash < hash);
        out.extend(
            self.entries[first..]
                .iter()
                .take_while(|e| e.hash == hash)
                .map(|e| (e.ord, e.node)),
        );
    }
}

/// Counters of the keyed-loop machinery, bumped per build and per probe.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JoinCounters {
    /// Indexes built (second sightings of a start node).
    pub index_builds: u64,
    /// Evaluations answered from an index.
    pub probes: u64,
    /// Candidates those probes handed to the filter, deduplicated.
    pub candidates: u64,
}

/// Every keyed-loop site's state, for one document.
#[derive(Debug, Default)]
pub(crate) struct JoinIndexes {
    sites: HashMap<(usize, NodeId), Site>,
    /// Address of the document the sites belong to: evaluating another
    /// document drops them all.
    doc: usize,
    /// Emptied index vectors, reused by the next build.
    spare: Vec<Vec<IndexEntry>>,
    /// Seeded per evaluator: keys come from the document.
    hasher: RandomState,
    live_bytes: usize,
    counters: JoinCounters,
}

impl JoinIndexes {
    /// The index of `site` at `start`, built on the second sighting;
    /// `None` on the first, which the caller answers with a scan.
    pub(crate) fn index(
        &mut self,
        doc: &Document,
        site: &KeyedLoop,
        source: &CompiledPath,
        start: NodeId,
        pool: &mut CursorPool,
        scratch: &mut String,
    ) -> Result<Option<Index<'_>>> {
        let doc_id = doc as *const Document as usize;
        if self.doc != doc_id {
            self.forget_where(|_| true);
            self.doc = doc_id;
        }
        let site_state = match self.sites.entry((site.site, start)) {
            Entry::Vacant(v) => {
                v.insert(Site {
                    root: scope_root(doc, start),
                    index: None,
                });
                return Ok(None);
            }
            Entry::Occupied(o) => o.into_mut(),
        };
        if site_state.index.is_none() {
            let mut index = self.spare.pop().unwrap_or_default();
            build(
                doc,
                source,
                &site.key,
                start,
                pool,
                scratch,
                &self.hasher,
                &mut index,
            )?;
            self.live_bytes += index.len() * std::mem::size_of::<IndexEntry>();
            self.counters.index_builds += 1;
            site_state.index = Some(index);
        }
        Ok(site_state.index.as_deref().map(|entries| Index {
            entries,
            hasher: &self.hasher,
        }))
    }

    /// Records one probe that handed `candidates` nodes to the filter.
    pub(crate) fn count_probe(&mut self, candidates: usize) {
        self.counters.probes += 1;
        self.counters.candidates += candidates as u64;
    }

    /// Drops the indexes and first-sighting marks of the scope rooted at
    /// `root`, which is being freed.
    pub(crate) fn forget_scope(&mut self, root: NodeId) {
        if !self.sites.is_empty() {
            self.forget_where(|site| site.root == root);
        }
    }

    fn forget_where(&mut self, mut doomed: impl FnMut(&Site) -> bool) {
        let (spare, live_bytes) = (&mut self.spare, &mut self.live_bytes);
        self.sites.retain(|_, site| {
            if !doomed(site) {
                return true;
            }
            if let Some(mut index) = site.index.take() {
                *live_bytes -= index.len() * std::mem::size_of::<IndexEntry>();
                index.clear();
                spare.push(index);
            }
            false
        });
    }

    /// Bytes held by live indexes: entries × entry size.
    pub(crate) fn live_bytes(&self) -> usize {
        self.live_bytes
    }

    pub(crate) fn counters(&self) -> JoinCounters {
        self.counters
    }
}

/// Indexes every node of `source` (from `start`) under each of its `key`
/// values, sorted by hash.
#[allow(clippy::too_many_arguments)]
fn build(
    doc: &Document,
    source: &CompiledPath,
    key: &CompiledPath,
    start: NodeId,
    pool: &mut CursorPool,
    scratch: &mut String,
    hasher: &RandomState,
    out: &mut Vec<IndexEntry>,
) -> Result<()> {
    let mut nodes = PathCursor::new(doc, source, start, pool);
    let mut ord = 0u32;
    while let Some(node) = nodes.next_node() {
        let mut values = ItemCursor::new(doc, key, node, pool);
        while let Some(item) = values.next_item() {
            let hash = match item {
                CursorItem::Str(s) => key_hash(hasher, s),
                CursorItem::Node(n) => {
                    string_value(doc, n, scratch)?;
                    key_hash(hasher, scratch)
                }
            };
            if let Some(hash) = hash {
                out.push(IndexEntry { hash, ord, node });
            }
        }
        values.recycle(pool);
        ord += 1;
    }
    nodes.recycle(pool);
    out.sort_unstable_by_key(|e| e.hash);
    Ok(())
}

/// The hash of `value`'s key; `None` for NaN, which equals nothing.
fn key_hash(hasher: &RandomState, value: &str) -> Option<u64> {
    let key = match value.trim().parse::<f64>() {
        Ok(x) if x.is_nan() => return None,
        // Adding +0 turns −0 into +0 and leaves every other value alone.
        Ok(x) => Key::Number((x + 0.0).to_bits()),
        Err(_) => Key::Text(value),
    };
    Some(hasher.hash_one(&key))
}

/// The detached root above `node`: a scope shell, or the document node.
fn scope_root(doc: &Document, mut node: NodeId) -> NodeId {
    while let Some(parent) = doc.parent(node) {
        node = parent;
    }
    node
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::CmpOp;
    use crate::eval::compare;

    /// Two values share a key exactly when `compare` calls them equal.
    #[test]
    fn keys_follow_general_equality() {
        let hasher = RandomState::new();
        let values = [
            "1.5", "1.50", " 7 ", "7", " a", "a", "NaN", "-0", "0", "inf", "infinity", "1e3",
            "1000", "", " ", "p7", "P7",
        ];
        for a in values {
            for b in values {
                let same_key = match (key_hash(&hasher, a), key_hash(&hasher, b)) {
                    (Some(x), Some(y)) => x == y,
                    _ => false,
                };
                assert_eq!(same_key, compare(a, b, CmpOp::Eq), "{a:?} = {b:?}");
            }
        }
    }
}
