//! XSAX events and past-query registrations.

use flux_dtd::{Symbol, SymbolTable};
use flux_xml::XmlWriter;
use std::collections::BTreeSet;
use std::fmt;
use std::io::Write;

/// Handle for a registered past query, assigned by
/// [`crate::XsaxParser::register_past`] in registration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PastId(pub u32);

impl PastId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The label set of a past query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PastLabels {
    /// A finite set of child labels; may include [`SymbolTable::TEXT`],
    /// which can only become "past" at the closing tag when the element
    /// allows character data.
    Labels(BTreeSet<Symbol>),
    /// Everything below the element — fires only at the closing tag. Used
    /// when a handler needs the whole subtree (e.g. `{$x}`).
    All,
}

impl PastLabels {
    pub fn labels(syms: impl IntoIterator<Item = Symbol>) -> Self {
        PastLabels::Labels(syms.into_iter().collect())
    }

    /// True when the set mentions the text pseudo-label.
    pub fn mentions_text(&self) -> bool {
        match self {
            PastLabels::Labels(set) => set.contains(&SymbolTable::TEXT),
            PastLabels::All => true,
        }
    }
}

impl fmt::Display for PastLabels {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PastLabels::Labels(set) => {
                write!(f, "past(")?;
                for (i, s) in set.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{s}")?;
                }
                write!(f, ")")
            }
            PastLabels::All => write!(f, "past(*)"),
        }
    }
}

/// The result of one [`crate::XsaxParser::next_step`] pull.
///
/// `Sax` means [`crate::XsaxParser::view`] now shows the next validated
/// event; `Fire` is a fired past query (the view is left untouched).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum XsaxStep {
    Sax,
    /// The registered query `id` fired for the instance of its element type
    /// at nesting `depth` (root = 1).
    Fire {
        id: PastId,
        depth: usize,
    },
}

/// What the walk of a streamed scope ([`crate::XsaxParser::walk`]) does
/// with a child element, decided per child label at plan compile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChildAction {
    /// The consumer reads the child: the walk stops in front of it, and
    /// it is delivered as ever.
    #[default]
    Deliver,
    /// The consumer only copies the child to the output: the walk writes
    /// it there.
    Copy,
    /// The consumer only keeps the child as print-only bytes in the
    /// scope's buffer: the walk captures it there ([`WalkSink`]).
    Capture,
    /// Nothing reads the child: the walk passes over it.
    Skip,
}

/// Where a walk puts what it settles: copies go to the output writer,
/// captures to the consumer's buffer for the walked scope.
pub trait WalkSink {
    type Output: Write;

    /// The writer copies are written to.
    fn output(&mut self) -> &mut XmlWriter<Self::Output>;

    /// Opens the capture of a child the walk serializes event by event:
    /// it writes the child to the returned writer, then calls
    /// [`WalkSink::seal`].
    fn capture(&mut self) -> &mut XmlWriter<Vec<u8>>;

    /// Keeps the child written since [`WalkSink::capture`], named `name`.
    fn seal(&mut self, name: Symbol) -> flux_xml::Result<()>;

    /// Keeps a child named `name` whose serialization is `span`, as the
    /// capture writer would have written it.
    fn seal_span(&mut self, name: Symbol, span: &[u8]) -> flux_xml::Result<()>;
}

/// What one [`crate::XsaxParser::walk`] settled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Walked {
    pub copied_subtrees: u64,
    /// Bytes the copies wrote to the output.
    pub copied_bytes: u64,
    pub captured_subtrees: u64,
    /// Bytes the captures kept, as the capture writer spells them.
    pub captured_bytes: u64,
    pub skipped_subtrees: u64,
    /// Bytes passed over, each child's from after its start tag through
    /// its end tag, as [`crate::XsaxParser::skip_element`] counts them.
    pub skipped_bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn past_labels_text_detection() {
        assert!(PastLabels::All.mentions_text());
        assert!(PastLabels::labels([SymbolTable::TEXT]).mentions_text());
        assert!(!PastLabels::labels([]).mentions_text());
    }
}
