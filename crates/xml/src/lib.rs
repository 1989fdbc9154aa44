//! # flux-xml
//!
//! Streaming XML infrastructure for the FluXQuery engine: a from-scratch
//! pull parser ([`XmlReader`]), a streaming serialiser ([`XmlWriter`]), the
//! shared SAX-style event model ([`XmlEvent`]), entity escaping, and a
//! memory-accounted arena document tree ([`Document`]).
//!
//! The reader never materialises the document; its memory use is bounded by
//! the largest single token plus its interner, which a closed reader — the
//! source of every sequential validated run — never grows past the DTD's
//! vocabulary. That property is load-bearing for the paper's claims:
//! FluXQuery's buffer consumption is determined by the query and the DTD,
//! not by the document size, and the parsing layer must not undermine that.
//!
//! Every source speaks one pull protocol ([`EventSource`]):
//! [`XmlReader::advance`] rewrites one recycled [`RawEvent`] in place, with
//! element and attribute names as [`Symbol`]s from the reader's
//! [`SymbolTable`] (seedable from a schema via [`XmlReader::with_symbols`])
//! and recycled text/value buffers, and [`XmlReader::view`] lends it out as
//! a [`RawEventRef`] — zero heap allocations per event in the steady
//! state. [`parse_to_events`] / [`collect_events`] render views as owned
//! [`XmlEvent`]s for tests and tools.

pub mod error;
pub mod escape;
pub mod event;
pub mod input;
pub mod reader;
pub mod scan;
mod scanner;
pub mod simd;
pub mod source;
pub mod tape;
pub mod tree;
pub mod writer;

pub use error::{Position, Result, XmlError};
pub use event::{
    AttrRef, Attribute, AttrsIter, RawAttr, RawEvent, RawEventKind, RawEventRef, XmlEvent,
};
pub use flux_symbols::{Symbol, SymbolTable};
pub use input::{BudgetCharge, BudgetExceeded, BudgetKind, Input, MemoryBudget, DEFAULT_WINDOW};
pub use reader::{is_name_start, parse_to_events, PlainStart, ReaderConfig, XmlReader};
pub use simd::{active_isa_name, StructuralIndex};
pub use source::{collect_events, EventSource};
pub use tape::{EventTape, SymbolRemap};
pub use tree::{Document, NodeAttr, NodeId, NodeKind, TextGate, TreeBuilder};
pub use writer::{events_to_string, XmlWriter};
