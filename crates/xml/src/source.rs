//! The pull-event source abstraction.
//!
//! [`EventSource`] is the contract between event *producers* (the
//! sequential [`XmlReader`], the parallel `flux_shard::ShardedReader`) and
//! event *consumers* (the XSAX validating parser, the FluX runtime, the
//! baselines' tree builders).
//!
//! There is one pull protocol, the **borrowed view protocol**:
//! [`EventSource::advance`] moves to the next event,
//! [`EventSource::kind`] says what it is without touching a payload, and
//! [`EventSource::view`] exposes it as a [`RawEventRef`] whose payloads
//! borrow the source's own storage — the scanner window, an event-tape
//! arena, or a recycled buffer. Delivering an event is a pointer hand-off:
//! zero copies, zero allocations.
//!
//! ## View at most once
//!
//! Building a view is not free: safe Rust can only turn the window's
//! bytes into a `&str` by checking them, so [`XmlReader::view`] makes one
//! UTF-8 pass over a borrowed text run on every call, and a tape view
//! resolves its spans. The rule for consumers is therefore: **each layer
//! views an event at most once, and a layer that does not read the
//! payload does not view it at all** — it dispatches on `kind()`. XSAX
//! reads text only inside element-content elements (the whitespace
//! check); the executor reads it only when the open frame copies or
//! buffers it. "Not viewed" never means "not checked": `advance`
//! validates every payload (well-formedness, UTF-8, entities) before it
//! returns, whether or not anyone looks at the result.
//!
//! ## Lifetime rules
//!
//! * A view is valid from the `advance` that produced it until the next
//!   `advance` on the same source. The borrow checker enforces this —
//!   `view` borrows the source shared, `advance` needs it exclusively.
//! * A consumer that must hold an event across its own pulls (XSAX parks
//!   one event while delivering queued `on-first` fires) defers its next
//!   `advance` until the event is fully delivered; one that needs owned
//!   data renders the view with [`RawEventRef::to_xml_event`].
//!
//! Names are interned in a [`SymbolTable`] owned by the source; consumers
//! written against this trait work unchanged over a single-threaded stream
//! or a sharded, multi-core one.

use crate::error::{Position, Result, XmlError};
use crate::event::{RawEventKind, RawEventRef, XmlEvent};
use crate::reader::XmlReader;
use flux_symbols::SymbolTable;
use std::io::Read;

/// A pull source of XML events, viewable without copies.
pub trait EventSource {
    /// Advances to the next event. Returns `Ok(false)` once `EndDocument`
    /// has been delivered.
    fn advance(&mut self) -> Result<bool>;

    /// The kind of the current event — a field read, no payload touched.
    /// Consumers dispatch on this and call [`EventSource::view`] only for
    /// events whose payload they read (see the module docs).
    fn kind(&self) -> RawEventKind;

    /// A borrowed view of the current event (the one the last successful
    /// [`EventSource::advance`] produced), valid until the next advance.
    /// May cost a pass over the payload: call it at most once per event.
    fn view(&self) -> RawEventRef<'_>;

    /// The interner mapping the [`flux_symbols::Symbol`]s in delivered
    /// events back to names. Sources seeded from a schema table preserve
    /// its indices, so stream symbols coincide with schema symbols.
    fn symbols(&self) -> &SymbolTable;

    /// Current input position, for error reporting. Replay sources report
    /// the position recorded when the current event was originally parsed,
    /// so errors carry exactly the sequential position.
    fn position(&self) -> Position;

    /// Appends this source's telemetry stages to `report`. The default is
    /// a no-op so third-party sources need no changes; the in-repo sources
    /// contribute scanner/reader stages (and the sharded reader its
    /// per-shard pipeline timeline).
    fn report_into(&self, report: &mut flux_telemetry::RunReport) {
        let _ = report;
    }
}

impl<R: Read> EventSource for XmlReader<R> {
    fn advance(&mut self) -> Result<bool> {
        XmlReader::advance(self)
    }

    fn kind(&self) -> RawEventKind {
        XmlReader::kind(self)
    }

    fn view(&self) -> RawEventRef<'_> {
        XmlReader::view(self)
    }

    fn symbols(&self) -> &SymbolTable {
        XmlReader::symbols(self)
    }

    fn position(&self) -> Position {
        XmlReader::position(self)
    }

    fn report_into(&self, report: &mut flux_telemetry::RunReport) {
        XmlReader::report_into(self, report)
    }
}

/// The owned-event test oracle: drains `source`, rendering every view as
/// an [`XmlEvent`]. Returns the delivered prefix and the terminal error,
/// if the stream ended in one. Allocates per event — for tests and tools.
pub fn collect_events<S: EventSource>(source: &mut S) -> (Vec<XmlEvent>, Option<XmlError>) {
    let mut events = Vec::new();
    loop {
        match source.advance() {
            Ok(true) => {
                let view = source.view();
                // Every oracle run also checks the payload-free dispatch
                // key against the view it stands in for.
                assert_eq!(source.kind(), view.kind(), "kind() disagrees with view()");
                events.push(view.to_xml_event(source.symbols()));
            }
            Ok(false) => return (events, None),
            Err(e) => return (events, Some(e)),
        }
    }
}
