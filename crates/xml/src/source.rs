//! The pull-event source abstraction.
//!
//! [`EventSource`] is the contract between event *producers* (the
//! sequential [`XmlReader`], the parallel `flux_shard::ShardedReader`) and
//! event *consumers* (the XSAX validating parser, the FluX runtime, the
//! baselines' tree builders).
//!
//! There is one pull protocol, the **borrowed view protocol**:
//! [`EventSource::advance`] moves to the next event and
//! [`EventSource::view`] exposes it as a [`RawEventRef`] whose payloads
//! borrow the source's own storage — the scanner window, an event-tape
//! arena, or a recycled buffer. Delivering an event is a pointer hand-off:
//! zero copies, zero allocations.
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
use crate::event::{RawEventRef, XmlEvent};
use crate::reader::XmlReader;
use flux_symbols::SymbolTable;
use std::io::Read;

/// A pull source of XML events, viewable without copies.
pub trait EventSource {
    /// Advances to the next event. Returns `Ok(false)` once `EndDocument`
    /// has been delivered.
    fn advance(&mut self) -> Result<bool>;

    /// A borrowed view of the current event (the one the last successful
    /// [`EventSource::advance`] produced), valid until the next advance.
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
            Ok(true) => events.push(source.view().to_xml_event(source.symbols())),
            Ok(false) => return (events, None),
            Err(e) => return (events, Some(e)),
        }
    }
}
