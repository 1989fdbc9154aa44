//! # flux-baseline
//!
//! The two comparison engines of the paper's evaluation:
//!
//! * [`DomEngine`] — materialise the whole document, then evaluate (the
//!   memory architecture of conventional main-memory XQuery engines);
//! * [`ProjectionEngine`] — stream, materialise only the query's projection
//!   paths, then evaluate (Marian & Siméon, the paper's reference \[10\]).
//!
//! Both use the same parser, tree and interpreter as the FluXQuery engine,
//! so measured differences reflect the *architecture* (what must be
//! buffered), not incidental implementation differences. Neither validates
//! against the DTD nor exploits it — that is precisely what FluXQuery adds.

pub mod dom;
pub mod error;
pub mod projection;

pub use dom::DomEngine;
pub use error::{BaselineError, Result};
pub use projection::ProjectionEngine;

use flux_xml::{Input, MemoryBudget, SymbolTable, XmlError, XmlReader};
use std::io::Read;
use std::sync::Arc;

/// What [`open_reader`] hands back: the run's reader and the input's
/// budget for post-run enforcement.
pub(crate) type OpenedReader = (XmlReader<Box<dyn Read + Send>>, Option<Arc<MemoryBudget>>);

/// Opens a unified [`Input`] for a baseline run: resolves the source
/// (path/gzip/stream), threads the input's window and budget into an open
/// reader seeded with the engine's label table, and hands back the budget
/// so the caller can fold in the run's buffer peak and enforce the limit
/// post-run.
pub(crate) fn open_reader(input: Input, symbols: &SymbolTable) -> Result<OpenedReader> {
    let budget = input.memory_budget().cloned();
    let config = input.reader_config();
    let source = input.into_source().map_err(XmlError::from)?;
    Ok((
        XmlReader::with_symbols(source, config, symbols.clone()),
        budget,
    ))
}

/// Post-run budget enforcement shared by both baselines: fold the
/// evaluator's buffer peak into the budget, then check the limit.
pub(crate) fn enforce_budget(
    budget: Option<Arc<MemoryBudget>>,
    peak_buffer_bytes: usize,
) -> Result<()> {
    if let Some(b) = budget {
        b.record_peak(flux_xml::BudgetKind::Buffer, peak_buffer_bytes as u64);
        b.check()?;
    }
    Ok(())
}
