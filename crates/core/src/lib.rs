//! # fluxquery-core
//!
//! The public API of the FluXQuery engine: compile an XQuery against a DTD,
//! run it over XML streams, inspect the optimizer's decisions, and compare
//! against the two baseline architectures from the paper's evaluation.
//!
//! ```
//! use fluxquery_core::{FluxEngine, Input, Options};
//!
//! let dtd = "<!ELEMENT bib (book)*>
//!            <!ELEMENT book (title|author)*>
//!            <!ELEMENT title (#PCDATA)>
//!            <!ELEMENT author (#PCDATA)>";
//! let query = r#"<results>{ for $b in $ROOT/bib/book return
//!                  <result>{$b/title}{$b/author}</result> }</results>"#;
//! let engine = FluxEngine::compile(query, dtd, &Options::default()).unwrap();
//! let mut out = Vec::new();
//! let doc = "<bib><book><author>A</author><title>T</title></book></bib>";
//! let stats = engine.run_input(Input::from_bytes(doc), &mut out).unwrap();
//! assert_eq!(
//!     String::from_utf8(out).unwrap(),
//!     "<results><result><title>T</title><author>A</author></result></results>"
//! );
//! assert!(stats.peak_buffer_bytes > 0); // the author was buffered
//! ```

pub mod engine;
pub mod error;

pub use engine::{AnyEngine, EngineKind, FluxEngine, Options, Parallelism};
pub use error::{Error, Result};

// Re-export the building blocks for advanced users.
pub use flux_baseline::{DomEngine, ProjectionEngine};
pub use flux_dtd::{Dtd, Symbol, SymbolTable, PAPER_FIG1_DTD, PAPER_UNSAFE_DTD, PAPER_WEAK_DTD};
pub use flux_lang::{CompileOptions, FluxQuery};
pub use flux_runtime::{RunReport, RunStats};
pub use flux_xml::{BudgetExceeded, BudgetKind, Input, MemoryBudget, DEFAULT_WINDOW};
