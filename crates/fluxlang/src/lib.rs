//! # flux-lang
//!
//! The **FluX** internal query language and the paper's query optimizer:
//!
//! * [`ast`] — `process-stream` / `on` / `on-first past(L)` abstract syntax;
//! * [`algebra`] — algebraic optimization with cardinality and language
//!   constraints (loop merging, unsatisfiable-conditional elimination);
//! * [`rewrite`] — the order-constraint scheduler turning normal-form
//!   XQuery into FluX with minimized buffering;
//! * [`safety`] — the independent "safe FluX" checker;
//! * [`optimizer`] — the end-to-end compilation pipeline with explain
//!   output.

pub mod algebra;
pub mod ast;
pub mod error;
pub mod optimizer;
pub mod pretty;
pub mod rewrite;
pub mod safety;

pub use algebra::{Optimizer, RuleApplication};
pub use ast::{FluxExpr, Handler, PastSet};
pub use error::{FluxError, Result};
pub use optimizer::{compile, compile_expr, CompileOptions, FluxQuery};
pub use pretty::pretty_flux;
pub use rewrite::Rewriter;
pub use safety::check_safety;
