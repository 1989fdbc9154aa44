//! # flux-runtime
//!
//! The FluXQuery runtime engine (paper Sec. 3.2): the query compiler
//! producing physical plans with a **Buffer Description Forest** ([`bdf`]),
//! the memory-accounted **buffer store** ([`buffer`]), and the **streamed
//! query evaluator** ([`exec`]) driving XSAX events through the plan and
//! emitting the result as an XML stream.

pub mod bdf;
pub mod buffer;
pub mod error;
pub mod exec;
pub mod plan;
pub mod stats;

pub use bdf::{SpecArena, SpecEdge, SpecId, SpecNode};
pub use buffer::BufferArena;
pub use error::{Result, RuntimeError};
pub use exec::execute;
pub use flux_telemetry::RunReport;
pub use plan::{compile_plan, Plan, PsId};
pub use stats::{MemoryTracker, RunStats};
