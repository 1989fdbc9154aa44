//! Always-on pipeline instrumentation for FluXQuery.
//!
//! The paper's evaluation is entirely per-stage measurement — buffer
//! residency under scheduling, event throughput by pipeline phase — and a
//! long-lived streaming engine cannot be debugged or profiled without
//! the same visibility. This crate is the instrumentation substrate every
//! hot-path crate embeds:
//!
//! * **Stage counters** ([`ScanCounters`] and friends) — fixed-slot `u64`
//!   fields owned by the thread doing the work and merged at join time.
//!   No atomics, no locks, no allocation; per-event paths count only what
//!   cannot be derived when the report is built.
//! * **Span timers** ([`span::Stopwatch`]) — coarse monotonic wall-clock
//!   spans (two `Instant` reads per span, never per event).
//! * **A bounded ring journal** ([`journal::Journal`]) — fixed-capacity
//!   event log for pipeline lifecycle moments (shard ready / activated /
//!   exhausted), overwriting the oldest entry when full.
//! * **A residency sampler** ([`residency::Residency`]) — a decimating
//!   high-water trace of buffered bytes over the run, sampled at scope
//!   frees and held in a fixed inline array so sampling never allocates.
//! * **The [`report::RunReport`] tree** — the serializable per-run
//!   rollup (stages → counters/spans/rates) every instrumented component
//!   appends itself to, rendered as JSON or text.
//!
//! There is one build configuration: every recorder here is plain code,
//! compiled into every binary. What that costs is measured against the
//! uninstrumented parent in `docs/OBSERVABILITY.md`.

mod counters;
pub mod journal;
pub mod json;
pub mod report;
pub mod residency;
pub mod span;

pub use counters::{BufferCounters, ReaderCounters, ScanCounters, ShardLane, XsaxCounters};
pub use journal::{Journal, JournalEvent};
pub use report::{RunReport, Stage};
pub use residency::Residency;
pub use span::Stopwatch;
