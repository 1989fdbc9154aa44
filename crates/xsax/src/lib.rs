//! # flux-xsax
//!
//! The **XSAX** validating SAX parser of the paper (Sec. 3.2): an extension
//! of a standard SAX parser that validates the stream against a DTD and, in
//! addition to the customary events, produces **`on-first` events**.
//!
//! A consumer registers *past queries* — pairs of an element type `E` and a
//! label set `L` — before streaming starts. While an `E` element is open,
//! XSAX runs `E`'s content-model DFA over the child labels; the registered
//! query fires **exactly once per `E` instance**, at the earliest point in
//! the stream where the DTD implies that no further child with a label in
//! `L` can be encountered. At that point, any buffers holding `$e/l` paths
//! (`l ∈ L`) are guaranteed complete, which is what makes FluX `on-first
//! past(L)` handlers safe to execute.
//!
//! Event ordering contract (what the FluXQuery evaluator relies on):
//!
//! * a fired [`XsaxStep::Fire`] is delivered **before** the
//!   `StartElement` of the child whose arrival triggered it, or **after**
//!   the `EndElement` of the child that completed the last possible `L`
//!   match, or **before** the `EndElement` of the `E` instance itself —
//!   always at the exact seam between siblings where the guarantee starts
//!   to hold;
//! * multiple registrations firing at the same seam are delivered in
//!   registration order.

pub mod error;
pub mod event;
pub mod parser;

pub use error::{Result, XsaxError};
pub use event::{ChildAction, PastId, PastLabels, Walked, XsaxStep};
pub use parser::{seeded_reader, seeded_symbols, trace, validate, XsaxParser};
