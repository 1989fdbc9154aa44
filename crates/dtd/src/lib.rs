//! # flux-dtd
//!
//! DTD parsing and schema reasoning for FluXQuery.
//!
//! Content models are compiled via the Glushkov construction
//! ([`glushkov::glushkov`]) and subset construction ([`dfa::Dfa`]) into per-element
//! child-sequence DFAs. All of the paper's schema constraints are then
//! product-construction queries on those DFAs:
//!
//! * **cardinality constraints** (`a ∈ ||≤1 r`, Sec. 3.1): [`Dtd::at_most_one`];
//! * **order constraints** ("all titles precede all authors", Sec. 2/3.1):
//!   [`Dtd::all_before`];
//! * **language constraints** ("no book has both author and editor
//!   children", Sec. 3.1): [`Dtd::never_together`];
//! * the **`past(L)` analysis** that drives XSAX `on-first` events and FluX
//!   safety (Sec. 2): [`dfa::Dfa::still_possible`].

pub mod content_model;
pub mod dfa;
pub mod dtd;
pub mod error;
pub mod glushkov;
pub mod parser;
pub mod symbol;

pub use content_model::{AttDef, AttDefault, ContentSpec, Particle};
pub use dfa::{Dfa, StateId};
pub use dtd::{Dtd, ElementDecl};
pub use error::{DtdError, Result};
pub use glushkov::glushkov;
pub use symbol::{Symbol, SymbolTable};

/// The weak bibliography DTD from Section 2 of the paper.
pub const PAPER_WEAK_DTD: &str = "<!ELEMENT bib (book)*>\n\
     <!ELEMENT book (title|author)*>\n\
     <!ELEMENT title (#PCDATA)>\n\
     <!ELEMENT author (#PCDATA)>";

/// The strong bibliography DTD from Figure 1 of the paper.
pub const PAPER_FIG1_DTD: &str = "<!ELEMENT bib (book)*>\n\
     <!ELEMENT book (title,(author+|editor+),publisher,price)>\n\
     <!ELEMENT title (#PCDATA)>\n\
     <!ELEMENT author (#PCDATA)>\n\
     <!ELEMENT editor (#PCDATA)>\n\
     <!ELEMENT publisher (#PCDATA)>\n\
     <!ELEMENT price (#PCDATA)>";

/// The order-violating variant discussed in Section 2 (price after a
/// title/author soup) used to demonstrate unsafe FluX queries.
pub const PAPER_UNSAFE_DTD: &str = "<!ELEMENT bib (book)*>\n\
     <!ELEMENT book ((title|author)*,price)>\n\
     <!ELEMENT title (#PCDATA)>\n\
     <!ELEMENT author (#PCDATA)>\n\
     <!ELEMENT price (#PCDATA)>";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_dtds_parse() {
        assert!(Dtd::parse(PAPER_WEAK_DTD).is_ok());
        assert!(Dtd::parse(PAPER_FIG1_DTD).is_ok());
        assert!(Dtd::parse(PAPER_UNSAFE_DTD).is_ok());
    }

    #[test]
    fn unsafe_dtd_price_after_everything() {
        let dtd = Dtd::parse(PAPER_UNSAFE_DTD).unwrap();
        let book = dtd.lookup("book").unwrap();
        let title = dtd.lookup("title").unwrap();
        let author = dtd.lookup("author").unwrap();
        let price = dtd.lookup("price").unwrap();
        assert!(dtd.all_before(book, title, price));
        assert!(dtd.all_before(book, author, price));
        assert!(!dtd.all_before(book, price, title));
        assert!(!dtd.all_before(book, title, author));
    }
}
