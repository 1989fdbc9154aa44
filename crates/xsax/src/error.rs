//! Errors produced by the XSAX validating parser.

use flux_xml::{Position, XmlError};
use std::fmt;

/// A parsing or validation failure.
#[derive(Debug)]
pub enum XsaxError {
    /// The underlying XML stream is malformed.
    Xml(XmlError),
    /// The stream is well-formed but violates the DTD.
    Validation { message: String, pos: Position },
    /// The parser was configured inconsistently (e.g. no root element known).
    Config { message: String },
    /// Writing a walked copy to the output failed
    /// ([`crate::XsaxParser::walk`]).
    Output(XmlError),
}

impl fmt::Display for XsaxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XsaxError::Xml(e) => write!(f, "{e}"),
            XsaxError::Validation { message, pos } => {
                write!(f, "validation error at {pos}: {message}")
            }
            XsaxError::Config { message } => write!(f, "XSAX configuration error: {message}"),
            XsaxError::Output(e) => write!(f, "output error: {e}"),
        }
    }
}

impl std::error::Error for XsaxError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            XsaxError::Xml(e) | XsaxError::Output(e) => Some(e),
            _ => None,
        }
    }
}

impl From<XmlError> for XsaxError {
    fn from(e: XmlError) -> Self {
        XsaxError::Xml(e)
    }
}

pub type Result<T> = std::result::Result<T, XsaxError>;
