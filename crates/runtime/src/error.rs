//! Runtime errors.

use flux_xquery::XQueryError;
use flux_xsax::XsaxError;
use std::fmt;

#[derive(Debug)]
pub enum RuntimeError {
    /// Input parsing/validation failure.
    Xsax(XsaxError),
    /// Buffered evaluation failure.
    Eval(XQueryError),
    /// Output serialisation failure.
    Output(flux_xml::XmlError),
    /// Inconsistent plan (compiler bug surfaced as an error).
    Plan { message: String },
    /// The run's tracked memory peak exceeded its configured
    /// [`flux_xml::MemoryBudget`] (checked post-run by the engine).
    /// Boxed: the per-pool breakdown would otherwise dominate the size of
    /// every `Result` on the hot path.
    Budget(Box<flux_xml::BudgetExceeded>),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Xsax(e) => write!(f, "{e}"),
            RuntimeError::Eval(e) => write!(f, "{e}"),
            RuntimeError::Output(e) => write!(f, "output error: {e}"),
            RuntimeError::Plan { message } => write!(f, "plan error: {message}"),
            RuntimeError::Budget(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RuntimeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RuntimeError::Xsax(e) => Some(e),
            RuntimeError::Eval(e) => Some(e),
            RuntimeError::Output(e) => Some(e),
            RuntimeError::Plan { .. } => None,
            RuntimeError::Budget(e) => Some(e.as_ref()),
        }
    }
}

impl From<XsaxError> for RuntimeError {
    fn from(e: XsaxError) -> Self {
        match e {
            XsaxError::Output(e) => RuntimeError::Output(e),
            e => RuntimeError::Xsax(e),
        }
    }
}

impl From<XQueryError> for RuntimeError {
    fn from(e: XQueryError) -> Self {
        RuntimeError::Eval(e)
    }
}

impl From<flux_xml::XmlError> for RuntimeError {
    fn from(e: flux_xml::XmlError) -> Self {
        RuntimeError::Output(e)
    }
}

impl From<flux_xml::BudgetExceeded> for RuntimeError {
    fn from(e: flux_xml::BudgetExceeded) -> Self {
        RuntimeError::Budget(Box::new(e))
    }
}

pub type Result<T> = std::result::Result<T, RuntimeError>;
