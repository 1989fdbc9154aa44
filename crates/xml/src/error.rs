//! Error type shared by the XML reader, writer and tree builder.

use std::fmt;

/// Position of an error in the input byte stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Position {
    /// Byte offset from the start of the stream.
    pub offset: u64,
    /// 1-based line number.
    pub line: u64,
    /// 1-based column number (in bytes, not characters). 64 bits wide: a
    /// single-line multi-GB feed passes column 2³² without wrapping.
    pub column: u64,
}

impl Position {
    /// The position `len` bytes further on, given that span's newline
    /// count and the offset of its last newline within it.
    pub(crate) fn advanced(self, len: usize, newlines: u64, last_newline: Option<usize>) -> Self {
        Position {
            offset: self.offset + len as u64,
            line: self.line + newlines,
            column: match last_newline {
                Some(at) => (len - at) as u64,
                None => self.column + len as u64,
            },
        }
    }
}

impl fmt::Display for Position {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}, column {}", self.line, self.column)
    }
}

/// Errors produced while reading or writing XML.
#[derive(Debug)]
pub enum XmlError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The input ended in the middle of a construct.
    UnexpectedEof {
        expected: &'static str,
        pos: Position,
    },
    /// A syntactic error in the input.
    Syntax { message: String, pos: Position },
    /// A well-formedness violation (mismatched tags, duplicate attributes, ...).
    WellFormedness { message: String, pos: Position },
    /// An undefined entity reference such as `&foo;`.
    UnknownEntity { name: String, pos: Position },
    /// Invalid UTF-8 in element content or names.
    InvalidUtf8 { pos: Position },
    /// The writer was used out of order (e.g. closing an element that is not open).
    WriterMisuse { message: String },
    /// A caller broke a contract no input can break (a bug, not bad data).
    Internal { message: String },
}

impl XmlError {
    /// Position of the error in the input, when known.
    pub fn position(&self) -> Option<Position> {
        match self {
            XmlError::Io(_) | XmlError::WriterMisuse { .. } | XmlError::Internal { .. } => None,
            XmlError::UnexpectedEof { pos, .. }
            | XmlError::Syntax { pos, .. }
            | XmlError::WellFormedness { pos, .. }
            | XmlError::UnknownEntity { pos, .. }
            | XmlError::InvalidUtf8 { pos } => Some(*pos),
        }
    }
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XmlError::Io(e) => write!(f, "I/O error: {e}"),
            XmlError::UnexpectedEof { expected, pos } => {
                write!(f, "unexpected end of input at {pos}, expected {expected}")
            }
            XmlError::Syntax { message, pos } => write!(f, "XML syntax error at {pos}: {message}"),
            XmlError::WellFormedness { message, pos } => {
                write!(f, "not well-formed at {pos}: {message}")
            }
            XmlError::UnknownEntity { name, pos } => {
                write!(f, "unknown entity `&{name};` at {pos}")
            }
            XmlError::InvalidUtf8 { pos } => write!(f, "invalid UTF-8 at {pos}"),
            XmlError::WriterMisuse { message } => write!(f, "writer misuse: {message}"),
            XmlError::Internal { message } => write!(f, "internal error: {message}"),
        }
    }
}

impl std::error::Error for XmlError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            XmlError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for XmlError {
    fn from(e: std::io::Error) -> Self {
        XmlError::Io(e)
    }
}

/// Convenient result alias for XML operations.
pub type Result<T> = std::result::Result<T, XmlError>;

#[cfg(test)]
mod tests {
    use super::*;

    const TWO_32: u64 = 1 << 32;

    #[test]
    fn columns_pass_two_to_the_32_without_wrapping() {
        // A single-line document: the column tracks the offset past 4 GiB.
        let near = Position {
            offset: TWO_32 - 4,
            line: 1,
            column: TWO_32 - 3,
        };
        let past = near.advanced(10, 0, None);
        assert_eq!(
            (past.offset, past.line, past.column),
            (TWO_32 + 6, 1, TWO_32 + 7)
        );
        assert_eq!(past.to_string(), format!("line 1, column {}", TWO_32 + 7));
        // A newline inside the span restarts the column from it.
        let wrapped = past.advanced((TWO_32 + 5) as usize, 2, Some(TWO_32 as usize));
        assert_eq!((wrapped.line, wrapped.column), (3, 5));
        assert_eq!(wrapped.offset, 2 * TWO_32 + 11);
    }
}
