//! Error type for XML parsing.

use std::error::Error;
use std::fmt;

/// An error produced while parsing an XML document.
///
/// Carries the byte offset at which the problem was detected together with a
/// classification of what went wrong, so callers can produce useful
/// diagnostics for malformed SOAP messages or advertisements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlError {
    kind: ErrorKind,
    /// Byte offset into the input at which the error was detected.
    offset: usize,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ErrorKind {
    /// The input ended before the document was complete.
    UnexpectedEof,
    /// A character that is not allowed at this position.
    UnexpectedChar(char),
    /// An end tag did not match the open element.
    MismatchedTag { expected: String, found: String },
    /// An entity reference could not be resolved.
    BadEntity(String),
    /// An element or attribute name is empty or contains invalid characters.
    BadName(String),
    /// The same attribute appears twice on one element.
    DuplicateAttribute(String),
    /// Trailing non-whitespace content after the document element.
    TrailingContent,
    /// The document contains no root element.
    NoRootElement,
    /// A namespace prefix was used without being declared.
    UndeclaredPrefix(String),
    /// Malformed XML declaration, comment, CDATA or processing instruction.
    BadMarkup(&'static str),
    /// Elements nest deeper than the parser's cap (carried here).
    DepthExceeded(usize),
}

impl XmlError {
    pub(crate) fn new(kind: ErrorKind, offset: usize) -> Self {
        XmlError { kind, offset }
    }

    /// Byte offset into the input at which the error was detected.
    pub fn offset(&self) -> usize {
        self.offset
    }
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            ErrorKind::UnexpectedEof => write!(f, "unexpected end of input"),
            ErrorKind::UnexpectedChar(c) => write!(f, "unexpected character {c:?}"),
            ErrorKind::MismatchedTag { expected, found } => {
                write!(
                    f,
                    "mismatched end tag: expected </{expected}>, found </{found}>"
                )
            }
            ErrorKind::BadEntity(e) => write!(f, "unknown or malformed entity reference &{e};"),
            ErrorKind::BadName(n) => write!(f, "invalid XML name {n:?}"),
            ErrorKind::DuplicateAttribute(a) => write!(f, "duplicate attribute {a:?}"),
            ErrorKind::TrailingContent => write!(f, "content after document element"),
            ErrorKind::NoRootElement => write!(f, "document has no root element"),
            ErrorKind::UndeclaredPrefix(p) => write!(f, "undeclared namespace prefix {p:?}"),
            ErrorKind::BadMarkup(what) => write!(f, "malformed {what}"),
            ErrorKind::DepthExceeded(cap) => write!(f, "elements nested deeper than {cap} levels"),
        }?;
        write!(f, " at byte {}", self.offset)
    }
}

impl Error for XmlError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_offset_and_kind() {
        let e = XmlError::new(ErrorKind::UnexpectedEof, 42);
        let s = e.to_string();
        assert!(s.contains("unexpected end of input"));
        assert!(s.contains("42"));
        assert_eq!(e.offset(), 42);
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<XmlError>();
    }

    #[test]
    fn mismatched_tag_message_names_both_tags() {
        let e = XmlError::new(
            ErrorKind::MismatchedTag {
                expected: "a".into(),
                found: "b".into(),
            },
            7,
        );
        let s = e.to_string();
        assert!(s.contains("</a>"), "{s}");
        assert!(s.contains("</b>"), "{s}");
    }
}
