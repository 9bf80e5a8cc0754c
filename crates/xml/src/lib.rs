//! # whisper-xml
//!
//! A small, dependency-free, namespace-aware XML library used by every layer
//! of the Whisper stack (SOAP envelopes, WSDL/WSDL-S descriptions, OWL
//! ontology documents and JXTA-style advertisements).
//!
//! The library provides:
//!
//! * an owned document model ([`Document`], [`Element`], [`Node`]),
//! * a recursive-descent parser ([`parse`], [`parse_document`]) for the
//!   well-formed subset of XML 1.0 that the Whisper protocols emit
//!   (elements, attributes, namespaces, character data, CDATA, comments,
//!   processing instructions and the five predefined entities plus numeric
//!   character references),
//! * [`scan_start_tags`], the same parser walked for its start tags only —
//!   for callers that need an element's name, not its tree,
//! * a serializer ([`Element::to_xml`], [`Element::to_pretty_xml`]) that
//!   round-trips everything the parser accepts,
//! * ergonomic construction and navigation helpers.
//!
//! # Examples
//!
//! ```
//! use whisper_xml::{Element, parse};
//!
//! # fn main() -> Result<(), whisper_xml::XmlError> {
//! let mut root = Element::new("definitions");
//! root.set_attr("name", "StudentManagement");
//! root.push_child(Element::with_text("documentation", "student services"));
//!
//! let text = root.to_xml();
//! let back = parse(&text)?;
//! assert_eq!(back.attr("name"), Some("StudentManagement"));
//! assert_eq!(
//!     back.child("documentation").map(|d| d.text()),
//!     Some("student services".to_string())
//! );
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod document;
mod error;
mod escape;
mod intern;
mod name;
mod parser;
mod writer;

pub use document::{Attribute, Document, Element, Node};
pub use error::XmlError;
pub use escape::{escape_attr, escape_text, unescape};
pub use intern::{intern, IStr};
pub use name::QName;
pub use parser::{parse, parse_document, scan_start_tags, StartTag, MAX_DEPTH};

/// The XML namespace URI reserved for the `xml:` prefix.
pub const XML_NS: &str = "http://www.w3.org/XML/1998/namespace";
/// The XML namespace URI reserved for the `xmlns:` prefix.
pub const XMLNS_NS: &str = "http://www.w3.org/2000/xmlns/";
