//! # whisper-soap
//!
//! A SOAP 1.2-style messaging layer over [`whisper_xml`]: envelopes with
//! optional headers, body payloads, and the `<soap:fault>` machinery that the
//! paper identifies as the *only* error-handling mechanism plain Web services
//! offer (and that Whisper's architecture supplements with fault tolerance).
//!
//! # Examples
//!
//! Build a request, serialize it to the wire and parse it back:
//!
//! ```
//! use whisper_soap::Envelope;
//! use whisper_xml::Element;
//!
//! # fn main() -> Result<(), whisper_soap::SoapError> {
//! let mut payload = Element::new("StudentInformation");
//! payload.push_child(Element::with_text("StudentID", "u1042"));
//!
//! let request = Envelope::request(payload);
//! let wire = request.to_xml_string();
//! let parsed = Envelope::parse(&wire)?;
//! assert_eq!(parsed.body_payload().unwrap().name, "StudentInformation");
//! assert!(!parsed.is_fault());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod envelope;
mod error;
mod fault;

pub use envelope::{BodyKind, Envelope, HeaderBlock, ROLE_NEXT};
pub use error::SoapError;
pub use fault::{Fault, FaultCode};

/// Namespace URI used for Whisper SOAP envelopes (SOAP 1.2 envelope NS).
pub const SOAP_ENVELOPE_NS: &str = "http://www.w3.org/2003/05/soap-envelope";
