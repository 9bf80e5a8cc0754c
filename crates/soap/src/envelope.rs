//! SOAP envelopes: header blocks and body payloads.

use crate::fault::Fault;
use crate::{SoapError, SOAP_ENVELOPE_NS};
use std::borrow::Cow;
use std::ops::ControlFlow;
use whisper_xml::{parse, scan_start_tags, Element, Node, QName};

/// A header block: an application element plus SOAP processing attributes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeaderBlock {
    /// The header content.
    pub content: Element,
    /// Whether the receiver must understand this block to process the
    /// message ([`Envelope::validate_must_understand`]).
    pub must_understand: bool,
    /// The SOAP 1.2 `role` this block targets (`None` = ultimate
    /// receiver). Intermediaries such as Whisper relays only process blocks
    /// addressed to [`ROLE_NEXT`].
    pub role: Option<String>,
}

/// The SOAP 1.2 role every node on a message path plays.
pub const ROLE_NEXT: &str = "http://www.w3.org/2003/05/soap-envelope/role/next";

impl HeaderBlock {
    /// Creates an optional (non-`mustUnderstand`) header block targeting
    /// the ultimate receiver.
    pub fn new(content: Element) -> Self {
        HeaderBlock {
            content,
            must_understand: false,
            role: None,
        }
    }

    /// Marks the block as `mustUnderstand`.
    pub fn required(mut self) -> Self {
        self.must_understand = true;
        self
    }

    /// Targets the block at a SOAP role (e.g. [`ROLE_NEXT`]).
    pub fn for_role(mut self, role: impl Into<String>) -> Self {
        self.role = Some(role.into());
        self
    }

    /// The block as it goes on the wire: its content, carrying the
    /// processing attributes when there are any to carry.
    fn to_element(&self) -> Cow<'_, Element> {
        if !self.must_understand && self.role.is_none() {
            return Cow::Borrowed(&self.content);
        }
        let mut c = self.content.clone();
        if self.must_understand {
            c.set_attr("mustUnderstand", "true");
        }
        if let Some(role) = &self.role {
            c.set_attr("role", role.clone());
        }
        Cow::Owned(c)
    }

    /// Splits a parsed header element into content and processing
    /// attributes.
    fn from_element(mut content: Element) -> Self {
        let must_understand = content
            .attr("mustUnderstand")
            .is_some_and(|v| v == "true" || v == "1");
        let role = content.attr("role").map(str::to_string);
        content
            .attrs
            .retain(|a| a.name != "mustUnderstand" && a.name != "role");
        HeaderBlock {
            content,
            must_understand,
            role,
        }
    }
}

/// A SOAP envelope: optional header blocks plus exactly one body, which is
/// either an application payload or a [`Fault`].
///
/// # Examples
///
/// ```
/// use whisper_soap::{Envelope, Fault, FaultCode};
/// use whisper_xml::Element;
///
/// let fault = Envelope::fault(Fault::new(FaultCode::Receiver, "down"));
/// assert!(fault.is_fault());
///
/// let ok = Envelope::request(Element::with_text("Ping", "1"));
/// assert!(!ok.is_fault());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Header blocks in document order.
    pub headers: Vec<HeaderBlock>,
    body: Body,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Body {
    Payload(Element),
    Fault(Fault),
    Empty,
}

/// What an envelope's body holds, as far as [`Envelope::peek_body`] looks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BodyKind<'a> {
    /// No child element.
    Empty,
    /// A `<soap:Fault>`.
    Fault,
    /// An application payload with this local name.
    Payload(&'a str),
}

impl Envelope {
    /// Creates a request/response envelope carrying `payload`.
    pub fn request(payload: Element) -> Self {
        Envelope {
            headers: Vec::new(),
            body: Body::Payload(payload),
        }
    }

    /// Creates a fault envelope.
    pub fn fault(fault: Fault) -> Self {
        Envelope {
            headers: Vec::new(),
            body: Body::Fault(fault),
        }
    }

    /// Creates an envelope with an empty body (one-way acknowledgements).
    pub fn empty() -> Self {
        Envelope {
            headers: Vec::new(),
            body: Body::Empty,
        }
    }

    /// Adds a header block, returning `self` for chaining.
    pub fn with_header(mut self, block: HeaderBlock) -> Self {
        self.headers.push(block);
        self
    }

    /// Whether the body carries a fault.
    pub fn is_fault(&self) -> bool {
        matches!(self.body, Body::Fault(_))
    }

    /// The body payload, unless this is a fault or empty envelope.
    pub fn body_payload(&self) -> Option<&Element> {
        match &self.body {
            Body::Payload(e) => Some(e),
            _ => None,
        }
    }

    /// The fault, if the body carries one.
    pub fn as_fault(&self) -> Option<&Fault> {
        match &self.body {
            Body::Fault(f) => Some(f),
            _ => None,
        }
    }

    /// Checks every `mustUnderstand` header block against the set of
    /// understood header names.
    ///
    /// # Errors
    ///
    /// [`SoapError::MustUnderstand`] naming the first block the receiver
    /// does not understand.
    pub fn validate_must_understand(&self, understood: &[&str]) -> Result<(), SoapError> {
        for h in &self.headers {
            if h.must_understand && !understood.contains(&h.content.name.as_str()) {
                return Err(SoapError::MustUnderstand(h.content.name.to_string()));
            }
        }
        Ok(())
    }

    /// Renders the envelope as an XML element tree.
    pub fn to_element(&self) -> Element {
        let mut env = Element::with_ns("Envelope", SOAP_ENVELOPE_NS);
        env.prefix = Some("soap".into());
        env.declare_ns("soap", SOAP_ENVELOPE_NS);

        if !self.headers.is_empty() {
            let mut header = Element::with_ns("Header", SOAP_ENVELOPE_NS);
            header.prefix = Some("soap".into());
            for h in &self.headers {
                header.push_child(h.to_element().into_owned());
            }
            env.push_child(header);
        }

        let mut body = Element::with_ns("Body", SOAP_ENVELOPE_NS);
        body.prefix = Some("soap".into());
        if let Some(child) = self.body_element() {
            body.push_child(child.into_owned());
        }
        env.push_child(body);
        env
    }

    /// The body's child as it goes on the wire: the payload as it is, a
    /// fault as its `<soap:Fault>` element.
    fn body_element(&self) -> Option<Cow<'_, Element>> {
        match &self.body {
            Body::Payload(p) => Some(Cow::Borrowed(p)),
            Body::Fault(f) => {
                let mut fe = f.to_element();
                fe.prefix = Some("soap".into());
                Some(Cow::Owned(fe))
            }
            Body::Empty => None,
        }
    }

    /// Serializes to wire text: `self.to_element().to_xml()` byte for
    /// byte, written around the payload where it lies instead of around a
    /// copy of it.
    pub fn to_xml_string(&self) -> String {
        let mut out = String::with_capacity(self.wire_size());
        self.for_each_part(|part| match part {
            Part::Markup(text) => out.push_str(text),
            Part::Element(e) => e.write_xml(&mut out),
        });
        out
    }

    /// Size of the serialized envelope in bytes, used by the simulator's
    /// bandwidth model without serializing it.
    pub fn wire_size(&self) -> usize {
        let mut len = 0;
        self.for_each_part(|part| {
            len += match part {
                Part::Markup(text) => text.len(),
                Part::Element(e) => e.xml_len(),
            }
        });
        len
    }

    /// The wire text in order, as the pieces it is made of: the envelope's
    /// own markup (what [`Envelope::to_element`] builds around the content)
    /// and the header and body elements it encloses.
    fn for_each_part(&self, mut part: impl FnMut(Part<'_>)) {
        part(Part::Markup("<soap:Envelope xmlns:soap=\""));
        part(Part::Markup(SOAP_ENVELOPE_NS));
        part(Part::Markup("\">"));
        if !self.headers.is_empty() {
            part(Part::Markup("<soap:Header>"));
            for h in &self.headers {
                part(Part::Element(&h.to_element()));
            }
            part(Part::Markup("</soap:Header>"));
        }
        match self.body_element() {
            Some(child) => {
                part(Part::Markup("<soap:Body>"));
                part(Part::Element(&child));
                part(Part::Markup("</soap:Body>"));
            }
            None => part(Part::Markup("<soap:Body/>")),
        }
        part(Part::Markup("</soap:Envelope>"));
    }

    /// Parses an envelope from wire text.
    ///
    /// # Errors
    ///
    /// * [`SoapError::Xml`] for malformed XML.
    /// * [`SoapError::NotAnEnvelope`] when the root is not a SOAP envelope.
    /// * [`SoapError::MissingBody`] when no `Body` child exists.
    /// * [`SoapError::MalformedFault`] when a fault body is invalid.
    pub fn parse(text: &str) -> Result<Self, SoapError> {
        Self::from_root(parse(text)?)
    }

    /// What the body of the envelope in `text` holds, without building
    /// the envelope: for a relay that forwards the text as it is and only
    /// needs to know whether it carries a fault. The XML parser is walked
    /// through the start tags up to the first child of `Body` and no
    /// further, so [`Envelope::parse`] is still the check for text from
    /// outside the deployment.
    ///
    /// # Errors
    ///
    /// What [`Envelope::parse`] returns for a defect before the `Body`
    /// child — [`SoapError::Xml`], [`SoapError::NotAnEnvelope`],
    /// [`SoapError::MissingBody`]; later ones go unseen.
    pub fn peek_body(text: &str) -> Result<BodyKind<'_>, SoapError> {
        let mut in_body = false;
        let mut found = None;
        scan_start_tags(text, |depth, tag| {
            let soap = |name| tag.ns() == Some(SOAP_ENVELOPE_NS) && tag.name() == name;
            found = match depth {
                0 if !soap("Envelope") => {
                    let name = match tag.ns() {
                        Some(ns) => QName::with_ns(ns, tag.name()),
                        None => QName::new(tag.name()),
                    };
                    Some(Err(SoapError::NotAnEnvelope(name.to_clark())))
                }
                // a sibling after Body: the body had no child element
                1 if in_body => Some(Ok(BodyKind::Empty)),
                1 if soap("Body") => {
                    in_body = true;
                    None
                }
                2 if in_body && soap("Fault") => Some(Ok(BodyKind::Fault)),
                2 if in_body => Some(Ok(BodyKind::Payload(tag.name()))),
                _ => None,
            };
            match found {
                Some(_) => ControlFlow::Break(()),
                None => ControlFlow::Continue(()),
            }
        })?;
        match found {
            Some(kind) => kind,
            None if in_body => Ok(BodyKind::Empty),
            None => Err(SoapError::MissingBody),
        }
    }

    /// Interprets an already-parsed element tree as an envelope.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Envelope::parse`], minus XML errors.
    pub fn from_element(root: &Element) -> Result<Self, SoapError> {
        Self::from_root(root.clone())
    }

    /// Takes a parsed envelope apart: header contents and the payload are
    /// moved out of the tree, not copied.
    fn from_root(root: Element) -> Result<Self, SoapError> {
        if root.name != "Envelope" || root.ns.as_deref() != Some(SOAP_ENVELOPE_NS) {
            return Err(SoapError::NotAnEnvelope(root.qname().to_clark()));
        }
        // the first Header and the first Body count, wherever they stand
        let (mut header, mut body) = (None, None);
        for node in root.children {
            let Node::Element(e) = node else { continue };
            if e.ns.as_deref() != Some(SOAP_ENVELOPE_NS) {
                continue;
            }
            if e.name == "Header" && header.is_none() {
                header = Some(e);
            } else if e.name == "Body" && body.is_none() {
                body = Some(e);
            }
        }
        let headers = header
            .into_iter()
            .flat_map(|h| h.children)
            .filter_map(into_element)
            .map(HeaderBlock::from_element)
            .collect();
        let first = body
            .ok_or(SoapError::MissingBody)?
            .children
            .into_iter()
            .find_map(into_element);
        let body = match first {
            None => Body::Empty,
            Some(first)
                if first.name == "Fault" && first.ns.as_deref() == Some(SOAP_ENVELOPE_NS) =>
            {
                Body::Fault(Fault::from_element(&first)?)
            }
            Some(first) => Body::Payload(first),
        };
        Ok(Envelope { headers, body })
    }
}

fn into_element(node: Node) -> Option<Element> {
    match node {
        Node::Element(e) => Some(e),
        _ => None,
    }
}

/// A piece of an envelope's wire text.
enum Part<'a> {
    /// The envelope's own tags.
    Markup(&'a str),
    /// A header block or the body's child, to be serialized in place.
    Element(&'a Element),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultCode;

    fn payload() -> Element {
        let mut p = Element::new("StudentInformation");
        p.push_child(Element::with_text("StudentID", "u1"));
        p
    }

    #[test]
    fn request_round_trip() {
        let env = Envelope::request(payload());
        let back = Envelope::parse(&env.to_xml_string()).unwrap();
        assert_eq!(back.body_payload().unwrap().name, "StudentInformation");
        assert_eq!(
            back.body_payload()
                .unwrap()
                .child("StudentID")
                .unwrap()
                .text(),
            "u1"
        );
        assert!(!back.is_fault());
        assert!(back.as_fault().is_none());
    }

    #[test]
    fn fault_round_trip() {
        let env = Envelope::fault(Fault::new(FaultCode::Receiver, "no coordinator"));
        let back = Envelope::parse(&env.to_xml_string()).unwrap();
        assert!(back.is_fault());
        assert_eq!(back.as_fault().unwrap().code, FaultCode::Receiver);
        assert!(back.body_payload().is_none());
    }

    #[test]
    fn empty_body_round_trip() {
        let env = Envelope::empty();
        let back = Envelope::parse(&env.to_xml_string()).unwrap();
        assert!(back.body_payload().is_none());
        assert!(!back.is_fault());
    }

    #[test]
    fn headers_round_trip_with_must_understand() {
        let env = Envelope::request(payload())
            .with_header(HeaderBlock::new(Element::with_text("TraceId", "t-9")))
            .with_header(HeaderBlock::new(Element::with_text("Security", "tok")).required());
        let back = Envelope::parse(&env.to_xml_string()).unwrap();
        assert_eq!(back.headers.len(), 2);
        assert!(!back.headers[0].must_understand);
        assert!(back.headers[1].must_understand);
        assert_eq!(back.headers[1].content.text(), "tok");
    }

    #[test]
    fn header_roles_round_trip() {
        let env = Envelope::request(payload()).with_header(
            HeaderBlock::new(Element::with_text("HopTrace", "r1")).for_role(ROLE_NEXT),
        );
        let back = Envelope::parse(&env.to_xml_string()).unwrap();
        assert_eq!(back.headers[0].role.as_deref(), Some(ROLE_NEXT));
        // role attribute is processing metadata, not content
        assert_eq!(back.headers[0].content.attr("role"), None);
    }

    #[test]
    fn must_understand_validation() {
        let env = Envelope::request(payload())
            .with_header(HeaderBlock::new(Element::new("Security")).required());
        assert!(env.validate_must_understand(&["Security"]).is_ok());
        assert_eq!(
            env.validate_must_understand(&["Other"]),
            Err(SoapError::MustUnderstand("Security".into()))
        );
        // optional headers never trip validation
        let env2 =
            Envelope::request(payload()).with_header(HeaderBlock::new(Element::new("Trace")));
        assert!(env2.validate_must_understand(&[]).is_ok());
    }

    #[test]
    fn non_envelope_rejected() {
        assert!(matches!(
            Envelope::parse("<NotSoap/>"),
            Err(SoapError::NotAnEnvelope(_))
        ));
        // right local name, wrong namespace
        assert!(matches!(
            Envelope::parse("<Envelope xmlns=\"urn:other\"><Body/></Envelope>"),
            Err(SoapError::NotAnEnvelope(_))
        ));
    }

    #[test]
    fn missing_body_rejected() {
        let text = format!("<soap:Envelope xmlns:soap=\"{SOAP_ENVELOPE_NS}\"/>");
        assert_eq!(Envelope::parse(&text), Err(SoapError::MissingBody));
    }

    #[test]
    fn app_element_named_fault_is_payload_not_fault() {
        // A body element locally named Fault but outside the soap namespace
        // is application data.
        let env = Envelope::request(Element::with_text("Fault", "geological"));
        let back = Envelope::parse(&env.to_xml_string()).unwrap();
        assert!(!back.is_fault());
        assert_eq!(back.body_payload().unwrap().text(), "geological");
    }

    #[test]
    fn wire_size_tracks_serialization() {
        let env = Envelope::request(payload());
        assert_eq!(env.wire_size(), env.to_xml_string().len());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let too_deep = |r: Result<(), SoapError>| match r {
            Err(SoapError::Xml(e)) => e.to_string().contains("nested deeper"),
            _ => false,
        };
        // 5 000 levels overflowed a 2 MiB stack before the parser capped them
        let deep = format!("{}{}", "<a>".repeat(5_000), "</a>".repeat(5_000));
        let envelope = |header: &str, body: &str| {
            format!(
                "<soap:Envelope xmlns:soap=\"{SOAP_ENVELOPE_NS}\"><soap:Header>{header}\
                 </soap:Header><soap:Body>{body}</soap:Body></soap:Envelope>"
            )
        };
        // ahead of the body, both the parse and the peek walk into it
        let text = envelope(&deep, "<Ping/>");
        assert!(too_deep(Envelope::parse(&text).map(drop)));
        assert!(too_deep(Envelope::peek_body(&text).map(drop)));
        // in the payload only the parse does: the peek stops at its start tag
        let text = envelope("", &deep);
        assert!(too_deep(Envelope::parse(&text).map(drop)));
        assert_eq!(Envelope::peek_body(&text), Ok(BodyKind::Payload("a")));
    }
}
