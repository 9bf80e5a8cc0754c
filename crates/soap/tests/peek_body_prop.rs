//! Property: `Envelope::peek_body` is `Envelope::parse` as far as it
//! looks. On generated envelopes — `soap:`-prefixed, otherwise prefixed or
//! default-namespace, with and without header blocks, with an empty body,
//! a fault or a payload — the two agree on fault-ness and on the payload's
//! name; and text damaged anywhere before the `Body` child gets one verdict
//! from both — rejected, unless the damage left it well-formed.

use proptest::prelude::*;
use whisper_soap::{BodyKind, Envelope, Fault, FaultCode, HeaderBlock};
use whisper_xml::Element;

#[derive(Debug, Clone)]
enum Body {
    Empty,
    Fault,
    /// Local name, and whether it sits in an application namespace.
    Payload(&'static str, bool),
}

/// How the envelope namespace is written.
#[derive(Debug, Clone, Copy)]
enum Style {
    Prefix(&'static str),
    Default,
}

fn body() -> impl Strategy<Value = Body> {
    let name = prop_oneof![
        Just("StudentInformation"),
        Just("echo"),
        // application elements that only *look* like envelope parts
        Just("Fault"),
        Just("Body"),
    ];
    prop_oneof![
        Just(Body::Empty),
        Just(Body::Fault),
        (name, any::<bool>()).prop_map(|(n, ns)| Body::Payload(n, ns)),
    ]
}

fn style() -> impl Strategy<Value = Style> {
    prop_oneof![
        Just(Style::Prefix("soap")),
        Just(Style::Prefix("s")),
        Just(Style::Prefix("env")),
        Just(Style::Default),
    ]
}

/// The envelope's wire text, and where its `Body` child starts (the end
/// of the text when the body is empty: the peek then reads all of it).
fn render(body: &Body, style: Style, headers: usize, padded: bool) -> (String, usize) {
    let mut env = match body {
        Body::Empty => Envelope::empty(),
        Body::Fault => Envelope::fault(Fault::new(FaultCode::Receiver, "no <live> b-peer")),
        Body::Payload(name, in_app_ns) => {
            // An unprefixed payload would join a default envelope
            // namespace, so there it always gets its own.
            let mut p = if *in_app_ns || matches!(style, Style::Default) {
                let mut p = Element::with_ns(*name, "urn:app");
                p.prefix = Some("app".into());
                p.declare_ns("app", "urn:app");
                p
            } else {
                Element::new(*name)
            };
            p.push_child(Element::with_text("StudentID", "u & 1"));
            Envelope::request(p)
        }
    };
    for i in 0..headers {
        let mut h = Element::with_text(format!("H{i}"), "a < b");
        h.set_attr("note", "\"quoted\" & more");
        // a decoy: Body and Fault outside the envelope namespace
        h.push_child(Element::new("Body"));
        h.push_child(Element::new("Fault"));
        let block = HeaderBlock::new(h);
        env = env.with_header(if i % 2 == 0 { block.required() } else { block });
    }
    let mut text = env.to_xml_string();
    match style {
        Style::Prefix("soap") => {}
        Style::Prefix(p) => {
            text = text
                .replace("xmlns:soap=", &format!("xmlns:{p}="))
                .replace("<soap:", &format!("<{p}:"))
                .replace("</soap:", &format!("</{p}:"));
        }
        Style::Default => {
            text = text
                .replace("xmlns:soap=", "xmlns=")
                .replace("<soap:", "<")
                .replace("</soap:", "</");
        }
    }
    if padded {
        let root_end = text.find('>').expect("a root tag") + 1;
        text.insert_str(root_end, "\n  <!-- routing note -->\n  ");
        text.insert_str(0, "<?xml version=\"1.0\"?>\n");
    }
    let prefix = match style {
        Style::Prefix(p) => format!("{p}:"),
        Style::Default => String::new(),
    };
    let body_tag = text
        .find(&format!("<{prefix}Body"))
        .expect("every envelope has a body");
    let child = match body {
        Body::Empty => text.len(),
        _ => body_tag + text[body_tag..].find('>').expect("tag closes") + 1,
    };
    (text, child)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn peek_agrees_with_parse(
        body in body(),
        style in style(),
        headers in 0usize..3,
        padded in any::<bool>(),
    ) {
        let (text, _) = render(&body, style, headers, padded);
        let peeked = agree(&text)?.expect("generated envelopes are valid");
        match body {
            Body::Empty => prop_assert_eq!(peeked, BodyKind::Empty),
            Body::Fault => prop_assert_eq!(peeked, BodyKind::Fault),
            Body::Payload(n, _) => prop_assert_eq!(peeked, BodyKind::Payload(n)),
        }
    }

    #[test]
    fn damage_before_the_body_child_gets_one_verdict(
        body in body(),
        style in style(),
        headers in 0usize..3,
        padded in any::<bool>(),
        truncate in any::<bool>(),
        at in any::<proptest::sample::Index>(),
    ) {
        let (text, child) = render(&body, style, headers, padded);
        let damaged = if truncate {
            // cut inside the part the peek reads (never the whole text)
            text[..at.index(child.min(text.len() - 1))].to_string()
        } else {
            // drop one piece of markup punctuation
            let marks: Vec<usize> = text[..child]
                .char_indices()
                .filter(|(_, c)| matches!(c, '<' | '>' | '"'))
                .map(|(i, _)| i)
                .collect();
            let drop = marks[at.index(marks.len())];
            format!("{}{}", &text[..drop], &text[drop + 1..])
        };
        // Dropping a mark can leave well-formed text (a comment turned
        // into character data); a cut never does.
        let verdict = agree(&damaged)?;
        prop_assert!(!truncate || verdict.is_none(), "a cut was accepted: {damaged:?}");
    }
}

/// Holds peek and parse to one verdict on `text`: both reject it (`None`),
/// or both accept it and tell the same fault-ness and payload name.
fn agree(text: &str) -> Result<Option<BodyKind<'_>>, TestCaseError> {
    match (Envelope::parse(text), Envelope::peek_body(text)) {
        (Err(_), Err(_)) => Ok(None),
        (Ok(parsed), Ok(peeked)) => {
            prop_assert_eq!(peeked == BodyKind::Fault, parsed.is_fault());
            let name = parsed.body_payload().map(|p| p.name.as_str());
            match peeked {
                BodyKind::Payload(n) => prop_assert_eq!(Some(n), name),
                BodyKind::Empty | BodyKind::Fault => prop_assert_eq!(None, name),
            }
            Ok(Some(peeked))
        }
        (parsed, peeked) => {
            prop_assert!(
                false,
                "parse {:?}, peek {:?} on {:?}",
                parsed.is_ok(),
                peeked,
                text
            );
            unreachable!()
        }
    }
}

#[test]
fn peek_stops_at_the_body_child() {
    // what follows the child's start tag is not the peek's business
    let text = Envelope::request(Element::with_text("Ping", "1")).to_xml_string();
    let cut = text.find("<Ping>").expect("payload") + "<Ping>".len();
    assert_eq!(
        Envelope::peek_body(&text[..cut]).expect("well-formed so far"),
        BodyKind::Payload("Ping")
    );
    assert!(Envelope::parse(&text[..cut]).is_err());
}
