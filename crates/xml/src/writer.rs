//! Serialization of the document model back to XML text.

use crate::document::{Element, Node};
use crate::escape::{escaped_len, push_escaped, ATTR_SPECIALS, TEXT_SPECIALS};
use crate::intern::IStr;

impl Element {
    /// Serializes this element (and its subtree) to compact XML.
    ///
    /// The output parses back to an equal tree (modulo namespace-resolution
    /// fields, which the parser recomputes from the declarations that are
    /// stored as attributes).
    pub fn to_xml(&self) -> String {
        let mut out = String::with_capacity(self.xml_len());
        self.write_xml(&mut out);
        out
    }

    /// Appends what [`Element::to_xml`] returns to `out`: for callers that
    /// write a document around an element they only borrow.
    pub fn write_xml(&self, out: &mut String) {
        write_element(out, self, None);
    }

    /// `self.to_xml().len()`, from a pass over the tree that writes
    /// nothing: the capacity [`Element::to_xml`] allocates, once.
    pub fn xml_len(&self) -> usize {
        let name = name_len(&self.prefix, &self.name);
        let mut len = "<".len() + name;
        for a in &self.attrs {
            len += " ".len() + name_len(&a.prefix, &a.name);
            len += "=\"".len() + escaped_len(&a.value, ATTR_SPECIALS) + "\"".len();
        }
        if let Some(ns) = synthesized_default_ns(self) {
            len += " xmlns=\"".len() + escaped_len(ns, ATTR_SPECIALS) + "\"".len();
        }
        if self.children.is_empty() {
            return len + "/>".len();
        }
        len += ">".len() + "</".len() + name + ">".len();
        for n in &self.children {
            len += match n {
                Node::Element(c) => c.xml_len(),
                Node::Text(t) => escaped_len(t, TEXT_SPECIALS),
                Node::CData(t) => "<![CDATA[".len() + t.len() + "]]>".len(),
                Node::Comment(c) => "<!--".len() + c.len() + "-->".len(),
                Node::ProcessingInstruction { target, data } => {
                    let data = if data.is_empty() {
                        0
                    } else {
                        " ".len() + data.len()
                    };
                    "<?".len() + target.len() + data + "?>".len()
                }
            };
        }
        len
    }

    /// Serializes with two-space indentation for human consumption.
    ///
    /// Elements whose content is pure text are kept on one line; mixed
    /// content is emitted compactly to avoid changing its meaning.
    pub fn to_pretty_xml(&self) -> String {
        let mut out = String::with_capacity(self.subtree_size() * 20);
        write_element(&mut out, self, Some(0));
        out.push('\n');
        out
    }
}

/// Length of a lexical (possibly prefixed) name.
fn name_len(prefix: &Option<IStr>, name: &IStr) -> usize {
    prefix.as_ref().map_or(0, |p| p.len() + ":".len()) + name.len()
}

/// Writes a lexical (possibly prefixed) name.
fn write_name(out: &mut String, prefix: &Option<IStr>, name: &IStr) {
    if let Some(p) = prefix {
        out.push_str(p);
        out.push(':');
    }
    out.push_str(name);
}

/// The namespace of an element that carries one but has no prefix and no
/// explicit default-namespace declaration among its attributes: the writer
/// emits that declaration so the serialized form resolves identically.
fn synthesized_default_ns(e: &Element) -> Option<&str> {
    if e.prefix.is_some() {
        return None;
    }
    let has_default_decl = e
        .attrs
        .iter()
        .any(|a| a.prefix.is_none() && a.name == "xmlns");
    e.ns.as_deref().filter(|_| !has_default_decl)
}

fn write_open_tag(out: &mut String, e: &Element, close: bool) {
    out.push('<');
    write_name(out, &e.prefix, &e.name);
    for a in &e.attrs {
        out.push(' ');
        write_name(out, &a.prefix, &a.name);
        out.push_str("=\"");
        push_escaped(out, &a.value, ATTR_SPECIALS);
        out.push('"');
    }
    if let Some(ns) = synthesized_default_ns(e) {
        out.push_str(" xmlns=\"");
        push_escaped(out, ns, ATTR_SPECIALS);
        out.push('"');
    }
    out.push_str(if close { "/>" } else { ">" });
}

fn write_element(out: &mut String, e: &Element, indent: Option<usize>) {
    indent_if(out, indent);
    if e.children.is_empty() {
        write_open_tag(out, e, true);
        return;
    }
    write_open_tag(out, e, false);

    // pretty-printing keeps text-only content on the element's line
    let is_text = |n: &Node| matches!(n, Node::Text(_) | Node::CData(_));
    let child_indent = indent
        .filter(|_| !e.children.iter().all(is_text))
        .map(|level| level + 1);

    for n in &e.children {
        if child_indent.is_some() {
            out.push('\n');
        }
        match n {
            Node::Element(c) => write_element(out, c, child_indent),
            Node::Text(t) => {
                indent_if(out, child_indent);
                push_escaped(out, t, TEXT_SPECIALS);
            }
            Node::CData(t) => {
                indent_if(out, child_indent);
                out.push_str("<![CDATA[");
                out.push_str(t);
                out.push_str("]]>");
            }
            Node::Comment(c) => {
                indent_if(out, child_indent);
                out.push_str("<!--");
                out.push_str(c);
                out.push_str("-->");
            }
            Node::ProcessingInstruction { target, data } => {
                indent_if(out, child_indent);
                out.push_str("<?");
                out.push_str(target);
                if !data.is_empty() {
                    out.push(' ');
                    out.push_str(data);
                }
                out.push_str("?>");
            }
        }
    }
    if child_indent.is_some() {
        out.push('\n');
        indent_if(out, indent);
    }
    out.push_str("</");
    write_name(out, &e.prefix, &e.name);
    out.push('>');
}

fn indent_if(out: &mut String, indent: Option<usize>) {
    if let Some(level) = indent {
        for _ in 0..level {
            out.push_str("  ");
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{parse, Element};

    fn round_trip(src: &str) {
        let parsed = parse(src).expect("first parse");
        let printed = parsed.to_xml();
        let reparsed = parse(&printed).expect("reparse");
        assert_eq!(parsed, reparsed, "round trip changed tree for {src:?}");
    }

    #[test]
    fn round_trips_basic_documents() {
        round_trip("<a/>");
        round_trip(r#"<a k="v &amp; w"><b>text &lt; here</b><c/></a>"#);
        round_trip(r#"<root xmlns="urn:d" xmlns:p="urn:p"><p:x p:a="1"/></root>"#);
        round_trip("<a><![CDATA[<keep> &amp;]]></a>");
        round_trip("<a><!-- c --><?pi data?></a>");
        round_trip("<a> mixed <b/> content </a>");
    }

    #[test]
    fn synthesized_namespace_gets_declared() {
        let e = Element::with_ns("adv", "urn:jxta");
        let printed = e.to_xml();
        assert!(printed.contains("xmlns=\"urn:jxta\""), "{printed}");
        let back = parse(&printed).unwrap();
        assert_eq!(back.ns.as_deref(), Some("urn:jxta"));
    }

    #[test]
    fn explicit_declaration_not_duplicated() {
        let mut e = Element::with_ns("adv", "urn:jxta");
        e.declare_ns("", "urn:jxta");
        let printed = e.to_xml();
        assert_eq!(printed.matches("xmlns=").count(), 1, "{printed}");
    }

    #[test]
    fn pretty_print_is_reparseable_for_element_content() {
        let src = r#"<a><b><c>deep</c></b><d/></a>"#;
        let parsed = parse(src).unwrap();
        let pretty = parsed.to_pretty_xml();
        assert!(pretty.contains("\n  "));
        let reparsed = parse(&pretty).unwrap();
        // same elements and text, ignoring the inserted whitespace nodes
        assert_eq!(
            reparsed.descendant("c").map(|c| c.text()),
            Some("deep".into())
        );
    }

    #[test]
    fn pretty_print_keeps_text_only_content_inline() {
        let parsed = parse("<a><b>hello</b></a>").unwrap();
        let pretty = parsed.to_pretty_xml();
        assert!(pretty.contains("<b>hello</b>"), "{pretty}");
    }

    #[test]
    fn attr_special_chars_survive() {
        let mut e = Element::new("e");
        e.set_attr("k", "a<b>\"c\"&d\ne");
        let back = parse(&e.to_xml()).unwrap();
        assert_eq!(back.attr("k"), Some("a<b>\"c\"&d\ne"));
    }

    #[test]
    fn display_matches_to_xml() {
        let e = Element::with_text("x", "y");
        assert_eq!(format!("{e}"), e.to_xml());
    }
}
