//! The owned XML document model.

use crate::intern::IStr;
use crate::name::QName;
use std::fmt;

/// A full XML document: the optional XML declaration plus the root element.
///
/// Most of the Whisper stack works directly with [`Element`]; `Document` is
/// used when declaration round-tripping matters (e.g. persisted ontologies).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Document {
    /// `version` from the XML declaration, if one was present.
    pub version: Option<String>,
    /// `encoding` from the XML declaration, if one was present.
    pub encoding: Option<String>,
    /// The document element.
    pub root: Element,
}

impl Document {
    /// Creates a document with a standard `1.0`/`UTF-8` declaration.
    pub fn new(root: Element) -> Self {
        Document {
            version: Some("1.0".to_string()),
            encoding: Some("UTF-8".to_string()),
            root,
        }
    }

    /// Serializes the document, including its declaration when present.
    pub fn to_xml(&self) -> String {
        let mut out = String::new();
        if let Some(v) = &self.version {
            out.push_str("<?xml version=\"");
            out.push_str(v);
            out.push('"');
            if let Some(e) = &self.encoding {
                out.push_str(" encoding=\"");
                out.push_str(e);
                out.push('"');
            }
            out.push_str("?>\n");
        }
        self.root.write_xml(&mut out);
        out
    }
}

/// A single attribute on an element.
///
/// Namespace declarations (`xmlns`, `xmlns:p`) are stored as ordinary
/// attributes so documents round-trip exactly; the parser additionally uses
/// them to resolve the `ns` field of elements and attributes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    /// Prefix the attribute was written with, if any (interned).
    pub prefix: Option<IStr>,
    /// Local attribute name (interned).
    pub name: IStr,
    /// Resolved namespace URI (interned). Per XML-Namespaces, unprefixed
    /// attributes are in *no* namespace regardless of a default namespace
    /// declaration.
    pub ns: Option<IStr>,
    /// The attribute value (entity references already resolved).
    pub value: String,
}

impl Attribute {
    /// Creates an unprefixed attribute in no namespace.
    pub fn new(name: impl Into<IStr>, value: impl Into<String>) -> Self {
        Attribute {
            prefix: None,
            name: name.into(),
            ns: None,
            value: value.into(),
        }
    }

    /// Whether this attribute is a namespace declaration.
    pub fn is_ns_decl(&self) -> bool {
        self.name == "xmlns" && self.prefix.is_none() || self.prefix.as_deref() == Some("xmlns")
    }

    /// The lexical (possibly prefixed) name as written in a document.
    pub fn raw_name(&self) -> String {
        match &self.prefix {
            Some(p) => format!("{p}:{}", self.name),
            None => self.name.to_string(),
        }
    }
}

/// A node in element content.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// A child element.
    Element(Element),
    /// Character data (entity references already resolved).
    Text(String),
    /// A CDATA section (kept distinct so serialization round-trips).
    CData(String),
    /// A comment.
    Comment(String),
    /// A processing instruction.
    ProcessingInstruction {
        /// The PI target (the word right after `<?`).
        target: String,
        /// Everything between the target and `?>`.
        data: String,
    },
}

impl Node {
    /// Returns the contained element, if this node is one.
    pub fn as_element(&self) -> Option<&Element> {
        match self {
            Node::Element(e) => Some(e),
            _ => None,
        }
    }

    /// Returns the textual content of text/CDATA nodes.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Node::Text(t) | Node::CData(t) => Some(t),
            _ => None,
        }
    }
}

/// An XML element: a name, attributes and ordered child nodes.
///
/// # Examples
///
/// ```
/// use whisper_xml::Element;
///
/// let mut op = Element::new("operation");
/// op.set_attr("name", "StudentInformation");
/// op.push_child(Element::with_text("input", "sm:StudentID"));
/// assert_eq!(op.attr("name"), Some("StudentInformation"));
/// assert_eq!(op.child("input").map(|c| c.text()), Some("sm:StudentID".into()));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Element {
    /// Prefix the element was written with, if any (interned).
    pub prefix: Option<IStr>,
    /// Local element name (interned).
    pub name: IStr,
    /// Resolved namespace URI, interned (default namespace applies to
    /// elements).
    pub ns: Option<IStr>,
    /// Attributes in document order, including namespace declarations.
    pub attrs: Vec<Attribute>,
    /// Child nodes in document order.
    pub children: Vec<Node>,
}

impl Element {
    /// Creates an element with the given local name, no namespace.
    pub fn new(name: impl Into<IStr>) -> Self {
        Element {
            name: name.into(),
            ..Element::default()
        }
    }

    /// Creates an element in a namespace (no prefix; serialized with a
    /// default-namespace declaration unless one is already in scope).
    pub fn with_ns(name: impl Into<IStr>, ns: impl Into<IStr>) -> Self {
        Element {
            name: name.into(),
            ns: Some(ns.into()),
            ..Element::default()
        }
    }

    /// Creates `name` containing a single text node.
    pub fn with_text(name: impl Into<IStr>, text: impl Into<String>) -> Self {
        let mut e = Element::new(name);
        e.push_text(text);
        e
    }

    /// The resolved qualified name of this element (two reference-count
    /// bumps, no string copies).
    pub fn qname(&self) -> QName {
        match &self.ns {
            Some(ns) => QName::with_ns(ns.clone(), self.name.clone()),
            None => QName::new(self.name.clone()),
        }
    }

    /// The lexical (possibly prefixed) tag name as written in a document.
    pub fn raw_name(&self) -> String {
        match &self.prefix {
            Some(p) => format!("{p}:{}", self.name),
            None => self.name.to_string(),
        }
    }

    /// Appends a child element and returns `&mut self` for chaining.
    pub fn push_child(&mut self, child: Element) -> &mut Self {
        self.children.push(Node::Element(child));
        self
    }

    /// Appends a text node and returns `&mut self` for chaining.
    pub fn push_text(&mut self, text: impl Into<String>) -> &mut Self {
        self.children.push(Node::Text(text.into()));
        self
    }

    /// Sets (or replaces) an unprefixed attribute.
    pub fn set_attr(&mut self, name: impl Into<IStr>, value: impl Into<String>) -> &mut Self {
        let name = name.into();
        let value = value.into();
        if let Some(a) = self
            .attrs
            .iter_mut()
            .find(|a| a.name == name && a.prefix.is_none())
        {
            a.value = value;
        } else {
            self.attrs.push(Attribute::new(name, value));
        }
        self
    }

    /// Declares a namespace prefix on this element (`prefix` empty for the
    /// default namespace).
    pub fn declare_ns(&mut self, prefix: &str, uri: impl Into<String>) -> &mut Self {
        let attr = if prefix.is_empty() {
            Attribute::new("xmlns", uri)
        } else {
            Attribute {
                prefix: Some("xmlns".into()),
                name: prefix.into(),
                ns: Some(crate::XMLNS_NS.into()),
                value: uri.into(),
            }
        };
        self.attrs.push(attr);
        self
    }

    /// Looks up the value of an unprefixed attribute by local name.
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|a| a.name == name && !a.is_ns_decl())
            .map(|a| a.value.as_str())
    }

    /// Looks up an attribute by namespace URI and local name.
    pub fn attr_ns(&self, ns: &str, name: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|a| a.ns.as_deref() == Some(ns) && a.name == name)
            .map(|a| a.value.as_str())
    }

    /// Iterates over child elements in document order.
    pub fn child_elements(&self) -> impl Iterator<Item = &Element> {
        self.children.iter().filter_map(Node::as_element)
    }

    /// The first child element with the given local name (any namespace).
    pub fn child(&self, name: &str) -> Option<&Element> {
        self.child_elements().find(|e| e.name == name)
    }

    /// The first child element with the given namespace URI and local name.
    pub fn child_ns(&self, ns: &str, name: &str) -> Option<&Element> {
        self.child_elements()
            .find(|e| e.ns.as_deref() == Some(ns) && e.name == name)
    }

    /// All child elements with the given local name, in document order.
    pub fn children_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Element> + 'a {
        self.child_elements().filter(move |e| e.name == name)
    }

    /// Concatenated text of all direct text and CDATA children.
    pub fn text(&self) -> String {
        let mut out = String::new();
        for n in &self.children {
            if let Some(t) = n.as_text() {
                out.push_str(t);
            }
        }
        out
    }

    /// Depth-first search for the first descendant (not including `self`)
    /// with the given local name.
    pub fn descendant(&self, name: &str) -> Option<&Element> {
        for c in self.child_elements() {
            if c.name == name {
                return Some(c);
            }
            if let Some(found) = c.descendant(name) {
                return Some(found);
            }
        }
        None
    }

    /// Depth-first collection of all descendants with the given local name.
    pub fn descendants_named<'a>(&'a self, name: &str, out: &mut Vec<&'a Element>) {
        for c in self.child_elements() {
            if c.name == name {
                out.push(c);
            }
            c.descendants_named(name, out);
        }
    }

    /// Number of nodes in the subtree rooted at this element (including it).
    pub fn subtree_size(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(|n| match n {
                Node::Element(e) => e.subtree_size(),
                _ => 1,
            })
            .sum::<usize>()
    }
}

impl fmt::Display for Element {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_xml())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Element {
        let mut root = Element::new("root");
        root.set_attr("a", "1");
        root.push_child(Element::with_text("x", "one"));
        root.push_child(Element::with_text("y", "two"));
        root.push_child(Element::with_text("x", "three"));
        root
    }

    #[test]
    fn child_navigation() {
        let root = sample();
        assert_eq!(root.child("x").map(|e| e.text()), Some("one".into()));
        assert_eq!(root.child("y").map(|e| e.text()), Some("two".into()));
        assert!(root.child("z").is_none());
        let xs: Vec<_> = root.children_named("x").map(|e| e.text()).collect();
        assert_eq!(xs, ["one", "three"]);
    }

    #[test]
    fn set_attr_replaces() {
        let mut e = Element::new("e");
        e.set_attr("k", "v1");
        e.set_attr("k", "v2");
        assert_eq!(e.attr("k"), Some("v2"));
        assert_eq!(e.attrs.len(), 1);
    }

    #[test]
    fn ns_declarations_are_not_attrs() {
        let mut e = Element::new("e");
        e.declare_ns("", "urn:default");
        e.declare_ns("p", "urn:p");
        assert_eq!(e.attr("xmlns"), None);
        assert_eq!(e.attrs.len(), 2);
        assert!(e.attrs.iter().all(|a| a.is_ns_decl()));
    }

    #[test]
    fn qname_resolution() {
        let e = Element::with_ns("op", "urn:svc");
        assert_eq!(e.qname(), QName::with_ns("urn:svc", "op"));
        assert_eq!(Element::new("op").qname(), QName::new("op"));
    }

    #[test]
    fn descendant_search_is_depth_first() {
        let mut root = Element::new("r");
        let mut mid = Element::new("m");
        mid.push_child(Element::with_text("t", "deep"));
        root.push_child(mid);
        root.push_child(Element::with_text("t", "shallow"));
        // depth-first: the nested "t" under the first child wins
        assert_eq!(root.descendant("t").map(|e| e.text()), Some("deep".into()));
        let mut all = Vec::new();
        root.descendants_named("t", &mut all);
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn text_concatenates_cdata_and_text() {
        let mut e = Element::new("e");
        e.children.push(Node::Text("a".into()));
        e.children.push(Node::CData("b".into()));
        e.children.push(Node::Comment("ignored".into()));
        assert_eq!(e.text(), "ab");
    }

    #[test]
    fn subtree_size_counts_all_nodes() {
        let root = sample();
        // root + 3 children + 3 text nodes
        assert_eq!(root.subtree_size(), 7);
    }
}
