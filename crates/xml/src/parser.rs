//! Recursive-descent parser for the supported XML subset.

use crate::document::{Attribute, Document, Element, Node};
use crate::error::{ErrorKind, XmlError};
use crate::escape::resolve_entity;
use crate::intern::{intern, IStr};
use crate::name::{is_valid_ncname, split_prefixed};
use std::collections::HashMap;
use std::ops::ControlFlow;

/// Parses a document and returns its root element.
///
/// This is the common entry point for protocol payloads where the XML
/// declaration is irrelevant.
///
/// # Errors
///
/// Returns [`XmlError`] when the input is not well-formed per the supported
/// subset (see the crate docs), including undeclared namespace prefixes.
pub fn parse(input: &str) -> Result<Element, XmlError> {
    parse_document(input).map(|d| d.root)
}

/// Parses a full document, keeping the XML declaration.
///
/// # Errors
///
/// Returns [`XmlError`] when the input is not well-formed per the supported
/// subset (see the crate docs), including undeclared namespace prefixes.
pub fn parse_document(input: &str) -> Result<Document, XmlError> {
    let mut p = Parser::new(input);
    let (version, encoding) = p.parse_prolog()?;
    let root = p.parse_element(&NsScope::root())?;
    p.parse_epilog()?;
    Ok(Document {
        version,
        encoding,
        root,
    })
}

/// Walks the start tags of `input` in document order without building a
/// tree: `visit` sees each element's depth (root = 0) and [`StartTag`],
/// and ends the walk early by returning [`ControlFlow::Break`].
///
/// It is [`parse`] minus the tree — the same names, attributes, entities
/// and namespace scopes are checked by the same code — so everything up
/// to the point where the walk stops is held to exactly the rules
/// `parse` applies; what follows a `Break` is not looked at.
///
/// # Errors
///
/// The [`XmlError`] `parse` would return, when the defect lies before
/// the point where the walk stopped.
pub fn scan_start_tags<'a>(
    input: &'a str,
    mut visit: impl FnMut(usize, &StartTag<'a>) -> ControlFlow<()>,
) -> Result<(), XmlError> {
    let mut p = Parser::new(input);
    p.parse_prolog()?;
    if p.walk_element(&NsScope::root(), 0, &mut visit)?
        .is_continue()
    {
        p.parse_epilog()?;
    }
    Ok(())
}

/// An element's start tag: its name and resolved namespace.
pub struct StartTag<'a> {
    /// The name as written, prefix included (what the end tag must repeat).
    raw: &'a str,
    prefix: Option<&'a str>,
    local: &'a str,
    ns: Option<IStr>,
    self_closing: bool,
}

impl<'a> StartTag<'a> {
    /// The local name (prefix stripped).
    pub fn name(&self) -> &'a str {
        self.local
    }

    /// The namespace the element's prefix (or the default namespace)
    /// resolves to.
    pub fn ns(&self) -> Option<&str> {
        self.ns.as_deref()
    }
}

/// A lexical scope of namespace declarations, chained to its parent.
struct NsScope<'a> {
    parent: Option<&'a NsScope<'a>>,
    /// prefix -> uri; "" is the default namespace. An empty-string URI
    /// un-declares the binding (xmlns="" semantics).
    bindings: HashMap<String, String>,
}

impl<'a> NsScope<'a> {
    fn root() -> NsScope<'static> {
        let mut bindings = HashMap::new();
        bindings.insert("xml".to_string(), crate::XML_NS.to_string());
        bindings.insert("xmlns".to_string(), crate::XMLNS_NS.to_string());
        NsScope {
            parent: None,
            bindings,
        }
    }

    fn child(&'a self) -> NsScope<'a> {
        NsScope {
            parent: Some(self),
            bindings: HashMap::new(),
        }
    }

    fn resolve(&self, prefix: &str) -> Option<&str> {
        if let Some(uri) = self.bindings.get(prefix) {
            if uri.is_empty() {
                return None;
            }
            return Some(uri);
        }
        self.parent.and_then(|p| p.resolve(prefix))
    }
}

struct Parser<'a> {
    input: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser { input, pos: 0 }
    }

    fn err(&self, kind: ErrorKind) -> XmlError {
        XmlError::new(kind, self.pos)
    }

    fn eof(&self) -> bool {
        self.pos >= self.input.len()
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn peek(&self) -> Option<char> {
        self.rest().chars().next()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    fn eat(&mut self, s: &str) -> bool {
        if self.rest().starts_with(s) {
            self.pos += s.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, s: &str) -> Result<(), XmlError> {
        if self.eat(s) {
            Ok(())
        } else {
            match self.peek() {
                Some(c) => Err(self.err(ErrorKind::UnexpectedChar(c))),
                None => Err(self.err(ErrorKind::UnexpectedEof)),
            }
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(c) if c.is_whitespace()) {
            self.bump();
        }
    }

    fn skip_bom(&mut self) {
        self.eat("\u{feff}");
    }

    /// Everything before the root element; returns the XML declaration's
    /// version and encoding.
    fn parse_prolog(&mut self) -> Result<(Option<String>, Option<String>), XmlError> {
        self.skip_bom();
        let decl = self.parse_decl()?;
        self.skip_misc()?;
        if self.eof() {
            return Err(self.err(ErrorKind::NoRootElement));
        }
        Ok(decl)
    }

    /// Everything after the root element.
    fn parse_epilog(&mut self) -> Result<(), XmlError> {
        self.skip_misc()?;
        if !self.eof() {
            return Err(self.err(ErrorKind::TrailingContent));
        }
        Ok(())
    }

    fn parse_decl(&mut self) -> Result<(Option<String>, Option<String>), XmlError> {
        self.skip_ws();
        if !self.rest().starts_with("<?xml") {
            return Ok((None, None));
        }
        let end = self
            .rest()
            .find("?>")
            .ok_or_else(|| self.err(ErrorKind::BadMarkup("XML declaration")))?;
        let decl = &self.rest()[5..end];
        let version = extract_pseudo_attr(decl, "version");
        let encoding = extract_pseudo_attr(decl, "encoding");
        self.pos += end + 2;
        if version.is_none() {
            return Err(self.err(ErrorKind::BadMarkup("XML declaration")));
        }
        Ok((version, encoding))
    }

    /// Skips whitespace, comments and PIs between markup (document prolog /
    /// epilog). DOCTYPE declarations are skipped without validation.
    fn skip_misc(&mut self) -> Result<(), XmlError> {
        loop {
            self.skip_ws();
            if self.rest().starts_with("<!--") {
                self.parse_comment()?;
            } else if self.rest().starts_with("<?") {
                self.parse_pi()?;
            } else if self.rest().starts_with("<!DOCTYPE") {
                // Skip to the matching '>' (internal subsets use brackets).
                let mut depth = 0usize;
                loop {
                    match self.bump() {
                        Some('<') => depth += 1,
                        Some('>') => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        Some(_) => {}
                        None => return Err(self.err(ErrorKind::UnexpectedEof)),
                    }
                }
            } else {
                return Ok(());
            }
        }
    }

    fn parse_comment(&mut self) -> Result<Node, XmlError> {
        self.expect("<!--")?;
        let end = self
            .rest()
            .find("-->")
            .ok_or_else(|| self.err(ErrorKind::BadMarkup("comment")))?;
        let body = self.rest()[..end].to_string();
        self.pos += end + 3;
        Ok(Node::Comment(body))
    }

    fn parse_pi(&mut self) -> Result<Node, XmlError> {
        self.expect("<?")?;
        let end = self
            .rest()
            .find("?>")
            .ok_or_else(|| self.err(ErrorKind::BadMarkup("processing instruction")))?;
        let body = &self.rest()[..end];
        let (target, data) = match body.find(char::is_whitespace) {
            Some(i) => (&body[..i], body[i..].trim_start()),
            None => (body, ""),
        };
        let node = Node::ProcessingInstruction {
            target: target.to_string(),
            data: data.to_string(),
        };
        self.pos += end + 2;
        Ok(node)
    }

    fn parse_cdata(&mut self) -> Result<Node, XmlError> {
        self.expect("<![CDATA[")?;
        let end = self
            .rest()
            .find("]]>")
            .ok_or_else(|| self.err(ErrorKind::BadMarkup("CDATA section")))?;
        let body = self.rest()[..end].to_string();
        self.pos += end + 3;
        Ok(Node::CData(body))
    }

    fn parse_name(&mut self) -> Result<&'a str, XmlError> {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_alphanumeric() || matches!(c, '.' | '-' | '_' | ':'))
        {
            self.bump();
        }
        let raw = &self.input[start..self.pos];
        if raw.is_empty() {
            return Err(self.err(ErrorKind::BadName(String::new())));
        }
        let (prefix, local) = split_prefixed(raw);
        if let Some(p) = prefix {
            if !is_valid_ncname(p) || !is_valid_ncname(local) {
                return Err(self.err(ErrorKind::BadName(raw.to_string())));
            }
        } else if !is_valid_ncname(local) {
            return Err(self.err(ErrorKind::BadName(raw.to_string())));
        }
        Ok(raw)
    }

    fn parse_attr_value(&mut self) -> Result<String, XmlError> {
        let quote = match self.bump() {
            Some(q @ ('"' | '\'')) => q,
            Some(c) => return Err(self.err(ErrorKind::UnexpectedChar(c))),
            None => return Err(self.err(ErrorKind::UnexpectedEof)),
        };
        let mut out = String::new();
        loop {
            // copy whole delimiter-free runs at once instead of per-char
            let rest = self.rest();
            let stop = rest.find([quote, '&', '<']).unwrap_or(rest.len());
            out.push_str(&rest[..stop]);
            self.pos += stop;
            match self.bump() {
                Some('&') => out.push(self.parse_entity()?),
                Some('<') => return Err(self.err(ErrorKind::UnexpectedChar('<'))),
                Some(_) => break, // the closing quote
                None => return Err(self.err(ErrorKind::UnexpectedEof)),
            }
        }
        Ok(out)
    }

    fn parse_entity(&mut self) -> Result<char, XmlError> {
        let start = self.pos;
        let semi = self
            .rest()
            .find(';')
            .ok_or_else(|| self.err(ErrorKind::BadEntity(String::new())))?;
        let body = &self.rest()[..semi];
        if body.len() > 12 {
            // entity bodies are tiny; a missing ';' shouldn't scan the file
            return Err(XmlError::new(
                ErrorKind::BadEntity(body[..12].to_string()),
                start,
            ));
        }
        let c = resolve_entity(body)
            .ok_or_else(|| XmlError::new(ErrorKind::BadEntity(body.to_string()), start))?;
        self.pos += semi + 1;
        Ok(c)
    }

    /// Parses `<name attr="v" ...>` or `.../>`: the attributes go into
    /// `attrs`, the namespace declarations among them into `scope` (the
    /// element's own, fresh from [`NsScope::child`]). Both are the
    /// caller's so the returned tag stays small: carrying the `Vec` out
    /// inside it cost 5 % of `parse` on an element-heavy document.
    #[inline]
    fn parse_start_tag(
        &mut self,
        scope: &mut NsScope<'_>,
        attrs: &mut Vec<Attribute>,
    ) -> Result<StartTag<'a>, XmlError> {
        self.expect("<")?;
        let raw = self.parse_name()?;
        let (eprefix, elocal) = split_prefixed(raw);

        let self_closing;
        loop {
            self.skip_ws();
            match self.peek() {
                Some('>') => {
                    self.bump();
                    self_closing = false;
                    break;
                }
                Some('/') => {
                    self.bump();
                    self.expect(">")?;
                    self_closing = true;
                    break;
                }
                Some(_) => {
                    let araw = self.parse_name()?;
                    self.skip_ws();
                    self.expect("=")?;
                    self.skip_ws();
                    let value = self.parse_attr_value()?;
                    let (aprefix, alocal) = split_prefixed(araw);
                    if attrs
                        .iter()
                        .any(|a| a.name == alocal && a.prefix.as_deref() == aprefix)
                    {
                        return Err(self.err(ErrorKind::DuplicateAttribute(araw.to_string())));
                    }
                    // Record namespace declarations into the scope.
                    if aprefix.is_none() && alocal == "xmlns" {
                        scope.bindings.insert(String::new(), value.clone());
                    } else if aprefix == Some("xmlns") {
                        scope.bindings.insert(alocal.to_string(), value.clone());
                    }
                    attrs.push(Attribute {
                        prefix: aprefix.map(intern),
                        name: intern(alocal),
                        ns: None, // resolved below once the scope is complete
                        value,
                    });
                }
                None => return Err(self.err(ErrorKind::UnexpectedEof)),
            }
        }

        // Resolve the element's namespace.
        let ns = match eprefix {
            Some(p) => {
                Some(intern(scope.resolve(p).ok_or_else(|| {
                    self.err(ErrorKind::UndeclaredPrefix(p.to_string()))
                })?))
            }
            None => scope.resolve("").map(intern),
        };
        // Resolve attribute namespaces (prefixed attributes only).
        for a in attrs {
            if a.is_ns_decl() {
                a.ns = Some(intern(crate::XMLNS_NS));
            } else if let Some(p) = &a.prefix {
                a.ns = Some(intern(scope.resolve(p).ok_or_else(|| {
                    self.err(ErrorKind::UndeclaredPrefix(p.to_string()))
                })?));
            }
        }

        Ok(StartTag {
            raw,
            prefix: eprefix,
            local: elocal,
            ns,
            self_closing,
        })
    }

    /// Parses the rest of an end tag, past its `</`, and checks that it
    /// closes `raw`.
    #[inline]
    fn parse_end_tag(&mut self, raw: &str) -> Result<(), XmlError> {
        self.pos += 2;
        let end_raw = self.parse_name()?;
        self.skip_ws();
        self.expect(">")?;
        if end_raw != raw {
            return Err(self.err(ErrorKind::MismatchedTag {
                expected: raw.to_string(),
                found: end_raw.to_string(),
            }));
        }
        Ok(())
    }

    /// [`scan_start_tags`] for one element and its content: every check
    /// of [`Parser::parse_element`], none of its nodes kept.
    fn walk_element(
        &mut self,
        parent_scope: &NsScope<'_>,
        depth: usize,
        visit: &mut impl FnMut(usize, &StartTag<'a>) -> ControlFlow<()>,
    ) -> Result<ControlFlow<()>, XmlError> {
        let mut scope = parent_scope.child();
        let tag = self.parse_start_tag(&mut scope, &mut Vec::new())?;
        if visit(depth, &tag).is_break() {
            return Ok(ControlFlow::Break(()));
        }
        if tag.self_closing {
            return Ok(ControlFlow::Continue(()));
        }
        loop {
            if self.rest().starts_with("</") {
                self.parse_end_tag(tag.raw)?;
                return Ok(ControlFlow::Continue(()));
            } else if self.rest().starts_with("<!--") {
                self.parse_comment()?;
            } else if self.rest().starts_with("<![CDATA[") {
                self.parse_cdata()?;
            } else if self.rest().starts_with("<?") {
                self.parse_pi()?;
            } else if self.rest().starts_with('<') {
                if self.walk_element(&scope, depth + 1, visit)?.is_break() {
                    return Ok(ControlFlow::Break(()));
                }
            } else if self.eof() {
                return Err(self.err(ErrorKind::UnexpectedEof));
            } else {
                self.parse_text()?;
            }
        }
    }

    fn parse_element(&mut self, parent_scope: &NsScope<'_>) -> Result<Element, XmlError> {
        let mut scope = parent_scope.child();
        let mut attrs = Vec::new();
        let StartTag {
            raw,
            prefix,
            local,
            ns,
            self_closing,
        } = self.parse_start_tag(&mut scope, &mut attrs)?;
        let mut element = Element {
            prefix: prefix.map(intern),
            name: intern(local),
            ns,
            attrs,
            children: Vec::new(),
        };
        if self_closing {
            return Ok(element);
        }

        // Content until the matching end tag.
        loop {
            if self.rest().starts_with("</") {
                self.parse_end_tag(raw)?;
                return Ok(element);
            } else if self.rest().starts_with("<!--") {
                let c = self.parse_comment()?;
                element.children.push(c);
            } else if self.rest().starts_with("<![CDATA[") {
                let c = self.parse_cdata()?;
                element.children.push(c);
            } else if self.rest().starts_with("<?") {
                let c = self.parse_pi()?;
                element.children.push(c);
            } else if self.rest().starts_with('<') {
                let child = self.parse_element(&scope)?;
                element.children.push(Node::Element(child));
            } else if self.eof() {
                return Err(self.err(ErrorKind::UnexpectedEof));
            } else {
                let text = self.parse_text()?;
                if !text.is_empty() {
                    element.children.push(Node::Text(text));
                }
            }
        }
    }

    fn parse_text(&mut self) -> Result<String, XmlError> {
        let mut out = String::new();
        loop {
            // copy whole delimiter-free runs at once instead of per-char
            let rest = self.rest();
            let stop = rest.find(['<', '&']).unwrap_or(rest.len());
            out.push_str(&rest[..stop]);
            self.pos += stop;
            match self.peek() {
                Some('&') => {
                    self.bump();
                    out.push(self.parse_entity()?);
                }
                _ => break,
            }
        }
        Ok(out)
    }
}

fn extract_pseudo_attr(decl: &str, name: &str) -> Option<String> {
    let idx = decl.find(name)?;
    let rest = decl[idx + name.len()..].trim_start();
    let rest = rest.strip_prefix('=')?.trim_start();
    let quote = rest.chars().next()?;
    if quote != '"' && quote != '\'' {
        return None;
    }
    let body = &rest[1..];
    let end = body.find(quote)?;
    Some(body[..end].to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QName;

    #[test]
    fn parses_simple_element() {
        let e = parse("<a/>").unwrap();
        assert_eq!(e.name, "a");
        assert!(e.children.is_empty());
    }

    #[test]
    fn parses_nested_with_text_and_attrs() {
        let e = parse(r#"<a k="v"><b>hi</b><b>bye</b></a>"#).unwrap();
        assert_eq!(e.attr("k"), Some("v"));
        let texts: Vec<_> = e.children_named("b").map(|b| b.text()).collect();
        assert_eq!(texts, ["hi", "bye"]);
    }

    #[test]
    fn resolves_default_and_prefixed_namespaces() {
        let e = parse(r#"<root xmlns="urn:d" xmlns:p="urn:p"><p:x p:a="1" b="2"/><y/></root>"#)
            .unwrap();
        assert_eq!(e.qname(), QName::with_ns("urn:d", "root"));
        let x = e.child("x").unwrap();
        assert_eq!(x.qname(), QName::with_ns("urn:p", "x"));
        assert_eq!(x.attr_ns("urn:p", "a"), Some("1"));
        // unprefixed attributes are in no namespace
        assert_eq!(x.attr("b"), Some("2"));
        assert_eq!(x.attr_ns("urn:d", "b"), None);
        // default namespace applies to unprefixed child elements
        assert_eq!(e.child("y").unwrap().qname(), QName::with_ns("urn:d", "y"));
    }

    #[test]
    fn default_ns_can_be_undeclared() {
        let e = parse(r#"<a xmlns="urn:d"><b xmlns=""/></a>"#).unwrap();
        assert_eq!(e.child("b").unwrap().ns, None);
    }

    #[test]
    fn undeclared_prefix_is_an_error() {
        let err = parse("<p:a/>").unwrap_err();
        assert!(err.to_string().contains("undeclared"));
    }

    #[test]
    fn inner_scope_shadows_outer() {
        let e = parse(r#"<a xmlns:p="urn:1"><b xmlns:p="urn:2"><p:c/></b><p:d/></a>"#).unwrap();
        let c = e.child("b").unwrap().child("c").unwrap();
        assert_eq!(c.ns.as_deref(), Some("urn:2"));
        assert_eq!(e.child("d").unwrap().ns.as_deref(), Some("urn:1"));
    }

    #[test]
    fn mismatched_tags_rejected() {
        assert!(parse("<a><b></a></b>").is_err());
        assert!(parse("<a></b>").is_err());
    }

    #[test]
    fn trailing_content_rejected() {
        assert!(parse("<a/><b/>").is_err());
        assert!(parse("<a/>junk").is_err());
        // trailing whitespace and comments are fine
        assert!(parse("<a/> \n <!-- bye -->").is_ok());
    }

    #[test]
    fn entities_in_text_and_attrs() {
        let e = parse(r#"<a k="&lt;&quot;&#65;">x &amp; y</a>"#).unwrap();
        assert_eq!(e.attr("k"), Some("<\"A"));
        assert_eq!(e.text(), "x & y");
    }

    #[test]
    fn unknown_entity_rejected() {
        assert!(parse("<a>&nope;</a>").is_err());
    }

    #[test]
    fn cdata_preserved() {
        let e = parse("<a><![CDATA[<raw> & stuff]]></a>").unwrap();
        assert_eq!(e.text(), "<raw> & stuff");
        assert!(matches!(e.children[0], Node::CData(_)));
    }

    #[test]
    fn comments_and_pis_in_content() {
        let e = parse("<a><!-- note --><?php echo ?><b/></a>").unwrap();
        assert_eq!(e.children.len(), 3);
        assert!(e.child("b").is_some());
    }

    #[test]
    fn xml_declaration_parsed() {
        let d = parse_document("<?xml version=\"1.1\" encoding=\"utf-8\"?><a/>").unwrap();
        assert_eq!(d.version.as_deref(), Some("1.1"));
        assert_eq!(d.encoding.as_deref(), Some("utf-8"));
    }

    #[test]
    fn doctype_skipped() {
        let e = parse("<!DOCTYPE html [<!ENTITY x \"y\">]><a/>").unwrap();
        assert_eq!(e.name, "a");
    }

    #[test]
    fn duplicate_attribute_rejected() {
        assert!(parse(r#"<a k="1" k="2"/>"#).is_err());
    }

    #[test]
    fn empty_input_rejected() {
        assert!(parse("").is_err());
        assert!(parse("   ").is_err());
    }

    #[test]
    fn whitespace_only_text_kept() {
        // we do not strip whitespace: mixed content must round-trip
        let e = parse("<a> <b/> </a>").unwrap();
        assert_eq!(e.children.len(), 3);
    }

    #[test]
    fn error_offsets_are_plausible() {
        let err = parse("<a><b></c></a>").unwrap_err();
        assert!(err.offset() > 0 && err.offset() <= 14);
    }

    #[test]
    fn bom_is_skipped() {
        let e = parse("\u{feff}<a/>").unwrap();
        assert_eq!(e.name, "a");
    }

    #[test]
    fn scan_visits_start_tags_with_depth_and_namespace() {
        let mut seen = Vec::new();
        scan_start_tags(
            r#"<a xmlns="urn:d" xmlns:p="urn:p"><!-- c --><p:b k="&amp;">t<c/></p:b><d xmlns=""/></a>"#,
            |depth, tag| {
                seen.push((depth, tag.name(), tag.ns().map(str::to_string)));
                ControlFlow::Continue(())
            },
        )
        .unwrap();
        let ns = |s: &str| Some(s.to_string());
        assert_eq!(
            seen,
            [
                (0, "a", ns("urn:d")),
                (1, "b", ns("urn:p")),
                (2, "c", ns("urn:d")),
                (1, "d", None),
            ]
        );
    }

    #[test]
    fn scan_checks_what_it_walks_and_nothing_after_a_break() {
        let stop_at = |name: &'static str| {
            move |_: usize, tag: &StartTag<'_>| {
                if tag.name() == name {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            }
        };
        // the defect lies behind the stop: unseen
        assert!(scan_start_tags("<a><b/><c></a>", stop_at("b")).is_ok());
        // the defect lies before it, or there is no stop: parse's verdict
        for bad in [
            "<a><x:y/><b/></a>",
            "<a><c></a><b/>",
            "<a k='1' k='2'><b/></a>",
        ] {
            assert!(parse(bad).is_err());
            assert!(scan_start_tags(bad, stop_at("b")).is_err(), "{bad}");
        }
        for bad in ["<a><b/></a><c/>", "<a>&nope;</a>", ""] {
            assert_eq!(
                scan_start_tags(bad, stop_at("never")).unwrap_err(),
                parse(bad).unwrap_err()
            );
        }
    }

    #[test]
    fn bad_names_rejected() {
        assert!(parse("<1a/>").is_err());
        assert!(parse("<a:b:c/>").is_err());
    }
}
