//! Recursive-descent parser for the supported XML subset.

use crate::document::{Attribute, Document, Element, Node};
use crate::error::{ErrorKind, XmlError};
use crate::escape::{find_any, resolve_entity};
use crate::intern::{intern, IStr};
use crate::name::{is_valid_ncname, split_prefixed};
use std::ops::ControlFlow;

/// How deep elements may nest (the root is level 1). The parser recurses
/// once per level, and so does everything that later walks the tree, so
/// input from the network must not choose the depth: 5 000 nested `<a>`
/// (35 KB) used to overflow a 2 MiB actor-thread stack. Every document the
/// stack itself produces — envelopes, WSDL, ontologies, advertisements —
/// is under 20 deep.
pub const MAX_DEPTH: usize = 128;

/// Parses a document and returns its root element.
///
/// This is the common entry point for protocol payloads where the XML
/// declaration is irrelevant.
///
/// # Errors
///
/// Returns [`XmlError`] when the input is not well-formed per the supported
/// subset (see the crate docs), including undeclared namespace prefixes and
/// elements nested deeper than [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<Element, XmlError> {
    parse_document(input).map(|d| d.root)
}

/// Parses a full document, keeping the XML declaration.
///
/// # Errors
///
/// Returns [`XmlError`] when the input is not well-formed per the supported
/// subset (see the crate docs), including undeclared namespace prefixes and
/// elements nested deeper than [`MAX_DEPTH`].
pub fn parse_document(input: &str) -> Result<Document, XmlError> {
    let mut p = Parser::new(input);
    let (version, encoding) = p.parse_prolog()?;
    let root = p.parse_element(0)?;
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
    if p.walk_element(0, &mut visit)?.is_continue() {
        p.parse_epilog()?;
    }
    Ok(())
}

/// An element's start tag: its name and resolved namespace.
pub struct StartTag<'a> {
    /// The name as written, prefix included (what the end tag must repeat).
    raw: &'a str,
    prefix: Option<IStr>,
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

/// A lexical name, split at its colon.
struct RawName<'a> {
    raw: &'a str,
    prefix: Option<&'a str>,
    local: &'a str,
}

const NAME_START: u8 = 1;
const NAME_CHAR: u8 = 2;
const SPACE: u8 = 4;

/// What the `char` predicates of the fallback paths say about each ASCII
/// byte: `is_alphabetic() || '_'`, `is_alphanumeric() || '.' | '-' | '_'`
/// and `is_whitespace()` (which, unlike `u8::is_ascii_whitespace`, counts
/// the vertical tab). Bytes from 0x80 up have no class: they send the
/// caller to the `char` code.
const ASCII_CLASS: [u8; 256] = {
    let mut class = [0; 256];
    let mut b = 0;
    while b < 128 {
        let c = b as u8;
        if c.is_ascii_alphabetic() || c == b'_' {
            class[b] = NAME_START | NAME_CHAR;
        } else if c.is_ascii_digit() || c == b'.' || c == b'-' {
            class[b] = NAME_CHAR;
        } else if matches!(c, b'\t'..=b'\r' | b' ') {
            class[b] = SPACE;
        }
        b += 1;
    }
    class
};

fn is_class(b: u8, class: u8) -> bool {
    ASCII_CLASS[usize::from(b)] & class != 0
}

struct Parser<'a> {
    input: &'a str,
    pos: usize,
    /// The namespace declarations in scope, outermost first: `(prefix,
    /// uri)`, the prefix `""` for the default namespace, the URI `None`
    /// for an un-declaration (`xmlns=""`). An element pushes its own on
    /// top and truncates back to where it started when it closes, so a
    /// lookup from the top finds the innermost declaration first. The
    /// reserved `xml` and `xmlns` bindings sit below the bottom of the
    /// stack ([`Parser::resolve`]).
    bindings: Vec<(IStr, Option<IStr>)>,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser {
            input,
            pos: 0,
            bindings: Vec::new(),
        }
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

    fn peek_byte(&self) -> Option<u8> {
        self.input.as_bytes().get(self.pos).copied()
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
            Err(self.unexpected())
        }
    }

    /// [`Parser::expect`] for one ASCII byte.
    fn expect_byte(&mut self, b: u8) -> Result<(), XmlError> {
        if self.peek_byte() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.unexpected())
        }
    }

    /// The error for whatever sits at the cursor.
    #[cold]
    fn unexpected(&self) -> XmlError {
        match self.peek() {
            Some(c) => self.err(ErrorKind::UnexpectedChar(c)),
            None => self.err(ErrorKind::UnexpectedEof),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.peek_byte() {
            if is_class(b, SPACE) {
                self.pos += 1;
            } else if b >= 0x80 {
                match self.peek() {
                    Some(c) if c.is_whitespace() => self.pos += c.len_utf8(),
                    _ => return,
                }
            } else {
                return;
            }
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

    /// Reads and validates a name in one pass over its bytes. A byte from
    /// 0x80 up hands the whole name to [`Parser::parse_name_chars`]: until
    /// then nothing was consumed, so both paths start from the same place.
    fn parse_name(&mut self) -> Result<RawName<'a>, XmlError> {
        let bytes = self.input.as_bytes();
        let start = self.pos;
        let mut end = start;
        let mut colon = None;
        let mut second_colon = false;
        while let Some(&b) = bytes.get(end) {
            if b == b':' {
                second_colon |= colon.is_some();
                colon.get_or_insert(end);
            } else if b >= 0x80 {
                return self.parse_name_chars();
            } else if !is_class(b, NAME_CHAR) {
                break;
            }
            end += 1;
        }
        self.pos = end;
        let raw = &self.input[start..end];
        if raw.is_empty() {
            return Err(self.err(ErrorKind::BadName(String::new())));
        }
        // every byte is a name character or a colon already; what is left
        // of `is_valid_ncname` is how each part starts
        let local_at = colon.map_or(start, |c| c + 1);
        let starts_name = |at: usize| at < end && is_class(bytes[at], NAME_START);
        if second_colon || !starts_name(start) || !starts_name(local_at) {
            return Err(self.err(ErrorKind::BadName(raw.to_string())));
        }
        Ok(RawName {
            raw,
            prefix: colon.map(|c| &self.input[start..c]),
            local: &self.input[local_at..end],
        })
    }

    /// [`Parser::parse_name`] by `char`, for names that are not all ASCII.
    #[cold]
    fn parse_name_chars(&mut self) -> Result<RawName<'a>, XmlError> {
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
        if !prefix.is_none_or(is_valid_ncname) || !is_valid_ncname(local) {
            return Err(self.err(ErrorKind::BadName(raw.to_string())));
        }
        Ok(RawName { raw, prefix, local })
    }

    fn parse_attr_value(&mut self) -> Result<String, XmlError> {
        let quote = match self.peek_byte() {
            Some(q @ (b'"' | b'\'')) => q,
            _ => {
                // the offset of this error is past the offending character
                return Err(match self.bump() {
                    Some(c) => self.err(ErrorKind::UnexpectedChar(c)),
                    None => self.err(ErrorKind::UnexpectedEof),
                });
            }
        };
        self.pos += 1;
        let mut out = String::new();
        loop {
            // copy whole delimiter-free runs at once instead of per-char
            let rest = self.rest();
            let stop = find_any(rest.as_bytes(), [quote, b'&', b'<']).unwrap_or(rest.len());
            out.push_str(&rest[..stop]);
            self.pos += stop;
            let Some(&delimiter) = rest.as_bytes().get(stop) else {
                return Err(self.err(ErrorKind::UnexpectedEof));
            };
            self.pos += 1;
            match delimiter {
                b'&' => out.push(self.parse_entity()?),
                b'<' => return Err(self.err(ErrorKind::UnexpectedChar('<'))),
                _ => break, // the closing quote
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
            // entity bodies are tiny; report the head of an overlong one
            // (cut at a character boundary: the body is input, not ours)
            let mut cut = 12;
            while !body.is_char_boundary(cut) {
                cut -= 1;
            }
            return Err(XmlError::new(
                ErrorKind::BadEntity(body[..cut].to_string()),
                start,
            ));
        }
        let c = resolve_entity(body)
            .ok_or_else(|| XmlError::new(ErrorKind::BadEntity(body.to_string()), start))?;
        self.pos += semi + 1;
        Ok(c)
    }

    /// The innermost binding of `prefix` (`""`: the default namespace) as
    /// `(prefix, uri)`, both shared with the declaration that made it — no
    /// interner lookup. `None` when nothing binds it, or the innermost
    /// declaration un-declared it.
    fn resolve(&self, prefix: &str) -> Option<(IStr, IStr)> {
        match self.bindings.iter().rev().find(|(p, _)| p == prefix) {
            Some((p, uri)) => uri.as_ref().map(|uri| (p.clone(), uri.clone())),
            None => {
                // the two bindings every document starts with
                let uri = match prefix {
                    "xml" => crate::XML_NS,
                    "xmlns" => crate::XMLNS_NS,
                    _ => return None,
                };
                Some((intern(prefix), intern(uri)))
            }
        }
    }

    #[cold]
    fn undeclared(&self, prefix: &str) -> XmlError {
        self.err(ErrorKind::UndeclaredPrefix(prefix.to_string()))
    }

    /// Parses `<name attr="v" ...>` or `.../>`: the attributes go into
    /// `attrs`, the namespace declarations among them onto
    /// `self.bindings` — the caller truncates those when the element
    /// closes. `attrs` is the caller's so the returned tag stays small:
    /// carrying the `Vec` out inside it cost 5 % of `parse` on an
    /// element-heavy document.
    #[inline]
    fn parse_start_tag(&mut self, attrs: &mut Vec<Attribute>) -> Result<StartTag<'a>, XmlError> {
        self.expect_byte(b'<')?;
        let name = self.parse_name()?;

        let self_closing;
        loop {
            self.skip_ws();
            match self.peek_byte() {
                Some(b'>') => {
                    self.pos += 1;
                    self_closing = false;
                    break;
                }
                Some(b'/') => {
                    self.pos += 1;
                    self.expect_byte(b'>')?;
                    self_closing = true;
                    break;
                }
                Some(_) => {
                    let attr = self.parse_name()?;
                    self.skip_ws();
                    self.expect_byte(b'=')?;
                    self.skip_ws();
                    let value = self.parse_attr_value()?;
                    if attrs
                        .iter()
                        .any(|a| a.name == attr.local && a.prefix.as_deref() == attr.prefix)
                    {
                        return Err(self.err(ErrorKind::DuplicateAttribute(attr.raw.to_string())));
                    }
                    let local = intern(attr.local);
                    // Record namespace declarations into the scope.
                    let declares = match attr.prefix {
                        None if attr.local == "xmlns" => Some(IStr::default()),
                        Some("xmlns") => Some(local.clone()),
                        _ => None,
                    };
                    if let Some(prefix) = declares {
                        let uri = (!value.is_empty()).then(|| intern(&value));
                        self.bindings.push((prefix, uri));
                    }
                    attrs.push(Attribute {
                        prefix: attr.prefix.map(intern),
                        name: local,
                        ns: None, // resolved below once the scope is complete
                        value,
                    });
                }
                None => return Err(self.err(ErrorKind::UnexpectedEof)),
            }
        }

        // Resolve the element's namespace.
        let (prefix, ns) = match name.prefix {
            Some(p) => {
                let (prefix, uri) = self.resolve(p).ok_or_else(|| self.undeclared(p))?;
                (Some(prefix), Some(uri))
            }
            None => (None, self.resolve("").map(|(_, uri)| uri)),
        };
        // Resolve attribute namespaces (prefixed attributes only).
        for a in attrs {
            if a.is_ns_decl() {
                a.ns = Some(intern(crate::XMLNS_NS));
            } else if let Some(p) = &a.prefix {
                let (_, uri) = self.resolve(p).ok_or_else(|| self.undeclared(p))?;
                a.ns = Some(uri);
            }
        }

        Ok(StartTag {
            raw: name.raw,
            prefix,
            local: name.local,
            ns,
            self_closing,
        })
    }

    /// Parses the rest of an end tag, past its `</`, and checks that it
    /// closes `raw`.
    #[inline]
    fn parse_end_tag(&mut self, raw: &str) -> Result<(), XmlError> {
        self.pos += 2;
        // `raw` passed `parse_name` once; the same bytes followed by a
        // byte no name continues with would pass it again, as `raw`
        let after = self.input.as_bytes().get(self.pos + raw.len());
        let ends_name = matches!(after, Some(&b) if b == b'>' || is_class(b, SPACE));
        if ends_name && self.rest().starts_with(raw) {
            self.pos += raw.len();
            self.skip_ws();
            return self.expect_byte(b'>');
        }
        let end_raw = self.parse_name()?.raw;
        self.skip_ws();
        self.expect_byte(b'>')?;
        if end_raw != raw {
            return Err(self.err(ErrorKind::MismatchedTag {
                expected: raw.to_string(),
                found: end_raw.to_string(),
            }));
        }
        Ok(())
    }

    /// Refuses an element at `depth` (root = 0) past [`MAX_DEPTH`].
    fn check_depth(&self, depth: usize) -> Result<(), XmlError> {
        if depth >= MAX_DEPTH {
            return Err(self.err(ErrorKind::DepthExceeded(MAX_DEPTH)));
        }
        Ok(())
    }

    /// What the content of an open element continues with.
    fn next_content(&self) -> Result<Content, XmlError> {
        let bytes = &self.input.as_bytes()[self.pos..];
        Ok(match bytes {
            [] => return Err(self.err(ErrorKind::UnexpectedEof)),
            [b'<', b'/', ..] => Content::EndTag,
            [b'<', b'?', ..] => Content::Pi,
            [b'<', b'!', ..] if bytes.starts_with(b"<!--") => Content::Comment,
            [b'<', b'!', ..] if bytes.starts_with(b"<![CDATA[") => Content::CData,
            [b'<', ..] => Content::Element,
            _ => Content::Text,
        })
    }

    /// [`scan_start_tags`] for one element and its content: every check
    /// of [`Parser::parse_element`], none of its nodes kept.
    fn walk_element(
        &mut self,
        depth: usize,
        visit: &mut impl FnMut(usize, &StartTag<'a>) -> ControlFlow<()>,
    ) -> Result<ControlFlow<()>, XmlError> {
        self.check_depth(depth)?;
        let scope = self.bindings.len();
        let tag = self.parse_start_tag(&mut Vec::new())?;
        if visit(depth, &tag).is_break() {
            return Ok(ControlFlow::Break(()));
        }
        let mut open = !tag.self_closing;
        while open {
            match self.next_content()? {
                Content::EndTag => {
                    self.parse_end_tag(tag.raw)?;
                    open = false;
                }
                Content::Comment => drop(self.parse_comment()?),
                Content::CData => drop(self.parse_cdata()?),
                Content::Pi => drop(self.parse_pi()?),
                Content::Element => {
                    if self.walk_element(depth + 1, visit)?.is_break() {
                        return Ok(ControlFlow::Break(()));
                    }
                }
                Content::Text => drop(self.parse_text()?),
            }
        }
        self.bindings.truncate(scope);
        Ok(ControlFlow::Continue(()))
    }

    fn parse_element(&mut self, depth: usize) -> Result<Element, XmlError> {
        self.check_depth(depth)?;
        let scope = self.bindings.len();
        let mut attrs = Vec::new();
        let tag = self.parse_start_tag(&mut attrs)?;
        let mut element = Element {
            prefix: tag.prefix,
            name: intern(tag.local),
            ns: tag.ns,
            attrs,
            children: Vec::new(),
        };
        // Content until the matching end tag.
        let mut open = !tag.self_closing;
        while open {
            let child = match self.next_content()? {
                Content::EndTag => {
                    self.parse_end_tag(tag.raw)?;
                    open = false;
                    continue;
                }
                Content::Comment => self.parse_comment()?,
                Content::CData => self.parse_cdata()?,
                Content::Pi => self.parse_pi()?,
                Content::Element => Node::Element(self.parse_element(depth + 1)?),
                Content::Text => Node::Text(self.parse_text()?),
            };
            element.children.push(child);
        }
        // leaving the element's scope: its declarations are the ones on top
        self.bindings.truncate(scope);
        Ok(element)
    }

    /// A text run up to the next `<` (or the end of input); never empty,
    /// because [`Parser::next_content`] saw a byte that is not `<`.
    fn parse_text(&mut self) -> Result<String, XmlError> {
        let mut out = String::new();
        loop {
            // copy whole delimiter-free runs at once instead of per-char
            let rest = self.rest();
            let stop = find_any(rest.as_bytes(), [b'<', b'&']).unwrap_or(rest.len());
            out.push_str(&rest[..stop]);
            self.pos += stop;
            if rest.as_bytes().get(stop) != Some(&b'&') {
                return Ok(out);
            }
            self.pos += 1;
            out.push(self.parse_entity()?);
        }
    }
}

/// The kinds of thing element content is made of.
enum Content {
    EndTag,
    Comment,
    CData,
    Pi,
    Element,
    Text,
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
    fn a_closed_elements_declarations_are_out_of_scope() {
        // the sibling after `b` must not see `b`'s bindings
        let err = parse(r#"<a><b xmlns:p="urn:p"><p:c/></b><p:d/></a>"#).unwrap_err();
        assert_eq!(
            err,
            XmlError::new(ErrorKind::UndeclaredPrefix("p".into()), 38)
        );
        let e = parse(r#"<a xmlns="urn:1"><b xmlns="urn:2"/><c xmlns=""/><d/></a>"#).unwrap();
        let ns: Vec<_> = e.child_elements().map(|c| c.ns.as_deref()).collect();
        assert_eq!(ns, [Some("urn:2"), None, Some("urn:1")]);
    }

    #[test]
    fn prefix_and_namespace_are_the_declarations_own() {
        // no second allocation: the element shares the binding's strings
        let e = parse(r#"<p:a xmlns:p="urn:p"><p:b/></p:a>"#).unwrap();
        let b = e.child("b").unwrap();
        assert_eq!(
            (b.prefix.as_deref(), b.ns.as_deref()),
            (Some("p"), Some("urn:p"))
        );
        assert_eq!(e.attrs[0].ns.as_deref(), Some(crate::XMLNS_NS));
        // the reserved prefix needs no declaration
        let e = parse(r#"<a xml:lang="en"/>"#).unwrap();
        assert_eq!(e.attr_ns(crate::XML_NS, "lang"), Some("en"));
    }

    #[test]
    fn nesting_is_capped() {
        let nested = |depth: usize| format!("{}{}", "<a>".repeat(depth), "</a>".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        // siblings are not depth
        assert!(parse(&format!("<a>{}</a>", "<b/>".repeat(10 * MAX_DEPTH))).is_ok());
        let too_deep = XmlError::new(ErrorKind::DepthExceeded(MAX_DEPTH), 3 * MAX_DEPTH);
        // one level more, and the 5 000 levels that overflowed a 2 MiB stack
        for depth in [MAX_DEPTH + 1, 5_000, 100_000] {
            let text = nested(depth);
            assert_eq!(parse(&text).unwrap_err(), too_deep);
            let walked = scan_start_tags(&text, |_, _| ControlFlow::Continue(()));
            assert_eq!(walked.unwrap_err(), too_deep);
        }
        assert!(too_deep.to_string().contains("nested deeper than 128"));
    }

    #[test]
    fn overlong_entity_is_cut_at_a_character() {
        // byte 12 of the body falls inside an `é`
        let err = parse("<a>&aéééééé;</a>").unwrap_err();
        assert_eq!(err, XmlError::new(ErrorKind::BadEntity("aééééé".into()), 4));
    }

    #[test]
    fn bad_names_rejected() {
        assert!(parse("<1a/>").is_err());
        assert!(parse("<a:b:c/>").is_err());
    }
}
