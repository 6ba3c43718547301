//! A non-validating XML 1.0 subset parser.
//!
//! Produces [`XmlTree`]s directly, interning labels into a caller-supplied
//! [`Interner`] so that trees parsed for the same corpus share a label
//! namespace. Supported: prolog, DOCTYPE (skipped), comments, processing
//! instructions, elements, attributes, character data, CDATA sections, the
//! five predefined entities and numeric character references.
//!
//! Whitespace-only text between elements is dropped by default
//! ([`ParseOptions::keep_whitespace_text`]), matching the data-centric tree
//! model of the paper where `#PCDATA` leaves carry content, not indentation.

use crate::tree::{XmlTree, S_LABEL};
use cxk_util::Interner;
use std::fmt;

/// Errors produced while parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlError {
    /// Byte offset where the error was detected.
    pub offset: usize,
    /// 1-based line number of the offset (newlines counted as bytes).
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl XmlError {
    /// Builds an error at `offset`, deriving the line number from the
    /// document bytes (for callers that hold the whole input; streaming
    /// parsers track the line incrementally instead).
    pub fn at(bytes: &[u8], offset: usize, message: impl Into<String>) -> Self {
        Self {
            offset,
            line: line_of(bytes, offset),
            message: message.into(),
        }
    }
}

/// 1-based line number of byte `offset` in `bytes`.
pub(crate) fn line_of(bytes: &[u8], offset: usize) -> usize {
    let upto = offset.min(bytes.len());
    1 + bytes[..upto].iter().filter(|&&b| b == b'\n').count()
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "XML parse error at line {}, byte {}: {}",
            self.line, self.offset, self.message
        )
    }
}

impl std::error::Error for XmlError {}

/// Parser configuration.
#[derive(Debug, Clone)]
pub struct ParseOptions {
    /// Keep text nodes consisting solely of whitespace (default `false`).
    pub keep_whitespace_text: bool,
    /// Trim leading/trailing whitespace of kept text nodes (default `true`).
    pub trim_text: bool,
    /// Merge consecutive text/CDATA runs into a single leaf (default `true`).
    pub coalesce_text: bool,
}

impl Default for ParseOptions {
    fn default() -> Self {
        Self {
            keep_whitespace_text: false,
            trim_text: true,
            coalesce_text: true,
        }
    }
}

/// Parses an XML document into an [`XmlTree`], interning labels in `interner`.
pub fn parse_document(
    input: &str,
    interner: &mut Interner,
    options: &ParseOptions,
) -> Result<XmlTree, XmlError> {
    let mut parser = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        interner,
        options,
    };
    parser.skip_bom();
    parser.skip_misc()?;
    let tree = parser.parse_element_root()?;
    parser.skip_misc()?;
    if parser.pos < parser.bytes.len() {
        return Err(parser.error("trailing content after document element"));
    }
    Ok(tree)
}

struct Parser<'a, 'b> {
    bytes: &'a [u8],
    pos: usize,
    interner: &'b mut Interner,
    options: &'b ParseOptions,
}

impl<'a, 'b> Parser<'a, 'b> {
    fn error(&self, message: impl Into<String>) -> XmlError {
        XmlError::at(self.bytes, self.pos, message)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.bytes[self.pos..].starts_with(s.as_bytes())
    }

    fn bump(&mut self, n: usize) {
        self.pos += n;
    }

    fn skip_bom(&mut self) {
        if self.bytes.starts_with(&[0xEF, 0xBB, 0xBF]) {
            self.pos = 3;
        }
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    /// Skips whitespace, comments, PIs and a DOCTYPE outside the root element.
    fn skip_misc(&mut self) -> Result<(), XmlError> {
        loop {
            self.skip_whitespace();
            if self.starts_with("<?") {
                self.skip_until("?>")?;
            } else if self.starts_with("<!--") {
                self.skip_until("-->")?;
            } else if self.starts_with("<!DOCTYPE") {
                self.skip_doctype()?;
            } else {
                return Ok(());
            }
        }
    }

    fn skip_until(&mut self, terminator: &str) -> Result<(), XmlError> {
        let hay = &self.bytes[self.pos..];
        match find_subslice(hay, terminator.as_bytes()) {
            Some(i) => {
                self.pos += i + terminator.len();
                Ok(())
            }
            None => Err(self.error(format!("unterminated construct, expected `{terminator}`"))),
        }
    }

    /// Skips a DOCTYPE declaration, including an internal subset in brackets.
    fn skip_doctype(&mut self) -> Result<(), XmlError> {
        let mut depth = 0usize;
        while let Some(c) = self.peek() {
            match c {
                b'[' => depth += 1,
                b']' => depth = depth.saturating_sub(1),
                b'>' if depth == 0 => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => {}
            }
            self.pos += 1;
        }
        Err(self.error("unterminated DOCTYPE"))
    }

    fn parse_name(&mut self) -> Result<String, XmlError> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            let ok =
                c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.' | b':') || c >= 0x80;
            if !ok {
                break;
            }
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.error("expected a name"));
        }
        let name = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("name is not valid UTF-8"))?;
        if name.starts_with(|c: char| c.is_ascii_digit() || c == '-' || c == '.') {
            return Err(self.error(format!("invalid name start in `{name}`")));
        }
        Ok(name.to_string())
    }

    fn expect(&mut self, c: u8) -> Result<(), XmlError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected `{}`", c as char)))
        }
    }

    fn parse_element_root(&mut self) -> Result<XmlTree, XmlError> {
        if self.peek() != Some(b'<') {
            return Err(self.error("expected document element"));
        }
        self.pos += 1;
        let name = self.parse_name()?;
        let label = self.interner.intern(&name);
        let mut tree = XmlTree::with_root(label);
        let root = tree.root();
        let closed = self.parse_attributes_and_close(&mut tree, root)?;
        if !closed {
            self.parse_content(&mut tree, root, &name)?;
        }
        Ok(tree)
    }

    /// Parses attributes and the tag terminator. Returns `true` for
    /// self-closing (`/>`) tags.
    fn parse_attributes_and_close(
        &mut self,
        tree: &mut XmlTree,
        element: crate::tree::NodeId,
    ) -> Result<bool, XmlError> {
        loop {
            self.skip_whitespace();
            match self.peek() {
                Some(b'>') => {
                    self.pos += 1;
                    return Ok(false);
                }
                Some(b'/') => {
                    self.pos += 1;
                    self.expect(b'>')?;
                    return Ok(true);
                }
                Some(_) => {
                    let attr_name = self.parse_name()?;
                    self.skip_whitespace();
                    self.expect(b'=')?;
                    self.skip_whitespace();
                    let quote = match self.peek() {
                        Some(q @ (b'"' | b'\'')) => q,
                        _ => return Err(self.error("expected quoted attribute value")),
                    };
                    self.pos += 1;
                    let start = self.pos;
                    while let Some(c) = self.peek() {
                        if c == quote {
                            break;
                        }
                        if c == b'<' {
                            return Err(self.error("`<` not allowed in attribute value"));
                        }
                        self.pos += 1;
                    }
                    if self.peek() != Some(quote) {
                        return Err(self.error("unterminated attribute value"));
                    }
                    let raw = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.error("attribute value is not valid UTF-8"))?;
                    let value =
                        decode_entities(raw).map_err(|msg| XmlError::at(self.bytes, start, msg))?;
                    self.pos += 1; // closing quote
                    let name_sym = self.interner.intern(&attr_name);
                    tree.add_attribute(element, name_sym, value);
                }
                None => return Err(self.error("unterminated start tag")),
            }
        }
    }

    /// Parses element content up to and including the matching end tag.
    fn parse_content(
        &mut self,
        tree: &mut XmlTree,
        element: crate::tree::NodeId,
        element_name: &str,
    ) -> Result<(), XmlError> {
        let mut pending_text = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error(format!("unclosed element `{element_name}`"))),
                Some(b'<') => {
                    if self.starts_with("</") {
                        self.flush_text(tree, element, &mut pending_text);
                        self.bump(2);
                        let name = self.parse_name()?;
                        if name != element_name {
                            return Err(self.error(format!(
                                "mismatched end tag: expected `</{element_name}>`, found `</{name}>`"
                            )));
                        }
                        self.skip_whitespace();
                        self.expect(b'>')?;
                        return Ok(());
                    } else if self.starts_with("<!--") {
                        self.skip_until("-->")?;
                    } else if self.starts_with("<![CDATA[") {
                        self.bump("<![CDATA[".len());
                        let hay = &self.bytes[self.pos..];
                        let end = find_subslice(hay, b"]]>")
                            .ok_or_else(|| self.error("unterminated CDATA section"))?;
                        let text = std::str::from_utf8(&hay[..end])
                            .map_err(|_| self.error("CDATA is not valid UTF-8"))?;
                        pending_text.push_str(text);
                        self.bump(end + 3);
                        if !self.options.coalesce_text {
                            self.flush_text(tree, element, &mut pending_text);
                        }
                    } else if self.starts_with("<?") {
                        self.skip_until("?>")?;
                    } else {
                        self.flush_text(tree, element, &mut pending_text);
                        self.bump(1);
                        let name = self.parse_name()?;
                        let label = self.interner.intern(&name);
                        let child = tree.add_element(element, label);
                        let closed = self.parse_attributes_and_close(tree, child)?;
                        if !closed {
                            self.parse_content(tree, child, &name)?;
                        }
                    }
                }
                Some(_) => {
                    let start = self.pos;
                    while let Some(c) = self.peek() {
                        if c == b'<' {
                            break;
                        }
                        self.pos += 1;
                    }
                    let raw = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.error("text is not valid UTF-8"))?;
                    let decoded =
                        decode_entities(raw).map_err(|msg| XmlError::at(self.bytes, start, msg))?;
                    pending_text.push_str(&decoded);
                    if !self.options.coalesce_text {
                        self.flush_text(tree, element, &mut pending_text);
                    }
                }
            }
        }
    }

    fn flush_text(
        &mut self,
        tree: &mut XmlTree,
        element: crate::tree::NodeId,
        pending: &mut String,
    ) {
        if pending.is_empty() {
            return;
        }
        let keep = self.options.keep_whitespace_text || !pending.trim().is_empty();
        if keep {
            let text = if self.options.trim_text {
                pending.trim().to_string()
            } else {
                std::mem::take(pending)
            };
            if !text.is_empty() || self.options.keep_whitespace_text {
                let s = self.interner.intern(S_LABEL);
                tree.add_text(element, s, text);
            }
        }
        pending.clear();
    }
}

fn find_subslice(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    if needle.is_empty() || haystack.len() < needle.len() {
        return None;
    }
    haystack
        .windows(needle.len())
        .position(|window| window == needle)
}

/// Decodes the five predefined entities plus decimal/hex character
/// references. Unknown entities are an error (this is a parser for
/// well-formed data, not a recovery tool).
pub fn decode_entities(raw: &str) -> Result<String, String> {
    let mut out = String::with_capacity(raw.len());
    decode_entities_into(raw, &mut out)?;
    Ok(out)
}

/// [`decode_entities`], appending to `out`: text without `&` is appended
/// as it is. On error `out` holds an unspecified prefix.
pub(crate) fn decode_entities_into(raw: &str, out: &mut String) -> Result<(), String> {
    let mut rest = raw;
    while let Some(amp) = rest.find('&') {
        out.push_str(&rest[..amp]);
        rest = &rest[amp..];
        let semi = rest
            .find(';')
            .ok_or_else(|| "unterminated entity reference".to_string())?;
        let entity = &rest[1..semi];
        match entity {
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "amp" => out.push('&'),
            "apos" => out.push('\''),
            "quot" => out.push('"'),
            _ if entity.starts_with("#x") || entity.starts_with("#X") => {
                let code = u32::from_str_radix(&entity[2..], 16)
                    .map_err(|_| format!("bad hex character reference `&{entity};`"))?;
                out.push(
                    char::from_u32(code)
                        .ok_or_else(|| format!("invalid code point in `&{entity};`"))?,
                );
            }
            _ if entity.starts_with('#') => {
                let code = entity[1..]
                    .parse::<u32>()
                    .map_err(|_| format!("bad character reference `&{entity};`"))?;
                out.push(
                    char::from_u32(code)
                        .ok_or_else(|| format!("invalid code point in `&{entity};`"))?,
                );
            }
            _ => return Err(format!("unknown entity `&{entity};`")),
        }
        rest = &rest[semi + 1..];
    }
    out.push_str(rest);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::NodeKind;

    fn parse(input: &str) -> (XmlTree, Interner) {
        let mut interner = Interner::new();
        let tree = parse_document(input, &mut interner, &ParseOptions::default())
            .unwrap_or_else(|e| panic!("parse failed: {e}"));
        (tree, interner)
    }

    #[test]
    fn parses_minimal_document() {
        let (tree, interner) = parse("<root/>");
        assert_eq!(tree.len(), 1);
        assert_eq!(interner.resolve(tree.node(tree.root()).label), "root");
    }

    #[test]
    fn parses_nested_elements_and_text() {
        let (tree, interner) = parse("<a><b>hello</b><c>world</c></a>");
        assert_eq!(tree.len(), 5);
        let leaves: Vec<String> = tree
            .leaves()
            .map(|id| tree.node(id).value().unwrap().to_string())
            .collect();
        assert_eq!(leaves, vec!["hello", "world"]);
        let b_leaf = tree.leaves().next().unwrap();
        assert_eq!(tree.display_path(b_leaf, &interner), "a.b.S");
    }

    #[test]
    fn parses_attributes_in_order() {
        let (tree, interner) = parse(r#"<paper key="k1" year='2003'/>"#);
        let root = tree.node(tree.root());
        assert_eq!(root.children.len(), 2);
        let names: Vec<&str> = root
            .children
            .iter()
            .map(|c| interner.resolve(tree.node(*c).label))
            .collect();
        assert_eq!(names, vec!["key", "year"]);
        let values: Vec<&str> = root
            .children
            .iter()
            .map(|c| tree.node(*c).value().unwrap())
            .collect();
        assert_eq!(values, vec!["k1", "2003"]);
    }

    #[test]
    fn skips_prolog_doctype_comments_and_pis() {
        let doc = r#"<?xml version="1.0" encoding="UTF-8"?>
            <!DOCTYPE dblp [ <!ELEMENT dblp (x)*> ]>
            <!-- a comment -->
            <?target data?>
            <dblp><!-- inner --><x>1</x><?pi?></dblp>"#;
        let (tree, _interner) = parse(doc);
        assert_eq!(tree.len(), 3); // dblp, x, S
    }

    #[test]
    fn decodes_entities_in_text_and_attributes() {
        let (tree, _) = parse(r#"<m a="&lt;&amp;&gt;">x &#65; &#x42; &quot;q&quot;</m>"#);
        let mut leaves = tree.leaves();
        let attr = leaves.next().unwrap();
        assert_eq!(tree.node(attr).value(), Some("<&>"));
        let text = leaves.next().unwrap();
        assert_eq!(tree.node(text).value(), Some("x A B \"q\""));
    }

    #[test]
    fn cdata_is_literal_text() {
        let (tree, _) = parse("<m><![CDATA[a < b & c]]></m>");
        let leaf = tree.leaves().next().unwrap();
        assert_eq!(tree.node(leaf).value(), Some("a < b & c"));
    }

    #[test]
    fn whitespace_only_text_is_dropped_by_default() {
        let (tree, _) = parse("<a>\n  <b>x</b>\n  <c>y</c>\n</a>");
        // a, b, S(x), c, S(y) — no whitespace leaves
        assert_eq!(tree.len(), 5);
    }

    #[test]
    fn keep_whitespace_option_preserves_it() {
        let mut interner = Interner::new();
        let options = ParseOptions {
            keep_whitespace_text: true,
            trim_text: false,
            coalesce_text: true,
        };
        let tree = parse_document("<a> <b>x</b> </a>", &mut interner, &options).unwrap();
        let text_leaves: Vec<&str> = tree
            .leaves()
            .filter(|id| matches!(tree.node(*id).kind, NodeKind::Text(_)))
            .map(|id| tree.node(id).value().unwrap())
            .collect();
        assert_eq!(text_leaves, vec![" ", "x", " "]);
    }

    #[test]
    fn mixed_content_produces_multiple_text_leaves() {
        let (tree, _) = parse("<p>hello <b>bold</b> world</p>");
        let text_values: Vec<&str> = tree
            .leaves()
            .map(|id| tree.node(id).value().unwrap())
            .collect();
        assert_eq!(text_values, vec!["hello", "bold", "world"]);
    }

    #[test]
    fn rejects_mismatched_end_tag() {
        let mut interner = Interner::new();
        let err =
            parse_document("<a><b></a></b>", &mut interner, &ParseOptions::default()).unwrap_err();
        assert!(err.message.contains("mismatched end tag"), "{err}");
    }

    #[test]
    fn rejects_unclosed_element() {
        let mut interner = Interner::new();
        let err =
            parse_document("<a><b></b>", &mut interner, &ParseOptions::default()).unwrap_err();
        assert!(err.message.contains("unclosed element"), "{err}");
    }

    #[test]
    fn rejects_trailing_content() {
        let mut interner = Interner::new();
        let err = parse_document("<a/><b/>", &mut interner, &ParseOptions::default()).unwrap_err();
        assert!(err.message.contains("trailing content"), "{err}");
    }

    #[test]
    fn rejects_unknown_entity() {
        let mut interner = Interner::new();
        let err =
            parse_document("<a>&nope;</a>", &mut interner, &ParseOptions::default()).unwrap_err();
        assert!(err.message.contains("unknown entity"), "{err}");
    }

    #[test]
    fn rejects_bad_name_start() {
        let mut interner = Interner::new();
        let err = parse_document("<1a/>", &mut interner, &ParseOptions::default()).unwrap_err();
        assert!(err.message.contains("invalid name start"), "{err}");
    }

    #[test]
    fn unicode_content_round_trips() {
        let (tree, _) = parse("<t>caffè — déjà vu ✓</t>");
        let leaf = tree.leaves().next().unwrap();
        assert_eq!(tree.node(leaf).value(), Some("caffè — déjà vu ✓"));
    }

    #[test]
    fn deep_nesting_parses() {
        let mut doc = String::new();
        for i in 0..200 {
            doc.push_str(&format!("<n{i}>"));
        }
        doc.push('x');
        for i in (0..200).rev() {
            doc.push_str(&format!("</n{i}>"));
        }
        let (tree, _) = parse(&doc);
        assert_eq!(tree.depth(), 201);
    }

    #[test]
    fn bom_is_skipped() {
        let mut interner = Interner::new();
        let doc = "\u{FEFF}<a/>";
        let tree = parse_document(doc, &mut interner, &ParseOptions::default()).unwrap();
        assert_eq!(tree.len(), 1);
    }
}
