//! Serialization of [`XmlTree`]s back to XML text.
//!
//! Used by the corpus generators (which build trees programmatically and then
//! emit real XML documents) and by round-trip property tests
//! (`parse(write(t)) == t`).

use crate::tree::{NodeId, NodeKind, XmlTree};
use cxk_util::Interner;
use std::fmt::Write as _;

/// Serialization style.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// Everything on one line, no inter-element whitespace.
    Compact,
    /// Two-space indentation, one element per line (text inline).
    Pretty,
}

/// Serializes `tree` to a standalone XML document string.
pub fn to_xml_string(tree: &XmlTree, interner: &Interner, layout: Layout) -> String {
    let mut out = String::new();
    out.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>");
    if layout == Layout::Pretty {
        out.push('\n');
    }
    write_element(tree, tree.root(), interner, layout, 0, &mut out);
    out
}

fn write_element(
    tree: &XmlTree,
    id: NodeId,
    interner: &Interner,
    layout: Layout,
    depth: usize,
    out: &mut String,
) {
    let node = tree.node(id);
    debug_assert!(matches!(node.kind, NodeKind::Element));
    let name = interner.resolve(node.label);

    if layout == Layout::Pretty && depth > 0 {
        out.push('\n');
        for _ in 0..depth {
            out.push_str("  ");
        }
    }
    out.push('<');
    out.push_str(name);

    let mut content_children = Vec::new();
    for &child in &node.children {
        match &tree.node(child).kind {
            NodeKind::Attribute(value) => {
                let attr_name = interner.resolve(tree.node(child).label);
                let _ = write!(out, " {attr_name}=\"{}\"", escape_attr(value));
            }
            _ => content_children.push(child),
        }
    }

    if content_children.is_empty() {
        out.push_str("/>");
        return;
    }
    out.push('>');

    let only_text = content_children
        .iter()
        .all(|&c| matches!(tree.node(c).kind, NodeKind::Text(_)));
    for &child in &content_children {
        match &tree.node(child).kind {
            NodeKind::Text(text) => out.push_str(&escape_text(text)),
            NodeKind::Element => write_element(tree, child, interner, layout, depth + 1, out),
            // cxk-lint: allow(panic-freedom) -- the DOM writer, which no request runs
            NodeKind::Attribute(_) => unreachable!("attributes handled above"),
        }
    }

    if layout == Layout::Pretty && !only_text {
        out.push('\n');
        for _ in 0..depth {
            out.push_str("  ");
        }
    }
    out.push_str("</");
    out.push_str(name);
    out.push('>');
}

/// Escapes `#PCDATA` content.
pub fn escape_text(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '&' => out.push_str("&amp;"),
            _ => out.push(c),
        }
    }
    out
}

/// Escapes an attribute value for double-quoted serialization.
pub fn escape_attr(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '&' => out.push_str("&amp;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_document, ParseOptions};
    use crate::tree::S_LABEL;

    fn sample(interner: &mut Interner) -> XmlTree {
        let root = interner.intern("software");
        let name = interner.intern("name");
        let license = interner.intern("license");
        let review = interner.intern("review");
        let s = interner.intern(S_LABEL);
        let mut tree = XmlTree::with_root(root);
        tree.add_attribute(tree.root(), license, "MIT & more".into());
        let n = tree.add_element(tree.root(), name);
        tree.add_text(n, s, "cxk<means>".into());
        let r = tree.add_element(tree.root(), review);
        tree.add_text(r, s, "great \"tool\"".into());
        tree
    }

    #[test]
    fn compact_output_is_single_line() {
        let mut interner = Interner::new();
        let tree = sample(&mut interner);
        let xml = to_xml_string(&tree, &interner, Layout::Compact);
        assert!(!xml.contains('\n'));
        assert!(xml.contains("license=\"MIT &amp; more\""));
        assert!(xml.contains("cxk&lt;means&gt;"));
    }

    #[test]
    fn round_trip_preserves_structure_and_values() {
        let mut interner = Interner::new();
        let tree = sample(&mut interner);
        let xml = to_xml_string(&tree, &interner, Layout::Compact);
        let reparsed = parse_document(&xml, &mut interner, &ParseOptions::default()).unwrap();
        assert_eq!(reparsed.len(), tree.len());
        let original_leaves: Vec<String> = tree
            .leaves()
            .map(|l| tree.node(l).value().unwrap().to_string())
            .collect();
        let reparsed_leaves: Vec<String> = reparsed
            .leaves()
            .map(|l| reparsed.node(l).value().unwrap().to_string())
            .collect();
        assert_eq!(original_leaves, reparsed_leaves);
    }

    #[test]
    fn pretty_round_trip_is_structurally_equal() {
        let mut interner = Interner::new();
        let tree = sample(&mut interner);
        let xml = to_xml_string(&tree, &interner, Layout::Pretty);
        let reparsed = parse_document(&xml, &mut interner, &ParseOptions::default()).unwrap();
        assert_eq!(reparsed.len(), tree.len());
    }

    #[test]
    fn childless_element_self_closes() {
        let mut interner = Interner::new();
        let root = interner.intern("empty");
        let tree = XmlTree::with_root(root);
        let xml = to_xml_string(&tree, &interner, Layout::Compact);
        assert!(xml.ends_with("<empty/>"));
    }
}
