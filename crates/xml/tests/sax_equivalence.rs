//! Pins the streaming ingestion path to the DOM path: for any document,
//! `StreamingTupleExtractor` must produce exactly the leaves, tuples, depth
//! and cap status that `parse_document` + `extract_tree_tuples` produce —
//! including truncation order under a tiny `TupleLimits` cap — regardless
//! of how the input bytes are chunked. The single-document entry
//! `extract_document` must further accept and reject exactly the inputs
//! `parse_document` does, with an equal error.

use cxk_util::{DetRng, Interner};
use cxk_xml::sax::{extract_document, StreamedDocument, StreamedLeaf, StreamingTupleExtractor};
use cxk_xml::tree::{NodeKind, S_LABEL};
use cxk_xml::write::{to_xml_string, Layout};
use cxk_xml::{
    count_tree_tuples, extract_tree_tuples, parse_document, ParseOptions, TupleLimits, XmlTree,
};
use proptest::prelude::*;
use std::io::{BufRead, Read};

/// Projects a DOM-parsed tree into the exact shape the streaming extractor
/// emits: leaves in arena (document) order, tuples as leaf-index lists.
fn dom_streamed(xml: &str, labels: &mut Interner, limits: &TupleLimits) -> StreamedDocument {
    dom_route(xml, labels, limits).expect("DOM parse")
}

/// The DOM route as a `Result`: `parse_document`, then extraction
/// projected to the streaming extractor's shape.
fn dom_route(
    xml: &str,
    labels: &mut Interner,
    limits: &TupleLimits,
) -> Result<StreamedDocument, cxk_xml::XmlError> {
    let tree = parse_document(xml, labels, &ParseOptions::default())?;
    let mut leaf_index = std::collections::HashMap::new();
    let mut leaves = Vec::new();
    for (ordinal, id) in tree.leaves().enumerate() {
        leaf_index.insert(id, ordinal as u32);
        leaves.push(StreamedLeaf {
            path: tree.label_path(id),
            is_attribute: matches!(tree.node(id).kind, NodeKind::Attribute(_)),
            value: tree.node(id).value().unwrap_or_default().to_string(),
        });
    }
    let tuples = extract_tree_tuples(&tree, limits)
        .iter()
        .map(|t| t.leaves.iter().map(|l| leaf_index[l]).collect())
        .collect();
    let count = count_tree_tuples(&tree);
    Ok(StreamedDocument {
        leaves,
        tuples,
        depth: tree.depth(),
        tuple_count: count,
        capped: count > limits.max_tuples_per_tree as u64,
    })
}

fn streamed<R: BufRead>(
    input: R,
    labels: &mut Interner,
    limits: &TupleLimits,
) -> Option<StreamedDocument> {
    let mut extractor = StreamingTupleExtractor::new(input, ParseOptions::default(), *limits);
    extractor.next_document(labels).expect("streaming parse")
}

/// A reader that hands the parser exactly one byte per `fill_buf`, forcing
/// every construct to be reassembled across chunk boundaries.
struct OneByteReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl Read for OneByteReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pos >= self.data.len() || buf.is_empty() {
            return Ok(0);
        }
        buf[0] = self.data[self.pos];
        self.pos += 1;
        Ok(1)
    }
}

impl BufRead for OneByteReader<'_> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        let end = (self.pos + 1).min(self.data.len());
        Ok(&self.data[self.pos..end])
    }

    fn consume(&mut self, amt: usize) {
        self.pos += amt;
    }
}

// ---- generator (same recipe as tests/properties.rs) -----------------------

#[derive(Debug, Clone)]
enum NodeSpec {
    Element { label: u8, children: Vec<NodeSpec> },
    Attribute { label: u8, value: String },
    Text { value: String },
}

fn text_value() -> impl Strategy<Value = String> {
    // Printable text including XML-hostile characters, so the serializer
    // emits entities the streaming decoder must reproduce.
    proptest::string::string_regex("[ -~]{1,20}").expect("regex")
}

fn node_spec() -> impl Strategy<Value = NodeSpec> {
    let leaf = prop_oneof![
        (0u8..6, text_value()).prop_map(|(label, value)| NodeSpec::Attribute { label, value }),
        text_value().prop_map(|value| NodeSpec::Text { value }),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        (0u8..6, proptest::collection::vec(inner, 0..4))
            .prop_map(|(label, children)| NodeSpec::Element { label, children })
    })
}

fn build(spec_children: &[NodeSpec], interner: &mut Interner) -> XmlTree {
    let root_sym = interner.intern("root");
    let s = interner.intern(S_LABEL);
    let mut tree = XmlTree::with_root(root_sym);
    let root = tree.root();
    for spec in spec_children {
        add(spec, &mut tree, root, interner, s);
    }
    tree
}

fn add(
    spec: &NodeSpec,
    tree: &mut XmlTree,
    parent: cxk_xml::NodeId,
    interner: &mut Interner,
    s: cxk_util::Symbol,
) {
    match spec {
        NodeSpec::Element { label, children } => {
            let sym = interner.intern(&format!("e{label}"));
            let node = tree.add_element(parent, sym);
            for child in children {
                add(child, tree, node, interner, s);
            }
        }
        NodeSpec::Attribute { label, value } => {
            let sym = interner.intern(&format!("a{label}"));
            tree.add_attribute(parent, sym, value.clone());
        }
        NodeSpec::Text { value } => {
            let text = if value.trim().is_empty() {
                "nonblank".to_string()
            } else {
                value.trim().to_string()
            };
            tree.add_text(parent, s, text);
        }
    }
}

fn spec_xml(specs: &[NodeSpec], interner: &mut Interner) -> String {
    let tree = build(specs, interner);
    to_xml_string(&tree, interner, Layout::Compact)
}

// ---- properties -----------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Streaming extraction is bit-identical to the DOM route on arbitrary
    /// documents (entities, attributes, nesting) with the default cap.
    #[test]
    fn streaming_matches_dom(specs in proptest::collection::vec(node_spec(), 0..5)) {
        let mut labels = Interner::new();
        let xml = spec_xml(&specs, &mut labels);
        let limits = TupleLimits::default();
        let dom = dom_streamed(&xml, &mut labels, &limits);
        let sax = streamed(xml.as_bytes(), &mut labels, &limits).expect("one document");
        prop_assert_eq!(dom, sax);
    }

    /// Equality holds under a tiny tuple cap too: the truncation points and
    /// surviving tuple order must match the DOM enumeration exactly, and
    /// both sides must agree the tree was capped.
    #[test]
    fn streaming_matches_dom_under_tiny_cap(
        specs in proptest::collection::vec(node_spec(), 1..5),
        cap in 1usize..8,
    ) {
        let mut labels = Interner::new();
        let xml = spec_xml(&specs, &mut labels);
        let limits = TupleLimits { max_tuples_per_tree: cap };
        let dom = dom_streamed(&xml, &mut labels, &limits);
        let sax = streamed(xml.as_bytes(), &mut labels, &limits).expect("one document");
        prop_assert_eq!(dom, sax);
    }

    /// Chunk boundaries are invisible: one byte per read yields the same
    /// document as the whole-slice reader.
    #[test]
    fn chunking_is_invisible(specs in proptest::collection::vec(node_spec(), 0..5)) {
        let mut labels = Interner::new();
        let xml = spec_xml(&specs, &mut labels);
        let limits = TupleLimits::default();
        let whole = streamed(xml.as_bytes(), &mut labels, &limits).expect("one document");
        let reader = OneByteReader { data: xml.as_bytes(), pos: 0 };
        let trickled = streamed(reader, &mut labels, &limits).expect("one document");
        prop_assert_eq!(whole, trickled);
    }

    /// A newline-delimited concatenation of documents (the `cxk synth` disk
    /// format) streams back out document by document, each identical to its
    /// DOM-parsed counterpart.
    #[test]
    fn multi_document_stream_matches_dom(
        docs in proptest::collection::vec(proptest::collection::vec(node_spec(), 0..4), 1..4)
    ) {
        let mut labels = Interner::new();
        let texts: Vec<String> = docs.iter().map(|specs| spec_xml(specs, &mut labels)).collect();
        let corpus = texts.join("\n") + "\n";
        let limits = TupleLimits::default();
        let mut extractor = StreamingTupleExtractor::new(
            corpus.as_bytes(),
            ParseOptions::default(),
            limits,
        );
        for text in &texts {
            let dom = dom_streamed(text, &mut labels, &limits);
            let sax = extractor
                .next_document(&mut labels)
                .expect("streaming parse")
                .expect("document per line");
            prop_assert_eq!(dom, sax);
        }
        prop_assert!(extractor.next_document(&mut labels).expect("eof").is_none());
    }
}

// ---- deterministic deep / hostile cases -----------------------------------

#[test]
fn deep_nesting_matches_dom() {
    let depth = 200;
    let mut xml = String::new();
    for i in 0..depth {
        xml.push_str(&format!("<d{}>", i % 7));
    }
    xml.push_str("leaf &amp; value");
    for i in (0..depth).rev() {
        xml.push_str(&format!("</d{}>", i % 7));
    }
    let mut labels = Interner::new();
    let limits = TupleLimits::default();
    let dom = dom_streamed(&xml, &mut labels, &limits);
    let sax = streamed(xml.as_bytes(), &mut labels, &limits).expect("one document");
    assert_eq!(dom, sax);
    assert_eq!(sax.depth, depth + 1);
}

#[test]
fn hostile_document_one_byte_at_a_time() {
    let xml = "\u{FEFF}<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n\
               <!DOCTYPE dblp [ <!ELEMENT dblp (x)> ]>\n\
               <dblp note=\"a &lt;b&gt; &#38; c\">\n\
               \t<x>one<!-- comment -->two</x>\n\
               <x><![CDATA[raw <cdata> & text]]></x>\n\
               <x>&quot;q&apos; &#x41;</x>\n\
               <empty/>\n\
               </dblp>";
    let mut labels = Interner::new();
    let limits = TupleLimits::default();
    let dom = dom_streamed(xml, &mut labels, &limits);
    let reader = OneByteReader {
        data: xml.as_bytes(),
        pos: 0,
    };
    let sax = streamed(reader, &mut labels, &limits).expect("one document");
    assert_eq!(dom, sax);
    // Comments do not split text; CDATA arrives raw.
    assert!(sax.leaves.iter().any(|l| l.value == "onetwo"));
    assert!(sax.leaves.iter().any(|l| l.value == "raw <cdata> & text"));
    assert!(sax
        .leaves
        .iter()
        .any(|l| l.value == "a <b> & c" && l.is_attribute));
}

#[test]
fn cap_truncation_matches_dom_exactly() {
    // 4 groups of 3 alternatives: 81 tuples, capped at various points.
    let mut xml = String::from("<r>");
    for g in 0..4 {
        for v in 0..3 {
            xml.push_str(&format!("<g{g}>v{v}</g{g}>"));
        }
    }
    xml.push_str("</r>");
    let mut labels = Interner::new();
    for cap in [1, 2, 3, 5, 27, 80, 81, 200] {
        let limits = TupleLimits {
            max_tuples_per_tree: cap,
        };
        let dom = dom_streamed(&xml, &mut labels, &limits);
        let sax = streamed(xml.as_bytes(), &mut labels, &limits).expect("one document");
        assert_eq!(dom, sax, "cap {cap}");
        assert_eq!(sax.capped, cap < 81, "cap {cap}");
    }
}

// ---- single-document parity ------------------------------------------------

/// Markup fragments a mutation may insert: openers and closers of every
/// construct, entities good and bad, quotes and a second root.
const SNIPPETS: [&str; 24] = [
    "<",
    ">",
    "</",
    "/>",
    "<a>",
    "</a>",
    "<b/>",
    "<!--",
    "-->",
    "<?",
    "?>",
    "<![CDATA[",
    "]]>",
    "&",
    "&amp;",
    "&#x41;",
    "&bogus;",
    "\"",
    "'",
    "=",
    " ",
    "\n",
    "<!DOCTYPE x>",
    "text",
];

/// The largest char boundary of `s` at or below `i`.
fn floor_boundary(s: &str, mut i: usize) -> usize {
    i = i.min(s.len());
    while !s.is_char_boundary(i) {
        i -= 1;
    }
    i
}

/// A random range `start..end` of `s` on char boundaries.
fn random_range(s: &str, rng: &mut DetRng) -> (usize, usize) {
    let a = floor_boundary(s, rng.below(s.len() + 1));
    let b = floor_boundary(s, rng.below(s.len() + 1));
    (a.min(b), a.max(b))
}

/// Applies one to three deterministic mutations to `base`: truncate,
/// insert a markup snippet, delete a range, or duplicate a range.
fn mutate(base: &str, rng: &mut DetRng) -> String {
    let mut doc = base.to_string();
    for _ in 0..rng.range(1, 4) {
        match rng.below(4) {
            0 => {
                let at = floor_boundary(&doc, rng.below(doc.len() + 1));
                doc.truncate(at);
            }
            1 => {
                let at = floor_boundary(&doc, rng.below(doc.len() + 1));
                let snippet = SNIPPETS[rng.below(SNIPPETS.len())];
                doc.insert_str(at, snippet);
            }
            2 => {
                let (a, b) = random_range(&doc, rng);
                doc.replace_range(a..b, "");
            }
            _ => {
                let (a, b) = random_range(&doc, rng);
                let copy = doc[a..b].to_string();
                doc.insert_str(b, &copy);
            }
        }
    }
    doc
}

/// `extract_document` returns exactly the DOM route's `Result`: on success
/// the same leaves, tuples, depth, count and `capped`, with labels interned
/// in the same order; on failure an equal `XmlError`.
fn assert_parity(input: &str, limits: &TupleLimits) {
    let mut dom_labels = Interner::new();
    let mut sax_labels = Interner::new();
    let dom = dom_route(input, &mut dom_labels, limits);
    let sax = extract_document(input, &mut sax_labels, &ParseOptions::default(), limits);
    assert_eq!(dom, sax, "input {input:?}");
    if sax.is_ok() {
        let dom_order: Vec<&str> = dom_labels.iter().map(|(_, l)| l).collect();
        let sax_order: Vec<&str> = sax_labels.iter().map(|(_, l)| l).collect();
        assert_eq!(dom_order, sax_order, "label order for {input:?}");
    }
}

/// A hand-written document exercising every construct the parser knows.
const HOSTILE: &str = "\u{FEFF}<?xml version=\"1.0\"?>\n\
    <!DOCTYPE dblp [ <!ELEMENT dblp (x)> ]>\n\
    <!-- lead -->\n\
    <dblp note=\"a &lt;b&gt; &#38; c\">\n\
    \t<x>one<!-- comment -->two<?pi data?></x>\n\
    <x><![CDATA[raw <cdata> & text]]></x>\n\
    <x k='v'>&quot;q&apos; &#x41;</x>\n\
    <empty/>\n\
    </dblp>\n<!-- tail --><?tail?>\n";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Mutated generated documents: parity on whatever the mutations leave,
    /// valid or not, under the default and a tiny tuple cap.
    #[test]
    fn single_document_entry_matches_dom_on_mutated_input(
        specs in proptest::collection::vec(node_spec(), 0..5),
        seed in any::<u64>(),
        cap in 1usize..8,
    ) {
        let mut labels = Interner::new();
        let base = spec_xml(&specs, &mut labels);
        let mut rng = DetRng::seed_from_u64(seed);
        let input = mutate(&base, &mut rng);
        assert_parity(&input, &TupleLimits::default());
        assert_parity(&input, &TupleLimits { max_tuples_per_tree: cap });
    }
}

#[test]
fn single_document_entry_matches_dom_on_mutated_samples() {
    let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../samples");
    let mut bases: Vec<String> = std::fs::read_dir(&dir)
        .expect("samples/ exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "xml"))
        .map(|p| std::fs::read_to_string(p).expect("readable sample"))
        .collect();
    bases.sort();
    bases.push(HOSTILE.to_string());
    let mut rng = DetRng::seed_from_u64(0x5a7);
    for base in &bases {
        assert_parity(base, &TupleLimits::default());
        for _ in 0..400 {
            assert_parity(&mutate(base, &mut rng), &TupleLimits::default());
        }
    }
}

#[test]
fn single_document_entry_matches_dom_on_edge_inputs() {
    for input in [
        "",
        "   \n ",
        "\u{FEFF}",
        "\u{FEFF}<a/>",
        "<?xml version=\"1.0\"?>",
        "<!-- only a comment -->",
        "<a/><b/>",
        "<a/>\n<b/>\n",
        "<a/>trailing",
        "<a>x</a>  \n<!-- c --><?pi?>",
        "<a/><!-- unterminated",
        "<a/><?unterminated",
        "<a><!-- unterminated",
        "<a>\n<?unterminated",
        "<a>\n\n<![CDATA[unterminated",
        "<!-- unterminated",
        "<!DOCTYPE unterminated",
        "<a><b></a>",
        HOSTILE,
    ] {
        assert_parity(input, &TupleLimits::default());
    }
    let mut labels = Interner::new();
    let err = extract_document(
        "<a/><b/>",
        &mut labels,
        &ParseOptions::default(),
        &TupleLimits::default(),
    )
    .expect_err("a second root is trailing content");
    assert!(err.message.contains("trailing content"), "{err}");
    let err = extract_document(
        "",
        &mut labels,
        &ParseOptions::default(),
        &TupleLimits::default(),
    )
    .expect_err("empty input");
    assert!(err.message.contains("expected document element"), "{err}");
}
