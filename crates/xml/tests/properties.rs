//! Property-based tests for the XML substrate: parser/serializer round
//! trips and tree-tuple invariants on randomly generated documents.

use cxk_util::{FxHashMap, Interner, Symbol};
use cxk_xml::parser::decode_entities;
use cxk_xml::path::{PathId, PathTable};
use cxk_xml::tree::{NodeKind, XmlTree, S_LABEL};
use cxk_xml::tuple::is_tree_tuple;
use cxk_xml::write::{escape_attr, escape_text, to_xml_string, Layout};
use cxk_xml::{count_tree_tuples, extract_tree_tuples, parse_document, ParseOptions, TupleLimits};
use proptest::prelude::*;

/// A recipe for building a random tree: a nested list of element specs.
#[derive(Debug, Clone)]
enum NodeSpec {
    Element { label: u8, children: Vec<NodeSpec> },
    Attribute { label: u8, value: String },
    Text { value: String },
}

fn text_value() -> impl Strategy<Value = String> {
    // Printable text including XML-hostile characters.
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
            // Serialization writes attributes before elements; only attach
            // to elements that have no element children yet to keep
            // document order stable under round-trip.
            tree.add_attribute(parent, sym, value.clone());
        }
        NodeSpec::Text { value } => {
            // Whitespace-only or empty text is dropped by the parser; keep
            // the generator aligned by substituting a marker.
            let text = if value.trim().is_empty() {
                "nonblank".to_string()
            } else {
                value.trim().to_string()
            };
            tree.add_text(parent, s, text);
        }
    }
}

/// Canonical form for structural comparison: (label, kind, value) in
/// document order, with attributes sorted before content per element the
/// way the serializer emits them.
fn canonical(tree: &XmlTree, interner: &Interner) -> Vec<(String, String)> {
    fn visit(
        tree: &XmlTree,
        node: cxk_xml::NodeId,
        interner: &Interner,
        out: &mut Vec<(String, String)>,
    ) {
        let n = tree.node(node);
        let label = interner.resolve(n.label).to_string();
        match &n.kind {
            NodeKind::Element => {
                out.push((label, "<elem>".into()));
                let (attrs, content): (Vec<_>, Vec<_>) = n
                    .children
                    .iter()
                    .partition(|&&c| matches!(tree.node(c).kind, NodeKind::Attribute(_)));
                for &c in attrs.iter().chain(content.iter()) {
                    visit(tree, c, interner, out);
                }
            }
            NodeKind::Attribute(v) => out.push((label, format!("@{v}"))),
            NodeKind::Text(v) => out.push((label, format!("S{v}"))),
        }
    }
    let mut out = Vec::new();
    visit(tree, tree.root(), interner, &mut out);
    out
}

/// Text runs that are adjacent in the source coalesce on parse; the
/// generator avoids adjacent text nodes for exact round trips. Attribute
/// children are skipped: they serialize inside the start tag, so two text
/// children separated only by attributes still end up adjacent on the wire.
fn has_adjacent_text(tree: &XmlTree) -> bool {
    tree.node_ids().any(|id| {
        let content: Vec<_> = tree
            .node(id)
            .children
            .iter()
            .filter(|&&c| !matches!(tree.node(c).kind, NodeKind::Attribute(_)))
            .collect();
        content.windows(2).any(|w| {
            matches!(tree.node(*w[0]).kind, NodeKind::Text(_))
                && matches!(tree.node(*w[1]).kind, NodeKind::Text(_))
        })
    })
}

/// The label paths the path-table model test draws from: the empty path,
/// paths longer than 16 labels, paths that share their first 8 labels and
/// differ after them, and enough short ones to cross several growth
/// boundaries of the table's slots and buffers.
fn path_pool() -> Vec<Vec<Symbol>> {
    let mut pool: Vec<Vec<Symbol>> = vec![Vec::new(), vec![Symbol(0)], vec![Symbol(u32::MAX)]];
    for len in [17, 18, 40] {
        pool.push((0..len).map(Symbol).collect());
    }
    for last in 0..24 {
        let mut path: Vec<Symbol> = (0..8).map(Symbol).collect();
        path.push(Symbol(last));
        pool.push(path);
    }
    for i in 0..200u32 {
        pool.push(vec![Symbol(0), Symbol(i % 7), Symbol(i)]);
    }
    pool
}

/// The reference model of a path table: a map plus the insertion order.
#[derive(Clone, Default)]
struct PathModel {
    ids: FxHashMap<Vec<Symbol>, u32>,
    order: Vec<Vec<Symbol>>,
}

impl PathModel {
    fn intern(&mut self, path: &[Symbol]) -> u32 {
        if let Some(&id) = self.ids.get(path) {
            return id;
        }
        let id = self.order.len() as u32;
        self.ids.insert(path.to_vec(), id);
        self.order.push(path.to_vec());
        id
    }
}

/// Asserts that `table` holds exactly `model`'s paths, in order.
fn assert_paths_match(table: &PathTable, model: &PathModel) {
    assert_eq!(table.len(), model.order.len());
    assert_eq!(table.is_empty(), model.order.is_empty());
    let listed: Vec<(u32, &[Symbol])> = table.iter().map(|(id, p)| (id.0, p)).collect();
    let expected: Vec<(u32, &[Symbol])> = model
        .order
        .iter()
        .enumerate()
        .map(|(i, p)| (i as u32, p.as_slice()))
        .collect();
    assert_eq!(listed, expected);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random interleavings of `intern`, `get`, `resolve`, `iter` and
    /// `clone` agree with the reference model, and every clone stays as it
    /// was taken however the original grows afterwards (and vice versa).
    #[test]
    fn path_table_matches_a_reference_model(
        ops in proptest::collection::vec((0u8..8, 0usize..256), 200..500),
    ) {
        let pool = path_pool();
        let mut table = PathTable::new();
        let mut model = PathModel::default();
        let mut clones: Vec<(PathTable, PathModel)> = Vec::new();
        for (op, pick) in ops {
            let path = pool[pick % pool.len()].as_slice();
            match op {
                0..=3 => prop_assert_eq!(table.intern(path).0, model.intern(path)),
                4 => prop_assert_eq!(
                    table.get(path).map(|id| id.0),
                    model.ids.get(path).copied()
                ),
                5 if !model.order.is_empty() => {
                    let id = pick % model.order.len();
                    prop_assert_eq!(table.resolve(PathId(id as u32)), model.order[id].as_slice());
                }
                6 => assert_paths_match(&table, &model),
                _ => clones.push((table.clone(), model.clone())),
            }
        }
        assert_paths_match(&table, &model);
        // Past 32 paths the slots have grown from 8 to 128.
        prop_assert!(table.len() > 32);
        let only_in_copy = [Symbol(7); 20];
        for (mut copy, expected) in clones {
            assert_paths_match(&copy, &expected);
            copy.intern(&only_in_copy);
            prop_assert_eq!(table.get(&only_in_copy), None);
            for (id, path) in expected.order.iter().enumerate() {
                prop_assert_eq!(copy.get(path), Some(PathId(id as u32)));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn serialize_parse_round_trip(specs in proptest::collection::vec(node_spec(), 0..5)) {
        let mut interner = Interner::new();
        let tree = build(&specs, &mut interner);
        prop_assume!(!has_adjacent_text(&tree));
        let xml = to_xml_string(&tree, &interner, Layout::Compact);
        let reparsed = parse_document(&xml, &mut interner, &ParseOptions::default())
            .expect("serializer output must parse");
        prop_assert_eq!(canonical(&tree, &interner), canonical(&reparsed, &interner));
    }

    #[test]
    fn every_extracted_tuple_is_valid_and_counts_match(
        specs in proptest::collection::vec(node_spec(), 0..5)
    ) {
        let mut interner = Interner::new();
        let tree = build(&specs, &mut interner);
        let limits = TupleLimits { max_tuples_per_tree: 50_000 };
        let tuples = extract_tree_tuples(&tree, &limits);
        let count = count_tree_tuples(&tree);
        if count <= 50_000 {
            prop_assert_eq!(tuples.len() as u64, count);
        }
        for tuple in &tuples {
            prop_assert!(is_tree_tuple(&tree, &tuple.nodes));
            // Leaves of the tuple are exactly its leaf-kind nodes.
            for &leaf in &tuple.leaves {
                prop_assert!(tree.node(leaf).is_leaf());
            }
        }
    }

    #[test]
    fn every_leaf_is_covered_by_some_tuple(
        specs in proptest::collection::vec(node_spec(), 1..5)
    ) {
        let mut interner = Interner::new();
        let tree = build(&specs, &mut interner);
        let count = count_tree_tuples(&tree);
        prop_assume!(count <= 10_000);
        let tuples = extract_tree_tuples(&tree, &TupleLimits::default());
        let covered: std::collections::BTreeSet<_> =
            tuples.iter().flat_map(|t| t.leaves.iter().copied()).collect();
        for leaf in tree.leaves() {
            prop_assert!(covered.contains(&leaf), "leaf {leaf:?} uncovered");
        }
    }

    #[test]
    fn tuples_are_pairwise_distinct(
        specs in proptest::collection::vec(node_spec(), 1..4)
    ) {
        let mut interner = Interner::new();
        let tree = build(&specs, &mut interner);
        prop_assume!(count_tree_tuples(&tree) <= 2_000);
        let tuples = extract_tree_tuples(&tree, &TupleLimits::default());
        let mut sets: Vec<Vec<_>> = tuples.iter().map(|t| t.nodes.clone()).collect();
        sets.sort();
        let before = sets.len();
        sets.dedup();
        prop_assert_eq!(before, sets.len());
    }

    #[test]
    fn entity_escape_decode_round_trip(text in "[ -~]{0,40}") {
        let escaped = escape_text(&text);
        prop_assert_eq!(decode_entities(&escaped).unwrap(), text.clone());
        let escaped_attr = escape_attr(&text);
        prop_assert_eq!(decode_entities(&escaped_attr).unwrap(), text);
    }

    #[test]
    fn parser_never_panics_on_arbitrary_input(input in "[ -~<>&\"']{0,120}") {
        let mut interner = Interner::new();
        let _ = parse_document(&input, &mut interner, &ParseOptions::default());
    }

    #[test]
    fn depth_bounds_hold(specs in proptest::collection::vec(node_spec(), 0..5)) {
        let mut interner = Interner::new();
        let tree = build(&specs, &mut interner);
        let depth = tree.depth();
        prop_assert!(depth >= 1);
        prop_assert!(depth <= tree.len());
    }
}
