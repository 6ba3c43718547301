//! The `⟨T, δ⟩` XML tree model of §3.1.
//!
//! Nodes live in an arena (`Vec<Node>`); [`NodeId`] is an index. Internal
//! nodes carry tag labels; leaves are either attribute nodes (labelled with
//! the attribute name, conventionally displayed with an `@` prefix) or text
//! nodes labelled with the reserved symbol `S` and carrying `#PCDATA`. The
//! string function `δ` is stored inline in the leaf variant.
//!
//! Labels are interned in a collection-wide [`Interner`] so that trees from
//! the same corpus share a label namespace — required for path comparison
//! across documents.

use cxk_util::{Interner, Symbol};

/// Index of a node inside its [`XmlTree`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Arena index as `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// What a node is: an element, an attribute leaf, or a `#PCDATA` leaf.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeKind {
    /// An element (internal node, or childless element).
    Element,
    /// An attribute leaf; `δ(n)` is the attribute value.
    Attribute(String),
    /// A `#PCDATA` leaf (label is the reserved `S` symbol); `δ(n)` is the text.
    Text(String),
}

/// A single node of an [`XmlTree`].
#[derive(Debug, Clone)]
pub struct Node {
    /// Label `λ(n)`: a tag name, an attribute name, or the `S` symbol.
    pub label: Symbol,
    /// Parent node, `None` for the root.
    pub parent: Option<NodeId>,
    /// Children in document order (attributes precede element content).
    pub children: Vec<NodeId>,
    /// Leaf/internal discriminator plus `δ` for leaves.
    pub kind: NodeKind,
}

impl Node {
    /// Whether this node is a leaf in the paper's sense (attribute or text).
    #[inline]
    pub fn is_leaf(&self) -> bool {
        !matches!(self.kind, NodeKind::Element)
    }

    /// The string `δ(n)` for leaves, `None` for elements.
    pub fn value(&self) -> Option<&str> {
        match &self.kind {
            NodeKind::Element => None,
            NodeKind::Attribute(v) | NodeKind::Text(v) => Some(v),
        }
    }
}

/// The reserved label for `#PCDATA` leaves; interned on first use per corpus.
pub const S_LABEL: &str = "S";

/// An XML tree `⟨T, δ⟩` with interned labels.
#[derive(Debug, Clone)]
pub struct XmlTree {
    nodes: Vec<Node>,
    root: NodeId,
}

impl XmlTree {
    /// Creates a tree containing only a root element labelled `label`.
    pub fn with_root(label: Symbol) -> Self {
        let root = Node {
            label,
            parent: None,
            children: Vec::new(),
            kind: NodeKind::Element,
        };
        Self {
            nodes: vec![root],
            root: NodeId(0),
        }
    }

    /// The distinguished root `r_T`.
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of nodes `|N_T|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree has no nodes (never true: a tree always has a root).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Immutable access to a node.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Appends a child element under `parent`, returning its id.
    pub fn add_element(&mut self, parent: NodeId, label: Symbol) -> NodeId {
        self.push_node(parent, label, NodeKind::Element)
    }

    /// Appends an attribute leaf under `parent`.
    pub fn add_attribute(&mut self, parent: NodeId, name: Symbol, value: String) -> NodeId {
        self.push_node(parent, name, NodeKind::Attribute(value))
    }

    /// Appends a `#PCDATA` leaf under `parent`. `s_label` must be the interned
    /// [`S_LABEL`] symbol of the corpus.
    pub fn add_text(&mut self, parent: NodeId, s_label: Symbol, text: String) -> NodeId {
        self.push_node(parent, s_label, NodeKind::Text(text))
    }

    fn push_node(&mut self, parent: NodeId, label: Symbol, kind: NodeKind) -> NodeId {
        assert!(
            matches!(self.nodes[parent.index()].kind, NodeKind::Element),
            "only elements may have children"
        );
        // cxk-lint: allow(panic-freedom) -- guards 2^32 nodes, far beyond any document
        let id = NodeId(u32::try_from(self.nodes.len()).expect("tree too large"));
        self.nodes.push(Node {
            label,
            parent: Some(parent),
            children: Vec::new(),
            kind,
        });
        self.nodes[parent.index()].children.push(id);
        id
    }

    /// Iterates over all node ids in arena order (root first).
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// All leaves (attribute and text nodes) in arena order.
    pub fn leaves(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.node_ids().filter(|id| self.node(*id).is_leaf())
    }

    /// Number of leaf nodes.
    pub fn leaf_count(&self) -> usize {
        self.leaves().count()
    }

    /// The label path from the root to `id`, inclusive.
    pub fn label_path(&self, id: NodeId) -> Vec<Symbol> {
        let mut labels = Vec::new();
        let mut cur = Some(id);
        while let Some(node_id) = cur {
            let node = self.node(node_id);
            labels.push(node.label);
            cur = node.parent;
        }
        labels.reverse();
        labels
    }

    /// Depth of the tree: length of the longest root-to-leaf label path
    /// (`depth(XT)` of §3.1). A lone root has depth 1.
    pub fn depth(&self) -> usize {
        let mut depths = vec![0usize; self.nodes.len()];
        let mut max = 0;
        for id in self.node_ids() {
            let d = match self.node(id).parent {
                None => 1,
                Some(p) => depths[p.index()] + 1,
            };
            depths[id.index()] = d;
            max = max.max(d);
        }
        max
    }

    /// Pre-order depth-first traversal starting at `start`.
    pub fn descendants(&self, start: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut stack = vec![start];
        while let Some(id) = stack.pop() {
            out.push(id);
            // Push children reversed so the traversal is document-ordered.
            for &child in self.node(id).children.iter().rev() {
                stack.push(child);
            }
        }
        out
    }

    /// Renders the label path of `id` in the paper's dotted notation, with
    /// attribute labels prefixed by `@`, e.g. `dblp.inproceedings.@key`.
    pub fn display_path(&self, id: NodeId, interner: &Interner) -> String {
        let labels = self.label_path(id);
        let mut parts = Vec::with_capacity(labels.len());
        for (i, sym) in labels.iter().enumerate() {
            let name = interner.resolve(*sym);
            let node_on_path = self.ancestor_at(id, i);
            let is_attr = matches!(self.node(node_on_path).kind, NodeKind::Attribute(_));
            if is_attr {
                parts.push(format!("@{name}"));
            } else {
                parts.push(name.to_string());
            }
        }
        parts.join(".")
    }

    /// The ancestor of `id` at depth `depth_index` (0 = root, last = `id`).
    fn ancestor_at(&self, id: NodeId, depth_index: usize) -> NodeId {
        let mut chain = Vec::new();
        let mut cur = Some(id);
        while let Some(node_id) = cur {
            chain.push(node_id);
            cur = self.node(node_id).parent;
        }
        chain.reverse();
        chain[depth_index]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_tree(interner: &mut Interner) -> XmlTree {
        // dblp
        //   inproceedings  @key="k1"  author(S:"Zaki")  title(S:"XRules")
        let dblp = interner.intern("dblp");
        let inpro = interner.intern("inproceedings");
        let key = interner.intern("key");
        let author = interner.intern("author");
        let title = interner.intern("title");
        let s = interner.intern(S_LABEL);

        let mut tree = XmlTree::with_root(dblp);
        let paper = tree.add_element(tree.root(), inpro);
        tree.add_attribute(paper, key, "k1".into());
        let a = tree.add_element(paper, author);
        tree.add_text(a, s, "Zaki".into());
        let t = tree.add_element(paper, title);
        tree.add_text(t, s, "XRules".into());
        tree
    }

    #[test]
    fn construction_links_parents_and_children() {
        let mut interner = Interner::new();
        let tree = small_tree(&mut interner);
        assert_eq!(tree.len(), 7);
        let root = tree.node(tree.root());
        assert_eq!(root.children.len(), 1);
        let paper = tree.node(root.children[0]);
        assert_eq!(paper.children.len(), 3);
        assert_eq!(paper.parent, Some(tree.root()));
    }

    #[test]
    fn leaves_are_attributes_and_text() {
        let mut interner = Interner::new();
        let tree = small_tree(&mut interner);
        let leaves: Vec<NodeId> = tree.leaves().collect();
        assert_eq!(leaves.len(), 3);
        let values: Vec<&str> = leaves
            .iter()
            .map(|id| tree.node(*id).value().unwrap())
            .collect();
        assert_eq!(values, vec!["k1", "Zaki", "XRules"]);
    }

    #[test]
    fn depth_counts_longest_path() {
        let mut interner = Interner::new();
        let tree = small_tree(&mut interner);
        // dblp.inproceedings.author.S = 4 labels
        assert_eq!(tree.depth(), 4);
    }

    #[test]
    fn label_path_matches_ancestry() {
        let mut interner = Interner::new();
        let tree = small_tree(&mut interner);
        let text_leaf = tree
            .leaves()
            .find(|id| tree.node(*id).value() == Some("Zaki"))
            .unwrap();
        let path = tree.label_path(text_leaf);
        let rendered: Vec<&str> = path.iter().map(|s| interner.resolve(*s)).collect();
        assert_eq!(rendered, vec!["dblp", "inproceedings", "author", "S"]);
    }

    #[test]
    fn display_path_marks_attributes() {
        let mut interner = Interner::new();
        let tree = small_tree(&mut interner);
        let attr_leaf = tree
            .leaves()
            .find(|id| matches!(tree.node(*id).kind, NodeKind::Attribute(_)))
            .unwrap();
        assert_eq!(
            tree.display_path(attr_leaf, &interner),
            "dblp.inproceedings.@key"
        );
    }

    #[test]
    fn descendants_are_document_ordered() {
        let mut interner = Interner::new();
        let tree = small_tree(&mut interner);
        let order = tree.descendants(tree.root());
        assert_eq!(order.len(), tree.len());
        assert_eq!(order[0], tree.root());
        // Arena order equals insertion order which is document order here.
        let expected: Vec<NodeId> = tree.node_ids().collect();
        assert_eq!(order, expected);
    }

    #[test]
    #[should_panic(expected = "only elements may have children")]
    fn leaves_cannot_have_children() {
        let mut interner = Interner::new();
        let s = interner.intern(S_LABEL);
        let root = interner.intern("root");
        let mut tree = XmlTree::with_root(root);
        let text = tree.add_text(tree.root(), s, "x".into());
        tree.add_element(text, root);
    }
}
