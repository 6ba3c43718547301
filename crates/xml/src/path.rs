//! XML paths and answers (§3.1).
//!
//! An XML path `p = s1.s2.…().sm` is a label sequence from the document root.
//! A *tag path* ends in a tag name; a *complete path* ends in an attribute
//! name or the `S` symbol. Applying a path to a tree yields the set of nodes
//! reached by matching label sequences; the *answer* `A_XT(p)` is the node
//! set for tag paths and the set of `δ` strings for complete paths.
//!
//! [`PathTable`] interns label sequences into dense [`PathId`]s shared across
//! a corpus so that transactions can refer to paths by integer. It is the
//! same arena-backed table as the label and term interners
//! ([`cxk_util::ArenaTable`]), keyed by label slices: its labels sit back to
//! back in one buffer, so copying a model's path table into a serving
//! session, or freeing it at a hot swap, costs a few buffer copies or frees.

use crate::tree::{NodeId, XmlTree};
use cxk_util::{ArenaTable, FxHashMap, Symbol};

/// A path as an owned label sequence.
pub type LabelPath = Vec<Symbol>;

/// Dense identifier for an interned path within a [`PathTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PathId(pub u32);

impl PathId {
    /// Index into the table's storage.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Append-only interner for label paths; ids are dense, in insertion
/// order. An [`ArenaTable`] over one `Vec<Symbol>`: every path's labels
/// sit back to back in that buffer, so the table is three allocations
/// however many paths it holds.
#[derive(Debug, Default, Clone)]
pub struct PathTable {
    table: ArenaTable<LabelPath>,
}

impl PathTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a table with room for `capacity` distinct paths.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_capacity_and_labels(capacity, 0)
    }

    /// Creates a table with room for `capacity` distinct paths of `labels`
    /// labels in total, so a decoder that knows both fills it without
    /// growing a buffer.
    pub fn with_capacity_and_labels(capacity: usize, labels: usize) -> Self {
        Self {
            table: ArenaTable::with_capacity(capacity, labels),
        }
    }

    /// Interns `path`, returning a stable [`PathId`].
    ///
    /// # Panics
    /// Panics with `interner overflow` past `u32::MAX` paths or labels.
    pub fn intern(&mut self, path: &[Symbol]) -> PathId {
        PathId(self.table.intern(path))
    }

    /// Interns `path` as a new path: `Ok` with its id, or `Err` with the id
    /// it already has (nothing changes). Decoders use it to reject a
    /// repeated entry, which would otherwise shift every later id.
    ///
    /// # Panics
    /// Panics with `interner overflow` past `u32::MAX` paths or labels.
    pub fn insert_new(&mut self, path: &[Symbol]) -> Result<PathId, PathId> {
        self.table.insert_new(path).map(PathId).map_err(PathId)
    }

    /// Looks up a path without inserting it.
    pub fn get(&self, path: &[Symbol]) -> Option<PathId> {
        self.table.get(path).map(PathId)
    }

    /// Resolves a [`PathId`] back to its label sequence.
    ///
    /// # Panics
    /// Panics if `id` was not produced by this table.
    pub fn resolve(&self, id: PathId) -> &[Symbol] {
        self.table.resolve(id.0)
    }

    /// Number of distinct paths interned.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Keeps the first `len` paths and forgets the rest, whose ids are
    /// handed out again.
    pub fn truncate(&mut self, len: usize) {
        self.table.truncate(len);
    }

    /// Iterates `(PathId, &labels)` in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (PathId, &[Symbol])> {
        self.table.iter().map(|(id, p)| (PathId(id), p))
    }
}

/// The answer of applying a path to a tree (§3.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PathAnswer {
    /// Answer of a tag path: the matched node identifiers.
    Nodes(Vec<NodeId>),
    /// Answer of a complete path: the `δ` strings of the matched leaves.
    Strings(Vec<String>),
}

impl PathAnswer {
    /// Answer cardinality `|A_XT(p)|`.
    pub fn len(&self) -> usize {
        match self {
            PathAnswer::Nodes(v) => v.len(),
            PathAnswer::Strings(v) => v.len(),
        }
    }

    /// Whether the answer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Applies path `p` to `tree`: returns all nodes whose root-to-node label
/// sequence equals `p` (the node set `p(XT)` of §3.1).
pub fn apply_path(tree: &XmlTree, p: &[Symbol]) -> Vec<NodeId> {
    if p.is_empty() {
        return Vec::new();
    }
    let root = tree.root();
    if tree.node(root).label != p[0] {
        return Vec::new();
    }
    let mut frontier = vec![root];
    for &label in &p[1..] {
        let mut next = Vec::new();
        for &node in &frontier {
            for &child in &tree.node(node).children {
                if tree.node(child).label == label {
                    next.push(child);
                }
            }
        }
        if next.is_empty() {
            return Vec::new();
        }
        frontier = next;
    }
    frontier
}

/// Computes the answer `A_XT(p)` of §3.1: node ids for tag paths, leaf
/// strings for complete paths. A path is treated as complete when every node
/// it reaches is a leaf.
pub fn answer(tree: &XmlTree, p: &[Symbol]) -> PathAnswer {
    let nodes = apply_path(tree, p);
    let all_leaves = !nodes.is_empty() && nodes.iter().all(|&n| tree.node(n).is_leaf());
    if all_leaves {
        PathAnswer::Strings(
            nodes
                .iter()
                .map(|&n| tree.node(n).value().unwrap_or_default().to_string())
                .collect(),
        )
    } else {
        PathAnswer::Nodes(nodes)
    }
}

/// All complete paths `P_XT` of a tree: the root-to-leaf label sequences,
/// deduplicated, in first-occurrence order.
pub fn complete_paths(tree: &XmlTree) -> Vec<LabelPath> {
    let mut seen: FxHashMap<LabelPath, ()> = FxHashMap::default();
    let mut out = Vec::new();
    for leaf in tree.leaves() {
        let path = tree.label_path(leaf);
        if seen.insert(path.clone(), ()).is_none() {
            out.push(path);
        }
    }
    out
}

/// All maximal tag paths `TP_XT`: the complete paths with their final
/// (attribute/`S`) label removed, deduplicated (§3.1).
pub fn maximal_tag_paths(tree: &XmlTree) -> Vec<LabelPath> {
    let mut seen: FxHashMap<LabelPath, ()> = FxHashMap::default();
    let mut out = Vec::new();
    for mut path in complete_paths(tree) {
        path.pop();
        if seen.insert(path.clone(), ()).is_none() {
            out.push(path);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::{XmlTree, S_LABEL};
    use cxk_util::Interner;

    /// Builds the DBLP example tree of Fig. 2(b) (two papers; the first has
    /// two authors).
    pub(crate) fn dblp_example(interner: &mut Interner) -> XmlTree {
        let dblp = interner.intern("dblp");
        let inpro = interner.intern("inproceedings");
        let key = interner.intern("key");
        let author = interner.intern("author");
        let title = interner.intern("title");
        let year = interner.intern("year");
        let booktitle = interner.intern("booktitle");
        let pages = interner.intern("pages");
        let s = interner.intern(S_LABEL);

        let mut tree = XmlTree::with_root(dblp);

        let p1 = tree.add_element(tree.root(), inpro);
        tree.add_attribute(p1, key, "conf/kdd/ZakiA03".into());
        let a1 = tree.add_element(p1, author);
        tree.add_text(a1, s, "M.J. Zaki".into());
        let a2 = tree.add_element(p1, author);
        tree.add_text(a2, s, "C.C. Aggarwal".into());
        let t1 = tree.add_element(p1, title);
        tree.add_text(t1, s, "XRules: an effective ...".into());
        let y1 = tree.add_element(p1, year);
        tree.add_text(y1, s, "2003".into());
        let b1 = tree.add_element(p1, booktitle);
        tree.add_text(b1, s, "KDD".into());
        let g1 = tree.add_element(p1, pages);
        tree.add_text(g1, s, "316-325".into());

        let p2 = tree.add_element(tree.root(), inpro);
        tree.add_attribute(p2, key, "conf/kdd/Zaki02".into());
        let a3 = tree.add_element(p2, author);
        tree.add_text(a3, s, "M.J. Zaki".into());
        let t2 = tree.add_element(p2, title);
        tree.add_text(t2, s, "Efficiently mining ...".into());
        let y2 = tree.add_element(p2, year);
        tree.add_text(y2, s, "2002".into());
        let b2 = tree.add_element(p2, booktitle);
        tree.add_text(b2, s, "KDD".into());
        let g2 = tree.add_element(p2, pages);
        tree.add_text(g2, s, "71-80".into());

        tree
    }

    fn syms(interner: &mut Interner, labels: &[&str]) -> Vec<Symbol> {
        labels.iter().map(|l| interner.intern(l)).collect()
    }

    #[test]
    fn tag_path_answer_yields_node_set() {
        let mut interner = Interner::new();
        let tree = dblp_example(&mut interner);
        let p = syms(&mut interner, &["dblp", "inproceedings", "title"]);
        match answer(&tree, &p) {
            PathAnswer::Nodes(nodes) => assert_eq!(nodes.len(), 2),
            other => panic!("expected node answer, got {other:?}"),
        }
    }

    #[test]
    fn complete_path_answer_yields_strings() {
        let mut interner = Interner::new();
        let tree = dblp_example(&mut interner);
        let p = syms(&mut interner, &["dblp", "inproceedings", "author", "S"]);
        match answer(&tree, &p) {
            PathAnswer::Strings(strings) => {
                // Paper Example 1: {'M.J. Zaki', 'C.C. Aggarwal'} plus the
                // second paper's author.
                assert_eq!(strings.len(), 3);
                assert!(strings.contains(&"M.J. Zaki".to_string()));
                assert!(strings.contains(&"C.C. Aggarwal".to_string()));
            }
            other => panic!("expected string answer, got {other:?}"),
        }
    }

    #[test]
    fn unmatched_path_is_empty() {
        let mut interner = Interner::new();
        let tree = dblp_example(&mut interner);
        let p = syms(&mut interner, &["dblp", "article"]);
        assert!(apply_path(&tree, &p).is_empty());
        let wrong_root = syms(&mut interner, &["ieee"]);
        assert!(apply_path(&tree, &wrong_root).is_empty());
        assert!(apply_path(&tree, &[]).is_empty());
    }

    #[test]
    fn complete_paths_are_deduplicated() {
        let mut interner = Interner::new();
        let tree = dblp_example(&mut interner);
        let paths = complete_paths(&tree);
        // @key, author.S, title.S, year.S, booktitle.S, pages.S
        assert_eq!(paths.len(), 6);
    }

    #[test]
    fn maximal_tag_paths_strip_final_label() {
        let mut interner = Interner::new();
        let tree = dblp_example(&mut interner);
        let tps = maximal_tag_paths(&tree);
        // inproceedings (from @key), author, title, year, booktitle, pages
        assert_eq!(tps.len(), 6);
        let rendered: Vec<String> = tps
            .iter()
            .map(|p| {
                p.iter()
                    .map(|s| interner.resolve(*s))
                    .collect::<Vec<_>>()
                    .join(".")
            })
            .collect();
        assert!(rendered.contains(&"dblp.inproceedings".to_string()));
        assert!(rendered.contains(&"dblp.inproceedings.author".to_string()));
    }

    #[test]
    fn path_table_interning_is_stable() {
        let mut interner = Interner::new();
        let mut table = PathTable::new();
        let p1 = syms(&mut interner, &["a", "b"]);
        let p2 = syms(&mut interner, &["a", "c"]);
        let id1 = table.intern(&p1);
        let id2 = table.intern(&p2);
        let id1_again = table.intern(&p1);
        assert_eq!(id1, id1_again);
        assert_ne!(id1, id2);
        assert_eq!(table.resolve(id1), p1.as_slice());
        assert_eq!(table.len(), 2);
        assert_eq!(table.get(&p2), Some(id2));
    }
}
