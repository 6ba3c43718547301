//! Cluster representatives in tree-tuple form.
//!
//! A representative is "a transaction" over synthetic items: each item has a
//! complete path and a content vector. The `conflateItems` procedure of
//! Fig. 6 turns any raw item set into a tree tuple by merging the contents
//! of items that share a path ("the content associated to each path p is the
//! union of the contents of the items in I having p as a path") — the
//! element-wise maximum of the `ttf.itf` vectors implements that union:
//! idempotent and monotone, so conflating identical contents is a no-op and
//! an unconflated item keeps its original identity.

use cxk_text::SparseVec;
use cxk_transact::item::{synthetic_fingerprint, ItemId, ItemView};
use cxk_transact::{Dataset, PreparedSlab, TagPathSimTable, Transaction};
use cxk_util::FxHashMap;
use cxk_xml::path::PathId;

/// One item of a representative.
#[derive(Debug, Clone, PartialEq)]
pub struct RepItem {
    /// Complete path.
    pub path: PathId,
    /// Tag path (for `sim_S`).
    pub tag_path: PathId,
    /// Content vector.
    pub vector: SparseVec,
    /// Identity fingerprint (dataset fingerprint when the item is verbatim
    /// from the dataset, synthetic otherwise).
    pub fingerprint: u64,
    /// The dataset item this rep item is identical to, if any.
    pub source: Option<ItemId>,
}

impl RepItem {
    /// Creates a rep item mirroring a dataset item.
    pub fn from_dataset(ds: &Dataset, id: ItemId) -> Self {
        let item = &ds.items[id.index()];
        Self {
            path: item.path,
            tag_path: item.tag_path,
            vector: item.vector.clone(),
            fingerprint: item.fingerprint,
            source: Some(id),
        }
    }

    /// Borrowed similarity view.
    #[inline]
    pub fn view(&self) -> ItemView<'_> {
        ItemView {
            tag_path: self.tag_path,
            vector: &self.vector,
            fingerprint: self.fingerprint,
        }
    }

    /// Estimated wire size in bytes: path id, tag path id, and the sparse
    /// vector entries (4-byte term + 8-byte weight), plus framing.
    pub fn wire_size(&self) -> usize {
        16 + 4 + 4 + self.vector.nnz() * 12
    }
}

/// A cluster representative: a tree tuple of [`RepItem`]s.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Representative {
    /// The items, at most one per complete path (tree-tuple property).
    pub items: Vec<RepItem>,
}

impl Representative {
    /// An empty representative (e.g. of an empty cluster).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Uses a dataset transaction verbatim as a representative (the initial
    /// global representatives of Fig. 5 are transactions).
    pub fn from_transaction(ds: &Dataset, tr: &Transaction) -> Self {
        let items = tr
            .items()
            .iter()
            .map(|&id| RepItem::from_dataset(ds, id))
            .collect();
        Self { items }
    }

    /// Number of items `|rep|`.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the representative carries no items.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Borrowed views for the similarity functions.
    pub fn views(&self) -> Vec<ItemView<'_>> {
        self.items.iter().map(RepItem::view).collect()
    }

    /// Estimated wire size in bytes.
    pub fn wire_size(&self) -> usize {
        16 + self.items.iter().map(RepItem::wire_size).sum::<usize>()
    }

    /// Identity check used for the termination test: two representatives are
    /// equal when they carry the same item fingerprints.
    pub fn same_items(&self, other: &Representative) -> bool {
        if self.items.len() != other.items.len() {
            return false;
        }
        let mut a: Vec<u64> = self.items.iter().map(|i| i.fingerprint).collect();
        let mut b: Vec<u64> = other.items.iter().map(|i| i.fingerprint).collect();
        a.sort_unstable();
        b.sort_unstable();
        a == b
    }
}

/// Prepares `reps` for the `simγJ` kernel, ranking their tag paths in
/// `tag_sim`: slab entry `j` is representative `j`. Scores against the
/// slab must use `tag_sim` or an extension of it (see
/// `cxk_transact::txsim`).
pub fn prepare_representatives(tag_sim: &TagPathSimTable, reps: &[Representative]) -> PreparedSlab {
    let items = reps.iter().map(Representative::len).sum();
    let entries = reps
        .iter()
        .flat_map(|r| &r.items)
        .map(|item| item.vector.nnz())
        .sum();
    let mut slab = PreparedSlab::with_capacity(reps.len(), items, entries);
    for rep in reps {
        slab.push(tag_sim, rep.items.iter().map(RepItem::view));
    }
    slab
}

/// The `conflateItems` procedure of Fig. 6: merges items sharing a complete
/// path into one item whose content is the union (element-wise max) of the
/// merged contents. Items with unique paths pass through unchanged,
/// preserving their identity.
pub fn conflate_items(items: Vec<RepItem>) -> Vec<RepItem> {
    let mut order: Vec<PathId> = Vec::new();
    let mut groups: FxHashMap<PathId, Vec<RepItem>> = FxHashMap::default();
    for item in items {
        groups
            .entry(item.path)
            .or_insert_with(|| {
                order.push(item.path);
                Vec::new()
            })
            .push(item);
    }
    let mut out = Vec::with_capacity(order.len());
    for path in order {
        let mut group = groups.remove(&path).expect("group exists");
        if group.len() == 1 {
            out.push(group.pop().expect("non-empty"));
            continue;
        }
        // Deduplicate identical items first: union of identical contents is
        // the item itself.
        group.dedup_by(|a, b| a.fingerprint == b.fingerprint);
        if group.len() == 1 {
            out.push(group.pop().expect("non-empty"));
            continue;
        }
        let tag_path = group[0].tag_path;
        let mut vector = SparseVec::new();
        for item in &group {
            vector.max_merge(&item.vector);
        }
        let fingerprint = synthetic_fingerprint(path, &vector);
        out.push(RepItem {
            path,
            tag_path,
            vector,
            fingerprint,
            source: None,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxk_util::Symbol;

    fn rep_item(path: u32, pairs: &[(u32, f64)], fp: u64) -> RepItem {
        let vector = SparseVec::from_pairs(pairs.iter().map(|&(i, v)| (Symbol(i), v)).collect());
        RepItem {
            path: PathId(path),
            tag_path: PathId(path),
            vector,
            fingerprint: fp,
            source: None,
        }
    }

    #[test]
    fn conflate_passes_unique_paths_through() {
        let items = vec![rep_item(0, &[(1, 1.0)], 10), rep_item(1, &[(2, 1.0)], 11)];
        let out = conflate_items(items.clone());
        assert_eq!(out, items);
    }

    #[test]
    fn conflate_merges_same_path_with_max_union() {
        let items = vec![
            rep_item(0, &[(1, 1.0), (2, 3.0)], 10),
            rep_item(0, &[(2, 1.0), (3, 2.0)], 11),
        ];
        let out = conflate_items(items);
        assert_eq!(out.len(), 1);
        let merged = &out[0];
        assert_eq!(merged.vector.get(Symbol(1)), 1.0);
        assert_eq!(merged.vector.get(Symbol(2)), 3.0);
        assert_eq!(merged.vector.get(Symbol(3)), 2.0);
        assert!(merged.source.is_none());
    }

    #[test]
    fn conflate_is_idempotent() {
        let items = vec![
            rep_item(0, &[(1, 1.0)], 10),
            rep_item(0, &[(2, 2.0)], 11),
            rep_item(1, &[(3, 1.0)], 12),
        ];
        let once = conflate_items(items);
        let twice = conflate_items(once.clone());
        assert_eq!(once, twice);
    }

    #[test]
    fn conflate_dedups_identical_items() {
        // Two copies of the same item (same fingerprint) collapse without
        // becoming synthetic.
        let a = rep_item(0, &[(1, 1.0)], 10);
        let out = conflate_items(vec![a.clone(), a.clone()]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].fingerprint, 10);
    }

    #[test]
    fn conflate_result_is_tree_tuple_shaped() {
        // At most one item per path.
        let items = vec![
            rep_item(0, &[(1, 1.0)], 1),
            rep_item(1, &[(1, 1.0)], 2),
            rep_item(0, &[(2, 1.0)], 3),
            rep_item(2, &[(3, 1.0)], 4),
            rep_item(1, &[(4, 1.0)], 5),
        ];
        let out = conflate_items(items);
        let mut paths: Vec<PathId> = out.iter().map(|i| i.path).collect();
        paths.sort_unstable();
        paths.dedup();
        assert_eq!(paths.len(), out.len());
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn same_items_ignores_order() {
        let a = Representative {
            items: vec![rep_item(0, &[(1, 1.0)], 1), rep_item(1, &[(2, 1.0)], 2)],
        };
        let b = Representative {
            items: vec![rep_item(1, &[(2, 1.0)], 2), rep_item(0, &[(1, 1.0)], 1)],
        };
        assert!(a.same_items(&b));
        let c = Representative {
            items: vec![rep_item(0, &[(1, 1.0)], 3)],
        };
        assert!(!a.same_items(&c));
    }

    #[test]
    fn wire_size_scales_with_content() {
        let small = Representative {
            items: vec![rep_item(0, &[(1, 1.0)], 1)],
        };
        let large = Representative {
            items: (0..10)
                .map(|p| rep_item(p, &[(1, 1.0), (2, 2.0), (3, 3.0)], u64::from(p)))
                .collect(),
        };
        assert!(large.wire_size() > 5 * small.wire_size());
        assert!(Representative::empty().wire_size() > 0);
    }
}
