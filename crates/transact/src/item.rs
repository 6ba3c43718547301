//! Tree tuple items (§3.3).
//!
//! An item is a pair `⟨p, A_τ(p)⟩` of a complete path and its (unique, by
//! tree-tuple construction) answer. Items are deduplicated collection-wide:
//! in the paper's Fig. 4 the item `(dblp.inproceedings.booktitle.S, 'KDD')`
//! is shared by all three transactions.
//!
//! Identity is by *(path, answer)*; a 64-bit [`Item::fingerprint`] of that
//! pair gives every item — including the synthetic items created by
//! representative conflation in `cxk_core` — a uniform identity usable for
//! set unions across dataset and representative items.

use cxk_text::SparseVec;
use cxk_util::{FxHasher, Symbol};
use cxk_xml::path::PathId;
use std::hash::{Hash, Hasher};

/// Index of an item in its dataset's item domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ItemId(pub u32);

impl ItemId {
    /// Index into the dataset's item vector.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A tree tuple item of the dataset's item domain.
#[derive(Debug, Clone)]
pub struct Item {
    /// The complete path `p`.
    pub path: PathId,
    /// The tag path (complete path minus the trailing attribute/`S` label),
    /// used by the structural similarity `sim_S`.
    pub tag_path: PathId,
    /// Raw answer string (attribute value or `#PCDATA`), kept for
    /// provenance and display.
    pub raw: Box<str>,
    /// Preprocessed TCU terms, duplicates preserved (term frequency).
    pub terms: Vec<Symbol>,
    /// The `ttf.itf`-weighted TCU vector.
    pub vector: SparseVec,
    /// Identity hash of `(path, raw)`.
    pub fingerprint: u64,
}

/// Computes the identity fingerprint of an item from its path and raw answer.
pub fn item_fingerprint(path: PathId, raw: &str) -> u64 {
    let mut hasher = FxHasher::default();
    path.0.hash(&mut hasher);
    raw.hash(&mut hasher);
    hasher.finish()
}

/// Computes a fingerprint for a synthetic (conflated) item whose content is
/// a merged vector rather than a raw string. Quantizes weights so that
/// numerically identical merges produce identical fingerprints.
pub fn synthetic_fingerprint(path: PathId, vector: &SparseVec) -> u64 {
    let mut hasher = FxHasher::default();
    path.0.hash(&mut hasher);
    1u8.hash(&mut hasher); // domain-separate from raw-string fingerprints
    for (term, weight) in vector.iter() {
        term.0.hash(&mut hasher);
        weight.to_bits().hash(&mut hasher);
    }
    hasher.finish()
}

/// A borrowed, uniform view of an item: enough to compute similarities and
/// identities. Both dataset [`Item`]s and `cxk_core` representative items
/// project into this.
#[derive(Debug, Clone, Copy)]
pub struct ItemView<'a> {
    /// Tag path for `sim_S`.
    pub tag_path: PathId,
    /// TCU vector for `sim_C`.
    pub vector: &'a SparseVec,
    /// Identity for set unions.
    pub fingerprint: u64,
}

impl Item {
    /// Projects the item into a borrowed view.
    #[inline]
    pub fn view(&self) -> ItemView<'_> {
        ItemView {
            tag_path: self.tag_path,
            vector: &self.vector,
            fingerprint: self.fingerprint,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprints_identify_path_answer_pairs() {
        let a = item_fingerprint(PathId(0), "KDD");
        let b = item_fingerprint(PathId(0), "KDD");
        let c = item_fingerprint(PathId(0), "VLDB");
        let d = item_fingerprint(PathId(1), "KDD");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn synthetic_fingerprints_are_stable_and_domain_separated() {
        let v = SparseVec::from_pairs(vec![(Symbol(3), 1.5), (Symbol(1), 0.5)]);
        let w = SparseVec::from_pairs(vec![(Symbol(1), 0.5), (Symbol(3), 1.5)]);
        assert_eq!(
            synthetic_fingerprint(PathId(2), &v),
            synthetic_fingerprint(PathId(2), &w)
        );
        assert_ne!(
            synthetic_fingerprint(PathId(2), &v),
            synthetic_fingerprint(PathId(3), &v)
        );
        // A synthetic fingerprint never equals a raw fingerprint by
        // construction (domain separation byte).
        assert_ne!(
            synthetic_fingerprint(PathId(0), &SparseVec::new()),
            item_fingerprint(PathId(0), "")
        );
    }
}
