//! Sorted sparse vectors and cosine similarity.
//!
//! TCU vectors are sparse over the corpus vocabulary `V` (§4.1.2: "proper
//! structures can be exploited to drastically reduce the actual
//! dimensionality"). A [`SparseVec`] stores `(index, value)` pairs sorted by
//! index; dot products merge in `O(nnz_a + nnz_b)`.

use cxk_util::Symbol;

/// A sparse vector over interned term symbols, sorted by term index.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SparseVec {
    indices: Vec<u32>,
    values: Vec<f64>,
}

impl SparseVec {
    /// Creates an empty vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a vector from unsorted `(term, weight)` pairs, summing
    /// duplicate terms and dropping zero weights.
    pub fn from_pairs(mut pairs: Vec<(Symbol, f64)>) -> Self {
        pairs.sort_unstable_by_key(|(term, _)| *term);
        let mut indices = Vec::with_capacity(pairs.len());
        let mut values = Vec::with_capacity(pairs.len());
        for (term, weight) in pairs {
            if weight == 0.0 {
                continue;
            }
            match values.last_mut() {
                Some(sum) if indices.last() == Some(&term.0) => *sum += weight,
                _ => {
                    indices.push(term.0);
                    values.push(weight);
                }
            }
        }
        Self { indices, values }
    }

    /// Replaces the entries with `pairs`, which must be ascending and
    /// distinct by term, dropping zero weights — [`SparseVec::from_pairs`]
    /// of such pairs, reusing this vector's buffers.
    pub fn assign_sorted(&mut self, pairs: impl IntoIterator<Item = (Symbol, f64)>) {
        self.indices.clear();
        self.values.clear();
        for (term, weight) in pairs {
            debug_assert!(self.indices.last() < Some(&term.0), "terms must ascend");
            if weight != 0.0 {
                self.indices.push(term.0);
                self.values.push(weight);
            }
        }
    }

    /// Number of stored (non-zero) entries.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Whether the vector is all-zero.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Iterates `(Symbol, value)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, f64)> + '_ {
        self.indices
            .iter()
            .zip(&self.values)
            .map(|(&i, &v)| (Symbol(i), v))
    }

    /// The value stored for `term` (0.0 if absent).
    pub fn get(&self, term: Symbol) -> f64 {
        match self.indices.binary_search(&term.0) {
            Ok(i) => self.values[i],
            Err(_) => 0.0,
        }
    }

    /// Dot product with `other`.
    pub fn dot(&self, other: &SparseVec) -> f64 {
        let mut sum = 0.0;
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.indices.len() && j < other.indices.len() {
            match self.indices[i].cmp(&other.indices[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    sum += self.values[i] * other.values[j];
                    i += 1;
                    j += 1;
                }
            }
        }
        sum
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Cosine similarity in `[0, 1]` for non-negative vectors. Zero vectors
    /// have similarity 0 with everything (including themselves) — an empty
    /// TCU carries no content evidence.
    pub fn cosine(&self, other: &SparseVec) -> f64 {
        let denom = self.norm() * other.norm();
        if denom == 0.0 {
            return 0.0;
        }
        (self.dot(other) / denom).clamp(0.0, 1.0)
    }

    /// Merges `other` into `self` taking the element-wise maximum — the
    /// union semantics used when conflating item contents: idempotent
    /// (merging identical contents is a no-op) and monotone.
    pub fn max_merge(&mut self, other: &SparseVec) {
        let mut merged_idx = Vec::with_capacity(self.nnz() + other.nnz());
        let mut merged_val = Vec::with_capacity(self.nnz() + other.nnz());
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.indices.len() || j < other.indices.len() {
            let take_self = j >= other.indices.len()
                || (i < self.indices.len() && self.indices[i] <= other.indices[j]);
            let take_other = i >= self.indices.len()
                || (j < other.indices.len() && other.indices[j] <= self.indices[i]);
            if take_self && take_other {
                merged_idx.push(self.indices[i]);
                merged_val.push(self.values[i].max(other.values[j]));
                i += 1;
                j += 1;
            } else if take_self {
                merged_idx.push(self.indices[i]);
                merged_val.push(self.values[i]);
                i += 1;
            } else {
                merged_idx.push(other.indices[j]);
                merged_val.push(other.values[j]);
                j += 1;
            }
        }
        self.indices = merged_idx;
        self.values = merged_val;
    }

    /// Multiplies every entry by `factor`. Scaling by zero empties the
    /// vector.
    pub fn scale(&mut self, factor: f64) {
        if factor == 0.0 {
            self.indices.clear();
            self.values.clear();
            return;
        }
        for v in &mut self.values {
            *v *= factor;
        }
    }

    /// L2-normalizes the vector in place; zero vectors are left unchanged.
    pub fn normalize(&mut self) {
        let n = self.norm();
        if n > 0.0 {
            self.scale(1.0 / n);
        }
    }

    /// Adds `other` scaled by `factor` into `self` (dense merge). A zero
    /// `factor` is a no-op: it introduces no explicit zero entries.
    pub fn add_scaled(&mut self, other: &SparseVec, factor: f64) {
        if factor == 0.0 {
            return;
        }
        let mut merged_idx = Vec::with_capacity(self.nnz() + other.nnz());
        let mut merged_val = Vec::with_capacity(self.nnz() + other.nnz());
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.indices.len() || j < other.indices.len() {
            let take_self = j >= other.indices.len()
                || (i < self.indices.len() && self.indices[i] <= other.indices[j]);
            let take_other = i >= self.indices.len()
                || (j < other.indices.len() && other.indices[j] <= self.indices[i]);
            if take_self && take_other {
                merged_idx.push(self.indices[i]);
                merged_val.push(self.values[i] + factor * other.values[j]);
                i += 1;
                j += 1;
            } else if take_self {
                merged_idx.push(self.indices[i]);
                merged_val.push(self.values[i]);
                i += 1;
            } else {
                merged_idx.push(other.indices[j]);
                merged_val.push(factor * other.values[j]);
                j += 1;
            }
        }
        self.indices = merged_idx;
        self.values = merged_val;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vec_of(pairs: &[(u32, f64)]) -> SparseVec {
        SparseVec::from_pairs(pairs.iter().map(|&(i, v)| (Symbol(i), v)).collect())
    }

    #[test]
    fn from_pairs_sorts_and_merges_duplicates() {
        let v = vec_of(&[(5, 1.0), (2, 2.0), (5, 3.0), (9, 0.0)]);
        assert_eq!(v.nnz(), 2);
        assert_eq!(v.get(Symbol(5)), 4.0);
        assert_eq!(v.get(Symbol(2)), 2.0);
        assert_eq!(v.get(Symbol(9)), 0.0);
    }

    #[test]
    fn dot_product_merges_sorted_indices() {
        let a = vec_of(&[(0, 1.0), (2, 2.0), (4, 3.0)]);
        let b = vec_of(&[(2, 5.0), (3, 7.0), (4, 1.0)]);
        assert_eq!(a.dot(&b), 2.0 * 5.0 + 3.0 * 1.0);
    }

    #[test]
    fn cosine_identity_is_one() {
        let v = vec_of(&[(1, 0.3), (7, 0.9), (11, 2.0)]);
        assert!((v.cosine(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cosine_orthogonal_is_zero() {
        let a = vec_of(&[(0, 1.0), (1, 1.0)]);
        let b = vec_of(&[(2, 1.0), (3, 1.0)]);
        assert_eq!(a.cosine(&b), 0.0);
    }

    #[test]
    fn cosine_of_zero_vector_is_zero() {
        let z = SparseVec::new();
        let v = vec_of(&[(0, 1.0)]);
        assert_eq!(z.cosine(&v), 0.0);
        assert_eq!(z.cosine(&z), 0.0);
    }

    #[test]
    fn cosine_is_symmetric_and_bounded() {
        let a = vec_of(&[(0, 0.5), (3, 1.5), (8, 0.25)]);
        let b = vec_of(&[(0, 1.0), (8, 2.0), (9, 1.0)]);
        let ab = a.cosine(&b);
        let ba = b.cosine(&a);
        assert!((ab - ba).abs() < 1e-12);
        assert!((0.0..=1.0).contains(&ab));
    }

    #[test]
    fn add_scaled_merges() {
        let mut a = vec_of(&[(0, 1.0), (2, 1.0)]);
        let b = vec_of(&[(1, 1.0), (2, 3.0)]);
        a.add_scaled(&b, 2.0);
        assert_eq!(a.get(Symbol(0)), 1.0);
        assert_eq!(a.get(Symbol(1)), 2.0);
        assert_eq!(a.get(Symbol(2)), 7.0);
        assert_eq!(a.nnz(), 3);
    }

    #[test]
    fn max_merge_is_elementwise_max_and_idempotent() {
        let mut a = vec_of(&[(0, 1.0), (2, 5.0)]);
        let b = vec_of(&[(0, 3.0), (1, 2.0), (2, 1.0)]);
        a.max_merge(&b);
        assert_eq!(a.get(Symbol(0)), 3.0);
        assert_eq!(a.get(Symbol(1)), 2.0);
        assert_eq!(a.get(Symbol(2)), 5.0);
        let snapshot = a.clone();
        a.max_merge(&b);
        assert_eq!(a, snapshot, "idempotent");
        let mut self_merge = snapshot.clone();
        self_merge.max_merge(&snapshot);
        assert_eq!(self_merge, snapshot, "self-merge is identity");
    }

    #[test]
    fn norm_matches_manual_computation() {
        let v = vec_of(&[(0, 3.0), (1, 4.0)]);
        assert!((v.norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn scale_multiplies_and_zero_clears() {
        let mut v = vec_of(&[(0, 3.0), (1, 4.0)]);
        v.scale(2.0);
        assert_eq!(v.get(Symbol(0)), 6.0);
        assert_eq!(v.get(Symbol(1)), 8.0);
        v.scale(0.0);
        assert!(v.is_empty());
    }

    #[test]
    fn normalize_yields_unit_norm() {
        let mut v = vec_of(&[(0, 3.0), (1, 4.0)]);
        v.normalize();
        assert!((v.norm() - 1.0).abs() < 1e-12);
        let mut z = SparseVec::new();
        z.normalize();
        assert!(z.is_empty(), "zero vector unchanged");
    }
}
