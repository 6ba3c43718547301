//! Transaction similarity — the enhanced intersection `matchγ` and
//! `simγJ` (Eq. 4).
//!
//! The Jaccard coefficient's exact intersection is too brittle for XML
//! items that share structure or content only to a degree, so the paper
//! replaces it with the set of *γ-shared* items:
//!
//! ```text
//! matchγ(tr_i → tr_j) = { e ∈ tr_i | ∃ e_h ∈ tr_j : sim(e, e_h) ≥ γ
//!                                     ∧ ∄ e′ ∈ tr_i : sim(e′, e_h) > sim(e, e_h) }
//! matchγ(tr_1, tr_2)  = matchγ(tr_1 → tr_2) ∪ matchγ(tr_2 → tr_1)
//! simγJ(tr_1, tr_2)   = |matchγ(tr_1, tr_2)| / |tr_1 ∪ tr_2|
//! ```
//!
//! Items are identified by fingerprint (see `item`), so items shared between
//! the two transactions count once in both the match set and the union.
//!
//! # The prepared kernel
//!
//! Every assignment CXK-means makes is an argmax of `simγJ` over the
//! representatives, so the same representatives are scored again and
//! again — the repetition the paper's complexity analysis (§4.3.2)
//! precomputes. [`PreparedSlab`] holds transactions in the form the kernel
//! scores, computed once: per item its `sim_S` rank in a
//! [`TagPathSimTable`], its cached `SparseVec::norm()` and its emptiness;
//! per transaction its fingerprints sorted and deduplicated (with each
//! item's slot among them) and its `(term, item, weight)` entries sorted by
//! term. [`sim_gamma_j_prepared`] then scores two prepared transactions
//! with no hash lookup, no norm walk and — once the caller-owned
//! [`ScoreScratch`] has grown to the largest pair — no heap allocation:
//!
//! * one merge of the two term-sorted entry lists yields the dot product
//!   of every item pair (each pair's products still summed in ascending
//!   term order, exactly as `SparseVec::dot`'s merge join sums them);
//! * `sim_S` is a rank-indexed read of the same precomputed table;
//! * `|tr1 ∪ tr2|` and `|matchγ|` are one merge of the sorted fingerprints,
//!   with the γ-shared items marked by slot.
//!
//! [`sim_gamma_j`] keeps its signature as a thin call into the same kernel
//! (preparing both sides on the spot). The original set-based definition,
//! [`gamma_shared`] + [`union_size`], is kept public as the reference the
//! kernel is tested against ([`sim_gamma_j_reference`]); no production
//! path calls it.
//!
//! Ranks are relative to the table a transaction was prepared against: a
//! prepared transaction may only be scored under a context whose table
//! holds the same paths at the same ranks. Tables only append (a rank is
//! a path's insertion order), so a transaction prepared against a table
//! stays valid under every extension of it.
//!
//! Every assignment applies one relocation rule, [`gather_best`], to
//! scores the kernel computed ([`argmax_prepared`]) or to answers gathered
//! from shards.

use crate::item::ItemView;
use crate::itemsim::SimCtx;
use crate::pathsim::TagPathSimTable;
use cxk_util::FxHashSet;

/// Reference `matchγ(tr1, tr2)` as a fingerprint set: the paper's
/// definition computed literally. Kept as the oracle the prepared kernel
/// is tested against; scoring goes through [`sim_gamma_j_prepared`].
pub fn gamma_shared(
    ctx: &SimCtx<'_>,
    tr1: &[ItemView<'_>],
    tr2: &[ItemView<'_>],
) -> FxHashSet<u64> {
    let mut shared = FxHashSet::default();
    if tr1.is_empty() || tr2.is_empty() {
        return shared;
    }
    let gamma = ctx.params.gamma;
    // Full similarity matrix, row = tr1 item, column = tr2 item.
    let (n1, n2) = (tr1.len(), tr2.len());
    let mut matrix = vec![0.0f64; n1 * n2];
    for (i, &a) in tr1.iter().enumerate() {
        for (j, &b) in tr2.iter().enumerate() {
            matrix[i * n2 + j] = ctx.sim(a, b);
        }
    }
    // Direction tr1 -> tr2: for each target e_h (column j), the best source
    // rows whose similarity reaches gamma are gamma-shared.
    for j in 0..n2 {
        let mut best = 0.0f64;
        for i in 0..n1 {
            best = best.max(matrix[i * n2 + j]);
        }
        if best >= gamma {
            for (i, a) in tr1.iter().enumerate() {
                if matrix[i * n2 + j] == best {
                    shared.insert(a.fingerprint);
                }
            }
        }
    }
    // Direction tr2 -> tr1: rows are targets.
    for (i, _) in tr1.iter().enumerate() {
        let mut best = 0.0f64;
        for j in 0..n2 {
            best = best.max(matrix[i * n2 + j]);
        }
        if best >= gamma {
            for (j, b) in tr2.iter().enumerate() {
                if matrix[i * n2 + j] == best {
                    shared.insert(b.fingerprint);
                }
            }
        }
    }
    shared
}

/// Reference `|tr1 ∪ tr2|` by fingerprint identity (the oracle's union;
/// see [`gamma_shared`]).
pub fn union_size(tr1: &[ItemView<'_>], tr2: &[ItemView<'_>]) -> usize {
    let mut set: FxHashSet<u64> = FxHashSet::default();
    set.extend(tr1.iter().map(|v| v.fingerprint));
    set.extend(tr2.iter().map(|v| v.fingerprint));
    set.len()
}

/// Reference Eq. (4) over [`gamma_shared`] and [`union_size`]: the
/// definition [`sim_gamma_j_prepared`] must equal bit for bit. Tests and
/// benchmarks only.
pub fn sim_gamma_j_reference(ctx: &SimCtx<'_>, tr1: &[ItemView<'_>], tr2: &[ItemView<'_>]) -> f64 {
    if tr1.is_empty() && tr2.is_empty() {
        return 1.0;
    }
    let union = union_size(tr1, tr2);
    if union == 0 {
        return 0.0;
    }
    let shared = gamma_shared(ctx, tr1, tr2).len();
    (shared as f64 / union as f64).clamp(0.0, 1.0)
}

/// Eq. (4): `simγJ(tr1, tr2)` in `[0, 1]`.
///
/// Two empty transactions are defined to be identical (`1.0`); an empty
/// against a non-empty is `0.0`. Prepares both sides and calls
/// [`sim_gamma_j_prepared`]; callers scoring one transaction against many
/// should prepare once and call the kernel directly.
pub fn sim_gamma_j(ctx: &SimCtx<'_>, tr1: &[ItemView<'_>], tr2: &[ItemView<'_>]) -> f64 {
    if tr1.is_empty() || tr2.is_empty() {
        return if tr1.is_empty() && tr2.is_empty() {
            1.0
        } else {
            0.0
        };
    }
    let items = tr1.len() + tr2.len();
    let entries = tr1.iter().chain(tr2).map(|v| v.vector.nnz()).sum();
    let mut slab = PreparedSlab::with_capacity(2, items, entries);
    slab.push(ctx.tag_sim, tr1.iter().copied());
    slab.push(ctx.tag_sim, tr2.iter().copied());
    match (slab.get(0), slab.get(1)) {
        (Some(a), Some(b)) => sim_gamma_j_prepared(ctx, a, b, &mut ScoreScratch::default()),
        _ => 0.0,
    }
}

/// The rank stored for an item whose tag path is not in the table.
const NO_RANK: u32 = u32::MAX;

/// One item, prepared: what scoring it needs that does not depend on the
/// other side.
#[derive(Debug, Clone, Copy)]
struct PreparedItem {
    /// Dense rank of the tag path in the preparing table (`NO_RANK` when
    /// unregistered, which scores `sim_S = 0`).
    rank: u32,
    /// Index of the item's fingerprint among its transaction's sorted,
    /// deduplicated fingerprints.
    slot: u32,
    /// `SparseVec::norm()` of the TCU vector.
    norm: f64,
    /// Whether the TCU vector has no entries.
    empty: bool,
}

/// One item's weight for one term: an entry of a transaction's term
/// postings.
#[derive(Debug, Clone, Copy)]
struct Posting {
    /// Position of the item within its transaction.
    item: u32,
    weight: f64,
}

/// Where one prepared transaction ends in each of the slab's arrays.
#[derive(Debug, Clone, Copy, Default)]
struct Ends {
    items: usize,
    fingerprints: usize,
    terms: usize,
    postings: usize,
}

/// Transactions prepared for [`sim_gamma_j_prepared`], stored flat: a
/// representative set as one slab per model epoch or training pass, or a
/// single query tuple re-prepared in place (after [`PreparedSlab::clear`]
/// a warm slab prepares without allocating).
///
/// Per transaction the slab holds its items, its sorted deduplicated
/// fingerprints, and a small inverted index of its TCU vectors: the
/// distinct terms ascending, each with the postings `(item, weight)` of
/// the items containing it.
#[derive(Debug, Clone, Default)]
pub struct PreparedSlab {
    items: Vec<PreparedItem>,
    fingerprints: Vec<u64>,
    /// Distinct terms of each transaction, ascending, each with the end of
    /// its postings run (counted from the transaction's first posting).
    terms: Vec<(u32, u32)>,
    postings: Vec<Posting>,
    ends: Vec<Ends>,
    /// `(fingerprint, item)` pairs of the transaction being pushed, kept
    /// only so pushing reuses the allocation.
    order: Vec<(u64, u32)>,
    /// `(term, item, weight)` entries of the transaction being pushed,
    /// likewise.
    staging: Vec<(u32, u32, f64)>,
}

impl PreparedSlab {
    /// An empty slab.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty slab with room for `transactions` transactions holding
    /// `items` items and `entries` TCU vector entries in total.
    pub fn with_capacity(transactions: usize, items: usize, entries: usize) -> Self {
        Self {
            items: Vec::with_capacity(items),
            fingerprints: Vec::with_capacity(items),
            terms: Vec::with_capacity(entries),
            postings: Vec::with_capacity(entries),
            ends: Vec::with_capacity(transactions),
            order: Vec::with_capacity(items),
            staging: Vec::with_capacity(entries),
        }
    }

    /// Prepares every transaction of `txs`, in order, ranking tag paths in
    /// `tag_sim`.
    pub fn build<'a, T, I>(tag_sim: &TagPathSimTable, txs: T) -> Self
    where
        T: IntoIterator<Item = I>,
        I: IntoIterator<Item = ItemView<'a>>,
    {
        let mut slab = Self::new();
        for tx in txs {
            slab.push(tag_sim, tx);
        }
        slab
    }

    /// Number of prepared transactions.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether no transaction is prepared.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Forgets every transaction, keeping the allocations.
    pub fn clear(&mut self) {
        self.items.clear();
        self.fingerprints.clear();
        self.terms.clear();
        self.postings.clear();
        self.ends.clear();
    }

    /// Prepares one transaction, ranking its tag paths in `tag_sim`, and
    /// appends it as transaction `len()`.
    pub fn push<'a>(
        &mut self,
        tag_sim: &TagPathSimTable,
        items: impl IntoIterator<Item = ItemView<'a>>,
    ) {
        let start = self.ends.last().copied().unwrap_or_default();
        self.order.clear();
        self.staging.clear();
        for view in items {
            let item = (self.items.len() - start.items) as u32;
            self.items.push(PreparedItem {
                rank: tag_sim.rank_of(view.tag_path).unwrap_or(NO_RANK),
                slot: 0,
                norm: view.vector.norm(),
                empty: view.vector.is_empty(),
            });
            self.order.push((view.fingerprint, item));
            self.staging.extend(
                view.vector
                    .iter()
                    .map(|(term, weight)| (term.0, item, weight)),
            );
        }
        // Fingerprints sorted and deduplicated, each item pointing at its
        // slot: the set semantics of `|tr1 ∪ tr2|` and the γ-shared set.
        self.order.sort_unstable();
        let mut last = None;
        for &(fingerprint, item) in &self.order {
            if last != Some(fingerprint) {
                self.fingerprints.push(fingerprint);
                last = Some(fingerprint);
            }
            let slot = (self.fingerprints.len() - 1 - start.fingerprints) as u32;
            if let Some(prepared) = self.items.get_mut(start.items + item as usize) {
                prepared.slot = slot;
            }
        }
        // The inverted index: terms ascending (an item's terms are
        // distinct, so `(term, item)` orders the entries totally), one run
        // of postings per term. A merge over two transactions' terms then
        // visits every item pair's shared terms in the order
        // `SparseVec::dot` sums them.
        self.staging
            .sort_unstable_by_key(|&(term, item, _)| (u64::from(term) << 32) | u64::from(item));
        for &(term, item, weight) in &self.staging {
            if self.terms.len() == start.terms || self.terms.last().map(|t| t.0) != Some(term) {
                self.terms.push((term, 0));
            }
            self.postings.push(Posting { item, weight });
            if let Some((_, end)) = self.terms.last_mut() {
                *end = (self.postings.len() - start.postings) as u32;
            }
        }
        self.ends.push(Ends {
            items: self.items.len(),
            fingerprints: self.fingerprints.len(),
            terms: self.terms.len(),
            postings: self.postings.len(),
        });
    }

    /// Prepared transaction `i`, if any.
    pub fn get(&self, i: usize) -> Option<PreparedTx<'_>> {
        let end = *self.ends.get(i)?;
        let start = match i.checked_sub(1) {
            Some(prev) => *self.ends.get(prev)?,
            None => Ends::default(),
        };
        Some(PreparedTx {
            items: self.items.get(start.items..end.items)?,
            fingerprints: self
                .fingerprints
                .get(start.fingerprints..end.fingerprints)?,
            terms: self.terms.get(start.terms..end.terms)?,
            postings: self.postings.get(start.postings..end.postings)?,
        })
    }

    /// The prepared transactions, in order.
    pub fn iter(&self) -> impl Iterator<Item = PreparedTx<'_>> + '_ {
        (0..self.len()).filter_map(|i| self.get(i))
    }
}

/// A borrowed prepared transaction (see [`PreparedSlab::get`]).
#[derive(Debug, Clone, Copy)]
pub struct PreparedTx<'a> {
    items: &'a [PreparedItem],
    fingerprints: &'a [u64],
    terms: &'a [(u32, u32)],
    postings: &'a [Posting],
}

impl PreparedTx<'_> {
    /// Number of items `|tr|` (duplicated fingerprints included).
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the transaction has no items.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The postings of the `k`-th distinct term.
    fn run(&self, k: usize) -> &[Posting] {
        let start = match k.checked_sub(1) {
            Some(prev) => self.terms.get(prev).map_or(0, |t| t.1),
            None => 0,
        };
        let end = self.terms.get(k).map_or(0, |t| t.1);
        self.postings
            .get(start as usize..end as usize)
            .unwrap_or_default()
    }
}

/// Caller-owned buffers of [`sim_gamma_j_prepared`]: the pairwise item
/// similarity matrix followed by the per-row and per-column maxima, and
/// the γ-shared marks of both sides' fingerprints. Reused across calls;
/// one per thread (e.g. one per transaction scored against `k`
/// representatives).
#[derive(Debug, Clone, Default)]
pub struct ScoreScratch {
    cells: Vec<f64>,
    marks: Vec<bool>,
}

/// Eq. (4) on two prepared transactions: bit-identical to
/// [`sim_gamma_j`] (and to [`sim_gamma_j_reference`]) on the views they
/// were prepared from, provided `ctx`'s table ranks their tag paths as the
/// preparing table did.
pub fn sim_gamma_j_prepared(
    ctx: &SimCtx<'_>,
    tr1: PreparedTx<'_>,
    tr2: PreparedTx<'_>,
    scratch: &mut ScoreScratch,
) -> f64 {
    let (n1, n2) = (tr1.items.len(), tr2.items.len());
    if n1 == 0 || n2 == 0 {
        // simγJ(∅, ∅) = 1; against a non-empty side nothing is γ-shared
        // and `0 / |union|` is +0.0.
        return if n1 == n2 { 1.0 } else { 0.0 };
    }
    let f = ctx.params.f;
    let gamma = ctx.params.gamma;

    // Row = tr1 item, column = tr2 item. Cells first hold dot products
    // (only needed when content counts), then item similarities.
    scratch.cells.clear();
    scratch.cells.resize(n1 * n2 + n1 + n2, 0.0);
    let (matrix, bests) = scratch.cells.split_at_mut(n1 * n2);
    let (row_best, col_best) = bests.split_at_mut(n1);
    if f < 1.0 {
        accumulate_dots(tr1, tr2, n2, matrix);
    }
    for (row, x) in matrix.chunks_exact_mut(n2).zip(tr1.items) {
        for (cell, y) in row.iter_mut().zip(tr2.items) {
            *cell = item_sim(ctx.tag_sim, f, x, y, *cell);
        }
    }

    // Each row's and each column's best similarity, folded from 0.0 in
    // ascending order as the definition scans them.
    for (row, row_best) in matrix.chunks_exact(n2).zip(row_best.iter_mut()) {
        let mut best = 0.0f64;
        for (&cell, column) in row.iter().zip(col_best.iter_mut()) {
            best = best.max(cell);
            *column = column.max(cell);
        }
        *row_best = best;
    }
    if !row_best.iter().any(|&best| best >= gamma) {
        // No pair reaches γ: nothing is γ-shared, and `0 / |union|` is
        // +0.0 whatever the union.
        return 0.0;
    }
    // Direction tr1 -> tr2: for each target column reaching γ, its best
    // source rows are γ-shared; direction tr2 -> tr1 likewise with rows as
    // targets.
    scratch.marks.clear();
    scratch
        .marks
        .resize(tr1.fingerprints.len() + tr2.fingerprints.len(), false);
    let (marks1, marks2) = scratch.marks.split_at_mut(tr1.fingerprints.len());
    for ((row, x), &rb) in matrix.chunks_exact(n2).zip(tr1.items).zip(row_best.iter()) {
        for ((&cell, y), &cb) in row.iter().zip(tr2.items).zip(col_best.iter()) {
            if cb >= gamma && cell == cb {
                if let Some(mark) = marks1.get_mut(x.slot as usize) {
                    *mark = true;
                }
            }
            if rb >= gamma && cell == rb {
                if let Some(mark) = marks2.get_mut(y.slot as usize) {
                    *mark = true;
                }
            }
        }
    }

    // |matchγ| and |tr1 ∪ tr2| in one merge of the sorted fingerprints: a
    // fingerprint on both sides counts once, shared if either side
    // marked it.
    let (fp1, fp2) = (tr1.fingerprints, tr2.fingerprints);
    let (mut i, mut j) = (0usize, 0usize);
    let (mut union, mut shared) = (0usize, 0usize);
    while let (Some(&a), Some(&b)) = (fp1.get(i), fp2.get(j)) {
        let (take1, take2) = (a <= b, b <= a);
        let mark1 = take1 && marks1.get(i).copied().unwrap_or(false);
        let mark2 = take2 && marks2.get(j).copied().unwrap_or(false);
        shared += usize::from(mark1 || mark2);
        union += 1;
        i += usize::from(take1);
        j += usize::from(take2);
    }
    union += fp1.len().saturating_sub(i) + fp2.len().saturating_sub(j);
    shared += marks1.iter().skip(i).filter(|&&m| m).count();
    shared += marks2.iter().skip(j).filter(|&&m| m).count();
    (shared as f64 / union as f64).clamp(0.0, 1.0)
}

/// The relocation rule over already-scored `(id, simγJ)` answers: the
/// highest similarity wins under a strict `>`, so of equal maxima the
/// first wins — answers must come in ascending id order for ties to go to
/// the lowest id — and a best of 0 (nothing scored above zero, or no
/// answer at all) is `(trash, 0.0)`.
pub fn gather_best(answers: impl IntoIterator<Item = (u32, f64)>, trash: u32) -> (u32, f64) {
    let mut best = (trash, 0.0f64);
    for (id, sim) in answers {
        if sim > best.1 {
            best = (id, sim);
        }
    }
    best
}

/// [`gather_best`] over `query` scored by the kernel against the prepared
/// representatives with ascending ids `ids`; an id with no prepared
/// representative scores nothing. `query` and `reps` must be prepared
/// against tables whose ranks agree with `ctx`'s.
pub fn argmax_prepared(
    ctx: &SimCtx<'_>,
    query: PreparedTx<'_>,
    reps: &PreparedSlab,
    ids: impl IntoIterator<Item = u32>,
    trash: u32,
    scratch: &mut ScoreScratch,
) -> (u32, f64) {
    let answers = ids.into_iter().filter_map(|j| {
        let rep = reps.get(j as usize)?;
        Some((j, sim_gamma_j_prepared(ctx, query, rep, scratch)))
    });
    gather_best(answers, trash)
}

/// Adds every item pair's dot product into `matrix` (row-major, `n2`
/// columns) by merging the two transactions' sorted distinct terms. A
/// pair's products are added in ascending term order starting from `0.0`
/// — the exact arithmetic of `SparseVec::dot`'s merge join, tr1's weight
/// on the left.
fn accumulate_dots(tr1: PreparedTx<'_>, tr2: PreparedTx<'_>, n2: usize, matrix: &mut [f64]) {
    let (t1, t2) = (tr1.terms, tr2.terms);
    let (mut i, mut j) = (0usize, 0usize);
    while let (Some(&(a, _)), Some(&(b, _))) = (t1.get(i), t2.get(j)) {
        if a == b {
            for x in tr1.run(i) {
                let row = x.item as usize * n2;
                for y in tr2.run(j) {
                    if let Some(cell) = matrix.get_mut(row + y.item as usize) {
                        *cell += x.weight * y.weight;
                    }
                }
            }
        }
        // Branch-free advance: the shorter list's term order is
        // unpredictable, equality is rare.
        i += usize::from(a <= b);
        j += usize::from(b <= a);
    }
}

/// Eq. (1) on prepared items, `dot` being their TCU dot product: the
/// arithmetic of `SimCtx::sim` — the `f ≥ 1` / `f ≤ 0` short-circuits,
/// `sim_C = 1` for two empty TCUs, cosine `dot / (‖x‖·‖y‖)` clamped to
/// `[0, 1]` and `0` for a zero denominator.
#[inline]
fn item_sim(
    tag_sim: &TagPathSimTable,
    f: f64,
    x: &PreparedItem,
    y: &PreparedItem,
    dot: f64,
) -> f64 {
    if f >= 1.0 {
        return tag_sim.sim_at(x.rank, y.rank);
    }
    let content = if x.empty && y.empty {
        1.0
    } else {
        let denom = x.norm * y.norm;
        if denom == 0.0 {
            0.0
        } else {
            (dot / denom).clamp(0.0, 1.0)
        }
    };
    if f <= 0.0 {
        return content;
    }
    f * tag_sim.sim_at(x.rank, y.rank) + (1.0 - f) * content
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::itemsim::SimParams;
    use crate::pathsim::TagPathSimTable;
    use cxk_text::SparseVec;
    use cxk_util::{Interner, Symbol};
    use cxk_xml::path::{PathId, PathTable};

    #[test]
    fn gather_best_is_the_relocation_rule() {
        // Nothing above zero is trash; a tie goes to the first (lowest) id.
        assert_eq!(gather_best([], 7), (7, 0.0));
        assert_eq!(gather_best([(0, 0.0), (3, 0.0)], 7), (7, 0.0));
        assert_eq!(gather_best([(1, 0.5), (2, 0.9), (4, 0.9)], 7), (2, 0.9));
    }

    struct Fixture {
        table: TagPathSimTable,
        tag_paths: Vec<PathId>,
        vectors: Vec<SparseVec>,
    }

    /// Three tag paths: two near-identical bibliographic ones and one
    /// structurally unrelated; four vectors: three distinct topics plus one
    /// duplicate of topic 0.
    fn fixture() -> Fixture {
        let mut interner = Interner::new();
        let mut paths = PathTable::new();
        let specs = [
            vec!["dblp", "article", "title"],
            vec!["dblp", "inproceedings", "title"],
            vec!["play", "act", "scene", "speech"],
        ];
        let ids: Vec<PathId> = specs
            .iter()
            .map(|spec| {
                let labels: Vec<Symbol> = spec.iter().map(|t| interner.intern(t)).collect();
                paths.intern(&labels)
            })
            .collect();
        let table = TagPathSimTable::build(&ids, &paths);
        let vectors = vec![
            SparseVec::from_pairs(vec![(Symbol(0), 1.0), (Symbol(1), 1.0)]),
            SparseVec::from_pairs(vec![(Symbol(2), 1.0), (Symbol(3), 1.0)]),
            SparseVec::from_pairs(vec![(Symbol(4), 1.0)]),
            SparseVec::from_pairs(vec![(Symbol(0), 1.0), (Symbol(1), 1.0)]),
        ];
        Fixture {
            table,
            tag_paths: ids,
            vectors,
        }
    }

    fn view<'a>(fx: &'a Fixture, path: usize, vector: usize, fp: u64) -> ItemView<'a> {
        ItemView {
            tag_path: fx.tag_paths[path],
            vector: &fx.vectors[vector],
            fingerprint: fp,
        }
    }

    #[test]
    fn identical_transactions_have_sim_one() {
        let fx = fixture();
        let ctx = SimCtx::new(&fx.table, SimParams::new(0.5, 0.8));
        let tr = vec![view(&fx, 0, 0, 1), view(&fx, 1, 1, 2)];
        assert!((sim_gamma_j(&ctx, &tr, &tr) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_transactions_have_sim_zero() {
        let fx = fixture();
        let ctx = SimCtx::new(&fx.table, SimParams::new(0.5, 0.95));
        let tr1 = vec![view(&fx, 0, 0, 1)];
        let tr2 = vec![view(&fx, 2, 2, 2)];
        assert_eq!(sim_gamma_j(&ctx, &tr1, &tr2), 0.0);
    }

    #[test]
    fn near_matches_count_with_loose_gamma() {
        let fx = fixture();
        // Same content, sibling structure (article vs inproceedings title).
        let tr1 = vec![view(&fx, 0, 0, 1)];
        let tr2 = vec![view(&fx, 1, 3, 2)];
        let loose = SimCtx::new(&fx.table, SimParams::new(0.5, 0.6));
        let strict = SimCtx::new(&fx.table, SimParams::new(0.5, 0.999));
        // Loose: both items gamma-share; union = 2 -> 2/2 = 1.
        assert!((sim_gamma_j(&loose, &tr1, &tr2) - 1.0).abs() < 1e-12);
        assert_eq!(sim_gamma_j(&strict, &tr1, &tr2), 0.0);
    }

    #[test]
    fn symmetric() {
        let fx = fixture();
        let ctx = SimCtx::new(&fx.table, SimParams::new(0.4, 0.7));
        let tr1 = vec![view(&fx, 0, 0, 1), view(&fx, 2, 2, 3)];
        let tr2 = vec![view(&fx, 1, 1, 2)];
        let ab = sim_gamma_j(&ctx, &tr1, &tr2);
        let ba = sim_gamma_j(&ctx, &tr2, &tr1);
        assert!((ab - ba).abs() < 1e-12);
    }

    #[test]
    fn shared_items_count_once_in_union() {
        let fx = fixture();
        let ctx = SimCtx::new(&fx.table, SimParams::new(0.5, 0.8));
        // Both transactions contain the identical item (same fingerprint).
        let shared_item = view(&fx, 0, 0, 42);
        let tr1 = vec![shared_item, view(&fx, 2, 2, 7)];
        let tr2 = vec![shared_item];
        // Union = {42, 7} = 2; match contains 42 (identical => sim 1).
        let s = sim_gamma_j(&ctx, &tr1, &tr2);
        assert!((s - 0.5).abs() < 1e-12);
    }

    #[test]
    fn best_match_rule_excludes_dominated_items() {
        let fx = fixture();
        // tr1 has an exact duplicate of tr2's item and a weaker near-match;
        // only the best (exact) one is gamma-shared in direction tr1->tr2.
        let ctx = SimCtx::new(&fx.table, SimParams::new(0.5, 0.6));
        let exact = view(&fx, 0, 0, 1);
        let weaker = view(&fx, 1, 0, 2); // same content, sibling path
        let target = view(&fx, 0, 0, 3);
        let tr1 = vec![exact, weaker];
        let tr2 = vec![target];
        let shared = gamma_shared(&ctx, &tr1, &tr2);
        assert!(shared.contains(&1), "exact match included");
        assert!(!shared.contains(&2), "dominated item excluded");
        // Direction tr2 -> tr1 adds the target itself.
        assert!(shared.contains(&3));
    }

    #[test]
    fn empty_transaction_conventions() {
        let fx = fixture();
        let ctx = SimCtx::new(&fx.table, SimParams::default());
        let tr = vec![view(&fx, 0, 0, 1)];
        let empty: Vec<ItemView<'_>> = Vec::new();
        assert_eq!(sim_gamma_j(&ctx, &empty, &empty), 1.0);
        assert_eq!(sim_gamma_j(&ctx, &empty, &tr), 0.0);
        assert_eq!(sim_gamma_j(&ctx, &tr, &empty), 0.0);
    }

    #[test]
    fn range_stays_in_unit_interval() {
        let fx = fixture();
        let ctx = SimCtx::new(&fx.table, SimParams::new(0.3, 0.5));
        let tr1 = vec![view(&fx, 0, 0, 1), view(&fx, 1, 1, 2), view(&fx, 2, 2, 3)];
        let tr2 = vec![view(&fx, 1, 3, 4), view(&fx, 2, 1, 5)];
        let s = sim_gamma_j(&ctx, &tr1, &tr2);
        assert!((0.0..=1.0).contains(&s), "simγJ = {s}");
    }
}
