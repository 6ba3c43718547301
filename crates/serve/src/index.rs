//! The inverted tag-path index: sound candidate pruning for classification.
//!
//! Classifying a transaction means computing `simγJ` against all `k`
//! representatives and taking the argmax. `simγJ(tr, rep) > 0` requires at
//! least one item pair with `sim(e, e') ≥ γ`, and under the paper's exact
//! (Dirichlet) tag matcher `sim(e, e') > 0` decomposes:
//!
//! * `sim_S > 0` iff the two *tag paths share at least one tag label*
//!   (Eq. 3's `Δ` is an exact-match indicator, so every positional term is
//!   zero unless some tag coincides), or both tag paths are empty;
//! * `sim_C > 0` iff the two TCU vectors *share a term with nonzero
//!   product*, or both are empty (the documented "no content vs. no
//!   content matches" convention).
//!
//! So a representative sharing **no tag label, no term, and no
//! empty-against-empty pairing** with the query transaction is provably at
//! `simγJ = 0` whenever `γ > 0` — skipping it cannot change the argmax
//! (zero-similarity representatives never win; the trash cluster takes
//! those transactions). [`TagPathIndex`] stores postings from tag labels
//! and terms to representative ids and returns the complement of that
//! provably-zero set. Pruning is *sound, never lossy*: the candidates are
//! evaluated with the full `simγJ`, so indexed assignment agrees
//! bit-for-bit with brute force (asserted by the integration tests).
//!
//! Degenerate settings fall back to evaluating everything: `γ = 0` (any
//! pair γ-matches) and empty query transactions (`simγJ(∅, ∅) = 1`).
//!
//! Note the postings are keyed by tag *labels*, not whole tag paths: an
//! exact-path index would wrongly prune representatives that γ-match
//! through partially overlapping paths (e.g. `dblp.article.title` vs
//! `dblp.inproceedings.title`). Keying on labels is the tightest relaxation
//! that stays sound under Eq. 3. The soundness argument assumes the exact
//! tag matcher — a semantically enriched `Δ` (cxk_semantic) would need
//! synonym-closed postings, which is future work (see ROADMAP).
//!
//! The index is immutable derived state over one model: under hot reload
//! the next epoch's engine builds its indexes with the new model (see the
//! `slot` module), so postings and representatives always describe the
//! same snapshot.

use cxk_core::Representative;
use cxk_transact::item::ItemView;
use cxk_transact::SimParams;
use cxk_util::{FxHashMap, FxHashSet, Symbol};
use cxk_xml::path::PathTable;
use std::ops::Range;

/// The candidate set for one query transaction: either every
/// representative (pruning is unsound for this query/parameter
/// combination) or a bitset over global representative ids.
///
/// The set is caller-owned and refilled by [`TagPathIndex::candidates`],
/// so a warm worker collects candidates without allocating; iteration
/// walks the bits in ascending id order, the order the strict-`>` /
/// lowest-id tie-break needs.
#[derive(Debug, Clone, Default)]
pub struct Candidates {
    /// Pruning was disabled: every covered id is a candidate.
    all: bool,
    /// Bit `id % 64` of word `id / 64` is set iff representative `id` is a
    /// candidate (global ids).
    words: Vec<u64>,
}

impl Candidates {
    /// An empty candidate set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether pruning was disabled and every representative is a
    /// candidate.
    pub fn is_all(&self) -> bool {
        self.all
    }

    /// Marks every representative a candidate.
    pub(crate) fn set_all(&mut self) {
        self.all = true;
        self.words.clear();
    }

    /// Empties the set, sized for ids below `end` (keeps the allocation).
    fn reset(&mut self, end: u32) {
        self.all = false;
        self.words.clear();
        self.words.resize((end as usize).div_ceil(64), 0);
    }

    /// Adds every id of `ids`.
    fn extend(&mut self, ids: &[u32]) {
        for &id in ids {
            if let Some(word) = self.words.get_mut(id as usize / 64) {
                *word |= 1 << (id % 64);
            }
        }
    }

    /// The representative ids to evaluate, given `k` total. Allocation-free:
    /// `All` walks the id range directly.
    pub fn ids(&self, k: usize) -> CandidateIds<'_> {
        self.ids_in(0..k as u32)
    }

    /// The ids to evaluate when the index covers the representative range
    /// `range` (a shard's slice of the global id space): `All` yields the
    /// whole range; pruned candidates already carry global ids.
    pub fn ids_in(&self, range: Range<u32>) -> CandidateIds<'_> {
        CandidateIds(if self.all {
            IdsInner::Range(range)
        } else {
            IdsInner::Bits {
                words: &self.words,
                next: 0,
                current: 0,
                remaining: self.count(),
            }
        })
    }

    /// Number of candidates, given `k` total.
    pub fn len(&self, k: usize) -> usize {
        if self.all {
            k
        } else {
            self.count()
        }
    }

    fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// Iterator over candidate representative ids (see [`Candidates::ids`]).
#[derive(Debug, Clone)]
pub struct CandidateIds<'a>(IdsInner<'a>);

#[derive(Debug, Clone)]
enum IdsInner<'a> {
    /// Every id in the covered range (pruning was disabled).
    Range(Range<u32>),
    /// The set bits of a pruned candidate set, ascending.
    Bits {
        words: &'a [u64],
        /// Index of the next word to load.
        next: usize,
        /// Unvisited bits of the word before `next`.
        current: u64,
        /// Ids not yet yielded.
        remaining: usize,
    },
}

impl Iterator for CandidateIds<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        match &mut self.0 {
            IdsInner::Range(range) => range.next(),
            IdsInner::Bits {
                words,
                next,
                current,
                remaining,
            } => {
                while *current == 0 {
                    *current = *words.get(*next)?;
                    *next += 1;
                }
                let bit = current.trailing_zeros();
                *current &= *current - 1;
                *remaining = remaining.saturating_sub(1);
                Some((*next as u32 - 1) * 64 + bit)
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.0 {
            IdsInner::Range(range) => range.size_hint(),
            IdsInner::Bits { remaining, .. } => (*remaining, Some(*remaining)),
        }
    }
}

impl ExactSizeIterator for CandidateIds<'_> {}

/// Inverted index over the items of a model's representatives.
///
/// The index covers a contiguous *range* of the representatives (one
/// shard of a `ShardedEngine`, built with [`TagPathIndex::build_range`];
/// a one-shard engine's range is all of them). Postings always store
/// **global** representative ids, so shard-local candidate lists merge
/// into the global argmax without translation.
#[derive(Debug, Clone, Default)]
pub struct TagPathIndex {
    /// First global representative id covered (0 for a full index).
    base: u32,
    /// Number of representatives indexed.
    k: usize,
    /// Structure channel: tag label → representative ids (ascending).
    tag_postings: FxHashMap<Symbol, Vec<u32>>,
    /// Content channel: term → representative ids (ascending).
    term_postings: FxHashMap<Symbol, Vec<u32>>,
    /// Representatives holding an item with an empty TCU vector (they
    /// content-match any empty query TCU).
    empty_vector_reps: Vec<u32>,
    /// Representatives holding an item with an empty tag path (they
    /// structure-match any empty query tag path). Real corpora never
    /// produce these; kept for soundness on arbitrary representatives.
    empty_tag_path_reps: Vec<u32>,
    /// The parameters classification uses; `f` selects which channels can
    /// contribute and `γ = 0` disables pruning entirely.
    params: SimParams,
}

impl TagPathIndex {
    /// Builds the index over `reps`; `paths` must resolve every item's tag
    /// path, and `params` must be the parameters classification will use.
    pub fn build(reps: &[Representative], paths: &PathTable, params: SimParams) -> Self {
        Self::build_range(reps, paths, params, 0)
    }

    /// Builds the index over one shard's slice of the representatives:
    /// `reps` holds the shard's representatives and `base` is the global id
    /// of `reps[0]`, so postings carry ids `base..base + reps.len()`.
    pub fn build_range(
        reps: &[Representative],
        paths: &PathTable,
        params: SimParams,
        base: u32,
    ) -> Self {
        let mut tag_postings: FxHashMap<Symbol, Vec<u32>> = FxHashMap::default();
        let mut term_postings: FxHashMap<Symbol, Vec<u32>> = FxHashMap::default();
        let mut empty_vector_reps = Vec::new();
        let mut empty_tag_path_reps = Vec::new();

        for (j, rep) in reps.iter().enumerate() {
            let j = base + j as u32;
            let mut tags: FxHashSet<Symbol> = FxHashSet::default();
            let mut terms: FxHashSet<Symbol> = FxHashSet::default();
            let mut has_empty_vector = false;
            let mut has_empty_tag_path = false;
            for item in &rep.items {
                let labels = paths.resolve(item.tag_path);
                if labels.is_empty() {
                    has_empty_tag_path = true;
                }
                tags.extend(labels.iter().copied());
                if item.vector.is_empty() {
                    has_empty_vector = true;
                }
                terms.extend(item.vector.iter().map(|(t, _)| t));
            }
            for tag in tags {
                tag_postings.entry(tag).or_default().push(j);
            }
            for term in terms {
                term_postings.entry(term).or_default().push(j);
            }
            if has_empty_vector {
                empty_vector_reps.push(j);
            }
            if has_empty_tag_path {
                empty_tag_path_reps.push(j);
            }
        }
        // Postings are built in ascending j order already; assert in debug.
        debug_assert!(tag_postings
            .values()
            .all(|v| v.windows(2).all(|w| w[0] < w[1])));

        Self {
            base,
            k: reps.len(),
            tag_postings,
            term_postings,
            empty_vector_reps,
            empty_tag_path_reps,
            params,
        }
    }

    /// Number of representatives indexed.
    pub fn len(&self) -> usize {
        self.k
    }

    /// Whether the index covers no representatives.
    pub fn is_empty(&self) -> bool {
        self.k == 0
    }

    /// The global representative id range this index covers.
    pub fn covered(&self) -> Range<u32> {
        self.base..self.base + self.k as u32
    }

    /// Total posting entries (diagnostic, surfaced by `GET /stats`).
    pub fn posting_entries(&self) -> usize {
        self.tag_postings.values().map(Vec::len).sum::<usize>()
            + self.term_postings.values().map(Vec::len).sum::<usize>()
    }

    /// Estimated resident heap bytes of the postings (ids plus per-key
    /// `Vec` headers and the empty-item buckets). An estimate — hash-map
    /// bucket overhead is excluded — but a consistent one, so `GET /stats`
    /// and cxkbench's `index.postings_bytes` compare across layouts.
    pub fn postings_bytes(&self) -> usize {
        let id = std::mem::size_of::<u32>();
        let key = std::mem::size_of::<Symbol>() + std::mem::size_of::<Vec<u32>>();
        let keys = self.tag_postings.len() + self.term_postings.len();
        (self.posting_entries() + self.empty_vector_reps.len() + self.empty_tag_path_reps.len())
            * id
            + keys * key
    }

    /// Fills `out` with the candidate representatives for one query
    /// transaction. `paths` must resolve the query items' tag paths (the
    /// classifier's table, which extends the model's as unseen markup
    /// arrives).
    pub fn candidates<'a>(
        &self,
        query: impl IntoIterator<Item = ItemView<'a>>,
        paths: &PathTable,
        out: &mut Candidates,
    ) {
        if self.params.gamma <= 0.0 {
            // γ = 0 matches any pair: no sound pruning.
            out.set_all();
            return;
        }
        let structure = self.params.f > 0.0;
        let content = self.params.f < 1.0;

        out.reset(self.covered().end);
        let mut empty_query = true;
        for item in query {
            empty_query = false;
            if structure {
                let labels = paths.resolve(item.tag_path);
                if labels.is_empty() {
                    out.extend(&self.empty_tag_path_reps);
                }
                for label in labels {
                    if let Some(post) = self.tag_postings.get(label) {
                        out.extend(post);
                    }
                }
            }
            if content {
                if item.vector.is_empty() {
                    out.extend(&self.empty_vector_reps);
                }
                for (term, _) in item.vector.iter() {
                    if let Some(post) = self.term_postings.get(&term) {
                        out.extend(post);
                    }
                }
            }
        }
        if empty_query {
            // simγJ(∅, ∅) = 1: every representative may score.
            out.set_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxk_core::rep::RepItem;
    use cxk_text::SparseVec;
    use cxk_util::Interner;
    use cxk_xml::path::PathId;

    struct Fixture {
        paths: PathTable,
        path_ids: Vec<PathId>,
        vectors: Vec<SparseVec>,
    }

    /// Paths: 0 = dblp.article.title, 1 = dblp.inproceedings.title,
    /// 2 = play.act.scene, 3 = empty. Vectors: 0 = {t0,t1}, 1 = {t2},
    /// 2 = empty.
    fn fixture() -> Fixture {
        let mut interner = Interner::new();
        let mut paths = PathTable::new();
        let specs: [&[&str]; 4] = [
            &["dblp", "article", "title"],
            &["dblp", "inproceedings", "title"],
            &["play", "act", "scene"],
            &[],
        ];
        let path_ids = specs
            .iter()
            .map(|spec| {
                let labels: Vec<Symbol> = spec.iter().map(|t| interner.intern(t)).collect();
                paths.intern(&labels)
            })
            .collect();
        let vectors = vec![
            SparseVec::from_pairs(vec![(Symbol(0), 1.0), (Symbol(1), 1.0)]),
            SparseVec::from_pairs(vec![(Symbol(2), 1.0)]),
            SparseVec::new(),
        ];
        Fixture {
            paths,
            path_ids,
            vectors,
        }
    }

    fn rep(fx: &Fixture, path: usize, vector: usize, fp: u64) -> Representative {
        Representative {
            items: vec![RepItem {
                path: fx.path_ids[path],
                tag_path: fx.path_ids[path],
                vector: fx.vectors[vector].clone(),
                fingerprint: fp,
                source: None,
            }],
        }
    }

    /// The candidates of `query`: `None` when pruning is off, else the ids.
    fn listed(index: &TagPathIndex, query: &[ItemView<'_>], paths: &PathTable) -> Option<Vec<u32>> {
        let mut out = Candidates::new();
        index.candidates(query.iter().copied(), paths, &mut out);
        (!out.is_all()).then(|| out.ids_in(index.covered()).collect())
    }

    fn view<'a>(fx: &'a Fixture, path: usize, vector: usize, fp: u64) -> ItemView<'a> {
        ItemView {
            tag_path: fx.path_ids[path],
            vector: &fx.vectors[vector],
            fingerprint: fp,
        }
    }

    #[test]
    fn shared_tag_label_is_a_candidate() {
        let fx = fixture();
        let reps = vec![rep(&fx, 0, 0, 1), rep(&fx, 2, 1, 2)];
        let index = TagPathIndex::build(&reps, &fx.paths, SimParams::new(0.5, 0.8));
        // Query path dblp.inproceedings.title shares `dblp`/`title` with rep
        // 0 but nothing with rep 1 (play.act.scene, disjoint vector).
        let query = [view(&fx, 1, 1, 9)];
        // Vector 1 = {t2} matches rep 1's vector {t2} through the content
        // channel, so rep 1 *is* a candidate; drop content by querying with
        // the structure-only parameterization.
        let structure_only = TagPathIndex::build(&reps, &fx.paths, SimParams::new(1.0, 0.8));
        assert_eq!(listed(&structure_only, &query, &fx.paths), Some(vec![0]));
        assert_eq!(listed(&index, &query, &fx.paths), Some(vec![0, 1]));
    }

    #[test]
    fn disjoint_rep_is_pruned() {
        let fx = fixture();
        let reps = vec![rep(&fx, 0, 0, 1), rep(&fx, 2, 1, 2)];
        let index = TagPathIndex::build(&reps, &fx.paths, SimParams::new(0.5, 0.8));
        // Query shares tags and terms with rep 0 only.
        let query = [view(&fx, 0, 0, 9)];
        assert_eq!(listed(&index, &query, &fx.paths), Some(vec![0]));
    }

    #[test]
    fn gamma_zero_disables_pruning() {
        let fx = fixture();
        let reps = vec![rep(&fx, 0, 0, 1), rep(&fx, 2, 1, 2)];
        let index = TagPathIndex::build(&reps, &fx.paths, SimParams::new(0.5, 0.0));
        let query = [view(&fx, 0, 0, 9)];
        assert_eq!(listed(&index, &query, &fx.paths), None);
        let mut c = Candidates::new();
        index.candidates(query.iter().copied(), &fx.paths, &mut c);
        assert_eq!(c.ids(2).collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn range_index_posts_global_ids() {
        let fx = fixture();
        // Reps 2 and 3 of a hypothetical 4-rep model: a shard with base 2.
        let reps = vec![rep(&fx, 0, 0, 1), rep(&fx, 2, 1, 2)];
        let index = TagPathIndex::build_range(&reps, &fx.paths, SimParams::new(0.5, 0.8), 2);
        assert_eq!(index.covered(), 2..4);
        // Query matches the first shard rep (global id 2) only.
        let query = [view(&fx, 0, 0, 9)];
        assert_eq!(listed(&index, &query, &fx.paths), Some(vec![2]));
        // All-candidates fallbacks walk the shard's global range.
        let all = TagPathIndex::build_range(&reps, &fx.paths, SimParams::new(0.5, 0.0), 2);
        let mut c = Candidates::new();
        all.candidates(query.iter().copied(), &fx.paths, &mut c);
        assert!(c.is_all());
        assert_eq!(c.ids_in(all.covered()).collect::<Vec<_>>(), vec![2, 3]);
    }

    #[test]
    fn candidate_ids_iterate_without_allocating() {
        let mut all = Candidates::new();
        all.set_all();
        assert_eq!(all.ids(3).len(), 3);
        assert_eq!(all.ids(3).collect::<Vec<_>>(), vec![0, 1, 2]);
        let mut some = Candidates::new();
        some.reset(200);
        some.extend(&[130, 4, 1, 63, 64, 4]);
        assert_eq!(some.ids(200).len(), 5);
        assert_eq!(some.len(200), 5);
        assert_eq!(some.ids(200).collect::<Vec<_>>(), vec![1, 4, 63, 64, 130]);
        assert_eq!(
            some.ids_in(5..9).collect::<Vec<_>>(),
            vec![1, 4, 63, 64, 130]
        );
        // Refilling reuses the words and forgets the previous query.
        let words = some.words.as_ptr();
        some.reset(150);
        some.extend(&[7]);
        assert_eq!(some.ids(150).collect::<Vec<_>>(), vec![7]);
        assert_eq!(some.words.as_ptr(), words);
        some.reset(64);
        assert_eq!(some.ids(64).len(), 0);
    }

    #[test]
    fn empty_query_disables_pruning() {
        let fx = fixture();
        let reps = vec![rep(&fx, 0, 0, 1)];
        let index = TagPathIndex::build(&reps, &fx.paths, SimParams::new(0.5, 0.8));
        assert_eq!(listed(&index, &[], &fx.paths), None);
    }

    #[test]
    fn empty_vector_bucket_catches_content_matches() {
        let fx = fixture();
        // Rep 0 carries an empty vector: an empty query TCU has sim_C = 1
        // with it despite sharing no term.
        let reps = vec![rep(&fx, 2, 2, 1)];
        let index = TagPathIndex::build(&reps, &fx.paths, SimParams::new(0.0, 0.9));
        let query = [view(&fx, 0, 2, 9)];
        assert_eq!(listed(&index, &query, &fx.paths), Some(vec![0]));
    }

    #[test]
    fn structure_only_ignores_terms() {
        let fx = fixture();
        // f = 1: content cannot contribute, so a shared term alone must not
        // make a candidate.
        let reps = vec![rep(&fx, 2, 0, 1)];
        let index = TagPathIndex::build(&reps, &fx.paths, SimParams::new(1.0, 0.5));
        let query = [view(&fx, 0, 0, 9)]; // same vector, disjoint tags
        assert_eq!(listed(&index, &query, &fx.paths), Some(vec![]));
    }

    #[test]
    fn content_only_ignores_tags() {
        let fx = fixture();
        let reps = vec![rep(&fx, 0, 1, 1)];
        let index = TagPathIndex::build(&reps, &fx.paths, SimParams::new(0.0, 0.5));
        let query = [view(&fx, 1, 0, 9)]; // shared tags, disjoint vectors
        assert_eq!(listed(&index, &query, &fx.paths), Some(vec![]));
    }

    #[test]
    fn empty_tag_path_bucket() {
        let fx = fixture();
        let reps = vec![rep(&fx, 3, 1, 1)]; // empty tag path
        let index = TagPathIndex::build(&reps, &fx.paths, SimParams::new(1.0, 0.5));
        let query = [view(&fx, 3, 0, 9)];
        assert_eq!(listed(&index, &query, &fx.paths), Some(vec![0]));
    }

    #[test]
    fn diagnostics() {
        let fx = fixture();
        let reps = vec![rep(&fx, 0, 0, 1), rep(&fx, 1, 1, 2)];
        let index = TagPathIndex::build(&reps, &fx.paths, SimParams::default());
        assert_eq!(index.len(), 2);
        assert!(!index.is_empty());
        // Tags: dblp/article/title + dblp/inproceedings/title = 6 entries;
        // terms: t0, t1, t2 = 3 entries.
        assert_eq!(index.posting_entries(), 9);
        assert!(TagPathIndex::build(&[], &fx.paths, SimParams::default()).is_empty());
    }
}
