//! The per-worker mutable half of classification: what a query needs
//! besides the epoch's shared, immutable engine.
//!
//! A `QuerySession` reads a document through the training pipeline
//! (`cxk_transact::pipeline`) with frozen statistics: the model's
//! vocabulary is borrowed, never copied, and a term it does not hold is
//! dropped at preprocessing (it has `n_{j,T} = 0` and would weigh 0).
//! Unseen tags and paths are interned into the session's own copies of the
//! model's label interner and path table; they only ever exact-match
//! themselves, so they cannot affect similarities, and they extend the
//! session's tag-path similarity table. The scoring buffers are reused
//! across tuples and requests, so a warm session prepares, prunes and
//! scores without allocating.
//!
//! Every session in the crate is one of these: a `Classifier` over its
//! engine, a `RemoteClassifier` for extraction, and each connection of a
//! `ShardDaemon` for the tuples shipped to it.

use crate::index::{Candidates, TagPathIndex};
use crate::remote::WireTuple;
use cxk_core::rep::RepItem;
use cxk_core::TrainedModel;
use cxk_text::SparseVec;
use cxk_transact::item::{item_fingerprint, ItemId, ItemView};
use cxk_transact::txsim::{
    argmax_prepared, sim_gamma_j_prepared, PreparedSlab, PreparedTx, ScoreScratch,
};
use cxk_transact::{DocumentPipeline, ItemWeights, SimCtx, SimParams, TagPathSimTable, Terms};
use cxk_util::{FxHashMap, FxHashSet, Interner, Symbol};
use cxk_xml::parser::XmlError;
use cxk_xml::path::{PathId, PathTable};
use std::ops::Range;

/// A session's structural-similarity table over the model's
/// representative tag paths plus the query paths seen so far.
///
/// The representative paths ([`TrainedModel::rep_tag_paths`]) always hold
/// ranks `0..B`, in that order, and query paths are appended after them:
/// the epoch's prepared representatives ([`TrainedModel::prepare_reps`])
/// rank their tag paths the same way, so they stay valid however the
/// table grows or resets. The table is dense (`P²` cells, `O(P²·d²)` to
/// rebuild), so a stream of documents with ever-fresh markup must not grow
/// it without bound: past the cap it restarts from the representatives'
/// paths plus the current request's.
#[derive(Debug)]
pub(crate) struct SessionTagSim {
    table: TagPathSimTable,
    /// The representatives' tag paths, sorted: ranks `0..B`.
    base: Vec<PathId>,
    /// Tag paths the table covers (base + query paths since the last
    /// reset).
    known: FxHashSet<PathId>,
    /// Cap on `known`.
    pub(crate) cap: usize,
}

impl SessionTagSim {
    /// The table over `model`'s representative tag paths.
    fn new(model: &TrainedModel) -> Self {
        let base = model.rep_tag_paths();
        Self {
            table: TagPathSimTable::build(&base, &model.paths),
            known: base.iter().copied().collect(),
            cap: (base.len() * 4).max(1024),
            base,
        }
    }

    /// Makes the table cover `request` (the tag paths of the request about
    /// to be scored), rebuilding it over every observed path — the base
    /// first, then the query paths in id order — when one is new. Past the
    /// cap the cache first resets to the base plus `request`; evicted
    /// paths re-enter on their next appearance, and scores are unaffected
    /// because the table always covers rep × query pairs.
    fn cover(&mut self, paths: &PathTable, request: impl Iterator<Item = PathId> + Clone) {
        let mut fresh = false;
        for path in request.clone() {
            fresh |= self.known.insert(path);
        }
        if !fresh {
            return;
        }
        if self.known.len() > self.cap {
            self.known = self.base.iter().copied().collect();
            self.known.extend(request);
        }
        let mut queried: Vec<PathId> = self
            .known
            .iter()
            .copied()
            .filter(|p| self.base.binary_search(p).is_err())
            .collect();
        queried.sort_unstable();
        let mut all = Vec::with_capacity(self.base.len() + queried.len());
        all.extend_from_slice(&self.base);
        all.extend(queried);
        self.table = TagPathSimTable::build(&all, paths);
    }

    /// Paths currently covered (diagnostics).
    #[cfg(test)]
    pub(crate) fn known(&self) -> usize {
        self.known.len()
    }
}

/// One parsed query document's transactions, plus whether the tree-tuple
/// cap truncated the enumeration — every classify strategy carries the
/// flag through to `DocumentAssignment::capped`.
pub(crate) struct QueryTuples {
    /// Per tree tuple, the deduplicated weighted items.
    pub transactions: Vec<Vec<RepItem>>,
    /// The document exceeded `TupleLimits::max_tuples_per_tree`.
    pub capped: bool,
}

/// A worker's mutable classification state over one model: copies of the
/// model's label interner and path table, grown by unseen markup, the
/// tag-path similarity table, and the scoring buffers (see the module
/// docs). Built from a model it never mutates, so any number of sessions
/// share one model and one engine across threads.
#[derive(Debug)]
pub struct QuerySession {
    /// Copy of the model's label interner (grows with unseen tags).
    labels: Interner,
    /// Copy of the model's path table (grows with unseen paths).
    paths: PathTable,
    /// `sim_S` over the representatives' and the queries' tag paths.
    pub(crate) tag_sim: SessionTagSim,
    /// The prepared query tuple.
    query: PreparedSlab,
    scratch: ScoreScratch,
    candidates: Candidates,
}

impl QuerySession {
    /// A fresh session over `model`.
    pub(crate) fn new(model: &TrainedModel) -> Self {
        Self {
            labels: model.labels.clone(),
            paths: model.paths.clone(),
            tag_sim: SessionTagSim::new(model),
            query: PreparedSlab::new(),
            scratch: ScoreScratch::default(),
            candidates: Candidates::new(),
        }
    }

    /// The session's path table (the model's, extended by query markup).
    pub(crate) fn paths(&self) -> &PathTable {
        &self.paths
    }

    /// Reads `xml` through the document pipeline and produces its query
    /// transactions: per tree tuple, the deduplicated items weighted
    /// against `model`'s frozen `term_stats` — the document does not join
    /// them — each averaged over its occurrences in this document.
    pub(crate) fn extract(
        &mut self,
        model: &TrainedModel,
        xml: &str,
    ) -> Result<QueryTuples, XmlError> {
        let doc = DocumentPipeline {
            options: &model.build,
            labels: &mut self.labels,
            paths: &mut self.paths,
            terms: Terms::Frozen(&model.vocabulary),
        }
        .parse(xml)?;
        self.tag_sim
            .cover(&self.paths, doc.leaves().iter().map(|l| l.tag_path));

        let mut domain: FxHashMap<(PathId, Box<str>), ItemId> = FxHashMap::default();
        let mut items: Vec<RepItem> = Vec::new();
        let mut weights = ItemWeights::default();
        let tuples = doc.weigh(&model.term_stats, &mut weights, |leaf| {
            *domain.entry(leaf.key()).or_insert_with(|| {
                items.push(RepItem {
                    path: leaf.path,
                    tag_path: leaf.tag_path,
                    vector: SparseVec::new(),
                    fingerprint: item_fingerprint(leaf.path, &leaf.raw),
                    source: None,
                });
                ItemId(items.len() as u32 - 1)
            })
        });
        for (item, vector) in items.iter_mut().zip(weights.into_vectors()) {
            item.vector = vector;
        }

        let transactions = tuples
            .into_iter()
            .map(|ids| {
                // Transactions are item *sets*: deduplicate repeated items.
                let mut seen: FxHashSet<ItemId> = FxHashSet::default();
                ids.into_iter()
                    .filter(|&id| seen.insert(id))
                    .filter_map(|id| items.get(id.index()).cloned())
                    .collect()
            })
            .collect();
        Ok(QueryTuples {
            transactions,
            capped: doc.capped(),
        })
    }

    /// The shard daemon's counterpart of [`Self::extract`]: the shipped
    /// tuples as `(tag path, vector, fingerprint)` items, each tag path
    /// interned from the frontend's label symbols and each vector rebuilt
    /// bit-for-bit from its raw pairs.
    pub(crate) fn decode(&mut self, tuples: &[WireTuple]) -> Vec<Vec<(PathId, SparseVec, u64)>> {
        let decoded: Vec<Vec<(PathId, SparseVec, u64)>> = tuples
            .iter()
            .map(|tuple| {
                tuple
                    .items
                    .iter()
                    .map(|item| {
                        let labels: Vec<Symbol> =
                            item.tag_path.iter().map(|&raw| Symbol(raw)).collect();
                        let pairs = item
                            .terms
                            .iter()
                            .map(|&(term, bits)| (Symbol(term), f64::from_bits(bits)))
                            .collect();
                        let vector = SparseVec::from_pairs(pairs);
                        (self.paths.intern(&labels), vector, item.fingerprint)
                    })
                    .collect()
            })
            .collect();
        self.tag_sim
            .cover(&self.paths, decoded.iter().flatten().map(|item| item.0));
        decoded
    }

    /// Prepares `tuple` as the query the next scores use, ranking its tag
    /// paths in the session's table (whose ranks agree with the prepared
    /// representatives').
    pub(crate) fn prepare(&mut self, tuple: &[ItemView<'_>]) {
        self.query.clear();
        self.query.push(&self.tag_sim.table, tuple.iter().copied());
    }

    /// Scores the prepared `tuple` against the candidates `index` yields
    /// for it (every id of `range`, the range `index` covers, when `index`
    /// is `None`): the winner, its similarity and the number of
    /// representatives scored.
    pub(crate) fn argmax_in(
        &mut self,
        params: SimParams,
        reps: &PreparedSlab,
        tuple: &[ItemView<'_>],
        index: Option<&TagPathIndex>,
        range: Range<u32>,
        trash: u32,
    ) -> (u32, f64, usize) {
        match index {
            Some(index) => {
                index.candidates(tuple.iter().copied(), &self.paths, &mut self.candidates)
            }
            None => self.candidates.set_all(),
        }
        let scored = self.candidates.len(range.len());
        let ctx = SimCtx::new(&self.tag_sim.table, params);
        let (id, sim) = match self.query.get(0) {
            Some(query) => argmax_prepared(
                &ctx,
                query,
                reps,
                self.candidates.ids_in(range),
                trash,
                &mut self.scratch,
            ),
            None => (trash, 0.0),
        };
        (id, sim, scored)
    }

    /// [`argmax_prepared`] of the prepared tuple over explicit ascending
    /// `ids`.
    pub(crate) fn argmax(
        &mut self,
        params: SimParams,
        reps: &PreparedSlab,
        ids: impl Iterator<Item = u32>,
        trash: u32,
    ) -> (u32, f64) {
        let ctx = SimCtx::new(&self.tag_sim.table, params);
        match self.query.get(0) {
            Some(query) => argmax_prepared(&ctx, query, reps, ids, trash, &mut self.scratch),
            None => (trash, 0.0),
        }
    }

    /// `simγJ` of the prepared tuple against one prepared representative.
    pub(crate) fn score(&mut self, params: SimParams, rep: PreparedTx<'_>) -> f64 {
        let ctx = SimCtx::new(&self.tag_sim.table, params);
        match self.query.get(0) {
            Some(query) => sim_gamma_j_prepared(&ctx, query, rep, &mut self.scratch),
            None => 0.0,
        }
    }
}
