//! The per-worker mutable half of classification: what a query needs
//! besides the epoch's shared, immutable engine.
//!
//! A `QuerySession` reads a document through the training pipeline
//! (`cxk_transact::pipeline`) with frozen statistics: the model's
//! vocabulary is borrowed, never copied, and a term it does not hold is
//! dropped at preprocessing (it has `n_{j,T} = 0` and would weigh 0).
//! Unseen tags and paths are interned into the session's own copies of the
//! model's label interner and path table; they only ever exact-match
//! themselves, so they cannot affect similarities, and the session forgets
//! them when the next request starts: both tables are cut back to the
//! model's length, and the `sim_S` table to its base, since the forgotten
//! ids are handed out again. A client that keeps sending fresh markup
//! therefore never grows a worker past one request's worth. Both tables are
//! arena-backed (`cxk_util::ArenaTable`), so each copy is three buffer
//! copies however many labels and paths the model holds, and dropping a
//! session frees three buffers per table. The scoring buffers are reused
//! across tuples and requests, so a warm session prepares, prunes and
//! scores without allocating.
//!
//! The `sim_S` table starts as a clone of the engine's, built once per
//! epoch over the representatives' `B` tag paths. Before a query is
//! scored it appends the query's missing tag paths, one row each, and no
//! rank moves; past `(B·4).max(1024)` paths it first truncates to `B`.
//!
//! Reading a document reuses the session's buffers too: the SAX reader's
//! and extractor's (`cxk_xml::sax::SaxScratch`), the parsed document's,
//! the preprocessor's with its token memo (`cxk_text::Preprocessor`: raw
//! token → stopword or model symbol, admitting only tokens whose stem the
//! vocabulary holds, up to a fixed cap), the weighing buffers
//! (`ItemWeights`), the items keyed by `(path, answer)` (`ItemKeys`), one
//! item arena whose vectors are reused, and per-tuple item lists
//! deduplicated through a reused marker. They live for one epoch's
//! requests and drop with the session, so a hot swap starts cold; none is
//! sized by the vocabulary up front. A warm session therefore turns a
//! document no larger than earlier ones into weighted query tuples
//! without allocating per token, tag, text run, leaf or item
//! (`tests/session_alloc.rs` pins a warm classify's count).
//!
//! Every session in the crate is one of these, inside a `Classifier` over
//! its engine; each connection of a `ShardDaemon` holds one over the
//! one-shard engine for its range.

use crate::index::{Candidates, TagPathIndex};
use cxk_core::rep::RepItem;
use cxk_core::TrainedModel;
use cxk_text::SparseVec;
use cxk_transact::item::{item_fingerprint, ItemId, ItemView};
use cxk_transact::txsim::{
    argmax_prepared, sim_gamma_j_prepared, PreparedSlab, PreparedTx, ScoreScratch,
};
use cxk_transact::{
    DocumentPipeline, ExactMatch, ItemKeys, ItemWeights, ParsedDocument, ReadScratch, SimCtx,
    SimParams, TagPathSimTable, Terms,
};
use cxk_util::Interner;
use cxk_xml::parser::XmlError;
use cxk_xml::path::{PathId, PathTable};
use std::ops::Range;

/// One parsed query document's transactions — per tree tuple, its
/// distinct weighted items — plus whether the tree-tuple cap truncated the
/// enumeration, which every classify strategy carries through to
/// `DocumentAssignment::capped`.
///
/// The buffers belong to the session: [`QuerySession::extract`] lends them
/// out and [`QuerySession::recycle`] takes them back, so the items'
/// vectors and the tuple lists are reused from request to request.
#[derive(Debug, Default)]
pub(crate) struct QueryTuples {
    items: ItemArena,
    tuples: TupleLists,
    /// The document exceeded `TupleLimits::max_tuples_per_tree`.
    pub capped: bool,
}

/// The document's distinct items in first-seen order: `items[..len]` are
/// this document's, the rest are kept for their vectors' buffers.
#[derive(Debug, Default)]
struct ItemArena {
    items: Vec<RepItem>,
    len: usize,
}

impl ItemArena {
    /// The document's items.
    fn live(&self) -> &[RepItem] {
        &self.items[..self.len]
    }

    /// Appends the document's next item; its vector is filled later.
    fn push(&mut self, path: PathId, tag_path: PathId, fingerprint: u64) {
        match self.items.get_mut(self.len) {
            Some(item) => {
                item.path = path;
                item.tag_path = tag_path;
                item.fingerprint = fingerprint;
                item.source = None;
            }
            None => self.items.push(RepItem {
                path,
                tag_path,
                vector: SparseVec::new(),
                fingerprint,
                source: None,
            }),
        }
        self.len += 1;
    }
}

/// Each tuple's distinct items, as indices into the [`ItemArena`].
#[derive(Debug, Default)]
struct TupleLists {
    /// Every tuple's items, back to back.
    members: Vec<u32>,
    /// Where each tuple ends in `members`.
    ends: Vec<usize>,
    /// Per item, the last tuple (counted from 1) it joined: transactions
    /// are item *sets*, so a repeated item joins a tuple once.
    seen: Vec<u32>,
}

impl TupleLists {
    /// Appends a tuple of `ids`, each item once, in first-occurrence order.
    fn push(&mut self, ids: &[ItemId]) {
        let stamp = self.ends.len() as u32 + 1;
        for id in ids {
            let i = id.index();
            if self.seen.len() <= i {
                self.seen.resize(i + 1, 0);
            }
            if self.seen[i] != stamp {
                self.seen[i] = stamp;
                self.members.push(id.0);
            }
        }
        self.ends.push(self.members.len());
    }
}

impl QueryTuples {
    /// The tag paths of the document's items.
    pub fn tag_paths(&self) -> impl Iterator<Item = PathId> + Clone + '_ {
        self.items.live().iter().map(|item| item.tag_path)
    }

    /// The tuples' items, tuple by tuple.
    pub fn tuples(&self) -> impl Iterator<Item = impl Iterator<Item = &RepItem> + '_> + '_ {
        let items = self.items.live();
        let mut start = 0;
        self.tuples.ends.iter().map(move |&end| {
            let members = &self.tuples.members[start..end];
            start = end;
            members.iter().filter_map(|&i| items.get(i as usize))
        })
    }

    /// Forgets the last document, keeping the buffers.
    fn clear(&mut self) {
        self.items.len = 0;
        self.tuples.members.clear();
        self.tuples.ends.clear();
        self.tuples.seen.clear();
        self.capped = false;
    }
}

/// A worker's mutable classification state over one model: copies of the
/// model's label interner and path table, grown by unseen markup, its
/// engine's tag-path similarity table extended with query paths, the
/// reading buffers (with the token memo) and the scoring buffers (see the
/// module docs). Built from a model and a table it never mutates, so any
/// number of sessions share one model and one engine across threads.
#[derive(Debug)]
pub struct QuerySession {
    /// Copy of the model's label interner (grows with one request's
    /// unseen tags).
    labels: Interner,
    /// Copy of the model's path table (grows with one request's unseen
    /// paths).
    paths: PathTable,
    /// The model's label and path counts, which `labels` and `paths` are
    /// cut back to when a request starts.
    known: (usize, usize),
    /// `sim_S` over the representatives' tag paths (ranks `0..base`) and
    /// the query paths appended since the last truncation.
    tag_sim: TagPathSimTable,
    /// The length `B` of the engine's table.
    base: usize,
    /// Cap on `tag_sim`'s length.
    pub(crate) cap: usize,
    /// The SAX, preprocessing and token-memo buffers.
    reading: ReadScratch,
    /// The last document read.
    doc: ParsedDocument,
    /// The last document's item sums, and the weighing buffers.
    weights: ItemWeights,
    /// The last document's items by `(path, answer)`.
    item_keys: ItemKeys,
    /// The query tuples' buffers, while not lent out.
    tuples: QueryTuples,
    /// The prepared query tuple.
    query: PreparedSlab,
    scratch: ScoreScratch,
    candidates: Candidates,
}

impl QuerySession {
    /// A fresh session over `model`, its `sim_S` table a clone of `base`
    /// (the engine's table over the representatives' tag paths). Its
    /// reading buffers start empty —
    /// nothing is sized by the vocabulary — and fill with the first
    /// requests.
    pub(crate) fn new(model: &TrainedModel, base: &TagPathSimTable) -> Self {
        Self {
            labels: model.labels.clone(),
            paths: model.paths.clone(),
            known: (model.labels.len(), model.paths.len()),
            tag_sim: base.clone(),
            base: base.len(),
            cap: (base.len() * 4).max(1024),
            reading: ReadScratch::default(),
            doc: ParsedDocument::default(),
            weights: ItemWeights::default(),
            item_keys: ItemKeys::default(),
            tuples: QueryTuples::default(),
            query: PreparedSlab::new(),
            scratch: ScoreScratch::default(),
            candidates: Candidates::new(),
        }
    }

    /// The reading buffers (diagnostics).
    #[cfg(test)]
    pub(crate) fn reading(&self) -> &ReadScratch {
        &self.reading
    }

    /// The session's label and path counts (diagnostics).
    #[cfg(test)]
    pub(crate) fn table_lens(&self) -> (usize, usize) {
        (self.labels.len(), self.paths.len())
    }

    /// The session's `sim_S` table (diagnostics).
    #[cfg(test)]
    pub(crate) fn tag_sim(&self) -> &TagPathSimTable {
        &self.tag_sim
    }

    /// Makes the `sim_S` table cover `request`, the tag paths of the query
    /// about to be scored, by appending the ones it lacks. When that would
    /// pass the cap, the table first truncates to the base: dropped paths
    /// re-enter on their next appearance, and scores are unaffected
    /// because the table always covers representative × query pairs.
    pub(crate) fn cover(&mut self, request: impl Iterator<Item = PathId> + Clone) {
        let fresh = request
            .clone()
            .filter(|&path| self.tag_sim.rank_of(path).is_none())
            .count();
        if fresh == 0 {
            return;
        }
        if self.tag_sim.len() + fresh > self.cap {
            self.tag_sim.truncate(self.base);
        }
        self.tag_sim.extend(request, &self.paths, &ExactMatch);
    }

    /// Forgets the labels and paths the last request added to the model's.
    /// Their ids are handed out again, so their `sim_S` rows go too.
    fn forget_unseen(&mut self) {
        let (labels, paths) = self.known;
        if self.labels.len() > labels || self.paths.len() > paths {
            self.labels.truncate(labels);
            self.paths.truncate(paths);
            self.tag_sim.truncate(self.base);
        }
    }

    /// Reads `xml` through the document pipeline and produces its query
    /// transactions: per tree tuple, the deduplicated items weighted
    /// against `model`'s frozen `term_stats` — the document does not join
    /// them — each averaged over its occurrences in this document. The
    /// tuples' buffers are the session's: hand them back with
    /// [`Self::recycle`].
    pub(crate) fn extract(
        &mut self,
        model: &TrainedModel,
        xml: &str,
    ) -> Result<QueryTuples, XmlError> {
        self.forget_unseen();
        DocumentPipeline {
            options: &model.build,
            labels: &mut self.labels,
            paths: &mut self.paths,
            terms: Terms::Frozen(&model.vocabulary),
        }
        .parse_into(xml, &mut self.reading, &mut self.doc)?;
        let doc = &self.doc;

        let mut query = std::mem::take(&mut self.tuples);
        query.clear();
        self.item_keys.clear();
        self.weights.reset(ItemId(0));
        let keys = &mut self.item_keys;
        doc.weigh_each(
            &model.term_stats,
            &mut self.weights,
            |leaf| {
                let (id, new) = keys.id(leaf.path, leaf.raw);
                if new {
                    let fingerprint = item_fingerprint(leaf.path, leaf.raw);
                    query.items.push(leaf.path, leaf.tag_path, fingerprint);
                }
                id
            },
            |ids| query.tuples.push(ids),
        );
        let live = query.items.len;
        for (i, item) in query.items.items[..live].iter_mut().enumerate() {
            self.weights.vector_into(ItemId(i as u32), &mut item.vector);
        }
        query.capped = doc.capped();
        Ok(query)
    }

    /// Takes back the buffers [`Self::extract`] lent out.
    pub(crate) fn recycle(&mut self, tuples: QueryTuples) {
        self.tuples = tuples;
    }

    /// Prepares `tuple` as the query the next scores use, ranking its tag
    /// paths in the session's table (an extension of the table the
    /// representatives were prepared against, so their ranks agree).
    pub(crate) fn prepare(&mut self, tuple: &[ItemView<'_>]) {
        self.query.clear();
        self.query.push(&self.tag_sim, tuple.iter().copied());
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
        let ctx = SimCtx::new(&self.tag_sim, params);
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
        let ctx = SimCtx::new(&self.tag_sim, params);
        match self.query.get(0) {
            Some(query) => argmax_prepared(&ctx, query, reps, ids, trash, &mut self.scratch),
            None => (trash, 0.0),
        }
    }

    /// `simγJ` of the prepared tuple against one prepared representative.
    pub(crate) fn score(&mut self, params: SimParams, rep: PreparedTx<'_>) -> f64 {
        let ctx = SimCtx::new(&self.tag_sim, params);
        match self.query.get(0) {
            Some(query) => sim_gamma_j_prepared(&ctx, query, rep, &mut self.scratch),
            None => 0.0,
        }
    }
}
