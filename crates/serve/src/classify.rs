//! Online classification of XML documents against a trained model.
//!
//! Classification reads the incoming document through the training
//! pipeline (`cxk_transact::pipeline`, no DOM) with **frozen corpus
//! statistics**: every TCU is weighted with `ttf.itf` against the training
//! collection's `N_T` / `n_{j,T}` — the document does *not* join the
//! collection, so classification is read-only with respect to the model's
//! statistics and any arrival order of requests yields identical scores —
//! and an item's weight averages its occurrences in this one document.
//! (Unseen terms get `n_{j,T} = 0` and weight 0; unseen tags only ever
//! exact-match themselves, so the symbols they intern into the session's
//! private interners cannot affect similarities either.)
//!
//! The state splits along the sharing boundary the serving layer needs:
//!
//! * `QuerySession` (crate-private) is the **per-worker mutable** half —
//!   private copies of the model's interners and path table (parsing
//!   interns unseen markup), the lazily extended tag-path similarity
//!   table, and the worker's scoring buffers. It is cheap relative to the
//!   model: no representatives, no postings.
//! * The [`TrainedModel`], its representatives prepared for the `simγJ`
//!   kernel ([`TrainedModel::prepare_reps`]) and any index built over them
//!   are **immutable** once published, so they can sit behind an `Arc` and
//!   be shared by every worker — the memory model every serving engine
//!   (`crate::shard`, `crate::tree`) is built on.
//!
//! Each tree tuple is assigned by the paper's relocation rule — argmax of
//! `simγJ` over the representatives, trash when every similarity is zero
//! (`argmax_prepared`, the rule training uses) — and the document
//! aggregates its tuples by summed similarity per cluster.
//! [`Classifier`] is the standalone classifier (`cxk classify`, and the
//! reference the serving engines are tested against):
//! [`Classifier::classify`] consults its own index first;
//! [`Classifier::classify_brute`] scores every representative. The two are
//! guaranteed to agree exactly (see the `index` module docs), and the
//! sharded scatter/gather path ([`crate::shard::ShardedClassifier`])
//! agrees with both (see the `shard` module docs). [`ClassifyEngine`] is
//! the seam server workers hold: one enum over the serving layouts'
//! per-worker sessions with a single classify surface.

use crate::index::{Candidates, TagPathIndex};
use crate::remote::RemoteClassifier;
use crate::shard::ShardedClassifier;
use crate::slot::{EpochEngine, EpochModel};
use crate::tree::TreeClassifier;
use cxk_core::rep::RepItem;
use cxk_core::TrainedModel;
use cxk_p2p::NetworkError;
use cxk_text::{SparseVec, TermStatsBuilder};
use cxk_transact::item::{item_fingerprint, ItemId, ItemView};
use cxk_transact::txsim::{
    argmax_prepared, sim_gamma_j_prepared, PreparedSlab, PreparedTx, ScoreScratch,
};
use cxk_transact::{DocumentPipeline, ItemWeights, SimCtx, SimParams, TagPathSimTable};
use cxk_util::{FxHashMap, FxHashSet, Interner};
use cxk_xml::parser::XmlError;
use cxk_xml::path::{PathId, PathTable};
use std::ops::Range;
use std::sync::Arc;

/// Assignment of one tree tuple (transaction) of the document.
#[derive(Debug, Clone, PartialEq)]
pub struct TupleAssignment {
    /// Cluster id; `k` is the trash cluster.
    pub cluster: u32,
    /// `simγJ` against the winning representative (0 for trash).
    pub similarity: f64,
    /// Representatives actually scored (≤ `k`; the index pruned the rest).
    pub candidates: usize,
}

/// Document-level assignment: the aggregate over the document's tuples.
#[derive(Debug, Clone, PartialEq)]
pub struct DocumentAssignment {
    /// Winning cluster id; `k` (trash) when no tuple γ-matched anything.
    pub cluster: u32,
    /// Summed `simγJ` of the tuples assigned to the winning cluster.
    pub score: f64,
    /// Per-tuple assignments, in tree-tuple extraction order.
    pub tuples: Vec<TupleAssignment>,
    /// Whether tuple enumeration hit the per-tree cap
    /// (`TupleLimits::max_tuples_per_tree`): the document was scored on a
    /// truncated tuple set, so the assignment is a best-effort answer.
    pub capped: bool,
}

/// A classification failure, as surfaced through [`ClassifyEngine`].
///
/// The in-process strategies only ever fail to parse; the remote strategy
/// adds the network: a shard's whole replica set timing out or hanging up
/// ([`ClassifyError::Network`] — a [`NetworkError::Timeout`] stays typed
/// so callers can distinguish deadline misses from hangups), or a daemon
/// answering with a protocol/configuration error such as a model-digest
/// mismatch ([`ClassifyError::Remote`]).
#[derive(Debug)]
pub enum ClassifyError {
    /// The document failed to parse.
    Xml(XmlError),
    /// A remote shard could not be reached within the failover budget.
    Network(NetworkError),
    /// A remote shard answered, but with a protocol or configuration
    /// error.
    Remote(String),
}

impl std::fmt::Display for ClassifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClassifyError::Xml(e) => write!(f, "{e}"),
            ClassifyError::Network(e) => write!(f, "remote shard unavailable: {e}"),
            ClassifyError::Remote(message) => write!(f, "remote shard error: {message}"),
        }
    }
}

impl std::error::Error for ClassifyError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClassifyError::Xml(e) => Some(e),
            ClassifyError::Network(e) => Some(e),
            ClassifyError::Remote(_) => None,
        }
    }
}

impl From<XmlError> for ClassifyError {
    fn from(e: XmlError) -> Self {
        ClassifyError::Xml(e)
    }
}

impl From<NetworkError> for ClassifyError {
    fn from(e: NetworkError) -> Self {
        ClassifyError::Network(e)
    }
}

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
    pub(crate) fn new(model: &TrainedModel) -> Self {
        let base = model.rep_tag_paths();
        Self {
            table: TagPathSimTable::build(&base, &model.paths),
            known: base.iter().copied().collect(),
            cap: (base.len() * 4).max(1024),
            base,
        }
    }

    /// The current table.
    pub(crate) fn table(&self) -> &TagPathSimTable {
        &self.table
    }

    /// Records a query tag path; `true` when the table does not cover it
    /// yet (call [`SessionTagSim::rebuild`] before scoring).
    pub(crate) fn observe(&mut self, path: PathId) -> bool {
        self.known.insert(path)
    }

    /// Rebuilds the table over every observed path: the base first, then
    /// the query paths in id order. Past the cap the cache first resets to
    /// the base plus `request` (the paths of the request being scored);
    /// evicted paths re-enter on their next appearance, and scores are
    /// unaffected because the table always covers rep × query pairs.
    pub(crate) fn rebuild(&mut self, paths: &PathTable, request: impl IntoIterator<Item = PathId>) {
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

/// Per-worker scoring buffers, reused across tuples and requests: the
/// prepared query tuple, the kernel's scratch and the candidate set. A
/// warm worker prepares, prunes and scores without allocating.
#[derive(Debug, Default)]
pub(crate) struct Scorer {
    query: PreparedSlab,
    scratch: ScoreScratch,
    candidates: Candidates,
}

impl Scorer {
    /// Prepares one query tuple, ranking its tag paths in `tag_sim` (the
    /// session's table, whose ranks agree with the prepared
    /// representatives').
    pub(crate) fn prepare<'a>(
        &mut self,
        tag_sim: &TagPathSimTable,
        items: impl IntoIterator<Item = ItemView<'a>>,
    ) {
        self.query.clear();
        self.query.push(tag_sim, items);
    }

    /// Collects the prepared tuple's candidates under `index`, or every
    /// representative when `index` is `None` (brute force). `items` are the
    /// tuple's items again and `paths` resolves their tag paths.
    pub(crate) fn select<'a>(
        &mut self,
        index: Option<&TagPathIndex>,
        items: impl IntoIterator<Item = ItemView<'a>>,
        paths: &PathTable,
    ) {
        match index {
            Some(index) => index.candidates(items, paths, &mut self.candidates),
            None => self.candidates.set_all(),
        }
    }

    /// [`argmax_prepared`] over the selected candidates within `range` (the
    /// range the selecting index covers); also returns how many were
    /// scored.
    pub(crate) fn argmax_selected(
        &mut self,
        ctx: &SimCtx<'_>,
        reps: &PreparedSlab,
        range: Range<u32>,
        trash: u32,
    ) -> (u32, f64, usize) {
        let scored = self.candidates.len(range.len());
        let Some(query) = self.query.get(0) else {
            return (trash, 0.0, scored);
        };
        let ids = self.candidates.ids_in(range);
        let (id, sim) = argmax_prepared(ctx, query, reps, ids, trash, &mut self.scratch);
        (id, sim, scored)
    }

    /// [`argmax_prepared`] over explicit ascending `ids`.
    pub(crate) fn argmax(
        &mut self,
        ctx: &SimCtx<'_>,
        reps: &PreparedSlab,
        ids: impl Iterator<Item = u32>,
        trash: u32,
    ) -> (u32, f64) {
        match self.query.get(0) {
            Some(query) => argmax_prepared(ctx, query, reps, ids, trash, &mut self.scratch),
            None => (trash, 0.0),
        }
    }

    /// `simγJ` of the prepared tuple against one prepared representative.
    pub(crate) fn score(&mut self, ctx: &SimCtx<'_>, rep: PreparedTx<'_>) -> f64 {
        match self.query.get(0) {
            Some(query) => sim_gamma_j_prepared(ctx, query, rep, &mut self.scratch),
            None => 0.0,
        }
    }
}

/// The per-worker mutable half of a classification session: private
/// interner copies plus the derived structural-similarity table, extended
/// lazily as unseen markup arrives (exactly like the streaming clusterer),
/// and the worker's scoring buffers.
///
/// A session is built from (a shared reference to) a model and never
/// touches it again — every mutation lands in the session's own copies, so
/// any number of sessions can share one `Arc<TrainedModel>`, one
/// immutable index and one prepared representative slab across threads.
#[derive(Debug)]
pub(crate) struct QuerySession {
    /// Copy of the model's label interner (grows with unseen tags).
    labels: Interner,
    /// Copy of the model's term vocabulary (grows with unseen terms).
    vocabulary: Interner,
    /// Copy of the model's path table (grows with unseen paths).
    paths: PathTable,
    /// Preprocessing options frozen at training time.
    build: cxk_transact::BuildOptions,
    /// `sim_S` over the representatives' and the queries' tag paths.
    pub(crate) tag_sim: SessionTagSim,
    scorer: Scorer,
}

impl QuerySession {
    /// Builds the session's private derived state from `model`.
    pub(crate) fn new(model: &TrainedModel) -> Self {
        Self {
            labels: model.labels.clone(),
            vocabulary: model.vocabulary.clone(),
            paths: model.paths.clone(),
            build: model.build.clone(),
            tag_sim: SessionTagSim::new(model),
            scorer: Scorer::default(),
        }
    }

    /// The session's path table (the model's, extended by query markup).
    pub(crate) fn paths(&self) -> &PathTable {
        &self.paths
    }

    /// Prepares `tuple` as the query the next scores use.
    pub(crate) fn prepare(&mut self, tuple: &[RepItem]) {
        self.scorer
            .prepare(self.tag_sim.table(), tuple.iter().map(RepItem::view));
    }

    /// Scores the prepared `tuple` against the candidates `index` yields
    /// for it (every id of `range` when `index` is `None`): the winner,
    /// its similarity and the number of representatives scored.
    pub(crate) fn argmax_in(
        &mut self,
        params: SimParams,
        reps: &PreparedSlab,
        tuple: &[RepItem],
        index: Option<&TagPathIndex>,
        range: Range<u32>,
        trash: u32,
    ) -> (u32, f64, usize) {
        self.scorer
            .select(index, tuple.iter().map(RepItem::view), &self.paths);
        let ctx = SimCtx::new(self.tag_sim.table(), params);
        self.scorer.argmax_selected(&ctx, reps, range, trash)
    }

    /// Scores the prepared tuple against explicit ascending `ids`.
    pub(crate) fn argmax(
        &mut self,
        params: SimParams,
        reps: &PreparedSlab,
        ids: impl Iterator<Item = u32>,
        trash: u32,
    ) -> (u32, f64) {
        let ctx = SimCtx::new(self.tag_sim.table(), params);
        self.scorer.argmax(&ctx, reps, ids, trash)
    }

    /// `simγJ` of the prepared tuple against one prepared representative.
    pub(crate) fn score(&mut self, params: SimParams, rep: PreparedTx<'_>) -> f64 {
        let ctx = SimCtx::new(self.tag_sim.table(), params);
        self.scorer.score(&ctx, rep)
    }

    /// Reads `xml` through the document pipeline and produces its query
    /// transactions: per tree tuple, the deduplicated items weighted
    /// against the model's frozen `term_stats` — the document does not join
    /// them — each averaged over its occurrences in this document.
    pub(crate) fn extract(
        &mut self,
        xml: &str,
        term_stats: &TermStatsBuilder,
    ) -> Result<QueryTuples, XmlError> {
        let doc = DocumentPipeline {
            options: &self.build,
            labels: &mut self.labels,
            vocabulary: &mut self.vocabulary,
            paths: &mut self.paths,
        }
        .parse(xml, None)?;

        let mut new_tag_paths = false;
        for leaf in doc.leaves() {
            new_tag_paths |= self.tag_sim.observe(leaf.tag_path);
        }
        if new_tag_paths {
            // Unseen markup: extend the precomputed structural table so
            // sim_S lookups cover the query paths (any index is over the
            // representatives only and needs no rebuild, and the prepared
            // representatives keep their ranks).
            self.tag_sim
                .rebuild(&self.paths, doc.leaves().iter().map(|l| l.tag_path));
        }

        let mut domain: FxHashMap<(PathId, Box<str>), ItemId> = FxHashMap::default();
        let mut items: Vec<RepItem> = Vec::new();
        let mut weights = ItemWeights::default();
        let tuples = doc.weigh(term_stats, &mut weights, |leaf| {
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
}

/// One parsed query document's transactions, plus whether the tree-tuple
/// cap truncated the enumeration — every classify strategy carries the
/// flag through to [`DocumentAssignment::capped`].
pub(crate) struct QueryTuples {
    /// Per tree tuple, the deduplicated weighted items.
    pub transactions: Vec<Vec<RepItem>>,
    /// The document exceeded `TupleLimits::max_tuples_per_tree`.
    pub capped: bool,
}

/// Document aggregate over per-tuple assignments: summed similarity per
/// proper cluster, ties to the lowest id; all-trash documents are trash.
/// `capped` records whether the tuple set was truncated at extraction.
pub(crate) fn aggregate_document(
    k: usize,
    tuples: Vec<TupleAssignment>,
    capped: bool,
) -> DocumentAssignment {
    let mut totals = vec![0.0f64; k];
    for t in &tuples {
        if (t.cluster as usize) < k {
            totals[t.cluster as usize] += t.similarity;
        }
    }
    let mut cluster = k as u32;
    let mut score = 0.0f64;
    for (j, &total) in totals.iter().enumerate() {
        if total > score {
            score = total;
            cluster = j as u32;
        }
    }
    DocumentAssignment {
        cluster,
        score,
        tuples,
        capped,
    }
}

/// A standalone classification session over a trained model, scoring
/// against its **own full index** and its own prepared representatives.
///
/// The classifier is single-threaded by design (`&mut self`: its session's
/// interners grow as unseen markup arrives). The model itself is behind an
/// `Arc` and never mutated, so instances built via [`Classifier::shared`]
/// duplicate only the postings, the prepared slab and the session, not the
/// representatives. Servers instead share one engine per epoch across
/// their workers (see [`ClassifyEngine`]).
pub struct Classifier {
    model: Arc<TrainedModel>,
    /// The model's representatives prepared for scoring.
    reps: PreparedSlab,
    session: QuerySession,
    index: TagPathIndex,
}

impl Classifier {
    /// Builds the derived state (session, inverted index) for `model`.
    pub fn new(model: TrainedModel) -> Self {
        Self::shared(Arc::new(model))
    }

    /// Builds a classifier over an already shared model: the model `Arc`
    /// is cloned, the index, prepared slab and session are this
    /// classifier's own.
    pub fn shared(model: Arc<TrainedModel>) -> Self {
        let reps = model.prepare_reps();
        let session = QuerySession::new(&model);
        let index = TagPathIndex::build(&model.reps, &model.paths, model.params);
        Self {
            model,
            reps,
            session,
            index,
        }
    }

    /// The underlying model.
    pub fn model(&self) -> &TrainedModel {
        &self.model
    }

    /// The inverted index (diagnostics).
    pub fn index(&self) -> &TagPathIndex {
        &self.index
    }

    /// Number of proper clusters `k`.
    pub fn k(&self) -> usize {
        self.model.k()
    }

    /// The trash cluster's id (`k`).
    pub fn trash_id(&self) -> u32 {
        self.model.trash_id()
    }

    #[cfg(test)]
    pub(crate) fn session_mut(&mut self) -> &mut QuerySession {
        &mut self.session
    }

    /// Classifies one XML document using the inverted index.
    ///
    /// # Errors
    /// Returns the XML parse error; the classifier stays usable.
    pub fn classify(&mut self, xml: &str) -> Result<DocumentAssignment, XmlError> {
        self.classify_impl(xml, true)
    }

    /// Classifies one XML document scoring every representative (the
    /// reference the index must agree with).
    ///
    /// # Errors
    /// Returns the XML parse error; the classifier stays usable.
    pub fn classify_brute(&mut self, xml: &str) -> Result<DocumentAssignment, XmlError> {
        self.classify_impl(xml, false)
    }

    fn classify_impl(&mut self, xml: &str, indexed: bool) -> Result<DocumentAssignment, XmlError> {
        let query = self.session.extract(xml, &self.model.term_stats)?;
        let k = self.model.k() as u32;
        let index = indexed.then_some(&self.index);
        let assignments = query
            .transactions
            .iter()
            .map(|tuple| {
                self.session.prepare(tuple);
                let (cluster, similarity, candidates) =
                    self.session
                        .argmax_in(self.model.params, &self.reps, tuple, index, 0..k, k);
                TupleAssignment {
                    cluster,
                    similarity,
                    candidates,
                }
            })
            .collect();
        Ok(aggregate_document(k as usize, assignments, query.capped))
    }
}

/// The serving-layer seam over the classify execution strategies: a
/// worker holds one `ClassifyEngine` per model epoch — its own session over
/// the one engine the epoch publishes for the server's
/// [`Layout`](crate::Layout) — and drives it through a single surface.
///
/// * [`ClassifyEngine::Indexed`] — a [`ShardedClassifier`] over the
///   epoch's shared [`ShardedEngine`](crate::ShardedEngine): one immutable
///   index per epoch for the whole pool, representatives partitioned
///   across `S ≥ 1` shards, queries scattered and gathered (bit-identical
///   to brute force; see the `shard` module docs).
/// * [`ClassifyEngine::Tree`] — a [`TreeClassifier`] over the epoch's
///   shared [`TreeEngine`](crate::TreeEngine): assignment descends a
///   hierarchical representative tree under a beam-width knob, then
///   exactly re-ranks the reached leaves. The only *approximate* strategy
///   — bit-identical to brute force at full beam, a measured
///   accuracy/latency trade-off below it (see the `tree` module docs).
/// * [`ClassifyEngine::Remote`] — a [`RemoteClassifier`] over the server's
///   shared [`RemoteEngine`](crate::RemoteEngine) topology: the same
///   scatter/gather, but the shards are daemons in other processes and
///   only postings for *their* ranges are resident anywhere (bit-identical
///   too; see the `remote` module docs).
pub enum ClassifyEngine {
    /// A per-worker session over the epoch's shared sharded index.
    Indexed(Box<ShardedClassifier>),
    /// A per-worker session over the epoch's shared representative tree.
    Tree(Box<TreeClassifier>),
    /// A per-worker session over the shared remote shard topology.
    Remote(Box<RemoteClassifier>),
}

impl ClassifyEngine {
    /// Builds a worker's session over `epoch`'s engine.
    pub fn for_epoch(epoch: &EpochModel) -> Self {
        match &epoch.engine {
            EpochEngine::Indexed(engine) => {
                ClassifyEngine::Indexed(Box::new(ShardedClassifier::new(Arc::clone(engine))))
            }
            EpochEngine::Tree(engine) => {
                ClassifyEngine::Tree(Box::new(TreeClassifier::new(Arc::clone(engine))))
            }
            EpochEngine::Remote(topology) => ClassifyEngine::Remote(Box::new(
                RemoteClassifier::new(Arc::clone(topology), Arc::clone(&epoch.model)),
            )),
        }
    }

    /// Classifies one XML document.
    ///
    /// # Errors
    /// [`ClassifyError::Xml`] on parse failure; the network variants only
    /// when running remote. The engine stays usable either way.
    pub fn classify(&mut self, xml: &str) -> Result<DocumentAssignment, ClassifyError> {
        match self {
            ClassifyEngine::Indexed(c) => c.classify(xml).map_err(ClassifyError::Xml),
            ClassifyEngine::Tree(c) => c.classify(xml).map_err(ClassifyError::Xml),
            ClassifyEngine::Remote(c) => c.classify(xml),
        }
    }

    /// The underlying model.
    pub fn model(&self) -> &TrainedModel {
        match self {
            ClassifyEngine::Indexed(c) => c.model(),
            ClassifyEngine::Tree(c) => c.model(),
            ClassifyEngine::Remote(c) => c.model(),
        }
    }

    /// The trash cluster's id (`k`).
    pub fn trash_id(&self) -> u32 {
        self.model().trash_id()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxk_core::{CxkConfig, EngineBuilder, TrainedModel};
    use cxk_transact::{BuildOptions, DatasetBuilder, SimParams};

    fn mining_doc(i: usize) -> String {
        let titles = [
            "mining frequent patterns clustering trees",
            "clustering transactional data mining streams",
            "frequent subtree mining patterns forest",
            "partitional clustering centroids mining",
            "itemset mining patterns association clustering",
            "tree mining clustering xml patterns",
        ];
        format!(
            r#"<dblp><inproceedings key="m{i}"><author>A. Miner</author><title>{}</title><booktitle>KDD</booktitle></inproceedings></dblp>"#,
            titles[i % titles.len()]
        )
    }

    fn networking_doc(i: usize) -> String {
        let titles = [
            "routing congestion protocols networks",
            "packet routing networks latency congestion",
            "congestion control protocols bandwidth networks",
            "network routing topology protocols packets",
            "wireless networks routing protocols handoff",
            "multicast routing networks congestion packets",
        ];
        format!(
            r#"<dblp><article key="n{i}"><author>B. Netter</author><title>{}</title><journal>Networking</journal></article></dblp>"#,
            titles[i % titles.len()]
        )
    }

    fn model() -> TrainedModel {
        let mut builder = DatasetBuilder::new(BuildOptions::default());
        for i in 0..6 {
            builder.add_xml(&mining_doc(i)).unwrap();
        }
        for i in 0..6 {
            builder.add_xml(&networking_doc(i)).unwrap();
        }
        let ds = builder.finish();
        let mut config = CxkConfig::new(2);
        config.params = SimParams::new(0.5, 0.6);
        config.seed = 7;
        EngineBuilder::from_cxk_config(&config)
            .build()
            .expect("valid test config")
            .fit(&ds)
            .expect("fit succeeds")
            .into_model(&ds, BuildOptions::default())
    }

    #[test]
    fn classifies_into_the_topical_cluster() {
        let mut c = Classifier::new(model());
        let mining = c.classify(&mining_doc(17)).expect("classify");
        let networking = c.classify(&networking_doc(17)).expect("classify");
        assert_ne!(mining.cluster, c.trash_id());
        assert_ne!(networking.cluster, c.trash_id());
        assert_ne!(mining.cluster, networking.cluster);
        assert!(mining.score > 0.0);
        assert!(!mining.tuples.is_empty());
    }

    #[test]
    fn indexed_matches_brute_force_exactly() {
        let mut c = Classifier::new(model());
        let docs = [
            mining_doc(9),
            networking_doc(9),
            r#"<recipes><recipe id="r1"><chef>Q. Cook</chef><dish>braised seitan stew</dish></recipe></recipes>"#.to_string(),
        ];
        for doc in &docs {
            let indexed = c.classify(doc).expect("indexed");
            let brute = c.classify_brute(doc).expect("brute");
            assert_eq!(indexed.cluster, brute.cluster, "{doc}");
            assert_eq!(indexed.score, brute.score, "bit-for-bit: {doc}");
            assert_eq!(indexed.tuples.len(), brute.tuples.len());
            for (a, b) in indexed.tuples.iter().zip(&brute.tuples) {
                assert_eq!(a.cluster, b.cluster);
                assert_eq!(a.similarity, b.similarity);
                assert!(a.candidates <= b.candidates);
            }
        }
    }

    #[test]
    fn alien_document_is_trash_and_pruned_to_nothing() {
        let mut c = Classifier::new(model());
        let alien = r#"<menu><entree id="e1"><flavor>umami</flavor></entree></menu>"#;
        let report = c.classify(alien).expect("classify");
        assert_eq!(report.cluster, c.trash_id());
        assert_eq!(report.score, 0.0);
        // Nothing shares a tag or a term with the bibliographic model: the
        // index prunes every representative.
        assert!(report.tuples.iter().all(|t| t.candidates == 0));
    }

    #[test]
    fn unseen_markup_does_not_poison_later_requests() {
        let mut c = Classifier::new(model());
        let before = c.classify(&mining_doc(3)).unwrap();
        // An alien document interns new labels, paths and terms…
        let _ = c
            .classify(r#"<menu><entree id="e1"><flavor>umami braised</flavor></entree></menu>"#)
            .unwrap();
        // …and the same mining document still scores identically.
        let after = c.classify(&mining_doc(3)).unwrap();
        assert_eq!(before, after);
    }

    #[test]
    fn tag_path_cache_stays_bounded_under_ever_fresh_markup() {
        let mut c = Classifier::new(model());
        c.session_mut().tag_sim.cap = 8; // shrink to exercise the reset cheaply
        let cap = c.session_mut().tag_sim.cap;
        let before = c.classify(&mining_doc(1)).unwrap();
        // A hostile stream where every document invents new markup must not
        // grow the dense sim_S table without bound.
        for i in 0..50 {
            let doc = format!("<r{i}><leaf{i}>word{i}</leaf{i}></r{i}>");
            let report = c.classify(&doc).unwrap();
            assert_eq!(report.cluster, c.trash_id());
            assert!(
                c.session_mut().tag_sim.known() <= cap + 4,
                "cache must reset: {} paths after doc {i}",
                c.session_mut().tag_sim.known()
            );
        }
        // Evicted paths re-enter on their next appearance with identical
        // scores.
        let after = c.classify(&mining_doc(1)).unwrap();
        assert_eq!(before, after);
    }

    #[test]
    fn parse_errors_leave_the_classifier_usable() {
        let mut c = Classifier::new(model());
        assert!(c.classify("<broken><xml>").is_err());
        let report = c.classify(&mining_doc(0)).expect("still works");
        assert_ne!(report.cluster, c.trash_id());
    }

    #[test]
    fn shared_models_are_not_duplicated() {
        let model = Arc::new(model());
        let a = Classifier::shared(Arc::clone(&model));
        let _b = Classifier::shared(Arc::clone(&model));
        // Both classifiers point at the same representatives allocation.
        assert!(std::ptr::eq(a.model(), &*model));
        assert_eq!(Arc::strong_count(&model), 3);
    }

    /// An epoch publishing `model` with `engine`.
    fn epoch(model: &Arc<TrainedModel>, engine: EpochEngine) -> EpochModel {
        EpochModel {
            epoch: 1,
            model: Arc::clone(model),
            engine,
        }
    }

    #[test]
    fn engine_seam_agrees_across_strategies() {
        use crate::shard::ShardedEngine;
        let model = Arc::new(model());
        let mut replicated = Classifier::shared(Arc::clone(&model));
        for shards in [1, 3] {
            let engine = Arc::new(ShardedEngine::build(Arc::clone(&model), shards));
            let mut sharded = ClassifyEngine::for_epoch(&epoch(
                &model,
                EpochEngine::Indexed(Arc::clone(&engine)),
            ));
            assert!(matches!(sharded, ClassifyEngine::Indexed(_)));
            for doc in [mining_doc(2), networking_doc(4)] {
                let a = replicated.classify(&doc).expect("replicated");
                let b = sharded.classify(&doc).expect("sharded");
                assert_eq!(a, b, "strategies must be bit-identical (S={shards})");
                let brute = replicated.classify_brute(&doc).expect("brute");
                assert_eq!(b.cluster, brute.cluster);
                assert_eq!(b.score, brute.score);
            }
            assert!(replicated.index().posting_entries() > 0);
            assert_eq!(
                replicated.index().posting_entries(),
                EpochEngine::Indexed(engine).posting_entries(),
                "sharding repartitions the postings without changing their total"
            );
        }
    }

    #[test]
    fn engine_seam_tree_arm_matches_brute_at_full_beam() {
        use crate::tree::{TreeConfig, TreeEngine};
        let model = Arc::new(model());
        // k = 2 with B = 2: level-less tree, trivially exact — the seam
        // test exercises selection and plumbing, `tree_properties`
        // exercises the descent.
        let tree = Arc::new(TreeEngine::build(
            Arc::clone(&model),
            TreeConfig { branch: 2, beam: 2 },
        ));
        let published = epoch(&model, EpochEngine::Tree(Arc::clone(&tree)));
        let mut engine = ClassifyEngine::for_epoch(&published);
        assert!(matches!(engine, ClassifyEngine::Tree(_)));
        assert_eq!(
            published.engine.posting_entries(),
            0,
            "the tree holds no postings"
        );
        let mut brute = Classifier::shared(Arc::clone(&model));
        for doc in [mining_doc(2), networking_doc(4)] {
            let a = engine.classify(&doc).expect("tree");
            let b = brute.classify_brute(&doc).expect("brute");
            assert_eq!(a, b, "exact tree must be bit-identical");
        }
        assert!(tree.stats().tuples > 0);
    }
}
