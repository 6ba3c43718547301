//! Online classification of XML documents against a trained model.
//!
//! Classification reads the incoming document through the training
//! pipeline (`cxk_transact::pipeline`, no DOM) with **frozen corpus
//! statistics**: every TCU is weighted with `ttf.itf` against the training
//! collection's `N_T` / `n_{j,T}` — the document does *not* join the
//! collection, so classification is read-only with respect to the model's
//! statistics and any arrival order of requests yields identical scores —
//! and an item's weight averages its occurrences in this one document.
//! (Unseen terms have `n_{j,T} = 0` and would weigh 0, so preprocessing
//! drops them and the model's vocabulary is only ever read; unseen tags
//! only ever exact-match themselves, so the symbols they intern into the
//! session's private interners cannot affect similarities either.)
//!
//! The state splits along the sharing boundary the serving layer needs:
//!
//! * the per-worker **mutable** half, the crate-private `QuerySession`:
//!   copies of the model's label interner and path table (three buffer
//!   copies each; parsing interns unseen markup), a clone of the engine's
//!   tag-path similarity table that the session extends with query paths,
//!   and the worker's scoring buffers. It is cheap relative to the model:
//!   no representatives, no postings, no vocabulary.
//! * the epoch's **immutable** engine — a [`ShardedEngine`] or a
//!   [`TreeEngine`](crate::TreeEngine), holding the [`TrainedModel`], the
//!   `sim_S` table over its representatives' tag paths, the
//!   representatives prepared against it for the `simγJ` kernel and the
//!   index or tree over them — shared behind an `Arc` by every worker.
//!
//! Each tree tuple is assigned by the paper's relocation rule — argmax of
//! `simγJ` over the representatives, trash when every similarity is zero
//! (`argmax_prepared`, the rule training uses) — and the document
//! aggregates its tuples by summed similarity per cluster. One
//! [`Classifier`] session type runs those steps over either engine; the
//! standalone classifier ([`Classifier::shared`]) is a session over a
//! private one-shard engine. [`Classifier::classify`] prunes with the
//! engine; [`Classifier::classify_brute`] scores every representative.
//! The two are guaranteed to agree exactly (see the `index` and `shard`
//! module docs), and so does the tree at full beam (see the `tree` module
//! docs). [`ClassifyEngine`] is the seam server workers hold: one enum
//! over the serving layouts' per-worker sessions with a single classify
//! surface.

use crate::remote::RemoteClassifier;
use crate::session::QuerySession;
use crate::shard::{ShardedClassifier, ShardedEngine};
use crate::slot::{EpochEngine, EpochModel};
use crate::tree::TreeClassifier;
use cxk_core::rep::RepItem;
use cxk_core::TrainedModel;
use cxk_p2p::NetworkError;
use cxk_transact::item::ItemView;
use cxk_transact::TagPathSimTable;
use cxk_xml::parser::XmlError;
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
/// mismatch, or shards reading one document differently
/// ([`ClassifyError::Remote`]). A document the daemons reject is
/// [`ClassifyError::Xml`], as in process.
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

/// An epoch's shared engine as a [`Classifier`] session drives it: the
/// model it serves, and the one step that differs between layouts —
/// assigning one query tuple. Implemented by [`ShardedEngine`] and
/// [`TreeEngine`](crate::TreeEngine).
pub trait SessionEngine {
    /// The model the engine serves.
    fn model(&self) -> &Arc<TrainedModel>;

    /// The `sim_S` table the engine's representatives were prepared
    /// against; every session starts from a clone of it.
    fn tag_sim(&self) -> &TagPathSimTable;

    /// Assigns one of `session`'s query tuples under the relocation rule
    /// (trash when nothing scores above 0): with the engine's pruning when
    /// `pruned`, over every representative otherwise.
    fn assign_tuple(
        &self,
        session: &mut QuerySession,
        tuple: &[ItemView<'_>],
        pruned: bool,
    ) -> TupleAssignment;
}

/// A classification session over an epoch's shared engine: the worker's
/// own `QuerySession` (see the module docs) plus an `Arc` of the engine.
/// Every session runs the same steps — extract the document's query
/// tuples, let the engine assign each, aggregate — so the layouts differ
/// only in [`SessionEngine::assign_tuple`]:
///
/// * `Classifier` ([`ShardedClassifier`]) is a session over a
///   [`ShardedEngine`]; [`Classifier::shared`] builds the standalone
///   classifier (`cxk classify`, and the reference the layouts are tested
///   against) over a private one-shard engine;
/// * [`TreeClassifier`] is a session over a [`TreeEngine`](crate::TreeEngine).
///
/// A session is single-threaded (`&mut self`: its tables grow with unseen
/// markup). Building one copies no postings, representatives or
/// vocabulary, which is what a hot reload amortizes across the pool.
pub struct Classifier<E = ShardedEngine> {
    engine: Arc<E>,
    session: QuerySession,
}

impl Classifier {
    /// The standalone classifier over `model`: a session over a private
    /// one-shard [`ShardedEngine`], so only the model is shared.
    pub fn shared(model: Arc<TrainedModel>) -> Self {
        Self::new(Arc::new(ShardedEngine::build(model, 1)))
    }
}

impl<E: SessionEngine> Classifier<E> {
    /// Builds a worker session over `engine`.
    pub fn new(engine: Arc<E>) -> Self {
        let session = QuerySession::new(engine.model(), engine.tag_sim());
        Self { engine, session }
    }

    /// The shared engine.
    pub fn engine(&self) -> &Arc<E> {
        &self.engine
    }

    /// The underlying model.
    pub fn model(&self) -> &TrainedModel {
        self.engine.model()
    }

    /// Number of proper clusters `k`.
    pub fn k(&self) -> usize {
        self.model().k()
    }

    /// The trash cluster's id (`k`).
    pub fn trash_id(&self) -> u32 {
        self.model().trash_id()
    }

    #[cfg(test)]
    pub(crate) fn session_mut(&mut self) -> &mut QuerySession {
        &mut self.session
    }

    /// Classifies one XML document with the engine's pruning: the
    /// inverted index, or the tree's beam descent.
    ///
    /// # Errors
    /// Returns the XML parse error; the classifier stays usable.
    pub fn classify(&mut self, xml: &str) -> Result<DocumentAssignment, XmlError> {
        self.classify_impl(xml, true)
    }

    /// Classifies one XML document scoring every representative (the
    /// reference the pruned paths must agree with).
    ///
    /// # Errors
    /// Returns the XML parse error; the classifier stays usable.
    pub fn classify_brute(&mut self, xml: &str) -> Result<DocumentAssignment, XmlError> {
        self.classify_impl(xml, false)
    }

    fn classify_impl(&mut self, xml: &str, pruned: bool) -> Result<DocumentAssignment, XmlError> {
        let model = self.engine.model();
        let query = self.session.extract(model, xml)?;
        self.session.cover(query.tag_paths());
        let mut views = Vec::new();
        let assignments = query
            .tuples()
            .map(|tuple| {
                views.clear();
                views.extend(tuple.map(RepItem::view));
                self.engine.assign_tuple(&mut self.session, &views, pruned)
            })
            .collect();
        let capped = query.capped;
        self.session.recycle(query);
        Ok(aggregate_document(model.k(), assignments, capped))
    }
}

/// The serving-layer seam over the classify execution strategies: a
/// worker holds one `ClassifyEngine` per model epoch — its own session over
/// the one engine the epoch publishes for the server's
/// [`Layout`](crate::Layout) — and drives it through a single surface.
///
/// * [`ClassifyEngine::Indexed`] — a [`ShardedClassifier`] over the
///   epoch's shared [`ShardedEngine`]: one immutable
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
        let mut c = Classifier::shared(Arc::new(model()));
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
        let mut c = Classifier::shared(Arc::new(model()));
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
        let mut c = Classifier::shared(Arc::new(model()));
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
        let mut c = Classifier::shared(Arc::new(model()));
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
        let mut c = Classifier::shared(Arc::new(model()));
        c.session_mut().cap = 8; // shrink to exercise the reset cheaply
        let cap = c.session_mut().cap;
        let before = c.classify(&mining_doc(1)).unwrap();
        // A hostile stream where every document invents new markup must not
        // grow the dense sim_S table without bound.
        for i in 0..50 {
            let doc = format!("<r{i}><leaf{i}>word{i}</leaf{i}></r{i}>");
            let report = c.classify(&doc).unwrap();
            assert_eq!(report.cluster, c.trash_id());
            assert!(
                c.session_mut().tag_sim().len() <= cap + 4,
                "cache must reset: {} paths after doc {i}",
                c.session_mut().tag_sim().len()
            );
        }
        // Evicted paths re-enter on their next appearance with identical
        // scores.
        let after = c.classify(&mining_doc(1)).unwrap();
        assert_eq!(before, after);
    }

    #[test]
    fn a_warm_session_computes_only_the_rows_of_fresh_tag_paths() {
        let mut c = Classifier::shared(Arc::new(model()));
        let (base, base_cells) = {
            let table = c.engine().tag_sim();
            (table.len(), table.stored_cells())
        };
        for i in 0..1000 {
            c.classify(&format!("<r{i}><leaf{i}>word</leaf{i}></r{i}>"))
                .unwrap();
            // The table only appended to the base: the cells it computed
            // are this document's fresh paths' rows, where a rebuild would
            // have recomputed all of them. (The previous document's paths
            // were forgotten when this request started.)
            let table = c.session_mut().tag_sim();
            let fresh = table.len() - base;
            assert!(fresh >= 1, "the document brings a fresh tag path");
            let rows: usize = (base..base + fresh).map(|r| r + 1).sum();
            assert_eq!(table.stored_cells(), base_cells + rows, "document {i}");
        }
    }

    #[test]
    fn a_session_forgets_the_markup_of_earlier_requests() {
        let model = Arc::new(model());
        let known = (model.labels.len(), model.paths.len());
        let mut c = Classifier::shared(Arc::clone(&model));
        let doc = |i: usize| format!("<r{i:05}><leaf{i:05}>mining</leaf{i:05}></r{i:05}>");
        c.classify(&doc(0)).unwrap();
        let one = c.session_mut().table_lens();
        assert!(one.0 > known.0 && one.1 > known.1, "{one:?} {known:?}");
        // However many documents of fresh tags arrive, the tables hold the
        // model's entries plus one request's.
        for i in 1..10_000 {
            c.classify(&doc(i)).unwrap();
            assert_eq!(c.session_mut().table_lens(), one, "document {i}");
        }
        let answer = c.classify(&mining_doc(1)).unwrap();
        assert_eq!(c.session_mut().table_lens(), known);
        assert_eq!(
            answer,
            Classifier::shared(model).classify(&mining_doc(1)).unwrap()
        );
    }

    #[test]
    fn a_fresh_session_computes_none_of_the_base_cells() {
        let engine = Arc::new(ShardedEngine::build(Arc::new(model()), 1));
        let base = engine.tag_sim();
        let mut c = Classifier::new(Arc::clone(&engine));
        c.classify(&mining_doc(4).replace("</author>", "</author><note>draft</note>"))
            .unwrap();
        let table = c.session_mut().tag_sim();
        let (b, q) = (base.len(), table.len() - base.len());
        assert!(q >= 1, "the document brings a fresh tag path");
        // Cloned, not recomputed: the base keeps its ranks and cells, and
        // the session computed only the rows of its q query paths.
        let rows: usize = (b..b + q).map(|r| r + 1).sum();
        assert_eq!(table.stored_cells(), base.stored_cells() + rows);
        for i in 0..b as u32 {
            for j in 0..b as u32 {
                assert_eq!(table.sim_at(i, j).to_bits(), base.sim_at(i, j).to_bits());
            }
        }
    }

    #[test]
    fn the_token_memo_keeps_only_known_words() {
        let mut c = Classifier::shared(Arc::new(model()));
        let first = c.classify(&mining_doc(2)).unwrap();
        for i in 0..20 {
            let doc = mining_doc(2).replace("</title>", &format!(" zq{i}x wubble{i}</title>"));
            assert_eq!(c.classify(&doc).unwrap(), first, "{doc}");
        }
        let memo = c.session_mut().reading().preprocessor().memo();
        for known in ["mining", "patterns", "frequent", "miner"] {
            assert!(memo.contains(known), "{known}");
        }
        for i in 0..20 {
            assert!(!memo.contains(&format!("zq{i}x")));
            assert!(!memo.contains(&format!("wubble{i}")));
        }
        // A parse error leaves a warm session answering as before.
        assert!(c.classify("<dblp><title>mining</dblp>").is_err());
        assert_eq!(c.classify(&mining_doc(2)).unwrap(), first);
    }

    #[test]
    fn parse_errors_leave_the_classifier_usable() {
        let mut c = Classifier::shared(Arc::new(model()));
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
            assert!(replicated.engine().posting_entries() > 0);
            assert_eq!(
                replicated.engine().posting_entries(),
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
