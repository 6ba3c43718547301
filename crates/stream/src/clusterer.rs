//! The streaming clusterer: cheap per-document folds, periodic refreshes.

use crate::policy::RefreshPolicy;
use cxk_core::rep::prepare_representatives;
use cxk_core::{cluster_representatives, CxkConfig, EngineBuilder, Representative, TrainedModel};
use cxk_transact::item::ItemId;
use cxk_transact::txsim::{argmax_prepared, PreparedSlab, ScoreScratch};
use cxk_transact::{
    BuildOptions, Dataset, DatasetBuilder, DocumentPipeline, ExactMatch, ItemKeys, ItemWeights,
    ParsedDocument, ReadScratch, Terms, Transaction,
};
use cxk_xml::parser::XmlError;
use std::time::Instant;

/// Configuration for a [`StreamClusterer`].
#[derive(Debug, Clone)]
pub struct StreamOptions {
    /// Preprocessing options (parsing, text pipeline, tuple limits).
    pub build: BuildOptions,
    /// CXK-means configuration used by the bootstrap and every refresh.
    pub config: CxkConfig,
    /// When to refresh automatically.
    pub policy: RefreshPolicy,
}

impl StreamOptions {
    /// Options with `k` clusters and defaults everywhere else.
    pub fn new(k: usize) -> Self {
        Self {
            build: BuildOptions::default(),
            config: CxkConfig::new(k),
            policy: RefreshPolicy::default(),
        }
    }
}

/// What happened when one document was pushed.
#[derive(Debug, Clone)]
pub struct ArrivalReport {
    /// Index of the document in arrival order.
    pub doc_index: usize,
    /// Cluster assigned to each of the document's transactions (`k` =
    /// trash), in extraction order. When `refreshed` is set these
    /// assignments come from the post-refresh clustering.
    pub assignments: Vec<u32>,
    /// How many of them γ-matched no representative (pre-refresh).
    pub trash: usize,
    /// Whether this push triggered an automatic refresh.
    pub refreshed: bool,
}

/// What a refresh did.
#[derive(Debug, Clone)]
pub struct RefreshReport {
    /// Collaborative rounds of the re-clustering.
    pub rounds: usize,
    /// Whether the re-clustering converged before the round cap.
    pub converged: bool,
    /// Wall-clock seconds for the full rebuild + re-clustering.
    pub seconds: f64,
    /// Transactions clustered.
    pub transactions: usize,
}

/// Streaming counters.
#[derive(Debug, Clone, Default)]
pub struct StreamStats {
    /// Documents folded in since the last refresh.
    pub documents_since_refresh: usize,
    /// Transactions folded in since the last refresh.
    pub transactions_since_refresh: usize,
    /// Of those, how many went to the trash cluster.
    pub trash_since_refresh: usize,
    /// Total refreshes performed (bootstrap excluded).
    pub refreshes: usize,
}

/// An incrementally maintained clustering over a growing XML collection.
/// A push appends its document's new tag paths to the dataset's `sim_S`
/// table, which keeps every rank, so the prepared representatives stay
/// valid until a refresh rebuilds the dataset.
pub struct StreamClusterer {
    opts: StreamOptions,
    /// Every document ever pushed, in arrival order (replayed on refresh).
    docs: Vec<String>,
    ds: Dataset,
    /// Cluster per transaction (`k` = trash).
    assignments: Vec<u32>,
    reps: Vec<Representative>,
    /// `reps` prepared for the scoring kernel against `ds.tag_sim`.
    prepared: PreparedSlab,
    /// (path, answer) → item id, for item-domain deduplication.
    item_index: ItemKeys,
    /// The buffers reading a pushed document reuses, and the document.
    reading: (ReadScratch, ParsedDocument),
    /// The pushed document's item sums, and the weighing buffers.
    weights: ItemWeights,
    stats: StreamStats,
}

impl StreamClusterer {
    /// Bootstraps from an initial batch: full preprocessing and a full
    /// CXK-means run.
    ///
    /// # Errors
    /// Returns the first XML parse error.
    pub fn new(initial_docs: &[&str], opts: StreamOptions) -> Result<Self, XmlError> {
        let mut builder = DatasetBuilder::new(opts.build.clone());
        for doc in initial_docs {
            builder.add_xml(doc)?;
        }
        let mut this = Self {
            opts,
            docs: initial_docs.iter().map(|d| d.to_string()).collect(),
            ds: builder.finish(),
            assignments: Vec::new(),
            reps: Vec::new(),
            prepared: PreparedSlab::new(),
            item_index: ItemKeys::default(),
            reading: Default::default(),
            weights: ItemWeights::default(),
            stats: StreamStats::default(),
        };
        this.recluster();
        Ok(this)
    }

    /// The current dataset (refreshed base plus appended arrivals).
    pub fn dataset(&self) -> &Dataset {
        &self.ds
    }

    /// Cluster per transaction (`k` = trash).
    pub fn assignments(&self) -> &[u32] {
        &self.assignments
    }

    /// The current cluster representatives.
    pub fn representatives(&self) -> &[Representative] {
        &self.reps
    }

    /// Streaming counters.
    pub fn stats(&self) -> &StreamStats {
        &self.stats
    }

    /// Number of documents seen (initial batch + arrivals).
    pub fn document_count(&self) -> usize {
        self.docs.len()
    }

    /// Snapshots the current state as a servable [`TrainedModel`]: the
    /// live representatives plus the frozen preprocessing context. This
    /// is the streaming side of the hot-reload loop — after a
    /// [`StreamClusterer::refresh`], hand the snapshot to a running
    /// `cxk_serve::Server::reload` (or write it with
    /// `cxk_core::save_model_file` for the server's `POST /reload` /
    /// `--watch` surfaces) and the service starts classifying against the
    /// retrained clusters without dropping a request.
    ///
    /// Between refreshes the representatives are frozen, so a snapshot
    /// taken mid-stream serves the *last* refresh's clusters with the
    /// *current* collection statistics — the same approximation `push`
    /// itself uses.
    pub fn snapshot_model(&self) -> TrainedModel {
        TrainedModel::from_representatives(
            &self.ds,
            self.reps.clone(),
            self.opts.config.params,
            self.opts.build.clone(),
        )
    }

    /// Folds one arriving document in and assigns its transactions to the
    /// frozen representatives; refreshes first if the policy says so.
    ///
    /// # Errors
    /// Returns the parse error without changing any state.
    pub fn push(&mut self, xml: &str) -> Result<ArrivalReport, XmlError> {
        let k = self.opts.config.k;
        // Arrival-time statistics: the collection-level factors include
        // this document before its own TCUs are weighted.
        let (scratch, doc) = &mut self.reading;
        DocumentPipeline {
            options: &self.opts.build,
            labels: &mut self.ds.labels,
            paths: &mut self.ds.paths,
            terms: Terms::Join {
                vocabulary: &mut self.ds.vocabulary,
                stats: &mut self.ds.term_stats,
            },
        }
        .parse_into(xml, scratch, doc)?;
        let doc = &*doc;
        let doc_index = self.docs.len();
        self.docs.push(xml.to_string());

        self.ds.tag_sim.extend(
            doc.leaves().map(|leaf| leaf.tag_path),
            &self.ds.paths,
            &ExactMatch,
        );

        // Only items this document is the first to show get vectors,
        // averaged over their occurrences within it; existing items keep
        // their frozen vectors (the documented streaming approximation).
        let first_new = ItemId(self.ds.items.len() as u32);
        self.weights.reset(first_new);
        let tuples = doc.weigh(&self.ds.term_stats, &mut self.weights, |leaf| {
            let (id, new) = self.item_index.id(leaf.path, leaf.raw);
            if new {
                self.ds.items.push(leaf.item());
            }
            id
        });
        for (i, item) in self.ds.items.iter_mut().enumerate().skip(first_new.index()) {
            self.weights.vector_into(ItemId(i as u32), &mut item.vector);
            self.ds.stats.max_tcu_nnz = self.ds.stats.max_tcu_nnz.max(item.vector.nnz());
        }
        let first_transaction = self.ds.transactions.len();
        for ids in tuples {
            let tr = Transaction::new(ids);
            self.ds.stats.max_transaction_len = self.ds.stats.max_transaction_len.max(tr.len());
            self.ds.transactions.push(tr);
            self.ds.doc_of.push(doc_index as u32);
        }
        let new_transactions = first_transaction..self.ds.transactions.len();

        // Bookkeeping the batch builder would have produced.
        self.ds.stats.documents += 1;
        self.ds.stats.transactions = self.ds.transactions.len();
        self.ds.stats.items = self.ds.items.len();
        self.ds.stats.vocabulary = self.ds.vocabulary.len();
        self.ds.stats.total_tcus = self.ds.term_stats.total_tcus();
        self.ds.stats.max_depth = self.ds.stats.max_depth.max(doc.depth());

        // Assign the new transactions against the frozen representatives.
        let ctx = self.ds.sim_ctx(self.opts.config.params);
        let mut assigned = Vec::with_capacity(new_transactions.len());
        let mut trash = 0usize;
        let mut query = PreparedSlab::new();
        let mut scratch = ScoreScratch::default();
        for t in new_transactions {
            query.clear();
            query.push(ctx.tag_sim, self.ds.views(&self.ds.transactions[t]));
            let (choice, _) = match query.get(0) {
                Some(tx) => {
                    let ids = 0..self.prepared.len() as u32;
                    argmax_prepared(&ctx, tx, &self.prepared, ids, k as u32, &mut scratch)
                }
                None => (k as u32, 0.0),
            };
            trash += usize::from(choice == k as u32);
            assigned.push(choice);
        }
        self.assignments.extend(&assigned);

        self.stats.documents_since_refresh += 1;
        self.stats.transactions_since_refresh += assigned.len();
        self.stats.trash_since_refresh += trash;

        let refreshed = self.opts.policy.should_refresh(
            self.stats.documents_since_refresh,
            self.stats.transactions_since_refresh,
            self.stats.trash_since_refresh,
        );
        if refreshed {
            self.refresh();
            let from = self.assignments.len() - assigned.len();
            assigned = self.assignments[from..].to_vec();
        }

        Ok(ArrivalReport {
            doc_index,
            assignments: assigned,
            trash,
            refreshed,
        })
    }

    /// Re-runs the exact batch pipeline over everything seen so far and
    /// re-clusters, erasing the streaming approximations.
    pub fn refresh(&mut self) -> RefreshReport {
        let start = Instant::now();
        let (rounds, converged) = self.rebuild_and_recluster();
        self.stats.refreshes += 1;
        RefreshReport {
            rounds,
            converged,
            seconds: start.elapsed().as_secs_f64(),
            transactions: self.ds.transactions.len(),
        }
    }

    /// Full rebuild + re-clustering + representative recomputation.
    /// Returns `(rounds, converged)` of the clustering.
    fn rebuild_and_recluster(&mut self) -> (usize, bool) {
        let mut builder = DatasetBuilder::new(self.opts.build.clone());
        for doc in &self.docs {
            builder
                .add_xml(doc)
                .expect("documents were parsed successfully when pushed");
        }
        self.ds = builder.finish();
        self.recluster()
    }

    /// Re-clusters the current dataset and recomputes the representatives.
    /// Returns `(rounds, converged)` of the clustering.
    fn recluster(&mut self) -> (usize, bool) {
        let k = self.opts.config.k;
        self.item_index.clear();
        for item in &self.ds.items {
            self.item_index.id(item.path, &item.raw);
        }
        let (rounds, converged) = if self.ds.transactions.is_empty() {
            self.assignments = Vec::new();
            self.reps = vec![Representative::empty(); k];
            (0, true)
        } else {
            // The options were accepted at construction; an invalid config
            // panics here exactly like the old assert-based driver did.
            let outcome = EngineBuilder::from_cxk_config(&self.opts.config)
                .build()
                .and_then(|engine| engine.fit(&self.ds))
                .unwrap_or_else(|e| panic!("{e}"))
                .into_outcome();
            self.assignments = outcome.assignments;
            self.reps =
                cluster_representatives(&self.ds, self.opts.config.params, &self.assignments, k);
            (outcome.rounds, outcome.converged)
        };
        self.prepared = prepare_representatives(&self.ds.tag_sim, &self.reps);

        self.stats.documents_since_refresh = 0;
        self.stats.transactions_since_refresh = 0;
        self.stats.trash_since_refresh = 0;
        (rounds, converged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxk_transact::txsim::sim_gamma_j_reference;
    use cxk_transact::SimParams;

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
        ];
        format!(
            r#"<dblp><article key="n{i}"><author>B. Netter</author><title>{}</title><journal>Networking</journal></article></dblp>"#,
            titles[i % titles.len()]
        )
    }

    fn options(k: usize) -> StreamOptions {
        let mut opts = StreamOptions::new(k);
        opts.config.params = SimParams::new(0.5, 0.6);
        opts.config.seed = 7;
        opts.policy = RefreshPolicy::manual();
        opts
    }

    fn bootstrap() -> StreamClusterer {
        let docs: Vec<String> = (0..3)
            .map(mining_doc)
            .chain((0..3).map(networking_doc))
            .collect();
        let refs: Vec<&str> = docs.iter().map(String::as_str).collect();
        StreamClusterer::new(&refs, options(2)).expect("bootstrap")
    }

    #[test]
    fn bootstrap_clusters_and_builds_representatives() {
        let s = bootstrap();
        assert_eq!(s.document_count(), 6);
        assert_eq!(s.assignments().len(), s.dataset().stats.transactions);
        assert_eq!(s.representatives().len(), 2);
        assert!(s.representatives().iter().all(|r| !r.is_empty()));
    }

    #[test]
    fn arrival_joins_the_matching_cluster() {
        let mut s = bootstrap();
        // Which cluster holds the mining transactions?
        let mining_cluster = s.assignments()[0];
        let report = s.push(&mining_doc(10)).expect("push");
        assert!(!report.assignments.is_empty());
        for &a in &report.assignments {
            assert_eq!(a, mining_cluster, "mining arrival joins the mining cluster");
        }
        assert_eq!(report.trash, 0);
        assert!(!report.refreshed);
        assert_eq!(s.assignments().len(), s.dataset().stats.transactions);
    }

    #[test]
    fn unseen_class_lands_in_trash() {
        let mut s = bootstrap();
        let alien = r#"<recipes><recipe id="r1"><chef>Q. Cook</chef><dish>braised seitan barley stew</dish><cuisine>fusion</cuisine></recipe></recipes>"#;
        let report = s.push(alien).expect("push");
        assert_eq!(report.trash, report.assignments.len());
        assert!(report.assignments.iter().all(|&a| a == 2), "k = 2 is trash");
    }

    #[test]
    fn refresh_matches_batch_pipeline_exactly() {
        let mut s = bootstrap();
        s.push(&mining_doc(7)).unwrap();
        s.push(&networking_doc(7)).unwrap();
        s.refresh();

        // A batch build over the same documents in the same order.
        let mut builder = DatasetBuilder::new(BuildOptions::default());
        for doc in &s.docs {
            builder.add_xml(doc).unwrap();
        }
        let batch = builder.finish();
        let outcome = EngineBuilder::from_cxk_config(&options(2).config)
            .build()
            .expect("valid test config")
            .fit(&batch)
            .expect("fit succeeds")
            .into_outcome();

        assert_eq!(s.dataset().stats.items, batch.stats.items);
        assert_eq!(s.dataset().stats.transactions, batch.stats.transactions);
        assert_eq!(s.assignments(), &outcome.assignments[..]);
        for (a, b) in s.dataset().items.iter().zip(&batch.items) {
            assert_eq!(a.vector, b.vector, "refresh erases weight drift");
        }
    }

    #[test]
    fn automatic_refresh_fires_on_count() {
        let docs: Vec<String> = (0..3)
            .map(mining_doc)
            .chain((0..3).map(networking_doc))
            .collect();
        let refs: Vec<&str> = docs.iter().map(String::as_str).collect();
        let mut opts = options(2);
        opts.policy = RefreshPolicy::every(2);
        let mut s = StreamClusterer::new(&refs, opts).expect("bootstrap");

        let first = s.push(&mining_doc(8)).unwrap();
        assert!(!first.refreshed);
        let second = s.push(&mining_doc(9)).unwrap();
        assert!(second.refreshed);
        assert_eq!(s.stats().refreshes, 1);
        assert_eq!(s.stats().documents_since_refresh, 0);
    }

    #[test]
    fn drift_policy_triggers_on_alien_arrivals() {
        let docs: Vec<String> = (0..4)
            .map(mining_doc)
            .chain((0..4).map(networking_doc))
            .collect();
        let refs: Vec<&str> = docs.iter().map(String::as_str).collect();
        let mut opts = options(2);
        opts.policy = RefreshPolicy::on_drift(0.5, 2);
        let mut s = StreamClusterer::new(&refs, opts).expect("bootstrap");

        let alien = |i: usize| {
            format!(
                r#"<recipes><recipe id="r{i}"><chef>Q. Cook</chef><dish>braised stew number {i}</dish></recipe></recipes>"#
            )
        };
        let a = s.push(&alien(0)).unwrap();
        assert!(!a.refreshed, "below min_documents");
        let b = s.push(&alien(1)).unwrap();
        assert!(b.refreshed, "all-trash arrivals exceed the drift threshold");
        // After the refresh the recipes participate in the clustering
        // (they are no longer trash-by-default).
        assert_eq!(s.stats().trash_since_refresh, 0);
    }

    #[test]
    fn snapshot_model_serves_the_live_clusters() {
        let mut s = bootstrap();
        s.push(&mining_doc(7)).unwrap();
        s.refresh();
        let model = s.snapshot_model();
        assert_eq!(model.k(), 2);
        assert_eq!(model.trained_documents, 7);
        assert_eq!(
            model.trained_transactions as usize,
            s.dataset().stats.transactions
        );
        // The snapshot carries the clusterer's live representatives
        // verbatim (and its frozen collection statistics), so a server
        // reloaded with it serves exactly these clusters — the HTTP side
        // of that loop is asserted in `tests/serve_integration.rs`.
        assert_eq!(model.reps.len(), s.representatives().len());
        for (a, b) in model.reps.iter().zip(s.representatives()) {
            assert_eq!(a.items, b.items);
        }
        assert_eq!(
            model.term_stats.total_tcus(),
            s.dataset().term_stats.total_tcus()
        );
        // Snapshots round-trip through the binary format unchanged.
        let loaded = cxk_core::load_model(&cxk_core::save_model(&model)).expect("round-trip");
        assert_eq!(loaded.reps.len(), model.reps.len());
        for (a, b) in loaded.reps.iter().zip(&model.reps) {
            assert_eq!(a.items, b.items);
        }
    }

    #[test]
    fn parse_errors_leave_state_untouched() {
        let mut s = bootstrap();
        let before_docs = s.document_count();
        let before_tx = s.dataset().stats.transactions;
        assert!(s.push("<broken><xml>").is_err());
        assert_eq!(s.document_count(), before_docs);
        assert_eq!(s.dataset().stats.transactions, before_tx);
        assert_eq!(s.assignments().len(), before_tx);
    }

    #[test]
    fn new_markup_extends_the_tag_table() {
        let mut s = bootstrap();
        let before = s.dataset().tag_sim.len();
        s.push(r#"<dblp><book key="b1"><author>C. Writer</author><title>mining clustering handbook patterns</title><publisher>Tech Press</publisher></book></dblp>"#)
            .unwrap();
        assert!(
            s.dataset().tag_sim.len() > before,
            "book paths must be registered for sim_S"
        );
        // All transactions remain scorable: the reference lookup panics on
        // an unregistered path.
        let ctx = s.dataset().sim_ctx(s.opts.config.params);
        let last = s.dataset().transactions.len() - 1;
        let tail = s.dataset().views(&s.dataset().transactions[last]);
        let _ = sim_gamma_j_reference(
            &ctx,
            &tail,
            &s.dataset().views(&s.dataset().transactions[0]),
        );
        // The table appended the book's paths behind the ranks the
        // representatives were prepared with: the push's assignment must
        // still be the reference argmax over the representatives.
        let k = s.representatives().len() as u32;
        let mut expected = (k, 0.0f64);
        for (j, rep) in s.representatives().iter().enumerate() {
            let score = sim_gamma_j_reference(&ctx, &tail, &rep.views());
            if score > expected.1 {
                expected = (j as u32, score);
            }
        }
        let expected = if expected.1 == 0.0 { k } else { expected.0 };
        assert_eq!(s.assignments()[last], expected);
    }

    #[test]
    fn an_empty_bootstrap_registers_pushed_tag_paths() {
        let mut s = StreamClusterer::new(&[], StreamOptions::new(2)).expect("empty bootstrap");
        let docs = [networking_doc(0), networking_doc(1)];
        for doc in &docs {
            s.push(doc).expect("push");
        }
        let ds = s.dataset();
        let tag_paths = ds.distinct_tag_paths();
        assert!(!tag_paths.is_empty());
        assert_eq!(ds.tag_sim.len(), tag_paths.len());
        // The reference lookup panics on an unregistered path.
        let ctx = ds.sim_ctx(SimParams::default());
        let (a, b) = (ds.views(&ds.transactions[0]), ds.views(&ds.transactions[1]));
        assert!(sim_gamma_j_reference(&ctx, &a, &b) > 0.0);
        // Clustering the streamed dataset agrees with a batch build.
        let mut config = CxkConfig::new(1);
        config.params = SimParams::new(1.0, config.params.gamma);
        let fit = |ds: &Dataset| {
            EngineBuilder::from_cxk_config(&config)
                .build()
                .and_then(|engine| engine.fit(ds))
                .expect("fit succeeds")
                .into_outcome()
                .assignments
        };
        let mut builder = DatasetBuilder::new(BuildOptions::default());
        for doc in &docs {
            builder.add_xml(doc).expect("valid document");
        }
        assert_eq!(fit(ds), vec![0, 0]);
        assert_eq!(fit(&builder.finish()), vec![0, 0]);
    }

    #[test]
    fn empty_bootstrap_is_allowed() {
        let s = StreamClusterer::new(&[], options(2)).expect("empty bootstrap");
        assert_eq!(s.document_count(), 0);
        assert_eq!(s.assignments().len(), 0);
        assert_eq!(s.representatives().len(), 2);
    }
}
