//! Dataset construction: XML documents → tree tuples → transactions.
//!
//! [`DatasetBuilder`] runs every document through the
//! [document pipeline](crate::pipeline) of Fig. 1(b) — parse, extract its
//! tree tuples (§3.2), preprocess every TCU — with live collection
//! statistics, then builds the collection-wide item domain keyed by
//! `(complete path, answer)` (§3.3, Fig. 4) and weights its terms with
//! `ttf.itf` (§4.1.2) against the whole collection.

use crate::item::{Item, ItemId};
use crate::itemsim::{SimCtx, SimParams};
use crate::pathsim::TagPathSimTable;
use crate::pipeline::{DocumentPipeline, ItemWeights, ParsedDocument, Terms};
use crate::transaction::Transaction;
use cxk_text::{PipelineOptions, TermStatsBuilder};
use cxk_util::{FxHashMap, Interner};
use cxk_xml::parser::{ParseOptions, XmlError};
use cxk_xml::path::{PathId, PathTable};
use cxk_xml::sax::StreamingTupleExtractor;
use cxk_xml::tuple::TupleLimits;
use std::io::BufRead;

pub use cxk_xml::sax::IngestStats;

/// Options for the whole build pipeline.
#[derive(Debug, Clone, Default)]
pub struct BuildOptions {
    /// XML parsing options.
    pub parse: ParseOptions,
    /// TCU preprocessing options.
    pub pipeline: PipelineOptions,
    /// Tree-tuple enumeration limits.
    pub limits: TupleLimits,
}

/// Corpus-level summary statistics.
#[derive(Debug, Clone, Default)]
pub struct DatasetStats {
    /// Number of documents.
    pub documents: usize,
    /// Number of transactions (tree tuples).
    pub transactions: usize,
    /// Number of distinct items.
    pub items: usize,
    /// Vocabulary size `|V|`.
    pub vocabulary: usize,
    /// Distinct complete paths.
    pub complete_paths: usize,
    /// Distinct tag paths.
    pub tag_paths: usize,
    /// `|tr_max|`: maximum transaction length.
    pub max_transaction_len: usize,
    /// `|u_max|`: maximum TCU vector density.
    pub max_tcu_nnz: usize,
    /// Total TCUs in the collection (`N_T`).
    pub total_tcus: u64,
    /// Maximum tree depth over the corpus.
    pub max_depth: usize,
}

/// The finished transactional dataset.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Label interner (tags, attribute names, `S`).
    pub labels: Interner,
    /// Term vocabulary.
    pub vocabulary: Interner,
    /// Interned complete and tag paths.
    pub paths: PathTable,
    /// The item domain.
    pub items: Vec<Item>,
    /// All transactions.
    pub transactions: Vec<Transaction>,
    /// Document index of each transaction.
    pub doc_of: Vec<u32>,
    /// Precomputed pairwise structural similarity between tag paths.
    pub tag_sim: TagPathSimTable,
    /// Collection-level term statistics (`N_T` and per-term `n_{j,T}`),
    /// kept so that streaming extensions can weight late-arriving TCUs.
    pub term_stats: TermStatsBuilder,
    /// Summary statistics.
    pub stats: DatasetStats,
}

impl Dataset {
    /// Borrowed item views of a transaction, for the similarity functions.
    pub fn views(&self, tr: &Transaction) -> Vec<crate::item::ItemView<'_>> {
        tr.items()
            .iter()
            .map(|id| self.items[id.index()].view())
            .collect()
    }

    /// A similarity context over this dataset.
    pub fn sim_ctx(&self, params: SimParams) -> SimCtx<'_> {
        SimCtx::new(&self.tag_sim, params)
    }

    /// The distinct tag paths of the item domain, sorted.
    pub fn distinct_tag_paths(&self) -> Vec<PathId> {
        distinct_paths(&self.items, |i| i.tag_path)
    }

    /// Recomputes the precomputed `sim_S` table with a custom tag matcher
    /// (semantic enrichment — the paper's §6 future work). Every similarity
    /// context created afterwards uses the enriched structural similarity;
    /// content vectors and transactions are untouched.
    pub fn rebuild_tag_sim(&mut self, matcher: &impl crate::pathsim::TagMatcher) {
        let tag_paths = self.distinct_tag_paths();
        self.tag_sim = TagPathSimTable::build_with(&tag_paths, &self.paths, matcher);
    }
}

/// Incremental dataset builder: every document is parsed and joins the
/// collection statistics as it is added; `finish` weights them all
/// against the whole collection.
pub struct DatasetBuilder {
    labels: Interner,
    vocabulary: Interner,
    paths: PathTable,
    options: BuildOptions,
    docs: Vec<ParsedDocument>,
    term_stats: TermStatsBuilder,
}

impl DatasetBuilder {
    /// Creates a builder.
    pub fn new(options: BuildOptions) -> Self {
        Self {
            labels: Interner::new(),
            vocabulary: Interner::new(),
            paths: PathTable::new(),
            options,
            docs: Vec::new(),
            term_stats: TermStatsBuilder::new(),
        }
    }

    /// Number of documents added so far.
    pub fn document_count(&self) -> usize {
        self.docs.len()
    }

    /// Number of documents whose tuple enumeration was truncated by
    /// [`TupleLimits`] — silent truncation would skew the transactional
    /// view, so ingest summaries surface this count.
    pub fn capped_documents(&self) -> u64 {
        self.docs.iter().filter(|d| d.capped()).count() as u64
    }

    /// The live pipeline: documents intern into, and join, this collection.
    fn pipeline(&mut self) -> DocumentPipeline<'_> {
        DocumentPipeline {
            options: &self.options,
            labels: &mut self.labels,
            paths: &mut self.paths,
            terms: Terms::Join {
                vocabulary: &mut self.vocabulary,
                stats: &mut self.term_stats,
            },
        }
    }

    /// Parses one XML document and adds it to the collection. Returns the
    /// document index. A rejected document leaves the collection as it
    /// was.
    pub fn add_xml(&mut self, xml: &str) -> Result<usize, XmlError> {
        let doc = self.pipeline().parse(xml)?;
        self.docs.push(doc);
        Ok(self.docs.len() - 1)
    }

    /// Streams every document out of `input` (one or more concatenated XML
    /// documents, e.g. a `cxk synth` corpus file) through the SAX extractor
    /// and adds each to the collection. Only one document's parse state is
    /// resident at a time — the raw corpus is never buffered — so peak
    /// ingest memory is independent of corpus size. Produces datasets
    /// bit-identical to reading the same documents through
    /// [`Self::add_xml`].
    pub fn ingest_stream<R: BufRead>(&mut self, input: R) -> Result<IngestStats, XmlError> {
        let mut extractor =
            StreamingTupleExtractor::new(input, self.options.parse.clone(), self.options.limits);
        while let Some(doc) = extractor.next_document(&mut self.labels)? {
            let doc = self.pipeline().parse_streamed(doc);
            self.docs.push(doc);
        }
        Ok(extractor.stats())
    }

    /// Finalizes the dataset: builds the item domain, computes `ttf.itf`
    /// vectors against the whole collection's statistics, and the tag-path
    /// similarity table.
    pub fn finish(self) -> Dataset {
        // Item domain keyed by (path, answer), averaged over the collection.
        let mut domain: FxHashMap<(PathId, Box<str>), ItemId> = FxHashMap::default();
        let mut items: Vec<Item> = Vec::new();
        let mut weights = ItemWeights::default();
        let mut transactions: Vec<Transaction> = Vec::new();
        let mut doc_of: Vec<u32> = Vec::new();

        for (doc_idx, doc) in self.docs.iter().enumerate() {
            let tuples = doc.weigh(&self.term_stats, &mut weights, |leaf| {
                *domain.entry(leaf.key()).or_insert_with(|| {
                    items.push(leaf.item());
                    ItemId(items.len() as u32 - 1)
                })
            });
            for ids in tuples {
                transactions.push(Transaction::new(ids));
                doc_of.push(doc_idx as u32);
            }
        }
        for (item, vector) in items.iter_mut().zip(weights.into_vectors()) {
            item.vector = vector;
        }
        let max_tcu_nnz = items.iter().map(|i| i.vector.nnz()).max().unwrap_or(0);

        // Tag-path similarity table over the distinct tag paths of the item
        // domain.
        let tag_paths = distinct_paths(&items, |i| i.tag_path);
        let tag_sim = TagPathSimTable::build(&tag_paths, &self.paths);

        let stats = DatasetStats {
            documents: self.docs.len(),
            transactions: transactions.len(),
            items: items.len(),
            vocabulary: self.vocabulary.len(),
            complete_paths: distinct_paths(&items, |i| i.path).len(),
            tag_paths: tag_paths.len(),
            max_transaction_len: transactions.iter().map(Transaction::len).max().unwrap_or(0),
            max_tcu_nnz,
            total_tcus: self.term_stats.total_tcus(),
            max_depth: self.docs.iter().map(|d| d.depth()).max().unwrap_or(0),
        };

        Dataset {
            labels: self.labels,
            vocabulary: self.vocabulary,
            paths: self.paths,
            items,
            transactions,
            doc_of,
            tag_sim,
            term_stats: self.term_stats,
            stats,
        }
    }
}

/// The distinct values of `path` over `items`, sorted.
fn distinct_paths(items: &[Item], path: impl Fn(&Item) -> PathId) -> Vec<PathId> {
    let mut paths: Vec<PathId> = items.iter().map(path).collect();
    paths.sort_unstable();
    paths.dedup();
    paths
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Fig. 2(a) document: two conference papers, the first with two
    /// authors.
    const DBLP_XML: &str = r#"<dblp>
        <inproceedings key="conf/kdd/ZakiA03">
            <author>M.J. Zaki</author>
            <author>C.C. Aggarwal</author>
            <title>XRules: an effective structural classifier for XML data</title>
            <year>2003</year>
            <booktitle>KDD</booktitle>
            <pages>316-325</pages>
        </inproceedings>
        <inproceedings key="conf/kdd/Zaki02">
            <author>M.J. Zaki</author>
            <title>Efficiently mining frequent trees in a forest</title>
            <year>2002</year>
            <booktitle>KDD</booktitle>
            <pages>71-80</pages>
        </inproceedings>
    </dblp>"#;

    fn build(docs: &[&str]) -> Dataset {
        let mut builder = DatasetBuilder::new(BuildOptions::default());
        for doc in docs {
            builder.add_xml(doc).expect("valid xml");
        }
        builder.finish()
    }

    #[test]
    fn fig4_transaction_counts() {
        let ds = build(&[DBLP_XML]);
        // Three tree tuples (Fig. 3) -> three transactions.
        assert_eq!(ds.transactions.len(), 3);
        // Item domain of Fig. 4(b): e1..e11 = 11 distinct items.
        assert_eq!(ds.items.len(), 11);
        // Every transaction has 6 items (Fig. 4(c)).
        for tr in &ds.transactions {
            assert_eq!(tr.len(), 6);
        }
    }

    #[test]
    fn shared_items_have_shared_ids() {
        let ds = build(&[DBLP_XML]);
        // tr1 and tr2 differ only in the author item: intersection = 5.
        let t0 = &ds.transactions[0];
        let t1 = &ds.transactions[1];
        assert_eq!(t0.intersection_len(t1), 5);
        assert_eq!(t0.union_len(t1), 7);
        // tr3 shares 'KDD' booktitle and author 'M.J. Zaki' with tr1 — but
        // author paths/answers coincide while key/title/year/pages differ.
        let t2 = &ds.transactions[2];
        assert_eq!(t0.intersection_len(t2), 2);
    }

    #[test]
    fn doc_of_tracks_documents() {
        let ds = build(&[DBLP_XML, "<dblp><article key=\"j1\"><author>A. Nother</author><title>On things</title></article></dblp>"]);
        assert_eq!(ds.stats.documents, 2);
        assert_eq!(ds.doc_of.len(), ds.transactions.len());
        assert_eq!(ds.doc_of[0], 0);
        assert_eq!(*ds.doc_of.last().unwrap(), 1);
    }

    #[test]
    fn vectors_are_weighted_and_nonzero_for_content() {
        let ds = build(&[DBLP_XML]);
        // The title items contain distinctive terms and must have nonzero
        // vectors.
        let title_item = ds
            .items
            .iter()
            .find(|i| i.raw.contains("XRules"))
            .expect("title item");
        assert!(!title_item.vector.is_empty());
        // 'KDD' appears in every tuple TCU set but not in *all* TCUs of the
        // collection, so its weight is positive too.
        let kdd = ds.items.iter().find(|i| &*i.raw == "KDD").unwrap();
        assert!(!kdd.vector.is_empty());
    }

    #[test]
    fn sim_of_sibling_transactions_exceeds_cross_document() {
        let ds = build(&[DBLP_XML]);
        let ctx = ds.sim_ctx(SimParams::new(0.5, 0.6));
        let v0 = ds.views(&ds.transactions[0]);
        let v1 = ds.views(&ds.transactions[1]);
        let v2 = ds.views(&ds.transactions[2]);
        let near = crate::txsim::sim_gamma_j(&ctx, &v0, &v1);
        let far = crate::txsim::sim_gamma_j(&ctx, &v0, &v2);
        assert!(
            near > far,
            "same-paper tuples ({near}) should beat cross-paper ({far})"
        );
        assert!(near > 0.5);
    }

    #[test]
    fn stats_are_consistent() {
        let ds = build(&[DBLP_XML]);
        assert_eq!(ds.stats.transactions, 3);
        assert_eq!(ds.stats.items, 11);
        assert_eq!(ds.stats.max_transaction_len, 6);
        assert!(ds.stats.vocabulary > 0);
        assert_eq!(ds.stats.total_tcus, 13); // 13 leaves: 7 + 6 per paper
        assert_eq!(ds.stats.max_depth, 4);
        assert!(ds.stats.tag_paths >= 6);
    }

    #[test]
    fn empty_dataset_finishes_cleanly() {
        let ds = build(&[]);
        assert_eq!(ds.transactions.len(), 0);
        assert_eq!(ds.items.len(), 0);
        assert_eq!(ds.stats.max_transaction_len, 0);
    }

    #[test]
    fn malformed_xml_reports_error() {
        let mut builder = DatasetBuilder::new(BuildOptions::default());
        assert!(builder.add_xml("<a><b></a>").is_err());
        assert_eq!(builder.document_count(), 0);
    }

    /// Trailing content after the root, or no root at all, is rejected
    /// like any malformed document: statistics, vocabulary, path table and
    /// collection stay as they were.
    #[test]
    fn trailing_content_is_rejected_without_touching_state() {
        let mut builder = DatasetBuilder::new(BuildOptions::default());
        builder.add_xml(DBLP_XML).expect("valid xml");
        let state = |b: &DatasetBuilder| {
            (
                b.document_count(),
                b.vocabulary.len(),
                b.paths.len(),
                b.term_stats.total_tcus(),
                b.term_stats.counts().to_vec(),
            )
        };
        let before = state(&builder);
        for bad in [
            format!("{DBLP_XML}<b/>"),
            format!("{DBLP_XML} unseen trailing words"),
            "<fresh><markup>with new terms</markup></fresh><x/>".to_string(),
            String::new(),
        ] {
            let err = builder.add_xml(&bad).expect_err("rejected");
            assert!(
                err.message.contains("trailing content")
                    || err.message.contains("expected document element"),
                "{err}"
            );
            assert_eq!(state(&builder), before, "{bad:?}");
        }
    }

    /// The streaming ingest path must produce a dataset bit-identical to
    /// the DOM path: same items, same vectors (float-for-float, so the
    /// summation order matched exactly), same transactions and stats.
    #[test]
    fn streamed_ingest_matches_dom_ingest() {
        let second = "<dblp><article key=\"j1\"><author>A. Nother</author><title>On things</title></article></dblp>";
        let dom = build(&[DBLP_XML, second]);

        let mut builder = DatasetBuilder::new(BuildOptions::default());
        let corpus = format!("{DBLP_XML}\n{second}\n");
        let stats = builder
            .ingest_stream(corpus.as_bytes())
            .expect("valid corpus");
        assert_eq!(stats.documents, 2);
        assert_eq!(stats.capped_documents, 0);
        assert_eq!(builder.capped_documents(), 0);
        let streamed = builder.finish();

        assert_eq!(dom.stats.transactions, streamed.stats.transactions);
        assert_eq!(dom.stats.items, streamed.stats.items);
        assert_eq!(dom.stats.total_tcus, streamed.stats.total_tcus);
        assert_eq!(dom.stats.max_depth, streamed.stats.max_depth);
        assert_eq!(dom.stats.vocabulary, streamed.stats.vocabulary);
        assert_eq!(dom.doc_of, streamed.doc_of);
        for (a, b) in dom.transactions.iter().zip(&streamed.transactions) {
            assert_eq!(a.items(), b.items());
        }
        for (a, b) in dom.items.iter().zip(&streamed.items) {
            assert_eq!(a.raw, b.raw);
            assert_eq!(a.fingerprint, b.fingerprint);
            let av: Vec<_> = a.vector.iter().collect();
            let bv: Vec<_> = b.vector.iter().collect();
            assert_eq!(av, bv, "item {:?}", a.raw);
        }
    }

    #[test]
    fn capped_documents_are_counted_on_both_paths() {
        // 2^8 = 256 tuples against a cap of 10.
        let mut doc = String::from("<r>");
        for g in 0..8 {
            doc.push_str(&format!("<g{g}>a</g{g}><g{g}>b</g{g}>"));
        }
        doc.push_str("</r>");
        let options = BuildOptions {
            limits: TupleLimits {
                max_tuples_per_tree: 10,
            },
            ..BuildOptions::default()
        };

        let mut dom = DatasetBuilder::new(options.clone());
        dom.add_xml(&doc).expect("valid xml");
        assert_eq!(dom.capped_documents(), 1);

        let mut streamed = DatasetBuilder::new(options);
        let stats = streamed.ingest_stream(doc.as_bytes()).expect("valid");
        assert_eq!(stats.capped_documents, 1);
        assert_eq!(streamed.capped_documents(), 1);
    }
}
