//! The frozen pipeline mode reads a trained collection's vocabulary
//! without growing it, and weighs every document exactly as interning its
//! unseen terms into a copy of that vocabulary did: an unseen term has
//! `n_{j,T} = 0`, weighs 0 and never reaches a vector.
//!
//! The documents are the repository's `samples/` and synthetic DBLP
//! documents in three markup dialects, each with fresh words appended to
//! every text node, under the default tuple limits and under a cap small
//! enough to truncate them.

use cxk_corpus::dblp::{generate, DblpConfig};
use cxk_text::{SparseVec, TermStatsBuilder};
use cxk_transact::{
    BuildOptions, Dataset, DatasetBuilder, DocumentPipeline, ItemId, ItemWeights, ParsedDocument,
    Terms,
};
use cxk_util::{FxHashMap, Interner};
use cxk_xml::path::PathTable;
use cxk_xml::TupleLimits;
use std::path::PathBuf;

fn collection() -> Dataset {
    let mut builder = DatasetBuilder::new(BuildOptions::default());
    let corpus = generate(&DblpConfig {
        documents: 120,
        seed: 5,
        dialects: 3,
    });
    for doc in &corpus.documents {
        builder.add_xml(doc).expect("valid document");
    }
    builder.finish()
}

/// The queries: `samples/` and unseen DBLP documents, with fresh words
/// appended to every text node.
fn queries() -> Vec<String> {
    let samples = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../samples");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(samples)
        .expect("samples/")
        .map(|entry| entry.expect("entry").path())
        .collect();
    paths.sort();
    let mut docs: Vec<String> = paths
        .iter()
        .map(|p| std::fs::read_to_string(p).expect("sample"))
        .collect();
    docs.extend(
        generate(&DblpConfig {
            documents: 60,
            seed: 6,
            dialects: 3,
        })
        .documents,
    );
    docs.iter()
        .enumerate()
        .map(|(i, doc)| doc.replace("</", &format!(" zqv{i}ork wubbl{i}ex clustering</")))
        .collect()
}

/// Parses `xml` into copies of `ds`'s labels and paths with `terms`, and
/// weighs it against `ds`'s statistics as one serving request.
fn read(
    ds: &Dataset,
    options: &BuildOptions,
    tables: &mut (Interner, PathTable),
    terms: Terms<'_>,
    xml: &str,
) -> (ParsedDocument, Vec<Vec<ItemId>>, Vec<SparseVec>) {
    let doc = DocumentPipeline {
        options,
        labels: &mut tables.0,
        paths: &mut tables.1,
        terms,
    }
    .parse(xml)
    .expect("valid document");
    let mut domain = FxHashMap::default();
    let mut weights = ItemWeights::default();
    let tuples = doc.weigh(&ds.term_stats, &mut weights, |leaf| {
        let next = ItemId(domain.len() as u32);
        *domain.entry(leaf.key()).or_insert(next)
    });
    let vectors = weights.into_vectors().collect();
    (doc, tuples, vectors)
}

fn bits(v: &SparseVec) -> Vec<(u32, u64)> {
    v.iter().map(|(t, w)| (t.0, w.to_bits())).collect()
}

#[test]
fn frozen_reads_equal_interning_into_a_copy() {
    let ds = collection();
    let docs = queries();
    let capped = BuildOptions {
        limits: TupleLimits {
            max_tuples_per_tree: 2,
        },
        ..BuildOptions::default()
    };
    let mut saw_capped = false;
    for options in [BuildOptions::default(), capped] {
        let model_terms = ds.vocabulary.len();
        let mut copy = ds.vocabulary.clone();
        let mut joined = TermStatsBuilder::new();
        let mut frozen_tables = (ds.labels.clone(), ds.paths.clone());
        let mut interned_tables = (ds.labels.clone(), ds.paths.clone());
        for xml in &docs {
            let (f_doc, f_tuples, f_vectors) = read(
                &ds,
                &options,
                &mut frozen_tables,
                Terms::Frozen(&ds.vocabulary),
                xml,
            );
            let (i_doc, i_tuples, i_vectors) = read(
                &ds,
                &options,
                &mut interned_tables,
                Terms::Join {
                    vocabulary: &mut copy,
                    stats: &mut joined,
                },
                xml,
            );
            assert_eq!(f_tuples, i_tuples, "{xml}");
            assert_eq!(f_doc.capped(), i_doc.capped(), "{xml}");
            saw_capped |= f_doc.capped();
            assert_eq!(f_vectors.len(), i_vectors.len(), "{xml}");
            for (f, i) in f_vectors.iter().zip(&i_vectors) {
                assert_eq!(bits(f), bits(i), "{xml}");
            }
            assert!(f_vectors.iter().any(|v| !v.is_empty()), "{xml}");
            for leaf in f_doc.leaves() {
                assert!(leaf.terms.iter().all(|t| t.index() < model_terms));
            }
        }
        assert_eq!(ds.vocabulary.len(), model_terms);
        assert!(
            copy.len() >= model_terms + 2 * docs.len(),
            "every document brought fresh words"
        );
    }
    assert!(saw_capped, "the small cap truncates some document");
}
