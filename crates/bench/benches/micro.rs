//! Criterion micro-benchmarks for the pipeline stages: parsing, tree-tuple
//! extraction (the DOM oracle's numbers), the document pipeline every
//! production path reads documents through, the similarity kernels
//! (Eqs. 1-4), scoring a tuple against k representatives and
//! representative computation.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use cxk_bench::data::prepare_dblp_dialects;
use cxk_bench::{prepare, CorpusKind};
use cxk_core::{compute_local_representative, rep::prepare_representatives, EngineBuilder};
use cxk_corpus::dblp::{generate, DblpConfig};
use cxk_transact::txsim::{
    gamma_shared, sim_gamma_j, sim_gamma_j_prepared, sim_gamma_j_reference, PreparedSlab,
    ScoreScratch,
};
use cxk_transact::{
    pathsim, BuildOptions, DatasetBuilder, DocumentPipeline, ItemId, ItemWeights, SimParams, Terms,
};
use cxk_util::{FxHashMap, Interner};
use cxk_xml::{
    count_tree_tuples, extract_document, extract_tree_tuples, parse_document, ParseOptions,
    TupleLimits,
};

fn bench_parser(c: &mut Criterion) {
    let corpus = generate(&DblpConfig {
        documents: 50,
        seed: 1,
        dialects: 1,
    });
    let docs = corpus.documents;
    let total_bytes: usize = docs.iter().map(String::len).sum();
    let mut group = c.benchmark_group("parser");
    group.throughput(criterion::Throughput::Bytes(total_bytes as u64));
    group.bench_function("parse_50_dblp_docs", |b| {
        b.iter(|| {
            let mut interner = Interner::new();
            let options = ParseOptions::default();
            for doc in &docs {
                black_box(parse_document(doc, &mut interner, &options).unwrap());
            }
        })
    });
    group.finish();
}

fn bench_tuple_extraction(c: &mut Criterion) {
    let corpus = generate(&DblpConfig {
        documents: 50,
        seed: 2,
        dialects: 1,
    });
    let mut interner = Interner::new();
    let trees: Vec<_> = corpus
        .documents
        .iter()
        .map(|d| parse_document(d, &mut interner, &ParseOptions::default()).unwrap())
        .collect();
    c.bench_function("tuple_extraction_50_docs", |b| {
        b.iter(|| {
            let limits = TupleLimits::default();
            for tree in &trees {
                black_box(extract_tree_tuples(tree, &limits));
            }
        })
    });
    c.bench_function("tuple_counting_50_docs", |b| {
        b.iter(|| {
            for tree in &trees {
                black_box(count_tree_tuples(tree));
            }
        })
    });
}

/// The document pipeline over DBLP documents in three dialects, in
/// documents per second: SAX extraction alone, then the whole pipeline
/// (extraction, preprocessing, `ttf.itf` weighting) in serving mode —
/// statistics frozen at a trained collection's, each document its own
/// averaging scope — and in training mode: `DatasetBuilder`, every
/// document joining live statistics, weighted as one collection.
fn bench_document_pipeline(c: &mut Criterion) {
    let model = prepare_dblp_dialects(0.3, 7, 3).dataset;
    let docs = generate(&DblpConfig {
        documents: 50,
        seed: 8,
        dialects: 3,
    })
    .documents;
    let options = BuildOptions::default();

    let mut group = c.benchmark_group("document_pipeline_50_dblp_docs");
    group.throughput(Throughput::Elements(docs.len() as u64));
    // A warm serving session's tables: the model's labels and paths, grown
    // by the first iteration's unseen markup, and its vocabulary, read as
    // is.
    let (mut labels, mut paths) = (model.labels.clone(), model.paths.clone());
    group.bench_function("sax_extract", |b| {
        b.iter(|| {
            for doc in &docs {
                black_box(
                    extract_document(doc, &mut labels, &options.parse, &options.limits)
                        .expect("valid document"),
                );
            }
        })
    });
    group.bench_function("serving", |b| {
        b.iter(|| {
            let mut pipeline = DocumentPipeline {
                options: &options,
                labels: &mut labels,
                paths: &mut paths,
                terms: Terms::Frozen(&model.vocabulary),
            };
            for doc in &docs {
                let parsed = pipeline.parse(doc).expect("valid document");
                let mut domain = FxHashMap::default();
                let mut weights = ItemWeights::default();
                let tuples = parsed.weigh(&model.term_stats, &mut weights, |leaf| {
                    let next = ItemId(domain.len() as u32);
                    *domain.entry(leaf.key()).or_insert(next)
                });
                black_box((tuples, weights.into_vectors().count()));
            }
        })
    });
    group.bench_function("training", |b| {
        b.iter(|| {
            let mut builder = DatasetBuilder::new(BuildOptions::default());
            for doc in &docs {
                builder.add_xml(doc).expect("valid document");
            }
            black_box(builder.finish())
        })
    });
    group.finish();
}

fn bench_path_similarity(c: &mut Criterion) {
    let mut interner = Interner::new();
    let p1: Vec<_> = ["dblp", "inproceedings", "author"]
        .iter()
        .map(|t| interner.intern(t))
        .collect();
    let p2: Vec<_> = ["dblp", "article", "section", "author"]
        .iter()
        .map(|t| interner.intern(t))
        .collect();
    c.bench_function("tag_path_similarity", |b| {
        b.iter(|| black_box(pathsim::tag_path_similarity(&p1, &p2)))
    });
}

fn bench_transaction_similarity(c: &mut Criterion) {
    let p = prepare(CorpusKind::Dblp, 0.2, 3);
    let ctx = p.dataset.sim_ctx(SimParams::new(0.5, 0.6));
    let a = p.dataset.views(&p.dataset.transactions[0]);
    let z = p.dataset.views(p.dataset.transactions.last().unwrap());
    c.bench_function("sim_gamma_j", |b| {
        b.iter(|| black_box(sim_gamma_j(&ctx, &a, &z)))
    });
    c.bench_function("sim_gamma_j_reference", |b| {
        b.iter(|| black_box(sim_gamma_j_reference(&ctx, &a, &z)))
    });
    c.bench_function("gamma_shared", |b| {
        b.iter(|| black_box(gamma_shared(&ctx, &a, &z)))
    });
}

/// One tuple scored against k trained representatives — the inner loop of
/// every assignment — by the reference definition (`gamma_shared` +
/// `union_size` over borrowed views) and by the prepared kernel (the tuple
/// prepared once, the representatives once per model). The model is
/// trained the way the serving benchmark's are (three markup dialects,
/// f = 0.5, γ = 0.4). Reported as representatives scored per second.
fn bench_tuple_vs_representatives(c: &mut Criterion) {
    let corpus = generate(&DblpConfig {
        documents: 300,
        seed: 6,
        dialects: 3,
    });
    let mut builder = DatasetBuilder::new(BuildOptions::default());
    for doc in &corpus.documents {
        builder.add_xml(doc).expect("valid document");
    }
    let ds = &builder.finish();
    let model = EngineBuilder::new(16)
        .similarity(0.5, 0.4)
        .seed(6)
        .build()
        .expect("valid config")
        .fit(ds)
        .expect("fit succeeds")
        .into_model(ds, BuildOptions::default());
    let reps: Vec<_> = model
        .reps
        .iter()
        .filter(|r| !r.is_empty())
        .cloned()
        .collect();
    let ctx = ds.sim_ctx(model.params);
    let tuples: Vec<_> = ds
        .transactions
        .iter()
        .take(16)
        .map(|t| ds.views(t))
        .collect();
    let rep_views: Vec<_> = reps.iter().map(|r| r.views()).collect();
    let prepared = prepare_representatives(ctx.tag_sim, &reps);
    let scored = (tuples.len() * reps.len()) as u64;

    let mut group = c.benchmark_group(format!("score_tuple_vs_k{}", reps.len()));
    group.throughput(Throughput::Elements(scored));
    group.bench_function("reference", |b| {
        b.iter(|| {
            let mut total = 0.0;
            for tuple in &tuples {
                for rep in &rep_views {
                    total += sim_gamma_j_reference(&ctx, tuple, rep);
                }
            }
            black_box(total)
        })
    });
    let mut query = PreparedSlab::new();
    let mut scratch = ScoreScratch::default();
    group.bench_function("prepared", |b| {
        b.iter(|| {
            let mut total = 0.0;
            for tuple in &tuples {
                query.clear();
                query.push(ctx.tag_sim, tuple.iter().copied());
                if let Some(q) = query.get(0) {
                    for rep in prepared.iter() {
                        total += sim_gamma_j_prepared(&ctx, q, rep, &mut scratch);
                    }
                }
            }
            black_box(total)
        })
    });
    group.finish();
}

fn bench_local_representative(c: &mut Criterion) {
    let p = prepare(CorpusKind::Dblp, 0.2, 4);
    let ctx = p.dataset.sim_ctx(SimParams::new(0.5, 0.6));
    let cluster: Vec<usize> = (0..40.min(p.dataset.stats.transactions)).collect();
    c.bench_function("compute_local_representative_40tx", |b| {
        b.iter(|| {
            let mut work = 0u64;
            black_box(compute_local_representative(
                &p.dataset, &ctx, &cluster, &mut work,
            ))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_parser, bench_tuple_extraction, bench_document_pipeline,
              bench_path_similarity,
              bench_transaction_similarity, bench_tuple_vs_representatives,
              bench_local_representative
}
criterion_main!(benches);
