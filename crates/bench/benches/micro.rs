//! Criterion micro-benchmarks for the pipeline stages: parsing, tree-tuple
//! extraction (the DOM oracle's numbers), the document pipeline every
//! production path reads documents through, the similarity kernels
//! (Eqs. 1-4), scoring a tuple against k representatives,
//! representative computation, and the stages of a hot model swap.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use cxk_bench::data::prepare_dblp_dialects;
use cxk_bench::{prepare, CorpusKind};
use cxk_core::{
    compute_local_representative, load_model, rep::prepare_representatives, save_model, Backend,
    EngineBuilder,
};
use cxk_corpus::dblp::{generate, DblpConfig};
use cxk_serve::{Classifier, ShardedClassifier, ShardedEngine};
use cxk_text::{preprocess_known, Preprocessor};
use cxk_transact::txsim::{
    gamma_shared, sim_gamma_j, sim_gamma_j_prepared, sim_gamma_j_reference, PreparedSlab,
    ScoreScratch,
};
use cxk_transact::{pathsim, BuildOptions, DatasetBuilder, SimParams};
use cxk_util::Interner;
use cxk_xml::{
    count_tree_tuples, extract_document_into, extract_tree_tuples, parse_document,
    ExtractedDocument, ParseOptions, SaxScratch, TupleLimits,
};
use std::sync::Arc;

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
/// documents per second: SAX extraction alone, through buffers reused
/// from document to document as a serving session reuses them; `serving`,
/// a warm `Classifier` over a k = 16 model of the same dialects — the whole
/// in-process request: extraction, preprocessing through the token memo,
/// `ttf.itf` against the model's frozen statistics, scoring; and
/// `training`: `DatasetBuilder`, every document joining live statistics,
/// weighted as one collection. The `preprocess_50_dblp_docs` group times
/// the documents' TCUs through preprocessing alone: `preprocess_known`
/// (no memo), a cold token memo (a fresh `Preprocessor` per pass) and a
/// warm one.
fn bench_document_pipeline(c: &mut Criterion) {
    let ds = prepare_dblp_dialects(0.3, 7, 3).dataset;
    let model = EngineBuilder::new(16)
        .similarity(0.5, 0.4)
        .seed(7)
        .build()
        .expect("valid config")
        .fit(&ds)
        .expect("fit succeeds")
        .into_model(&ds, BuildOptions::default());
    let model = Arc::new(model);
    let docs = generate(&DblpConfig {
        documents: 50,
        seed: 8,
        dialects: 3,
    })
    .documents;
    let options = BuildOptions::default();

    let mut group = c.benchmark_group("document_pipeline_50_dblp_docs");
    group.throughput(Throughput::Elements(docs.len() as u64));
    // A warm session's labels: the model's, grown by the first iteration's
    // unseen markup.
    let mut labels = model.labels.clone();
    let (mut scratch, mut extracted) = (SaxScratch::default(), ExtractedDocument::default());
    group.bench_function("sax_extract", |b| {
        b.iter(|| {
            for doc in &docs {
                let (parse, limits) = (&options.parse, &options.limits);
                extract_document_into(
                    doc,
                    &mut labels,
                    parse,
                    limits,
                    &mut scratch,
                    &mut extracted,
                )
                .expect("valid document");
                black_box(extracted.tuples().len());
            }
        })
    });
    let mut classifier = Classifier::shared(Arc::clone(&model));
    group.bench_function("serving", |b| {
        b.iter(|| {
            for doc in &docs {
                black_box(classifier.classify(doc).expect("valid document"));
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

    let values: Vec<String> = docs
        .iter()
        .flat_map(|doc| {
            let (parse, limits) = (&options.parse, &options.limits);
            extract_document_into(
                doc,
                &mut labels,
                parse,
                limits,
                &mut scratch,
                &mut extracted,
            )
            .expect("valid document");
            extracted
                .leaves()
                .map(|leaf| leaf.value.to_string())
                .collect::<Vec<_>>()
        })
        .collect();
    let (vocabulary, pipeline) = (&model.vocabulary, &options.pipeline);
    let mut group = c.benchmark_group("preprocess_50_dblp_docs");
    group.throughput(Throughput::Elements(docs.len() as u64));
    group.bench_function("preprocess_known", |b| {
        b.iter(|| {
            for value in &values {
                black_box(preprocess_known(value, vocabulary, pipeline));
            }
        })
    });
    let mut terms = Vec::new();
    group.bench_function("cold_memo", |b| {
        b.iter(|| {
            let mut preprocessor = Preprocessor::default();
            for value in &values {
                terms.clear();
                preprocessor.known(value, vocabulary, pipeline, &mut terms);
                black_box(&terms);
            }
        })
    });
    let mut preprocessor = Preprocessor::default();
    group.bench_function("warm_memo", |b| {
        b.iter(|| {
            for value in &values {
                terms.clear();
                preprocessor.known(value, vocabulary, pipeline, &mut terms);
                black_box(&terms);
            }
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

/// The stages of a hot model swap on a snapshot of cxkbench serve-reload's
/// model A (1,000 DBLP documents in three dialects, k = 64, four simulated
/// peers, f = 0.5, γ = 0.4, engine seed 0xA): decoding the snapshot
/// (`load_model`), building the epoch's one-shard index with its `sim_S`
/// table (`ShardedEngine::build`), a worker's session over it
/// (`ShardedClassifier::new`), a fresh session plus its first document of
/// a 400-document stream (`first_classify`), and freeing the replaced
/// model.
fn bench_model_swap(c: &mut Criterion) {
    let docs = generate(&DblpConfig {
        documents: 1000,
        seed: 0xC0_12B5,
        dialects: 3,
    })
    .documents;
    let mut builder = DatasetBuilder::new(BuildOptions::default());
    for doc in &docs {
        builder.add_xml(doc).expect("valid document");
    }
    let ds = builder.finish();
    let model = EngineBuilder::new(64)
        .backend(Backend::SimulatedP2p { peers: 4 })
        .similarity(0.5, 0.4)
        .seed(0xA)
        .build()
        .expect("valid config")
        .fit(&ds)
        .expect("fit succeeds")
        .into_model(&ds, BuildOptions::default());
    let snapshot = save_model(&model);
    let load = || load_model(&snapshot).expect("valid snapshot");
    let model = Arc::new(load());
    let engine = Arc::new(ShardedEngine::build(Arc::clone(&model), 1));
    let stream = generate(&DblpConfig {
        documents: 400,
        seed: 0x5EED,
        dialects: 3,
    })
    .documents;

    let mut group = c.benchmark_group("model_swap_k64");
    group.bench_function("load_model", |b| {
        b.iter_batched(|| (), |()| load(), BatchSize::SmallInput)
    });
    group.bench_function("sharded_engine_build", |b| {
        b.iter_batched(
            || Arc::clone(&model),
            |model| ShardedEngine::build(model, 1),
            BatchSize::SmallInput,
        )
    });
    group.bench_function("classifier_new", |b| {
        b.iter_batched(
            || Arc::clone(&engine),
            ShardedClassifier::new,
            BatchSize::SmallInput,
        )
    });
    group.bench_function("first_classify", |b| {
        let mut docs = stream.iter().cycle();
        b.iter_batched(
            || {
                (
                    Arc::clone(&engine),
                    docs.next().expect("a non-empty stream"),
                )
            },
            |(engine, doc)| ShardedClassifier::new(engine).classify(doc),
            BatchSize::SmallInput,
        )
    });
    group.bench_function("drop_model", |b| {
        b.iter_batched(load, drop, BatchSize::SmallInput)
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_parser, bench_tuple_extraction, bench_document_pipeline,
              bench_path_similarity,
              bench_transaction_similarity, bench_tuple_vs_representatives,
              bench_local_representative, bench_model_swap
}
criterion_main!(benches);
