//! Direct replay: the workload's own model and stream, on one thread, with
//! a span around each call into a crate's public functions.
//!
//! This is where the per-layer numbers of a traced run come from. Every
//! timed call is made in [`ReplayInput::passes`] passes after one warm-up
//! pass whose spans are discarded, and each metric is the mean over the
//! kept spans.

use crate::suite::stats::median;
use crate::suite::trace::Trace;
use crate::suite::Metric;
use cxk_core::{load_model_file, TrainedModel};
use cxk_serve::{Classifier, ShardedClassifier, ShardedEngine, TagPathIndex, TreeClassifier};
use cxk_serve::{TreeConfig, TreeEngine};
use cxk_text::preprocess;
use cxk_transact::txsim::sim_gamma_j;
use cxk_transact::{BuildOptions, DatasetBuilder, TagPathSimTable};
use cxk_xml::sax::StreamingTupleExtractor;
use cxk_xml::{count_tree_tuples, extract_tree_tuples, parse_document};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Repetitions of each build-type call.
const BUILDS: usize = 5;
/// Training transactions scored against every representative to time
/// `sim_gamma_j`.
const SIMGJ_TRANSACTIONS: usize = 200;
/// Shards of the layout comparison.
const SHARDS: usize = 2;

/// Everything the replay needs.
pub struct ReplayInput<'a> {
    /// The boot model, as the server loaded it.
    pub model: &'a Arc<TrainedModel>,
    /// Its snapshot file.
    pub model_path: &'a Path,
    /// The training documents (for `sim_gamma_j` on real transactions).
    pub train_docs: &'a [String],
    /// The serving stream.
    pub stream: &'a [String],
    /// Brute-force clusters of the stream under the boot model.
    pub brute: &'a [u32],
    /// Timed passes over the stream per measured call.
    pub passes: usize,
}

/// Runs the replay, recording spans into `trace`, and returns the
/// per-layer metrics it measured.
pub fn run(input: &ReplayInput<'_>, trace: &mut Trace) -> std::io::Result<Vec<Metric>> {
    let ReplayInput {
        model,
        model_path,
        train_docs,
        stream,
        brute,
        passes,
    } = *input;
    let k = model.k();
    let mut warm = Trace::new(Instant::now());
    let root = trace.open("replay", 0);
    let mut out = Vec::new();

    // cxk_core: loading the snapshot the server boots from; cxk_serve::slot:
    // what a worker pays on its first request after a swap; cxk_serve::index
    // and cxk_transact: the other per-epoch builds.
    let rep_paths = model.rep_tag_paths();
    let mut postings = 0;
    for i in 0..BUILDS as u64 {
        let loaded = trace.time("core.load_model", root, i, || load_model_file(model_path));
        black_box(loaded.map_err(invalid)?);
        black_box(trace.time("slot.rebuild", root, i, || {
            Classifier::shared(Arc::clone(model))
        }));
        let index = trace.time("index.build", root, i, || {
            TagPathIndex::build(&model.reps, &model.paths, model.params)
        });
        postings = index.postings_bytes();
        black_box(trace.time("transact.tagsim_build", root, i, || {
            TagPathSimTable::build(&rep_paths, &model.paths)
        }));
    }
    out.push(Metric::new(
        "core.load_model_ms",
        trace.mean_us("core.load_model") / 1e3,
        "ms",
    ));
    out.push(Metric::new(
        "core.model_bytes",
        std::fs::metadata(model_path)?.len() as f64,
        "bytes",
    ));
    out.push(Metric::new(
        "slot.rebuild_us",
        trace.mean_us("slot.rebuild"),
        "us",
    ));
    out.push(Metric::new(
        "index.build_us",
        trace.mean_us("index.build"),
        "us",
    ));
    out.push(Metric::new(
        "index.postings_bytes",
        postings as f64,
        "bytes",
    ));
    out.push(Metric::new(
        "transact.tagsim_build_us",
        trace.mean_us("transact.tagsim_build"),
        "us",
    ));

    // cxk_serve::classify: the whole document, indexed and brute force.
    let mut classifier = Classifier::shared(Arc::clone(model));
    let plain_pass = |classifier: &mut Classifier| -> std::io::Result<f64> {
        let started = Instant::now();
        for doc in stream {
            black_box(classifier.classify(doc).map_err(invalid)?);
        }
        Ok(started.elapsed().as_secs_f64())
    };
    plain_pass(&mut classifier)?;
    let (mut tuples, mut candidates, mut docs) = (0usize, 0usize, 0usize);
    let (mut traced_passes, mut plain_passes) = (Vec::new(), Vec::new());
    for _ in 0..passes {
        let started = Instant::now();
        let span = trace.open("replay.classify", root);
        for (i, doc) in stream.iter().enumerate() {
            let report = trace
                .time("classify.doc", span, i as u64, || classifier.classify(doc))
                .map_err(invalid)?;
            docs += 1;
            tuples += report.tuples.len();
            candidates += report.tuples.iter().map(|t| t.candidates).sum::<usize>();
        }
        trace.close(span);
        traced_passes.push(started.elapsed().as_secs_f64());
        // The same pass without a span per call: what recording spans costs.
        plain_passes.push(plain_pass(&mut classifier)?);
    }
    let (traced, plain) = (median(&traced_passes), median(&plain_passes));
    out.push(Metric::new(
        "trace.overhead_pct",
        (traced - plain) / plain * 100.0,
        "%",
    ));
    for pass in 0..=passes {
        let t = if pass == 0 { &mut warm } else { &mut *trace };
        let span = t.open("replay.brute", root);
        for (i, doc) in stream.iter().enumerate() {
            let brute = t.time("classify.brute_doc", span, i as u64, || {
                classifier.classify_brute(doc)
            });
            black_box(brute.map_err(invalid)?);
        }
        t.close(span);
    }
    let tuples_per_doc = tuples as f64 / docs.max(1) as f64;
    let candidates_per_tuple = candidates as f64 / tuples.max(1) as f64;
    let doc_us = trace.mean_us("classify.doc");
    out.push(Metric::new("classify.doc_us", doc_us, "us"));
    out.push(Metric::new(
        "classify.brute_doc_us",
        trace.mean_us("classify.brute_doc"),
        "us",
    ));
    out.push(Metric::new(
        "classify.tuples_per_doc",
        tuples_per_doc,
        "count",
    ));
    out.push(Metric::new(
        "classify.candidates_per_tuple",
        candidates_per_tuple,
        "count",
    ));
    out.push(Metric::new(
        "classify.prune_ratio",
        candidates_per_tuple / k as f64,
        "ratio",
    ));

    // cxk_xml and cxk_text: the stages inside a classify call, against
    // private copies of the model's interners (as a worker session does).
    let build = &model.build;
    let mut labels = model.labels.clone();
    let mut vocabulary = model.vocabulary.clone();
    for pass in 0..=passes {
        let t = if pass == 0 { &mut warm } else { &mut *trace };
        let span = t.open("replay.stages", root);
        for (i, doc) in stream.iter().enumerate() {
            let req = i as u64;
            let tree = t
                .time("xml.parse", span, req, || {
                    parse_document(doc, &mut labels, &build.parse)
                })
                .map_err(invalid)?;
            black_box(t.time("xml.tuples", span, req, || {
                let capped = count_tree_tuples(&tree) > build.limits.max_tuples_per_tree as u64;
                (capped, extract_tree_tuples(&tree, &build.limits))
            }));
            black_box(t.time("text.preprocess", span, req, || {
                tree.leaves()
                    .map(|leaf| {
                        let raw = tree.node(leaf).value().unwrap_or_default();
                        preprocess(raw, &mut vocabulary, &build.pipeline).len()
                    })
                    .sum::<usize>()
            }));
            let sax = t.time("xml.sax", span, req, || {
                StreamingTupleExtractor::new(doc.as_bytes(), build.parse.clone(), build.limits)
                    .next_document(&mut labels)
            });
            black_box(sax.map_err(invalid)?);
        }
        t.close(span);
    }
    let parse_us = trace.mean_us("xml.parse");
    let tuples_us = trace.mean_us("xml.tuples");
    let preprocess_us = trace.mean_us("text.preprocess");
    out.push(Metric::new("xml.parse_us", parse_us, "us"));
    out.push(Metric::new("xml.tuples_us", tuples_us, "us"));
    out.push(Metric::new("xml.sax_us", trace.mean_us("xml.sax"), "us"));
    out.push(Metric::new("text.preprocess_us", preprocess_us, "us"));

    // cxk_transact: one sim_gamma_j call, on real transactions of the
    // training corpus against every representative. The rebuilt dataset
    // interns exactly as the trainer's did, so its path ids are the
    // model's.
    let mut builder = DatasetBuilder::new(BuildOptions::default());
    for doc in train_docs {
        builder.add_xml(doc).map_err(invalid)?;
    }
    let ds = builder.finish();
    let ctx = ds.sim_ctx(model.params);
    let rep_views: Vec<_> = model.reps.iter().map(|r| r.views()).collect();
    let sample: Vec<_> = ds
        .transactions
        .iter()
        .take(SIMGJ_TRANSACTIONS)
        .map(|tr| ds.views(tr))
        .collect();
    for pass in 0..=passes {
        let t = if pass == 0 { &mut warm } else { &mut *trace };
        let span = t.open("replay.simgj", root);
        for (i, views) in sample.iter().enumerate() {
            black_box(t.time("transact.simgj_k", span, i as u64, || {
                rep_views
                    .iter()
                    .map(|rep| sim_gamma_j(&ctx, views, rep))
                    .sum::<f64>()
            }));
        }
        t.close(span);
    }
    let simgj_ns = trace.mean_us("transact.simgj_k") * 1e3 / k as f64;
    out.push(Metric::new("transact.simgj_ns", simgj_ns, "ns"));
    let scoring_us = tuples_per_doc * candidates_per_tuple * simgj_ns / 1e3;
    out.push(Metric::new(
        "classify.residual_us",
        doc_us - parse_us - tuples_us - preprocess_us - scoring_us,
        "us",
    ));

    // cxk_serve::tree and cxk_serve::shard: the alternative layouts on
    // the same model and stream. The tree's counters run from its build,
    // so they cover the warm-up pass too; its ratios are per tuple.
    let mut tree_engine = None;
    for i in 0..BUILDS as u64 {
        tree_engine = Some(trace.time("tree.build", root, i, || {
            Arc::new(TreeEngine::build(Arc::clone(model), TreeConfig::default()))
        }));
    }
    let tree_engine = tree_engine.expect("BUILDS > 0");
    let mut tree = TreeClassifier::new(Arc::clone(&tree_engine));
    let shard_engine = Arc::new(ShardedEngine::build(Arc::clone(model), SHARDS));
    let mut sharded = ShardedClassifier::new(shard_engine);
    let mut agree = 0usize;
    for pass in 0..=passes {
        let t = if pass == 0 { &mut warm } else { &mut *trace };
        let span = t.open("replay.layouts", root);
        for (i, doc) in stream.iter().enumerate() {
            let report = t
                .time("tree.doc", span, i as u64, || tree.classify(doc))
                .map_err(invalid)?;
            if pass == 0 {
                agree += usize::from(report.cluster == brute[i]);
            }
            let report = t
                .time("shard.doc", span, i as u64, || sharded.classify(doc))
                .map_err(invalid)?;
            if report.cluster != brute[i] {
                return Err(invalid(format!(
                    "sharded classification of stream document {i} disagrees with brute force"
                )));
            }
        }
        t.close(span);
    }
    let stats = tree_engine.stats();
    let tree_tuples = stats.tuples.max(1) as f64;
    out.push(Metric::new(
        "tree.build_us",
        trace.mean_us("tree.build"),
        "us",
    ));
    out.push(Metric::new("tree.doc_us", trace.mean_us("tree.doc"), "us"));
    out.push(Metric::new(
        "tree.reps_per_tuple",
        stats.reps_scored as f64 / tree_tuples,
        "count",
    ));
    out.push(Metric::new(
        "tree.nodes_per_tuple",
        stats.nodes_visited as f64 / tree_tuples,
        "count",
    ));
    out.push(Metric::new(
        "tree.agreement",
        agree as f64 / stream.len().max(1) as f64,
        "ratio",
    ));
    out.push(Metric::new(
        "shard.doc_us",
        trace.mean_us("shard.doc"),
        "us",
    ));
    trace.close(root);
    Ok(out)
}

fn invalid(e: impl ToString) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
}
