//! Property tests for the serving layer: snapshot round-trips on arbitrary
//! representatives, and index-vs-brute-force assignment equality on the
//! repository's `samples/` corpus.

use cxk_core::rep::{RepItem, Representative};
use cxk_core::{load_model, save_model, CxkConfig, EngineBuilder, TrainedModel};
use cxk_serve::Classifier;
use cxk_text::{SparseVec, TermStatsBuilder};
use cxk_transact::{BuildOptions, DatasetBuilder, SimParams};
use cxk_util::{Interner, Symbol};
use cxk_xml::path::{PathId, PathTable};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;

/// One generated representative item:
/// `(path_idx, tag_path_idx, vector pairs (term_idx, weight), fingerprint,
/// source)` — indices resolved against a fixture alphabet below.
type ItemSpec = (u8, u8, Vec<(u8, f64)>, u64, u32);

fn item_spec() -> impl Strategy<Value = ItemSpec> {
    (
        0u8..12,
        0u8..12,
        proptest::collection::vec((0u8..10, -3.0f64..3.0), 0..6),
        any::<u64>(),
        0u32..10,
    )
}

fn reps_spec() -> impl Strategy<Value = Vec<Vec<ItemSpec>>> {
    proptest::collection::vec(proptest::collection::vec(item_spec(), 0..5), 0..5)
}

/// Materializes a [`TrainedModel`] around generated representatives: a
/// fixed path/vocabulary alphabet plus the generated items.
fn model_from_spec(spec: &[Vec<ItemSpec>], f: f64, gamma: f64) -> TrainedModel {
    let mut labels = Interner::new();
    let mut paths = PathTable::new();
    // 12 paths over an 8-label alphabet, lengths 1..=3, some sharing labels.
    let specs: [&[usize]; 12] = [
        &[0],
        &[0, 1],
        &[0, 1, 2],
        &[0, 3, 2],
        &[3, 2],
        &[4],
        &[4, 5],
        &[4, 5, 6],
        &[6, 5, 4],
        &[7],
        &[7, 0],
        &[2, 2, 2],
    ];
    let path_ids: Vec<PathId> = specs
        .iter()
        .map(|spec| {
            let syms: Vec<Symbol> = spec
                .iter()
                .map(|&l| labels.intern(&format!("tag{l}")))
                .collect();
            paths.intern(&syms)
        })
        .collect();
    let mut vocabulary = Interner::new();
    for t in 0..10 {
        vocabulary.intern(&format!("term{t}"));
    }

    let reps: Vec<Representative> = spec
        .iter()
        .map(|items| Representative {
            items: items
                .iter()
                .map(|&(p, tp, ref pairs, fp, source)| RepItem {
                    path: path_ids[p as usize],
                    tag_path: path_ids[tp as usize],
                    vector: SparseVec::from_pairs(
                        pairs
                            .iter()
                            .map(|&(t, w)| (Symbol(u32::from(t)), w))
                            .collect(),
                    ),
                    fingerprint: fp,
                    source: (source % 3 != 0).then_some(cxk_transact::ItemId(source)),
                })
                .collect(),
        })
        .collect();

    TrainedModel {
        params: SimParams::new(f, gamma),
        build: BuildOptions::default(),
        labels,
        vocabulary,
        paths,
        reps,
        term_stats: TermStatsBuilder::from_parts(17, vec![3, 1, 4, 1, 5]),
        trained_documents: 12,
        trained_transactions: 34,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn snapshot_round_trips_arbitrary_representatives(
        spec in reps_spec(),
        f in 0.0f64..1.0,
        gamma in 0.0f64..1.0,
    ) {
        let model = model_from_spec(&spec, f, gamma);
        let bytes = save_model(&model);
        let loaded = load_model(&bytes).expect("snapshot loads");

        prop_assert_eq!(loaded.params, model.params);
        prop_assert_eq!(loaded.reps.len(), model.reps.len());
        for (a, b) in loaded.reps.iter().zip(&model.reps) {
            // Bit-exact: vectors, fingerprints, paths and provenance.
            prop_assert_eq!(&a.items, &b.items);
        }
        prop_assert_eq!(loaded.term_stats.total_tcus(), model.term_stats.total_tcus());
        prop_assert_eq!(loaded.term_stats.counts(), model.term_stats.counts());
        prop_assert_eq!(loaded.paths.len(), model.paths.len());
        for (id, path) in model.paths.iter() {
            prop_assert_eq!(loaded.paths.resolve(id), path);
        }
        for (sym, text) in model.labels.iter() {
            prop_assert_eq!(loaded.labels.resolve(sym), text);
        }
        for (sym, text) in model.vocabulary.iter() {
            prop_assert_eq!(loaded.vocabulary.resolve(sym), text);
        }
        prop_assert_eq!(loaded.trained_documents, model.trained_documents);
        prop_assert_eq!(loaded.trained_transactions, model.trained_transactions);

        // Serialization is deterministic: same model, same bytes.
        prop_assert_eq!(save_model(&loaded), bytes);
    }

    #[test]
    fn corrupting_any_byte_is_detected(spec in reps_spec(), offset_seed in 0u32..1000) {
        let model = model_from_spec(&spec, 0.5, 0.8);
        let mut bytes = save_model(&model);
        let offset = offset_seed as usize % bytes.len();
        bytes[offset] ^= 0x5A;
        // Either the checksum rejects it, or (for the checksum bytes
        // themselves) the mismatch against the payload does — a flipped
        // byte can never load silently.
        prop_assert!(load_model(&bytes).is_err());
    }
}

/// The repository's `samples/` corpus.
fn sample_docs() -> Vec<(String, String)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../samples");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("samples/ exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "xml"))
        .collect();
    files.sort();
    files
        .into_iter()
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            let text = std::fs::read_to_string(&p).expect("readable sample");
            (name, text)
        })
        .collect()
}

fn train_on_samples(k: usize, f: f64, gamma: f64) -> TrainedModel {
    let docs = sample_docs();
    assert_eq!(docs.len(), 12, "samples corpus");
    let mut builder = DatasetBuilder::new(BuildOptions::default());
    for (_, text) in &docs {
        builder.add_xml(text).expect("valid sample");
    }
    let ds = builder.finish();
    let mut config = CxkConfig::new(k);
    config.params = SimParams::new(f, gamma);
    config.seed = 1;
    EngineBuilder::from_cxk_config(&config)
        .build()
        .expect("valid sample config")
        .fit(&ds)
        .expect("fit succeeds")
        .into_model(&ds, BuildOptions::default())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The tentpole invariant: over the samples corpus and a grid of
    /// parameters, indexed assignment equals brute force bit-for-bit —
    /// cluster ids, similarities and scores.
    #[test]
    fn index_agrees_with_brute_force_on_samples(
        k in 1usize..5,
        f_step in 0u8..5,
        gamma_step in 0u8..5,
    ) {
        let f = f64::from(f_step) * 0.25;
        let gamma = f64::from(gamma_step) * 0.2 + 0.1;
        let model = train_on_samples(k, f, gamma);
        let mut indexed = Classifier::shared(Arc::new(model.clone()));
        let mut brute = Classifier::shared(Arc::new(model));
        let alien = r#"<recipes><recipe id="r1"><chef>Q. Cook</chef><dish>braised seitan stew</dish></recipe></recipes>"#;
        for (name, text) in sample_docs()
            .iter()
            .map(|(n, t)| (n.as_str(), t.as_str()))
            .chain([("alien", alien)])
        {
            let a = indexed.classify(text).expect("classify");
            let b = brute.classify_brute(text).expect("brute");
            prop_assert_eq!(a.cluster, b.cluster, "cluster for {}", name);
            prop_assert_eq!(a.score, b.score, "score for {}", name);
            prop_assert_eq!(a.tuples.len(), b.tuples.len());
            for (ta, tb) in a.tuples.iter().zip(&b.tuples) {
                prop_assert_eq!(ta.cluster, tb.cluster);
                prop_assert_eq!(ta.similarity, tb.similarity, "simγJ must be bit-identical");
                prop_assert!(ta.candidates <= tb.candidates, "index may only prune");
            }
        }
    }
}
