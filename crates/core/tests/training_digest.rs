//! Training output pinned to the byte: the `.cxkmodel` snapshot digest of
//! fixed training runs on the repository's `samples/` corpus (and on a
//! small synthetic DBLP corpus, where relocations and inner passes do
//! real work) must equal the recorded values.
//!
//! Every assignment made while training is an argmax of `simγJ`, so any
//! change to how that similarity is computed — a prepared kernel, a
//! reordered sum, a different tie-break — shows up here as a different
//! model. The recorded digests were produced by the reference
//! `sim_gamma_j` arithmetic; a scoring change that keeps them is
//! bit-identical on these runs.

use cxk_core::{model::snapshot_digest, save_model, Backend, CxkConfig, EngineBuilder};
use cxk_corpus::dblp::{generate, DblpConfig};
use cxk_transact::{BuildOptions, Dataset, DatasetBuilder, SimParams};
use std::path::PathBuf;

/// Builds the dataset from the repository's `samples/` corpus.
fn samples_dataset() -> Dataset {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../samples");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("samples/ exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "xml"))
        .collect();
    files.sort();
    assert_eq!(files.len(), 12, "samples corpus");
    let mut builder = DatasetBuilder::new(BuildOptions::default());
    for file in &files {
        let text = std::fs::read_to_string(file).expect("readable sample");
        builder.add_xml(&text).expect("valid sample");
    }
    builder.finish()
}

/// A synthetic two-dialect DBLP corpus large enough for several rounds.
fn synthetic_dataset() -> Dataset {
    let corpus = generate(&DblpConfig {
        documents: 120,
        seed: 11,
        dialects: 2,
    });
    let mut builder = DatasetBuilder::new(BuildOptions::default());
    for doc in &corpus.documents {
        builder.add_xml(doc).expect("valid synthetic document");
    }
    builder.finish()
}

/// Trains `ds` and returns the digest of the saved snapshot.
fn digest(ds: &Dataset, k: usize, f: f64, gamma: f64, seed: u64, backend: Backend) -> u64 {
    let mut config = CxkConfig::new(k);
    config.params = SimParams::new(f, gamma);
    config.seed = seed;
    let model = EngineBuilder::from_cxk_config(&config)
        .backend(backend)
        .build()
        .expect("valid config")
        .fit(ds)
        .expect("fit succeeds")
        .into_model(ds, BuildOptions::default());
    let non_empty = model.reps.iter().filter(|r| !r.is_empty()).count();
    assert!(
        non_empty >= 2,
        "a degenerate model pins nothing: {non_empty} non-empty reps"
    );
    snapshot_digest(&save_model(&model)).expect("snapshot carries a digest")
}

#[test]
fn samples_centralized_model_bytes_are_pinned() {
    let ds = samples_dataset();
    let got = digest(&ds, 3, 0.5, 0.6, 3, Backend::Centralized);
    assert_eq!(got, 0x93b2_1619_d4fe_e581, "digest {got:#018x}");
}

#[test]
fn samples_simulated_p2p_model_bytes_are_pinned() {
    let ds = samples_dataset();
    let got = digest(&ds, 3, 0.5, 0.6, 3, Backend::SimulatedP2p { peers: 4 });
    assert_eq!(got, 0x5592_05ef_5cf0_7826, "digest {got:#018x}");
}

#[test]
fn synthetic_centralized_model_bytes_are_pinned() {
    let ds = synthetic_dataset();
    let got = digest(&ds, 8, 0.4, 0.7, 5, Backend::Centralized);
    assert_eq!(got, 0x3ee9_04e8_2315_735b, "digest {got:#018x}");
}

#[test]
fn synthetic_simulated_p2p_model_bytes_are_pinned() {
    let ds = synthetic_dataset();
    let got = digest(&ds, 8, 0.4, 0.7, 5, Backend::SimulatedP2p { peers: 4 });
    assert_eq!(got, 0xfeeb_8b00_57fe_a20d, "digest {got:#018x}");
}
