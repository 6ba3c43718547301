//! The one snapshot codec under hostile cuts: a saved `.cxkds` dataset and
//! a `.cxkmodel` model, both of the repository's `samples/` corpus, are
//! cut at every byte of their payload and resealed with a valid checksum,
//! so each cut reaches the payload decoder; every one must be refused
//! without a panic. Each loader also refuses the other's file by its magic.

use cxk_core::{load_model, save_model, EngineBuilder, TrainedModel};
use cxk_transact::persist::{checksum, SnapshotError};
use cxk_transact::{load_dataset, save_dataset, BuildOptions, Dataset, DatasetBuilder};
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

fn samples_model(ds: &Dataset) -> TrainedModel {
    EngineBuilder::new(3)
        .similarity(0.5, 0.5)
        .seed(3)
        .build()
        .expect("valid config")
        .fit(ds)
        .expect("fit succeeds")
        .into_model(ds, BuildOptions::default())
}

/// `payload` followed by its checksum: a snapshot whose envelope holds.
fn sealed(payload: &[u8]) -> Vec<u8> {
    let mut bytes = payload.to_vec();
    bytes.extend_from_slice(&checksum(payload).to_le_bytes());
    bytes
}

/// Loads `bytes` whole, then every cut of its payload resealed: the first
/// must succeed and every cut must be refused.
fn assert_every_cut_is_refused<T>(bytes: &[u8], load: impl Fn(&[u8]) -> Result<T, SnapshotError>) {
    let payload = &bytes[..bytes.len() - 8];
    assert_eq!(sealed(payload), bytes);
    assert!(load(bytes).is_ok(), "the uncut file loads");
    for len in 0..payload.len() {
        assert!(
            load(&sealed(&payload[..len])).is_err(),
            "a payload cut to {len} of {} bytes loaded",
            payload.len()
        );
    }
}

#[test]
fn every_cut_of_a_samples_dataset_is_refused() {
    let bytes = save_dataset(&samples_dataset());
    assert_every_cut_is_refused(&bytes, load_dataset);
}

#[test]
fn every_cut_of_a_samples_model_is_refused() {
    let model = samples_model(&samples_dataset());
    assert_eq!(model.k(), 3);
    assert_every_cut_is_refused(&save_model(&model), load_model);
}

#[test]
fn each_loader_refuses_the_others_file_by_its_magic() {
    let ds = samples_dataset();
    let model = samples_model(&ds);
    let e = load_model(&save_dataset(&ds)).unwrap_err();
    assert_eq!(
        e.to_string(),
        "model load error at byte 0: bad magic (not a .cxkmodel snapshot)"
    );
    let e = load_dataset(&save_model(&model)).unwrap_err();
    assert_eq!(
        e.to_string(),
        "dataset load error at byte 0: bad magic (not a .cxkds snapshot)"
    );
}
