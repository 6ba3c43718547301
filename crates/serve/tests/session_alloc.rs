//! A serving session reads the model's vocabulary in place: building one
//! costs the same however many terms the model knows, and a warm session
//! that keeps meeting words the model never saw keeps its live heap flat
//! while answering exactly like a fresh one.
//!
//! A counting global allocator tallies allocations and live bytes made by
//! the current thread (thread-local counters, so the test harness's other
//! threads do not interfere); nothing under test spawns a thread.

use cxk_core::{CxkConfig, EngineBuilder, TrainedModel};
use cxk_serve::{Classifier, ShardedClassifier, ShardedEngine, TreeClassifier};
use cxk_serve::{TreeConfig, TreeEngine};
use cxk_transact::{BuildOptions, DatasetBuilder, SimParams};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;
use std::sync::Arc;

struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// Records one allocation of `grown` bytes net. `try_with`: the counters
/// may already be gone while a thread exits.
fn record(allocations: u64, grown: i64) {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + allocations));
    let _ = LIVE_BYTES.try_with(|n| n.set(n.get() + grown));
}

// SAFETY: every method forwards to the system allocator unchanged; the
// only addition is updating thread-local counters, which never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(1, layout.size() as i64);
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(1, layout.size() as i64);
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(1, new_size as i64 - layout.size() as i64);
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(0, -(layout.size() as i64));
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn live_bytes() -> i64 {
    LIVE_BYTES.with(Cell::get)
}

/// The k = 2 model of the repository's `samples/`.
fn model() -> TrainedModel {
    let samples = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../samples");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(samples)
        .expect("samples/")
        .map(|entry| entry.expect("entry").path())
        .collect();
    paths.sort();
    let mut builder = DatasetBuilder::new(BuildOptions::default());
    for path in paths {
        let xml = std::fs::read_to_string(path).expect("sample");
        builder.add_xml(&xml).expect("valid sample");
    }
    let ds = builder.finish();
    let mut config = CxkConfig::new(2);
    config.params = SimParams::new(0.5, 0.5);
    config.seed = 3;
    EngineBuilder::from_cxk_config(&config)
        .build()
        .expect("valid config")
        .fit(&ds)
        .expect("fit succeeds")
        .into_model(&ds, BuildOptions::default())
}

/// Document `i`: the samples' DBLP markup and topical words, plus words no
/// model has seen. Every document has the same shape and word lengths.
fn fresh_doc(i: usize) -> String {
    format!(
        r#"<dblp><inproceedings key="conf/kdd/{i:05}"><author>A. Miner</author><title>mining frequent patterns and clustering of transactional itemsets zq{i:05}a wv{i:05}b</title><year>2001</year><booktitle>KDD</booktitle></inproceedings></dblp>"#
    )
}

/// Allocations made while building a session with `build`.
fn allocations_of<T>(build: impl FnOnce() -> T) -> u64 {
    let before = allocations();
    let session = build();
    let made = allocations() - before;
    drop(session);
    made
}

#[test]
fn session_build_does_not_depend_on_the_vocabulary() {
    let model = Arc::new(model());
    let mut padded = (*model).clone();
    for i in 0..10_000 {
        padded.vocabulary.intern(&format!("padding{i}"));
    }
    let padded = Arc::new(padded);
    assert_eq!(padded.vocabulary.len(), model.vocabulary.len() + 10_000);

    let sharded = Arc::new(ShardedEngine::build(Arc::clone(&model), 2));
    let padded_sharded = Arc::new(ShardedEngine::build(Arc::clone(&padded), 2));
    assert_eq!(
        allocations_of(|| ShardedClassifier::new(Arc::clone(&sharded))),
        allocations_of(|| ShardedClassifier::new(Arc::clone(&padded_sharded))),
        "a session over the indexed engine"
    );
    let tree = Arc::new(TreeEngine::build(Arc::clone(&model), TreeConfig::default()));
    let padded_tree = Arc::new(TreeEngine::build(
        Arc::clone(&padded),
        TreeConfig::default(),
    ));
    assert_eq!(
        allocations_of(|| TreeClassifier::new(Arc::clone(&tree))),
        allocations_of(|| TreeClassifier::new(Arc::clone(&padded_tree))),
        "a session over the tree engine"
    );
    assert_eq!(
        allocations_of(|| Classifier::shared(Arc::clone(&model))),
        allocations_of(|| Classifier::shared(Arc::clone(&padded))),
        "the standalone classifier, engine included"
    );
}

#[test]
fn fresh_words_leave_a_warm_session_flat() {
    let engine = Arc::new(ShardedEngine::build(Arc::new(model()), 1));
    let mut warm = ShardedClassifier::new(Arc::clone(&engine));
    let mut after_100 = None;
    for i in 0..10_000 {
        if i == 100 {
            after_100 = Some(live_bytes());
        }
        let xml = fresh_doc(i);
        let answer = warm.classify(&xml).expect("valid document");
        let fresh = ShardedClassifier::new(Arc::clone(&engine))
            .classify(&xml)
            .expect("valid document");
        assert_eq!(answer, fresh, "document {i}");
        assert_ne!(answer.cluster, warm.trash_id(), "document {i}");
    }
    let after_100 = after_100.expect("more than 100 documents");
    assert!(
        live_bytes() <= after_100,
        "live heap grew from {after_100} to {} bytes over 9,900 documents of fresh words",
        live_bytes()
    );
}
