//! A serving session reads the model's vocabulary in place and copies its
//! label and path tables as a few buffers: building one costs the same
//! however many terms, labels and paths the model knows, and so does
//! decoding a snapshot. A warm session that keeps meeting words or tags
//! the model never saw keeps its live heap flat while answering exactly
//! like a fresh one.
//!
//! A counting global allocator tallies allocations and live bytes made by
//! the current thread (thread-local counters, so the test harness's other
//! threads do not interfere); nothing under test spawns a thread.

use cxk_core::{load_model, save_model, CxkConfig, EngineBuilder, TrainedModel};
use cxk_p2p::WireCodec;
use cxk_serve::remote::ShardMsg;
use cxk_serve::{Classifier, ShardedClassifier, ShardedEngine, TreeClassifier};
use cxk_serve::{TreeConfig, TreeEngine};
use cxk_transact::{BuildOptions, DatasetBuilder, SimParams};
use cxk_util::Symbol;
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

/// Document `i`: the samples' DBLP markup and topical words under a tag
/// no model has seen. Every document has the same shape and tag lengths.
fn fresh_tag_doc(i: usize) -> String {
    format!(
        r#"<dblp><inproceedings key="conf/kdd/{i:05}"><author>A. Miner</author><title>mining frequent patterns and clustering of transactional itemsets</title><note{i:05}>clustering</note{i:05}><booktitle>KDD</booktitle></inproceedings></dblp>"#
    )
}

/// Entries [`padded`] adds to each of a model's tables.
const PADDING: usize = 10_000;

/// `model` with [`PADDING`] extra terms, labels and paths that no
/// representative refers to.
fn padded(model: &TrainedModel) -> TrainedModel {
    let mut padded = model.clone();
    for i in 0..PADDING {
        padded.vocabulary.intern(&format!("padding{i}"));
        let label = padded.labels.intern(&format!("padding{i}"));
        padded.paths.intern(&[Symbol(0), label]);
    }
    assert_eq!(padded.vocabulary.len(), model.vocabulary.len() + PADDING);
    assert_eq!(padded.labels.len(), model.labels.len() + PADDING);
    assert_eq!(padded.paths.len(), model.paths.len() + PADDING);
    padded
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
    let padded = Arc::new(padded(&model));

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
fn load_model_does_not_depend_on_the_tables() {
    let model = model();
    let (plain, padded) = (save_model(&model), save_model(&padded(&model)));
    let loads = |bytes: &[u8]| allocations_of(|| load_model(bytes).expect("valid snapshot"));
    let (plain, padded) = (loads(&plain), loads(&padded));
    assert!(
        padded <= plain + 8,
        "load_model allocated {plain} times, and {padded} times with {PADDING} more terms, \
         labels and paths"
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

#[test]
fn fresh_tags_leave_a_warm_session_flat() {
    let engine = Arc::new(ShardedEngine::build(Arc::new(model()), 1));
    let mut warm = ShardedClassifier::new(Arc::clone(&engine));
    let mut after_100 = None;
    for i in 0..10_000 {
        if i == 100 {
            after_100 = Some(live_bytes());
        }
        let xml = fresh_tag_doc(i);
        let answer = warm.classify(&xml).expect("valid document");
        let fresh = ShardedClassifier::new(Arc::clone(&engine))
            .classify(&xml)
            .expect("valid document");
        assert_eq!(answer, fresh, "document {i}");
    }
    let after_100 = after_100.expect("more than 100 documents");
    assert!(
        live_bytes() <= after_100,
        "live heap grew from {after_100} to {} bytes over 9,900 documents of fresh tags",
        live_bytes()
    );
}

#[test]
fn a_hostile_shard_frame_is_refused_before_anything_is_sized() {
    // A `Scatter` (tag 2, sequence number, brute byte) that declares
    // u32::MAX tuples and carries 64 bytes.
    let mut frame = vec![2];
    frame.extend_from_slice(&7u64.to_le_bytes());
    frame.push(0);
    frame.extend_from_slice(&u32::MAX.to_le_bytes());
    frame.extend_from_slice(&[0; 64]);
    let mut decoded = None;
    let made = allocations_of(|| decoded = Some(ShardMsg::decode(&frame)));
    assert_eq!(decoded, Some(None));
    assert_eq!(made, 0, "decoding the frame allocated");
}

/// Heap allocations of one warm `Classifier::classify` of
/// `samples/mining6.xml` before extraction reused its buffers: 268, in
/// debug and release builds alike (SAX events, one `String` per tag, text
/// run and token, a map per element, tuple and item). Since then: 4 (the
/// answer's tuple assignments and per-cluster totals, and a `Vec` of item
/// views that grows once).
const WARM_CLASSIFY_BEFORE: u64 = 268;

#[test]
fn a_warm_classify_allocates_at_most_half_as_often() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../samples/mining6.xml");
    let xml = std::fs::read_to_string(path).expect("sample");
    let mut classifier = Classifier::shared(Arc::new(model()));
    let cold = classifier.classify(&xml).expect("valid document");
    let made = allocations_of(|| classifier.classify(&xml).expect("valid document"));
    println!("a warm classify of mining6.xml allocated {made} times");
    assert!(
        made <= WARM_CLASSIFY_BEFORE / 2,
        "a warm classify allocated {made} times (before: {WARM_CLASSIFY_BEFORE})"
    );
    assert_eq!(classifier.classify(&xml).expect("valid document"), cold);
}
