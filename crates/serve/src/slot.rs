//! The hot-reload seam: an epoch-versioned, atomically swappable model.
//!
//! A running server must be able to pick up a freshly trained model
//! without dropping a single request — the paper's collaborative protocol
//! assumes clustering is periodically re-run as the corpus evolves, and
//! the streaming refresh (`cxk_stream`) produces exactly such retrains.
//! The [`ModelSlot`] is the single swap point all workers share:
//!
//! * [`ModelSlot::swap`] installs a new [`TrainedModel`] under a short
//!   mutex and bumps the **epoch** (a monotonic `u64`, starting at 1 for
//!   the model the server booted with).
//! * [`ModelSlot::epoch`] is a lock-free atomic load — cheap enough for
//!   workers to poll once per connection.
//! * [`ModelSlot::current`] clones the `Arc` of the live
//!   [`EpochModel`] (epoch + model, immutable once published).
//!
//! An epoch publishes the model behind an `Arc` and — when the slot was
//! built with [`ModelSlot::with_shards`] — **one** shared
//! [`ShardedEngine`] over it: the whole worker pool scatters against the
//! same immutable shard set, so resident index memory is per-epoch, not
//! per-worker. The engine for the next epoch is built *before* the slot's
//! mutex is taken, so the critical section still only moves `Arc`s and a
//! swap never stalls concurrent readers behind an index build.
//!
//! Workers keep their own `(epoch, ClassifyEngine)` pair and lazily
//! rebuild their engine (a full classifier in replicated mode, a
//! lightweight session over the shared shard set in sharded mode) when
//! the polled epoch moves: an in-flight request always finishes on the
//! model it started with, the next request on that worker picks up the
//! new one, and no lock is held while classifying. A request's response
//! is therefore self-consistent with exactly one epoch — never a mix of
//! old and new representatives.

use crate::shard::ShardedEngine;
use crate::tree::{TreeConfig, TreeEngine};
use cxk_core::TrainedModel;
use cxk_transact::PreparedSlab;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// An immutable, epoch-stamped published model.
#[derive(Debug)]
pub struct EpochModel {
    /// Monotonic version: 1 for the boot model, +1 per successful swap.
    pub epoch: u64,
    /// The model published at this epoch, shared by every worker.
    pub model: Arc<TrainedModel>,
    /// The model's representatives prepared for the scoring kernel
    /// ([`TrainedModel::prepare_reps`]), shared by every replicated
    /// worker: a few KB, built once per epoch.
    pub reps: Arc<PreparedSlab>,
    /// The epoch's shared scatter/gather engine, when the slot was built
    /// with a shard count; `None` means workers replicate a full index
    /// each.
    pub sharded: Option<Arc<ShardedEngine>>,
    /// The epoch's shared representative tree, when the slot was built
    /// with a [`TreeConfig`]; like the sharded engine it is built
    /// off-lock per swap and shared by the whole pool.
    pub tree: Option<Arc<TreeEngine>>,
}

/// The shared swap point for hot model reload (see the module docs).
#[derive(Debug)]
pub struct ModelSlot {
    /// The live model. The mutex is held only to clone or replace the
    /// `Arc` — never while classifying or building an index.
    current: Mutex<Arc<EpochModel>>,
    /// Lock-free mirror of the live epoch, polled by workers. It may lag
    /// or lead the mutexed value by an instant during a swap; workers
    /// always take the authoritative epoch from [`ModelSlot::current`],
    /// so the mirror only ever costs a redundant (idempotent) rebuild.
    epoch: AtomicU64,
    /// Shard count every epoch's engine is built with; `None` = replicated.
    shards: Option<usize>,
    /// Tree shape every epoch's representative tree is built with;
    /// `None` = no tree.
    tree: Option<TreeConfig>,
}

impl ModelSlot {
    /// Publishes `model` as epoch 1 in replicated mode (each worker builds
    /// its own full index).
    pub fn new(model: TrainedModel) -> Self {
        Self::with_shards(model, None)
    }

    /// Publishes `model` as epoch 1; with `shards = Some(s)` every epoch
    /// carries one shared [`ShardedEngine`] partitioning the
    /// representatives across `s` shards.
    pub fn with_shards(model: TrainedModel, shards: Option<usize>) -> Self {
        Self::with_layout(model, shards, None)
    }

    /// Publishes `model` as epoch 1 under an explicit engine layout:
    /// a shard count, a [`TreeConfig`], or neither (replicated). The
    /// layouts are mutually exclusive by construction at the server
    /// level; if both are passed the sharded engine wins, matching
    /// [`crate::ClassifyEngine::for_epoch`] precedence.
    pub fn with_layout(
        model: TrainedModel,
        shards: Option<usize>,
        tree: Option<TreeConfig>,
    ) -> Self {
        Self {
            current: Mutex::new(Arc::new(Self::publish(model, shards, tree, 1))),
            epoch: AtomicU64::new(1),
            shards,
            tree,
        }
    }

    /// The shard count epochs are built with (`None` = replicated).
    pub fn shards(&self) -> Option<usize> {
        self.shards
    }

    /// The tree shape epochs are built with (`None` = no tree).
    pub fn tree(&self) -> Option<TreeConfig> {
        self.tree
    }

    /// The live epoch (lock-free).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// The live epoch-stamped model.
    pub fn current(&self) -> Arc<EpochModel> {
        Arc::clone(&self.lock())
    }

    /// Atomically publishes `model` as the next epoch and returns it.
    /// In-flight work on the previous model keeps its `Arc` alive until
    /// the last worker drops it. In sharded mode the new epoch's engine is
    /// built *before* the lock is taken.
    pub fn swap(&self, model: TrainedModel) -> u64 {
        // Build the (potentially expensive) derived state off-lock; only
        // the publish itself synchronizes.
        let staged = Self::publish(model, self.shards, self.tree, 0);
        let mut current = self.lock();
        let epoch = current.epoch + 1;
        *current = Arc::new(EpochModel { epoch, ..staged });
        self.epoch.store(epoch, Ordering::Release);
        epoch
    }

    /// Assembles an epoch: the `Arc`ed model plus — in sharded or tree
    /// mode — the one engine the pool will share.
    fn publish(
        model: TrainedModel,
        shards: Option<usize>,
        tree: Option<TreeConfig>,
        epoch: u64,
    ) -> EpochModel {
        let model = Arc::new(model);
        let reps = Arc::new(model.prepare_reps());
        let sharded = shards.map(|s| Arc::new(ShardedEngine::build(Arc::clone(&model), s)));
        let tree = tree.map(|cfg| Arc::new(TreeEngine::build(Arc::clone(&model), cfg)));
        EpochModel {
            epoch,
            model,
            reps,
            sharded,
            tree,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Arc<EpochModel>> {
        // A panic while holding this mutex is impossible (the critical
        // sections only move `Arc`s), but recover from poisoning anyway so
        // one crashed worker cannot wedge every other.
        match self.current.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxk_core::{CxkConfig, EngineBuilder, TrainedModel};
    use cxk_transact::{BuildOptions, DatasetBuilder, SimParams};

    fn model(extra_doc: bool) -> TrainedModel {
        let mut builder = DatasetBuilder::new(BuildOptions::default());
        let docs = [
            r#"<dblp><inproceedings key="m1"><author>A. Miner</author><title>mining clustering patterns trees</title></inproceedings></dblp>"#,
            r#"<dblp><article key="n1"><author>B. Netter</author><title>routing congestion networks protocols</title></article></dblp>"#,
        ];
        for doc in docs {
            builder.add_xml(doc).unwrap();
        }
        if extra_doc {
            builder
                .add_xml(
                    r#"<dblp><article key="n2"><author>B. Netter</author><title>packet routing networks latency</title></article></dblp>"#,
                )
                .unwrap();
        }
        let ds = builder.finish();
        let mut config = CxkConfig::new(2);
        config.params = SimParams::new(0.5, 0.5);
        EngineBuilder::from_cxk_config(&config)
            .build()
            .expect("valid config")
            .fit(&ds)
            .expect("fit")
            .into_model(&ds, BuildOptions::default())
    }

    #[test]
    fn swap_bumps_the_epoch_and_publishes_the_new_model() {
        let slot = ModelSlot::new(model(false));
        assert_eq!(slot.epoch(), 1);
        assert_eq!(slot.current().epoch, 1);
        assert!(slot.current().sharded.is_none(), "replicated by default");
        let before_docs = slot.current().model.trained_documents;

        let e = slot.swap(model(true));
        assert_eq!(e, 2);
        assert_eq!(slot.epoch(), 2);
        let current = slot.current();
        assert_eq!(current.epoch, 2);
        assert_eq!(current.model.trained_documents, before_docs + 1);
    }

    #[test]
    fn sharded_slots_publish_one_engine_per_epoch() {
        let slot = ModelSlot::with_shards(model(false), Some(3));
        assert_eq!(slot.shards(), Some(3));
        let boot = slot.current();
        let engine = boot.sharded.as_ref().expect("sharded epoch");
        assert_eq!(engine.shard_count(), 3);
        // The engine scores against exactly the published model.
        assert!(std::sync::Arc::ptr_eq(engine.model(), &boot.model));
        // Every reader of this epoch sees the *same* engine allocation.
        assert!(std::sync::Arc::ptr_eq(
            slot.current().sharded.as_ref().unwrap(),
            engine
        ));

        let e = slot.swap(model(true));
        assert_eq!(e, 2);
        let next = slot.current();
        let next_engine = next.sharded.as_ref().expect("sharded epoch");
        assert!(
            !std::sync::Arc::ptr_eq(next_engine, engine),
            "a swap rebuilds the shard set"
        );
        assert!(std::sync::Arc::ptr_eq(next_engine.model(), &next.model));
        // The old epoch's engine is still coherent for in-flight holders.
        assert_eq!(engine.model().trained_documents, 2);
    }

    #[test]
    fn tree_slots_publish_one_tree_per_epoch() {
        let cfg = TreeConfig { branch: 2, beam: 1 };
        let slot = ModelSlot::with_layout(model(false), None, Some(cfg));
        assert_eq!(slot.tree(), Some(cfg));
        assert_eq!(slot.shards(), None);
        let boot = slot.current();
        assert!(boot.sharded.is_none());
        let tree = boot.tree.as_ref().expect("tree epoch");
        assert_eq!(tree.config(), cfg);
        assert!(std::sync::Arc::ptr_eq(tree.model(), &boot.model));
        assert!(std::sync::Arc::ptr_eq(
            slot.current().tree.as_ref().unwrap(),
            tree
        ));

        let e = slot.swap(model(true));
        assert_eq!(e, 2);
        let next = slot.current();
        let next_tree = next.tree.as_ref().expect("tree epoch");
        assert!(
            !std::sync::Arc::ptr_eq(next_tree, tree),
            "a swap rebuilds the tree"
        );
        assert!(std::sync::Arc::ptr_eq(next_tree.model(), &next.model));
        assert_eq!(tree.model().trained_documents, 2);
    }

    #[test]
    fn old_epochs_stay_alive_while_referenced() {
        let slot = ModelSlot::new(model(false));
        let old = slot.current();
        slot.swap(model(true));
        // A worker still holding the old Arc keeps classifying against a
        // coherent model; nothing was freed or mutated under it.
        assert_eq!(old.epoch, 1);
        assert_eq!(old.model.trained_documents, 2);
        assert_eq!(slot.current().epoch, 2);
    }

    #[test]
    fn concurrent_swaps_and_reads_never_tear() {
        let slot = std::sync::Arc::new(ModelSlot::with_shards(model(false), Some(2)));
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let slot = std::sync::Arc::clone(&slot);
                let stop = std::sync::Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut last = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let current = slot.current();
                        // Epochs are monotonic from any reader's view…
                        assert!(current.epoch >= last);
                        last = current.epoch;
                        // …and every published pair is internally
                        // consistent: odd epochs carry the 2-document
                        // model, even epochs the 3-document one — and the
                        // shard engine always wraps that same model.
                        let expect = if current.epoch % 2 == 1 { 2 } else { 3 };
                        assert_eq!(current.model.trained_documents, expect);
                        let engine = current.sharded.as_ref().expect("sharded");
                        assert!(std::sync::Arc::ptr_eq(engine.model(), &current.model));
                    }
                })
            })
            .collect();
        for i in 0..50 {
            slot.swap(model(i % 2 == 0));
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Relaxed);
        for reader in readers {
            reader.join().expect("reader");
        }
        assert_eq!(slot.epoch(), 51);
    }
}
