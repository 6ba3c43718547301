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
//!   [`EpochModel`] (epoch, model and engine, immutable once published).
//!
//! An epoch publishes the model behind an `Arc` plus **one** engine
//! ([`EpochEngine`]) built from the server's [`Layout`] and shared by the
//! whole worker pool: the indexed layout's [`ShardedEngine`], the tree
//! layout's [`TreeEngine`], or the remote layout's [`RemoteEngine`]
//! topology — the one engine that outlives epochs, so its counters survive
//! reloads. Resident index memory is therefore per epoch, not per worker,
//! and each epoch's engine owns its only prepared representative slab
//! (remote epochs hold none). The engine for the next epoch is built
//! *before* the slot's mutex is taken, so the critical section still only
//! moves `Arc`s and a swap never stalls concurrent readers behind an index
//! build.
//!
//! Workers keep their own `(epoch, ClassifyEngine)` pair — a lightweight
//! session over the epoch's shared engine — drop it when the polled epoch
//! moves, and build the next one on their next classify request: an
//! in-flight request always finishes on the model it started with, the
//! next classify request on that worker picks up the new one, and no lock
//! is held while classifying. A request's response
//! is therefore self-consistent with exactly one epoch — never a mix of
//! old and new representatives.

use crate::remote::RemoteEngine;
use crate::shard::ShardedEngine;
use crate::tree::{TreeConfig, TreeEngine};
use cxk_core::TrainedModel;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// How the server executes classification: one arm per layout it can run.
/// Every arm answers bit-identically to brute force, except the tree
/// below full beam.
#[derive(Debug, Clone)]
pub enum Layout {
    /// The exact inverted index, partitioned across `shards` contiguous
    /// representative ranges (`cxk serve --shards S`, clamped to ≥ 1): one
    /// shared scatter/gather [`ShardedEngine`] per epoch. The default
    /// layout, with one shard.
    Indexed {
        /// Shards the representatives are partitioned across.
        shards: usize,
    },
    /// A hierarchical representative tree (`cxk serve --tree --branch B
    /// --beam W`): one shared [`TreeEngine`] per epoch, descended by
    /// `simγJ` under the beam before an exact re-rank of the reached
    /// leaves. Exact at full beam; see the `tree` module docs.
    Tree(TreeConfig),
    /// Scatter every query to shard daemons in other processes (`cxk
    /// serve --remote-shards a1,a2,...`), scoring nothing locally. See the
    /// `remote` module docs.
    Remote {
        /// `replicas[i]` is shard slot `i`'s replica set, in ascending
        /// representative-range order; each replica is a `host:port` of a
        /// `cxk shard-serve` daemon holding the same model snapshot.
        replicas: Vec<Vec<String>>,
        /// Per-shard scatter deadline before failing over to the next
        /// replica (`--remote-deadline-ms`).
        deadline: Duration,
    },
}

impl Default for Layout {
    fn default() -> Self {
        Layout::Indexed { shards: 1 }
    }
}

/// The one engine an epoch publishes, shared by every worker.
#[derive(Debug)]
pub enum EpochEngine {
    /// The indexed layout's scatter/gather engine over the epoch's model.
    Indexed(Arc<ShardedEngine>),
    /// The tree layout's representative tree over the epoch's model.
    Tree(Arc<TreeEngine>),
    /// The remote layout's shard topology: the same `Arc` in every epoch.
    Remote(Arc<RemoteEngine>),
}

impl EpochEngine {
    /// Builds `layout`'s engine over `model`.
    fn new(layout: Layout, model: &Arc<TrainedModel>) -> std::io::Result<Self> {
        Ok(match layout {
            Layout::Indexed { shards } => {
                Self::Indexed(Arc::new(ShardedEngine::build(Arc::clone(model), shards)))
            }
            Layout::Tree(config) => {
                Self::Tree(Arc::new(TreeEngine::build(Arc::clone(model), config)))
            }
            Layout::Remote { replicas, deadline } => {
                Self::Remote(Arc::new(RemoteEngine::new(replicas, deadline)?))
            }
        })
    }

    /// The same layout over another epoch's `model`: a fresh shard set or
    /// tree of the same shape; the remote topology carries over.
    fn rebuild(&self, model: &Arc<TrainedModel>) -> Self {
        match self {
            Self::Indexed(engine) => Self::Indexed(Arc::new(ShardedEngine::build(
                Arc::clone(model),
                engine.shard_count(),
            ))),
            Self::Tree(tree) => Self::Tree(Arc::new(TreeEngine::build(
                Arc::clone(model),
                tree.config(),
            ))),
            Self::Remote(topology) => Self::Remote(Arc::clone(topology)),
        }
    }

    /// Posting entries resident in this process: the shard set's; zero for
    /// the tree, which holds merged representatives instead, and for the
    /// remote topology, whose postings live in the daemons.
    pub(crate) fn posting_entries(&self) -> usize {
        match self {
            Self::Indexed(engine) => engine.posting_entries(),
            Self::Tree(_) | Self::Remote(_) => 0,
        }
    }
}

/// An immutable, epoch-stamped published model.
#[derive(Debug)]
pub struct EpochModel {
    /// Monotonic version: 1 for the boot model, +1 per successful swap.
    pub epoch: u64,
    /// The model published at this epoch, shared by every worker.
    pub model: Arc<TrainedModel>,
    /// The epoch's engine, shared by every worker.
    pub engine: EpochEngine,
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
}

impl ModelSlot {
    /// Publishes `model` as epoch 1 with `layout`'s engine; every later
    /// epoch gets an engine of the same layout.
    ///
    /// # Errors
    /// `InvalidInput` for a remote layout with no shard, a shard with no
    /// replica address, or a zero deadline.
    pub fn new(model: TrainedModel, layout: Layout) -> std::io::Result<Self> {
        let model = Arc::new(model);
        let engine = EpochEngine::new(layout, &model)?;
        Ok(Self {
            current: Mutex::new(Arc::new(EpochModel {
                epoch: 1,
                model,
                engine,
            })),
            epoch: AtomicU64::new(1),
        })
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
    /// the last worker drops it. The new epoch's engine is built *before*
    /// the lock is taken.
    pub fn swap(&self, model: TrainedModel) -> u64 {
        // Build the (potentially expensive) engine off-lock; only the
        // publish itself synchronizes.
        let model = Arc::new(model);
        let engine = self.current().engine.rebuild(&model);
        let mut current = self.lock();
        let epoch = current.epoch + 1;
        *current = Arc::new(EpochModel {
            epoch,
            model,
            engine,
        });
        self.epoch.store(epoch, Ordering::Release);
        epoch
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
    use crate::classify::SessionEngine;
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

    fn slot(layout: Layout) -> ModelSlot {
        ModelSlot::new(model(false), layout).expect("valid layout")
    }

    fn indexed(epoch: &EpochModel) -> &Arc<ShardedEngine> {
        match &epoch.engine {
            EpochEngine::Indexed(engine) => engine,
            other => panic!("indexed epoch expected, got {other:?}"),
        }
    }

    fn tree(epoch: &EpochModel) -> &Arc<TreeEngine> {
        match &epoch.engine {
            EpochEngine::Tree(tree) => tree,
            other => panic!("tree epoch expected, got {other:?}"),
        }
    }

    #[test]
    fn swap_bumps_the_epoch_and_publishes_the_new_model() {
        let slot = slot(Layout::default());
        assert_eq!(slot.epoch(), 1);
        assert_eq!(slot.current().epoch, 1);
        assert_eq!(
            indexed(&slot.current()).shard_count(),
            1,
            "one shared index by default"
        );
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
        let slot = slot(Layout::Indexed { shards: 3 });
        let boot = slot.current();
        let engine = indexed(&boot);
        assert_eq!(engine.shard_count(), 3);
        // The engine scores against exactly the published model.
        assert!(Arc::ptr_eq(engine.model(), &boot.model));
        // Every reader of this epoch sees the *same* engine allocation.
        assert!(Arc::ptr_eq(indexed(&slot.current()), engine));

        let e = slot.swap(model(true));
        assert_eq!(e, 2);
        let next = slot.current();
        let next_engine = indexed(&next);
        assert!(
            !Arc::ptr_eq(next_engine, engine),
            "a swap rebuilds the shard set"
        );
        assert_eq!(next_engine.shard_count(), 3, "with the same layout");
        assert!(Arc::ptr_eq(next_engine.model(), &next.model));
        // The old epoch's engine is still coherent for in-flight holders.
        assert_eq!(engine.model().trained_documents, 2);
    }

    #[test]
    fn tree_slots_publish_one_tree_per_epoch() {
        let cfg = TreeConfig { branch: 2, beam: 1 };
        let slot = slot(Layout::Tree(cfg));
        let boot = slot.current();
        let boot_tree = tree(&boot);
        assert_eq!(boot_tree.config(), cfg);
        assert!(Arc::ptr_eq(boot_tree.model(), &boot.model));
        assert!(Arc::ptr_eq(tree(&slot.current()), boot_tree));

        let e = slot.swap(model(true));
        assert_eq!(e, 2);
        let next = slot.current();
        let next_tree = tree(&next);
        assert!(
            !Arc::ptr_eq(next_tree, boot_tree),
            "a swap rebuilds the tree"
        );
        assert_eq!(next_tree.config(), cfg, "with the same shape");
        assert!(Arc::ptr_eq(next_tree.model(), &next.model));
        assert_eq!(boot_tree.model().trained_documents, 2);
    }

    #[test]
    fn old_epochs_stay_alive_while_referenced() {
        let slot = slot(Layout::default());
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
        let slot = Arc::new(slot(Layout::Indexed { shards: 2 }));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let slot = Arc::clone(&slot);
                let stop = Arc::clone(&stop);
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
                        assert!(Arc::ptr_eq(indexed(&current).model(), &current.model));
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
