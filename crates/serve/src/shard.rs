//! Sharded scatter/gather classification: the representative set
//! partitioned across shards, one shared immutable index per model epoch.
//!
//! This module is the server's indexed layout, and it mirrors the paper's
//! decomposition on the serving side: the `k` representatives are
//! partitioned into `S ≥ 1` contiguous **shards**, each owning the
//! postings slice and candidate pruning for its id range. A query
//! *scatters* to every shard, each shard answers its local `(simγJ, id)`
//! argmax over its pruned candidates, and a *gather* step takes the global
//! argmax — after which assignment assembly (trash rule, document
//! aggregation) is the code every `crate::Classifier` session runs. With
//! `S = 1` the one shard is the full index: the standalone classifier is a
//! session over a private one-shard engine.
//!
//! # Why the gather is provably bit-identical to brute force
//!
//! Brute force scans representatives `0..k` in ascending id order keeping
//! the strictly-greatest `simγJ`, so the winner is the **lowest id among
//! the maxima**; a tuple whose best similarity is 0 falls to trash. The
//! sharded path preserves that exactly:
//!
//! * shards cover contiguous, disjoint, ascending id ranges whose union is
//!   `0..k`;
//! * within a shard, candidates are scanned ascending with the same strict
//!   `>`, so the shard's answer is the lowest-id maximum of its range —
//!   and per-shard pruning is the same provably sound rule the full index
//!   uses (a pruned representative has `simγJ = 0`, which can never win);
//! * the gather scans shard answers in shard (= id) order with the same
//!   strict `>`, so ties across shards resolve to the lower id, and a
//!   global best of 0 falls to trash exactly as before.
//!
//! Degenerate configurations need no special casing: `γ = 0` and empty
//! queries make each shard fall back to scoring its whole range (summing
//! to the brute-force candidate count `k`), and `k < S` simply leaves the
//! surplus shards empty (their scatter returns trash at similarity 0,
//! which never wins the gather).
//!
//! # Memory model
//!
//! A [`ShardedEngine`] is immutable once built and lives behind an `Arc`
//! shared by the whole worker pool: **one** postings set per model epoch,
//! however many threads serve it. Hot reload builds the next epoch's
//! engine off-lock and swaps the `Arc` atomically (see the `slot`
//! module), so in-flight queries keep scattering over the engine they
//! started with. Each worker's mutable parsing state lives in its own
//! [`ShardedClassifier`] session, which holds label and path-table copies
//! and a clone of the engine's `sim_S` table, but no postings and no
//! vocabulary — that is what makes resident index memory ~constant in the
//! worker count.
//!
//! The shards of this engine run in-process; the `remote` module carries
//! the same scatter/gather across processes, to shard daemons over the
//! `cxk_p2p` fabric, each daemon a one-shard engine over its range.

use crate::classify::{Classifier, SessionEngine, TupleAssignment};
use crate::index::TagPathIndex;
use crate::session::QuerySession;
use cxk_core::TrainedModel;
use cxk_transact::item::ItemView;
use cxk_transact::{gather_best, PreparedSlab, TagPathSimTable};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One shard: a contiguous slice of the global representative id space
/// plus the inverted index over exactly those representatives.
#[derive(Debug)]
pub struct Shard {
    /// Global representative ids this shard owns.
    range: Range<u32>,
    /// Postings over the owned range (global ids; see
    /// [`TagPathIndex::build_range`]).
    index: TagPathIndex,
}

impl Shard {
    /// Global representative ids this shard owns.
    pub fn range(&self) -> Range<u32> {
        self.range.clone()
    }

    /// Representatives owned.
    pub fn len(&self) -> usize {
        self.range.len()
    }

    /// Whether the shard owns no representatives (`k < S`).
    pub fn is_empty(&self) -> bool {
        self.range.is_empty()
    }

    /// The shard's index (diagnostics).
    pub fn index(&self) -> &TagPathIndex {
        &self.index
    }
}

/// Monotonic per-shard counters, updated by every scatter. Padded to a
/// cache line: adjacent shards' counters must not share one, or the
/// relaxed `fetch_add`s every worker issues per tuple would ping-pong the
/// line across cores and tax exactly the hot path sharding exists to
/// speed up.
#[derive(Debug, Default)]
#[repr(align(64))]
struct ShardCounters {
    /// Tuples scattered to this shard.
    queries: AtomicU64,
    /// Representatives actually scored (after pruning).
    scored: AtomicU64,
}

/// A point-in-time copy of one shard's counters plus its static shape,
/// surfaced per shard by `GET /stats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// Representatives owned by the shard.
    pub reps: usize,
    /// Posting entries in the shard's index.
    pub postings: usize,
    /// Tuples scattered to the shard so far.
    pub queries: u64,
    /// Representatives the shard actually scored (its pruned candidates).
    pub scored: u64,
}

/// The shared, immutable scatter/gather engine for one model epoch.
pub struct ShardedEngine {
    model: Arc<TrainedModel>,
    /// `sim_S` over the representatives' tag paths, built with `reps`.
    tag_sim: TagPathSimTable,
    /// The model's representatives prepared for scoring (global ids).
    reps: PreparedSlab,
    shards: Vec<Shard>,
    counters: Vec<ShardCounters>,
}

impl ShardedEngine {
    /// Partitions `model`'s `k` representatives into `shards` contiguous
    /// near-equal ranges (shard `i` owns `[⌊i·k/S⌋, ⌊(i+1)·k/S⌋)`) and
    /// builds each shard's index. `shards` is clamped to ≥ 1; `k < S`
    /// leaves the surplus shards empty.
    pub fn build(model: Arc<TrainedModel>, shards: usize) -> Self {
        let s = shards.max(1);
        let k = model.k();
        let ranges = (0..s).map(|i| (i * k / s) as u32..((i + 1) * k / s) as u32);
        Self::over(model, ranges)
    }

    /// One shard over `range` of `model`'s representatives, which must lie
    /// within `0..k`: a shard daemon's engine.
    pub(crate) fn for_range(model: Arc<TrainedModel>, range: Range<u32>) -> Self {
        Self::over(model, std::iter::once(range))
    }

    fn over(model: Arc<TrainedModel>, ranges: impl Iterator<Item = Range<u32>>) -> Self {
        let shards: Vec<Shard> = ranges
            .map(|range| Shard {
                index: TagPathIndex::build_range(
                    &model.reps[range.start as usize..range.end as usize],
                    &model.paths,
                    model.params,
                    range.start,
                ),
                range,
            })
            .collect();
        let counters = shards.iter().map(|_| ShardCounters::default()).collect();
        let (tag_sim, reps) = model.prepare();
        Self {
            tag_sim,
            reps,
            model,
            shards,
            counters,
        }
    }

    /// Number of shards (including empty ones when `k < S`).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shards, in ascending id-range order.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Total posting entries across all shards.
    pub fn posting_entries(&self) -> usize {
        self.shards.iter().map(|s| s.index.posting_entries()).sum()
    }

    /// Estimated resident postings bytes across all shards — the memory
    /// the whole worker pool shares per epoch (see
    /// `TagPathIndex::postings_bytes`).
    pub fn postings_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.index.postings_bytes()).sum()
    }

    /// Per-shard statistics since this engine (epoch) was built.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .zip(&self.counters)
            .map(|(shard, c)| ShardStats {
                reps: shard.len(),
                postings: shard.index.posting_entries(),
                queries: c.queries.load(Ordering::Relaxed),
                scored: c.scored.load(Ordering::Relaxed),
            })
            .collect()
    }
}

impl SessionEngine for ShardedEngine {
    fn model(&self) -> &Arc<TrainedModel> {
        &self.model
    }

    fn tag_sim(&self) -> &TagPathSimTable {
        &self.tag_sim
    }

    /// Scatter/gather for one query transaction: every shard reports its
    /// local argmax over its (pruned, unless `!indexed`) candidates, and
    /// the gather keeps the global argmax under the brute-force tie-break.
    fn assign_tuple(
        &self,
        session: &mut QuerySession,
        tuple: &[ItemView<'_>],
        indexed: bool,
    ) -> TupleAssignment {
        let k = self.model.k() as u32;
        session.prepare(tuple);
        let mut scored_total = 0usize;
        let answers = self
            .shards
            .iter()
            .zip(&self.counters)
            .filter(|(shard, _)| !shard.is_empty())
            .map(|(shard, counters)| {
                let (local_j, local_s, scored) = session.argmax_in(
                    self.model.params,
                    &self.reps,
                    tuple,
                    indexed.then_some(&shard.index),
                    shard.range(),
                    k,
                );
                counters.queries.fetch_add(1, Ordering::Relaxed);
                counters.scored.fetch_add(scored as u64, Ordering::Relaxed);
                scored_total += scored;
                (local_j, local_s)
            });
        // Shards ascend, so the relocation rule resolves cross-shard ties
        // to the lower id — exactly the brute-force scan order.
        let (cluster, similarity) = gather_best(answers, k);
        TupleAssignment {
            cluster,
            similarity,
            candidates: scored_total,
        }
    }
}

impl std::fmt::Debug for ShardedEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedEngine")
            .field("k", &self.model.k())
            .field("shards", &self.shards.len())
            .field("postings", &self.posting_entries())
            .finish()
    }
}

/// A per-worker classification session over a shared [`ShardedEngine`]
/// (see [`Classifier`]).
pub type ShardedClassifier = Classifier<ShardedEngine>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::DocumentAssignment;
    use cxk_core::{CxkConfig, EngineBuilder};
    use cxk_transact::{BuildOptions, DatasetBuilder, SimParams};

    fn doc(topic: usize, i: usize) -> String {
        let topics = [
            ("mining", "mining frequent patterns clustering trees"),
            ("network", "routing congestion protocols networks"),
            ("theory", "automata complexity reductions proofs"),
            ("systems", "kernels scheduling caches concurrency"),
        ];
        let (key, title) = topics[topic % topics.len()];
        format!(
            r#"<dblp><article key="{key}{i}"><author>A. {key}</author><title>{title} {key}{i}</title><journal>J{topic}</journal></article></dblp>"#,
        )
    }

    fn model(k: usize, gamma: f64) -> TrainedModel {
        let mut builder = DatasetBuilder::new(BuildOptions::default());
        for topic in 0..4 {
            for i in 0..4 {
                builder.add_xml(&doc(topic, i)).unwrap();
            }
        }
        let ds = builder.finish();
        let mut config = CxkConfig::new(k);
        config.params = SimParams::new(0.5, gamma);
        config.seed = 5;
        EngineBuilder::from_cxk_config(&config)
            .build()
            .expect("valid test config")
            .fit(&ds)
            .expect("fit succeeds")
            .into_model(&ds, BuildOptions::default())
    }

    fn assert_same(a: &DocumentAssignment, b: &DocumentAssignment, what: &str) {
        assert_eq!(a.cluster, b.cluster, "{what}: cluster");
        assert_eq!(a.score, b.score, "{what}: score must be bit-identical");
        assert_eq!(a.tuples.len(), b.tuples.len(), "{what}");
        for (ta, tb) in a.tuples.iter().zip(&b.tuples) {
            assert_eq!(ta.cluster, tb.cluster, "{what}");
            assert_eq!(ta.similarity, tb.similarity, "{what}");
        }
    }

    #[test]
    fn partition_covers_all_representatives_exactly_once() {
        for (k, s) in [(1, 1), (4, 2), (5, 3), (2, 8), (7, 7), (3, 1)] {
            let engine = ShardedEngine::build(Arc::new(model(k, 0.5)), s);
            assert_eq!(engine.shard_count(), s);
            let mut next = 0u32;
            for shard in engine.shards() {
                assert_eq!(shard.range().start, next, "contiguous k={k} S={s}");
                next = shard.range().end;
                assert_eq!(shard.index().covered(), shard.range());
            }
            assert_eq!(next as usize, k, "union is 0..k for k={k} S={s}");
        }
    }

    #[test]
    fn sharded_matches_replicated_and_brute_bit_for_bit() {
        for gamma in [0.0, 0.5] {
            let model = Arc::new(model(4, gamma));
            let mut replicated = Classifier::shared(Arc::clone(&model));
            for s in [1, 2, 3, 8] {
                let engine = Arc::new(ShardedEngine::build(Arc::clone(&model), s));
                let mut sharded = ShardedClassifier::new(Arc::clone(&engine));
                for topic in 0..4 {
                    let xml = doc(topic, 17);
                    let scatter = sharded.classify(&xml).expect("sharded");
                    let brute = replicated.classify_brute(&xml).expect("brute");
                    let indexed = replicated.classify(&xml).expect("indexed");
                    assert_same(&scatter, &brute, &format!("γ={gamma} S={s} vs brute"));
                    assert_same(&scatter, &indexed, &format!("γ={gamma} S={s} vs indexed"));
                    // Candidate counts match the replicated index too: the
                    // shard postings are a disjoint partition of the global
                    // postings.
                    for (ta, tb) in scatter.tuples.iter().zip(&indexed.tuples) {
                        assert_eq!(ta.candidates, tb.candidates, "γ={gamma} S={s}");
                    }
                }
            }
        }
    }

    #[test]
    fn degenerate_shards_and_aliens_fall_through_to_trash() {
        let model = Arc::new(model(2, 0.6));
        // k = 2 over 8 shards: six shards are empty.
        let engine = Arc::new(ShardedEngine::build(Arc::clone(&model), 8));
        assert_eq!(engine.shards().iter().filter(|s| s.is_empty()).count(), 6);
        let mut sharded = ShardedClassifier::new(Arc::clone(&engine));
        let report = sharded
            .classify(r#"<menu><entree id="e1"><flavor>umami</flavor></entree></menu>"#)
            .expect("classify");
        assert_eq!(report.cluster, sharded.trash_id());
        assert_eq!(report.score, 0.0);
        assert!(report.tuples.iter().all(|t| t.candidates == 0));
    }

    #[test]
    fn shard_stats_count_scatters() {
        let model = Arc::new(model(4, 0.5));
        let engine = Arc::new(ShardedEngine::build(Arc::clone(&model), 2));
        let mut sharded = ShardedClassifier::new(Arc::clone(&engine));
        let report = sharded.classify(&doc(0, 3)).expect("classify");
        let tuples = report.tuples.len() as u64;
        assert!(tuples > 0);
        let stats = engine.shard_stats();
        assert_eq!(stats.len(), 2);
        for s in &stats {
            assert_eq!(s.queries, tuples, "every tuple scatters to every shard");
        }
        let scored: u64 = stats.iter().map(|s| s.scored).sum();
        let candidates: u64 = report.tuples.iter().map(|t| t.candidates as u64).sum();
        assert_eq!(scored, candidates);
        assert_eq!(
            stats.iter().map(|s| s.reps).sum::<usize>(),
            4,
            "stats cover every representative"
        );
    }

    #[test]
    fn sessions_share_one_engine() {
        let model = Arc::new(model(3, 0.5));
        let engine = Arc::new(ShardedEngine::build(Arc::clone(&model), 4));
        let a = ShardedClassifier::new(Arc::clone(&engine));
        let b = ShardedClassifier::new(Arc::clone(&engine));
        assert!(std::ptr::eq(&**a.engine(), &**b.engine()));
        assert!(engine.posting_entries() > 0);
        assert!(engine.postings_bytes() > 0);
    }
}
