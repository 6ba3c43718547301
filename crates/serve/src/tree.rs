//! Hierarchical representative tree: sublinear assignment with a
//! beam-width accuracy knob.
//!
//! Every other serving strategy — brute force, the pruned
//! `TagPathIndex`, sharded, remote — is O(k) per tuple in the worst
//! case: γ = 0 and empty queries score every representative, and even
//! the pruned index degrades to the full scan when the query's tag
//! paths touch every posting list. This module trades exactness for a
//! logarithmic candidate walk, the `simγJ` analogue of the K-tree
//! cluster tree (De Vries & Geva; see PAPERS.md): the snapshot's `k`
//! representatives become the leaves of a bottom-up tree whose internal
//! nodes are **merged representatives** (the paper's own
//! `ComputeGlobalRepresentative`, reused via
//! [`cxk_core::merge_representatives`]), and assignment descends the
//! tree greedily before an exact re-rank of the reached leaves.
//!
//! # Build
//!
//! Merged representatives only route well when they merge *similar*
//! children: `ComputeGlobalRepresentative` refines toward items that
//! γ-represent all its members, so a node over `B` unrelated clusters
//! sheds the minority clusters' items entirely and queries destined for
//! them score ~0 at that node. The build therefore first *groups* the
//! `k` leaves by similarity — a greedy pass that seeds each group with
//! the lowest unassigned id and pulls in its `B − 1` most-`simγJ`-
//! similar unassigned peers (ties to the lower id) — and records the
//! resulting permutation as `leaf_order`. Level 0 merges consecutive
//! groups of `leaf_order` (each child weighted 1), and levels repeat
//! over chunks of `B` nodes (weighted by covered leaf count) until a
//! level has at most `B` nodes. A node's `leaves: Range<u32>` is a
//! contiguous range of *positions* in `leaf_order`, and child indices
//! derive from the chunking arithmetic. `k ≤ B` builds no internal
//! levels at all and the engine degenerates to the exact full scan.
//!
//! # Descent and re-rank
//!
//! A query tuple starts from the whole top level, scores `simγJ`
//! against each frontier node's merged representative, keeps the top
//! `W` nodes (the **beam**; ties broken toward the lower node index),
//! and recurses into their children. At the bottom internal level the
//! kept nodes' leaf positions map through `leaf_order` to ids, sorted
//! ascending, and the winner is chosen by the *unchanged* exact rule
//! over exactly those candidates:
//! `argmax_prepared` with strict `>`, ties to the lowest id, trash when
//! the best similarity is 0. Document aggregation is byte-for-byte the
//! code every other strategy runs.
//!
//! # Exactness contract
//!
//! The descent is a heuristic: a merged representative can score 0
//! against a query whose true winner hides below it, so small beams can
//! miss the brute-force argmax. Two properties are pinned by tests
//! instead of a proof:
//!
//! * **Full beam ⇒ bit-identical.** When `W` is at least the widest
//!   level's node count ([`TreeEngine::is_exact`]), every level keeps
//!   everything, the candidate list is exactly `0..k`, and the result —
//!   including the per-tuple `candidates` count — equals
//!   `classify_brute`.
//! * **Degenerate queries fall back.** γ = 0 and empty tuples make
//!   `simγJ` identically 0 up the whole tree, so descending would keep
//!   arbitrary subtrees; those tuples score the full range instead
//!   (counted in [`TreeStats::fallbacks`]), matching the `TagPathIndex`
//!   fallback contract.
//! * **Trash is never invented.** A pruned re-rank whose best
//!   similarity is 0 would route the tuple to trash — but the miss
//!   might hide outside the beam, so such tuples are *rescued* with a
//!   full-range scan (also counted in [`TreeStats::fallbacks`]). A
//!   trash verdict from the tree is therefore always backed by an
//!   exhaustive scan, at any beam width.
//!
//! The accuracy/latency trade-off at small beams is a *measured curve*,
//! not a claim: `serve_throughput` emits `tree-*` rows recording
//! docs/sec, agreement-vs-brute, and `cxk_eval::f_measure` against
//! synthetic ground truth.
//!
//! # Memory model
//!
//! Exactly the sharded engine's: a [`TreeEngine`] is immutable once
//! built, lives behind an `Arc` published per epoch by the `slot`
//! module, and is shared by every worker; each worker's mutable parsing
//! state is its own [`TreeClassifier`] session, so resident tree memory is
//! constant in the worker count.

use crate::classify::{Classifier, SessionEngine, TupleAssignment};
use crate::session::QuerySession;
use cxk_core::rep::{RepItem, Representative};
use cxk_core::{merge_representatives, TrainedModel};
use cxk_transact::item::ItemView;
use cxk_transact::txsim::{sim_gamma_j_prepared, PreparedSlab, ScoreScratch};
use cxk_transact::{SimCtx, TagPathSimTable};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default branching factor `B` for `--tree`.
pub const DEFAULT_BRANCH: usize = 8;
/// Default beam width `W` for `--tree`, the measured knee of the
/// accuracy curve: ≥ 0.95 agreement-vs-brute on the `serve_throughput`
/// large-k configuration while still scoring well under `k`
/// representatives per document.
pub const DEFAULT_BEAM: usize = 3;

/// Shape of the representative tree: branching factor `B` and beam
/// width `W`. Both are clamped at build time (`B ≥ 2`, `W ≥ 1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeConfig {
    /// Children per internal node.
    pub branch: usize,
    /// Subtrees kept per level during descent.
    pub beam: usize,
}

impl Default for TreeConfig {
    fn default() -> Self {
        Self {
            branch: DEFAULT_BRANCH,
            beam: DEFAULT_BEAM,
        }
    }
}

/// One internal node: the merged representative of a contiguous range
/// of leaf *positions* (indices into the engine's `leaf_order`).
struct TreeNode {
    /// The merged representative scored during descent.
    rep: Representative,
    /// Positions in `leaf_order` covered, always contiguous.
    leaves: Range<u32>,
}

/// Monotonic whole-tree counters, updated by every tuple assignment.
/// Padded to a cache line for the same reason the shard counters are:
/// relaxed `fetch_add`s from every worker must not share a line with
/// anything colder.
#[derive(Debug, Default)]
#[repr(align(64))]
struct TreeCounters {
    /// Tuples assigned through this engine.
    tuples: AtomicU64,
    /// Internal nodes scored during descents.
    nodes_visited: AtomicU64,
    /// Leaf representatives scored in re-ranks (incl. fallback scans).
    reps_scored: AtomicU64,
    /// Tuples that ended up scoring the full range anyway: degenerate
    /// queries (γ = 0 / empty) that bypassed the descent, plus pruned
    /// re-ranks rescued from a zero-similarity (would-be trash) result.
    fallbacks: AtomicU64,
}

/// A point-in-time copy of a tree engine's counters plus its static
/// shape, surfaced by `GET /stats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeStats {
    /// Branching factor `B` (post-clamp).
    pub branch: usize,
    /// Beam width `W` (post-clamp).
    pub beam: usize,
    /// Internal levels (0 when `k ≤ B`: the tree is a plain scan).
    pub depth: usize,
    /// Total internal nodes across all levels.
    pub nodes: usize,
    /// Tuples assigned so far.
    pub tuples: u64,
    /// Internal nodes scored during descents so far.
    pub nodes_visited: u64,
    /// Leaf representatives scored so far (re-ranks + fallback scans).
    pub reps_scored: u64,
    /// Tuples that fell back to the full scan: degenerate queries
    /// (γ = 0 / empty) plus zero-similarity rescues.
    pub fallbacks: u64,
}

/// The shared, immutable representative tree for one model epoch.
pub struct TreeEngine {
    model: Arc<TrainedModel>,
    config: TreeConfig,
    /// Similarity-grouped permutation of the leaf ids `0..k`: position
    /// `p` holds the representative id stored at tree position `p`.
    /// Empty for level-less (exact) engines.
    leaf_order: Vec<u32>,
    /// Internal levels bottom-up: `levels[0]` merges the leaves, the
    /// last level is the (≤ `B`-wide) top. Empty when `k ≤ B`.
    levels: Vec<Vec<TreeNode>>,
    /// `levels[d]`'s merged representatives prepared for scoring (entry
    /// `i` is node `i`). Merged items come from the leaves' item pool, so
    /// they rank in the same representative tag-path table as the leaves.
    prepared_levels: Vec<PreparedSlab>,
    /// The leaf representatives prepared for the exact re-rank.
    reps: PreparedSlab,
    counters: TreeCounters,
}

impl TreeEngine {
    /// Builds the tree over `model`'s representatives. `branch` is
    /// clamped to ≥ 2 and `beam` to ≥ 1; `k ≤ branch` produces a
    /// level-less (exact) engine.
    pub fn build(model: Arc<TrainedModel>, config: TreeConfig) -> Self {
        let config = TreeConfig {
            branch: config.branch.max(2),
            beam: config.beam.max(1),
        };
        let branch = config.branch;
        let reps = model.prepare_reps();
        let mut levels: Vec<Vec<TreeNode>> = Vec::new();
        let mut prepared_levels: Vec<PreparedSlab> = Vec::new();
        let mut leaf_order: Vec<u32> = Vec::new();
        if model.k() > branch {
            // Merging needs a similarity context covering the
            // representatives' tag paths; merged items always come from
            // their children's item pool, so the model's own tag-path
            // table covers every level.
            let rep_tag_paths = model.rep_tag_paths();
            let tag_sim = TagPathSimTable::build(&rep_tag_paths, &model.paths);
            let ctx = SimCtx::new(&tag_sim, model.params);

            leaf_order = Self::group_leaves(&ctx, &reps, branch);
            let mut level: Vec<TreeNode> = leaf_order
                .chunks(branch)
                .enumerate()
                .map(|(i, chunk)| {
                    let start = (i * branch) as u32;
                    let weighted: Vec<(&Representative, u64)> = chunk
                        .iter()
                        .filter_map(|&id| model.reps.get(id as usize))
                        .map(|rep| (rep, 1))
                        .collect();
                    TreeNode {
                        rep: merge_representatives(&ctx, &weighted),
                        leaves: start..start + chunk.len() as u32,
                    }
                })
                .collect();
            while level.len() > branch {
                let next: Vec<TreeNode> = level
                    .chunks(branch)
                    .map(|chunk| {
                        let weighted: Vec<(&Representative, u64)> = chunk
                            .iter()
                            .map(|node| (&node.rep, node.leaves.len() as u64))
                            .collect();
                        let leaves = match (chunk.first(), chunk.last()) {
                            (Some(first), Some(last)) => first.leaves.start..last.leaves.end,
                            _ => 0..0,
                        };
                        TreeNode {
                            rep: merge_representatives(&ctx, &weighted),
                            leaves,
                        }
                    })
                    .collect();
                levels.push(level);
                level = next;
            }
            levels.push(level);
            prepared_levels = levels
                .iter()
                .map(|level| {
                    let nodes = level
                        .iter()
                        .map(|node| node.rep.items.iter().map(RepItem::view));
                    PreparedSlab::build(&tag_sim, nodes)
                })
                .collect();
        }
        Self {
            model,
            config,
            leaf_order,
            levels,
            prepared_levels,
            reps,
            counters: TreeCounters::default(),
        }
    }

    /// Greedy average-link grouping of the `k` leaves: seed each group
    /// with the lowest unassigned id, then repeatedly add the
    /// unassigned representative with the highest *mean* `simγJ` to the
    /// current group members (score descending, ties to the lower id)
    /// until the group holds `branch` leaves. Coherent groups are what
    /// make the merged node representatives informative routers —
    /// merging unrelated clusters sheds the minority's items during
    /// refinement. The pairwise similarities are computed once
    /// (O(k²) `simγJ` evaluations), paid per epoch at build time.
    fn group_leaves(ctx: &SimCtx<'_>, reps: &PreparedSlab, branch: usize) -> Vec<u32> {
        let k = reps.len();
        // Symmetric pairwise similarity matrix, row-major.
        let mut sim = vec![0.0f64; k * k];
        let mut scratch = ScoreScratch::default();
        for (i, a) in reps.iter().enumerate() {
            for (j, b) in reps.iter().enumerate().skip(i + 1) {
                let s = sim_gamma_j_prepared(ctx, a, b, &mut scratch);
                sim[i * k + j] = s;
                sim[j * k + i] = s;
            }
        }
        let mut assigned = vec![false; k];
        let mut order: Vec<u32> = Vec::with_capacity(k);
        for seed in 0..k {
            if assigned[seed] {
                continue;
            }
            assigned[seed] = true;
            let group_start = order.len();
            order.push(seed as u32);
            while order.len() - group_start < branch {
                let members = &order[group_start..];
                let mut best: Option<(f64, usize)> = None;
                for j in seed + 1..k {
                    if assigned[j] {
                        continue;
                    }
                    let mean = members
                        .iter()
                        .map(|&m| sim[m as usize * k + j])
                        .sum::<f64>()
                        / members.len() as f64;
                    let better = match best {
                        None => true,
                        Some((score, _)) => mean > score,
                    };
                    if better {
                        best = Some((mean, j));
                    }
                }
                match best {
                    Some((_, j)) => {
                        assigned[j] = true;
                        order.push(j as u32);
                    }
                    None => break,
                }
            }
        }
        order
    }

    /// The (clamped) tree shape.
    pub fn config(&self) -> TreeConfig {
        self.config
    }

    /// Internal levels (0 when `k ≤ B`).
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Total internal nodes.
    pub fn node_count(&self) -> usize {
        self.levels.iter().map(Vec::len).sum()
    }

    /// Whether every descent provably covers all leaves: no internal
    /// levels, or a beam at least as wide as the widest level (the
    /// bottom one). Exact engines are bit-identical to brute force.
    pub fn is_exact(&self) -> bool {
        match self.levels.first() {
            Some(widest) => self.config.beam >= widest.len(),
            None => true,
        }
    }

    /// Counters + shape since this engine (epoch) was built.
    pub fn stats(&self) -> TreeStats {
        TreeStats {
            branch: self.config.branch,
            beam: self.config.beam,
            depth: self.depth(),
            nodes: self.node_count(),
            tuples: self.counters.tuples.load(Ordering::Relaxed),
            nodes_visited: self.counters.nodes_visited.load(Ordering::Relaxed),
            reps_scored: self.counters.reps_scored.load(Ordering::Relaxed),
            fallbacks: self.counters.fallbacks.load(Ordering::Relaxed),
        }
    }

    /// Beam descent for one tuple: returns the ascending candidate leaf
    /// ids and the number of internal nodes scored. Only called with
    /// non-empty levels and a non-degenerate query.
    fn descend(&self, session: &mut QuerySession) -> (Vec<u32>, u64) {
        let mut visited = 0u64;
        let top_len = self.levels.last().map(Vec::len).unwrap_or(0);
        let mut frontier: Vec<usize> = (0..top_len).collect();
        for depth in (0..self.levels.len()).rev() {
            let level = &self.levels[depth];
            let mut scored: Vec<(f64, usize)> = Vec::with_capacity(frontier.len());
            if let Some(prepared) = self.prepared_levels.get(depth) {
                for &i in &frontier {
                    if let Some(node) = prepared.get(i) {
                        scored.push((session.score(self.model.params, node), i));
                        visited += 1;
                    }
                }
            }
            // Score descending, node index ascending on ties — the
            // deterministic lowest-id bias every exact path shares.
            scored.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
            scored.truncate(self.config.beam);
            let mut kept: Vec<usize> = scored.into_iter().map(|(_, i)| i).collect();
            kept.sort_unstable();
            if depth == 0 {
                let mut ids: Vec<u32> = Vec::new();
                for i in kept {
                    if let Some(node) = level.get(i) {
                        for pos in node.leaves.clone() {
                            if let Some(&id) = self.leaf_order.get(pos as usize) {
                                ids.push(id);
                            }
                        }
                    }
                }
                // Ascending ids: the exact re-rank's lowest-id tie-break
                // sees candidates in the same order every strategy uses.
                ids.sort_unstable();
                return (ids, visited);
            }
            let below = self.levels[depth - 1].len();
            frontier = kept
                .iter()
                .flat_map(|&i| i * self.config.branch..((i + 1) * self.config.branch).min(below))
                .collect();
        }
        // Defensive: an empty tree descends nowhere — the callers gate
        // on `levels.is_empty()`, but fall back to the full range
        // rather than silently returning no candidates.
        ((0..self.model.k() as u32).collect(), visited)
    }
}

impl SessionEngine for TreeEngine {
    fn model(&self) -> &Arc<TrainedModel> {
        &self.model
    }

    /// Assigns one query tuple: beam descent + exact re-rank when
    /// `pruned`, the full-range exact scan otherwise (and always for
    /// degenerate tuples and level-less trees).
    fn assign_tuple(
        &self,
        session: &mut QuerySession,
        tuple: &[ItemView<'_>],
        pruned: bool,
    ) -> TupleAssignment {
        let k = self.model.k() as u32;
        let params = self.model.params;
        session.prepare(tuple);
        self.counters.tuples.fetch_add(1, Ordering::Relaxed);
        // γ = 0 and empty queries score 0 against every merged node:
        // the descent would keep arbitrary subtrees, so scan instead —
        // the same degenerate cases where the inverted index falls back
        // to every representative.
        let degenerate = tuple.is_empty() || params.gamma <= 0.0;
        if !pruned || degenerate || self.levels.is_empty() {
            if pruned && degenerate {
                self.counters.fallbacks.fetch_add(1, Ordering::Relaxed);
            }
            self.counters
                .reps_scored
                .fetch_add(u64::from(k), Ordering::Relaxed);
            let (cluster, similarity) = session.argmax(params, &self.reps, 0..k, k);
            return TupleAssignment {
                cluster,
                similarity,
                candidates: k as usize,
            };
        }
        let (ids, visited) = self.descend(session);
        self.counters
            .nodes_visited
            .fetch_add(visited, Ordering::Relaxed);
        self.counters
            .reps_scored
            .fetch_add(ids.len() as u64, Ordering::Relaxed);
        let candidates = ids.len();
        let (cluster, similarity) = session.argmax(params, &self.reps, ids.into_iter(), k);
        // Zero rescue: a pruned re-rank that found nothing (the tuple
        // would go to trash) is re-run over the full range — trash is
        // only ever declared after an exhaustive scan, so the tree
        // never *invents* trash the brute path wouldn't produce.
        if similarity == 0.0 && candidates < k as usize {
            self.counters.fallbacks.fetch_add(1, Ordering::Relaxed);
            self.counters
                .reps_scored
                .fetch_add(u64::from(k) - candidates as u64, Ordering::Relaxed);
            let (cluster, similarity) = session.argmax(params, &self.reps, 0..k, k);
            return TupleAssignment {
                cluster,
                similarity,
                candidates: k as usize,
            };
        }
        TupleAssignment {
            cluster,
            similarity,
            candidates,
        }
    }
}

impl std::fmt::Debug for TreeEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TreeEngine")
            .field("k", &self.model.k())
            .field("branch", &self.config.branch)
            .field("beam", &self.config.beam)
            .field("depth", &self.depth())
            .field("nodes", &self.node_count())
            .finish()
    }
}

/// A per-worker classification session over a shared [`TreeEngine`] (see
/// [`Classifier`]).
pub type TreeClassifier = Classifier<TreeEngine>;

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
            ("vision", "segmentation detection convolution images"),
            ("storage", "logs compaction snapshots replication"),
        ];
        let (key, title) = topics[topic % topics.len()];
        format!(
            r#"<dblp><article key="{key}{i}"><author>A. {key}</author><title>{title} {key}{i}</title><journal>J{topic}</journal></article></dblp>"#,
        )
    }

    fn model(k: usize, gamma: f64) -> TrainedModel {
        let mut builder = DatasetBuilder::new(BuildOptions::default());
        for topic in 0..6 {
            for i in 0..3 {
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
        assert_eq!(a.capped, b.capped, "{what}: capped");
        assert_eq!(a.tuples.len(), b.tuples.len(), "{what}");
        for (ta, tb) in a.tuples.iter().zip(&b.tuples) {
            assert_eq!(ta.cluster, tb.cluster, "{what}");
            assert_eq!(ta.similarity, tb.similarity, "{what}");
            assert_eq!(ta.candidates, tb.candidates, "{what}: candidates");
        }
    }

    #[test]
    fn build_shape_covers_all_leaves() {
        for (k, branch) in [(1, 2), (2, 2), (3, 2), (5, 2), (6, 3), (6, 2), (4, 8)] {
            let engine = TreeEngine::build(Arc::new(model(k, 0.5)), TreeConfig { branch, beam: 1 });
            if k <= branch {
                assert_eq!(engine.depth(), 0, "k={k} B={branch}: no levels");
                assert!(engine.is_exact());
                continue;
            }
            assert!(engine.depth() >= 1, "k={k} B={branch}");
            // The grouped leaf order is a permutation of 0..k.
            let mut sorted = engine.leaf_order.clone();
            sorted.sort_unstable();
            assert_eq!(
                sorted,
                (0..k as u32).collect::<Vec<_>>(),
                "k={k} B={branch}: leaf_order permutes 0..k"
            );
            for (d, level) in engine.levels.iter().enumerate() {
                // Every level covers positions 0..k contiguously.
                let mut next = 0u32;
                for node in level {
                    assert_eq!(node.leaves.start, next, "k={k} B={branch} level {d}");
                    next = node.leaves.end;
                }
                assert_eq!(next as usize, k, "k={k} B={branch} level {d}");
            }
            let top = engine.levels.last().unwrap();
            assert!(top.len() <= branch, "top level fits in one beam step");
            assert!(!top.is_empty());
        }
    }

    #[test]
    fn full_beam_is_bit_identical_to_brute_force() {
        for gamma in [0.0, 0.5] {
            let model = Arc::new(model(5, gamma));
            let mut brute = Classifier::shared(Arc::clone(&model));
            for branch in [2, 3] {
                let engine = Arc::new(TreeEngine::build(
                    Arc::clone(&model),
                    TreeConfig { branch, beam: 5 },
                ));
                assert!(engine.is_exact(), "beam 5 ≥ widest level for k=5");
                let mut tree = TreeClassifier::new(Arc::clone(&engine));
                for topic in 0..6 {
                    let xml = doc(topic, 17);
                    let a = tree.classify(&xml).expect("tree");
                    let b = brute.classify_brute(&xml).expect("brute");
                    assert_same(&a, &b, &format!("γ={gamma} B={branch}"));
                }
                // The alien document degrades to trash identically.
                let alien = r#"<menu><entree id="e1"><flavor>umami</flavor></entree></menu>"#;
                let a = tree.classify(alien).expect("tree");
                let b = brute.classify_brute(alien).expect("brute");
                assert_same(&a, &b, &format!("γ={gamma} B={branch} alien"));
            }
        }
    }

    #[test]
    fn small_beam_prunes_candidates_below_k() {
        let model = Arc::new(model(6, 0.5));
        let engine = Arc::new(TreeEngine::build(
            Arc::clone(&model),
            TreeConfig { branch: 2, beam: 1 },
        ));
        assert!(!engine.is_exact());
        let mut tree = TreeClassifier::new(Arc::clone(&engine));
        let report = tree.classify(&doc(0, 9)).expect("classify");
        assert!(!report.tuples.is_empty());
        for t in &report.tuples {
            assert!(
                t.candidates < 6,
                "beam 1 over B=2 must re-rank < k leaves, got {}",
                t.candidates
            );
            assert!(t.candidates >= 1);
        }
        let stats = engine.stats();
        assert_eq!(stats.tuples, report.tuples.len() as u64);
        assert!(stats.nodes_visited > 0);
        assert!(stats.reps_scored < 6 * stats.tuples);
        assert_eq!(stats.fallbacks, 0);
    }

    #[test]
    fn zero_similarity_rescues_to_full_scan() {
        // An alien document scores 0 against every candidate the beam
        // reaches; the rescue must rescan the full range so the trash
        // verdict (and every counter) matches brute force exactly.
        let model = Arc::new(model(6, 0.5));
        let engine = Arc::new(TreeEngine::build(
            Arc::clone(&model),
            TreeConfig { branch: 2, beam: 1 },
        ));
        assert!(!engine.is_exact());
        let mut tree = TreeClassifier::new(Arc::clone(&engine));
        let mut brute = Classifier::shared(Arc::clone(&model));
        let alien = r#"<menu><entree id="e1"><flavor>umami</flavor></entree></menu>"#;
        let a = tree.classify(alien).expect("tree");
        let b = brute.classify_brute(alien).expect("brute");
        assert_same(&a, &b, "rescued alien");
        assert_eq!(a.cluster, tree.trash_id());
        assert!(a.tuples.iter().all(|t| t.candidates == 6));
        let stats = engine.stats();
        assert_eq!(stats.fallbacks, stats.tuples, "every tuple was rescued");
    }

    #[test]
    fn degenerate_queries_fall_back_to_full_scan() {
        // γ = 0: every tuple must bypass the descent and score all k.
        let model = Arc::new(model(5, 0.0));
        let engine = Arc::new(TreeEngine::build(
            Arc::clone(&model),
            TreeConfig { branch: 2, beam: 1 },
        ));
        let mut tree = TreeClassifier::new(Arc::clone(&engine));
        let report = tree.classify(&doc(1, 4)).expect("classify");
        assert!(report.tuples.iter().all(|t| t.candidates == 5));
        let stats = engine.stats();
        assert_eq!(stats.fallbacks, stats.tuples);
        assert_eq!(stats.nodes_visited, 0);
    }

    #[test]
    fn level_less_tree_is_exact_scan() {
        let model = Arc::new(model(3, 0.5));
        let engine = Arc::new(TreeEngine::build(
            Arc::clone(&model),
            TreeConfig { branch: 8, beam: 1 },
        ));
        assert_eq!(engine.depth(), 0);
        assert_eq!(engine.node_count(), 0);
        let mut tree = TreeClassifier::new(Arc::clone(&engine));
        let mut brute = Classifier::shared(Arc::clone(&model));
        for topic in 0..4 {
            let xml = doc(topic, 23);
            let a = tree.classify(&xml).expect("tree");
            let b = brute.classify_brute(&xml).expect("brute");
            assert_same(&a, &b, "k ≤ B");
        }
        assert_eq!(engine.stats().nodes_visited, 0);
    }

    #[test]
    fn config_is_clamped() {
        let engine = TreeEngine::build(Arc::new(model(4, 0.5)), TreeConfig { branch: 0, beam: 0 });
        assert_eq!(engine.config().branch, 2);
        assert_eq!(engine.config().beam, 1);
    }

    #[test]
    fn sessions_share_one_engine() {
        let model = Arc::new(model(5, 0.5));
        let engine = Arc::new(TreeEngine::build(Arc::clone(&model), TreeConfig::default()));
        let a = TreeClassifier::new(Arc::clone(&engine));
        let b = TreeClassifier::new(Arc::clone(&engine));
        assert!(std::ptr::eq(&**a.engine(), &**b.engine()));
        assert_eq!(a.trash_id(), 5);
        assert_eq!(b.k(), 5);
    }
}
