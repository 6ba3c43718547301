//! `ComputeLocalRepresentative` and `GenerateTreeTuple` (Fig. 6).
//!
//! The local representative of a cluster ranks the cluster's items by a
//! blend of structural frequency (`rank_S`: how much of the cluster's path
//! mass γ-structurally matches the item) and content centrality (`rank_C`:
//! summed cosine to every cluster item), then greedily grows a tree-tuple
//! representative from the highest-ranked items while the summed
//! `simγJ` between cluster members and the candidate keeps improving.
//!
//! Fig. 6's loop returns the representative preceding the first
//! non-improving extension; we keep the best-scoring candidate seen, which
//! coincides with the paper's description ("until the sum of pairwise
//! similarities … cannot be further maximized") and is well-defined on
//! plateaus. Work performed is metered into a caller-supplied counter for
//! the simulated clock.

use crate::rep::{conflate_items, RepItem, Representative};
use cxk_transact::item::ItemView;
use cxk_transact::txsim::{sim_gamma_j_prepared, PreparedSlab, ScoreScratch};
use cxk_transact::{Dataset, ItemId, SimCtx, SimParams};
use cxk_util::FxHashMap;
use cxk_xml::path::PathId;

/// Computes the local representative of `cluster` (transaction indices into
/// `ds`). Empty clusters yield the empty representative.
pub fn compute_local_representative(
    ds: &Dataset,
    ctx: &SimCtx<'_>,
    cluster: &[usize],
    work: &mut u64,
) -> Representative {
    if cluster.is_empty() {
        return Representative::empty();
    }

    // I_C: the distinct items of the cluster.
    let mut item_ids: Vec<ItemId> = cluster
        .iter()
        .flat_map(|&t| ds.transactions[t].items().iter().copied())
        .collect();
    item_ids.sort_unstable();
    item_ids.dedup();

    let views: Vec<(PathId, ItemView<'_>)> = item_ids
        .iter()
        .map(|id| {
            let item = &ds.items[id.index()];
            (item.path, item.view())
        })
        .collect();
    let ranks = blended_ranks(ctx, &views, work);
    let mut ranked: Vec<(ItemId, f64)> = item_ids.into_iter().zip(ranks).collect();

    // Sort by rank descending; ties by item id for determinism.
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));

    let candidates: Vec<(RepItem, f64)> = ranked
        .into_iter()
        .map(|(id, rank)| (RepItem::from_dataset(ds, id), rank))
        .collect();

    let members: Vec<Vec<ItemView<'_>>> = cluster
        .iter()
        .map(|&t| ds.views(&ds.transactions[t]))
        .collect();
    let tr_max = cluster
        .iter()
        .map(|&t| ds.transactions[t].len())
        .max()
        .unwrap_or(0);

    generate_tree_tuple(ctx, candidates, &members, tr_max, work)
}

/// The local representative of each of the `k` proper clusters of a
/// whole-dataset assignment: `assignments[t]` is transaction `t`'s cluster,
/// and an id of `k` or above (trash) joins none. The work is not metered.
pub fn cluster_representatives(
    ds: &Dataset,
    params: SimParams,
    assignments: &[u32],
    k: usize,
) -> Vec<Representative> {
    let mut clusters: Vec<Vec<usize>> = vec![Vec::new(); k];
    for (t, &a) in assignments.iter().enumerate() {
        if let Some(cluster) = clusters.get_mut(a as usize) {
            cluster.push(t);
        }
    }
    let ctx = ds.sim_ctx(params);
    let mut work = 0u64;
    clusters
        .iter()
        .map(|c| compute_local_representative(ds, &ctx, c, &mut work))
        .collect()
}

/// Fig. 6's blended rank `f·rank_S + (1 − f)·rank_C` of each distinct item
/// `I` of a cluster, given as `(complete path, view)`. `rank_S` is the
/// number of items whose complete path has a tag path γ-structurally
/// matching the item's, over the number of distinct complete paths `P`;
/// `rank_C` is the item's summed content similarity to every item of `I`,
/// itself included, added in `items` order. Charges `|I|·(|I| + |P|)` to
/// `work`: the O(|I|²) content ranking is the dominant cost of §4.3.2, so
/// it is charged in full.
pub(crate) fn blended_ranks(
    ctx: &SimCtx<'_>,
    items: &[(PathId, ItemView<'_>)],
    work: &mut u64,
) -> Vec<f64> {
    // Per distinct complete path, its tag path and the number of items
    // carrying it (the path determines the tag path).
    let mut path_counts: FxHashMap<PathId, (PathId, u64)> = FxHashMap::default();
    for (path, item) in items {
        path_counts.entry(*path).or_insert((item.tag_path, 0)).1 += 1;
    }
    let path_counts: Vec<(PathId, u64)> = path_counts.into_values().collect();
    let p = path_counts.len() as f64;
    let gamma = ctx.params.gamma;
    let f = ctx.params.f;
    let ranks = items
        .iter()
        .map(|(_, item)| {
            let mut rank_s_sum = 0u64;
            for (tag_path, h) in &path_counts {
                if ctx.tag_sim.sim(item.tag_path, *tag_path) >= gamma {
                    rank_s_sum += h;
                }
            }
            let rank_s = rank_s_sum as f64 / p;
            let mut rank_c = 0.0;
            for (_, other) in items {
                rank_c += ctx.sim_c(*item, *other);
            }
            f * rank_s + (1.0 - f) * rank_c
        })
        .collect();
    *work += (items.len() as u64) * (items.len() as u64 + path_counts.len() as u64);
    ranks
}

/// The `GenerateTreeTuple` greedy refinement of Fig. 6. `ranked` must be
/// sorted by rank descending; `members` are the cluster's transactions (or
/// the local representatives when called from the global computation);
/// `tr_max` caps the representative length at the longest member.
pub fn generate_tree_tuple(
    ctx: &SimCtx<'_>,
    ranked: Vec<(RepItem, f64)>,
    members: &[Vec<ItemView<'_>>],
    tr_max: usize,
    work: &mut u64,
) -> Representative {
    if ranked.is_empty() || tr_max == 0 {
        return Representative::empty();
    }

    // Members are prepared once; each candidate once per extension, then
    // scored against every member with one reused scratch.
    let prepared_members =
        PreparedSlab::build(ctx.tag_sim, members.iter().map(|m| m.iter().copied()));
    let mut candidate = PreparedSlab::new();
    let mut scratch = ScoreScratch::default();
    let mut score = |items: &[RepItem], work: &mut u64| -> f64 {
        candidate.clear();
        candidate.push(ctx.tag_sim, items.iter().map(RepItem::view));
        let Some(rep) = candidate.get(0) else {
            return 0.0;
        };
        let mut total = 0.0;
        for member in prepared_members.iter() {
            *work += (member.len() * rep.len()) as u64;
            total += sim_gamma_j_prepared(ctx, member, rep, &mut scratch);
        }
        total
    };

    let mut best: Vec<RepItem> = Vec::new();
    let mut best_score = f64::NEG_INFINITY;
    let mut current: Vec<RepItem> = Vec::new();
    let mut idx = 0;

    while idx < ranked.len() {
        // The next batch: all items tied at the current highest rank.
        let batch_rank = ranked[idx].1;
        let mut extended = current.clone();
        while idx < ranked.len() && ranked[idx].1 == batch_rank {
            extended.push(ranked[idx].0.clone());
            idx += 1;
        }
        let conflated = conflate_items(extended);
        if conflated.len() > tr_max {
            break;
        }
        let s = score(&conflated, work);
        if s >= best_score {
            // Plateaus keep the larger representative: Fig. 6's loop only
            // stops on a strict decrease, so equal-scoring extensions are
            // retained (a one-item representative would otherwise win ties
            // and cripple discrimination).
            best = conflated.clone();
            best_score = s;
        } else {
            // Sum of similarities can no longer be maximized: stop.
            break;
        }
        current = conflated;
    }

    Representative { items: best }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxk_transact::txsim::sim_gamma_j;
    use cxk_transact::{BuildOptions, DatasetBuilder, SimParams};

    /// Small two-topic corpus: four bibliographic records, two about data
    /// mining, two about networking, with matching structure.
    fn dataset() -> Dataset {
        let docs = [
            r#"<dblp><inproceedings key="a1"><author>M.J. Zaki</author><title>mining frequent tree patterns clustering</title><booktitle>KDD</booktitle></inproceedings></dblp>"#,
            r#"<dblp><inproceedings key="a2"><author>C.C. Aggarwal</author><title>clustering mining massive patterns streams</title><booktitle>KDD</booktitle></inproceedings></dblp>"#,
            r#"<dblp><article key="b1"><author>R. Perlman</author><title>routing protocols congestion networks</title><journal>Networking Letters</journal></article></dblp>"#,
            r#"<dblp><article key="b2"><author>V. Jacobson</author><title>congestion avoidance networks routing</title><journal>Networking Letters</journal></article></dblp>"#,
        ];
        let mut builder = DatasetBuilder::new(BuildOptions::default());
        for d in docs {
            builder.add_xml(d).unwrap();
        }
        builder.finish()
    }

    #[test]
    fn representative_of_homogeneous_cluster_matches_members() {
        let ds = dataset();
        let ctx = ds.sim_ctx(SimParams::new(0.5, 0.7));
        let mut work = 0u64;
        // Cluster of the two KDD papers (transactions 0 and 1).
        let rep = compute_local_representative(&ds, &ctx, &[0, 1], &mut work);
        assert!(!rep.is_empty());
        assert!(rep.len() <= ds.transactions[0].len().max(ds.transactions[1].len()));
        // The representative must be closer to its own members than to the
        // networking transactions.
        let rep_views = rep.views();
        let own = sim_gamma_j(&ctx, &ds.views(&ds.transactions[0]), &rep_views);
        let other = sim_gamma_j(&ctx, &ds.views(&ds.transactions[2]), &rep_views);
        assert!(own > other, "own {own} vs other {other}");
        assert!(work > 0, "work is metered");
    }

    #[test]
    fn representative_is_tree_tuple_shaped() {
        let ds = dataset();
        let ctx = ds.sim_ctx(SimParams::new(0.5, 0.7));
        let mut work = 0;
        let rep = compute_local_representative(&ds, &ctx, &[0, 1, 2, 3], &mut work);
        let mut paths: Vec<PathId> = rep.items.iter().map(|i| i.path).collect();
        paths.sort_unstable();
        paths.dedup();
        assert_eq!(paths.len(), rep.len(), "at most one item per path");
    }

    #[test]
    fn empty_cluster_yields_empty_representative() {
        let ds = dataset();
        let ctx = ds.sim_ctx(SimParams::default());
        let mut work = 0;
        let rep = compute_local_representative(&ds, &ctx, &[], &mut work);
        assert!(rep.is_empty());
        assert_eq!(work, 0);
    }

    #[test]
    fn singleton_cluster_reproduces_its_transaction() {
        let ds = dataset();
        let ctx = ds.sim_ctx(SimParams::new(0.5, 0.8));
        let mut work = 0;
        let rep = compute_local_representative(&ds, &ctx, &[0], &mut work);
        // simγJ(tr0, rep) must be 1: the representative is built from tr0's
        // own items and capped at |tr0|.
        let s = sim_gamma_j(&ctx, &ds.views(&ds.transactions[0]), &rep.views());
        assert!((s - 1.0).abs() < 1e-9, "self-similarity {s}");
    }

    #[test]
    fn generate_tree_tuple_respects_tr_max() {
        let ds = dataset();
        let ctx = ds.sim_ctx(SimParams::new(0.5, 0.7));
        let mut work = 0;
        let all: Vec<(RepItem, f64)> = (0..ds.items.len())
            .map(|i| {
                (
                    RepItem::from_dataset(&ds, ItemId(i as u32)),
                    (ds.items.len() - i) as f64,
                )
            })
            .collect();
        let members: Vec<Vec<ItemView<'_>>> = ds.transactions.iter().map(|t| ds.views(t)).collect();
        let rep = generate_tree_tuple(&ctx, all, &members, 3, &mut work);
        assert!(rep.len() <= 3);
    }

    #[test]
    fn generate_tree_tuple_empty_inputs() {
        let ds = dataset();
        let ctx = ds.sim_ctx(SimParams::default());
        let mut work = 0;
        let rep = generate_tree_tuple(&ctx, Vec::new(), &[], 5, &mut work);
        assert!(rep.is_empty());
        let some: Vec<(RepItem, f64)> = vec![(RepItem::from_dataset(&ds, ItemId(0)), 1.0)];
        let rep = generate_tree_tuple(&ctx, some, &[], 0, &mut work);
        assert!(rep.is_empty(), "tr_max = 0 forbids any item");
    }

    #[test]
    fn representative_is_deterministic() {
        let ds = dataset();
        let ctx = ds.sim_ctx(SimParams::new(0.4, 0.75));
        let (mut w1, mut w2) = (0, 0);
        let a = compute_local_representative(&ds, &ctx, &[0, 1, 2], &mut w1);
        let b = compute_local_representative(&ds, &ctx, &[0, 1, 2], &mut w2);
        assert!(a.same_items(&b));
        assert_eq!(w1, w2);
    }
}
