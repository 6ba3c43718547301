//! `ComputeGlobalRepresentative` (Fig. 6).
//!
//! The global representative of cluster `j` combines the `m` local
//! representatives `ℓ¹_j … ℓᵐ_j` with their cluster sizes as weights: the
//! distinct items of all local representatives are ranked like in the local
//! computation but scaled by the summed weight of the representatives
//! containing them ("the greater the number of transactions belonging to the
//! cluster stored at node i, the greater the information in ℓⁱ_j"), then the
//! same `GenerateTreeTuple` refinement runs with the local representatives
//! playing the role of the member transactions.

use crate::localrep::{blended_ranks, generate_tree_tuple};
use crate::rep::{RepItem, Representative};
use cxk_transact::item::ItemView;
use cxk_transact::SimCtx;
use cxk_util::FxHashMap;
use cxk_xml::path::PathId;

/// Computes the global representative from weighted local representatives
/// `(ℓ, |C|)`. Peers with empty local clusters contribute nothing.
pub fn compute_global_representative(
    ctx: &SimCtx<'_>,
    locals: &[(Representative, u64)],
    work: &mut u64,
) -> Representative {
    // I_T: distinct items over all local representatives, with summed
    // weights. Identity is the item fingerprint.
    let mut order: Vec<u64> = Vec::new();
    let mut items: FxHashMap<u64, (RepItem, u64)> = FxHashMap::default();
    for (rep, weight) in locals {
        if *weight == 0 && rep.is_empty() {
            continue;
        }
        for item in &rep.items {
            match items.entry(item.fingerprint) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    e.get_mut().1 += *weight;
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    order.push(item.fingerprint);
                    e.insert((item.clone(), *weight));
                }
            }
        }
    }
    if order.is_empty() {
        return Representative::empty();
    }

    let views: Vec<(PathId, ItemView<'_>)> = order
        .iter()
        .map(|fp| {
            let (item, _) = &items[fp];
            (item.path, item.view())
        })
        .collect();
    let ranks = blended_ranks(ctx, &views, work);
    // g_rank scales the blended rank by the item's summed weight.
    let mut ranked: Vec<(RepItem, f64)> = order
        .iter()
        .zip(ranks)
        .map(|(fp, rank)| {
            let (item, weight) = &items[fp];
            (item.clone(), *weight as f64 * rank)
        })
        .collect();

    ranked.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap()
            .then(a.0.fingerprint.cmp(&b.0.fingerprint))
    });

    // T[1]: the local representatives act as the member "transactions".
    let members: Vec<Vec<ItemView<'_>>> = locals
        .iter()
        .filter(|(rep, _)| !rep.is_empty())
        .map(|(rep, _)| rep.views())
        .collect();
    let tr_max = locals.iter().map(|(rep, _)| rep.len()).max().unwrap_or(0);

    generate_tree_tuple(ctx, ranked, &members, tr_max, work)
}

/// Merges already-built representatives into one, each weighted by how
/// much evidence it carries — the reusable surface over
/// [`compute_global_representative`] for callers outside the round
/// protocol (the serving layer's hierarchical representative tree builds
/// every internal node this way, weighting each child by the leaves it
/// covers). Borrows its inputs instead of taking owned pairs, so building
/// a whole level of merged nodes does not clone the level below twice.
pub fn merge_representatives(
    ctx: &SimCtx<'_>,
    weighted: &[(&Representative, u64)],
) -> Representative {
    let owned: Vec<(Representative, u64)> = weighted
        .iter()
        .map(|&(rep, weight)| (rep.clone(), weight))
        .collect();
    let mut work = 0u64;
    compute_global_representative(ctx, &owned, &mut work)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxk_transact::{BuildOptions, Dataset, DatasetBuilder, SimParams};

    fn dataset() -> Dataset {
        let docs = [
            r#"<dblp><inproceedings key="a1"><author>M.J. Zaki</author><title>mining frequent patterns clustering</title><booktitle>KDD</booktitle></inproceedings></dblp>"#,
            r#"<dblp><inproceedings key="a2"><author>C.C. Aggarwal</author><title>clustering mining data streams</title><booktitle>KDD</booktitle></inproceedings></dblp>"#,
            r#"<dblp><inproceedings key="a3"><author>J. Han</author><title>frequent patterns mining growth</title><booktitle>KDD</booktitle></inproceedings></dblp>"#,
        ];
        let mut builder = DatasetBuilder::new(BuildOptions::default());
        for d in docs {
            builder.add_xml(d).unwrap();
        }
        builder.finish()
    }

    #[test]
    fn combines_local_representatives() {
        let ds = dataset();
        let ctx = ds.sim_ctx(SimParams::new(0.5, 0.7));
        let mut work = 0;
        let l1 = Representative::from_transaction(&ds, &ds.transactions[0]);
        let l2 = Representative::from_transaction(&ds, &ds.transactions[1]);
        let g = compute_global_representative(&ctx, &[(l1, 3), (l2, 2)], &mut work);
        assert!(!g.is_empty());
        assert!(work > 0);
        // The global representative stays within the local reps' item pool.
        let pool: Vec<u64> = ds.transactions[0]
            .items()
            .iter()
            .chain(ds.transactions[1].items())
            .map(|id| ds.items[id.index()].fingerprint)
            .collect();
        for item in &g.items {
            // Either a pooled item or a conflation of pooled items.
            if item.source.is_some() {
                assert!(pool.contains(&item.fingerprint));
            }
        }
    }

    #[test]
    fn weights_bias_toward_heavier_peer() {
        let ds = dataset();
        let ctx = ds.sim_ctx(SimParams::new(0.3, 0.7));
        let l1 = Representative::from_transaction(&ds, &ds.transactions[0]);
        let l2 = Representative::from_transaction(&ds, &ds.transactions[2]);
        let mut w = 0;
        // Heavily weighted l1: the global rep should resemble tr0 more than
        // tr2.
        let g = compute_global_representative(&ctx, &[(l1, 100), (l2, 1)], &mut w);
        let views = g.views();
        let to_tr0 = cxk_transact::txsim::sim_gamma_j(&ctx, &ds.views(&ds.transactions[0]), &views);
        let to_tr2 = cxk_transact::txsim::sim_gamma_j(&ctx, &ds.views(&ds.transactions[2]), &views);
        assert!(to_tr0 >= to_tr2, "tr0 {to_tr0} vs tr2 {to_tr2}");
    }

    #[test]
    fn empty_locals_yield_empty_global() {
        let ds = dataset();
        let ctx = ds.sim_ctx(SimParams::default());
        let mut w = 0;
        let g = compute_global_representative(
            &ctx,
            &[(Representative::empty(), 0), (Representative::empty(), 0)],
            &mut w,
        );
        assert!(g.is_empty());
    }

    #[test]
    fn single_local_rep_passes_through() {
        let ds = dataset();
        let ctx = ds.sim_ctx(SimParams::new(0.5, 0.8));
        let local = Representative::from_transaction(&ds, &ds.transactions[1]);
        let mut w = 0;
        let g = compute_global_representative(&ctx, &[(local.clone(), 5)], &mut w);
        // With one member the refinement reaches simγJ = 1 using (a subset
        // of) its items; the result must γ-represent it perfectly.
        let s = cxk_transact::txsim::sim_gamma_j(&ctx, &local.views(), &g.views());
        assert!((s - 1.0).abs() < 1e-9, "s = {s}");
    }

    #[test]
    fn deterministic() {
        let ds = dataset();
        let ctx = ds.sim_ctx(SimParams::new(0.5, 0.75));
        let l1 = Representative::from_transaction(&ds, &ds.transactions[0]);
        let l2 = Representative::from_transaction(&ds, &ds.transactions[2]);
        let (mut w1, mut w2) = (0, 0);
        let a = compute_global_representative(&ctx, &[(l1.clone(), 2), (l2.clone(), 3)], &mut w1);
        let b = compute_global_representative(&ctx, &[(l1, 2), (l2, 3)], &mut w2);
        assert!(a.same_items(&b));
        assert_eq!(w1, w2);
    }
}
