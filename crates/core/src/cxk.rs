//! The CXK-means driver (Fig. 5) — centralized and collaborative execution
//! with the simulated clock.
//!
//! One collaborative **round** comprises, per peer: (1) relocation of the
//! local transactions against the current global representatives, with
//! transactions γ-matching none falling into the trash cluster; (2)
//! computation of the `k` local representatives; (3) the `done`/`continue`
//! status broadcast; (4) shipping each local representative to the peer
//! owning that cluster id (`Z_i = {j : j mod m = i}`); (5) owners combining
//! local representatives into global ones and broadcasting them. The run
//! terminates when every peer reports `done` in the same round (no local
//! representative changed), or at the round cap.
//!
//! Every phase's main-memory work and traffic is metered into the
//! `cxk_p2p` [`SimClock`], whose per-round time is the maximum over peers —
//! the quantity the paper's Fig. 7/8 report.

use crate::error::CxkError;
use crate::globalrep::compute_global_representative;
use crate::localrep::compute_local_representative;
use crate::outcome::{ClusteringOutcome, RoundTrace};
use crate::rep::{prepare_representatives, Representative};
use cxk_p2p::{CostModel, RoundSample, SimClock};
use cxk_transact::txsim::{argmax_prepared, PreparedSlab, ScoreScratch};
use cxk_transact::{Dataset, SimCtx, SimParams};
use cxk_util::DetRng;
use rayon::prelude::*;

/// Wire size of a bare status flag message.
const STATUS_BYTES: u64 = 16;

/// CXK-means configuration.
#[derive(Debug, Clone)]
pub struct CxkConfig {
    /// Desired number of clusters `k` (a `(k+1)`-th trash cluster is added).
    pub k: usize,
    /// Similarity parameters `f` and `γ`.
    pub params: SimParams,
    /// Safety cap on collaborative rounds (the paper observes < 10).
    pub max_rounds: usize,
    /// Cap on the inner local-clustering passes per round (Fig. 5's
    /// "repeat ... until no transaction is relocated").
    pub max_inner: usize,
    /// Seed for initial representative selection.
    pub seed: u64,
    /// Cost model for the simulated clock.
    pub cost: CostModel,
    /// Weight local representatives by their cluster sizes when combining
    /// global representatives (the paper's meta-representative scheme,
    /// §4.2). Disabling this is the ablation isolating the
    /// collaborativeness benefit of §5.5.3.
    pub weighted_merge: bool,
}

impl CxkConfig {
    /// Creates a configuration with the paper's defaults.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            params: SimParams::default(),
            max_rounds: 30,
            max_inner: 2,
            seed: 0xC1C,
            cost: CostModel::default(),
            weighted_merge: true,
        }
    }
}

/// Per-peer mutable state.
struct PeerState {
    local: Vec<usize>,
    /// Cluster per local transaction; `k` = trash.
    assignments: Vec<u32>,
    local_reps: Vec<Representative>,
    /// `|C_j^i|` weights.
    weights: Vec<u64>,
    done: bool,
    /// Work units accumulated this round.
    work: u64,
    relocations: u64,
    /// Local clustering objective of the last relocation pass.
    objective: f64,
}

/// Runs collaborative CXK-means over an explicit peer partition (lists of
/// transaction indices). `partition.len()` is the network size `m`;
/// `m = 1` is the centralized baseline. This is the simulated-clock driver
/// behind [`crate::engine::Backend::SimulatedP2p`]; input validation
/// happens in `EngineBuilder::build`, but the driver re-checks the
/// invariants it depends on and reports them as typed errors.
pub(crate) fn drive_collaborative(
    ds: &Dataset,
    partition: &[Vec<usize>],
    config: &CxkConfig,
) -> Result<ClusteringOutcome, CxkError> {
    let m = partition.len();
    let k = config.k;
    if m == 0 {
        return Err(CxkError::config("peers", "need at least one peer, got 0"));
    }
    if k == 0 {
        return Err(CxkError::config(
            "k",
            "need at least one cluster, got k = 0",
        ));
    }
    let ctx = ds.sim_ctx(config.params);

    // N0 startup: Z_i = {j : j mod m = i} (trivial, charged as serial work).
    let owner = |j: usize| j % m;

    let mut global_reps = select_initial_reps(ds, partition, k, config.seed);

    let mut peers: Vec<PeerState> = partition
        .iter()
        .map(|local| PeerState {
            assignments: vec![k as u32; local.len()],
            local: local.clone(),
            local_reps: vec![Representative::empty(); k],
            weights: vec![0; k],
            done: false,
            work: 0,
            relocations: 0,
            objective: 0.0,
        })
        .collect();

    let mut clock = SimClock::new(config.cost);
    clock.advance_serial(k as u64 + m as u64); // N0 startup bookkeeping

    // Initial broadcast of the selected global representatives.
    if m > 1 {
        let mut init_samples = vec![RoundSample::default(); m];
        for (j, rep) in global_reps.iter().enumerate() {
            let o = owner(j);
            let sz = rep.wire_size() as u64;
            init_samples[o].comm_bytes += sz * (m as u64 - 1);
            init_samples[o].messages += m as u64 - 1;
            for (i, sample) in init_samples.iter_mut().enumerate() {
                if i != o {
                    sample.comm_bytes += sz;
                }
            }
        }
        clock.advance_round(&init_samples);
    }

    let mut traces: Vec<RoundTrace> = Vec::new();
    let mut converged = false;
    let mut rounds = 0;
    let mut best_objective = f64::NEG_INFINITY;
    let mut stale_rounds = 0usize;

    for round in 1..=config.max_rounds {
        rounds = round;

        // Phase 1+2: local relocation and representative computation,
        // genuinely parallel across peers (deterministic: peers touch only
        // their own state).
        let global = prepare_representatives(ctx.tag_sim, &global_reps);
        peers.par_iter_mut().for_each(|peer| {
            peer.work = 0;
            let phase = local_clustering_phase(
                ds,
                &ctx,
                &peer.local,
                &mut peer.assignments,
                &global,
                k,
                config.max_inner,
                &mut peer.work,
            );
            peer.relocations = phase.relocations;
            peer.objective = phase.objective;
            let changed = phase
                .local_reps
                .iter()
                .zip(&peer.local_reps)
                .any(|(new, old)| !new.same_items(old));
            peer.weights = phase.weights;
            peer.local_reps = phase.local_reps;
            peer.done = !changed;
        });

        let mut samples: Vec<RoundSample> = peers
            .iter()
            .map(|p| RoundSample {
                work_units: p.work,
                comm_bytes: 0,
                messages: 0,
            })
            .collect();
        let mut round_bytes = 0u64;

        // Phase 3: status broadcast (every peer tells every other peer
        // whether it is done).
        if m > 1 {
            for (i, sample) in samples.iter_mut().enumerate() {
                let _ = i;
                sample.comm_bytes += 2 * STATUS_BYTES * (m as u64 - 1); // send + receive
                sample.messages += m as u64 - 1;
            }
            round_bytes += STATUS_BYTES * (m as u64) * (m as u64 - 1);
        }

        let all_done = peers.iter().all(|p| p.done);
        let done_count = peers.iter().filter(|p| p.done).count();

        // Secondary stopping rule mirroring the PK-means objective guard:
        // the greedy tree-tuple representatives do not maximize simGammaJ
        // exactly, so representative sets can limit-cycle without the
        // per-peer `done` flags ever aligning. The globally summed
        // relocation objective travels with the status broadcast; when it
        // has not improved for three rounds every peer stops with its
        // current (stable-quality) solution.
        let global_objective: f64 = peers.iter().map(|p| p.objective).sum();
        if global_objective > best_objective * (1.0 + 1e-3) + 1e-9 {
            best_objective = global_objective;
            stale_rounds = 0;
        } else {
            stale_rounds += 1;
        }

        if all_done || stale_rounds >= 2 {
            clock.advance_round(&samples);
            traces.push(RoundTrace {
                round,
                relocations: peers.iter().map(|p| p.relocations).sum(),
                max_work: samples.iter().map(|s| s.work_units).max().unwrap_or(0),
                bytes: round_bytes,
                done_peers: done_count,
            });
            converged = true;
            break;
        }

        // Phase 4: ship local representatives to cluster owners.
        if m > 1 {
            for (i, peer) in peers.iter().enumerate() {
                let mut destinations = vec![false; m];
                for (j, rep) in peer.local_reps.iter().enumerate() {
                    let o = owner(j);
                    if o == i {
                        continue;
                    }
                    let sz = rep.wire_size() as u64;
                    samples[i].comm_bytes += sz;
                    samples[o].comm_bytes += sz;
                    round_bytes += sz;
                    destinations[o] = true;
                }
                samples[i].messages += destinations.iter().filter(|&&d| d).count() as u64;
            }
        }

        // Phase 5: owners compute the new global representatives.
        let new_globals: Vec<(Representative, u64)> = (0..k)
            .into_par_iter()
            .map(|j| {
                let locals: Vec<(Representative, u64)> = peers
                    .iter()
                    .map(|p| {
                        let weight = if config.weighted_merge {
                            p.weights[j]
                        } else {
                            u64::from(p.weights[j] > 0)
                        };
                        (p.local_reps[j].clone(), weight)
                    })
                    .collect();
                let mut work = 0u64;
                let g = compute_global_representative(&ctx, &locals, &mut work);
                (g, work)
            })
            .collect();
        for (j, (_, work)) in new_globals.iter().enumerate() {
            samples[owner(j)].work_units += work;
        }

        // Phase 5b: owners broadcast the fresh global representatives.
        if m > 1 {
            for (j, (rep, _)) in new_globals.iter().enumerate() {
                let o = owner(j);
                let sz = rep.wire_size() as u64;
                samples[o].comm_bytes += sz * (m as u64 - 1);
                round_bytes += sz * (m as u64 - 1);
                for (i, sample) in samples.iter_mut().enumerate() {
                    if i != o {
                        sample.comm_bytes += sz;
                    }
                }
            }
            for sample in samples.iter_mut() {
                sample.messages += m as u64 - 1;
            }
        }

        global_reps = new_globals.into_iter().map(|(g, _)| g).collect();
        clock.advance_round(&samples);
        traces.push(RoundTrace {
            round,
            relocations: peers.iter().map(|p| p.relocations).sum(),
            max_work: samples.iter().map(|s| s.work_units).max().unwrap_or(0),
            bytes: round_bytes,
            done_peers: done_count,
        });
    }

    // Gather the distributed partition into a dataset-wide assignment.
    let mut assignments = vec![k as u32; ds.transactions.len()];
    for peer in &peers {
        for (li, &t) in peer.local.iter().enumerate() {
            assignments[t] = peer.assignments[li];
        }
    }

    Ok(ClusteringOutcome {
        assignments,
        k,
        m,
        rounds,
        converged,
        simulated_seconds: clock.elapsed_seconds(),
        total_work: clock.total_work(),
        total_bytes: clock.total_bytes() / 2, // samples count send + receive
        total_messages: clock.total_messages(),
        per_round: traces,
    })
}

/// Initial global representatives: the owner of cluster `j` (`j mod m`)
/// selects a transaction from its local data, preferring distinct source
/// documents (Fig. 5: "select {tr_1 … tr_qi} from S_i coming from distinct
/// original trees"). Shared with the PK-means baseline so both algorithms
/// start from identical configurations, as the comparison in §5.5.3
/// requires.
pub(crate) fn select_initial_reps(
    ds: &Dataset,
    partition: &[Vec<usize>],
    k: usize,
    seed: u64,
) -> Vec<Representative> {
    let m = partition.len();
    let root_rng = DetRng::seed_from_u64(seed);
    let mut global_reps: Vec<Representative> = vec![Representative::empty(); k];
    for (i, part) in partition.iter().enumerate() {
        let owned: Vec<usize> = (0..k).filter(|&j| j % m == i).collect();
        if owned.is_empty() || part.is_empty() {
            continue;
        }
        let mut rng = root_rng.derive(i as u64 + 1);
        let mut order = part.clone();
        rng.shuffle(&mut order);
        let mut used_docs: Vec<u32> = Vec::new();
        let mut picks: Vec<usize> = Vec::new();
        for &t in &order {
            if picks.len() == owned.len() {
                break;
            }
            let doc = ds.doc_of[t];
            if !used_docs.contains(&doc) {
                used_docs.push(doc);
                picks.push(t);
            }
        }
        // Fallback: top up from any unused transactions.
        for &t in &order {
            if picks.len() == owned.len() {
                break;
            }
            if !picks.contains(&t) {
                picks.push(t);
            }
        }
        for (&j, &t) in owned.iter().zip(&picks) {
            global_reps[j] = Representative::from_transaction(ds, &ds.transactions[t]);
        }
    }
    global_reps
}

/// Result of one relocation pass.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Relocation {
    /// Transactions that changed cluster.
    pub relocations: u64,
    /// The local clustering objective: `Σ_tr simγJ(tr, rep_assigned(tr))` —
    /// the similarity analogue of the SSE that \[11\] reduces globally.
    pub objective: f64,
}

/// Result of one peer's full local clustering phase (the inner loop of
/// Fig. 5).
pub(crate) struct LocalPhase {
    /// The k local representatives consistent with the final assignment.
    pub local_reps: Vec<Representative>,
    /// `|C_j^i|` cluster sizes.
    pub weights: Vec<u64>,
    /// Relocations in the first pass (against the global representatives).
    pub relocations: u64,
    /// Objective of the first pass (against the global representatives) —
    /// the globally comparable quantity for the stale-objective guard.
    pub objective: f64,
    /// Inner passes executed (diagnostic; surfaced by tests).
    #[allow(dead_code)]
    pub inner_passes: usize,
}

/// One peer's local clustering for one collaborative round: the first
/// relocation pass runs against the received global representatives, then
/// the peer iterates a classical K-means on its own data — reassigning
/// against its freshly computed local representatives — until no
/// transaction relocates or `max_inner` passes elapse (Fig. 5's inner
/// `repeat`). Work for every pass is metered.
#[allow(clippy::too_many_arguments)]
pub(crate) fn local_clustering_phase(
    ds: &Dataset,
    ctx: &SimCtx<'_>,
    local: &[usize],
    assignments: &mut [u32],
    global: &PreparedSlab,
    k: usize,
    max_inner: usize,
    work: &mut u64,
) -> LocalPhase {
    let first = relocate_slice(ds, ctx, local, assignments, global, k, work);
    let mut clusters: Vec<Vec<usize>> = vec![Vec::new(); k];
    for (li, &t) in local.iter().enumerate() {
        let a = assignments[li] as usize;
        if a < k {
            clusters[a].push(t);
        }
    }
    let mut local_reps: Vec<Representative> = clusters
        .iter()
        .map(|c| compute_local_representative(ds, ctx, c, work))
        .collect();

    let mut inner_passes = 1;
    for _ in 1..max_inner {
        let prepared = prepare_representatives(ctx.tag_sim, &local_reps);
        let pass = relocate_slice(ds, ctx, local, assignments, &prepared, k, work);
        inner_passes += 1;
        if pass.relocations == 0 {
            break;
        }
        let mut clusters: Vec<Vec<usize>> = vec![Vec::new(); k];
        for (li, &t) in local.iter().enumerate() {
            let a = assignments[li] as usize;
            if a < k {
                clusters[a].push(t);
            }
        }
        local_reps = clusters
            .iter()
            .map(|c| compute_local_representative(ds, ctx, c, work))
            .collect();
    }

    let mut final_clusters: Vec<Vec<usize>> = vec![Vec::new(); k];
    for (li, &t) in local.iter().enumerate() {
        let a = assignments[li] as usize;
        if a < k {
            final_clusters[a].push(t);
        }
    }
    LocalPhase {
        local_reps,
        weights: final_clusters.iter().map(|c| c.len() as u64).collect(),
        relocations: first.relocations,
        objective: first.objective,
        inner_passes,
    }
}

/// Assigns each transaction in `local` to the best representative: trash
/// when `simγJ` is zero for every representative, otherwise the argmax
/// (ties to the lowest cluster id) — the relocation rule of
/// [`argmax_prepared`]. `reps` are the representatives
/// prepared against `ctx`'s table (see
/// [`prepare_representatives`](crate::rep::prepare_representatives)).
/// Adds comparison work to `work`. Shared with the PK-means baseline.
pub(crate) fn relocate_slice(
    ds: &Dataset,
    ctx: &SimCtx<'_>,
    local: &[usize],
    assignments: &mut [u32],
    reps: &PreparedSlab,
    k: usize,
    work: &mut u64,
) -> Relocation {
    // Work is charged analytically (one unit per item-pair comparison) so
    // the comparison loop itself can run under rayon.
    let rep_len_sum: u64 = reps.iter().map(|rep| rep.len() as u64).sum();
    let choices: Vec<(u32, f64)> = local
        .par_iter()
        .map(|&t| {
            // One prepared transaction and one scratch per transaction,
            // shared across its k scores.
            let tx = ds.transactions[t]
                .items()
                .iter()
                .map(|id| ds.items[id.index()].view());
            let query = PreparedSlab::build(ctx.tag_sim, [tx]);
            let mut scratch = ScoreScratch::default();
            match query.get(0) {
                Some(query) => {
                    let ids = 0..reps.len() as u32;
                    argmax_prepared(ctx, query, reps, ids, k as u32, &mut scratch)
                }
                None => (k as u32, 0.0),
            }
        })
        .collect();
    let mut result = Relocation::default();
    for (li, &t) in local.iter().enumerate() {
        *work += ds.transactions[t].len() as u64 * rep_len_sum;
        let (new, best_s) = choices[li];
        result.objective += best_s;
        if new != assignments[li] {
            result.relocations += 1;
            assignments[li] = new;
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Backend, EngineBuilder};
    use cxk_transact::{BuildOptions, DatasetBuilder};

    /// Engine-backed equivalents of the old free functions.
    fn fit_centralized(ds: &Dataset, config: &CxkConfig) -> ClusteringOutcome {
        EngineBuilder::from_cxk_config(config)
            .build()
            .expect("valid test config")
            .fit(ds)
            .expect("fit succeeds")
            .into_outcome()
    }

    fn fit_collaborative(
        ds: &Dataset,
        partition: &[Vec<usize>],
        config: &CxkConfig,
    ) -> ClusteringOutcome {
        EngineBuilder::from_cxk_config(config)
            .backend(Backend::SimulatedP2p {
                peers: partition.len(),
            })
            .partition(partition.to_vec())
            .build()
            .expect("valid test config")
            .fit(ds)
            .expect("fit succeeds")
            .into_outcome()
    }

    /// Two well-separated groups: KDD data-mining papers and networking
    /// articles (different record tags AND disjoint topical vocabulary).
    fn dataset() -> (Dataset, Vec<u32>) {
        let mining = [
            "mining frequent patterns clustering trees",
            "clustering transactional data mining streams",
            "frequent subtree mining patterns forest",
            "partitional clustering centroids mining",
            "itemset mining patterns association clustering",
            "tree mining clustering xml patterns",
        ];
        let networking = [
            "routing congestion protocols networks",
            "packet routing networks latency congestion",
            "congestion control protocols bandwidth networks",
            "network routing topology protocols packets",
            "wireless networks routing protocols handoff",
            "multicast routing networks congestion packets",
        ];
        let mut builder = DatasetBuilder::new(BuildOptions::default());
        let mut labels = Vec::new();
        for (i, title) in mining.iter().enumerate() {
            builder
                .add_xml(&format!(
                    r#"<dblp><inproceedings key="m{i}"><author>A. Miner</author><title>{title}</title><booktitle>KDD</booktitle></inproceedings></dblp>"#
                ))
                .unwrap();
            labels.push(0);
        }
        for (i, title) in networking.iter().enumerate() {
            builder
                .add_xml(&format!(
                    r#"<dblp><article key="n{i}"><author>B. Netter</author><title>{title}</title><journal>Networking</journal></article></dblp>"#
                ))
                .unwrap();
            labels.push(1);
        }
        (builder.finish(), labels)
    }

    fn config(k: usize) -> CxkConfig {
        CxkConfig {
            k,
            params: SimParams::new(0.5, 0.6),
            max_rounds: 20,
            max_inner: 10,
            seed: 7,
            cost: CostModel::default(),
            weighted_merge: true,
        }
    }

    #[test]
    fn centralized_recovers_two_clusters() {
        let (ds, labels) = dataset();
        let outcome = fit_centralized(&ds, &config(2));
        assert!(outcome.converged, "should converge");
        assert_eq!(outcome.assignments.len(), ds.transactions.len());
        let f = cxk_eval::f_measure(&labels, &outcome.assignments);
        assert!(f > 0.9, "F-measure = {f}");
        assert_eq!(outcome.total_bytes, 0, "centralized has no traffic");
        assert_eq!(outcome.m, 1);
    }

    #[test]
    fn collaborative_three_peers_stays_accurate() {
        let (ds, labels) = dataset();
        let n = ds.transactions.len();
        let partition = cxk_corpus::partition_equal(n, 3, 1);
        let outcome = fit_collaborative(&ds, &partition, &config(2));
        assert!(outcome.rounds <= 20);
        let f = cxk_eval::f_measure(&labels, &outcome.assignments);
        assert!(f > 0.7, "F-measure = {f}");
        assert!(outcome.total_bytes > 0, "peers must exchange data");
        assert!(outcome.total_messages > 0);
    }

    #[test]
    fn every_transaction_is_assigned_exactly_once() {
        let (ds, _) = dataset();
        let n = ds.transactions.len();
        let partition = cxk_corpus::partition_equal(n, 4, 2);
        let outcome = fit_collaborative(&ds, &partition, &config(3));
        assert_eq!(outcome.assignments.len(), n);
        for &a in &outcome.assignments {
            assert!(a <= outcome.trash_id());
        }
        let sizes = outcome.cluster_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), n);
    }

    #[test]
    fn deterministic_given_seed() {
        let (ds, _) = dataset();
        let n = ds.transactions.len();
        let partition = cxk_corpus::partition_equal(n, 3, 5);
        let a = fit_collaborative(&ds, &partition, &config(2));
        let b = fit_collaborative(&ds, &partition, &config(2));
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.simulated_seconds, b.simulated_seconds);
        assert_eq!(a.total_bytes, b.total_bytes);
    }

    #[test]
    fn more_peers_less_critical_path_work() {
        let (ds, _) = dataset();
        let n = ds.transactions.len();
        let solo = fit_centralized(&ds, &config(2));
        let spread = fit_collaborative(&ds, &cxk_corpus::partition_equal(n, 4, 3), &config(2));
        // Per-round critical-path work must shrink when data is spread.
        let solo_max = solo.per_round.iter().map(|r| r.max_work).max().unwrap();
        let spread_max = spread.per_round.iter().map(|r| r.max_work).max().unwrap();
        assert!(
            spread_max < solo_max,
            "spread {spread_max} !< solo {solo_max}"
        );
    }

    #[test]
    fn simulated_time_positive_and_rounds_traced() {
        let (ds, _) = dataset();
        let outcome = fit_centralized(&ds, &config(2));
        assert!(outcome.simulated_seconds > 0.0);
        assert_eq!(outcome.per_round.len(), outcome.rounds);
        assert_eq!(
            outcome.per_round.last().unwrap().done_peers,
            1,
            "final round reports done"
        );
    }

    #[test]
    fn gamma_one_sends_everything_to_trash() {
        let (ds, _) = dataset();
        let mut cfg = config(2);
        // γ = 1 with mixed content: nothing matches representatives except
        // identical items; most transactions share nothing identical enough.
        cfg.params = SimParams::new(0.5, 1.0);
        let outcome = fit_centralized(&ds, &cfg);
        // The initial representatives themselves still match (they are
        // transactions), but a large share lands in the trash cluster.
        assert!(
            outcome.trash_count() >= ds.transactions.len() / 2,
            "trash = {}",
            outcome.trash_count()
        );
    }

    #[test]
    fn k_larger_than_data_is_handled() {
        let (ds, _) = dataset();
        let n = ds.transactions.len();
        let cfg = config(n + 3);
        let outcome = fit_centralized(&ds, &cfg);
        assert_eq!(outcome.assignments.len(), n);
        let sizes = outcome.cluster_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), n);
    }

    #[test]
    fn single_transaction_dataset() {
        let mut builder = DatasetBuilder::new(BuildOptions::default());
        builder
            .add_xml("<a><b>lonely content here</b></a>")
            .unwrap();
        let ds = builder.finish();
        let outcome = fit_centralized(&ds, &config(1));
        assert_eq!(outcome.assignments, vec![0]);
        assert!(outcome.converged);
    }
}
