//! The PK-means baseline — parallel K-means (Dhillon & Modha \[11\]) adapted
//! to XML transactions, as in the paper's §5.5.3 comparison.
//!
//! The adaptation follows the paper: Euclidean distance is replaced by the
//! XML transaction similarity `simγJ` and the vector mean by the XML
//! cluster-representative computation. The message-passing structure of the
//! multiprocessor original maps onto the P2P network as an **all-to-all
//! exchange**: every peer broadcasts all `k` of its local cluster summaries
//! to every other peer each round, and every peer then (re)computes all `k`
//! global representatives itself from the pooled summaries.
//!
//! The two non-collaborative traits that the paper's evaluation isolates:
//!
//! * **Traffic** — `k·(m−1)` representatives per peer per round, versus
//!   CXK-means' `~2k(m−1)/m`; the gap grows with `m` and produces the
//!   divergence of Fig. 8.
//! * **No meta-representative weighting** — summaries are pooled unweighted
//!   (the plain mean of \[11\] treats every processor's contribution alike
//!   once normalized), costing PK-means the small accuracy edge CXK-means'
//!   weighted global representatives provide (§5.5.3 reports ≈ 0.03 F).
//!
//! Everything else in a round is shared with CXK-means through the
//! simulated-clock scaffolding of [`crate::cxk`]: the start from the same
//! initial representatives, the local clustering phase, the status charge
//! and the gather. Both algorithms read one [`CxkConfig`], so they run at
//! the same inner-pass cap.

use crate::cxk::{CxkConfig, SimRun};
use crate::error::CxkError;
use crate::globalrep::compute_global_representative;
use crate::outcome::ClusteringOutcome;
use crate::rep::Representative;
use cxk_transact::Dataset;
use rayon::prelude::*;

/// Runs PK-means over an explicit peer partition. This is the driver
/// behind [`crate::engine::Algorithm::PkMeans`]. It reads the same
/// [`CxkConfig`] as CXK-means — round cap, inner passes, seed and cost
/// model matched, so the §5.5.3 comparison isolates the exchange scheme —
/// and ignores `weighted_merge`: its pooling is always unweighted.
pub(crate) fn drive_pk_means(
    ds: &Dataset,
    partition: &[Vec<usize>],
    config: &CxkConfig,
) -> Result<ClusteringOutcome, CxkError> {
    let mut run = SimRun::start(ds, partition, config)?;
    let (m, k) = (partition.len(), config.k);

    let mut converged = false;
    let mut rounds = 0;
    let mut best_objective = f64::NEG_INFINITY;
    let mut stale_rounds = 0usize;

    for round in 1..=config.max_rounds {
        rounds = round;

        let mut samples = run.local_phase();
        // Convergence signal exchange (the global-SSE reduction of [11]):
        // every peer shares its relocation count with every other peer.
        let mut round_bytes = run.charge_status(&mut samples);

        let peers = &run.peers;
        let total_relocations: u64 = peers.iter().map(|p| p.relocations).sum();
        // [11]'s stopping rule is "global SSE unchanged"; the XML adaptation
        // loses SSE monotonicity (representatives are greedy tree tuples,
        // not exact means), so assignments can limit-cycle. The globally
        // reduced objective is therefore tracked with a small patience
        // window: stop once it has not improved for three rounds.
        let global_objective: f64 = peers.iter().map(|p| p.objective).sum();
        if global_objective > best_objective + 1e-9 {
            best_objective = global_objective;
            stale_rounds = 0;
        } else {
            stale_rounds += 1;
        }
        if total_relocations == 0 || stale_rounds >= 3 {
            run.close_round(round, &samples, round_bytes, 0, m);
            converged = true;
            break;
        }

        // All-to-all summary exchange: every peer ships all k summaries to
        // every other peer.
        if m > 1 {
            for (i, peer) in peers.iter().enumerate() {
                let payload: u64 = peer.local_reps.iter().map(|r| r.wire_size() as u64).sum();
                samples[i].comm_bytes += payload * (m as u64 - 1);
                samples[i].messages += m as u64 - 1;
                round_bytes += payload * (m as u64 - 1);
                for (h, sample) in samples.iter_mut().enumerate() {
                    if h != i {
                        sample.comm_bytes += payload;
                    }
                }
            }
        }

        // Replicated global computation: every peer recomputes all k
        // representatives from the pooled, unweighted summaries.
        let per_cluster_work: Vec<(Representative, u64)> = (0..k)
            .into_par_iter()
            .map(|j| {
                let pooled: Vec<(Representative, u64)> = peers
                    .iter()
                    .map(|p| (p.local_reps[j].clone(), u64::from(p.weights[j] > 0)))
                    .collect();
                let mut work = 0u64;
                let g = compute_global_representative(&run.ctx, &pooled, &mut work);
                (g, work)
            })
            .collect();
        let replicated_work: u64 = per_cluster_work.iter().map(|(_, w)| w).sum();
        // Every peer performs the full computation (replicated).
        for sample in samples.iter_mut() {
            sample.work_units += replicated_work;
        }

        let new_globals: Vec<Representative> =
            per_cluster_work.into_iter().map(|(g, _)| g).collect();
        // Second stopping rule, the analogue of [11]'s "global SSE does not
        // change": identical representatives imply an identical objective on
        // the next pass, so a pure relocation-count test would limit-cycle.
        let reps_stable = new_globals
            .iter()
            .zip(&run.global_reps)
            .all(|(new, old)| new.same_items(old));
        run.global_reps = new_globals;
        run.close_round(round, &samples, round_bytes, total_relocations, 0);
        if reps_stable {
            converged = true;
            break;
        }
    }

    Ok(run.gather(rounds, converged).outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Algorithm, Backend, EngineBuilder};
    use cxk_p2p::CostModel;
    use cxk_transact::{BuildOptions, DatasetBuilder, SimParams};

    /// Engine-backed PK-means over an explicit partition.
    fn fit_pk(ds: &Dataset, partition: &[Vec<usize>], config: &CxkConfig) -> ClusteringOutcome {
        EngineBuilder::from_cxk_config(config)
            .algorithm(Algorithm::PkMeans)
            .backend(Backend::SimulatedP2p {
                peers: partition.len(),
            })
            .partition(partition.to_vec())
            .build()
            .expect("valid test config")
            .fit(ds)
            .expect("pk fit succeeds")
            .into_outcome()
    }

    fn dataset() -> (Dataset, Vec<u32>) {
        let mining = [
            "mining frequent patterns clustering trees",
            "clustering transactional data mining streams",
            "frequent subtree mining patterns forest",
            "partitional clustering centroids mining",
        ];
        let networking = [
            "routing congestion protocols networks",
            "packet routing networks latency congestion",
            "congestion control protocols bandwidth networks",
            "network routing topology protocols packets",
        ];
        let mut builder = DatasetBuilder::new(BuildOptions::default());
        let mut labels = Vec::new();
        for (i, title) in mining.iter().enumerate() {
            builder.add_xml(&format!(
                r#"<dblp><inproceedings key="m{i}"><author>A. Miner</author><title>{title}</title><booktitle>KDD</booktitle></inproceedings></dblp>"#
            )).unwrap();
            labels.push(0);
        }
        for (i, title) in networking.iter().enumerate() {
            builder.add_xml(&format!(
                r#"<dblp><article key="n{i}"><author>B. Netter</author><title>{title}</title><journal>Networking</journal></article></dblp>"#
            )).unwrap();
            labels.push(1);
        }
        (builder.finish(), labels)
    }

    fn pk_config(k: usize) -> CxkConfig {
        CxkConfig {
            k,
            params: SimParams::new(0.5, 0.6),
            max_rounds: 20,
            max_inner: 2,
            seed: 7,
            cost: CostModel::default(),
            weighted_merge: true,
        }
    }

    #[test]
    fn pk_means_clusters_separable_data() {
        let (ds, labels) = dataset();
        let partition = cxk_corpus::partition_equal(ds.transactions.len(), 2, 1);
        let outcome = fit_pk(&ds, &partition, &pk_config(2));
        let f = cxk_eval::f_measure(&labels, &outcome.assignments);
        assert!(f > 0.7, "F = {f}");
        assert!(outcome.converged);
    }

    #[test]
    fn pk_traffic_exceeds_cxk_traffic_at_same_m() {
        let (ds, _) = dataset();
        let m = 4;
        let partition = cxk_corpus::partition_equal(ds.transactions.len(), m, 2);
        let pk = fit_pk(&ds, &partition, &pk_config(2));
        let cxk = {
            let mut c = CxkConfig::new(2);
            c.params = SimParams::new(0.5, 0.6);
            c.seed = 7;
            EngineBuilder::from_cxk_config(&c)
                .backend(Backend::SimulatedP2p { peers: m })
                .partition(partition.clone())
                .build()
                .expect("valid")
                .fit(&ds)
                .expect("fits")
                .into_outcome()
        };
        // Normalize per round: PK's all-to-all must out-traffic CXK's
        // owner-routed exchange.
        let pk_per_round = pk.total_bytes as f64 / pk.rounds.max(1) as f64;
        let cxk_per_round = cxk.total_bytes as f64 / cxk.rounds.max(1) as f64;
        assert!(
            pk_per_round > cxk_per_round,
            "pk {pk_per_round} !> cxk {cxk_per_round}"
        );
    }

    #[test]
    fn pk_is_deterministic() {
        let (ds, _) = dataset();
        let partition = cxk_corpus::partition_equal(ds.transactions.len(), 3, 3);
        let a = fit_pk(&ds, &partition, &pk_config(2));
        let b = fit_pk(&ds, &partition, &pk_config(2));
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.total_bytes, b.total_bytes);
    }

    #[test]
    fn pk_single_peer_has_no_traffic() {
        let (ds, _) = dataset();
        let all: Vec<usize> = (0..ds.transactions.len()).collect();
        let outcome = fit_pk(&ds, &[all], &pk_config(2));
        assert_eq!(outcome.total_bytes, 0);
        assert!(outcome.converged);
    }

    #[test]
    fn pk_assignment_is_total() {
        let (ds, _) = dataset();
        let partition = cxk_corpus::partition_equal(ds.transactions.len(), 3, 4);
        let outcome = fit_pk(&ds, &partition, &pk_config(3));
        assert_eq!(outcome.assignments.len(), ds.transactions.len());
        assert_eq!(
            outcome.cluster_sizes().iter().sum::<usize>(),
            ds.transactions.len()
        );
    }
}
